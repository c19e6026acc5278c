"""Fourier-side engine for walks on the torus.

The continuous-time walk jumps at rate one with kernel q, so its
transition law diagonalizes over the torus characters.  With
phi(theta) = sum_x q(x) cos(theta . x) (real by mirror symmetry),
everything downstream is a weighted inverse transform over the
frequency grid theta_y = 2*pi*y/L:

* occupation probabilities:  P_0(X_t = x) = L^-2 sum_y exp(-t(1-phi)) e^{i theta_y . x}
* resolvent ("green"):       G(x, lam)    = L^-2 sum_y e^{i theta_y . x} / (lam + 1 - phi)
* hitting transform:         F(x, lam)    = G(x, lam) / G(0, lam)

phi is even, so a grid stores it only on the rfft2 half-plane
(L x (L/2 + 1) frequencies, indexed by coordinate mod L): built by one
rfft2 of the wrapped kernel mass, inverted by one irfft2 per
transform.  Fields over the torus (heat, green, hitting transform)
come back from that irfft2 as they are: its output order is the
mod-L layout of `torus`, with the origin at index 0.  A direct
summation path exists for cross-checking the FFT path at small sizes.

Kernels whose range equals the torus side are wrapped with colliding
pre-images summed, which is exact at torus frequencies; ranges
exceeding the side are rejected.

condition_report probes finite-size analogs of the small-ball,
mid-ball, and far-field behavior of 1 - phi on sup-norm annuli; it
measures and reports, and deliberately attaches no pass/fail verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import JumpKernel
from .torus import TWO_PI, TorusSpec, frequencies, wrap

IMAG_TOL = 1e-12
SYMMETRY_TOL = 1e-12
HEAT_NEGATIVE_TOL = 1e-12
HEAT_SUM_TOL = 1e-9
N_ANGLES = 64
N_RADII = 64
DIRECT_MAX_SIDE = 256


def char_fn(kernel: JumpKernel, theta: np.ndarray, checked: bool = False) -> np.ndarray:
    """Characteristic function sum_x q(x) cos(theta . x).

    Parameters
    ----------
    kernel : JumpKernel
    theta : array_like, shape (..., 2)
        Angular arguments; any real values are legal.
    checked : bool
        Also form the odd part sum_x q(x) sin(theta . x) and require
        it to vanish to 1e-12 (it does for any valid kernel).

    Returns
    -------
    ndarray of float64, shape theta.shape[:-1]
    """
    th = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    out_shape = th.shape[:-1]
    flat = th.reshape(-1, 2)
    pts = kernel.points.astype(np.float64)
    # points[::-1] == -points and cos is even: the second half of each
    # row of cosines is the first half reversed
    half = kernel.n_support // 2
    vals = np.empty(flat.shape[0])
    chunk = max(1, int(2**22 // max(kernel.n_support, 1)))
    for start in range(0, flat.shape[0], chunk):
        block = flat[start : start + chunk]
        phases = block @ (pts if checked else pts[:half]).T
        if checked:
            odd = np.abs(np.sin(phases) @ kernel.masses)
            if odd.size and float(odd.max()) > IMAG_TOL:
                raise ArithmeticError("odd part of the characteristic sum did not vanish")
        row = np.empty((block.shape[0], kernel.n_support))
        np.cos(phases[:, :half], out=row[:, :half])
        row[:, half:] = row[:, half - 1 :: -1]
        vals[start : start + chunk] = row @ kernel.masses
    result = vals.reshape(out_shape)
    if np.asarray(theta).ndim == 1:
        return result[()] if result.shape == () else result[0]
    return result


@dataclass(frozen=True)
class SpectralGrid:
    """phi evaluated on the rfft2 half-plane of one torus's frequencies.

    half[k1, k2] = phi(2*pi*(k1, k2)/L) for k1 in 0..L-1 and k2 in
    0..L/2, indexed by coordinate mod L (numpy's FFT order).  phi is
    even, so the other half of the frequency grid mirrors this one.
    The origin frequency is pinned to exactly 1.
    """

    spec: TorusSpec
    kernel_label: str
    half: np.ndarray

    def __post_init__(self) -> None:
        L = self.spec.L
        h = self.half
        if h.shape != (L, L // 2 + 1):
            raise ValueError("half-plane grid must have shape (L, L/2 + 1)")
        if h[0, 0] != 1.0:
            raise ValueError("origin frequency must carry phi = 1 exactly")
        if _max_abs(h) > 1.0 + 1e-12:
            raise ValueError("characteristic values must lie in [-1, 1]")
        # Columns k2 = 0 and L/2 are their own mirror image; every other
        # entry stands for itself and its mirror, so symmetry there is
        # structural.  y -> -y fixes row 0 and reverses rows 1..L-1.
        edges = h[1:, [0, L // 2]]
        if _max_abs(edges - edges[::-1]) > SYMMETRY_TOL:
            raise ValueError("grid must be symmetric under y -> -y")


def _max_abs(a: np.ndarray) -> float:
    """max |a|, without an |a| temporary."""
    return max(float(a.max()), -float(a.min()))


def _half_plane_thetas(spec: TorusSpec) -> np.ndarray:
    """Canonical angular frequencies of the half-plane, shape (L, L/2 + 1, 2)."""
    L = spec.L
    k1 = spec.axis_coords()
    k2 = np.arange(L // 2 + 1)
    y = np.stack(np.meshgrid(k1, k2, indexing="ij"), axis=-1)
    return TWO_PI * y / L


def _wrapped_mass(kernel: JumpKernel, spec: TorusSpec) -> np.ndarray:
    """Kernel mass wrapped onto the torus, indexed by coordinate mod L."""
    m = np.zeros((spec.L, spec.L))
    idx = kernel.points % spec.L
    np.add.at(m, (idx[:, 0], idx[:, 1]), kernel.masses)
    return m


def build_grid(kernel: JumpKernel, spec: TorusSpec, method: str = "fft") -> SpectralGrid:
    """Evaluate phi over the half-plane of torus frequencies.

    method="fft" transforms the wrapped mass array (exact at torus
    frequencies for any range <= L); method="direct" sums cosines
    frequency by frequency and exists to cross-check the fast path.
    """
    if kernel.M > spec.L:
        raise ValueError(
            f"kernel range {kernel.M} exceeds torus side {spec.L}; wrap is ambiguous"
        )
    if method == "fft":
        # given `out`, rfft2 transforms its second axis in place
        out = np.empty((spec.L, spec.L // 2 + 1), dtype=np.complex128)
        transform = np.fft.rfft2(_wrapped_mass(kernel, spec), out=out)
        if _max_abs(transform.imag) > IMAG_TOL:
            raise ArithmeticError("characteristic grid acquired an imaginary part")
        half = transform.real.copy()
    elif method == "direct":
        if spec.L > DIRECT_MAX_SIDE:
            raise ValueError(f"direct summation is for sides <= {DIRECT_MAX_SIDE}")
        half = char_fn(kernel, _half_plane_thetas(spec), checked=True)
    else:
        raise ValueError(f"unknown method {method!r}")
    half[0, 0] = 1.0
    return SpectralGrid(spec=spec, kernel_label=kernel.label, half=half)


@dataclass(frozen=True)
class HeatGrid:
    """Occupation probabilities from the origin at one time.

    raw is the unclipped inverse transform (kept for error analysis);
    probs clips the at-most-1e-12 negative rounding residue to zero.
    """

    spec: TorusSpec
    t: float
    raw: np.ndarray

    def __post_init__(self) -> None:
        if self.raw.shape != (self.spec.n_points,):
            raise ValueError("heat values must have length L^2")
        if float(self.raw.min()) < -HEAT_NEGATIVE_TOL:
            raise ArithmeticError("occupation probability below the rounding floor")
        if abs(float(self.raw.sum()) - 1.0) > HEAT_SUM_TOL:
            raise ArithmeticError("occupation probabilities must sum to one")

    @property
    def probs(self) -> np.ndarray:
        return np.maximum(self.raw, 0.0)


def _heat_weights(grid: SpectralGrid, t: float) -> np.ndarray:
    """exp(-t(1 - phi)) on the half-plane."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    w = 1.0 - grid.half
    w *= -t
    return np.exp(w, out=w)


def heat(grid: SpectralGrid, t: float) -> HeatGrid:
    """Distribution of the walk at time t, started at the origin."""
    L = grid.spec.L
    raw = np.fft.irfft2(_heat_weights(grid, t), s=(L, L)).ravel()
    return HeatGrid(spec=grid.spec, t=t, raw=raw)


@dataclass(frozen=True)
class GreenField:
    """Resolvent values G(x, lam) over the torus for one lam > 0."""

    spec: TorusSpec
    lam: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.spec.n_points,):
            raise ValueError("resolvent values must have length L^2")
        if float(self.values.min()) <= 0.0:
            raise ArithmeticError("resolvent must be strictly positive")
        if float(self.values.max()) > self.values[0] * (1.0 + 1e-12):
            raise ArithmeticError("resolvent must peak at the origin")
        # x -> -x fixes axis index 0 and reverses indices 1..L-1 (index
        # L/2, coordinate L/2, is its own negative).
        sq = self.values.reshape(self.spec.L, self.spec.L)
        inner, row, col = sq[1:, 1:], sq[0, 1:], sq[1:, 0]
        asym = max(
            _max_abs(inner - inner[::-1, ::-1]),
            _max_abs(row - row[::-1]),
            _max_abs(col - col[::-1]),
        )
        if asym > 1e-10 * float(self.values[0]):
            raise ArithmeticError("resolvent must be symmetric under x -> -x")


def green(grid: SpectralGrid, lam: float) -> GreenField:
    """Resolvent G(x, lam) = integral exp(-lam s) P_x(X_s = 0) ds, all x."""
    if lam <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    w = 1.0 - grid.half
    w += lam
    np.reciprocal(w, out=w)
    L = grid.spec.L
    return GreenField(spec=grid.spec, lam=lam, values=np.fft.irfft2(w, s=(L, L)).ravel())


@dataclass(frozen=True)
class LaplaceField:
    """Hitting transform F(x, lam) = E_x exp(-lam H), H the origin hit time."""

    spec: TorusSpec
    lam: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.spec.n_points,):
            raise ValueError("transform values must have length L^2")
        if self.values[0] != 1.0:
            raise ValueError("hitting transform must equal 1 at the origin")
        if float(self.values.min()) <= 0.0 or float(self.values.max()) > 1.0:
            raise ArithmeticError("hitting transform must lie in (0, 1]")


def laplace_hit(grid: SpectralGrid, lam: float) -> LaplaceField:
    """F(x, lam) = G(x, lam) / G(0, lam); equals 1 exactly at the origin."""
    g = green(grid, lam)
    values = g.values / g.values[0]
    values[0] = 1.0
    return LaplaceField(spec=grid.spec, lam=lam, values=values)


def uniformity_gap(grid: SpectralGrid, t: float) -> tuple[float, float]:
    """Worst-case deviation from the flat law at time t, and its bound.

    Returns (gap, bound) with gap = sup_x L^2 |P_0(X_t = x) - L^-2| and
    bound = sum over nonzero frequencies of exp(-t(1-phi)), which
    dominates the gap by the triangle inequality.
    """
    n = grid.spec.n_points
    L = grid.spec.L
    # one pass of heat weights feeds both the bound and the inverse;
    # columns 1..L/2-1 stand for themselves and their mirror images
    w = _heat_weights(grid, t)
    bound = float(w[:, 0].sum() + w[:, L // 2].sum() + 2.0 * w[:, 1 : L // 2].sum() - w[0, 0])
    raw = HeatGrid(spec=grid.spec, t=t, raw=np.fft.irfft2(w, s=(L, L)).ravel()).raw
    del w  # gone before the deviation temporary below
    gap = n * _max_abs(raw - 1.0 / n)
    if gap > bound * (1.0 + 1e-9) + 1e-12:
        raise ArithmeticError("uniformity gap exceeded its analytic bound")
    return gap, bound


def orthogonality_gap(spec: TorusSpec, points: np.ndarray) -> np.ndarray:
    """|sum over the full frequency grid of e^{i theta_y . x}| per point x.

    Zero in exact arithmetic for canonical x != 0; computed by direct
    summation (not the separable shortcut) as an honest numeric audit.
    """
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    if np.any((wrap(pts, spec.L) == 0).all(axis=1)):
        raise ValueError("orthogonality audit needs nonzero points")
    ys, _ = frequencies(spec)
    out = np.empty(pts.shape[0])
    for i, x in enumerate(pts):
        phases = TWO_PI * (ys @ x) / spec.L
        out[i] = abs(complex(np.sum(np.cos(phases)), np.sum(np.sin(phases))))
    return out


# ---------------------------------------------------------------------------
# Finite-size condition diagnostics


@dataclass(frozen=True)
class ConditionRow:
    M: int
    sigma2: float
    p1_max_dev: float
    p2_min: float
    p3_max_abs: float


@dataclass(frozen=True)
class ConditionReport:
    """Measured finite-size behavior of 1 - phi for a kernel ladder.

    p1_max_dev: worst relative deviation of (1-phi)/(sigma2 M^2 |theta|^2 / 2)
    from 1 on the punctured sup-norm ball of radius delta/M.
    p2_min: minimum of 1 - phi on the sup-norm annulus (delta/M, delta_prime].
    p3_max_abs: maximum of |phi| on the sup-norm annulus (a, pi].
    Measurement only; thresholds (eps) are echoed for the caller.

    Accuracy floor: 1 - phi is formed as 1 - sum q cos(theta . x), which
    cancels at the small-ball probes.  For uniform M = 128, p1_max_dev
    reads 0.0156860551, 1.5e-6 relative above the cancellation-free
    2 sum q sin^2(theta . x / 2) and above its theta -> 0 supremum
    (129/128)^2 - 1 = 0.0156860352.
    """

    delta: float
    delta_prime: float
    a: float
    eps: float
    n_angles: int
    n_radii: int
    rows: tuple[ConditionRow, ...]


def _supnorm_annulus_probes(
    inner: float, outer: float, n_angles: int, n_radii: int, include_inner: bool = False
) -> np.ndarray:
    """Probe points of {theta : inner < ||theta||_inf <= outer} (sup-norm).

    Per angle, radii are log-spaced between the directional boundary
    crossings; inner = 0 uses outer * 1e-3 as the smallest probe.
    """
    if outer <= inner:
        raise ValueError(f"empty probe region: ({inner}, {outer}]")
    psis = TWO_PI * (np.arange(n_angles) + 0.5) / n_angles
    out = np.empty((n_angles * n_radii, 2))
    for j, psi in enumerate(psis):
        direction = np.array([math.cos(psi), math.sin(psi)])
        m = max(abs(direction[0]), abs(direction[1]))
        r_hi = outer / m
        r_lo = (inner / m) * (1.0 + 1e-12) if inner > 0.0 else r_hi * 1e-3
        if include_inner and inner > 0.0:
            r_lo = inner / m
        radii = np.geomspace(r_lo, r_hi, n_radii)
        out[j * n_radii : (j + 1) * n_radii] = radii[:, None] * direction[None, :]
    return out


def condition_report(
    kernels: list[JumpKernel],
    delta: float,
    delta_prime: float,
    a: float,
    eps: float,
    n_angles: int = N_ANGLES,
    n_radii: int = N_RADII,
) -> ConditionReport:
    """Measure small-ball, mid-ball, and far-field behavior of 1 - phi.

    Probes three sup-norm regions per kernel: the punctured ball of
    radius delta/M (relative second-order deviation), the annulus
    (delta/M, delta_prime] (minimum of 1 - phi), and the annulus
    (a, pi] (maximum of |phi|).  Raises on empty regions.
    """
    if delta <= 0 or delta_prime <= 0 or not 0 < a < math.pi:
        raise ValueError("probe parameters must be positive with a < pi")
    rows = []
    for kernel in kernels:
        M = kernel.M
        if delta / M >= delta_prime:
            raise ValueError(f"empty mid region for M={M}: delta/M >= delta_prime")
        sigma2 = kernel.sigma2_limit if kernel.sigma2_limit is not None else kernel.sigma2_M / M**2
        th1 = _supnorm_annulus_probes(0.0, delta / M, n_angles, n_radii)
        ratio = (1.0 - char_fn(kernel, th1)) / (
            sigma2 * M**2 * (th1**2).sum(axis=1) / 2.0
        )
        th2 = _supnorm_annulus_probes(delta / M, delta_prime, n_angles, n_radii)
        mid = 1.0 - char_fn(kernel, th2)
        th3 = _supnorm_annulus_probes(a, math.pi, n_angles, n_radii)
        far = np.abs(char_fn(kernel, th3))
        rows.append(
            ConditionRow(
                M=M,
                sigma2=float(sigma2),
                p1_max_dev=float(np.max(np.abs(ratio - 1.0))),
                p2_min=float(mid.min()),
                p3_max_abs=float(far.max()),
            )
        )
    return ConditionReport(
        delta=delta,
        delta_prime=delta_prime,
        a=a,
        eps=eps,
        n_angles=n_angles,
        n_radii=n_radii,
        rows=tuple(rows),
    )
