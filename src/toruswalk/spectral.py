"""Fourier-side engine for walks on the torus.

The continuous-time walk jumps at rate one with kernel q, so its
transition law diagonalizes over the torus characters.  Every kernel
is symmetric under each axis reflection (see JumpKernel), so
phi(theta) = sum_x q(x) cos(theta_1 x_1) cos(theta_2 x_2), and
everything downstream is a weighted cosine transform over the
frequency grid theta_y = 2*pi*y/L, with c(y, x) = cos(theta_y1 x_1) cos(theta_y2 x_2):

* occupation probabilities:  P_0(X_t = x) = L^-2 sum_y exp(-t(1-phi)) c(y, x)
* resolvent ("green"):       G(x, lam)    = L^-2 sum_y c(y, x) / (lam + 1 - phi)
* hitting transform:         F(x, lam)    = G(x, lam) / G(0, lam)

phi and each of these fields are even in each coordinate, so each is
stored on the closed quadrant 0..L/2 per axis: an (L/2 + 1)^2 array
indexed by coordinate, whose entry (a, b) stands for the m(a) m(b)
torus points (+-a, +-b), with m = 1 at 0 and L/2 and m = 2 elsewhere.
On that quadrant each transform is one type-I discrete cosine
transform (scipy.fft.dctn, type=1): the grid is the DCT-I of the
kernel mass wrapped onto the quadrant, and each field is the DCT-I of
its frequency weights divided by L^2.  Sums over the torus weight the
quadrant by m(a) m(b) (torus_sum).  The `values`/`raw`/`probs`
properties unfold a field to the full torus in the mod-L layout of
`torus` (origin at index 0), for callers at small L.  A direct
summation path exists for cross-checking the fast path at small sizes.

One grid (uniform M=8) plus three resolvent inverses, in a fresh
process on a 2-core x86_64 machine: one inverse takes about 0.09 s at
L=4096 with a 128 MB peak RSS, and 0.47 s at L=8192 with a 320 MB
peak (tools/bench_spectral.py; medians in BENCH_spectral_large.json).

Kernels whose range equals the torus side are wrapped with colliding
pre-images summed, which is exact at torus frequencies; ranges
exceeding the side are rejected.

char_fn sums cosines over the kernel's support at arbitrary angles, in
tiles of probes: a multiple of 8 probes per tile, at most TILE_ENTRIES
(2^16) cosines unless 8 probes need more, and the last tile zero-padded
to full size.  So its working set does not grow with the number of
probes (1.9 MB for uniform M=128), and a probe's value does not
depend on how the probes are batched.
limits._quadrant_sum runs its lattice sums in strips of the same budget.

condition_report probes finite-size analogs of the small-ball,
mid-ball, and far-field behavior of 1 - phi on sup-norm annuli; it
measures and reports, and deliberately attaches no pass/fail verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import JumpKernel, _box_axis
from .torus import TWO_PI, TorusSpec, frequencies, wrap

IMAG_TOL = 1e-12
HEAT_NEGATIVE_TOL = 1e-12
HEAT_SUM_TOL = 1e-9
N_ANGLES = 64
N_RADII = 64
DIRECT_MAX_SIDE = 256
# working-set budget, in float64 entries, of the tiled lattice loops:
# char_fn's probe tiles and limits._quadrant_sum's strips
TILE_ENTRIES = 2**16


def _tile_rows(n_columns: int) -> int:
    """Rows of a tile of n_columns entries each: a multiple of 8, at least 8,
    and at most TILE_ENTRIES entries in all when that allows 8 rows."""
    return max(8, TILE_ENTRIES // n_columns // 8 * 8)


def char_fn(kernel: JumpKernel, theta: np.ndarray, checked: bool = False) -> np.ndarray:
    """Characteristic function sum_x q(x) cos(theta . x).

    The probes run in tiles of T rows: T is a multiple of 8, at least
    8, and at most TILE_ENTRIES / n_support when that is 8 or more.
    The last tile is padded with theta = 0 to T rows, so every probe
    goes through the same BLAS call shapes and its value does not
    depend on how many probes the call holds or where it sits among
    them.  Besides theta and the result, a call holds one tile of
    cosines, half a tile of phases (a whole one when checked) and the
    support as floats: 1.9 MB for uniform M=128, whatever the number
    of probes.

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
    if th.shape[-1] != 2:
        raise ValueError(f"theta must have a last axis of length 2, got shape {np.shape(theta)}")
    out_shape = th.shape[:-1]
    flat = th.reshape(-1, 2)
    n = kernel.n_support
    pts = kernel.points.astype(np.float64)
    # points[::-1] == -points and cos is even: the second half of each
    # row of cosines is the first half reversed
    half = n // 2
    cols = pts if checked else pts[:half]
    T = _tile_rows(n)
    n_tiles = -(-flat.shape[0] // T)
    tile = np.zeros((T, 2))
    phases = np.empty((T, cols.shape[0]))
    row = np.empty((T, n))
    vals = np.empty(n_tiles * T)
    for i in range(n_tiles):
        block = flat[i * T : (i + 1) * T]
        tile[: block.shape[0]] = block
        tile[block.shape[0] :] = 0.0
        np.matmul(tile, cols.T, out=phases)
        out = vals[i * T : (i + 1) * T]
        if checked:
            np.matmul(np.sin(phases, out=row), kernel.masses, out=out)
            if _max_abs(out) > IMAG_TOL:
                raise ArithmeticError("odd part of the characteristic sum did not vanish")
        cos = np.cos(phases[:, :half], out=phases[:, :half])
        row[:, :half] = cos
        row[:, half:] = cos[:, ::-1]
        np.matmul(row, kernel.masses, out=out)
    result = vals[: flat.shape[0]].reshape(out_shape)
    if np.asarray(theta).ndim == 1:
        return result[()] if result.shape == () else result[0]
    return result


def char_fn_grid(kernel: JumpKernel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """char_fn on the tensor grid: out[i, j] = phi(u[i], v[j]), shape (|u|, |v|).

    The box is symmetric under each axis reflection, so phi(u, v) =
    sum_ab box[a, b] cos(u x_a) cos(v x_b), x = -M/2..M/2: the matrix
    product cos(u (x) x) @ box @ cos(x (x) v), with O(M) cosines per
    grid line instead of O(M^2) per grid point.
    """
    x = _box_axis(kernel.M).astype(np.float64)
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    return np.cos(np.outer(u, x)) @ kernel.box @ np.cos(np.outer(x, v))


def _max_abs(a: np.ndarray) -> float:
    """max |a|, without an |a| temporary."""
    return max(float(a.max()), -float(a.min()))


def _check_quadrant(q: np.ndarray, spec: TorusSpec, what: str) -> None:
    """Refuse an array that is not the (L/2 + 1)^2 quadrant of the torus."""
    n = spec.L // 2 + 1
    if q.shape != (n, n):
        raise ValueError(f"{what} must have the quadrant shape (L/2 + 1, L/2 + 1)")


def unfold(q: np.ndarray, spec: TorusSpec) -> np.ndarray:
    """The full-torus field, shape (L^2,) in the mod-L layout, of a quadrant array.

    Axis index i holds coordinate i or i - L, whose quadrant index is
    min(i, L - i).
    """
    i = np.arange(spec.L)
    f = np.minimum(i, spec.L - i)
    return q[np.ix_(f, f)].ravel()


def torus_sum(q: np.ndarray) -> float:
    """Sum over the torus of the even field whose quadrant is q: m @ q @ m,
    with m the torus points per quadrant index along one axis (1 at 0 and
    L/2, 2 elsewhere)."""
    m = np.full(q.shape[0], 2.0)
    m[[0, -1]] = 1.0
    return float(m @ q @ m)


def _dct1(a: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I along both axes, computed in the storage of a."""
    import scipy.fft  # costs about 0.1 s, so only processes that transform pay it

    return scipy.fft.dctn(a, type=1, overwrite_x=True)


def _field(weights: np.ndarray, L: int) -> np.ndarray:
    """L^-2 sum_y weights(y) c(y, x) on the quadrant, from weights on the quadrant."""
    out = _dct1(weights)
    out /= L * L
    return out


@dataclass(frozen=True)
class SpectralGrid:
    """phi evaluated on the quadrant of one torus's frequencies.

    quadrant[k1, k2] = phi(2*pi*(k1, k2)/L) for k1, k2 in 0..L/2; phi
    is even in each coordinate, so this fixes it on every frequency.
    The origin frequency is pinned to exactly 1.
    """

    spec: TorusSpec
    kernel_label: str
    quadrant: np.ndarray

    def __post_init__(self) -> None:
        q = self.quadrant
        _check_quadrant(q, self.spec, "grid")
        if q[0, 0] != 1.0:
            raise ValueError("origin frequency must carry phi = 1 exactly")
        if _max_abs(q) > 1.0 + 1e-12:
            raise ValueError("characteristic values must lie in [-1, 1]")


def _quadrant_mass(kernel: JumpKernel, spec: TorusSpec) -> np.ndarray:
    """Kernel mass wrapped onto the torus, on the quadrant 0..L/2 per axis."""
    L = spec.L
    idx = (np.arange(kernel.M + 1) - kernel.M // 2) % L  # torus index of each box coordinate
    keep = np.flatnonzero(idx <= L // 2)
    q = np.zeros((L // 2 + 1, L // 2 + 1))
    np.add.at(q, np.ix_(idx[keep], idx[keep]), kernel.box[np.ix_(keep, keep)])
    return q


def build_grid(kernel: JumpKernel, spec: TorusSpec, method: str = "fft") -> SpectralGrid:
    """Evaluate phi over the quadrant of torus frequencies.

    method="fft" transforms the wrapped mass by one DCT-I (exact at
    torus frequencies for any range <= L); method="direct" sums cosines
    frequency by frequency and exists to cross-check the fast path.
    """
    if kernel.M > spec.L:
        raise ValueError(
            f"kernel range {kernel.M} exceeds torus side {spec.L}; wrap is ambiguous"
        )
    if method == "fft":
        quadrant = _dct1(_quadrant_mass(kernel, spec))
    elif method == "direct":
        if spec.L > DIRECT_MAX_SIDE:
            raise ValueError(f"direct summation is for sides <= {DIRECT_MAX_SIDE}")
        k = TWO_PI * np.arange(spec.L // 2 + 1) / spec.L
        quadrant = char_fn(kernel, np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1), checked=True)
    else:
        raise ValueError(f"unknown method {method!r}")
    quadrant[0, 0] = 1.0
    return SpectralGrid(spec=spec, kernel_label=kernel.label, quadrant=quadrant)


@dataclass(frozen=True)
class HeatGrid:
    """Occupation probabilities from the origin at one time, on the quadrant.

    quadrant holds the unclipped inverse transform (kept for error
    analysis); raw unfolds it to the torus, and probs clips raw's
    at-most-1e-12 negative rounding residue to zero.
    """

    spec: TorusSpec
    t: float
    quadrant: np.ndarray

    def __post_init__(self) -> None:
        _check_quadrant(self.quadrant, self.spec, "heat values")
        if float(self.quadrant.min()) < -HEAT_NEGATIVE_TOL:
            raise ArithmeticError("occupation probability below the rounding floor")
        if abs(torus_sum(self.quadrant) - 1.0) > HEAT_SUM_TOL:
            raise ArithmeticError("occupation probabilities must sum to one")

    @property
    def raw(self) -> np.ndarray:
        return unfold(self.quadrant, self.spec)

    @property
    def probs(self) -> np.ndarray:
        return np.maximum(self.raw, 0.0)


def _heat_weights(grid: SpectralGrid, t: float) -> np.ndarray:
    """exp(-t(1 - phi)) on the quadrant."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    w = 1.0 - grid.quadrant
    w *= -t
    return np.exp(w, out=w)


def heat(grid: SpectralGrid, t: float) -> HeatGrid:
    """Distribution of the walk at time t, started at the origin."""
    return HeatGrid(spec=grid.spec, t=t, quadrant=_field(_heat_weights(grid, t), grid.spec.L))


@dataclass(frozen=True)
class GreenField:
    """Resolvent values G(x, lam) for one lam > 0, on the quadrant.

    values unfolds them to the torus.
    """

    spec: TorusSpec
    lam: float
    quadrant: np.ndarray

    def __post_init__(self) -> None:
        q = self.quadrant
        _check_quadrant(q, self.spec, "resolvent values")
        if float(q.min()) <= 0.0:
            raise ArithmeticError("resolvent must be strictly positive")
        if float(q.max()) > q[0, 0] * (1.0 + 1e-12):
            raise ArithmeticError("resolvent must peak at the origin")

    @property
    def values(self) -> np.ndarray:
        return unfold(self.quadrant, self.spec)


def green(grid: SpectralGrid, lam: float) -> GreenField:
    """Resolvent G(x, lam) = integral exp(-lam s) P_x(X_s = 0) ds, all x."""
    if lam <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    w = 1.0 - grid.quadrant
    w += lam
    np.reciprocal(w, out=w)
    return GreenField(spec=grid.spec, lam=lam, quadrant=_field(w, grid.spec.L))


@dataclass(frozen=True)
class LaplaceField:
    """Hitting transform F(x, lam) = E_x exp(-lam H), H the origin hit time.

    Stored on the quadrant; values unfolds it to the torus.
    """

    spec: TorusSpec
    lam: float
    quadrant: np.ndarray

    def __post_init__(self) -> None:
        q = self.quadrant
        _check_quadrant(q, self.spec, "transform values")
        if q[0, 0] != 1.0:
            raise ValueError("hitting transform must equal 1 at the origin")
        if float(q.min()) <= 0.0 or float(q.max()) > 1.0:
            raise ArithmeticError("hitting transform must lie in (0, 1]")

    @property
    def values(self) -> np.ndarray:
        return unfold(self.quadrant, self.spec)


def laplace_hit(grid: SpectralGrid, lam: float) -> LaplaceField:
    """F(x, lam) = G(x, lam) / G(0, lam); equals 1 exactly at the origin."""
    q = green(grid, lam).quadrant  # the resolvent is not kept: divide in its storage
    q /= q[0, 0]
    q[0, 0] = 1.0
    return LaplaceField(spec=grid.spec, lam=lam, quadrant=q)


def uniformity_gap(grid: SpectralGrid, t: float) -> tuple[float, float]:
    """Worst-case deviation from the flat law at time t, and its bound.

    Returns (gap, bound) with gap = sup_x L^2 |P_0(X_t = x) - L^-2| and
    bound = sum over nonzero frequencies of exp(-t(1-phi)), which
    dominates the gap by the triangle inequality.
    """
    n = grid.spec.n_points
    # one pass of heat weights feeds both the bound and the inverse,
    # which overwrites them; the bound sums w with its zero frequency
    # left out, not subtracted, which would cancel digits against 1
    w = _heat_weights(grid, t)
    w[0, 0] = 0.0
    bound = torus_sum(w)
    w[0, 0] = 1.0  # exp(-t(1 - phi(0))), phi(0) = 1 exactly
    dev = HeatGrid(spec=grid.spec, t=t, quadrant=_field(w, grid.spec.L)).quadrant
    dev -= 1.0 / n
    gap = n * _max_abs(dev)
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
    Measurement only: no threshold is applied.

    Accuracy floor: 1 - phi is formed as 1 - sum q cos(theta . x), which
    cancels at the small-ball probes.  For uniform M = 128, p1_max_dev
    reads 0.0156860551, 1.5e-6 relative above the cancellation-free
    2 sum q sin^2(theta . x / 2) and above its theta -> 0 supremum
    (129/128)^2 - 1 = 0.0156860352.  These digits do not depend on
    batching: char_fn gives each probe the same value alone or among
    any number of probes.
    """

    rows: tuple[ConditionRow, ...]


def _supnorm_annulus_probes(inner: float, outer: float, n_angles: int, n_radii: int) -> np.ndarray:
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
        radii = np.geomspace(r_lo, r_hi, n_radii)
        out[j * n_radii : (j + 1) * n_radii] = radii[:, None] * direction[None, :]
    return out


def condition_report(
    kernels: list[JumpKernel],
    delta: float,
    delta_prime: float,
    a: float,
    n_angles: int = N_ANGLES,
    n_radii: int = N_RADII,
) -> ConditionReport:
    """Measure small-ball, mid-ball, and far-field behavior of 1 - phi.

    Probes three sup-norm regions per kernel: the punctured ball of
    radius delta/M (relative second-order deviation), the annulus
    (delta/M, delta_prime] (minimum of 1 - phi), and the annulus
    (a, pi] (maximum of |phi|).  Raises on empty regions and on fewer
    than one angle or radius, for every kernel before the first probe.
    """
    if delta <= 0 or delta_prime <= 0 or not 0 < a < math.pi:
        raise ValueError("probe parameters must be positive with a < pi")
    for key, count in (("n_angles", n_angles), ("n_radii", n_radii)):
        if count < 1:
            raise ValueError(f"{key} must be at least 1, got {count}")
    for kernel in kernels:
        if delta / kernel.M >= delta_prime:
            raise ValueError(f"empty mid region for M={kernel.M}: delta/M >= delta_prime")
    rows = []
    for kernel in kernels:
        M = kernel.M
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
    return ConditionReport(rows=tuple(rows))
