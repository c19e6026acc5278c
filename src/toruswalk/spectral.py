"""Fourier-side engine for walks on the torus.

The continuous-time walk jumps at rate one with kernel q, so its
transition law diagonalizes over the torus characters.  Every kernel
is symmetric under each axis reflection (see JumpKernel), so
phi(theta) = sum_x q(x) cos(theta_1 x_1) cos(theta_2 x_2), and
everything downstream is a weighted cosine transform of psi = 1 - phi
over the frequency grid theta_y = 2*pi*y/L, with c(y, x) =
cos(theta_y1 x_1) cos(theta_y2 x_2):

* occupation probabilities:  P_0(X_t = x) = L^-2 sum_y exp(-t psi) c(y, x)
* resolvent ("green"):       G(x, lam)    = L^-2 sum_y c(y, x) / (lam + psi)
* hitting transform:         F(x, lam)    = G(x, lam) / G(0, lam)

psi and each of these fields are even in each coordinate, so each is
stored on the closed quadrant 0..L/2 per axis: an (L/2 + 1)^2 array
indexed by coordinate, whose entry (a, b) stands for the m(a) m(b)
torus points (+-a, +-b), with m = 1 at 0 and L/2 and m = 2 elsewhere.
The grid stores psi itself, not phi, so no weight is formed from
1 - phi: build_grid takes psi from psi_grid at the torus frequencies
(a kernel of extent e = M/2 + 1 per axis costs O(L^2 e)), or, when e
exceeds L/10 as for meanfield, as 1 minus one type-I discrete cosine
transform (DCT-I) of the kernel mass wrapped onto the quadrant.
psi_grid is the one evaluator of psi at arbitrary angles: a product
form on a tensor grid of angles that does not cancel near theta = 0,
which also serves limits.beta0.  Each field is the DCT-I of its frequency
weights divided by L^2, along axis 0 and then axis 1 as in
scipy.fft.dctn; the hitting transform skips that division, since
L^2 cancels in G / G(0).  Heat weights exp(-t psi) that underflow to exact
zeros fill whole columns, and the first pass skips those.  Sums over
the torus weight the quadrant by m(a) m(b) (torus_sum); the uniformity
gap and G(0, lam) are such sums of weights, with no transform.  The
`values` and `raw` properties unfold a field to the full torus in the
mod-L layout of `torus` (origin at index 0), for the comparisons with
the dense oracle at small L.

At L=4096 the quadrant is 34 MB of float64.  The times of one grid
(uniform M=8), of a hitting transform with the `laplace` window's sup,
of a uniformity gap and of meanfield's 1 - DCT-I grid, and the peak
RSS, at L=4096 and 8192, are the medians in BENCH_spectral_large.json
(tools/bench_layers.py spectral-large).

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

from .kernels import JumpKernel
from .torus import TWO_PI, TorusSpec

HEAT_NEGATIVE_TOL = 1e-12
HEAT_SUM_TOL = 1e-9
N_ANGLES = 64
N_RADII = 64
# exp(-x) is exactly 0.0 in float64 for every x above this (the least
# subnormal is exp(-744.4), and exp(-745.2) already rounds to 0)
EXP_UNDERFLOW = 746.0
# working-set budget, in float64 entries, of the tiled lattice loops:
# char_fn's probe tiles and limits._quadrant_sum's strips
TILE_ENTRIES = 2**16


def _tile_rows(n_columns: int) -> int:
    """Rows of a tile of n_columns entries each: a multiple of 8, at least 8,
    and at most TILE_ENTRIES entries in all when that allows 8 rows."""
    return max(8, TILE_ENTRIES // n_columns // 8 * 8)


def char_fn(kernel: JumpKernel, theta: np.ndarray) -> np.ndarray:
    """Characteristic function sum_x q(x) cos(theta . x).

    The probes run in tiles of T rows: T is a multiple of 8, at least
    8, and at most TILE_ENTRIES / n_support when that is 8 or more.
    The last tile is padded with theta = 0 to T rows, so every probe
    goes through the same BLAS call shapes and its value does not
    depend on how many probes the call holds or where it sits among
    them.  Besides theta and the result, a call holds one tile of
    cosines, half a tile of phases and the support as floats: 1.9 MB
    for uniform M=128, whatever the number of probes.

    Parameters
    ----------
    kernel : JumpKernel
    theta : array_like, shape (..., 2)
        Angular arguments; any real values are legal.

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
    # points[::-1] == -points and cos is even: the second half of each
    # row of cosines is the first half reversed
    half = n // 2
    cols = kernel.points[:half].astype(np.float64)
    T = _tile_rows(n)
    n_tiles = -(-flat.shape[0] // T)
    tile = np.zeros((T, 2))
    phases = np.empty((T, half))
    row = np.empty((T, n))
    vals = np.empty(n_tiles * T)
    for i in range(n_tiles):
        block = flat[i * T : (i + 1) * T]
        tile[: block.shape[0]] = block
        tile[block.shape[0] :] = 0.0
        np.matmul(tile, cols.T, out=phases)
        cos = np.cos(phases, out=phases)
        row[:, :half] = cos
        row[:, half:] = cos[:, ::-1]
        np.matmul(row, kernel.masses, out=vals[i * T : (i + 1) * T])
    result = vals[: flat.shape[0]].reshape(out_shape)
    return result[0] if np.asarray(theta).ndim == 1 else result


def psi_grid(kernel: JumpKernel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """psi = 1 - phi on the tensor grid: out[i, j] = psi(u[i], v[j]), shape (|u|, |v|).

    With Q the mass box folded onto 0..M/2 per axis (the mass of the
    images (+-a, +-b), so the image counts are 1, 2, ..., 2), r its row
    sums, s(t, a) = 2 sin^2(t a / 2) and c(t, a) = cos(t a), the
    identity 1 - cos A cos B = 2 sin^2(A/2) + cos A 2 sin^2(B/2) gives
    psi = s(u) r + c(u) Q s(v)^T, which does not cancel near theta = 0
    and is exactly 0 at the origin: O(M) sines per grid line and one
    |u| x e by e x |v| product, e = M/2 + 1.
    """
    h = kernel.M // 2
    m = np.full(h + 1, 2.0)
    m[0] = 1.0
    Q = kernel.box[h:, h:] * np.outer(m, m)
    a = np.arange(h + 1.0)
    ua, va = np.outer(u, a), np.outer(v, a)  # the phases t a of each axis
    su, sv = (2.0 * np.sin(0.5 * ta) ** 2 for ta in (ua, va))
    psi = (np.cos(ua) @ Q) @ sv.T
    psi += (su @ Q.sum(axis=1))[:, None]
    return psi


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
    L/2, 2 elsewhere).  q may hold only the leading columns of the
    quadrant, for a field that is zero on the rest."""
    m = np.full(q.shape[0], 2.0)
    m[[0, -1]] = 1.0
    return float(m @ q @ m[: q.shape[1]])


def _dct1(a: np.ndarray, live: int) -> np.ndarray:
    """Unnormalized DCT-I along both axes of a, whose columns from `live` on hold zeros.

    The transform runs along axis 0 first and then along axis 1, the
    order of scipy.fft.dctn, so the zero columns stay zero through the
    first pass and only the live ones need it.  The result equals
    dctn(a, type=1) bit for bit.
    """
    import scipy.fft  # costs about 0.1 s, so only processes that transform pay it

    head = a[:, :live]
    out = scipy.fft.dct(head, type=1, axis=0, overwrite_x=True)
    if not np.may_share_memory(out, a):  # scipy wrote a new array, not into head
        head[...] = out
    return scipy.fft.dct(a, type=1, axis=1, overwrite_x=True)


def _field(weights: np.ndarray, L: int, live: int) -> np.ndarray:
    """L^-2 sum_y weights(y) c(y, x) on the quadrant, from weights on the
    quadrant whose columns from `live` on hold zeros."""
    out = _dct1(weights, live)
    out /= L * L
    return out


@dataclass(frozen=True)
class SpectralGrid:
    """psi = 1 - phi evaluated on the quadrant of one torus's frequencies.

    quadrant[k1, k2] = psi(2*pi*(k1, k2)/L) for k1, k2 in 0..L/2; psi
    is even in each coordinate, so this fixes it on every frequency.
    psi(0) = 0 exactly, and psi lies in [0, 2] up to rounding.
    """

    spec: TorusSpec
    kernel_label: str
    quadrant: np.ndarray

    def __post_init__(self) -> None:
        q = self.quadrant
        _check_quadrant(q, self.spec, "grid")
        if q[0, 0] != 0.0:
            raise ValueError("origin frequency must carry psi = 0 exactly")
        if float(q.min()) < -1e-12 or float(q.max()) > 2.0 + 1e-12:
            raise ValueError("psi = 1 - phi must lie in [0, 2]")


def _psi_dct(kernel: JumpKernel, spec: TorusSpec) -> np.ndarray:
    """psi on the quadrant as 1 minus the DCT-I of the kernel mass wrapped
    onto it, with psi(0) pinned to 0."""
    n, h = spec.L // 2 + 1, kernel.M // 2
    a = np.zeros((n, n))
    a[: h + 1, : h + 1] = kernel.box[h:, h:]
    if kernel.M == spec.L:  # the mirror pre-images -L/2 and L/2 are one torus point
        a[h] *= 2.0
        a[:, h] *= 2.0
    psi = np.subtract(1.0, _dct1(a, h + 1), out=a)
    psi[0, 0] = 0.0
    return psi


def build_grid(kernel: JumpKernel, spec: TorusSpec) -> SpectralGrid:
    """Evaluate psi = 1 - phi over the quadrant of torus frequencies.

    The route is chosen by the mass's extent e = M/2 + 1 per axis
    against the side L.  When 10 e <= L, psi_grid's product form at
    theta_k = 2 pi k / L, k = 0..L/2 (O(L^2 e)), is exact at every
    frequency, to within rounding of psi itself.  Wider kernels, up to
    M = L (meanfield), take 1 minus one DCT-I of the wrapped mass
    (_psi_dct, O(L^2 log L)); there psi is not small off the origin.
    The two costs meet near e = L/10 (single-threaded, L = 512 to 4096).
    """
    L = spec.L
    if kernel.M > L:
        raise ValueError(f"kernel range {kernel.M} exceeds torus side {L}; wrap is ambiguous")
    if 10 * (kernel.M // 2 + 1) <= L:
        theta = TWO_PI * np.arange(L // 2 + 1) / L
        psi = psi_grid(kernel, theta, theta)
    else:
        psi = _psi_dct(kernel, spec)
    return SpectralGrid(spec=spec, kernel_label=kernel.label, quadrant=psi)


@dataclass(frozen=True)
class HeatGrid:
    """Occupation probabilities from the origin at one time, on the quadrant.

    quadrant holds the unclipped inverse transform, whose negative
    rounding residue is at most 1e-12; raw unfolds it to the torus.
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


def _live_columns(psi: np.ndarray, t: float) -> int:
    """The number of leading quadrant columns where exp(-t psi) can be nonzero.

    A column whose least t psi exceeds EXP_UNDERFLOW holds only exact
    zeros, since exp is monotone and exp(-EXP_UNDERFLOW) is 0.0; the
    live columns run up to the last column that does not.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    return int(np.flatnonzero(psi.min(axis=0) * t <= EXP_UNDERFLOW)[-1]) + 1


def _heat_weights(grid: SpectralGrid, t: float) -> tuple[np.ndarray, int]:
    """exp(-t psi) on the quadrant, and the number of its live columns
    (_live_columns), the only ones exp is taken on."""
    psi = grid.quadrant
    live = _live_columns(psi, t)
    w = np.empty_like(psi)
    w[:, live:] = 0.0
    head = np.multiply(psi[:, :live], -t, out=w[:, :live])
    np.exp(head, out=head)
    return w, live


def heat(grid: SpectralGrid, t: float) -> HeatGrid:
    """Distribution of the walk at time t, started at the origin."""
    w, live = _heat_weights(grid, t)
    return HeatGrid(spec=grid.spec, t=t, quadrant=_field(w, grid.spec.L, live))


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


def _resolvent_weights(grid: SpectralGrid, lam: float) -> np.ndarray:
    """1 / (lam + psi) on the quadrant."""
    if lam <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    w = grid.quadrant + lam
    np.reciprocal(w, out=w)
    return w


def green(grid: SpectralGrid, lam: float) -> GreenField:
    """Resolvent G(x, lam) = integral exp(-lam s) P_x(X_s = 0) ds, all x,
    transformed from the weights 1 / (lam + psi)."""
    w = _resolvent_weights(grid, lam)
    return GreenField(spec=grid.spec, lam=lam, quadrant=_field(w, grid.spec.L, w.shape[1]))


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
            raise ArithmeticError(f"hitting transform at lam={self.lam!r} must lie in (0, 1]")

    @property
    def values(self) -> np.ndarray:
        return unfold(self.quadrant, self.spec)


def laplace_hit(grid: SpectralGrid, lam: float) -> LaplaceField:
    """F(x, lam) = G(x, lam) / G(0, lam); equals 1 exactly at the origin.

    One DCT-I of the resolvent weights 1 / (lam + psi), divided in place
    by its origin value: the L^-2 of G cancels in the ratio and is never
    applied, so at a power-of-two L, where dividing by L^2 is exact,
    F is green(grid, lam).quadrant over its origin value bit for bit.
    No GreenField is built: a positive origin value together with
    LaplaceField's F in (0, 1] is the resolvent's positive, peaked-at-0
    check.
    """
    w = _resolvent_weights(grid, lam)
    q = _dct1(w, w.shape[1])
    g0 = q[0, 0]
    if not g0 > 0.0:
        raise ArithmeticError(f"resolvent at lam={lam!r} must be strictly positive")
    q /= g0
    return LaplaceField(spec=grid.spec, lam=lam, quadrant=q)


def green_at_origin(grid: SpectralGrid, lam: float) -> float:
    """G(0, lam) = L^-2 sum_y 1 / (lam + psi_y), summed on the quadrant
    with no transform."""
    return torus_sum(_resolvent_weights(grid, lam)) / grid.spec.n_points


def uniformity_gap(grid: SpectralGrid, t: float) -> float:
    """Worst-case deviation from the flat law at time t,
    sup_x L^2 |P_0(X_t = x) - L^-2|, with no transform.

    L^2 P_0(X_t = x) - 1 = sum_{y != 0} exp(-t psi_y) c(y, x), with
    nonnegative weights and |c(y, x)| <= 1 = c(y, 0), so the sup is
    attained at the origin: the sum of exp(-t psi) over the nonzero
    frequencies, taken on the live columns (_live_columns).  The zero
    frequency is left out, not subtracted, which would cancel the
    digits of a small gap against exp(0) = 1.
    """
    psi = grid.quadrant
    w = psi[:, : _live_columns(psi, t)] * -t
    np.exp(w, out=w)
    w[0, 0] = 0.0
    return torus_sum(w)


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
