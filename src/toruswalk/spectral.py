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
Every weight is formed from psi itself, not from 1 - phi.
psi_grid and _psi_probes evaluate psi at arbitrary angles through one
set of per-axis factors (_psi_factors), a product form that does not
cancel near theta = 0: psi_grid reduces them by one matrix product on
a tensor grid of angles (limits.beta0), _psi_probes by a row-wise dot
per probe (condition_report's mid and far annuli).  build_grid keeps
those factors at the torus frequencies (O(L M) memory), or, when the
kernel's extent M/2 + 1 exceeds L/10 as for meanfield, stores psi on
the quadrant as 1 minus one type-I discrete cosine transform (DCT-I)
of the kernel mass wrapped onto it.  Either way a consumer reads psi
one column strip at a time (SpectralGrid.strips), formed from the
factors or sliced from the stored quadrant, so no consumer of a
product-route grid holds the psi quadrant.

Each field is the DCT-I of its frequency weights divided by L^2,
along axis 0 and then axis 1 as in scipy.fft.dctn, bit for bit, on
numpy's own pocketfft: the DCT-I of a line is the real part of
numpy.fft.rfft of its even extension, which is how scipy.fft.dct
(type=1) computes it, so no transform loads scipy.  The weights of each
psi strip run through the axis-0 pass at once, and only the rows the
caller keeps go on to the axis-1 pass (_dct1_rows).  The hitting
transform divides by its own origin value instead, since L^2 cancels
in G / G(0), and keeps only the rows 0..A that the `laplace` start
window reads, in one (A + 1, L/2 + 1) buffer.  Sums
over the torus weight the quadrant by m(a) m(b)
(torus_sum); the uniformity gap and G(0, lam) are such sums of
weights, with no transform.  The `values` and `raw` properties unfold
a whole-quadrant field to the full torus in the mod-L layout of
`torus` (origin at index 0), for the comparisons with the dense oracle
at small L.

At L=4096 the quadrant is 34 MB of float64.  The times of one grid
(uniform M=8), of a hitting transform with the `laplace` window's sup,
of a uniformity gap, of the CLI's `laplace` and `uniformity` work per
side and of meanfield's 1 - DCT-I grid, the peak RSS and the
tracemalloc peaks, at L=4096 and 8192, and the alpha = 0.5 window
path at L=8192 and 16384, are the medians in BENCH_spectral_large.json
(tools/bench_layers.py spectral-large).

Kernels whose range equals the torus side are wrapped with colliding
pre-images summed, which is exact at torus frequencies; ranges
exceeding the side are rejected.

char_fn sums cosines over the kernel's support at arbitrary angles, in
tiles of probes: a multiple of 8 probes per tile, at most TILE_ENTRIES
(2^16) cosines unless 8 probes need more, and the last tile zero-padded
to full size.  So its working set does not grow with the number of
probes (1.9 MB for uniform M=128), and a probe's value does not
depend on how the probes are batched.  It costs (M + 1)^2 / 2 cosines
per probe, and serves only condition_report's small ball, whose
digits perfbench/reference.json pins; _psi_probes costs 3(M/2 + 1)
sines and cosines and one product row of M/2 + 1 terms per probe, in
tiles of the same kind whose working set is at most TILE_ENTRIES
entries.
limits._quadrant_sum runs its lattice sums, and SpectralGrid.strips
forms psi, in strips of the same budget.

condition_report probes finite-size analogs of the small-ball,
mid-ball, and far-field behavior of 1 - phi on sup-norm annuli, and
returns one ConditionRow per kernel; it measures and reports, and
deliberately attaches no pass/fail verdict.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import JumpKernel
from .torus import TWO_PI, TorusSpec, _check_time

HEAT_NEGATIVE_TOL = 1e-12
HEAT_SUM_TOL = 1e-9
N_ANGLES = 64
N_RADII = 64
# exp(-x) is exactly 0.0 in float64 for every x above this (the least
# subnormal is exp(-744.4), and exp(-745.2) already rounds to 0)
EXP_UNDERFLOW = 746.0
# working-set budget, in float64 entries, of the tiled lattice loops:
# the probe tiles of char_fn and _psi_probes, limits._quadrant_sum's
# strips and SpectralGrid's psi strips
TILE_ENTRIES = 2**16


def _tile_rows(n_columns: int) -> int:
    """Rows of a tile of n_columns entries each (or columns of a strip of
    that many rows): a multiple of 8, at least 8, and at most
    TILE_ENTRIES entries in all when that allows 8 rows."""
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


def _sin2(phases: np.ndarray) -> np.ndarray:
    """2 sin^2(p / 2) of each phase p, in place."""
    np.multiply(phases, 0.5, out=phases)
    np.sin(phases, out=phases)
    np.square(phases, out=phases)
    np.multiply(phases, 2.0, out=phases)
    return phases


def _psi_factors(kernel: JumpKernel, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows [c(u_i) Q | s(u_i) r] and [s(v_j) | 1], of e + 1 entries each,
    whose dot product is psi(u_i, v_j): psi_grid's identity split into
    one factor per axis, e = M/2 + 1 sines or cosines per angle."""
    h = kernel.M // 2
    m = np.full(h + 1, 2.0)
    m[0] = 1.0
    Q = kernel.box[h:, h:] * np.outer(m, m)
    a = np.arange(h + 1.0)
    ua = np.outer(u, a)  # the phases t a of the first axis
    left = np.empty((ua.shape[0], h + 2))
    np.matmul(np.cos(ua), Q, out=left[:, :-1])
    left[:, -1] = _sin2(ua) @ Q.sum(axis=1)
    right = np.ones((np.size(v), h + 2))
    _sin2(np.outer(v, a, out=right[:, :-1]))
    return left, right


def psi_grid(kernel: JumpKernel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """psi = 1 - phi on the tensor grid: out[i, j] = psi(u[i], v[j]), shape (|u|, |v|).

    With Q the mass box folded onto 0..M/2 per axis (the mass of the
    images (+-a, +-b), so the image counts are 1, 2, ..., 2), r its row
    sums, s(t, a) = 2 sin^2(t a / 2) and c(t, a) = cos(t a), the
    identity 1 - cos A cos B = 2 sin^2(A/2) + cos A 2 sin^2(B/2) gives
    psi = s(u) r + c(u) Q s(v)^T, which does not cancel near theta = 0
    and is exactly 0 at the origin: O(M) sines per grid line and one
    product [c(u) Q | s(u) r] @ [s(v) | 1]^T of inner size e + 1,
    e = M/2 + 1 (_psi_factors).
    """
    left, right = _psi_factors(kernel, u, v)
    return left @ right.T


def _psi_probes(kernel: JumpKernel, theta: np.ndarray) -> np.ndarray:
    """psi at each probe theta[i] = (u_i, v_i), shape theta.shape[:-1]:
    the row-wise dot of _psi_factors(kernel, u, v), 3e sines and
    cosines and one e x e product row per probe, e = M/2 + 1.

    As in char_fn, the probes run in tiles of T = _tile_rows(4 (e + 1))
    rows, the last padded with theta = 0.  At most three arrays of T
    phases or factors live at once, so a tile's working set stays
    within TILE_ENTRIES entries when 8 rows allow it (0.5 MB, whatever
    the number of probes), and a probe's value does not depend on how
    the probes are batched.
    """
    flat = np.asarray(theta, dtype=np.float64).reshape(-1, 2)
    T = _tile_rows(4 * (kernel.M // 2 + 2))
    padded = np.zeros((-(-flat.shape[0] // T) * T, 2))
    padded[: flat.shape[0]] = flat
    out = np.empty(padded.shape[0])
    for i in range(0, padded.shape[0], T):
        factors = _psi_factors(kernel, padded[i : i + T, 0], padded[i : i + T, 1])
        np.einsum("ij,ij->i", *factors, out=out[i : i + T])
        del factors  # the next tile's factors replace these, not join them
    return out[: flat.shape[0]].reshape(np.shape(theta)[:-1])


def _check_quadrant(q: np.ndarray, spec: TorusSpec, what: str, rows: bool = False) -> None:
    """Refuse an array that is not the (L/2 + 1)^2 quadrant of the torus,
    or with rows=True its leading rows 0..A for some A."""
    n = spec.L // 2 + 1
    if q.ndim != 2 or q.shape[1] != n or not (1 <= q.shape[0] <= n if rows else q.shape[0] == n):
        shape = "(A + 1, L/2 + 1) with A <= L/2" if rows else "(L/2 + 1, L/2 + 1)"
        raise ValueError(f"{what} must have the quadrant shape {shape}")


def _check_psi(psi: np.ndarray) -> None:
    """Refuse psi = 1 - phi values outside [0, 2] beyond rounding, or nan."""
    if not (float(psi.min()) >= -1e-12 and float(psi.max()) <= 2.0 + 1e-12):
        raise ValueError("psi = 1 - phi must lie in [0, 2]")


def unfold(q: np.ndarray, spec: TorusSpec) -> np.ndarray:
    """The full-torus field, shape (L^2,) in the mod-L layout, of a quadrant array.

    Axis index i holds coordinate i or i - L, whose quadrant index is
    min(i, L - i).
    """
    _check_quadrant(q, spec, "an unfolded field")
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


def _line_buffers(lines: int, n: int, memory: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The even extensions (lines, 2(n - 1)) and the complex spectra
    (lines, n) of `lines` DCT-I lines, 4 n lines entries in all: laid
    out in the float64 array `memory` when it holds that many, else new."""
    N = 2 * (n - 1)
    if memory is None or memory.size < 4 * n * lines:
        memory = np.empty(4 * n * lines)
    flat = memory.reshape(-1)
    spec = flat[lines * N : lines * (N + 2 * n)].view(np.complex128)
    return flat[: lines * N].reshape(lines, N), spec.reshape(lines, n)


def _dct1_lines(a: np.ndarray, keep: int, ext: np.ndarray, spec: np.ndarray, norm=None) -> None:
    """Replace each row of a by its DCT-I, cut to the first `keep`
    entries, block by block through the buffers of _line_buffers: the
    real part of numpy.fft.rfft of the row's even extension.  With norm,
    the rows are divided by norm(the first row's value at 0)."""
    n, b = a.shape[1], ext.shape[0]
    d = None
    for i in range(0, a.shape[0], b):
        e = ext[: min(b, a.shape[0] - i)]
        e[:, :n] = a[i : i + b]
        e[:, n:] = a[i : i + b, n - 2 : 0 : -1]
        s = np.fft.rfft(e, out=spec[: e.shape[0]]).real[:, :keep]
        if norm is None:
            a[i : i + b, :keep] = s
        else:
            d = norm(s[0, 0]) if d is None else d
            np.divide(s, d, out=a[i : i + b, :keep])


def _dct1_rows(strips: Iterable[tuple[int, np.ndarray]], n: int, rows: int, weights=None, norm=None) -> np.ndarray:
    """Rows 0..rows-1 of the unnormalized DCT-I, along axis 0 and then
    axis 1 as in scipy.fft.dctn, of the n x n array whose columns
    lo..lo+m-1 hold weights(strip) for each (lo, strip) of `strips`
    (m <= _tile_rows(n) columns each, arrays this call may overwrite)
    and whose other columns hold zeros; with norm, divided by norm(g0),
    g0 the transform's value at the origin.  weights(strip), if given,
    forms the weights in place.

    The engine is numpy's pocketfft (numpy.fft of numpy 2.0 or later,
    whose rfft takes `out`; numpy loads it on first use): the DCT-I of a line x of n entries is the real part of
    numpy.fft.rfft of its even extension x_0 .. x_{n-1}, x_{n-2} .. x_1,
    of length 2(n - 1).  scipy.fft.dct(type=1) computes it the same way,
    with the same pocketfft real FFT (radix passes, or Bluestein's
    algorithm for a large prime factor) on an exact copy of the same
    extension, so every line equals scipy's bit for bit, and the result
    equals dctn(a, type=1)[:rows] (over norm(g0)); the tests check this
    at odd-factor and Bluestein lengths.

    Lines are transformed as contiguous rows, a few at a time.  Each
    strip's weights are formed in place and copied transposed into one
    (m, n) line buffer, and the strip is dropped; its memory then holds
    the extensions and the spectra of m/4 lines (_line_buffers), the
    rows 0..rows-1 of each transformed line return to the line buffer,
    and the line buffer goes to its columns of one (rows, n) row buffer.
    Output row i of the axis-1 pass is the transform of row i of the
    axis-0 pass alone, so the axis-1 pass runs on the rows kept, in
    place, through the buffers of w/2 lines once no strip is left
    (w = _tile_rows(n)).  So at most one strip is alive while the next
    is formed, and a call holds the row buffer and at most two strips'
    worth, (rows + 2 w) n entries for n >= 8, whatever the kernel.

    That bound fixes the lines per rfft call: w/4 on axis 0 and w/2 on
    axis 1, each line costing 4 n entries of buffers.  An rfft call
    costs a fixed part besides its lines (about 15 us at L = 8192,
    against 35 us a line), so the 2 lines of a call at L >= 8192, where
    w = 8, cost more per line than a block of 8 would; that block needs
    four strips' worth of buffers.
    """
    w = min(_tile_rows(n), n)
    out = np.zeros((rows, n))
    lines = np.empty((w, n))
    for lo, strip in strips:
        m = strip.shape[1]
        if weights is not None:
            weights(strip)
        lines[:m] = strip.T
        ext, spec = _line_buffers(max(1, m // 4), n, strip)
        del strip  # its memory now holds ext and spec alone
        _dct1_lines(lines[:m], rows, ext, spec)
        out[:, lo : lo + m] = lines[:m, :rows].T
        del ext, spec
    del lines
    _dct1_lines(out, n, *_line_buffers(max(1, min(rows, w // 2)), n), norm=norm)
    return out


def _field(grid: SpectralGrid, weights) -> np.ndarray:
    """L^-2 sum_y weights(y) c(y, x) on the quadrant, from psi's column
    strips (_dct1_rows)."""
    L = grid.spec.L
    return _dct1_rows(grid.strips(), L // 2 + 1, L // 2 + 1, weights, lambda g0: L * L)


@dataclass(frozen=True)
class SpectralGrid:
    """psi = 1 - phi on the quadrant of one torus's frequencies.

    psi[k1, k2] = psi(2*pi*(k1, k2)/L) for k1, k2 in 0..L/2; psi is even
    in each coordinate, so this fixes it on every frequency.  psi(0) = 0
    exactly, and psi lies in [0, 2] up to rounding.

    The grid holds exactly one of:

    * quadrant: psi itself, an (L/2 + 1)^2 array (the DCT-I route);
    * factors: psi's per-axis factors (left, right), each of shape
      (L/2 + 1, e + 1), whose product left @ right.T is psi (the product
      route; _psi_factors).  They take O(L M) memory, and psi is formed
      only on the columns a caller asks for (psi, strips).
    """

    spec: TorusSpec
    kernel_label: str
    quadrant: np.ndarray | None = None
    factors: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.quadrant is None) == (self.factors is None):
            raise ValueError("a grid holds exactly one of psi's quadrant and its factors")
        if self.quadrant is not None:
            q = self.quadrant
            _check_quadrant(q, self.spec, "grid")
            origin = q[0, 0]
            _check_psi(q)
        else:
            left, right = self.factors
            n = self.spec.L // 2 + 1
            if left.ndim != 2 or left.shape[0] != n or right.shape != left.shape:
                raise ValueError("psi's factors must have the shape (L/2 + 1, e + 1)")
            origin = left[0] @ right[0]
        if origin != 0.0:
            raise ValueError("origin frequency must carry psi = 0 exactly")

    def psi(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """psi on the quadrant's columns lo..hi-1 (all of them by default),
        as a new C-contiguous array that the caller may overwrite.  On the
        product route it is formed here, as left @ right[lo:hi].T, and
        checked to lie in [0, 2]; its entries equal those of the whole
        product bit for bit."""
        if self.factors is None:
            return self.quadrant[:, lo:hi].copy()
        left, right = self.factors
        psi = left @ right[lo:hi].T
        _check_psi(psi)
        return psi

    def strips(self, hi: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, psi(lo, lo + w)) for consecutive strips of w columns that
        cover columns 0..hi-1 (all of them by default), w = _tile_rows(L/2 + 1):
        at most TILE_ENTRIES entries a strip when 8 columns allow it."""
        n = self.spec.L // 2 + 1
        hi = n if hi is None else hi
        w = _tile_rows(n)
        for lo in range(0, hi, w):
            yield lo, self.psi(lo, min(lo + w, hi))


def _psi_dct(kernel: JumpKernel, spec: TorusSpec) -> np.ndarray:
    """psi on the quadrant as 1 minus the DCT-I of the kernel mass wrapped
    onto it, with psi(0) pinned to 0.  The mass fills the quadrant's
    first M/2 + 1 columns, which go through _dct1_rows in strips of
    _tile_rows(L/2 + 1) columns, each copied from the kernel's box."""
    n, h = spec.L // 2 + 1, kernel.M // 2
    box = kernel.box[h:, h:]
    w = _tile_rows(n)

    def strips():
        for lo in range(0, h + 1, w):
            mass = np.zeros((n, min(w, h + 1 - lo)))
            mass[: h + 1] = box[:, lo : lo + w]
            if kernel.M == spec.L:  # the mirror pre-images -L/2 and L/2 are one torus point
                mass[h] *= 2.0
                if h < lo + w:
                    mass[:, h - lo] *= 2.0
            yield lo, mass
            del mass  # the consumer has dropped this strip; so does this frame

    out = _dct1_rows(strips(), n, n)
    psi = np.subtract(1.0, out, out=out)
    psi[0, 0] = 0.0
    return psi


def build_grid(kernel: JumpKernel, spec: TorusSpec) -> SpectralGrid:
    """psi = 1 - phi over the quadrant of torus frequencies.

    The route is chosen by the mass's extent e = M/2 + 1 per axis
    against the side L.  When 10 e <= L, the grid holds psi_grid's
    per-axis factors at theta_k = 2 pi k / L, k = 0..L/2 (O(L e)
    memory), and psi is formed from them on the columns each transform
    or sum asks for (O(L^2 e) per pass over the quadrant), exact at
    every frequency to within rounding of psi itself.  Wider kernels, up
    to M = L (meanfield), take 1 minus one DCT-I of the wrapped mass
    (_psi_dct, O(L^2 log L)), stored as the quadrant; there psi is not
    small off the origin.  The two costs meet near e = L/10
    (single-threaded, L = 512 to 4096).
    """
    L = spec.L
    if kernel.M > L:
        raise ValueError(f"kernel range {kernel.M} exceeds torus side {L}; wrap is ambiguous")
    if 10 * (kernel.M // 2 + 1) <= L:
        theta = TWO_PI * np.arange(L // 2 + 1) / L
        return SpectralGrid(spec=spec, kernel_label=kernel.label, factors=_psi_factors(kernel, theta, theta))
    return SpectralGrid(spec=spec, kernel_label=kernel.label, quadrant=_psi_dct(kernel, spec))


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
        if not float(self.quadrant.min()) >= -HEAT_NEGATIVE_TOL:
            raise ArithmeticError("occupation probability below the rounding floor")
        if not abs(torus_sum(self.quadrant) - 1.0) <= HEAT_SUM_TOL:
            raise ArithmeticError("occupation probabilities must sum to one")

    @property
    def raw(self) -> np.ndarray:
        return unfold(self.quadrant, self.spec)


def _live_columns(psi: np.ndarray, t: float) -> int:
    """The number of leading columns of psi where exp(-t psi) can be
    nonzero, 0 if there is none.

    A column whose least t psi exceeds EXP_UNDERFLOW holds only exact
    zeros, since exp is monotone and exp(-EXP_UNDERFLOW) is 0.0; the
    live columns run up to the last column that does not.
    """
    live = np.flatnonzero(psi.min(axis=0) * t <= EXP_UNDERFLOW)
    return int(live[-1]) + 1 if live.size else 0


def heat(grid: SpectralGrid, t: float) -> HeatGrid:
    """Distribution of the walk at time t, started at the origin.

    The weights exp(-t psi) are formed in place on each column strip."""
    _check_time(t)

    def weights(psi: np.ndarray) -> None:
        np.exp(np.multiply(psi, -t, out=psi), out=psi)

    return HeatGrid(spec=grid.spec, t=t, quadrant=_field(grid, weights))


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
        if not float(q.min()) > 0.0:
            raise ArithmeticError("resolvent must be strictly positive")
        if not float(q.max()) <= q[0, 0] * (1.0 + 1e-12):
            raise ArithmeticError("resolvent must peak at the origin")

    @property
    def values(self) -> np.ndarray:
        return unfold(self.quadrant, self.spec)


def _resolvent_weights(lam: float):
    """weights(psi), which forms 1 / (lam + psi) in place in psi; a lam
    that is not positive is refused here, before any work."""
    if not lam > 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")

    def weights(psi: np.ndarray) -> None:
        np.reciprocal(np.add(psi, lam, out=psi), out=psi)

    return weights


def green(grid: SpectralGrid, lam: float) -> GreenField:
    """Resolvent G(x, lam) = integral exp(-lam s) P_x(X_s = 0) ds, all x,
    transformed from the weights 1 / (lam + psi)."""
    return GreenField(spec=grid.spec, lam=lam, quadrant=_field(grid, _resolvent_weights(lam)))


@dataclass(frozen=True)
class LaplaceField:
    """Hitting transform F(x, lam) = E_x exp(-lam H), H the origin hit time.

    quadrant holds F on the quadrant's rows 0..A, all of them (A = L/2)
    unless laplace_hit was asked for fewer; values unfolds a whole
    quadrant to the torus.  The checks cover the rows held.
    """

    spec: TorusSpec
    lam: float
    quadrant: np.ndarray

    def __post_init__(self) -> None:
        q = self.quadrant
        _check_quadrant(q, self.spec, "transform values", rows=True)
        if q[0, 0] != 1.0:
            raise ValueError("hitting transform must equal 1 at the origin")
        if not (float(q.min()) > 0.0 and float(q.max()) <= 1.0):
            raise ArithmeticError(f"hitting transform at lam={self.lam!r} must lie in (0, 1]")

    @property
    def values(self) -> np.ndarray:
        return unfold(self.quadrant, self.spec)


def laplace_hit(grid: SpectralGrid, lam: float, rows: int | None = None) -> LaplaceField:
    """F(x, lam) = G(x, lam) / G(0, lam) on the quadrant's rows
    0..rows-1 (all L/2 + 1 of them by default); equals 1 exactly at the
    origin.

    One DCT-I of the resolvent weights 1 / (lam + psi), formed strip by
    strip from psi's column strips (_dct1_rows, which keeps the rows
    asked for in one (rows, L/2 + 1) buffer), divided by its origin
    value as the second pass writes each block of rows, so no pass of
    its own divides: the L^-2 of G cancels in the ratio and is never
    applied, so at a power-of-two L, where dividing by L^2 is exact,
    F is green(grid, lam).quadrant over its origin value bit for bit,
    and F on rows 0..rows-1 equals the whole quadrant's rows bit for
    bit.  No GreenField is built: a positive origin value together with
    LaplaceField's F in (0, 1] is the resolvent's positive,
    peaked-at-0 check.
    """
    n = grid.spec.L // 2 + 1
    rows = n if rows is None else rows
    if not 1 <= rows <= n:
        raise ValueError(f"rows must lie in 1..L/2 + 1 = {n}, got {rows}")

    def origin(g0: float) -> float:
        if not g0 > 0.0:
            raise ArithmeticError(f"resolvent at lam={lam!r} must be strictly positive")
        return g0

    q = _dct1_rows(grid.strips(), n, rows, _resolvent_weights(lam), origin)
    return LaplaceField(spec=grid.spec, lam=lam, quadrant=q)


def green_at_origin(grid: SpectralGrid, lam: float) -> float:
    """G(0, lam) = L^-2 sum_y 1 / (lam + psi_y), summed on the quadrant
    with no transform."""
    weights, psi = _resolvent_weights(lam), grid.psi()
    weights(psi)
    return torus_sum(psi) / grid.spec.n_points


def uniformity_gap(grid: SpectralGrid, t: float | Sequence[float]) -> float | list[float]:
    """Worst-case deviation from the flat law at time t,
    sup_x L^2 |P_0(X_t = x) - L^-2|, with no transform; for a sequence
    of times, the list of their gaps.

    L^2 P_0(X_t = x) - 1 = sum_{y != 0} exp(-t psi_y) c(y, x), with
    nonnegative weights and |c(y, x)| <= 1 = c(y, 0), so the sup is
    attained at the origin: the sum of exp(-t psi) over the nonzero
    frequencies, taken on the live columns (_live_columns).  The zero
    frequency is left out, not subtracted, which would cancel the
    digits of a small gap against exp(0) = 1.

    One pass over psi's column strips finds each column's least psi, so
    each time's live columns; then, per time, the weights on its live
    columns are formed strip by strip into one array and summed by
    torus_sum.  That array has the shape of the live columns, so the
    sum runs the same BLAS calls, and gives the same digits, as on a
    whole psi grid: a strip-wise column sum would not, because a BLAS
    matrix-vector product rounds its last few outputs in another order.
    No psi grid is held: at most two psi strips and one time's weights.
    """
    times = [t] if np.ndim(t) == 0 else list(t)
    for ti in times:
        _check_time(ti)
    least = np.concatenate([psi.min(axis=0, keepdims=True) for _, psi in grid.strips()], axis=1)
    gaps = []
    for ti in times:
        live = _live_columns(least, ti)
        w = np.empty((grid.spec.L // 2 + 1, live))
        for lo, psi in grid.strips(live):
            np.multiply(psi, -ti, out=w[:, lo : lo + psi.shape[1]])
        np.exp(w, out=w)
        w[0, 0] = 0.0
        gaps.append(torus_sum(w))
    return gaps[0] if np.ndim(t) == 0 else gaps


# ---------------------------------------------------------------------------
# Finite-size condition diagnostics


class ConditionRow(NamedTuple):
    """One kernel's diagnostics; the fields are the conditions CSV's
    columns, in order, so a row is written as it comes."""

    M: int
    sigma2: float
    p1_max_dev: float
    p2_min: float
    p3_max_abs: float


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
) -> tuple[ConditionRow, ...]:
    """Measure small-ball, mid-ball, and far-field behavior of 1 - phi,
    one ConditionRow per kernel, in the order of `kernels`:

    p1_max_dev: worst relative deviation of (1-phi)/(sigma2 M^2 |theta|^2 / 2)
    from 1 on the punctured sup-norm ball of radius delta/M (from char_fn);
    p2_min: minimum of psi = 1 - phi on the sup-norm annulus (delta/M, delta_prime];
    p3_max_abs: maximum of |phi| = |1 - psi| on the sup-norm annulus (a, pi],
    both from _psi_probes.
    Measurement only: no threshold is applied.  Raises on empty regions
    and on fewer than one angle or radius, for every kernel before the
    first probe.

    Accuracy floor: on the small ball, 1 - phi is still formed as
    1 - char_fn = 1 - sum q cos(theta . x), which cancels there, because
    perfbench/reference.json pins p1_max_dev's digits.  For uniform
    M = 128, p1_max_dev reads 0.0156860551, 1.5e-6 relative above the
    cancellation-free 2 sum q sin^2(theta . x / 2) and above its
    theta -> 0 supremum (129/128)^2 - 1 = 0.0156860352.  The mid and
    far annuli take psi from its cancellation-free product form
    (_psi_probes), within 3.2e-16 relative of a 40-digit sum on the
    tests' probes: p2_min is min psi, and p3_max_abs is max |1 - psi|,
    which carries psi's absolute rounding, so its relative error grows
    as |phi| shrinks (1.0e-13 for uniform M = 128, where it reads
    2.7e-3).  These digits do not depend on batching: char_fn and
    _psi_probes give each probe the same value alone or among any
    number of probes.
    """
    if not (delta > 0 and delta_prime > 0 and 0 < a < math.pi):  # also refuses nan
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
        mid = _psi_probes(kernel, th2)
        th3 = _supnorm_annulus_probes(a, math.pi, n_angles, n_radii)
        far = np.abs(1.0 - _psi_probes(kernel, th3))
        rows.append(
            ConditionRow(
                M=M,
                sigma2=float(sigma2),
                p1_max_dev=float(np.max(np.abs(ratio - 1.0))),
                p2_min=float(mid.min()),
                p3_max_abs=float(far.max()),
            )
        )
    return tuple(rows)
