"""Geometry of the two-dimensional discrete torus and its index sets.

The torus of side L (a positive even integer) is the set of integer
points with both coordinates in the half-open interval (-L/2, L/2],
with arithmetic mod L.  Everything downstream (kernels, spectral
grids, walkers) speaks in these canonical representatives, so the
wrapping convention lives here and nowhere else.

Start windows:

* annulus(alpha, v, L): the scale window the lineages start in, the
  half-open square (-r/2, r/2]^2 of side r = L^alpha * v minus the
  one of side L^alpha / v,
      alpha = 0:        the square of side v minus the origin,
      0 < alpha < 1:    the shell between sides L^alpha / v and L^alpha * v,
      alpha = 1:        the torus minus the square of side L / v.
  The homogeneously mixing (meanfield) case starts anywhere on the
  punctured torus: the alpha = 0 annulus with v = L.

An annulus supports vectorized membership, enumeration and a
closed-form point count (region_size).  On the quadrant 0..L/2 per
axis, where `spectral` stores its fields, its window is two integers
(A, p) from _axis_footprint: rows and columns 0..A minus the
(0..p-1)^2 corner, which the CLI reduces over as two slices.

Layout: the full torus appears only where a site is named by one
integer, the row-major linear index (x1 mod L) * L + (x2 mod L) of
index_of and point_of, so the origin sits at index 0 and axis index i
holds coordinate i for i <= L/2 and i - L above (numpy's FFT order).
The unfolded spectral fields (.values, .raw), the dense oracle's rows
and the Monte Carlo site codes speak it; every other field lives on
the quadrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TorusSpec:
    """Side length of the torus; L must be a positive even integer."""

    L: int

    def __post_init__(self) -> None:
        if not isinstance(self.L, (int, np.integer)) or isinstance(self.L, bool):
            raise ValueError(f"torus side must be an integer, got {self.L!r}")
        if self.L < 2 or self.L % 2 != 0:
            raise ValueError(f"torus side must be a positive even integer, got {self.L}")

    @property
    def n_points(self) -> int:
        return self.L * self.L


def _check_time(t: float, what: str = "time") -> None:
    """Refuse a time that is negative, infinite or NaN: the one rule for
    every time on the walk's clock (transforms, horizons, CLI tables)."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"{what} must be finite and nonnegative, got {t}")


def wrap(points: np.ndarray, L: int) -> np.ndarray:
    """Map integer points of Z^2 to canonical torus representatives.

    Parameters
    ----------
    points : array_like of int, shape (..., 2)
        Points in Z^2.
    L : int
        Torus side (positive even integer).

    Returns
    -------
    ndarray of int64, same shape
        Congruent points with both coordinates in (-L/2, L/2].
    """
    TorusSpec(L)  # refuses a side that is not a positive even integer
    p = np.asarray(points, dtype=np.int64)
    half = L // 2
    return (p + (half - 1)) % L - (half - 1)


def index_of(points: np.ndarray, spec: TorusSpec) -> np.ndarray:
    """Linear index (x1 mod L) * L + (x2 mod L) of canonical torus points."""
    p = np.asarray(points, dtype=np.int64)
    half = spec.L // 2
    if np.any((p <= -half) | (p > half)):
        raise ValueError("point outside canonical torus range; wrap() it first")
    i = np.mod(p, spec.L)
    return i[..., 0] * spec.L + i[..., 1]


def point_of(indices: np.ndarray, spec: TorusSpec) -> np.ndarray:
    """Inverse of index_of: canonical point at each linear index."""
    idx = np.asarray(indices, dtype=np.int64)
    if np.any((idx < 0) | (idx >= spec.n_points)):
        raise ValueError("linear index out of range")
    return wrap(np.stack(np.divmod(idx, spec.L), axis=-1), spec.L)


# ---------------------------------------------------------------------------
# Start windows


@dataclass(frozen=True)
class Annulus:
    """Scale window between two torus squares, parametrized by alpha in [0, 1].

    alpha = 0 gives the punctured square of side v; alpha = 1 the full
    torus minus the square of side L/v; intermediate alpha the square
    of side L^alpha * v minus the square of side L^alpha / v.  An empty
    window is legitimate (reported as an empty set, not an error).
    """

    alpha: float
    v: float
    L: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0 < self.v < math.inf:  # also refuses nan
            raise ValueError(f"window parameter v must be positive and finite, got {self.v}")
        TorusSpec(self.L)  # refuses a side that is not a positive even integer

    def bounds(self) -> tuple[float, float]:
        """(inner, outer) torus-square sides; inner 0 means puncture only."""
        if self.alpha == 0.0:
            return 0.0, self.v
        if self.alpha == 1.0:
            return self.L / self.v, float(self.L)
        scale = float(self.L) ** self.alpha
        return scale / self.v, scale * self.v


def _in_side(x: np.ndarray, r: float) -> np.ndarray:
    """Membership of the coordinates x in the half-open interval (-r/2, r/2]."""
    return (x > -r / 2.0) & (x <= r / 2.0)


def contains(region: Annulus, points: np.ndarray) -> np.ndarray:
    """Vectorized membership test; points has shape (..., 2)."""
    p = np.asarray(points, dtype=np.int64)
    x1, x2 = p[..., 0], p[..., 1]
    inner, outer = region.bounds()
    inside = _in_side(x1, outer) & _in_side(x2, outer) & ~((x1 == 0) & (x2 == 0))
    if inner > 0.0:
        inside &= ~(_in_side(x1, inner) & _in_side(x2, inner))
    return inside


def _axis_range(side: float) -> tuple[int, int]:
    """(lo, hi): the integers k with -side/2 < k <= side/2 are lo..hi."""
    return int(math.floor(-side / 2.0)) + 1, int(math.floor(side / 2.0))


def region_size(region: Annulus) -> int:
    """Number of integer points of an annulus, in closed form.

    The outer square holds n_outer^2 points (n per axis from
    _axis_range), and the hole removes the n_inner^2 points of the
    inner square, or only the origin when there is no hole; an inner
    square larger than the outer one leaves none.
    """
    n_inner, n_outer = (hi - lo + 1 for lo, hi in map(_axis_range, region.bounds()))
    return max(n_outer * n_outer - max(n_inner * n_inner, 1), 0)


def enumerate_region(region: Annulus) -> np.ndarray:
    """All integer points of an annulus, shape (n, 2), row-major sorted order."""
    lo, hi = _axis_range(region.bounds()[1])
    if hi < lo:
        return np.empty((0, 2), dtype=np.int64)
    ax = np.arange(lo, hi + 1, dtype=np.int64)
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    return pts[contains(region, pts)]


def _axis_footprint(region: Annulus, spec: TorusSpec) -> tuple[int, int]:
    """The region's start window on the quadrant 0..L/2 per axis, as (A, p).

    Quadrant point (a, b) stands for its torus images (+-a, +-b); one of
    them lies in the region exactly when a, b <= A and a >= p or b >= p,
    so a field even in each coordinate takes the same values on those
    points as on the region's.  The window is empty when p > A.

    Proof.  Let lo..hi be the integers in the outer side's half-open
    interval (_axis_range); lo is -hi or 1 - hi, so the images of a reach
    it exactly for a <= hi: the outer footprint is 0..A, A = min(hi, L/2).
    A point lies in the region when both coordinates lie in lo..hi and
    one lies off the hole (off 0 when there is no hole, so p = 1).  With
    a hole ilo..ihi, image +a is in lo..hi and off the hole for
    a in ihi+1..hi, and image -a for a in 1-ilo..-lo, which is nonempty
    only when ilo > lo; then 1 - ilo <= ihi + 1 and ihi <= -lo, so the
    ring, where some image is in lo..hi and off the hole, is p..A with
    p = 1 - ilo when ilo > lo and p = ihi + 1 otherwise.  The images are
    chosen per axis, so (a, b) has one in the region exactly when one
    coordinate is in the ring and the other in the outer footprint.  An
    empty region has a hole that covers lo..hi (or no hole and hi = 0),
    so p > A.

    Raises ValueError, naming the outer side and L, when a point of the
    region lies outside the canonical torus range, rather than clipping
    the annulus.  The hole is a centered square nested in the outer one,
    so a nonempty region has a member in every extreme row and column of
    its outer square; it reaches off the torus exactly when those leave
    (-L/2, L/2].  On the torus, a = L/2 has the one image L/2.
    """
    inner, outer_side = region.bounds()
    lo, hi = _axis_range(outer_side)
    half = spec.L // 2
    if region_size(region) > 0 and (lo < 1 - half or hi > half):
        raise ValueError(
            f"the start window's outer side {outer_side:g} reaches off the torus of side {spec.L}"
        )
    if inner == 0.0:
        return min(hi, half), 1
    ilo, ihi = _axis_range(inner)
    return min(hi, half), 1 - ilo if ilo > lo else ihi + 1
