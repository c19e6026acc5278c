"""Jump kernels: symmetric finite-range step distributions on Z^2.

A kernel is stored once, as its mass box: the (M+1) x (M+1) array of
the probabilities of the jumps in the closed box of side M (M a
positive even integer).  Range, variance, support views and the
sampling CDF are derived from the box (see JumpKernel).  The families
build their boxes directly:

* uniform(M): equal mass on every nonzero point of the box; the
  normalized variance sigma2_M / M^2 tends to 1/12 as M grows.
* density(M, f): mass proportional to f(x / M) for a positive, smooth
  profile f on the closed sup-norm ball of radius 1/2 with the
  symmetries f(x1, x2) = f(x2, x1) = f(-x1, x2); its limiting
  normalized variance (integral of x1^2 f) / (integral of f) comes
  from Gauss-Legendre tensor rules of GAUSS_ORDERS nodes per axis,
  which must agree to PROFILE_RTOL.
* mixture(c, M, q0): c * uniform(M) + (1 - c) * q0 for a short-range
  kernel q0; the limiting normalized variance is c / 12.
* meanfield(L): uniform over the punctured torus of side L, as the
  outer product of the axis weights [1/2, 1, ..., 1, 1/2]: boundary
  mass is split across the +/-L/2 pre-images, so mirror symmetry holds
  exactly and wrapping onto the torus gives 1/(L^2 - 1) everywhere.

Sampling is by inverse CDF: a jump is support point
searchsorted(cdf, u, "right") for a uniform u.  sample_jumps finds that
index with a guide table (Chen & Asau 1974, AIIE Trans. 6) instead of a
binary search: B buckets, B a power of two, with start[b] = #{cdf <=
b/B} <= the index sought for every u in bucket b = floor(u*B), then a
few vectorized passes step each draw past the CDF values still <= u.
The index, and so every drawn jump, is exactly the binary search's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .torus import TorusSpec

MASS_TOL = 1e-12
DENSITY_SYMMETRY_TOL = 1e-12
DENSITY_GRID = 33
DENSITY_RANDOM_PROBES = 1000
GAUSS_ORDERS = (48, 96)  # Gauss-Legendre nodes per axis, coarse and fine
PROFILE_RTOL = 1e-12
GUIDE_PASSES = 4  # guide-table correction passes before a binary search takes the rest


def check_range(M: int) -> None:
    """Refuse a kernel range that is not a positive even integer."""
    if M < 2 or M % 2 != 0:
        raise ValueError(f"kernel range must be a positive even integer, got {M}")


@dataclass(frozen=True)
class KernelDensity:
    """Validated profile for the density family.

    The callable must be positive and smooth on the closed sup-norm
    ball of radius 1/2 and satisfy f(x1, x2) = f(x2, x1) = f(-x1, x2).
    Symmetry and positivity are probed on a 33x33 grid plus random
    points at construction; violations raise ValueError.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = "density"

    def __post_init__(self) -> None:
        ax = np.linspace(-0.5, 0.5, DENSITY_GRID)
        g1, g2 = np.meshgrid(ax, ax, indexing="ij")
        rng = np.random.default_rng(20260816)
        r = rng.uniform(-0.5, 0.5, size=(2, DENSITY_RANDOM_PROBES))
        x1 = np.concatenate([g1.ravel(), r[0]])
        x2 = np.concatenate([g2.ravel(), r[1]])
        v = self(x1, x2)
        if v.shape != x1.shape:
            raise ValueError(f"density profile must return one value per point, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("density profile returned non-finite values")
        if np.any(v <= 0.0):
            raise ValueError("density profile must be strictly positive on the ball")
        for other in (self(x2, x1), self(-x1, x2), self(x1, -x2)):
            if np.max(np.abs(v - other)) > DENSITY_SYMMETRY_TOL:
                raise ValueError("density profile violates the required symmetries")

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)), dtype=float)


@dataclass(frozen=True)
class JumpKernel:
    """A finite-range symmetric jump distribution, stored as its mass box.

    box[i, j] is the probability of the jump (i - M/2, j - M/2).  The
    constructor checks the box with whole-array comparisons: even side
    M, no mass at the center, entries nonnegative and summing to one,
    box == box[::-1, ::-1] to MASS_TOL with exactly mirror-symmetric
    support (so points[::-1] == -points), equal marginal variances.
    Violations raise ValueError.  sigma2_limit is the limit of
    sigma2_M / M^2 along the family, when the family defines one
    (uniform: 1/12; density: profile integral ratio; mixture: c/12;
    meanfield: None); label is a family tag for reports.

    Derived from the box: M; sigma2_M, the common per-coordinate
    variance of one jump, from the box marginals; and the support
    views points (int64, shape (n, 2)) and masses (float64, shape
    (n,)), the nonzero entries in row-major order.
    """

    box: np.ndarray
    sigma2_limit: float | None
    label: str
    M: int = field(init=False)
    sigma2_M: float = field(init=False)
    points: np.ndarray = field(init=False, repr=False)
    masses: np.ndarray = field(init=False, repr=False)
    _cdf: np.ndarray = field(init=False, repr=False)  # cumulative masses, for sampling

    def __post_init__(self) -> None:
        box = np.asarray(self.box, dtype=np.float64)
        if box.ndim != 2 or box.shape[0] != box.shape[1]:
            raise ValueError("mass box must be a square array")
        M = box.shape[0] - 1
        check_range(M)
        half = M // 2
        if box[half, half] != 0.0:
            raise ValueError("kernel must place no mass at the origin")
        if not np.all(box >= 0.0):
            raise ValueError("masses must be nonnegative")
        if abs(float(box.sum()) - 1.0) > MASS_TOL:
            raise ValueError("masses must sum to one")
        if np.max(np.abs(box - box[::-1, ::-1])) > MASS_TOL:
            raise ValueError("kernel must satisfy q(x) = q(-x)")
        if not np.array_equal(box > 0.0, box[::-1, ::-1] > 0.0):
            raise ValueError("kernel support must be mirror-symmetric: q(x) > 0 iff q(-x) > 0")
        x2 = _box_axis(M).astype(np.float64) ** 2
        v1, v2 = float(box.sum(axis=1) @ x2), float(box.sum(axis=0) @ x2)
        if abs(v1 - v2) > 1e-9 * max(v1, 1.0):
            raise ValueError("coordinate variances must agree")
        rows, cols = np.nonzero(box)
        masses = box[rows, cols]
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "sigma2_M", v1)
        object.__setattr__(self, "points", np.stack([rows - half, cols - half], axis=-1))
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "_cdf", np.cumsum(masses))

    def mass_at(self, point: tuple[int, int]) -> float:
        """Probability of a single jump value (0.0 off the box)."""
        i, j = (int(c) + self.M // 2 for c in point)
        if 0 <= i <= self.M and 0 <= j <= self.M:
            return float(self.box[i, j])
        return 0.0

    @property
    def n_support(self) -> int:
        return int(self.points.shape[0])

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray]:
        """Guide table for sample_jumps, built on first use.

        start[b] = #{cdf <= b/B} for B buckets, B the least power of two
        >= n_support (so u*B and b/B are exact), and the CDF closed by
        +inf, which stops every correction pass at index n_support.
        """
        B = 1 << max(self.n_support - 1, 1).bit_length()
        start = np.searchsorted(self._cdf, np.arange(B) / B, side="right")
        return start, np.append(self._cdf, np.inf)


def _box_axis(M: int) -> np.ndarray:
    """Jump coordinates -M/2..M/2 along one side of the box."""
    return np.arange(-(M // 2), M // 2 + 1, dtype=np.int64)


def uniform_kernel(M: int) -> JumpKernel:
    """Equal mass on the (M+1)^2 - 1 nonzero points of the box of side M."""
    check_range(M)
    n = (M + 1) ** 2 - 1
    mass = np.full(n, 1.0 / n)  # normalized in 1-D: the box sum rounds differently
    mass /= mass.sum()
    box = np.insert(mass, n // 2, 0.0).reshape(M + 1, M + 1)  # the origin is entry n/2
    return JumpKernel(box, sigma2_limit=1.0 / 12.0, label=f"uniform(M={M})")


def _profile_variance(density: KernelDensity, order: int) -> float:
    """(int x1^2 f) / (int f) over the ball by an order x order Gauss-Legendre rule."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x1, x2 = np.meshgrid(nodes / 2.0, nodes / 2.0, indexing="ij")
    f = density(x1, x2) * np.outer(weights, weights)
    return float(np.sum(x1 * x1 * f) / np.sum(f))


def density_kernel(M: int, density: KernelDensity) -> JumpKernel:
    """Mass proportional to density(x / M) on the nonzero box points.

    Raises ValueError when the limiting variance is unresolved: the
    Gauss-Legendre rules of GAUSS_ORDERS nodes per axis disagree by
    more than PROFILE_RTOL relative (a profile that is not smooth).
    """
    check_range(M)
    coarse, fine = (_profile_variance(density, n) for n in GAUSS_ORDERS)
    if abs(fine - coarse) > PROFILE_RTOL * abs(fine):
        raise ValueError(f"profile {density.label!r} variance unresolved: {coarse!r} vs {fine!r}")
    x = _box_axis(M) / M
    w = density(*np.meshgrid(x, x, indexing="ij"))
    w[M // 2, M // 2] = 0.0
    return JumpKernel(w / w.sum(), sigma2_limit=fine, label=f"density(M={M}, f={density.label})")


def mixture_kernel(c: float, M: int, q0: JumpKernel) -> JumpKernel:
    """Convex combination c * uniform(M) + (1 - c) * q0; requires q0 range <= M."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"mixture weight must lie strictly inside (0, 1), got {c}")
    if q0.M > M:
        raise ValueError(f"short-range part has range {q0.M} exceeding M={M}")
    box = c * uniform_kernel(M).box + (1.0 - c) * np.pad(q0.box, (M - q0.M) // 2)
    box /= box.sum()
    return JumpKernel(box, sigma2_limit=c / 12.0, label=f"mixture(c={c}, M={M}, q0={q0.label})")


def meanfield_kernel(L: int) -> JumpKernel:
    """Uniform jump law on the punctured torus of side L, as a Z^2 kernel.

    Boundary coordinates (+L/2) have two congruent pre-images (+/-L/2);
    their torus mass is split evenly so that q(x) = q(-x) holds in Z^2:
    the box is the outer product of the axis weights [1/2, 1, ..., 1, 1/2].
    Wrapping mod L therefore yields mass exactly 1/(L^2 - 1) on every
    nonzero torus point.
    """
    TorusSpec(L)  # refuses a side that is not a positive even integer
    axis = np.ones(L + 1)
    axis[[0, L]] = 0.5
    box = np.outer(axis, axis)
    box[L // 2, L // 2] = 0.0
    box /= L * L - 1.0
    return JumpKernel(box, sigma2_limit=None, label=f"meanfield(L={L})")


def _jump_index(kernel: JumpKernel, u: np.ndarray) -> np.ndarray:
    """searchsorted(kernel._cdf, u, side="right"), capped at n_support - 1.

    Starts from the guide table's bucket and steps forward while the
    CDF is still <= u; after GUIDE_PASSES passes the few draws left
    (those in a bucket holding many CDF steps) take the binary search.
    """
    start, cdf = kernel._guide
    idx = start.take((u * start.size).astype(np.intp))
    need = np.flatnonzero(cdf.take(idx) <= u)
    for _ in range(GUIDE_PASSES):
        if not need.size:
            break
        idx[need] += 1
        need = need[cdf.take(idx[need]) <= u[need]]
    if need.size:
        idx[need] = np.searchsorted(cdf, u[need], side="right")
    return np.minimum(idx, kernel.n_support - 1, out=idx)


def sample_jumps(kernel: JumpKernel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` independent jumps, shape (size, 2), by inverse CDF.

    One uniform per jump, in order; the guide table only finds the
    inverse-CDF index faster (see the module docstring).
    """
    return kernel.points.take(_jump_index(kernel, rng.random(size)), axis=0)


def sample_jump(kernel: JumpKernel, rng: np.random.Generator) -> np.ndarray:
    """Draw one jump, shape (2,): sample_jumps(kernel, rng, 1)[0], by binary search.

    For a single draw the search costs less than building a guide-table
    pass; the uniform and the index are the same.
    """
    i = int(np.searchsorted(kernel._cdf, rng.random(), side="right"))
    return kernel.points[min(i, kernel.n_support - 1)].copy()
