"""Jump kernels: symmetric finite-range step distributions on Z^2.

A kernel assigns probability mass to integer jumps inside the closed
box of side M (M a positive even integer), with no mass at the origin,
total mass one, mirror symmetry q(x) = q(-x), and equal coordinate
variances.  Families:

* uniform(M): equal mass on every nonzero point of the box; the
  normalized variance sigma2_M / M^2 tends to 1/12 as M grows.
* density(M, f): mass proportional to f(x / M) for a positive,
  continuous profile f on the closed sup-norm ball of radius 1/2
  with the symmetries f(x1, x2) = f(x2, x1) = f(-x1, x2); its
  limiting normalized variance is (integral of x1^2 f) / (integral of f).
* mixture(c, M, q0): c * uniform(M) + (1 - c) * q0 for a short-range
  kernel q0; the limiting normalized variance is c / 12.
* meanfield(L): uniform over the punctured torus of side L.  Stored as
  a Z^2 kernel on the symmetrized box (boundary mass split across the
  +/-L/2 pre-images) so mirror symmetry holds exactly; wrapping onto
  the torus of side L recovers equal mass 1/(L^2 - 1) everywhere.

Profile integrals are evaluated with a midpoint tensor rule under
dyadic refinement (see quadrature_midpoint_2d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .torus import TorusSpec

MASS_TOL = 1e-12
DENSITY_SYMMETRY_TOL = 1e-12
DENSITY_GRID = 33
DENSITY_RANDOM_PROBES = 1000
QUAD_TOL = 1e-9
QUAD_MAX_AXIS = 4096  # 2**12 points per axis


def check_range(M: int) -> None:
    """Refuse a kernel range that is not a positive even integer."""
    if M < 2 or M % 2 != 0:
        raise ValueError(f"kernel range must be a positive even integer, got {M}")


class QuadratureError(RuntimeError):
    """Dyadic refinement failed to converge; carries the last two estimates."""

    def __init__(self, message: str, last: float, previous: float):
        super().__init__(message)
        self.last = last
        self.previous = previous


def quadrature_midpoint_2d(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    half_width: float,
    base: int = 64,
    tol: float = QUAD_TOL,
    max_axis: int = QUAD_MAX_AXIS,
    strict: bool = False,
) -> tuple[float, int, list[tuple[int, float]]]:
    """Integrate func over the square [-h, h]^2 by refined midpoint sums.

    The per-axis resolution doubles from `base` until two successive
    estimates agree within `tol`; `max_axis` caps the refinement.  With
    strict=True an unconverged cap raises QuadratureError carrying the
    last two estimates; otherwise the cap estimate is returned.

    Returns
    -------
    (value, n_axis, history) : the final estimate, the resolution used,
    and the (resolution, estimate) pair for every level visited.
    """
    if base < 1 or base & (base - 1):
        raise ValueError(f"base resolution must be a power of two, got {base}")
    if max_axis < base:
        raise ValueError("refinement cap below base resolution")
    prev = math.nan
    history: list[tuple[int, float]] = []
    n = base
    while True:
        h = 2.0 * half_width / n
        mids = -half_width + h * (np.arange(n) + 0.5)
        x1, x2 = np.meshgrid(mids, mids, indexing="ij")
        val = float(np.sum(func(x1, x2))) * h * h
        history.append((n, val))
        if abs(val - prev) < tol:
            return val, n, history
        if n == max_axis:
            if strict:
                raise QuadratureError(
                    f"midpoint rule did not converge within {max_axis} points per axis",
                    last=val,
                    previous=prev,
                )
            return val, n, history
        prev = val
        n *= 2


@dataclass(frozen=True)
class KernelDensity:
    """Validated profile for the density family.

    The callable must be positive and continuous on the closed sup-norm
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
    """A finite-range symmetric jump distribution.

    Attributes
    ----------
    M : int
        Range: support is contained in the closed box of side M.
    points : ndarray of int64, shape (n, 2)
        Support points (no origin, closed under negation).
    masses : ndarray of float64, shape (n,)
        Probabilities, summing to one.
    sigma2_M : float
        Common per-coordinate variance of one jump.
    sigma2_limit : float or None
        Limit of sigma2_M / M^2 along the family, when the family
        defines one (uniform: 1/12; density: profile integral ratio;
        mixture: c/12; meanfield: None).
    label : str
        Human-readable family tag for reports.
    """

    M: int
    points: np.ndarray
    masses: np.ndarray
    sigma2_M: float
    sigma2_limit: float | None
    label: str
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.int64)
        mass = np.asarray(self.masses, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] != mass.shape[0]:
            raise ValueError("points must be (n, 2) with matching masses")
        check_range(self.M)
        if np.any(np.abs(pts) > self.M // 2):
            raise ValueError("support leaks outside the box of side M")
        if np.any((pts == 0).all(axis=1)):
            raise ValueError("kernel must place no mass at the origin")
        if np.any(mass <= 0.0):
            raise ValueError("masses must be strictly positive")
        if abs(float(mass.sum()) - 1.0) > MASS_TOL:
            raise ValueError("masses must sum to one")
        lookup = {(int(p[0]), int(p[1])): float(m) for p, m in zip(pts, mass)}
        if len(lookup) != pts.shape[0]:
            raise ValueError("duplicate support points")
        for (a, b), m in lookup.items():
            m_neg = lookup.get((-a, -b))
            if m_neg is None or abs(m - m_neg) > MASS_TOL:
                raise ValueError("kernel must satisfy q(x) = q(-x)")
        v1 = float(np.sum(mass * pts[:, 0].astype(float) ** 2))
        v2 = float(np.sum(mass * pts[:, 1].astype(float) ** 2))
        if abs(v1 - v2) > 1e-9 * max(v1, 1.0):
            raise ValueError("coordinate variances must agree")
        if v1 <= 0.0:
            raise ValueError("jump variance must be positive")
        if abs(v1 - self.sigma2_M) > 1e-9 * max(v1, 1.0):
            raise ValueError("sigma2_M does not match the stored masses")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", mass)
        self._index.update(lookup)
        self._index["_cdf"] = np.cumsum(mass)

    def mass_at(self, point: tuple[int, int]) -> float:
        """Probability of a single jump value (0.0 off the support)."""
        return self._index.get((int(point[0]), int(point[1])), 0.0)

    @property
    def n_support(self) -> int:
        return int(self.points.shape[0])


def _box_points(M: int) -> np.ndarray:
    half = M // 2
    ax = np.arange(-half, half + 1, dtype=np.int64)
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    return pts[~(pts == 0).all(axis=1)]


def _variance(pts: np.ndarray, mass: np.ndarray) -> float:
    return float(np.sum(mass * pts[:, 0].astype(float) ** 2))


def uniform_kernel(M: int) -> JumpKernel:
    """Equal mass on the (M+1)^2 - 1 nonzero points of the box of side M."""
    check_range(M)
    pts = _box_points(M)
    mass = np.full(pts.shape[0], 1.0 / pts.shape[0])
    mass /= mass.sum()
    return JumpKernel(
        M=M,
        points=pts,
        masses=mass,
        sigma2_M=_variance(pts, mass),
        sigma2_limit=1.0 / 12.0,
        label=f"uniform(M={M})",
    )


def density_kernel(M: int, density: KernelDensity, quad_base: int = 64) -> JumpKernel:
    """Mass proportional to density(x / M) on the nonzero box points."""
    check_range(M)
    pts = _box_points(M)
    w = density(pts[:, 0] / M, pts[:, 1] / M)
    mass = w / w.sum()
    # limiting normalized variance: (int x1^2 f) / (int f) over the ball
    total, _, _ = quadrature_midpoint_2d(density, 0.5, base=quad_base)
    second, _, _ = quadrature_midpoint_2d(
        lambda a, b: a * a * density(a, b), 0.5, base=quad_base
    )
    return JumpKernel(
        M=M,
        points=pts,
        masses=mass,
        sigma2_M=_variance(pts, mass),
        sigma2_limit=second / total,
        label=f"density(M={M}, f={density.label})",
    )


def mixture_kernel(c: float, M: int, q0: JumpKernel) -> JumpKernel:
    """Convex combination c * uniform(M) + (1 - c) * q0; requires q0 range <= M."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"mixture weight must lie strictly inside (0, 1), got {c}")
    if q0.M > M:
        raise ValueError(f"short-range part has range {q0.M} exceeding M={M}")
    pts = _box_points(M)
    u = c / pts.shape[0]
    mass = np.full(pts.shape[0], u)
    # q0's support is a subset of the box points; add its mass in place
    lookup = {(int(p[0]), int(p[1])): i for i, p in enumerate(pts)}
    for p, m in zip(q0.points, q0.masses):
        mass[lookup[(int(p[0]), int(p[1]))]] += (1.0 - c) * m
    mass /= mass.sum()
    return JumpKernel(
        M=M,
        points=pts,
        masses=mass,
        sigma2_M=_variance(pts, mass),
        sigma2_limit=c / 12.0,
        label=f"mixture(c={c}, M={M}, q0={q0.label})",
    )


def meanfield_kernel(L: int) -> JumpKernel:
    """Uniform jump law on the punctured torus of side L, as a Z^2 kernel.

    Boundary coordinates (+L/2) have two congruent pre-images (+/-L/2);
    their torus mass is split evenly so that q(x) = q(-x) holds in Z^2.
    Wrapping mod L therefore yields mass exactly 1/(L^2 - 1) on every
    nonzero torus point.
    """
    TorusSpec(L)  # refuses a side that is not a positive even integer
    pts = _box_points(L)
    half = L // 2
    n_boundary = (np.abs(pts) == half).sum(axis=1)
    mass = (0.5**n_boundary) / (L * L - 1.0)
    mass /= mass.sum()
    return JumpKernel(
        M=L,
        points=pts,
        masses=mass,
        sigma2_M=_variance(pts, mass),
        sigma2_limit=None,
        label=f"meanfield(L={L})",
    )


def sample_jumps(kernel: JumpKernel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` independent jumps, shape (size, 2), by inverse CDF."""
    cdf = kernel._index["_cdf"]
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    idx = np.minimum(idx, kernel.n_support - 1)
    return kernel.points[idx]


def sample_jump(kernel: JumpKernel, rng: np.random.Generator) -> np.ndarray:
    """Draw one jump, shape (2,)."""
    return sample_jumps(kernel, rng, 1)[0]
