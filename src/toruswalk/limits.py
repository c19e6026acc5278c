"""Asymptotic targets and auditable lattice-sum facts.

The hitting time H of the origin, started from a point at scale
L^alpha and run with kernels of range M_L, has a scaling limit
controlled by two numbers: rho = lim M_L^2 / log L and the normalized
jump variance sigma2 = lim sigma2_M / M^2.  On the time scale
t_scale(L, M) = log(L) / M^2 the limit of E_x exp(-lam H / (L^2 t_scale))
is

    (1 - alpha') + alpha' / (1 + beta * lam),

with beta = rho + 1/(pi sigma2) and alpha' = (alpha + rho pi sigma2) /
(1 + rho pi sigma2); the limit mean is alpha' * beta.  When rho is
infinite the walk mixes before hitting and the limit collapses to the
meanfield transform 1/(1 + lam) on the time scale L^2, with mean 1.

beta0 evaluates the limiting mean constant of the mixture family,
    12/(c pi) + (2 pi)^-2 * integral over [-pi, pi]^2 of
        d theta / (1 - (1 - c) * q0_hat(theta)),
by quadrature_midpoint_2d, a midpoint rule under dyadic refinement
with its controls in a QuadratureSpec (the integrand is smooth and
periodic, so refinement converges fast; c = 1 gives 12/pi + 1
exactly).  The integrand is formed as 1/(c + (1 - c) psi) from
spectral.psi_grid's psi = 1 - q0_hat, with no cancellation in 1 - q0_hat.

death_process_dist is the lineage-count law of the n-to-1 pure death
chain with rate k(k-1)/2 in state k: the last row of the matrix
exponential of its bidiagonal generator.

lemma21_audit numerically audits the exponential-sum inequalities and
logarithmic lattice-sum limits used by the asymptotic analysis:
proven bounds are asserted (a violation is an implementation bug);
limits are reported as finite-size ratios.  Every inverse-square
lattice sum it reports (square, disc, dyadic ring, oscillating ring)
runs over a region symmetric under y1 -> -y1 and y2 -> -y2, so each is
one weighted sum over the closed quadrant a, b >= 0 with cosine
weights: no sine and no complex arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernels import JumpKernel, check_range
from .spectral import char_fn  # noqa: F401  (wrapped by perfbench/tracer.py)
from .spectral import TILE_ENTRIES, psi_grid
from .torus import TWO_PI, TorusSpec

RING_LOG2_LIMIT = TWO_PI * math.log(2.0)


def t_scale(L: int, M: int) -> float:
    """Time-scale factor log(L) / M^2."""
    TorusSpec(L)  # refuses a side that is not a positive even integer
    check_range(M)
    return math.log(L) / (M * M)


@dataclass(frozen=True)
class RegimeParams:
    """Limit regime: rho = lim M^2/log L (may be math.inf), normalized
    variance sigma2, and start-point scale exponent alpha."""

    rho: float
    sigma2: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.rho < 0 or math.isnan(self.rho):
            raise ValueError(f"rho must be nonnegative or inf, got {self.rho}")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


def beta(params: RegimeParams) -> float:
    """Limit mean coefficient rho + 1/(pi sigma2); finite regimes only."""
    if math.isinf(params.rho):
        raise ValueError("beta is defined only for finite rho")
    return params.rho + 1.0 / (math.pi * params.sigma2)


def alpha_prime(params: RegimeParams) -> float:
    """Weight of the exponential part: (alpha + rho pi sigma2) / (1 + rho pi sigma2)."""
    if math.isinf(params.rho):
        raise ValueError("alpha_prime is defined only for finite rho")
    r = params.rho * math.pi * params.sigma2
    return (params.alpha + r) / (1.0 + r)


def target_laplace(params: RegimeParams, lam: float) -> float:
    """Limiting value of E_x exp(-lam * H / (L^2 t_scale)).

    rho = inf uses the meanfield limit 1/(1 + lam) (time scale L^2);
    finite rho gives (1 - alpha') + alpha'/(1 + beta * lam).
    """
    if not lam >= 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if math.isinf(params.rho):
        return 1.0 / (1.0 + lam)
    ap = alpha_prime(params)
    return (1.0 - ap) + ap / (1.0 + beta(params) * lam)


def target_mean(params: RegimeParams) -> float:
    """Limiting value of E_x H / (L^2 t_scale) (1 for rho = inf, scale L^2)."""
    if math.isinf(params.rho):
        return 1.0
    return alpha_prime(params) * beta(params)


# ---------------------------------------------------------------------------
# Midpoint quadrature and beta0


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint-rule controls: base per-axis resolution (power of two),
    refinement cap, and the successive-level convergence tolerance."""

    base: int = 64
    max_axis: int = 4096
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.base < 2 or self.base & (self.base - 1):
            raise ValueError(f"base must be a power of two >= 2, got {self.base}")
        if self.max_axis < self.base:
            raise ValueError("refinement cap below base resolution")
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")


class QuadratureError(RuntimeError):
    """Dyadic refinement failed to converge; carries the last two estimates."""

    def __init__(self, message: str, last: float, previous: float):
        super().__init__(message)
        self.last = last
        self.previous = previous


def quadrature_midpoint_2d(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    half_width: float,
    quad: QuadratureSpec,
) -> tuple[float, int, list[tuple[int, float]]]:
    """Integrate func over the square [-h, h]^2 by refined midpoint sums.

    func receives the midpoints of a level as the axes of a sparse
    meshgrid (indexing "ij"), shapes (n, 1) and (1, n), and returns the
    n x n integrand values, by broadcasting or as a tensor grid.  The
    per-axis resolution doubles from quad.base until two successive
    estimates agree within quad.tol.  When one more doubling would pass
    quad.max_axis, QuadratureError is raised carrying the last two
    estimates.

    Returns
    -------
    (value, n_axis, history) : the final estimate, the resolution used,
    and the (resolution, estimate) pair for every level visited.
    """
    prev = math.nan
    history: list[tuple[int, float]] = []
    n = quad.base
    while True:
        h = 2.0 * half_width / n
        mids = -half_width + h * (np.arange(n) + 0.5)
        x1, x2 = np.meshgrid(mids, mids, indexing="ij", sparse=True)
        val = float(np.sum(func(x1, x2))) * h * h
        history.append((n, val))
        if abs(val - prev) < quad.tol:
            return val, n, history
        if 2 * n > quad.max_axis:
            raise QuadratureError(
                f"midpoint rule did not converge within {quad.max_axis} points per axis",
                last=val,
                previous=prev,
            )
        prev = val
        n *= 2


class Beta0Result(NamedTuple):
    c: float
    value: float
    levels: tuple[tuple[int, float], ...]  # (points per axis, estimate)


def beta0(c: float, q0: JumpKernel, quad: QuadratureSpec = QuadratureSpec()) -> Beta0Result:
    """Limiting mean constant 12/(c pi) + (2 pi)^-2 int 1/(1 - (1-c) q0_hat).

    The integral runs over the full period square [-pi, pi]^2, with the
    integrand 1/(c + (1 - c) psi) taken from psi = 1 - q0_hat on each
    level's tensor grid (spectral.psi_grid); the denominator is bounded
    below by c, so the integrand is smooth.
    Raises QuadratureError (carrying the last two estimates) if one
    more doubling would pass quad.max_axis before two levels agree
    within quad.tol.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"mixture weight must lie in (0, 1], got {c}")

    def integrand(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        # t1, t2 are the grid's axes, (n, 1) and (1, n);
        # 1 - (1 - c) q_hat = c + (1 - c) psi, in the storage of psi
        w = psi_grid(q0, t1, t2)
        w *= 1.0 - c
        w += c
        return np.reciprocal(w, out=w)

    value, _, history = quadrature_midpoint_2d(integrand, math.pi, quad)
    lead = 12.0 / (c * math.pi)
    return Beta0Result(
        c=c,
        value=lead + value / (TWO_PI**2),
        levels=tuple((n, lead + est / (TWO_PI**2)) for n, est in history),
    )


# ---------------------------------------------------------------------------
# Lineage-count law of the pure death chain


def death_process_dist(n: int, t: float) -> np.ndarray:
    """P(D_t = k) for k = 1..n; D is the pure death chain from n with
    rate k(k-1)/2 in state k.

    The law is the last row of expm(t Q) for the bidiagonal generator Q.

    Returns an array p of length n with p[k-1] = P(D_t = k).  Raises
    ValueError for a negative or NaN t, and ArithmeticError where expm
    breaks down and the row is not finite, for t past about 1e35
    (n = 40) to 1e39 (n = 2), and for an infinite t, which never
    reaches expm.
    """
    if n < 1:
        raise ValueError(f"need at least one lineage, got {n}")
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    k = np.arange(2, n + 1)
    rates = k * (k - 1) / 2.0
    Q = np.zeros((n, n))
    Q[k - 1, k - 1] = -rates
    Q[k - 1, k - 2] = rates
    import scipy.linalg  # imported here so that importing the CLI loads no scipy

    p = scipy.linalg.expm(t * Q)[n - 1] if t < math.inf else None  # inf * Q holds inf * 0
    if p is None or not np.all(np.isfinite(p)):
        raise ArithmeticError(f"the pure-death law from n={n} at t={t!r} is not finite")
    return p


# ---------------------------------------------------------------------------
# Exponential-sum and lattice-sum audits


class AuditError(RuntimeError):
    """A proven inequality failed numerically: an implementation bug."""


def _dirichlet(b: np.ndarray, u: float) -> np.ndarray:
    """sum_{j=-b}^{b} e^{iju} = sin((b + 1/2) u) / sin(u / 2), real."""
    b = np.asarray(b, dtype=np.float64)
    if abs(math.sin(u / 2.0)) < 1e-300:
        return 2.0 * b + 1.0
    return np.sin((b + 0.5) * u) / math.sin(u / 2.0)


def _axis_torus_sum(K: int, u: float) -> complex:
    # sum over the half-open axis range (-K/2, K/2]
    half = K // 2
    if K % 2 == 0:
        d = float(_dirichlet(np.array(half), u))
        return complex(d - math.cos(half * u), math.sin(half * u))
    return complex(float(_dirichlet(np.array(half), u)), 0.0)


class ExponentialSumAudit(NamedTuple):
    K: int
    theta: tuple[float, float]
    box_abs: float
    box_bound: float
    disc_abs: float
    disc_bound: float


def _check_theta(theta: np.ndarray) -> float:
    """||theta||_inf of a frequency, refused unless it is a nonzero point
    of the closed pi-ball."""
    sup = float(np.max(np.abs(theta)))
    if not 0.0 < sup <= math.pi + 1e-12:
        raise ValueError("frequency must be a nonzero point of the closed pi-ball")
    return sup


def exponential_sum_audit(K: int, theta: np.ndarray) -> ExponentialSumAudit:
    """Audit the square and disc exponential-sum bounds at one frequency.

    The square sum runs over the half-open square of side K, bounded by
    4(K+1)(1 + 1/||theta||_inf); the disc sum over |x| <= K/2, bounded
    by 4(K+1)/||theta||_inf.  Both inequalities are proven, so a
    numerical violation raises AuditError.
    """
    th = np.asarray(theta, dtype=np.float64).reshape(2)
    sup = _check_theta(th)
    if K < 2:
        raise ValueError(f"K must be at least 2, got {K}")
    box_val = _axis_torus_sum(K, th[0]) * _axis_torus_sum(K, th[1])
    box_abs = abs(box_val)
    box_bound = 4.0 * (K + 1) * (1.0 + 1.0 / sup)

    half = K // 2
    x1 = np.arange(-half, half + 1, dtype=np.float64)
    b = np.floor(np.sqrt(np.maximum((K / 2.0) ** 2 - x1**2, 0.0)))
    rows = _dirichlet(b, th[1])
    disc_val = complex(
        float(np.cos(th[0] * x1) @ rows), float(np.sin(th[0] * x1) @ rows)
    )
    disc_abs = abs(disc_val)
    disc_bound = 4.0 * (K + 1) / sup

    slack = 1e-9
    if not box_abs <= box_bound * (1.0 + 1e-12) + slack:
        raise AuditError(f"square-sum bound violated at K={K}, theta={tuple(th)}")
    if not disc_abs <= disc_bound * (1.0 + 1e-12) + slack:
        raise AuditError(f"disc-sum bound violated at K={K}, theta={tuple(th)}")
    return ExponentialSumAudit(
        K=K,
        theta=(float(th[0]), float(th[1])),
        box_abs=box_abs,
        box_bound=box_bound,
        disc_abs=disc_abs,
        disc_bound=disc_bound,
    )


def _quadrant_sum(n: int, inner: float, outer: float, end: int, thetas: np.ndarray) -> np.ndarray:
    """Inverse-square sums over a region symmetric under y1 -> -y1 and y2 -> -y2.

    For each row theta of thetas, returns

        sum_{a, b = 0..n} m(a) m(b) [inner^2 < a^2 + b^2 <= outer^2]
                          cos(theta_1 a) cos(theta_2 b) / (a^2 + b^2)

    with m(0) = 1, m(a) = 2 for 0 < a < n and m(n) = end: each quadrant
    point stands for its mirror images.  With end = 2 that is the sum of
    e^{i theta . y} / |y|^2 over the points of the region with |y1|,
    |y2| <= n; the sine terms cancel by the mirror symmetry.  end = 1
    drops y_i = -n, which gives the half-open torus square of even
    side; its sine terms do not cancel, so it is summed at theta = 0.
    """
    a = np.arange(n + 1, dtype=np.float64)
    a2 = a * a
    m = np.full(n + 1, 2.0)
    m[0], m[n] = 1.0, end
    th = np.asarray(thetas, dtype=np.float64).reshape(-1, 2)
    cos_rows = m[:, None] * np.cos(np.outer(a, th[:, 0]))
    cos_cols = m[:, None] * np.cos(np.outer(a, th[:, 1]))
    total = np.zeros(th.shape[0])
    # strips of rows with at most TILE_ENTRIES weights, formed in place
    strip = max(1, TILE_ENTRIES // (n + 1))
    w = np.empty((strip, n + 1))
    inside = np.empty(w.shape, dtype=bool)
    below = np.empty(w.shape, dtype=bool)
    for lo in range(0, n + 1, strip):
        k = min(strip, n + 1 - lo)
        r2, ins = w[:k], inside[:k]  # r2 becomes the weights in place
        np.add(a2[lo : lo + k, None], a2, out=r2)
        np.greater(r2, inner * inner, out=ins)
        np.logical_and(ins, np.less_equal(r2, outer * outer, out=below[:k]), out=ins)
        np.maximum(r2, 1.0, out=r2)  # r2 = 0 is never inside
        np.reciprocal(r2, out=r2)
        r2 *= ins
        total += np.einsum("ik,ik->k", r2 @ cos_cols, cos_rows[lo : lo + k])
    return total


class RingRow(NamedTuple):
    """|sum of e^{i theta . y} / |y|^2| over J/2 < |y| <= K/2 at one theta;
    the sum is real, a cosine sum over the mirror-symmetric ring."""

    theta: tuple[float, float]
    ring_abs: float
    implied_constant: float  # ring_abs * min(1, J * ||theta||_inf)


class Lemma21Audit(NamedTuple):
    """Numeric audit of the exponential-sum bounds and log-sum limits.

    exp_rows carry the proven square/disc bounds (asserted); ring_rows
    report |sum e^{i theta y}/|y|^2| over the ring J/2 < |y| <= K/2
    together with the constant it implies against
    1/min(1, J ||theta||_inf) (no proven numeric constant to assert).
    The scalars divide sum 1/|y|^2 over the punctured half-open square
    (-K/2, K/2]^2 and over the punctured disc |y| <= K/2 by log K
    (both tend to 2 pi), and ring_dyadic_sum is sum 1/|y|^2 over the
    ring K/2 < |y| <= K (it tends to 2 pi log 2).
    """

    K: int
    J: int
    exp_rows: tuple[ExponentialSumAudit, ...]
    ring_rows: tuple[RingRow, ...]
    torus_log_ratio: float
    disc_log_ratio: float
    ring_dyadic_sum: float


def lemma21_audit(K: int, J: int, thetas: np.ndarray) -> Lemma21Audit:
    """Audit exponential-sum bounds at each theta and the log-sum limits at K.

    thetas has shape (m, 2), entries in the punctured closed pi-ball.
    K > J >= 1.  Every theta is checked before the first sum.  Proven
    inequalities are asserted; ratios reported.
    """
    if not K > J >= 1:
        raise ValueError(f"need K > J >= 1, got K={K}, J={J}")
    thetas = np.asarray(thetas, dtype=np.float64).reshape(-1, 2)
    for th in thetas:
        _check_theta(th)
    exp_rows = tuple(exponential_sum_audit(K, th) for th in thetas)
    ring_abs = np.abs(_quadrant_sum(K // 2, J / 2.0, K / 2.0, 2, thetas))
    ring_rows = tuple(
        RingRow(
            theta=(float(th[0]), float(th[1])),
            ring_abs=float(val),
            implied_constant=float(val) * min(1.0, J * float(np.max(np.abs(th)))),
        )
        for th, val in zip(thetas, ring_abs)
    )
    theta0 = np.zeros((1, 2))
    disc = _quadrant_sum(K // 2, 0.0, K / 2.0, 2, theta0)[0]
    torus = _quadrant_sum(K // 2, 0.0, math.inf, 1 if K % 2 == 0 else 2, theta0)[0]
    log_k = math.log(K)
    return Lemma21Audit(
        K=K,
        J=J,
        exp_rows=exp_rows,
        ring_rows=ring_rows,
        torus_log_ratio=torus / log_k,
        disc_log_ratio=disc / log_k,
        ring_dyadic_sum=_quadrant_sum(K, K / 2.0, float(K), 2, theta0)[0],
    )
