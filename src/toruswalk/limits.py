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
by midpoint quadrature under dyadic refinement (the integrand is
smooth and periodic, so refinement converges fast; c = 1 gives
12/pi + 1 exactly).

death_process_dist is the lineage-count law of the n-to-1 pure death
chain with rate k(k-1)/2 in state k: exact exponential-mixture
formulas for n <= 30 (all rates distinct), matrix exponential above.

lemma21_audit numerically audits the exponential-sum inequalities and
logarithmic lattice-sum limits used by the asymptotic analysis:
proven bounds are asserted (a violation is an implementation bug);
limits are reported as finite-size ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import JumpKernel, QuadratureError, check_range, quadrature_midpoint_2d
from .spectral import char_fn
from .torus import TorusSpec

TWO_PI = 2.0 * math.pi
RING_LOG2_LIMIT = TWO_PI * math.log(2.0)
DEATH_EXACT_MAX = 30


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
    if lam < 0:
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
# beta0 quadrature


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


@dataclass(frozen=True)
class Beta0Result:
    c: float
    value: float
    levels: tuple[tuple[int, float], ...]  # (points per axis, estimate)


def beta0(c: float, q0: JumpKernel, quad: QuadratureSpec = QuadratureSpec()) -> Beta0Result:
    """Limiting mean constant 12/(c pi) + (2 pi)^-2 int 1/(1 - (1-c) q0_hat).

    The integral runs over the full period square [-pi, pi]^2; the
    denominator is bounded below by c, so the integrand is smooth.
    Raises QuadratureError (carrying the last two estimates) if the
    refinement cap is hit before two levels agree within quad.tol.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"mixture weight must lie in (0, 1], got {c}")

    def integrand(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        q_hat = char_fn(q0, np.stack([t1, t2], axis=-1))
        return 1.0 / (1.0 - (1.0 - c) * q_hat)

    value, _, history = quadrature_midpoint_2d(
        integrand,
        math.pi,
        base=quad.base,
        tol=quad.tol,
        max_axis=quad.max_axis,
        strict=True,
    )
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

    For n <= 30 the passage times are hypoexponential with distinct
    rates, so the distribution is an exact exponential mixture; larger
    n falls back to the matrix exponential of the bidiagonal generator.

    Returns an array p of length n with p[k-1] = P(D_t = k).
    """
    if n < 1:
        raise ValueError(f"need at least one lineage, got {n}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if n == 1:
        return np.ones(1)
    rates = np.array([k * (k - 1) / 2.0 for k in range(2, n + 1)])  # rates[j] = r_{j+2}
    if n > DEATH_EXACT_MAX:
        Q = np.zeros((n, n))
        for k in range(2, n + 1):
            r = k * (k - 1) / 2.0
            Q[k - 1, k - 1] = -r
            Q[k - 1, k - 2] = r
        return scipy.linalg.expm(t * Q)[n - 1]

    def passage_cdf(k: int) -> float:
        # P(sum of Exp(r_j), j = k+1..n, <= t); 1 for k = n
        lams = rates[k - 1 :]  # r_{k+1} ... r_n
        if lams.size == 0:
            return 1.0
        coef = np.ones(lams.size)
        for j in range(lams.size):
            others = np.delete(lams, j)
            coef[j] = np.prod(others / (others - lams[j]))
        return float(1.0 - np.sum(coef * np.exp(-lams * t)))

    p = np.empty(n)
    cdf_prev = passage_cdf(1)  # P(reached 1 by t)
    p[0] = cdf_prev
    for k in range(2, n + 1):
        cdf_k = passage_cdf(k)
        p[k - 1] = cdf_k - cdf_prev
        cdf_prev = cdf_k
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
    half = K // 2 if K % 2 == 0 else (K - 1) // 2
    if K % 2 == 0:
        d = float(_dirichlet(np.array(half), u))
        return complex(d - math.cos(half * u), math.sin(half * u))
    return complex(float(_dirichlet(np.array(half), u)), 0.0)


@dataclass(frozen=True)
class ExponentialSumAudit:
    K: int
    theta: tuple[float, float]
    box_abs: float
    box_bound: float
    disc_abs: float
    disc_bound: float


def exponential_sum_audit(K: int, theta: np.ndarray) -> ExponentialSumAudit:
    """Audit the square and disc exponential-sum bounds at one frequency.

    The square sum runs over the half-open square of side K, bounded by
    4(K+1)(1 + 1/||theta||_inf); the disc sum over |x| <= K/2, bounded
    by 4(K+1)/||theta||_inf.  Both inequalities are proven, so a
    numerical violation raises AuditError.
    """
    th = np.asarray(theta, dtype=np.float64).reshape(2)
    sup = float(np.max(np.abs(th)))
    if sup == 0.0 or sup > math.pi + 1e-12:
        raise ValueError("frequency must be a nonzero point of the closed pi-ball")
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
    if box_abs > box_bound * (1.0 + 1e-12) + slack:
        raise AuditError(f"square-sum bound violated at K={K}, theta={tuple(th)}")
    if disc_abs > disc_bound * (1.0 + 1e-12) + slack:
        raise AuditError(f"disc-sum bound violated at K={K}, theta={tuple(th)}")
    return ExponentialSumAudit(
        K=K,
        theta=(float(th[0]), float(th[1])),
        box_abs=box_abs,
        box_bound=box_bound,
        disc_abs=disc_abs,
        disc_bound=disc_bound,
    )


def _disc_inv_r2_sum(K: float) -> float:
    """Sum of 1/|y|^2 over the punctured disc |y| <= K/2."""
    R = K / 2.0
    half = int(math.floor(R))
    total = 0.0
    chunk = 256
    for lo in range(0, half + 1, chunk):
        x1 = np.arange(lo, min(lo + chunk, half + 1), dtype=np.float64)
        b = np.floor(np.sqrt(np.maximum(R * R - x1**2, 0.0))).astype(np.int64)
        bmax = int(b.max())
        x2 = np.arange(-bmax, bmax + 1, dtype=np.float64)
        grid = x1[:, None] ** 2 + x2[None, :] ** 2
        mask = np.abs(x2[None, :]) <= b[:, None]
        if lo == 0:
            mask[0, bmax] = False  # puncture the origin
        weight = np.where((x1 > 0)[:, None], 2.0, 1.0)  # mirror rows x1 < 0
        vals = np.where(mask & (grid > 0), 1.0 / np.where(grid > 0, grid, 1.0), 0.0)
        total += float((weight * vals).sum())
    return total


def _torus_inv_r2_sum(K: int) -> float:
    """Sum of 1/|y|^2 over the punctured half-open square of side K."""
    lo = int(math.floor(-K / 2.0)) + 1
    hi = int(math.floor(K / 2.0))
    ax = np.arange(lo, hi + 1, dtype=np.float64)
    total = 0.0
    chunk = 256
    for start in range(0, ax.size, chunk):
        x1 = ax[start : start + chunk]
        grid = x1[:, None] ** 2 + ax[None, :] ** 2
        vals = np.where(grid > 0, 1.0 / np.where(grid > 0, grid, 1.0), 0.0)
        total += float(vals.sum())
    return total


def _ring_weighted_sum(K: int, J: int, theta: np.ndarray) -> complex:
    """sum over J/2 < |y| <= K/2 of e^{i theta . y} / |y|^2."""
    th = np.asarray(theta, dtype=np.float64).reshape(2)
    RK, RJ = K / 2.0, J / 2.0
    half = int(math.floor(RK))
    total = 0.0 + 0.0j
    chunk = 256
    for lo in range(-half, half + 1, chunk):
        x1 = np.arange(lo, min(lo + chunk, half + 1), dtype=np.float64)
        x2 = np.arange(-half, half + 1, dtype=np.float64)
        r2 = x1[:, None] ** 2 + x2[None, :] ** 2
        mask = (r2 <= RK * RK) & (r2 > RJ * RJ)
        w = np.where(mask, 1.0 / np.where(r2 > 0, r2, 1.0), 0.0)
        phase = th[0] * x1[:, None] + th[1] * x2[None, :]
        total += complex(float((w * np.cos(phase)).sum()), float((w * np.sin(phase)).sum()))
    return total


@dataclass(frozen=True)
class RingRow:
    theta: tuple[float, float]
    ring_abs: float
    implied_constant: float  # ring_abs * min(1, J * ||theta||_inf)


@dataclass(frozen=True)
class Lemma21Audit:
    """Numeric audit of the exponential-sum bounds and log-sum limits.

    exp_rows carry the proven square/disc bounds (asserted); ring_rows
    report |sum e^{i theta y}/|y|^2| over the ring J/2 < |y| <= K/2
    together with the constant it implies against 1/(1 ^ J||theta||_inf)
    (no proven numeric constant to assert).  The scalars are the
    finite-size ratios whose limits are 2 pi (log-weighted inverse-square
    sums over the square and the disc) and 2 pi log 2 (the dyadic ring).
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
    K > J >= 1.  Proven inequalities are asserted; ratios reported.
    """
    if not K > J >= 1:
        raise ValueError(f"need K > J >= 1, got K={K}, J={J}")
    thetas = np.asarray(thetas, dtype=np.float64).reshape(-1, 2)
    exp_rows = tuple(exponential_sum_audit(K, th) for th in thetas)
    ring_rows = []
    for th in thetas:
        val = abs(_ring_weighted_sum(K, J, th))
        sup = float(np.max(np.abs(th)))
        ring_rows.append(
            RingRow(
                theta=(float(th[0]), float(th[1])),
                ring_abs=val,
                implied_constant=val * min(1.0, J * sup),
            )
        )
    log_k = math.log(K)
    disc_k = _disc_inv_r2_sum(K)
    return Lemma21Audit(
        K=K,
        J=J,
        exp_rows=exp_rows,
        ring_rows=tuple(ring_rows),
        torus_log_ratio=_torus_inv_r2_sum(K) / log_k,
        disc_log_ratio=disc_k / log_k,
        ring_dyadic_sum=_disc_inv_r2_sum(2 * K) - disc_k,
    )
