"""Limit targets, the beta0 constant, the death chain, and lattice-sum audits."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruswalk.kernels import uniform_kernel
from toruswalk.limits import (
    RING_LOG2_LIMIT,
    AuditError,
    Beta0Result,
    QuadratureError,
    QuadratureSpec,
    RegimeParams,
    alpha_prime,
    beta,
    beta0,
    death_process_dist,
    exponential_sum_audit,
    lemma21_audit,
    _beta0_integrand,
    _level_sum,
    _quadrant_sum,
    quadrature_midpoint_2d,
    t_scale,
    target_laplace,
    target_mean,
)
from toruswalk.spectral import TILE_ENTRIES


def test_t_scale_frozen_value():
    assert t_scale(8, 2) == pytest.approx(0.5198603854199589, rel=1e-15)
    assert t_scale(8, 2) == math.log(8) / 4


def test_t_scale_validation():
    for bad in ((7, 2), (8, 3), (0, 2), (8, 0)):
        with pytest.raises(ValueError):
            t_scale(*bad)


def test_regime_params_validation():
    RegimeParams(rho=math.inf, sigma2=1 / 12, alpha=1.0)
    RegimeParams(rho=0.0, sigma2=0.1875, alpha=0.0)
    with pytest.raises(ValueError):
        RegimeParams(rho=-1.0, sigma2=1.0)
    with pytest.raises(ValueError):
        RegimeParams(rho=1.0, sigma2=0.0)
    with pytest.raises(ValueError):
        RegimeParams(rho=1.0, sigma2=1.0, alpha=1.5)


def test_beta_and_alpha_prime_formulas():
    p = RegimeParams(rho=2.0, sigma2=1 / 12, alpha=0.5)
    assert beta(p) == pytest.approx(2.0 + 12 / math.pi, rel=1e-15)
    r = 2.0 * math.pi / 12
    assert alpha_prime(p) == pytest.approx((0.5 + r) / (1 + r), rel=1e-15)
    inf_p = RegimeParams(rho=math.inf, sigma2=1 / 12)
    with pytest.raises(ValueError):
        beta(inf_p)
    with pytest.raises(ValueError):
        alpha_prime(inf_p)


def test_target_laplace_cases():
    # infinite rho: meanfield transform, independent of alpha and sigma2
    p_inf = RegimeParams(rho=math.inf, sigma2=0.3, alpha=0.2)
    assert target_laplace(p_inf, 3.0) == pytest.approx(0.25, rel=1e-15)
    assert target_mean(p_inf) == 1.0
    # rho = 0, alpha = 1: pure exponential part with beta = 1/(pi sigma2)
    p0 = RegimeParams(rho=0.0, sigma2=1 / 12, alpha=1.0)
    b = 12 / math.pi
    assert target_laplace(p0, 2.0) == pytest.approx(1 / (1 + 2 * b), rel=1e-14)
    assert target_mean(p0) == pytest.approx(b, rel=1e-14)
    # rho = 0, general alpha: an atom of weight 1 - alpha at zero
    pa = RegimeParams(rho=0.0, sigma2=0.1875, alpha=0.5)
    bb = 1 / (math.pi * 0.1875)
    assert target_laplace(pa, 1.0) == pytest.approx(0.5 + 0.5 / (1 + bb), rel=1e-14)
    assert target_laplace(pa, 0.0) == 1.0
    with pytest.raises(ValueError):
        target_laplace(pa, -0.1)


@given(
    rho=st.floats(min_value=0.0, max_value=50.0),
    sigma2=st.floats(min_value=1e-3, max_value=10.0),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=100.0),
)
def test_target_laplace_is_a_laplace_transform_value(rho, sigma2, alpha, lam):
    p = RegimeParams(rho=rho, sigma2=sigma2, alpha=alpha)
    v = target_laplace(p, lam)
    assert 0.0 < v <= 1.0
    assert target_laplace(p, 0.0) == pytest.approx(1.0, abs=1e-12)
    # decreasing in lam
    assert target_laplace(p, lam + 1.0) <= v + 1e-12


def test_beta0_at_c_one_is_exact():
    res = beta0(1.0, uniform_kernel(2))
    assert res.value == pytest.approx(12 / math.pi + 1.0, abs=1e-12)
    assert res.c == 1.0
    assert res.levels[-1][1] == res.value


def test_beta0_midrange_against_fine_reference():
    q0 = uniform_kernel(2)
    quick = beta0(0.5, q0, QuadratureSpec(base=64, max_axis=4096, tol=1e-6))
    fine = beta0(0.5, q0, QuadratureSpec(base=1024, max_axis=8192, tol=1e-9))
    assert quick.value == pytest.approx(fine.value, abs=1e-6)
    # levels are recorded in refinement order
    ns = [n for n, _ in quick.levels]
    assert ns == sorted(ns) and ns[0] == 64


def test_beta0_strict_cap_raises():
    with pytest.raises(QuadratureError) as exc:
        beta0(0.01, uniform_kernel(2), QuadratureSpec(base=2, max_axis=4, tol=1e-12))
    assert np.isfinite(exc.value.last)


def test_beta0_level_holds_one_strip(traced_peak):
    def one_level(n):
        with pytest.raises(QuadratureError):  # one level, then the cap
            beta0(0.003, uniform_kernel(4), QuadratureSpec(base=n, max_axis=n))

    # the integrand is formed one strip of TILE_ENTRIES values at a time,
    # besides per-axis vectors of a few floats per point: 0.57 MB at
    # n = 1024 and 0.70 MB at n = 4096, against 8.4 MB and 134 MB for
    # the whole grid
    for n in (1024, 4096):
        assert traced_peak(lambda: one_level(n)) <= 2 * 8 * TILE_ENTRIES + 64 * n


@pytest.mark.parametrize("n", [64, 1024, 4096])
@pytest.mark.parametrize("c", [0.01, 0.003])
def test_beta0_level_sum_is_the_whole_grid_sum(n, c):
    # the strip sums, combined by pairwise halving, are numpy's pairwise
    # sum of the whole level, bit for bit
    integrand = _beta0_integrand(c, uniform_kernel(4))
    h = 2.0 * math.pi / n
    mids = -math.pi + h * (np.arange(n) + 0.5)
    whole = float(np.sum(integrand(mids[:, None], mids[None, :])))
    assert _level_sum(integrand, mids) == whole


def test_quadrature_level_in_strips_is_the_one_grid_sum():
    n = 2048
    seen = []

    def func(a, b):
        seen.append((a.shape, b))
        return np.cos(a) * np.exp(b)

    with pytest.raises(QuadratureError) as exc:  # one level, then the cap
        quadrature_midpoint_2d(func, 1.0, QuadratureSpec(base=n, max_axis=n))
    # 64 strips of 32 rows, each with the level's one second axis
    assert [shape for shape, _ in seen] == [(32, 1)] * 64
    assert all(b is seen[0][1] for _, b in seen) and seen[0][1].shape == (1, n)
    h = 2.0 / n
    mids = -1.0 + h * (np.arange(n) + 0.5)
    assert exc.value.last == float(np.sum(func(mids[:, None], mids[None, :]))) * h * h


def test_beta0_rejects_bad_weight():
    for c in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            beta0(c, uniform_kernel(2))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(base=3)
    with pytest.raises(ValueError):
        QuadratureSpec(base=64, max_axis=32)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)


def test_death_dist_two_lineages_closed_form():
    for t in (0.0, 0.4, 2.0):
        p = death_process_dist(2, t)
        assert p[0] == pytest.approx(1 - math.exp(-t), rel=1e-14, abs=1e-14)
        assert p[1] == pytest.approx(math.exp(-t), rel=1e-14)


def test_death_dist_time_zero_is_point_mass():
    p = death_process_dist(7, 0.0)
    assert p[6] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(p[:6])) < 1e-12


def test_death_dist_single_lineage():
    assert death_process_dist(1, 5.0).tolist() == [1.0]


def _death_dist_reference(n: int, t: float) -> np.ndarray:
    # the pure-death law in closed form (Tavare 1984): with the distinct
    # rates r_k = C(k, 2), P(D_t = j) is the sum over i = j..n of
    # e^{-r_i t} prod_{k=j+1..n} r_k / prod_{m=j..n, m != i} (r_m - r_i).
    # The coefficients are exact rationals, formed in O(n^2) products.
    # Their terms cancel down to a law in [0, 1], so the sum carries 60
    # digits beyond the largest coefficient's size.
    r = [k * (k - 1) // 2 for k in range(n + 1)]
    coef, den, num = {}, {}, 1  # den[i] = prod_{m=j..n, m != i} (r_m - r_i)
    for j in range(n, 0, -1):
        for i in den:
            den[i] *= r[j] - r[i]
        den[j] = math.prod(r[m] - r[j] for m in range(j + 1, n + 1))
        coef[j] = [(i, Fraction(num, d)) for i, d in den.items()]
        num *= r[j]
    big = max(abs(c) for row in coef.values() for _, c in row)
    with mpmath.workdps(60 + max(0, math.ceil(math.log10(big)))):
        decay = [mpmath.exp(-r[i] * mpmath.mpf(t)) for i in range(n + 1)]
        return np.array(
            [
                float(mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * decay[i] for i, c in coef[j]))
                for j in range(1, n + 1)
            ]
        )


def test_death_dist_reference_matches_a_60_digit_expm():
    # the closed form against the last row of expm(t Q) in 60 digits
    n, t = 6, 0.7
    with mpmath.workdps(60):
        Q = mpmath.zeros(n, n)
        for k in range(2, n + 1):
            r = mpmath.mpf(k * (k - 1)) / 2
            Q[k - 1, k - 1] = -r
            Q[k - 1, k - 2] = r
        row = [float(v) for v in mpmath.expm(mpmath.mpf(t) * Q)[n - 1, :]]
    assert _death_dist_reference(n, t).tolist() == row


def test_death_dist_matches_matrix_exponential():
    for n, t in ((4, 0.7), (9, 0.15), (30, 0.02), (30, 1e-3)):
        ref = _death_dist_reference(n, t)
        assert np.max(np.abs(death_process_dist(n, t) - ref)) < 1e-14


def test_death_dist_is_within_four_ulp_of_the_reference():
    # scaling and squaring with its rows renormalized: every entry within
    # 4 ulp of 1 of the 60-digit law, from s = 0 squarings to s = 19
    for n, t in ((40, 50.0), (40, 1e-6), (8, 1.6), (20, 5.0), (2, 1e-8)):
        ref = _death_dist_reference(n, t)
        assert np.max(np.abs(death_process_dist(n, t) - ref)) <= 4 * np.finfo(float).eps


def test_death_dist_refuses_past_the_conditioning_limit():
    # P(D_t = n) = exp(-C(n,2) t) has relative condition number C(n,2) t
    # in t; the law is formed up to 2^52 and refused just past it
    for n, t in ((2, 2.0**52), (40, 2.0**52 / 780)):
        p = death_process_dist(n, t)
        assert np.all(np.isfinite(p)) and p.sum() == pytest.approx(1.0, abs=1e-12)
    for n, t in ((2, math.nextafter(2.0**52, math.inf)), (40, 2.0**52 / 780 * (1 + 2.0**-40))):
        with pytest.raises(ArithmeticError, match=rf"^the pure-death law from n={n} at t="):
            death_process_dist(n, t)


def test_death_dist_large_n_path():
    p = death_process_dist(35, 0.05)
    assert p.shape == (35,)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(p > -1e-12)


@given(
    n=st.integers(min_value=1, max_value=40),
    t=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_death_dist_is_a_distribution(n, t):
    p = death_process_dist(n, t)
    assert p.shape == (n,)
    assert np.all(p > -1e-14)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_death_dist_count_decreases_stochastically_in_time():
    # P(D_t <= k) grows with t for every k
    n = 6
    cdf_early = np.cumsum(death_process_dist(n, 0.3))
    cdf_late = np.cumsum(death_process_dist(n, 1.1))
    assert np.all(cdf_late >= cdf_early - 1e-12)


def test_death_dist_validation():
    # every refusal comes before any floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            death_process_dist(0, 1.0)
        for t in (-0.1, math.nan):
            with pytest.raises(ValueError):
                death_process_dist(3, t)
        # the law is refused long before t overflows: C(n,2) t > 2^52
        with pytest.raises(ArithmeticError, match=r"n=3 at t=1e\+300"):
            death_process_dist(3, 1e300)
        with pytest.raises(ArithmeticError, match="n=2 at t=inf"):
            death_process_dist(2, math.inf)


def _brute_square_sum(K: int, theta) -> complex:
    lo, hi = -(K // 2) + 1, K // 2
    total = 0.0 + 0.0j
    for x1 in range(lo, hi + 1):
        for x2 in range(lo, hi + 1):
            total += complex(
                math.cos(theta[0] * x1 + theta[1] * x2),
                math.sin(theta[0] * x1 + theta[1] * x2),
            )
    return total


def _brute_disc_sum(K: int, theta) -> complex:
    half = K // 2
    total = 0.0 + 0.0j
    for x1 in range(-half, half + 1):
        for x2 in range(-half, half + 1):
            if x1 * x1 + x2 * x2 <= (K / 2.0) ** 2:
                total += complex(
                    math.cos(theta[0] * x1 + theta[1] * x2),
                    math.sin(theta[0] * x1 + theta[1] * x2),
                )
    return total


def test_exponential_sums_match_brute_force():
    rng = np.random.default_rng(3)
    for K in (2, 8, 10, 64):
        for _ in range(4):
            th = rng.uniform(-math.pi, math.pi, size=2)
            if max(abs(th[0]), abs(th[1])) < 1e-3:
                th = np.array([1.0, -0.5])
            audit = exponential_sum_audit(K, th)
            assert audit.box_abs == pytest.approx(
                abs(_brute_square_sum(K, th)), rel=1e-8, abs=1e-8
            )
            assert audit.disc_abs == pytest.approx(
                abs(_brute_disc_sum(K, th)), rel=1e-8, abs=1e-8
            )


def test_exponential_sum_bounds_hold_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(100):
        K = 2 * int(rng.integers(1, 200))
        th = rng.uniform(-math.pi, math.pi, size=2)
        if max(abs(th[0]), abs(th[1])) == 0.0:
            continue
        audit = exponential_sum_audit(K, th)
        assert audit.box_abs <= audit.box_bound * (1 + 1e-12) + 1e-9
        assert audit.disc_abs <= audit.disc_bound * (1 + 1e-12) + 1e-9


def test_exponential_sum_audit_validation():
    with pytest.raises(ValueError):
        exponential_sum_audit(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        exponential_sum_audit(8, np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        exponential_sum_audit(8, np.array([4.0, 0.0]))


def _brute_ring_sum(K: int, J: int, theta) -> complex:
    half = K // 2
    total = 0.0 + 0.0j
    for x1 in range(-half, half + 1):
        for x2 in range(-half, half + 1):
            r2 = x1 * x1 + x2 * x2
            if (J / 2.0) ** 2 < r2 <= (K / 2.0) ** 2:
                ph = theta[0] * x1 + theta[1] * x2
                total += complex(math.cos(ph) / r2, math.sin(ph) / r2)
    return total


@pytest.mark.parametrize("K, J", [(16, 4), (17, 4), (15, 2), (2, 1)])
def test_lemma21_audit_small_sizes_brute_force(K, J):
    thetas = np.array([[1.0, 0.3], [-2.0, 2.5]])
    audit = lemma21_audit(K, J, thetas)
    assert audit.K == K and audit.J == J
    assert len(audit.exp_rows) == 2 and len(audit.ring_rows) == 2
    for row, th in zip(audit.ring_rows, thetas):
        assert row.ring_abs == pytest.approx(
            abs(_brute_ring_sum(K, J, th)), rel=1e-10, abs=1e-10
        )
        sup = max(abs(th[0]), abs(th[1]))
        assert row.implied_constant == pytest.approx(
            row.ring_abs * min(1.0, J * sup), rel=1e-12
        )
    # brute-force the inverse-square scalars
    def brute_torus(K):
        # the half-open square (-K/2, K/2]^2
        axis = range(math.floor(-K / 2) + 1, K // 2 + 1)
        tot = 0.0
        for x1 in axis:
            for x2 in axis:
                if x1 or x2:
                    tot += 1.0 / (x1 * x1 + x2 * x2)
        return tot

    def brute_disc(K):
        tot = 0.0
        half = K // 2
        for x1 in range(-half, half + 1):
            for x2 in range(-half, half + 1):
                r2 = x1 * x1 + x2 * x2
                if 0 < r2 <= (K / 2.0) ** 2:
                    tot += 1.0 / r2
        return tot

    assert audit.torus_log_ratio == pytest.approx(
        brute_torus(K) / math.log(K), rel=1e-10
    )
    assert audit.disc_log_ratio == pytest.approx(
        brute_disc(K) / math.log(K), rel=1e-10
    )
    assert audit.ring_dyadic_sum == pytest.approx(
        brute_disc(2 * K) - brute_disc(K), rel=1e-10
    )


def test_lemma21_log_ratios_approach_their_limits():
    audit = lemma21_audit(2000, 10, np.array([[1.0, 1.0]]))
    assert abs(audit.torus_log_ratio - 2 * math.pi) < 0.2
    assert abs(audit.disc_log_ratio - 2 * math.pi) < 0.3
    assert abs(audit.ring_dyadic_sum - RING_LOG2_LIMIT) < 0.02


def test_lemma21_audit_validation():
    with pytest.raises(ValueError):
        lemma21_audit(4, 4, np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        lemma21_audit(4, 8, np.array([[1.0, 0.0]]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: target_laplace(RegimeParams(rho=0.0, sigma2=0.1875, alpha=0.5), math.nan),
        lambda: exponential_sum_audit(64, np.array([math.nan, 0.5])),
        lambda: lemma21_audit(64, 4, np.array([[1.0, 0.5], [math.nan, 0.5]])),
    ],
    ids=["target_laplace", "exponential_sum_audit", "lemma21_audit"],
)
def test_nan_argument_is_refused(call):
    # a nan theta would give nan bounds, against which no assert fires
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "bad", [[0.0, 0.0], [1.0, -4.0], [math.nan, 0.5]], ids=["zero", "outside-pi-ball", "nan"]
)
def test_lemma21_audit_checks_every_theta_before_its_first_sum(monkeypatch, bad):
    def forbidden(*args, **kwargs):
        raise AssertionError("a lattice sum ran before every theta was checked")

    monkeypatch.setattr("toruswalk.limits._axis_torus_sum", forbidden)
    monkeypatch.setattr("toruswalk.limits._quadrant_sum", forbidden)
    with pytest.raises(ValueError, match="frequency must be a nonzero point of the closed pi-ball"):
        lemma21_audit(4096, 16, np.array([[0.5, 0.5], [1.0, 2.0], bad]))


def test_quadrant_sum_strips_match_one_dense_sum():
    # n = 300 runs in two strips; the dense sum forms every weight at once
    n, inner, outer = 300, 40.0, 290.5
    thetas = np.array([[0.0, 0.0], [0.7, -1.9], [3.0, 0.2]])
    y = np.arange(-n, n + 1, dtype=np.float64)
    r2 = y[:, None] ** 2 + y[None, :] ** 2
    w = np.where((r2 > inner**2) & (r2 <= outer**2), 1.0 / np.maximum(r2, 1.0), 0.0)
    dense = [float(np.cos(th[0] * y) @ w @ np.cos(th[1] * y)) for th in thetas]
    assert TILE_ENTRIES // (n + 1) < n + 1
    np.testing.assert_allclose(_quadrant_sum(n, inner, outer, 2, thetas), dense, rtol=1e-12)


def test_quadrant_sum_working_set_is_one_strip(traced_peak):
    peak = traced_peak(lambda: _quadrant_sum(4096, 2048.0, 4096.0, 2, np.zeros((1, 2))))
    # one strip of TILE_ENTRIES weights, its two masks and the O(n) axes:
    # 0.85 MB
    assert peak <= 2 * 8 * TILE_ENTRIES
