"""Jump kernel construction and sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruswalk.config import KernelPlan
from toruswalk.kernels import (
    JumpKernel,
    KernelDensity,
    density_kernel,
    meanfield_kernel,
    _jump_index,
    mixture_kernel,
    sample_jump,
    sample_jumps,
    uniform_kernel,
)
from toruswalk.limits import QuadratureError, QuadratureSpec, quadrature_midpoint_2d

EVEN_M = st.integers(min_value=1, max_value=12).map(lambda k: 2 * k)


def _check_kernel_invariants(kernel: JumpKernel):
    assert kernel.masses.min() > 0
    assert kernel.masses.sum() == pytest.approx(1.0, abs=1e-12)
    # no mass at the origin, support inside the box of side M
    assert not np.any(np.all(kernel.points == 0, axis=1))
    assert np.max(np.abs(kernel.points)) <= kernel.M // 2
    # symmetric under negation, with equal mass
    table = {tuple(p): m for p, m in zip(kernel.points, kernel.masses)}
    for p, m in table.items():
        assert table[(-p[0], -p[1])] == pytest.approx(m, rel=1e-12)
    # centered, equal coordinate variances
    mean = kernel.masses @ kernel.points
    assert np.allclose(mean, 0.0, atol=1e-12)
    v1 = kernel.masses @ (kernel.points[:, 0].astype(float) ** 2)
    v2 = kernel.masses @ (kernel.points[:, 1].astype(float) ** 2)
    assert v1 == pytest.approx(v2, rel=1e-10)
    assert kernel.sigma2_M == pytest.approx(v1, rel=1e-10)


def test_uniform_m2_exact():
    k = uniform_kernel(2)
    assert k.n_support == 8
    assert np.all(k.masses == pytest.approx(1 / 8))
    assert k.sigma2_M == pytest.approx(0.75)
    assert k.sigma2_limit == pytest.approx(1 / 12)
    _check_kernel_invariants(k)


def test_uniform_sigma2_closed_form():
    for M in (2, 4, 10):
        k = uniform_kernel(M)
        assert k.n_support == (M + 1) ** 2 - 1
        assert k.sigma2_M == pytest.approx((M + 1) ** 2 / 12, rel=1e-12)


@given(M=EVEN_M)
@settings(max_examples=20, deadline=None)
def test_uniform_invariants(M):
    _check_kernel_invariants(uniform_kernel(M))


def test_uniform_rejects_odd():
    with pytest.raises(ValueError):
        uniform_kernel(3)
    with pytest.raises(ValueError):
        uniform_kernel(0)


def test_mass_at_lookup():
    k = uniform_kernel(2)
    assert k.mass_at((1, -1)) == pytest.approx(1 / 8)
    assert k.mass_at((0, 0)) == 0.0
    assert k.mass_at((2, 0)) == 0.0
    assert k.mass_at((-5, 1)) == 0.0


def test_density_constant_matches_uniform():
    dens = KernelDensity(lambda a, b: np.ones_like(a), label="flat")
    k = density_kernel(4, dens)
    u = uniform_kernel(4)
    assert k.points.shape == u.points.shape
    assert np.allclose(np.sort(k.masses), np.sort(u.masses), atol=1e-12)
    assert k.sigma2_limit == pytest.approx(1 / 12, rel=1e-12)


def test_density_even_profile_invariants():
    dens = KernelDensity(lambda a, b: 1.0 + a * a * b * b, label="quartic")
    k = density_kernel(6, dens)
    _check_kernel_invariants(k)
    # heavier corners than the flat profile
    table = {tuple(p): m for p, m in zip(k.points, k.masses)}
    assert table[(3, 3)] > table[(3, 0)]


def test_density_rejects_asymmetric_profile():
    with pytest.raises(ValueError):
        KernelDensity(lambda a, b: 1.0 + 0.5 * a, label="tilted")


def test_density_rejects_nonpositive_profile():
    with pytest.raises(ValueError):
        KernelDensity(lambda a, b: a * a + b * b, label="vanishing")


def test_mixture_mass_composition():
    q0 = uniform_kernel(2)
    k = mixture_kernel(0.5, 8, q0)
    _check_kernel_invariants(k)
    table = {tuple(p): m for p, m in zip(k.points, k.masses)}
    u8 = uniform_kernel(8)
    u8_mass = {tuple(p): m for p, m in zip(u8.points, u8.masses)}
    for p, m in table.items():
        expected = 0.5 * u8_mass[p] + 0.5 * q0.mass_at(p)
        assert m == pytest.approx(expected, rel=1e-12)
    assert k.sigma2_limit == pytest.approx(0.5 / 12, rel=1e-12)


def test_mixture_rejects_bad_weight_or_range():
    q0 = uniform_kernel(2)
    for c in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            mixture_kernel(c, 8, q0)
    with pytest.raises(ValueError):
        mixture_kernel(0.5, 2, uniform_kernel(4))


def test_meanfield_wraps_to_uniform():
    k = meanfield_kernel(8)
    assert k.M == 8
    assert k.sigma2_limit is None
    assert k.masses.sum() == pytest.approx(1.0, abs=1e-14)
    # every one of the L^2 - 1 non-origin torus sites carries the same total mass
    wrapped = (k.points + 3) % 8 - 3
    totals: dict[tuple[int, int], float] = {}
    for p, m in zip(wrapped, k.masses):
        key = (int(p[0]), int(p[1]))
        totals[key] = totals.get(key, 0.0) + m
    assert len(totals) == 63
    for m in totals.values():
        assert m == pytest.approx(1 / 63, rel=1e-12)


def test_meanfield_boundary_splitting():
    k = meanfield_kernel(4)
    table = {tuple(p): m for p, m in zip(k.points, k.masses)}
    # an edge site appears at +L/2 and -L/2 with half mass each
    assert table[(2, 1)] == pytest.approx(table[(-2, 1)], rel=1e-12)
    assert table[(2, 1)] == pytest.approx(0.5 / 15, rel=1e-12)
    # corners are split four ways
    assert table[(2, 2)] == pytest.approx(0.25 / 15, rel=1e-12)
    _check_kernel_invariants(k)


def test_quadrature_converges_on_smooth_integrand():
    # integral of cos(x)cos(y) over [-1,1]^2 = 4 sin(1)^2
    val, n_axis, history = quadrature_midpoint_2d(
        lambda a, b: np.cos(a) * np.cos(b), 1.0, QuadratureSpec(base=8, tol=1e-6)
    )
    assert val == pytest.approx(4 * np.sin(1.0) ** 2, abs=1e-6)
    assert n_axis >= 8
    assert [h[0] for h in history] == sorted(h[0] for h in history)
    assert history[-1] == (n_axis, val)


def _rough(a, b):
    r = np.hypot(a, b)
    return 1.0 / np.sqrt(r + 1e-12)


def test_quadrature_strict_raises_and_keeps_estimates():
    with pytest.raises(QuadratureError) as exc:
        quadrature_midpoint_2d(_rough, np.pi, QuadratureSpec(base=8, tol=1e-12, max_axis=16))
    assert np.isfinite(exc.value.last)
    assert np.isfinite(exc.value.previous)
    assert exc.value.last != exc.value.previous


def test_quadrature_cap_holds_when_not_a_doubling_of_base():
    levels = []

    def recording(a, b):
        levels.append(a.shape[0])
        return _rough(a, b)

    with pytest.raises(QuadratureError):
        quadrature_midpoint_2d(recording, np.pi, QuadratureSpec(base=2, tol=1e-12, max_axis=6))
    assert levels == [2, 4]
    assert max(levels) <= 6


def test_sample_jumps_frequencies():
    k = uniform_kernel(2)
    rng = np.random.default_rng(7)
    draws = sample_jumps(k, rng, 200_000)
    assert draws.shape == (200_000, 2)
    # all draws belong to the support
    support = {tuple(p) for p in k.points}
    uniq, counts = np.unique(draws, axis=0, return_counts=True)
    assert {tuple(p) for p in uniq} <= support
    freqs = counts / draws.shape[0]
    # uniform over 8 sites: each frequency near 1/8 within 5 sigma
    se = np.sqrt((1 / 8) * (7 / 8) / draws.shape[0])
    assert np.all(np.abs(freqs - 1 / 8) < 5 * se)


def test_sample_jumps_deterministic_given_rng():
    k = mixture_kernel(0.3, 6, uniform_kernel(2))
    a = sample_jumps(k, np.random.default_rng(11), 1000)
    b = sample_jumps(k, np.random.default_rng(11), 1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("constant", 1 / 12),
        ("quartic", (1 / 12 + 1 / 960) / (1 + 1 / 144)),
        ("gaussian", 1 / 8 - np.exp(-1) / (4 * np.sqrt(np.pi) * math.erf(1))),
    ],
)
def test_registered_density_limits_match_closed_forms(name, expected):
    k = KernelPlan(family="density", density=name, M=8).build(64)
    assert k.sigma2_limit == pytest.approx(expected, rel=1e-12)


def test_density_rejects_unresolved_profile():
    # continuous but with a kink on the axes: Gauss-Legendre orders disagree
    dens = KernelDensity(lambda a, b: 1.0 + np.abs(a) + np.abs(b), label="kinked")
    with pytest.raises(ValueError, match="unresolved"):
        density_kernel(4, dens)


def _nearest_neighbour_box() -> np.ndarray:
    box = np.zeros((3, 3))
    box[[0, 2, 1, 1], [1, 1, 0, 2]] = 0.25
    return box


def test_box_validator_accepts_nearest_neighbour():
    k = JumpKernel(_nearest_neighbour_box(), sigma2_limit=None, label="nn")
    assert k.M == 2
    assert k.n_support == 4
    assert k.sigma2_M == pytest.approx(0.5)
    assert k.mass_at((1, 1)) == 0.0
    _check_kernel_invariants(k)
    draws = sample_jumps(k, np.random.default_rng(3), 10_000)
    steps = {tuple(p) for p in np.unique(draws, axis=0)}
    assert steps == {(-1, 0), (1, 0), (0, -1), (0, 1)}


def _broken_boxes():
    nn = _nearest_neighbour_box()
    asymmetric = nn.copy()
    asymmetric[0, 1], asymmetric[2, 1] = 0.3, 0.2
    origin = nn * 0.9
    origin[1, 1] = 0.1
    negative = nn.copy()
    negative[0, 0] = negative[2, 2] = -0.1
    negative[0, 2] = negative[2, 0] = 0.1
    heavy = nn * 1.01
    # all mass on the x1 axis: symmetric, but the variances differ
    axis = np.zeros((3, 3))
    axis[[0, 2], [1, 1]] = 0.5
    odd = np.full((4, 4), 1 / 16)
    # a mass at x with none at -x, small enough for the MASS_TOL checks
    one_sided = nn.copy()
    one_sided[0, 0] = 1e-14
    # each box breaks one invariant and keeps the others
    return {
        "asymmetric": (asymmetric, r"q\(x\) = q\(-x\)"),
        "origin": (origin, "origin"),
        "negative": (negative, "nonnegative"),
        "sum": (heavy, "sum to one"),
        "variances": (axis, "variances"),
        "odd M": (odd, "even"),
        "one-sided": (one_sided, "mirror-symmetric"),
    }


@pytest.mark.parametrize("case", sorted(_broken_boxes()))
def test_box_validator_rejects(case):
    box, reason = _broken_boxes()[case]
    with pytest.raises(ValueError, match=reason):
        JumpKernel(box, sigma2_limit=None, label=case)


def _sampled_kernels():
    quadratic = KernelDensity(lambda a, b: 1.0 + a * a + b * b, label="quadratic")
    return {
        "uniform": uniform_kernel(8),
        # tiny masses put many CDF steps into one guide bucket
        "mixture": mixture_kernel(0.003, 64, uniform_kernel(2)),
        "density": density_kernel(8, quadratic),
        "meanfield": meanfield_kernel(16),
    }


def _binary_search(kernel: JumpKernel, u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(kernel._cdf, u, side="right"), kernel.n_support - 1)


@pytest.mark.parametrize("name", sorted(_sampled_kernels()))
def test_sample_jumps_matches_binary_search(name):
    k = _sampled_kernels()[name]
    draws = sample_jumps(k, np.random.default_rng(5), 50_000)
    assert np.array_equal(draws, k.points[_binary_search(k, np.random.default_rng(5).random(50_000))])
    # uniforms on, just below and just above every CDF value, and the extremes
    cdf = k._cdf
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [0.0, np.nextafter(1.0, 0.0)]])
    u = u[u < 1.0]
    assert np.array_equal(_jump_index(k, u), _binary_search(k, u))


def test_sample_jump_is_one_draw_of_sample_jumps():
    k = mixture_kernel(0.3, 6, uniform_kernel(2))
    rng = np.random.default_rng(8)
    single = np.array([sample_jump(k, rng) for _ in range(500)])
    assert np.array_equal(single, sample_jumps(k, np.random.default_rng(8), 500))


def test_density_rejects_scalar_profile():
    with pytest.raises(ValueError, match="one value per point"):
        KernelDensity(lambda a, b: 1.0, label="scalar")
