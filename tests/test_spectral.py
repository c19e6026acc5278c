"""Fourier-side engine vs the dense reference, plus its own invariants."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from toruswalk.kernels import meanfield_kernel, mixture_kernel, uniform_kernel
from toruswalk.oracle import dense_chain, dense_green, dense_heat, dense_laplace_hit
from toruswalk.spectral import (
    build_grid,
    char_fn,
    condition_report,
    green,
    heat,
    laplace_hit,
    orthogonality_gap,
    uniformity_gap,
)
from toruswalk.torus import TorusSpec, index_of

ORIGIN8 = int(index_of(np.zeros(2, dtype=np.int64), TorusSpec(8)))


def test_char_fn_uniform_m2_closed_form():
    k = uniform_kernel(2)
    # at (pi, pi) the eight support points split evenly between cos = +1 and -1
    assert char_fn(k, np.array([math.pi, math.pi])) == pytest.approx(0.0, abs=1e-12)
    assert char_fn(k, np.zeros(2)) == pytest.approx(1.0, abs=1e-15)
    # closed form: phi = (2(c1 + c2) + 4 c1 c2) / 8 with ci = cos(theta_i)
    theta = np.array([0.7, -1.3])
    c1, c2 = np.cos(theta)
    expected = (2 * (c1 + c2) + 4 * c1 * c2) / 8
    assert char_fn(k, theta) == pytest.approx(expected, rel=1e-12)


def test_char_fn_shapes_and_checked():
    k = uniform_kernel(4)
    thetas = np.array([[0.1, 0.2], [1.0, -1.0], [0.0, 0.0]])
    vals = char_fn(k, thetas, checked=True)
    assert vals.shape == (3,)
    assert np.isscalar(char_fn(k, np.array([0.3, 0.4]))) or np.ndim(
        char_fn(k, np.array([0.3, 0.4]))
    ) == 0


@pytest.mark.parametrize("checked", [False, True])
def test_char_fn_matches_full_cosine_rows_bit_for_bit(checked):
    # char_fn reuses the cosines of the first half of the support for the
    # mirrored second half; the values must be those of the full rows,
    # chunk by chunk, across a chunk boundary
    k = mixture_kernel(0.3, 64, uniform_kernel(2))
    chunk = 2**22 // k.n_support
    rng = np.random.default_rng(2)
    th = np.concatenate([rng.uniform(-math.pi, math.pi, (chunk + 50, 2)), rng.uniform(-1e-3, 1e-3, (50, 2))])
    pts = k.points.astype(np.float64)
    ref = np.concatenate([np.cos(th[i : i + chunk] @ pts.T) @ k.masses for i in range(0, th.shape[0], chunk)])
    assert np.array_equal(char_fn(k, th, checked=checked), ref)


def test_grid_fft_matches_direct():
    spec = TorusSpec(8)
    for kernel in (
        uniform_kernel(2),
        mixture_kernel(0.5, 4, uniform_kernel(2)),
        meanfield_kernel(8),
    ):
        fast = build_grid(kernel, spec, method="fft")
        slow = build_grid(kernel, spec, method="direct")
        assert np.max(np.abs(fast.half - slow.half)) < 1e-12


def test_grid_origin_pinned_and_bounded():
    grid = build_grid(uniform_kernel(4), TorusSpec(16))
    assert grid.half[0, 0] == 1.0
    assert np.max(np.abs(grid.half)) <= 1.0 + 1e-12


def test_grid_rejects_oversized_kernel():
    with pytest.raises(ValueError):
        build_grid(uniform_kernel(10), TorusSpec(8))


def test_grid_range_equal_side_is_wrapped_exactly():
    # M = L: colliding pre-images summed; cross-check against direct sums
    spec = TorusSpec(8)
    k = uniform_kernel(8)
    fast = build_grid(k, spec, method="fft")
    slow = build_grid(k, spec, method="direct")
    assert np.max(np.abs(fast.half - slow.half)) < 1e-12


def test_grid_rejects_malformed_half_plane():
    grid = build_grid(uniform_kernel(2), TorusSpec(8))
    dataclasses.replace(grid)
    with pytest.raises(ValueError):
        dataclasses.replace(grid, half=np.ones((8, 8)))
    for column in (0, 4):
        half = grid.half.copy()
        half[1, column] += 1e-6  # frequency (1, k2) no longer matches (-1, k2)
        with pytest.raises(ValueError):
            dataclasses.replace(grid, half=half)


def test_green_rejects_asymmetric_field():
    g = green(build_grid(uniform_kernel(2), TorusSpec(8)), 0.5)
    dataclasses.replace(g)
    # an interior point, points on the row and the column of coordinate
    # L/2, and points on the row and the column of coordinate 0
    for point in ([1, 2], [4, 1], [1, 4], [0, 2], [2, 0]):
        values = g.values.copy()
        values[int(index_of(np.array(point), TorusSpec(8)))] *= 1.0 + 1e-6
        with pytest.raises(ArithmeticError):
            dataclasses.replace(g, values=values)


def test_heat_point_mass_at_time_zero():
    grid = build_grid(uniform_kernel(2), TorusSpec(8))
    h = heat(grid, 0.0)
    assert h.raw[ORIGIN8] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.delete(h.raw, ORIGIN8))) < 1e-12


def test_heat_matches_dense_exponential():
    spec = TorusSpec(8)
    k = uniform_kernel(2)
    grid = build_grid(k, spec)
    chain = dense_chain(k, spec)
    for t in (0.3, 1.7, 6.0):
        assert np.max(np.abs(heat(grid, t).raw - dense_heat(chain, t))) < 1e-10


def test_heat_rejects_negative_time():
    grid = build_grid(uniform_kernel(2), TorusSpec(8))
    with pytest.raises(ValueError):
        heat(grid, -0.1)


def test_heat_probs_sum_to_one():
    grid = build_grid(mixture_kernel(0.7, 4, uniform_kernel(2)), TorusSpec(16))
    for t in (0.5, 4.0, 50.0):
        assert heat(grid, t).probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_green_matches_dense_solve():
    spec = TorusSpec(8)
    k = mixture_kernel(0.5, 4, uniform_kernel(2))
    grid = build_grid(k, spec)
    chain = dense_chain(k, spec)
    for lam in (0.1, 1.0, 10.0):
        assert np.max(np.abs(green(grid, lam).values - dense_green(chain, lam))) < 1e-10


def test_green_rejects_nonpositive_lam():
    grid = build_grid(uniform_kernel(2), TorusSpec(8))
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError):
            green(grid, lam)


def test_green_total_mass_identity():
    # rows of the generator sum to zero, so sum_x G(x, lam) = 1 / lam
    grid = build_grid(uniform_kernel(4), TorusSpec(16))
    for lam in (0.25, 2.0):
        assert green(grid, lam).values.sum() == pytest.approx(1 / lam, rel=1e-12)


def test_green_large_lam_is_local():
    # lam * G(0, lam) -> 1: the clock almost surely rings before the first jump
    grid = build_grid(uniform_kernel(2), TorusSpec(8))
    g = green(grid, 1e3)
    assert 1e3 * g.values[ORIGIN8] == pytest.approx(1.0, abs=5e-3)


def test_laplace_matches_dense_solve():
    spec = TorusSpec(8)
    k = uniform_kernel(2)
    grid = build_grid(k, spec)
    chain = dense_chain(k, spec)
    for lam in (0.1, 1.0, 10.0):
        assert (
            np.max(np.abs(laplace_hit(grid, lam).values - dense_laplace_hit(chain, lam)))
            < 1e-10
        )


def test_laplace_is_one_at_origin_and_inside_unit_interval():
    grid = build_grid(uniform_kernel(4), TorusSpec(32))
    F = laplace_hit(grid, 0.8)
    assert F.values[int(index_of(np.zeros(2, dtype=np.int64), TorusSpec(32)))] == 1.0
    assert F.values.min() > 0.0 and F.values.max() <= 1.0


def test_laplace_decreasing_in_lam():
    grid = build_grid(uniform_kernel(2), TorusSpec(8))
    lo = laplace_hit(grid, 0.5).values
    hi = laplace_hit(grid, 2.0).values
    off = np.delete(np.arange(64), ORIGIN8)
    assert np.all(hi[off] < lo[off])


def test_meanfield_laplace_closed_form():
    # uniform jumps over the punctured torus: the origin is hit on each
    # jump with probability 1/(L^2-1), giving a geometric sum of
    # exponentials and the exact transform 1 / (1 + lam (L^2 - 1))
    for L in (4, 8):
        spec = TorusSpec(L)
        grid = build_grid(meanfield_kernel(L), spec)
        for lam in (0.05, 0.3, 2.0):
            F = laplace_hit(grid, lam).values
            expected = 1.0 / (1.0 + lam * (L * L - 1))
            off = np.delete(np.arange(L * L), int(index_of(np.zeros(2, dtype=np.int64), spec)))
            assert np.max(np.abs(F[off] - expected)) < 1e-12


def test_uniformity_gap_at_zero_and_decay():
    spec = TorusSpec(16)
    grid = build_grid(uniform_kernel(4), spec)
    gap0, bound0 = uniformity_gap(grid, 0.0)
    assert gap0 == pytest.approx(spec.n_points - 1, rel=1e-9)
    assert bound0 == pytest.approx(spec.n_points - 1, rel=1e-12)
    gaps = [uniformity_gap(grid, t) for t in (2.0, 8.0, 160.0)]
    for (g, b) in gaps:
        assert g <= b * (1 + 1e-9) + 1e-12
    assert gaps[0][0] > gaps[1][0] > gaps[2][0]
    assert gaps[2][0] < 1e-6


def test_orthogonality_gap_is_numerically_zero():
    spec = TorusSpec(16)
    pts = np.array([[1, 0], [3, 5], [8, 8], [-7, 2]])
    gaps = orthogonality_gap(spec, pts)
    assert np.all(gaps < 1e-9 * spec.n_points)


def test_orthogonality_gap_rejects_origin():
    spec = TorusSpec(16)
    with pytest.raises(ValueError):
        orthogonality_gap(spec, np.array([[0, 0]]))
    with pytest.raises(ValueError):
        orthogonality_gap(spec, np.array([[16, 0]]))  # wraps to the origin


def test_condition_report_trends_over_uniform_ladder():
    ladder = [uniform_kernel(M) for M in (2, 8, 32)]
    rep = condition_report(ladder, delta=0.5, delta_prime=1.0, a=1.0, eps=0.05)
    assert [r.M for r in rep.rows] == [2, 8, 32]
    devs = [r.p1_max_dev for r in rep.rows]
    # second-order match improves with range: dev is near (1 + 1/M)^2 - 1
    assert devs[0] > devs[1] > devs[2]
    assert devs[0] == pytest.approx(1.25, abs=0.05)
    assert devs[2] == pytest.approx((33 / 32) ** 2 - 1, abs=0.02)
    for r in rep.rows:
        assert r.p2_min > 0.0
        assert 0.0 <= r.p3_max_abs < 1.0
    # far-field mass flattens out as the range grows
    assert rep.rows[0].p3_max_abs > rep.rows[2].p3_max_abs


def test_condition_report_rejects_bad_probe_params():
    k = [uniform_kernel(2)]
    with pytest.raises(ValueError):
        condition_report(k, delta=0.5, delta_prime=1.0, a=4.0, eps=0.05)
    with pytest.raises(ValueError):
        condition_report(k, delta=-1.0, delta_prime=1.0, a=1.0, eps=0.05)
    with pytest.raises(ValueError):
        condition_report([uniform_kernel(2)], delta=3.0, delta_prime=1.0, a=1.0, eps=0.05)
