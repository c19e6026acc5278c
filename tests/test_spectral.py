"""Fourier-side engine vs the dense reference, plus its own invariants."""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.fft

from toruswalk.kernels import (
    KernelDensity,
    density_kernel,
    meanfield_kernel,
    mixture_kernel,
    uniform_kernel,
)
from toruswalk.oracle import dense_chain, dense_green, dense_heat, dense_laplace_hit
from toruswalk.spectral import (
    EXP_UNDERFLOW,
    N_ANGLES,
    N_RADII,
    SpectralGrid,
    _dct1,
    _heat_weights,
    _live_columns,
    _psi_dct,
    _psi_probes,
    _supnorm_annulus_probes,
    _tile_rows,
    build_grid,
    char_fn,
    condition_report,
    green,
    heat,
    laplace_hit,
    psi_grid,
    uniformity_gap,
)
from toruswalk.torus import TorusSpec, index_of, point_of

ORIGIN8 = int(index_of(np.zeros(2, dtype=np.int64), TorusSpec(8)))
QUARTIC = KernelDensity(lambda a, b: 1.0 + (a * a + b * b) ** 2, label="quartic")


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


def test_char_fn_shapes():
    k = uniform_kernel(4)
    thetas = np.array([[0.1, 0.2], [1.0, -1.0], [0.0, 0.0]])
    vals = char_fn(k, thetas)
    assert vals.shape == (3,)
    assert np.isscalar(char_fn(k, np.array([0.3, 0.4]))) or np.ndim(
        char_fn(k, np.array([0.3, 0.4]))
    ) == 0


def test_char_fn_matches_full_cosine_rows_bit_for_bit():
    # char_fn reuses the cosines of the first half of the support for the
    # mirrored second half; the values must be those of the full rows,
    # tile by tile in tiles of T probes with the last one zero-padded,
    # across tile boundaries
    k = mixture_kernel(0.3, 64, uniform_kernel(2))
    T = _tile_rows(k.n_support)
    rng = np.random.default_rng(2)
    th = np.concatenate([rng.uniform(-math.pi, math.pi, (3 * T + 5, 2)), rng.uniform(-1e-3, 1e-3, (50, 2))])
    padded = np.zeros((-(-th.shape[0] // T) * T, 2))
    padded[: th.shape[0]] = th
    pts = k.points.astype(np.float64)
    ref = np.concatenate([np.cos(padded[i : i + T] @ pts.T) @ k.masses for i in range(0, padded.shape[0], T)])
    assert np.array_equal(char_fn(k, th), ref[: th.shape[0]])


@pytest.mark.parametrize("family", ["uniform", "mixture"])
def test_char_fn_value_does_not_depend_on_batching(family):
    # every tile has the same BLAS call shapes, so a probe's value is the
    # same alone, in any slice, and at any position of a call
    k = {"uniform": uniform_kernel(128), "mixture": mixture_kernel(0.3, 64, uniform_kernel(2))}[family]
    rng = np.random.default_rng(9)
    th = np.concatenate([rng.uniform(-math.pi, math.pi, (4000, 2)), rng.uniform(-1e-3, 1e-3, (96, 2))])
    full = char_fn(k, th)
    for part in (slice(5, 77), slice(3, 4096), slice(4093, 4096)):
        assert np.array_equal(char_fn(k, th[part]), full[part])
    for i in (0, 7, 8, 2049, 4095):
        assert char_fn(k, th[i]) == full[i]


@pytest.mark.parametrize("shape", [(4,), (3, 3), (0,), (5, 1)])
def test_char_fn_refuses_a_last_axis_other_than_two(shape):
    with pytest.raises(ValueError, match="last axis of length 2"):
        char_fn(uniform_kernel(2), np.zeros(shape))
    assert char_fn(uniform_kernel(2), np.zeros((0, 2))).shape == (0,)


def test_char_fn_working_set_is_one_tile(traced_peak):
    k = uniform_kernel(128)
    rng = np.random.default_rng(0)
    probes = rng.uniform(-math.pi, math.pi, (16384, 2))
    tile_bytes = 8 * _tile_rows(k.n_support) * k.n_support  # cosine rows, 1.06 MB
    peak = traced_peak(lambda: char_fn(k, probes[:4096]))
    # the cosine rows, half as many phases and the float support: 1.9 MB
    assert peak <= 2.5 * tile_bytes
    # four times the probes add only their 8-byte results
    assert traced_peak(lambda: char_fn(k, probes)) - peak <= 8 * (16384 - 4096) + 4096


PSI_KERNELS = {
    "uniform8": uniform_kernel(8),
    "uniform128": uniform_kernel(128),
    "density": density_kernel(8, QUARTIC),
    "mixture": mixture_kernel(0.3, 16, uniform_kernel(2)),
    "meanfield": meanfield_kernel(16),
}


def _psi_40_digits(kernel, theta):
    """psi(theta) = 2 sum_x q(x) sin^2(theta . x / 2) at 40 digits, summed
    over the first half of the support (x and -x carry equal terms)."""
    half = kernel.n_support // 2
    with mpmath.workdps(40):
        t1, t2 = (mpmath.mpf(float(t)) / 2 for t in theta)
        masses = [mpmath.mpf(float(q)) for q in kernel.masses[:half]]
        return 4 * mpmath.fsum(
            q * mpmath.sin(t1 * x1 + t2 * x2) ** 2 for q, (x1, x2) in zip(masses, kernel.points[:half].tolist())
        )


@pytest.mark.parametrize("family", list(PSI_KERNELS))
def test_psi_grid_matches_a_40_digit_sum(family):
    k = PSI_KERNELS[family]
    rng = np.random.default_rng(4)
    angles = np.concatenate([[0.0, 1e-8, -1e-5, 1e-4, 3e-3], rng.uniform(-math.pi, math.pi, 2), [math.pi, -math.pi]])
    u, v = angles, np.roll(angles, -1)
    grid = psi_grid(k, u, v)
    assert grid.shape == (u.size, v.size) and grid[0, -1] == 0.0  # u = v = 0
    # every pair for the small kernels; for uniform(128), whose 16,640
    # points cost about 0.1 s per pair, the pairs (u[i], v[i]) of
    # neighboring angles
    pairs = [(i, i) for i in range(u.size)] if k.M > 16 else [(i, j) for i in range(u.size) for j in range(v.size)]
    worst = 0.0
    for i, j in pairs:
        ref = _psi_40_digits(k, (u[i], v[j]))
        if ref == 0:
            assert grid[i, j] == 0.0
        else:
            worst = max(worst, float(abs(grid[i, j] - ref) / ref))
    # psi_grid's factors sum e = M/2 + 1 terms per axis and its
    # phases t a reach pi M / 2, so its rounding grows with M: at most
    # 4.5e-16 for these kernels of M <= 16, and 1.8e-15 for uniform(128)
    # at (0, 1e-8); 1e-15 up to M = 32, linear beyond
    assert worst <= 1e-15 * max(1.0, k.M / 32)


@pytest.mark.parametrize("family", ["uniform", "density", "mixture", "meanfield"])
def test_char_fn_grid_matches_char_fn(family):
    # phi on the tensor grid, 1 - psi_grid, against char_fn probe by probe
    k = {
        "uniform": uniform_kernel(8),
        "density": density_kernel(8, QUARTIC),
        "mixture": mixture_kernel(0.3, 16, uniform_kernel(2)),
        "meanfield": meanfield_kernel(16),
    }[family]
    rng = np.random.default_rng(6)
    u = np.concatenate([rng.uniform(-math.pi, math.pi, 40), [0.0, math.pi, 1e-4]])
    v = np.concatenate([rng.uniform(-math.pi, math.pi, 30), [0.0, -math.pi]])
    grid = 1.0 - psi_grid(k, u, v)
    t1, t2 = np.meshgrid(u, v, indexing="ij")
    dense = char_fn(k, np.stack([t1, t2], axis=-1))
    assert grid.shape == (u.size, v.size)
    # char_fn rounds phases theta . x of size up to pi M, so its own error
    # grows with M (1.8e-15 against a long-double sum for meanfield(16),
    # where 1 - psi_grid's is 3.6e-16): 1e-15 up to M = 8, linear beyond
    assert np.max(np.abs(grid - dense)) <= 1e-15 * max(1.0, k.M / 8)


@pytest.mark.parametrize("family", list(PSI_KERNELS))
def test_psi_probes_match_a_40_digit_sum(family):
    # condition_report's mid annulus (0.5/M, 1] and far annulus (1, pi]
    # at the default parameters; 4 angles x 2 radii each, one radius per
    # angle for uniform(128), whose sum costs about 0.1 s a probe
    k = PSI_KERNELS[family]
    n_radii = 1 if k.M > 16 else 2
    th = np.concatenate([
        _supnorm_annulus_probes(0.5 / k.M, 1.0, 4, n_radii),
        _supnorm_annulus_probes(1.0, math.pi, 4, n_radii),
    ])
    got = _psi_probes(k, th)
    worst = max(float(abs(got[i] - ref) / ref) for i, ref in enumerate(_psi_40_digits(k, t) for t in th))
    # psi_grid's tolerance: the same factors, summed in another order
    assert worst <= 1e-15 * max(1.0, k.M / 32)


@pytest.mark.parametrize("family", ["uniform", "mixture"])
def test_psi_probe_value_does_not_depend_on_batching(family):
    # every tile has the same call shapes, so a probe's value is the same
    # alone, in any slice, and at any position of a call
    k = {"uniform": uniform_kernel(128), "mixture": mixture_kernel(0.3, 64, uniform_kernel(2))}[family]
    rng = np.random.default_rng(9)
    th = np.concatenate([rng.uniform(-math.pi, math.pi, (4000, 2)), rng.uniform(-1e-3, 1e-3, (96, 2))])
    full = _psi_probes(k, th)
    assert full.shape == (4096,) and _psi_probes(k, th[:0]).shape == (0,)
    for part in (slice(5, 77), slice(3, 4096), slice(4093, 4096)):
        assert np.array_equal(_psi_probes(k, th[part]), full[part])
    for i in (0, 7, 8, 2049, 4095):
        assert _psi_probes(k, th[i]) == full[i]


LADDERS = {
    "uniform": [uniform_kernel(M) for M in (8, 32, 128)],
    "density": [density_kernel(M, QUARTIC) for M in (8, 32, 128)],
    "mixture": [mixture_kernel(0.3, M, uniform_kernel(2)) for M in (8, 32, 128)],
}


@pytest.mark.parametrize("family", list(LADDERS))
def test_condition_report_annuli_match_char_fn(family):
    # p1 is 1 - char_fn on the small ball bit for bit; p2 and p3 come from
    # the probe form of psi and agree with 1 - char_fn to within rounding
    ladder = LADDERS[family]
    rep = condition_report(ladder, delta=0.5, delta_prime=1.0, a=1.0)
    for k, row in zip(ladder, rep.rows):
        M = k.M
        sigma2 = k.sigma2_limit if k.sigma2_limit is not None else k.sigma2_M / M**2
        th1 = _supnorm_annulus_probes(0.0, 0.5 / M, N_ANGLES, N_RADII)
        ratio = (1.0 - char_fn(k, th1)) / (sigma2 * M**2 * (th1**2).sum(axis=1) / 2.0)
        assert row.p1_max_dev == float(np.max(np.abs(ratio - 1.0)))
        p2 = float(np.min(1.0 - char_fn(k, _supnorm_annulus_probes(0.5 / M, 1.0, N_ANGLES, N_RADII))))
        p3 = float(np.max(np.abs(char_fn(k, _supnorm_annulus_probes(1.0, math.pi, N_ANGLES, N_RADII)))))
        assert row.p2_min == pytest.approx(p2, rel=1e-12, abs=0.0)
        assert row.p3_max_abs == pytest.approx(p3, rel=1e-12, abs=0.0)


def _grid_routes(kernel, spec):
    """psi on the quadrant by the product route (psi_grid at the torus
    frequencies), the DCT-I route and 1 - char_fn."""
    k = 2 * math.pi * np.arange(spec.L // 2 + 1) / spec.L
    direct = 1.0 - char_fn(kernel, np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1))
    return psi_grid(kernel, k, k), _psi_dct(kernel, spec), direct


def test_grid_fft_matches_direct():
    # both routes of build_grid against direct cosine sums, at sides where
    # build_grid itself takes the DCT-I route
    for L in (8, 16):
        spec = TorusSpec(L)
        for kernel in (
            uniform_kernel(2),
            mixture_kernel(0.5, 4, uniform_kernel(2)),
            density_kernel(8, QUARTIC),
            meanfield_kernel(L),
        ):
            product, dct, direct = _grid_routes(kernel, spec)
            assert product[0, 0] == dct[0, 0] == 0.0
            assert np.max(np.abs(product - direct)) < 1e-12
            assert np.max(np.abs(dct - direct)) < 1e-12


def test_grid_origin_pinned_and_bounded():
    # L = 16 takes the DCT-I route and L = 64 the product route
    for L in (16, 64):
        grid = build_grid(uniform_kernel(4), TorusSpec(L))
        assert grid.quadrant[0, 0] == 0.0
        assert grid.quadrant.min() >= -1e-12 and grid.quadrant.max() <= 2.0 + 1e-12


def test_grid_psi_is_exact_at_the_lowest_frequencies():
    # psi = 2 sum_x q(x) sin^2(theta . x / 2) at 40 digits; 1 - phi from
    # the DCT-I is 3.1e-11 off at frequency (1, 0) at this size
    L = 4096
    k = uniform_kernel(8)
    psi = build_grid(k, TorusSpec(L)).quadrant
    with mpmath.workdps(40):
        masses = [mpmath.mpf(float(q)) for q in k.masses]
        for k1, k2 in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 3)):
            step1, step2 = mpmath.pi * k1 / L, mpmath.pi * k2 / L
            ref = 2 * mpmath.fsum(
                q * mpmath.sin(step1 * x1 + step2 * x2) ** 2 for q, (x1, x2) in zip(masses, k.points.tolist())
            )
            assert abs(psi[k1, k2] - ref) <= 1e-15 * ref


def test_grid_rejects_oversized_kernel():
    with pytest.raises(ValueError):
        build_grid(uniform_kernel(10), TorusSpec(8))


def test_grid_range_equal_side_is_wrapped_exactly():
    # M = L: colliding pre-images summed; both routes against direct sums
    for L in (8, 16):
        product, dct, direct = _grid_routes(uniform_kernel(L), TorusSpec(L))
        assert np.max(np.abs(product - direct)) < 1e-12
        assert np.max(np.abs(dct - direct)) < 1e-12


def test_grid_rejects_malformed_quadrant():
    grid = build_grid(uniform_kernel(2), TorusSpec(8))
    dataclasses.replace(grid)
    for shape in ((8, 5), (5, 4), (8, 8)):
        with pytest.raises(ValueError):
            dataclasses.replace(grid, quadrant=np.ones(shape))


def test_unfolded_fields_are_axis_symmetric():
    # a field stored on the quadrant unfolds to one that x -> -x and
    # each axis flip leave exactly unchanged
    for L, kernel in ((8, uniform_kernel(2)), (16, mixture_kernel(0.5, 4, uniform_kernel(2)))):
        spec = TorusSpec(L)
        grid = build_grid(kernel, spec)
        neg = (-np.arange(L)) % L  # axis index of -x for the coordinate at each index
        for field in (green(grid, 0.5).values, laplace_hit(grid, 0.5).values, heat(grid, 1.5).raw):
            sq = field.reshape(L, L)
            assert np.array_equal(sq, sq[neg][:, neg])
            assert np.array_equal(sq, sq[neg, :])
            assert np.array_equal(sq, sq[:, neg])


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


def test_band_limited_heat_transform_is_dctn_bit_for_bit():
    assert np.exp(-EXP_UNDERFLOW) == 0.0
    grid = build_grid(uniform_kernel(8), TorusSpec(512))
    widths = []
    for t in (0.0, 1000.0, 2000.0, 20000.0):
        w, live = _heat_weights(grid, t)
        full = np.exp(grid.quadrant * -t)
        assert np.array_equal(w, full)
        assert np.array_equal(_dct1(w, live), scipy.fft.dctn(full, type=1))
        widths.append(live)
    # every column at t = 0; then widths that are not multiples of 8
    assert widths == [257, 45, 29, 9]


def test_heat_matches_dense_exponential_on_both_routes():
    spec = TorusSpec(16)
    k = uniform_kernel(2)
    chain = dense_chain(k, spec)
    for psi in _grid_routes(k, spec)[:2]:
        grid = SpectralGrid(spec=spec, kernel_label=k.label, quadrant=psi)
        for t in (0.3, 6.0, 1000.0, 2000.0):
            assert np.max(np.abs(heat(grid, t).raw - dense_heat(chain, t))) < 1e-10
        # the two largest times transform 4 and 3 of the 9 columns
        assert [_heat_weights(grid, t)[1] for t in (1000.0, 2000.0)] == [4, 3]


def test_heat_probs_sum_to_one():
    grid = build_grid(mixture_kernel(0.7, 4, uniform_kernel(2)), TorusSpec(16))
    for t in (0.5, 4.0, 50.0):
        assert np.maximum(heat(grid, t).raw, 0.0).sum() == pytest.approx(1.0, abs=1e-9)


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
    assert uniformity_gap(grid, 0.0) == pytest.approx(spec.n_points - 1, rel=1e-12)
    gaps = [uniformity_gap(grid, t) for t in (2.0, 8.0, 160.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6


def test_uniformity_gap_matches_the_dense_oracle():
    # the sup over x of the dense law's deviation is attained at the
    # origin and equals the frequency-side sum.  expm's rows carry
    # absolute errors up to about 3e-14 per probability here (meanfield
    # at t = 20), hence the floor n * 1e-13; at t = 2000 both sides lie
    # below it, and the sum runs on 2 or 1 of the 9 columns
    spec = TorusSpec(16)
    n = spec.n_points
    for kernel in (
        uniform_kernel(4),
        mixture_kernel(0.5, 4, uniform_kernel(2)),
        density_kernel(8, QUARTIC),
        meanfield_kernel(16),
    ):
        grid = build_grid(kernel, spec)
        chain = dense_chain(kernel, spec)
        for t in (0.0, 0.5, 20.0, 2000.0):
            ref = n * float(np.max(np.abs(dense_heat(chain, t) - 1.0 / n)))
            assert uniformity_gap(grid, t) == pytest.approx(ref, rel=1e-10, abs=n * 1e-13)
        assert _live_columns(grid.quadrant, 2000.0) < 9


def test_uniformity_gap_is_the_sup_of_the_heat_deviation():
    # at L = 256 against the inverse transform; at t = 2560 the sum runs
    # on 7 (uniform) and 18 (mixture) of the 129 columns
    spec = TorusSpec(256)
    n = spec.n_points
    for kernel in (uniform_kernel(16), mixture_kernel(0.5, 8, uniform_kernel(2))):
        grid = build_grid(kernel, spec)
        for t in (0.0, 2.56, 256.0, 2560.0):
            dev = heat(grid, t).quadrant - 1.0 / n
            ref = n * max(float(dev.max()), -float(dev.min()))
            assert uniformity_gap(grid, t) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert _live_columns(grid.quadrant, 2560.0) < 129


def test_uniformity_gap_working_set_is_below_a_quarter_quadrant(traced_peak):
    # the sum holds exp(-t psi) on the live columns only (61 of 1025
    # here) and runs no transform
    L, M = 2048, 8
    grid = build_grid(uniform_kernel(M), TorusSpec(L))
    assert traced_peak(lambda: uniformity_gap(grid, 0.1 * L**2 / M**2)) < grid.quadrant.nbytes / 4


def test_meanfield_grid_costs_about_its_box(traced_peak):
    # the kernel stores its mass box alone; the support views and the
    # sampling CDF, four more boxes' worth, are never built for a grid
    peak = traced_peak(lambda: build_grid(meanfield_kernel(1024), TorusSpec(1024)))
    assert peak < 4 * 8 * 1025**2  # four (L + 1)^2 float64 mass boxes


def test_uniformity_bound_sums_every_nonzero_frequency():
    spec = TorusSpec(16)
    kernel = mixture_kernel(0.7, 4, uniform_kernel(2))
    grid = build_grid(kernel, spec)
    ys = point_of(np.arange(spec.n_points), spec)
    phi = char_fn(kernel, 2 * np.pi * ys / spec.L)[(ys != 0).any(axis=1)]
    for t in (0.5, 3.0, 20.0):
        assert uniformity_gap(grid, t) == pytest.approx(np.exp(-t * (1.0 - phi)).sum(), rel=1e-12)


def test_uniformity_bound_matches_a_high_precision_sum():
    # at t = 50 the gap is 6.7e-10, so subtracting the zero frequency's
    # exp(0) = 1 from the full sum would keep only about seven digits
    spec = TorusSpec(16)
    k = density_kernel(8, KernelDensity(lambda a, b: 1.0 + a * a * b * b, label="quartic"))
    t = 50.0
    ys = point_of(np.arange(spec.n_points), spec)
    with mpmath.workdps(40):
        step = 2 * mpmath.pi / spec.L
        masses = [mpmath.mpf(float(q)) for q in k.masses]
        ref = mpmath.mpf(0)
        for y1, y2 in ys[(ys != 0).any(axis=1)].tolist():
            phi = mpmath.fsum(q * mpmath.cos(step * (y1 * x1 + y2 * x2)) for q, (x1, x2) in zip(masses, k.points.tolist()))
            ref += mpmath.exp(-t * (1 - phi))
    assert uniformity_gap(build_grid(k, spec), t) == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def test_condition_report_trends_over_uniform_ladder():
    ladder = [uniform_kernel(M) for M in (2, 8, 32)]
    rep = condition_report(ladder, delta=0.5, delta_prime=1.0, a=1.0)
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
        condition_report(k, delta=0.5, delta_prime=1.0, a=4.0)
    with pytest.raises(ValueError):
        condition_report(k, delta=-1.0, delta_prime=1.0, a=1.0)
    with pytest.raises(ValueError):
        condition_report([uniform_kernel(2)], delta=3.0, delta_prime=1.0, a=1.0)
    for key in ("n_angles", "n_radii"):
        with pytest.raises(ValueError, match=key):
            condition_report(k, delta=0.5, delta_prime=1.0, a=1.0, **{key: 0})
