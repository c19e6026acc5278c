"""Torus geometry: wrapping, layouts, and region membership."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toruswalk.torus import (
    Annulus,
    TorusSpec,
    _axis_footprint,
    contains,
    enumerate_region,
    index_of,
    point_of,
    region_size,
    wrap,
)

EVEN_SIDES = st.integers(min_value=1, max_value=64).map(lambda k: 2 * k)


def _quadrant_mask(window, L):
    """The outer form of _axis_footprint's (A, p) on the quadrant 0..L/2:
    rows and columns 0..A minus the (0..p-1)^2 corner."""
    A, p = window
    i = np.arange(L // 2 + 1)
    return np.outer(i <= A, i <= A) & ~np.outer(i < p, i < p)


def test_spec_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        TorusSpec(3)
    with pytest.raises(ValueError):
        TorusSpec(0)
    assert TorusSpec(2).n_points == 4


def test_wrap_frozen_example():
    assert wrap(np.array([7, -9]), 8).tolist() == [-1, -1]


def test_wrap_boundary_convention():
    # L/2 is in the torus; -L/2 is identified with +L/2
    assert wrap(np.array([4, -4]), 8).tolist() == [4, 4]
    assert wrap(np.array([-3, 5]), 8).tolist() == [-3, -3]


@given(
    L=EVEN_SIDES,
    x=st.integers(min_value=-10**6, max_value=10**6),
    y=st.integers(min_value=-10**6, max_value=10**6),
)
def test_wrap_is_idempotent_and_congruent(L, x, y):
    p = np.array([x, y], dtype=np.int64)
    w = wrap(p, L)
    assert np.array_equal(wrap(w, L), w)
    assert np.all((w - p) % L == 0)
    assert np.all(w > -L // 2) and np.all(w <= L // 2)


@given(L=EVEN_SIDES, data=st.data())
def test_index_point_roundtrip(L, data):
    spec = TorusSpec(L)
    i = data.draw(st.integers(min_value=0, max_value=spec.n_points - 1))
    assert int(index_of(point_of(i, spec), spec)) == i


@given(L=EVEN_SIDES, data=st.data())
def test_layout_index_formula(L, data):
    spec = TorusSpec(L)
    assert int(index_of(np.zeros(2, dtype=np.int64), spec)) == 0
    coord = st.integers(min_value=-L // 2 + 1, max_value=L // 2)
    p1, p2 = data.draw(coord), data.draw(coord)
    assert int(index_of(np.array([p1, p2]), spec)) == (p1 % L) * L + (p2 % L)


def test_index_of_rejects_unwrapped_points():
    spec = TorusSpec(8)
    with pytest.raises(ValueError):
        index_of(np.array([5, 0]), spec)
    with pytest.raises(ValueError):
        index_of(np.array([-4, 0]), spec)


def test_fft_layout_index_contract():
    # axis index i holds coordinate i for i <= L/2 and i - L above: the
    # index order of numpy's FFT, so the origin sits at index 0
    spec = TorusSpec(8)
    expected = [i if i <= 4 else i - 8 for i in range(8)]
    assert wrap(np.arange(8), 8).tolist() == expected
    pts = point_of(np.arange(spec.n_points), spec)
    assert pts[::8, 0].tolist() == expected and pts[:8, 1].tolist() == expected
    assert point_of(0, spec).tolist() == [0, 0]


def test_torus_square_is_half_open():
    # alpha = 0 with v = L: the punctured half-open square (-L/2, L/2]^2
    pts = enumerate_region(Annulus(0.0, 4.0, 4))
    as_set = {tuple(p) for p in pts}
    assert (-2, 0) not in as_set and (2, 0) in as_set
    assert (0, 0) not in as_set
    assert len(as_set) == 15


def test_annulus_cases():
    # alpha = 0: punctured square of side v
    a0 = Annulus(alpha=0.0, v=4.0, L=64)
    pts0 = {tuple(p) for p in enumerate_region(a0)}
    assert (0, 0) not in pts0 and (1, 1) in pts0 and (2, 2) in pts0
    assert (3, 0) not in pts0
    # alpha = 1: everything outside the square of side L/v
    a1 = Annulus(alpha=1.0, v=4.0, L=64)
    pts1 = {tuple(p) for p in enumerate_region(a1)}
    assert (0, 0) not in pts1 and (32, 32) in pts1 and (4, 4) not in pts1
    assert (9, 0) in pts1
    # interior alpha: shell between sides L^alpha/v and L^alpha*v
    am = Annulus(alpha=0.5, v=2.0, L=256)
    inner, outer = am.bounds()
    assert inner == pytest.approx(8.0) and outer == pytest.approx(32.0)


def test_annulus_can_be_empty():
    # window too narrow to catch a nonzero lattice point: empty set, no error
    a = Annulus(alpha=0.0, v=0.5, L=64)
    assert enumerate_region(a).shape[0] == 0


@pytest.mark.parametrize("v", [0.0, -1.0, float("nan"), float("inf")])
def test_annulus_refuses_a_window_parameter_not_positive_and_finite(v):
    with pytest.raises(ValueError, match="window parameter v must be positive"):
        Annulus(0.5, v, 8)


@settings(max_examples=200)
@given(
    x=st.integers(min_value=-40, max_value=40),
    y=st.integers(min_value=-40, max_value=40),
    alpha=st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]),
    v=st.floats(min_value=1.5, max_value=6.0),
)
def test_annulus_membership_matches_inequalities(x, y, alpha, v):
    L = 64
    region = Annulus(alpha=alpha, v=v, L=L)
    inner, outer = region.bounds()
    p = np.array([[x, y]])

    def in_square(side):
        return -side / 2 < x <= side / 2 and -side / 2 < y <= side / 2

    expected = in_square(outer) and not (x == 0 and y == 0)
    if inner > 0:
        expected = expected and not in_square(inner)
    assert bool(contains(region, p)[0]) == expected


@settings(max_examples=150, deadline=None)
@given(
    L=EVEN_SIDES,
    alpha=st.floats(min_value=0.0, max_value=1.0),
    v_exp=st.floats(min_value=-0.25, max_value=1.0),
)
@example(L=2, alpha=1.0, v_exp=1.0)  # the smallest torus
@example(L=16, alpha=0.5, v_exp=0.375)  # inner side 1.41: the hole is the origin alone
@example(L=16, alpha=0.5, v_exp=0.0)  # equal inner and outer sides: an empty window
@example(L=16, alpha=1.0, v_exp=0.5)  # sides 4 and 16: integer half-sides
def test_quadrant_mask_is_the_four_image_construction(L, alpha, v_exp):
    # the outer form of the footprint (A, p) marks (a, b) exactly when
    # one of its images (+-a, +-b) is a member
    spec, region = TorusSpec(L), Annulus(alpha, L**v_exp, L)
    try:
        mask = _quadrant_mask(_axis_footprint(region, spec), L)
    except ValueError:
        # some point of the region lies off the canonical torus range:
        # fewer torus points are members than the region has points (a
        # count, since enumerating a drawn region can take 10^8 points)
        on_torus = contains(region, point_of(np.arange(spec.n_points), spec))
        assert on_torus.sum() < region_size(region), region
        return
    pos = np.arange(L // 2 + 1)
    images = (pos, wrap(-pos, L))
    expected = np.zeros((pos.size, pos.size), dtype=bool)
    for x1 in images:
        for x2 in images:
            pts = np.stack(np.broadcast_arrays(x1[:, None], x2[None, :]), axis=-1)
            expected |= contains(region, pts)
    assert np.array_equal(mask, expected), region


def test_contains_agrees_with_enumerate():
    ax = np.arange(-20, 21, dtype=np.int64)
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel()], axis=-1)
    regions = (
        Annulus(0.0, 5.0, 16),
        Annulus(0.5, 2.0, 16),
        Annulus(1.0, 1.5, 16),
    )
    for region in regions:
        member = {tuple(p) for p, m in zip(pts, contains(region, pts)) if m}
        listed = {tuple(p) for p in enumerate_region(region)}
        assert member == listed and listed


def test_index_of_is_vectorized():
    spec = TorusSpec(8)
    pts = np.array([[0, 0], [1, -2], [4, 4]])
    idx = index_of(pts, spec)
    assert idx.shape == (3,)
    for k in range(3):
        assert np.array_equal(point_of(int(idx[k]), spec), pts[k])


def _region_mask(region, spec):
    """Membership of every torus point, shape (L^2,), in the mod-L layout;
    ValueError, as index_of's, when a point of the region lies off the
    canonical torus range."""
    mask = np.zeros(spec.n_points, dtype=bool)
    mask[index_of(enumerate_region(region), spec)] = True
    return mask


@pytest.mark.parametrize("L", [2, 6, 8, 64])
def test_region_mask_matches_enumerated_indices(L):
    # membership of every torus point matches the enumerated points, and
    # a region point off the torus is refused, never clipped: the
    # per-axis footprint raises exactly where index_of does
    spec = TorusSpec(L)
    points = point_of(np.arange(spec.n_points), spec)
    regions = [
        Annulus(a, v, L)
        for a in (0.0, 0.25, 0.5, 0.75, 1.0)
        for v in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 8.0, 40.0)
    ]
    refused = 0
    for region in regions:
        try:
            expected = _region_mask(region, spec)
        except ValueError:
            with pytest.raises(ValueError):
                _axis_footprint(region, spec)
            refused += 1
            continue
        A, p = _axis_footprint(region, spec)
        assert 0 <= A <= L // 2 and p >= 1
        assert np.array_equal(contains(region, points), expected), region
    assert 0 < refused < len(regions)


@pytest.mark.parametrize("L", [2, 8, 64, 256])
def test_region_size_and_quadrant_mask_match_region_mask(L):
    # region_size counts each torus point once, and the outer form of the
    # footprint marks a quadrant point when any of its images (+-a, +-b)
    # is a member.  A square of integer half-side (L = 256, alpha = 1,
    # v = 4) is not symmetric under reflection, so that mask is not the
    # fold of one membership pattern and its m(a) m(b)-weighted count
    # overcounts.
    spec = TorusSpec(L)
    i = np.arange(L)
    fold = np.minimum(i, L - i)
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for v in (0.5, 1.0, 2.0, 2.5, 4.0, 8.0, 40.0):
            region = Annulus(alpha, v, L)
            try:
                mask = _region_mask(region, spec)
            except ValueError:
                with pytest.raises(ValueError):
                    _axis_footprint(region, spec)
                continue
            assert region_size(region) == mask.sum(), region
            expected = np.zeros((L // 2 + 1, L // 2 + 1), dtype=bool)
            np.logical_or.at(expected, np.ix_(fold, fold), mask.reshape(L, L))
            assert np.array_equal(_quadrant_mask(_axis_footprint(region, spec), L), expected), region
