"""Monte Carlo walkers: seeding, hitting times, and coalescence."""

from __future__ import annotations

import math
import signal
import time

import numpy as np
import pytest
import scipy.stats

from toruswalk import mc
from toruswalk.kernels import meanfield_kernel, sample_jumps, uniform_kernel
from toruswalk.limits import t_scale
from toruswalk.mc import (
    SeedSpec,
    StepCapExceeded,
    _skeleton_first_passage,
    estimate_laplace,
    lineage_count_law,
    simulate_coalescent,
    simulate_hits,
)
from toruswalk.oracle import dense_chain, dense_laplace_hit
from toruswalk.spectral import build_grid, heat
from toruswalk.torus import TorusSpec, index_of, point_of, wrap


def _horizon(s: float, L: int, M: int) -> float:
    """The absolute time of the scaled time s, as the coalesce command forms it."""
    return s * L**2 * t_scale(L, M)


def test_seed_spec_validation_and_subspace():
    s = SeedSpec(20260816)
    assert s.subspace(3, 1).space == (3, 1)
    assert s.subspace(2).subspace(5).space == (2, 5)
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)
    with pytest.raises(ValueError):
        SeedSpec(1, space=(-2,))
    with pytest.raises(ValueError):
        SeedSpec(1).stream(-1)


def test_seed_streams_are_distinct_and_reproducible():
    s = SeedSpec(7)
    a = s.stream(0).random(4)
    b = s.stream(1).random(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, s.stream(0).random(4))
    # different subspaces give different families
    assert not np.allclose(a, s.subspace(1).stream(0).random(4))


def test_simulate_hits_worker_count_never_changes_results():
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    seeds = SeedSpec(42)
    ref = simulate_hits(k, spec, 3000, seeds, chunk_size=256, workers=1)
    for workers in (4, 8):
        other = simulate_hits(k, spec, 3000, seeds, chunk_size=256, workers=workers)
        assert np.array_equal(ref.starts, other.starts)
        assert np.array_equal(ref.n_jumps, other.n_jumps)
        assert np.array_equal(ref.hit_times, other.hit_times)


def test_simulate_hit_basics():
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    batch = simulate_hits(k, spec, 1, SeedSpec(5), start=np.array([11, -9]))
    assert batch.starts.tolist() == [[3, -1]]  # wrapped
    assert batch.n_jumps[0] >= 1
    assert batch.hit_times[0] > 0.0
    with pytest.raises(ValueError, match="away from the origin"):
        simulate_hits(k, spec, 1, SeedSpec(5), start=np.array([0, 0]))
    with pytest.raises(ValueError, match="away from the origin"):
        simulate_hits(k, spec, 4, SeedSpec(5), start=np.array([8, 8]))  # wraps to 0


def test_step_cap_aborts_with_context():
    k = uniform_kernel(2)
    spec = TorusSpec(16)
    with pytest.raises(StepCapExceeded) as exc:
        simulate_hits(k, spec, 64, SeedSpec(1), step_cap=3)
    assert exc.value.cap == 3
    assert 1 <= exc.value.unresolved <= 64


def test_meanfield_jump_count_is_geometric():
    # from any start the origin is found with chance 1/(L^2-1) per jump
    L = 8
    k = meanfield_kernel(L)
    spec = TorusSpec(L)
    batch = simulate_hits(k, spec, 100_000, SeedSpec(33), start=np.array([2, 1]))
    p = 1.0 / (L * L - 1)
    mean, var = 1 / p, (1 - p) / p**2
    z = (batch.n_jumps.mean() - mean) / math.sqrt(var / batch.replicates)
    assert abs(z) < 3.0


def test_meanfield_hit_time_is_exponential():
    # geometric number of unit-mean exponential holds: H ~ Exp(L^2 - 1)
    L = 8
    batch = simulate_hits(
        meanfield_kernel(L), TorusSpec(L), 100_000, SeedSpec(90), start=np.array([3, 3])
    )
    res = scipy.stats.kstest(batch.hit_times, "expon", args=(0.0, L * L - 1.0))
    assert res.pvalue > 0.01


def test_estimate_laplace_contract():
    h = np.array([0.5, 1.0, 2.0, 4.0])
    est, se = estimate_laplace(h, np.array([0.0, 0.5, 1.0, 2.0]))
    assert est[0] == 1.0 and se[0] == 0.0
    assert np.all(np.diff(est) < 0)
    assert np.all(se[1:] > 0)
    expected = np.mean(np.exp(-0.5 * h))
    assert est[1] == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_laplace(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        estimate_laplace(h, np.array([-0.5]))
    with pytest.raises(ValueError):
        estimate_laplace(np.array([1.0, -2.0]), np.array([1.0]))


def test_estimate_laplace_refuses_nan():
    # no comparison is true of nan, so each check asks the good case
    with pytest.raises(ValueError, match="lam grid"):
        estimate_laplace(np.array([0.5, 1.0]), np.array([0.5, math.nan]))
    with pytest.raises(ValueError, match="hit times"):
        estimate_laplace(np.array([0.5, math.nan]), np.array([1.0]))


def test_meanfield_laplace_against_closed_form():
    L = 4
    batch = simulate_hits(
        meanfield_kernel(L), TorusSpec(L), 100_000, SeedSpec(12), start=np.array([1, 1])
    )
    est, se = estimate_laplace(batch.hit_times, np.array([1.0]))
    exact = 1.0 / (1.0 + 15.0)
    assert abs(est[0] - exact) < 3 * se[0]


def test_hit_transform_matches_dense_reference():
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    start = np.array([3, 2])
    batch = simulate_hits(k, spec, 40_000, SeedSpec(2024), start=start)
    est, se = estimate_laplace(batch.hit_times, np.array([0.5]))
    F = dense_laplace_hit(dense_chain(k, spec), 0.5)
    exact = F[int(index_of(start, spec))]
    assert abs(est[0] - exact) < 3.5 * se[0]


def test_random_starts_cover_punctured_torus():
    k = meanfield_kernel(4)
    spec = TorusSpec(4)
    batch = simulate_hits(k, spec, 30_000, SeedSpec(77))
    assert not np.any((batch.starts[:, 0] == 0) & (batch.starts[:, 1] == 0))
    seen = {tuple(p) for p in batch.starts}
    assert len(seen) == 15
    counts = np.unique(batch.starts[:, 0], return_counts=True)[1]
    assert counts.min() > 0


def test_coalescent_single_lineage_never_merges():
    trace = simulate_coalescent(
        uniform_kernel(2), TorusSpec(8), np.array([[1, 1]]), 50.0, SeedSpec(3).stream(0)
    )
    assert trace.events == ()
    assert trace.survivors == (0,)
    assert trace.final_positions.shape == (1, 2)


def test_coalescent_validation():
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    stream = SeedSpec(4).stream(0)
    with pytest.raises(ValueError):
        simulate_coalescent(k, spec, np.array([[1, 1], [9, 9]]), 1.0, stream)  # same mod L
    for horizon in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
            simulate_coalescent(k, spec, np.array([[1, 1], [2, 2]]), horizon, stream)


def test_coalescent_bookkeeping():
    k = uniform_kernel(2)
    spec = TorusSpec(4)
    starts = np.array([[1, 0], [0, 1], [2, 2], [-1, -1]])
    merged_totals = 0
    for i in range(40):
        trace = simulate_coalescent(k, spec, starts, 30.0, SeedSpec(100).stream(i))
        assert len(trace.survivors) + len(trace.events) == 4
        times = [ev.time for ev in trace.events]
        assert times == sorted(times)
        assert all(0.0 < t <= 30.0 for t in times)
        # absorbed labels never reappear
        absorbed = {ev.absorbed for ev in trace.events}
        assert absorbed.isdisjoint(trace.survivors)
        for ev in trace.events:
            assert ev.survivor != ev.absorbed
        lineages = [4 - sum(ev.time <= t for ev in trace.events) for t in (0.0, 30.0)]
        assert lineages == [4, len(trace.survivors)]
        assert trace.final_positions.shape == (len(trace.survivors), 2)
        merged_totals += len(trace.events)
    assert merged_totals > 0  # on a 4x4 torus mergers at t = 30 are routine


def _representative_final_position(trace, label: int) -> np.ndarray:
    """Follow absorptions until an alive ancestor-line label is found."""
    current = label
    moved = True
    while moved:
        moved = False
        for ev in trace.events:
            if ev.absorbed == current:
                current = ev.survivor
                moved = True
                break
    return trace.final_positions[trace.survivors.index(current)]


def test_coalescent_marginal_is_a_free_walk():
    # a tagged lineage (following it through absorptions) moves exactly
    # like one rate-1 walker, so its time-t law is the heat kernel
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    starts = np.array([[1, 0], [3, 3], [-2, 2]])
    t = 2.0
    reps = 20_000
    seeds = SeedSpec(555)
    counts = np.zeros(spec.n_points, dtype=np.int64)
    for i in range(reps):
        trace = simulate_coalescent(k, spec, starts, t, seeds.stream(i))
        x = _representative_final_position(trace, 0)
        counts[int(index_of(wrap(x, spec.L), spec))] += 1
    freqs = counts / reps
    # heat law from the tagged start (1, 0): shift the origin-started law
    probs_from_origin = np.maximum(heat(build_grid(k, spec), t).raw, 0.0)
    all_pts = point_of(np.arange(spec.n_points), spec)
    shifted = np.empty_like(probs_from_origin)
    shifted[index_of(wrap(all_pts + np.array([1, 0]), spec.L), spec)] = probs_from_origin
    se = np.sqrt(shifted * (1 - shifted) / reps)
    assert np.max(np.abs(freqs - shifted) / np.maximum(se, 1e-6)) < 5.0


def test_lineage_law_two_routes_agree():
    # n = 2 runs as a vectorized difference walk; replaying the
    # event-driven construction must give the same merge probability
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    starts = np.array([[3, 0], [0, 3]])
    s = 0.3
    law = lineage_count_law(k, spec, starts, _horizon(s, 8, 2), 4000, SeedSpec(8_001))
    merged_events = 0
    reps = 4000
    seeds = SeedSpec(8_002)
    for i in range(reps):
        trace = simulate_coalescent(k, spec, starts, law.horizon, seeds.stream(i))
        merged_events += len(trace.events)
    p_direct = merged_events / reps
    se = math.sqrt(
        law.p_hat[0] * (1 - law.p_hat[0]) / law.replicates + p_direct * (1 - p_direct) / reps
    )
    assert abs(law.p_hat[0] - p_direct) < 4 * max(se, 1e-3)


def test_lineage_law_point_mass_at_time_zero():
    law = lineage_count_law(
        uniform_kernel(2), TorusSpec(8), np.array([[1, 0], [0, 1], [3, 3]]), _horizon(0.0, 8, 2), 50, SeedSpec(1)
    )
    assert law.p_hat[2] == 1.0
    assert law.p_hat[:2].sum() == 0.0


def test_lineage_law_fields():
    k = uniform_kernel(2)
    law = lineage_count_law(
        k, TorusSpec(8), np.array([[3, 0], [0, 3]]), _horizon(0.5, 8, 2), 400, SeedSpec(9), workers=3
    )
    assert law.n == 2 and law.horizon == _horizon(0.5, 8, 2)
    assert law.p_hat.sum() == pytest.approx(1.0, abs=1e-12)
    # worker count leaves the estimate untouched
    again = lineage_count_law(
        k, TorusSpec(8), np.array([[3, 0], [0, 3]]), _horizon(0.5, 8, 2), 400, SeedSpec(9), workers=1
    )
    assert np.array_equal(law.p_hat, again.p_hat)


def test_lineage_law_three_walkers_smoke():
    law = lineage_count_law(
        uniform_kernel(2),
        TorusSpec(8),
        np.array([[3, 0], [0, 3], [-3, -3]]),
        _horizon(0.4, 8, 2),
        500,
        SeedSpec(21),
    )
    assert law.p_hat.shape == (3,)
    assert law.p_hat.sum() == pytest.approx(1.0, abs=1e-12)


def test_lineage_law_validation():
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    with pytest.raises(ValueError):
        lineage_count_law(k, spec, np.array([[1, 1], [1, 1]]), _horizon(1.0, 8, 2), 10, SeedSpec(0))
    for horizon in (_horizon(-1.0, 8, 2), math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
            lineage_count_law(k, spec, np.array([[1, 1], [2, 2]]), horizon, 10, SeedSpec(0))
    with pytest.raises(ValueError):
        lineage_count_law(k, spec, np.array([[1, 1], [2, 2]]), _horizon(1.0, 8, 2), 0, SeedSpec(0))


def test_pair_merge_probability_grows_toward_one():
    # longer scaled horizons leave fewer pairs unmerged; by s = 10 most
    # replicates have coalesced (though not the near-certainty a naive
    # mixing argument would suggest)
    k = uniform_kernel(8)
    spec = TorusSpec(64)
    starts = np.array([[0, 16], [32, 48]])
    seeds = SeedSpec(606)
    p1 = {}
    for si, s in enumerate((0.5, 10.0)):
        law = lineage_count_law(k, spec, starts, _horizon(s, 64, 8), 1000, seeds.subspace(si))
        p1[s] = law.p_hat[0]
    assert p1[10.0] > p1[0.5] + 0.2
    assert p1[10.0] > 0.6


def _diagonal_starts(n: int, L: int) -> np.ndarray:
    return np.array([[(i * L) // n, (i * L) // n] for i in range(n)])


def _replayed_counts(k, spec, starts, horizon, reps, seeds) -> np.ndarray:
    """Lineage counts at the horizon from per-event simulate_coalescent traces."""
    counts = np.zeros(starts.shape[0], dtype=np.int64)
    for i in range(reps):
        trace = simulate_coalescent(k, spec, starts, horizon, seeds.stream(i))
        counts[len(trace.survivors) - 1] += 1
    return counts


@pytest.mark.parametrize("n", [3, 4])
def test_lockstep_law_matches_per_event_replay(n):
    # the lockstep engine and the per-event construction sample the same
    # law; per-cell z-test with each se floored at one replicate's, as in
    # the benchmark's coalesce check
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    starts = _diagonal_starts(n, spec.L)
    reps = 3000
    for si, s in enumerate((0.05, 0.3)):
        law = lineage_count_law(k, spec, starts, _horizon(s, 8, 2), 20_000, SeedSpec(31, (n, si)))
        p = _replayed_counts(k, spec, starts, law.horizon, reps, SeedSpec(32, (n, si))) / reps
        se = np.hypot(
            np.maximum(law.se, 1.0 / law.replicates),
            np.maximum(np.sqrt(p * (1 - p) / reps), 1.0 / reps),
        )
        z = np.abs(law.p_hat - p) / se
        assert z.max() < 5.0, (s, law.p_hat, p)


def _exact_coalescing_count_law(k, L: int, starts: np.ndarray, t: float) -> np.ndarray:
    """P(count = j) at time t from the generator of the coalescing system,
    whose states are the sets of occupied sites (x*L + y)."""
    import itertools

    from scipy.linalg import expm

    n = starts.shape[0]
    states = [
        frozenset(c) for m in range(1, n + 1) for c in itertools.combinations(range(L * L), m)
    ]
    index = {st: i for i, st in enumerate(states)}
    Q = np.zeros((len(states), len(states)))
    for st, i in index.items():
        for site in st:
            x, y = divmod(site, L)
            for (dx, dy), w in zip(k.points, k.masses):
                moved = (st - {site}) | {((x + dx) % L) * L + (y + dy) % L}
                Q[i, index[moved]] += w
        Q[i, i] -= len(st)
    p0 = np.zeros(len(states))
    p0[index[frozenset(int(a % L) * L + int(b % L) for a, b in starts)]] = 1.0
    pt = p0 @ expm(Q * t)
    law = np.zeros(n)
    for st, p in zip(states, pt):
        law[len(st) - 1] += p
    return law


def test_lockstep_law_matches_exact_chain():
    # three lineages on the 4x4 torus: 696 occupied-site sets, small
    # enough for the generator's matrix exponential.  Unequal spacings,
    # so that a mover pick that favours some lineage shows.
    k = uniform_kernel(2)
    spec = TorusSpec(4)
    starts = np.array([[0, 0], [1, 0], [2, 2]])
    law = lineage_count_law(k, spec, starts, _horizon(0.2, 4, 2), 100_000, SeedSpec(41))
    exact = _exact_coalescing_count_law(k, spec.L, starts, law.horizon)
    assert exact.sum() == pytest.approx(1.0, abs=1e-10)
    se = np.maximum(np.sqrt(exact * (1 - exact) / law.replicates), 1.0 / law.replicates)
    assert np.max(np.abs(law.p_hat - exact) / se) < 5.0


def test_lockstep_law_worker_count_never_changes_results():
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    starts = _diagonal_starts(4, spec.L)
    one = lineage_count_law(k, spec, starts, _horizon(0.3, 8, 2), 500, SeedSpec(51), chunk_size=64, workers=1)
    three = lineage_count_law(k, spec, starts, _horizon(0.3, 8, 2), 500, SeedSpec(51), chunk_size=64, workers=3)
    assert np.array_equal(one.p_hat, three.p_hat)
    assert (one.events, one.merges) == (three.events, three.merges)


@pytest.mark.parametrize("bad", [{"chunk_size": 0}, {"chunk_size": -5}, {"workers": 0}, {"workers": -5}])
def test_chunk_size_and_workers_must_be_positive(bad):
    k, spec = uniform_kernel(2), TorusSpec(8)
    runs = [lambda: simulate_hits(k, spec, 8, SeedSpec(1), **bad)]
    for n in (2, 3):
        starts = _diagonal_starts(n, spec.L)
        runs.append(lambda starts=starts: lineage_count_law(k, spec, starts, _horizon(0.3, 8, 2), 8, SeedSpec(1), **bad))
    messages = set()
    for run in runs:
        with pytest.raises(ValueError, match="must be positive") as err:
            run()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_lockstep_step_cap_is_exact():
    # one replicate runs one event per round, so its event count is the
    # smallest cap it passes
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    starts = _diagonal_starts(3, spec.L)
    law = lineage_count_law(k, spec, starts, _horizon(0.3, 8, 2), 1, SeedSpec(61))
    assert law.events > 0
    again = lineage_count_law(k, spec, starts, law.horizon, 1, SeedSpec(61), step_cap=law.events)
    assert again.events == law.events
    with pytest.raises(StepCapExceeded) as info:
        lineage_count_law(k, spec, starts, law.horizon, 1, SeedSpec(61), step_cap=law.events - 1)
    assert info.value.cap == law.events - 1
    with pytest.raises(StepCapExceeded):
        lineage_count_law(k, spec, starts, _horizon(1.0, 8, 2), 200, SeedSpec(62), step_cap=5)


def test_lineage_law_work_counters():
    k = uniform_kernel(2)
    spec = TorusSpec(8)
    single = lineage_count_law(k, spec, np.array([[1, 1]]), _horizon(1.0, 8, 2), 50, SeedSpec(71))
    assert (single.events, single.merges, single.censored) == (0, 0, 0)
    # at horizon 0 nothing moves: the point mass at n, with no work done
    far = np.array([[0, 0], [32, 32]])
    still = lineage_count_law(k, TorusSpec(64), far, _horizon(0.0, 64, 2), 200, SeedSpec(72))
    assert (still.events, still.merges, still.censored) == (0, 0, 0)
    assert still.p_hat.tolist() == [0.0, 1.0]
    # walkers that miss the origin within the merge horizon's rounds are
    # cut, not dropped
    pair = lineage_count_law(k, TorusSpec(64), far, _horizon(1e-3, 64, 2), 200, SeedSpec(72))
    assert pair.censored > 0
    assert pair.events >= pair.censored
    starts = _diagonal_starts(4, spec.L)
    law = lineage_count_law(k, spec, starts, _horizon(0.3, 8, 2), 400, SeedSpec(73))
    counts = np.rint(law.p_hat * law.replicates)
    assert law.merges == int(np.dot(4 - np.arange(1, 5), counts))
    assert law.censored == 0
    assert law.events >= law.merges > 0



def _per_round_skeleton(kernel, L, starts, rng, step_cap, max_rounds=None):
    """Reference first passage: one sample_jumps call per lockstep round."""
    pos = np.mod(np.asarray(starts, dtype=np.int64), L)
    n = np.full(pos.shape[0], -1, dtype=np.int64)
    idx = np.arange(pos.shape[0])
    rounds = 0
    while idx.size:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            break
        if rounds > step_cap:
            raise StepCapExceeded(step_cap, int(idx.size))
        pos = np.mod(pos + sample_jumps(kernel, rng, idx.size), L)
        hit = (pos[:, 0] == 0) & (pos[:, 1] == 0)
        n[idx[hit]] = rounds
        idx, pos = idx[~hit], pos[~hit]
    return n


def _compiled_skeleton(kernel, L, starts, rng, step_cap, max_rounds):
    return _skeleton_first_passage(kernel, TorusSpec(L), starts, rng, step_cap, max_rounds)


def _skeleton_runs(kernel, L, starts, step_cap, max_rounds, runner, seed=13, bit_generator=np.random.PCG64):
    """(n or the unresolved count, next float64, next float32) from one stream.

    The stream is SeedSpec(seed).stream(0)'s seed sequence on
    bit_generator.  A float32 draw first leaves half a 64-bit draw
    buffered in the bit generator, which the next float32 draw after the
    skeleton uses.
    """
    rng = np.random.Generator(bit_generator(np.random.SeedSequence(seed, spawn_key=(0,))))
    rng.random(dtype=np.float32)
    try:
        out = runner(kernel, L, starts, rng, step_cap, max_rounds)
    except StepCapExceeded as exc:
        out = exc.unresolved
    return out, rng.random(), rng.random(dtype=np.float32)


@pytest.mark.parametrize("block", [7, 1000, mc.SKELETON_BLOCK])
@pytest.mark.parametrize(
    "step_cap, max_rounds",
    [(10**10, None), (10**10, 150), (150, None)],
    ids=["resolved", "censored", "step-cap"],
)
def test_skeleton_matches_per_round_loop(monkeypatch, block, step_cap, max_rounds):
    # per-call draw budgets below, near and above the walker count; runs
    # of ~1e5 draws resume across many C calls
    monkeypatch.setattr(mc, "SKELETON_BLOCK", block)
    k = uniform_kernel(2)
    L = 16
    starts = mc._random_starts(TorusSpec(L), 500, np.random.default_rng(4))
    got = _skeleton_runs(k, L, starts, step_cap, max_rounds, _compiled_skeleton)
    ref = _skeleton_runs(k, L, starts, step_cap, max_rounds, _per_round_skeleton)
    assert np.array_equal(got[0], ref[0])
    assert got[1:] == ref[1:]
    if max_rounds is not None:
        assert np.count_nonzero(got[0] == -1) > 0  # some walkers were censored
    if step_cap == 150:
        assert np.ndim(got[0]) == 0 and got[0] > 0  # the raise carried an unresolved count


@pytest.mark.parametrize("block", [7, 1000, mc.SKELETON_BLOCK])
@pytest.mark.parametrize(
    "step_cap, max_rounds",
    [(10**10, None), (10**10, 150), (150, None)],
    ids=["resolved", "censored", "step-cap"],
)
@pytest.mark.parametrize("kernel, L", [(meanfield_kernel(16), 16), (uniform_kernel(8), 64)], ids=["meanfield16", "uniform8-L64"])
def test_skeleton_matches_per_round_loop_on_wide_jumps(monkeypatch, kernel, L, block, step_cap, max_rounds):
    # meanfield(16) jumps reach +-L/2, the largest jump the one-step wrap
    # sees; uniform M=8 at L=64 runs the benchmark's kernel and side
    monkeypatch.setattr(mc, "SKELETON_BLOCK", block)
    starts = mc._random_starts(TorusSpec(L), 500, np.random.default_rng(4))
    got = _skeleton_runs(kernel, L, starts, step_cap, max_rounds, _compiled_skeleton)
    ref = _skeleton_runs(kernel, L, starts, step_cap, max_rounds, _per_round_skeleton)
    assert np.array_equal(got[0], ref[0])
    assert got[1:] == ref[1:]
    if max_rounds is not None:
        assert np.count_nonzero(got[0] == -1) > 0
    if step_cap == 150:
        assert np.ndim(got[0]) == 0 and got[0] > 0


def test_skeleton_single_walker_matches_per_round_loop():
    # one walker: runs of 1 to ~800 steps
    k = uniform_kernel(2)
    for seed in range(20):
        args = (k, 16, np.array([[1, seed % 3]]), 10**10, None)
        got = _skeleton_runs(*args, _compiled_skeleton, seed=seed)
        ref = _skeleton_runs(*args, _per_round_skeleton, seed=seed)
        assert np.array_equal(got[0], ref[0]) and got[1:] == ref[1:]


def test_skeleton_keeps_sides_beyond_int32():
    # a walker at x1 = 2^31 - 1 steps past the int32 range: kept in int64
    k = uniform_kernel(2)
    args = (k, 2**31, np.array([[-1, 0], [0, 1]]), 10**10, 40)
    got = _skeleton_runs(*args, _compiled_skeleton)
    ref = _skeleton_runs(*args, _per_round_skeleton)
    assert np.array_equal(got[0], ref[0]) and got[1:] == ref[1:]


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM])
def test_skeleton_matches_per_round_loop_on_any_bit_generator(bit_generator):
    k = uniform_kernel(2)
    starts = mc._random_starts(TorusSpec(16), 200, np.random.default_rng(4))
    args = (k, 16, starts, 10**10, None)
    got = _skeleton_runs(*args, _compiled_skeleton, bit_generator=bit_generator)
    ref = _skeleton_runs(*args, _per_round_skeleton, bit_generator=bit_generator)
    assert np.array_equal(got[0], ref[0]) and got[1:] == ref[1:]


class _Alarm(Exception):
    pass


def test_skeleton_lets_signals_through():
    # 4096 walkers of uniform M=8 on L=1024 take minutes to resolve; a
    # handler that raises 0.2 s in must stop the run between C calls
    def ring(signum, frame):
        raise _Alarm

    k = uniform_kernel(8)
    starts = mc._random_starts(TorusSpec(1024), 4096, np.random.default_rng(4))
    previous = signal.signal(signal.SIGALRM, ring)
    began = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(_Alarm):
            _skeleton_first_passage(k, TorusSpec(1024), starts, SeedSpec(1).stream(0), 10**10)
        elapsed = time.perf_counter() - began
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 2.0
