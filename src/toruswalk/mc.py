"""Monte Carlo: hitting times of the origin and coalescing walkers.

The continuous-time walk jumps at rate 1, so its path factorizes into
a discrete jump skeleton and i.i.d. unit-exponential holding times
independent of the skeleton.  Hitting times are therefore sampled
exactly in distribution as H = Gamma(N, 1) where N is the skeleton
step count at the first visit to the origin; this is about twice as
fast as simulating clocks step by step and keeps N available for
Wald-identity checks (E[H] = E[N]).  The skeleton runs its lockstep
rounds in C (skeleton_rounds of _skeleton.c, loaded by kernels._library),
which draws each uniform straight from the generator's bit generator, so
its draws, and every draw after it, are those of one sample_jumps call
per round.  ctypes releases the interpreter lock for the C call, so
worker threads run skeleton chunks in parallel.

Coalescing systems use a single global exponential clock with rate
equal to the live lineage count, a uniform pick of the mover, and a
kernel jump; two lineages merge the instant one lands on the other's
site.  This event-driven construction is exact (no discretization).
simulate_coalescent replays it one event at a time and returns the
whole trace; lineage_count_law runs all replicates of a chunk in
lockstep, one event of every live system per numpy round, and keeps
only the lineage count at the horizon.  Every horizon is an absolute
time on the walkers' own clock (each walker jumps at rate 1); the
scaled time of a limit theorem, and the target it is compared with,
are the caller's.

Layout: walkers and lineages keep their sites as coordinates mod L,
in [0, L), the layout of `torus` (the lockstep coalescent's site code
x*L + y is a site's linear index there).  Starts and traces are given
in canonical coordinates (-L/2, L/2].

Reproducibility: replicates are split into fixed-size chunks; chunk i
always draws from the substream SeedSequence(master, spawn_key=(i,)),
so results are byte-identical for any worker count.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import JumpKernel, _library, sample_jump, sample_jumps
from .torus import TorusSpec, _check_time, wrap

DEFAULT_STEP_CAP = 10**10
DEFAULT_CHUNK = 4096
SKELETON_BLOCK = 2**16  # draws per C call of the first-passage skeleton
# The difference of two rate-1 walkers jumps at rate 2, so a pair merges
# at half the difference walk's hitting time of the origin.
PAIR_CLOCK = 2.0


class StepCapExceeded(RuntimeError):
    """A skeleton exceeded the step cap before resolving.

    Carries the cap and how many walkers were still unresolved; raised
    rather than silently truncating the sample.
    """

    def __init__(self, cap: int, unresolved: int) -> None:
        super().__init__(
            f"step cap {cap} reached with {unresolved} walker(s) still unresolved"
        )
        self.cap = cap
        self.unresolved = unresolved


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the derivation rule for per-task substreams.

    stream(i) keys the substream on (space, i), a pure function of the
    seed and the task index, so any worker scheduling draws the same
    numbers.  space lets a driver hand disjoint substream families to
    different cells of a parameter sweep under one master seed.
    """

    master: int
    space: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.master < 2**64:
            raise ValueError(f"master seed must fit in 64 bits, got {self.master}")
        if any(k < 0 for k in self.space):
            raise ValueError(f"space indices must be nonnegative, got {self.space}")

    def subspace(self, *indices: int) -> SeedSpec:
        return SeedSpec(master=self.master, space=self.space + tuple(indices))

    def stream(self, task_index: int) -> np.random.Generator:
        if task_index < 0:
            raise ValueError(f"task index must be nonnegative, got {task_index}")
        seq = np.random.SeedSequence(self.master, spawn_key=self.space + (task_index,))
        return np.random.Generator(np.random.PCG64(seq))


class HitBatch(NamedTuple):
    """Vectorized hit samples; starts[i] produced (n_jumps[i], hit_times[i])."""

    starts: np.ndarray
    n_jumps: np.ndarray
    hit_times: np.ndarray

    @property
    def replicates(self) -> int:
        return int(self.n_jumps.size)


def _skeleton_first_passage(
    kernel: JumpKernel,
    spec: TorusSpec,
    starts: np.ndarray,
    rng: np.random.Generator,
    step_cap: int,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Jump counts until the first visit to the origin, one per start.

    All walkers advance in lockstep, so every active walker has taken
    exactly `rounds` jumps; resolved walkers are compacted out.  With
    max_rounds set, walkers still active at the cutoff are censored
    and reported as -1 (the caller owns the tail-probability argument);
    otherwise exceeding step_cap raises StepCapExceeded.

    The rounds run in C (skeleton_rounds of _skeleton.c).  Each round
    draws k uniforms with the bit generator's next_double, k the walkers
    still active, and maps them to jumps by sample_jumps' inverse CDF:
    the draws of one sample_jumps(k) call per round, in the same order,
    for any bit generator.  Each C call returns after about
    SKELETON_BLOCK draws, so signals are handled between calls.  The C
    calls bypass the Generator, so they hold the bit generator's lock.
    """
    bitgen = rng.bit_generator
    L = spec.L
    pos = np.mod(np.asarray(starts, dtype=np.int64).reshape(-1, 2), L)  # (walkers, 2)
    if not np.all(pos[:, 0] | pos[:, 1]):
        raise ValueError("walkers must start away from the origin")
    n = np.full(pos.shape[0], -1, dtype=np.int64)
    idx = np.arange(pos.shape[0], dtype=np.int64)
    jump = np.mod(kernel.points, L, dtype=np.int64)  # one subtraction wraps a site plus a jump
    guide = kernel._guide
    limit = step_cap if max_rounds is None else min(step_cap, max_rounds)
    skeleton_rounds = _library().skeleton_rounds
    draw = bitgen.ctypes
    rounds = ctypes.c_int64(0)
    active = pos.shape[0]
    while active:
        with bitgen.lock:
            active = skeleton_rounds(
                draw.next_double, draw.state, SKELETON_BLOCK, *guide.args, jump.ctypes.data, L,
                pos.ctypes.data, idx.ctypes.data, active, n.ctypes.data, rounds, limit,
            )
        if active and rounds.value == limit:
            if limit == max_rounds:
                break  # censored: the cutoff comes before the cap
            raise StepCapExceeded(step_cap, active)
    return n


def _random_starts(spec: TorusSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points uniform on the punctured torus, via rejection."""
    lo = -(spec.L // 2) + 1
    hi = spec.L // 2
    pts = rng.integers(lo, hi + 1, size=(count, 2), dtype=np.int64)
    bad = (pts[:, 0] == 0) & (pts[:, 1] == 0)
    while bad.any():
        pts[bad] = rng.integers(lo, hi + 1, size=(int(bad.sum()), 2), dtype=np.int64)
        bad = (pts[:, 0] == 0) & (pts[:, 1] == 0)
    return pts


def _run_chunked(total, chunk_size, workers, seeds, task_fn):
    """task_fn(task_index, count, rng) over fixed-size chunks, results in
    task order; chunk boundaries never depend on the worker count."""
    if chunk_size < 1 or workers < 1:
        raise ValueError(f"chunk size and workers must be positive, got {chunk_size} and {workers}")
    counts = [
        min(chunk_size, total - lo) for lo in range(0, total, chunk_size)
    ]
    if workers <= 1:
        return [task_fn(i, c, seeds.stream(i)) for i, c in enumerate(counts)]
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import

    out = [None] * len(counts)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(task_fn, i, c, seeds.stream(i)): i
            for i, c in enumerate(counts)
        }
        for fut, i in futures.items():
            out[i] = fut.result()
    return out


def simulate_hits(
    kernel: JumpKernel,
    spec: TorusSpec,
    replicates: int,
    seeds: SeedSpec,
    start: np.ndarray | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    workers: int = 1,
    step_cap: int = DEFAULT_STEP_CAP,
) -> HitBatch:
    """Batch of hitting-time samples.

    start=None draws each walker's start uniformly from the punctured
    torus (start randomness is part of the replicate, so downstream
    standard errors account for it); a fixed start is used for every
    replicate otherwise.
    """
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")
    fixed = None if start is None else wrap(np.asarray(start, dtype=np.int64).reshape(2), spec.L)

    def task(_i: int, count: int, rng: np.random.Generator):
        pts = (
            np.tile(fixed, (count, 1))
            if fixed is not None
            else _random_starts(spec, count, rng)
        )
        n = _skeleton_first_passage(kernel, spec, pts, rng, step_cap)
        h = rng.gamma(n.astype(np.float64))
        return pts, n, h

    parts = _run_chunked(replicates, chunk_size, workers, seeds, task)
    return HitBatch(
        starts=np.concatenate([p[0] for p in parts]),
        n_jumps=np.concatenate([p[1] for p in parts]),
        hit_times=np.concatenate([p[2] for p in parts]),
    )


def estimate_laplace(
    hit_times: np.ndarray, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and standard error of exp(-lam * H) for each lam.

    SE uses the unbiased sample variance; lam = 0 returns exactly
    (1, 0).  Requires at least two samples.
    """
    h = np.asarray(hit_times, dtype=np.float64).reshape(-1)
    if h.size < 2:
        raise ValueError(f"need at least two samples, got {h.size}")
    if not np.all(h >= 0):
        raise ValueError("hit times must be nonnegative")
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    if not np.all(lams >= 0):
        raise ValueError("lam grid must be nonnegative")
    vals = np.exp(-lams[:, None] * h[None, :])
    est = vals.mean(axis=1)
    se = vals.std(axis=1, ddof=1) / math.sqrt(h.size)
    return est, se


# ---------------------------------------------------------------------------
# Coalescing walkers


class MergeEvent(NamedTuple):
    """Lineages are labeled by the index of their starting point; the
    absorbed label disappears and the survivor carries on."""

    time: float
    survivor: int
    absorbed: int


class CoalescenceTrace(NamedTuple):
    starts: np.ndarray  # (n, 2) wrapped initial positions
    horizon: float
    events: tuple[MergeEvent, ...]
    survivors: tuple[int, ...]  # labels alive at the horizon
    final_positions: np.ndarray  # (len(survivors), 2), aligned with survivors


def simulate_coalescent(
    kernel: JumpKernel,
    spec: TorusSpec,
    starts: np.ndarray,
    horizon: float,
    stream: np.random.Generator,
    step_cap: int = DEFAULT_STEP_CAP,
) -> CoalescenceTrace:
    """Coalescing rate-1 walkers from distinct starts, run to the horizon.

    Next event after Exp(k) when k lineages remain; the mover is picked
    uniformly; if its jump lands on an occupied site the mover's lineage
    is absorbed by the occupant at that instant.  Per-event draw order
    (holding time, mover, jump) is fixed, so a given stream always
    reproduces the same trace.
    """
    starts = lineage_starts(starts, spec.L)
    pos = starts.copy()
    n = pos.shape[0]
    _check_time(horizon, "horizon")

    alive = list(range(n))
    events: list[MergeEvent] = []
    t = 0.0
    steps = 0
    while len(alive) > 1:
        t += stream.exponential(1.0 / len(alive))
        if t > horizon:
            break
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(step_cap, len(alive))
        mover = alive[int(stream.integers(len(alive)))]
        pos[mover] = wrap(pos[mover] + sample_jump(kernel, stream), spec.L)
        for other in alive:
            if other != mover and pos[other, 0] == pos[mover, 0] and pos[other, 1] == pos[mover, 1]:
                events.append(MergeEvent(time=t, survivor=other, absorbed=mover))
                alive.remove(mover)
                break
    return CoalescenceTrace(
        starts=starts,
        horizon=float(horizon),
        events=tuple(events),
        survivors=tuple(alive),
        final_positions=pos[alive].copy(),
    )


class LineageCountLaw(NamedTuple):
    """Empirical law of the lineage count at one horizon, and the work
    that measured it."""

    n: int
    horizon: float  # absolute time: each walker jumps at rate 1
    replicates: int
    p_hat: np.ndarray  # (n,), p_hat[k-1] estimates P(count = k)
    se: np.ndarray  # binomial standard errors
    events: int  # kernel jumps taken (n = 2: difference-walk steps up to the hit or cut)
    merges: int  # mergers before the horizon, summed over replicates
    censored: int  # pair walkers cut at the merge horizon, counted as unmerged


def _lockstep_coalescent(
    kernel: JumpKernel,
    L: int,
    starts: np.ndarray,
    horizon: float,
    count: int,
    rng: np.random.Generator,
    step_cap: int,
) -> tuple[np.ndarray, int]:
    """Lineage counts at the horizon of `count` coalescing systems, run together.

    The same construction as simulate_coalescent, one event of every
    live system per round: each draws its holding time Exp(k), drops
    out once its clock passes the horizon, then draws a mover rank in
    [0, k); one sample_jumps call moves all movers.  Sites are codes
    x*L + y with x, y in [0, L), the linear index of `torus`.  The k
    live lineages of a system fill its first k columns; an absorbed
    mover swaps with the last live column, which is then set to -1, a
    code no site has.  A live system has taken an event in every round
    so far, so the round count is the largest event count of any system
    and `rounds > step_cap` raises exactly when the per-event loop
    would.

    Returns (hist, events): hist[k-1] counts the systems left with k
    lineages, events the jumps taken.
    """
    n = starts.shape[0]
    mod = np.mod(starts, L)
    codes = np.tile(mod[:, 0] * L + mod[:, 1], (count, 1))
    k = np.full(count, n, dtype=np.int64)
    t = np.zeros(count)
    hist = np.zeros(n, dtype=np.int64)
    events = 0
    rounds = 0
    while k.size:
        t += rng.standard_exponential(k.size) / k
        keep = t <= horizon
        if not keep.all():
            hist += np.bincount(k[~keep] - 1, minlength=n)
            codes, k, t = codes[keep], k[keep], t[keep]
            if not k.size:
                break
        rounds += 1
        if rounds > step_cap:
            raise StepCapExceeded(step_cap, int(k.size))
        rows = np.arange(k.size)
        rank = rng.integers(k)
        jumps = sample_jumps(kernel, rng, k.size)
        x, y = np.divmod(codes[rows, rank], L)
        x += jumps[:, 0]
        y += jumps[:, 1]
        new = np.mod(x, L) * L + np.mod(y, L)
        codes[rows, rank] = new
        events += k.size
        merged = np.count_nonzero(codes == new[:, None], axis=1) > 1
        if merged.any():
            j = rows[merged]
            last = k[j] - 1
            codes[j, rank[j]] = codes[j, last]
            codes[j, last] = -1
            k[j] = last
            done = k == 1
            if done.any():
                hist[0] += int(np.count_nonzero(done))
                live = ~done
                codes, k, t = codes[live], k[live], t[live]
    return hist, events


def _pair_merge_horizon_rounds(horizon: float) -> int:
    # The merge skeleton needs N rounds with Gamma(N,1)/2 <= horizon, i.e.
    # N <= Poisson(2 horizon) in distribution; 12 standard deviations past
    # the mean leaves censoring probability below 1e-12.
    lam = PAIR_CLOCK * horizon
    return int(math.ceil(lam + 12.0 * math.sqrt(lam) + 100.0))


def lineage_starts(starts: np.ndarray, L: int) -> np.ndarray:
    """Starting positions wrapped onto the torus of side L.

    Raises ValueError unless there is at least one start and the
    wrapped starts are distinct.
    """
    pos = wrap(np.asarray(starts, dtype=np.int64).reshape(-1, 2), L)
    if pos.shape[0] < 1:
        raise ValueError("need at least one lineage")
    if np.unique(pos, axis=0).shape[0] != pos.shape[0]:
        raise ValueError(f"starting positions must be distinct on the torus of side {L}")
    return pos


def lineage_count_law(
    kernel: JumpKernel,
    spec: TorusSpec,
    starts: np.ndarray,
    horizon: float,
    replicates: int,
    seeds: SeedSpec,
    chunk_size: int = DEFAULT_CHUNK,
    workers: int = 1,
    step_cap: int = DEFAULT_STEP_CAP,
) -> LineageCountLaw:
    """Empirical pmf of the lineage count at the absolute time `horizon`,
    which must be finite and nonnegative.

    Two lineages reduce exactly to a rate-2 difference walk (the
    increment law of the difference is again the kernel, by symmetry),
    so n=2 runs as a vectorized first-passage batch; larger systems run
    the event-driven construction for all replicates of a chunk in
    lockstep (_lockstep_coalescent).  At horizon 0 nothing is simulated:
    the law is the point mass at n.  The law also reports its work:
    kernel jumps taken, mergers, and pair walkers censored at
    _pair_merge_horizon_rounds.
    """
    pos = lineage_starts(starts, spec.L)
    n = pos.shape[0]
    _check_time(horizon, "horizon")
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")

    # each part is (hist, events, censored) of one chunk; hist[k-1]
    # counts the replicates left with k lineages
    if n == 1 or horizon == 0.0:
        # no lineage can move or merge: the point mass at n
        hist = np.zeros(n, dtype=np.int64)
        hist[-1] = replicates
        parts = [(hist, 0, 0)]
    elif n == 2:
        d0 = wrap(pos[0] - pos[1], spec.L)
        max_rounds = _pair_merge_horizon_rounds(horizon)

        def pair_task(_i: int, count: int, rng: np.random.Generator):
            steps = _skeleton_first_passage(
                kernel,
                spec,
                np.tile(d0, (count, 1)),
                rng,
                step_cap,
                max_rounds=max_rounds,
            )
            resolved = steps[steps > 0]
            cut = count - resolved.size
            events = int(resolved.sum()) + cut * max_rounds
            merged = 0
            if resolved.size:
                merge_times = rng.gamma(resolved.astype(np.float64)) / PAIR_CLOCK
                merged = int(np.count_nonzero(merge_times <= horizon))
            return np.array([merged, count - merged], dtype=np.int64), events, cut

        parts = _run_chunked(replicates, chunk_size, workers, seeds, pair_task)
    else:

        def multi_task(_i: int, count: int, rng: np.random.Generator):
            hist, events = _lockstep_coalescent(kernel, spec.L, pos, horizon, count, rng, step_cap)
            return hist, events, 0

        parts = _run_chunked(replicates, chunk_size, workers, seeds, multi_task)
    counts, events, censored = (sum(column) for column in zip(*parts))

    p_hat = counts / float(replicates)
    se = np.sqrt(p_hat * (1.0 - p_hat) / replicates)
    return LineageCountLaw(
        n=n,
        horizon=float(horizon),
        replicates=replicates,
        p_hat=p_hat,
        se=se,
        events=int(events),
        merges=int(np.dot(n - np.arange(1, n + 1), counts)),
        censored=int(censored),
    )
