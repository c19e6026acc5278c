"""Outside-in tracing of toruswalk: timing wrappers installed from here.

The wrappers replace module attributes that each caller resolves at call
time (for example `toruswalk.cli.build_grid`, which `cmd_laplace` looks
up in its module globals), so no program file changes.  Every call
records a span (name, start, end, parent); spans stay in memory and are
reduced to per-layer numbers after the traced pass.

`sample_jump` runs once per coalescent event, hundreds of thousands of
times per pass; timing it would distort the coalescent, so it is only
counted.  Every other wrapped function is timed.

Spectral results are re-constructed from their returned fields after the
call (`dataclasses.replace` reruns `__post_init__`), which times their
validation separately from the transform.  Those re-constructions are
spans named `bench.validate`; they are excluded from the traced wall
time and from every layer's self time.
"""

from __future__ import annotations

import dataclasses
import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

VALIDATE = "bench.validate"
MAIN = "cli.main"
MODULES = ("cli", "config", "torus", "kernels", "spectral", "mc", "limits")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.grids: list[tuple[str, int]] = []  # (kernel label, L) per build
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, after=None):
        """Run fn under a span; `after(args, kwargs, result)` runs once the
        span has closed, inside the caller's span."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx][1] = start
            spans[idx][2] = end
        if after is not None:
            after(args, kwargs or {}, result)
        return result

    def _validate(self, result, points: int) -> None:
        self.call(VALIDATE, dataclasses.replace, (result,))
        self.counts["spectral.validate.points"] += points

    @property
    def validation_s(self) -> float:
        """Time spent re-validating spectral results, which is not program work."""
        return sum(end - start for name, start, end, _ in self.spans if name == VALIDATE)

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _timed(self, module, attr: str, name: str, after=None) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)

        self._patch(module, attr, wrapper)

    def _counted(self, module, attr: str, key: str) -> None:
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def install(self, tw) -> None:
        """Wrap the layer entry points of the imported `toruswalk` package."""
        cli, config, mc, spectral, limits = tw.cli, tw.config, tw.mc, tw.spectral, tw.limits
        counts = self.counts

        def binder(fn):
            signature = inspect.signature(fn)

            def bind(args, kwargs):
                b = signature.bind(*args, **kwargs)
                b.apply_defaults()
                return b.arguments

            return bind

        def after_grid(args, kwargs, grid):
            L = grid.spec.L
            self.grids.append((grid.kernel_label, L))
            counts["spectral.fft_points"] += L * L
            self._validate(grid, L * L)

        def after_inverse(args, kwargs, field):
            L = field.spec.L
            counts["spectral.fft_points"] += L * L
            self._validate(field, L * L)

        def after_laplace(args, kwargs, field):
            self._validate(field, field.spec.L ** 2)

        def after_jumps(args, kwargs, jumps):
            counts["kernels.sample_jumps.draws"] += jumps.shape[0]

        char_fn_args = binder(spectral.char_fn)

        def after_char_fn(args, kwargs, _values):
            a = char_fn_args(args, kwargs)
            counts["spectral.char_fn.terms"] += a["theta"].size // 2 * a["kernel"].n_support

        def after_quadrature(args, kwargs, result):
            history = result[2]
            counts["kernels.quadrature.levels"] += len(history)
            counts["kernels.quadrature.points"] += sum(n * n for n, _ in history)

        simulate_hits_args = binder(mc.simulate_hits)

        def after_hits(args, kwargs, batch):
            chunk = simulate_hits_args(args, kwargs)["chunk_size"]
            n = batch.n_jumps
            counts["mc.hits.steps"] += int(n.sum())
            for lo in range(0, n.size, chunk):
                part = n[lo : lo + chunk]
                counts["mc.hits.rounds"] += int(part.max())
                counts["mc.hits.lanes"] += int(part.max()) * part.size

        def after_coalescent(args, kwargs, trace):
            counts["mc.coalescent.merges"] += len(trace.events)

        def after_beta0(args, kwargs, result):
            counts["limits.beta0.levels"] += len(result.levels)

        self._timed(cli, "load_config", "config.load_config")
        for attr in ("uniform_kernel", "density_kernel", "mixture_kernel", "meanfield_kernel"):
            self._timed(config, attr, "kernels.build")
        self._timed(cli, "enumerate_region", "torus.enumerate_region")
        self._timed(cli, "index_of", "torus.index_of")
        self._timed(cli, "build_grid", "spectral.build_grid", after_grid)
        self._timed(cli, "laplace_hit", "spectral.laplace_hit", after_laplace)
        self._timed(spectral, "green", "spectral.green", after_inverse)
        self._timed(cli, "uniformity_gap", "spectral.uniformity_gap")
        self._timed(spectral, "heat", "spectral.heat", after_inverse)
        self._timed(cli, "condition_report", "spectral.condition_report")
        self._timed(spectral, "char_fn", "spectral.char_fn", after_char_fn)
        self._timed(limits, "char_fn", "spectral.char_fn", after_char_fn)
        self._timed(cli, "simulate_hits", "mc.simulate_hits", after_hits)
        self._timed(mc, "sample_jumps", "kernels.sample_jumps", after_jumps)
        self._timed(cli, "estimate_laplace", "mc.estimate_laplace")
        self._timed(cli, "lineage_count_law", "mc.lineage_count_law")
        self._timed(mc, "simulate_coalescent", "mc.simulate_coalescent", after_coalescent)
        self._counted(mc, "sample_jump", "kernels.sample_jump.calls")
        self._timed(cli, "lemma21_audit", "limits.lemma21_audit")
        self._timed(cli, "beta0", "limits.beta0", after_beta0)
        self._timed(limits, "quadrature_midpoint_2d", "kernels.quadrature", after_quadrature)
        self._timed(cli, "write_outputs", "cli.write_outputs")

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- reduction ---------------------------------------------------------

    def span_table(self) -> tuple[dict, dict, Counter]:
        """Per span name: inclusive seconds without validation, self
        seconds, and calls."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)  # self time
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        validating = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            while name == VALIDATE and parent >= 0:
                validating[parent] += end - start
                parent = self.spans[parent][3]
        for (name, start, end, _), inner, checking in zip(self.spans, child, validating):
            total[name] += end - start - checking
            own[name] += end - start - inner
            calls[name] += 1
        return total, own, calls

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer numbers of one traced pass whose commands took `wall` s.

        `<module>.pct` is the module's share of self time, so the modules
        add up to the whole pass; `<module>.<function>.pct` is the
        function's inclusive share.  Both are percentages of the traced
        wall time without validation.  Times of layers that some
        workloads never call are reported as these shares or as time per
        unit of work (`ns/draw` and the like), so that no workload
        reports a time that is zero on every run.
        """
        total, own, calls = self.span_table()
        c = self.counts
        traced = wall - self.validation_s

        def pct(seconds: float) -> float:
            return 100.0 * seconds / traced

        def per(seconds: float, work: int, scale: float) -> float:
            return scale * seconds / work if work else 0.0

        m: dict[str, float] = {}
        for module in MODULES:
            m[f"{module}.pct"] = pct(
                sum(v for k, v in own.items() if k.split(".")[0] == module)
            )
        m["cli.self_s"] = own[MAIN]
        m["cli.write_s"] = total["cli.write_outputs"]

        m["kernels.sample_jumps.calls"] = calls["kernels.sample_jumps"]
        m["kernels.sample_jumps.draws"] = c["kernels.sample_jumps.draws"]
        m["kernels.sample_jumps.ns_per_draw"] = per(
            total["kernels.sample_jumps"], c["kernels.sample_jumps.draws"], 1e9
        )
        m["kernels.sample_jump.calls"] = c["kernels.sample_jump.calls"]
        m["kernels.quadrature.levels"] = c["kernels.quadrature.levels"]
        m["kernels.quadrature.points"] = c["kernels.quadrature.points"]
        m["kernels.quadrature.ns_per_point"] = per(
            total["kernels.quadrature"], c["kernels.quadrature.points"], 1e9
        )

        m["torus.region.pct"] = pct(total["torus.enumerate_region"] + total["torus.index_of"])

        builds = len(self.grids)
        big = max((L for _, L in self.grids), default=0)
        m["spectral.build_grid.pct"] = pct(total["spectral.build_grid"])
        m["spectral.build_grid.calls"] = builds
        m["spectral.build_grid.reuse_ratio"] = len(set(self.grids)) / builds if builds else 0.0
        for name in ("green", "laplace_hit", "heat", "uniformity_gap", "condition_report"):
            m[f"spectral.{name}.pct"] = pct(total[f"spectral.{name}"])
        m["spectral.validate.ns_per_point"] = per(
            total[VALIDATE], c["spectral.validate.points"], 1e9
        )
        m["spectral.fft_points"] = c["spectral.fft_points"]
        m["spectral.ns_per_point"] = per(
            total["spectral.build_grid"] + total["spectral.green"] + total["spectral.heat"],
            c["spectral.fft_points"],
            1e9,
        )
        # Computed, not measured: the float64 grid a transform reads plus
        # the field it returns, at the largest side.
        m["spectral.bytes_per_transform.computed"] = big * big * 8 * 2
        m["spectral.grid_mb"] = big * big * 8 / 1e6
        m["spectral.char_fn.calls"] = calls["spectral.char_fn"]
        m["spectral.char_fn.terms"] = c["spectral.char_fn.terms"]
        m["spectral.char_fn.ns_per_term"] = per(
            total["spectral.char_fn"], c["spectral.char_fn.terms"], 1e9
        )

        m["mc.simulate_hits.pct"] = pct(total["mc.simulate_hits"])
        m["mc.hits.steps"] = c["mc.hits.steps"]
        m["mc.hits.rounds"] = c["mc.hits.rounds"]
        m["mc.hits.ns_per_step"] = per(total["mc.simulate_hits"], c["mc.hits.steps"], 1e9)
        m["mc.hits.active_frac"] = (
            c["mc.hits.steps"] / c["mc.hits.lanes"] if c["mc.hits.lanes"] else 0.0
        )
        m["mc.estimate_laplace.pct"] = pct(total["mc.estimate_laplace"])
        m["mc.lineage_count_law.pct"] = pct(total["mc.lineage_count_law"])
        jumps = c["kernels.sample_jump.calls"]
        m["mc.coalescent.jumps"] = jumps
        m["mc.coalescent.merges"] = c["mc.coalescent.merges"]
        replicates_s = total["mc.simulate_coalescent"]
        m["mc.coalescent.events_per_s"] = jumps / replicates_s if replicates_s else 0.0
        reps = sorted(
            1e3 * (end - start)
            for name, start, end, _ in self.spans
            if name == "mc.simulate_coalescent"
        )
        m["mc.coalescent.replicate_ms.p50"] = statistics.median(reps) if reps else 0.0
        m["mc.coalescent.replicate_ms.p98"] = (
            statistics.quantiles(reps, n=50)[-1] if len(reps) > 1 else 0.0
        )

        m["limits.beta0.pct"] = pct(total["limits.beta0"])
        m["limits.beta0.levels"] = c["limits.beta0.levels"]
        m["limits.lemma21_audit.pct"] = pct(total["limits.lemma21_audit"])
        return m
