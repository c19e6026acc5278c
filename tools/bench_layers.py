"""Interleaved before/after layer medians for the benchmark's workloads.

    python tools/bench_layers.py SUITE NAME=TREE [NAME=TREE ...] [--repeats 5] [--out FILE]

SUITE is `mc-lattice` (the Monte Carlo and lattice layers) or
`spectral-large` (the spectral layers).  Each TREE is the root of a
toruswalk source checkout (for example a `git clone` of the parent
commit, and `.`).  Every repeat runs each of the suite's variants in
one fresh interpreter per tree, in alternating tree order, with
PYTHONPATH=TREE/src and BLAS pinned to one thread.  The output is one
JSON document: per tree and metric, the median, the quartiles and every
run.  This driver uses only the standard library; the measurements use
the tree's own dependencies.

mc-lattice runs three variants per repeat.  The first measures:

* simulate_hits_s: `simulate_hits` on the mc-lattice config (uniform
  M=8, L=64, 8192 replicates, seed = repeat + 1);
* skeleton_ns_per_step: that time over the skeleton steps (sum of
  n_jumps), as the benchmark tracer's `mc.hits.ns_per_step`;
* sample_jumps_ns_per_draw: `sample_jumps(uniform M=8, 4096)`, best of
  200 calls after a warm-up call;
* char_fn_ns_per_term: `char_fn(uniform M=128, 4096 probes)`, best of 3
  calls, over probes x support;
* beta0_s: `beta0` on the mc-lattice config (q0 uniform M=4, c = 0.01
  and 0.003, tol 1e-10), both values, best of 3 passes;
* conditions_s: `condition_report` on the mc-lattice ladder (uniform
  M = 8, 32 and 128, the CLI's default parameters), the median of
  CALLS calls after one untimed warm-up call;
* coalesce_s: `lineage_count_law` on the mc-lattice coalesce config
  (uniform M=8, L=64, 8 diagonal starts, 500 replicates, seed =
  repeat + 1) at the absolute horizon 0.5 * 64**2 * t_scale(64, 8), the
  `coalesce` command's horizon at s = 0.5, the median of CALLS calls
  after one untimed warm-up call;
* coalescent_events_per_s: the law's kernel jumps (`events`) over
  coalesce_s;
* char_fn_peak_mb, conditions_peak_mb, audit_peak_mb, beta0_peak_mb:
  the tracemalloc peak, in MB, of one more `char_fn(uniform M=128,
  4096 probes)` call, of one more `condition_report` on the ladder, of
  `lemma21_audit` on the mc-lattice config (K=4096, J=16, 4 thetas),
  and of the beta0 pair, each traced alone after the timed calls;
* beta0_level4096_peak_mb: the tracemalloc peak, in MB, of one `beta0`
  level at n = 4096 points per axis, QuadratureSpec's default cap
  (q0 uniform M=4, c = 0.003, base = max_axis = 4096, so the call
  stops with QuadratureError after that one level).

The second runs `cli.main` on the `coalesce` command (uniform(2),
L = 16, n = 3 diagonal starts, s = 0.5, 200 replicates) in one fresh
interpreter per run, CALLS runs after one untimed run (which also
compiles the skeleton library if the tree has none cached):

* oneshot_coalesce_s: the median wall time of a run, from the
  interpreter's start to its exit, imports included: what a user pays
  for one small coalescence table;
* oneshot_coalesce_rss_mb: the median of the runs' peak resident sets
  (`ru_maxrss` of the interpreter, read after `cli.main` returns).

The third times the tree's Tier-1 suite:

* tier1_s: `python -m pytest -q` from the tree's root.

spectral-large runs three variants.  The first, at L = 4096 and 8192,
runs one small `laplace_hit` (L = 64) of the tree's own code first, so
no timing below pays a lazy import and the tree's memory is charged for
what it loads itself, builds one grid (uniform M=8) on the torus of side
L, runs the CLI's hitting transforms and uniformity gaps on it, and
measures the following.  Every layer is timed as the median of CALLS
(5) calls per argument, after one untimed warm-up call, so that a 10%
change stands out of the machine's jitter and no timing pays a first
call's one-off costs; a call's result is dropped before the next call
starts.  At L = 4096 a layer's median still moves between
interpreters running identical code (laplace_hit_s from 0.133 to
0.185 s in one eight-process run), so a comparison of trees wants more
--repeats, not more calls.

* build_grid_s: `build_grid` (the product route);
* laplace_hit_s: `laplace_hit` plus the CLI's sup of |F - target|
  over the start window of `laplace`'s finite mode (alpha = 1,
  v = log L), the CLI's work per lam, at lam = 0.5, 1 and 2 over L^2;
  the window's footprint is built once per side, as in the CLI;
* validate_s: `dataclasses.replace` on each lam's `laplace_hit` field,
  which reruns its validation alone;
* uniformity_gap_s: `uniformity_gap` at the times of the `uniformity`
  table, k L^2 / M^2 for k = 0.01, 0.1 and 1, one time per call;
* laplace_cmd_s, uniformity_cmd_s: the CLI's whole work on this side,
  `cmd_laplace` on the `laplace` config of the benchmark's
  spectral-large workload (lam = 0.5, 1 and 2; alpha = 1, v = log L)
  and `cmd_uniformity` on its `uniformity` config, each with
  `torus.L` = [L]: the grid build included, whatever the tree builds;
* peak_rss_mb: the interpreter's peak resident set, import included;
* laplace_peak_mb, uniformity_peak_mb: the tracemalloc peak of one more
  `cmd_laplace` and one more `cmd_uniformity` call on those configs,
  traced alone after peak_rss_mb is read;
* build_grid_dct_s: for L <= DCT_MAX_SIDE only, `build_grid` for
  meanfield(L), which takes the 1 - DCT-I route.  The meanfield
  kernel's (L+1)^2 mass box and the temporaries of its validation
  peak at 344 MB RSS with the grid at L=4096, so it is built
  after peak_rss_mb is read;
* route_product_s_M{64,340,776}, route_dct_s_M{64,340,776}: for
  L <= DCT_MAX_SIDE only, after peak_rss_mb is read, `laplace_hit` at
  lam = 1 / L^2 on a grid of uniform(M) forced onto each of
  `build_grid`'s two routes: a SpectralGrid built from `_psi_factors`
  at the torus frequencies (the product route, which `build_grid`
  takes while 10 (M/2 + 1) <= L) or from `_psi_dct` (the 1 - DCT-I
  route).  Each grid is built untimed; psi is formed from it on every
  transform, so the times hold each route's per-pass cost.

The second, at L = 8192 and 16384, runs the window path of the
paper's intermediate regime: `cmd_laplace` on one side, uniform M=8,
rho = 0, alpha = 0.5, v = log L and one lam = 1, in a fresh interpreter
that runs the same small `laplace_hit` first.  It measures window_s,
the median of WINDOW_CALLS (3) calls after one untimed warm-up call;
window_rss_mb, the interpreter's peak resident set after them; and
window_peak_mb, the tracemalloc peak of one more call.  A tree that
forms the whole quadrant needs about 1.1 GB of RSS at L = 16384.

The third measures oneshot_laplace_s: the wall time of one fresh
interpreter, from its start to its exit, that runs `cli.main` on the
`laplace` command for meanfield(L) at L = 64 (lams 1 and 2, meanfield
mode), the median of CALLS runs after one untimed run: what a user
pays for one small table, imports included.

Metric names carry the side, as `laplace_hit_s_L4096`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from typing import Callable, NamedTuple

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LAMS = (0.5, 1.0, 2.0)
HEAT_KS = (0.01, 0.1, 1.0)
M = 8
DCT_MAX_SIDE = 4096
ROUTE_MS = (64, 340, 776)  # kernel ranges of the route layers, at L <= DCT_MAX_SIDE
SIDES = (4096, 8192)
WINDOW_SIDES = (8192, 16384)
CALLS = 5  # calls per argument of each spectral layer
ONESHOT_SIDE = 64
ONESHOT_COALESCE_SIDE = 16
WINDOW_CALLS = 3
COALESCE_STARTS = [[8 * i, 8 * i] for i in range(8)]  # the CLI's 8 diagonal starts at L=64


def traced_peak_mb(fn) -> float:
    """The tracemalloc peak of one call of fn, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure_mc_lattice(seed: int) -> dict:
    """The Monte Carlo and lattice layer timings of one tree, in this interpreter."""
    import numpy as np

    from toruswalk.kernels import sample_jumps, uniform_kernel
    from toruswalk.limits import QuadratureError, QuadratureSpec, beta0, lemma21_audit, t_scale
    from toruswalk.mc import SeedSpec, lineage_count_law, simulate_hits
    from toruswalk.spectral import char_fn, condition_report
    from toruswalk.torus import TorusSpec

    k8 = uniform_kernel(8)
    t0 = time.perf_counter()
    batch = simulate_hits(k8, TorusSpec(64), 8192, SeedSpec(seed))
    hits_s = time.perf_counter() - t0

    rng = np.random.default_rng(seed)
    sample_jumps(k8, rng, 4096)
    draw_s = []
    for _ in range(200):
        t0 = time.perf_counter()
        sample_jumps(k8, rng, 4096)
        draw_s.append(time.perf_counter() - t0)

    k128 = uniform_kernel(128)
    probes = np.random.default_rng(0).uniform(-np.pi, np.pi, (4096, 2))
    char_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        char_fn(k128, probes)
        char_s.append(time.perf_counter() - t0)
    q0, quad = uniform_kernel(4), QuadratureSpec(tol=1e-10)
    beta0_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        for c in (0.01, 0.003):
            beta0(c, q0, quad)
        beta0_s.append(time.perf_counter() - t0)
    ladder = [uniform_kernel(M) for M in (8, 32, 128)]

    def conditions():
        condition_report(ladder, delta=0.5, delta_prime=1.0, a=1.0)

    conditions_s = call_times(conditions)

    horizon = 0.5 * 64**2 * t_scale(64, 8)

    def coalesce():
        return lineage_count_law(k8, TorusSpec(64), COALESCE_STARTS, horizon, 500, SeedSpec(seed))

    coalesce_s = statistics.median(call_times(coalesce))
    thetas = np.array([[0.1, 0.0], [0.5, 0.5], [1.0, -2.0], [3.0, 3.0]])

    def beta0_level4096():
        try:
            beta0(0.003, q0, QuadratureSpec(base=4096, max_axis=4096))
        except QuadratureError:  # one level, then the cap
            pass

    return {
        "simulate_hits_s": hits_s,
        "skeleton_ns_per_step": hits_s / int(batch.n_jumps.sum()) * 1e9,
        "sample_jumps_ns_per_draw": min(draw_s) / 4096 * 1e9,
        "char_fn_ns_per_term": min(char_s) / (4096 * k128.n_support) * 1e9,
        "beta0_s": min(beta0_s),
        "conditions_s": statistics.median(conditions_s),
        "coalesce_s": coalesce_s,
        "coalescent_events_per_s": coalesce().events / coalesce_s,
        "char_fn_peak_mb": traced_peak_mb(lambda: char_fn(k128, probes)),
        "conditions_peak_mb": traced_peak_mb(conditions),
        "audit_peak_mb": traced_peak_mb(lambda: lemma21_audit(4096, 16, thetas)),
        "beta0_peak_mb": traced_peak_mb(lambda: [beta0(c, q0, quad) for c in (0.01, 0.003)]),
        "beta0_level4096_peak_mb": traced_peak_mb(beta0_level4096),
    }


def measure_tier1(_: int) -> dict:
    """The wall time of the Tier-1 suite of the tree this interpreter runs in."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        stdout=subprocess.DEVNULL, check=True,
    )
    return {"tier1_s": time.perf_counter() - t0}


def call_times(fn) -> list[float]:
    """Seconds of each of CALLS calls of fn() after one untimed warm-up
    call; each result is dropped at once."""
    fn()
    out = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _cli_run(command: str, L: int, scale: dict):
    """The CLI's run(config) of `command` on uniform M=8 at the one side
    L, with the given scale block, read as the CLI reads it."""
    from toruswalk import cli
    from toruswalk.config import read

    block = {"torus": {"L": [L]}, "kernel": {"family": "uniform", "M": M}, "scale": scale}
    run = cli.COMMANDS[command]
    config = read(run.config, block, command)
    return lambda: run.run(config, None, 1)


def warm_up() -> None:
    """One small hitting transform of the tree's own code, so that no
    timing pays a lazy import or a first call's one-off costs."""
    from toruswalk.kernels import uniform_kernel
    from toruswalk.spectral import build_grid, laplace_hit
    from toruswalk.torus import TorusSpec

    laplace_hit(build_grid(uniform_kernel(M), TorusSpec(64)), 1.0 / 64**2)


def measure_spectral(L: int) -> dict:
    """The spectral layer timings of one tree at side L, in this interpreter."""
    import dataclasses

    warm_up()
    from toruswalk.cli import _sup_gap
    from toruswalk.kernels import meanfield_kernel, uniform_kernel
    import numpy as np

    from toruswalk.spectral import (
        SpectralGrid,
        _psi_dct,
        _psi_factors,
        build_grid,
        laplace_hit,
        uniformity_gap,
    )
    from toruswalk.torus import TWO_PI, Annulus, TorusSpec, _axis_footprint

    kernel, spec = uniform_kernel(M), TorusSpec(L)
    build_s = call_times(lambda: build_grid(kernel, spec))
    grid = build_grid(kernel, spec)
    window = _axis_footprint(Annulus(1.0, math.log(L), L), spec)
    laplace_hit_s, validate_s = [], []
    for lam in LAMS:
        laplace_hit_s += call_times(lambda: _sup_gap(laplace_hit(grid, lam / L**2).quadrant, 0.5, window))
        field = laplace_hit(grid, lam / L**2)
        validate_s += call_times(lambda: dataclasses.replace(field))
        del field  # one field at a time, as in the CLI
    uniformity_gap_s = []
    for k in HEAT_KS:
        uniformity_gap_s += call_times(lambda: uniformity_gap(grid, k * L**2 / M**2))
    del grid
    laplace_cmd = _cli_run("laplace", L, {"lams": list(LAMS), "mode": "finite", "rho": 0})
    uniformity_cmd = _cli_run("uniformity", L, {"k_values": list(HEAT_KS)})
    out = {
        "build_grid_s": statistics.median(build_s),
        "laplace_hit_s": statistics.median(laplace_hit_s),
        "validate_s": statistics.median(validate_s),
        "uniformity_gap_s": statistics.median(uniformity_gap_s),
        "laplace_cmd_s": statistics.median(call_times(laplace_cmd)),
        "uniformity_cmd_s": statistics.median(call_times(uniformity_cmd)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "laplace_peak_mb": traced_peak_mb(laplace_cmd),
        "uniformity_peak_mb": traced_peak_mb(uniformity_cmd),
    }
    if L <= DCT_MAX_SIDE:
        kernel = meanfield_kernel(L)
        out["build_grid_dct_s"] = statistics.median(call_times(lambda: build_grid(kernel, spec)))
        theta = TWO_PI * np.arange(L // 2 + 1) / L
        for m in ROUTE_MS:
            kernel = uniform_kernel(m)
            for route, grid in (
                ("product", SpectralGrid(spec, kernel.label, factors=_psi_factors(kernel, theta, theta))),
                ("dct", SpectralGrid(spec, kernel.label, quadrant=_psi_dct(kernel, spec))),
            ):
                times = call_times(lambda: laplace_hit(grid, 1.0 / L**2))
                out[f"route_{route}_s_M{m}"] = statistics.median(times)
    return out


def measure_window(L: int) -> dict:
    """The window path's time and memory of one tree at side L, in this interpreter."""
    warm_up()
    window = _cli_run("laplace", L, {"lams": [1.0], "mode": "finite", "rho": 0, "alpha": 0.5})
    window()
    times = []
    for _ in range(WINDOW_CALLS):
        t0 = time.perf_counter()
        window()
        times.append(time.perf_counter() - t0)
    return {
        "window_s": statistics.median(times),
        "window_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "window_peak_mb": traced_peak_mb(window),
    }


def oneshot_runs(config: dict) -> list[tuple[float, float]]:
    """(wall seconds, peak RSS in MB) of each of CALLS fresh interpreters
    that run `cli.main` on config, after one untimed run; the wall time
    spans the interpreter's start to its exit, imports included."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        argv = [config["command"], "--config", cfg, "--out", os.path.join(tmp, "out")]
        code = (
            "import resource, sys\nfrom toruswalk.cli import main\n"
            f"code = main({argv!r})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\nsys.exit(code)"
        )
        rss_kb = []

        def run():
            proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True)
            rss_kb.append(int(proc.stdout.split()[-1]))

        times = call_times(run)
        return [(t, kb / 1024.0) for t, kb in zip(times, rss_kb[1:])]


def measure_oneshot(L: int) -> dict:
    """The wall time of one fresh interpreter that writes the meanfield
    `laplace` table at side L, imports included."""
    runs = oneshot_runs(
        {
            "command": "laplace",
            "torus": {"L": [L]},
            "kernel": {"family": "meanfield"},
            "scale": {"lams": [1.0, 2.0], "mode": "meanfield"},
        }
    )
    return {"oneshot_laplace_s": statistics.median(t for t, _ in runs)}


def measure_oneshot_coalesce(L: int) -> dict:
    """The wall time and peak RSS of one fresh interpreter that writes
    the small `coalesce` table at side L, imports included."""
    runs = oneshot_runs(
        {
            "command": "coalesce",
            "torus": {"L": [L]},
            "kernel": {"family": "uniform", "M": 2},
            "scale": {"s_values": [0.5], "n": 3},
            "mc": {"replicates": 200, "seed": 1},
        }
    )
    return {
        "oneshot_coalesce_s": statistics.median(t for t, _ in runs),
        "oneshot_coalesce_rss_mb": statistics.median(mb for _, mb in runs),
    }


MEASURES = {
    "mc-lattice": measure_mc_lattice,
    "tier1": measure_tier1,
    "spectral-large": measure_spectral,
    "spectral-window": measure_window,
    "oneshot": measure_oneshot,
    "oneshot-coalesce": measure_oneshot_coalesce,
}


class Suite(NamedTuple):
    """variants(repeat) lists the children of one repeat as (measure,
    argument, metric-name suffix); units covers every key they return."""

    variants: Callable[[int], list[tuple[str, int, str]]]
    units: dict[str, str]
    fields: dict


SUITES = {
    "mc-lattice": Suite(
        variants=lambda r: [
            ("mc-lattice", r + 1, ""),
            ("oneshot-coalesce", ONESHOT_COALESCE_SIDE, ""),
            ("tier1", 0, ""),
        ],
        units={
            "simulate_hits_s": "s",
            "skeleton_ns_per_step": "ns/step",
            "sample_jumps_ns_per_draw": "ns/draw",
            "char_fn_ns_per_term": "ns/term",
            "beta0_s": "s",
            "conditions_s": "s",
            "coalesce_s": "s",
            "coalescent_events_per_s": "1/s",
            "char_fn_peak_mb": "MB",
            "conditions_peak_mb": "MB",
            "audit_peak_mb": "MB",
            "beta0_peak_mb": "MB",
            "beta0_level4096_peak_mb": "MB",
            "oneshot_coalesce_s": "s",
            "oneshot_coalesce_rss_mb": "MB",
            "tier1_s": "s",
        },
        fields={
            "oneshot_coalesce": f"a fresh interpreter's cli.main coalesce, uniform(2), L = {ONESHOT_COALESCE_SIDE}, "
            "n = 3, s = 0.5, 200 replicates",
        },
    ),
    "spectral-large": Suite(
        variants=lambda r: [("spectral-large", L, f"_L{L}") for L in SIDES]
        + [("spectral-window", L, f"_L{L}") for L in WINDOW_SIDES]
        + [("oneshot", ONESHOT_SIDE, "")],
        units={
            "build_grid_s": "s",
            "laplace_hit_s": "s",
            "validate_s": "s",
            "uniformity_gap_s": "s",
            "laplace_cmd_s": "s",
            "uniformity_cmd_s": "s",
            "peak_rss_mb": "MB",
            "laplace_peak_mb": "MB",
            "uniformity_peak_mb": "MB",
            "build_grid_dct_s": "s",
            **{f"route_{route}_s_M{m}": "s" for route in ("product", "dct") for m in ROUTE_MS},
            "window_s": "s",
            "window_rss_mb": "MB",
            "window_peak_mb": "MB",
            "oneshot_laplace_s": "s",
        },
        fields={
            "kernel": f"uniform(M={M})",
            "dct_kernel": f"meanfield(L), L <= {DCT_MAX_SIDE}",
            "route_kernels": f"uniform(M), M in {list(ROUTE_MS)}, L <= {DCT_MAX_SIDE}, lam = 1 / L^2",
            "lams": [f"{lam:g} / L^2" for lam in LAMS],
            "laplace_window": "finite mode, alpha = 1, v = log L",
            "heat_times": [f"{k:g} L^2 / M^2" for k in HEAT_KS],
            "window_path": "cmd_laplace, finite mode, rho = 0, alpha = 0.5, v = log L, lams [1]",
            "oneshot": f"a fresh interpreter's cli.main laplace, meanfield(L = {ONESHOT_SIDE}), lams [1, 2]",
        },
    ),
}


def run_child(tree: str, measure: str, arg: int) -> dict:
    """MEASURES[measure](arg) in a fresh pinned interpreter on the tree's sources."""
    env = {**os.environ, **PINNED, "PYTHONPATH": os.path.join(tree, "src")}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", measure, str(arg)],
        env=env, cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def revision(tree: str) -> str | None:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=tree, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def bench(suite_name: str, trees: dict[str, str], repeats: int) -> dict:
    """The suite's document for trees {name: root}, from repeats interleaved passes."""
    suite = SUITES[suite_name]
    runs = {name: [{} for _ in range(repeats)] for name in trees}
    units = {}
    for r in range(repeats):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for measure, arg, suffix in suite.variants(r):
            for name in order:
                out = run_child(os.path.abspath(trees[name]), measure, arg)
                for key, value in out.items():
                    units[key + suffix] = suite.units[key]
                    runs[name][r][key + suffix] = value
                print(f"repeat {r + 1} {measure} {arg} {name}: {out}", file=sys.stderr)
    return {
        "harness": "tools/bench_layers.py",
        "suite": suite_name,
        "repeats": repeats,
        **suite.fields,
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
        },
        "trees": {
            name: {
                "revision": revision(os.path.abspath(tree)),
                "metrics": {
                    key: {"unit": units[key], **summary([run[key] for run in runs[name]])}
                    for key in runs[name][0]
                },
            }
            for name, tree in trees.items()
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("trees", nargs="*", metavar="NAME=TREE")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2: the quartiles need two runs")
    doc = bench(args.suite, dict(t.split("=", 1) for t in args.trees), args.repeats)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(MEASURES[sys.argv[2]](int(sys.argv[3]))))
    else:
        main()
