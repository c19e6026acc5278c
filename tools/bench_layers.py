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

mc-lattice runs two variants per repeat.  The first measures:

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
* char_fn_peak_mb, conditions_peak_mb, audit_peak_mb, beta0_peak_mb:
  the tracemalloc peak, in MB, of one more `char_fn(uniform M=128,
  4096 probes)` call, of one more `condition_report` on the ladder, of
  `lemma21_audit` on the mc-lattice config (K=4096, J=16, 4 thetas),
  and of the beta0 pair, each traced alone after the timed calls.

The second times the tree's Tier-1 suite:

* tier1_s: `python -m pytest -q` from the tree's root.

spectral-large runs one variant per side L = 4096 and 8192.  Each
imports scipy.fft first (so no timing below pays a lazy import), builds
one grid (uniform M=8) on the torus of side L, runs the CLI's hitting
transforms and uniformity gaps on it, and measures the following.
Every layer is timed as the median of CALLS (5) calls per argument,
after one untimed warm-up call, so that a 10% change stands out of the
machine's jitter and no timing pays a first call's one-off costs; a
call's result is dropped before the next call starts.

* build_grid_s: `build_grid` (the product route);
* laplace_hit_s: `laplace_hit` plus the CLI's sup of |F - target|
  over the start window of `laplace`'s finite mode (alpha = 1,
  v = log L), the CLI's work per lam, at lam = 0.5, 1 and 2 over L^2;
  the window's footprint is built once per side, as in the CLI;
* validate_s: `dataclasses.replace` on each lam's `laplace_hit` field,
  which reruns its validation alone;
* uniformity_gap_s: `uniformity_gap` at the times of the `uniformity`
  table, k L^2 / M^2 for k = 0.01, 0.1 and 1;
* peak_rss_mb: the interpreter's peak resident set, import included;
* build_grid_dct_s: for L <= DCT_MAX_SIDE only, `build_grid` for
  meanfield(L), which takes the 1 - DCT-I route.  The meanfield
  kernel's (L+1)^2 mass box and the temporaries of its validation
  peak at 344 MB RSS with the grid at L=4096, so it is built
  after peak_rss_mb is read.

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
SIDES = (4096, 8192)
CALLS = 5  # calls per argument of each spectral layer


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
    from toruswalk.limits import QuadratureSpec, beta0, lemma21_audit
    from toruswalk.mc import SeedSpec, simulate_hits
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
    thetas = np.array([[0.1, 0.0], [0.5, 0.5], [1.0, -2.0], [3.0, 3.0]])
    return {
        "simulate_hits_s": hits_s,
        "skeleton_ns_per_step": hits_s / int(batch.n_jumps.sum()) * 1e9,
        "sample_jumps_ns_per_draw": min(draw_s) / 4096 * 1e9,
        "char_fn_ns_per_term": min(char_s) / (4096 * k128.n_support) * 1e9,
        "beta0_s": min(beta0_s),
        "conditions_s": statistics.median(conditions_s),
        "char_fn_peak_mb": traced_peak_mb(lambda: char_fn(k128, probes)),
        "conditions_peak_mb": traced_peak_mb(conditions),
        "audit_peak_mb": traced_peak_mb(lambda: lemma21_audit(4096, 16, thetas)),
        "beta0_peak_mb": traced_peak_mb(lambda: [beta0(c, q0, quad) for c in (0.01, 0.003)]),
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


def measure_spectral(L: int) -> dict:
    """The spectral layer timings of one tree at side L, in this interpreter."""
    import dataclasses

    import scipy.fft  # noqa: F401  (imported up front, so no timing pays it)

    from toruswalk.cli import _sup_gap
    from toruswalk.kernels import meanfield_kernel, uniform_kernel
    from toruswalk.spectral import build_grid, laplace_hit, uniformity_gap
    from toruswalk.torus import Annulus, TorusSpec, _axis_footprint

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
    out = {
        "build_grid_s": statistics.median(build_s),
        "laplace_hit_s": statistics.median(laplace_hit_s),
        "validate_s": statistics.median(validate_s),
        "uniformity_gap_s": statistics.median(uniformity_gap_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if L <= DCT_MAX_SIDE:
        del grid
        kernel = meanfield_kernel(L)
        out["build_grid_dct_s"] = statistics.median(call_times(lambda: build_grid(kernel, spec)))
    return out


MEASURES = {"mc-lattice": measure_mc_lattice, "tier1": measure_tier1, "spectral-large": measure_spectral}


class Suite(NamedTuple):
    """variants(repeat) lists the children of one repeat as (measure,
    argument, metric-name suffix); units covers every key they return."""

    variants: Callable[[int], list[tuple[str, int, str]]]
    units: dict[str, str]
    fields: dict


SUITES = {
    "mc-lattice": Suite(
        variants=lambda r: [("mc-lattice", r + 1, ""), ("tier1", 0, "")],
        units={
            "simulate_hits_s": "s",
            "skeleton_ns_per_step": "ns/step",
            "sample_jumps_ns_per_draw": "ns/draw",
            "char_fn_ns_per_term": "ns/term",
            "beta0_s": "s",
            "conditions_s": "s",
            "char_fn_peak_mb": "MB",
            "conditions_peak_mb": "MB",
            "audit_peak_mb": "MB",
            "beta0_peak_mb": "MB",
            "tier1_s": "s",
        },
        fields={},
    ),
    "spectral-large": Suite(
        variants=lambda r: [("spectral-large", L, f"_L{L}") for L in SIDES],
        units={
            "build_grid_s": "s",
            "laplace_hit_s": "s",
            "validate_s": "s",
            "uniformity_gap_s": "s",
            "peak_rss_mb": "MB",
            "build_grid_dct_s": "s",
        },
        fields={
            "kernel": f"uniform(M={M})",
            "dct_kernel": f"meanfield(L), L <= {DCT_MAX_SIDE}",
            "lams": [f"{lam:g} / L^2" for lam in LAMS],
            "laplace_window": "finite mode, alpha = 1, v = log L",
            "heat_times": [f"{k:g} L^2 / M^2" for k in HEAT_KS],
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
