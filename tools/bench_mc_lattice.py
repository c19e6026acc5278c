"""Interleaved before/after medians for the Monte Carlo layers of mc-lattice.

    python tools/bench_mc_lattice.py NAME=TREE [NAME=TREE ...] [--repeats 5] [--tier1] [--out FILE]

Each TREE is the root of a toruswalk source checkout (for example a
`git clone` of the parent commit, and `.`).  Every repeat runs one fresh
interpreter per tree, in alternating order, with PYTHONPATH=TREE/src and
BLAS pinned to one thread, and each measures:

* simulate_hits_s: `simulate_hits` on the mc-lattice config (uniform
  M=8, L=64, 8192 replicates, seed = repeat + 1);
* skeleton_ns_per_step: that time over the skeleton steps (sum of
  n_jumps), as the benchmark tracer's `mc.hits.ns_per_step`;
* sample_jumps_ns_per_draw: `sample_jumps(uniform M=8, 4096)`, best of
  200 calls after a warm-up call;
* char_fn_ns_per_term: `char_fn(uniform M=128, 4096 probes)`, best of 3
  calls, over probes x support.

With --tier1, each repeat also times the tree's Tier-1 suite
(`python -m pytest -q` from the tree's root).  The output is one JSON
document: per tree and metric, the median, the quartiles and every run.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {
    "simulate_hits_s": "s",
    "skeleton_ns_per_step": "ns/step",
    "sample_jumps_ns_per_draw": "ns/draw",
    "char_fn_ns_per_term": "ns/term",
    "tier1_s": "s",
}


def measure_layers(seed: int) -> dict:
    """The layer timings of one tree, in this interpreter."""
    import numpy as np

    from toruswalk.kernels import sample_jumps, uniform_kernel
    from toruswalk.mc import SeedSpec, simulate_hits
    from toruswalk.spectral import char_fn
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
    return {
        "simulate_hits_s": hits_s,
        "skeleton_ns_per_step": hits_s / int(batch.n_jumps.sum()) * 1e9,
        "sample_jumps_ns_per_draw": min(draw_s) / 4096 * 1e9,
        "char_fn_ns_per_term": min(char_s) / (4096 * k128.n_support) * 1e9,
    }


def run_tree(tree: str, seed: int, tier1: bool) -> dict:
    env = {**os.environ, **PINNED, "PYTHONPATH": os.path.join(tree, "src")}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--layers", str(seed)],
        env=env, cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if tier1:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
            env=env, cwd=tree, stdout=subprocess.DEVNULL, check=True,
        )
        out["tier1_s"] = time.perf_counter() - t0
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def revision(tree: str) -> str | None:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=tree, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="NAME=TREE")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tier1", action="store_true", help="also time each tree's Tier-1 suite")
    parser.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    parser.add_argument("--layers", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.layers is not None:
        print(json.dumps(measure_layers(args.layers)))
        return
    trees = dict(t.split("=", 1) for t in args.trees)
    runs = {name: [] for name in trees}
    for r in range(args.repeats):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for name in order:
            runs[name].append(run_tree(os.path.abspath(trees[name]), r + 1, args.tier1))
            print(f"repeat {r + 1} {name}: {runs[name][-1]}", file=sys.stderr)
    doc = {
        "harness": "tools/bench_mc_lattice.py",
        "repeats": args.repeats,
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "trees": {
            name: {
                "revision": revision(os.path.abspath(tree)),
                "metrics": {
                    key: {"unit": UNITS[key], **summary([run[key] for run in runs[name]])}
                    for key in runs[name][0]
                },
            }
            for name, tree in trees.items()
        },
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
