"""Interleaved before/after medians for the spectral layers of spectral-large.

    python tools/bench_spectral.py NAME=TREE [NAME=TREE ...] [--repeats 5] [--sides 4096 8192] [--out FILE]

Each TREE is the root of a toruswalk source checkout (for example a
`git clone` of the parent commit, and `.`).  Every repeat runs, per
side L, one fresh interpreter per tree, in alternating tree order, with
PYTHONPATH=TREE/src and BLAS pinned to one thread.  Each interpreter
imports scipy.fft first (so no timing below pays a lazy import), builds
one grid (uniform M=8) on the torus of side L, runs three resolvent
inverses, three heat inverses and three uniformity gaps on it, and
measures:

* build_grid_s: the `build_grid` call (the product route);
* inverse_s: the median of the three `green` calls (lam = 0.5, 1, 2
  over L^2), validation included;
* validate_s: the median of three `dataclasses.replace` calls on the
  returned field, which rerun its validation alone;
* heat_inverse_s: the median of the three `heat` calls at the times of
  the `uniformity` table, k L^2 / M^2 for k = 0.01, 0.1 and 1;
* uniformity_gap_s: the median of the three `uniformity_gap` calls at
  the same times;
* peak_rss_mb: the interpreter's peak resident set, import included;
* build_grid_dct_s: for L <= DCT_MAX_SIDE only, the `build_grid` call
  for meanfield(L), which takes the 1 - DCT-I route.  The meanfield
  kernel holds all L^2 torus points as its support (about 1 GB at
  L=4096, 4 GB at 8192), so it is built after peak_rss_mb is read.

Metric names carry the side, as `inverse_s_L4096`.  The output is one
JSON document: per tree and metric, the median, the quartiles and every
run.  Only the standard library and the tree's own dependencies are used;
the pinning, the summary and the revision come from bench_mc_lattice.py.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from bench_mc_lattice import PINNED, revision, summary

UNITS = {
    "build_grid_s": "s",
    "inverse_s": "s",
    "validate_s": "s",
    "heat_inverse_s": "s",
    "uniformity_gap_s": "s",
    "peak_rss_mb": "MB",
    "build_grid_dct_s": "s",
}
LAMS = (0.5, 1.0, 2.0)
HEAT_KS = (0.01, 0.1, 1.0)
M = 8
DCT_MAX_SIDE = 4096


def measure_layers(L: int) -> dict:
    """The spectral layer timings of one tree at side L, in this interpreter."""
    import dataclasses

    import scipy.fft  # noqa: F401  (imported up front, so no timing pays it)

    from toruswalk.kernels import meanfield_kernel, uniform_kernel
    from toruswalk.spectral import build_grid, green, heat, uniformity_gap
    from toruswalk.torus import TorusSpec

    kernel, spec = uniform_kernel(M), TorusSpec(L)
    t0 = time.perf_counter()
    grid = build_grid(kernel, spec)
    build_s = time.perf_counter() - t0
    inverse_s, validate_s = [], []
    for lam in LAMS:
        t0 = time.perf_counter()
        field = green(grid, lam / L**2)
        inverse_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        dataclasses.replace(field)
        validate_s.append(time.perf_counter() - t0)
        del field  # one field at a time, as in the CLI
    heat_inverse_s = []
    for k in HEAT_KS:
        t0 = time.perf_counter()
        field = heat(grid, k * L**2 / M**2)
        heat_inverse_s.append(time.perf_counter() - t0)
        del field
    uniformity_gap_s = []
    for k in HEAT_KS:
        t0 = time.perf_counter()
        uniformity_gap(grid, k * L**2 / M**2)
        uniformity_gap_s.append(time.perf_counter() - t0)
    out = {
        "build_grid_s": build_s,
        "inverse_s": statistics.median(inverse_s),
        "validate_s": statistics.median(validate_s),
        "heat_inverse_s": statistics.median(heat_inverse_s),
        "uniformity_gap_s": statistics.median(uniformity_gap_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if L <= DCT_MAX_SIDE:
        kernel = meanfield_kernel(L)
        t0 = time.perf_counter()
        build_grid(kernel, spec)
        out["build_grid_dct_s"] = time.perf_counter() - t0
    return out


def run_tree(tree: str, L: int) -> dict:
    env = {**os.environ, **PINNED, "PYTHONPATH": os.path.join(tree, "src")}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--layers", str(L)],
        env=env, cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {f"{key}_L{L}": value for key, value in out.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="NAME=TREE")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sides", type=int, nargs="+", default=[4096, 8192])
    parser.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    parser.add_argument("--layers", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.layers is not None:
        print(json.dumps(measure_layers(args.layers)))
        return
    trees = dict(t.split("=", 1) for t in args.trees)
    runs = {name: [{} for _ in range(args.repeats)] for name in trees}
    for r in range(args.repeats):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for L in args.sides:
            for name in order:
                result = run_tree(os.path.abspath(trees[name]), L)
                runs[name][r].update(result)
                print(f"repeat {r + 1} L={L} {name}: {result}", file=sys.stderr)
    doc = {
        "harness": "tools/bench_spectral.py",
        "repeats": args.repeats,
        "kernel": f"uniform(M={M})",
        "dct_kernel": f"meanfield(L), L <= {DCT_MAX_SIDE}",
        "lams": [f"{lam:g} / L^2" for lam in LAMS],
        "heat_times": [f"{k:g} L^2 / M^2" for k in HEAT_KS],
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
        },
        "trees": {
            name: {
                "revision": revision(os.path.abspath(tree)),
                "metrics": {
                    key: {"unit": UNITS[key.rsplit("_L", 1)[0]], **summary([run[key] for run in runs[name]])}
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
