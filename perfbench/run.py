"""toruswalk benchmark launcher.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each run starts fresh
interpreters: SETUP_REPEATS `worker.py setup` processes give `setup_s`
(median), then one `worker.py run` process runs the workload's CLI
commands pass after pass for about `--seconds` and checks every table.  With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1`, with its
per-layer metrics from traced passes.  The lines before it are a
human-readable report.

Every child runs with OpenBLAS, OpenMP and MKL pinned to one thread and
the CLI's `--workers 1`: the workloads are a closed loop of one client on
one core.  Scaling with `--workers` is not measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
TIME_LIMIT_S = 175  # a run must end within 180 s

# The end-to-end metrics per table, printed in the report.  Each exists on
# one workload only, so they stay out of BENCHMARK.json, whose metrics
# every workload must report.
TABLE_METRICS = (
    ("laplace_s", "laplace"),
    ("uniformity_s", "uniformity"),
    ("hits_per_s", "simulate"),
    ("coalesce_reps_per_s", "coalesce"),
    ("conditions_s", "conditions"),
    ("audit_s", "audit"),
    ("beta0_s", "beta0"),
)


def child(args: list[str], timeout: float) -> dict:
    """Run worker.py with pinned threads; return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env={**os.environ, **PINNED_THREADS},
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed: int, seconds: int, trace: bool) -> tuple[dict, list[dict]]:
    started = time.monotonic()
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=workload.name + "-", dir=os.path.join(ROOT, ".bench_run"))
    try:
        write_configs(workload.commands, run_dir)
        setups = [
            child(["setup", workload.name, run_dir], timeout=30)
            for _ in range(SETUP_REPEATS)
        ]
        left = TIME_LIMIT_S - (time.monotonic() - started)
        result = child(
            ["run", workload.name, run_dir, str(seed), str(seconds), "1" if trace else "0"],
            timeout=left,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.join(ROOT, ".bench_run"))
    return result, setups


def median_of(setups: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in setups)


def metric_values(result: dict, setups: list[dict], trace: bool) -> dict[str, float]:
    if trace:
        return {
            **result["layers"],
            "setup.import_s": median_of(setups, "import_s"),
            "config.load_s": median_of(setups, "load_s"),
            "kernels.build_s": median_of(setups, "build_s"),
        }
    return {
        "wall_s": result["wall_s"],
        "setup_s": median_of(setups, "setup_s"),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(workload, seed: int, result: dict, metrics: dict, trace: bool) -> None:
    """Print the human-readable part of the output."""
    note = "" if workload.seeded else " (ignored: deterministic workload)"
    print(f"workload {workload.name}, seed {seed}{note}")
    print(f"  {workload.why}")
    walls = ", ".join(f"{w:.3f}" for w in result["walls"])
    pinned = ", ".join(f"{k}={v}" for k, v in PINNED_THREADS.items())
    print(f"  untraced passes of {walls} s; --workers 1, {pinned}")
    for line in result["failed"]:
        print(f"  FAILED {line}")
    if trace:
        print(f"  spans of the last of {result['traced_passes']} traced passes:")
        print(f"  {'span':40s} {'calls':>10s} {'inclusive_s':>14s} {'self_s':>14s}")
        for name, (calls, total, own) in sorted(result["spans"].items()):
            print(f"  {name:40s} {calls:10d} {total:14.6g} {own:14.6g}")
        print("  per-layer metrics, medians over the traced passes:")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    if trace:
        return
    attempted, failed = result["attempted"], len(result["failed"])
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ({failed} of {attempted} operations)")
    commands = {c.name: c for c in workload.commands}
    for name, command in TABLE_METRICS:
        if command not in commands:
            print(f"  {name:40s} {'n/a':>14s} ({command} is not in this workload)")
        elif name.endswith("_per_s"):
            reps = commands[command].config["mc"]["replicates"]
            print(f"  {name:40s} {reps / result['cmd_s'][command]:14.6g} 1/s")
        else:
            print(f"  {name:40s} {result['cmd_s'][command]:14.6g} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="toruswalk benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        parser.error("--seed must lie in [0, 2**64) and --seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "toruswalk", "cli.py")):
        print(f"no toruswalk source tree under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    workload = WORKLOADS[args.workload]
    trace = args.trace == 1
    try:
        result, setups = measure(workload, args.seed, args.seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    values = metric_values(result, setups, trace)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    report(workload, args.seed, result, metrics, trace)
    failed = len(result["failed"])
    line = {"correct": failed == 0, "attempted": result["attempted"], "failed": failed}
    print(json.dumps({**line, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
