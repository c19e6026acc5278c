"""One measured process of the benchmark; started by run.py, never directly.

    worker.py setup <workload> <run_dir>
        Time `import toruswalk.cli`, loading the first command's config and
        building its kernels in this fresh interpreter: what a CLI user pays
        before the first layer call.

    worker.py run <workload> <run_dir> <seed> <seconds> <trace>
        Run the workload's command sequence through `toruswalk.cli.main`,
        pass after pass, for about `seconds` in all; check every pass's
        tables.  With trace 1, untraced and traced passes alternate and the
        traced ones yield the per-layer numbers.

Either mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

from checks import Checks, load_reference
from tracer import MAIN, Tracer
from workloads import WORKLOADS, cli_argv, config_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_toruswalk():
    """Import the package from this checkout's source tree, nowhere else."""
    sys.path.insert(0, SRC)
    import toruswalk
    import toruswalk.cli

    if not os.path.abspath(toruswalk.__file__).startswith(SRC + os.sep):
        raise ImportError(f"toruswalk imported from {toruswalk.__file__}, not {SRC}")
    return toruswalk


def setup(workload, run_dir: str) -> dict:
    t0 = perf_counter()
    tw = import_toruswalk()
    t1 = perf_counter()
    first = workload.commands[0]
    cfg = tw.cli.load_config(config_path(run_dir, first))
    t2 = perf_counter()
    # Every workload's first command uses uniform kernels: one range, or
    # the `conditions` ladder.
    for M in cfg.get("M_values") or [cfg["kernel"]["M"]]:
        tw.uniform_kernel(M)
    t3 = perf_counter()
    return {"import_s": t1 - t0, "load_s": t2 - t1, "build_s": t3 - t2, "setup_s": t3 - t0}


def run_pass(tw, workload, run_dir, out_dir, seed, checks, reference, tracer=None):
    """Run the command sequence once; return its wall time and per-command times."""
    times = {}
    start = perf_counter()
    for command in workload.commands:
        argv = cli_argv(command, run_dir, out_dir, seed)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                if tracer is None:
                    code = tw.cli.main(argv)
                else:
                    code = tracer.call(MAIN, tw.cli.main, (argv,))
        except Exception:  # a crash is a failed operation, reported, not fatal
            traceback.print_exc()
            code = None
        times[command.name] = perf_counter() - t0
        checks.add(f"{command.name}.exit", code == 0, f"exit code {code}")
    wall = perf_counter() - start
    for command in workload.commands:
        checks.table(command, out_dir, reference)
    return wall, times


def run(workload, run_dir: str, seed: int, seconds: float, trace: bool) -> dict:
    tw = import_toruswalk()
    reference = load_reference()
    checks = Checks()
    walls, cmd_times, traced_walls, layers, durations = [], [], [], [], []
    start = perf_counter()
    k = 0
    # Start another pass while its expected midpoint lies before the end of
    # the run, so that a run lasts `seconds` on average, not `seconds` plus
    # most of a pass.
    while (
        k == 0
        or (trace and not layers)
        or perf_counter() - start + statistics.median(durations) / 2 < seconds
    ):
        began = perf_counter()
        out_dir = os.path.join(run_dir, f"pass{k}")
        if trace and k % 2 == 1:
            tracer = Tracer()
            tracer.install(tw)
            try:
                wall, _ = run_pass(tw, workload, run_dir, out_dir, seed, checks, reference, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall - tracer.validation_s)
            layers.append(tracer.layer_metrics(wall))
            total, own, calls = tracer.span_table()
            spans = {name: [calls[name], total[name], own[name]] for name in calls}
        else:
            wall, times = run_pass(tw, workload, run_dir, out_dir, seed, checks, reference)
            walls.append(wall)
            cmd_times.append(times)
        durations.append(perf_counter() - began)
        k += 1
    laplace = next((c for c in workload.commands if c.name == "laplace"), None)
    if laplace is not None:
        checks.oracle(tw, laplace.config["scale"]["lams"])

    result = {
        "walls": walls,
        "wall_s": statistics.median(walls),
        "cmd_s": {
            c.name: statistics.median(t[c.name] for t in cmd_times) for c in workload.commands
        },
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": len(checks.results),
        "failed": [f"{name}: {detail}" for name, _, detail in checks.failed],
    }
    if trace:
        layer = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        untraced = result["wall_s"]
        layer["trace.overhead_frac"] = (statistics.median(traced_walls) - untraced) / untraced
        grid_mb = layer["spectral.grid_mb"]
        layer["spectral.rss_over_grid"] = result["peak_rss_mb"] / grid_mb if grid_mb else 0.0
        result["layers"] = layer
        result["traced_passes"] = len(layers)
        result["spans"] = spans  # of the last traced pass
    return result


def main(argv: list[str]) -> int:
    mode, name, run_dir, *rest = argv
    workload = WORKLOADS[name]
    if mode == "setup":
        result = setup(workload, run_dir)
    else:
        seed, seconds, trace = int(rest[0]), float(rest[1]), rest[2] == "1"
        result = run(workload, run_dir, seed, seconds, trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
