"""Batch experiment runner.

Usage: toruswalk <command> --config <path> [--seed N] [--workers N] [--out DIR]

Every command reads one JSON config, computes a table, and writes
<out>/<basename>.csv plus <out>/<basename>.meta.json.  CSV bodies are
a pure function of (config, seed, workers-independent streams): floats
are printed with 17 significant digits and no timestamps, so re-runs
are byte-identical; timing and provenance live in the metadata file.

Each command declares its config blocks as frozen dataclasses next to
its cmd_* function, filled by `config.read`.  Every rule is checked
before the first numeric call.  A block's __post_init__ holds the rules
no library object owns (the keys a mode takes, a ladder's repeated
values), and restates a library rule only where the library checks it
too late: LaplaceScale's lam > 0, SimulateScale's lam >= 0 and
Beta0Config's c in (0, 1] are checked by the library only at the
transform, after the simulation or at the quadrature of each value.
The rest are left to the library constructors, which run for every
torus, kernel, seed and start region up front, and to the time rule
(torus._check_time), which each command's pre-pass applies to every
time it forms from the config.  coalesce's pre-pass also forms every
cell's pure-death target, after the time rule, so a target that is not
finite fails before the first simulation; lemma21_audit checks every
theta before its first sum.

Each command is one row of COMMANDS: the cmd_* function that returns
its rows and resolved metadata, its config dataclass, its CSV columns
and its help, which `toruswalk --help` prints with the columns.

Exit codes: 0 success, 2 config error (also an input that needs more
memory than the machine has), 3 numeric failure (quadrature
non-convergence, or an exact value that fails its own checks), 4
step-cap abort.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, KernelPlan, load_config, read
from .kernels import JumpKernel
from .limits import (
    QuadratureError,
    QuadratureSpec,
    RegimeParams,
    RING_LOG2_LIMIT,
    TWO_PI,
    beta,
    beta0,
    death_process_dist,
    lemma21_audit,
    t_scale,
    target_laplace,
)
from .mc import (
    DEFAULT_CHUNK,
    DEFAULT_STEP_CAP,
    PAIR_CLOCK,
    SeedSpec,
    StepCapExceeded,
    estimate_laplace,
    lineage_count_law,
    lineage_starts,
    simulate_hits,
)
from .spectral import (
    N_ANGLES,
    N_RADII,
    build_grid,
    condition_report,
    green_at_origin,
    laplace_hit,
    uniformity_gap,
)
from .torus import Annulus, TorusSpec, _axis_footprint, _check_time, region_size, wrap
from .torus import enumerate_region, index_of  # noqa: F401  (wrapped by perfbench/tracer.py)


# ---------------------------------------------------------------------------
# blocks shared by several commands


def _refuse_repeats(key: str, values: tuple) -> None:
    """Refuse a ladder that lists a value twice: `resolved` keys its
    cells by value, so a repeated cell would overwrite the first."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"'{key}' lists {value!r} more than once")


@dataclass(frozen=True)
class Torus:
    """The `torus` block: the table has one section per side L."""

    L: tuple[int, ...]

    def __post_init__(self) -> None:
        _refuse_repeats("L", self.L)


@dataclass(frozen=True)
class MonteCarlo:
    """The `mc` block of simulate and coalesce."""

    replicates: int
    seed: int = 0
    chunk_size: int = DEFAULT_CHUNK
    step_cap: int = DEFAULT_STEP_CAP

    def __post_init__(self) -> None:
        if self.replicates < 2:
            raise ValueError(f"'replicates' must be >= 2, got {self.replicates}")
        if self.chunk_size < 1 or self.step_cap < 1:
            raise ValueError("'chunk_size' and 'step_cap' must be positive")
        SeedSpec(self.seed)  # a config seed must be valid even where --seed overrides it

    def seeds(self, flag_seed: int | None) -> SeedSpec:
        return SeedSpec(self.seed if flag_seed is None else flag_seed)


@dataclass(frozen=True)
class TorusRun:
    """The `torus` and `kernel` blocks of the commands that run on tori."""

    torus: Torus
    kernel: KernelPlan

    def tori(self) -> list[tuple[TorusSpec, JumpKernel]]:
        """The torus and kernel of each side, built (and so checked) up front."""
        return [(TorusSpec(L), self.kernel.build(L)) for L in self.torus.L]


@dataclass(frozen=True)
class Output:
    """The optional `output` block: basename of the CSV and metadata files."""

    basename: str | None = None

    def __post_init__(self) -> None:
        if self.basename is not None and (not self.basename or os.sep in self.basename):
            raise ValueError("'basename' must be a plain file name")


def _kernel_sigma2(kernel: JumpKernel, plan: KernelPlan) -> float:
    """Normalized variance for scaling targets.

    A range derived from L (M_exponent) is a genuine growing-range
    ladder, so the family's limiting variance applies; a fixed M means
    the same kernel at every L, whose actual normalized variance is
    sigma2_M / M^2 (the fixed-kernel reading of the scaling clock).
    """
    if plan.M_exponent is not None and kernel.sigma2_limit is not None:
        return kernel.sigma2_limit
    return kernel.sigma2_M / kernel.M**2


# ---------------------------------------------------------------------------
# laplace


@dataclass(frozen=True)
class LaplaceScale:
    lams: tuple[float, ...]
    mode: str
    rho: float | None = None
    alpha: float | None = None
    v_exponent: float | None = None

    def __post_init__(self) -> None:
        if any(lam <= 0 for lam in self.lams):
            raise ValueError("lams must be positive")
        if self.mode == "meanfield":
            extra = [k for k in ("rho", "alpha", "v_exponent") if getattr(self, k) is not None]
            if extra:
                raise ValueError(
                    f"key(s) {extra} are inconsistent with meanfield mode "
                    "(the homogeneous limit has no start-scale or rho)"
                )
        elif self.mode != "finite":
            raise ValueError(f"'mode' must be 'meanfield' or 'finite', got {self.mode!r}")
        elif self.rho is None:
            raise ValueError("finite mode requires 'rho'")
        elif self.v_exponent is not None and self.v_exponent <= 0:
            raise ValueError("'v_exponent' must be positive")

    def window(self, L: int) -> float:
        """The annulus window v = (log L)^v_exponent of finite mode."""
        v_exp = 1.0 if self.v_exponent is None else self.v_exponent
        try:
            return math.log(L) ** v_exp
        except OverflowError:
            raise ValueError(f"annulus window (log {L})^{v_exp:g} overflows a float") from None


@dataclass(frozen=True)
class LaplaceConfig(TorusRun):
    scale: LaplaceScale


def _sup_gap(F: np.ndarray, target: float, window: tuple[int, int]) -> float:
    """max |F(x) - target| over the starts x, on the quadrant: F is even
    in each coordinate, and window = (A, p) is the starts' footprint
    (torus._axis_footprint), rows and columns 0..A minus the (0..p-1)^2
    corner: the blocks F[p:A+1, :A+1] and F[:p, p:A+1].

    max and min are exact, so reducing the two views equals the masked
    reduction bit for bit; rounding is monotone, so this is
    max(max F - target, target - min F), with no temporary as large as F.
    """
    A, p = window
    blocks = (F[p : A + 1, : A + 1], F[:p, p : A + 1])
    hi = max(float(np.max(b, initial=-np.inf)) for b in blocks)
    lo = min(float(np.min(b, initial=np.inf)) for b in blocks)
    return max(hi - target, target - lo, 0.0)


def cmd_laplace(run: LaplaceConfig, seed: int | None, workers: int) -> tuple[list[tuple], dict]:
    scale, plan = run.scale, run.kernel
    meanfield = scale.mode == "meanfield"
    alpha = 1.0 if scale.alpha is None else scale.alpha
    sections = []
    regions = {}
    for spec, kernel in run.tori():
        params = RegimeParams(
            rho=math.inf if meanfield else scale.rho,
            sigma2=_kernel_sigma2(kernel, plan),
            alpha=alpha,
        )
        if meanfield:
            region = Annulus(0.0, float(spec.L), spec.L)  # the punctured torus
        else:
            region = Annulus(alpha, scale.window(spec.L), spec.L)
        window = _axis_footprint(region, spec)
        size = region_size(region)
        if size == 0:
            raise ConfigError(f"{region} contains no lattice points; pick a larger L or smaller alpha")
        regions[str(spec.L)] = size
        sections.append((spec, kernel, params, window))

    rows: list[tuple] = []
    for spec, kernel, params, window in sections:
        L = spec.L
        grid = build_grid(kernel, spec)
        for lam in scale.lams:
            b = lam / L**2 if meanfield else lam / (L**2 * t_scale(L, kernel.M))
            target = target_laplace(params, lam)
            # F on the window's rows 0..A only; no array of this lam
            # outlives the call, so the next transform has the room
            gap = _sup_gap(laplace_hit(grid, b, rows=window[0] + 1).quadrant, target, window)
            rows.append((L, kernel.M, lam, gap, target))
    return rows, {"mode": scale.mode, "kernel": plan.label(), "regions": regions}


# ---------------------------------------------------------------------------
# uniformity


@dataclass(frozen=True)
class UniformityScale:
    k_values: tuple[float, ...]


@dataclass(frozen=True)
class UniformityConfig(TorusRun):
    scale: UniformityScale


def cmd_uniformity(run: UniformityConfig, seed: int | None, workers: int) -> tuple[list[tuple], dict]:
    k_values = run.scale.k_values
    sections = []
    for spec, kernel in run.tori():
        base_t = max(spec.L**2 / kernel.M**2, math.log(spec.L))
        times = [k * base_t for k in k_values]
        for k, t in zip(k_values, times):  # a negative k or an overflow fails here
            _check_time(t, f"the time at k={k!r} on the torus of side {spec.L}")
        sections.append((spec, kernel, times))

    rows: list[tuple] = []
    for spec, kernel, times in sections:
        for t, gap in zip(times, uniformity_gap(build_grid(kernel, spec), times)):
            rows.append((spec.L, kernel.M, t, gap))
    return rows, {"kernel": run.kernel.label(), "base_time": "max(L^2/M^2, log L)"}


# ---------------------------------------------------------------------------
# beta0


@dataclass(frozen=True)
class Beta0Config:
    q0: KernelPlan
    c_values: tuple[float, ...]
    quad: QuadratureSpec = QuadratureSpec()

    def __post_init__(self) -> None:
        if self.q0.M is None:
            raise ValueError("'q0' requires a fixed 'M' (no torus side to derive from)")
        if any(not 0.0 < c <= 1.0 for c in self.c_values):
            raise ValueError("c_values must lie in (0, 1]")


def cmd_beta0(run: Beta0Config, seed: int | None, workers: int) -> tuple[list[tuple], dict]:
    q0 = run.q0.build_with_M(run.q0.M)
    rows: list[tuple] = []
    for c in run.c_values:
        result = beta0(c, q0, run.quad)
        for level_n, estimate in result.levels:
            rows.append((c, level_n, estimate))
    return rows, {"q0": run.q0.label(), "quad": dataclasses.asdict(run.quad)}


# ---------------------------------------------------------------------------
# simulate


@dataclass(frozen=True)
class SimulateScale:
    lams: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(lam < 0 for lam in self.lams):
            raise ValueError("lams must be nonnegative")


@dataclass(frozen=True)
class SimulateConfig(TorusRun):
    scale: SimulateScale
    mc: MonteCarlo


def cmd_simulate(run: SimulateConfig, seed: int | None, workers: int) -> tuple[list[tuple], dict]:
    tori = run.tori()
    seeds = run.mc.seeds(seed)
    lams = run.scale.lams

    rows: list[tuple] = []
    for li, (spec, kernel) in enumerate(tori):
        grid = build_grid(kernel, spec)
        batch = simulate_hits(
            kernel,
            spec,
            run.mc.replicates,
            seeds.subspace(li),
            chunk_size=run.mc.chunk_size,
            workers=workers,
            step_cap=run.mc.step_cap,
        )
        est, se = estimate_laplace(batch.hit_times, np.array(lams))
        for j, lam in enumerate(lams):
            if lam == 0.0:
                exact = 1.0
            else:
                # the mean of F(x, lam) = G(x, lam) / G(0, lam) over the
                # punctured torus, with sum_x G(x, lam) = 1 / lam
                exact = (1.0 / (lam * green_at_origin(grid, lam)) - 1.0) / (spec.n_points - 1)
            if se[j] > 0:
                z = (float(est[j]) - exact) / float(se[j])
            else:
                z = 0.0 if float(est[j]) == exact else math.inf
            rows.append((spec.L, lam, float(est[j]), float(se[j]), exact, z))
    return rows, {
        "kernel": run.kernel.label(),
        "replicates": run.mc.replicates,
        "seed": seeds.master,
        "starts": "uniform over the punctured torus",
    }


# ---------------------------------------------------------------------------
# coalesce


@dataclass(frozen=True)
class CoalesceScale:
    s_values: tuple[float, ...]
    n: int | None = None
    starts: tuple[tuple[int, int], ...] | None = None
    sigma2: float | None = None

    def __post_init__(self) -> None:
        _refuse_repeats("s_values", self.s_values)
        if (self.n is None) == (self.starts is None):
            raise ValueError("give exactly one of 'n' or 'starts'")

    def starts_on(self, L: int) -> np.ndarray:
        """The explicit starts, or n starts spread along the diagonal,
        wrapped onto the torus of side L."""
        if self.starts is not None:
            return lineage_starts(self.starts, L)
        n = self.n
        if n > L:  # n diagonal starts are distinct exactly when n <= L
            raise ValueError(f"cannot place {n} distinct diagonal starts on the torus of side {L}")
        return lineage_starts([[(i * L) // n, (i * L) // n] for i in range(n)], L)


@dataclass(frozen=True)
class CoalesceConfig(TorusRun):
    scale: CoalesceScale
    mc: MonteCarlo

    def __post_init__(self) -> None:
        if self.kernel.M is None:
            raise ValueError(
                "the kernel needs a fixed 'M': the death-clock target holds for a "
                "fixed kernel (rho = 0), and a ranged or meanfield kernel has rho = inf"
            )


def _torus_separation_ok(pos: np.ndarray, L: int) -> bool:
    """Whether the starts lie pairwise at least L/log L apart, as the
    death-clock target assumes."""
    n = pos.shape[0]
    floor = L / math.log(L) if L > 2 else 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = wrap(pos[i] - pos[j], L)
            if math.hypot(float(d[0]), float(d[1])) < floor:
                return False
    return True


def cmd_coalesce(run: CoalesceConfig, seed: int | None, workers: int) -> tuple[list[tuple], dict]:
    # The target is the fixed-kernel limit (rho = 0) from starts at scale L:
    # the law at scaled time s, the absolute horizon s * L^2 * t_scale(L, M),
    # tends to the pure-death law run to PAIR_CLOCK * s / beta, where
    # sigma2 is the config's or else _kernel_sigma2's sigma2_M / M^2 and a
    # pair merges at rate PAIR_CLOCK / beta = 2 / beta.
    scale = run.scale
    n = scale.n if scale.starts is None else len(scale.starts)
    sections, betas = [], []
    for spec, kernel in run.tori():
        starts = scale.starts_on(spec.L)
        sigma2 = _kernel_sigma2(kernel, run.kernel) if scale.sigma2 is None else scale.sigma2
        betas.append(beta(RegimeParams(rho=0.0, sigma2=sigma2)))
        horizons = [s * spec.L**2 * t_scale(spec.L, kernel.M) for s in scale.s_values]
        for s, h in zip(scale.s_values, horizons):  # a negative s or an overflow fails here
            _check_time(h, f"the horizon at s={s!r} on the torus of side {spec.L}")
        sections.append((spec, kernel, starts, horizons, _torus_separation_ok(starts, spec.L)))
    # every target before the first simulation, and after every horizon has
    # passed the time rule, so a config error (exit 2) outranks a target
    # that is not finite (exit 3)
    targets = [[death_process_dist(n, PAIR_CLOCK * s / b) for s in scale.s_values] for b in betas]
    seeds = run.mc.seeds(seed)

    rows: list[tuple] = []
    separation: dict[str, bool] = {}
    horizon: dict[str, float] = {}
    work: dict[str, dict[str, int]] = {}
    for li, (spec, kernel, starts, horizons, separated) in enumerate(sections):
        L = spec.L
        for si, s in enumerate(scale.s_values):
            law = lineage_count_law(
                kernel,
                spec,
                starts,
                horizons[si],
                run.mc.replicates,
                seeds.subspace(li, si),
                chunk_size=run.mc.chunk_size,
                workers=workers,
                step_cap=run.mc.step_cap,
            )
            target = targets[li][si]
            cell = f"L={L},s={s!r}"
            separation[cell] = separated
            horizon[cell] = law.horizon
            work[cell] = {"events": law.events, "merges": law.merges, "censored": law.censored}
            for k in range(1, n + 1):
                rows.append((L, s, k, float(law.p_hat[k - 1]), float(target[k - 1]), float(law.se[k - 1])))
    return rows, {
        "kernel": run.kernel.label(),
        "replicates": run.mc.replicates,
        "seed": seeds.master,
        "n": n,
        "separation_ok": separation,
        "horizon": horizon,
        "work": work,
    }


# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class ConditionParams:
    delta: float = 0.5
    delta_prime: float = 1.0
    a: float = 1.0
    n_angles: int = N_ANGLES
    n_radii: int = N_RADII


@dataclass(frozen=True)
class ConditionsConfig:
    kernel: KernelPlan
    M_values: tuple[int, ...]
    params: ConditionParams = ConditionParams()

    def __post_init__(self) -> None:
        k = self.kernel
        if k.family == "meanfield" or k.M is not None or k.M_exponent is not None:
            raise ValueError("'kernel' must be a family template: M_values gives its ranges")


def cmd_conditions(run: ConditionsConfig, seed: int | None, workers: int) -> tuple[list[tuple], dict]:
    kernels = [run.kernel.build_with_M(M) for M in run.M_values]
    rows = list(condition_report(kernels, **dataclasses.asdict(run.params)))
    p = run.params
    return rows, {"kernel": run.kernel.label(), "delta": p.delta, "delta_prime": p.delta_prime, "a": p.a}


# ---------------------------------------------------------------------------
# audit


@dataclass(frozen=True)
class AuditBlock:
    K: int
    J: int
    thetas: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class AuditConfig:
    audit: AuditBlock


def cmd_audit(run: AuditConfig, seed: int | None, workers: int) -> tuple[list[tuple], dict]:
    audit = run.audit
    K, J = audit.K, audit.J
    report = lemma21_audit(K, J, np.array(audit.thetas, dtype=np.float64))
    rows: list[tuple] = []
    for exp_row in report.exp_rows:
        t1, t2 = exp_row.theta
        rows.append(("square_sum", K, J, t1, t2, exp_row.box_abs, exp_row.box_bound))
        rows.append(("disc_sum", K, J, t1, t2, exp_row.disc_abs, exp_row.disc_bound))
    for ring_row in report.ring_rows:
        t1, t2 = ring_row.theta
        rows.append(("ring_sum", K, J, t1, t2, ring_row.ring_abs, ring_row.implied_constant))
    rows.append(("torus_log_ratio", K, J, "", "", report.torus_log_ratio, TWO_PI))
    rows.append(("disc_log_ratio", K, J, "", "", report.disc_log_ratio, TWO_PI))
    rows.append(("ring_dyadic_sum", K, J, "", "", report.ring_dyadic_sum, RING_LOG2_LIMIT))
    return rows, {"K": K, "J": J, "n_thetas": len(audit.thetas)}


# ---------------------------------------------------------------------------
# plumbing


class Command(NamedTuple):
    """One CLI command: run(config, seed, workers) takes the command's
    blocks read into the `config` dataclass and returns its CSV rows, in
    the order and meaning of `columns`, and its resolved metadata."""

    run: Callable[..., tuple[list[tuple], dict]]
    config: type
    columns: tuple[str, ...]
    help: str


COMMANDS = {
    "laplace": Command(
        cmd_laplace, LaplaceConfig, ("L", "M", "lam", "sup_gap", "target"),
        "exact hitting transforms vs their scaling targets",
    ),
    "uniformity": Command(
        cmd_uniformity, UniformityConfig, ("L", "M", "t", "gap"),
        "worst-case deviation of the walk's law from uniform",
    ),
    "beta0": Command(
        cmd_beta0, Beta0Config, ("c", "level", "estimate"),
        "limiting mean constant of the mixture family by quadrature, one row per refinement level",
    ),
    "simulate": Command(
        cmd_simulate, SimulateConfig, ("L", "lam", "mc_estimate", "se", "exact", "z_score"),
        "Monte Carlo hitting transforms vs exact values",
    ),
    "coalesce": Command(
        cmd_coalesce, CoalesceConfig, ("L", "s", "k", "p_hat", "target", "se"),
        "lineage-count law of coalescing walkers vs the death process",
    ),
    "conditions": Command(
        cmd_conditions, ConditionsConfig, ("M", "sigma2", "p1_max_dev", "p2_min", "p3_max_abs"),
        "kernel regularity diagnostics over a range ladder",
    ),
    "audit": Command(
        cmd_audit, AuditConfig, ("kind", "K", "J", "theta1", "theta2", "value", "reference"),
        "exponential-sum bounds and logarithmic lattice-sum ratios",
    ),
}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean cells are not part of any table schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _check_out_dir(path: str) -> None:
    """Refuse an --out that cannot become a writable directory, and create
    nothing: its nearest existing ancestor, or the path itself, must be a
    directory that this process may write into."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"--out {path}: {probe} exists and is not a directory")
    if not os.access(probe, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {path}: directory {probe} is not writable")


def write_outputs(
    command: str,
    rows: list[tuple],
    resolved: dict,
    out_dir: str,
    basename: str,
    raw_cfg: dict,
    seed: int | None,
    workers: int,
    wall_seconds: float,
) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, basename + ".csv")
    meta_path = os.path.join(out_dir, basename + ".meta.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COMMANDS[command].columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    meta = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "workers": workers,
        "wall_seconds": wall_seconds,
        "rows": len(rows),
        "config": raw_cfg,
        "resolved": resolved,
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="toruswalk",
        description="Exact and Monte Carlo studies of torus random-walk "
        "hitting times and coalescing walkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        text = f"{command.help}; CSV columns: {', '.join(command.columns)}"
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")
        p.add_argument("--out", default=".", help="output directory (default .)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        print("config error: --workers must be at least 1", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        blocks = dict(cfg)
        command = blocks.pop("command", args.command)
        if command != args.command:
            raise ConfigError(f"config is for command {command!r}, not {args.command!r}")
        output = read(Output, blocks.pop("output", {}), f"{args.command}.output")
        _check_out_dir(args.out)
        cmd = COMMANDS[args.command]
        rows, resolved = cmd.run(read(cmd.config, blocks, args.command), args.seed, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: invalid value: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: needs more memory than this machine has: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except StepCapExceeded as exc:
        print(f"step-cap abort: {exc}", file=sys.stderr)
        return 4
    wall = time.perf_counter() - t0
    basename = output.basename or args.command
    csv_path, meta_path = write_outputs(
        args.command, rows, resolved, args.out, basename, cfg, args.seed, args.workers, wall
    )
    print(f"wrote {csv_path} and {meta_path} ({len(rows)} rows, {wall:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
