"""Batch experiment runner.

Usage: toruswalk <command> --config <path> [--seed N] [--workers N] [--out DIR]

Every command reads one JSON config, computes a table, and writes
<out>/<basename>.csv plus <out>/<basename>.meta.json.  CSV bodies are
a pure function of (config, seed, workers-independent streams): floats
are printed with 17 significant digits and no timestamps, so re-runs
are byte-identical; timing and provenance live in the metadata file.

Each command declares its config blocks as frozen dataclasses next to
its cmd_* function, filled by `config.read`.  A block's __post_init__
holds only the rules no library object owns; the rest are left to the
library constructors, which run for every torus, kernel, seed and
start region before the first numeric call.

Commands and their CSV columns:
  laplace     L, M, lam, sup_gap, target
  uniformity  L, M, t, gap
  beta0       c, level, estimate        (one row per refinement level)
  simulate    L, lam, mc_estimate, se, exact, z_score
  coalesce    L, s, k, p_hat, target, se
  conditions  M, sigma2, p1_max_dev, p2_min, p3_max_abs
  audit       kind, K, J, theta1, theta2, value, reference

Exit codes: 0 success, 2 config error, 3 numeric non-convergence,
4 step-cap abort.
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

import numpy as np

from . import __version__
from .config import ConfigError, KernelPlan, load_config, read
from .kernels import JumpKernel, QuadratureError
from .limits import (
    QuadratureSpec,
    RegimeParams,
    RING_LOG2_LIMIT,
    TWO_PI,
    beta0,
    lemma21_audit,
    t_scale,
    target_laplace,
)
from .mc import (
    DEFAULT_CHUNK,
    DEFAULT_STEP_CAP,
    SeedSpec,
    StepCapExceeded,
    estimate_laplace,
    lineage_count_law,
    lineage_starts,
    simulate_hits,
)
from .spectral import N_ANGLES, N_RADII, build_grid, condition_report, laplace_hit, uniformity_gap
from .torus import Annulus, TorusSpec, TorusSquare, region_mask
from .torus import enumerate_region, index_of  # noqa: F401  (wrapped by perfbench/tracer.py)


@dataclass
class RunReport:
    command: str
    columns: tuple[str, ...]
    rows: list[tuple]
    resolved: dict


# ---------------------------------------------------------------------------
# blocks shared by several commands


@dataclass(frozen=True)
class Torus:
    """The `torus` block: the table has one section per side L."""

    L: tuple[int, ...]


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


def _sup_gap(F: np.ndarray, target: float, mask: np.ndarray) -> float:
    """max |F(x) - target| over the starts x."""
    dev = F - target
    return float(np.max(np.abs(dev, out=dev), where=mask, initial=0.0))


def cmd_laplace(cfg: dict, seed: int | None, workers: int) -> RunReport:
    run = read(LaplaceConfig, cfg, "laplace")
    scale, plan = run.scale, run.kernel
    meanfield = scale.mode == "meanfield"
    alpha = 1.0 if scale.alpha is None else scale.alpha
    sections = []
    for spec, kernel in run.tori():
        params = RegimeParams(
            rho=math.inf if meanfield else scale.rho,
            sigma2=_kernel_sigma2(kernel, plan),
            alpha=alpha,
        )
        if meanfield:
            region = TorusSquare(spec.L, punctured=True)
        else:
            region = Annulus(alpha, scale.window(spec.L), spec.L)
        mask = region_mask(region, spec)
        if not mask.any():
            raise ConfigError(f"{region} contains no lattice points; pick a larger L or smaller alpha")
        sections.append((spec, kernel, params, mask))

    rows: list[tuple] = []
    regions = {str(spec.L): int(mask.sum()) for spec, _, _, mask in sections}
    for spec, kernel, params, mask in sections:
        L = spec.L
        grid = build_grid(kernel, spec)
        for lam in scale.lams:
            b = lam / L**2 if meanfield else lam / (L**2 * t_scale(L, kernel.M))
            target = target_laplace(params, lam)
            # no array of this lam outlives the call, so the next transform has the room
            gap = _sup_gap(laplace_hit(grid, b).values, target, mask)
            rows.append((L, kernel.M, lam, gap, target))
    return RunReport(
        command="laplace",
        columns=("L", "M", "lam", "sup_gap", "target"),
        rows=rows,
        resolved={"mode": scale.mode, "kernel": plan.label(), "regions": regions},
    )


# ---------------------------------------------------------------------------
# uniformity


@dataclass(frozen=True)
class UniformityScale:
    k_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(k < 0 for k in self.k_values):
            raise ValueError("k_values must be nonnegative")


@dataclass(frozen=True)
class UniformityConfig(TorusRun):
    scale: UniformityScale


def cmd_uniformity(cfg: dict, seed: int | None, workers: int) -> RunReport:
    run = read(UniformityConfig, cfg, "uniformity")
    rows: list[tuple] = []
    for spec, kernel in run.tori():
        L = spec.L
        grid = build_grid(kernel, spec)
        base_t = max(L**2 / kernel.M**2, math.log(L))
        for k in run.scale.k_values:
            t = k * base_t
            gap, _bound = uniformity_gap(grid, t)
            rows.append((L, kernel.M, t, gap))
    return RunReport(
        command="uniformity",
        columns=("L", "M", "t", "gap"),
        rows=rows,
        resolved={"kernel": run.kernel.label(), "base_time": "max(L^2/M^2, log L)"},
    )


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


def cmd_beta0(cfg: dict, seed: int | None, workers: int) -> RunReport:
    run = read(Beta0Config, cfg, "beta0")
    q0 = run.q0.build_with_M(run.q0.M)
    rows: list[tuple] = []
    for c in run.c_values:
        result = beta0(c, q0, run.quad)
        for level_n, estimate in result.levels:
            rows.append((c, level_n, estimate))
    return RunReport(
        command="beta0",
        columns=("c", "level", "estimate"),
        rows=rows,
        resolved={"q0": run.q0.label(), "quad": dataclasses.asdict(run.quad)},
    )


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


def cmd_simulate(cfg: dict, seed: int | None, workers: int) -> RunReport:
    run = read(SimulateConfig, cfg, "simulate")
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
                F = laplace_hit(grid, lam)
                exact = float((F.values.sum() - 1.0) / (spec.n_points - 1))
            if se[j] > 0:
                z = (float(est[j]) - exact) / float(se[j])
            else:
                z = 0.0 if float(est[j]) == exact else math.inf
            rows.append((spec.L, lam, float(est[j]), float(se[j]), exact, z))
    return RunReport(
        command="simulate",
        columns=("L", "lam", "mc_estimate", "se", "exact", "z_score"),
        rows=rows,
        resolved={
            "kernel": run.kernel.label(),
            "replicates": run.mc.replicates,
            "seed": seeds.master,
            "starts": "uniform over the punctured torus",
        },
    )


# ---------------------------------------------------------------------------
# coalesce


@dataclass(frozen=True)
class CoalesceScale:
    s_values: tuple[float, ...]
    n: int | None = None
    starts: tuple[tuple[int, int], ...] | None = None
    sigma2: float | None = None

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.s_values):
            raise ValueError("s_values must be nonnegative")
        if (self.n is None) == (self.starts is None):
            raise ValueError("give exactly one of 'n' or 'starts'")

    def starts_on(self, L: int) -> np.ndarray:
        """The explicit starts, or n starts spread along the diagonal,
        wrapped onto the torus of side L."""
        if self.starts is not None:
            return lineage_starts(self.starts, L)
        if self.n > L:
            raise ValueError(f"cannot place {self.n} distinct diagonal starts on L={L}")
        n = self.n
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


def cmd_coalesce(cfg: dict, seed: int | None, workers: int) -> RunReport:
    run = read(CoalesceConfig, cfg, "coalesce")
    scale = run.scale
    sections = [(spec, kernel, scale.starts_on(spec.L)) for spec, kernel in run.tori()]
    seeds = run.mc.seeds(seed)
    n = scale.n if scale.starts is None else len(scale.starts)

    rows: list[tuple] = []
    separation: dict[str, bool] = {}
    work: dict[str, dict[str, int]] = {}
    for li, (spec, kernel, starts) in enumerate(sections):
        L = spec.L
        for si, s in enumerate(scale.s_values):
            law = lineage_count_law(
                kernel,
                spec,
                starts,
                s,
                run.mc.replicates,
                seeds.subspace(li, si),
                sigma2=scale.sigma2,
                chunk_size=run.mc.chunk_size,
                workers=workers,
                step_cap=run.mc.step_cap,
            )
            cell = f"L={L},s={s:g}"
            separation[cell] = law.separation_ok
            work[cell] = {"events": law.events, "merges": law.merges, "censored": law.censored}
            for k in range(1, n + 1):
                rows.append(
                    (L, s, k, float(law.p_hat[k - 1]), float(law.target[k - 1]), float(law.se[k - 1]))
                )
    return RunReport(
        command="coalesce",
        columns=("L", "s", "k", "p_hat", "target", "se"),
        rows=rows,
        resolved={
            "kernel": run.kernel.label(),
            "replicates": run.mc.replicates,
            "seed": seeds.master,
            "n": n,
            "separation_ok": separation,
            "work": work,
        },
    )


# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class ConditionParams:
    delta: float = 0.5
    delta_prime: float = 1.0
    a: float = 1.0
    eps: float = 0.05
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


def cmd_conditions(cfg: dict, seed: int | None, workers: int) -> RunReport:
    run = read(ConditionsConfig, cfg, "conditions")
    kernels = [run.kernel.build_with_M(M) for M in run.M_values]
    report = condition_report(kernels, **dataclasses.asdict(run.params))
    rows = [
        (row.M, row.sigma2, row.p1_max_dev, row.p2_min, row.p3_max_abs)
        for row in report.rows
    ]
    p = run.params
    return RunReport(
        command="conditions",
        columns=("M", "sigma2", "p1_max_dev", "p2_min", "p3_max_abs"),
        rows=rows,
        resolved={
            "kernel": run.kernel.label(),
            "delta": p.delta,
            "delta_prime": p.delta_prime,
            "a": p.a,
            "eps": p.eps,
        },
    )


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


def cmd_audit(cfg: dict, seed: int | None, workers: int) -> RunReport:
    run = read(AuditConfig, cfg, "audit").audit
    K, J = run.K, run.J
    report = lemma21_audit(K, J, np.array(run.thetas, dtype=np.float64))
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
    return RunReport(
        command="audit",
        columns=("kind", "K", "J", "theta1", "theta2", "value", "reference"),
        rows=rows,
        resolved={"K": K, "J": J, "n_thetas": len(run.thetas)},
    )


# ---------------------------------------------------------------------------
# plumbing

COMMANDS = {
    "laplace": cmd_laplace,
    "uniformity": cmd_uniformity,
    "beta0": cmd_beta0,
    "simulate": cmd_simulate,
    "coalesce": cmd_coalesce,
    "conditions": cmd_conditions,
    "audit": cmd_audit,
}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean cells are not part of any table schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_outputs(
    report: RunReport,
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
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_fmt(v) for v in row])
    meta = {
        "command": report.command,
        "version": __version__,
        "seed": seed,
        "workers": workers,
        "wall_seconds": wall_seconds,
        "rows": len(report.rows),
        "config": raw_cfg,
        "resolved": report.resolved,
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
    helps = {
        "laplace": "exact hitting transforms vs their scaling targets",
        "uniformity": "worst-case deviation of the walk's law from uniform",
        "beta0": "limiting mean constant of the mixture family by quadrature",
        "simulate": "Monte Carlo hitting transforms vs exact values",
        "coalesce": "lineage-count law of coalescing walkers vs the death process",
        "conditions": "kernel regularity diagnostics over a range ladder",
        "audit": "exponential-sum bounds and logarithmic lattice-sum ratios",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
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
        report = COMMANDS[args.command](blocks, seed=args.seed, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: invalid value: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except StepCapExceeded as exc:
        print(f"step-cap abort: {exc}", file=sys.stderr)
        return 4
    wall = time.perf_counter() - t0
    csv_path, meta_path = write_outputs(
        report, args.out, output.basename or args.command, cfg, args.seed, args.workers, wall
    )
    print(f"wrote {csv_path} and {meta_path} ({len(report.rows)} rows, {wall:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
