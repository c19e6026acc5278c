"""The two benchmark workloads: which CLI commands run, on which configs.

Each workload is a closed loop of one client: its commands run back to
back through `toruswalk.cli.main` with `--workers 1`, in one process and
one thread.  `spectral-large` is memory-bound FFT work; `mc-lattice`
holds every compute-bound command with little memory.  Each layer does
its work in one of them and almost none in the other.

Only the Monte Carlo commands (`simulate`, `coalesce`) take the
workload seed, through the CLI's `--seed` flag.  `spectral-large` is
deterministic and ignores the seed.

This module is plain data plus JSON writing; it imports no numpy, so the
launcher can use it without touching the numeric stack.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

UNIFORM_M8 = {"family": "uniform", "M": 8}

# simulate: replicates per pass.  A multiple of the CLI's default chunk
# (4096) so every chunk of the lockstep skeleton is full.
HIT_REPLICATES = 8192
# coalesce: replicates per pass.  500 replicate spans leave ten samples
# beyond the 98th percentile of the traced per-replicate time.
COALESCE_REPLICATES = 500
COALESCE_N = 8


@dataclass(frozen=True)
class Command:
    name: str  # CLI subcommand, also the config and CSV basename
    config: dict
    seeded: bool  # passes the workload seed through --seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]

    @property
    def seeded(self) -> bool:
        return any(c.seeded for c in self.commands)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectral-large",
            "FFT transforms at L=1024 and 4096: grid build, resolvent and heat "
            "inverses, working set on both sides of the cache; no Monte Carlo",
            (
                Command(
                    "laplace",
                    {
                        "command": "laplace",
                        "torus": {"L": [1024, 4096]},
                        "kernel": UNIFORM_M8,
                        "scale": {"lams": [0.5, 1, 2], "mode": "finite", "rho": 0},
                    },
                    seeded=False,
                ),
                Command(
                    "uniformity",
                    {
                        "command": "uniformity",
                        "torus": {"L": [1024, 4096]},
                        "kernel": UNIFORM_M8,
                        "scale": {"k_values": [0.01, 0.1, 1]},
                    },
                    seeded=False,
                ),
            ),
        ),
        Workload(
            "mc-lattice",
            "compute-bound commands with little memory: lockstep first passage, "
            "per-event coalescent, characteristic function probes, lattice sums "
            "and beta0 quadrature",
            (
                Command(
                    "simulate",
                    {
                        "command": "simulate",
                        "torus": {"L": [64]},
                        "kernel": UNIFORM_M8,
                        # lams near 1/E[H]: at lam 0.5 and 1 rare events
                        # dominate the estimator and a z-check is unsound.
                        "scale": {"lams": [0.001, 0.003, 0.01]},
                        "mc": {"replicates": HIT_REPLICATES},
                    },
                    seeded=True,
                ),
                Command(
                    "coalesce",
                    {
                        "command": "coalesce",
                        "torus": {"L": [64]},
                        "kernel": UNIFORM_M8,
                        "scale": {"s_values": [0.5], "n": COALESCE_N},
                        "mc": {"replicates": COALESCE_REPLICATES},
                    },
                    seeded=True,
                ),
                Command(
                    "conditions",
                    {
                        "command": "conditions",
                        "kernel": {"family": "uniform"},
                        "M_values": [8, 32, 128],
                    },
                    seeded=False,
                ),
                Command(
                    "audit",
                    {
                        "command": "audit",
                        "audit": {
                            "K": 4096,
                            "J": 16,
                            "thetas": [[0.1, 0.0], [0.5, 0.5], [1.0, -2.0], [3.0, 3.0]],
                        },
                    },
                    seeded=False,
                ),
                Command(
                    "beta0",
                    {
                        "command": "beta0",
                        "q0": {"family": "uniform", "M": 4},
                        "c_values": [0.01, 0.003],
                        "quad": {"tol": 1e-10},
                    },
                    seeded=False,
                ),
            ),
        ),
    )
}


def config_path(run_dir: str, command: Command) -> str:
    return os.path.join(run_dir, command.name + ".json")


def write_configs(commands, run_dir: str) -> None:
    for command in commands:
        with open(config_path(run_dir, command), "w", encoding="utf-8") as fh:
            json.dump(command.config, fh, indent=2)


def cli_argv(command: Command, run_dir: str, out_dir: str, seed: int) -> list[str]:
    argv = [command.name, "--config", config_path(run_dir, command)]
    if command.seeded:
        argv += ["--seed", str(seed)]
    return argv + ["--workers", "1", "--out", out_dir]
