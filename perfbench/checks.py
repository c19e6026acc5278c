"""Correctness checks on the CLI's outputs; each check is one operation.

Deterministic tables must match the values recorded in `reference.json`
within `REL_TOL`.  Monte Carlo tables are checked statistically, so any
seed and any sampler that draws from the right law passes: `simulate`
rows against the exact column by z-score, the `coalesce` pmf against the
recorded law by combined standard errors.  `reference.json` is written
by `record_reference.py`.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-9
Z_MAX = 5.0  # |z| bound for every simulate row
COALESCE_SE = 5.0  # combined standard errors allowed per coalesce cell
ORACLE_TOL = 1e-8
ORACLE_SIDE = 16
ORACLE_TIMES = (0.5, 2.0, 8.0)
PROVEN_BOUND_KINDS = ("square_sum", "disc_sum")
DETERMINISTIC = ("laplace", "uniformity", "conditions", "audit", "beta0")

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: str) -> tuple[list[str], list[list]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_cell(c) for c in row] for row in rows[1:]]


def _close(a, b) -> bool:
    if isinstance(b, str):
        return a == b
    return isinstance(a, float) and abs(a - b) <= REL_TOL * abs(b)


def _matches(rows, ref_rows, columns) -> bool:
    return all(
        _close(row[j], ref[j]) for row, ref in zip(rows, ref_rows) for j in columns
    )


class Checks:
    """Collects (name, ok, detail) results; `failed` lists the failures."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]

    def table(self, command, out_dir: str, reference: dict) -> None:
        """Check one command's CSV: schema, then its command-specific rules."""
        name = command.name
        ref = reference[name]
        path = os.path.join(out_dir, name + ".csv")
        try:
            columns, rows = read_table(path)
        except (OSError, IndexError) as exc:
            self.add(f"{name}.schema", False, f"cannot read {path}: {exc}")
            return
        schema_ok = columns == ref["columns"] and len(rows) == len(ref["rows"])
        self.add(f"{name}.schema", schema_ok, f"columns {columns}, {len(rows)} rows")
        if not schema_ok:
            return
        col = {c: j for j, c in enumerate(columns)}
        if name in DETERMINISTIC:
            self.add(
                f"{name}.matches_reference",
                _matches(rows, ref["rows"], range(len(columns))),
                f"relative tolerance {REL_TOL}",
            )
        extra = getattr(self, "_" + name, None)
        if extra is not None:
            extra(rows, ref, col, command.config)

    def _audit(self, rows, ref, col, config) -> None:
        bounded = [r for r in rows if r[col["kind"]] in PROVEN_BOUND_KINDS]
        self.add(
            "audit.proven_bounds",
            bool(bounded) and all(r[col["value"]] <= r[col["reference"]] for r in bounded),
            f"{len(bounded)} bound rows",
        )

    def _beta0(self, rows, ref, col, config) -> None:
        by_c: dict[float, list[float]] = {}
        for r in rows:
            by_c.setdefault(r[col["c"]], []).append(r[col["estimate"]])
        tol = config["quad"]["tol"]
        self.add(
            "beta0.converged",
            all(len(v) > 1 and abs(v[-1] - v[-2]) < tol for v in by_c.values()),
            f"last two levels within {tol}",
        )

    def _simulate(self, rows, ref, col, config) -> None:
        self.add(
            "simulate.exact_matches_reference",
            _matches(rows, ref["rows"], [col["L"], col["lam"], col["exact"]]),
            f"relative tolerance {REL_TOL}",
        )
        z = [r[col["z_score"]] for r in rows]
        self.add(
            "simulate.z_scores",
            all(abs(v) < Z_MAX for v in z),
            "z = " + ", ".join(f"{v:.2f}" for v in z),
        )

    def _coalesce(self, rows, ref, col, config) -> None:
        p = [r[col["p_hat"]] for r in rows]
        self.add("coalesce.pmf_sums_to_one", abs(sum(p) - 1.0) < 1e-12, f"sum {sum(p)!r}")
        # An empty cell reports se = 0; floor each se at one replicate's
        # binomial se so a cell empty in one law is not an exact claim.
        floor = 1.0 / config["mc"]["replicates"]
        ref_floor = 1.0 / ref["replicates"]
        worst = 0.0
        for r, rr in zip(rows, ref["rows"]):
            se = math.hypot(max(r[col["se"]], floor), max(rr[col["se"]], ref_floor))
            worst = max(worst, abs(r[col["p_hat"]] - rr[col["p_hat"]]) / se)
        self.add(
            "coalesce.law_matches_reference",
            worst <= COALESCE_SE,
            f"worst cell {worst:.2f} combined se",
        )

    def oracle(self, tw, lams) -> None:
        """laplace_hit and heat against the dense references on a small torus."""
        kernel = tw.uniform_kernel(8)
        spec = tw.TorusSpec(ORACLE_SIDE)
        grid = tw.build_grid(kernel, spec)
        chain = tw.dense_chain(kernel, spec)
        gap = max(
            float(abs(tw.laplace_hit(grid, lam).values - tw.dense_laplace_hit(chain, lam)).max())
            for lam in lams
        )
        self.add("oracle.laplace_hit", gap <= ORACLE_TOL, f"max abs gap {gap:.3g}")
        gap = max(
            float(abs(tw.heat(grid, t).raw - tw.dense_heat(chain, t)).max())
            for t in ORACLE_TIMES
        )
        self.add("oracle.heat", gap <= ORACLE_TOL, f"max abs gap {gap:.3g}")
