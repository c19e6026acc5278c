"""Record the reference tables that checks.py compares runs against.

    python3 perfbench/record_reference.py

Runs every command of every workload once through the CLI and writes
perfbench/reference.json.  Deterministic tables are kept whole.  For
`simulate` only the exact column is compared, so any seed does.  The
`coalesce` law is recorded at REPLICATE_FACTOR times the benchmark's
replicates, so its standard errors are the smaller side of each
comparison.  Re-record only when a table's definition changes, never to
absorb a change in its values.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import sys
import tempfile

from checks import REFERENCE, read_table
from worker import import_toruswalk
from workloads import WORKLOADS, cli_argv, write_configs

RECORD_SEED = 20101012
REPLICATE_FACTOR = 4


def main() -> int:
    tw = import_toruswalk()
    reference = {}
    for workload in WORKLOADS.values():
        for command in workload.commands:
            config = copy.deepcopy(command.config)
            if command.name == "coalesce":
                config["mc"]["replicates"] *= REPLICATE_FACTOR
            recorded = dataclasses.replace(command, config=config)
            with tempfile.TemporaryDirectory() as tmp:
                write_configs([recorded], tmp)
                with contextlib.redirect_stdout(sys.stderr):
                    code = tw.cli.main(cli_argv(recorded, tmp, tmp, RECORD_SEED))
                if code != 0:
                    raise SystemExit(f"{command.name} exited with {code}")
                columns, rows = read_table(f"{tmp}/{command.name}.csv")
            reference[command.name] = {"columns": columns, "rows": rows}
            if command.name == "coalesce":
                reference["coalesce"].update(
                    replicates=config["mc"]["replicates"], seed=RECORD_SEED
                )
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items()))
        fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
