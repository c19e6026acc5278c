"""The repository's command-line tools under tools/."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SYNTHETIC = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
def f(x):
    """One-line docstring."""
    total = (
        x
        + math.pi
    )
    return total


class C:
    """Class docstring,

    with a blank line inside."""

    value = """a string that is
not a docstring"""
'''


def _tool(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_the_code_lines_by_hand(tmp_path, capsys):
    # by hand: import, def, the four lines of the statement `total = (...)`,
    # return, class, and the two lines of the string that is not a docstring
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    loc = _tool("loc")
    assert loc.code_lines(str(path)) == 10
    assert loc.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.split() == ["10", str(path), "10", str(path), "20", "total"]
