"""The cell layout of a process is known to ``space`` and ``calculus`` only.

Every other engine module reads processes through their accessors
(``Process.on_atoms``, ``first_failing``, ``first_mismatch``,
``distinct_cells``, ``increments``) and builds them from per-atom tables or
per-outcome paths, never from increment columns (``accumulate``), so a
change of storage layout touches those two modules alone.
"""

import pathlib
import re

import pytest

ENGINE = pathlib.Path(__file__).resolve().parent.parent / "src" / "marketforge"
LAYOUT_OWNERS = {"space.py", "calculus.py"}
LAYOUT_TOKENS = re.compile(r"per_distinct|first_false|accumulate\(|\.columns\b|\.paths\b|\bid\(")


@pytest.mark.parametrize("module", sorted(p.name for p in ENGINE.glob("*.py")
                                          if p.name not in LAYOUT_OWNERS))
def test_module_does_not_read_the_cell_layout(module):
    hits = [f"{module}:{n}: {line.strip()}"
            for n, line in enumerate((ENGINE / module).read_text().splitlines(), 1)
            if LAYOUT_TOKENS.search(line)]
    assert hits == []


def test_the_layout_owners_exist():
    assert {p.name for p in ENGINE.glob("*.py")} >= LAYOUT_OWNERS
