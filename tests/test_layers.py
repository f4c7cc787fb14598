"""Module hygiene: who reads the cell layout, and no unused imports.

The cell layout of a process is known to ``space`` and ``calculus`` only.
Every other engine module reads processes through their accessors
(``Process.on_atoms``, ``first_failing``, ``first_mismatch``,
``distinct_cells``, ``increments``) and builds them from per-atom tables or
per-outcome paths, never from increment columns (``accumulate``), so a
change of storage layout touches those two modules alone.

Every name an engine module imports is used in that module (``__init__``
re-exports, so it is exempt); ``# noqa: F401`` on the import line keeps a
name that is imported only to be found there.
"""

import ast
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


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("module", sorted(p.name for p in ENGINE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((ENGINE / module).read_text()) == []


def test_unused_import_check_sees_an_orphan_and_honours_noqa():
    source = ("from a import b, c\n"
              "from d import e  # noqa: F401\n"
              "import f.g\n"
              "print(c, f)\n")
    assert _unused_imports(source) == ["1: b"]
