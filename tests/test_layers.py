"""Module hygiene: who reads the cell layout, no unused imports, one
failure model and one drift operator.

The atom-major layout of a process (its ``layers``, one partition, one
column per value component with one entry per atom, and one denominator at
each time, the entries integer numerators in exact mode; the meet of two
partitions and the atom index per outcome behind it; the per-column
kernels ``componentwise``, ``product`` and ``atom_means``, their helpers
and the layer codecs; the partition tree, each partition's registered
parent maps and meets, and the per-layer value keys) is known to ``space``
and ``calculus`` only.  A
contraction crosses the boundary as index pairs (``sum_steps(terms, ...)``),
which name components, not storage.  Every other engine module reads processes as
numbers through their accessors (``Process.on_atoms``, ``Process.at``,
``cond_exp``, ``first_mismatch``, ``increments``),
decides on them through the ones that read the layers undecoded
(``first_failing``, whose column predicates see a layer's columns of
numerators and its denominator and give one flag per atom, ``all_entries``
for whole cells, ``extrema``, and ``Process.value_keys``, a cell's value
key, as ``Filtration.transition_keys`` keys child probabilities), and
builds them from per-atom tables (``Process.adapted``,
``Process.predictable``), per-atom keys with one value per distinct key
(``Process.keyed``) or per-outcome paths, never from layers or increments
(``accumulate``), so a change of storage layout touches those two modules
alone; the gathers that read a column at an index map (``_gather``,
``_getter``) stay there too.

Every name an engine module imports is used in that module (``__init__``
re-exports, so it is exempt); ``# noqa: F401`` on the import line keeps a
name that is imported only to be found there.

Every check reports its failure as the one ``calculus.FailureWitness``; every
check row a failure names as its stage (``stage=...``, or the third argument
of ``CheckFailed``) is one of ``cli._CHECK_NAMES``; and the loader maps an
engine error to the offending field in ``scenario._field`` alone.

The drift the expanded flow adds, the integral of transpose(phi) against
d<N, X>, is written once, as ``enlarge.drift_operator``: ``pred_bracket``
is called in ``src/`` only there and in ``viability.price_drift_rhs``.
"""

import ast
import builtins
import pathlib
import re

import pytest

from marketforge import cli

ENGINE = pathlib.Path(__file__).resolve().parent.parent / "src" / "marketforge"
LAYOUT_OWNERS = {"space.py", "calculus.py"}
LAYOUT_TOKENS = re.compile(r"\.layers\b|\.meet\(|\batom_at\b|_tabled|_keyed|_grouped|_level_sets"
                           r"|integer_masses|integer_weights|pointwise|componentwise|\bproduct\("
                           r"|atom_means"
                           r"|_encoded|_decoded|_reduced|_numerators|\b_over\(|_layer_key|layer="
                           r"|\b_column\(|\b_scaled\(|\b_rows\(|\b_picked\(|_sum_plan|_sums\b"
                           r"|\b_weighted\(|\b_failing\(|\b_eq\(|\b_dot\(|_member_weights"
                           r"|accumulate\(|\bid\(|\b_gather\(|\b_getter\("
                           r"|_meets\b|\b_nest\(|_parent_map|_read_off|_outcome_meet|\b_split\("
                           r"|_finer\(|\._own\b|\._keys\b"
                           r"|\b_refined\(|_maps_onto|_group_outcomes|\b_met\(|\b_flow\("
                           r"|\._base\b|\._first\b|\._up\b|\._below\b")


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


def _engine_trees() -> dict:
    return {p.name: ast.parse(p.read_text()) for p in sorted(ENGINE.glob("*.py"))}


def _classes(trees: dict) -> list:
    return [(module, node) for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def test_failure_witness_is_the_one_witness_type():
    witnesses = [f"{module}:{node.name}" for module, node in _classes(_engine_trees())
                 if node.name.endswith("Witness")]
    assert witnesses == ["calculus.py:FailureWitness"]


def _stage_literals(tree) -> list:
    """String literals passed as ``stage=...`` or as CheckFailed's stage."""
    stages = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = [kw.value for kw in node.keywords if kw.arg == "stage"]
        if isinstance(node.func, ast.Name) and node.func.id == "CheckFailed":
            args += node.args[2:3]
        stages += [a.value for a in args
                   if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return stages


def test_every_stage_a_failure_names_is_a_check_row():
    stages = [s for tree in _engine_trees().values() for s in _stage_literals(tree)]
    # No stage outside the rows, and every row named where its failure is found.
    assert set(stages) == set(cli._CHECK_NAMES)


def _engine_errors(trees: dict) -> set:
    """Names of the exception classes the engine defines."""
    errors, classes = set(), _classes(trees)
    grew = True
    while grew:
        grew = False
        for _, node in classes:
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if node.name not in errors and any(
                    b in errors or isinstance(getattr(builtins, b, None), type)
                    and issubclass(getattr(builtins, b), BaseException) for b in bases):
                errors.add(node.name)
                grew = True
    return errors


def _handlers_outside(tree, errors: set, allowed: str) -> list:
    """Lines of ``except`` clauses naming one of ``errors`` outside the
    function ``allowed``."""
    inside = {id(h) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == allowed
              for h in ast.walk(f) if isinstance(h, ast.ExceptHandler)}
    lines = []
    for h in ast.walk(tree):
        if isinstance(h, ast.ExceptHandler) and id(h) not in inside and h.type is not None:
            names = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
            if any(isinstance(n, ast.Name) and n.id in errors for n in names):
                lines.append(h.lineno)
    return lines


def test_the_loader_maps_engine_errors_in_field_alone():
    trees = _engine_trees()
    errors = _engine_errors(trees)
    assert {"SpaceError", "KernelError", "ViabilityError", "CheckFailed"} <= errors
    assert _handlers_outside(trees["scenario.py"], errors, "_field") == []


def test_engine_error_handler_check_sees_a_stray_except():
    source = ("def _field():\n"
              "    try: pass\n"
              "    except (SpaceError, KernelError): pass\n"
              "def load():\n"
              "    try: pass\n"
              "    except ValueError: pass\n"
              "    try: pass\n"
              "    except SpaceError: pass\n")
    assert _handlers_outside(ast.parse(source), {"SpaceError", "KernelError"},
                             "_field") == [8]


def _callers(trees: dict, name: str) -> set:
    """(module, top-level definition) of every call of ``name`` (as a bare
    name or an attribute) in the parsed modules."""
    hits = set()
    for module, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if isinstance(func, ast.Name) and func.id == name \
                        or isinstance(func, ast.Attribute) and func.attr == name:
                    hits.add((module, getattr(top, "name", None)))
    return hits


def test_the_drift_operator_is_written_once():
    # pred_bracket feeds the drift operator and the price identity's own
    # d[D, M] alone, so no hand-written copy of phi . d<N, X> can return.
    assert _callers(_engine_trees(), "pred_bracket") == {
        ("enlarge.py", "drift_operator"), ("viability.py", "price_drift_rhs")}


def test_caller_check_sees_a_stray_call():
    source = ("def drift_operator(): return pred_bracket(N, X, F)\n"
              "def selftest(): return integrate(phi, calculus.pred_bracket(N, X, F))\n"
              "x = pred_bracket\n")
    assert _callers({"m.py": ast.parse(source)}, "pred_bracket") == {
        ("m.py", "drift_operator"), ("m.py", "selftest")}
