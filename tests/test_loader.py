"""The scenario loader against its per-cell reference, ``reference.load_process``.

The loader builds each process from the distinct raw tokens of each time
column; the reference reads, wraps and groups every cell on its own.  Both
must give the same layers (the same partition objects, the same columns and
denominator, so the same bits in float mode) and, on bad input, the same
exit code and message:

- a ``hypothesis`` test draws columns mixing ints, unreduced ``"p/q"``
  strings and decimals (strings and JSON numbers), scalar and vector cells,
  empty vectors, and in float mode -0.0 next to 0.0 and 1 next to 1.0;
- every golden input and the noisy coin trees T = 2..8, in both modes;
- the loader's own build, on a flow: a ``hypothesis`` test draws a flow
  on the same outcomes whose columns are, time by time, adapted to it or
  not, and the layers must be the reference's refined by the flow
  (``reference.row_refined``), an adapted column on the flow's own
  partition; the golden inputs load alike on their scenario's flow, and
  a flow of another horizon is refused;
- a seeded test puts two defects at random fields of one document, so the
  order between two errors is checked, which one-field mutations do not;
- an exact load of the T = 6 golden tree parses each distinct token once
  and makes few Fractions.
"""

import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from marketforge import scenario
from marketforge.arith import EXACT, FLOAT, Arithmetic
from marketforge.cli import main
from marketforge.scenario import load_scenario, parse_document
from marketforge.space import Filtration, Process, SampleSpace, SpaceError
from test_golden_reports import GOLDEN, INPUTS, MODES

ARITH = {"exact": EXACT, "float": FLOAT}
FIELDS = ("prices", "driver", "carrier", "structure")


def assert_same_layers(X, Y):
    assert len(X.layers) == len(Y.layers)
    for (part, cols, den), (ref_part, ref_cols, ref_den) in zip(X.layers, Y.layers):
        assert part is ref_part
        assert repr(cols) == repr(ref_cols)  # floats by their bits
        assert den == ref_den
        # By column: one tuple per component, each with one entry per atom.
        assert all(type(col) is tuple and len(col) == len(part.atoms) for col in cols)
        if X.space.arith.exact:
            assert math.gcd(den, *(a for col in cols for a in col)) == 1


def assert_loads_alike(doc, space, arith, flow=None):
    """Every path field of ``doc`` loads to the reference's layers, with the
    horizon the loader passes it; with a ``flow``, built on it as the
    loader builds, to the reference's layers refined by the flow."""
    horizon = None
    for field in FIELDS:
        if field in doc:
            want = ref.load_process(doc[field], field, space, arith, horizon)
            if flow is not None:
                want = ref.row_refined(ref.Rows.of(want), flow).process()
            X = Process.from_keys(space, *scenario._paths(doc[field], field, space, arith,
                                                          horizon), flow)
            assert_same_layers(X, want)
            horizon = X.horizon


# ---------------------------------------------------------------------------
# random columns


def spellings(x: Fraction, mode: str) -> list:
    """JSON spellings of the number x: an int, unreduced "p/q" strings, a
    decimal string and a decimal number; in float mode 1.0 for 1, and
    -0.0 as well as 0.0 for 0."""
    out = [f'"{x.numerator * k}/{x.denominator * k}"' for k in (1, 2, 3)]
    if x.denominator == 1:
        out.append(str(x.numerator))
    if 10 ** 4 % x.denominator == 0:
        decimal = f"{float(x)!r}"
        out += [decimal, f'"{decimal}"']
    if mode == "float" and x == 0:
        out += ["-0.0", "0.0", "-0"]
    return out


POOL = [Fraction(n, d) for n in range(-2, 3) for d in (1, 2, 4, 5)]


@st.composite
def documents(draw, mode):
    """(space, JSON text of a list of paths): 1..8 outcomes, 1..3 steps,
    cells scalar or vectors of one dimension 0..2, values from a small pool
    so that level sets form."""
    n, horizon = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    dim = draw(st.sampled_from([None, 0, 1, 2]))
    pool = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4))

    def token():
        return draw(st.sampled_from(spellings(draw(st.sampled_from(pool)), mode)))

    def cell():
        if dim is None or dim == 1 and draw(st.booleans()):
            return token()
        return "[" + ", ".join(token() for _ in range(dim)) + "]"

    paths = ["[" + ", ".join(cell() for _ in range(horizon + 1)) + "]" for _ in range(n)]
    arith = ARITH[mode]
    space = SampleSpace(tuple(f"o{i}" for i in range(n)), (arith.parse(Fraction(1, n)),) * n,
                        arith=arith)
    return space, "[" + ", ".join(paths) + "]"


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_loader_builds_the_reference_layers_from_random_columns(mode, data):
    space, text = data.draw(documents(mode))
    arith = ARITH[mode]
    doc = parse_document(text)
    assert_same_layers(Process.from_keys(space, *scenario._paths(doc, "prices", space, arith)),
                       ref.load_process(doc, "prices", space, arith))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_loader_builds_on_a_drawn_flow_the_reference_layers_refined_by_it(mode, data):
    space, text = data.draw(documents(mode))
    arith = ARITH[mode]
    doc = parse_document(text)
    X = ref.load_process(doc, "prices", space, arith)
    # Each time refines the one before by a drawn label and, where the
    # column is to be adapted, by the column's own level sets.
    adapted = data.draw(st.lists(st.booleans(), min_size=X.horizon + 1,
                                 max_size=X.horizon + 1))
    part, parts = space.trivial, []
    for t, own in enumerate(adapted):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=space.size,
                                    max_size=space.size))
        values = X.layers[t][0].atom_at if own else [0] * space.size
        part = ref.by_level_sets(space, [(part.atom_index(o), label, v) for o, label, v in
                                         zip(space.outcomes, labels, values)])
        parts.append(part)
    flow = Filtration(space, tuple(parts))
    want = ref.row_refined(ref.Rows.of(X), flow).process()  # before the loader's build
    got = Process.from_keys(space, *scenario._paths(doc, "prices", space, arith), flow)
    assert_same_layers(got, want)
    for t, own in enumerate(adapted):
        if own:
            assert got.layers[t][0] is flow.at(t)


@pytest.mark.parametrize("mode", MODES)
def test_loader_builds_on_a_flow_that_does_not_see_the_process_its_level_sets(mode):
    # The flow's finest atom holds every outcome, so no column is read off it.
    doc = parse_document(json.dumps(coin_tree(3)))
    arith = ARITH[mode]
    space = load_scenario(doc, arith).space
    blind = Filtration(space, (space.trivial,) * 4)
    want = ref.row_refined(ref.Rows.of(ref.load_process(doc["prices"], "prices", space, arith)),
                           blind)
    got = Process.from_keys(space, *scenario._paths(doc["prices"], "prices", space, arith), blind)
    assert_same_layers(got, want.process())


def test_loader_build_refuses_a_flow_of_another_horizon():
    doc = parse_document(json.dumps(coin_tree(3)))
    built = load_scenario(doc, EXACT)
    short = Filtration(built.space, built.F.partitions[:-1])
    keys, cells = scenario._paths(doc["prices"], "prices", built.space, EXACT)
    with pytest.raises(SpaceError, match="horizon"):
        Process.from_keys(built.space, keys, cells, short)


# ---------------------------------------------------------------------------
# golden inputs and coin trees


def coin_tree(horizon: int) -> dict:
    """The noisy coin tree's space, driver and prices on 2^(horizon+1)
    outcomes (as ``bench/gen.py`` writes them, in path order)."""
    up, down = Fraction(3, 25), Fraction(-2, 25)
    outcomes, weights, driver, prices = [], [], [], []
    for steps in itertools.product("ud", repeat=horizon):
        walk = list(itertools.accumulate((1 if s == "u" else -1 for s in steps), initial=0))
        price = itertools.accumulate((up if s == "u" else down for s in steps),
                                     initial=Fraction(1))
        price = [int(p) if p.denominator == 1 else str(p) for p in price]
        for noise, share in ((0, Fraction(4, 5)), (1, Fraction(1, 5))):
            outcomes.append("".join(steps) + str(noise))
            weights.append(str(share / 2 ** horizon))
            driver.append(walk)
            prices.append(price)
    return {"space": {"outcomes": outcomes, "weights": weights},
            "driver": driver, "prices": prices, "enlargement": {"kind": "none"}}


GOLDEN_DOCS = [path for cmd, path in INPUTS if cmd == "analyze"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("path", GOLDEN_DOCS, ids=lambda p: p.stem)
def test_loader_builds_the_reference_layers_of_every_golden_input(path, mode):
    arith = ARITH[mode]
    doc = parse_document(path.read_text())
    built = load_scenario(doc, arith)
    assert_loads_alike(doc, built.space, arith)
    assert_loads_alike(doc, built.space, arith, built.F)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("horizon", range(2, 9))
def test_loader_builds_the_reference_layers_of_coin_trees(horizon, mode):
    arith = ARITH[mode]
    doc = parse_document(json.dumps(coin_tree(horizon)))
    assert_loads_alike(doc, load_scenario(doc, arith).space, arith)


# ---------------------------------------------------------------------------
# two defects in one document

DEFECT_SEED = 5
DEFECT_CASES = 200


def _defect(doc, field: str, rng):
    """Put one random defect into ``field`` of ``doc`` (in place): at a
    weight a bad token, a list or ``true``; in a list of paths one of those
    at a cell (a list where a number goes), a short or a long path, or a
    cell of another dimension."""
    if field == "weights":
        weights = doc["space"]["weights"]
        weights[rng.randrange(len(weights))] = rng.choice(["abc", [1], True])
        return
    paths = doc[field]
    i = rng.randrange(len(paths))
    t = rng.randrange(len(paths[i]))
    kind = rng.choice(["token", "list", "true", "short", "long", "dimension"])
    if kind == "short":
        del paths[i][1:]
    elif kind == "long":
        paths[i].append(paths[i][-1])
    elif kind == "dimension":
        cell = paths[i][t]
        paths[i][t] = cell[:-1] if isinstance(cell, list) else [cell, cell]
    else:
        bad = {"token": "abc", "list": [1], "true": True}[kind]
        if isinstance(paths[i][t], list) and paths[i][t]:
            paths[i][t][rng.randrange(len(paths[i][t]))] = bad
        else:
            paths[i][t] = [bad] if kind == "list" else bad


def _run(doc, mode, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["analyze", "-", "--mode", mode])
    return code, capsys.readouterr().err


def reference_paths(paths_doc, path, space, arith, horizon=None):
    """``reference.load_process`` in place of the loader's ``_paths``: the
    paths read cell by cell, then handed on keyed by (outcome, t)."""
    X = ref.load_process(paths_doc, path, space, arith, horizon)
    keys = [[(o, t) for t in range(X.horizon + 1)] for o in space.outcomes]
    return keys, {key: X.at(*key) for row in keys for key in row}


def test_two_defects_fail_as_the_reference_loader_fails(monkeypatch, capsys):
    rng = random.Random(DEFECT_SEED)
    sources = [json.loads(path.read_text()) for path in GOLDEN_DOCS]
    problems, codes = [], set()
    for case in range(DEFECT_CASES):
        doc = json.loads(json.dumps(rng.choice(sources)))
        fields = ["weights"] + [f for f in FIELDS if f in doc]
        first = rng.choice(fields)
        _defect(doc, first, rng)
        _defect(doc, first if rng.random() < 0.75 else rng.choice(fields), rng)
        mode = rng.choice(MODES)
        got = _run(doc, mode, monkeypatch, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(scenario, "_weights", ref.load_weights)
            patch.setattr(scenario, "_paths", reference_paths)
            want = _run(doc, mode, monkeypatch, capsys)
        codes.add(got[0])
        if got != want:
            problems.append(f"case {case} {doc.get('name')} {mode}: {got} != {want}")
    assert problems == []
    assert codes == {3}  # every case fails on its input


# ---------------------------------------------------------------------------
# work on the way in


def test_exact_load_parses_each_distinct_token_once(monkeypatch):
    """The T = 6 golden tree has 128 outcomes, 2 distinct weights and 38
    distinct driver and price tokens: the loader parses those and makes no
    Fraction per outcome or per cell (a per-cell load parses 166 tokens and
    makes 294 Fractions)."""
    doc = parse_document((GOLDEN / "noisy_tree_T6.json").read_text())
    calls = {"Fraction": 0, "parse": 0}
    fraction_new, parse = Fraction.__new__, Arithmetic.parse

    def counted_new(cls, *args, **kwargs):
        calls["Fraction"] += 1
        return fraction_new(cls, *args, **kwargs)

    def counted_parse(self, raw):
        calls["parse"] += 1
        return parse(self, raw)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Arithmetic, "parse", counted_parse)
    load_scenario(doc, EXACT)
    monkeypatch.undo()
    assert calls["Fraction"] <= 60
    assert calls["parse"] <= 40
