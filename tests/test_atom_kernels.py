"""Atom-major kernels against the per-cell kernels in ``reference``.

The engine stores a process as one value per (time, atom) of the partitions
it lives on, in exact mode as integer numerators over one denominator per
time, and combines operands on the meet of their partitions.  These
differential tests draw small markets (3 to 12 outcomes, 1 to 3 steps) and
processes on them with ``hypothesis``: per-outcome paths (stored on their
level sets), adapted and predictable processes (stored on the flow's
atoms), with cells from a small pool, so equal values repeat and float mode
mixes 0.0 with -0.0.  Exact mode must give equal results; float mode must
give the same bits, cell by cell, and the first failing and first
mismatching cells come in outcome-major order.  A storage test checks the
layers themselves: stored by column (one tuple per component, each with
one entry per atom), reduced integers in exact mode, floats over 1 in
float mode.  The decisions read the layers undecoded, so they are checked
against the numbers: ``first_failing``'s tests on (numerators, den), value
keys that merge equal values only, exact level sets of values written
differently, and the tilt floor ``min_tilt``; an exact ``analyze`` of a
golden tree must hash (almost) no Fraction.  A failing example shrinks to
a minimal market.
"""

import math
import operator
from fractions import Fraction
from itertools import repeat
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from marketforge.arith import EXACT, FLOAT
from marketforge.calculus import (
    accumulate,
    bracket,
    compensator,
    integrate,
    min_tilt,
    pred_bracket,
    stoch_exp,
)
from marketforge.cli import _run_pipeline, main
from marketforge.fixtures import b2n
from marketforge.scenario import load_scenario, parse_document
from marketforge.viability import price_drift_rhs
from marketforge.space import (
    Partition,
    Process,
    _decoded,
    atom_means,
    build_initial_enlargement,
    cond_exp,
    extrema,
    first_failing,
    first_mismatch,
    is_adapted,
)

from test_golden_reports import GOLDEN
from util import bits, tree

MODES = {"exact": EXACT, "float": FLOAT}
POOL = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def numbers(arith):
    """Pool numbers; in float mode a zero is 0.0 or -0.0."""
    exact = st.sampled_from(POOL)
    if arith.exact:
        return exact
    return exact.flatmap(lambda x: zeros(arith) if x == 0 else st.just(float(x) / 7))


def zeros(arith):
    return st.sampled_from([0.0, -0.0]) if not arith.exact else st.just(Fraction(0))


@st.composite
def markets(draw, arith):
    """A ``util.tree``: 3..12 outcomes walking 1..3 steps of 3 labels."""
    n, horizon = draw(st.integers(3, 12)), draw(st.integers(1, 3))
    labels = draw(st.lists(st.tuples(*[st.integers(0, 2)] * horizon),
                           min_size=n, max_size=n))
    return tree(labels, draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), arith)


@st.composite
def processes(draw, F, dim, start_at_zero=False, kinds=("paths", "adapted", "predictable")):
    """A process on F's grid: per-outcome paths, adapted or predictable."""
    arith, size = F.space.arith, F.space.size
    cell = st.tuples(*[numbers(arith)] * dim)
    zero = draw(st.tuples(*[zeros(arith)] * dim))
    kind = draw(st.sampled_from(kinds))
    if kind == "paths":
        paths = draw(st.lists(st.lists(cell, min_size=F.horizon + 1, max_size=F.horizon + 1),
                              min_size=size, max_size=size))
        return Process.from_paths(F.space, [[zero, *path[1:]] if start_at_zero else path
                                            for path in paths])
    lag = kind == "predictable"
    table = {(t, k): draw(cell) for t in range(F.horizon + 1)
             for k in range(len(F.at(max(t - lag, 0)).atoms))}
    if start_at_zero:
        table.update({(0, k): zero for k in range(len(F.at(0).atoms))})
    if lag:
        return Process.predictable(F, table, dim, initial=table[(0, 0)])
    return Process.adapted(F, table, dim)


def cells(rows):
    return [[tuple(map(bits, v)) for v in row] for row in rows]


def assert_same(X, Y):
    assert cells(ref.columns(X)) == cells(ref.columns(Y))


def _draw(data, mode, *dims, **kwargs):
    space, F = data.draw(markets(MODES[mode]))
    return space, F, [data.draw(processes(F, d, **kwargs)) for d in dims]


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_increments_accumulate_and_sum_steps_match_the_per_cell_kernels(mode, data):
    space, F, (X, Y, Z) = _draw(data, mode, 2, 2, 1)
    assert cells(ref.columns(X.increments)[1:]) == cells(ref.increments(X))
    assert_same(accumulate(X), ref.accumulate(space, ref.columns(X)[1:], 2))
    total = ref.summed(space.arith.exact)
    dot = [[(total(a * b for a, b in zip(h, dx)),) for dx, h in zip(inc, ref.column(Y, t))]
           for t, inc in enumerate(ref.increments(X), 1)]
    assert_same(integrate(Y, X), ref.accumulate(space, dot, 1))
    outer = [[tuple(a * b for a in dz for b in dx) for dz, dx in zip(*incs)]
             for incs in zip(ref.increments(Z), ref.increments(X))]
    assert_same(bracket(Z, X), ref.accumulate(space, outer, 2))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_cond_exp_matches_the_per_cell_kernel(mode, data):
    space, F, (X,) = _draw(data, mode, data.draw(st.integers(1, 2)))
    for t in range(F.horizon + 1):
        for part in F.partitions:
            got = _decoded(cond_exp(X, t, part), space.arith.exact)
            want = ref.cond_exp(ref.column(X, t), part, space, X.layers[t][0])
            assert cells([[got[part.atom_index(o)] for o in space.outcomes]]) == cells([want])


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_compensator_matches_the_per_cell_kernel(mode, data):
    space, F, (A,) = _draw(data, mode, data.draw(st.integers(1, 2)), start_at_zero=True,
                           kinds=("adapted", "predictable"))
    means = [ref.cond_exp(inc, F.at(t - 1), space, A.layers[t][0], A.layers[t - 1][0])
             for t, inc in enumerate(ref.increments(A), 1)]
    assert_same(compensator(A, F), ref.accumulate(space, means, A.dim))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_algebra_and_stoch_exp_match_the_per_cell_kernels(mode, data):
    space, F = data.draw(markets(MODES[mode]))
    X, Y = data.draw(processes(F, 1, start_at_zero=True)), data.draw(processes(F, 1))
    for got, op in ((X + Y, lambda a, b: a + b), (X - Y, lambda a, b: a - b),
                    (X.times(Y), lambda a, b: a * b)):
        assert_same(got, ref.zip_with(X, Y, op))
    assert_same(stoch_exp(X), ref.stoch_exp(X))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_scale_by_a_fraction_matches_the_per_cell_kernel(mode, data):
    space, F, (X,) = _draw(data, mode, data.draw(st.integers(1, 2)))
    c = data.draw(st.sampled_from([x for x in POOL if x.denominator > 1]))
    c = c if mode == "exact" else float(c) / 7
    scaled = [[tuple(c * a for a in v) for v in col] for col in ref.columns(X)]
    assert_same(X.scale(c), Process.from_paths(space, zip(*scaled)))
    assert_same(-X, Process.from_paths(space, zip(*[[tuple(-1 * a for a in v) for v in col]
                                                    for col in ref.columns(X)])))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_price_drift_rhs_matches_the_per_cell_kernel(mode, data):
    """d[D, M_i]^p + phi . d[N, M_i]^p per asset: the bracket of D plus
    the drift operator's running sums of phi . d[N, M_i]^p, against the
    per-cell sum of the same products added to the bracket cell by cell."""
    space, F = data.draw(markets(MODES[mode]))
    k, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    kinds = ("adapted", "predictable")
    M, D, N = (data.draw(processes(F, dim, kinds=kinds)) for dim in (k, 1, n))
    phi = data.draw(processes(F, n, kinds=("predictable",)))
    market = SimpleNamespace(F=F, martingale_part=M, k=k)
    got = price_drift_rhs(market, D, SimpleNamespace(N=N, phi=phi))
    total = ref.summed(space.arith.exact)
    steps = [[tuple(total(ph[j] * dn[j * k + i] for j in range(n)) for i in range(k))
              for dn, ph in zip(*cols)]
             for cols in zip(ref.increments(pred_bracket(N, M, F)), ref.columns(phi)[1:])]
    assert_same(got, ref.zip_with(pred_bracket(D, M, F), ref.accumulate(space, steps, k),
                                  operator.add))


def _layers_of(X):
    """Every layer of X and of the kernel results built from it."""
    Y = X.component(0)
    built = (X, X.increments, X + X, X.scale(Fraction(2, 3) if X.space.arith.exact else 0.5),
             Y.times(Y), accumulate(X), bracket(X, X))
    return [layer for Z in built for layer in Z.layers]


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_layers_hold_reduced_integers_in_exact_mode_and_floats_over_one(mode, data):
    space, F, (X, A) = _draw(data, mode, 2, 1, kinds=("adapted", "predictable"))
    # Means of products, given the flow's atoms (one child each, as X is
    # adapted and A predictable) and the previous time's.
    layers = [atom_means(given, X.layers[t], A.layers[t])
              for t in range(F.horizon + 1) for given in (F.at(t), F.at(max(t - 1, 0)))]
    assert all(len(cols) == 2 for _, cols, _ in layers)  # the outer product of 2 and 1
    A = A.increments  # zero at time 0, for the compensator and stoch_exp
    layers += _layers_of(X) + list(compensator(A, F).layers) + list(stoch_exp(A).layers)
    for part, cols, den in layers:
        # By column: a tuple per component, each with one entry per atom.
        assert type(cols) is tuple and all(type(col) is tuple for col in cols)
        assert all(len(col) == len(part.atoms) for col in cols)
        if mode == "float":
            assert den == 1
            continue
        numerators = [a for col in cols for a in col]
        assert type(den) is int and den > 0
        assert all(type(a) is int for a in numerators)
        assert math.gcd(den, *numerators) == 1
    assert all(type(x) is (Fraction if mode == "exact" else float)
               for x in X.at(space.outcomes[-1], F.horizon) + X.on_atoms(0, F.at(0), [0])[0])


def _brute_first_failing(X, test, start=None, increments=False):
    cols = dict(enumerate(ref.increments(X), 1) if increments else enumerate(ref.columns(X)))
    return min(((i, t) for i in range(X.space.size) for t, col in cols.items()
                if not ((start or test) if t == 0 else test)(col[i])), default=None)


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_first_failing_comes_in_outcome_major_order(mode, data):
    """Each test is a column predicate: it sees a layer's columns of
    numerators over its denominator, as test(cols, den), gives one flag
    per atom, and must agree with the same test on each cell's numbers."""
    space, F, (X,) = _draw(data, mode, 1)
    arith, bar = space.arith, data.draw(numbers(space.arith))
    differs = lambda a, b: not arith.eq(a, b)  # noqa: E731
    tests = [(lambda cols, den: map(operator.gt, cols[0], repeat(bar * den)),
              lambda x: x[0] > bar),
             (lambda cols, den: map(operator.lt, cols[0], repeat(den)), lambda x: x[0] < 1),
             (lambda cols, den: map(differs, cols[0], repeat(bar * den)),
              lambda x: not arith.eq(x[0], bar))]
    (test, brute), (start, brute_start) = data.draw(st.sampled_from(tests)), \
        data.draw(st.sampled_from(tests))
    assert first_failing(X, test) == _brute_first_failing(X, brute)
    assert first_failing(X, test, start) == _brute_first_failing(X, brute, brute_start)
    assert first_failing(X, start=start) == _brute_first_failing(
        X, lambda x: True, brute_start)
    assert first_failing(X, test, increments=True) == \
        _brute_first_failing(X, brute, increments=True)


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_layer_value_keys_merge_equal_values_only(mode, data):
    """Two cells share a value key exactly when their values are equal (in
    float mode: have the same bits, so 0.0 and -0.0 differ), across
    denominators and times; ``reference.value_key`` of the numbers gives the
    same key."""
    space, F, (X, Y) = _draw(data, mode, 2, 2)
    arith = space.arith
    keyed = [(key, v) for Z in (X, Y, X.increments, Y.scale(arith.parse("2/3")))
             for t in range(F.horizon + 1)
             for key, v in zip(Z.value_keys(t, F.at(t)),
                               Z.on_atoms(t, F.at(t), range(F.at(t).size)))]
    for key, v in keyed:
        assert (key,) == ref.value_key(arith, v)
        for other_key, w in keyed:
            assert (key == other_key) == (tuple(map(bits, v)) == tuple(map(bits, w)))


def test_value_key_merges_equal_values_only():
    value_key = ref.value_key
    half = Fraction(1, 2)
    assert value_key(EXACT, (half, 0), [1]) == \
        value_key(EXACT, (Fraction(2, 4), Fraction(0)), (1,))
    assert value_key(EXACT, (half,)) != value_key(EXACT, (Fraction(1, 3),))
    assert value_key(FLOAT, (0.5, 1.0)) == value_key(FLOAT, (0.5, 1.0))
    assert value_key(FLOAT, (0.0,)) != value_key(FLOAT, (-0.0,))  # keeps the sign of zero
    assert value_key(FLOAT, (0.0, 1.0)) != value_key(FLOAT, (0, 1.0))
    for arith in (EXACT, FLOAT):
        assert value_key(arith, (1,), (2,)) != value_key(arith, (1, 2))
        assert value_key(arith, (1,), (2,)) != value_key(arith, (2,), (1,))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_transition_keys_merge_equal_probability_vectors_only(mode, data):
    """Two time-(t-1) atoms share a ``Filtration.transition_keys`` key
    exactly when their child probability vectors are equal, which
    ``reference.value_key`` of the probabilities decides."""
    space, F = data.draw(markets(MODES[mode]))
    keyed = [(key, ref.value_key(space.arith, [p for _, p in kids]))
             for t in range(1, F.horizon + 1)
             for key, kids in zip(F.transition_keys(t), F.transitions(t))]
    assert len(keyed) == sum(len(F.at(t).atoms) for t in range(F.horizon))
    for key, oracle in keyed:
        for other_key, other in keyed:
            assert (key == other_key) == (oracle == other)


RAW = [0, Fraction(0), "0/5", 1, Fraction(2, 2), "1/2", "2/4", "0.5", Fraction(3, 6),
       "-1/3", "-2/6", Fraction(-1, 3), 2, "4/2"]


@given(data=st.data())
def test_exact_from_paths_groups_equal_values_written_differently(data):
    space, F = data.draw(markets(EXACT))
    dim = data.draw(st.integers(1, 2))
    raw = st.sampled_from(RAW).map(lambda x: EXACT.parse(x) if isinstance(x, str) else x)
    paths = data.draw(st.lists(st.lists(st.tuples(*[raw] * dim), min_size=F.horizon + 1,
                                        max_size=F.horizon + 1),
                               min_size=space.size, max_size=space.size))
    X = Process.from_paths(space, paths)
    for t, column in enumerate(zip(*paths)):
        brute = ref.by_level_sets(space, [tuple(map(Fraction, v)) for v in column])
        assert X.layers[t][0].atoms == brute.atoms
        assert [X.at(o, t) for o in space.outcomes] == list(column)


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_min_tilt_matches_the_per_cell_kernel(mode, data):
    """u_t = min(1 + phi_t . dN_t) over the children of the base atom, on
    each time-(t-1) expanded atom: equal in exact mode, the same bits in
    float mode; ``first`` is the first atom, in (t, atom) order, with
    u <= 0."""
    space, F = data.draw(markets(MODES[mode]))
    G = build_initial_enlargement(F, data.draw(st.lists(
        st.integers(0, 2), min_size=space.size, max_size=space.size))).expanded
    n = data.draw(st.integers(1, 2))
    N = data.draw(processes(F, n, kinds=("adapted", "predictable")))
    phi = data.draw(processes(G, n, kinds=("predictable",)))
    u, first = min_tilt(phi, N, F, G)
    want = ref.min_tilt(phi, N, F)
    start, *later = ref.columns(u)
    assert start == [(1,)] * space.size and cells(later) == cells(want)
    brute = next(((t, k) for t in range(1, F.horizon + 1)
                  for k, atom in enumerate(G.at(t - 1).atoms)
                  if not want[t - 1][space.index(atom[0])][0] > 0), None)
    assert first == brute


def test_exact_analyze_hashes_no_fraction(monkeypatch, capsys):
    """Memo keys, level sets and sign tests run on integer numerators: an
    exact analyze of the T = 6 golden tree hashes (almost) no Fraction."""
    calls = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls.append(1)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    assert main(["analyze", str(GOLDEN / "noisy_tree_T6.json"), "--mode", "exact"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert len(calls) <= 100


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_first_mismatch_comes_in_outcome_major_order(mode, data):
    space, F, (X,) = _draw(data, mode, 2)
    arith = space.arith
    paths = [list(path) for path in zip(*ref.columns(X))]
    for _ in range(data.draw(st.integers(0, 3))):
        i, t = data.draw(st.integers(0, space.size - 1)), data.draw(st.integers(0, F.horizon))
        paths[i][t] = data.draw(st.tuples(numbers(arith), numbers(arith)))
    Y = Process.from_paths(space, paths)
    brute = next(((o, t, a, b) for o, path in zip(space.outcomes, paths)
                  for t, v in enumerate(path) for a, b in zip(X.at(o, t), v)
                  if not arith.eq(a, b)), None)
    got = first_mismatch(X, Y)
    assert (got if got is None else (*got[:2], bits(got[2]), bits(got[3]))) == \
        (brute if brute is None else (*brute[:2], bits(brute[2]), bits(brute[3])))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_extrema_keep_the_first_of_equal_extremes_in_time_component_atom_order(mode, data):
    """Least and greatest entry from a start time on, and of the increments,
    against the row-major oracle: equal in value, and in float mode the
    same bits, so a tie of 0.0 and -0.0 keeps the same one."""
    space, F, (X,) = _draw(data, mode, data.draw(st.integers(1, 2)))
    start = data.draw(st.integers(0, F.horizon))
    RX = ref.Rows.of(X)
    for got, want in ((extrema(X, start), ref.row_extrema(RX, start)),
                      (extrema(X, increments=True), ref.row_extrema(RX.increments, 1))):
        assert got == want
        assert got is None or list(map(bits, got)) == list(map(bits, want))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_is_adapted_matches_a_brute_check(mode, data):
    space, F, (X,) = _draw(data, mode, 2)
    eq = space.arith.eq
    brute = all(all(map(eq, X.at(o, t), X.at(atom[0], t)))
                for t in range(F.horizon + 1) for atom in F.at(t).atoms for o in atom)
    assert is_adapted(X, F) == brute


@given(data=st.data())
def test_meet_is_the_coarsest_common_refinement(data):
    space, F = data.draw(markets(EXACT))
    P = F.at(data.draw(st.integers(0, F.horizon)))
    Q = ref.by_level_sets(space, data.draw(st.lists(st.integers(0, 2), min_size=space.size,
                                                    max_size=space.size)))
    meet, mine, theirs = P.meet(Q)
    brute = Partition.from_atoms(space, [[o for o in a if o in b] for a in P.atoms
                                         for b in Q.atoms if set(a) & set(b)])
    assert meet.atoms == brute.atoms
    assert all(set(m) <= set(P.atoms[a]) and set(m) <= set(Q.atoms[b])
               for m, a, b in zip(meet.atoms, mine, theirs))
    assert P.meet(Q) is P.meet(Q)
    assert Q.meet(P) == (meet, theirs, mine)  # the other order, built with the first
    final = F.at(F.horizon)  # a refinement is its own meet, with itself as index
    for a, b in ((final, P), (P, final), (Q, final)):
        meet, mine, theirs = a.meet(b)
        brute = Partition.from_atoms(space, [[o for o in x if o in y] for x in a.atoms
                                             for y in b.atoms if set(x) & set(y)])
        assert meet.atoms == brute.atoms
        assert [a.atom_index(m[0]) for m in meet.atoms] == list(mine)
        assert [b.atom_index(m[0]) for m in meet.atoms] == list(theirs)
        assert b.meet(a) == (meet, theirs, mine)
    meet, mine, theirs = final.meet(P)
    assert meet is final and mine == tuple(range(len(final.atoms)))
    assert theirs == final.parents(P)


@pytest.mark.parametrize("mode", MODES)
def test_from_paths_keeps_every_bit_and_one_cell_per_level_set(mode):
    arith = MODES[mode]
    fx = b2n(arith)
    zero, negzero = arith.parse(0), -0.0 if mode == "float" else arith.parse(0)
    paths = [[zero if i % 2 else negzero, arith.parse("1/2"), arith.parse("1/2")]
             for i in range(fx.space.size)]
    X = Process.from_paths(fx.space, paths)
    assert cells(ref.columns(X)) == cells([[(x,) for x in col] for col in zip(*paths)])
    assert [len(part.atoms) for part, _, _ in X.layers] == [2 if mode == "float" else 1, 1, 1]
    assert all(len(cols) == 1 and len(cols[0]) == len(part.atoms)
               for part, cols, _ in X.layers)
    assert first_mismatch(X, Process.from_paths(fx.space, zip(*ref.columns(X)))) is None
    assert is_adapted(X, fx.F)


def test_increments_are_computed_once_per_process():
    fx = b2n()
    assert fx.W.increments is fx.W.increments
    assert (fx.W + fx.W).increments is not fx.W.increments


@pytest.mark.parametrize("mode", MODES)
def test_processes_hold_one_cell_per_atom_of_their_flow(mode):
    arith = MODES[mode]
    built = load_scenario(parse_document((GOLDEN / "noisy_tree_T6.json").read_text()),
                          arith)
    verdict, _ = _run_pipeline(built)
    solution = verdict.solution
    F, G = built.F, built.pair.expanded

    def held(X):
        assert all(len(col) == len(part.atoms) for part, cols, _ in X.layers for col in cols)
        return sum(len(part.atoms) for part, _, _ in X.layers)

    f_cells = sum(len(F.at(t).atoms) for t in range(F.horizon + 1))
    g_cells = sum(len(G.at(t).atoms) for t in range(G.horizon + 1))
    assert (held(solution.martingale), held(solution.deflator)) == (g_cells, g_cells)
    assert held(built.market.S) == f_cells
    assert (f_cells, g_cells, built.space.size * (G.horizon + 1)) == (127, 254, 128 * 7)
