"""The column-major kernels against their row-major oracles in ``reference``.

A layer is stored as (partition, columns, den): one tuple per value
component, each with one entry per atom.  Every kernel runs one ``map`` per
column; the oracles (``reference.row_*``) are the per-cell kernels that ran
on (partition, cells, den) layers before, one Python operation per cell.
These ``hypothesis`` tests draw raw layers and processes straight from
partitions and entries, not through a builder: dimensions 0 to 3,
unreduced exact numerators over denominators mostly above 1, float entries
that mix 0.0 with -0.0, and partitions that refine, are refined by or cross
each other (a flow's, the trivial and discrete ones, the level sets of a
random labelling and their meets).  Every result must hold the same
partition object and denominator as its oracle's, with equal exact
numerators and float entries of the same repr, stored by column: one
column per component, each with one entry per atom, and in exact mode
gcd(den, *numerators) = 1.  The contraction ops are checked against the
per-cell lambdas they replaced, the dot product summed from 0 (``0 +
-0.0`` is 0.0).
"""

import math
import operator
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from marketforge.calculus import (
    accumulate,
    bracket,
    centred,
    integrate,
    is_martingale,
    min_tilt,
    stoch_exp,
    sum_steps,
)
from marketforge.space import (
    Process,
    _common,
    _reduced,
    _scaled,
    all_entries,
    atom_means,
    build_initial_enlargement,
    componentwise,
    extrema,
    first_failing,
    first_mismatch,
    is_adapted,
    outer,
    product,
)

from test_atom_kernels import MODES, markets

FLOATS = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1 / 7, -3 / 7]
DENS = [1, 2, 3, 4, 6, 12]


def partitions(data, space, F) -> list:
    """A flow's partitions, the trivial and discrete ones, the level sets of
    a random labelling (crossing the flow's) and their meets."""
    labels = data.draw(st.lists(st.integers(0, 2), min_size=space.size, max_size=space.size))
    crossing = ref.by_level_sets(space, labels)
    pool = [*F.partitions, space.trivial, ref.discrete(space), crossing]
    return pool + [crossing.meet(part)[0] for part in F.partitions]


def layer(data, part, dim) -> tuple:
    """A raw (part, columns, den) layer: exact numerators in -6..6 over a
    denominator, not reduced; float entries from ``FLOATS``, over 1."""
    n = len(part.atoms)
    if part.space.arith.exact:
        entry, den = st.integers(-6, 6), data.draw(st.sampled_from(DENS))
    else:
        entry, den = st.sampled_from(FLOATS), 1
    cols = tuple(tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(dim))
    return part, cols, den


def process(data, pool, horizon, dim, start_at_zero=False) -> Process:
    """A raw process: each time on a partition drawn from ``pool``."""
    layers = [layer(data, data.draw(st.sampled_from(pool)), dim) for _ in range(horizon + 1)]
    if start_at_zero:
        part, cols, _ = layers[0]
        layers[0] = part, tuple((0 * c[0],) * len(c) for c in cols), 1
    return Process(pool[0].space, tuple(layers))


def assert_same(got, want, reduced=True):
    """``got``, a column-major layer, is the row-major layer ``want``."""
    part, cols, den = got
    want_part, want_cells, want_den = want
    assert part is want_part
    assert all(len(col) == len(part.atoms) for col in cols)
    assert type(den) is int and den == want_den
    assert repr(ref.by_row(got)[1]) == repr(tuple(map(tuple, want_cells)))
    if part.space.arith.exact and reduced:
        assert all(type(a) is int for col in cols for a in col)
        assert math.gcd(den, *(a for col in cols for a in col)) == 1
    elif not part.space.arith.exact:
        assert den == 1


def assert_same_process(X, Y, reduced=True):
    assert len(X.layers) == len(Y.layers)
    for got, want in zip(X.layers, Y.layers):
        assert_same(got, want, reduced)


def terms_of(data, n, m, dot):
    """Random contraction terms for an n-vector and an m-vector: 0..3
    outputs, each listing pairs (i, j), at least one unless ``dot``."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    if n == 0 or m == 0:
        return tuple(() for _ in range(data.draw(st.integers(0, 2)))) if dot else ()
    return tuple(tuple(data.draw(st.lists(pair, min_size=0 if dot else 1, max_size=3)))
                 for _ in range(data.draw(st.integers(0, 3))))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_layer_kernels_match_their_row_oracles(mode, data):
    space, F = data.draw(markets(MODES[mode]))
    pool = partitions(data, space, F)
    dim = data.draw(st.integers(0, 3))
    a, b, c = (layer(data, data.draw(st.sampled_from(pool)), dim) for _ in range(3))
    rows = list(map(ref.by_row, (a, b, c)))
    assert_same(_reduced(*a), ref.row_reduced(*rows[0]))
    f = data.draw(st.integers(1, 5))
    assert ref.by_row((a[0], _scaled(a[1], operator.mul, f), 1))[1] == \
        ref.row_scaled(rows[0][1], operator.mul, f)
    part, args, den = _common((a, b, c))
    want_part, want_args, want_den = ref.row_common(rows)
    assert part is want_part and den == want_den
    for got, want in zip(args, want_args):
        assert repr(ref.by_row((part, got, den))[1]) == repr(tuple(want))
    for op in (operator.add, operator.sub):
        assert_same(componentwise(op, a, b), ref.row_componentwise(op, *rows[:2]))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_contractions_match_the_per_cell_ops(mode, data):
    """``product`` against the per-cell sum of products; ``atom_means`` of
    one layer and of an outer product against the per-cell means."""
    space, F = data.draw(markets(MODES[mode]))
    pool = partitions(data, space, F)
    n, m = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    a = layer(data, data.draw(st.sampled_from(pool)), n)
    b = layer(data, data.draw(st.sampled_from(pool)), m)
    for dot in (False, True):
        terms = terms_of(data, n, m, dot)
        assert_same(product(terms, a, b, dot),
                    ref.row_product(ref.contraction(terms, dot, space.arith.exact),
                                    ref.by_row(a), ref.by_row(b)))
    assert_same(product(outer(n, m), a, b),
                ref.row_product(lambda u, v: tuple(x * y for x in u for y in v),
                                ref.by_row(a), ref.by_row(b)))
    for given_part in pool:
        assert_same(atom_means(given_part, a), ref.row_atom_means(given_part, ref.by_row(a)))
        assert_same(atom_means(given_part, a, b),
                    ref.row_outer_means(given_part, ref.by_row(a), ref.by_row(b)))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_process_kernels_match_their_row_oracles(mode, data):
    space, F = data.draw(markets(MODES[mode]))
    pool = partitions(data, space, F)
    n, m = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    X, Y = process(data, pool, F.horizon, n), process(data, pool, F.horizon, m)
    terms = terms_of(data, n, m, True)
    RX, RY = ref.Rows.of(X), ref.Rows.of(Y)
    assert_same_process(X.increments, RX.increments)
    assert_same_process(accumulate(X), ref.row_accumulate(RX))
    assert_same_process(centred(X), ref.row_centred(RX))
    assert_same_process(bracket(X, Y), ref.row_sum_steps(
        lambda u, v: tuple(x * y for x in u for y in v), n * m, RX.increments, RY.increments))
    if n == m:
        assert_same_process(integrate(Y, X), ref.row_sum_steps(
            lambda dx, h: (ref.summed(space.arith.exact)(x * y for x, y in zip(h, dx)),), 1,
            RX.increments, RY))
    assert_same_process(sum_steps(terms, X.increments, Y, dot=True),
                        ref.row_sum_steps(ref.contraction(terms, True, space.arith.exact),
                                          len(terms), RX.increments, RY))
    assert_same_process(X.refined(F), ref.row_refined(RX, F), reduced=False)
    for j in range(n):
        assert_same_process(X.component(j), ref.Rows(space, tuple(
            ref.row_pointwise(lambda v: (v[j],), layer) for layer in RX.layers)))
    c = data.draw(st.sampled_from([Fraction(-2, 3), Fraction(3, 4), Fraction(5)]))
    num, q = (c.numerator, c.denominator) if mode == "exact" else (float(c), 1)
    c = c if mode == "exact" else float(c)
    assert_same_process(X.scale(c), ref.Rows(space, tuple(
        ref.row_reduced(part, ref.row_scaled(cells, operator.mul, num), den * q)
        for part, cells, den in RX.layers)))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_scalar_kernels_match_their_row_oracles(mode, data):
    """``times``, ``stoch_exp`` and the tilt floor ``min_tilt``."""
    space, F = data.draw(markets(MODES[mode]))
    pool = partitions(data, space, F)
    X = process(data, pool, F.horizon, 1, start_at_zero=True)
    Y = process(data, pool, F.horizon, 1)
    RX, RY = ref.Rows.of(X), ref.Rows.of(Y)
    assert_same_process(X.times(Y), ref.Rows(space, tuple(
        ref.row_product(lambda u, v: (u[0] * v[0],), a, b)
        for a, b in zip(RX.layers, RY.layers))))
    assert_same_process(stoch_exp(X), ref.row_stoch_exp(RX))
    G = build_initial_enlargement(F, data.draw(st.lists(
        st.integers(0, 2), min_size=space.size, max_size=space.size))).expanded
    d = data.draw(st.integers(0, 3))
    phi, N = process(data, pool, F.horizon, d), process(data, pool, F.horizon, d)
    u, first = min_tilt(phi, N, F, G)
    want, want_first = ref.row_min_tilt(ref.Rows.of(phi), ref.Rows.of(N), F, G)
    assert_same_process(u, want)
    assert first == want_first


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_decisions_match_their_row_oracles(mode, data):
    """``is_adapted``, ``first_mismatch``, ``first_failing``, exact
    ``extrema``, ``value_keys`` and the martingale check."""
    space, F = data.draw(markets(MODES[mode]))
    pool = partitions(data, space, F)
    dim = data.draw(st.integers(0, 3))
    X, Y = process(data, pool, F.horizon, dim), process(data, pool, F.horizon, dim)
    if data.draw(st.booleans()):  # the same values on other partitions
        Y = X.refined(F)
    RX, RY = ref.Rows.of(X), ref.Rows.of(Y)
    G = build_initial_enlargement(F, data.draw(st.lists(
        st.integers(0, 2), min_size=space.size, max_size=space.size))).expanded
    for flow in (F, G):
        assert is_adapted(X, flow) == ref.row_is_adapted(RX, flow)
    got = first_mismatch(X, Y)
    assert (got and (space.index(got[0]), got[1])) == (ref.row_first_mismatch(RX, RY) or None)
    arith = space.arith
    # Each column predicate beside the per-cell test it stands for, the
    # oracle's: no column means no flag, so every cell passes.
    tests = [(None, None),
             (lambda cols, den: all_entries(operator.lt, cols, den),
              lambda v, den: all(a < den for a in v)),
             (lambda cols, den: map(arith.eq, cols[0], repeat(den)) if cols else (),
              lambda v, den: not v or arith.eq(v[0], den)),
             (lambda cols, den: repeat(len(cols) > 5), lambda v, den: len(v) > 5)]
    (test, cell_test), (start, cell_start) = data.draw(st.sampled_from(tests)), \
        data.draw(st.sampled_from(tests))
    assert first_failing(X, test, start) == ref.row_first_failing(RX, cell_test, cell_start)
    if mode == "exact":
        assert extrema(X) == ref.row_extrema(RX)
    for t in range(F.horizon + 1):
        assert X.value_keys(t, G.at(t)) == ref.row_value_keys(RX, t, G.at(t).atoms)
    # The martingale check on a process adapted to F: its first atom, in
    # (time, atom) order, with a mean increment off zero.
    A = Process.adapted(F, {(t, k): data.draw(st.tuples(*[st.sampled_from(
        [arith.parse(x) for x in (0, 1, -2, "1/3")])] * dim))
        for t in range(F.horizon + 1) for k in range(len(F.at(t).atoms))}, dim)
    witness = is_martingale(A, F)
    brute = next(((t, F.at(t - 1).atoms[k])
                  for t in range(1, F.horizon + 1)
                  for k, v in enumerate(ref.row_atom_means(
                      F.at(t - 1), ref.Rows.of(A).increments.layers[t])[1])
                  if not all(map(arith.is_zero, v))), None)
    assert (witness and (witness.t, witness.atom)) == brute
