"""Shared-cell kernels against the per-cell kernels in ``reference``.

The engine computes once per distinct operand object and lets equal cells
share one tuple.  These seeded differential tests feed both versions the
same processes, whose cells mix shared objects, equal but distinct objects
and unequal values (float mode adds 0.0 against -0.0), on the b2n fixture
and on small random trees.  Exact mode must give equal results; float mode
must give the same bits, cell by cell.
"""

import random
import struct
from fractions import Fraction

import pytest

import reference as ref
from marketforge.arith import EXACT, FLOAT
from marketforge.calculus import accumulate, stoch_exp
from marketforge.fixtures import b2n
from marketforge.space import (
    Filtration,
    Process,
    SampleSpace,
    cond_exp,
    first_mismatch,
    is_adapted,
    per_distinct,
)

MODES = {"exact": EXACT, "float": FLOAT}
POOL = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def _bits(x):
    """A cell component as its type and exact value; floats by their bits,
    so that 0.0 and -0.0 differ."""
    if isinstance(x, float):
        return "float", struct.pack("<d", x)
    return type(x).__name__, x


def _cells(rows):
    return [[tuple(map(_bits, v)) for v in row] for row in rows]


def assert_same(got, want):
    assert _cells(got) == _cells(want)


def random_tree(rng, arith):
    """A random filtration on 3..12 outcomes: each outcome walks a random
    path of labels, and the time-t partition groups equal t-prefixes."""
    n, horizon = rng.randint(3, 12), rng.randint(1, 3)
    labels = [tuple(rng.randint(0, 2) for _ in range(horizon)) for _ in range(n)]
    raw = [rng.randint(1, 9) for _ in range(n)]
    weights = [Fraction(r, sum(raw)) for r in raw]
    if not arith.exact:
        weights = [float(w) for w in weights]
    space = SampleSpace(tuple(f"o{i}" for i in range(n)), tuple(weights), arith=arith)
    parts = tuple(ref.by_level_sets(space, [lab[:t] for lab in labels])
                  for t in range(horizon + 1))
    return space, Filtration(space, parts)


class CellMaker:
    """Draws cells from a small value pool.  A new cell reuses an earlier
    object, copies an earlier value into a fresh object, or draws anew."""

    def __init__(self, rng, arith):
        self.rng, self.arith, self.made = rng, arith, []

    def number(self):
        x = self.rng.choice(POOL)
        if self.arith.exact:
            return x
        return self.rng.choice([-0.0, 0.0]) if x == 0 else float(x) / 7

    def fresh_copy(self, v):
        if self.arith.exact:
            return tuple(Fraction(x.numerator, x.denominator) for x in v)
        return tuple(x * 1.0 for x in v)

    def cell(self, dim):
        pick = self.rng.random()
        same_dim = [v for v in self.made if len(v) == dim]
        if same_dim and pick < 0.4:
            return self.rng.choice(same_dim)
        if same_dim and pick < 0.6:
            return self.fresh_copy(self.rng.choice(same_dim))
        v = tuple(self.number() for _ in range(dim))
        self.made.append(v)
        return v

    def column(self, size, dim):
        return [self.cell(dim) for _ in range(size)]

    def process(self, space, horizon, dim, start_at_zero=False):
        cols = [self.column(space.size, dim) for _ in range(horizon + 1)]
        if start_at_zero:
            zero = (self.arith.parse(0),) * dim
            cols[0] = [zero] * space.size
        return Process(space, tuple(map(tuple, cols)))


def models(mode):
    arith = MODES[mode]
    fx = b2n(arith)
    yield random.Random(11), fx.space, fx.F
    for seed in range(12):
        rng = random.Random(1000 + seed)
        yield (rng, *random_tree(rng, arith))


@pytest.mark.parametrize("mode", MODES)
def test_increments_and_accumulate_match_the_per_cell_kernels(mode):
    for rng, space, F in models(mode):
        make = CellMaker(rng, space.arith)
        for dim in (1, 2):
            X = make.process(space, F.horizon, dim)
            assert_same(X.increments(), ref.increments(X))
            columns = [make.column(space.size, dim) for _ in range(F.horizon)]
            assert_same(accumulate(space, columns, dim).columns,
                        ref.accumulate(space, columns, dim).columns)


@pytest.mark.parametrize("mode", MODES)
def test_cond_exp_matches_the_per_cell_kernel(mode):
    for rng, space, F in models(mode):
        make = CellMaker(rng, space.arith)
        for part in F.partitions:
            for dim in (1, 2):
                vectors = make.column(space.size, dim)
                assert_same([cond_exp(vectors, part, space)],
                            [ref.cond_exp(vectors, part, space)])
            scalars = [v[0] for v in make.column(space.size, 1)]
            got, want = cond_exp(scalars, part, space), ref.cond_exp(scalars, part, space)
            assert list(map(_bits, got)) == list(map(_bits, want))


@pytest.mark.parametrize("mode", MODES)
def test_algebra_and_stoch_exp_match_the_per_cell_kernels(mode):
    for rng, space, F in models(mode):
        make = CellMaker(rng, space.arith)
        X = make.process(space, F.horizon, 1, start_at_zero=True)
        Y = make.process(space, F.horizon, 1)
        for got, op in ((X + Y, lambda a, b: a + b), (X - Y, lambda a, b: a - b),
                        (X.times(Y), lambda a, b: a * b)):
            assert_same(got.columns, ref.zip_with(X, Y, op).columns)
        assert_same(stoch_exp(X).columns, ref.stoch_exp(X).columns)


@pytest.mark.parametrize("mode", MODES)
def test_interning_keeps_every_bit_and_shares_equal_cells(mode):
    arith = MODES[mode]
    fx = b2n(arith)
    zero, negzero = arith.parse(0), -0.0 if mode == "float" else arith.parse(0)
    paths = [[zero if i % 2 else negzero, arith.parse("1/2"), arith.parse("1/2")]
             for i in range(fx.space.size)]
    X = Process.from_paths(fx.space, paths)
    assert _cells(X.columns) == _cells([[(x,) for x in col] for col in zip(*paths)])
    assert len({id(v) for col in X.columns[1:] for v in col}) == 1
    assert first_mismatch(X, Process(fx.space, X.columns)) is None
    assert is_adapted(X, fx.F)


def test_increments_are_computed_once_per_process():
    fx = b2n()
    assert fx.W.increments() is fx.W.increments()
    assert (fx.W + fx.W).increments() is not fx.W.increments()


def test_per_distinct_calls_op_once_per_distinct_operand_tuple():
    a, b = (Fraction(1),), (Fraction(1),)  # equal, distinct objects
    calls = []

    def op(u, v):
        calls.append((u, v))
        return (u[0] + v[0],)

    out = per_distinct(op, [a, a, b, a], [b, b, b, a])
    assert out == ((2,),) * 4
    assert len(calls) == 3 and out[0] is out[1]
