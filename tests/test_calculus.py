"""Discrete stochastic calculus operators against brute-force oracles."""

import random
from fractions import Fraction

import pytest

from marketforge.calculus import (
    CalculusError,
    bracket,
    compensator,
    doob_decompose,
    integrate,
    is_martingale,
    pred_bracket,
    stoch_exp,
)
from marketforge.arith import EXACT, FLOAT
from marketforge.fixtures import b1, b2
from marketforge.mrp import Driver
from marketforge.space import Filtration, Process, SampleSpace, SpaceError, starts_at_zero

from reference import expectation, from_values, is_predictable
from util import brute_compensator, random_adapted, random_predictable

F = Fraction


def test_compensator_of_squared_walk():
    fx = b1()
    A = bracket(fx.W, fx.W)
    comp = compensator(A, fx.F)
    # The walk squares to 1 each step, so the compensator climbs by 1 surely.
    assert comp.value("u", 1) == 1
    assert comp.value("d", 1) == 1
    assert is_predictable(comp, fx.F)


def test_compensator_requires_null_start():
    fx = b1()
    with pytest.raises(CalculusError):
        compensator(fx.S, fx.F)


@pytest.mark.parametrize("arith", [EXACT, FLOAT])
def test_every_time_zero_check_reads_the_start_alone(arith):
    # The driver, the compensator and the stochastic exponential each
    # require X_0 = 0, read off the time-0 layer: later values do not
    # matter, and in float mode a start within the tolerance is zero.
    fx = b1(arith)
    assert starts_at_zero(fx.W) and not starts_at_zero(fx.S)
    assert starts_at_zero(fx.W.increments)
    nudged = fx.W + Process.constant(fx.space, 1, arith.parse("1/1000000000000"))
    assert starts_at_zero(nudged) is not arith.exact
    with pytest.raises(CalculusError, match="must start at 0"):
        stoch_exp(fx.S)
    with pytest.raises(CalculusError, match="null at time 0"):
        compensator(fx.S, fx.F)
    with pytest.raises(SpaceError, match="driver must start at 0"):
        Driver(fx.S, fx.F)


def test_compensator_contract_randomized():
    fx = b2()
    rng = random.Random(2024)
    for _ in range(30):
        A = random_adapted(fx.space, fx.F, rng)
        A = A - Process.constant(fx.space, fx.F.horizon, A.value("uu", 0))
        comp = compensator(A, fx.F)
        brute = brute_compensator(A, fx.F)
        assert all(
            comp.at(o, t) == brute.at(o, t)
            for o in fx.space.outcomes for t in range(A.horizon + 1)
        )
        witness = is_martingale(A - comp, fx.F)
        assert witness is None, witness


def test_doob_decomposition_of_price():
    fx = b1()
    dec = doob_decompose(fx.S, fx.F)
    assert dec.predictable_part.value("u", 1) == F(1, 50)
    assert dec.martingale_part.value("u", 1) == F(1, 10)
    assert dec.martingale_part.value("d", 1) == F(-1, 10)
    # S = S_0 + M + A, cell by cell
    assert all(
        fx.S.value(o, t) == fx.S.value(o, 0) + dec.martingale_part.value(o, t)
        + dec.predictable_part.value(o, t)
        for o in fx.space.outcomes for t in range(fx.S.horizon + 1)
    )


def test_doob_decomposition_unique_among_predictable_splits():
    # Uniqueness oracle: any other split with a predictable-null-at-0 drift
    # and martingale remainder must coincide with the Doob one.
    fx = b2()
    rng = random.Random(7)
    X = random_adapted(fx.space, fx.F, rng)
    dec = doob_decompose(X, fx.F)
    drift = dec.predictable_part
    mart = dec.martingale_part
    assert is_predictable(drift, fx.F)
    assert is_martingale(mart, fx.F) is None
    # Perturbing the split by any nonzero predictable process breaks one side.
    bump = random_predictable(fx.space, fx.F, rng)
    bump = bump - Process.constant(fx.space, fx.F.horizon, bump.value("uu", 0))
    if any(bump.value(o, t) != 0 for o in fx.space.outcomes for t in range(3)):
        assert is_martingale(mart + bump, fx.F) is not None or not is_predictable(
            drift - bump, fx.F
        )


def test_bracket_values_and_symmetry():
    fx = b1()
    B = bracket(fx.W, fx.W)
    assert B.value("u", 0) == 0
    assert B.value("u", 1) == 1
    fx2 = b2()
    rng = random.Random(3)
    X = random_adapted(fx2.space, fx2.F, rng)
    Y = random_adapted(fx2.space, fx2.F, rng)
    BXY = bracket(X, Y)
    BYX = bracket(Y, X)
    assert all(
        BXY.at(o, t) == BYX.at(o, t)
        for o in fx2.space.outcomes for t in range(3)
    )


def test_bracket_pulls_integrands_out():
    fx = b2()
    # H depends on the first step only: predictable by time 2.
    H = from_values(
        fx.space,
        lambda o, t: F(2) if t <= 1 else fx.W.value(o, 1) * F(3),
        fx.F.horizon,
    )
    rng = random.Random(5)
    Y = random_adapted(fx.space, fx.F, rng)
    lhs = bracket(integrate(H, fx.W), Y)
    rhs = integrate(H, bracket(fx.W, Y))
    assert all(
        lhs.at(o, t) == rhs.at(o, t) for o in fx.space.outcomes for t in range(3)
    )


def test_pred_bracket_of_walk_counts_time():
    fx = b2()
    pb = pred_bracket(fx.W, fx.W, fx.F)
    assert all(pb.value(o, t) == t for o in fx.space.outcomes for t in range(3))
    # Bracket minus predictable bracket of a martingale is a martingale.
    diff = bracket(fx.W, fx.W) - pb
    assert is_martingale(diff, fx.F) is None


def test_integrate_simple_values():
    fx = b1()
    H = Process.constant(fx.space, 1, F(2))
    I = integrate(H, fx.W)
    assert I.value("u", 1) == 2
    assert I.value("d", 1) == -2
    ones = Process.constant(fx.space, 1, F(1))
    ident = integrate(ones, fx.S)
    assert ident.value("u", 1) == fx.S.value("u", 1) - fx.S.value("u", 0)


def test_integrate_linearity_and_associativity():
    fx = b2()
    rng = random.Random(11)
    H = random_predictable(fx.space, fx.F, rng)
    K = random_predictable(fx.space, fx.F, rng)
    X = random_adapted(fx.space, fx.F, rng)
    lhs = integrate(H, integrate(K, X))
    rhs = integrate(H.times(K), X)
    assert all(
        lhs.at(o, t) == rhs.at(o, t) for o in fx.space.outcomes for t in range(3)
    )
    both = integrate(H + K, X)
    split = integrate(H, X) + integrate(K, X)
    assert all(
        both.at(o, t) == split.at(o, t)
        for o in fx.space.outcomes for t in range(3)
    )


def test_integrate_vector_transpose_rule():
    # A d-dimensional integrand against a d-dimensional integrator gives the
    # running inner product of coefficients with increments.
    fx = b2()
    W2 = from_values(
        fx.space,
        lambda o, t: (fx.W.value(o, t), F(2) * fx.W.value(o, t)),
        fx.F.horizon, dim=2,
    )
    H = from_values(fx.space, lambda o, t: (F(1), F(1)), fx.F.horizon, dim=2)
    I = integrate(H, W2)
    assert I.dim == 1
    assert I.value("uu", 2) == fx.W.value("uu", 2) * 3


def test_float_integral_is_correctly_rounded_on_every_python():
    # The products 1e16, 1.0 and -1e16 add to 1.0; a left fold from 0 loses
    # the 1.0 (0.0 on Python 3.10 and 3.11, 1.0 under 3.12's compensated
    # built-in sum).  math.fsum gives 1.0 on every version.
    space = SampleSpace(("o",), (1.0,), arith=FLOAT)
    F1 = Filtration(space, (space.trivial,) * 2)
    H = Process.keyed(F1, [(0,)], [(1e16, 1.0, -1e16)], 3)
    X = Process.adapted(F1, {(0, 0): (0.0, 0.0, 0.0), (1, 0): (1.0, 1.0, 1.0)}, dim=3)
    assert integrate(H, X).value("o", 1) == 1.0


def test_stoch_exp_values_and_flags():
    fx = b1()
    D = fx.W.scale(F(1, 5))
    E = stoch_exp(D.scale(-1))
    assert E.value("u", 0) == 1
    assert E.value("u", 1) == F(4, 5)
    assert E.value("d", 1) == F(6, 5)
    # A unit down-jump kills the exponential without raising.
    dead = stoch_exp(fx.W.scale(-1))
    assert dead.value("u", 1) == 0


def test_yor_product_formula():
    fx = b2()
    rng = random.Random(13)
    for _ in range(25):
        X = random_adapted(fx.space, fx.F, rng)
        X = X - Process.constant(fx.space, 2, X.value("uu", 0))
        Y = random_adapted(fx.space, fx.F, rng)
        Y = Y - Process.constant(fx.space, 2, Y.value("uu", 0))
        lhs = stoch_exp(X).times(stoch_exp(Y))
        rhs = stoch_exp(X + Y + bracket(X, Y))
        assert all(
            lhs.at(o, t) == rhs.at(o, t)
            for o in fx.space.outcomes for t in range(3)
        )


def test_integration_by_parts():
    fx = b2()
    rng = random.Random(17)
    for _ in range(25):
        X = random_adapted(fx.space, fx.F, rng)
        Y = random_adapted(fx.space, fx.F, rng)
        prod = X.times(Y)
        prod0 = prod.value("uu", 0)
        lhs = prod - Process.constant(fx.space, 2, prod0)
        rhs = integrate(X.lagged(), Y) + integrate(Y.lagged(), X) + bracket(X, Y)
        assert all(
            lhs.at(o, t) == rhs.at(o, t)
            for o in fx.space.outcomes for t in range(3)
        )


def test_is_martingale_and_witness():
    fx = b1()
    assert is_martingale(fx.W, fx.F) is None
    witness = is_martingale(fx.S, fx.F)
    assert witness is not None
    assert witness.t == 1
    assert witness.atom == ("u", "d")
    assert witness.detail == F(1, 50)


def test_deflated_unit_holding_is_martingale():
    # Deflating by the exponential of the negative structure drift makes the
    # buy-and-hold wealth a martingale on the one-step fixture.
    fx = b1()
    D = fx.W.scale(F(1, 5))
    deflator = stoch_exp(D.scale(-1))
    wealth = deflator.times(fx.S)
    assert is_martingale(wealth, fx.F) is None
    assert expectation(fx.space, [wealth.value(o, 1) for o in fx.space.outcomes]) == 1
