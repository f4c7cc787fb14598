"""Structure solves and deflator verdicts in base and expanded flows."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from marketforge import viability
from marketforge.arith import FLOAT
from marketforge.calculus import is_martingale, stoch_exp
from marketforge.enlarge import solve_phi
from marketforge.fixtures import b1, b2, b2i, b2n
from marketforge.mrp import Driver
from marketforge.space import (
    EnlargementPair,
    Filtration,
    Process,
    build_initial_enlargement,
)
from marketforge.viability import (
    ASSUMPTION_VIOLATED,
    NON_VIABLE,
    VIABLE,
    CheckFailed,
    Market,
    ViabilityError,
    price_drift_rhs,
    solve_structure_F,
    solve_structure_G,
    verify_deflator,
)

from reference import (
    from_values,
    lift_filtration,
    lift_process,
    product_with_independent,
    wealth,
)
from util import random_predictable, record_for, record_site_solves, site_at

F = Fraction


def _market(fx):
    return Market(fx.S, fx.F)


def _driver(fx):
    return Driver(fx.W, fx.F)


def _gauge(fx, pair=None):
    return solve_phi(pair or fx.pair, fx.W, fx.W)


def _base(fx):
    return solve_structure_F(_market(fx), _driver(fx))


# ---------------------------------------------------------------------------
# base-flow structure condition


def test_structure_solve_b1():
    fx = b1()
    sol = solve_structure_F(_market(fx), _driver(fx))
    assert sol.driver_coefficients.at("u", 1) == (F(1, 5),)
    assert [sol.martingale.value(o, 1) for o in ("u", "d")] == [F(1, 5), F(-1, 5)]
    assert [sol.deflator.value(o, 1) for o in ("u", "d")] == [F(4, 5), F(6, 5)]
    assert is_martingale(sol.martingale, fx.F) is None
    # The deflated asset has initial value as expectation: (0.8*1.12 + 1.2*0.92)/2.
    mean = sum(fx.space.weight(o) * sol.deflator.value(o, 1) * fx.S.value(o, 1)
               for o in ("u", "d"))
    assert mean == 1


def test_structure_solve_driftless_market():
    fx = b1()
    S = from_values(fx.space, lambda o, t: 1 + F(1, 10) * fx.W.value(o, t),
                    fx.F.horizon)
    sol = solve_structure_F(Market(S, fx.F), _driver(fx))
    assert all(sol.martingale.value(o, t) == 0
               for o in fx.space.outcomes for t in (0, 1))
    assert all(sol.deflator.value(o, 1) == 1 for o in fx.space.outcomes)


def test_structure_solve_jump_bound_failure():
    fx = b1()
    S = from_values(
        fx.space,
        lambda o, t: 1 + F(1, 10) * fx.W.value(o, t) + F(3, 20) * t,
        fx.F.horizon)
    with pytest.raises(CheckFailed) as err:
        solve_structure_F(Market(S, fx.F), _driver(fx))
    assert (err.value.status, err.value.stage) == (NON_VIABLE, "base-structure-solve")
    w = err.value.witness
    assert w.reason == "jump-bound" and w.t == 1 and w.detail == F(3, 2)


def test_structure_solve_unspanned_drift():
    fx = b1()
    S = from_values(fx.space, lambda o, t: 1 + F(1, 50) * t, fx.F.horizon)
    with pytest.raises(CheckFailed) as err:
        solve_structure_F(Market(S, fx.F), _driver(fx))
    assert (err.value.status, err.value.stage) == (NON_VIABLE, "base-structure-solve")
    w = err.value.witness
    assert w.reason == "drift-not-spanned" and w.detail == (F(1, 50),)


def test_structure_solvability_matches_deflator_existence():
    # Solvable market: the solved deflator passes; no-solution markets fail
    # every candidate, checked here for the natural candidates.
    fx = b1()
    market = _market(fx)
    sol = solve_structure_F(market, _driver(fx))
    assert verify_deflator(sol.deflator, market, fx.F) is None

    drifted = from_values(
        fx.space,
        lambda o, t: 1 + F(1, 10) * fx.W.value(o, t) + F(3, 20) * t,
        fx.F.horizon)
    bad_market = Market(drifted, fx.F)
    forced = stoch_exp(_driver(fx).W.scale(F(-3, 2)))
    witness = verify_deflator(forced, bad_market, fx.F)
    assert witness is not None and witness.reason == "deflator-not-positive"


# ---------------------------------------------------------------------------
# deflator verification


def test_verify_deflator_flat_deflator_sees_drift():
    fx = b1()
    ones = Process.constant(fx.space, 1, 1)
    witness = verify_deflator(ones, _market(fx), fx.F)
    assert witness is not None
    assert witness.reason == "deflated-asset-0"
    assert witness.detail == F(1, 50)


def test_verify_deflator_flat_market():
    fx = b1()
    S = from_values(fx.space, lambda o, t: 1 + F(1, 10) * fx.W.value(o, t),
                    fx.F.horizon)
    market = Market(S, fx.F)
    ones = Process.constant(fx.space, 1, 1)
    assert verify_deflator(ones, market, fx.F) is None
    hold = Process.constant(fx.space, 1, F(2))
    witness = is_martingale(ones.times(wealth(F(1), hold, market)), fx.F)
    assert witness is None, witness


# ---------------------------------------------------------------------------
# expanded-flow drift identity


def test_price_drift_rhs_under_identity_enlargement():
    fx = b2()
    market = _market(fx)
    pair = EnlargementPair(fx.F, fx.F)
    gauge = _gauge(fx, pair)
    sol = solve_structure_F(market, _driver(fx))
    rhs = price_drift_rhs(market, sol.martingale, gauge)
    for o in fx.space.outcomes:
        for t in range(fx.F.horizon + 1):
            assert rhs.at(o, t) == market.drift_part.at(o, t)


def test_price_drift_rhs_noisy_signal_numbers():
    fx = b2n()
    market = _market(fx)
    gauge = _gauge(fx)
    sol = solve_structure_F(market, _driver(fx))
    rhs = price_drift_rhs(market, sol.martingale, gauge)
    for o, z in zip(fx.space.outcomes, fx.signal):
        first = rhs.value(o, 1)
        assert first == (F(2, 25) if z == "u" else F(-1, 25))
        assert rhs.value(o, 2) - first == F(1, 50)


# ---------------------------------------------------------------------------
# expanded-flow structure condition


def test_solve_structure_G_identity_enlargement_reproduces_base():
    fx = b2()
    market = _market(fx)
    pair = EnlargementPair(fx.F, fx.F)
    gauge = _gauge(fx, pair)
    base = solve_structure_F(market, _driver(fx))
    verdict = solve_structure_G(market, gauge, base)
    assert verdict.status == VIABLE
    sol = verdict.solution
    for o in fx.space.outcomes:
        for t in range(fx.F.horizon + 1):
            assert sol.martingale.value(o, t) == base.martingale.value(o, t)
            assert sol.deflator.value(o, t) == base.deflator.value(o, t)


def test_solve_structure_G_noisy_signal_full_numbers(monkeypatch):
    fx = b2n()
    market = _market(fx)
    gauge = _gauge(fx)
    base = _base(fx)
    solved = record_site_solves(monkeypatch)
    verdict = solve_structure_G(market, gauge, base)
    assert verdict.status == VIABLE
    sol = verdict.solution
    up = [o for o, z in zip(fx.space.outcomes, fx.signal) if z == "u"]
    down = [o for o, z in zip(fx.space.outcomes, fx.signal) if z == "d"]
    assert {sol.driver_coefficients.at(o, 1) for o in up} == {(F(5, 4),)}
    assert {sol.driver_coefficients.at(o, 1) for o in down} == {(F(-5, 8),)}
    jumps_up = {sol.martingale.value(o, 1) for o in up}
    assert jumps_up == {F(1, 2), F(-2)}
    factors_up = {sol.deflator.value(o, 1) for o in up}
    assert factors_up == {F(1, 2), F(3)}
    # Deflated asset keeps its initial value given the signal:
    # 0.8*0.5*1.12 + 0.2*3*0.92 = 1.
    mass = sum(fx.space.weight(o) for o in up)
    mean = sum(fx.space.weight(o) * sol.deflator.value(o, 1) * fx.S.value(o, 1)
               for o in up) / mass
    assert mean == 1
    # The pipeline solves the site of the worked example.
    D = base.martingale
    site, rec = record_for(solved, site_at(market, gauge, _driver(fx), D, 1, tuple(up)))
    assert [(c.prob, c.w, c.nu, c.delta) for c in site.children] == [
        (F(1, 2), (F(1),), F(3, 5), F(1, 5)),
        (F(1, 2), (F(-1),), F(-3, 5), F(-1, 5)),
    ]
    assert rec.solution == (F(5, 4),)


def test_solve_structure_G_insider_assumption_gate_and_bypass():
    fx = b2i()
    market = _market(fx)
    gauge, base = _gauge(fx), _base(fx)
    verdict = solve_structure_G(market, gauge, base)
    assert verdict.status == ASSUMPTION_VIOLATED
    assert verdict.witness.reason == "support"
    assert verdict.witness.t == 1
    forced = solve_structure_G(market, gauge, base, enforce_assumptions=False)
    assert forced.status == NON_VIABLE
    assert forced.witness.reason == "site-infeasible"
    assert forced.witness.t == 1
    assert forced.witness.detail == (F(6, 5),)


def test_float_site_tilt_is_correctly_rounded_on_every_python():
    # phi . dN adds 1e16, 1.0 and -1e16 (negated on the second child): a left
    # fold from 0 gives 0.0 on Python 3.10 and 3.11, math.fsum +-1.0 on all.
    market = SimpleNamespace(space=SimpleNamespace(arith=FLOAT))
    inputs = [(0.5, (1.0,), (1.0, 1.0, 1.0), (0.0,)),
              (0.5, (-1.0,), (-1.0, -1.0, -1.0), (0.0,))]
    site = viability._build_site(market, 1, (1e16, 1.0, -1e16), inputs)
    assert [c.nu for c in site.children] == [1.0, -1.0]


def test_solve_structure_G_requires_the_gauge_to_extend_the_market_flow():
    # The pair and the driver come from the gauge; its base flow must be
    # the market's, compared by partitions.
    fx = b2n()
    market = _market(fx)
    G = fx.pair.expanded
    foreign = solve_phi(EnlargementPair(G, G), fx.W, fx.W)
    with pytest.raises(ViabilityError, match="extend the market flow"):
        solve_structure_G(market, foreign, _base(fx))
    twin = EnlargementPair(Filtration(fx.space, fx.F.partitions), G)
    verdict = solve_structure_G(market, solve_phi(twin, fx.W, fx.W), _base(fx))
    assert verdict.status == VIABLE and verdict.stage is None


def test_solve_structure_G_noise_only_enlargement_is_transparent():
    fx = b2()
    space = product_with_independent(fx.space, ("0", "1"), (F(3, 4), F(1, 4)))
    Fl = lift_filtration(fx.F, space)
    W = lift_process(fx.W, space)
    S = lift_process(fx.S, space)
    bit = tuple(o.rsplit(":", 1)[1] for o in space.outcomes)
    pair = build_initial_enlargement(Fl, bit)
    market = Market(S, Fl)
    driver = Driver(W, Fl)
    gauge = solve_phi(pair, W, W)
    base = solve_structure_F(market, driver)
    verdict = solve_structure_G(market, gauge, base)
    assert verdict.status == VIABLE
    for o in space.outcomes:
        for t in range(Fl.horizon + 1):
            assert gauge.phi.at(o, t) == (0,)
            if t >= 1:
                assert gauge.u.value(o, t) == 1
            assert verdict.solution.martingale.value(o, t) == base.martingale.value(o, t)
            assert verdict.solution.deflator.value(o, t) == base.deflator.value(o, t)


def test_deflator_multiplicative_over_random_admissible_strategies():
    fx = b2n()
    market = _market(fx)
    verdict = solve_structure_G(market, _gauge(fx), _base(fx))
    assert verdict.status == VIABLE
    G = fx.pair.expanded
    deflator = verdict.solution.deflator
    assert verify_deflator(deflator, market, G) is None
    rng = random.Random(1347)
    for _ in range(20):
        H = random_predictable(fx.space, G, rng)
        base = wealth(F(0), H, market)
        floor = min(base.value(o, t)
                    for o in fx.space.outcomes for t in range(base.horizon + 1))
        V = wealth(1 - floor, H, market)
        assert all(V.value(o, t) >= 0
                   for o in fx.space.outcomes for t in range(V.horizon + 1))
        witness = is_martingale(deflator.times(V), G)
        assert witness is None, witness
