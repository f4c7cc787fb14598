"""Drift under enlarged flows: gauge solve, tilt floor, support condition."""

import random
from fractions import Fraction

import pytest

from marketforge.calculus import (
    ASSUMPTION_VIOLATED,
    CheckFailed,
    FailureWitness,
    centred,
    compensator,
    integrate,
    is_martingale,
    pred_bracket,
)
from marketforge.enlarge import (
    check_support_condition,
    compute_u,
    drift,
    solve_phi,
)
from marketforge.fixtures import b2, b2i, b2n
from marketforge.selftest import random_martingale as library_martingale
from marketforge.space import (
    EnlargementPair,
    Filtration,
    Partition,
    Process,
    SpaceError,
    build_initial_enlargement,
    first_mismatch,
)

from reference import (
    delta,
    discrete,
    from_values,
    is_predictable,
    shift,
    verify_g_compensator,
)
from util import random_martingale

F = Fraction


def test_drift_of_walk_under_noisy_signal():
    fx = b2n()
    gamma = drift(fx.W, fx.pair)
    # Seeing "u" tilts the first coin to 4/5, so the walk drifts by 3/5.
    for o, z in zip(fx.space.outcomes, fx.signal):
        expected = F(3, 5) if z == "u" else F(-3, 5)
        assert gamma.value(o, 1) == expected
        assert gamma.value(o, 2) - gamma.value(o, 1) == 0  # second coin is news to both
    assert is_predictable(gamma, fx.pair.expanded)
    assert is_martingale(fx.W - gamma, fx.pair.expanded) is None


def test_drift_is_linear_and_vanishes_without_enlargement():
    fx = b2n()
    rng = random.Random(3)
    X = random_martingale(fx.space, fx.F, rng)
    Y = random_martingale(fx.space, fx.F, rng)
    both = drift(X + Y, fx.pair)
    split = drift(X, fx.pair) + drift(Y, fx.pair)
    assert all(
        both.value(o, t) == split.value(o, t)
        for o in fx.space.outcomes for t in range(3)
    )
    fx2 = b2()
    from marketforge.space import EnlargementPair

    trivial_pair = EnlargementPair(fx2.F, fx2.F)
    flat = drift(random_martingale(fx2.space, fx2.F, rng), trivial_pair)
    assert all(flat.value(o, t) == 0 for o in fx2.space.outcomes for t in range(3))


def test_drift_is_the_expanded_compensator_of_the_centred_process():
    rng = random.Random(11)
    for fx in (b2n(), b2i()):
        G = fx.pair.expanded
        for _ in range(10):
            X = library_martingale(fx.space, fx.F, rng)
            X = shift(X, rng.randint(-3, 3))   # drift ignores the start value
            assert first_mismatch(drift(X, fx.pair), compensator(centred(X), G)) is None


def test_solve_phi_on_noisy_signal():
    fx = b2n()
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    for o, z in zip(fx.space.outcomes, fx.signal):
        assert gauge.phi.at(o, 1) == ((F(3, 5) if z == "u" else F(-3, 5)),)
        assert gauge.phi.at(o, 2) == (F(0),)
        assert gauge.u.value(o, 1) == F(2, 5)
        assert gauge.u.value(o, 2) == 1
    assert gauge.support_ok
    assert gauge.u_positive
    # the gauge keeps the driver it was solved for and that driver's drift
    assert gauge.W is fx.W
    assert first_mismatch(gauge.W_drift, drift(fx.W, fx.pair)) is None


def test_solve_phi_on_perfect_insider():
    fx = b2i()
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    # The insider knows the first coin: phi = +-1 and the tilt floor hits 0.
    for o in fx.space.outcomes:
        assert gauge.phi.at(o, 1) == ((F(1) if o[0] == "u" else F(-1)),)
        assert gauge.u.value(o, 1) == 0
    assert not gauge.u_positive
    # the first u <= 0 in (t, atom) order, the value u holds there
    witness = gauge.tilt_witness
    assert (witness.reason, witness.t, witness.atom) == ("tilt-floor", 1, ("uu", "ud"))
    assert witness.detail == gauge.u.at("uu", 1)[0]
    assert not gauge.support_ok


def test_support_condition_witness_on_insider():
    fx = b2i()
    witness = check_support_condition(fx.pair)
    assert witness is not None
    assert (witness.reason, witness.t, witness.atom) == ("support", 1, ("uu", "ud"))
    assert witness.detail == {"t": 1, "child": ("uu", "ud"), "g_atom": ("du", "dd")}
    assert check_support_condition(b2n().pair) is None


def test_support_condition_first_witness_among_several_violations():
    fx = b2n()
    space = fx.space
    # At time 1 the observer learns the second coin when the noise bit is 1.
    G = Filtration(space, (
        space.trivial,
        Partition.from_atoms(space, [["uu0", "ud0"], ["uu1"], ["ud1"],
                                     ["du0", "dd0"], ["du1"], ["dd1"]]),
        discrete(space),
    ))
    # Four time-2 transitions are ruled out: child uu misses {ud1}, ud misses
    # {uu1}, du misses {dd1}, dd misses {du1}.  The walk is base atom, then
    # child, then expanded atom, so the first witness is (uu, {ud1}), not the
    # expanded-atom-first (ud, {uu1}).
    witness = check_support_condition(EnlargementPair(fx.F, G))
    assert witness == FailureWitness("support", 2, ("uu0", "uu1"), {
        "t": 2, "child": ("uu0", "uu1"), "g_atom": ("ud1",)})


def _brute_support(pair):
    """The support condition outcome by outcome: the first (t, base atom A,
    child C of A, expanded time-(t-1) atom B inside A) with C and B
    disjoint, walked in the engine's order."""
    F, G = pair.base, pair.expanded
    for t in range(1, pair.horizon + 1):
        for A in F.at(t - 1).atoms:
            for C in (c for c in F.at(t).atoms if set(c) <= set(A)):
                for B in (b for b in G.at(t - 1).atoms if set(b) <= set(A)):
                    if not set(C) & set(B):
                        return FailureWitness("support", t, C,
                                              {"t": t, "child": C, "g_atom": B})
    return None


def _explicit_pairs():
    fx = b2n()
    space = fx.space
    learns_second_coin = Filtration(space, (
        space.trivial,
        Partition.from_atoms(space, [["uu0", "ud0"], ["uu1"], ["ud1"],
                                     ["du0", "dd0"], ["du1"], ["dd1"]]),
        discrete(space),
    ))
    return {"b2n": fx.pair, "insider": b2i().pair,
            "learns-second-coin": EnlargementPair(fx.F, learns_second_coin),
            "learns-noise": build_initial_enlargement(fx.F, [o[-1] for o in space.outcomes])}


@pytest.mark.parametrize("name", ["b2n", "insider", "learns-second-coin", "learns-noise"])
def test_support_condition_matches_a_brute_outcome_walk(name):
    pair = _explicit_pairs()[name]
    assert check_support_condition(pair) == _brute_support(pair)
    assert (check_support_condition(pair) is None) == (name in ("b2n", "learns-noise"))


def test_compute_u_matches_manual_minimum():
    fx = b2n()
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    u, witness = compute_u(fx.pair, fx.W, gauge.phi)
    assert witness is None and gauge.tilt_witness is None
    G = fx.pair.expanded
    for t in (1, 2):
        for atom in G.at(t - 1).atoms:
            phi_val = gauge.phi.at(atom[0], t)[0]
            manual = min(1 + phi_val * delta(fx.W, o, t)[0] for o in atom)
            assert u.value(atom[0], t) == manual


def test_gauge_identity_battery():
    # The drift of any represented martingale is carried by N through phi.
    fx = b2n()
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    rng = random.Random(17)
    for _ in range(20):
        X = random_martingale(fx.space, fx.F, rng)
        lhs = drift(X, fx.pair)
        rhs = integrate(gauge.phi, pred_bracket(gauge.N, X, fx.F))
        assert all(
            lhs.value(o, t) == rhs.value(o, t)
            for o in fx.space.outcomes for t in range(3)
        )


def test_verify_g_compensator_single_jump():
    fx = b2n()
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    # A jumps to 1 when the first coin lands up.
    A = from_values(
        fx.space, lambda o, t: 1 if (t >= 1 and o[0] == "u") else 0, 2,
    )
    assert verify_g_compensator(A, fx.pair, gauge)
    comp_g = compensator(A, fx.pair.expanded)
    for o, z in zip(fx.space.outcomes, fx.signal):
        assert comp_g.value(o, 1) == (F(4, 5) if z == "u" else F(1, 5))


def test_verify_g_compensator_random_battery():
    fx = b2n()
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    rng = random.Random(29)
    for _ in range(10):
        X = random_martingale(fx.space, fx.F, rng)
        A = X - Process.constant(fx.space, 2, X.value(fx.space.outcomes[0], 0))
        assert verify_g_compensator(A, fx.pair, gauge)


def test_solve_phi_infeasible_for_null_carrier():
    fx = b2i()
    N0 = Process.constant(fx.space, 2, F(0))
    with pytest.raises(CheckFailed) as err:
        solve_phi(fx.pair, N0, fx.W)
    assert (err.value.status, err.value.stage) == (ASSUMPTION_VIOLATED, "gauge-solve")
    assert (err.value.witness.reason, err.value.witness.t) == ("gauge-infeasible", 1)


def test_drift_rejects_non_refining_pair():
    # No pair reaches drift unless its expanded flow refines the base one:
    # the swapped pair fails to construct.
    fx = b2i()
    with pytest.raises(SpaceError, match="does not refine"):
        drift(fx.W, EnlargementPair(fx.pair.expanded, fx.pair.base))
