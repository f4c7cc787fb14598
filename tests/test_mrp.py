"""Span checks against the representation oracle, synthesized drivers."""

import random
from fractions import Fraction

import pytest

from marketforge.fixtures import b1, b2, b2n
from marketforge.mrp import Driver, check_mrp, synthesize_driver
from marketforge.space import (
    Filtration,
    Partition,
    Process,
    SampleSpace,
    SpaceError,
)

from reference import (
    NotRepresentable,
    by_level_sets,
    delta,
    discrete,
    from_values,
    is_predictable,
    represent,
)
from util import random_martingale

F = Fraction


def test_driver_rejects_non_martingale():
    fx = b1()
    with pytest.raises(SpaceError):
        Driver(fx.S, fx.F)


def test_represent_identity_on_driver():
    fx = b2()
    driver = Driver(fx.W, fx.F)
    rep = represent(fx.W, driver)
    # Coefficients are identically 1 (the 1x1 identity) after time 0.
    for o in fx.space.outcomes:
        for t in (1, 2):
            assert rep.kbar.at(o, t) == (1,)
    integral = rep.integral()
    assert all(
        integral.at(o, t) == fx.W.at(o, t)
        for o in fx.space.outcomes for t in range(3)
    )


def test_represent_random_martingales_roundtrip():
    fx = b2()
    driver = Driver(fx.W, fx.F)
    rng = random.Random(23)
    for _ in range(20):
        X = random_martingale(fx.space, fx.F, rng)
        rep = represent(X, driver)
        assert is_predictable(rep.kbar, fx.F)
        integral = rep.integral()
        assert all(
            integral.value(o, t) == X.value(o, t) - X.value(o, 0)
            for o in fx.space.outcomes for t in range(3)
        )


def test_represent_minimum_norm_on_redundant_driver():
    # Stack the walk twice: solves are underdetermined, the minimum-norm
    # choice splits the coefficient evenly between the equal components.
    fx = b2()
    W2 = from_values(
        fx.space,
        lambda o, t: (fx.W.value(o, t), fx.W.value(o, t)),
        fx.F.horizon, dim=2,
    )
    driver = Driver(W2, fx.F)
    rep = represent(fx.W, driver)
    assert rep.kbar.at("uu", 1) == (F(1, 2), F(1, 2))


def test_not_representable_when_three_ways_split_on_scalar_driver():
    # One step, three outcomes, driver takes only two values: a martingale
    # separating the third outcome cannot be represented.
    space = SampleSpace(("a", "b", "c"), (F(1, 4), F(1, 4), F(1, 2)))
    parts = (Partition.trivial(space), discrete(space))
    filtration = Filtration(space, parts)
    W = Process.from_paths(space, [[0, 1], [0, -1], [0, 0]])
    driver = Driver(W, filtration)
    witness = check_mrp(filtration, driver)
    assert (witness.reason, witness.t) == ("mrp", 1)
    assert witness.detail == {"multiplicity": 3, "rank": 1}
    X = Process.from_paths(space, [[0, 2], [0, 2], [0, -2]])  # centered 3-way split
    with pytest.raises(NotRepresentable) as err:
        represent(X, driver)
    assert err.value.t == 1
    assert err.value.atom == ("a", "b", "c")


def test_check_mrp_holds_on_binary_fixtures():
    for fx in (b1(), b2(), b2n()):
        driver = Driver(fx.W, fx.F)
        assert check_mrp(fx.F, driver) is None


def test_check_mrp_fails_when_noise_revealed_at_the_end():
    # Splitting the final atoms by the noise bit quadruples the children
    # while the driver stays one-dimensional.
    fx = b2n()
    noisy_final = by_level_sets(fx.space, [o[:3] for o in fx.space.outcomes])
    F_noisy = Filtration(fx.space, (fx.F.at(0), fx.F.at(1), noisy_final))
    driver = Driver(fx.W, F_noisy)
    witness = check_mrp(F_noisy, driver)
    assert (witness.reason, witness.t) == ("mrp", 2)
    assert witness.detail == {"multiplicity": 4, "rank": 1}


def test_multiplicity_bound_under_mrp():
    # With a d-dimensional representing driver no atom splits more than
    # d + 1 ways; brute-check on fixtures.
    for fx in (b2(), b2n()):
        driver = Driver(fx.W, fx.F)
        assert check_mrp(fx.F, driver) is None
        for t in range(1, fx.F.horizon + 1):
            for children in fx.F.transitions(t):
                assert len(children) <= driver.d + 1


def test_synthesize_driver_binary_tree():
    fx = b2()
    driver = synthesize_driver(fx.F)
    assert driver.d == 1
    # One-dimensional two-point increments, i.e. the fair walk up to scale.
    assert delta(driver.W, "uu", 1) == (F(1, 2),)
    assert delta(driver.W, "dd", 1) == (F(-1, 2),)
    assert check_mrp(fx.F, driver) is None


def test_synthesize_driver_trinomial():
    space = SampleSpace(("a", "b", "c"), (F(1, 4), F(1, 4), F(1, 2)))
    filtration = Filtration(space, (Partition.trivial(space), discrete(space)))
    driver = synthesize_driver(filtration)
    assert driver.d == 2
    assert check_mrp(filtration, driver) is None
    rng = random.Random(31)
    X = random_martingale(space, filtration, rng)
    rep = represent(X, driver)
    integral = rep.integral()
    assert all(
        integral.value(o, 1) == X.value(o, 1) - X.value(o, 0)
        for o in space.outcomes
    )


def test_synthesize_driver_non_splitting():
    space = SampleSpace(("a", "b"), (F(1, 2), F(1, 2)))
    part = Partition.trivial(space)
    filtration = Filtration(space, (part, part))
    driver = synthesize_driver(filtration)
    assert driver.d == 0
    assert check_mrp(filtration, driver) is None
    # Only constants are martingales: representing one succeeds with nothing.
    X = Process.constant(space, 1, F(5))
    rep = represent(X, driver)
    assert rep.kbar.dim == 0



def test_check_mrp_agrees_with_the_representation_oracle():
    # Seeded one-step spaces: check_mrp passes exactly when the centred
    # indicator of every child is representable against the driver.
    rng = random.Random(6)
    passed = 0
    for _ in range(200):
        m = rng.randint(2, 4)
        raw = [rng.randint(1, 5) for _ in range(m)]
        space = SampleSpace(tuple("abcd"[:m]), tuple(F(w, sum(raw)) for w in raw))
        flow = Filtration(space, (Partition.trivial(space), discrete(space)))
        d = rng.randint(1, 3)
        steps = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(m)]
        means = [sum(p * s[e] for p, s in zip(space.weights, steps)) for e in range(d)]
        driver = Driver(Process.from_paths(space, [
            [(0,) * d, tuple(s[e] - means[e] for e in range(d))] for s in steps]), flow)
        witness = check_mrp(flow, driver)
        ok = witness is None
        representable = True
        for j, p in enumerate(space.weights):
            X = Process.from_paths(space, [[0, (i == j) - p] for i in range(m)])
            try:
                represent(X, driver)
            except NotRepresentable:
                representable = False
        assert ok == representable
        if ok:
            passed += 1
        else:
            assert (witness.reason, witness.t, witness.detail["multiplicity"]) \
                == ("mrp", 1, m)
            assert witness.detail["rank"] < m - 1
    assert 0 < passed < 200
