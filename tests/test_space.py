"""Spaces, partitions, filtrations, conditional expectation, enlargements."""

from fractions import Fraction

import pytest

from marketforge.arith import EXACT, FLOAT
from marketforge.calculus import accumulate, centred
from marketforge.fixtures import b1, b2, b2i, b2n
from marketforge.space import (
    INF,
    EnlargementPair,
    Filtration,
    Partition,
    Process,
    RandomTime,
    SampleSpace,
    SpaceError,
    _decoded,
    build_progressive_enlargement,
    cond_exp,
    first_mismatch,
    is_adapted,
)

from reference import (
    column,
    columns,
    delta,
    discrete,
    expectation,
    is_predictable,
    lift_filtration,
    lift_process,
    product_with_independent,
    shift,
)

F = Fraction


def three_point_space():
    return SampleSpace(("a", "b", "c"), (F(1, 4), F(1, 4), F(1, 2)))


def test_space_rejects_bad_weights():
    with pytest.raises(SpaceError):
        SampleSpace(("a", "b"), (F(1, 2), F(0)))
    with pytest.raises(SpaceError):
        SampleSpace(("a", "b"), (F(1, 2), F(1, 3)))
    with pytest.raises(SpaceError):
        SampleSpace(("a", "a"), (F(1, 2), F(1, 2)))


def test_partition_validation():
    space = three_point_space()
    with pytest.raises(SpaceError):
        Partition.from_atoms(space, [("a", "b")])  # misses c
    with pytest.raises(SpaceError):
        Partition.from_atoms(space, [("a", "b"), ("b", "c")])  # overlap


def _cond_exp(values, part, space):
    """cond_exp of a one-time process with the given per-outcome values,
    read back per outcome."""
    means = _decoded(cond_exp(Process.from_paths(space, [[v] for v in values]), 0, part),
                     space.arith.exact)
    return [means[part.atom_index(o)][0] for o in space.outcomes]


def test_cond_exp_atom_average():
    # Weighted average per atom, computed exactly.
    space = three_point_space()
    part = Partition.from_atoms(space, [("a", "b"), ("c",)])
    values = [F(1), F(3), F(5)]
    # Independent oracle: brute-force weighted average over each atom.
    expected = []
    for o in space.outcomes:
        atom = part.atom_of(o)
        mass = sum(space.weight(x) for x in atom)
        expected.append(sum(space.weight(x) * values[space.index(x)] for x in atom) / mass)
    got = _cond_exp(values, part, space)
    assert got == expected == [F(2), F(2), F(5)]


def test_cond_exp_tower_property():
    space = b2().space
    fine = Partition.from_atoms(space, [("uu",), ("ud",), ("du", "dd")])
    coarse = Partition.trivial(space)
    values = [F(7), F(-1), F(2), F(10)]
    once = _cond_exp(_cond_exp(values, fine, space), coarse, space)
    direct = _cond_exp(values, coarse, space)
    assert once == direct


def test_natural_filtration_of_walk():
    fx = b2()
    assert fx.F.horizon == 2
    assert fx.F.at(0).atoms == (("uu", "ud", "du", "dd"),)
    assert fx.F.at(1).atoms == (("uu", "ud"), ("du", "dd"))
    assert fx.F.at(2).atoms == (("uu",), ("ud",), ("du",), ("dd",))


def test_adapted_and_predictable_flags():
    fx = b2()
    assert is_adapted(fx.W, fx.F)
    assert is_adapted(fx.S, fx.F)
    assert not is_predictable(fx.W, fx.F)
    assert is_predictable(fx.W.lagged(), fx.F)


def test_predictable_from_atom_table_on_b2n():
    fx = b2n()
    G = fx.pair.expanded
    # time-1 value per signal (time-0 G-atom), time-2 value per first coin
    # and signal (time-1 G-atom), keyed by the atom's canonical index
    table = {(t, k): (F(10 * t + k), F(-k)) for t in (1, 2)
             for k in range(len(G.at(t - 1).atoms))}

    def by_hand(v0):
        return Process.from_paths(fx.space, [
            [v0] + [table[(t, G.at(t - 1).atom_index(o))] for t in (1, 2)]
            for o in fx.space.outcomes
        ])

    for initial, v0 in ((None, (0, 0)), ((F(1, 3), F(2)), (F(1, 3), F(2)))):
        X = Process.predictable(G, table, 2, initial=initial)
        assert columns(X) == columns(by_hand(v0))
        assert is_predictable(X, G)
    assert Process.predictable(fx.F, {(1, 0): 5, (2, 0): 6, (2, 1): 7},
                               initial=1).at("du1", 2) == (7,)
    with pytest.raises(SpaceError):
        Process.predictable(G, table, 3)


def test_first_mismatch_reports_first_cell_in_outcome_major_order():
    fx = b2()
    X = fx.W
    assert first_mismatch(X, X + Process.constant(fx.space, 2, 0)) is None
    paths = [list(path) for path in zip(*columns(X))]
    paths[2][1] = (F(7),)              # outcome "du", time 1
    paths[3][0] = (F(9),)              # a later outcome at an earlier time
    Y = Process.from_paths(fx.space, paths)
    assert first_mismatch(X, Y) == ("du", 1, F(-1), F(7))
    assert first_mismatch(Y, X) == ("du", 1, F(7), F(-1))
    with pytest.raises(SpaceError):
        first_mismatch(X, Process.constant(fx.space, 1, 0))  # shorter grid


def test_initial_enlargement_reveals_signal_at_time_zero():
    fx = b2i()
    G = fx.pair.expanded
    assert G.at(0).atoms == (("uu", "ud"), ("du", "dd"))
    assert G.at(1).atoms == fx.F.at(1).atoms
    assert G.at(2).atoms == fx.F.at(2).atoms
    assert all(G.at(t).refines(fx.F.at(t)) for t in range(3))


def test_progressive_enlargement_by_first_hit():
    fx = b2()
    # First time the walk reaches +1: time 1 on the up-start, never otherwise.
    tau = RandomTime(fx.space, (1, 1, INF, INF))
    pair = build_progressive_enlargement(fx.F, tau)
    G = pair.expanded
    assert G.at(0).atoms == fx.F.at(0).atoms  # min(tau, 1) does not split the trivial atom
    assert G.at(1).atoms == fx.F.at(1).atoms
    assert G.at(2).atoms == fx.F.at(2).atoms
    assert all(G.at(t).refines(fx.F.at(t)) for t in range(3))


def _brute_transitions(flow, t):
    """[(c, P(child c | atom))] of each time-(t-1) atom, by scanning every
    atom pair."""
    space = flow.space

    def mass(atom):
        return sum(space.weight(o) for o in atom)

    return [[(c, mass(child) / mass(atom))
             for c, child in enumerate(flow.at(t).atoms) if set(child) <= set(atom)]
            for atom in flow.at(t - 1).atoms]


def _brute_parents(fine, coarse):
    return tuple(next(k for k, big in enumerate(coarse.atoms) if set(atom) <= set(big))
                 for atom in fine.atoms)


def test_atom_index_matches_brute_enumeration():
    noisy = b2n()
    coins = b2()
    progressive = build_progressive_enlargement(
        coins.F, RandomTime(coins.space, (INF, 1, INF, 1)))
    for pair in (noisy.pair, progressive):
        for flow in (pair.base, pair.expanded):
            space = flow.space
            for t in range(flow.horizon + 1):
                part = flow.at(t)
                assert part.members == tuple(
                    tuple(space.outcomes.index(o) for o in atom) for atom in part.atoms)
                assert part.masses == tuple(
                    sum(space.weight(o) for o in atom) for atom in part.atoms)
                assert part.parents(pair.base.at(t)) == _brute_parents(part, pair.base.at(t))
                if t:
                    assert part.parents(flow.at(t - 1)) == _brute_parents(part, flow.at(t - 1))
                    assert flow.transitions(t) == _brute_transitions(flow, t)
            with pytest.raises(SpaceError):
                flow.transitions(0)
            with pytest.raises(SpaceError):
                flow.transitions(flow.horizon + 1)
    # the noisy signal: each time-0 observer atom has mass 1/2 and its first
    # coin agrees with the signal with probability 4/5
    G = noisy.pair.expanded
    assert G.at(0).masses == (F(1, 2), F(1, 2))
    assert [p for _, p in G.transitions(1)[0]] == [F(4, 5), F(1, 5)]


def test_enlargement_pair_rejects_a_flow_that_does_not_refine():
    fx = b2i()
    with pytest.raises(SpaceError, match="expanded flow does not refine the base flow"):
        EnlargementPair(fx.pair.expanded, fx.pair.base)
    # one time is enough: this flow refines F at t = 0 and t = 2 only
    coins = b2()
    late = Filtration(coins.space, (Partition.trivial(coins.space),
                                    Partition.trivial(coins.space), coins.F.at(2)))
    with pytest.raises(SpaceError, match="does not refine"):
        EnlargementPair(coins.F, late)


def test_filtration_must_refine():
    space = three_point_space()
    fine = discrete(space)
    coarse = Partition.trivial(space)
    with pytest.raises(SpaceError):
        Filtration(space, (fine, coarse))


def test_b2n_fixture_geometry():
    fx = b2n()
    assert fx.space.size == 8
    up = [1 if z == "u" else 0 for z in fx.signal]
    assert expectation(fx.space, up) == F(1, 2)
    # F never resolves the noise bit: final atoms pair the two bits.
    assert all(len(a) == 2 for a in fx.F.at(2).atoms)
    G = fx.pair.expanded
    assert [len(G.at(t).atoms) for t in range(3)] == [2, 4, 8]
    # Conditional law of the first coin given a clean-signal reading.
    both = [1 if z == "u" and o[0] == "u" else 0
            for z, o in zip(fx.signal, fx.space.outcomes)]
    assert expectation(fx.space, both) / expectation(fx.space, up) == F(4, 5)


def test_product_and_lift_helpers():
    fx = b2()
    prod = product_with_independent(fx.space, ("0", "1"), (F(4, 5), F(1, 5)))
    assert prod.size == 8
    assert prod.weight("uu:1") == F(1, 20)
    lifted_F = lift_filtration(fx.F, prod)
    assert all(len(a) == 2 for a in lifted_F.at(2).atoms)
    lifted_W = lift_process(fx.W, prod)
    assert lifted_W.at("uu:0", 2) == lifted_W.at("uu:1", 2) == (F(2),)
    assert is_adapted(lifted_W, lifted_F)


def test_process_algebra_and_increments():
    fx = b1()
    X = shift(fx.W.scale(F(2)), F(3))
    assert X.at("u", 1) == (F(5),)
    assert delta(X, "d", 1) == (F(-2),)
    assert delta(X, "u", 0) == (0,)
    # The increments: dX_t for t >= 1 on every outcome; their running sums
    # from 0 give back X - X_0.
    for arith in (EXACT, FLOAT):
        noisy = b2n(arith)
        stacked = Process.from_paths(noisy.space, [
            [(noisy.W.value(o, t), noisy.S.value(o, t)) for t in range(noisy.F.horizon + 1)]
            for o in noisy.space.outcomes])
        for Z in (noisy.S, stacked):
            dZ = Z.increments
            assert dZ.horizon == Z.horizon
            for t in range(1, Z.horizon + 1):
                assert column(dZ, t) == [delta(Z, o, t) for o in noisy.space.outcomes]
            summed = accumulate(dZ)
            assert first_mismatch(summed, centred(Z)) is None
    Y = fx.W + fx.W
    assert Y.at("d", 1) == (F(-2),)
