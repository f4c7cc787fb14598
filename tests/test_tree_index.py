"""The flows' partition tree against outcome grouping.

A partition built by refining another (``Partition.refine_by``, the
natural filtration, the initial and progressive enlargements) registers
the map from its atoms to the coarser partition's; every meet is read off
a registered partition refining both operands, and only a pair with none is
met outcome by outcome.  Masses sum the finer partition's masses over its
parent map, and transitions read the children off the parent map.

- a ``hypothesis`` test draws seeded trees (``util.random_tree``) with an
  initial, a progressive or an explicit (user-given, so unregistered)
  enlargement, in both modes, meets every pair of the two flows'
  partitions and the trivial one in a drawn order, and checks every
  registered map, every meet (partition, mine, theirs), every mass and
  every transition against ``reference``'s outcome-grouping oracles, with
  atoms in canonical order;
- a structural guard, with no timing in it: once the golden T = 6 tree is
  loaded, an ``analyze`` pipeline groups no outcome and meets no pair
  outcome by outcome, and it solves as many distinct sites and moment
  systems as before.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from marketforge import linalg, space, viability
from marketforge.cli import _run_pipeline
from marketforge.scenario import load_scenario, parse_document
from marketforge.space import (
    INF,
    EnlargementPair,
    Filtration,
    Partition,
    RandomTime,
    build_initial_enlargement,
    build_progressive_enlargement,
)

from test_atom_kernels import MODES
from test_golden_reports import GOLDEN
from util import random_tree


def _enlargement(kind: str, F: Filtration, rng) -> EnlargementPair:
    n = F.space.size
    if kind == "initial":
        return build_initial_enlargement(F, [rng.randint(0, 2) for _ in range(n)])
    if kind == "progressive":
        times = [rng.choice([*range(F.horizon + 2), INF]) for _ in range(n)]
        return build_progressive_enlargement(F, RandomTime(F.space, tuple(times)))
    # explicit: each time refined by a growing random label, given as atoms
    labels, parts = [()] * n, []
    for part in F.partitions:
        labels = [lab + (rng.randint(0, 1),) for lab in labels]
        parts.append(ref.by_level_sets(F.space, [(part.atom_index(o), lab) for o, lab in
                                                 zip(F.space.outcomes, labels)]))
    return EnlargementPair(F, Filtration(F.space, tuple(parts)))


def _canonical(part: Partition) -> bool:
    idx = part.space.index
    return all(list(atom) == sorted(atom, key=idx) for atom in part.atoms) and \
        [idx(atom[0]) for atom in part.atoms] == sorted(idx(atom[0]) for atom in part.atoms)


@pytest.mark.parametrize("mode", MODES)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["initial", "progressive", "explicit"]))
def test_tree_index_matches_outcome_grouping(mode, seed, kind):
    rng = random.Random(seed)
    sample, F = random_tree(rng, MODES[mode])
    pair = _enlargement(kind, F, rng)
    G = pair.expanded
    parts = [*F.partitions, *G.partitions, Partition.trivial(sample)]
    pairs = [(a, b) for a in parts for b in parts]
    rng.shuffle(pairs)
    for a, b in pairs:
        meet, mine, theirs = a.meet(b)
        assert (meet.atoms, mine, theirs) == ref.meet_by_outcomes(a, b)
    built = list(sample._partitions.values())
    for part in built:
        assert _canonical(part)
        for other, (meet, mine, theirs) in part._meets.items():
            assert (meet.atoms, mine, theirs) == ref.meet_by_outcomes(part, other)
    for part in built:
        assert part.masses == ref.masses_by_outcomes(part)
    for flow in (F, G):
        for t in range(1, flow.horizon + 1):
            assert flow.children(t) == ref.children_by_outcomes(flow, t)
            assert flow.transitions(t) == ref.transitions_by_outcomes(flow, t)


@pytest.mark.parametrize("mode, solves", [("exact", (4, 12)), ("float", (26, 65))])
def test_analyze_after_load_groups_no_outcome(monkeypatch, mode, solves):
    arith = MODES[mode]
    built = load_scenario(parse_document((GOLDEN / "noisy_tree_T6.json").read_text()),
                          arith)
    calls = {"groupings": 0, "outcome meets": 0, "sites": 0, "moment solves": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(space, "_level_sets", counted("groupings", space._level_sets))
    monkeypatch.setattr(space, "_outcome_meet", counted("outcome meets", space._outcome_meet))
    monkeypatch.setattr(viability, "solve_site", counted("sites", viability.solve_site))
    monkeypatch.setattr(linalg, "lstsq_min_norm", counted("moment solves", linalg.lstsq_min_norm))
    verdict, _ = _run_pipeline(built)
    assert verdict.status == viability.VIABLE
    assert (calls["groupings"], calls["outcome meets"]) == (0, 0)
    assert (calls["sites"], calls["moment solves"]) == solves
