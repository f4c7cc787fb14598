"""The flows' partition tree against outcome grouping.

Every partition is born by one keyed pass over a finer one
(``space._refined``): the natural filtration, the initial and progressive
enlargements and a given flow group the outcomes once, into their finest
partition, and key each time's partition off its atoms.  Each registers
its map onto the partition it refines; every meet is read off the maps of
a partition refining both operands (the root, the single outcomes, when
no other does).  Masses sum the base's masses over its map, and
transitions read the children off the parent map.

- a ``hypothesis`` test draws seeded trees (``util.random_tree``) with an
  initial, a progressive, an explicit (``Filtration`` of partitions given
  as atoms) or a given (``given_flow``, as the loader builds one)
  enlargement, in both modes, meets every pair of the two flows'
  partitions and the trivial one in a drawn order, and checks every
  registered map, every meet (partition, mine, theirs), every mass and
  every transition against ``reference``'s outcome-grouping oracles, with
  atoms in canonical order;
- structural guards, with no timing in them: loading the golden T = 6
  tree, the explicit golden or the T = 4 tree with its expanded flow given
  as atoms groups the outcomes once per flow, also with every outcome
  split in two, and then reads no other map off the outcomes; once the
  T = 6 tree is loaded, an ``analyze`` pipeline groups no outcome and
  reads no map off the outcomes, it solves as many distinct sites and
  moment systems as before, and it builds the outcome labels of no
  partition but each flow's finest; and since the T = 6 tree is enlarged
  at time 0, each F_t v G_{t-1} is G_t itself, and neither those meets nor
  the pipeline make a keyed pass (``space._refined``).
"""

import json
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
    atom_labels,
    build_initial_enlargement,
    build_progressive_enlargement,
    given_flow,
)

from test_atom_kernels import MODES
from test_golden_reports import GOLDEN
from util import random_tree, split_outcomes


def _enlargement(kind: str, F: Filtration, rng) -> EnlargementPair:
    n = F.space.size
    if kind == "initial":
        return build_initial_enlargement(F, [rng.randint(0, 2) for _ in range(n)])
    if kind == "progressive":
        times = [rng.choice([*range(F.horizon + 2), INF]) for _ in range(n)]
        return build_progressive_enlargement(F, RandomTime(F.space, tuple(times)))
    # explicit or given: each time refined by a growing random label
    labels, parts = [()] * n, []
    for part in F.partitions:
        labels = [lab + (rng.randint(0, 1),) for lab in labels]
        parts.append(ref.by_level_sets(F.space, [(part.atom_index(o), lab) for o, lab in
                                                 zip(F.space.outcomes, labels)]))
    if kind == "given":
        return EnlargementPair(F, given_flow(F.space, [atom_labels(F.space, part.atoms)
                                                       for part in parts], F))
    return EnlargementPair(F, Filtration(F.space, tuple(parts)))


def _registered(sample) -> list:
    """Every partition built on the space: each is registered under the
    partition it was keyed over, so all are reached from the root."""
    seen, todo = {sample.root: None}, [sample.root]
    while todo:
        for part in todo.pop()._up:
            if part not in seen:
                seen[part] = None
                todo.append(part)
    return [sample.trivial, *seen]


def _canonical(part: Partition) -> bool:
    idx = part.space.index
    return all(list(atom) == sorted(atom, key=idx) for atom in part.atoms) and \
        [idx(atom[0]) for atom in part.atoms] == sorted(idx(atom[0]) for atom in part.atoms)


@pytest.mark.parametrize("mode", MODES)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["initial", "progressive", "explicit", "given"]))
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
    built = _registered(sample)
    for part in built:
        assert _canonical(part)
        for other, (meet, mine, theirs) in part._meets.items():
            assert (meet.atoms, mine, theirs) == ref.meet_by_outcomes(part, other)
        for coarse, up in part._up.items():
            assert (part.atoms, part._own, up) == ref.meet_by_outcomes(part, coarse)
    # equal partitions are one object
    assert len({part.atoms for part in built}) == len(built)
    for part in built:
        assert part.masses == ref.masses_by_outcomes(part)
    for flow in (F, G):
        for t in range(1, flow.horizon + 1):
            assert flow.children(t) == ref.children_by_outcomes(flow, t)
            assert flow.transitions(t) == ref.transitions_by_outcomes(flow, t)


def _counting_groupings(monkeypatch) -> dict:
    """Count the groupings of the outcomes (``space._group_outcomes``)."""
    calls = {"groupings": 0}

    def grouped(parent, labels):
        calls["groupings"] += 1
        return group(parent, labels)

    group = space._group_outcomes
    monkeypatch.setattr(space, "_group_outcomes", grouped)
    return calls


def _given(name: str) -> dict:
    """The golden document, its expanded flow given as atoms."""
    doc = json.loads((GOLDEN / name).read_text())
    G = load_scenario(parse_document(json.dumps(doc)), MODES["exact"]).pair.expanded
    doc["enlargement"] = {"kind": "explicit",
                          "flow": [[list(atom) for atom in part.atoms] for part in G.partitions]}
    return doc


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["noisy_tree_T6.json", "explicit_noisy_second_coin.json",
                                  "noisy_tree_T4.json given"])
def test_load_groups_the_outcomes_once_per_flow(monkeypatch, mode, k, name):
    """Once for F and once for G, and (split into two copies per outcome,
    so that no flow's finest partition is the root) with no map read off
    the outcomes but the groupings' own: no outcome meet, no ``atom_at``."""
    doc = _given(name.split()[0]) if name.endswith("given") else \
        json.loads((GOLDEN / name).read_text())
    calls = _counting_groupings(monkeypatch)
    built = load_scenario(parse_document(json.dumps(split_outcomes(doc, k))), MODES[mode])
    assert calls["groupings"] == 2
    root = built.space.root
    assert k == 1 or all(part._base is root for part in root._up)


@pytest.mark.parametrize("mode, solves", [("exact", (4, 12)), ("float", (26, 65))])
def test_analyze_after_load_groups_no_outcome(monkeypatch, mode, solves):
    arith = MODES[mode]
    built = load_scenario(parse_document((GOLDEN / "noisy_tree_T6.json").read_text()),
                          arith)
    root = built.space.root
    from_root = len(root._up)
    calls = _counting_groupings(monkeypatch)
    calls.update({"sites": 0, "moment solves": 0})

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(viability, "solve_site", counted("sites", viability.solve_site))
    monkeypatch.setattr(linalg, "lstsq_min_norm", counted("moment solves", linalg.lstsq_min_norm))
    verdict, _ = _run_pipeline(built)
    assert verdict.status == viability.VIABLE
    # No grouping, and no map read off the outcomes (an outcome meet or an
    # ``atom_at`` would register one).
    assert (calls["groupings"], len(root._up) - from_root) == (0, 0)
    assert (calls["sites"], calls["moment solves"]) == solves
    if mode == "exact":
        labelled = [part for part in _registered(built.space) if "atoms" in vars(part)]
        assert set(labelled) <= {built.F.partitions[-1], built.pair.expanded.partitions[-1]}


@pytest.mark.parametrize("mode", MODES)
def test_an_initial_enlargement_meets_off_its_own_atoms(monkeypatch, mode):
    """On the golden T = 6 tree, enlarged at time 0, F_t v G_{t-1} is G_t
    itself, read off the registered maps of G_t with no keyed pass; once
    the tree is loaded, neither those meets nor an ``analyze`` pipeline
    calls ``space._refined``."""
    built = load_scenario(parse_document((GOLDEN / "noisy_tree_T6.json").read_text()),
                          MODES[mode])
    F, G = built.F, built.pair.expanded
    calls = []

    def refined(*args):
        calls.append(args)
        return keyed(*args)

    keyed = space._refined
    monkeypatch.setattr(space, "_refined", refined)
    for t in range(1, F.horizon + 1):
        assert F.at(t).meet(G.at(t - 1))[0] is G.at(t)
    verdict, _ = _run_pipeline(built)
    assert verdict.status == viability.VIABLE
    assert calls == []
