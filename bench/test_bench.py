"""Checks of the benchmark's own generators and tracer.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import gen
import spans

ROOT = Path(__file__).resolve().parent.parent


def test_t2_tree_is_the_noisy_signal_fixture():
    fixture = json.loads((ROOT / "scenarios" / "noisy_signal.json").read_text())
    tree = gen.canonical_tree(2)
    fixture.pop("name"), tree.pop("name")
    assert tree == fixture


def _rows(doc):
    return sorted(zip(doc["space"]["outcomes"], doc["space"]["weights"],
                      map(tuple, doc["driver"]), map(tuple, doc["prices"]),
                      doc["enlargement"]["variable"]))


def test_seeded_tree_lists_the_same_outcomes_in_a_seeded_order():
    base = gen.canonical_tree(4)
    a, b, c = gen.noisy_tree(4, 7), gen.noisy_tree(4, 7), gen.noisy_tree(4, 8)
    assert a == b
    assert a["space"]["outcomes"] != c["space"]["outcomes"]
    assert _rows(a) == _rows(c) == _rows(base)
    assert len(base["driver"]) == 2 ** (4 + 1)


def test_battery_is_seeded_and_insider_sites_have_a_point_mass_tilt():
    assert gen.site_battery(3, 40) == gen.site_battery(3, 40)
    assert gen.site_battery(3, 40) != gen.site_battery(4, 40)
    for i, (doc, expected) in enumerate(gen.site_battery(5, 200)):
        insider = i % gen.INSIDER_EVERY == gen.INSIDER_EVERY - 1
        assert expected == (gen.EXIT_NON_VIABLE if insider else gen.EXIT_OK)
        kids = [{k: v if k == "w" else Fraction(v) for k, v in c.items()}
                for c in doc["children"]]
        prob = "q" if doc["kind"] == "inaccessible" else "p"
        assert sum(c[prob] for c in kids) == 1
        charged = [c for c in kids if c[prob] > 0]
        assert all(c["delta"] < 1 and 1 + c["nu"] >= 0 for c in charged)
        if insider:
            tilts = [(1 + c["nu"]) * c[prob] for c in charged]
            assert sorted(tilts)[:-1] == [0] * (len(tilts) - 1) and sum(tilts) == 1


def test_tracer_catches_imported_names_and_restores_them():
    from marketforge import calculus, enlarge, fixtures
    original = calculus.compensator
    assert enlarge.compensator is original
    fx = fixtures.b2()
    tracer = spans.Tracer()
    with tracer:
        assert enlarge.compensator is not original
        enlarge.drift(fx.W, enlarge.EnlargementPair(fx.F, fx.F))
    assert calculus.compensator is original and enlarge.compensator is original
    summary = spans.summarize(tracer, 0, tracer.mark())
    assert summary["calls"]["enlarge.drift"] == 1
    assert summary["calls"]["space.cond_exp"] >= 1
    drift = tracer.names.index("enlarge.drift")
    assert all(tracer.parents[i] >= drift for i in range(drift + 1, tracer.mark()))


def test_summary_splits_self_time_from_child_time():
    tracer = spans.Tracer()
    tracer.names += ["a.f", "b.g", "a.f"]
    tracer.parents += [-1, 0, 1]
    tracer.starts += [0.0, 1.0, 2.0]
    tracer.ends += [10.0, 5.0, 3.0]
    s = spans.summarize(tracer, 0, 3)
    assert s["incl"]["a.f"] == 10.0  # the nested a.f is not counted twice
    assert s["self"]["a.f"] == 6.0 + 1.0 and s["self"]["b.g"] == 3.0
    assert spans.layer_self(s, "a") == 7.0
    assert spans.outermost(tracer, 0, 3, "b") == 4.0


def test_rank_matches_a_hand_count():
    rng = random.Random(0)
    row = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    assert gen._rank([row, [2 * x for x in row]]) == 1
    assert gen._rank([[1, 0], [0, 1], [1, 1]]) == 2
