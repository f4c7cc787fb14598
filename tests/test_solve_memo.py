"""Each distinct local system is solved once per call, and only per call.

Within one ``analyze`` the jump sites, the base-atom solves and the gauge
solves run once per distinct operand value.  These tests count the site
solves on a golden tree, check that a second call solves again, and
compare the pipeline's integrand on every (time, expanded atom) of seeded
random markets, in both modes, with a direct solve of that atom's site.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from marketforge import linalg, viability
from marketforge.arith import EXACT, FLOAT
from marketforge.cli import main
from marketforge.enlarge import solve_phi
from marketforge.jumpkernel import solve_site
from marketforge.mrp import synthesize_driver
from marketforge.scenario import load_scenario, parse_document
from marketforge.space import (
    EnlargementPair,
    Process,
    build_initial_enlargement,
    value_key,
)
from marketforge.viability import CheckFailed, Market, solve_structure_F, solve_structure_G

from util import bits, random_tree, record_site_solves, site_at, site_value

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MODES = {"exact": EXACT, "float": FLOAT}


def test_value_key_merges_equal_values_only():
    half = Fraction(1, 2)
    assert value_key((half, 0), [1]) == value_key((Fraction(1, 2), 0), (1,))
    assert value_key((0.5, 1.0)) == value_key((0.5, 1.0))
    assert value_key((0.0,)) != value_key((-0.0,))  # keeps the sign of zero
    assert value_key((0.0, 1.0)) != value_key((0, 1.0))
    assert value_key((1,), (2,)) != value_key((1, 2))
    assert value_key((1,), (2,)) != value_key((2,), (1,))


def _tree_T4():
    text = (GOLDEN / "noisy_tree_T4.json").read_text()
    built = load_scenario(parse_document(text, EXACT), EXACT)
    base = solve_structure_F(built.market, built.driver)
    gauge = solve_phi(built.pair, built.carrier, built.driver.W)
    return built, base, gauge


def _all_sites(built, base, gauge):
    G = built.pair.expanded
    return [site_at(built.market, gauge, built.driver, base.martingale, t, g_atom)
            for t in range(1, G.horizon + 1) for g_atom in G.at(t - 1).atoms]


def test_one_site_solve_per_distinct_site_value(monkeypatch):
    built, base, gauge = _tree_T4()
    solved = record_site_solves(monkeypatch)
    verdict = solve_structure_G(built.market, gauge, base)
    assert verdict.status == viability.VIABLE
    values = [site_value(site) for site, _ in solved]
    every = [site_value(site) for site in _all_sites(built, base, gauge)]
    assert len(values) == len(set(values))  # no site value solved twice
    assert set(values) == set(every)        # and every one solved
    assert len(values) < len(every)


def test_each_call_solves_its_sites_again(monkeypatch, tmp_path, capsys):
    built, base, gauge = _tree_T4()
    solved = record_site_solves(monkeypatch)
    for _ in range(2):
        solve_structure_G(built.market, gauge, base)
    first, second = solved[:len(solved) // 2], solved[len(solved) // 2:]
    assert len(first) == len(second) > 0
    assert [site_value(s) for s, _ in first] == [site_value(s) for s, _ in second]

    solved.clear()
    argv = ["analyze", str(GOLDEN / "noisy_tree_T4.json"), "--mode", "exact"]
    assert main(argv) == 0
    once = len(solved)
    assert main(argv) == 0
    capsys.readouterr()
    assert once == len(first) and len(solved) == 2 * once


def test_base_and_gauge_solve_once_per_distinct_operand(monkeypatch):
    calls = []
    lstsq = linalg.lstsq_min_norm

    def counted(A, b, arith):
        calls.append((A, b))
        return lstsq(A, b, arith)

    monkeypatch.setattr(linalg, "lstsq_min_norm", counted)
    built, base, gauge = _tree_T4()
    F, G = built.F, built.pair.expanded
    f_atoms = sum(len(F.at(t).atoms) for t in range(F.horizon))
    g_atoms = sum(len(G.at(t).atoms) for t in range(G.horizon))
    # One base solve per distinct (Q, target), one gauge solve per distinct
    # (Q_A, gamma_B): far fewer than one per atom, and no operand twice.
    assert 0 < len(calls) < (f_atoms + g_atoms) // 4
    keys = [(json.dumps(A, default=str), json.dumps(b, default=str)) for A, b in calls]
    assert len(keys) == len(set(keys))


def _random_market(rng, arith):
    """A random tree with a viable price, the synthesized driver, and either
    no enlargement or an initial enlargement by a random label.

    Each step moves the price by a centred random move c plus a drift of
    var(c) / (4 max |c|) times -1, 0 or 1, so the structure martingale
    jumps by drift * c / var(c), at most 1/4 in size."""
    space, F = random_tree(rng, arith)
    price = {o: Fraction(1) for o in space.outcomes}
    paths = [[(arith.parse(1),)] for _ in space.outcomes]
    for t in range(1, F.horizon + 1):
        for _, _, children in F.transitions(t):
            probs = [Fraction(p) for _, p in children]
            raw = [Fraction(rng.randint(-10, 10), 100) for _ in children]
            mean = sum(p * r for p, r in zip(probs, raw))
            moves = [r - mean for r in raw]
            var = sum(p * c * c for p, c in zip(probs, moves))
            drift = 0 if var == 0 else (
                rng.choice((-1, 0, 1)) * var / (4 * max(map(abs, moves))))
            for (child, _), c in zip(children, moves):
                for o in child:
                    price[o] += c + drift
        for i, o in enumerate(space.outcomes):
            paths[i].append((arith.parse(price[o]),))
    market = Market(Process.from_paths(space, paths), F)
    if rng.random() < 0.25:
        pair = EnlargementPair(F, F)
    else:
        pair = build_initial_enlargement(F, [rng.choice("ab") for _ in space.outcomes])
    return market, synthesize_driver(F), pair


@pytest.mark.parametrize("mode", MODES)
def test_memoized_sites_match_a_direct_solve_per_site(mode):
    arith = MODES[mode]
    # Float cells keep every bit; an exact process reads back Fractions, so a
    # direct solve's int 0 matches Fraction(0) (the two render alike).
    same = bits if mode == "float" else Fraction
    compared, values = 0, set()
    for seed in range(80):
        market, driver, pair = _random_market(random.Random(5000 + seed), arith)
        try:
            base = solve_structure_F(market, driver)
            gauge = solve_phi(pair, driver.W, driver.W)
        except CheckFailed:
            continue
        verdict = solve_structure_G(market, gauge, base)
        if verdict.solution is None:
            continue
        kbar = verdict.solution.driver_coefficients
        G = pair.expanded
        for t in range(1, G.horizon + 1):
            for g_atom in G.at(t - 1).atoms:
                site = site_at(market, gauge, driver, base.martingale, t, g_atom)
                direct = solve_site(site).solution
                assert list(map(same, kbar.at(g_atom[0], t))) == list(map(same, direct))
                compared += 1
                values.add(site_value(site))
    assert compared >= 100 and len(values) < compared  # repeated sites included
