"""Each distinct local system is solved once per call, and only per call.

Within one ``analyze`` the jump sites, the base-atom solves and the gauge
solves run once per distinct operand value.  These tests count the site
solves on a golden tree, check that a second call solves again, and
compare the pipeline's integrand on every (time, expanded atom) of seeded
random markets, in both modes, with a direct solve of that atom's site;
likewise ``solve_moments``, the per-atom solve of both structure flows,
with a direct minimum-norm solve of each atom's moments and target.  The
base jump bound's witness is pinned to outcome-major order.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from marketforge import linalg, viability
from marketforge.arith import EXACT, FLOAT
from marketforge.calculus import FailureWitness, _compensate, integrate, solve_moments
from marketforge.cli import main
from marketforge.enlarge import solve_phi
from marketforge.jumpkernel import solve_site
from marketforge.mrp import synthesize_driver
from marketforge.scenario import load_scenario, parse_document
from marketforge.space import EnlargementPair, Process, _rows, atom_means
from marketforge.space import build_initial_enlargement
from marketforge.viability import CheckFailed, Market, solve_structure_F, solve_structure_G

from util import bits, random_tree, record_site_solves, site_at, site_value

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MODES = {"exact": EXACT, "float": FLOAT}


def _tree_T4():
    text = (GOLDEN / "noisy_tree_T4.json").read_text()
    built = load_scenario(parse_document(text), EXACT)
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


def _random_market(rng, arith, start=1, jump=Fraction(1, 4)):
    """A random tree with a price from ``start``, the synthesized driver, and
    either no enlargement or an initial enlargement by a random label.

    Each step moves the price by a centred random move c plus a drift of
    jump * var(c) / max |c| times -1, 0 or 1, so the structure martingale
    jumps by drift * c / var(c), at most ``jump`` in size: the price is
    viable for a jump below 1."""
    space, F = random_tree(rng, arith)
    price = {o: Fraction(start) for o in space.outcomes}
    paths = [[(arith.parse(start),)] for _ in space.outcomes]
    for t in range(1, F.horizon + 1):
        for children in F.transitions(t):
            probs = [Fraction(p) for _, p in children]
            raw = [Fraction(rng.randint(-10, 10), 100) for _ in children]
            mean = sum(p * r for p, r in zip(probs, raw))
            moves = [r - mean for r in raw]
            var = sum(p * c * c for p, c in zip(probs, moves))
            drift = 0 if var == 0 else (
                rng.choice((-1, 0, 1)) * jump * var / max(map(abs, moves)))
            for (child, _), c in zip(children, moves):
                for o in F.at(t).atoms[child]:
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


def _systems(X, Y, target, flow, base):
    """(t, B, Q, b, den) for each time-(t-1) atom B of ``flow``: the system
    as ``solve_moments`` hands it to the solver, Q the moment matrix
    E[dX_t transpose(dY_t) | A] of the ``base`` atom A holding B as the
    numerators of its atom means over den, and b the target on B times den.
    In exact mode Q/den is also checked against a sum over A's outcomes."""
    space, n, d = X.space, X.dim, Y.dim
    for t in range(1, flow.horizon + 1):
        a_part, b_part = base.at(t - 1), flow.at(t - 1)
        _, cols, den = atom_means(a_part, X.increments.layers[t], Y.increments.layers[t])
        cells = _rows(cols, len(a_part.atoms))
        for k, (B, a) in enumerate(zip(b_part.atoms, b_part.parents(a_part))):
            Q = [cells[a][i * d:(i + 1) * d] for i in range(n)]
            if space.arith.exact:
                atom = a_part.atoms[a]
                mass = sum(map(space.weight, atom))
                assert [[Fraction(v, den) for v in row] for row in Q] == \
                    [[sum(space.weight(o) * X.increments.at(o, t)[i]
                          * Y.increments.at(o, t)[j] for o in atom) / mass
                      for j in range(d)] for i in range(n)]
            yield t, B, Q, [den * v for v in target.on_atoms(t, b_part, [k])[0]], den


def _system_key(Q, b):
    return tuple(tuple(map(bits, row)) for row in Q), tuple(map(bits, b))


@pytest.mark.parametrize("mode", MODES)
def test_moment_solves_match_a_direct_solve_per_atom(mode, monkeypatch):
    """``solve_moments`` on both flows of seeded random markets: the base
    structure solve (M against W for the price drift, on F) and the gauge
    solve (W against a carrier for E[dW | B], on G inside F), with the full
    driver as carrier and with its first component alone, which leaves
    some gauge systems without a solution.  Every (t, atom) holds the
    direct minimum-norm solve of its own system, a system with no solution
    raises at the first such (t, atom), and each distinct system is
    solved once."""
    arith = MODES[mode]
    same = bits if mode == "float" else Fraction
    lstsq, calls = linalg.lstsq_min_norm, []
    monkeypatch.setattr(linalg, "lstsq_min_norm",
                        lambda A, b, arith: calls.append(_system_key(A, b)) or lstsq(A, b, arith))
    compared, distinct, raised = 0, 0, 0
    for seed in range(40):
        market, driver, pair = _random_market(random.Random(6000 + seed), arith)
        F, G, W = market.F, pair.expanded, driver.W
        gamma = _compensate(W, G)[0]
        for X, Y, target, flow in ((market.martingale_part, W, market.drift_part.increments, F),
                                   (W, W, gamma, G), (W, W.component(0), gamma, G)):
            systems = list(_systems(X, Y, target, flow, F))
            direct = []  # (x, residual) of each system, decoded
            for _, _, Q, b, den in systems:
                x, residual, xd = lstsq(Q, b, arith)
                direct.append((x, residual) if mode == "float" else
                              ([Fraction(v, xd) for v in x],
                               [Fraction(v, xd * den) for v in residual]))
            bad = [k for k, ((_, _, _, b, _), (_, residual)) in enumerate(zip(systems, direct))
                   if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([b]))]
            calls.clear()
            try:
                x = solve_moments(X, Y, target, flow, F, ("status", "reason", "stage"))
            except CheckFailed as err:
                t, B, _, _, _ = systems[bad[0]]
                assert (err.status, err.stage) == ("status", "stage")
                assert err.witness == FailureWitness(
                    "reason", t, B, tuple(direct[bad[0]][1]))
                raised += 1
                continue
            assert bad == []
            for (t, B, _, _, _), (coeffs, _) in zip(systems, direct):
                assert list(map(same, x.at(B[0], t))) == list(map(same, coeffs))
            keys = [_system_key(Q, b) for _, _, Q, b, _ in systems]
            assert sorted(calls) == sorted(set(keys))  # each distinct system once
            compared += len(keys)
            distinct += len(calls)
    assert raised > 0 and compared >= 200 and distinct < compared


@pytest.mark.parametrize("mode", MODES)
def test_base_jump_bound_witness_is_the_first_in_outcome_major_order(mode):
    """Seed 282 (found by a seeded search): the base structure martingale D
    jumps past 1 at t = 1 on [o2] and at t = 2 on [o1].  The witness is the
    first failing jump in outcome-major order, as in the expanded flow:
    [o1] at t = 2, not the earlier time's [o2]."""
    arith = MODES[mode]
    market, driver, _ = _random_market(random.Random(282), arith, start=10, jump=2)
    F = market.F
    D = integrate(solve_moments(market.martingale_part, driver.W, market.drift_part.increments,
                                F, F, (None, None, None)), driver.W)
    assert [(t, o) for o in market.space.outcomes for t in range(1, F.horizon + 1)
            if not D.increments.at(o, t)[0] < 1] == [(2, "o1"), (1, "o2")]
    with pytest.raises(CheckFailed) as err:
        solve_structure_F(market, driver)
    witness = err.value.witness
    assert (err.value.stage, witness.reason, witness.t, witness.atom) == \
        ("base-structure-solve", "jump-bound", 2, ("o1",))
    assert witness.detail == (Fraction(4, 3) if mode == "exact" else pytest.approx(4 / 3))
