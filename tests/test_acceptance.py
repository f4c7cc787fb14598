"""Acceptance battery: one test per advertised guarantee.

Each test re-verifies its claim with independent arithmetic where practical
(brute conditional means, direct least squares, full-tree report diffs)
rather than trusting the code path under test.  The conftest hook prints a
PASS/FAIL line per test at the end of a run.
"""

import json
import random
from fractions import Fraction

import pytest

from marketforge import linalg
from marketforge.arith import EXACT
from marketforge.calculus import (
    bracket,
    compensator,
    integrate,
    is_martingale,
    pred_bracket,
    stoch_exp,
)
from marketforge.cli import main as cli_main
from marketforge.enlarge import drift, solve_phi
from marketforge.fixtures import b1, b2, b2n, k1_site
from marketforge.jumpkernel import (
    check_coercivity,
    check_jump_bound,
    energy_bound,
    gram_F,
    gram_G,
    site_rhs,
    solve_site,
    tilt_floor,
    verify_density,
)
from marketforge.mrp import Driver
from marketforge.scenario import load_scenario, load_site, parse_document
from marketforge.space import (
    EnlargementPair,
    Process,
    build_initial_enlargement,
    is_predictable,
)
from marketforge.viability import (
    ASSUMPTION_VIOLATED,
    NON_VIABLE,
    VIABLE,
    Market,
    price_drift_rhs,
    solve_structure_F,
    solve_structure_G,
    verify_deflator,
)

from reference import (
    delta,
    lift_filtration,
    lift_process,
    mat_mul,
    pinv_psd,
    product_with_independent,
    restricted_inverse,
)
from test_cli import SCENARIOS
from test_golden_reports import GOLDEN
from util import (
    brute_cond_mean,
    random_adapted,
    random_martingale,
    random_site,
    site_to_float,
)

F = Fraction


def _load(name):
    text = (SCENARIOS / name).read_text()
    return load_scenario(parse_document(text, EXACT), EXACT)


def _equal_processes(X, Y, horizon):
    return all(X.at(o, t) == Y.at(o, t)
               for o in X.space.outcomes for t in range(horizon + 1))


# ---------------------------------------------------------------------------
# 1. calculus contracts on 200 random two-step processes


def test_calculus_contracts_on_200_random_processes():
    fx = b2()
    space, flow = fx.space, fx.F
    rng = random.Random(52)
    for _ in range(100):
        X = random_adapted(space, flow, rng)
        Y = random_adapted(space, flow, rng)

        # bracket: cumulative increment products, symmetric
        br = bracket(X, Y)
        for o in space.outcomes:
            acc = 0
            for t in range(1, 3):
                acc += delta(X, o, t)[0] * delta(Y, o, t)[0]
                assert br.value(o, t) == acc
        assert _equal_processes(br, bracket(Y, X), 2)

        # compensator: brute conditional means, predictable, centers exactly
        A = X - Process.constant(space, 2, X.value("uu", 0))
        comp = compensator(A, flow)
        assert is_predictable(comp, flow)
        for t in range(1, 3):
            inc = [delta(A, o, t) for o in space.outcomes]
            brute = brute_cond_mean(space, flow, t, inc)
            for o in space.outcomes:
                assert delta(comp, o, t) == brute[o]
        R = A - comp
        for t in range(1, 3):
            for atom in flow.at(t - 1).atoms:
                assert sum(space.weight(o) * delta(R, o, t)[0] for o in atom) == 0
        assert is_martingale(R, flow)[0]

        # predictable bracket is the compensator of the raw bracket
        assert _equal_processes(pred_bracket(X, Y, flow),
                                compensator(br, flow), 2)

        # integration by parts and the product formula for exponentials
        prod = X.times(Y)
        lhs = prod - Process.constant(space, 2, prod.value("uu", 0))
        rhs = integrate(X.lagged(), Y) + integrate(Y.lagged(), X) + bracket(X, Y)
        assert _equal_processes(lhs, rhs, 2)
        B = Y - Process.constant(space, 2, Y.value("uu", 0))
        assert _equal_processes(stoch_exp(A).times(stoch_exp(B)),
                                stoch_exp(A + B + bracket(A, B)), 2)


# ---------------------------------------------------------------------------
# 2. one-step market: structure solve and deflator numbers


def test_one_step_structure_numbers():
    fx = b1()
    market = Market(fx.S, fx.F)
    sol = solve_structure_F(market, Driver(fx.W, fx.F))
    assert sol.driver_coefficients.at("u", 1) == (F(1, 5),)
    assert sol.deflator.value("u", 1) == F(4, 5)
    assert sol.deflator.value("d", 1) == F(6, 5)
    ok, witness = verify_deflator(sol.deflator, market, fx.F)
    assert ok and witness is None
    mean = sum(fx.space.weight(o) * sol.deflator.value(o, 1) * fx.S.value(o, 1)
               for o in fx.space.outcomes)
    assert mean == 1


# ---------------------------------------------------------------------------
# 3. expanded-flow drift identity on 50 random martingales


def test_drift_identity_on_50_random_martingales():
    fx = b2n()
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    G = fx.pair.expanded
    rng = random.Random(53)
    for _ in range(50):
        X = random_martingale(fx.space, fx.F, rng)
        gamma = drift(X, fx.pair)
        # X - drift(X) is a martingale in the expanded flow (brute check)
        R = X - gamma
        for t in range(1, fx.F.horizon + 1):
            for atom in G.at(t - 1).atoms:
                assert sum(fx.space.weight(o) * delta(R, o, t)[0]
                           for o in atom) == 0
        assert is_martingale(R, G)[0]
        # and the drift is the gauge integral against the covariation
        expected = integrate(gauge.phi, pred_bracket(gauge.N, X, fx.F))
        assert _equal_processes(gamma, expected, fx.F.horizon)


# ---------------------------------------------------------------------------
# 4. noisy-signal scenario end to end


def test_noisy_signal_scenario_end_to_end(tmp_path, capsys):
    report = tmp_path / "out.json"
    code = cli_main(["analyze", str(SCENARIOS / "noisy_signal.json"),
                     "--report", str(report)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(report.read_text())["verdict"] == "viable"

    built = _load("noisy_signal.json")
    base = solve_structure_F(built.market, built.driver)
    gauge = solve_phi(built.pair, built.carrier, built.driver.W)
    verdict = solve_structure_G(built.market, built.pair, gauge, built.driver,
                                base_solution=base)
    assert verdict.status == VIABLE
    sol = verdict.solution

    up = ("uu0", "ud0", "du1", "dd1")  # outcomes whose signal reads u
    assert {sol.driver_coefficients.at(o, 1) for o in up} == {(F(5, 4),)}
    assert {sol.martingale.value(o, 1) for o in up} == {F(1, 2), F(-2)}
    assert {sol.deflator.value(o, 1) for o in up} == {F(1, 2), F(3)}

    # the drift identity, re-checked outside the solver
    G = built.pair.expanded
    rhs = price_drift_rhs(built.market, base.martingale, gauge)
    m_part = built.market.martingale_part
    m_tilde = m_part - drift(m_part, built.pair)
    lhs = compensator(bracket(sol.martingale, m_tilde), G)
    assert _equal_processes(lhs, rhs, G.horizon)

    ok, witness = verify_deflator(sol.deflator, built.market, G)
    assert ok, witness

    # per-child identity values on the first-step up-signal site
    rec = next(r for r in sol.diagnostics if r.t == 1 and r.atom[0] in up)
    _, rows = check_jump_bound(rec.site, rec.solve.solution)
    assert {r.identity_lhs for r in rows} == {F(-2, 5), F(-3, 5)}
    assert all(r.identity_lhs == r.identity_rhs for r in rows)


# ---------------------------------------------------------------------------
# 5. perfect-insider scenario: gate, witness, forced residual


def test_insider_scenario_gate_and_bypass(capsys):
    code = cli_main(["analyze", str(SCENARIOS / "perfect_insider.json")])
    out = capsys.readouterr().out
    assert code == 5
    assert "verdict: assumption-violated" in out

    built = _load("perfect_insider.json")
    gauge = solve_phi(built.pair, built.carrier, built.driver.W)
    verdict = solve_structure_G(built.market, built.pair, gauge, built.driver)
    assert verdict.status == ASSUMPTION_VIOLATED
    assert verdict.witness.reason == "support"
    assert verdict.witness.t == 1
    assert verdict.witness.atom in (("uu", "ud"), ("du", "dd"))

    forced = solve_structure_G(built.market, built.pair, gauge, built.driver,
                               enforce_assumptions=False)
    assert forced.status == NON_VIABLE
    assert forced.witness.reason == "site-infeasible"
    assert forced.witness.detail == (F(6, 5),)


# ---------------------------------------------------------------------------
# 6. inaccessible-site fixture numbers


def test_inaccessible_site_closed_form_numbers():
    site_file = json.loads((SCENARIOS / "site_inaccessible.json").read_text())
    site = load_site(parse_document(json.dumps(site_file), EXACT), EXACT)
    assert site.children == k1_site().children

    out = solve_site(site)
    assert out.feasible
    assert out.solution == (F(8, 15), F(-4, 5))
    for child in site.children:
        if child.prob > 0:
            jump = sum(a * b for a, b in zip(out.solution, child.w))
            assert jump == (child.delta + child.nu) / (1 + child.nu)
    ok, left, right = energy_bound(site, out.solution, tilt_floor(site))
    assert ok and left == F(48, 125) and right == F(112, 125)
    assert verify_density(site)


# ---------------------------------------------------------------------------
# 7. a thousand random sites pass every check


def test_thousand_random_sites_pass_all_checks():
    rng = random.Random(54)
    seen_accessible = 0
    for i in range(1000):
        accessible = i % 2 == 0
        site = random_site(rng, accessible)
        u = tilt_floor(site)
        assert u > 0
        solve = solve_site(site)
        assert solve.feasible
        assert verify_density(site)
        assert check_coercivity(site, u)
        ok, _rows = check_jump_bound(site, solve.solution)
        assert ok
        energy_ok, _, _ = energy_bound(site, solve.solution, u)
        assert energy_ok
        # independent cross-check: the generalized-inverse reference on the
        # base Gram's column space reproduces the solver's answer exactly
        M = gram_G(site)
        G = gram_F(site)
        J = mat_mul(pinv_psd(G, EXACT), M)
        v, _ = linalg.lstsq_min_norm(G, site_rhs(site), EXACT)
        assert restricted_inverse(G, J, v, u).solution == solve.solution
        # float mode solves the same site to the same answer, never raising
        floated = solve_site(site_to_float(site))
        assert floated.feasible == solve.feasible
        for a, b in zip(solve.solution, floated.solution):
            assert abs(float(a) - b) <= 1e-9 * max(1, abs(float(a)))
        if accessible:
            seen_accessible += 1
            assert all(M[a][b] == M[b][a]
                       for a in range(site.dim) for b in range(site.dim))
    assert seen_accessible == 500


# ---------------------------------------------------------------------------
# 8. transparent enlargements: identity flow and independent noise


def test_transparent_enlargements_reproduce_base_solution():
    fx = b2()
    space, flow, W = fx.space, fx.F, fx.W
    rng = random.Random(88)
    for _ in range(20):
        h_tab = {}
        c_tab = {}
        for t in (1, 2):
            for k in range(len(flow.at(t - 1).atoms)):
                h_tab[(t, k)] = F(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))
                c_tab[(t, k)] = F(rng.randint(-3, 3), 4)

        def inc(o, t):
            k = flow.at(t - 1).atom_index(o)
            return h_tab[(t, k)] * (delta(W, o, t)[0] + c_tab[(t, k)])

        levels = {o: [F(0)] for o in space.outcomes}
        for t in (1, 2):
            for o in space.outcomes:
                levels[o].append(levels[o][t - 1] + inc(o, t))
        floor = min(v for path in levels.values() for v in path)
        start = 1 - floor
        S = Process.from_paths(space,
                               [[start + v for v in levels[o]]
                                for o in space.outcomes])
        market = Market(S, flow)
        driver = Driver(W, flow)
        base = solve_structure_F(market, driver)

        # identity enlargement: same martingale, same deflator
        pair = EnlargementPair(flow, flow)
        gauge = solve_phi(pair, W, W)
        verdict = solve_structure_G(market, pair, gauge, driver,
                                    base_solution=base)
        assert verdict.status == VIABLE
        assert _equal_processes(verdict.solution.martingale, base.martingale, 2)
        assert _equal_processes(verdict.solution.deflator, base.deflator, 2)

        # independent-noise enlargement: trivial gauge, lifted deflator
        prod = product_with_independent(space, ("0", "1"), (F(3, 4), F(1, 4)))
        flow_l = lift_filtration(flow, prod)
        W_l = lift_process(W, prod)
        S_l = lift_process(S, prod)
        bit = tuple(o.rsplit(":", 1)[1] for o in prod.outcomes)
        pair_n = build_initial_enlargement(flow_l, bit)
        market_l = Market(S_l, flow_l)
        driver_l = Driver(W_l, flow_l)
        gauge_n = solve_phi(pair_n, W_l, W_l)
        assert all(gauge_n.phi.at(o, t) == (0,)
                   for o in prod.outcomes for t in range(3))
        assert all(gauge_n.u.value(o, t) == 1
                   for o in prod.outcomes for t in (1, 2))
        verdict_n = solve_structure_G(market_l, pair_n, gauge_n, driver_l)
        assert verdict_n.status == VIABLE
        lifted = lift_process(base.deflator, prod)
        assert _equal_processes(verdict_n.solution.deflator, lifted, 2)


# ---------------------------------------------------------------------------
# 9. float mode agrees with exact mode on the fixture suite


def _tree_close(exact_doc, float_doc, tol=1e-9, path="$"):
    if isinstance(exact_doc, dict):
        assert isinstance(float_doc, dict) and sorted(exact_doc) == sorted(float_doc), path
        for key in exact_doc:
            _tree_close(exact_doc[key], float_doc[key], tol, f"{path}.{key}")
        return
    if isinstance(exact_doc, list):
        assert isinstance(float_doc, list) and len(exact_doc) == len(float_doc), path
        for i, (a, b) in enumerate(zip(exact_doc, float_doc)):
            _tree_close(a, b, tol, f"{path}[{i}]")
        return
    if isinstance(exact_doc, str):
        try:
            value = Fraction(exact_doc)
        except ValueError:
            assert exact_doc == float_doc, path
            return
        assert abs(float(value) - float(float_doc)) < tol, path
        return
    if isinstance(exact_doc, bool) or exact_doc is None:
        assert exact_doc == float_doc, path
        return
    assert abs(float(exact_doc) - float(float_doc)) < tol, path


@pytest.mark.parametrize("command,name", [
    ("analyze", "one_step.json"),
    ("analyze", "noisy_signal.json"),
    ("analyze", "perfect_insider.json"),
    ("kernel", "site_inaccessible.json"),
    ("kernel", "site_insider.json"),
])
def test_float_mode_reproduces_exact_verdicts(command, name, tmp_path, capsys):
    exact_path = tmp_path / "exact.json"
    float_path = tmp_path / "float.json"
    code_e = cli_main([command, str(SCENARIOS / name),
                       "--report", str(exact_path)])
    code_f = cli_main([command, str(SCENARIOS / name), "--mode", "float",
                       "--tolerance", "1e-9", "--report", str(float_path)])
    capsys.readouterr()
    assert code_e == code_f
    exact_doc = json.loads(exact_path.read_text())
    float_doc = json.loads(float_path.read_text())
    assert exact_doc.get("verdict") == float_doc.get("verdict")
    exact_doc.pop("mode"), float_doc.pop("mode")
    _tree_close(exact_doc, float_doc)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float passes the strict jump < 1 test at a jump of "
                          "1 - eps (ROADMAP item 2)")
def test_float_and_exact_agree_on_a_unit_structure_jump(tmp_path, capsys):
    """The trinomial_d2 golden with a second asset worth 21/20, 11/10, 9/10
    on children a, b, c: the base structure martingale jumps by exactly 1 at
    t=1 on [a0, a1].  Exact mode fails jump-bound (exit 4); float mode sees
    a jump just below 1 and reports viable (exit 0)."""
    doc = json.loads((GOLDEN / "trinomial_d2.json").read_text())
    second = {"a": "21/20", "b": "11/10", "c": "9/10"}
    doc["prices"] = [[[s0, 1], [s1, second[o[0]]]]
                     for o, (s0, s1) in zip(doc["space"]["outcomes"], doc["prices"])]
    path = tmp_path / "unit_jump.json"
    path.write_text(json.dumps(doc))
    codes = [cli_main(["analyze", str(path), "--mode", mode])
             for mode in ("exact", "float")]
    capsys.readouterr()
    assert codes[0] == 4
    assert codes[1] == codes[0]
