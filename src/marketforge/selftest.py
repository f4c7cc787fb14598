"""Built-in verification battery, runnable from the CLI in either mode.

The battery covers three layers: the canonical fixtures with hand-computed
numbers, seeded randomized property checks (calculus identities, drift
identity, jump-site solver contracts), and negative controls that prove
invalid data is rejected with a clear message.  Every row reports pass or
fail; the runner never stops early.

The random generators for model data and jump sites live here rather than
in the test tree because the battery needs them at runtime; the test suite
imports them from this module.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import fixtures, linalg
from .arith import EXACT, FLOAT, Arithmetic
from .calculus import bracket, centred, compensator, integrate, pred_bracket, stoch_exp
from .enlarge import drift, solve_phi
from .jumpkernel import (
    KernelError,
    Site,
    SiteChild,
    charged,
    check_coercivity,
    check_jump_bound,
    energy_bound,
    solve_site,
    tilt_floor,
    verify_density,
)
from .mrp import Driver
from .space import Process, first_mismatch
from .viability import (
    ASSUMPTION_VIOLATED,
    NON_VIABLE,
    VIABLE,
    Market,
    solve_structure_F,
    solve_structure_G,
    verify_deflator,
)

# ---------------------------------------------------------------------------
# random model data


def rand_fraction(rng, lo=-8, hi=8, den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_adapted(space, filtration, rng, horizon=None, dim=1) -> Process:
    """Adapted process with random rational values, constant on atoms."""
    horizon = filtration.horizon if horizon is None else horizon
    paths = [[None] * (horizon + 1) for _ in space.outcomes]
    for t in range(horizon + 1):
        for members in filtration.at(t).members:
            v = tuple(rand_fraction(rng) for _ in range(dim))
            for i in members:
                paths[i][t] = v
    return Process.from_paths(space, paths)


def random_martingale(space, filtration, rng, dim=1) -> Process:
    """Random martingale: a random adapted process minus its compensator."""
    X = centred(random_adapted(space, filtration, rng, dim=dim))
    return X - compensator(X, filtration)


# ---------------------------------------------------------------------------
# random jump sites


def _scaled_contraction(rng, ws):
    """Per-child values of a random linear form on the jumps, scaled below 1.

    Sampling nu and delta as contractions of the child jump vectors keeps
    the site realizable: these scalars come from vectors multiplying the
    driver jump in any actual model, never from thin air.  The scaling
    keeps |value| < 1, so tilts stay positive and deltas stay below one.
    """
    if not ws:
        return []
    vec = [rand_fraction(rng) for _ in range(len(ws[0]))]
    vals = [sum(a * b for a, b in zip(vec, w)) for w in ws]
    peak = max((abs(v) for v in vals), default=Fraction(0))
    lam = Fraction(rng.randint(1, 3), 4) / (1 + peak)
    return [lam * v for v in vals]


def _junk_child(rng, dim):
    """Uncharged child with wild data: every operator must ignore it."""
    w = tuple(Fraction(rng.randint(-9, 9)) for _ in range(dim))
    return SiteChild(Fraction(0), w, Fraction(rng.randint(2, 9)),
                     Fraction(rng.randint(2, 9)))


def _random_probs(rng, m) -> list[Fraction]:
    weights = [rng.randint(1, 6) for _ in range(m)]
    tot = sum(weights)
    return [Fraction(a, tot) for a in weights]


def random_site(rng, accessible: bool, max_dim=4) -> Site:
    """Random realizable site, tilts positive and deltas below one.

    An accessible site has at most dim + 1 children whose centered jumps
    have full site rank; an inaccessible one at most dim children with
    independent jumps.
    """
    while True:
        d = rng.randint(1, max_dim)
        m = rng.randint(1, d + accessible)
        ws = [tuple(rand_fraction(rng, -4, 4, 3) for _ in range(d)) for _ in range(m)]
        if accessible:
            probs = _random_probs(rng, m)
            mean = [sum(p * v[i] for p, v in zip(probs, ws)) for i in range(d)]
            ws = [tuple(v[i] - mean[i] for i in range(d)) for v in ws]
        if linalg.rank([list(w) for w in ws], EXACT) != m - accessible:
            continue
        if not accessible:
            probs = _random_probs(rng, m)
        nus = _scaled_contraction(rng, ws)
        deltas = _scaled_contraction(rng, ws)
        children = [SiteChild(p, w, nu, de)
                    for p, w, nu, de in zip(probs, ws, nus, deltas)]
        if rng.random() < 0.3:
            children.insert(rng.randrange(len(children) + 1), _junk_child(rng, d))
        return Site(d, tuple(children), accessible)


def site_to_float(site: Site, arith: Arithmetic = FLOAT) -> Site:
    """The same site with every rational coerced to a float."""
    children = tuple(
        SiteChild(float(c.prob), tuple(float(x) for x in c.w),
                  float(c.nu), float(c.delta))
        for c in site.children
    )
    return Site(site.dim, children, site.accessible, arith)


# ---------------------------------------------------------------------------
# battery pieces.  Each returns a note string and raises AssertionError
# (with a readable message) on failure.


def _ask(cond, message):
    if not cond:
        raise AssertionError(message)


def _num(arith: Arithmetic, text: str):
    return arith.parse(text)


def _check_base_structure(arith: Arithmetic) -> str:
    fx = fixtures.b1(arith)
    eq = arith.eq
    sol = solve_structure_F(Market(fx.S, fx.F), Driver(fx.W, fx.F))
    _ask(eq(sol.driver_coefficients.value("u", 1), _num(arith, "1/5")),
         "b1 coefficient is not 1/5")
    _ask(eq(sol.deflator.value("u", 1), _num(arith, "4/5"))
         and eq(sol.deflator.value("d", 1), _num(arith, "6/5")),
         "b1 deflator is not (4/5, 6/5)")
    mean = sum(fx.space.weight(o) * sol.deflator.value(o, 1) * fx.S.value(o, 1)
               for o in fx.space.outcomes)
    _ask(eq(mean, _num(arith, "1")), "b1 deflated asset lost its mean")
    ok, witness = verify_deflator(sol.deflator, Market(fx.S, fx.F), fx.F)
    _ask(ok, f"b1 deflator battery failed: {witness}")
    return "coefficient 1/5, deflator (4/5, 6/5)"


def _check_noise_gauge(arith: Arithmetic) -> str:
    fx = fixtures.b2n(arith)
    eq = arith.eq
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    _ask(gauge.support_ok, "b2n support condition should hold")
    _ask(gauge.u_positive, "b2n tilt floor should be positive")
    _ask(eq(gauge.phi.value("uu0", 1), _num(arith, "3/5")),
         "b2n phi at (uu0, 1) is not 3/5")
    _ask(eq(gauge.phi.value("uu1", 1), _num(arith, "-3/5")),
         "b2n phi at (uu1, 1) is not -3/5")
    _ask(eq(gauge.u.value("uu0", 1), _num(arith, "2/5")),
         "b2n tilt floor at (uu0, 1) is not 2/5")
    return "phi(+-3/5), u 2/5 at the first step"


def _check_noise_pipeline(arith: Arithmetic) -> str:
    fx = fixtures.b2n(arith)
    eq = arith.eq
    market = Market(fx.S, fx.F)
    driver = Driver(fx.W, fx.F)
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    verdict = solve_structure_G(market, fx.pair, gauge, driver)
    _ask(verdict.status == VIABLE, f"b2n verdict is {verdict.status}")
    sol = verdict.solution
    up = [o for o, z in zip(fx.space.outcomes, fx.signal) if z == "u"]
    down = [o for o, z in zip(fx.space.outcomes, fx.signal) if z == "d"]
    _ask(all(eq(sol.driver_coefficients.value(o, 1), _num(arith, "5/4"))
             for o in up), "b2n coefficient on the up-signal atom is not 5/4")
    _ask(all(eq(sol.driver_coefficients.value(o, 1), _num(arith, "-5/8"))
             for o in down), "b2n coefficient on the down-signal atom is not -5/8")
    jumps = sorted(sol.martingale.value(o, 1) for o in up)
    _ask(eq(jumps[0], _num(arith, "-2")) and eq(jumps[-1], _num(arith, "1/2")),
         "b2n jumps on the up-signal atom are not (-2, 1/2)")
    factors = sorted(sol.deflator.value(o, 1) for o in up)
    _ask(eq(factors[0], _num(arith, "1/2")) and eq(factors[-1], _num(arith, "3")),
         "b2n deflator factors on the up-signal atom are not (1/2, 3)")
    ok, witness = verify_deflator(sol.deflator, market, fx.pair.expanded)
    _ask(ok, f"b2n deflator battery failed: {witness}")
    return "viable; coefficients 5/4 and -5/8, factors (1/2, 3)"


def _check_insider_gate(arith: Arithmetic) -> str:
    fx = fixtures.b2i(arith)
    eq = arith.eq
    market = Market(fx.S, fx.F)
    driver = Driver(fx.W, fx.F)
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    verdict = solve_structure_G(market, fx.pair, gauge, driver)
    _ask(verdict.status == ASSUMPTION_VIOLATED,
         f"b2i verdict is {verdict.status}, expected the assumption gate")
    _ask(verdict.witness.reason == "support" and verdict.witness.t == 1,
         f"b2i gate witness is {verdict.witness}")
    forced = solve_structure_G(market, fx.pair, gauge, driver,
                               enforce_assumptions=False)
    _ask(forced.status == NON_VIABLE
         and forced.witness.reason == "site-infeasible",
         f"b2i bypass verdict is {forced.status} ({forced.witness})")
    _ask(len(forced.witness.detail) == 1
         and eq(forced.witness.detail[0], _num(arith, "6/5")),
         f"b2i residual is {forced.witness.detail}, expected (6/5,)")
    return "gate at t=1; bypass leaves residual 6/5"


def _check_kernel_closed_form(arith: Arithmetic) -> str:
    site = fixtures.k1_site(arith)
    eq = arith.eq
    out = solve_site(site)
    _ask(out.feasible, "k1 site solve is infeasible")
    _ask(eq(out.solution[0], _num(arith, "8/15"))
         and eq(out.solution[1], _num(arith, "-4/5")),
         f"k1 solution is {out.solution}, expected (8/15, -4/5)")
    for child in charged(site):
        jump = sum(a * b for a, b in zip(out.solution, child.w))
        _ask(eq(jump, (child.delta + child.nu) / (1 + child.nu)),
             "k1 per-child closed form failed")
    bound_ok, _rows = check_jump_bound(site, out.solution)
    _ask(bound_ok, "k1 jump bound failed")
    u = tilt_floor(site)
    _ask(eq(u, _num(arith, "1/2")), f"k1 tilt floor is {u}, expected 1/2")
    energy_ok, left, right = energy_bound(site, out.solution, u)
    _ask(energy_ok and eq(left, _num(arith, "48/125"))
         and eq(right, _num(arith, "112/125")),
         f"k1 energy numbers are ({left}, {right})")
    _ask(verify_density(site), "k1 density normalization failed")
    _ask(check_coercivity(site, u), "k1 coercivity check failed")
    return "xi (8/15, -4/5); energy 48/125 <= 112/125"


def _check_kernel_infeasible(arith: Arithmetic) -> str:
    site = fixtures.insider_site(arith)
    eq = arith.eq
    out = solve_site(site)
    _ask(not out.feasible, "insider site should be infeasible")
    _ask(len(out.residual) == 1 and eq(out.residual[0], _num(arith, "6/5")),
         f"insider residual is {out.residual}, expected (6/5,)")
    return "infeasible with residual 6/5"


def _check_drift_identity(arith: Arithmetic, rounds=25) -> str:
    fx = fixtures.b2n(arith)
    gauge = solve_phi(fx.pair, fx.W, fx.W)
    rng = random.Random(2305)
    for _ in range(rounds):
        X = random_martingale(fx.space, fx.F, rng)
        miss = first_mismatch(drift(X, fx.pair),
                              integrate(gauge.phi, pred_bracket(gauge.N, X, fx.F)))
        if miss is not None:
            raise AssertionError(f"drift identity missed at ({miss[0]}, {miss[1]})")
    return f"{rounds} random martingales"


def _check_calculus_identities(arith: Arithmetic, rounds=10) -> str:
    fx = fixtures.b2(arith)
    eq = arith.eq
    rng = random.Random(414)
    for _ in range(rounds):
        X = random_adapted(fx.space, fx.F, rng)
        Y = random_adapted(fx.space, fx.F, rng)
        X0 = Process.constant(fx.space, fx.F.horizon, X.value("uu", 0))
        Y0 = Process.constant(fx.space, fx.F.horizon, Y.value("uu", 0))
        A, B = X - X0, Y - Y0
        yor_l = stoch_exp(A).times(stoch_exp(B))
        yor_r = stoch_exp(A + B + bracket(A, B))
        prod = X.times(Y)
        parts_l = prod - Process.constant(fx.space, fx.F.horizon,
                                          prod.value("uu", 0))
        parts_r = (integrate(X.lagged(), Y) + integrate(Y.lagged(), X)
                   + bracket(X, Y))
        for o in fx.space.outcomes:
            for t in range(fx.F.horizon + 1):
                _ask(eq(yor_l.value(o, t), yor_r.value(o, t)),
                     f"product formula missed at ({o}, {t})")
                _ask(eq(parts_l.value(o, t), parts_r.value(o, t)),
                     f"integration by parts missed at ({o}, {t})")
    return f"{rounds} rounds of product/parts identities"


def site_contracts(site: Site) -> None:
    """Assert the full contract battery for one realizable site."""
    out = solve_site(site)
    _ask(out.feasible, f"site solve infeasible, residual {out.residual}")
    bound_ok, _rows = check_jump_bound(site, out.solution)
    _ask(bound_ok, "site jump-bound rows failed")
    u = tilt_floor(site)
    _ask(u > 0, "tilt floor is not positive")
    _ask(check_coercivity(site, u), "coercivity at the tilt floor failed")
    energy_ok, left, right = energy_bound(site, out.solution, u)
    _ask(energy_ok, f"energy bound failed: {left} > {right}")
    _ask(verify_density(site), "density normalization failed")


def _check_random_sites(arith: Arithmetic, rounds=60) -> str:
    rng = random.Random(97)
    count = 0
    for i in range(rounds):
        site = random_site(rng, i % 2 == 0)
        if not arith.exact:
            site = site_to_float(site, arith)
        site_contracts(site)
        count += 1
    return f"{count} random sites, both flavors"


def _check_invalid_rejected(arith: Arithmetic) -> str:
    one = arith.parse(1)
    half = arith.parse("1/2")
    try:
        Site(1, (SiteChild(half, (one,), 0 * one, one),
                 SiteChild(half, (-one,), 0 * one, 0 * one)), True, arith)
    except KernelError as err:
        message = str(err)
        _ask("delta" in message and "1" in message,
             f"rejection message is not descriptive: {message}")
    else:
        raise AssertionError("charged delta at the bound was accepted")
    try:
        Site(1, (SiteChild(arith.parse(-1), (one,), 0 * one, 0 * one),
                 SiteChild(arith.parse(2), (arith.parse("1/2"),), 0 * one, 0 * one)),
             True, arith)
    except KernelError:
        pass
    else:
        raise AssertionError("negative probability was accepted")
    return "bad sites rejected with readable messages"


_BATTERY = (
    ("base-structure-numbers", _check_base_structure),
    ("noise-gauge-numbers", _check_noise_gauge),
    ("noise-expanded-pipeline", _check_noise_pipeline),
    ("insider-assumption-gate", _check_insider_gate),
    ("kernel-site-closed-form", _check_kernel_closed_form),
    ("kernel-site-infeasible", _check_kernel_infeasible),
    ("drift-identity-battery", _check_drift_identity),
    ("calculus-identity-battery", _check_calculus_identities),
    ("random-site-battery", _check_random_sites),
    ("invalid-site-rejection", _check_invalid_rejected),
)


def run_selftest(arith: Arithmetic = EXACT):
    """Run the full battery; returns rows of (name, passed, note)."""
    rows = []
    for name, fn in _BATTERY:
        try:
            rows.append((name, True, fn(arith)))
        except Exception as err:  # collect, never abort the battery
            rows.append((name, False, f"{type(err).__name__}: {err}"))
    return rows
