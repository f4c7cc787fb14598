"""The jump-site checks on numerators against their Fraction formulas.

``jumpkernel`` validates a site, re-checks its solve and runs the jump
rows, the energy bound and the density on the site's ``Layout``, by
cross-multiplied integer numerators, and decodes only what the record and
the checks report.  ``reference`` keeps the same checks on the children's
numbers.  On drawn sites of both flavors -- with uncharged junk children,
zero jumps, 1 + nu = 0 tilts, degenerate insider tilts, and invalid data
(probabilities off, delta at or above 1 on a charged child, uncentred
jumps or tilts) -- the two must give the same validation message, the same
``SiteSolve`` or error, the same rows, energy triple and density, in exact
mode by value and in float mode bit for bit.

The structural guard counts the ``Fraction``s built while exact battery
sites are made, solved and checked: no more than the record and the checks
hold.
"""

import pathlib
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from marketforge.arith import EXACT, FLOAT
from marketforge import linalg
from marketforge.jumpkernel import (
    CoercivityFailure,
    KernelError,
    NegativeTilt,
    Site,
    SiteChild,
    check_jump_bound,
    _within_growth_bound,
    energy_bound,
    site_checks,
    solve_site,
    tilt_floor,
    verify_density,
)
from marketforge.scenario import load_site
from util import bits

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402

SMALL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
TILTS = st.builds(Fraction, st.integers(-3, 3), st.integers(2, 4))
DELTAS = st.builds(Fraction, st.integers(-6, 3), st.just(4))
DEFECTS = ("probabilities", "delta", "uncentred jump", "uncentred tilt")


def key(x):
    """A comparable form of a record: floats by their bits, other numbers
    by value, dataclasses and containers entry by entry."""
    if isinstance(x, (bool, str)) or x is None:
        return x
    if isinstance(x, float):
        return bits(x)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if is_dataclass(x):
        return type(x).__name__, [key(getattr(x, f.name)) for f in fields(x)]
    if isinstance(x, dict):
        return {k: key(v) for k, v in x.items()}
    return [key(v) for v in x]


def outcome(solve, site):
    """The solve's record, or its error as (type, message)."""
    try:
        return solve(site)
    except (KernelError, NegativeTilt, CoercivityFailure, OverflowError) as err:
        return type(err).__name__, str(err)


@st.composite
def site_data(draw):
    """(dim, children, accessible): a drawn site, valid or not."""
    accessible, dim = draw(st.booleans()), draw(st.sampled_from((0, 1, 1, 2, 2, 3)))
    rows = []
    for _ in range(draw(st.integers(1 + accessible, 5))):
        weight = draw(st.integers(1, 4)) if draw(st.integers(0, 4)) else 0  # 0: uncharged
        w = draw(st.lists(SMALL, min_size=dim, max_size=dim))
        if draw(st.integers(0, 4)) == 0:
            w = [Fraction(0)] * dim
        nu = Fraction(-1) if draw(st.integers(0, 4)) == 0 else draw(TILTS)  # -1: zero tilt
        rows.append((weight, w, nu, draw(DELTAS)))
    total = sum(r[0] for r in rows) or 1
    probs = [Fraction(r[0], total) for r in rows]
    ws, nus, deltas = [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows]
    defect = draw(st.sampled_from((None,) * 5 + DEFECTS))
    if accessible:
        if defect != "uncentred jump":
            mean = [sum(p * w[i] for p, w in zip(probs, ws)) for i in range(dim)]
            ws = [[x - m for x, m in zip(w, mean)] for w in ws]
        charged = [k for k, p in enumerate(probs) if p > 0]
        if charged and draw(st.integers(0, 3)) == 3:
            # An insider tilt: 1 + nu = 0 on every charged child but one, so
            # the tilted law is a point mass and M is zero.
            j = draw(st.sampled_from(charged))
            nus = [Fraction(-1) if k != j and k in charged else nu for k, nu in enumerate(nus)]
            nus[j] = (1 - probs[j]) / probs[j]
        elif defect != "uncentred tilt":
            mean_tilt = sum(p * nu for p, nu in zip(probs, nus))
            nus = [nu - mean_tilt for nu in nus]
    for k, p in enumerate(probs):
        if p == 0:  # junk: an uncharged child's tilt may be negative, its delta above 1
            nus[k], deltas[k] = (Fraction(draw(st.integers(-9, 9))) for _ in range(2))
    if defect == "probabilities":
        probs[-1] += Fraction(1, 7)
    elif defect == "delta" and any(probs):
        k = draw(st.sampled_from([k for k, p in enumerate(probs) if p > 0]))
        deltas[k] = Fraction(draw(st.integers(1, 3)))
    children = tuple(SiteChild(p, tuple(w), nu, de)
                     for p, w, nu, de in zip(probs, ws, nus, deltas))
    return dim, children, accessible


def floated(children):
    return tuple(SiteChild(float(c.prob), tuple(map(float, c.w)), float(c.nu), float(c.delta))
                 for c in children)


def unit_jump(site, xi):
    """xi scaled so that the first charged child with a nonzero jump jumps
    by exactly 1 (in exact mode), the edge of the bound jump < 1."""
    origin = ref.centre(site)
    jumps = [ref._jump(xi, c, origin) for c in ref.charged(site)]
    j = next((j for j in jumps if j != 0), 1)
    return [x / j for x in xi]


def assert_matches_the_oracle(dim, children, accessible, arith, xi, u):
    try:
        ref.validate_site(dim, children, accessible, arith)
    except KernelError as err:
        try:
            Site(dim, children, accessible, arith)
        except KernelError as got:
            assert str(got) == str(err)
        else:
            raise AssertionError(f"site accepted; the oracle says {err}")
        return
    site = Site(dim, children, accessible, arith)
    xis = (xi, unit_jump(site, xi))
    assert key(tilt_floor(site)) == key(ref.tilt_floor(site))
    assert verify_density(site) == ref.verify_density(site)
    got = outcome(solve_site, site)
    assert key(got) == key(outcome(ref.solve_site, site))
    for x in ((got.solution, *xis) if not isinstance(got, tuple) else xis):
        assert key(check_jump_bound(site, x)) == key(ref.check_jump_bound(site, x))
        assert key(energy_bound(site, x, u)) == key(ref.energy_bound(site, x, u))
    if isinstance(got, tuple) or not got.feasible:
        return
    floor = ref.tilt_floor(site)
    want = {"density": ref.verify_density(site), "coercivity-at-floor": got.coercive,
            "jump-bound": all(r.ok for r in got.rows), "jumps": [r.jump for r in got.rows]}
    if floor > 0:
        ok, left, right = ref.energy_bound(site, got.solution, floor)
        want["energy"] = {"ok": ok, "left": left, "right": right}
    assert key(site_checks(site, got)[1]) == key(want)


@given(site_data(), st.data())
def test_site_checks_on_numerators_match_the_fraction_formulas(site, data):
    dim, children, accessible = site
    xi = data.draw(st.lists(SMALL, min_size=dim, max_size=dim))
    u = data.draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)))
    assert_matches_the_oracle(dim, children, accessible, EXACT, xi, u)
    assert_matches_the_oracle(dim, floated(children), accessible, FLOAT,
                              list(map(float, xi)), float(u))


@given(st.integers(0, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(SMALL, min_size=n, max_size=n), st.lists(SMALL, min_size=n, max_size=n),
    st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)))))
def test_growth_bound_on_numerators_matches_the_fraction_formula(drawn):
    B, xi, v, u = drawn
    G = [[linalg.dot(a, b) for b in zip(*B)] for a in zip(*B)]  # B^T B, PSD
    pairs = [linalg.numerators(vec, True) for vec in ([xi], [v], [[u]])]
    (X,), xd = pairs[0]
    (Y,), yd = pairs[1]
    [[un]], ud = pairs[2]
    Gi, _ = linalg.numerators(G, True)
    want = ref.within_growth_bound(G, xi, v, u, EXACT)
    assert _within_growth_bound(Gi, (X, xd), (Y, yd), (un, ud), EXACT) == want
    fG = [[float(a) for a in row] for row in G]
    fx, fv = list(map(float, xi)), list(map(float, v))
    assert (_within_growth_bound(fG, (fx, 1), (fv, 1), (float(u), 1), FLOAT)
            == ref.within_growth_bound(fG, fx, fv, float(u), FLOAT))


def test_a_nonpositive_energy_floor_is_refused_in_both_paths():
    site = Site(1, (SiteChild(Fraction(1), (Fraction(1),), Fraction(0), Fraction(0)),),
                False)
    for solve in (energy_bound, ref.energy_bound):
        try:
            solve(site, [Fraction(0)], Fraction(0))
        except KernelError as err:
            assert str(err) == "energy bound needs a positive floor u"
        else:
            raise AssertionError("a zero floor was accepted")


def _fraction_constructors() -> set:
    """Code objects every new Fraction passes through: ``__new__``, and on
    Python >= 3.12 the arithmetic's ``_from_coprime_ints``."""
    codes = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
    return codes


def test_exact_sites_build_no_more_fractions_than_they_report():
    sites = [load_site(doc, EXACT) for doc, _ in gen.site_battery(1, 100)]
    codes, built = _fraction_constructors(), []

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            built.append(1)

    decoded = 0
    sys.setprofile(count)
    try:
        for s in sites:
            site = Site(s.dim, s.children, s.accessible, EXACT)
            solve = solve_site(site)
            _, checks = site_checks(site, solve)
            energy = checks.get("energy", {})
            decoded += sum(isinstance(v, Fraction) for v in (
                *solve.solution, *solve.residual, solve.coercivity,
                *(x for r in solve.rows for x in (r.jump, r.identity_lhs, r.identity_rhs)),
                energy.get("left"), energy.get("right")))
    finally:
        sys.setprofile(None)
    assert decoded > 0 and len(built) <= decoded
