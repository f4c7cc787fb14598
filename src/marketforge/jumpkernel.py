"""Local jump-site algebra: Gram matrices, the site solve, jump bounds.

A jump site is the one-step law of a driver jump seen from just before the
jump: children (the possible post-jump atoms) with probabilities, driver
jump vectors w, the drift-carrier tilt nu and the structure-martingale jump
delta.  One type, ``Site``, holds both flavors; which one a site has is
data (``Site.accessible``, the ``kind`` of a site file):

* accessible sites sit at predictable times, so the driver jump is centered
  (sum p w = 0) and the carrier tilt averages out (sum p nu = 0);
* inaccessible sites carry no centering; instead the aggregate tilt
  1 + sum q nu must be positive for the implied conditional law to exist.

Both flavors share one expanded Gram, M = sum (1+nu) p (w - c)(w - c)^T,
about the centre c: the tilted mean sum (1+nu) p w at an accessible site,
zero at an inaccessible one.  Every deflator jump is read as xi.(w - c);
only the per-child identity of ``check_jump_bound`` and its skip rule
differ by flavor.

``solve_site`` recovers the integrand xi of the deflator's jump equation
transpose(xi) M = r.  The equation is coercive when M - u G_F is positive
semidefinite for the tilt floor u > 0; after that certificate one
minimum-norm solve of the symmetric system M xi = r gives xi.

Everything runs on integers.  A site encodes its children once, when it
is made, as numerators over one denominator per quantity (``Layout``, the
centre taken there), and is validated on them; M, G_F and r are integer
matrices that ``linalg`` eliminates fraction free; the growth bound, the
site equation, the jump rows, the energy bound and the density compare
cross-multiplied numerators.  In float mode every denominator is 1 and a
ratio a formula divides by is divided out where it is formed, so each
float operation is the plain formula's.  Only what the record,
``SiteSolve``, and the checks report is decoded (to ``Fraction`` in exact
mode).  ``site_checks`` is the kernel's one pass rule; ``tests/reference.py``
keeps the checks on the children's numbers, and the paper's
generalized-inverse recipe, as the oracles.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import linalg
from .arith import EXACT, Arithmetic, Num


class KernelError(ValueError):
    """Malformed site data or operator inputs."""


class CoercivityFailure(Exception):
    """The tilted Gram fails to dominate eps times the base Gram on V."""


class NegativeTilt(Exception):
    """Some charged child has tilt 1 + nu < 0: no conditional density exists."""


@dataclass(frozen=True)
class SiteChild:
    """One post-jump atom: probability, driver jump w, tilt nu, jump delta."""

    prob: Num
    w: tuple[Num, ...]
    nu: Num
    delta: Num


@dataclass(frozen=True)
class JumpBoundRow:
    """Per-child record: the realized deflator jump and its admissibility."""

    index: int
    jump: Num
    identity_lhs: Num
    identity_rhs: Num
    ok: bool


@dataclass(frozen=True)
class SiteSolve:
    """A site's certificate: xi, feasibility, the residual of r, the tilt
    floor the solve certified (None at a degenerate site), whether M - u G_F
    is PSD at the tilt floor, and the jump rows of a feasible solve."""

    solution: tuple[Num, ...]
    feasible: bool
    residual: tuple[Num, ...]
    coercivity: Num | None
    coercive: bool
    rows: tuple[JumpBoundRow, ...] = ()


# A site's children as numerators over one denominator per quantity (floats
# over 1): p P/pd, rows w W/wd, nu Nu/nd, 1 + nu T/nd, (1 + nu) p mass/(nd pd),
# delta De/dd and the centred rows w - c Y/yd.
Layout = namedtuple("Layout", "P pd W wd Nu T nd mass De dd Y yd")


@dataclass(frozen=True, eq=False)
class Site:
    """One jump site; ``accessible`` is its flavor, read from the site data.

    Invariants: probabilities sum to 1 and delta < 1 on charged children
    (structure-martingale jumps stay below one).  At an accessible site the
    driver jump is centered and the tilt averages to zero under the child
    law; at an inaccessible one the aggregate tilt 1 + sum q nu is positive.
    They are checked on ``layout``, the children encoded with the site.
    """

    dim: int
    children: tuple[SiteChild, ...]
    accessible: bool
    arith: Arithmetic = EXACT
    layout: Layout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise KernelError("site dimension must be nonnegative")
        if not self.children:
            raise KernelError("site needs at least one child")
        for c in self.children:
            if len(c.w) != self.dim:
                raise KernelError("child jump vector has the wrong dimension")
            if c.prob < 0:
                raise KernelError("child probabilities must be nonnegative")
        object.__setattr__(self, "layout", _layout(self))
        arith, lay = self.arith, self.layout
        if not arith.eq(sum(lay.P), lay.pd):
            raise KernelError("child probabilities must sum to 1")
        if any(p > 0 and not de < lay.dd for p, de in zip(lay.P, lay.De)):
            raise KernelError("delta must stay below 1 on charged children")
        mean_tilt = linalg.dot(lay.P, lay.Nu)  # over pd nd
        if self.accessible:
            if not all(arith.is_zero(linalg.dot(lay.P, col)) for col in zip(*lay.W)):
                raise KernelError("driver jump must be centered at an accessible site")
            if not arith.is_zero(mean_tilt):
                raise KernelError("tilt must average to zero at an accessible site")
        elif not lay.pd * lay.nd + mean_tilt > 0:
            raise KernelError("aggregate tilt 1 + sum(q nu) must be positive")


def _layout(site: Site) -> Layout:
    """The site's children encoded once, with the centre c = sum (1+nu) p w
    of an accessible site taken once: the rows w - c over nd pd wd."""
    exact = site.arith.exact
    (P,), pd = linalg.numerators([[c.prob for c in site.children]], exact)
    (Nu,), nd = linalg.numerators([[c.nu for c in site.children]], exact)
    (De,), dd = linalg.numerators([[c.delta for c in site.children]], exact)
    W, wd = linalg.numerators([c.w for c in site.children], exact)
    T = [nu + nd for nu in Nu]
    mass = [t * p for t, p in zip(T, P)]
    Y, yd = W, wd
    if site.accessible:
        c = [sum((f * w[i] for f, w in zip(mass, W)), 0) for i in range(site.dim)]
        Y, yd = [[x * (nd * pd) - m for x, m in zip(w, c)] for w in W], nd * pd * wd
    return Layout(P, pd, W, wd, Nu, T, nd, mass, De, dd, Y, yd)


def _value(num: Num, den: Num, exact: bool) -> Num:
    """num/den: a Fraction in exact mode, num itself (over 1) in float mode."""
    return Fraction(num, den) if exact else num


def _ratio(num: Num, den: Num, exact: bool) -> tuple[Num, Num]:
    """num/den as a pair, divided out (over 1) in float mode as the plain formula divides."""
    return (num, den) if exact else (num / den, 1)


def _floor(lay: Layout) -> Num:
    """The tilt floor's numerator over nd: the least T of a charged child."""
    return min(t for t, p in zip(lay.T, lay.P) if p > 0)


def tilt_floor(site: Site) -> Num:
    """The site's u: minimum of 1 + nu over charged children."""
    return _value(_floor(site.layout), site.layout.nd, site.arith.exact)


def _gram(weights, rows, dim: int):
    """sum of weight * y y^T over the rows y, one weight per row."""
    return [[sum((f * y[i] * y[j] for f, y in zip(weights, rows)), 0) for j in range(dim)]
            for i in range(dim)]


def _jumps(site: Site, xi: Sequence[Num]):
    """(J, jd): every child's deflator jump xi.(w - c), as numerators J
    over one denominator jd."""
    (X,), xd = linalg.numerators([xi], site.arith.exact)
    lay = site.layout
    return [linalg.dot(X, y) for y in lay.Y], xd * lay.yd


def _within_growth_bound(G, xi, v, u, arith: Arithmetic) -> bool:
    """u |xi|_G <= |v|_G, compared without square roots, for the integer
    matrix G (its own positive denominator cancels) and xi, v and u given as
    (numerators, den) pairs: u^2 xi.G xi <= v.G v cross-multiplied."""
    (X, xd), (Y, yd), (un, ud) = xi, v, u
    lhs = un * un * yd * yd * linalg.dot(X, linalg.mat_vec(G, X))
    rhs = ud * ud * xd * xd * linalg.dot(Y, linalg.mat_vec(G, Y))
    return lhs <= rhs or arith.negligible(lhs - rhs, max(1, abs(rhs)))


# ---------------------------------------------------------------------------
# the site solve


def solve_site(site: Site) -> SiteSolve:
    """Deflator-jump integrand xi at a site of either flavor, with the
    site's whole certificate: the coercivity check at the tilt floor, the
    minimum-norm solve of transpose(xi) M = transpose(r), then the jump rows
    of xi.  A degenerate site, M zero at its own scale, is feasible exactly
    when r = 0 (the insider counterexample returns its residual); its
    coercivity is recorded, not required.  In float mode a non-finite entry
    of M, G_F or r raises OverflowError: the site is out of float range.

    M, G_F and r are integer matrices over known denominators, built on the
    site's ``Layout``; coercivity is the PSD test of nd Gd M - u Md G_F.
    The growth bound |xi|_G <= |v|_G / u and the site equation M xi = r
    are re-verified on the solves' numerators, cross-multiplied.
    """
    arith, dim, lay = site.arith, site.dim, site.layout
    exact, nd = arith.exact, lay.nd
    for t, p in zip(lay.T, lay.P):
        if p > 0 and t < 0:
            raise NegativeTilt(f"charged child has tilt {_value(t, nd, exact)} < 0: "
                               "no conditional density")
    M, Md = _gram(lay.mass, lay.Y, dim), nd * lay.pd * lay.yd * lay.yd
    G, Gd = _gram(lay.P, lay.W, dim), lay.pd * lay.wd * lay.wd
    drift = [p * (de * nd + nu * lay.dd) for p, de, nu in zip(lay.P, lay.De, lay.Nu)]
    r = [sum((f * w[i] for f, w in zip(drift, lay.W)), 0) for i in range(dim)]
    rd = lay.pd * lay.dd * nd * lay.wd
    if not exact and not all(map(math.isfinite, [*r, *chain(*M), *chain(*G)])):
        raise OverflowError("site is out of float range")
    un, zero = _floor(lay), (0,) * dim  # the tilt floor u = un/nd
    # The size float quantities of the site are compared at (exact mode ignores it).
    scale = 1 if exact else max(map(abs, chain([1], *lay.W, lay.Nu, lay.De)))
    coercive = linalg.is_psd([[a * nd * Gd - un * b * Md for a, b in zip(ra, rb)]
                              for ra, rb in zip(M, G)], arith)
    if linalg.vec_is_zero(chain(*M), arith, linalg.matrix_scale(M)):
        # Degenerate site: nothing to invert.  Solvable only for zero drift.
        if linalg.vec_is_zero(r, arith, scale):
            return SiteSolve(zero, True, zero, None, coercive, check_jump_bound(site, zero))
        return SiteSolve(zero, False, tuple(_value(x, rd, exact) for x in r), None, coercive)
    u = _value(un, nd, exact)
    if not un > 0:
        raise CoercivityFailure(f"tilt floor {u} is not positive: "
                                "the site equation is not coercive")
    if not coercive:
        raise CoercivityFailure("tilted form fails the coercivity inequality on V")
    x, _, xd = linalg.lstsq_min_norm(M, r, arith)
    y, _, yd = linalg.lstsq_min_norm(G, r, arith)
    # xi = x Md / (xd rd) and v = y Gd / (yd rd) solve M xi = r and G_F v = r.
    X, Xd = [a * Md for a in x], xd * rd
    if not _within_growth_bound(G, (X, Xd), ([a * Gd for a in y], yd * rd), (un, nd), arith):
        raise CoercivityFailure("site solve exceeded its growth bound")
    # The solve must satisfy the site equation, M^T x = xd r; anything else is a bug.
    check = [linalg.dot(col, x) - xd * b for col, b in zip(zip(*M), r)]
    if not linalg.vec_is_zero(check, arith, scale):
        raise AssertionError("site solve missed the site equation")
    xi = tuple(_value(a, Xd, exact) for a in X)
    return SiteSolve(xi, True, zero, u, True, check_jump_bound(site, xi))


# ---------------------------------------------------------------------------
# checks


def check_jump_bound(site: Site, xi: Sequence[Num]) -> tuple[JumpBoundRow, ...]:
    """Per-child jump identities and the strict bound (jump < 1).

    The jump on a child is xi.(w - c), J/jd on the layout.  Accessible
    sites must satisfy, on every charged child, (jump - 1)(1 + nu) p =
    (delta - 1) p with jump < 1; inaccessible sites (c = 0) the closed form
    jump = (delta + nu)/(1 + nu) < 1 on charged children with nonzero w.
    Returns one row per child checked; the bound holds when every row is ok.
    """
    arith, lay = site.arith, site.layout
    exact, nd, dd = arith.exact, lay.nd, lay.dd
    J, jd = _jumps(site, xi)
    rows = []
    for idx, (p, t, nu, de, j) in enumerate(zip(lay.P, lay.T, lay.Nu, lay.De, J)):
        if not p > 0:
            continue
        if site.accessible:
            lhs, rhs = ((j - jd) * t * p, jd * nd * lay.pd), ((de - dd) * p, dd * lay.pd)
        elif all(map(arith.is_zero, lay.W[idx])) or arith.is_zero(t):
            continue  # no jump, or zero expanded mass: nothing to bound
        else:
            lhs, rhs = (j, jd), _ratio(de * nd + nu * dd, dd * t, exact)
        ok = arith.eq(lhs[0] * rhs[1], rhs[0] * lhs[1]) and j < jd
        rows.append(JumpBoundRow(idx, _value(j, jd, exact), _value(*lhs, exact),
                                 _value(*rhs, exact), ok))
    return tuple(rows)


def energy_bound(site: Site, xi: Sequence[Num], u: Num | None = None):
    """Tilted energy of the solved jump against the drift's energy over u,
    the site's tilt floor unless given.

    Returns (ok, left, right) where left is the tilted second moment of the
    deflator jump and right is (1/u) times the second moment of delta + nu.
    """
    arith, lay = site.arith, site.layout
    exact, nd, dd = arith.exact, lay.nd, lay.dd
    [[un]], ud = ([[_floor(lay)]], nd) if u is None else linalg.numerators([[u]], exact)
    if not un > 0:
        raise KernelError("energy bound needs a positive floor u")
    J, jd = _jumps(site, xi)
    left = sum((m * j * j for m, j in zip(lay.mass, J)), 0), nd * lay.pd * jd * jd
    right = sum((p * (de * nd + nu * dd) ** 2 for p, de, nu in zip(lay.P, lay.De, lay.Nu)), 0)
    right = _ratio(right * ud, lay.pd * (dd * nd) ** 2 * un, exact)
    lhs, rhs = left[0] * right[1], right[0] * left[1]
    ok = lhs <= rhs or arith.negligible(lhs - rhs, max(1, abs(right[0])))
    return ok, _value(*left, exact), _value(*right, exact)


def verify_density(site: Site) -> bool:
    """Existence of the implied expanded-observer conditional law.

    Accessible: tilts 1 + nu are nonnegative on charged children and the
    tilted masses (1 + nu) p sum to one.  Inaccessible: the normalized
    densities (1 + nu) q / (1 + sum q nu) are nonnegative and sum to one;
    the site's invariants keep 1 + sum q nu positive.
    """
    arith, lay = site.arith, site.layout
    if any(t < 0 for t, p in zip(lay.T, lay.P) if p > 0):
        return False
    one = lay.nd * lay.pd  # 1, over nd pd
    if site.accessible:
        return arith.eq(sum(lay.mass), one)
    den = one + linalg.dot(lay.P, lay.Nu)
    # In float mode each density is divided out, as the plain formula divides.
    return sum(lay.mass) == den if arith.exact else arith.eq(sum(m / den for m in lay.mass), 1)


def site_checks(site: Site, solve: SiteSolve):
    """The kernel's pass rule on a solved site: returns (passed, checks).

    ``checks`` holds, in report order, the density and coercivity checks,
    and for a feasible solve the jump bound, the jumps and (at a positive
    tilt floor) the energy bound.  A site passes when its solve is feasible
    and every check holds.  A float value out of range raises OverflowError
    rather than reach a report.
    """
    checks = {"density": verify_density(site), "coercivity-at-floor": solve.coercive}
    numbers = [*solve.solution, *solve.residual]
    jump_ok = energy_ok = True
    if solve.feasible:
        checks["jump-bound"] = jump_ok = all(r.ok for r in solve.rows)
        checks["jumps"] = [r.jump for r in solve.rows]
        numbers += checks["jumps"]
        if _floor(site.layout) > 0:
            energy_ok, left, right = energy_bound(site, solve.solution)
            checks["energy"] = {"ok": energy_ok, "left": left, "right": right}
            numbers += [left, right]
    if not site.arith.exact and not all(map(math.isfinite, numbers)):
        raise OverflowError("site is out of float range")
    passed = (solve.feasible and checks["density"] and solve.coercive
              and jump_ok and energy_ok)
    return passed, checks
