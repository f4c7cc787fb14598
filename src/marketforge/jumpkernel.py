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
about the centre c = ``centre(site)``: the tilted mean sum (1+nu) p w at an
accessible site, zero at an inaccessible one.  Every deflator jump is read
as xi.(w - c); only the per-child identity of ``check_jump_bound`` and its
skip rule differ by flavor.

``solve_site`` recovers the integrand xi of the deflator's jump equation
transpose(xi) M = r.  The equation is coercive when M - u G_F is positive
semidefinite for the tilt floor u > 0; after that certificate one
minimum-norm solve of the symmetric system M xi = r gives xi.  The solve
runs on integers: the children are encoded once, as numerators over one
denominator per quantity (``Layout``), M, G_F and r are integer matrices
over known denominators, and ``linalg`` eliminates them fraction free.
The growth bound and the equation itself are then re-verified on the
decoded values, and the jump rows of ``check_jump_bound`` on the children,
so the record, ``SiteSolve``, is checked in the numbers it reports.  It
also carries the coercivity check (decided once, at a degenerate site too).
``site_checks`` is the kernel's one pass rule, for the ``kernel`` command
and the selftest alike; ``tests/reference.py`` keeps the paper's
generalized-inverse recipe, ``restricted_inverse``, as the oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class Site:
    """One jump site; ``accessible`` is its flavor, read from the site data.

    Invariants: probabilities sum to 1 and delta < 1 on charged children
    (structure-martingale jumps stay below one).  At an accessible site the
    driver jump is centered and the tilt averages to zero under the child
    law; at an inaccessible one the aggregate tilt 1 + sum q nu is positive.
    """

    dim: int
    children: tuple[SiteChild, ...]
    accessible: bool
    arith: Arithmetic = EXACT

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
        arith = self.arith
        if not arith.eq(sum((c.prob for c in self.children), 0), 1):
            raise KernelError("child probabilities must sum to 1")
        for c in self.children:
            if c.prob > 0 and not c.delta < 1:
                raise KernelError("delta must stay below 1 on charged children")
        mean_tilt = sum((c.prob * c.nu for c in self.children), 0)
        if self.accessible:
            for j in range(self.dim):
                total = sum((c.prob * c.w[j] for c in self.children), 0)
                if not arith.is_zero(total):
                    raise KernelError("driver jump must be centered at an accessible site")
            if not arith.is_zero(mean_tilt):
                raise KernelError("tilt must average to zero at an accessible site")
        elif not 1 + mean_tilt > 0:
            raise KernelError("aggregate tilt 1 + sum(q nu) must be positive")


def charged(site) -> list[SiteChild]:
    return [c for c in site.children if c.prob > 0]


def tilt_floor(site) -> Num:
    """The site's u: minimum of 1 + nu over charged children."""
    return min(1 + c.nu for c in charged(site))


def _site_scale(site) -> Num:
    return max(map(abs, chain([1], *([*c.w, c.nu, c.delta] for c in site.children))))


def _within_growth_bound(G, x, v, eps, arith: Arithmetic) -> bool:
    """|x|_G <= (1/eps)|v|_G, compared without square roots."""
    lhs = eps * eps * linalg.dot(x, linalg.mat_vec(G, x))
    vGv = linalg.dot(v, linalg.mat_vec(G, v))
    return lhs <= vGv or arith.negligible(lhs - vGv, max(1, abs(vGv)))


# ---------------------------------------------------------------------------
# the site on integers


# A site's children as numerators over one denominator per quantity (floats
# over 1): p P/pd, rows w W/wd, nu Nu/nd, 1 + nu T/nd, (1 + nu) p mass/(nd pd),
# delta De/dd and the centred rows w - c Y/yd.
Layout = namedtuple("Layout", "P pd W wd Nu T nd mass De dd Y yd")


def _layout(site: Site) -> Layout:
    """The site's children encoded once, with the centre c = sum (1+nu) p w
    of an accessible site taken once: the rows w - c over nd pd wd."""
    exact = site.arith.exact
    P, pd = _vector([c.prob for c in site.children], exact)
    Nu, nd = _vector([c.nu for c in site.children], exact)
    De, dd = _vector([c.delta for c in site.children], exact)
    W, wd = linalg.numerators([c.w for c in site.children], exact)
    T = [nu + nd for nu in Nu]
    mass = [t * p for t, p in zip(T, P)]
    Y, yd = W, wd
    if site.accessible:
        c = [sum((f * w[i] for f, w in zip(mass, W)), 0) for i in range(site.dim)]
        Y, yd = [[x * (nd * pd) - m for x, m in zip(w, c)] for w in W], nd * pd * wd
    return Layout(P, pd, W, wd, Nu, T, nd, mass, De, dd, Y, yd)


def _vector(values, exact: bool):
    """(numerators, den) of one number vector."""
    (v,), den = linalg.numerators([values], exact)
    return v, den


def _value(num: Num, den: Num, exact: bool) -> Num:
    """num/den: a Fraction in exact mode, num itself (over 1) in float mode."""
    return Fraction(num, den) if exact else num


def _gram(weights, rows, dim: int):
    """sum of weight * y y^T over the rows y, one weight per row."""
    return [[sum((f * y[i] * y[j] for f, y in zip(weights, rows)), 0) for j in range(dim)]
            for i in range(dim)]


def centre(site: Site) -> list[Num]:
    """Centre c of the driver jump under the tilted law: the tilted mean
    sum (1+nu) p w at an accessible site, zero at an inaccessible one."""
    if not site.accessible:
        return [0] * site.dim
    return [sum(((1 + c.nu) * c.prob * c.w[i] for c in site.children), 0)
            for i in range(site.dim)]


def _jump(xi, child: SiteChild, origin) -> Num:
    """The deflator jump xi.(w - origin) on one child."""
    return sum((x * (w - m) for x, w, m in zip(xi, child.w, origin)), 0)


# ---------------------------------------------------------------------------
# the site solve


def solve_site(site: Site) -> SiteSolve:
    """Deflator-jump integrand xi at a site of either flavor, with the
    site's whole certificate: the coercivity check at the tilt floor, the
    minimum-norm solve of transpose(xi) M = transpose(r), then the jump rows
    of xi.  A degenerate zero-Gram site is feasible exactly when r = 0 (the
    insider counterexample returns its residual); its coercivity is
    recorded, not required.  In float mode a non-finite entry of M, G_F or
    r raises OverflowError: the site is out of float range.

    M, G_F and r are integer matrices over known denominators, built on the
    site's ``Layout``; coercivity is the PSD test of nd Gd M - u Md G_F.
    The growth bound and the site equation are re-verified on the decoded
    values, and the jump rows on the children themselves.
    """
    for c in charged(site):
        if 1 + c.nu < 0:
            raise NegativeTilt(f"charged child has tilt {1 + c.nu} < 0: no conditional density")
    arith, dim, lay = site.arith, site.dim, _layout(site)
    exact, nd = arith.exact, lay.nd
    M, Md = _gram(lay.mass, lay.Y, dim), nd * lay.pd * lay.yd * lay.yd
    G, Gd = _gram(lay.P, lay.W, dim), lay.pd * lay.wd * lay.wd
    drift = [p * (de * nd + nu * lay.dd) for p, de, nu in zip(lay.P, lay.De, lay.Nu)]
    r = [sum((f * w[i] for f, w in zip(drift, lay.W)), 0) for i in range(dim)]
    rd = lay.pd * lay.dd * nd * lay.wd
    if not exact and not all(map(math.isfinite, [*r, *chain(*M), *chain(*G)])):
        raise OverflowError("site is out of float range")
    un = min(t for t, p in zip(lay.T, lay.P) if p > 0)  # the tilt floor u, over nd
    u, scale, zero = _value(un, nd, exact), _site_scale(site), (0,) * dim
    coercive = linalg.is_psd([[a * nd * Gd - un * b * Md for a, b in zip(ra, rb)]
                              for ra, rb in zip(M, G)], arith)
    if all(arith.negligible(x, scale) for row in M for x in row):
        # Degenerate site: nothing to invert.  Solvable only for zero drift.
        if linalg.vec_is_zero(r, arith, scale):
            return SiteSolve(zero, True, zero, None, coercive, check_jump_bound(site, zero))
        return SiteSolve(zero, False, tuple(_value(x, rd, exact) for x in r), None, coercive)
    if not u > 0:
        raise CoercivityFailure(f"tilt floor {u} is not positive: "
                                "the site equation is not coercive")
    if not coercive:
        raise CoercivityFailure("tilted form fails the coercivity inequality on V")
    # M x = r and G_F y = r over 1 give xi = x Md / (xd rd), v = y Gd / (yd rd).
    x, _, xd = linalg.lstsq_min_norm(M, r, arith)
    y, _, yd = linalg.lstsq_min_norm(G, r, arith)
    xi = [_value(a * Md, xd * rd, exact) for a in x]
    v = [_value(a * Gd, yd * rd, exact) for a in y]
    M, G = ([[_value(a, den, exact) for a in row] for row in A] for A, den in ((M, Md), (G, Gd)))
    if not _within_growth_bound(G, xi, v, u, arith):
        raise CoercivityFailure("site solve exceeded its growth bound")
    # The solve must satisfy the original site equation; anything else is a bug.
    check = [linalg.dot(col, xi) - _value(b, rd, exact) for col, b in zip(zip(*M), r)]
    if not linalg.vec_is_zero(check, arith, scale):
        raise AssertionError("site solve missed the site equation")
    xi = tuple(xi)
    return SiteSolve(xi, True, zero, u, True, check_jump_bound(site, xi))


# ---------------------------------------------------------------------------
# checks


def check_jump_bound(site: Site, xi: Sequence[Num]) -> tuple[JumpBoundRow, ...]:
    """Per-child jump identities and the strict bound (jump < 1).

    The jump on a child is xi.(w - c) with c = centre(site).  Accessible
    sites must satisfy, on every charged child, (jump - 1)(1 + nu) p =
    (delta - 1) p with jump < 1; inaccessible sites (c = 0) the closed form
    jump = (delta + nu)/(1 + nu) < 1 on charged children with nonzero w.
    Returns one row per child checked; the bound holds when every row is ok.
    """
    arith = site.arith
    rows = []
    c0 = centre(site)
    for idx, c in enumerate(site.children):
        if not c.prob > 0:
            continue
        jump = _jump(xi, c, c0)
        if site.accessible:
            lhs, rhs = (jump - 1) * (1 + c.nu) * c.prob, (c.delta - 1) * c.prob
        elif all(arith.is_zero(w) for w in c.w) or arith.is_zero(1 + c.nu):
            continue  # no jump, or zero expanded mass: nothing to bound
        else:
            lhs, rhs = jump, (c.delta + c.nu) / (1 + c.nu)
        rows.append(JumpBoundRow(idx, jump, lhs, rhs, arith.eq(lhs, rhs) and jump < 1))
    return tuple(rows)


def energy_bound(site: Site, xi: Sequence[Num], u: Num):
    """Tilted energy of the solved jump against the drift's energy over u.

    Returns (ok, left, right) where left is the tilted second moment of the
    deflator jump and right is (1/u) times the second moment of delta + nu.
    """
    if not u > 0:
        raise KernelError("energy bound needs a positive floor u")
    arith = site.arith
    left = right = 0
    c0 = centre(site)
    for c in site.children:
        jump = _jump(xi, c, c0)
        left += (1 + c.nu) * c.prob * jump * jump
        right += c.prob * (c.delta + c.nu) ** 2
    right = right / u
    ok = left <= right or arith.negligible(left - right, max(1, abs(right)))
    return ok, left, right


def verify_density(site: Site) -> bool:
    """Existence of the implied expanded-observer conditional law.

    Accessible: tilts 1 + nu are nonnegative on charged children and the
    tilted masses (1 + nu) p sum to one.  Inaccessible: the normalized
    densities (1 + nu) q / (1 + sum q nu) are nonnegative and sum to one.
    """
    arith = site.arith
    if any(1 + c.nu < 0 for c in charged(site)):
        return False
    if site.accessible:
        total = sum(((1 + c.nu) * c.prob for c in site.children), 0)
        return arith.eq(total, 1)
    denom = 1 + sum((c.prob * c.nu for c in site.children), 0)
    if not denom > 0:
        return False
    total = sum(((1 + c.nu) * c.prob / denom for c in site.children), 0)
    return arith.eq(total, 1)


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
        u = tilt_floor(site)
        if u > 0:
            energy_ok, left, right = energy_bound(site, solve.solution, u)
            checks["energy"] = {"ok": energy_ok, "left": left, "right": right}
            numbers += [left, right]
    if not site.arith.exact and not all(map(math.isfinite, numbers)):
        raise OverflowError("site is out of float range")
    passed = (solve.feasible and checks["density"] and solve.coercive
              and jump_ok and energy_ok)
    return passed, checks
