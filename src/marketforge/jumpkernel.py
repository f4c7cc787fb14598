"""Local jump-site algebra: Gram matrices, the site solve, jump bounds.

A jump site is the one-step law of a driver jump seen from just before the
jump: children (the possible post-jump atoms) with probabilities, driver
jump vectors w, the drift-carrier tilt nu and the structure-martingale jump
delta.  Two flavors exist:

* accessible sites sit at predictable times, so the driver jump is centered
  (sum p w = 0) and the carrier tilt averages out (sum p nu = 0);
* inaccessible sites carry no centering; instead the aggregate tilt
  1 + sum q nu must be positive for the implied conditional law to exist.

The solvers recover the integrand xi of the deflator's jump equation
transpose(xi) M = r on the site.  The equation is coercive when
M - u G_F is positive semidefinite for the tilt floor u > 0; after that
certificate one minimum-norm solve of the symmetric system M xi = r gives
xi, and the solution is re-verified against the growth bound and the
equation itself.  ``restricted_inverse`` keeps the paper's
generalized-inverse recipe on the column space of the base Gram as the
reference that tests compare the direct solve against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .arith import EXACT, Arithmetic, Num


class KernelError(ValueError):
    """Malformed site data or operator inputs."""


class CoercivityFailure(Exception):
    """The tilted Gram fails to dominate eps times the base Gram on V."""


class SingularOnV(Exception):
    """The operator J does not act invertibly inside the column space V."""


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
class PsdSolve:
    """Outcome of a site solve: xi, feasibility, residual, recorded eps."""

    solution: tuple[Num, ...]
    feasible: bool
    residual: tuple[Num, ...]
    coercivity: Num | None


@dataclass(frozen=True, eq=False)
class AccessibleSite:
    """Site at a predictable jump time.

    Invariants: probabilities sum to 1; the driver jump is centered and the
    tilt averages to zero under the child law; delta < 1 on charged
    children (structure-martingale jumps stay below one).
    """

    dim: int
    children: tuple[SiteChild, ...]
    arith: Arithmetic = EXACT

    def __post_init__(self) -> None:
        _validate_common(self)
        arith = self.arith
        for j in range(self.dim):
            total = sum((c.prob * c.w[j] for c in self.children), 0)
            if not arith.is_zero(total):
                raise KernelError("driver jump must be centered at an accessible site")
        if not arith.is_zero(sum((c.prob * c.nu for c in self.children), 0)):
            raise KernelError("tilt must average to zero at an accessible site")

    @property
    def accessible(self) -> bool:
        return True


@dataclass(frozen=True, eq=False)
class InaccessibleSite:
    """Site at a totally inaccessible jump time: no centering, positive
    aggregate tilt 1 + sum q nu."""

    dim: int
    children: tuple[SiteChild, ...]
    arith: Arithmetic = EXACT

    def __post_init__(self) -> None:
        _validate_common(self)
        total_tilt = 1 + sum((c.prob * c.nu for c in self.children), 0)
        if not total_tilt > 0:
            raise KernelError("aggregate tilt 1 + sum(q nu) must be positive")

    @property
    def accessible(self) -> bool:
        return False


Site = AccessibleSite | InaccessibleSite


def _validate_common(site) -> None:
    if site.dim < 0:
        raise KernelError("site dimension must be nonnegative")
    if not site.children:
        raise KernelError("site needs at least one child")
    for c in site.children:
        if len(c.w) != site.dim:
            raise KernelError("child jump vector has the wrong dimension")
        if c.prob < 0:
            raise KernelError("child probabilities must be nonnegative")
    if not site.arith.eq(sum((c.prob for c in site.children), 0), 1):
        raise KernelError("child probabilities must sum to 1")
    for c in site.children:
        if c.prob > 0 and not c.delta < 1:
            raise KernelError("delta must stay below 1 on charged children")


def charged(site) -> list[SiteChild]:
    return [c for c in site.children if c.prob > 0]


def tilt_floor(site) -> Num:
    """The site's u: minimum of 1 + nu over charged children."""
    return min(1 + c.nu for c in charged(site))


def _site_scale(site) -> Num:
    vals = [1]
    for c in site.children:
        vals.extend(abs(x) for x in c.w)
        vals.append(abs(c.nu))
        vals.append(abs(c.delta))
    return max(vals)


# ---------------------------------------------------------------------------
# generalized-inverse machinery


def restricted_inverse(G, J, v: Sequence[Num], eps: Num,
                       arith: Arithmetic = EXACT) -> PsdSolve:
    """Invert J on the column space V of G and apply it to the projection of v.

    Hypotheses checked: G and GJ symmetric PSD; J maps V into itself
    (SingularOnV otherwise); (x|GJx) >= eps (x|Gx) for x in V, tested as
    positive semidefiniteness of the difference form in a basis of V
    (CoercivityFailure otherwise).  The G-norm growth bound
    |J* p_G v|_G <= (1/eps) |v|_G is re-verified on the result.
    """
    if not eps > 0:
        raise KernelError("coercivity constant must be positive")
    if not linalg.is_symmetric(G, arith) or not linalg.is_psd(G, arith):
        raise KernelError("G must be symmetric positive semidefinite")
    d = len(G)
    GJ = linalg.mat_mul(G, J)
    if not linalg.is_symmetric(GJ, arith) or not linalg.is_psd(GJ, arith):
        raise KernelError("GJ must be symmetric positive semidefinite")
    cols = linalg.independent_columns(G, arith)
    if not cols:
        return PsdSolve((0,) * d, True, (0,) * d, eps)
    B = [[row[c] for c in cols] for row in G]  # d x r basis of V
    Bt = linalg.transpose(B)
    scale = linalg.matrix_scale(J) * linalg.matrix_scale(B)
    JB = linalg.mat_mul(J, B)
    for j in range(len(cols)):
        col = [JB[i][j] for i in range(d)]
        resid = linalg.vec_add(col, linalg.project_columns(B, col, arith), sign=-1)
        if not linalg.vec_is_zero(resid, arith, scale):
            raise SingularOnV("J maps the column space outside itself")
    # Coercivity of the pair on V, expressed in the basis B.
    M = linalg.mat_add(GJ, linalg.mat_scale(G, eps), sign=-1)
    C = linalg.mat_mul(Bt, linalg.mat_mul(M, B))
    if not linalg.is_psd(C, arith):
        raise CoercivityFailure("tilted form fails the coercivity inequality on V")
    BtB = linalg.mat_mul(Bt, B)
    a = linalg.solve_pd(BtB, linalg.mat_vec(Bt, list(v)), arith)
    E = [linalg.solve_pd(BtB, linalg.mat_vec(Bt, [JB[i][j] for i in range(d)]), arith)
         for j in range(len(cols))]
    E = linalg.transpose(E)  # coordinates of J restricted to V
    try:
        c = linalg.solve_pd(E, a, arith)
    except linalg.LinalgError:
        raise SingularOnV("J restricted to the column space is singular") from None
    x = linalg.mat_vec(B, c)
    if not _within_growth_bound(G, x, list(v), eps, arith):
        raise CoercivityFailure("restricted inverse exceeded its growth bound")
    return PsdSolve(tuple(x), True, (0,) * d, eps)


def _within_growth_bound(G, x, v, eps, arith: Arithmetic) -> bool:
    """|x|_G <= (1/eps)|v|_G, compared without square roots."""
    lhs = eps * eps * linalg.dot(x, linalg.mat_vec(G, x))
    vGv = linalg.dot(v, linalg.mat_vec(G, v))
    return lhs <= vGv or arith.negligible(lhs - vGv, max(1, abs(vGv)))


def _coercive(M, G, u, arith: Arithmetic) -> bool:
    """The coercivity certificate: M - u G is positive semidefinite."""
    return linalg.is_psd(linalg.mat_add(M, linalg.mat_scale(G, u), sign=-1), arith)


# ---------------------------------------------------------------------------
# site Gram matrices and right-hand sides


def gram_F(site: Site):
    """Base Gram of the driver jump: sum of prob * w w^T over children."""
    G = [[0] * site.dim for _ in range(site.dim)]
    for c in site.children:
        for i in range(site.dim):
            for j in range(site.dim):
                G[i][j] += c.prob * c.w[i] * c.w[j]
    return G


def _check_tilt(site) -> None:
    for c in charged(site):
        if 1 + c.nu < 0:
            raise NegativeTilt(
                f"charged child has tilt {1 + c.nu} < 0: no conditional density"
            )


def tilted_mean(site: AccessibleSite) -> list[Num]:
    """The tilted child mean of the driver jump: sum (1+nu) p w."""
    wbar = [0] * site.dim
    for c in site.children:
        for i in range(site.dim):
            wbar[i] += (1 + c.nu) * c.prob * c.w[i]
    return wbar


def gram_G_accessible(site: AccessibleSite, validate_tilt: bool = True):
    """Expanded-flow Gram at an accessible site.

    With the tilted mean wbar = sum (1+nu) p w, returns
    sum (1+nu) p (w - wbar)(w - wbar)^T: the conditional covariance of the
    compensated driver jump under the tilted (expanded-observer) law.
    """
    if not isinstance(site, AccessibleSite):
        raise KernelError("accessible Gram needs an accessible site")
    if validate_tilt:
        _check_tilt(site)
    wbar = tilted_mean(site)
    M = [[0] * site.dim for _ in range(site.dim)]
    for c in site.children:
        centered = [c.w[i] - wbar[i] for i in range(site.dim)]
        f = (1 + c.nu) * c.prob
        for i in range(site.dim):
            for j in range(site.dim):
                M[i][j] += f * centered[i] * centered[j]
    return M


def gram_G_inaccessible(site: InaccessibleSite, validate_tilt: bool = True):
    """Expanded-flow (scaled) Gram at an inaccessible site: sum (1+nu) q w w^T."""
    if not isinstance(site, InaccessibleSite):
        raise KernelError("inaccessible Gram needs an inaccessible site")
    if validate_tilt:
        _check_tilt(site)
    M = [[0] * site.dim for _ in range(site.dim)]
    for c in site.children:
        f = (1 + c.nu) * c.prob
        for i in range(site.dim):
            for j in range(site.dim):
                M[i][j] += f * c.w[i] * c.w[j]
    return M


def site_rhs(site: Site) -> list[Num]:
    """Right-hand side of the site equation: sum prob (delta + nu) w."""
    r = [0] * site.dim
    for c in site.children:
        f = c.prob * (c.delta + c.nu)
        for i in range(site.dim):
            r[i] += f * c.w[i]
    return r


# ---------------------------------------------------------------------------
# solvers


def _xi_solve(site: Site, M, eps) -> PsdSolve:
    arith = site.arith
    r = site_rhs(site)
    scale = _site_scale(site)
    if all(arith.negligible(x, scale) for row in M for x in row):
        # Degenerate site: nothing to invert.  Solvable only for zero drift.
        if linalg.vec_is_zero(r, arith, scale):
            return PsdSolve((0,) * site.dim, True, (0,) * site.dim, eps)
        return PsdSolve((0,) * site.dim, False, tuple(r), None)
    u = tilt_floor(site)
    if eps is None:
        eps = u
    if not eps > 0:
        raise CoercivityFailure(
            f"tilt floor {u} is not positive: the site equation is not coercive"
        )
    G = gram_F(site)
    if not _coercive(M, G, eps, arith):
        raise CoercivityFailure("tilted form fails the coercivity inequality on V")
    xi, _ = linalg.lstsq_min_norm(M, r, arith)
    v, _ = linalg.lstsq_min_norm(G, r, arith)
    if not _within_growth_bound(G, xi, v, eps, arith):
        raise CoercivityFailure("site solve exceeded its growth bound")
    # The solve must satisfy the original site equation; anything else is a bug.
    check = linalg.vec_add(linalg.vec_mat(xi, M), r, sign=-1)
    if not linalg.vec_is_zero(check, arith, scale):
        raise AssertionError("site solve missed the site equation")
    return PsdSolve(tuple(xi), True, (0,) * site.dim, eps)


def xi_accessible(site: AccessibleSite, eps=None) -> PsdSolve:
    """Deflator-jump integrand at an accessible site.

    Solves transpose(xi) M = transpose(r) for M the accessible expanded
    Gram and r the site right-hand side: the coercivity certificate at the
    tilt floor, then the minimum-norm solve of M xi = r.  Degenerate
    zero-Gram sites are feasible exactly when r = 0 (the insider
    counterexample returns its residual).
    """
    M = gram_G_accessible(site)
    return _xi_solve(site, M, eps)


def xi_inaccessible(site: InaccessibleSite, eps=None) -> PsdSolve:
    """Deflator-jump integrand at an inaccessible site (same recipe)."""
    M = gram_G_inaccessible(site)
    return _xi_solve(site, M, eps)


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class JumpBoundRow:
    """Per-child record: the realized deflator jump and its admissibility."""

    index: int
    jump: Num
    identity_lhs: Num
    identity_rhs: Num
    ok: bool


def check_jump_bound(site: Site, xi: Sequence[Num]):
    """Per-child jump identities and the strict bound (jump < 1).

    Accessible sites must satisfy, on every charged child,
    (xi.(w - wbar) - 1)(1 + nu) p = (delta - 1) p with xi.(w - wbar) < 1;
    inaccessible sites the closed form xi.w = (delta + nu)/(1 + nu) < 1 on
    charged children with nonzero jump.  Returns (all_ok, rows).
    """
    arith = site.arith
    rows = []
    ok_all = True
    if site.accessible:
        wbar = tilted_mean(site)
        for idx, c in enumerate(site.children):
            if not c.prob > 0:
                continue
            jump = sum((x * (w - m) for x, w, m in zip(xi, c.w, wbar)), 0)
            lhs = (jump - 1) * (1 + c.nu) * c.prob
            rhs = (c.delta - 1) * c.prob
            ok = arith.eq(lhs, rhs) and jump < 1
            rows.append(JumpBoundRow(idx, jump, lhs, rhs, ok))
            ok_all = ok_all and ok
    else:
        for idx, c in enumerate(site.children):
            if not c.prob > 0:
                continue
            jump = sum((x * w for x, w in zip(xi, c.w)), 0)
            if all(arith.is_zero(w) for w in c.w):
                continue  # no jump: nothing to bound
            if arith.is_zero(1 + c.nu):
                continue  # zero expanded mass: the closed form is vacuous
            expected = (c.delta + c.nu) / (1 + c.nu)
            ok = arith.eq(jump, expected) and jump < 1
            rows.append(JumpBoundRow(idx, jump, jump, expected, ok))
            ok_all = ok_all and ok
    return ok_all, tuple(rows)


def check_coercivity(site: Site, u: Num) -> bool:
    """Quadratic-form domination of the base Gram by the expanded Gram.

    Accessible: gram_G_accessible - u gram_F is PSD; inaccessible the same
    with the scaled Gram.  Never raises: a negative-tilt site simply fails.
    """
    if site.accessible:
        M = gram_G_accessible(site, validate_tilt=False)
    else:
        M = gram_G_inaccessible(site, validate_tilt=False)
    return _coercive(M, gram_F(site), u, site.arith)


def energy_bound(site: Site, xi: Sequence[Num], u: Num):
    """Tilted energy of the solved jump against the drift's energy over u.

    Returns (ok, left, right) where left is the tilted second moment of the
    deflator jump and right is (1/u) times the second moment of delta + nu.
    """
    if not u > 0:
        raise KernelError("energy bound needs a positive floor u")
    arith = site.arith
    left = 0
    right = 0
    wbar = tilted_mean(site) if site.accessible else [0] * site.dim
    for c in site.children:
        jump = sum((x * (w - m) for x, w, m in zip(xi, c.w, wbar)), 0)
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
