"""Reference implementations the tests check the engine against.

None of this runs on a command-line path; each piece is kept because a test
compares an engine result with it, computed along an independent route, or
builds test data with it.

* ``discrete``, ``members``, ``by_level_sets``, ``from_values``,
  ``shift``, ``expectation``, ``predictable`` and ``is_predictable``
  build and inspect test models: the finest partition, the outcome
  indices of each atom, the level sets of a labelling, a process from a
  formula, a shifted process, a plain expectation, a predictable process
  from a per-atom table (``Process.adapted`` on the flow lagged by one
  step, with any time-0 value), and predictability (adaptedness to the
  lagged flow).

* ``rref``, ``rank``, ``solve_pd``, ``lstsq_min_norm`` and ``is_psd`` are
  the linear algebra the engine ran before ``linalg`` eliminated fraction
  free on integers: Gauss-Jordan elimination on the numbers themselves,
  Fractions in exact mode, and an LDL^T loop of its own for ``is_psd``.
  They are the oracle of the integer core (``test_linalg_core``).
* ``restricted_inverse`` (with ``pinv_psd`` and the helpers only it needs)
  is the paper's generalized-inverse recipe for the site equation: invert
  J = G^+ M on the column space of the base Gram G.  The engine solves the
  same equation by one minimum-norm solve of M xi = r; the site batteries
  assert both give the same xi.  ``gram_F``, ``gram_G`` and ``site_rhs``
  build its inputs from a site's children in Fractions, as ``jumpkernel``
  did before it built them as integer matrices.
* ``solve_site``, ``check_jump_bound``, ``energy_bound``,
  ``verify_density``, ``tilt_floor`` and ``validate_site`` (with
  ``centre`` and ``within_growth_bound``) are the site solve's record and
  checks computed on the children's numbers, Fractions in exact mode, as
  ``jumpkernel`` ran them before it cross-multiplied numerators on the
  site's layout.  They are the oracle of ``test_site_numerators``.
* ``represent`` recovers the predictable integrand k with
  transpose(k) dW = dX, atom by atom.  It is the oracle behind
  ``mrp.check_mrp``: a driver has the representation property exactly
  when every martingale can be represented against it.
* ``product_with_independent`` and the ``lift_*`` helpers bolt an
  independent, never-observed noise experiment onto a model; an
  enlargement by that noise must leave every verdict and deflator as it
  was.
* ``verify_g_compensator`` is the two-term formula for expanded-flow
  compensators through the gauge, checked against ``compensator`` on G.
* ``wealth`` is the self-financing wealth x + (H . S), for the
  deflated-wealth martingale property.
* ``load_weights`` and ``load_process`` are the scenario loader's
  per-cell route: every weight and every cell read on its own, in order,
  and the cells then grouped by value in ``by_values``, as
  ``Process.from_paths`` did before the loader grouped raw tokens.  The
  loader must build the same weights and layers and fail with the same
  message on the same field.
* ``delta``, ``increments``, ``accumulate``, ``cond_exp``, ``zip_with``,
  ``min_tilt`` and ``stoch_exp`` are the per-cell kernels the engine
  had before it stored processes atom by atom: one operation per
  (outcome, time) cell, in outcome order, read through
  ``column``/``columns`` (a process as one value per outcome).  They are
  the differential oracle for the atom-major kernels.  ``cond_exp`` groups
  the outcomes into child atoms itself and averages over those, and
  ``summed`` is the sum every float oracle takes, as the engine's one
  summation rule does (``math.fsum`` of floats).
* ``Rows``, ``by_row``/``by_column`` and the ``row_*`` kernels are the
  layer kernels the engine ran before it stored each layer by column: the
  same (partition, cells, den) layers held one value vector per atom, and
  every kernel made one tuple and one Python operation per cell (products
  through per-cell lambdas, which ``contraction`` rebuilds from index
  pairs).  They are the oracle of ``test_column_kernels``.
* ``meet_by_outcomes``, ``masses_by_outcomes``, ``children_by_outcomes``
  and ``transitions_by_outcomes`` group the outcomes themselves, as
  ``Partition.meet`` did before the flows registered their parent maps
  and masses were summed over members: the oracles of the tree index
  (``test_tree_index``).
* ``value_key`` keys number vectors by value from ``Fraction``s, as the
  engine's solve memos did before every key was read off a layer or, for
  a transition's child probabilities, off integer masses.  It is the
  oracle of ``Process.value_keys`` and ``Filtration.transition_keys``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain

from marketforge import linalg
from marketforge.arith import EXACT, Arithmetic
from marketforge.calculus import compensator, integrate, is_martingale, pred_bracket
from marketforge.jumpkernel import (
    CoercivityFailure,
    JumpBoundRow,
    KernelError,
    NegativeTilt,
    SiteSolve,
)
from marketforge.mrp import Driver
from marketforge.scenario import ScenarioError, _field, _num
from marketforge.space import (
    Filtration,
    Partition,
    Process,
    SampleSpace,
    SpaceError,
    _cell_key,
    first_mismatch,
    is_adapted,
)

# ---------------------------------------------------------------------------
# constructors and predicates only the tests use


def discrete(space: SampleSpace) -> Partition:
    """The partition into single outcomes."""
    return Partition.from_atoms(space, [[o] for o in space.outcomes])


def members(part: Partition) -> tuple:
    """The outcome indices of each atom."""
    return tuple(tuple(map(part.space.index, atom)) for atom in part.atoms)


def by_level_sets(space: SampleSpace, values) -> Partition:
    """Group outcomes by equal values of a (hashable) labelling."""
    if len(values) != space.size:
        raise SpaceError("labelling must have one value per outcome")
    groups: dict = {}
    for o, v in zip(space.outcomes, values):
        groups.setdefault(v, []).append(o)
    return Partition.from_atoms(space, groups.values())


def from_values(space: SampleSpace, fn, horizon: int, dim: int = 1) -> Process:
    """Process from fn(outcome, t) returning a scalar or a length-dim vector."""
    X = Process.from_paths(space, [[fn(o, t) for t in range(horizon + 1)]
                                   for o in space.outcomes])
    if X.dim != dim:
        raise SpaceError("value dimension mismatch")
    return X


def shift(X: Process, c) -> Process:
    """X plus a constant (scalar or vector) at every cell."""
    v0 = tuple(c) if isinstance(c, (tuple, list)) else (c,) * X.dim
    return X + Process.constant(X.space, X.horizon, v0)


def expectation(space: SampleSpace, values):
    """Plain expectation of a random variable given as a parallel sequence."""
    if len(values) != space.size:
        raise SpaceError("random variable must have one value per outcome")
    return sum((w * v for w, v in zip(space.weights, values)), 0)


def predictable(filtration: Filtration, table, dim: int = 1, initial=None) -> Process:
    """The process whose time-t value is ``table[(t, k)]`` on the time-(t-1)
    atom k and whose time-0 value is ``initial`` (zero if None) on every
    time-0 atom: ``Process.adapted`` on the flow lagged by one step."""
    parts = filtration.partitions
    start = {(0, k): (0,) * dim if initial is None else initial for k in range(parts[0].size)}
    return Process.adapted(Filtration(filtration.space, parts[:1] + parts[:-1]),
                           {**table, **start}, dim)


def is_predictable(X: Process, filtration: Filtration) -> bool:
    """Deterministic at time 0 and time-(t-1) measurable at t: adapted to
    the flow lagged by one step, with the trivial partition at time 0."""
    lagged = (filtration.space.trivial,) + filtration.partitions[:-1]
    return is_adapted(X, Filtration(filtration.space, lagged))


# ---------------------------------------------------------------------------
# the Fraction Gauss-Jordan oracle of ``linalg``, and helpers of the
# generalized-inverse reference


def zeros(n: int) -> list:
    return [0] * n


def transpose(A) -> list:
    return [list(col) for col in zip(*A)] if A else []


def vec_mat(v, A) -> list:
    """Row vector times matrix."""
    return linalg.mat_vec(transpose(A), v)


def mat_add(A, B, sign: int = 1) -> list:
    return [[a + sign * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c) -> list:
    return [[c * x for x in row] for row in A]


def vec_add(u, v, sign: int = 1) -> list:
    return [a + sign * b for a, b in zip(u, v)]


def vec_scale(u, c) -> list:
    return [c * x for x in u]


def outer(u, v):
    return [[a * b for b in v] for a in u]


def mat_mul(A, B):
    Bt = transpose(B)
    return [[linalg.dot(row, col) for col in Bt] for row in A]


def decoded(v, den, arith: Arithmetic = EXACT) -> list:
    """Numerators over den, as ``linalg`` returns them, as numbers."""
    return [Fraction(x, den) for x in v] if arith.exact else list(v)


def rref(A, arith: Arithmetic, scale=None):
    """Reduced row echelon form by Gauss-Jordan elimination on the numbers
    themselves, Fractions in exact mode.  Returns (R, pivot_columns).

    Partial pivoting by largest absolute value; deterministic in both modes.
    """
    R = [list(row) for row in A]
    m = len(R)
    n = len(R[0]) if m else 0
    if scale is None:
        scale = linalg.matrix_scale(R)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        best = max(range(r, m), key=lambda i: abs(R[i][c]))
        if arith.negligible(R[best][c], scale):
            continue
        R[r], R[best] = R[best], R[r]
        piv = R[r][c]
        R[r] = [x / piv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A, arith: Arithmetic) -> int:
    if not A or not A[0]:
        return 0
    return len(rref(A, arith)[1])


def _null_basis(R, pivots, n: int) -> list:
    """Null-space basis of the first n columns read off a reduced form R."""
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = zeros(n)
        v[f] = 1
        for row_idx, p in enumerate(pivots):
            v[p] = -R[row_idx][f]
        basis.append(v)
    return basis


def solve_pd(M, b, arith: Arithmetic) -> list:
    """Solve M x = b for symmetric positive definite M (raises if singular)."""
    n = len(M)
    R, pivots = rref([list(row) + [rhs] for row, rhs in zip(M, b)], arith)
    if len(pivots) != n or pivots != list(range(n)):
        raise linalg.LinalgError("solve_pd: matrix is singular")
    return [R[i][n] for i in range(n)]


def fit_columns(A, cols, v, arith: Arithmetic) -> list:
    """The coordinates y that make C y, for the independent columns
    C = A[:, cols], the orthogonal projection of v onto their span."""
    Ct = [[row[c] for row in A] for c in cols]
    return solve_pd([[linalg.dot(u, w) for w in Ct] for u in Ct], linalg.mat_vec(Ct, v), arith)


def lstsq_min_norm(A, b, arith: Arithmetic):
    """Minimum-norm least-squares solution of A x = b: (x, residual), with
    residual = b - A x.  One elimination of [A | b] gives a particular
    solution and the null space of A; when b falls outside the column
    space the pivot columns are fitted to its projection instead."""
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m:
        raise linalg.LinalgError("lstsq_min_norm: shape mismatch")
    if n == 0:
        return [], list(b)
    R, pivots = rref([list(row) + [rhs] for row, rhs in zip(A, b)], arith,
                     scale=linalg.matrix_scale(A))
    if pivots and pivots[-1] == n:
        pivots = pivots[:-1]
        y = fit_columns(A, pivots, b, EXACT)
    else:
        y = [R[i][n] for i in range(len(pivots))]
    x = zeros(n)
    for p, value in zip(pivots, y):
        x[p] = value
    N = _null_basis(R, pivots, n)
    if N and not linalg.vec_is_zero(x, arith):
        G = [[linalg.dot(u, v) for v in N] for u in N]
        coeffs = solve_pd(G, [linalg.dot(u, x) for u in N], EXACT)
        for u, a in zip(N, coeffs):
            x = vec_add(x, vec_scale(u, a), sign=-1)
    return x, vec_add(b, linalg.mat_vec(A, x), sign=-1)


def is_psd(A, arith: Arithmetic) -> bool:
    """Positive semidefiniteness of a symmetric matrix via an LDL^T
    elimination pivoted on the largest diagonal entry."""
    n = len(A)
    M = [list(row) for row in A]
    scale = linalg.matrix_scale(M)
    for k in range(n):
        p = max(range(k, n), key=lambda i: M[i][i])
        if M[p][p] < 0 and not arith.negligible(M[p][p], scale):
            return False
        if arith.negligible(M[p][p], scale):
            # Largest remaining diagonal is zero: the whole block must vanish.
            return all(arith.negligible(M[i][j], scale)
                       for i in range(k, n) for j in range(k, n))
        if p != k:
            M[k], M[p] = M[p], M[k]
            for row in M:
                row[k], row[p] = row[p], row[k]
        piv = M[k][k]
        for i in range(k + 1, n):
            if M[i][k] != 0:
                f = M[i][k] / piv
                for j in range(k, n):
                    M[i][j] -= f * M[k][j]
    return True


def is_symmetric(A, arith: Arithmetic) -> bool:
    n = len(A)
    if any(len(row) != n for row in A):
        return False
    scale = linalg.matrix_scale(A)
    return all(
        arith.negligible(A[i][j] - A[j][i], scale)
        for i in range(n)
        for j in range(i + 1, n)
    )


def null_space(A, arith: Arithmetic):
    """Basis of the solution space of A x = 0, one vector per free column."""
    if not A:
        return []
    R, pivots = rref(A, arith)
    return _null_basis(R, pivots, len(A[0]))


def independent_columns(A, arith: Arithmetic) -> list[int]:
    """Indices of a maximal independent set of columns (RREF pivot columns)."""
    if not A or not A[0]:
        return []
    _, pivots = rref(A, arith)
    return pivots


def project_columns(A, v, arith: Arithmetic):
    """Orthogonal projection of v onto the column space of A."""
    cols = independent_columns(A, arith)
    if not cols:
        return zeros(len(v))
    C = [[row[c] for c in cols] for row in A]
    return linalg.mat_vec(C, fit_columns(A, cols, v, arith))


def pinv_psd(G, arith: Arithmetic):
    """Moore-Penrose inverse of a symmetric PSD matrix.

    Built from a column-space basis B as B (B' G B)^-1 B', which satisfies
    all four Penrose identities for symmetric G.
    """
    n = len(G)
    cols = independent_columns(G, arith)
    if not cols:
        return [[0] * n for _ in range(n)]
    B = [[row[c] for c in cols] for row in G]
    Bt = transpose(B)
    H = mat_mul(Bt, mat_mul(G, B))
    Hinv_cols = [solve_pd(H, [1 if i == j else 0 for i in range(len(cols))], arith)
                 for j in range(len(cols))]
    Hinv = transpose(Hinv_cols)
    return mat_mul(B, mat_mul(Hinv, Bt))


# ---------------------------------------------------------------------------
# generalized-inverse site solve


def _gram(site, weight, origin):
    """sum of weight(child) (w - origin)(w - origin)^T over children."""
    G = [[0] * site.dim for _ in range(site.dim)]
    for c in site.children:
        f = weight(c)
        w = [x - m for x, m in zip(c.w, origin)]
        for i in range(site.dim):
            for j in range(site.dim):
                G[i][j] += f * w[i] * w[j]
    return G


def gram_F(site):
    """Base Gram of the driver jump: sum of prob * w w^T over children."""
    return _gram(site, lambda c: c.prob, [0] * site.dim)


def gram_G(site):
    """Expanded-flow Gram: sum (1+nu) p (w - c)(w - c)^T with c = centre(site)."""
    return _gram(site, lambda c: (1 + c.nu) * c.prob, centre(site))


def site_rhs(site) -> list:
    """Right-hand side of the site equation: sum prob (delta + nu) w."""
    r = [0] * site.dim
    for c in site.children:
        f = c.prob * (c.delta + c.nu)
        for i in range(site.dim):
            r[i] += f * c.w[i]
    return r


class SingularOnV(Exception):
    """The operator J does not act invertibly inside the column space V."""


@dataclass(frozen=True)
class RestrictedSolve:
    """xi from ``restricted_inverse``, with the coercivity constant it used."""

    solution: tuple
    feasible: bool
    coercivity: object


def restricted_inverse(G, J, v, eps, arith: Arithmetic = EXACT) -> RestrictedSolve:
    """Invert J on the column space V of G and apply it to the projection of v.

    Hypotheses checked: G and GJ symmetric PSD; J maps V into itself
    (SingularOnV otherwise); (x|GJx) >= eps (x|Gx) for x in V, tested as
    positive semidefiniteness of the difference form in a basis of V
    (CoercivityFailure otherwise).  The G-norm growth bound
    |J* p_G v|_G <= (1/eps) |v|_G is re-verified on the result.
    """
    if not eps > 0:
        raise KernelError("coercivity constant must be positive")
    if not is_symmetric(G, arith) or not is_psd(G, arith):
        raise KernelError("G must be symmetric positive semidefinite")
    d = len(G)
    GJ = mat_mul(G, J)
    if not is_symmetric(GJ, arith) or not is_psd(GJ, arith):
        raise KernelError("GJ must be symmetric positive semidefinite")
    cols = independent_columns(G, arith)
    if not cols:
        return RestrictedSolve((0,) * d, True, eps)
    B = [[row[c] for c in cols] for row in G]  # d x r basis of V
    Bt = transpose(B)
    scale = linalg.matrix_scale(J) * linalg.matrix_scale(B)
    JB = mat_mul(J, B)
    for j in range(len(cols)):
        col = [JB[i][j] for i in range(d)]
        resid = vec_add(col, project_columns(B, col, arith), sign=-1)
        if not linalg.vec_is_zero(resid, arith, scale):
            raise SingularOnV("J maps the column space outside itself")
    # Coercivity of the pair on V, expressed in the basis B.
    M = mat_add(GJ, mat_scale(G, eps), sign=-1)
    C = mat_mul(Bt, mat_mul(M, B))
    if not is_psd(C, arith):
        raise CoercivityFailure("tilted form fails the coercivity inequality on V")
    BtB = mat_mul(Bt, B)
    a = solve_pd(BtB, linalg.mat_vec(Bt, list(v)), arith)
    E = [solve_pd(BtB, linalg.mat_vec(Bt, [JB[i][j] for i in range(d)]), arith)
         for j in range(len(cols))]
    E = transpose(E)  # coordinates of J restricted to V
    try:
        c = solve_pd(E, a, arith)
    except linalg.LinalgError:
        raise SingularOnV("J restricted to the column space is singular") from None
    x = linalg.mat_vec(B, c)
    if not within_growth_bound(G, x, list(v), eps, arith):
        raise CoercivityFailure("restricted inverse exceeded its growth bound")
    return RestrictedSolve(tuple(x), True, eps)


# ---------------------------------------------------------------------------
# the site solve and its checks on the children's numbers


def validate_site(dim: int, children, accessible: bool, arith: Arithmetic = EXACT) -> None:
    """``Site``'s invariants on the children's numbers: raises KernelError
    with the engine's message on the first one that fails."""
    if dim < 0:
        raise KernelError("site dimension must be nonnegative")
    if not children:
        raise KernelError("site needs at least one child")
    for c in children:
        if len(c.w) != dim:
            raise KernelError("child jump vector has the wrong dimension")
        if c.prob < 0:
            raise KernelError("child probabilities must be nonnegative")
    if not arith.eq(sum((c.prob for c in children), 0), 1):
        raise KernelError("child probabilities must sum to 1")
    for c in children:
        if c.prob > 0 and not c.delta < 1:
            raise KernelError("delta must stay below 1 on charged children")
    mean_tilt = sum((c.prob * c.nu for c in children), 0)
    if accessible:
        for j in range(dim):
            total = sum((c.prob * c.w[j] for c in children), 0)
            if not arith.is_zero(total):
                raise KernelError("driver jump must be centered at an accessible site")
        if not arith.is_zero(mean_tilt):
            raise KernelError("tilt must average to zero at an accessible site")
    elif not 1 + mean_tilt > 0:
        raise KernelError("aggregate tilt 1 + sum(q nu) must be positive")


def charged(site) -> list:
    return [c for c in site.children if c.prob > 0]


def tilt_floor(site):
    """The site's u: minimum of 1 + nu over charged children."""
    return min(1 + c.nu for c in charged(site))


def site_scale(site):
    """max(1, |w|, |nu|, |delta|) over the children."""
    return max(map(abs, chain([1], *([*c.w, c.nu, c.delta] for c in site.children))))


def centre(site) -> list:
    """Centre c of the driver jump under the tilted law: the tilted mean
    sum (1+nu) p w at an accessible site, zero at an inaccessible one."""
    if not site.accessible:
        return [0] * site.dim
    return [sum(((1 + c.nu) * c.prob * c.w[i] for c in site.children), 0)
            for i in range(site.dim)]


def _jump(xi, child, origin):
    """The deflator jump xi.(w - origin) on one child."""
    return sum((x * (w - m) for x, w, m in zip(xi, child.w, origin)), 0)


def within_growth_bound(G, x, v, eps, arith: Arithmetic) -> bool:
    """|x|_G <= (1/eps)|v|_G, compared without square roots."""
    lhs = eps * eps * linalg.dot(x, linalg.mat_vec(G, x))
    vGv = linalg.dot(v, linalg.mat_vec(G, v))
    return lhs <= vGv or arith.negligible(lhs - vGv, max(1, abs(vGv)))


def check_jump_bound(site, xi) -> tuple:
    """Per-child jump identities and the strict bound (jump < 1), on the
    children's numbers: (jump - 1)(1 + nu) p = (delta - 1) p on every
    charged child of an accessible site, jump = (delta + nu)/(1 + nu) on
    the charged children with nonzero w and 1 + nu of an inaccessible one."""
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
            continue
        else:
            lhs, rhs = jump, (c.delta + c.nu) / (1 + c.nu)
        rows.append(JumpBoundRow(idx, jump, lhs, rhs, arith.eq(lhs, rhs) and jump < 1))
    return tuple(rows)


def energy_bound(site, xi, u):
    """(ok, left, right): the tilted second moment of the deflator jump
    against (1/u) times the second moment of delta + nu."""
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


def verify_density(site) -> bool:
    """Tilts nonnegative on charged children, and the tilted masses
    (1 + nu) p (accessible) or the densities (1 + nu) q / (1 + sum q nu)
    (inaccessible) summing to one."""
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


def solve_site(site) -> SiteSolve:
    """``jumpkernel.solve_site`` on the children's numbers: the Grams and r
    of ``gram_G``, ``gram_F`` and ``site_rhs``, coercivity as this module's
    ``is_psd`` of M - u G_F, the elimination of this module, and the growth
    bound and the site equation checked on the solved values."""
    arith, dim = site.arith, site.dim
    for c in charged(site):
        if 1 + c.nu < 0:
            raise NegativeTilt(f"charged child has tilt {1 + c.nu} < 0: no conditional density")
    M, G, r = gram_G(site), gram_F(site), site_rhs(site)
    if not arith.exact and not all(map(math.isfinite, [*r, *chain(*M), *chain(*G)])):
        raise OverflowError("site is out of float range")
    u, scale, zero = tilt_floor(site), site_scale(site), (0,) * dim
    coercive = is_psd(mat_add(M, mat_scale(G, u), sign=-1), arith)
    if all(arith.negligible(x, linalg.matrix_scale(M)) for row in M for x in row):
        if linalg.vec_is_zero(r, arith, scale):
            return SiteSolve(zero, True, zero, None, coercive, check_jump_bound(site, zero))
        return SiteSolve(zero, False, tuple(r), None, coercive)
    if not u > 0:
        raise CoercivityFailure(f"tilt floor {u} is not positive: "
                                "the site equation is not coercive")
    if not coercive:
        raise CoercivityFailure("tilted form fails the coercivity inequality on V")
    xi, _ = lstsq_min_norm(M, r, arith)
    v, _ = lstsq_min_norm(G, r, arith)
    if not within_growth_bound(G, xi, v, u, arith):
        raise CoercivityFailure("site solve exceeded its growth bound")
    check = [linalg.dot(col, xi) - b for col, b in zip(zip(*M), r)]
    if not linalg.vec_is_zero(check, arith, scale):
        raise AssertionError("site solve missed the site equation")
    xi = tuple(xi)
    return SiteSolve(xi, True, zero, u, True, check_jump_bound(site, xi))


# ---------------------------------------------------------------------------
# martingale representation


class NotRepresentable(Exception):
    """A martingale increment outside the driver's span, with its witness."""

    def __init__(self, t: int, atom: tuple[str, ...], residual):
        self.t = t
        self.atom = atom
        self.residual = residual
        super().__init__(
            f"increment at time {t} on atom {atom} is off the driver span "
            f"(residual {residual})"
        )


@dataclass(frozen=True, eq=False)
class RepresentationCoefficients:
    """Predictable integrands k with transpose(k_t) dW_t = dX_t.

    ``kbar`` holds a (d x target_dim) matrix per cell, flattened row by row;
    its stochastic integral against the driver reproduces X - X_0.
    """

    driver: Driver
    kbar: Process
    target_dim: int

    def integral(self) -> Process:
        """Running sums of transpose(kbar_t) dW_t, one column per target
        component, cell by cell."""
        W, k = self.driver.W, self.target_dim
        rows = range(self.driver.d)
        steps = [[tuple(sum((h[r * k + c] * dw[r] for r in rows), 0) for c in range(k))
                  for h, dw in zip(column(self.kbar, t), dW)]
                 for t, dW in enumerate(increments(W), 1)]
        return accumulate(W.space, steps, k)


def represent(X: Process, driver: Driver) -> RepresentationCoefficients:
    """Solve for predictable coefficients with transpose(k) dW = dX.

    X must be a martingale for the driver's filtration; X - X_0 is what gets
    represented.  Where the solve is underdetermined the minimum-norm
    solution on the row space of the child-increment matrix is taken.
    Raises NotRepresentable with the first (time, atom) witness when an
    increment falls outside the span of the driver's child increments.
    """
    F = driver.filtration
    witness = is_martingale(X, F)
    if witness is not None:
        raise SpaceError(f"representation target is not a martingale: {witness}")
    arith = X.space.arith
    d = driver.d
    k = X.dim
    values: dict[tuple[int, int], tuple] = {}
    for t in range(1, F.horizon + 1):
        for atom_idx, children in enumerate(F.transitions(t)):
            atom, kids = F.at(t - 1).atoms[atom_idx], F.at(t).atoms
            V = [list(delta(driver.W, kids[c][0], t)) for c, _ in children]
            dX = [delta(X, kids[c][0], t) for c, _ in children]
            flat = [0] * (d * k)
            for i, y in enumerate(zip(*dX)):
                coeff, residual = lstsq_min_norm(V, y, arith)
                if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([y])):
                    res = residual[0] if len(residual) == 1 else tuple(residual)
                    raise NotRepresentable(t, atom, res)
                for e in range(d):
                    flat[e * k + i] = coeff[e]
            values[(t, atom_idx)] = tuple(flat)
    kbar = predictable(F, values, d * k)
    return RepresentationCoefficients(driver, kbar, k)


# ---------------------------------------------------------------------------
# independent noise on a product space


def product_with_independent(space: SampleSpace, labels, weights) -> SampleSpace:
    """Product of a space with an independent finite experiment.

    New outcomes are "<old>:<label>" with product weights, ordered old-major.
    """
    aux = SampleSpace(tuple(labels), tuple(weights), arith=space.arith)
    outcomes = []
    wts = []
    for o, w in zip(space.outcomes, space.weights):
        for l, v in zip(aux.outcomes, aux.weights):
            outcomes.append(f"{o}:{l}")
            wts.append(w * v)
    return SampleSpace(tuple(outcomes), tuple(wts), arith=space.arith)


def lift_to_product(product: SampleSpace, base: SampleSpace):
    """Map product outcomes back to their base outcome labels."""
    back = []
    for o in product.outcomes:
        stem, _, _ = o.rpartition(":")
        base.index(stem)
        back.append(stem)
    return back


def lift_filtration(F: Filtration, product: SampleSpace) -> Filtration:
    """View a base filtration on a product space (noise never observed)."""
    back = lift_to_product(product, F.space)
    parts = []
    for t in range(F.horizon + 1):
        base_part = F.at(t)
        parts.append(by_level_sets(product, [base_part.atom_index(b) for b in back]))
    return Filtration(product, tuple(parts))


def lift_process(X: Process, product: SampleSpace) -> Process:
    return Process.from_paths(product, [[X.at(b, t) for t in range(X.horizon + 1)]
                                        for b in lift_to_product(product, X.space)])


# ---------------------------------------------------------------------------
# expanded-flow compensators and wealth


def verify_g_compensator(A: Process, pair, gauge) -> bool:
    """Check the two-term formula for expanded-flow compensators.

    The compensator of an F-adapted A under G must be the F-compensator
    plus the drift of the compensated remainder, the latter expressed
    through the gauge as the integral of phi against the predictable
    covariation with N.  Exact equality in rational mode.
    """
    F, G = pair.base, pair.expanded
    comp_f = compensator(A, F)
    correction = integrate(gauge.phi, pred_bracket(gauge.N, A - comp_f, F))
    return first_mismatch(compensator(A, G), comp_f + correction) is None


def wealth(x, H: Process, market) -> Process:
    """Self-financing wealth x + (H . S) of the holding H in the market."""
    return shift(integrate(H, market.S), x)


# ---------------------------------------------------------------------------
# per-cell kernels: one operation per (outcome, time) cell


def _as_vector(v) -> tuple:
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def delta(X: Process, outcome: str, t: int) -> tuple:
    """Increment of one outcome at time t, one subtraction per component;
    by convention the time-0 increment vanishes."""
    if t == 0:
        return (0,) * X.dim
    return tuple(a - b for a, b in zip(X.at(outcome, t), X.at(outcome, t - 1)))


def column(X: Process, t: int) -> list:
    """X_t as one value vector per outcome, in outcome order."""
    return [X.at(o, t) for o in X.space.outcomes]


def columns(X: Process) -> list:
    """Every time's ``column``."""
    return [column(X, t) for t in range(X.horizon + 1)]


def increments(X: Process) -> list:
    """Increment columns: entry t - 1 holds dX_t = X_t - X_{t-1} for every
    outcome, one subtraction per cell."""
    cols = columns(X)
    return [[tuple(a - b for a, b in zip(u, v)) for u, v in zip(cols[t], cols[t - 1])]
            for t in range(1, X.horizon + 1)]


def accumulate(space, steps, dim) -> Process:
    """Running sums from 0 of increment columns, outcome by outcome."""
    levels = [tuple((0,) * dim for _ in space.outcomes)]
    for step in steps:
        levels.append(tuple(tuple(a + b for a, b in zip(level, inc))
                            for level, inc in zip(levels[-1], step)))
    return Process.from_paths(space, zip(*levels))


def summed(exact: bool):
    """The engine's sum of many terms: the built-in ``sum`` from 0 of exact
    numbers, the correctly rounded ``math.fsum`` of floats."""
    return sum if exact else math.fsum


def cond_exp(values, partition: Partition, space: SampleSpace, *cells: Partition) -> list:
    """Conditional expectation given a partition, on the child atoms: the
    values are constant on each atom of every partition in ``cells``, and
    a child is a nonempty intersection of an atom of ``partition`` with one
    atom of each.  On each atom the mean is the sum of mass(child) *
    value(child) over its children over the atom's mass (``summed``, each
    mass the ``summed`` weights of its outcomes); where every atom has one
    child, each keeps its value."""
    if len(values) != space.size:
        raise SpaceError("random variable must have one value per outcome")
    vectors = [_as_vector(v) for v in values]
    dim = len(vectors[0])
    if any(len(v) != dim for v in vectors):
        raise SpaceError("vector values must share one dimension")
    total, weights = summed(space.arith.exact), space.weights
    children: dict = {}
    for o in space.outcomes:
        key = (partition.atom_index(o), *(c.atom_index(o) for c in cells))
        children.setdefault(key, []).append(space.index(o))
    if len(children) == len(partition.atoms):
        return list(values)
    out: list = [None] * space.size
    for k, atom in enumerate(members(partition)):
        kids = [kid for key, kid in children.items() if key[0] == k]
        masses = [total(weights[i] for i in kid) for kid in kids]
        avg = tuple(total(m * vectors[kid[0]][j] for m, kid in zip(masses, kids))
                    / total(weights[i] for i in atom) for j in range(dim))
        for i in atom:
            out[i] = avg
    if not isinstance(values[0], (tuple, list)):
        return [v[0] for v in out]
    return out


def zip_with(X: Process, Y: Process, op) -> Process:
    """Cell-by-cell combination of two processes on one grid."""
    if X.space is not Y.space or X.horizon != Y.horizon:
        raise SpaceError("processes live on different grids")
    if X.dim != Y.dim:
        raise SpaceError("dimension mismatch")
    return Process.from_paths(X.space, zip(*(
        [tuple(op(a, b) for a, b in zip(u, v)) for u, v in zip(p, q)]
        for p, q in zip(columns(X), columns(Y)))))


def min_tilt(phi: Process, N: Process, base: Filtration) -> list:
    """The tilt floor min(1 + transpose(phi_t) dN_t) for t >= 1, one
    1-vector per outcome: the minimum over the outcomes of the outcome's
    time-(t-1) base atom, in outcome order; entry t - 1 holds time t."""
    space = N.space
    total = summed(space.arith.exact)
    return [[(min(1 + total(a * b for a, b in zip(phi.at(o, t), dN[space.index(x)]))
                  for x in base.at(t - 1).atom_of(o)),) for o in space.outcomes]
            for t, dN in enumerate(increments(N), 1)]


def stoch_exp(X: Process) -> Process:
    """Running product of (1 + dX_s), outcome by outcome, from 1."""
    arith = X.space.arith
    paths = []
    for o in X.space.outcomes:
        level = 1 * arith.parse(1)
        path = [(level,)]
        for t in range(1, X.horizon + 1):
            level = level * (1 + X.value(o, t) - X.value(o, t - 1))
            path.append((level,))
        paths.append(tuple(path))
    return Process.from_paths(X.space, paths)


# ---------------------------------------------------------------------------
# the per-cell loader


def load_weights(weights_doc: list, arith: Arithmetic) -> tuple:
    """A scenario's weights read one by one, in order."""
    return tuple(_num(v, f"space.weights[{i}]", arith) for i, v in enumerate(weights_doc))


def load_process(paths_doc, path: str, space: SampleSpace, arith: Arithmetic,
                 horizon: int | None = None) -> Process:
    """A scenario's list of paths read cell by cell, in outcome-major
    order: each path's shape, then each of its tokens (parsed once per
    distinct token), then ``by_values``."""
    if not isinstance(paths_doc, list) or len(paths_doc) != space.size:
        raise ScenarioError(path, f"expected one path per outcome ({space.size})")
    parsed = {}  # raw token key -> its number, for this call only

    def num(x, where):
        if isinstance(x, (list, dict)):
            return _num(x, where(), arith)  # never a number: fails with the path
        key = (type(x), repr(x) if isinstance(x, (float, Decimal)) else x)
        if key not in parsed:
            parsed[key] = _num(x, where(), arith)
        return parsed[key]

    paths = []
    for i, raw in enumerate(paths_doc):
        if not isinstance(raw, list) or len(raw) < 2:
            raise ScenarioError(f"{path}[{i}]", "expected a path with >= 2 times")
        if horizon is not None and len(raw) != horizon + 1:
            raise ScenarioError(f"{path}[{i}]",
                                f"expected {horizon + 1} time points")
        fixed = []
        for t, v in enumerate(raw):
            if isinstance(v, list):
                fixed.append(tuple(num(x, lambda: f"{path}[{i}][{t}][{j}]")
                                   for j, x in enumerate(v)))
            else:
                fixed.append((num(v, lambda: f"{path}[{i}][{t}]"),))
        paths.append(tuple(fixed))
    with _field(path):
        return by_values(space, paths)


def by_values(space: SampleSpace, paths) -> Process:
    """The process of per-outcome paths of number vectors, one time column
    at a time: exact cells as integer numerators over the column's lcm,
    grouped by those, float cells grouped as ``_cell_key`` keys them, each
    column's outcomes grouped by ``by_level_sets``."""
    if len(paths) != space.size:
        raise SpaceError("process needs one path per outcome")
    if len({len(v) for path in paths for v in path}) > 1:
        raise SpaceError("all value vectors must share one dimension")
    if len(set(map(len, paths))) > 1:
        raise SpaceError("all paths must share one horizon")
    layers = []
    for column in zip(*paths):
        if space.arith.exact:
            den = math.lcm(*(x.denominator for v in column for x in v))
            cells = [tuple(x.numerator * (den // x.denominator) for x in v) for v in column]
            keys = cells
        else:
            den, cells, keys = 1, column, [_cell_key(v) for v in column]
        part = by_level_sets(space, keys)
        layers.append((part, tuple(cells[m[0]] for m in members(part)), den))
    return Process(space, tuple(map(by_column, layers)))


# ---------------------------------------------------------------------------
# row-major layer kernels: one value vector per atom, one Python operation
# per cell


def by_row(layer) -> tuple:
    """A (partition, columns, den) layer as (partition, cells, den), one
    value vector per atom."""
    part, cols, den = layer
    return part, tuple(zip(*cols)) if cols else ((),) * len(part.atoms), den


def by_column(layer) -> tuple:
    """A (partition, cells, den) layer as (partition, columns, den), one
    tuple per value component."""
    part, cells, den = layer
    return part, tuple(zip(*cells)), den


@dataclass(frozen=True, eq=False)
class Rows:
    """A process as row-major layers (partition, cells, den)."""

    space: SampleSpace
    layers: tuple

    @classmethod
    def of(cls, X: Process) -> "Rows":
        return cls(X.space, tuple(map(by_row, X.layers)))

    def process(self) -> Process:
        return Process(self.space, tuple(map(by_column, self.layers)))

    @property
    def dim(self) -> int:
        return len(self.layers[0][1][0])

    @property
    def increments(self) -> "Rows":
        return Rows(self.space, tuple(row_componentwise(operator.sub, layer, self.layers[t - 1])
                                      if t else row_componentwise(operator.sub, layer, layer)
                                      for t, layer in enumerate(self.layers)))


def row_reduced(part: Partition, cells, den: int) -> tuple:
    if den != 1:
        g = math.gcd(den, *(a for v in cells for a in v))
        if g != 1:
            den //= g
            cells = row_scaled(cells, operator.floordiv, g)
    return part, tuple(cells), den


def row_scaled(cells, op, f) -> tuple:
    return tuple(tuple(op(a, f) for a in v) for v in cells)


def row_aligned(layers) -> tuple:
    part, cells, _ = layers[0]
    args = [cells]
    for other, other_cells, _ in layers[1:]:
        meet, mine, theirs = part.meet(other)
        if meet is not part:
            args = [[c[k] for k in mine] for c in args]
        args.append(other_cells if meet is other else [other_cells[k] for k in theirs])
        part = meet
    return part, args


def row_common(layers) -> tuple:
    part, args = row_aligned(layers)
    den = math.lcm(*(d for _, _, d in layers))
    for i, (_, _, d) in enumerate(layers):
        if d != den:
            args[i] = row_scaled(args[i], operator.mul, den // d)
    return part, args, den


def row_pointwise(op, *layers) -> tuple:
    """``op`` of the cells on each atom of the meet, over the lcm of the
    denominators (``op`` linear in the cells)."""
    part, args, den = row_common(layers)
    return row_reduced(part, tuple(map(op, *args)), den)


def row_componentwise(op, *layers) -> tuple:
    return row_pointwise(lambda *cells: tuple(map(op, *cells)), *layers)


def row_product(op, *layers) -> tuple:
    """``op`` of the cells on each atom of the meet, each operand over its
    own denominator (``op`` linear in each operand)."""
    part, args = row_aligned(layers)
    return row_reduced(part, tuple(map(op, *args)), math.prod(d for _, _, d in layers))


def contraction(terms, dot: bool, exact: bool):
    """The per-cell op of a ``space.product`` contraction: component c the
    sum of u[i] * v[j] over terms[c], ``summed`` with ``dot``, else added
    from the first in list order."""
    def op(u, v):
        if dot:
            return tuple(summed(exact)(u[i] * v[j] for i, j in pairs) for pairs in terms)
        out = []
        for pairs in terms:
            (i, j), *rest = pairs
            acc = u[i] * v[j]
            for i, j in rest:
                acc = acc + u[i] * v[j]
            out.append(acc)
        return tuple(out)
    return op


def row_atom_means(given: Partition, *layers, value=lambda v: v) -> tuple:
    """Means on the atoms of ``given`` over the child atoms (the meet with
    ``given``): the child's mass times ``value`` of its numerators, summed
    over each atom's children, atom by atom of the meet.  Exact mode uses
    integer masses and the lcm of the atoms' own; float mode the ``fsum``
    of each child's and each atom's member weights.  Where ``given``
    refines the meet, each atom keeps its one child's value."""
    part, args = row_aligned(layers)
    space = part.space
    meet, mine, theirs = part.meet(given)
    values = list(map(value, *args))
    den = math.prod(d for _, _, d in layers)
    if meet is given:
        return row_reduced(given, tuple(values[k] for k in mine), den)
    if not space.arith.exact:
        def mass(atom):
            return math.fsum(space.weights[i] for i in atom)
        terms = [[] for _ in given.atoms]
        for q, atom, p in zip(theirs, members(meet), mine):
            terms[q].append([mass(atom) * x for x in values[p]])
        return given, tuple(tuple(math.fsum(col) / mass(atom) for col in zip(*kids))
                            for kids, atom in zip(terms, members(given))), 1
    totals = given.integer_masses
    lcm = math.lcm(*totals)
    sums = [[0] * len(values[0]) for _ in totals]
    for q, n, p in zip(theirs, meet.integer_masses, mine):
        sums[q] = [s + n * x for s, x in zip(sums[q], values[p])]
    return row_reduced(given, tuple(tuple(s * (lcm // n) for s in v)
                                    for v, n in zip(sums, totals)), den * lcm)


def row_outer_means(given: Partition, a, b) -> tuple:
    return row_atom_means(given, a, b, value=lambda u, v: [x * y for x in u for y in v])


def row_accumulate(dX: Rows) -> Rows:
    part = dX.layers[0][0]
    layers = [(part, ((0,) * dX.dim,) * len(part.atoms), 1)]
    for layer in dX.layers[1:]:
        layers.append(row_componentwise(operator.add, layers[-1], layer))
    return Rows(dX.space, tuple(layers))


def row_sum_steps(op, dim: int, dX: Rows, Y: Rows) -> Rows:
    zero = (0,) * dim
    return row_accumulate(Rows(dX.space, tuple(
        row_product(op if t else lambda *_: zero, a, b)
        for t, (a, b) in enumerate(zip(dX.layers, Y.layers)))))


def row_centred(X: Rows) -> Rows:
    return Rows(X.space, tuple(row_componentwise(operator.sub, layer, X.layers[0])
                               for layer in X.layers))


def row_stoch_exp(X: Rows) -> Rows:
    arith = X.space.arith
    part = X.layers[0][0]
    one = (X.space.trivial, ((1,),), 1)
    layers = [row_encoded(part, ((1 * arith.parse(1),),) * len(part.atoms))]
    for t in range(1, len(X.layers)):
        factor = row_pointwise(lambda c, x, x0: (c[0] + x[0] - x0[0],),
                               one, X.layers[t], X.layers[t - 1])
        layers.append(row_product(lambda level, f: (level[0] * f[0],), layers[-1], factor))
    return Rows(X.space, tuple(layers))


def row_min_tilt(phi: Rows, N: Rows, base: Filtration, expanded: Filtration) -> tuple:
    parts = expanded.partitions
    layers = [(parts[0], ((1,),) * len(parts[0].atoms), 1)]
    first = None
    dN, total = N.increments, summed(phi.space.arith.exact)
    for t in range(1, len(parts)):
        part = parts[t - 1]
        p_part, p_cells, p_den = phi.layers[t]
        n_part, n_cells, n_den = dN.layers[t]
        den = p_den * n_den
        kids = base.at(t).atoms
        steps = [[n_cells[n_part.atom_index(kids[c][0])] for c, _ in children]
                 for children in base.transitions(t)]
        cells = []
        for k, (atom, a) in enumerate(zip(part.atoms, part.parents(base.at(t - 1)))):
            ph = p_cells[p_part.atom_index(atom[0])]
            u = min(den + total(x * y for x, y in zip(ph, dn)) for dn in steps[a])
            if first is None and not u > 0:
                first = (t, k)
            cells.append((u,))
        layers.append(row_reduced(part, tuple(cells), den))
    return Rows(phi.space, tuple(layers)), first


def row_is_adapted(X: Rows, filtration: Filtration) -> bool:
    eq = X.space.arith.eq
    for (part, cells, _), atoms in zip(X.layers, filtration.partitions):
        meet, mine, theirs = part.meet(atoms)
        first: dict = {}
        for p, q in zip(mine, theirs):
            if not all(map(eq, cells[p], first.setdefault(q, cells[p]))):
                return False
    return True


def row_first_mismatch(X: Rows, Y: Rows):
    """(i, t) of the first atom of the meet, in outcome-major order, where
    the two differ."""
    eq, misses = X.space.arith.eq, []
    for t, layers in enumerate(zip(X.layers, Y.layers)):
        part, (us, vs), _ = row_common(layers)
        misses += [(atom[0], t) for atom, u, v in zip(members(part), us, vs)
                   if not all(map(eq, u, v))]
    return min(misses, default=None)


def row_first_failing(X: Rows, test=None, start=None):
    misses = []
    for t, (part, cells, den) in enumerate(X.layers):
        check = (start or test) if t == 0 else test
        if check is not None:
            misses += [(atom[0], t) for atom, v in zip(members(part), cells) if not check(v, den)]
    return min(misses, default=None)


def row_extrema(X: Rows, start: int = 0):
    """(least, greatest) entry from time ``start`` on, compared as values;
    of equal ones the first in (time, component, atom) order."""
    exact = X.space.arith.exact
    values = [Fraction(a, den) if exact else a
              for _, cells, den in X.layers[start:] for col in zip(*cells) for a in col]
    return (min(values), max(values)) if values else None


def row_value_keys(X: Rows, t: int, atoms) -> tuple:
    part, cells, den = X.layers[t]
    exact = X.space.arith.exact
    out = []
    for atom in atoms:
        v = cells[part.atom_index(atom[0])]
        if not exact:
            out.append(_cell_key(v))
            continue
        g = math.gcd(den, *v)
        out.append((v, den) if g == 1 else (tuple(a // g for a in v), den // g))
    return tuple(out)


def value_key(arith: Arithmetic, *vectors) -> tuple:
    """Memo key of number vectors by value, as the engine keyed them from
    ``Fraction``s: an exact vector by its numerators over the lcm of its
    denominators, reduced by their gcd, a float one by ``_cell_key``.
    Vectors equal in value (and no others) share a key."""
    keys = []
    for v in map(tuple, vectors):
        if not arith.exact:
            keys.append(_cell_key(v))
            continue
        den = math.lcm(*(x.denominator for x in v))
        nums = tuple(x.numerator * (den // x.denominator) for x in v)
        g = math.gcd(den, *nums)
        keys.append((tuple(a // g for a in nums), den // g))
    return tuple(keys)


def row_encoded(part: Partition, cells) -> tuple:
    """Number cells as a row-major layer: exact numerators over the lcm."""
    if not part.space.arith.exact:
        return part, tuple(cells), 1
    den = math.lcm(*(x.denominator for v in cells for x in v))
    return part, tuple(tuple(x.numerator * (den // x.denominator) for x in v)
                       for v in cells), den


def row_refined(X: Rows, flow: Filtration) -> Rows:
    layers = []
    for (part, cells, den), atoms in zip(X.layers, flow.partitions):
        meet, mine, _ = part.meet(atoms)
        layers.append((meet, cells if meet is part else tuple(cells[k] for k in mine), den))
    return Rows(X.space, tuple(layers))


# ---------------------------------------------------------------------------
# the tree index by outcome grouping


def _atom_of(part: Partition) -> dict:
    return {label: k for k, atom in enumerate(part.atoms) for label in atom}


def meet_by_outcomes(a: Partition, b: Partition) -> tuple:
    """(atoms, mine, theirs) of the meet of two partitions, grouped outcome
    by outcome: the distinct (atom of a, atom of b) pairs in order of
    their first outcome, each with its outcomes in outcome order."""
    in_a, in_b = _atom_of(a), _atom_of(b)
    groups: dict = {}
    for o in a.space.outcomes:
        groups.setdefault((in_a[o], in_b[o]), []).append(o)
    return (tuple(map(tuple, groups.values())), tuple(k for k, _ in groups),
            tuple(j for _, j in groups))


def masses_by_outcomes(part: Partition) -> tuple:
    """Each atom's mass as the sum of its outcomes' weights (``summed``)."""
    total = summed(part.space.arith.exact)
    return tuple(total([part.space.weight(o) for o in atom]) for atom in part.atoms)


def children_by_outcomes(flow: Filtration, t: int) -> tuple:
    """The indices of each time-(t-1) atom's time-t children: the atoms
    whose outcomes it holds."""
    return tuple(tuple(c for c, child in enumerate(flow.at(t).atoms) if set(child) <= set(atom))
                 for atom in flow.at(t - 1).atoms)


def transitions_by_outcomes(flow: Filtration, t: int) -> list:
    """``Filtration.transitions(t)`` from ``children_by_outcomes`` and
    ``masses_by_outcomes``."""
    mass, parent_mass = masses_by_outcomes(flow.at(t)), masses_by_outcomes(flow.at(t - 1))
    return [[(c, mass[c] / parent_mass[k]) for c in kids]
            for k, kids in enumerate(children_by_outcomes(flow, t))]
