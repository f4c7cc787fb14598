"""Reference implementations the tests check the engine against.

None of this runs on a command-line path; each piece is kept because a test
compares an engine result with it, computed along an independent route, or
builds test data with it.

* ``discrete``, ``by_level_sets``, ``from_values``, ``shift``,
  ``expectation`` and ``is_predictable`` build and inspect test models:
  the finest partition, the level sets of a labelling, a process from a
  formula, a shifted process, a plain expectation, and predictability
  (adaptedness to the flow lagged by one step).

* ``restricted_inverse`` (with ``pinv_psd`` and the linear-algebra helpers
  only it needs) is the paper's generalized-inverse recipe for the site
  equation: invert J = G^+ M on the column space of the base Gram G.  The
  engine solves the same equation by one minimum-norm solve of M xi = r;
  the site batteries assert both give the same xi.
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
* ``delta``, ``increments``, ``accumulate``, ``cond_exp``, ``zip_with`` and
  ``stoch_exp`` are the per-cell kernels the engine had before it stored
  processes atom by atom: one operation per (outcome, time) cell, in
  outcome order, read through ``column``/``columns`` (a process as one
  value per outcome).  They are the differential oracle for the atom-major
  kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from marketforge import linalg
from marketforge.arith import EXACT, Arithmetic
from marketforge.calculus import compensator, integrate, is_martingale, pred_bracket
from marketforge.jumpkernel import CoercivityFailure, KernelError, _within_growth_bound
from marketforge.mrp import Driver
from marketforge.space import (
    Filtration,
    Partition,
    Process,
    SampleSpace,
    SpaceError,
    first_mismatch,
    is_adapted,
)

# ---------------------------------------------------------------------------
# constructors and predicates only the tests use


def discrete(space: SampleSpace) -> Partition:
    """The partition into single outcomes."""
    return Partition.from_atoms(space, [[o] for o in space.outcomes])


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


def is_predictable(X: Process, filtration: Filtration) -> bool:
    """Deterministic at time 0 and time-(t-1) measurable at t: adapted to
    the flow lagged by one step, with the trivial partition at time 0."""
    lagged = (Partition.trivial(filtration.space),) + filtration.partitions[:-1]
    return is_adapted(X, Filtration(filtration.space, lagged))


# ---------------------------------------------------------------------------
# linear algebra used only by the generalized-inverse reference


def outer(u, v):
    return [[a * b for b in v] for a in u]


def mat_mul(A, B):
    Bt = linalg.transpose(B)
    return [[linalg.dot(row, col) for col in Bt] for row in A]


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
    R, pivots = linalg.rref(A, arith)
    return linalg._null_basis(R, pivots, len(A[0]))


def independent_columns(A, arith: Arithmetic) -> list[int]:
    """Indices of a maximal independent set of columns (RREF pivot columns)."""
    if not A or not A[0]:
        return []
    _, pivots = linalg.rref(A, arith)
    return pivots


def project_columns(A, v, arith: Arithmetic):
    """Orthogonal projection of v onto the column space of A."""
    cols = independent_columns(A, arith)
    if not cols:
        return linalg.zeros(len(v))
    C = [[row[c] for c in cols] for row in A]
    return linalg.mat_vec(C, linalg._fit_columns(A, cols, v, arith))


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
    Bt = linalg.transpose(B)
    H = mat_mul(Bt, mat_mul(G, B))
    Hinv_cols = [linalg.solve_pd(H, [1 if i == j else 0 for i in range(len(cols))], arith)
                 for j in range(len(cols))]
    Hinv = linalg.transpose(Hinv_cols)
    return mat_mul(B, mat_mul(Hinv, Bt))


# ---------------------------------------------------------------------------
# generalized-inverse site solve


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
    if not is_symmetric(G, arith) or not linalg.is_psd(G, arith):
        raise KernelError("G must be symmetric positive semidefinite")
    d = len(G)
    GJ = mat_mul(G, J)
    if not is_symmetric(GJ, arith) or not linalg.is_psd(GJ, arith):
        raise KernelError("GJ must be symmetric positive semidefinite")
    cols = independent_columns(G, arith)
    if not cols:
        return RestrictedSolve((0,) * d, True, eps)
    B = [[row[c] for c in cols] for row in G]  # d x r basis of V
    Bt = linalg.transpose(B)
    scale = linalg.matrix_scale(J) * linalg.matrix_scale(B)
    JB = mat_mul(J, B)
    for j in range(len(cols)):
        col = [JB[i][j] for i in range(d)]
        resid = linalg.vec_add(col, project_columns(B, col, arith), sign=-1)
        if not linalg.vec_is_zero(resid, arith, scale):
            raise SingularOnV("J maps the column space outside itself")
    # Coercivity of the pair on V, expressed in the basis B.
    M = linalg.mat_add(GJ, linalg.mat_scale(G, eps), sign=-1)
    C = mat_mul(Bt, mat_mul(M, B))
    if not linalg.is_psd(C, arith):
        raise CoercivityFailure("tilted form fails the coercivity inequality on V")
    BtB = mat_mul(Bt, B)
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
    return RestrictedSolve(tuple(x), True, eps)


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
        for atom_idx, atom, children in F.transitions(t):
            V = [list(delta(driver.W, c[0], t)) for c, _ in children]
            dX = [delta(X, c[0], t) for c, _ in children]
            flat = [0] * (d * k)
            for i, y in enumerate(zip(*dX)):
                coeff, residual = linalg.lstsq_min_norm(V, y, arith)
                if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([y])):
                    res = residual[0] if len(residual) == 1 else tuple(residual)
                    raise NotRepresentable(t, atom, res)
                for e in range(d):
                    flat[e * k + i] = coeff[e]
            values[(t, atom_idx)] = tuple(flat)
    kbar = Process.predictable(F, values, d * k)
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


def cond_exp(values, partition: Partition, space: SampleSpace) -> list:
    """Conditional expectation given a partition: on each atom the
    weight-averaged value, summed over the members in order."""
    if len(values) != space.size:
        raise SpaceError("random variable must have one value per outcome")
    vectors = [_as_vector(v) for v in values]
    dim = len(vectors[0])
    if any(len(v) != dim for v in vectors):
        raise SpaceError("vector values must share one dimension")
    weights = space.weights
    out: list = [None] * space.size
    for members, mass in zip(partition.members, partition.masses):
        avg = tuple(
            sum((weights[i] * vectors[i][j] for i in members), 0) / mass
            for j in range(dim)
        )
        for i in members:
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
