"""Small dense linear algebra over exact rationals or floats.

Everything is elimination based so that exact mode is bit-exact with
Fractions.  Rank decisions in float mode use a relative pivot threshold
(tolerance times the largest entry of the matrix being reduced); in exact
mode a pivot is zero only when it is literally zero.  A least-squares
solve decides its rank once, in its elimination of [A | b].

Matrices are lists of row lists, vectors are flat lists.  Functions never
mutate their arguments.
"""

from __future__ import annotations

from .arith import EXACT, Arithmetic, Num


class LinalgError(ValueError):
    pass


def zeros(n: int) -> list[Num]:
    return [0] * n


def dot(u, v) -> Num:
    if len(u) != len(v):
        raise LinalgError("dot: length mismatch")
    return sum((a * b for a, b in zip(u, v)), 0)


def transpose(A) -> list[list[Num]]:
    return [list(col) for col in zip(*A)] if A else []


def mat_vec(A, v) -> list[Num]:
    return [dot(row, v) for row in A]


def vec_mat(v, A) -> list[Num]:
    """Row vector times matrix."""
    return mat_vec(transpose(A), v)


def mat_add(A, B, sign: int = 1) -> list[list[Num]]:
    return [[a + sign * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c: Num) -> list[list[Num]]:
    return [[c * x for x in row] for row in A]


def vec_add(u, v, sign: int = 1) -> list[Num]:
    return [a + sign * b for a, b in zip(u, v)]


def vec_scale(u, c: Num) -> list[Num]:
    return [c * x for x in u]


def matrix_scale(A) -> Num:
    """Magnitude reference for pivot thresholds: the largest absolute entry."""
    entries = [abs(x) for row in A for x in row]
    return max(entries) if entries else 0


def vec_is_zero(v, arith: Arithmetic, scale: Num = 1) -> bool:
    return all(arith.negligible(x, scale) for x in v)


def rref(A, arith: Arithmetic, scale: Num | None = None):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Partial pivoting by largest absolute value; deterministic in both modes.
    """
    R = [list(row) for row in A]
    m = len(R)
    n = len(R[0]) if m else 0
    if scale is None:
        scale = matrix_scale(R)
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
    _, pivots = rref(A, arith)
    return len(pivots)


def _null_basis(R, pivots, n: int) -> list[list[Num]]:
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


def solve_pd(M, b, arith: Arithmetic) -> list[Num]:
    """Solve M x = b for symmetric positive definite M (raises if singular)."""
    n = len(M)
    R, pivots = rref([list(row) + [rhs] for row, rhs in zip(M, b)], arith)
    if len(pivots) != n or pivots != list(range(n)):
        raise LinalgError("solve_pd: matrix is singular")
    return [R[i][n] for i in range(n)]


def _fit_columns(A, cols, v, arith: Arithmetic) -> list[Num]:
    """The coordinates y that make C y, for the independent columns
    C = A[:, cols], the orthogonal projection of v onto their span."""
    Ct = [[row[c] for row in A] for c in cols]
    return solve_pd([[dot(u, w) for w in Ct] for u in Ct], mat_vec(Ct, v), arith)


def lstsq_min_norm(A, b, arith: Arithmetic):
    """Minimum-norm least-squares solution of A x = b.

    Returns (x, residual) with residual = b - A x.  One elimination of
    [A | b] gives both a particular solution and the null space of A;
    removing the null-space component leaves the Moore-Penrose solution,
    which lies in the row space of A.  When b falls outside the column
    space, the pivot columns are fitted to its orthogonal projection
    instead, so the residual is b - P_col(A) b.  The rank is decided once,
    there: the Gram solves of the fit and of the null-space step take every
    nonzero pivot (``EXACT``).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m:
        raise LinalgError("lstsq_min_norm: shape mismatch")
    if n == 0:
        return [], list(b)
    R, pivots = rref([list(row) + [rhs] for row, rhs in zip(A, b)], arith,
                     scale=matrix_scale(A))
    if pivots and pivots[-1] == n:
        pivots = pivots[:-1]
        y = _fit_columns(A, pivots, b, EXACT)
    else:
        y = [R[i][n] for i in range(len(pivots))]
    x = zeros(n)
    for p, value in zip(pivots, y):
        x[p] = value
    # Minimum norm: remove the null-space component of the particular solution.
    N = _null_basis(R, pivots, n)
    if N and not vec_is_zero(x, arith):
        G = [[dot(u, v) for v in N] for u in N]
        coeffs = solve_pd(G, [dot(u, x) for u in N], EXACT)
        for u, a in zip(N, coeffs):
            x = vec_add(x, vec_scale(u, a), sign=-1)
    return x, vec_add(b, mat_vec(A, x), sign=-1)


def is_psd(A, arith: Arithmetic) -> bool:
    """Positive semidefiniteness of a symmetric matrix via pivoted elimination."""
    n = len(A)
    M = [list(row) for row in A]
    scale = matrix_scale(M)
    for k in range(n):
        p = max(range(k, n), key=lambda i: M[i][i])
        if M[p][p] < 0 and not arith.negligible(M[p][p], scale):
            return False
        if arith.negligible(M[p][p], scale):
            # Largest remaining diagonal is zero: the whole block must vanish.
            for i in range(k, n):
                for j in range(k, n):
                    if not arith.negligible(M[i][j], scale):
                        return False
            return True
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
