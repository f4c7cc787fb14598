"""Small dense linear algebra on one pivoted Gauss-Jordan elimination.

Exact mode computes on integers: a rational matrix is read as numerators
over one denominator (``numerators``), which moves no pivot column, rank,
least-squares solution or definiteness, and the elimination is fraction
free (Bareiss, Math. Comp. 22, 1968; Geddes, Czapor and Labahn, Algorithms
for Computer Algebra, 1992, ch. 9): a pivot p turns every other row a into
(p a - f b) / d, b the pivot row, f the row's pivot-column entry and d the
previous pivot, an exact division.  Every pivot row then holds the last
pivot, so a solution comes back as numerators over one positive
denominator, and the caller decodes a Fraction only where it needs one.
Float mode divides the pivot row by its pivot and updates a - f b, and a
pivot is zero when it is at most the tolerance times the largest entry of
the matrix being reduced (in exact mode, when it is zero).  The pivot
columns, the Moore-Penrose solution and a PSD decision are unique, so no
exact answer depends on the route.  Matrices are lists of row lists,
vectors flat lists; no function mutates its arguments.
"""

from __future__ import annotations

import math

from .arith import Arithmetic, Num


class LinalgError(ValueError):
    pass


def numerators(rows, exact: bool) -> tuple[list[list[Num]], int]:
    """(rows, den): exact number rows as integer numerators over the lcm
    ``den`` of their denominators; float rows as they are, over 1."""
    if not exact:
        return [list(row) for row in rows], 1
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def dot(u, v) -> Num:
    if len(u) != len(v):
        raise LinalgError("dot: length mismatch")
    return sum((a * b for a, b in zip(u, v)), 0)


def mat_vec(A, v) -> list[Num]:
    return [dot(row, v) for row in A]


def matrix_scale(A) -> Num:
    """Magnitude reference for pivot thresholds: the largest absolute entry."""
    entries = [abs(x) for row in A for x in row]
    return max(entries) if entries else 0


def vec_is_zero(v, arith: Arithmetic, scale: Num = 1) -> bool:
    return all(arith.negligible(x, scale) for x in v)


def _threshold(arith: Arithmetic, A) -> Num:
    """The largest pivot size that counts as zero in A: 0 in exact mode."""
    return 0 if arith.exact else arith.tolerance * max(1.0, abs(matrix_scale(A)))


def _eliminate(R, cols: int, exact: bool, tol: Num = 0, symmetric: bool = False):
    """Pivoted Gauss-Jordan elimination of the rows R, in place, over their
    first ``cols`` columns: (pivots, d), the pivot columns and the reduced
    form's positive denominator (1 in float mode).  A column's pivot
    is its largest entry left, the column skipped when that is at most
    ``tol``.  With ``symmetric`` the pivot is the largest diagonal entry
    left, swapped into place by rows and columns alike, and the elimination
    stops at one at most ``tol``, leaving a positive multiple of the Schur
    complement of the pivots."""
    m, pivots, d = len(R), [], 1
    for c in range(cols):
        r = len(pivots)
        if r == m:
            break
        if symmetric:
            best = max(range(r, m), key=lambda i: R[i][i])
            if R[best][best] <= tol:
                break
            for row in R:
                row[r], row[best] = row[best], row[r]
        else:
            best = max(range(r, m), key=lambda i: abs(R[i][c]))
            if abs(R[best][c]) <= tol:
                continue
        R[r], R[best] = R[best], R[r]
        p = R[r][c]
        if exact:
            row = R[r]
            for i in range(m):
                f = R[i][c]
                if i != r and (f or p != d):
                    R[i] = [(p * a - f * b) // d for a, b in zip(R[i], row)]
            d = p
        else:
            R[r] = row = [x / p for x in R[r]]
            for i in range(m):
                if i != r and R[i][c] != 0:
                    f = R[i][c]
                    R[i] = [a - f * b for a, b in zip(R[i], row)]
        pivots.append(c)
    if d < 0:
        R[:], d = [[-x for x in row] for row in R], -d
    return pivots, d


def rank(A, arith: Arithmetic) -> int:
    if not A or not A[0]:
        return 0
    R, _ = numerators(A, arith.exact)
    return len(_eliminate(R, len(R[0]), arith.exact, _threshold(arith, A))[0])


def _solve(R, n: int, exact: bool):
    """(x, den): the solution x/den of the n x n system held by the
    augmented rows R, reduced in place; raises LinalgError if singular."""
    pivots, d = _eliminate(R, n, exact)
    if len(pivots) != n:
        raise LinalgError("matrix is singular")
    return [row[n] for row in R], d


def _fit_columns(A, cols, v, exact: bool):
    """(y, den): the coordinates y/den that make C y/den, for the independent
    columns C = A[:, cols], the orthogonal projection of v onto their span."""
    Ct = [[row[c] for row in A] for c in cols]
    return _solve([[*(dot(u, w) for w in Ct), dot(u, v)] for u in Ct], len(cols), exact)


def _null_basis(R, pivots, n: int, d: Num) -> list[list[Num]]:
    """Null-space basis of the first n columns of a reduced form R over d,
    one vector per free column."""
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = d
        for row, p in zip(R, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def lstsq_min_norm(A, b, arith: Arithmetic):
    """Minimum-norm least-squares solution of A x = b: (x, residual, den),
    x/den the solution and residual/den = b - A x/den, den positive.

    One elimination of [A | b] gives a particular solution and the null
    space of A; removing the null-space component leaves the Moore-Penrose
    solution.  When b falls outside the column space, the pivot columns are
    fitted to its orthogonal projection instead, so the residual is
    b - P_col(A) b.  The rank is decided once, there: the Gram solves of the
    fit and of the null-space step take every nonzero pivot.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m:
        raise LinalgError("lstsq_min_norm: shape mismatch")
    exact = arith.exact
    R, D = numerators([[*row, v] for row, v in zip(A, b)], exact)
    A, b = [row[:n] for row in R], [row[n] for row in R]
    if n == 0:
        return [], b, D
    pivots, d = _eliminate(R, n + 1, exact, _threshold(arith, A))
    if pivots and pivots[-1] == n:
        pivots.pop()
        y, den = _fit_columns(A, pivots, b, exact)
    else:
        y, den = [R[i][n] for i in range(len(pivots))], d
    x = [0] * n
    for p, value in zip(pivots, y):
        x[p] = value
    # Minimum norm: remove the null-space component of the particular solution.
    N = _null_basis(R, pivots, n, d)
    if N and not vec_is_zero(x, arith):
        coeffs, a = _solve([[*(dot(u, v) for v in N), dot(u, x)] for u in N], len(N), exact)
        x, den = [a * v for v in x], den * a
        for u, c in zip(N, coeffs):
            x = [v - c * w for v, w in zip(x, u)]
    residual = [den * v - dot(row, x) for row, v in zip(A, b)]
    if D != 1:
        x = [D * v for v in x]
    return x, residual, den * D


def is_psd(A, arith: Arithmetic) -> bool:
    """Positive semidefiniteness of a symmetric matrix: eliminate on the
    largest diagonal entry while it is above the threshold; the Schur
    complement left must then vanish."""
    R, _ = numerators(A, arith.exact)
    tol = _threshold(arith, R)
    k = len(_eliminate(R, len(R), arith.exact, tol, symmetric=True)[0])
    return all(abs(x) <= tol for row in R[k:] for x in row[k:])
