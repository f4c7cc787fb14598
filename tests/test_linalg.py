"""Elimination linear algebra: hand-checked oracles plus randomized identities.

``solve_pd`` and ``lstsq_min_norm`` return numerators over one
denominator; ``solved`` decodes them.
"""

import random
from fractions import Fraction

from marketforge.arith import EXACT, Arithmetic
from marketforge import linalg as la

import reference as ref

F = Fraction
FLOAT = Arithmetic("float")


def frac_matrix(rows):
    return [[F(x) for x in row] for row in rows]


def solved(A, b, arith=EXACT):
    """(x, residual) of the minimum-norm least-squares solve, decoded."""
    x, residual, den = la.lstsq_min_norm(A, b, arith)
    return ref.decoded(x, den, arith), ref.decoded(residual, den, arith)


def test_rref_rank_and_null_space():
    A = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert la.rank(A, EXACT) == 2
    basis = ref.null_space(A, EXACT)
    assert len(basis) == 1
    assert la.mat_vec(A, basis[0]) == [0, 0, 0]


def test_solve_pd_exact():
    M = frac_matrix([[2, 1], [1, 2]])
    x, den = la.solve_pd(M, [F(3), F(3)], EXACT)
    assert ref.decoded(x, den) == [1, 1]


def test_lstsq_consistent_underdetermined_is_min_norm():
    # x + y = 2 has many solutions; the minimum-norm one is (1, 1).
    A = frac_matrix([[1, 1]])
    x, res = solved(A, [F(2)])
    assert x == [1, 1]
    assert res == [0]


def test_lstsq_inconsistent_reports_projection_residual():
    # Columns span the x-axis only; b = (1, 1) leaves residual (0, 1).
    A = frac_matrix([[1, 0], [0, 0]])
    x, res = solved(A, [F(1), F(1)])
    assert x == [1, 0]
    assert res == [0, 1]


def test_lstsq_zero_matrix():
    A = frac_matrix([[0]])
    x, res = solved(A, [F(6, 5)])
    assert x == [0]
    assert res == [F(6, 5)]


def test_project_columns():
    A = frac_matrix([[1, 1], [1, 1], [0, 0]])
    p = ref.project_columns(A, [F(1), F(3), F(5)], EXACT)
    assert p == [2, 2, 0]


def test_is_psd_cases():
    assert la.is_psd(frac_matrix([[2, 1], [1, 2]]), EXACT)
    assert la.is_psd(frac_matrix([[0, 0], [0, 0]]), EXACT)
    assert la.is_psd(frac_matrix([[1, 0], [0, 0]]), EXACT)
    assert not la.is_psd(frac_matrix([[-1, 0], [0, 1]]), EXACT)
    assert not la.is_psd(frac_matrix([[0, 1], [1, 0]]), EXACT)
    assert not la.is_psd(frac_matrix([[1, 2], [2, 1]]), EXACT)


def test_pinv_psd_penrose_identities():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(1, 4)
        r = rng.randint(0, d)
        # Random PSD matrix of rank r as a sum of rational outer products.
        G = [[F(0)] * d for _ in range(d)]
        for _ in range(r):
            v = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)]
            G = ref.mat_add(G, ref.outer(v, v))
        P = ref.pinv_psd(G, EXACT)
        assert ref.mat_mul(G, ref.mat_mul(P, G)) == G
        assert ref.mat_mul(P, ref.mat_mul(G, P)) == P
        GP = ref.mat_mul(G, P)
        assert GP == ref.transpose(GP)


def test_lstsq_random_penrose_properties():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-3, 3)) for _ in range(m)]
        x, res = solved(A, b)
        # Residual orthogonal to the column space.
        assert all(v == 0 for v in ref.vec_mat(res, A))
        # Solution inside the row space (orthogonal to the null space).
        for nv in ref.null_space(A, EXACT):
            assert la.dot(x, nv) == 0


def test_float_mode_thresholding():
    A = [[1.0, 0.0], [0.0, 1e-15]]
    assert la.rank(A, FLOAT) == 1
    assert la.is_psd([[1.0, 0.0], [0.0, -1e-15]], FLOAT)
