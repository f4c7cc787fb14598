"""The integer elimination core of ``linalg`` against the Fraction oracle.

In exact mode ``linalg`` eliminates fraction free on integer numerators
and returns numerators over one denominator; ``reference`` keeps the
Gauss-Jordan elimination on Fractions it replaced, with its own LDL^T loop
for ``is_psd``.  The pivot columns, the Moore-Penrose solution and a PSD
decision are each unique, so on drawn rational matrices -- of drawn rank,
with zero rows, with a right-hand side inside or outside the column space,
symmetric PSD and symmetric indefinite -- ``rank``, ``solve_pd``,
``lstsq_min_norm`` and ``is_psd`` must give exactly the oracle's answers.
Float mode keeps the oracle's row update, so a float least-squares solve
gives the oracle's bits, and a float rank or PSD decision its decision.
Exact ``solve_site`` must give the generalized-inverse reference's xi, and
its coercivity certificate the oracle's decision, on drawn accessible and
inaccessible sites.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from marketforge import linalg as la
from marketforge.arith import EXACT, FLOAT
from marketforge.jumpkernel import solve_site, tilt_floor

from util import bits, random_site

RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def rows(m: int, n: int):
    return st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=m, max_size=m)


@st.composite
def matrices(draw):
    """An m x n rational matrix of drawn rank r <= min(m, n), the product of
    an m x r and an r x n factor, with about a quarter of its rows zeroed."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    r = draw(st.integers(0, min(m, n)))
    U, V = draw(rows(m, r)), draw(rows(r, n))
    A = [[sum((u[k] * V[k][j] for k in range(r)), Fraction(0)) for j in range(n)] for u in U]
    kept = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    return [row if keep else [Fraction(0)] * n for row, keep in zip(A, kept)]


@st.composite
def systems(draw):
    """(A, b): b in the column space of A (A z) or drawn freely, which for a
    rank-deficient A puts it outside."""
    A = draw(matrices())
    m, n = len(A), len(A[0]) if A else 0
    if draw(st.booleans()):
        return A, la.mat_vec(A, draw(st.lists(RATIONALS, min_size=n, max_size=n)))
    return A, draw(st.lists(RATIONALS, min_size=m, max_size=m))


@st.composite
def symmetric(draw):
    """B^T B, PSD and singular where B has fewer independent rows than
    columns, less C^T C in some draws, which leaves it indefinite."""
    k = draw(st.integers(0, 4))
    S = [[Fraction(0)] * k for _ in range(k)]
    for sign in (1, -1) if draw(st.booleans()) else (1,):
        for v in draw(st.lists(st.lists(RATIONALS, min_size=k, max_size=k), max_size=4)):
            S = ref.mat_add(S, ref.outer(v, v), sign)
    return S


def floats(A):
    return [[float(x) for x in row] for row in A]


@given(systems())
def test_rank_and_least_squares_match_the_oracle(system):
    A, b = system
    x, residual, den = la.lstsq_min_norm(A, b, EXACT)
    assert den > 0
    assert (ref.decoded(x, den), ref.decoded(residual, den)) == ref.lstsq_min_norm(A, b, EXACT)
    assert la.rank(A, EXACT) == ref.rank(A, EXACT)


@given(systems())
def test_float_least_squares_keeps_the_oracle_bits(system):
    A, b = floats(system[0]), [float(x) for x in system[1]]
    x, residual, den = la.lstsq_min_norm(A, b, FLOAT)
    want_x, want_residual = ref.lstsq_min_norm(A, b, FLOAT)
    assert den == 1
    assert list(map(bits, x)) == list(map(bits, want_x))
    assert list(map(bits, residual)) == list(map(bits, want_residual))
    assert la.rank(A, FLOAT) == ref.rank(A, FLOAT)


@given(symmetric(), st.data())
def test_definiteness_and_definite_solves_match_the_oracle(S, data):
    assert la.is_psd(S, EXACT) == ref.is_psd(S, EXACT)
    assert la.is_psd(floats(S), FLOAT) == ref.is_psd(floats(S), FLOAT)
    b = data.draw(st.lists(RATIONALS, min_size=len(S), max_size=len(S)))
    try:
        want = ref.solve_pd(S, b, EXACT)
    except la.LinalgError:
        with pytest.raises(la.LinalgError):
            la.solve_pd(S, b, EXACT)
        return
    x, den = la.solve_pd(S, b, EXACT)
    assert den > 0 and ref.decoded(x, den) == want


@given(st.integers(0, 2 ** 32), st.booleans())
def test_site_solve_matches_the_restricted_inverse(seed, accessible):
    site = random_site(random.Random(seed), accessible)
    out = solve_site(site)
    M, G, u = ref.gram_G(site), ref.gram_F(site), tilt_floor(site)
    assert out.coercive == ref.is_psd(ref.mat_add(M, ref.mat_scale(G, u), sign=-1), EXACT)
    J = ref.mat_mul(ref.pinv_psd(G, EXACT), M)
    v, _ = ref.lstsq_min_norm(G, ref.site_rhs(site), EXACT)
    assert ref.restricted_inverse(G, J, v, u).solution == out.solution
