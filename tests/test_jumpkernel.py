"""Jump-site algebra: Grams, restricted inverses, solves and their checks."""

import random
from fractions import Fraction

import pytest

from marketforge import linalg
from marketforge.arith import EXACT, FLOAT
from marketforge.fixtures import insider_site, k1_site
from marketforge.jumpkernel import (
    CoercivityFailure,
    KernelError,
    NegativeTilt,
    Site,
    SiteChild,
    check_coercivity,
    check_jump_bound,
    energy_bound,
    centre,
    gram_F,
    gram_G,
    site_rhs,
    solve_site,
    tilt_floor,
    verify_density,
)

from reference import SingularOnV, mat_mul, pinv_psd, restricted_inverse
from util import b2n_site, random_site, site_to_float

F = Fraction


def _acc(rows, dim=1, arith=EXACT):
    children = tuple(SiteChild(F(p), tuple(F(x) for x in w), F(nu), F(de))
                     for p, w, nu, de in rows)
    return Site(dim, children, True, arith)


def _inacc(rows, dim=1, arith=EXACT):
    children = tuple(SiteChild(F(p), tuple(F(x) for x in w), F(nu), F(de))
                     for p, w, nu, de in rows)
    return Site(dim, children, False, arith)


# ---------------------------------------------------------------------------
# construction and validation


def test_site_validation_rejects_bad_data():
    with pytest.raises(KernelError):  # probabilities off
        _acc([(F(1, 2), (1,), 0, 0), (F(1, 3), (-1,), 0, 0)])
    with pytest.raises(KernelError):  # jump not centered
        _acc([(F(1, 2), (1,), 0, 0), (F(1, 2), (1,), 0, 0)])
    with pytest.raises(KernelError):  # tilt not centered
        _acc([(F(1, 2), (1,), F(1, 2), 0), (F(1, 2), (-1,), 0, 0)])
    with pytest.raises(KernelError):  # delta at 1 on a charged child
        _acc([(F(1, 2), (1,), 0, 1), (F(1, 2), (-1,), 0, 0)])
    with pytest.raises(KernelError):  # wrong jump dimension
        _acc([(1, (1, 0), 0, 0)], dim=1)
    with pytest.raises(KernelError):  # negative probability
        _inacc([(F(3, 2), (1,), 0, 0), (F(-1, 2), (1,), 0, 0)])
    with pytest.raises(KernelError):  # nonpositive aggregate tilt
        _inacc([(1, (1,), -1, 0)])


def test_uncharged_children_may_carry_wild_data():
    site = _acc([(F(1, 2), (1,), 0, 0), (0, (23,), 9, 4), (F(1, 2), (-1,), 0, 0)])
    assert gram_F(site) == [[1]]
    assert site_rhs(site) == [0]
    assert tilt_floor(site) == 1


# ---------------------------------------------------------------------------
# restricted inverse


def test_restricted_inverse_worked_example():
    # V is the first axis; J doubles it; v projects to (4, 0).
    G = [[1, 0], [0, 0]]
    J = [[2, 0], [0, 0]]
    out = restricted_inverse(G, J, [4, 9], 1)
    assert out.solution == (2, 0)
    assert out.feasible
    # G-norms: |x|_G = 2 within the promised bound (1/eps)|v|_G = 4.
    x = list(out.solution)
    assert linalg.dot(x, linalg.mat_vec(G, x)) == 4
    assert linalg.dot([4, 9], linalg.mat_vec(G, [4, 9])) == 16


def test_restricted_inverse_identity_cases():
    G = [[2, 0], [0, 3]]
    eye = [[1, 0], [0, 1]]
    assert restricted_inverse(G, eye, [7, -2], 1).solution == (7, -2)
    inv = restricted_inverse(eye, [[2, 0], [0, 4]], [2, 8], 2).solution
    assert inv == (1, 2)


def test_restricted_inverse_error_modes():
    G = [[1, 0], [0, 0]]
    with pytest.raises(SingularOnV):
        # J throws the first axis out of V (GJ stays symmetric PSD: it is 0).
        restricted_inverse(G, [[0, 0], [1, 0]], [1, 0], 1)
    with pytest.raises(CoercivityFailure):
        restricted_inverse(G, [[F(1, 2), 0], [0, 0]], [1, 0], 1)
    with pytest.raises(KernelError):
        restricted_inverse(G, [[2, 0], [0, 0]], [1, 0], 0)
    with pytest.raises(KernelError):  # GJ not symmetric
        restricted_inverse([[1, 0], [0, 1]], [[0, 1], [0, 0]], [1, 0], 1)


def test_restricted_inverse_trivial_space():
    out = restricted_inverse([[0]], [[5]], [3], 1)
    assert out.solution == (0,) and out.feasible


# ---------------------------------------------------------------------------
# Gram matrices


def test_gram_F_values():
    site = _acc([(F(1, 2), (1,), 0, F(1, 5)), (F(1, 2), (-1,), 0, F(-1, 5))])
    assert gram_F(site) == [[1]]
    assert gram_F(k1_site()) == [[F(3, 5), 0], [0, F(2, 5)]]


def test_gram_G_accessible_values():
    assert gram_G(b2n_site()) == [[F(16, 25)]]
    assert centre(b2n_site()) == [F(3, 5)]
    assert gram_G(insider_site()) == [[0]]
    flat = _acc([(F(1, 2), (1,), 0, 0), (F(1, 2), (-1,), 0, 0)])
    assert gram_G(flat) == gram_F(flat)
    with pytest.raises(NegativeTilt):
        solve_site(_acc([(F(1, 2), (1,), F(-3, 2), 0),
                         (F(1, 2), (-1,), F(3, 2), 0)]))


def test_gram_G_inaccessible_values():
    assert centre(k1_site()) == [0, 0]
    assert gram_G(k1_site()) == [[F(9, 10), 0], [0, F(1, 5)]]
    flat = _inacc([(F(2, 5), (1,), 0, 0), (F(3, 5), (2,), 0, 0)])
    assert gram_G(flat) == gram_F(flat)
    single = _inacc([(1, (1,), F(1, 5), F(1, 10))])
    assert gram_G(single) == [[F(6, 5)]]


# ---------------------------------------------------------------------------
# solves


def test_xi_accessible_noisy_signal_site():
    site = b2n_site()
    assert site_rhs(site) == [F(4, 5)]
    out = solve_site(site)
    assert out.feasible
    assert out.solution == (F(5, 4),)
    assert out.coercivity == F(2, 5) == tilt_floor(site)


def test_xi_accessible_flat_site_is_zero():
    out = solve_site(_acc([(F(1, 2), (1,), 0, 0), (F(1, 2), (-1,), 0, 0)]))
    assert out.solution == (0,) and out.feasible
    # a zero-Gram site with zero drift is feasible and certifies no constant
    out = solve_site(_acc([(F(1, 2), (0,), F(1, 2), F(1, 5)),
                           (F(1, 2), (0,), F(-1, 2), F(-1, 5))]))
    assert out.solution == (0,) and out.feasible and out.coercivity is None


def test_xi_accessible_insider_site_infeasible():
    site = insider_site()
    out = solve_site(site)
    assert not out.feasible
    assert out.residual == (F(6, 5),)
    assert out.solution == (0,)
    assert out.coercivity is None


def test_xi_accessible_coercivity_failure_without_zero_gram():
    # Tilt hits zero on a charged child but the expanded Gram is nonzero.
    site = _acc([(F(1, 4), (2,), 1, 0), (F(1, 4), (0,), -1, 0),
                 (F(1, 2), (-1,), 0, 0)])
    assert tilt_floor(site) == 0
    assert gram_G(site) != [[0]]
    with pytest.raises(CoercivityFailure):
        solve_site(site)


def test_xi_inaccessible_k1_site():
    out = solve_site(k1_site())
    assert out.feasible
    assert out.solution == (F(8, 15), F(-4, 5))
    assert out.coercivity == F(1, 2)


def test_xi_inaccessible_single_child():
    out = solve_site(_inacc([(1, (1,), F(1, 5), F(1, 10))]))
    assert out.solution == (F(1, 4),) and out.feasible


def test_xi_zero_jump_site_degenerate_feasible():
    out = solve_site(_inacc([(1, (0,), F(1, 5), F(1, 10))]))
    assert out.solution == (0,) and out.feasible


# ---------------------------------------------------------------------------
# checks on the worked sites


def test_jump_bound_noisy_signal_site():
    site = b2n_site()
    xi = solve_site(site).solution
    ok, rows = check_jump_bound(site, xi)
    assert ok
    assert [r.jump for r in rows] == [F(1, 2), F(-2)]
    assert [r.identity_lhs for r in rows] == [F(-2, 5), F(-3, 5)]
    assert [r.identity_rhs for r in rows] == [F(-2, 5), F(-3, 5)]


def test_jump_bound_k1_site():
    site = k1_site()
    xi = solve_site(site).solution
    ok, rows = check_jump_bound(site, xi)
    assert ok
    assert [r.jump for r in rows] == [F(8, 15), F(-4, 5)]
    assert all(r.identity_lhs == r.identity_rhs for r in rows)


def test_jump_bound_rejects_wrong_xi():
    site = b2n_site()
    ok, rows = check_jump_bound(site, (F(7),))
    assert not ok
    assert any(not r.ok for r in rows)
    # A jump above one fails even where the identity is distorted consistently.
    assert any(r.jump >= 1 for r in rows)


def test_coercivity_check_values():
    assert check_coercivity(b2n_site(), F(2, 5))
    assert check_coercivity(k1_site(), F(1, 2))
    assert not check_coercivity(k1_site(), F(3, 2))
    # Flat site: expanded and base Grams agree, so u = 1 is the edge.
    flat = _acc([(F(1, 2), (1,), 0, 0), (F(1, 2), (-1,), 0, 0)])
    assert check_coercivity(flat, 1)
    assert not check_coercivity(flat, F(11, 10))


def test_energy_bound_values():
    site = b2n_site()
    ok, left, right = energy_bound(site, solve_site(site).solution, F(2, 5))
    assert ok and left == 1 and right == F(8, 5)
    site = k1_site()
    ok, left, right = energy_bound(site, solve_site(site).solution, F(1, 2))
    assert ok and left == F(48, 125) and right == F(112, 125)
    ok, left, _ = energy_bound(site, (0, 0), F(1, 2))
    assert ok and left == 0
    with pytest.raises(KernelError):
        energy_bound(site, (0, 0), 0)


def test_verify_density_values():
    assert verify_density(b2n_site())
    assert verify_density(insider_site())  # degenerate but a density
    assert verify_density(k1_site())
    bad = _acc([(F(1, 2), (1,), F(-3, 2), 0), (F(1, 2), (-1,), F(3, 2), 0)])
    assert not verify_density(bad)


# ---------------------------------------------------------------------------
# float mode mirrors the rational results


def test_float_mode_reproduces_rational_sites():
    for exact_site in (b2n_site(), k1_site()):
        rational = solve_site(exact_site).solution
        floated = solve_site(site_to_float(exact_site)).solution
        for a, b in zip(rational, floated):
            assert abs(float(a) - b) < 1e-9
    out = solve_site(site_to_float(insider_site()))
    assert not out.feasible
    assert abs(out.residual[0] - 1.2) < 1e-9


# ---------------------------------------------------------------------------
# randomized battery on realizable sites


def _assert_site_contracts(site):
    M = gram_G(site)
    assert M == linalg.transpose(M)  # exact symmetry
    out = solve_site(site)
    assert out.feasible
    xi = list(out.solution)
    u = tilt_floor(site)
    assert u > 0
    # Independent cross-check: the generalized-inverse reference solve.
    G = gram_F(site)
    J = mat_mul(pinv_psd(G, EXACT), M)
    v, _ = linalg.lstsq_min_norm(G, site_rhs(site), EXACT)
    assert list(restricted_inverse(G, J, v, u).solution) == xi
    ok, _ = check_jump_bound(site, xi)
    assert ok
    assert check_coercivity(site, u)
    ok, _, _ = energy_bound(site, xi, u)
    assert ok
    assert verify_density(site)


def test_random_accessible_sites_pass_all_checks():
    rng = random.Random(20240811)
    for _ in range(60):
        _assert_site_contracts(random_site(rng, True))


def test_random_inaccessible_sites_pass_all_checks():
    rng = random.Random(20240812)
    for _ in range(60):
        _assert_site_contracts(random_site(rng, False))


def test_random_sites_survive_float_mode():
    rng = random.Random(77)
    for _ in range(20):
        site = random_site(rng, True)
        exact_xi = solve_site(site).solution
        float_out = solve_site(site_to_float(site))
        assert float_out.feasible
        for a, b in zip(exact_xi, float_out.solution):
            assert abs(float(a) - b) < 1e-7
