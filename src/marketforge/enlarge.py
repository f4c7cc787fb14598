"""Drift of base martingales under an expanded information flow.

When an observer's filtration G refines the base flow F, an F-martingale X
generally drifts under G.  On a finite grid the drift process has
increments E[dX_t | G_{t-1}] and the working hypothesis is that it is
carried by one n-dimensional F-martingale N through a G-predictable
integrand phi:

    drift(X) = integral of transpose(phi) against the predictable
               F-covariation of N and X.

``solve_phi`` recovers phi atom-by-atom from the driver equations and
``compute_u`` extracts the predictable floor u of the multiplicative tilt
1 + transpose(phi) dN, whose positivity is exactly what downstream deflator
construction needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .calculus import compensator, integrate, is_martingale, pred_bracket
from .space import (
    PREDICTABLE,
    EnlargementPair,
    Filtration,
    Process,
    SpaceError,
    check_refinement,
    cond_exp,
)


class Infeasible(Exception):
    """The drift of some atom cannot be carried by the chosen martingale N."""

    def __init__(self, t: int, atom: tuple[str, ...], residual=None):
        self.t = t
        self.atom = atom
        self.residual = residual
        super().__init__(f"no drift integrand exists at time {t} on atom {atom}")


@dataclass(frozen=True)
class SupportWitness:
    """A base-flow transition that the expanded observer rules out."""

    t: int
    child: tuple[str, ...]
    g_atom: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class DriftGauge:
    """The drift data of an enlargement: carrier N, integrand phi, floor u."""

    pair: EnlargementPair
    N: Process
    phi: Process
    u: Process
    support_ok: bool
    u_positive: bool


def _require_pair(pair: EnlargementPair) -> None:
    if not check_refinement(pair):
        raise SpaceError("expanded filtration does not refine the base one")


def drift(X: Process, pair: EnlargementPair) -> Process:
    """Cumulative expanded-flow drift: increments E[dX_t | G_{t-1}].

    For any F-martingale X the process X - drift(X) is a G-martingale; on a
    finite grid this needs no integrability hypothesis, and the function
    asserts it after the fact.
    """
    _require_pair(pair)
    G = pair.expanded
    space = X.space
    means = {}
    for t in range(1, X.horizon + 1):
        inc = [X.delta(o, t) for o in space.outcomes]
        means[t] = cond_exp(inc, G.at(t - 1), space)
    paths = []
    for o in space.outcomes:
        level = (0,) * X.dim
        path = [level]
        for t in range(1, X.horizon + 1):
            level = tuple(a + b for a, b in zip(level, means[t][space.index(o)]))
            path.append(level)
        paths.append(tuple(path))
    out = Process(space, tuple(paths), flavor=PREDICTABLE, shape=X.shape)
    ok, witness = is_martingale(X - out, G)
    if not ok:  # unreachable: the construction centers every increment
        raise AssertionError(f"drift failed to center the process: {witness}")
    return out


def check_support_condition(pair: EnlargementPair):
    """Every base transition must stay possible for the expanded observer.

    For each time t, base atom A with child C, and expanded time-(t-1) atom
    B inside A, the joint event C and B must have positive probability.
    Returns (True, None) or (False, first witness).
    """
    _require_pair(pair)
    F, G = pair.base, pair.expanded
    for t in range(1, pair.horizon + 1):
        part = F.at(t - 1)
        child_part = F.at(t)
        g_part = G.at(t - 1)
        for atom in part.atoms:
            children = part.children_of(child_part, atom)
            g_atoms = [b for b in g_part.atoms if b[0] in set(atom)]
            for child in children:
                members = set(child)
                for b in g_atoms:
                    if not members.intersection(b):
                        return False, SupportWitness(t, child, b)
    return True, None


def compute_u(pair: EnlargementPair, N: Process, phi: Process) -> Process:
    """Predictable floor of the tilt 1 + transpose(phi) dN.

    The minimum runs over every outcome of the enclosing base atom, not just
    those the expanded observer still holds possible: transitions the base
    flow allows must all stay above the floor, including the ones the
    enlargement has excluded (where the tilt may legitimately vanish).
    """
    F, G = pair.base, pair.expanded
    space = pair.space
    values: dict[tuple[int, int], object] = {}
    for t in range(1, pair.horizon + 1):
        part = G.at(t - 1)
        base_part = F.at(t - 1)
        for k, atom in enumerate(part.atoms):
            p = phi.at(atom[0], t)
            base_atom = base_part.atom_of(atom[0])
            tilts = [
                1 + sum((a * b for a, b in zip(p, N.delta(o, t))), 0)
                for o in base_atom
            ]
            values[(t, k)] = min(tilts)

    def fn(o, t):
        if t == 0:
            return 1
        return values[(t, G.at(t - 1).atom_index(o))]

    return Process.from_values(space, fn, pair.horizon, flavor=PREDICTABLE)


def solve_phi(pair: EnlargementPair, N: Process, W: Process) -> DriftGauge:
    """Recover the drift integrand phi from the driver equations.

    On each expanded time-(t-1) atom B inside the base atom A, phi solves

        transpose(phi) E[dN transpose(dW) | A] = E[transpose(dW) | B],

    taking the minimum-norm solution when the system is underdetermined.
    Raises Infeasible when no solution exists.  The returned gauge carries
    the tilt floor u and the support / positivity diagnostics; afterwards
    the drift identity is re-verified on the full driver basis.
    """
    _require_pair(pair)
    F, G = pair.base, pair.expanded
    space = pair.space
    arith = space.arith
    n, d = N.dim, W.dim
    values: dict[tuple[int, int], tuple] = {}
    for t in range(1, pair.horizon + 1):
        f_part = F.at(t - 1)
        g_part = G.at(t - 1)
        q_cache: dict[int, list] = {}
        for k, b_atom in enumerate(g_part.atoms):
            a_idx = f_part.atom_index(b_atom[0])
            if a_idx not in q_cache:
                a_atom = f_part.atoms[a_idx]
                mass = space.prob(a_atom)
                Q = [[
                    sum(
                        (space.weight(o) * N.delta(o, t)[i] * W.delta(o, t)[e]
                         for o in a_atom), 0,
                    ) / mass
                    for e in range(d)
                ] for i in range(n)]
                q_cache[a_idx] = Q
            Q = q_cache[a_idx]
            b_mass = space.prob(b_atom)
            gamma = [
                sum((space.weight(o) * W.delta(o, t)[e] for o in b_atom), 0) / b_mass
                for e in range(d)
            ]
            if d == 0:  # no driver equations: any integrand works, take zero
                values[(t, k)] = (0,) * n
                continue
            phi_b, residual = linalg.lstsq_min_norm(linalg.transpose(Q), gamma, arith)
            if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([gamma])):
                raise Infeasible(t, b_atom, tuple(residual))
            values[(t, k)] = tuple(phi_b)

    def fn(o, t):
        if t == 0:
            return (0,) * n
        return values[(t, G.at(t - 1).atom_index(o))]

    phi = Process.from_values(space, fn, pair.horizon, dim=n,
                              flavor=PREDICTABLE, shape=(n, 1))
    # Re-verify the drift identity on the driver basis, component by component.
    for e in range(d):
        We = W.component(e)
        lhs = drift(We, pair)
        rhs = integrate(phi, pred_bracket(N, We, F))
        for o in space.outcomes:
            for t in range(pair.horizon + 1):
                if not arith.eq(lhs.value(o, t), rhs.value(o, t)):
                    raise AssertionError(
                        "drift identity failed on the driver basis "
                        f"(component {e}, outcome {o}, time {t})"
                    )
    u = compute_u(pair, N, phi)
    support_ok, _ = check_support_condition(pair)
    u_positive = all(
        u.value(o, t) > 0
        for o in space.outcomes for t in range(1, pair.horizon + 1)
    )
    return DriftGauge(pair, N, phi, u, support_ok, u_positive)


def verify_g_compensator(A: Process, pair: EnlargementPair, gauge: DriftGauge) -> bool:
    """Check the two-term formula for expanded-flow compensators.

    The compensator of an F-adapted A under G must be the F-compensator
    plus the drift of the compensated remainder, the latter expressed
    through the gauge as the integral of phi against the predictable
    covariation with N.  Exact equality in rational mode.
    """
    _require_pair(pair)
    F, G = pair.base, pair.expanded
    arith = pair.space.arith
    comp_g = compensator(A, G)
    comp_f = compensator(A, F)
    remainder = A - comp_f
    correction = integrate(gauge.phi, pred_bracket(gauge.N, remainder, F))
    for o in pair.space.outcomes:
        for t in range(pair.horizon + 1):
            lhs = comp_g.value(o, t)
            rhs = comp_f.value(o, t) + correction.value(o, t)
            if not arith.eq(lhs, rhs):
                return False
    return True
