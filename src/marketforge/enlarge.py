"""Drift of base martingales under an expanded information flow.

When an observer's filtration G refines the base flow F, an F-martingale X
generally drifts under G.  The drift is the G-compensator of X - X_0: on a
finite grid it has increments E[dX_t | G_{t-1}], computed by the same
kernel as ``calculus.compensator``.  The working hypothesis is that it is
carried by one n-dimensional F-martingale N through a G-predictable
integrand phi:

    drift(X) = integral of transpose(phi) against the predictable
               F-covariation of N and X.

``solve_phi`` recovers phi atom-by-atom from the driver equations and
``compute_u`` extracts the predictable floor u of the multiplicative tilt
1 + transpose(phi) dN, whose positivity is exactly what downstream deflator
construction needs.  The gauge keeps the driver's drift for the expanded
structure solve; atom masses and transitions come from ``space``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .calculus import _compensate, compensator, integrate, is_martingale, pred_bracket
from .space import (
    EnlargementPair,
    Process,
    SpaceError,
    check_refinement,
    cond_exp,
    first_mismatch,
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
    """The drift data of an enlargement: carrier N, the driver W it was
    solved for and W's drift, integrand phi, floor u, and the
    support-condition witness (None when the condition holds)."""

    pair: EnlargementPair
    N: Process
    W: Process
    W_drift: Process
    phi: Process
    u: Process
    support_witness: SupportWitness | None
    u_positive: bool

    @property
    def support_ok(self) -> bool:
        return self.support_witness is None


def _require_pair(pair: EnlargementPair) -> None:
    if not check_refinement(pair):
        raise SpaceError("expanded filtration does not refine the base one")


def drift(X: Process, pair: EnlargementPair) -> Process:
    """Cumulative expanded-flow drift: the G-compensator of X - X_0, with
    increments E[dX_t | G_{t-1}].

    For any F-martingale X the process X - drift(X) is a G-martingale; on a
    finite grid this needs no integrability hypothesis, and the function
    asserts it after the fact.
    """
    _require_pair(pair)
    G = pair.expanded
    out = _compensate(X, G)
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
        g_part = G.at(t - 1)
        meets = {(child[0], g_part.atom_index(o))
                 for child in F.at(t).atoms for o in child}
        g_kids = [[] for _ in F.at(t - 1).atoms]
        for b, k in enumerate(g_part.parents(F.at(t - 1))):
            g_kids[k].append(b)
        for k, _, children in F.transitions(t):
            for child, _ in children:
                for b in g_kids[k]:
                    if (child[0], b) not in meets:
                        return False, SupportWitness(t, child, g_part.atoms[b])
    return True, None


def compute_u(pair: EnlargementPair, N: Process, phi: Process) -> Process:
    """Predictable floor of the tilt 1 + transpose(phi) dN.

    The minimum runs over every outcome of the enclosing base atom, not just
    those the expanded observer still holds possible: transitions the base
    flow allows must all stay above the floor, including the ones the
    enlargement has excluded (where the tilt may legitimately vanish).
    """
    F, G = pair.base, pair.expanded
    values: dict[tuple[int, int], object] = {}
    for t in range(1, pair.horizon + 1):
        part = G.at(t - 1)
        base_atoms = F.at(t - 1).atoms
        for k, (atom, parent) in enumerate(zip(part.atoms, part.parents(F.at(t - 1)))):
            p = phi.at(atom[0], t)
            tilts = [
                1 + sum((a * b for a, b in zip(p, N.delta(o, t))), 0)
                for o in base_atoms[parent]
            ]
            values[(t, k)] = min(tilts)
    return Process.predictable(G, values, initial=1)


def solve_phi(pair: EnlargementPair, N: Process, W: Process) -> DriftGauge:
    """Recover the drift integrand phi from the driver equations.

    On each expanded time-(t-1) atom B inside the base atom A, phi solves

        transpose(phi) E[dN transpose(dW) | A] = E[transpose(dW) | B],

    taking the minimum-norm solution when the system is underdetermined.
    Raises Infeasible when no solution exists.  The returned gauge carries
    W's drift, the tilt floor u and the support / positivity diagnostics;
    the drift identity is re-verified on the full driver basis.
    """
    _require_pair(pair)
    F, G = pair.base, pair.expanded
    space = pair.space
    arith = space.arith
    w = space.weights
    n, d = N.dim, W.dim
    values: dict[tuple[int, int], tuple] = {}
    for t, dN, dW in zip(range(1, pair.horizon + 1), N.increments(), W.increments()):
        f_part, g_part = F.at(t - 1), G.at(t - 1)
        Qs = [[[sum((w[j] * dN[j][i] * dW[j][e] for j in members), 0) / mass
                for e in range(d)] for i in range(n)]
              for members, mass in zip(f_part.members, f_part.masses)]
        gammas = cond_exp(dW, g_part, space)
        for k, (b_atom, members, a) in enumerate(zip(
                g_part.atoms, g_part.members, g_part.parents(f_part))):
            gamma = gammas[members[0]]
            if d == 0:  # no driver equations: any integrand works, take zero
                values[(t, k)] = (0,) * n
                continue
            phi_b, residual = linalg.lstsq_min_norm(linalg.transpose(Qs[a]), gamma, arith)
            if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([gamma])):
                raise Infeasible(t, b_atom, tuple(residual))
            values[(t, k)] = tuple(phi_b)
    phi = Process.predictable(G, values, n, shape=(n, 1))
    # Re-verify the drift identity on the driver basis, component by component.
    W_drift = drift(W, pair)
    for e in range(d):
        miss = first_mismatch(W_drift.component(e),
                              integrate(phi, pred_bracket(N, W.component(e), F)))
        if miss is not None:
            raise AssertionError(
                "drift identity failed on the driver basis "
                f"(component {e}, outcome {miss[0]}, time {miss[1]})"
            )
    u = compute_u(pair, N, phi)
    _, support_witness = check_support_condition(pair)
    u_positive = all(
        u.value(o, t) > 0
        for o in space.outcomes for t in range(1, pair.horizon + 1)
    )
    return DriftGauge(pair, N, W, W_drift, phi, u, support_witness, u_positive)


def verify_g_compensator(A: Process, pair: EnlargementPair, gauge: DriftGauge) -> bool:
    """Check the two-term formula for expanded-flow compensators.

    The compensator of an F-adapted A under G must be the F-compensator
    plus the drift of the compensated remainder, the latter expressed
    through the gauge as the integral of phi against the predictable
    covariation with N.  Exact equality in rational mode.
    """
    _require_pair(pair)
    F, G = pair.base, pair.expanded
    comp_f = compensator(A, F)
    correction = integrate(gauge.phi, pred_bracket(gauge.N, A - comp_f, F))
    return first_mismatch(compensator(A, G), comp_f + correction) is None
