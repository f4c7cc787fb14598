"""Drift of base martingales under an expanded information flow.

When an observer's filtration G refines the base flow F, an F-martingale X
generally drifts under G.  The drift is the G-compensator of X - X_0: on a
finite grid it has increments E[dX_t | G_{t-1}], computed by the same
kernel as ``calculus.compensator``.  The working hypothesis is that it is
carried by one n-dimensional F-martingale N through a G-predictable
integrand phi:

    drift(X) = integral of transpose(phi) against the predictable
               F-covariation of N and X,

the one ``drift_operator``, which the gauge re-check, the price drift
identity and the selftest all read.  ``solve_phi`` recovers phi
atom-by-atom from the driver equations (the per-atom moment solve
``calculus.solve_moments``, as the base structure solve), its target and
W's drift from one pass of dW over G, and ``compute_u`` extracts the
predictable floor u of the multiplicative tilt
1 + transpose(phi) dN (the ``calculus.min_tilt`` kernel), whose
positivity is exactly what downstream deflator construction needs; it
records the first (t, atom) where the floor fails.
The gauge holds the support and tilt-floor witnesses (``FailureWitness``,
None when the condition holds), which the expanded structure solve's gate
returns as they are; a gauge solve that fails raises ``CheckFailed`` at the
``gauge-solve`` row.  The gauge keeps the driver it was solved for and that
driver's drift, so the expanded structure solve reads both from it.  Every
pair is an enlargement by construction (``EnlargementPair`` checks the
refinement); atom masses and transitions come from ``space``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .calculus import ASSUMPTION_VIOLATED, NON_VIABLE, CheckFailed, FailureWitness
from .calculus import _compensate, is_martingale, min_tilt, mismatch_witness, pred_bracket
from .calculus import solve_moments, sum_steps
from .calculus import compensator  # noqa: F401  (bench/test_bench.py traces it here)
from .space import EnlargementPair, Process


@dataclass(frozen=True, eq=False)
class DriftGauge:
    """The drift data of an enlargement: carrier N, the driver W it was
    solved for, W's drift and W minus its drift (the expanded-flow
    martingale the gauge solve certified), integrand phi, floor u, and the
    witnesses of the support condition and of the tilt floor (each None
    when its condition holds)."""

    pair: EnlargementPair
    N: Process
    W: Process
    W_drift: Process
    W_martingale: Process
    phi: Process
    u: Process
    support_witness: FailureWitness | None
    tilt_witness: FailureWitness | None

    @property
    def support_ok(self) -> bool:
        return self.support_witness is None

    @property
    def u_positive(self) -> bool:
        return self.tilt_witness is None


def drift(X: Process, pair: EnlargementPair) -> Process:
    """Cumulative expanded-flow drift: the G-compensator of X - X_0, with
    increments E[dX_t | G_{t-1}].

    For any F-martingale X the process X - drift(X) is a G-martingale; on a
    finite grid this needs no integrability hypothesis, and the function
    checks it after the fact at the ``price-drift-identity`` row, the row
    of ``expanded_martingale``, its engine twin (``_check_centred``).
    """
    out = _compensate(X, pair.expanded)[1]
    _check_centred(X, out, pair.expanded, "price-drift-identity")
    return out


def expanded_martingale(X: Process, pair: EnlargementPair) -> Process:
    """X - drift(X), the expanded-flow martingale part of a base martingale
    X, as the check that certifies it at the ``price-drift-identity`` row
    forms it (``drift``, ``_check_centred``)."""
    G = pair.expanded
    return _check_centred(X, _compensate(X, G)[1], G, "price-drift-identity")


def _check_centred(X: Process, X_drift: Process, G, stage: str) -> Process:
    """X - X_drift, checked to be a G-martingale: raise CheckFailed
    (non-viable, "drift-not-centred", detail the conditional mean
    ``is_martingale`` reports) at ``stage`` unless it is, as float rounding
    at extreme scales can leave a mean outside the zero band."""
    centred = X - X_drift
    witness = is_martingale(centred, G)
    if witness is not None:
        raise CheckFailed(NON_VIABLE, replace(witness, reason="drift-not-centred"), stage)
    return centred


def drift_operator(phi: Process, N: Process, X: Process, base) -> Process:
    """The drift the expanded flow adds to a base martingale X: the running
    sum of transpose(phi) d<N, X_i>^p, component i for X_i, over the
    predictable bracket of N and X in ``base`` (flat n x k, entry
    j * k + i), contracted with phi by one ``sum_steps``."""
    n, k = N.dim, X.dim
    return sum_steps([[(j * k + i, j) for j in range(n)] for i in range(k)],
                     pred_bracket(N, X, base).increments, phi, dot=True)


def check_support_condition(pair: EnlargementPair):
    """Every base transition must stay possible for the expanded observer.

    For each time t, base atom A with child C, and expanded time-(t-1) atom
    B inside A, the joint event C and B must have positive probability.
    Returns None, or the first failure's witness: reason "support", at t
    on the child C, with the detail {t, child, g_atom}.
    """
    F, G = pair.base, pair.expanded
    for t in range(1, pair.horizon + 1):
        f_part, g_part, g_now = F.at(t), G.at(t - 1), G.at(t)
        # G_t refines both F_t and G_{t-1}, so every nonempty C and B is a
        # union of G_t atoms: the pairs that meet are read off those atoms.
        meets = set(zip(g_now.parents(f_part), g_now.parents(g_part)))
        g_kids = [[] for _ in range(F.at(t - 1).size)]
        for b, k in enumerate(g_part.parents(F.at(t - 1))):
            g_kids[k].append(b)
        for k, children in enumerate(F.children(t)):
            for c in children:
                for b in g_kids[k]:
                    if (c, b) not in meets:
                        child = f_part.atoms[c]
                        return FailureWitness("support", t, child, {
                            "t": t, "child": child, "g_atom": g_part.atoms[b]})
    return None


def compute_u(pair: EnlargementPair, N: Process, phi: Process):
    """Predictable floor of the tilt 1 + transpose(phi) dN, and its first
    failure.

    The minimum runs over every child of the enclosing base atom, not just
    those the expanded observer still holds possible: transitions the base
    flow allows must all stay above the floor, including the ones the
    enlargement has excluded (where the tilt may legitimately vanish).
    Returns (u, witness): the witness, reason "tilt-floor" with detail u, is
    at the first time-(t-1) expanded atom, in (t, atom) order, where
    u <= 0, or None.
    """
    u, first = min_tilt(phi, N, pair.base, pair.expanded)
    if first is None:
        return u, None
    t, k = first
    part = pair.expanded.at(t - 1)
    return u, FailureWitness("tilt-floor", t, part.atoms[k], u.on_atoms(t, part, [k])[0][0])


def solve_phi(pair: EnlargementPair, N: Process, W: Process) -> DriftGauge:
    """Recover the drift integrand phi from the driver equations: on each
    expanded time-(t-1) atom B inside the base atom A, the minimum-norm
    solution of E[dW transpose(dN) | A] phi = E[dW | B]
    (``calculus.solve_moments``; the target is the conditional means
    themselves, not the increments of their running sum, and W's drift is
    their running sum, from one pass of dW over G).  Raises CheckFailed
    ("gauge-infeasible", detail the residual) when no solution exists, and
    ("drift-not-centred") when W - W's drift is not a G-martingale.  The
    returned gauge carries W's drift, W minus it, the tilt floor u and the support /
    tilt-floor witnesses; the drift identity W's drift =
    ``drift_operator(phi, N, W)`` is re-verified for the whole driver, and a
    mismatch, a bug rather than a market, raises CheckFailed
    ("verification-mismatch", detail the two sides).
    """
    F, G = pair.base, pair.expanded
    means, W_drift = _compensate(W, G)
    phi = solve_moments(W, N, means, G, F,
                        (ASSUMPTION_VIOLATED, "gauge-infeasible", "gauge-solve"))
    W_martingale = _check_centred(W, W_drift, G, "gauge-solve")
    witness = mismatch_witness(W_drift, drift_operator(phi, N, W, F), G)
    if witness is not None:
        raise CheckFailed(NON_VIABLE, witness, "gauge-solve")
    u, tilt_witness = compute_u(pair, N, phi)
    return DriftGauge(pair, N, W, W_drift, W_martingale, phi, u,
                      check_support_condition(pair), tilt_witness)
