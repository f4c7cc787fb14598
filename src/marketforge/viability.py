"""Market structure conditions and deflators, in the base and expanded flows.

The base-flow solve finds a scalar martingale D with the price drift equal
to the predictable covariation of D against each price martingale part
(``calculus.solve_moments``, as the gauge solve), and builds the deflator
as the stochastic exponential of -D.  The expanded-flow pipeline rebuilds
the same object under an enlargement: it assembles one accessible jump
site per (time, expanded atom) -- child probabilities from the base flow's
transitions, tilts from the drift gauge, deltas from D -- solves each site
for the integrand K, and exponentiates Y = K . (W - drift W) with the
enlargement, W and its drift read from the gauge.  Each site is solved
once per distinct site value within one call: its ``solve_site`` record
carries the integrand and the per-child jump rows, and the pipeline reads
the jump bound from those rows.  Both flows end in one tail,
``_exponentiate``: integrate, check the jump bound dY < 1 in outcome-major
order, and take the stochastic exponential.  Every verdict re-verifies
the drift identity (its right side d[D, M] plus ``enlarge.drift_operator``)
and the deflated-martingale property through independent summation paths,
on the full grid, before claiming viability.  A failing
verdict names, as its ``stage``, the check row where it stopped; the row is
set where the failure is found.  Every failure is one ``FailureWitness``,
and one found inside the base structure solve raises ``CheckFailed``; both
come from ``calculus`` and are re-exported here with the verdict statuses.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from itertools import repeat

from .calculus import (
    ASSUMPTION_VIOLATED,
    NON_VIABLE,
    CheckFailed,
    Decomposition,
    FailureWitness,
    bracket,
    centred,
    compensator,
    doob_decompose,
    integrate,
    is_martingale,
    mismatch_witness,
    pred_bracket,
    solve_moments,
    stoch_exp,
)
from .enlarge import DriftGauge, drift_operator, expanded_martingale
from .jumpkernel import CoercivityFailure, Site, SiteChild, solve_site
from .mrp import Driver
from .space import (
    Filtration,
    Process,
    all_entries,
    entries_equal,
    first_failing,
    is_adapted,
)

VIABLE = "viable"


class ViabilityError(ValueError):
    """Malformed market or pipeline inputs."""


@dataclass(frozen=True, eq=False)
class Market:
    """Discounted positive prices S with their flow and Doob decomposition;
    S is kept on the flow's atoms."""

    S: Process
    F: Filtration
    decomposition: Decomposition = field(init=False)

    def __post_init__(self) -> None:
        if self.S.horizon != self.F.horizon:
            raise ViabilityError("price horizon must match the flow horizon")
        if not is_adapted(self.S, self.F):
            raise ViabilityError("prices must be adapted to the base flow")
        miss = first_failing(self.S, lambda cols, den: all_entries(operator.gt, cols, 0))
        if miss is not None:
            o, t = self.S.space.outcomes[miss[0]], miss[1]
            raise ViabilityError(f"price must stay positive (outcome {o}, t={t})")
        object.__setattr__(self, "S", self.S.refined(self.F))
        object.__setattr__(self, "decomposition", doob_decompose(self.S, self.F))

    @property
    def space(self):
        return self.S.space

    @property
    def k(self) -> int:
        return self.S.dim

    @property
    def martingale_part(self) -> Process:
        return self.decomposition.martingale_part

    @property
    def drift_part(self) -> Process:
        return self.decomposition.predictable_part


@dataclass(frozen=True, eq=False)
class StructureSolution:
    """A solved structure condition: coefficients, martingale, deflator."""

    driver_coefficients: Process
    martingale: Process
    deflator: Process


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of the viability pipeline.  ``stage`` names the check row
    where it stopped, one of ``cli._CHECK_NAMES`` (None when viable)."""

    status: str
    witness: FailureWitness | None = None
    solution: StructureSolution | None = None
    stage: str | None = None


def _exponentiate(coefficients: Process, integrator: Process, flow: Filtration) -> tuple:
    """(solution, None) with Y = coefficients . integrator and the deflator
    ``stoch_exp(-Y)``, or (None, the "jump-bound" witness on the time-t
    atom of ``flow`` of the first jump dY >= 1 in outcome-major order)."""
    Y = integrate(coefficients, integrator)
    miss = first_failing(Y, lambda cols, den: map(operator.lt, cols[0], repeat(den)),
                         increments=True)
    if miss is not None:
        t = miss[1]
        atom = flow.at(t).atom_of(Y.space.outcomes[miss[0]])
        jump = Y.increments.at(atom[0], t)[0]
        return None, FailureWitness("jump-bound", t, atom, jump)
    return StructureSolution(coefficients, Y, stoch_exp(-Y)), None


def solve_structure_F(market: Market, driver: Driver) -> StructureSolution:
    """Base-flow structure condition: find D with [D, M_i] drift = price drift.

    Solves E[dM dW^T | atom] . dbar = dS_drift per (time, atom) for the
    driver coefficients dbar (``calculus.solve_moments``), and requires
    D = dbar . W to jump by dD < 1 everywhere, so the deflator
    ``stoch_exp(-D)`` stays strictly positive (``_exponentiate``).  Raises
    CheckFailed, non-viable at the ``base-structure-solve`` row, with a
    residual witness on inconsistency or with the first offending jump, in
    outcome-major order, otherwise.
    """
    F = market.F
    dbar = solve_moments(market.martingale_part, driver.W, market.drift_part.increments, F, F,
                         (NON_VIABLE, "drift-not-spanned", "base-structure-solve"))
    solution, witness = _exponentiate(dbar, driver.W, F)
    if witness is not None:
        raise CheckFailed(NON_VIABLE, witness, "base-structure-solve")
    return solution


def verify_deflator(deflator: Process, market: Market, filtration: Filtration):
    """Deflated-martingale battery: the deflator itself and each deflated
    asset.  Returns None, or the first failure's witness."""
    eq = entries_equal(market.space.arith)
    # A time-0 value equal to 1 is positive, so the first failing cell is a
    # start failure exactly when it sits at t = 0.
    miss = first_failing(deflator, lambda cols, den: map(operator.gt, cols[0], repeat(0)),
                         start=lambda cols, den: map(eq, cols[0], repeat(den)))
    if miss is not None:
        o, t = market.space.outcomes[miss[0]], miss[1]
        reason = "deflator-start" if t == 0 else "deflator-not-positive"
        return FailureWitness(reason, t, (o,), deflator.at(o, t)[0])
    witness = is_martingale(deflator, filtration)
    if witness is not None:
        return replace(witness, reason="deflator-drifts")
    for i in range(market.k):
        witness = is_martingale(deflator.times(market.S.component(i)), filtration)
        if witness is not None:
            return replace(witness, reason=f"deflated-asset-{i}")
    return None


def price_drift_rhs(market: Market, D: Process, gauge: DriftGauge) -> Process:
    """Right side of the expanded-flow drift identity for the prices.

    Increment-wise: d[D, M_i]^(base-p) + phi . d[N, M_i]^(base-p) per asset
    (``enlarge.drift_operator``).  This must equal the expanded-flow drift
    of S; ``solve_structure_G`` re-checks it against a direct compensator
    computation, so a stale or inconsistent gauge yields a verification
    mismatch instead of propagating.
    """
    F, M = market.F, market.martingale_part
    return pred_bracket(D, M, F) + drift_operator(gauge.phi, gauge.N, M, F)


def _site_inputs(processes, t: int, part, transition) -> list:
    """(p, dW, dN, dD) for each child of a base-flow transition, an atom
    of ``part``: its conditional probability and the time-t increments of
    the driver, the carrier and D, the three ``processes``."""
    kids = [c for c, _ in transition]
    return list(zip((p for _, p in transition),
                    *(X.on_atoms(t, part, kids, increments=True) for X in processes)))


def _build_site(market: Market, d: int, phi, inputs) -> Site:
    """Accessible site for one (time, expanded atom) with a d-dimensional
    driver: base-flow child probabilities, driver jumps, gauge tilts through
    the atom's integrand ``phi``, and structure-martingale deltas, from
    ``_site_inputs``."""
    arith = market.space.arith
    dot = sum if arith.exact else math.fsum  # as space._dot sums the tilt floor
    children = [SiteChild(p, dw, dot(map(operator.mul, phi, dn)), dd[0])
                for p, dw, dn, dd in inputs]
    return Site(d, tuple(children), True, arith)


def solve_structure_G(market: Market, gauge: DriftGauge,
                      base_solution: StructureSolution,
                      enforce_assumptions: bool = True) -> Verdict:
    """Expanded-flow structure condition, solved through the jump sites.

    The enlargement, the driver W and its drift come from the gauge, and D
    from ``base_solution``, the market's ``solve_structure_F``.  Pipeline:
    assumption gate (support condition and positive tilt floor, read from
    the gauge's witnesses), one accessible site per (time, expanded atom),
    solved once per distinct site value within this call, the jump rows of
    the solves (the first bad row reported once every site has solved),
    assembly of Y = K . (W - drift W), its jump bound, deflator, then two
    independent verifications -- the drift identity for the prices and the
    deflated martingale battery.  A verification mismatch is reported as
    non-viable with reason "verification-mismatch"; it indicates a bug, not
    a market.  M's drift left uncentred by float rounding fails the
    price-drift-identity row ("drift-not-centred", from ``enlarge.drift``).  A failing verdict's ``stage`` names the check row it fails.

    ``enforce_assumptions=False`` skips the gate so the downstream failure
    mode of a bad enlargement (infeasible sites) can be observed directly.
    """
    pair, W = gauge.pair, gauge.W
    if pair.base.partitions != market.F.partitions:  # one partition object per time
        raise ViabilityError("the enlargement must extend the market flow")
    G = pair.expanded
    D = base_solution.martingale
    if enforce_assumptions:
        if gauge.support_witness is not None:
            return Verdict(ASSUMPTION_VIOLATED, gauge.support_witness,
                           stage="support-condition")
        if gauge.tilt_witness is not None:
            return Verdict(ASSUMPTION_VIOLATED, gauge.tilt_witness,
                           stage="tilt-floor-positive")
    jump_witness = None
    # One solve per distinct site value, for this call only, keyed by the
    # value keys of phi and of the base transition's (p, dW, dN, dD), the
    # latter numbered once (``base_ids``), each time's keys one column over
    # its expanded atoms, solved in order of first appearance; the site is
    # built on a miss alone.  A site that fails returns at once, so a
    # repeat only ever reuses a feasible solve whose bad jump row, if any,
    # is already the witness.
    keys, solved, base_ids = [], {}, {}
    F, processes = market.F, (W, gauge.N, D)
    for t in range(1, G.horizon + 1):
        g_part = G.at(t - 1)
        # The value key of each base atom's transition inputs, from the keys
        # of each increments layer on the time-t base atoms, taken once.
        kids = F.children(t)
        rows = zip(F.transition_keys(t), *(
            map(tuple, map(map, repeat(X.value_keys(t, F.at(t), increments=True).__getitem__),
                           kids)) for X in processes))
        base = [base_ids.setdefault(row, len(base_ids)) for row in rows]
        up = g_part.parents(F.at(t - 1))
        ks = tuple(zip(gauge.phi.value_keys(t, g_part), map(base.__getitem__, up)))
        keys.append(ks)
        first = dict(zip(reversed(ks), range(len(ks) - 1, -1, -1)))  # the first one wins
        for idx in sorted(first.values()):  # each distinct site at its first atom
            if ks[idx] in solved:
                continue
            (phi,) = gauge.phi.on_atoms(t, g_part, [idx])
            inputs = _site_inputs(processes, t, F.at(t), F.transition(t, up[idx]))
            try:
                solve = solve_site(_build_site(market, W.dim, phi, inputs))
            except CoercivityFailure as err:
                return Verdict(NON_VIABLE,
                               FailureWitness("site-coercivity", t, g_part.atoms[idx], str(err)),
                               stage="site-solves-feasible")
            if not solve.feasible:
                return Verdict(NON_VIABLE,
                               FailureWitness("site-infeasible", t, g_part.atoms[idx],
                                              solve.residual),
                               stage="site-solves-feasible")
            bad = next((r for r in solve.rows if not r.ok), None)
            if jump_witness is None and bad is not None:
                jump_witness = FailureWitness("jump-bound", t, g_part.atoms[idx], bad)
            solved[ks[idx]] = solve.solution
    # A bad jump row is reported only once every site has solved.
    if jump_witness is not None:
        return Verdict(NON_VIABLE, jump_witness, stage="jump-bound")
    kbar = Process.keyed(G, keys, solved, W.dim)
    solution, witness = _exponentiate(kbar, gauge.W_martingale, G)
    if witness is not None:
        return Verdict(NON_VIABLE, witness, stage="jump-bound")
    # The drift identity, checked first for the prices' own expanded-flow
    # drift, then for the bracket of Y against the expanded martingale part.
    rhs = price_drift_rhs(market, D, gauge)
    try:
        M_tilde = expanded_martingale(market.martingale_part, pair)
    except CheckFailed as err:
        return Verdict(err.status, err.witness, solution, stage=err.stage)
    for lhs in (compensator(centred(market.S), G),
                compensator(bracket(solution.martingale, M_tilde), G)):
        witness = mismatch_witness(lhs, rhs, G)
        if witness is not None:
            return Verdict(NON_VIABLE, witness, solution, stage="price-drift-identity")
    witness = verify_deflator(solution.deflator, market, G)
    if witness is not None:
        return Verdict(NON_VIABLE, witness, solution, stage="expanded-deflator-battery")
    return Verdict(VIABLE, None, solution)
