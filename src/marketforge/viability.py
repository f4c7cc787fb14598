"""Market structure conditions and deflators, in the base and expanded flows.

The base-flow solve finds a scalar martingale D with the price drift equal
to the predictable covariation of D against each price martingale part, and
builds the deflator as the stochastic exponential of -D.  The expanded-flow
pipeline rebuilds the same object under an enlargement: it assembles one
accessible jump site per (time, expanded atom) -- child probabilities from
the base flow's transitions, tilts from the drift gauge, deltas from D --
solves each site for the integrand K, and exponentiates Y = K . (W - drift W)
with the enlargement, W and its drift read from the gauge.  Each site is
solved once per distinct site value within one call: its ``solve_site``
record carries the integrand and the per-child jump rows, and the pipeline
reads the jump bound from those rows.  The base-atom solves likewise run
once per distinct operand value within one call.  Every verdict re-verifies
the drift identity and the deflated-martingale property through independent
summation paths, on the full grid, before claiming viability.  A failing
verdict names, as its ``stage``, the check row where it stopped; the row is
set where the failure is found.  Every failure is one ``FailureWitness``,
and one found inside the base structure solve raises ``CheckFailed``; both
come from ``calculus`` and are re-exported here with the verdict statuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import linalg
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
    pred_bracket,
    stoch_exp,
    sum_steps,
)
from .enlarge import DriftGauge, drift
from .jumpkernel import CoercivityFailure, Site, SiteChild, solve_site
from .mrp import Driver
from .space import (
    Filtration,
    Process,
    first_failing,
    first_mismatch,
    is_adapted,
    value_key,
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
        miss = first_failing(self.S, lambda v: all(x > 0 for x in v))
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


def solve_structure_F(market: Market, driver: Driver) -> StructureSolution:
    """Base-flow structure condition: find D with [D, M_i] drift = price drift.

    Solves, per (time, atom), the linear system
    E[dM dW^T | atom] . dbar = dS_drift for the driver coefficients dbar
    (minimum-norm on the row space), assembles D as the integral of dbar
    against the driver, and requires dD < 1 everywhere so the deflator
    ``stoch_exp(-D)`` stays strictly positive.  Raises CheckFailed,
    non-viable at the ``base-structure-solve`` row, with a residual witness
    on inconsistency or with the offending jump otherwise.
    """
    F = market.F
    arith = market.space.arith
    M, W = market.martingale_part, driver.W
    k, d = market.k, driver.d
    table = {}
    solved = {}  # one solve per distinct (Q, target) value, for this call only
    for t in range(1, F.horizon + 1):
        targets = market.drift_part.on_atoms(t, F.at(t - 1).atoms, increments=True)
        for idx, atom, children in F.transitions(t):
            kids = [child for child, _ in children]
            Q = [[0] * d for _ in range(k)]
            for (_, p), dm, dw in zip(children, M.on_atoms(t, kids, increments=True),
                                      W.on_atoms(t, kids, increments=True)):
                for i in range(k):
                    for j in range(d):
                        Q[i][j] += p * dm[i] * dw[j]
            target = list(targets[idx])
            key = value_key(*Q, target)
            if key not in solved:
                coeffs, residual = linalg.lstsq_min_norm(Q, target, arith)
                if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([target])):
                    raise CheckFailed(NON_VIABLE, FailureWitness(
                        "drift-not-spanned", t, atom, tuple(residual)), "base-structure-solve")
                solved[key] = tuple(coeffs)
            table[(t, idx)] = solved[key]
    dbar = Process.predictable(F, table, d)
    D = integrate(dbar, W)
    for t in range(1, F.horizon + 1):
        atoms = F.at(t).atoms
        for atom, (jump,) in zip(atoms, D.on_atoms(t, atoms, increments=True)):
            if not jump < 1:
                raise CheckFailed(NON_VIABLE, FailureWitness("jump-bound", t, atom, jump),
                                  "base-structure-solve")
    deflator = stoch_exp(-D)
    return StructureSolution(dbar, D, deflator)


def verify_deflator(deflator: Process, market: Market, filtration: Filtration):
    """Deflated-martingale battery: the deflator itself and each deflated
    asset.  Returns None, or the first failure's witness."""
    arith = market.space.arith
    # A time-0 value equal to 1 is positive, so the first failing cell is a
    # start failure exactly when it sits at t = 0.
    miss = first_failing(deflator, lambda v: v[0] > 0, start=lambda v: arith.eq(v[0], 1))
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

    Increment-wise: d[D, M_i]^(base-p) + phi . d[N, M_i]^(base-p) per asset.
    This must equal the expanded-flow drift of S; ``solve_structure_G``
    re-checks it against a direct compensator computation, so a stale or
    inconsistent gauge yields a verification mismatch instead of propagating.
    """
    F = market.F
    M = market.martingale_part
    k = market.k
    n = gauge.N.dim
    pb_d = pred_bracket(D, M, F)          # components [D, M_i]
    pb_n = pred_bracket(gauge.N, M, F)    # flat (n, k): j * k + i
    return sum_steps(lambda dn, ph: tuple(
        sum((ph[j] * dn[j * k + i] for j in range(n)), 0) for i in range(k)),
        k, (pb_n,), (gauge.phi,), plus=pb_d)


def _site_inputs(processes, t: int, transition) -> list:
    """(p, dW, dN, dD) for each child of a base-flow transition: its
    conditional probability and the time-t increments of the driver, the
    carrier and D, the three ``processes``."""
    kids = [child for child, _ in transition]
    return list(zip((p for _, p in transition),
                    *(X.on_atoms(t, kids, increments=True) for X in processes)))


def _build_site(market: Market, d: int, phi, inputs) -> Site:
    """Accessible site for one (time, expanded atom) with a d-dimensional
    driver: base-flow child probabilities, driver jumps, gauge tilts through
    the atom's integrand ``phi``, and structure-martingale deltas, from
    ``_site_inputs``."""
    children = [SiteChild(p, dw, sum((a * b for a, b in zip(phi, dn)), 0), dd[0])
                for p, dw, dn, dd in inputs]
    return Site(d, tuple(children), True, market.space.arith)


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
    a market.  A failing verdict's ``stage`` names the check row it fails.

    ``enforce_assumptions=False`` skips the gate so the downstream failure
    mode of a bad enlargement (infeasible sites) can be observed directly.
    """
    pair, W = gauge.pair, gauge.W
    if [p.atoms for p in pair.base.partitions] != [p.atoms for p in market.F.partitions]:
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
    table = {}
    jump_witness = None
    # One solve per distinct site value, for this call only.  A site that
    # fails returns at once, so a repeat only ever reuses a feasible solve
    # whose bad jump row, if any, is already the witness.
    solved = {}
    for t in range(1, G.horizon + 1):
        g_part = G.at(t - 1)
        transitions = market.F.transitions(t)
        for idx, (g_atom, phi, k) in enumerate(zip(
                g_part.atoms, gauge.phi.on_atoms(t, g_part.atoms),
                g_part.parents(market.F.at(t - 1)))):
            _, _, transition = transitions[k]
            inputs = _site_inputs((W, gauge.N, D), t, transition)
            key = value_key(phi, *((p, *dw, *dn, *dd) for p, dw, dn, dd in inputs))
            if key not in solved:
                try:
                    solve = solve_site(_build_site(market, W.dim, phi, inputs))
                except CoercivityFailure as err:
                    return Verdict(NON_VIABLE,
                                   FailureWitness("site-coercivity", t, g_atom,
                                                  str(err)),
                                   stage="site-solves-feasible")
                if not solve.feasible:
                    return Verdict(NON_VIABLE,
                                   FailureWitness("site-infeasible", t, g_atom,
                                                  solve.residual),
                                   stage="site-solves-feasible")
                bad = next((r for r in solve.rows if not r.ok), None)
                if jump_witness is None and bad is not None:
                    jump_witness = FailureWitness("jump-bound", t, g_atom, bad)
                solved[key] = solve
            table[(t, idx)] = solved[key].solution
    # A bad jump row is reported only once every site has solved.
    if jump_witness is not None:
        return Verdict(NON_VIABLE, jump_witness, stage="jump-bound")
    kbar = Process.predictable(G, table, W.dim)
    W_tilde = W - gauge.W_drift
    Y = integrate(kbar, W_tilde)
    miss = first_failing(Y, lambda v: v[0] < 1, increments=True)
    if miss is not None:
        t = miss[1]
        atom = G.at(t).atom_of(market.space.outcomes[miss[0]])
        jump = Y.on_atoms(t, [atom], increments=True)[0][0]
        return Verdict(NON_VIABLE, FailureWitness("jump-bound", t, atom, jump),
                       stage="jump-bound")
    deflator = stoch_exp(-Y)
    solution = StructureSolution(kbar, Y, deflator)
    # The drift identity, checked first for the prices' own expanded-flow
    # drift, then for the bracket of Y against the expanded martingale part.
    rhs = price_drift_rhs(market, D, gauge)
    M_tilde = market.martingale_part - drift(market.martingale_part, pair)
    for lhs in (compensator(centred(market.S), G),
                compensator(bracket(Y, M_tilde), G)):
        miss = first_mismatch(lhs, rhs)
        if miss is not None:
            o, t, a, b = miss
            return Verdict(NON_VIABLE,
                           FailureWitness("verification-mismatch", t,
                                          G.at(t).atom_of(o), (a, b)),
                           solution, stage="price-drift-identity")
    witness = verify_deflator(deflator, market, G)
    if witness is not None:
        return Verdict(NON_VIABLE, witness, solution, stage="expanded-deflator-battery")
    return Verdict(VIABLE, None, solution)
