"""Market structure conditions and deflators, in the base and expanded flows.

The base-flow solve finds a scalar martingale D with the price drift equal
to the predictable covariation of D against each price martingale part, and
builds the deflator as the stochastic exponential of -D.  The expanded-flow
pipeline rebuilds the same object under an enlargement: it assembles one
accessible jump site per (time, expanded atom) -- child probabilities from
the base flow's transitions, tilts from the drift gauge, deltas from D --
solves each site for the integrand K, and exponentiates Y = K . (W - drift W)
with the drift of W kept by the gauge.  Every verdict
re-verifies the drift identity and the deflated-martingale property through
independent summation paths before claiming viability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import linalg
from .calculus import (
    Decomposition,
    accumulate,
    bracket,
    centred,
    compensator,
    doob_decompose,
    integrate,
    is_martingale,
    pred_bracket,
    stoch_exp,
)
from .enlarge import DriftGauge, drift
from .jumpkernel import AccessibleSite, CoercivityFailure, PsdSolve, SiteChild, xi_accessible, check_jump_bound
from .mrp import Driver
from .space import (
    PREDICTABLE,
    EnlargementPair,
    Filtration,
    Process,
    first_mismatch,
    is_adapted,
)

VIABLE = "viable"
NON_VIABLE = "non-viable"
ASSUMPTION_VIOLATED = "assumption-violated"


class ViabilityError(ValueError):
    """Malformed market, strategy, or pipeline inputs."""


@dataclass(frozen=True)
class FailureWitness:
    """Where and why a solve or check failed."""

    reason: str
    t: int | None = None
    atom: tuple[str, ...] | None = None
    detail: object = None


class NonViable(Exception):
    """The structure condition has no solution along this construction path."""

    def __init__(self, witness: FailureWitness):
        super().__init__(f"{witness.reason} at t={witness.t}, atom={witness.atom}")
        self.witness = witness


@dataclass(frozen=True, eq=False)
class Market:
    """Discounted positive prices S with their flow and Doob decomposition."""

    S: Process
    F: Filtration
    decomposition: Decomposition = field(init=False)

    def __post_init__(self) -> None:
        if self.S.horizon != self.F.horizon:
            raise ViabilityError("price horizon must match the flow horizon")
        if not is_adapted(self.S, self.F):
            raise ViabilityError("prices must be adapted to the base flow")
        for o in self.S.space.outcomes:
            for t in range(self.S.horizon + 1):
                if not all(v > 0 for v in self.S.at(o, t)):
                    raise ViabilityError(f"price must stay positive (outcome {o}, t={t})")
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
class Strategy:
    """Initial capital plus a predictable holding in each asset."""

    x: object
    H: Process

    def __post_init__(self) -> None:
        if self.x < 0:
            raise ViabilityError("initial capital must be nonnegative")
        if self.H.flavor != PREDICTABLE:
            raise ViabilityError("holdings must be a predictable process")


def wealth(strategy: Strategy, market: Market) -> Process:
    """Self-financing wealth x + (H . S)."""
    if strategy.H.dim != market.k:
        raise ViabilityError("holding dimension must match the asset count")
    return integrate(strategy.H, market.S).shift(strategy.x)


def admissible(strategy: Strategy, market: Market) -> bool:
    """Wealth stays nonnegative on every outcome and date."""
    V = wealth(strategy, market)
    arith = market.space.arith
    return all(
        arith.nonneg(V.value(o, t), scale=1)
        for o in market.space.outcomes
        for t in range(V.horizon + 1)
    )


@dataclass(frozen=True, eq=False)
class StructureSolution:
    """A solved structure condition: coefficients, martingale, deflator."""

    driver_coefficients: Process
    martingale: Process
    deflator: Process
    jump_bound_ok: bool
    diagnostics: tuple


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of the expanded-flow pipeline."""

    status: str
    witness: FailureWitness | None = None
    solution: StructureSolution | None = None


@dataclass(frozen=True)
class FSolveRecord:
    """Per-(time, atom) base-flow solve diagnostics."""

    t: int
    atom: tuple[str, ...]
    coefficients: tuple
    residual: tuple


@dataclass(frozen=True)
class SiteRecord:
    """Per-(time, expanded atom) jump-site solve diagnostics."""

    t: int
    atom: tuple[str, ...]
    base_atom: tuple[str, ...]
    site: AccessibleSite
    solve: PsdSolve


def solve_structure_F(market: Market, driver: Driver) -> StructureSolution:
    """Base-flow structure condition: find D with [D, M_i] drift = price drift.

    Solves, per (time, atom), the linear system
    E[dM dW^T | atom] . dbar = dS_drift for the driver coefficients dbar
    (minimum-norm on the row space), assembles D as the integral of dbar
    against the driver, and requires dD < 1 everywhere so the deflator
    ``stoch_exp(-D)`` stays strictly positive.  Raises NonViable with a
    residual witness on inconsistency or with the offending jump otherwise.
    """
    F = market.F
    arith = market.space.arith
    W = driver.W
    M = market.martingale_part
    Sv = market.drift_part
    k, d = market.k, driver.d
    table = {}
    records = []
    for t in range(1, F.horizon + 1):
        for idx, atom, children in F.transitions(t):
            Q = [[0] * d for _ in range(k)]
            for child, p in children:
                dm = M.delta(child[0], t)
                dw = W.delta(child[0], t)
                for i in range(k):
                    for j in range(d):
                        Q[i][j] += p * dm[i] * dw[j]
            target = list(Sv.delta(atom[0], t))
            coeffs, residual = linalg.lstsq_min_norm(Q, target, arith)
            if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([target])):
                raise NonViable(FailureWitness("drift-not-spanned", t, atom,
                                               tuple(residual)))
            table[(t, idx)] = tuple(coeffs)
            records.append(FSolveRecord(t, atom, tuple(coeffs), tuple(residual)))
    dbar = Process.predictable(F, table, d)
    D = integrate(dbar, W)
    for t in range(1, F.horizon + 1):
        for atom in F.at(t).atoms:
            jump = D.delta(atom[0], t)[0]
            if not jump < 1:
                raise NonViable(FailureWitness("jump-bound", t, atom, jump))
    deflator = stoch_exp(-D)
    return StructureSolution(dbar, D, deflator, True, tuple(records))


def verify_deflator(deflator: Process, market: Market, filtration: Filtration,
                    strategies: Sequence[Strategy] = ()):
    """Deflated-martingale battery: the deflator itself, each deflated asset,
    and each supplied strategy's deflated wealth.  Returns (ok, witness)."""
    arith = market.space.arith
    for o in market.space.outcomes:
        if not arith.eq(deflator.value(o, 0), 1):
            return False, FailureWitness("deflator-start", 0, (o,),
                                         deflator.value(o, 0))
        for t in range(deflator.horizon + 1):
            if not deflator.value(o, t) > 0:
                return False, FailureWitness("deflator-not-positive", t, (o,),
                                             deflator.value(o, t))
    ok, witness = is_martingale(deflator, filtration)
    if not ok:
        return False, FailureWitness("deflator-drifts", witness.t, witness.atom,
                                     witness.residual)
    for i in range(market.k):
        ok, witness = is_martingale(deflator.times(market.S.component(i)),
                                    filtration)
        if not ok:
            return False, FailureWitness(f"deflated-asset-{i}", witness.t,
                                         witness.atom, witness.residual)
    for n, strategy in enumerate(strategies):
        ok, witness = is_martingale(deflator.times(wealth(strategy, market)),
                                    filtration)
        if not ok:
            return False, FailureWitness(f"deflated-wealth-{n}", witness.t,
                                         witness.atom, witness.residual)
    return True, None


def price_drift_rhs(market: Market, D: Process, gauge: DriftGauge) -> Process:
    """Right side of the expanded-flow drift identity for the prices.

    Increment-wise: d[D, M_i]^(base-p) + phi . d[N, M_i]^(base-p) per asset.
    This must equal the expanded-flow drift of S; the identity is re-checked
    here against a direct compensator computation, so a stale or inconsistent
    gauge fails loudly instead of propagating.
    """
    F = market.F
    M = market.martingale_part
    k = market.k
    n = gauge.N.dim
    pb_d = pred_bracket(D, M, F)          # components [D, M_i]
    pb_n = pred_bracket(gauge.N, M, F)    # flat (n, k): j * k + i
    outcomes = market.space.outcomes
    columns = (
        [tuple(dd[i] + sum((ph[j] * dn[j * k + i] for j in range(n)), 0) for i in range(k))
         for dd, dn, ph in zip(cd, cn, [gauge.phi.at(o, t) for o in outcomes])]
        for t, (cd, cn) in enumerate(zip(pb_d.increments(), pb_n.increments()), 1))
    rhs = accumulate(market.space, columns, k, PREDICTABLE)
    observed = compensator(centred(market.S), gauge.pair.expanded)
    if first_mismatch(rhs, observed) is not None:
        raise AssertionError("gauge does not reproduce the expanded-flow price drift")
    return rhs


def _build_site(market: Market, driver: Driver, gauge: DriftGauge,
                D: Process, t: int, g_atom, transition) -> AccessibleSite:
    """Accessible site for one (time, expanded atom): base-flow child
    probabilities, driver jumps, gauge tilts, structure-martingale deltas."""
    phi = gauge.phi.at(g_atom[0], t)
    children = []
    for child, p in transition:
        w = driver.W.delta(child[0], t)
        dn = gauge.N.delta(child[0], t)
        nu = sum((a * b for a, b in zip(phi, dn)), 0)
        delta = D.delta(child[0], t)[0]
        children.append(SiteChild(p, w, nu, delta))
    return AccessibleSite(driver.d, tuple(children), arith=market.space.arith)


def solve_structure_G(market: Market, pair: EnlargementPair, gauge: DriftGauge,
                      driver: Driver, base_solution: StructureSolution | None = None,
                      enforce_assumptions: bool = True) -> Verdict:
    """Expanded-flow structure condition, solved through the jump sites.

    Pipeline: assumption gate (support condition and positive tilt floor),
    one accessible-site solve per (time, expanded atom), assembly of
    Y = K . (W - drift W), jump bound, deflator, then two independent
    verifications -- the drift identity for the prices and the deflated
    martingale battery.  A verification mismatch is reported as non-viable
    with reason "verification-mismatch"; it indicates a bug, not a market.

    ``enforce_assumptions=False`` skips the gate so the downstream failure
    mode of a bad enlargement (infeasible sites) can be observed directly.
    """
    if pair.base is not market.F:
        if pair.base.partitions != market.F.partitions:
            raise ViabilityError("the enlargement must extend the market flow")
    if gauge.pair is not pair:
        if gauge.pair.expanded.partitions != pair.expanded.partitions:
            raise ViabilityError("the gauge was solved for another expanded flow")
    W = driver.W
    if gauge.W is not W:
        if (gauge.W.space, gauge.W.horizon, gauge.W.dim) != (W.space, W.horizon, W.dim) \
                or first_mismatch(gauge.W, W) is not None:
            raise ViabilityError("the gauge was solved for another driver")
    G = pair.expanded
    space = market.space
    if base_solution is None:
        base_solution = solve_structure_F(market, driver)
    D = base_solution.martingale
    if enforce_assumptions:
        support_witness = gauge.support_witness
        if support_witness is not None:
            return Verdict(ASSUMPTION_VIOLATED,
                           FailureWitness("support", support_witness.t,
                                          support_witness.child,
                                          support_witness))
        if not gauge.u_positive:
            for t in range(1, G.horizon + 1):
                for atom in G.at(t - 1).atoms:
                    u = gauge.u.value(atom[0], t)
                    if not u > 0:
                        return Verdict(ASSUMPTION_VIOLATED,
                                       FailureWitness("tilt-floor", t, atom, u))
    table = {}
    records = []
    for t in range(1, G.horizon + 1):
        g_part = G.at(t - 1)
        steps = market.F.transitions(t)
        for idx, (g_atom, k) in enumerate(zip(g_part.atoms,
                                              g_part.parents(market.F.at(t - 1)))):
            _, base_atom, transition = steps[k]
            site = _build_site(market, driver, gauge, D, t, g_atom, transition)
            try:
                solve = xi_accessible(site)
            except CoercivityFailure as err:
                return Verdict(NON_VIABLE,
                               FailureWitness("site-coercivity", t, g_atom,
                                              str(err)))
            if not solve.feasible:
                return Verdict(NON_VIABLE,
                               FailureWitness("site-infeasible", t, g_atom,
                                              solve.residual))
            records.append(SiteRecord(t, g_atom, base_atom, site, solve))
            table[(t, idx)] = solve.solution
    kbar = Process.predictable(G, table, driver.d)
    W_tilde = W - gauge.W_drift
    Y = integrate(kbar, W_tilde)
    for record in records:
        ok, rows = check_jump_bound(record.site, record.solve.solution)
        if not ok:
            bad = next(r for r in rows if not r.ok)
            return Verdict(NON_VIABLE,
                           FailureWitness("jump-bound", record.t, record.atom,
                                          bad))
    for o in space.outcomes:
        for t in range(1, G.horizon + 1):
            jump = Y.delta(o, t)[0]
            if not jump < 1:
                return Verdict(NON_VIABLE,
                               FailureWitness("jump-bound", t,
                                              G.at(t).atom_of(o), jump))
    deflator = stoch_exp(-Y)
    solution = StructureSolution(kbar, Y, deflator, True, tuple(records))
    rhs = price_drift_rhs(market, D, gauge)
    M_tilde = market.martingale_part - drift(market.martingale_part, pair)
    miss = first_mismatch(compensator(bracket(Y, M_tilde), G), rhs)
    if miss is not None:
        o, t, a, b = miss
        return Verdict(NON_VIABLE,
                       FailureWitness("verification-mismatch", t,
                                      G.at(t).atom_of(o), (a, b)),
                       solution)
    ok, witness = verify_deflator(deflator, market, G)
    if not ok:
        return Verdict(NON_VIABLE, witness, solution)
    return Verdict(VIABLE, None, solution)
