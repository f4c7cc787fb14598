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

from . import linalg
from .calculus import (
    Decomposition,
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
from .jumpkernel import CoercivityFailure, PsdSolve, Site, SiteChild, check_jump_bound, solve_site
from .mrp import Driver
from .space import (
    EnlargementPair,
    Filtration,
    Process,
    first_failing,
    first_mismatch,
    is_adapted,
)

VIABLE = "viable"
NON_VIABLE = "non-viable"
ASSUMPTION_VIOLATED = "assumption-violated"


class ViabilityError(ValueError):
    """Malformed market or pipeline inputs."""


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
        miss = first_failing(self.S, lambda v: all(x > 0 for x in v))
        if miss is not None:
            o, t = self.S.space.outcomes[miss[0]], miss[1]
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
class StructureSolution:
    """A solved structure condition: coefficients, martingale, deflator."""

    driver_coefficients: Process
    martingale: Process
    deflator: Process
    diagnostics: tuple = ()


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of the expanded-flow pipeline."""

    status: str
    witness: FailureWitness | None = None
    solution: StructureSolution | None = None


@dataclass(frozen=True)
class SiteRecord:
    """Per-(time, expanded atom) jump-site solve diagnostics."""

    t: int
    atom: tuple[str, ...]
    base_atom: tuple[str, ...]
    site: Site
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
    M, W = market.martingale_part, driver.W
    k, d = market.k, driver.d
    table = {}
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
            coeffs, residual = linalg.lstsq_min_norm(Q, target, arith)
            if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([target])):
                raise NonViable(FailureWitness("drift-not-spanned", t, atom,
                                               tuple(residual)))
            table[(t, idx)] = tuple(coeffs)
    dbar = Process.predictable(F, table, d)
    D = integrate(dbar, W)
    for t in range(1, F.horizon + 1):
        atoms = F.at(t).atoms
        for atom, (jump,) in zip(atoms, D.on_atoms(t, atoms, increments=True)):
            if not jump < 1:
                raise NonViable(FailureWitness("jump-bound", t, atom, jump))
    deflator = stoch_exp(-D)
    return StructureSolution(dbar, D, deflator)


def verify_deflator(deflator: Process, market: Market, filtration: Filtration):
    """Deflated-martingale battery: the deflator itself and each deflated
    asset.  Returns (ok, witness)."""
    arith = market.space.arith
    # A time-0 value equal to 1 is positive, so the first failing cell is a
    # start failure exactly when it sits at t = 0.
    miss = first_failing(deflator, lambda v: v[0] > 0, start=lambda v: arith.eq(v[0], 1))
    if miss is not None:
        o, t = market.space.outcomes[miss[0]], miss[1]
        reason = "deflator-start" if t == 0 else "deflator-not-positive"
        return False, FailureWitness(reason, t, (o,), deflator.at(o, t)[0])
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
    return True, None


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
    return sum_steps(lambda dd, dn, ph: tuple(
        dd[i] + sum((ph[j] * dn[j * k + i] for j in range(n)), 0) for i in range(k)),
        k, (pb_d, pb_n), (gauge.phi,))


def _build_site(market: Market, driver: Driver, phi, processes, t: int,
                transition) -> Site:
    """Accessible site for one (time, expanded atom): base-flow child
    probabilities, driver jumps, gauge tilts through the atom's integrand
    ``phi``, and structure-martingale deltas.  ``processes`` holds the
    driver, the carrier and D, read by their time-t increments."""
    kids = [child for child, _ in transition]
    dW, dN, dD = (X.on_atoms(t, kids, increments=True) for X in processes)
    children = [SiteChild(p, dw, sum((a * b for a, b in zip(phi, dn)), 0), dd[0])
                for (_, p), dw, dn, dd in zip(transition, dW, dN, dD)]
    return Site(driver.d, tuple(children), True, market.space.arith)


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
        transitions = market.F.transitions(t)
        for idx, (g_atom, phi, k) in enumerate(zip(
                g_part.atoms, gauge.phi.on_atoms(t, g_part.atoms),
                g_part.parents(market.F.at(t - 1)))):
            _, base_atom, transition = transitions[k]
            site = _build_site(market, driver, phi, (W, gauge.N, D), t, transition)
            try:
                solve = solve_site(site)
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
    miss = first_failing(Y, lambda v: v[0] < 1, increments=True)
    if miss is not None:
        t = miss[1]
        atom = G.at(t).atom_of(space.outcomes[miss[0]])
        jump = Y.on_atoms(t, [atom], increments=True)[0][0]
        return Verdict(NON_VIABLE, FailureWitness("jump-bound", t, atom, jump))
    deflator = stoch_exp(-Y)
    solution = StructureSolution(kbar, Y, deflator, tuple(records))
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
                           solution)
    ok, witness = verify_deflator(deflator, market, G)
    if not ok:
        return Verdict(NON_VIABLE, witness, solution)
    return Verdict(VIABLE, None, solution)
