"""Martingale representation in a finite filtration.

A d-dimensional martingale W is a representation driver when every
martingale is a stochastic integral against it.  On a finite grid that is a
per-atom linear-algebra fact: from a time-(t-1) atom with m children, the
centered functions on the children form an (m-1)-dimensional space, so W
works exactly when its child increments span that space.  In particular a
d-dimensional driver forces the child count of every atom to be at most
d + 1, which is the dimension bound used by the checker below.

Each atom's children and their conditional probabilities come from
``Filtration.transitions``.  Coefficients are predictable and, where the
solve is underdetermined, the minimum-norm solution supported on the row
space of the child-increment matrix is chosen, which keeps results unique
and mode-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .calculus import accumulate, doob_decompose, is_martingale
from .space import (
    ADAPTED,
    Filtration,
    Process,
    RandomTime,
    SpaceError,
)


class NotRepresentable(Exception):
    """A martingale increment outside the driver's span, with its witness."""

    def __init__(self, t: int, atom: tuple[str, ...], residual):
        self.t = t
        self.atom = atom
        self.residual = residual
        super().__init__(
            f"increment at time {t} on atom {atom} is off the driver span "
            f"(residual {residual})"
        )


@dataclass(frozen=True)
class MrpWitness:
    """Where the span condition fails: the atom, its child count, the rank."""

    t: int
    atom: tuple[str, ...]
    multiplicity: int
    rank: int


@dataclass(frozen=True, eq=False)
class Driver:
    """A candidate representation martingale, validated at construction."""

    W: Process
    filtration: Filtration

    def __post_init__(self) -> None:
        arith = self.W.space.arith
        for o in self.W.space.outcomes:
            if not all(arith.is_zero(v) for v in self.W.at(o, 0)):
                raise SpaceError("driver must start at 0")
        ok, witness = is_martingale(self.W, self.filtration)
        if not ok:
            raise SpaceError(f"driver is not a martingale: {witness}")

    @property
    def d(self) -> int:
        return self.W.dim


@dataclass(frozen=True, eq=False)
class RepresentationCoefficients:
    """Predictable integrands k with transpose(k_t) dW_t = dX_t.

    ``kbar`` is (d x target_dim)-shaped; its stochastic integral against the
    driver reproduces X - X_0.
    """

    driver: Driver
    kbar: Process
    target_dim: int

    def integral(self) -> Process:
        from .calculus import integrate

        return integrate(self.kbar, self.driver.W)


def represent(X: Process, driver: Driver) -> RepresentationCoefficients:
    """Solve for predictable coefficients with transpose(k) dW = dX.

    X must be a martingale for the driver's filtration; X - X_0 is what gets
    represented.  Raises NotRepresentable with the first (time, atom)
    witness when an increment falls outside the span of the driver's child
    increments.
    """
    F = driver.filtration
    ok, witness = is_martingale(X, F)
    if not ok:
        raise SpaceError(f"representation target is not a martingale: {witness}")
    arith = X.space.arith
    d = driver.d
    k = X.dim
    values: dict[tuple[int, int], tuple] = {}
    for t in range(1, F.horizon + 1):
        for atom_idx, atom, children in F.transitions(t):
            V = [list(driver.W.delta(c[0], t)) for c, _ in children]
            dX = [X.delta(c[0], t) for c, _ in children]
            flat = [0] * (d * k)
            for i, y in enumerate(zip(*dX)):
                coeff, residual = linalg.lstsq_min_norm(V, y, arith)
                if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([y])):
                    res = residual[0] if len(residual) == 1 else tuple(residual)
                    raise NotRepresentable(t, atom, res)
                for e in range(d):
                    flat[e * k + i] = coeff[e]
            values[(t, atom_idx)] = tuple(flat)
    kbar = Process.predictable(F, values, d * k, shape=(d, k))
    return RepresentationCoefficients(driver, kbar, k)


def conditional_multiplicity(F: Filtration, t: int, atom: tuple[str, ...]) -> int:
    """Number of time-t children of a time-(t-1) atom."""
    if not 1 <= t <= F.horizon:
        raise SpaceError(f"time {t} has no transition on grid 0..{F.horizon}")
    atoms = F.at(t - 1).atoms
    if tuple(atom) not in atoms:
        raise SpaceError(f"{atom} is not a time-{t - 1} atom")
    return len(F.transitions(t)[atoms.index(tuple(atom))][2])


def check_mrp(F: Filtration, driver: Driver):
    """Does every martingale integrate against the driver?

    Checks, per (time, atom), that the driver's child increments span the
    centered functions on the children: rank of the child-increment matrix
    must be the child count minus one.  Returns (True, None) or
    (False, witness) with the first failing atom.
    """
    arith = F.space.arith
    for t in range(1, F.horizon + 1):
        for _, atom, children in F.transitions(t):
            m = len(children)
            if m == 1:
                continue
            V = [list(driver.W.delta(c[0], t)) for c, _ in children]
            r = linalg.rank(V, arith)
            if r < m - 1:
                return False, MrpWitness(t, atom, m, r)
    return True, None


def synthesize_driver(F: Filtration) -> Driver:
    """Build a minimal driver for the filtration.

    Component e jumps on the (e+1)-th child of each splitting atom: its
    increment there is the centered indicator of that child, which spans the
    centered functions with the fewest components.  The dimension is the
    largest child count minus one; a never-splitting filtration yields an
    empty (0-dimensional) driver, for which only constants are martingales.
    """
    d = max(len(children) - 1 for t in range(1, F.horizon + 1)
            for _, _, children in F.transitions(t))
    columns = [[None] * F.space.size for _ in range(F.horizon)]
    for t in range(1, F.horizon + 1):
        for _, _, children in F.transitions(t):
            probs = [p for _, p in children[:-1]]
            for m, (child, _) in enumerate(children):
                step = tuple((1 if e == m else 0) - p for e, p in enumerate(probs))
                for o in child:
                    columns[t - 1][F.space.index(o)] = step + (0,) * (d - len(probs))
    W = accumulate(F.space, columns, d, ADAPTED)
    return Driver(W, F)


def single_jump_coefficient(R: RandomTime, xi, F: Filtration,
                            driver: Driver) -> RepresentationCoefficients:
    """Representation of the compensated single jump of size xi at time R.

    R must be a predictable time ({R = t} known one step ahead) and xi a
    time-R measurable payoff.  The process xi * 1_{t >= R} minus its
    compensator is a martingale whose increment at R is
    xi - E[xi | pre-R atoms]; the returned coefficients carry exactly that
    jump against the driver.
    """
    space = F.space
    if R.space is not space:
        raise SpaceError("random time lives on a different space")
    if not _is_predictable_time(R, F):
        raise SpaceError("jump time must be predictable (announced one step ahead)")
    values = list(xi)
    if len(values) != space.size:
        raise SpaceError("payoff must have one value per outcome")
    _check_measurable_at_time(R, values, F)

    def fn(o, t):
        return values[space.index(o)] if R.at(o) <= t else 0

    X = Process.from_values(space, fn, F.horizon)
    dec = doob_decompose(X, F)
    return represent(dec.martingale_part, driver)


def _is_predictable_time(R: RandomTime, F: Filtration) -> bool:
    if not R.is_stopping_time(F):
        return False
    for t in range(1, F.horizon + 1):
        for atom in F.at(t - 1).atoms:
            hits = {R.at(o) == t for o in atom}
            if len(hits) > 1:
                return False
    return True


def _check_measurable_at_time(R: RandomTime, values, F: Filtration) -> None:
    """xi must be constant on each time-t atom inside {R = t}."""
    space = F.space
    arith = space.arith
    for t in range(F.horizon + 1):
        for atom in F.at(t).atoms:
            hit = [o for o in atom if R.at(o) == t]
            if not hit:
                continue
            ref = values[space.index(hit[0])]
            for o in hit[1:]:
                if not arith.eq(values[space.index(o)], ref):
                    raise SpaceError(
                        f"payoff is not measurable at its jump time on atom {atom}"
                    )
