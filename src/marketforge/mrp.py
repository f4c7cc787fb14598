"""Martingale representation in a finite filtration.

A d-dimensional martingale W is a representation driver when every
martingale is a stochastic integral against it.  On a finite grid that is a
per-atom linear-algebra fact: from a time-(t-1) atom with m children, the
centered functions on the children form an (m-1)-dimensional space, so W
works exactly when its child increments span that space.  In particular a
d-dimensional driver forces the child count of every atom to be at most
d + 1, which is the dimension bound used by the checker below.

Each atom's children and their conditional probabilities come from
``Filtration.transitions``.  The integrand recovery itself (the minimum-norm
coefficients of a represented martingale) is kept as a test oracle in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .calculus import CalculusError, FailureWitness, is_martingale
from .space import Filtration, Process, SpaceError, starts_at_zero


@dataclass(frozen=True, eq=False)
class Driver:
    """A candidate representation martingale, validated at construction;
    W is kept on the flow's atoms."""

    W: Process
    filtration: Filtration

    def __post_init__(self) -> None:
        if self.W.horizon == self.filtration.horizon:  # on the flow's atoms, as Market keeps S
            object.__setattr__(self, "W", self.W.refined(self.filtration))
        if not starts_at_zero(self.W):
            raise SpaceError("driver must start at 0")
        try:
            witness = is_martingale(self.W, self.filtration)
        except CalculusError:  # the one input check is_martingale makes
            raise SpaceError("driver must be adapted to the filtration") from None
        if witness is not None:
            raise SpaceError(f"driver must be a martingale of the flow; it drifts "
                             f"at t={witness.t} on {list(witness.atom)}")

    @property
    def d(self) -> int:
        return self.W.dim


def check_mrp(F: Filtration, driver: Driver):
    """Does every martingale integrate against the driver?

    Checks, per (time, atom), that the driver's child increments span the
    centered functions on the children: rank of the child-increment matrix
    must be the child count minus one.  Returns None, or the first failing
    atom's witness: reason "mrp", detail {multiplicity: child count, rank}.
    """
    arith = F.space.arith
    for t in range(1, F.horizon + 1):
        for k, children in enumerate(F.transitions(t)):
            m = len(children)
            if m == 1:
                continue
            kids = [c for c, _ in children]
            V = [list(dw) for dw in driver.W.increments.on_atoms(t, F.at(t), kids)]
            r = linalg.rank(V, arith)
            if r < m - 1:
                return FailureWitness("mrp", t, F.at(t - 1).atoms[k],
                                      {"multiplicity": m, "rank": r})
    return None


def synthesize_driver(F: Filtration) -> Driver:
    """Build a minimal driver for the filtration.

    Component e jumps on the (e+1)-th child of each splitting atom: its
    increment there is the centered indicator of that child, which spans the
    centered functions with the fewest components.  The dimension is the
    largest child count minus one; a never-splitting filtration yields an
    empty (0-dimensional) driver, for which only constants are martingales.
    """
    d = max(len(children) - 1 for t in range(1, F.horizon + 1)
            for children in F.transitions(t))
    table = {(0, k): (0,) * d for k in range(F.at(0).size)}
    for t in range(1, F.horizon + 1):
        for k, children in enumerate(F.transitions(t)):
            probs = [p for _, p in children[:-1]]
            for m, (c, _) in enumerate(children):
                step = tuple((1 if e == m else 0) - p for e, p in enumerate(probs))
                step += (0,) * (d - len(probs))
                table[(t, c)] = tuple(
                    a + b for a, b in zip(table[(t - 1, k)], step))
    return Driver(Process.adapted(F, table, d), F)
