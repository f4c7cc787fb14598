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
from .calculus import CalculusError, is_martingale
from .space import Filtration, Process, SpaceError, first_failing


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
        is_zero = self.W.space.arith.is_zero
        if first_failing(self.W, start=lambda v: all(map(is_zero, v))) is not None:
            raise SpaceError("driver must start at 0")
        try:
            ok, witness = is_martingale(self.W, self.filtration)
        except CalculusError:  # the one input check is_martingale makes
            raise SpaceError("driver must be adapted to the filtration") from None
        if not ok:
            raise SpaceError(f"driver is not a martingale: {witness}")

    @property
    def d(self) -> int:
        return self.W.dim


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
            kids = [child for child, _ in children]
            V = [list(dw) for dw in driver.W.on_atoms(t, kids, increments=True)]
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
    paths = [[(0,) * d] for _ in F.space.outcomes]
    for t in range(1, F.horizon + 1):
        part = F.at(t)
        for _, _, children in F.transitions(t):
            probs = [p for _, p in children[:-1]]
            for m, (child, _) in enumerate(children):
                step = tuple((1 if e == m else 0) - p for e, p in enumerate(probs))
                step += (0,) * (d - len(probs))
                members = part.members[part.atom_index(child[0])]
                level = tuple(a + b for a, b in zip(paths[members[0]][-1], step))
                for i in members:
                    paths[i].append(level)
    return Driver(Process.from_paths(F.space, paths), F)
