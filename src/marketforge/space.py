"""Finite filtered probability spaces on a discrete time grid.

A sample space is a finite set of labelled outcomes with strictly positive
weights summing to one.  Information flow is a filtration: one partition of
the outcomes per time t in {0, ..., horizon}, each refining the previous
one.  The time-0 partition may already be nontrivial, which is how an
initially enlarged observer enters the picture.

This module owns the atom index: each partition's outcome indices
(``members``) and probabilities (``masses``), built once and lazily, the
enclosing coarser atoms (``parents``), and ``Filtration.transitions(t)``,
each time-(t-1) atom with its time-t children and their conditional masses.

Processes store one value vector per (outcome, time).  A process is adapted
when its time-t value is constant on every time-t atom, predictable when its
time-t value is constant on every time-(t-1) atom and its time-0 value is
deterministic.  Only this module and ``calculus`` build a process cell by
cell; the other layers hand over per-(time, atom) tables
(:meth:`Process.predictable`), increment columns (``calculus.accumulate``)
or input paths, and compare processes with :func:`first_mismatch`.
Increments are defined once, here, by :meth:`Process.increments` (dX_0 = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .arith import EXACT, Arithmetic, Num

INF = math.inf  # sentinel for "never" in random times


class SpaceError(ValueError):
    """Invalid space, partition, filtration or process data."""


# ---------------------------------------------------------------------------
# sample space


@dataclass(frozen=True, eq=False)
class SampleSpace:
    outcomes: tuple[str, ...]
    weights: tuple[Num, ...]
    arith: Arithmetic = EXACT
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise SpaceError("sample space needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise SpaceError("outcome labels must be distinct")
        if len(self.weights) != len(self.outcomes):
            raise SpaceError("one weight per outcome required")
        for label, w in zip(self.outcomes, self.weights):
            if not w > 0:
                raise SpaceError(f"outcome {label!r} must have positive weight")
        if not self.arith.eq(sum(self.weights), 1):
            raise SpaceError("outcome weights must sum to 1")
        self._index.update({o: i for i, o in enumerate(self.outcomes)})

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, outcome: str) -> int:
        try:
            return self._index[outcome]
        except KeyError:
            raise SpaceError(f"unknown outcome {outcome!r}") from None

    def weight(self, outcome: str) -> Num:
        return self.weights[self.index(outcome)]

    def prob(self, outcomes: Iterable[str]) -> Num:
        return sum((self.weight(o) for o in outcomes), 0)

    def expectation(self, values: Sequence[Num]) -> Num:
        """Plain expectation of a random variable given as a parallel sequence."""
        if len(values) != self.size:
            raise SpaceError("random variable must have one value per outcome")
        return sum((w * v for w, v in zip(self.weights, values)), 0)


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True, eq=False)
class Partition:
    """A partition of the outcomes into atoms, in canonical order.

    Atoms are tuples of outcome labels sorted by outcome index; atoms are
    sorted by the index of their first label.  Canonical ordering keeps all
    downstream iteration (and therefore reports) deterministic.
    """

    space: SampleSpace
    atoms: tuple[tuple[str, ...], ...]
    _atom_of: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for atom in self.atoms:
            if not atom:
                raise SpaceError("empty atom in partition")
            for label in atom:
                self.space.index(label)
                if label in seen:
                    raise SpaceError(f"outcome {label!r} appears in two atoms")
                seen.add(label)
        if len(seen) != self.space.size:
            raise SpaceError("partition must cover every outcome")
        for k, atom in enumerate(self.atoms):
            for label in atom:
                self._atom_of[label] = k

    @classmethod
    def from_atoms(cls, space: SampleSpace, atoms: Iterable[Iterable[str]]) -> "Partition":
        idx = space.index
        canon = sorted((tuple(sorted(a, key=idx)) for a in atoms),
                       key=lambda a: idx(a[0]) if a else -1)
        return cls(space, tuple(canon))

    @classmethod
    def trivial(cls, space: SampleSpace) -> "Partition":
        return cls.from_atoms(space, [space.outcomes])

    @classmethod
    def discrete(cls, space: SampleSpace) -> "Partition":
        return cls.from_atoms(space, [[o] for o in space.outcomes])

    @classmethod
    def by_level_sets(cls, space: SampleSpace, values: Sequence) -> "Partition":
        """Group outcomes by equal values of a (hashable) labelling."""
        if len(values) != space.size:
            raise SpaceError("labelling must have one value per outcome")
        groups: dict = {}
        for o, v in zip(space.outcomes, values):
            groups.setdefault(v, []).append(o)
        return cls.from_atoms(space, groups.values())

    def atom_index(self, outcome: str) -> int:
        try:
            return self._atom_of[outcome]
        except KeyError:
            raise SpaceError(f"unknown outcome {outcome!r}") from None

    def atom_of(self, outcome: str) -> tuple[str, ...]:
        return self.atoms[self.atom_index(outcome)]

    def refines(self, other: "Partition") -> bool:
        """Every atom of self sits inside a single atom of other."""
        return all(
            len({other.atom_index(o) for o in atom}) == 1 for atom in self.atoms
        )

    def refine_by(self, values: Sequence) -> "Partition":
        """Common refinement with the level sets of a labelling."""
        if len(values) != self.space.size:
            raise SpaceError("labelling must have one value per outcome")
        label = {o: values[self.space.index(o)] for o in self.space.outcomes}
        atoms = []
        for atom in self.atoms:
            groups: dict = {}
            for o in atom:
                groups.setdefault(label[o], []).append(o)
            atoms.extend(groups.values())
        return Partition.from_atoms(self.space, atoms)

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Outcome indices of each atom."""
        idx = self.space.index
        return tuple(tuple(idx(o) for o in atom) for atom in self.atoms)

    @cached_property
    def masses(self) -> tuple[Num, ...]:
        """Probability of each atom, summed over its outcomes in order."""
        w = self.space.weights
        return tuple(sum((w[i] for i in m), 0) for m in self.members)

    def parents(self, coarser: "Partition") -> tuple[int, ...]:
        """Index of the coarser atom enclosing each atom of this refinement."""
        return tuple(coarser.atom_index(atom[0]) for atom in self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.atoms == other.atoms

    def __len__(self) -> int:
        return len(self.atoms)


# ---------------------------------------------------------------------------
# filtrations and enlargement pairs


@dataclass(frozen=True, eq=False)
class Filtration:
    space: SampleSpace
    partitions: tuple[Partition, ...]
    _transitions: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len(self.partitions) < 2:
            raise SpaceError("a filtration needs horizon >= 1")
        for part in self.partitions:
            if part.space is not self.space:
                raise SpaceError("partition built on a different space")
        for t in range(1, len(self.partitions)):
            if not self.partitions[t].refines(self.partitions[t - 1]):
                raise SpaceError(f"partition at time {t} does not refine time {t - 1}")

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    def at(self, t: int) -> Partition:
        if not 0 <= t <= self.horizon:
            raise SpaceError(f"time {t} outside grid 0..{self.horizon}")
        return self.partitions[t]

    def transitions(self, t: int) -> list:
        """(k, atom, [(child, p)]) for each time-(t-1) atom k: its time-t
        children in canonical order, p = P(child | atom).  Built once per t."""
        if t not in self._transitions:
            parent, part = self.at(t - 1), self.at(t)
            kids = [[] for _ in parent.atoms]
            for child, k, mass in zip(part.atoms, part.parents(parent), part.masses):
                kids[k].append((child, mass / parent.masses[k]))
            self._transitions[t] = [(k, atom, kids[k]) for k, atom in enumerate(parent.atoms)]
        return self._transitions[t]

    def refine_by(self, values: Sequence) -> "Filtration":
        return Filtration(self.space, tuple(p.refine_by(values) for p in self.partitions))


@dataclass(frozen=True, eq=False)
class EnlargementPair:
    """A base information flow F and an expanded one G on the same grid.

    The constructor checks only the cheap structural facts (same space and
    horizon); use :func:`check_refinement` for the actual atom-by-atom
    refinement test, which is an explicit pipeline gate.
    """

    base: Filtration
    expanded: Filtration

    def __post_init__(self) -> None:
        if self.base.space is not self.expanded.space:
            raise SpaceError("both filtrations must live on one sample space")
        if self.base.horizon != self.expanded.horizon:
            raise SpaceError("mismatched horizons in enlargement pair")

    @property
    def space(self) -> SampleSpace:
        return self.base.space

    @property
    def horizon(self) -> int:
        return self.base.horizon


def check_refinement(pair: EnlargementPair) -> bool:
    """True when the expanded filtration refines the base one at every time."""
    return all(
        pair.expanded.at(t).refines(pair.base.at(t))
        for t in range(pair.horizon + 1)
    )


def natural_filtration(space: SampleSpace, processes: Sequence["Process"]) -> Filtration:
    """Smallest filtration making every listed process adapted."""
    if not processes:
        raise SpaceError("natural filtration needs at least one process")
    horizon = processes[0].horizon
    if any(p.horizon != horizon for p in processes):
        raise SpaceError("processes disagree on the horizon")
    parts = []
    part = Partition.trivial(space)
    for t in range(horizon + 1):
        for proc in processes:
            part = part.refine_by([proc.at(o, t) for o in space.outcomes])
        parts.append(part)
    return Filtration(space, tuple(parts))


def build_initial_enlargement(base: Filtration, variable: Sequence) -> EnlargementPair:
    """Expand by revealing a random variable at time 0 (level-set refinement)."""
    return EnlargementPair(base, base.refine_by(variable))


def build_progressive_enlargement(base: Filtration, tau: "RandomTime") -> EnlargementPair:
    """Expand by observing, at each t, whether and when tau has occurred.

    The time-t partition is refined by the level sets of min(tau, t+1), so
    the expanded observer distinguishes {tau = s} for s <= t from {tau > t}.
    """
    if tau.space is not base.space:
        raise SpaceError("random time lives on a different space")
    parts = []
    for t in range(base.horizon + 1):
        capped = [min(v, t + 1) for v in tau.values]
        parts.append(base.at(t).refine_by(capped))
    return EnlargementPair(base, Filtration(base.space, tuple(parts)))


# ---------------------------------------------------------------------------
# random times


@dataclass(frozen=True, eq=False)
class RandomTime:
    """An outcome-by-outcome time on the grid, with INF meaning "never"."""

    space: SampleSpace
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) != self.space.size:
            raise SpaceError("random time needs one value per outcome")
        for v in self.values:
            if v is not INF and (not isinstance(v, int) or v < 0):
                raise SpaceError(f"random-time value {v!r} is not a grid time or INF")

    def at(self, outcome: str):
        return self.values[self.space.index(outcome)]

    def is_stopping_time(self, filtration: Filtration) -> bool:
        """{tau <= t} must be a union of time-t atoms for every t."""
        for t in range(filtration.horizon + 1):
            part = filtration.at(t)
            for atom in part.atoms:
                hits = {self.at(o) <= t for o in atom}
                if len(hits) > 1:
                    return False
        return True


# ---------------------------------------------------------------------------
# processes

ADAPTED = "adapted"
PREDICTABLE = "predictable"


def _as_vector(v) -> tuple:
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def _step(path, t: int) -> tuple:
    """dX_t = X_t - X_{t-1} along one path, for t >= 1."""
    return tuple(a - b for a, b in zip(path[t], path[t - 1]))


@dataclass(frozen=True, eq=False)
class Process:
    """A path-valued map: one length-dim value vector per (outcome, time).

    ``paths[i][t]`` is the value vector for outcome i at time t.  ``shape``
    views the vector as a (rows, cols) matrix for integrand bookkeeping;
    plain vectors are (dim, 1).  ``flavor`` records the intended
    measurability and is validated against a filtration on demand.
    """

    space: SampleSpace
    paths: tuple[tuple[tuple[Num, ...], ...], ...]
    flavor: str = ADAPTED
    shape: tuple[int, int] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.paths) != self.space.size:
            raise SpaceError("process needs one path per outcome")
        if not self.paths[0]:
            raise SpaceError("process needs at least time 0")
        horizon = len(self.paths[0]) - 1
        dims = {len(v) for path in self.paths for v in path}
        if len(dims) != 1:
            raise SpaceError("all value vectors must share one dimension")
        if any(len(path) != horizon + 1 for path in self.paths):
            raise SpaceError("all paths must share one horizon")
        if self.flavor not in (ADAPTED, PREDICTABLE):
            raise SpaceError(f"unknown flavor {self.flavor!r}")
        dim = dims.pop()
        if self.shape is None:
            object.__setattr__(self, "shape", (dim, 1))
        if self.shape[0] * self.shape[1] != dim:
            raise SpaceError("shape does not match value dimension")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_paths(cls, space: SampleSpace, paths, flavor: str = ADAPTED,
                   shape: tuple[int, int] | None = None) -> "Process":
        """Build from per-outcome paths; scalar entries are wrapped to 1-vectors."""
        fixed = tuple(tuple(_as_vector(v) for v in path) for path in paths)
        return cls(space, fixed, flavor=flavor, shape=shape)

    @classmethod
    def from_values(cls, space: SampleSpace, fn, horizon: int, dim: int = 1,
                    flavor: str = ADAPTED, shape: tuple[int, int] | None = None) -> "Process":
        """Build from fn(outcome, t) returning a scalar or a length-dim vector."""
        paths = []
        for o in space.outcomes:
            path = []
            for t in range(horizon + 1):
                v = _as_vector(fn(o, t))
                if len(v) != dim:
                    raise SpaceError("value dimension mismatch")
                path.append(v)
            paths.append(tuple(path))
        return cls(space, tuple(paths), flavor=flavor, shape=shape)

    @classmethod
    def predictable(cls, filtration: "Filtration", table, dim: int = 1,
                    shape: tuple[int, int] | None = None, initial=None) -> "Process":
        """Build from per-atom values: the time-t value is ``table[(t, k)]`` on
        the time-(t-1) atom k, the time-0 value is ``initial`` (zero if None)."""
        v0 = (0,) * dim if initial is None else _as_vector(initial)
        if len(v0) != dim:
            raise SpaceError("value dimension mismatch")
        cols = []
        for t in range(1, filtration.horizon + 1):
            col = [None] * filtration.space.size
            for k, members in enumerate(filtration.at(t - 1).members):
                v = _as_vector(table[(t, k)])
                for i in members:
                    col[i] = v
            cols.append(col)
        paths = tuple((v0,) + tuple(col[i] for col in cols)
                      for i in range(filtration.space.size))
        return cls(filtration.space, paths, flavor=PREDICTABLE, shape=shape)

    @classmethod
    def constant(cls, space: SampleSpace, horizon: int, value, flavor: str = ADAPTED) -> "Process":
        v = _as_vector(value)
        path = tuple(v for _ in range(horizon + 1))
        return cls(space, tuple(path for _ in space.outcomes), flavor=flavor)

    # -- access ----------------------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self.paths[0]) - 1

    @property
    def dim(self) -> int:
        return len(self.paths[0][0])

    def at(self, outcome: str, t: int) -> tuple[Num, ...]:
        return self.paths[self.space.index(outcome)][t]

    def value(self, outcome: str, t: int) -> Num:
        v = self.at(outcome, t)
        if len(v) != 1:
            raise SpaceError("value() is for one-dimensional processes")
        return v[0]

    def delta(self, outcome: str, t: int) -> tuple[Num, ...]:
        """Increment at time t; by convention the time-0 increment vanishes."""
        if t == 0:
            return (0,) * self.dim
        return _step(self.paths[self.space.index(outcome)], t)

    def increments(self) -> list:
        """Increment columns: entry t - 1 holds dX_t for every outcome, in
        outcome order, for t = 1..horizon.  Recomputed on each call."""
        return [[_step(path, t) for path in self.paths]
                for t in range(1, self.horizon + 1)]

    def component(self, j: int) -> "Process":
        return Process(
            self.space,
            tuple(tuple((v[j],) for v in path) for path in self.paths),
            flavor=self.flavor,
        )

    # -- algebra ----------------------------------------------------------------

    def _zip(self, other: "Process", op) -> "Process":
        if self.space is not other.space or self.horizon != other.horizon:
            raise SpaceError("processes live on different grids")
        if self.dim != other.dim:
            raise SpaceError("dimension mismatch")
        flavor = self.flavor if self.flavor == other.flavor else ADAPTED
        paths = tuple(
            tuple(tuple(op(a, b) for a, b in zip(u, v)) for u, v in zip(p, q))
            for p, q in zip(self.paths, other.paths)
        )
        return Process(self.space, paths, flavor=flavor, shape=self.shape)

    def __add__(self, other: "Process") -> "Process":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "Process") -> "Process":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "Process":
        return self.scale(-1)

    def scale(self, c: Num) -> "Process":
        paths = tuple(
            tuple(tuple(c * a for a in v) for v in path) for path in self.paths
        )
        return Process(self.space, paths, flavor=self.flavor, shape=self.shape)

    def shift(self, c) -> "Process":
        """Add a constant (scalar or vector) to every value."""
        v0 = tuple(c) if isinstance(c, (tuple, list)) else (c,) * self.dim
        paths = tuple(
            tuple(tuple(a + b for a, b in zip(v, v0)) for v in path) for path in self.paths
        )
        return Process(self.space, paths, flavor=self.flavor, shape=self.shape)

    def times(self, other: "Process") -> "Process":
        """Pointwise product, defined for scalar processes."""
        if self.dim != 1 or other.dim != 1:
            raise SpaceError("pointwise product is for scalar processes")
        return self._zip(other, lambda a, b: a * b)

    def lagged(self) -> "Process":
        """Previous-time version: value at t is the value at t-1 (predictable)."""
        paths = []
        for path in self.paths:
            paths.append((path[0],) + tuple(path[t - 1] for t in range(1, len(path))))
        return Process(self.space, tuple(paths), flavor=PREDICTABLE, shape=self.shape)


def first_mismatch(X: Process, Y: Process):
    """First cell where two processes differ, in outcome-major order.

    Returns (outcome, t, a, b) with a and b the first unequal components,
    or None when every value agrees under the space's arithmetic.
    """
    if X.space is not Y.space or X.horizon != Y.horizon or X.dim != Y.dim:
        raise SpaceError("processes live on different grids")
    eq = X.space.arith.eq
    for o, p, q in zip(X.space.outcomes, X.paths, Y.paths):
        for t, (u, v) in enumerate(zip(p, q)):
            for a, b in zip(u, v):
                if not eq(a, b):
                    return o, t, a, b
    return None


def _constant_on(X: Process, t: int, groups) -> bool:
    """Time-t values constant on each group of outcome indices."""
    eq = X.space.arith.eq
    paths = X.paths
    return all(
        all(eq(a, b) for a, b in zip(paths[i][t], paths[m[0]][t]))
        for m in groups for i in m[1:]
    )


def is_adapted(X: Process, filtration: Filtration) -> bool:
    """Time-t values constant on every time-t atom."""
    return X.horizon == filtration.horizon and all(
        _constant_on(X, t, filtration.at(t).members)
        for t in range(filtration.horizon + 1))


def is_predictable(X: Process, filtration: Filtration) -> bool:
    """Time-0 value deterministic; time-t values constant on time-(t-1) atoms."""
    if X.horizon != filtration.horizon or not _constant_on(X, 0, [range(X.space.size)]):
        return False
    return all(_constant_on(X, t, filtration.at(t - 1).members)
               for t in range(1, filtration.horizon + 1))


# ---------------------------------------------------------------------------
# conditional expectation


def cond_exp(values: Sequence, partition: Partition, space: SampleSpace) -> list:
    """Conditional expectation given a partition, as a parallel value list.

    On each atom the result is the weight-averaged value of the inputs, the
    average being exact in rational mode.  Values may be scalars or equal
    length vectors.
    """
    if len(values) != space.size:
        raise SpaceError("random variable must have one value per outcome")
    vectors = [_as_vector(v) for v in values]
    dim = len(vectors[0])
    if any(len(v) != dim for v in vectors):
        raise SpaceError("vector values must share one dimension")
    weights = space.weights
    out: list = [None] * space.size
    for members, mass in zip(partition.members, partition.masses):
        avg = tuple(
            sum((weights[i] * vectors[i][j] for i in members), 0) / mass
            for j in range(dim)
        )
        for i in members:
            out[i] = avg
    if not isinstance(values[0], (tuple, list)):
        return [v[0] for v in out]
    return out


# ---------------------------------------------------------------------------
# product-space helpers (used to bolt independent noise onto a model)


def product_with_independent(space: SampleSpace, labels: Sequence[str],
                             weights: Sequence[Num]) -> SampleSpace:
    """Product of a space with an independent finite experiment.

    New outcomes are "<old>:<label>" with product weights, ordered old-major.
    """
    aux = SampleSpace(tuple(labels), tuple(weights), arith=space.arith)
    outcomes = []
    wts = []
    for o, w in zip(space.outcomes, space.weights):
        for l, v in zip(aux.outcomes, aux.weights):
            outcomes.append(f"{o}:{l}")
            wts.append(w * v)
    return SampleSpace(tuple(outcomes), tuple(wts), arith=space.arith)


def lift_to_product(product: SampleSpace, base: SampleSpace):
    """Map product outcomes back to their base outcome labels."""
    back = []
    for o in product.outcomes:
        stem, _, _ = o.rpartition(":")
        base.index(stem)
        back.append(stem)
    return back


def lift_filtration(F: Filtration, product: SampleSpace) -> Filtration:
    """View a base filtration on a product space (noise never observed)."""
    back = lift_to_product(product, F.space)
    parts = []
    for t in range(F.horizon + 1):
        base_part = F.at(t)
        parts.append(Partition.by_level_sets(
            product, [base_part.atom_index(b) for b in back]
        ))
    return Filtration(product, tuple(parts))


def lift_process(X: Process, product: SampleSpace) -> Process:
    back = lift_to_product(product, X.space)
    paths = tuple(X.paths[X.space.index(b)] for b in back)
    return Process(product, paths, flavor=X.flavor, shape=X.shape)
