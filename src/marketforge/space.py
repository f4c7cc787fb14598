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

A process is its time columns: one tuple of per-outcome value cells per
time t.  Equal cells share one tuple object: the loader interns equal input
cells (:meth:`Process.from_paths`), :meth:`Process.predictable` and
:func:`cond_exp` write one tuple per atom, and every kernel maps its
operands through :func:`per_distinct`, once per distinct tuple of operand
objects, so an adapted process costs one computation per (time, atom) cell.
Adaptedness is decided on demand against a filtration (:func:`is_adapted`).
Increments are defined once, here, and computed once per process
(:meth:`Process.increments`, dX_0 = 0).  Only this module and
``calculus`` know the cell layout: the other layers hand over per-atom
tables (:meth:`Process.predictable`) or per-outcome paths
(:meth:`Process.from_paths`), and read processes through
:meth:`Process.on_atoms`, :func:`first_failing`, :func:`first_mismatch` and
:func:`distinct_cells`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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

    @cached_property
    def integer_weights(self) -> tuple[int, ...]:
        """Exact weights times the lcm of their denominators: integers with
        the weights' ratios, for sums that build no Fraction per term."""
        lcm = math.lcm(*(w.denominator for w in self.weights))
        return tuple(w.numerator * (lcm // w.denominator) for w in self.weights)


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

    The constructor checks that both live on one space with one horizon and
    that G refines F at every time, so every pair in hand is an enlargement.
    """

    base: Filtration
    expanded: Filtration

    def __post_init__(self) -> None:
        if self.base.space is not self.expanded.space:
            raise SpaceError("both filtrations must live on one sample space")
        if self.base.horizon != self.expanded.horizon:
            raise SpaceError("mismatched horizons in enlargement pair")
        if not all(g.refines(f) for f, g in zip(self.base.partitions,
                                                 self.expanded.partitions)):
            raise SpaceError("expanded flow does not refine the base flow")

    @property
    def space(self) -> SampleSpace:
        return self.base.space

    @property
    def horizon(self) -> int:
        return self.base.horizon


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
            part = part.refine_by(proc.columns[t])
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


# ---------------------------------------------------------------------------
# processes


def _as_vector(v) -> tuple:
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def _sub(u: tuple, v: tuple) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def _add(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def _cell_key(v: tuple):
    """Interning key of a cell: its value, except that a cell holding a zero
    also keys on the reprs, so a float -0.0 never merges with 0.0."""
    return v if 0 not in v else (v, tuple(map(repr, v)))


def value_key(*vectors) -> tuple:
    """Memo key of a tuple of number vectors by value: each vector keyed as
    ``_cell_key`` interns a cell.  A local solve memo keys its operands
    with this, so operands equal in value (and no others) share a solve."""
    return tuple(_cell_key(tuple(v)) for v in vectors)


def per_distinct(op, *columns) -> tuple:
    """``tuple(op(*cells) for cells in zip(*columns))``, computing op once per
    distinct tuple of operand objects and reusing that result object.

    The memo is keyed by ``id`` and lives for this call only; the columns
    are sequences, so they keep every keyed object alive while it runs.
    op must be a pure function of its operands, so the values are those of
    the per-cell loop, bit for bit in float mode too.
    """
    keys = list(zip(*(map(id, column) for column in columns)))
    firsts = dict(zip(keys, zip(*columns)))  # one operand tuple per key
    memo = {key: op(*cells) for key, cells in firsts.items()}
    return tuple(map(memo.__getitem__, keys))


@dataclass(frozen=True, eq=False)
class Process:
    """A process as its time columns: ``columns[t][i]`` is the value vector
    of outcome i at time t, all of one length ``dim``.

    Cells with equal values may be one shared tuple.  Whether the process
    is adapted is decided against a filtration by :func:`is_adapted`.  The
    cell dimension is checked where cells enter from outside a kernel
    (``from_paths``, ``predictable``); a kernel keeps its operands' one.
    """

    space: SampleSpace
    columns: tuple[tuple[tuple[Num, ...], ...], ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SpaceError("process needs at least time 0")
        if any(len(column) != self.space.size for column in self.columns):
            raise SpaceError("process needs one value per outcome at each time")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_paths(cls, space: SampleSpace, paths) -> "Process":
        """Build from per-outcome paths, ``paths[i][t]``; scalar entries are
        wrapped to 1-vectors, and equal cells are interned to one shared
        tuple."""
        cells: dict = {}
        fixed = [tuple(cells.setdefault(_cell_key(v), v) for v in map(_as_vector, path))
                 for path in paths]
        if len(fixed) != space.size:
            raise SpaceError("process needs one path per outcome")
        if len({len(v) for path in fixed for v in path}) > 1:
            raise SpaceError("all value vectors must share one dimension")
        if len(set(map(len, fixed))) > 1:
            raise SpaceError("all paths must share one horizon")
        return cls(space, tuple(zip(*fixed)))

    @classmethod
    def predictable(cls, filtration: "Filtration", table, dim: int = 1,
                    initial=None) -> "Process":
        """Build from per-atom values: the time-t value is ``table[(t, k)]`` on
        the time-(t-1) atom k, the time-0 value is ``initial`` (zero if None)."""
        v0 = (0,) * dim if initial is None else _as_vector(initial)
        if len(v0) != dim:
            raise SpaceError("value dimension mismatch")
        columns = [(v0,) * filtration.space.size]
        for t in range(1, filtration.horizon + 1):
            column = [None] * filtration.space.size
            for k, members in enumerate(filtration.at(t - 1).members):
                v = _as_vector(table[(t, k)])
                if len(v) != dim:
                    raise SpaceError("value dimension mismatch")
                for i in members:
                    column[i] = v
            columns.append(tuple(column))
        return cls(filtration.space, tuple(columns))

    @classmethod
    def constant(cls, space: SampleSpace, horizon: int, value) -> "Process":
        return cls(space, ((_as_vector(value),) * space.size,) * (horizon + 1))

    # -- access ----------------------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self.columns) - 1

    @property
    def dim(self) -> int:
        return len(self.columns[0][0])

    def at(self, outcome: str, t: int) -> tuple[Num, ...]:
        return self.columns[t][self.space.index(outcome)]

    def value(self, outcome: str, t: int) -> Num:
        v = self.at(outcome, t)
        if len(v) != 1:
            raise SpaceError("value() is for one-dimensional processes")
        return v[0]

    def increments(self) -> tuple:
        """Increment columns: entry t - 1 holds dX_t for every outcome, in
        outcome order, for t = 1..horizon.  Computed once per process."""
        return self._increments

    @cached_property
    def _increments(self) -> tuple:
        cols = self.columns
        return tuple(per_distinct(_sub, cols[t], cols[t - 1]) for t in range(1, len(cols)))

    def on_atoms(self, t: int, atoms, increments: bool = False) -> list:
        """X_t (dX_t with ``increments``) on each of the given atoms, read at
        the atom's first outcome: the process must be constant there."""
        column = self.increments()[t - 1] if increments else self.columns[t]
        index = self.space.index
        return [column[index(atom[0])] for atom in atoms]

    def map_cells(self, op, *others: "Process") -> "Process":
        """The process whose cells are ``op(cell, *other cells)``, computed
        per distinct operand tuple; the others must share this one's grid."""
        columns = zip(self.columns, *(other.columns for other in others))
        return Process(self.space, tuple(per_distinct(op, *c) for c in columns))

    def component(self, j: int) -> "Process":
        return self.map_cells(lambda v: (v[j],))

    # -- algebra ----------------------------------------------------------------

    def _zip(self, other: "Process", op) -> "Process":
        if self.space is not other.space or self.horizon != other.horizon:
            raise SpaceError("processes live on different grids")
        if self.dim != other.dim:
            raise SpaceError("dimension mismatch")
        return self.map_cells(lambda u, v: tuple(op(a, b) for a, b in zip(u, v)), other)

    def __add__(self, other: "Process") -> "Process":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "Process") -> "Process":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "Process":
        return self.scale(-1)

    def scale(self, c: Num) -> "Process":
        return self.map_cells(lambda v: tuple(c * a for a in v))

    def times(self, other: "Process") -> "Process":
        """Pointwise product, defined for scalar processes."""
        if self.dim != 1 or other.dim != 1:
            raise SpaceError("pointwise product is for scalar processes")
        return self._zip(other, lambda a, b: a * b)

    def lagged(self) -> "Process":
        """Previous-time version: value at t is the value at t-1 (predictable)."""
        return Process(self.space, self.columns[:1] + self.columns[:-1])


def _first_false(flags) -> tuple[int, int] | None:
    """(i, t) of the first false flag in outcome-major order (outcome i, then
    its times), from (t, flag column) pairs, or None when every flag holds."""
    return min(((column.index(False), t) for t, column in flags if not all(column)),
               default=None)


def first_failing(X: Process, test=None, start=None, increments: bool = False):
    """(i, t) of the first cell of X failing its test, in outcome-major order,
    or None when every tested cell passes.

    ``test`` runs at every time, ``start`` in its place at time 0; a time
    left without a test is skipped.  With ``increments`` the cells are dX_t
    for t >= 1.  Each test runs once per distinct cell of a column.
    """
    columns = enumerate(X.increments(), 1) if increments else enumerate(X.columns)
    return _first_false((t, per_distinct(check, column)) for t, column in columns
                        if (check := start or test if t == 0 else test) is not None)


def distinct_cells(X: Process, start: int = 0, increments: bool = False) -> list:
    """The distinct cell objects of X from time ``start`` on (of its
    increments dX_t, t >= 1, with ``increments``), in first-seen
    outcome-major order."""
    columns = X.increments() if increments else X.columns[start:]
    cells = [v for row in zip(*columns) for v in row]
    return list(dict(zip(map(id, cells), cells)).values())


def first_mismatch(X: Process, Y: Process):
    """First cell where two processes differ, in outcome-major order.

    Returns (outcome, t, a, b) with a and b the first unequal components,
    or None when every value agrees under the space's arithmetic.  Each
    distinct pair of cell objects of a column is compared once; in exact
    mode a cell is equal to itself without a comparison.
    """
    if X.space is not Y.space or X.horizon != Y.horizon or X.dim != Y.dim:
        raise SpaceError("processes live on different grids")
    eq = X.space.arith.eq
    exact = X.space.arith.exact
    miss = _first_false(
        (t, per_distinct(lambda u, v: (exact and u is v) or all(map(eq, u, v)), cx, cy))
        for t, (cx, cy) in enumerate(zip(X.columns, Y.columns)))
    if miss is None:
        return None
    i, t = miss
    a, b = next((a, b) for a, b in zip(X.columns[t][i], Y.columns[t][i]) if not eq(a, b))
    return X.space.outcomes[i], t, a, b


def _constant_on(X: Process, t: int, groups) -> bool:
    """Time-t values constant on each group of outcome indices; in exact
    mode a cell shared with the group's first is equal without a check."""
    eq = X.space.arith.eq
    exact = X.space.arith.exact
    column = X.columns[t]
    for m in groups:
        first = column[m[0]]
        for i in m[1:]:
            v = column[i]
            if not (exact and v is first) and not all(map(eq, v, first)):
                return False
    return True


def is_adapted(X: Process, filtration: Filtration) -> bool:
    """Time-t values constant on every time-t atom."""
    return X.horizon == filtration.horizon and all(
        _constant_on(X, t, filtration.at(t).members)
        for t in range(filtration.horizon + 1))


# ---------------------------------------------------------------------------
# conditional expectation


def _weighted_mean(terms, total: int) -> Fraction:
    """sum(x * n for x, n in terms) / total for rational x and integer n,
    summed in integers over the lcm of the denominators."""
    num, den = 0, 1
    for x, n in terms:
        d = x.denominator
        lcm = den * d // math.gcd(den, d)
        num = num * (lcm // den) + n * x.numerator * (lcm // d)
        den = lcm
    return Fraction(num, den * total)


def cond_exp(values: Sequence, partition: Partition, space: SampleSpace) -> list:
    """Conditional expectation given a partition, as a parallel value list.

    On each atom the result is the weight-averaged value of the inputs, one
    tuple shared by the atom's outcomes.  Values may be scalars or equal
    length vectors.  Exact mode sums integer weights per distinct value
    object, adds the weighted values in integers over a common denominator
    and builds one Fraction per atom and component: the same rational a
    member-by-member sum gives.  Float mode sums member by member, in
    outcome order, because float sums depend on their order.
    """
    if len(values) != space.size:
        raise SpaceError("random variable must have one value per outcome")
    vectors = per_distinct(_as_vector, values)
    dim = len(vectors[0])
    if any(len(v) != dim for v in vectors):
        raise SpaceError("vector values must share one dimension")
    out: list = [None] * space.size
    if space.arith.exact:
        weights = space.integer_weights
        for members in partition.members:
            groups: dict = {}  # id of a value -> [value, its summed weight]
            for i in members:
                group = groups.setdefault(id(vectors[i]), [vectors[i], 0])
                group[1] += weights[i]
            total = sum(n for _, n in groups.values())
            avg = tuple(_weighted_mean([(v[j], n) for v, n in groups.values()], total)
                        for j in range(dim))
            for i in members:
                out[i] = avg
    else:
        weights = space.weights
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
