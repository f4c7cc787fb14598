"""Finite filtered probability spaces on a discrete time grid.

A sample space is a finite set of labelled outcomes with strictly positive
weights summing to one.  Information flow is a filtration: one partition of
the outcomes per time t in {0, ..., horizon}, each refining the previous
one.  The time-0 partition may already be nontrivial, which is how an
initially enlarged observer enters the picture.

This module owns the atom index: each partition's outcome indices
(``members``), probabilities (``masses``) and the atom of each outcome
(``atom_at``), built once and lazily, the enclosing coarser atoms
(``parents``), the meet of two partitions with the atom each holds
(``Partition.meet``, built once per pair in either order), and
``Filtration.transitions(t)``, each time-(t-1) atom with its time-t
children and their conditional masses.

A process is stored atom-major, one value vector per (time, atom) of the
partitions it lives on: a filtration's (:meth:`Process.adapted`, and the
time-(t-1) ones for :meth:`Process.predictable`), the level sets of its
values (:meth:`Process.from_paths`), or, for a kernel result, the meet of
its operands' (:func:`pointwise`).  Each time is one layer, a triple
(partition, cells, den): in exact mode the cells hold integer numerators
over the one positive denominator ``den``, with gcd(den, *numerators) = 1,
so a kernel does integer arithmetic and reduces once; in float mode the
cells hold the floats themselves and ``den`` is 1, so the same kernels run
the same float operations in the same order.  A linear kernel
(:func:`pointwise`, :meth:`Process.map_cells`) brings its operands to the
lcm of their denominators; a multilinear one (:func:`product`) multiplies
them.  Increments are defined once, here (:attr:`Process.increments`,
dX_0 = 0); :func:`atom_means` averages over child atoms in integers, and
:func:`is_adapted` checks once per atom.  Only this module and
``calculus`` know the layout: the other layers build processes from
per-atom tables or per-outcome paths, and read them as numbers (Fractions
in exact mode, decoded once per layer) through :meth:`Process.on_atoms`,
:meth:`Process.at`, :func:`cond_exp`, :func:`first_failing`,
:func:`first_mismatch` and :func:`distinct_cells`, the last three in
outcome-major order, so witnesses and report extrema keep theirs.
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
    _partitions: dict = field(default_factory=dict, repr=False)  # atoms -> first partition

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
    def integer_weights(self) -> tuple:
        """(lcm, counts): exact weights as integers over the lcm of their
        denominators."""
        lcm = math.lcm(*(w.denominator for w in self.weights))
        return lcm, tuple(w.numerator * (lcm // w.denominator) for w in self.weights)


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
    _meets: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for k, atom in enumerate(self.atoms):
            for label in atom:
                self._atom_of[label] = k
        self.space._partitions.setdefault(self.atoms, self)

    @classmethod
    def from_atoms(cls, space: SampleSpace, atoms: Iterable[Iterable[str]]) -> "Partition":
        """The partition with the given atoms, checked and put in canonical
        order; the one input path (partitions grouped from the space's own
        outcomes need no check)."""
        idx = space.index
        canon = sorted((tuple(sorted(a, key=idx)) for a in atoms),
                       key=lambda a: idx(a[0]) if a else -1)
        seen: set[str] = set()
        for atom in canon:
            if not atom:
                raise SpaceError("empty atom in partition")
            for label in atom:
                if label in seen:
                    raise SpaceError(f"outcome {label!r} appears in two atoms")
                seen.add(label)
        if len(seen) != space.size:
            raise SpaceError("partition must cover every outcome")
        canon = tuple(canon)
        return space._partitions.get(canon) or cls(space, canon)

    @classmethod
    def trivial(cls, space: SampleSpace) -> "Partition":
        return (space._partitions.get((space.outcomes,))
                or cls.from_atoms(space, [space.outcomes]))

    def atom_index(self, outcome: str) -> int:
        try:
            return self._atom_of[outcome]
        except KeyError:
            raise SpaceError(f"unknown outcome {outcome!r}") from None

    def atom_of(self, outcome: str) -> tuple[str, ...]:
        return self.atoms[self.atom_index(outcome)]

    def refines(self, other: "Partition") -> bool:
        """Every atom of self sits inside a single atom of other."""
        return len(self.meet(other)[0].atoms) == len(self.atoms)

    def refine_by(self, values: Sequence) -> "Partition":
        """Common refinement with the level sets of a labelling."""
        if len(values) != self.space.size:
            raise SpaceError("labelling must have one value per outcome")
        return _grouped(self.space, zip(self.atom_at, values))

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Outcome indices of each atom."""
        idx = self.space.index
        return tuple(tuple(idx(o) for o in atom) for atom in self.atoms)

    @cached_property
    def masses(self) -> tuple[Num, ...]:
        """Probability of each atom: in float mode summed over its outcomes
        in order, in exact mode read off ``integer_masses``."""
        if self.space.arith.exact:
            lcm = self.space.integer_weights[0]
            return tuple(Fraction(n, lcm) for n in self.integer_masses)
        w = self.space.weights
        return tuple(sum((w[i] for i in m), 0) for m in self.members)

    @cached_property
    def integer_masses(self) -> tuple[int, ...]:
        """Exact masses times the lcm of the weights' denominators: integers
        with the masses' ratios, for sums that build no Fraction per term."""
        w = self.space.integer_weights[1]
        return tuple(sum(w[i] for i in m) for m in self.members)

    @cached_property
    def atom_at(self) -> tuple[int, ...]:
        """Index of the atom holding each outcome, by outcome index."""
        return tuple(map(self._atom_of.__getitem__, self.space.outcomes))

    def parents(self, coarser: "Partition") -> tuple[int, ...]:
        """Index of the coarser atom enclosing each atom of this refinement."""
        return self.meet(coarser)[2]

    def meet(self, other: "Partition") -> tuple:
        """(meet, mine, theirs): the coarsest common refinement of the two
        partitions, and for each of its atoms the index of the atom of this
        partition and of ``other`` holding it.  The meet is this partition
        (or ``other``) itself when it refines the other.  Built once per
        pair of partition objects, in either order; only a meet finer than
        both is grouped outcome by outcome."""
        hit = self._meets.get(other)
        if hit is None:
            # The distinct (mine, theirs) pairs in order of their first
            # outcome: one per atom of the meet, in its canonical order.
            pairs = dict.fromkeys(zip(self.atom_at, other.atom_at))
            mine, theirs = map(tuple, zip(*pairs))
            meet = self if len(pairs) == len(self.atoms) else \
                other if len(pairs) == len(other.atoms) else \
                _grouped(self.space, zip(self.atom_at, other.atom_at))
            hit = self._meets[other] = (meet, mine, theirs)
            other._meets[self] = (meet, theirs, mine)
        return hit


def _grouped(space: SampleSpace, keys) -> "Partition":
    """The outcomes grouped by equal keys, one key per outcome, atoms in
    order of their first outcome; a partition equal to one already built
    on the space is that one."""
    groups: dict = {}
    for o, key in zip(space.outcomes, keys):
        groups.setdefault(key, []).append(o)
    atoms = tuple(map(tuple, groups.values()))
    return space._partitions.get(atoms) or Partition(space, atoms)


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
            atoms, cells, _ = proc.layers[t]  # one denominator: numerators key
            part = part.refine_by([cells[k] for k in atoms.atom_at])
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
    """Key of a cell by value, except that a cell holding a zero also keys
    on the reprs, so a float -0.0 never merges with 0.0."""
    return v if 0 not in v else (v, tuple(map(repr, v)))


def value_key(*vectors) -> tuple:
    """Memo key of a tuple of number vectors by value: each vector keyed as
    ``_cell_key`` keys a cell.  A local solve memo keys its operands with
    this, so operands equal in value (and no others) share a solve."""
    return tuple(_cell_key(tuple(v)) for v in vectors)


def _encoded(part: Partition, cells) -> tuple:
    """The layer (part, cells, den) of number cells: in exact mode their
    numerators over the lcm of their denominators, so gcd(den, *numerators)
    is 1; in float mode the cells themselves over 1."""
    if not part.space.arith.exact:
        return part, tuple(cells), 1
    den = math.lcm(*(x.denominator for v in cells for x in v))
    return part, tuple(tuple(x.numerator * (den // x.denominator) for x in v)
                       for v in cells), den


def _reduced(part: Partition, cells, den: int) -> tuple:
    """The layer (part, cells, den) with the numerators and ``den`` divided
    by their gcd; over 1 (every float layer) there is nothing to divide."""
    if den != 1:
        g = math.gcd(den, *(a for v in cells for a in v))
        if g != 1:
            den //= g
            cells = tuple(tuple(a // g for a in v) for v in cells)
    return part, cells, den


def _decoded(cells, den: int, exact: bool) -> tuple:
    """The cells of a layer as numbers: Fractions in exact mode."""
    if not exact:
        return cells
    return tuple(tuple(Fraction(a, den) for a in v) for v in cells)


def _aligned(layers) -> tuple:
    """(meet, args): the meet of the layers' partitions and, per layer, its
    cells on each atom of the meet."""
    part, cells, _ = layers[0]
    args = [cells]
    for other, other_cells, _ in layers[1:]:
        meet, mine, theirs = part.meet(other)
        if meet is not part:
            args = [[c[k] for k in mine] for c in args]
        args.append(other_cells if meet is other else [other_cells[k] for k in theirs])
        part = meet
    return part, args


def _common(layers) -> tuple:
    """(meet, args, den): ``_aligned``, every operand brought to the lcm
    ``den`` of the layers' denominators."""
    part, args = _aligned(layers)
    den = math.lcm(*(d for _, _, d in layers))
    for i, (_, _, d) in enumerate(layers):
        if d != den:
            f = den // d
            args[i] = [tuple(a * f for a in v) for v in args[i]]
    return part, args, den


def pointwise(op, *layers) -> tuple:
    """The layer of ``op`` of the operands' cells on each atom of the meet
    of their partitions; each operand is a (partition, cells, den) layer.
    ``op`` must be linear in the cells (sums, differences and selections of
    components): it sees every operand over one denominator, the lcm of
    theirs, and its result is over that one too."""
    part, args, den = _common(layers)
    return _reduced(part, tuple(map(op, *args)), den)


def product(op, *layers) -> tuple:
    """``pointwise`` for an ``op`` linear in each operand's cells on its
    own (sums of products of one component of each operand): it sees each
    operand over its own denominator, and its result is over their
    product."""
    part, args = _aligned(layers)
    return _reduced(part, tuple(map(op, *args)), math.prod(d for _, _, d in layers))


@dataclass(frozen=True, eq=False)
class Process:
    """A process atom by atom: ``layers[t]`` is (partition, cells, den),
    with ``cells[k]`` the value vector on atom k of the time-t partition,
    over the denominator ``den`` (integer numerators in exact mode, floats
    over 1 in float mode), all of one length ``dim``.  The dimension is
    checked where cells enter from outside a kernel (``from_paths``,
    ``adapted``); a kernel keeps its operands' one.
    """

    space: SampleSpace
    layers: tuple[tuple[Partition, tuple[tuple[Num, ...], ...], int], ...]
    _cache: dict = field(default_factory=dict, repr=False)  # t -> cells as numbers

    def __post_init__(self) -> None:
        if not self.layers:
            raise SpaceError("process needs at least time 0")
        if any(len(cells) != len(part.atoms) for part, cells, _ in self.layers):
            raise SpaceError("process needs one value per atom at each time")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_paths(cls, space: SampleSpace, paths) -> "Process":
        """Build from per-outcome paths, ``paths[i][t]``; scalar entries are
        wrapped to 1-vectors, and each time keeps one cell per level set
        (keyed as ``value_key`` keys a vector, so every bit is kept)."""
        fixed = [tuple(map(_as_vector, path)) for path in paths]
        if len(fixed) != space.size:
            raise SpaceError("process needs one path per outcome")
        if len({len(v) for path in fixed for v in path}) > 1:
            raise SpaceError("all value vectors must share one dimension")
        if len(set(map(len, fixed))) > 1:
            raise SpaceError("all paths must share one horizon")
        parts = [_grouped(space, map(_cell_key, column)) for column in zip(*fixed)]
        return cls(space, tuple(_encoded(part, [column[m[0]] for m in part.members])
                                for part, column in zip(parts, zip(*fixed))))

    @classmethod
    def adapted(cls, filtration: "Filtration", table, dim: int = 1) -> "Process":
        """Build from per-atom values: ``table[(t, k)]`` on the time-t atom k."""
        columns = [[_as_vector(table[(t, k)]) for k in range(len(part.atoms))]
                   for t, part in enumerate(filtration.partitions)]
        if any(len(v) != dim for cells in columns for v in cells):
            raise SpaceError("value dimension mismatch")
        return cls(filtration.space, tuple(map(_encoded, filtration.partitions, columns)))

    @classmethod
    def predictable(cls, filtration: "Filtration", table, dim: int = 1,
                    initial=None) -> "Process":
        """Build from per-atom values: the time-t value is ``table[(t, k)]`` on
        the time-(t-1) atom k, the time-0 value is ``initial`` (zero if None)
        on every time-0 atom: adapted to the flow lagged by one step."""
        v0 = (0,) * dim if initial is None else _as_vector(initial)
        parts = filtration.partitions
        start = {(0, k): v0 for k in range(len(parts[0].atoms))}
        return cls.adapted(Filtration(filtration.space, parts[:1] + parts[:-1]),
                           {**table, **start}, dim)

    @classmethod
    def constant(cls, space: SampleSpace, horizon: int, value) -> "Process":
        return cls(space, (_encoded(Partition.trivial(space), (_as_vector(value),)),)
                   * (horizon + 1))

    # -- access ----------------------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self.layers) - 1

    @property
    def dim(self) -> int:
        return len(self.layers[0][1][0])

    def _numbers(self, t: int) -> tuple:
        """The time-t cells as numbers (Fractions in exact mode), one vector
        per atom of the time-t partition; decoded once per time."""
        hit = self._cache.get(t)
        if hit is None:
            _, cells, den = self.layers[t]
            hit = self._cache[t] = _decoded(cells, den, self.space.arith.exact)
        return hit

    def at(self, outcome: str, t: int) -> tuple[Num, ...]:
        return self._numbers(t)[self.layers[t][0].atom_index(outcome)]

    def value(self, outcome: str, t: int) -> Num:
        v = self.at(outcome, t)
        if len(v) != 1:
            raise SpaceError("value() is for one-dimensional processes")
        return v[0]

    @cached_property
    def increments(self) -> "Process":
        """The increment process: dX_t = X_t - X_{t-1} for t >= 1 on the
        meet of the two times' partitions, and dX_0 = 0; built once."""
        return self.map_cells(_sub, self.lagged())

    def on_atoms(self, t: int, atoms, increments: bool = False) -> list:
        """X_t (dX_t with ``increments``) on each of the given atoms, read at
        the atom's first outcome: the process must be constant there."""
        return [(self.increments if increments else self).at(atom[0], t) for atom in atoms]

    def map_cells(self, op, *others: "Process") -> "Process":
        """The process whose cells are ``op(cell, *other cells)``, computed
        once per atom of the operands' meet; ``op`` must be linear in the
        cells (see :func:`pointwise`), and the others must share this one's
        grid."""
        return Process(self.space, tuple(pointwise(op, *layers) for layers in zip(
            self.layers, *(X.layers for X in others))))

    def refined(self, flow: "Filtration") -> "Process":
        """The same process stored on the meet of its partitions with the
        flow's: on the flow's own atoms where it is adapted to the flow."""
        layers = []
        for (part, cells, den), atoms in zip(self.layers, flow.partitions):
            meet, mine, _ = part.meet(atoms)
            layers.append((meet, cells if meet is part else tuple(cells[k] for k in mine), den))
        return Process(self.space, tuple(layers))

    def component(self, j: int) -> "Process":
        return self.map_cells(lambda v: (v[j],))

    # -- algebra ----------------------------------------------------------------

    def _zip(self, other: "Process", op, kernel=pointwise) -> "Process":
        if self.space is not other.space or self.horizon != other.horizon:
            raise SpaceError("processes live on different grids")
        if self.dim != other.dim:
            raise SpaceError("dimension mismatch")
        return Process(self.space, tuple(
            kernel(lambda u, v: tuple(op(a, b) for a, b in zip(u, v)), *layers)
            for layers in zip(self.layers, other.layers)))

    def __add__(self, other: "Process") -> "Process":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "Process") -> "Process":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "Process":
        return self.scale(-1)

    def scale(self, c: Num) -> "Process":
        """c times the process: in exact mode the numerators times c's
        numerator, over the denominator times c's."""
        n, q = (c.numerator, c.denominator) if self.space.arith.exact else (c, 1)
        return Process(self.space, tuple(
            _reduced(part, tuple(tuple(n * a for a in v) for v in cells), den * q)
            for part, cells, den in self.layers))

    def times(self, other: "Process") -> "Process":
        """Pointwise product, defined for scalar processes."""
        if self.dim != 1 or other.dim != 1:
            raise SpaceError("pointwise product is for scalar processes")
        return self._zip(other, lambda a, b: a * b, product)

    def lagged(self) -> "Process":
        """Previous-time version: value at t is the value at t-1 (predictable)."""
        return Process(self.space, self.layers[:1] + self.layers[:-1])


def _keyed(X: Process, start: int, stop=None) -> list:
    """((first outcome, t), cell) for each (time, atom) cell of X at times
    ``start`` <= t < ``stop`` (to the horizon if None), as numbers: sorted,
    these come in outcome-major order."""
    return [((part.members[k][0], t), v)
            for t, (part, _, _) in enumerate(X.layers[:stop]) if t >= start
            for k, v in enumerate(X._numbers(t))]


def first_failing(X: Process, test=None, start=None, increments: bool = False):
    """(i, t) of the first cell of X failing its test, in outcome-major order
    (outcome i, then its times), or None when every tested cell passes.

    ``test`` runs at every time, ``start`` in its place at time 0; a time
    left without a test is skipped.  With ``increments`` the cells are dX_t
    for t >= 1.  Each test runs once per (time, atom), on numbers.
    """
    if increments:
        X = X.increments
    return min((key for key, v in _keyed(X, int(increments), None if test is not None else 1)
                if (check := start or test if key[1] == 0 else test) is not None
                and not check(v)), default=None)


def distinct_cells(X: Process, start: int = 0, increments: bool = False) -> list:
    """The cells of X from time ``start`` on (of its increments dX_t, t >= 1,
    with ``increments``), one per (time, atom), as numbers, in the
    outcome-major order of their first outcome."""
    if increments:
        X, start = X.increments, 1
    return [v for _, v in sorted(_keyed(X, start), key=lambda kv: kv[0])]


def first_mismatch(X: Process, Y: Process):
    """First cell where two processes differ, in outcome-major order.

    Returns (outcome, t, a, b) with a and b the first unequal components,
    as numbers, or None when every value agrees under the space's
    arithmetic.  Each atom of the two processes' meet is compared once,
    over the lcm of their denominators.
    """
    if X.space is not Y.space or X.horizon != Y.horizon or X.dim != Y.dim:
        raise SpaceError("processes live on different grids")
    eq, misses = X.space.arith.eq, []
    for t, layers in enumerate(zip(X.layers, Y.layers)):
        part, (us, vs), _ = _common(layers)
        misses += [(part.members[k][0], t)
                   for k, (u, v) in enumerate(zip(us, vs)) if not all(map(eq, u, v))]
    if not misses:
        return None
    i, t = min(misses)
    o = X.space.outcomes[i]
    a, b = next((a, b) for a, b in zip(X.at(o, t), Y.at(o, t)) if not eq(a, b))
    return o, t, a, b


def is_adapted(X: Process, filtration: Filtration) -> bool:
    """Time-t values constant on every time-t atom: checked once per atom
    of the meet, against the cell on the atom's first outcome."""
    if X.horizon != filtration.horizon:
        return False
    eq = X.space.arith.eq  # over one denominator, numerators compare as values
    for (part, cells, _), atoms in zip(X.layers, filtration.partitions):
        meet, mine, theirs = part.meet(atoms)
        if len(meet.atoms) == len(atoms.atoms):
            continue  # each atom lies inside one atom of the process
        first: dict = {}
        for p, q in zip(mine, theirs):
            if not all(map(eq, cells[p], first.setdefault(q, cells[p]))):
                return False
    return True


# ---------------------------------------------------------------------------
# conditional expectation


def atom_means(given: Partition, *layers, value=lambda v: v,
               weighted=lambda w, v: tuple(w * x for x in v)) -> tuple:
    """The layer on ``given`` of the mean of ``value(*cells)`` over each of
    its atoms, for the cells of the operand layers on the meet of their
    partitions (by default one operand, averaged as it is).  ``value`` must
    be linear in each operand's cells, like a :func:`product` op.

    Exact mode sums integer masses times ``value`` of the numerators over
    the child atoms (the meet with ``given``) and builds no Fraction.  Float
    mode sums ``weighted(w, *cells)`` member by member, in outcome order,
    over the atom mass, because float sums depend on their order.
    """
    part, args = _aligned(layers)
    space = part.space
    if not space.arith.exact:
        w, at, cells = space.weights, part.atom_at, list(zip(*args))
        return given, tuple(
            tuple(sum(col, 0) / mass for col in zip(*(weighted(w[i], *cells[at[i]])
                                                      for i in members)))
            for members, mass in zip(given.members, given.masses)), 1
    meet, mine, theirs = part.meet(given)
    values = list(map(value, *args))
    sums: list = [None] * len(given.atoms)
    totals = [0] * len(given.atoms)
    for p, q, n in zip(mine, theirs, meet.integer_masses):
        s, v = sums[q], values[p]
        sums[q] = [n * x for x in v] if s is None else [a + n * x for a, x in zip(s, v)]
        totals[q] += n
    lcm = math.lcm(*totals)
    return _reduced(given, tuple(tuple(a * (lcm // n) for a in s) for s, n in zip(sums, totals)),
                    math.prod(d for _, _, d in layers) * lcm)


def cond_exp(X: Process, t: int, given: Partition, layer: bool = False):
    """E[X_t | given]: one value vector per atom of ``given``, as numbers
    (one Fraction per atom mean and component in exact mode), from
    :func:`atom_means`; with ``layer``, that (given, cells, den) layer
    itself, for the calculus to build on."""
    means = atom_means(given, X.layers[t])
    return means if layer else list(_decoded(means[1], means[2], X.space.arith.exact))
