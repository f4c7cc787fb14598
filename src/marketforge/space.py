"""Finite filtered probability spaces on a discrete time grid.

A sample space is a finite set of labelled outcomes with strictly positive
weights summing to one.  Information flow is a filtration: one partition of
the outcomes per time t in {0, ..., horizon}, each refining the previous
one.  The time-0 partition may already be nontrivial, which is how an
initially enlarged observer enters the picture.

This module owns the atom index, a tree of partitions made one way
(``_refined``): a registered parent refined by an integer labelling of the
atoms of a finer partition, its base, in one keyed pass, the key (parent
atom, label) of each base atom giving its atom in order of first
appearance, so atoms stay in canonical order.  A flow groups the outcomes
once, by their whole key path (``_group_outcomes``: the natural filtration
by the driver's tokens; an enlargement or a given flow adds its label, its
capped random time or its atom ids), and keys each time's partition off
the next one's atoms (``_flow``).  Equal partitions stay one object.  A
meet is read off the maps of a registered partition refining both
operands, so F_t v G_{t-1} is read off G_t; the root, each outcome an
atom, refines every partition.  ``parents`` reads the map of a
refinement, ``integer_masses`` sum the base's over its map, and
``Filtration.children(t)``, ``transition(t, k)`` and ``transitions(t)``
read each time-(t-1) atom's time-t children and their conditional masses
off it.  The pipeline reads atoms by index; the outcome labels of an atom
(``Partition.atoms``) and the atom of each outcome (``atom_at``) are built
on demand, for a witness, a report or a caller.

A process is stored atom-major, one value vector per (time, atom) of the
partitions it lives on.  There are three ways to build one: from a table
on a filtration's atoms (:meth:`Process.adapted`), from a solve's per-atom
keys with one value per distinct key, on the time-(t-1) atoms and zero at
time 0 (:meth:`Process.keyed`, the predictable processes), or from
per-outcome key paths (:meth:`Process.from_keys`, the loader's entry, on
its flow's atoms where the process is adapted to it, each column read once
per atom of the flow's finest partition, and on the level sets of its
values without a flow).  All three encode a layer one way (``_layer``):
each distinct value once, then gathered per atom.  A kernel result lives
on the meet of its operands' partitions (:func:`componentwise`).  Each
time is one layer, a triple (partition, columns, den): one tuple per value
component, each with one entry per atom.  In exact mode the entries are
integer numerators over the one positive denominator ``den``, with
gcd(den, *numerators) = 1, so a kernel does integer arithmetic and reduces
once; in float mode they are the floats themselves over 1, so the same
kernels run on floats.  A kernel reads a column on other atoms by one
gather (``_gather``, ``_getter``: one C-level ``operator.itemgetter`` over
an index map the partitions already hold, the meet's maps onto its
operands or a sum plan's order), and computes by one ``map`` of an
``operator`` function per column: a linear one (:func:`componentwise`,
:meth:`Process.scale`) over the lcm of its operands' denominators, a
bilinear one (:func:`product`) a contraction over their product, output
component c the sum over the index pairs ``terms[c]`` of a_i * b_j.
Float sums of many terms are ``math.fsum``, correctly rounded, and an
atom's float mass is its exact integer sum correctly rounded, so no value
depends on the order the outcomes are listed in or on the Python version.
Increments are defined once, here, and are a process like any other
(:attr:`Process.increments`, dX_0 = 0, built once): every reader takes
``X.increments`` where it needs dX.  :func:`atom_means` averages a layer,
or the outer product of two, over the child atoms of each atom, one plan
per pair of partitions (exact sums as differences of prefix sums, float
ones by ``math.fsum``), and :func:`cond_exp` is its layer of
E[X_t | given].  Only this module and ``calculus`` know the layout: the
other layers build processes from per-atom tables or keys or per-outcome
paths, read them as numbers (Fractions in exact mode, decoded once per
layer) through :meth:`Process.on_atoms`, :meth:`Process.at` and
:func:`first_mismatch`, and decide on the layers undecoded:
:func:`first_failing` takes column predicates, each mapping a layer's
columns of numerators and its denominator to one flag per atom in C
(``map(operator.gt, columns[0], repeat(0))``, or :func:`all_entries` for
whole cells), :func:`starts_at_zero` reads the time-0 layer alone,
:func:`extrema` decodes only the two extremes, and
:meth:`Process.value_keys` gives each cell's value key, the memo key of
the solves above, as :meth:`Filtration.transition_keys` keys a site's
transition probabilities off the integer masses.  :func:`first_failing`
and :func:`first_mismatch` keep outcome-major order, so witnesses keep theirs.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import itemgetter
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
    _partitions: dict = field(default_factory=dict, repr=False)  # (size, firsts) -> partitions

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise SpaceError("sample space needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise SpaceError("outcome labels must be distinct")
        if len(self.weights) != len(self.outcomes):
            raise SpaceError("one weight per outcome required")
        # Exact weights are checked as integers over their lcm (``integer_weights``),
        # float ones by their correctly rounded sum.
        lcm, counts = self.integer_weights if self.arith.exact else (1, self.weights)
        for label, w in zip(self.outcomes, counts):
            if not w > 0:
                raise SpaceError(f"outcome {label!r} must have positive weight")
        if not self.arith.eq((sum if self.arith.exact else math.fsum)(counts), lcm):
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
        """(lcm, counts): the weights as integers over the lcm of their
        denominators, exactly (a float's denominator is a power of two)."""
        ratios = [w.as_integer_ratio() for w in self.weights]
        lcm = math.lcm(*{d for _, d in ratios})
        return lcm, tuple([n * (lcm // d) for n, d in ratios])

    @cached_property
    def root(self) -> "Partition":
        """The partition into single outcomes, which refines every other."""
        return Partition(self, self.size)

    @cached_property
    def trivial(self) -> "Partition":
        return self.root if self.size == 1 else Partition(self, 1, self.root, (0,))


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True, eq=False)
class Partition:
    """A partition of the outcomes into ``size`` atoms in canonical order,
    sorted by their first outcome, so iteration and reports are
    deterministic.  Every partition but the space's ``root`` is born by one
    keyed pass over the atoms of a finer one, its ``_base``; ``_first``
    holds each atom's first base atom (``_refined``)."""

    space: SampleSpace
    size: int
    _base: "Partition | None" = None
    _first: tuple = ()
    _up: dict = field(default_factory=dict, repr=False)  # coarser partition -> parent map
    _below: list = field(default_factory=list, repr=False)  # partitions mapped onto this one
    _meets: dict = field(default_factory=dict, repr=False)
    _sums: dict = field(default_factory=dict, repr=False)  # operand partition -> _sum_plan

    @classmethod
    def from_atoms(cls, space: SampleSpace, atoms: Iterable[Iterable[str]]) -> "Partition":
        """The partition with the given atoms, checked (``atom_labels``)."""
        return _group_outcomes(space.trivial, atom_labels(space, atoms))[0]

    @cached_property
    def atoms(self) -> tuple[tuple[str, ...], ...]:
        """The outcome labels of each atom, in outcome order; on demand."""
        groups = [[] for _ in range(self.size)]
        for o, k in zip(self.space.outcomes, self.atom_at):
            groups[k].append(o)
        return tuple(map(tuple, groups))

    @cached_property
    def atom_at(self) -> tuple[int, ...]:
        """Index of the atom holding each outcome, by outcome index: the
        root's map onto this partition; on demand."""
        return _parent_map(self.space.root, self)

    def atom_index(self, outcome: str) -> int:
        return self.atom_at[self.space.index(outcome)]

    def atom_of(self, outcome: str) -> tuple[str, ...]:
        return self.atoms[self.atom_index(outcome)]

    @cached_property
    def firsts(self) -> tuple[int, ...]:
        """Index of the first outcome of each atom, read down the bases."""
        if self._base is None:
            return self._own
        return _gather(self._base.firsts, self._first)

    def refines(self, other: "Partition") -> bool:
        """Every atom of self sits inside a single atom of other."""
        return self.meet(other)[0].size == self.size

    @cached_property
    def masses(self) -> tuple[Num, ...]:
        """Probability of each atom, a ``Fraction`` in exact mode, in float
        mode ``integer_masses`` over the lcm, correctly rounded."""
        lcm = self.space.integer_weights[0]
        if self.space.arith.exact:
            return tuple(Fraction(n, lcm) for n in self.integer_masses)
        return tuple([n / lcm for n in self.integer_masses])

    @cached_property
    def integer_masses(self) -> tuple[int, ...]:
        """Masses times the lcm of the weights' denominators, for sums that
        build no Fraction per term: the base's summed over its map onto
        this partition (the root's are the weights')."""
        if self._base is None:
            return self.space.integer_weights[1]
        sums = [0] * self.size
        for k, m in zip(_parent_map(self._base, self), self._base.integer_masses):
            sums[k] += m
        return tuple(sums)

    @cached_property
    def _own(self) -> tuple[int, ...]:
        """Each atom's own index: the parent map of a partition onto itself."""
        return tuple(range(self.size))

    def parents(self, other: "Partition") -> tuple[int, ...]:
        """Index of the atom of ``other`` holding each atom's first outcome:
        where this partition refines ``other``, its parent map."""
        meet, mine, theirs = self.meet(other)
        if meet is self:
            return theirs
        firsts = dict(zip(reversed(mine), reversed(theirs)))  # the first one wins
        return _gather(firsts, self._own)

    def meet(self, other: "Partition") -> tuple:
        """(meet, mine, theirs): the coarsest common refinement of the two
        partitions (either one where it refines the other), and the atom of
        each holding each of its atoms.  Read off the parent maps once per
        pair (``_met``), and registered with its maps onto the two."""
        hit = self._meets.get(other)
        if hit is None:
            meet, mine, theirs = hit = _met(self, other)
            _nest(meet, self, mine)
            _nest(meet, other, theirs)
            self._meets[other] = hit
            other._meets[self] = (meet, theirs, mine)
        return hit


def atom_labels(space: SampleSpace, atoms) -> list:
    """The atom of each outcome, by outcome index, of atoms given as
    outcome labels, numbered in canonical order.  Checked atom by atom in
    that order (every label known, no empty atom, no outcome in two), then
    for every outcome covered."""
    idx = space.index
    canon = sorted((sorted(a, key=idx) for a in atoms), key=lambda a: idx(a[0]) if a else -1)
    labels = [None] * space.size
    for k, atom in enumerate(canon):
        if not atom:
            raise SpaceError("empty atom in partition")
        for label in atom:
            if labels[idx(label)] is not None:
                raise SpaceError(f"outcome {label!r} appears in two atoms")
            labels[idx(label)] = k
    if None in labels:
        raise SpaceError("partition must cover every outcome")
    return labels


def _refined(parent: Partition, base: Partition, labels) -> tuple:
    """(child, keys, first): ``parent`` refined by ``labels``, an integer
    labelling of the atoms of ``base``, a partition refining it, in one
    keyed pass: the key (parent atom, label) of each base atom gives its
    child, numbered in order of first appearance, so in canonical order;
    ``keys`` maps each base atom to its child, and ``first`` is each
    child's first base atom.  Equal partitions stay one object: a child of
    the size of ``parent`` or ``base`` is that one, and one made before
    with the child's size, first outcomes and map from ``base`` is that
    one."""
    up = _parent_map(base, parent)
    if parent.size > 1:  # the key (atom, label) as one integer
        labels = list(map(operator.add, map(operator.mul, up, repeat(max(labels) + 1)), labels))
    at = dict(zip(reversed(labels), range(len(labels) - 1, -1, -1)))  # the first one wins
    first = tuple(sorted(at.values()))
    ids = dict(zip(_gather(labels, first), count()))
    keys, n = _gather(ids, labels), len(first)
    if n in (parent.size, base.size):
        return parent if n == parent.size else base, keys, first
    made = base.space._partitions.setdefault((n, _gather(base.firsts, first)), [])
    child = next((p for p in made if _maps_onto(base, p, keys)), None)
    if child is None:
        child = Partition(base.space, n, base, first)
        made.append(child)
    _nest(base, child, keys)
    _nest(child, parent, _gather(up, first))
    return child, keys, first


def _maps_onto(base: Partition, part: Partition, keys: tuple) -> bool:
    """Whether ``keys`` is the map of ``base`` onto ``part``."""
    up = _parent_map(base, part)
    if up is None:  # no registered map: compare the two read off the outcomes
        return part.atom_at == _gather(keys, base.atom_at)
    return up == keys


def _group_outcomes(parent: Partition, labels) -> tuple:
    """``_refined`` over the root by one hashable label per outcome, numbered
    first: the one grouping of the outcomes, once per flow (``_flow``), and
    for a partition given as atoms or a process not adapted to its flow."""
    ids = dict(zip(dict.fromkeys(labels), count()))
    return _refined(parent, parent.space.root, _gather(ids, labels))


def _nest(fine: Partition, coarse: Partition, parents: tuple) -> None:
    """Register the map of ``fine`` onto ``coarse`` (none onto one atom)."""
    if fine is not coarse and coarse.size > 1 and coarse not in fine._up:
        fine._up[coarse] = parents
        coarse._below.append(fine)


def _parent_map(fine: Partition, coarse: Partition, seen=None):
    """The index of the atom of ``coarse`` holding each atom of ``fine``,
    read off the registered maps (a chain of them, found depth first,
    composed once and registered), or None where no chain leads there."""
    if fine is coarse:
        return fine._own
    if coarse.size == 1:
        return (0,) * fine.size
    hit, seen = fine._up.get(coarse), set() if seen is None else seen
    for mid, up in () if hit is not None else list(fine._up.items()):
        if mid not in seen:
            seen.add(mid)
            rest = _parent_map(mid, coarse, seen)
            if rest is not None:
                _nest(fine, coarse, _gather(rest, up))
                return fine._up[coarse]
    return hit


def _met(a: Partition, b: Partition) -> tuple:
    """(meet, mine, theirs) of ``a`` and ``b`` read off the maps of a
    partition r refining both: the smallest of the two and the partitions
    registered as finer than either, else the root.  The distinct (atom of
    a, atom of b) pairs over r's atoms are the meet's atoms (``_refined``);
    where they tell r's atoms apart, r is the meet, read with no keyed pass
    (so F_t v G_{t-1} is G_t for an initial enlargement)."""
    finer = [a, b]
    for part in finer:  # grows as it goes: every registered refinement
        finer += [p for p in part._below if p not in finer]
    for r in (*sorted(finer, key=operator.attrgetter("size")), a.space.root):
        up_a, up_b = _parent_map(r, a), _parent_map(r, b)
        if up_a is not None and up_b is not None:
            break
    if r is a or r is b:
        return r, up_a, up_b
    if len(set(zip(up_a, up_b))) == r.size:  # as ``_refined`` would find it
        return a if r.size == a.size else r, up_a, up_b
    meet, _, first = _refined(a, r, up_b)
    return meet, _gather(up_a, first), _gather(up_b, first)


# ---------------------------------------------------------------------------
# filtrations and enlargement pairs


@dataclass(frozen=True, eq=False)
class Filtration:
    space: SampleSpace
    partitions: tuple[Partition, ...]
    _children: dict = field(default_factory=dict, repr=False)

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

    def children(self, t: int) -> tuple:
        """The indices of each time-(t-1) atom's time-t children, in
        canonical order, from the parent map; built once per t."""
        if t not in self._children:
            parent, part = self.at(t - 1), self.at(t)
            kids = [[] for _ in range(parent.size)]
            for c, k in enumerate(part.parents(parent)):
                kids[k].append(c)
            self._children[t] = tuple(map(tuple, kids))
        return self._children[t]

    def transition(self, t: int, k: int) -> list:
        """[(c, p)]: the time-t children c of the time-(t-1) atom k in
        canonical order, p = P(child | atom), in exact mode the ratio of
        their integer masses."""
        part, kids = self.at(t), self.children(t)[k]
        if self.space.arith.exact:
            masses, mass = part.integer_masses, self.at(t - 1).integer_masses[k]
            return [(c, Fraction(masses[c], mass)) for c in kids]
        masses, mass = part.masses, self.at(t - 1).masses[k]
        return [(c, masses[c] / mass) for c in kids]

    def transitions(self, t: int) -> list:
        """``transition(t, k)`` of each time-(t-1) atom k."""
        return [self.transition(t, k) for k in range(self.at(t - 1).size)]

    def transition_keys(self, t: int) -> list:
        """The value key of each time-(t-1) atom's child probabilities,
        shared by equal probability vectors only: exact mode keys the
        children's integer masses over the atom's (``_layer_key``), float
        mode the probabilities (``_cell_key``)."""
        if not self.space.arith.exact:
            return [_cell_key(tuple(p for _, p in kids)) for kids in self.transitions(t)]
        masses = self.at(t).integer_masses
        return [_layer_key(_gather(masses, kids), n, True)
                for kids, n in zip(self.children(t), self.at(t - 1).integer_masses)]


def _flow(over: Partition, paths, columns, base: Filtration | None = None) -> Filtration:
    """The flow of the key ``paths``, one per outcome: the outcomes grouped
    once by them, under ``over``, into its finest partition, whose atoms'
    paths ``columns`` maps to one integer label per time and atom; then
    each time's partition keyed off the atoms of the next one's
    (``_refined``), back from the finest to time 0: the ``base`` flow's
    refined by the label, or with no base the trivial one by the labels up
    to that time, as one integer."""
    finest = _group_outcomes(over, paths)[0]
    cols = list(columns(_gather(paths, finest.firsts)))
    if base is None:
        width = max(map(max, cols)) + 1
        cols = list(accumulate(cols, lambda code, col: list(map(
            operator.add, map(operator.mul, code, repeat(width)), col))))
    parts, at = [finest], finest.atom_at
    for t in reversed(range(len(cols))):
        labels = _gather(cols[t], _gather(at, parts[-1].firsts))
        parent = finest.space.trivial if base is None else base.partitions[t]
        parts.append(_refined(parent, parts[-1], labels)[0])
    return Filtration(finest.space, tuple(parts[:0:-1]))


def given_flow(space: SampleSpace, labellings, base: Filtration | None = None) -> Filtration:
    """The flow of given partitions, ``labellings[t]`` the atom of each
    outcome at time t (``atom_labels``), grouped under the finest partition
    of the ``base`` flow it is to refine, when given (``_flow``), checked
    time by time to refine the one before."""
    flow = _flow(space.trivial if base is None else base.partitions[-1],
                 list(zip(*labellings)), lambda rows: zip(*rows))
    for t, (part, labels) in enumerate(zip(flow.partitions, labellings)):
        if part.size != max(labels) + 1:  # time t does not refine time t - 1
            raise SpaceError(f"partition at time {t} does not refine time {t - 1}")
    return flow


@dataclass(frozen=True, eq=False)
class EnlargementPair:
    """A base information flow F and an expanded one G on the same grid,
    checked to live on one space with one horizon, G refining F at every
    time, so every pair in hand is an enlargement."""

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


def natural_filtration(space: SampleSpace, paths, cells: dict) -> Filtration:
    """The smallest filtration making the process ``Process.from_keys``
    builds from the same key paths adapted, with no process built: the
    outcomes grouped once by their key paths, and each time's partition
    the one before refined by the value ids of its column, equal values
    (0.0 and -0.0 too) sharing one (``_flow``).  The paths must pass
    ``check_keys``."""
    ids, _ = _value_ids(cells, _ratios if space.arith.exact else tuple)
    return _flow(space.trivial, list(map(tuple, paths)),
                 lambda rows: [_gather(ids, col) for col in zip(*rows)])


def build_initial_enlargement(base: Filtration, variable: Sequence) -> EnlargementPair:
    """Expand by revealing a random variable at time 0: every time refined
    by its level sets, the outcomes grouped once, by it (``_flow``)."""
    if len(variable) != base.space.size:
        raise SpaceError("labelling must have one value per outcome")
    ids = dict(zip(dict.fromkeys(variable), count()))
    return EnlargementPair(base, _flow(base.partitions[-1], _gather(ids, variable),
                                       lambda rows: [rows] * len(base.partitions), base))


def build_progressive_enlargement(base: Filtration, tau: "RandomTime") -> EnlargementPair:
    """Expand by observing, at each t, whether and when tau has occurred.

    The time-t partition is refined by the level sets of min(tau, t+1), so
    the expanded observer distinguishes {tau = s} for s <= t from {tau > t};
    the outcomes are grouped once, by min(tau, horizon + 1) (``_flow``).
    """
    if tau.space is not base.space:
        raise SpaceError("random time lives on a different space")
    n = base.horizon + 1
    return EnlargementPair(base, _flow(base.partitions[-1], [min(v, n) for v in tau.values],
                                       lambda rows: [list(map(min, rows, repeat(t + 1)))
                                                     for t in range(n)], base))


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
# value keys


def _cell_key(v: tuple):
    """Key of a float cell by value, except that a cell holding a zero also
    keys on the reprs, so a float -0.0 never merges with 0.0."""
    return v if 0 not in v else (v, tuple(map(repr, v)))


def _layer_key(v: tuple, den: int, exact: bool):
    """Value key of the cell ``v`` of a layer over ``den``: in exact mode
    (numerators // g, den // g) with g = gcd(den, *numerators), so a value
    keys alike over every denominator; a float cell (over 1) by
    ``_cell_key``."""
    if not exact:
        return _cell_key(v)
    g = math.gcd(den, *v)
    return (v, den) if g == 1 else (tuple(a // g for a in v), den // g)


def _value_ids(cells: dict, by) -> tuple:
    """(ids, found): the value id of each key of ``cells``, and the first
    cell of each id: keys whose cells ``by`` keys alike share one id."""
    ids, values = {}, {}  # value -> (id, its first cell)
    for key, cell in cells.items():
        ids[key] = values.setdefault(by(cell), (len(values), cell))[0]
    return ids, [cell for _, cell in values.values()]


def _ratios(cell: tuple) -> tuple:
    """An exact cell keyed by value, with no Fraction hashed: its entries'
    integer ratios."""
    return tuple([x.as_integer_ratio() for x in cell])


def check_keys(space: SampleSpace, paths, cells: dict) -> None:
    """Raise SpaceError unless ``Process.from_keys`` can build from the key
    paths and cells: the paths are checked for count, then every cell for
    one dimension, then the paths for one horizon."""
    if len(paths) != space.size:
        raise SpaceError("process needs one path per outcome")
    if len(set(map(len, cells.values()))) > 1:
        raise SpaceError("all value vectors must share one dimension")
    if len(set(map(len, paths))) > 1:
        raise SpaceError("all paths must share one horizon")

# ---------------------------------------------------------------------------
# processes


def _as_vector(v) -> tuple:
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def _numerators(vectors, exact: bool) -> tuple:
    """(vectors, den): exact number vectors (cells or columns) as integer
    numerators over the lcm ``den`` of their denominators, so gcd(den,
    *numerators) is 1; float vectors as they are, over 1."""
    if not exact:
        return tuple(vectors), 1
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in v) for v in vectors), den


def _rows(columns, n: int) -> tuple:
    """The n cells whose components are the ``columns`` (n empty cells
    when there is none): a layer's cells, for the readers."""
    return tuple(zip(*columns)) if columns else ((),) * n


def _getter(index):
    """The gather at the positions ``index`` (a sequence): a callable
    giving the tuple of a sequence's, or a mapping's, entries there, in
    that order, by one C-level ``operator.itemgetter``, which gives a bare
    item for one index, so that case and the empty one are wrapped."""
    if len(index) > 1:
        return itemgetter(*index)
    if index:
        at = index[0]
        return lambda seq: (seq[at],)
    return lambda seq: ()


def _gather(seq, index) -> tuple:
    """``tuple(seq[i] for i in index)``, by one ``_getter``."""
    return _getter(index)(seq)


def _column(part: Partition, bottom: Partition, ids, cells) -> tuple:
    """The layer of one time: the value ids ``ids`` of the atoms of
    ``bottom`` (the flow's finest, or the root) on ``part`` refined by
    them, which is ``part`` where each of its atoms holds one value;
    ``cells[v]`` is the value of id v (``_layer``)."""
    values = _gather(ids, _gather(bottom.atom_at, part.firsts))
    if ids != _gather(values, _parent_map(bottom, part)):
        part, _, first = (_group_outcomes(part, ids) if bottom is bottom.space.root else
                          _refined(part, bottom, ids))
        values = _gather(ids, first)
    return _layer(part, values, cells)


def _layer(part: Partition, keys, values) -> tuple:
    """The layer (part, columns, den) whose atom k holds ``values[keys[k]]``,
    a number vector: each distinct key's value encoded once
    (``_numerators``), in order of first appearance, then gathered per
    atom."""
    distinct = dict.fromkeys(keys)
    cols, den = _numerators(tuple(zip(*_gather(values, tuple(distinct)))),
                            part.space.arith.exact)
    if len(distinct) < len(keys):
        cols = _picked(cols, _gather(dict(zip(distinct, count())), keys))
    return part, cols, den


def _decoded(layer, exact: bool) -> tuple:
    """The cells of a layer as numbers, one vector per atom: Fractions in
    exact mode."""
    part, cols, den = layer
    if exact:
        cols = [tuple(map(Fraction, col, repeat(den))) for col in cols]
    return _rows(cols, part.size)


def _reduced(part: Partition, cols, den: int) -> tuple:
    """The layer (part, cols, den) with the numerators and ``den`` divided
    by their gcd; over 1 (every float layer) there is nothing to divide."""
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(cols))
        if g != 1:
            den //= g
            cols = _scaled(cols, operator.floordiv, g)
    return part, cols, den


def _scaled(cols, op, f) -> tuple:
    """The columns with ``op(a, f)`` in place of each entry a."""
    return tuple([tuple(map(op, col, repeat(f))) for col in cols])


def _picked(cols, index) -> tuple:
    """The columns' entries at the atoms ``index``, in that order."""
    return tuple(map(_getter(index), cols))


def _aligned(layers) -> tuple:
    """(meet, args): the meet of the layers' partitions and, per layer, its
    columns on the atoms of the meet."""
    part, cols, _ = layers[0]
    args = [cols]
    for other, other_cols, _ in layers[1:]:
        meet, mine, theirs = part.meet(other)
        if meet is not part:
            args = [_picked(c, mine) for c in args]
        args.append(other_cols if meet is other else _picked(other_cols, theirs))
        part = meet
    return part, args


def _common(layers) -> tuple:
    """(meet, args, den): ``_aligned``, every operand brought to the lcm
    ``den`` of the layers' denominators."""
    part, args = _aligned(layers)
    den = math.lcm(*(d for _, _, d in layers))
    for i, (_, _, d) in enumerate(layers):
        if d != den:
            args[i] = _scaled(args[i], operator.mul, den // d)
    return part, args, den


def componentwise(op, *layers) -> tuple:
    """The layer of ``op`` (``operator.add``, ``operator.sub``) of the
    operands' matching components on each atom of the meet of their
    partitions; each operand is a (partition, columns, den) layer.  ``op``
    sees every operand over the lcm of their denominators, and its result
    is over that one too."""
    part, args, den = _common(layers)
    return _reduced(part, tuple([tuple(map(op, *cols)) for cols in zip(*args)]), den)


def product(terms, a, b, dot: bool = False) -> tuple:
    """The contraction of two layers on the meet of their partitions:
    output component c is the sum of a_i * b_j over the index pairs
    (i, j) of ``terms[c]``: with ``dot`` the sum of the products as
    ``_dot`` takes it, else the products added from the first, in list
    order.  Each operand is read over its own denominator, and the result
    is over their product."""
    part, (A, B) = _aligned((a, b))
    exact = part.space.arith.exact
    cols = []
    for pairs in terms:
        steps = [map(operator.mul, A[i], B[j]) for i, j in pairs]
        cols.append(tuple(_dot(steps, part.size, exact) if dot else
                          reduce(partial(map, operator.add), steps)))
    return _reduced(part, tuple(cols), a[2] * b[2])


def _dot(steps, n: int, exact: bool):
    """The sums of the ``steps``, columns of n entries, entry by entry (n
    zeros when there is none): exact numerators by the built-in ``sum``
    from 0, floats by ``math.fsum``, correctly rounded, so the sum depends
    neither on the order of its terms nor on the Python version, and a
    float zero sum is +0.0."""
    rows = zip(*steps) if steps else repeat((), n)
    return map(sum, rows) if exact else map(math.fsum, rows)


def outer(n: int, d: int) -> tuple:
    """The ``product`` terms of the outer product of an n-vector and a
    d-vector, flattened row by row: entry i * d + j is a_i * b_j."""
    return tuple(((i, j),) for i in range(n) for j in range(d))


@dataclass(frozen=True, eq=False)
class Process:
    """A process atom by atom: ``layers[t]`` is (partition, columns, den),
    with ``columns[c][k]`` component c of the value on atom k of the time-t
    partition, over the denominator ``den`` (integer numerators in exact
    mode, floats over 1 in float mode); there are ``dim`` columns, each
    with one entry per atom.  The dimension is checked where cells enter
    from outside a kernel (``from_paths``, ``adapted``); a kernel keeps its
    operands' one.
    """

    space: SampleSpace
    layers: tuple[tuple[Partition, tuple[tuple[Num, ...], ...], int], ...]
    _cache: dict = field(default_factory=dict, repr=False)  # t -> cells as numbers
    _keys: dict = field(default_factory=dict, repr=False)  # t -> value key per atom

    def __post_init__(self) -> None:
        if not self.layers:
            raise SpaceError("process needs at least time 0")
        if any(len(col) != part.size for part, cols, _ in self.layers for col in cols):
            raise SpaceError("process needs one value per atom at each time")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_paths(cls, space: SampleSpace, paths) -> "Process":
        """Build from per-outcome paths of numbers, ``paths[i][t]``; scalar
        entries are wrapped to 1-vectors (``from_keys``, each value keyed
        as ``_cell_key`` keys it)."""
        fixed = [tuple(map(_as_vector, path)) for path in paths]
        keys = [tuple(map(_cell_key, path)) for path in fixed]
        cells: dict = {}
        for key, v in zip(chain.from_iterable(keys), chain.from_iterable(fixed)):
            cells.setdefault(key, v)
        return cls.from_keys(space, keys, cells)

    @classmethod
    def from_keys(cls, space: SampleSpace, paths, cells: dict, flow=None) -> "Process":
        """Build from per-outcome paths of keys: ``paths[i][t]`` keys the
        value of outcome i at time t, and ``cells[key]`` is that value, a
        vector of numbers.  Keys of equal value (``"1/2"`` and ``0.5``)
        share one value id (``_value_ids``), float cells as ``_cell_key``
        keys them, so -0.0 stays apart from 0.0.  Each time's layer lives
        on the flow's partition refined by its column (``_column``), read
        once per atom of the flow's finest partition where each holds one
        key path: on the flow's own atoms where the process is adapted to
        it, on the level sets of the values without a flow.  The paths are
        checked as ``check_keys`` checks them, and against the flow's
        horizon."""
        check_keys(space, paths, cells)
        if flow is not None and len(paths[0]) != len(flow.partitions):
            raise SpaceError("paths and flow disagree on the horizon")
        ids, found = _value_ids(cells, _ratios if space.arith.exact else _cell_key)
        parts, bottom = repeat(space.trivial), space.root
        if flow is not None:
            parts, finest = flow.partitions, flow.partitions[-1]
            firsts = _gather(paths, finest.firsts)
            if all(map(operator.eq, paths, _gather(firsts, finest.atom_at))):
                paths, bottom = firsts, finest
        return cls(space, tuple(_column(part, bottom, _gather(ids, keys), found)
                                for part, keys in zip(parts, zip(*paths))))

    @classmethod
    def adapted(cls, filtration: "Filtration", table, dim: int = 1) -> "Process":
        """Build from per-atom values: ``table[(t, k)]`` on the time-t atom k."""
        cells = [[_as_vector(table[(t, k)]) for k in range(part.size)]
                 for t, part in enumerate(filtration.partitions)]
        if not {dim}.issuperset(map(len, chain.from_iterable(cells))):
            raise SpaceError("value dimension mismatch")
        return cls(filtration.space, tuple(_layer(part, range(part.size), row)
                                           for part, row in zip(filtration.partitions, cells)))

    @classmethod
    def keyed(cls, flow: "Filtration", keys, values, dim: int) -> "Process":
        """The predictable process of per-atom keys, as a solve emits it: zero
        at time 0 on the time-0 atoms, and the time-t value on the time-(t-1)
        atom k of ``flow`` is ``values[keys[t - 1][k]]``, a d-vector
        (``_layer``)."""
        parts = flow.partitions
        return cls(flow.space, ((parts[0], ((0,) * parts[0].size,) * dim, 1),
                                *map(_layer, parts, keys, repeat(values))))

    @classmethod
    def constant(cls, space: SampleSpace, horizon: int, value) -> "Process":
        return cls(space, (_layer(space.trivial, (0,), (_as_vector(value),)),) * (horizon + 1))

    # -- access ----------------------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self.layers) - 1

    @property
    def dim(self) -> int:
        return len(self.layers[0][1])

    def _numbers(self, t: int) -> tuple:
        """The time-t cells as numbers (Fractions in exact mode), one vector
        per atom of the time-t partition; decoded once per time."""
        hit = self._cache.get(t)
        if hit is None:
            hit = self._cache[t] = _decoded(self.layers[t], self.space.arith.exact)
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
        return self._zip(self.lagged(), componentwise, operator.sub)

    def on_atoms(self, t: int, part: Partition, ks) -> list:
        """X_t on the atoms ``ks`` of ``part``, each read at its first
        outcome (``Partition.parents``)."""
        cells, up = self._numbers(t), part.parents(self.layers[t][0])
        return [cells[up[k]] for k in ks]

    def value_keys(self, t: int, part: Partition) -> tuple:
        """The value keys of X_t on each atom of ``part``, read at its first
        outcome straight off the layer, with no number decoded: equal values
        (and no others) share a key, over any denominator and at any time
        (``_layer_key``).  A layer's keys are taken once, each distinct
        exact cell keyed once."""
        own, cols, den = self.layers[t]
        keys = self._keys.get(t)
        if keys is None:
            cells = _rows(cols, own.size)
            if self.space.arith.exact:  # ints: -0.0 and 0.0 would merge in a dict
                distinct = {v: _layer_key(v, den, True) for v in dict.fromkeys(cells)}
                keys = _gather(distinct, cells)
            else:
                keys = tuple(map(_cell_key, cells))
            self._keys[t] = keys
        return keys if part is own else _gather(keys, part.parents(own))

    def refined(self, flow: "Filtration") -> "Process":
        """The same process stored on the meet of its partitions with the
        flow's: on the flow's own atoms where it is adapted to the flow
        (the process itself where it is stored on them already)."""
        if all(map(operator.is_, (part for part, _, _ in self.layers), flow.partitions)):
            return self
        layers = []
        for (part, cols, den), atoms in zip(self.layers, flow.partitions):
            meet, mine, _ = part.meet(atoms)
            layers.append((meet, cols if meet is part else _picked(cols, mine), den))
        return Process(self.space, tuple(layers))

    def component(self, j: int) -> "Process":
        return Process(self.space, tuple(_reduced(part, (cols[j],), den)
                                         for part, cols, den in self.layers))

    # -- algebra ----------------------------------------------------------------

    def _zip(self, other: "Process", kernel, op) -> "Process":
        if self.space is not other.space or self.horizon != other.horizon:
            raise SpaceError("processes live on different grids")
        if self.dim != other.dim:
            raise SpaceError("dimension mismatch")
        return Process(self.space, tuple(
            kernel(op, *layers) for layers in zip(self.layers, other.layers)))

    def __add__(self, other: "Process") -> "Process":
        return self._zip(other, componentwise, operator.add)

    def __sub__(self, other: "Process") -> "Process":
        return self._zip(other, componentwise, operator.sub)

    def __neg__(self) -> "Process":
        return self.scale(-1)

    def scale(self, c: Num) -> "Process":
        """c times the process: in exact mode the numerators times c's
        numerator, over the denominator times c's."""
        n, q = (c.numerator, c.denominator) if self.space.arith.exact else (c, 1)
        return Process(self.space, tuple(
            _reduced(part, _scaled(cols, operator.mul, n), den * q)
            for part, cols, den in self.layers))

    def times(self, other: "Process") -> "Process":
        """Pointwise product, defined for scalar processes."""
        if self.dim != 1 or other.dim != 1:
            raise SpaceError("pointwise product is for scalar processes")
        return self._zip(other, product, outer(1, 1))

    def lagged(self) -> "Process":
        """Previous-time version: value at t is the value at t-1 (predictable)."""
        return Process(self.space, self.layers[:1] + self.layers[:-1])


def _failing(oks) -> Iterable[int]:
    """The indices of the false entries of ``oks``."""
    return compress(count(), map(operator.not_, oks))


def first_failing(X: Process, test=None, start=None):
    """(i, t) of the first cell of X failing its test, in outcome-major order
    (outcome i, then its times), or None when every tested cell passes.

    ``test`` runs at every time, ``start`` in its place at time 0; a time
    left without a test is skipped.  Each test runs once per layer as
    ``test(columns, den)``, on its columns of numerators over its
    denominator (floats over 1), and gives one flag per atom, true where
    the cell passes, as a C-level column predicate: ``map(operator.gt, columns[0], repeat(0))``,
    ``map(operator.lt, columns[0], repeat(den))`` or ``all_entries``.  An
    atom past the last flag passes.
    """
    misses = []
    for t, (part, cols, den) in enumerate(X.layers):
        check = (start or test) if t == 0 else test
        if check is not None:
            firsts = part.firsts
            misses += [(firsts[k], t) for k in
                       compress(range(part.size), map(operator.not_, check(cols, den)))]
    return min(misses, default=None)


def all_entries(op, columns, value) -> Iterable[bool]:
    """A ``first_failing`` test of whole cells: one flag per atom, true
    where ``op(entry, value)`` holds for every component of its cell (none
    at all, so every cell passing, when there is no column)."""
    return map(all, zip(*[map(op, col, repeat(value)) for col in columns]))


def extrema(X: Process, start: int = 0):
    """(least, greatest) component of the cells of X from time ``start`` on,
    as numbers, or None when there is none.  Entries compare over their layer's denominator, and the first
    of equal extremes in (time, component, atom) order is kept (a float tie
    of 0.0 and -0.0 keeps its first); exact mode decodes the two alone."""
    lo = hi = None
    for _, cols, den in X.layers[start:]:
        if cols:
            a, b = min(map(min, cols)), max(map(max, cols))
            if lo is None or a * lo[1] < lo[0] * den:
                lo = a, den
            if hi is None or b * hi[1] > hi[0] * den:
                hi = b, den
    if lo is None:
        return None
    return (Fraction(*lo), Fraction(*hi)) if X.space.arith.exact else (lo[0], hi[0])


def entries_equal(arith: Arithmetic):
    """Equality of two entries over one denominator, for a column
    predicate: numerators compare as values in exact mode
    (``operator.eq``), floats within the tolerance."""
    return operator.eq if arith.exact else arith.eq


def starts_at_zero(X: Process) -> bool:
    """Whether X_0 = 0, read off the time-0 layer alone."""
    return all(all_entries(entries_equal(X.space.arith), X.layers[0][1], 0))


def first_mismatch(X: Process, Y: Process):
    """First cell where two processes differ, in outcome-major order.

    Returns (outcome, t, a, b) with a and b the first unequal components,
    as numbers, or None when every value agrees under the space's
    arithmetic.  Each atom of the two processes' meet is compared once,
    over the lcm of their denominators.
    """
    if X.space is not Y.space or X.horizon != Y.horizon or X.dim != Y.dim:
        raise SpaceError("processes live on different grids")
    eq, misses = entries_equal(X.space.arith), []
    for t, layers in enumerate(zip(X.layers, Y.layers)):
        part, (us, vs), _ = _common(layers)
        bad = set(chain.from_iterable(_failing(map(eq, u, v)) for u, v in zip(us, vs)))
        misses += [(part.firsts[k], t) for k in bad]
    if not misses:
        return None
    i, t = min(misses)
    o = X.space.outcomes[i]
    eq = X.space.arith.eq
    a, b = next((a, b) for a, b in zip(X.at(o, t), Y.at(o, t)) if not eq(a, b))
    return o, t, a, b


def is_adapted(X: Process, filtration: Filtration) -> bool:
    """Time-t values constant on every time-t atom: checked once per atom
    of the meet, against the entry at the flow atom's first outcome."""
    if X.horizon != filtration.horizon:
        return False
    eq = entries_equal(X.space.arith)
    for (part, cols, _), atoms in zip(X.layers, filtration.partitions):
        meet, mine, theirs = part.meet(atoms)
        if meet.size == atoms.size:
            continue  # each atom lies inside one atom of the process
        mine, ref = _getter(mine), _getter(_gather(atoms.parents(part), theirs))
        for col in cols:
            if not all(map(eq, mine(col), ref(col))):
                return False
    return True


# ---------------------------------------------------------------------------
# conditional expectation


def _sum_plan(part: Partition, given: Partition) -> tuple:
    """(index, masses, groups, scale, lcm): the atoms of the meet of
    ``part`` with ``given`` grouped by the atom of ``given`` holding them,
    as the gather (``_getter``) of the atom of ``part`` holding each and
    their masses; the groups, in exact mode the (start, end) gathers of
    each group's bounds in the prefix sums of its terms, in float mode one
    ``slice`` per group; and one scale per atom of ``given``: in exact mode
    lcm // its integer mass, lcm the lcm of those, in float mode its mass
    (lcm 1).  Built once per pair."""
    hit = given._sums.get(part)
    if hit is None:
        meet, mine, theirs = part.meet(given)
        order = sorted(range(len(theirs)), key=theirs.__getitem__)
        ends = tuple(accumulate(map(Counter(theirs).__getitem__, range(given.size))))
        starts = (0,) + ends[:-1]
        if given.space.arith.exact:
            masses, totals = meet.integer_masses, given.integer_masses
            lcm = math.lcm(*totals)
            scale = tuple([lcm // n for n in totals])
            groups = _getter(starts), _getter(ends)
        else:
            masses, scale, lcm = meet.masses, given.masses, 1
            groups = tuple(map(slice, starts, ends))
        hit = given._sums[part] = (
            _getter(_gather(mine, order)), _gather(masses, order), groups, scale, lcm)
    return hit


def atom_means(given: Partition, layer, other=None) -> tuple:
    """The layer on ``given`` of the mean of a layer's cells over each of
    its atoms, or with ``other``, of the outer product of the two layers'
    cells (entry i * dim(other) + j the mean of a_i * b_j, ``outer``).

    The terms are mass(child) * value(child) over each atom's child atoms
    (the meet with ``given``), gathered once per column: exact mode sums
    integer masses times numerators, each atom's sum a difference of two
    prefix sums of the terms, and multiplies by the atom's scale
    (``_sum_plan``), with no Fraction built; float mode sums each atom's
    terms with ``math.fsum`` and divides by the atom's mass, so a mean
    depends neither on the outcomes' order nor on the Python version, and
    a sum of inf and -inf raises OverflowError ("scenario is out of float
    range").  Where ``given`` refines the operands' meet, each atom's mean
    is its value.
    """
    part, cols, den = layer if other is None else \
        product(outer(len(layer[1]), len(other[1])), layer, other)
    meet, mine, _ = part.meet(given)
    if meet is given:  # one child per atom: its mean is its value
        return _reduced(given, _picked(cols, mine), den)
    index, masses, groups, scale, lcm = _sum_plan(part, given)
    exact = given.space.arith.exact
    means = []
    for col in cols:
        terms = list(map(operator.mul, masses, index(col)))
        if exact:  # each atom's sum the difference of two prefix sums
            sums, (starts, ends) = list(accumulate(terms, initial=0)), groups
            sums = map(operator.sub, ends(sums), starts(sums))
        else:
            sums = map(math.fsum, map(terms.__getitem__, groups))
        try:
            means.append(tuple(map(operator.mul if exact else operator.truediv, sums, scale)))
        except ValueError:  # math.fsum of inf and -inf: products out of float range
            raise OverflowError("scenario is out of float range") from None
    return _reduced(given, tuple(means), den * lcm)


def cond_exp(X: Process, t: int, given: Partition) -> tuple:
    """E[X_t | given]: the (given, columns, den) layer of the means of X_t
    over the atoms of ``given`` (:func:`atom_means`)."""
    return atom_means(given, X.layers[t])
