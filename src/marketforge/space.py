"""Finite filtered probability spaces on a discrete time grid.

A sample space is a finite set of labelled outcomes with strictly positive
weights summing to one.  Information flow is a filtration: one partition of
the outcomes per time t in {0, ..., horizon}, each refining the previous
one.  The time-0 partition may already be nontrivial, which is how an
initially enlarged observer enters the picture.

This module owns the atom index, a tree of partitions: each partition's
outcome indices (``members``), probabilities (``masses``) and the atom of
each outcome (``atom_at``), built once and lazily, and the meet of two
partitions with the atom each holds (``Partition.meet``, built once per
pair in either order).  A partition built by refining another
(``Partition.refine_by``, and with it the natural filtration, the initial
and progressive enlargements and the layers ``Process.from_keys`` splits)
registers its parent map, the coarser atom holding each of its atoms,
read off its grouping keys; a flow refined time by time registers each
partition's map onto the one before.  A meet is read off a registered
partition that refines both operands: the distinct pairs of parents over
its atoms are the atoms of the meet, so F_t v G_{t-1} is read off G_t.
Only a pair with no registered common refinement, such as a user-given
flow at load, is met outcome by outcome.  ``parents`` reads the map of a
refinement, a partition with a registered refinement sums its
``integer_masses`` over the parent map (only the finest sum their
outcomes' weights), and ``Filtration.children(t)``, ``transition(t, k)``
and ``transitions(t)`` read each time-(t-1) atom's time-t children and
their conditional masses off it.

A process is stored atom-major, one value vector per (time, atom) of the
partitions it lives on: a filtration's (:meth:`Process.adapted`, and the
time-(t-1) ones for :meth:`Process.predictable`; :meth:`Process.from_keys`,
the loader's entry, on its flow's atoms where the process is adapted to
the flow, so with no outcome grouped, and each distinct cell of a column
encoded once), the level sets of its values (:meth:`Process.from_keys`
without a flow, and :meth:`Process.from_paths` on it), or, for a kernel
result, the meet of its operands' (:func:`componentwise`).  Each
time is one layer, a triple (partition, columns, den), stored column-major:
one tuple per value component, each with one entry per atom.  In exact
mode the entries are integer numerators over the one positive denominator
``den``, with gcd(den, *numerators) = 1, so a kernel does integer
arithmetic and reduces once; in float mode they are the floats themselves
and ``den`` is 1, so the same kernels run on floats.  Every kernel is one
``map`` of an ``operator`` function per column, with no Python call per
cell.  A linear kernel (:func:`componentwise` for sums and differences,
:meth:`Process.scale`) brings its operands to the lcm of their
denominators; a bilinear one (:func:`product`) multiplies them and takes a
contraction: output component c is the sum over the index pairs
``terms[c]`` of a_i * b_j (a dot product sums from 0, so a float zero sum
is +0.0).  The kernels' float sums of many terms (a dot product, a
conditional mean) are ``math.fsum``, correctly rounded, and an atom's
float mass is its exact integer sum correctly rounded, so no process
value depends on the order the outcomes are listed in or on the Python
version.
Increments are defined once, here (:attr:`Process.increments`, dX_0 = 0);
:func:`atom_means` averages a layer, or the outer product of two, over
the child atoms of each atom in both modes, one plan per pair of
partitions: mass(child) * value(child) summed over each atom's children,
in integers in exact mode and by ``math.fsum`` in float mode (and returns
the cells as they are where each atom is its own only child);
:func:`cond_exp` is its layer of E[X_t | given], and :func:`is_adapted`
checks once per atom.  Only this module and ``calculus`` know the layout:
the other layers build processes from per-atom tables or per-outcome
paths, and read them as numbers (Fractions in exact mode, decoded once
per layer) through :meth:`Process.on_atoms`, :meth:`Process.at` and
:func:`first_mismatch`.  Their decisions read the layers undecoded:
:func:`first_failing` runs each test on a cell's numerators over the
layer's denominator, :func:`extrema` compares entries over each layer's
denominator and decodes the two extremes a report shows, and
:meth:`Process.value_keys` gives a cell's value key, (numerators // g,
den // g) with g = gcd(den, *numerators) (a float cell keys by its bits),
taken once per layer: the memo key of the solves above, as
:meth:`Filtration.transition_keys` keys a site's transition probabilities
off the integer masses.
:func:`first_failing` and :func:`first_mismatch` keep outcome-major
order, so witnesses keep theirs.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, compress, count, repeat
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
    _sums: dict = field(default_factory=dict, repr=False)  # operand partition -> _sum_plan

    def __post_init__(self) -> None:
        self._atom_of.update(zip(chain.from_iterable(self.atoms), chain.from_iterable(
            map(repeat, count(), map(len, self.atoms)))))
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
        """Common refinement with the level sets of a labelling.  Its atoms
        are grouped by the keys (atom of self, value), so the atom of self
        holding each of them is read off those keys and registered as its
        parent map."""
        if len(values) != self.space.size:
            raise SpaceError("labelling must have one value per outcome")
        return _split(self, values)[0]

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Outcome indices of each atom."""
        return tuple(map(tuple, map(map, repeat(self.space._index.__getitem__), self.atoms)))

    @cached_property
    def masses(self) -> tuple[Num, ...]:
        """Probability of each atom, read off ``integer_masses``: a
        ``Fraction`` in exact mode, in float mode the integer sum divided
        by the lcm, correctly rounded, so it is the ``math.fsum`` of its
        outcomes' weights whatever their order."""
        lcm = self.space.integer_weights[0]
        if self.space.arith.exact:
            return tuple(Fraction(n, lcm) for n in self.integer_masses)
        return tuple([n / lcm for n in self.integer_masses])

    @cached_property
    def integer_masses(self) -> tuple[int, ...]:
        """Masses times the lcm of the weights' denominators: integers with
        the masses' ratios, for sums that build no Fraction per term.  A
        partition with a registered refinement sums the integer masses of
        the coarsest one over its parent map; only one with none sums its
        outcomes' weights."""
        finer = min(self._finer(), key=lambda r: len(r.atoms), default=None)
        if finer is None:
            w = self.space.integer_weights[1]
            return tuple(map(sum, map(map, repeat(w.__getitem__), self.members)))
        sums = [0] * len(self.atoms)
        for k, m in zip(finer._meets[self][2], finer.integer_masses):
            sums[k] += m
        return tuple(sums)

    @cached_property
    def atom_at(self) -> tuple[int, ...]:
        """Index of the atom holding each outcome, by outcome index."""
        return tuple(map(self._atom_of.__getitem__, self.space.outcomes))

    @cached_property
    def _own(self) -> tuple[int, ...]:
        """Each atom's own index: the parent map of a partition onto itself."""
        return tuple(range(len(self.atoms)))

    def _finer(self) -> list:
        """The partitions registered as strictly finer than this one."""
        return [r for r, (meet, _, _) in self._meets.items() if meet is r and r is not self]

    def parents(self, coarser: "Partition") -> tuple[int, ...]:
        """Index of the coarser atom enclosing each atom of this refinement."""
        return self.meet(coarser)[2]

    def meet(self, other: "Partition") -> tuple:
        """(meet, mine, theirs): the coarsest common refinement of the two
        partitions, and for each of its atoms the index of the atom of this
        partition and of ``other`` holding it.  The meet is this partition
        (or ``other``) itself when it refines the other.  Built once per
        pair of partition objects, in either order, and read off the parent
        maps of a registered partition refining both (``_read_off``); the
        trivial partition meets every one for free.  Only a pair with no
        registered common refinement is met outcome by outcome
        (``_outcome_meet``).  Every meet is registered, with its maps onto
        the two operands."""
        hit = self._meets.get(other)
        if hit is None:
            meet, mine, theirs = hit = _read_off(self, other) or _outcome_meet(self, other)
            _nest(meet, self, mine)
            _nest(meet, other, theirs)
            self._meets.setdefault(other, hit)
            other._meets.setdefault(self, (meet, theirs, mine))
        return hit


def _split(part: Partition, values) -> tuple:
    """(refinement, value of each of its atoms): ``part`` refined by the
    level sets of the labelling ``values``, grouped by the keys (atom of
    ``part``, value), and registered as refining ``part`` with the parent
    map read off those keys."""
    fine, keys = _level_sets(part.space, zip(part.atom_at, values))
    _nest(fine, part, tuple([k for k, _ in keys]))
    return fine, [v for _, v in keys]


def _nest(fine: Partition, coarse: Partition, parents: tuple) -> None:
    """Register that ``fine`` refines ``coarse``, with ``parents`` the
    index of the coarse atom holding each fine atom: the meet of the two in
    either order."""
    if fine is not coarse and coarse not in fine._meets:
        fine._meets[coarse] = (fine, fine._own, parents)
        coarse._meets[fine] = (fine, parents, fine._own)


def _parent_map(fine: Partition, coarse: Partition):
    """The index of the atom of ``coarse`` holding each atom of ``fine``,
    read off the registered map of a refinement, or None where ``fine`` is
    not registered as refining ``coarse``."""
    if fine is coarse:
        return fine._own
    if len(coarse.atoms) == 1:
        return (0,) * len(fine.atoms)
    hit = fine._meets.get(coarse)
    return hit[2] if hit is not None and hit[0] is fine else None


def _read_off(a: Partition, b: Partition):
    """(meet, mine, theirs) of ``a`` and ``b`` read off the parent maps of
    a registered partition r refining both, or None where there is none:
    the distinct (atom of a, atom of b) pairs over the atoms of r, in order
    of their first atom of r, are the atoms of the meet in canonical order,
    so no outcome is visited unless the meet is a new partition, whose
    atoms are the union of r's atoms of one pair."""
    if a is b or len(b.atoms) == 1:
        return a, a._own, _parent_map(a, b)
    if len(a.atoms) == 1:
        return b, (0,) * len(b.atoms), b._own
    for r in a._finer():
        up_b = _parent_map(r, b)
        if up_b is not None:
            up_a = _parent_map(r, a)
            break
    else:
        return None
    pairs = dict.fromkeys(zip(up_a, up_b))
    mine, theirs = map(tuple, zip(*pairs))
    if len(pairs) == len(r.atoms):
        return r, up_a, up_b
    if len(pairs) in (len(a.atoms), len(b.atoms)):
        return a if len(pairs) == len(a.atoms) else b, mine, theirs
    index = {pair: i for i, pair in enumerate(pairs)}
    group = tuple(map(index.__getitem__, zip(up_a, up_b)))
    atoms = [[] for _ in pairs]
    for g, atom in zip(group, r.atoms):
        atoms[g] += atom
    idx = a.space._index.__getitem__
    atoms = tuple(tuple(sorted(atom, key=idx)) for atom in atoms)
    meet = a.space._partitions.get(atoms) or Partition(a.space, atoms)
    _nest(r, meet, group)
    return meet, mine, theirs


def _outcome_meet(a: Partition, b: Partition) -> tuple:
    """(meet, mine, theirs) of two partitions with no registered common
    refinement, from one pass over both partitions' ``atom_at``: the
    distinct (mine, theirs) pairs in order of their first outcome, one per
    atom of the meet, in its canonical order."""
    pairs = dict.fromkeys(zip(a.atom_at, b.atom_at))
    mine, theirs = map(tuple, zip(*pairs))
    meet = a if len(pairs) == len(a.atoms) else \
        b if len(pairs) == len(b.atoms) else \
        _grouped(a.space, zip(a.atom_at, b.atom_at))
    return meet, mine, theirs


def _grouped(space: SampleSpace, keys) -> "Partition":
    """The outcomes grouped by equal keys, one key per outcome, atoms in
    order of their first outcome; a partition equal to one already built
    on the space is that one."""
    return _level_sets(space, keys)[0]


def _level_sets(space: SampleSpace, keys) -> tuple:
    """(``_grouped``, its distinct keys in the order of its atoms)."""
    groups: dict = {}
    for o, key in zip(space.outcomes, keys):
        groups.setdefault(key, []).append(o)
    atoms = tuple(map(tuple, groups.values()))
    return space._partitions.get(atoms) or Partition(space, atoms), tuple(groups)


# ---------------------------------------------------------------------------
# filtrations and enlargement pairs


@dataclass(frozen=True, eq=False)
class Filtration:
    space: SampleSpace
    partitions: tuple[Partition, ...]
    _transitions: dict = field(default_factory=dict, repr=False)
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
            kids = [[] for _ in parent.atoms]
            for c, k in enumerate(part.parents(parent)):
                kids[k].append(c)
            self._children[t] = tuple(map(tuple, kids))
        return self._children[t]

    def transition(self, t: int, k: int) -> list:
        """[(child, p)]: the time-t children of the time-(t-1) atom k in
        canonical order, p = P(child | atom), in exact mode the ratio of
        their integer masses."""
        part, kids = self.at(t), self.children(t)[k]
        if self.space.arith.exact:
            masses, mass = part.integer_masses, self.at(t - 1).integer_masses[k]
            return [(part.atoms[c], Fraction(masses[c], mass)) for c in kids]
        masses, mass = part.masses, self.at(t - 1).masses[k]
        return [(part.atoms[c], masses[c] / mass) for c in kids]

    def transitions(self, t: int) -> list:
        """(k, atom, ``transition(t, k)``) for each time-(t-1) atom k.
        Built once per t."""
        if t not in self._transitions:
            self._transitions[t] = [(k, atom, self.transition(t, k))
                                    for k, atom in enumerate(self.at(t - 1).atoms)]
        return self._transitions[t]

    def transition_keys(self, t: int) -> list:
        """The value key of each time-(t-1) atom's child probabilities, in
        ``transitions`` order: equal probability vectors (and no others)
        share a key.  Exact mode keys the children's integer masses over
        the atom's (``_layer_key``), float mode the probabilities
        (``_cell_key``)."""
        if not self.space.arith.exact:
            return [_cell_key(tuple(p for _, p in kids)) for _, _, kids in self.transitions(t)]
        masses = self.at(t).integer_masses
        return [_layer_key(tuple(map(masses.__getitem__, kids)), n, True)
                for kids, n in zip(self.children(t), self.at(t - 1).integer_masses)]

    def refine_by(self, values: Sequence) -> "Filtration":
        return _refined_flow(self, [values] * len(self.partitions))


def _refined_flow(base: Filtration, labellings) -> Filtration:
    """The flow whose time-t partition is the base's refined by
    ``labellings[t]``, each labelling fixed, on each time-t base atom, by
    the next one (the same labelling, or a random time capped one step
    later), so each partition refines the one before: that parent map is
    read off each atom's first outcome and registered, as ``refine_by``
    registers the one onto the base."""
    parts = list(map(Partition.refine_by, base.partitions, labellings))
    for fine, coarse in zip(parts[1:], parts):
        _nest(fine, coarse, tuple([coarse._atom_of[atom[0]] for atom in fine.atoms]))
    return Filtration(base.space, tuple(parts))


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


def natural_filtration(space: SampleSpace, paths, cells: dict) -> Filtration:
    """The smallest filtration making the process ``Process.from_keys``
    builds from the same key paths adapted, with no process built: each
    time's partition is the one before (the trivial one before time 0)
    refined by the value ids of its column, equal values (0.0 and -0.0
    too) sharing one.  The paths must pass ``check_keys``."""
    ids, _ = _value_ids(cells, _ratios if space.arith.exact else tuple)
    part, parts = Partition.trivial(space), []
    for keys in zip(*paths):
        part = part.refine_by(list(map(ids.__getitem__, keys)))
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
    return EnlargementPair(base, _refined_flow(base, [
        [min(v, t + 1) for v in tau.values] for t in range(base.horizon + 1)]))


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


def _column(part: Partition, ids, cells) -> tuple:
    """The layer of one time: the value ids of the outcomes, ``ids``, on
    ``part`` refined by their level sets (``_split``), which is ``part``
    itself, with no outcome grouped, where each of its atoms holds one
    value; ``cells[v]`` is the value of id v.  Exact numerators over the
    lcm of the layer's cells' denominators, stored by column."""
    firsts = map(part.space._index.__getitem__, map(operator.itemgetter(0), part.atoms))
    values = list(map(ids.__getitem__, firsts))
    if not all(map(operator.eq, ids, map(values.__getitem__, part.atom_at))):
        part, values = _split(part, ids)
    distinct = dict.fromkeys(values)  # each value encoded once
    found, den = _numerators(tuple(map(cells.__getitem__, distinct)), part.space.arith.exact)
    cols = tuple(zip(*found))
    if len(distinct) < len(values):
        cols = _picked(cols, list(map(dict(zip(distinct, count())).__getitem__, values)))
    return part, cols, den


def _encoded(part: Partition, cells) -> tuple:
    """The layer (part, columns, den) of number cells, one per atom of
    ``part``: ``_numerators`` of the columns of the distinct cell objects,
    each encoded once, picked per atom."""
    cells = tuple(cells)
    distinct = dict(zip(map(id, cells), cells))
    cols, den = _numerators(tuple(zip(*distinct.values())), part.space.arith.exact)
    if len(distinct) < len(cells):
        cols = _picked(cols, list(map(dict(zip(distinct, count())).__getitem__, map(id, cells))))
    return part, cols, den


def _decoded(layer, exact: bool) -> tuple:
    """The cells of a layer as numbers, one vector per atom: Fractions in
    exact mode."""
    part, cols, den = layer
    if exact:
        cols = [tuple(map(Fraction, col, repeat(den))) for col in cols]
    return _rows(cols, len(part.atoms))


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
    return tuple([tuple(map(col.__getitem__, index)) for col in cols])


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
        cols.append(tuple(_dot(steps, len(part.atoms), exact) if dot else
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
        if any(len(col) != len(part.atoms) for part, cols, _ in self.layers for col in cols):
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
        vector of numbers.  Keys of equal value (``"1/2"`` and ``0.5``;
        float ``1`` and ``1.0``) share one value id (``_value_ids``), float
        cells as ``_cell_key`` keys them, so -0.0 stays apart from 0.0.
        Each time's layer lives on the flow's partition refined by the
        value ids of its column (``_column``): on the flow's own atoms
        where the process is adapted to it, and on the level sets of the
        values without a flow.  The paths are checked as ``check_keys``
        checks them, and against the flow's horizon."""
        check_keys(space, paths, cells)
        if flow is not None and len(paths[0]) != len(flow.partitions):
            raise SpaceError("paths and flow disagree on the horizon")
        ids, found = _value_ids(cells, _ratios if space.arith.exact else _cell_key)
        parts = repeat(Partition.trivial(space)) if flow is None else flow.partitions
        return cls(space, tuple(_column(part, list(map(ids.__getitem__, keys)), found)
                                for part, keys in zip(parts, zip(*paths))))

    @classmethod
    def adapted(cls, filtration: "Filtration", table, dim: int = 1) -> "Process":
        """Build from per-atom values: ``table[(t, k)]`` on the time-t atom k."""
        columns = [[_as_vector(table[(t, k)]) for k in range(len(part.atoms))]
                   for t, part in enumerate(filtration.partitions)]
        if not {dim}.issuperset(map(len, chain.from_iterable(columns))):
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

    def on_atoms(self, t: int, atoms, increments: bool = False) -> list:
        """X_t (dX_t with ``increments``) on each of the given atoms, read at
        the atom's first outcome: the process must be constant there."""
        return [(self.increments if increments else self).at(atom[0], t) for atom in atoms]

    def value_keys(self, t: int, atoms, increments: bool = False) -> tuple:
        """The value keys of X_t (dX_t with ``increments``) on each of the
        given atoms, read at the atom's first outcome straight off the
        layer, with no number decoded: equal values (and no others) share a
        key, over any denominator and at any time (``_layer_key``).  A
        layer's keys are taken once, each distinct exact cell keyed once."""
        X = self.increments if increments else self
        part, cols, den = X.layers[t]
        keys = X._keys.get(t)
        if keys is None:
            cells = _rows(cols, len(part.atoms))
            if self.space.arith.exact:  # ints: -0.0 and 0.0 would merge in a dict
                distinct = {v: _layer_key(v, den, True) for v in dict.fromkeys(cells)}
                keys = tuple(map(distinct.__getitem__, cells))
            else:
                keys = tuple(map(_cell_key, cells))
            X._keys[t] = keys
        if atoms is part.atoms:
            return keys
        return tuple([keys[part.atom_index(atom[0])] for atom in atoms])

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


def first_failing(X: Process, test=None, start=None, increments: bool = False):
    """(i, t) of the first cell of X failing its test, in outcome-major order
    (outcome i, then its times), or None when every tested cell passes.

    ``test`` runs at every time, ``start`` in its place at time 0; a time
    left without a test is skipped.  With ``increments`` the cells are dX_t
    for t >= 1.  Each test runs once per (time, atom), as ``test(v, den)``
    on the cell's numerators ``v`` over the layer's denominator ``den``
    (floats over 1 in float mode), so it must be homogeneous in (v, den):
    ``v[0] > 0``, ``v[0] < den``, ``eq(v[0], den)``.
    """
    if increments:
        X = X.increments
    misses = []
    for t, (part, cols, den) in enumerate(X.layers):
        check = (start or test) if t == 0 else test
        if check is not None and t >= increments:
            cells = _rows(cols, len(part.atoms))
            misses += [(X.space._index[part.atoms[k][0]], t)
                       for k in _failing(map(check, cells, repeat(den)))]
    return min(misses, default=None)


def extrema(X: Process, start: int = 0, increments: bool = False):
    """(least, greatest) component of the cells of X from time ``start`` on
    (of its increments dX_t, t >= 1, with ``increments``), as numbers, or
    None when there is none.  Entries compare over their layer's
    denominator (floats over 1), column by column, and the first of equal
    extremes in (time, component, atom) order is kept, so a float tie of
    0.0 and -0.0 keeps its first; exact mode decodes the two extremes
    alone."""
    if increments:
        X, start = X.increments, 1
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


def _eq(arith: Arithmetic):
    """Equality of two entries over one denominator: numerators compare as
    values in exact mode."""
    return operator.eq if arith.exact else arith.eq


def first_mismatch(X: Process, Y: Process):
    """First cell where two processes differ, in outcome-major order.

    Returns (outcome, t, a, b) with a and b the first unequal components,
    as numbers, or None when every value agrees under the space's
    arithmetic.  Each atom of the two processes' meet is compared once,
    over the lcm of their denominators.
    """
    if X.space is not Y.space or X.horizon != Y.horizon or X.dim != Y.dim:
        raise SpaceError("processes live on different grids")
    eq, misses = _eq(X.space.arith), []
    for t, layers in enumerate(zip(X.layers, Y.layers)):
        part, (us, vs), _ = _common(layers)
        bad = set(chain.from_iterable(_failing(map(eq, u, v)) for u, v in zip(us, vs)))
        misses += [(X.space._index[part.atoms[k][0]], t) for k in bad]
    if not misses:
        return None
    i, t = min(misses)
    o = X.space.outcomes[i]
    eq = X.space.arith.eq
    a, b = next((a, b) for a, b in zip(X.at(o, t), Y.at(o, t)) if not eq(a, b))
    return o, t, a, b


def is_adapted(X: Process, filtration: Filtration) -> bool:
    """Time-t values constant on every time-t atom: checked once per atom
    of the meet, against the entry on the first atom of the meet inside the
    same flow atom."""
    if X.horizon != filtration.horizon:
        return False
    eq = _eq(X.space.arith)
    for (part, cols, _), atoms in zip(X.layers, filtration.partitions):
        meet, mine, theirs = part.meet(atoms)
        if len(meet.atoms) == len(atoms.atoms):
            continue  # each atom lies inside one atom of the process
        first = dict(zip(reversed(theirs), reversed(mine)))  # the first one wins
        ref = tuple(map(first.__getitem__, theirs))
        for col in cols:
            if not all(map(eq, map(col.__getitem__, mine), map(col.__getitem__, ref))):
                return False
    return True


# ---------------------------------------------------------------------------
# conditional expectation


def _sum_plan(part: Partition, given: Partition) -> tuple:
    """(index, masses, groups, scale, lcm): the atoms of the meet of
    ``part`` with ``given`` grouped by the atom of ``given`` holding them,
    as the atom of ``part`` holding each and its mass, with each group as a
    ``slice``; and one scale per atom of ``given``.  Exact mode reads the
    integer masses, and an atom's scale is lcm // its integer mass, with
    lcm the lcm of those masses; float mode reads the masses, and an atom's
    scale is its mass (lcm 1).  Built once per pair."""
    hit = given._sums.get(part)
    if hit is None:
        meet, mine, theirs = part.meet(given)
        order = sorted(range(len(theirs)), key=theirs.__getitem__)
        ends = tuple(accumulate(map(Counter(theirs).__getitem__, range(len(given.atoms)))))
        if given.space.arith.exact:
            masses, totals = meet.integer_masses, given.integer_masses
            lcm = math.lcm(*totals)
            scale = tuple([lcm // n for n in totals])
        else:
            masses, scale, lcm = meet.masses, given.masses, 1
        hit = given._sums[part] = (
            tuple(map(mine.__getitem__, order)), tuple(map(masses.__getitem__, order)),
            tuple(map(slice, (0,) + ends[:-1], ends)), scale, lcm)
    return hit


def atom_means(given: Partition, layer, other=None) -> tuple:
    """The layer on ``given`` of the mean of a layer's cells over each of
    its atoms, or with ``other``, of the outer product of the two layers'
    cells on the meet of their partitions (entry i * dim(other) + j the
    mean of a_i * b_j, ``outer``).

    The terms are the child atoms (the meet with ``given``) in both modes:
    mass(child) * value(child), summed over each atom's children.  Exact
    mode sums integer masses times numerators and multiplies by the atom's
    scale (``_sum_plan``), so it builds no Fraction; float mode sums with
    ``math.fsum`` and divides by the atom's mass, so a mean depends neither
    on the order the outcomes are listed in nor on the Python version; a
    float sum of inf and -inf raises OverflowError ("scenario is out of
    float range").  Where ``given`` refines the operands' meet, each atom
    is its own one child and its mean is its value.
    """
    part, cols, den = layer if other is None else \
        product(outer(len(layer[1]), len(other[1])), layer, other)
    meet, mine, _ = part.meet(given)
    if meet is given:  # one child per atom: its mean is its value
        return _reduced(given, _picked(cols, mine), den)
    index, masses, groups, scale, lcm = _sum_plan(part, given)
    total, rescale = (sum, operator.mul) if given.space.arith.exact else \
        (math.fsum, operator.truediv)
    means = []
    for col in cols:
        terms = list(map(operator.mul, masses, map(col.__getitem__, index)))
        try:
            means.append(tuple(map(rescale, map(total, map(terms.__getitem__, groups)), scale)))
        except ValueError:  # math.fsum of inf and -inf: products out of float range
            raise OverflowError("scenario is out of float range") from None
    return _reduced(given, tuple(means), den * lcm)


def cond_exp(X: Process, t: int, given: Partition) -> tuple:
    """E[X_t | given]: the (given, columns, den) layer of the means of X_t
    over the atoms of ``given`` (:func:`atom_means`)."""
    return atom_means(given, X.layers[t])
