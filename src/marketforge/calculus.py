"""Discrete stochastic calculus on finite filtered spaces.

Increment conventions: for any process X the time-0 increment is zero and
dX_t = X_t - X_{t-1} for t >= 1, read per time from ``Process.increments``
and summed back up by ``accumulate``.  On a finite grid every martingale has
finite everything, so the classical decompositions hold with no integrability
caveats: the continuous part of any process is zero and the purely
discontinuous martingale part coincides with the whole martingale part.

All operators return processes on the same grid; compensators and their
relatives are predictable and start at zero.  Like ``space``, this module
reads a process atom by atom, as layers stored by column (one tuple per
value component, each with one entry per atom), integer numerators over
one denominator in exact mode (floats over 1 in float mode): every
operation gathers each operand column onto the atoms of the meet of its
operands' partitions (one ``operator.itemgetter`` over the meet's map) and
computes by one ``map`` per column, through ``space.componentwise`` for
sums and differences (over the lcm of the operands' denominators) and
through ``space.product`` for contractions (over the product of the
denominators): output component c is the sum of a_i * b_j over the index
pairs ``terms[c]``, in list order.  Brackets are outer products
(``space.outer``), integrals and the drift operator's phi . d<N, X> dot
products summed from 0 (``sum_steps`` with ``dot``, so a float zero sum is
+0.0), and the stochastic exponential multiplies its running level by the
factor (1 + X_t) - X_{t-1}, one pair.  In exact mode the increments of a
running sum (``accumulate``) are its summands, never differenced back; in
float mode they are, as (s + d) - s need not be d.  A compensator's
increments are conditional means on the time-(t-1) atoms, taken once and
returned with their running sums (``_compensate``).  A check is a column
predicate (``space.first_failing``): one C-level ``map`` over a layer's
column gives one flag per atom; X_0 = 0 is read off the time-0 layer
alone (``space.starts_at_zero``).  The one per-atom solve of both structure
flows lives here too: ``solve_moments`` solves a conditional second moment
E[dX dY^T | A] times an unknown equal to a conditional mean, once per
distinct system value, in order of first appearance, keyed off the layers
by one column of keys per time, and emits the solutions as layers
(``Process.keyed``).  So does the gauge's tilt floor min(1 + phi . dN)
(``min_tilt``, in numerators, one entry per (atom, child) pair, both
operands gathered once per column).

The one failure model lives here, in the lowest module that finds a
failure: a check returns its first failure's ``FailureWitness`` (None when
it holds; ``mismatch_witness`` for two processes that must agree), and a
failure found inside a solve raises ``CheckFailed``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat

from . import linalg
from .space import Filtration, Process, _decoded, _dot, _failing, _gather, _getter, _layer
from .space import _layer_key, _reduced, _rows, atom_means, componentwise, cond_exp
from .space import first_mismatch, is_adapted, outer, product, starts_at_zero


NON_VIABLE = "non-viable"
ASSUMPTION_VIOLATED = "assumption-violated"


class CalculusError(ValueError):
    pass


@dataclass(frozen=True)
class FailureWitness:
    """Where and why a solve or check failed."""

    reason: str
    t: int | None = None
    atom: tuple[str, ...] | None = None
    detail: object = None


class CheckFailed(Exception):
    """A failure found inside a solve: the verdict ``status`` it implies,
    its ``witness`` and the ``stage``, the check row (one of
    ``cli._CHECK_NAMES``) where it was found."""

    def __init__(self, status: str, witness: FailureWitness, stage: str):
        super().__init__(f"{witness.reason} at t={witness.t}, atom={witness.atom}")
        self.status = status
        self.witness = witness
        self.stage = stage


@dataclass(frozen=True)
class Decomposition:
    """X = X_0 + martingale_part + predictable_part (both parts null at 0)."""

    martingale_part: Process
    predictable_part: Process


def _require_adapted(X: Process, filtration: Filtration, what: str) -> None:
    if not is_adapted(X, filtration):
        raise CalculusError(f"{what} must be adapted to the filtration")


def accumulate(dX: Process) -> Process:
    """Running sums from 0 of the increments dX_t, t >= 1 (dX_0 is not
    read), from zero on the atoms of dX_0.  In exact mode the sums'
    increments are dX itself (zero at time 0), never differenced back;
    float mode differences the sums, as (s + d) - s need not be d."""
    part = dX.layers[0][0]
    layers = [(part, ((0,) * part.size,) * dX.dim, 1)]
    for layer in dX.layers[1:]:
        layers.append(componentwise(operator.add, layers[-1], layer))
    sums = Process(dX.space, tuple(layers))
    if dX.space.arith.exact:  # the cached ``Process.increments``
        vars(sums)["increments"] = Process(dX.space, (layers[0],) + dX.layers[1:])
    return sums


def sum_steps(terms, dX: Process, Y: Process, dot: bool = False) -> Process:
    """Running sums from 0 over t >= 1 of the contraction of dX_t with
    Y_t: component c of each summand is the sum of dX_t[i] * Y_t[j] over
    the index pairs (i, j) of ``terms[c]``, in list order, from 0 with
    ``dot`` (``space.product``).  The one kernel behind ``bracket``,
    ``integrate`` and ``enlarge.drift_operator``.  The sums start on the
    meet of the operands' time-0 partitions."""
    return accumulate(Process(dX.space, tuple(product(terms, a, b, dot)
                                              for a, b in zip(dX.layers, Y.layers))))


def centred(X: Process) -> Process:
    """X - X_0: the process minus its own time-0 value, atom by atom."""
    return Process(X.space, tuple(componentwise(operator.sub, layer, X.layers[0])
                                  for layer in X.layers))


def _compensate(X: Process, filtration: Filtration) -> tuple:
    """(means, compensator), with no input checks: the process of the
    conditional means E[dX_t | time-(t-1) atoms] (zero at time 0), taken
    once, and their running sums."""
    parts = filtration.partitions
    zero = ((0,) * parts[0].size,) * X.dim
    means = Process(X.space, ((parts[0], zero, 1),) + tuple(
        cond_exp(X.increments, t, parts[t - 1]) for t in range(1, len(parts))))
    return means, accumulate(means)


def compensator(A: Process, filtration: Filtration) -> Process:
    """Predictable dual projection: increments are conditional means.

    dA^p_t = E[dA_t | time-(t-1) atoms], A^p_0 = 0.  A - A^p is then a
    martingale and A^p is the unique predictable process null at zero doing
    this (uniqueness is exact on a finite grid).
    """
    _require_adapted(A, filtration, "compensator input")
    if not starts_at_zero(A):
        raise CalculusError("compensator input must be null at time 0")
    return _compensate(A, filtration)[1]


def doob_decompose(X: Process, filtration: Filtration) -> Decomposition:
    """Split an adapted process into initial value + martingale + drift."""
    _require_adapted(X, filtration, "decomposition input")
    Xc = centred(X)
    drift = compensator(Xc, filtration)
    return Decomposition(Xc - drift, drift)


def bracket(X: Process, Y: Process) -> Process:
    """Quadratic covariation: running sum of increment (outer) products.

    Scalar inputs give the scalar bracket; vector inputs give the
    outer-product matrix flattened row by row, entry i * Y.dim + j.
    """
    if X.space is not Y.space or X.horizon != Y.horizon:
        raise CalculusError("bracket needs processes on one grid")
    return sum_steps(outer(X.dim, Y.dim), X.increments, Y.increments)


def pred_bracket(X: Process, Y: Process, filtration: Filtration) -> Process:
    """Predictable covariation: the compensator of the bracket."""
    return compensator(bracket(X, Y), filtration)


def integrate(H: Process, X: Process) -> Process:
    """Discrete stochastic integral: the running sum over s <= t of
    transpose(H_s) dX_s = sum_r H_s[r] dX_s[r].

    H and X share one dimension and the result is scalar.  Linearity in
    both arguments and the associativity H.(K.X) = (HK).X for scalar
    integrands follow from the definition.
    """
    if H.space is not X.space or H.horizon != X.horizon:
        raise CalculusError("integrate needs processes on one grid")
    if H.dim != X.dim:
        raise CalculusError("integrand dimension does not match the integrator")
    return sum_steps((tuple((r, r) for r in range(X.dim)),), X.increments, H, dot=True)


def stoch_exp(X: Process) -> Process:
    """Stochastic exponential: the running product of (1 + dX_s).

    Requires scalar X with X_0 = 0.  The result starts at 1; it can hit zero
    or go negative, which is not an error here: ``verify_deflator`` decides
    positivity where it matters.  Each factor is (1 + X_t) - X_{t-1}.
    """
    if X.dim != 1:
        raise CalculusError("stochastic exponential is for scalar processes")
    if not starts_at_zero(X):
        raise CalculusError("stochastic exponential input must start at 0")
    part = X.layers[0][0]
    one = (X.space.trivial, ((1,),), 1)
    layers = [_layer(part, (0,) * part.size, ((1 * X.space.arith.parse(1),),))]
    for t in range(1, X.horizon + 1):
        factor = componentwise(operator.sub, componentwise(operator.add, one, X.layers[t]),
                               X.layers[t - 1])
        layers.append(product(outer(1, 1), layers[-1], factor))
    return Process(X.space, tuple(layers))


def min_tilt(phi: Process, N: Process, base: Filtration, expanded: Filtration) -> tuple:
    """(u, first): the predictable floor of the tilt 1 + transpose(phi) dN
    and where it first fails.  u_0 = 1, and u_t on each time-(t-1) atom of
    ``expanded`` is the minimum over every child of the enclosing
    time-(t-1) atom of ``base``; ``first`` is the (t, k) of the first atom,
    in (t, atom) order, where u <= 0, or None.  Exact mode adds phi . dN to
    1 in numerators over the product of phi's and dN's denominators and
    compares numerators; float mode adds to 1 the ``math.fsum`` of phi_0
    dN_0, ... (``space._dot``), the same sum the expanded-flow sites take
    their tilts from.  Each (atom, child) pair is one entry of a column
    pass."""
    parts = expanded.partitions
    layers = [(parts[0], ((1,) * parts[0].size,), 1)]
    first = None
    for t in range(1, len(parts)):
        part = parts[t - 1]
        p_part, p_cols, p_den = phi.layers[t]
        n_part, n_cols, n_den = N.increments.layers[t]
        den = p_den * n_den  # 1 is den over den
        to_n = base.at(t).parents(n_part)
        # Each atom's pairs: its phi entry with each child of its base atom.
        kids = _gather([_gather(to_n, cs) for cs in base.children(t)],
                       part.parents(base.at(t - 1)))
        sizes = tuple(map(len, kids))
        ends = tuple(itertools.accumulate(sizes))
        get_phi = _getter(tuple(chain.from_iterable(map(repeat, part.parents(p_part), sizes))))
        get_n = _getter(tuple(chain.from_iterable(kids)))
        tilts = tuple(map(operator.add, repeat(den), _dot(
            [map(operator.mul, get_phi(p_col), get_n(n_col))
             for p_col, n_col in zip(p_cols, n_cols)], ends[-1], phi.space.arith.exact)))
        u = tuple(map(min, map(tilts.__getitem__, map(slice, (0,) + ends[:-1], ends))))
        if first is None:
            k = next(_failing(map(operator.gt, u, repeat(0))), None)
            first = None if k is None else (t, k)
        layers.append(_reduced(part, (u,), den))
    return Process(phi.space, tuple(layers)), first


def is_martingale(X: Process, filtration: Filtration):
    """Check E[dX_t | time-(t-1) atom] = 0 everywhere.

    Returns None, or the witness of the first failure in (time, atom) order,
    reason "drifts", whose detail is the offending conditional mean
    increment (a scalar for a one-dimensional process, a tuple otherwise).
    In exact mode a mean is zero when its integer numerator is; only the
    witness's mean becomes a Fraction.
    """
    _require_adapted(X, filtration, "martingale-check input")
    arith = X.space.arith
    is_zero = operator.not_ if arith.exact else arith.is_zero
    for t in range(1, X.horizon + 1):
        part = filtration.at(t - 1)
        means = cond_exp(X.increments, t, part)
        n = part.size
        k = min((next(_failing(map(is_zero, col)), n) for col in means[1]), default=n)
        if k < n:
            m = _decoded(means, arith.exact)[k]
            return FailureWitness("drifts", t, part.atoms[k], m[0] if X.dim == 1 else tuple(m))
    return None


def mismatch_witness(X: Process, Y: Process, flow: Filtration):
    """None when X and Y agree everywhere, else the "verification-mismatch"
    witness of their ``first_mismatch`` on its time-t atom of ``flow``."""
    miss = first_mismatch(X, Y)
    if miss is None:
        return None
    o, t, a, b = miss
    return FailureWitness("verification-mismatch", t, flow.at(t).atom_of(o), (a, b))


def _check_range(values, arith) -> None:
    """Raise OverflowError ("scenario is out of float range") when a float
    value is inf or NaN; exact values always pass."""
    if not arith.exact and not all(map(math.isfinite, values)):
        raise OverflowError("scenario is out of float range")


def solve_moments(X: Process, Y: Process, target: Process, flow: Filtration,
                  base: Filtration, failure: tuple) -> Process:
    """The predictable x with E[dX_t transpose(dY_t) | A] x = target_t on
    each time-(t-1) atom B of ``flow``, A the time-(t-1) atom of ``base``
    holding B: the minimum-norm solution, once per distinct (moment,
    target) value in this call, keyed straight off the layers, in order of
    first appearance, and gathered per atom (``Process.keyed``).  On a miss
    the moment's integer numerators go to the solver as they are, with the
    target scaled by their denominator, and only x (and a failing
    residual) is decoded.  With X.dim = 0 x is zero; with Y.dim = 0
    the residual is the target.  A system with no solution raises
    CheckFailed(status, FailureWitness(reason, t, B, residual), stage),
    where ``failure`` = (status, reason, stage).  In float mode a
    moment or residual out of the float range (inf or NaN) raises
    OverflowError ("scenario is out of float range").
    """
    arith = X.space.arith
    n, d = X.dim, Y.dim
    keys, solved = [], {}
    for t in range(1, flow.horizon + 1):
        a_part, b_part = base.at(t - 1), flow.at(t - 1)
        _, cols, den = atom_means(a_part, X.increments.layers[t], Y.increments.layers[t])
        cells, up = _rows(cols, a_part.size), b_part.parents(a_part)
        moments = [_layer_key(cell, den, arith.exact) for cell in cells]
        # Each atom's key (its moment's, its target's), as one column.
        ks = tuple(zip(_gather(moments, up), target.value_keys(t, b_part)))
        keys.append(ks)
        first = dict(zip(reversed(ks), range(len(ks) - 1, -1, -1)))  # the first one wins
        for k in sorted(first.values()):  # each distinct key at its first atom
            if ks[k] in solved:
                continue
            q = cells[up[k]]
            _check_range(q, arith)
            b = target.on_atoms(t, b_part, [k])[0]
            # The moments over den: (Q/den) x = b is Q x = den b.
            Q = [q[i * d:(i + 1) * d] for i in range(n)]
            x, residual, xd = (linalg.lstsq_min_norm(Q, [den * v for v in b], arith)
                               if n else ((0,) * d, (), 1))
            _check_range(residual, arith)
            if not linalg.vec_is_zero(residual, arith, linalg.matrix_scale([b])):
                if arith.exact:  # b - (Q/den) x is residual / (xd den)
                    residual = map(Fraction, residual, repeat(xd * den))
                status, reason, stage = failure
                raise CheckFailed(status, FailureWitness(
                    reason, t, b_part.atoms[k], tuple(residual)), stage)
            solved[ks[k]] = tuple(map(Fraction, x, repeat(xd)) if arith.exact else x)
    return Process.keyed(flow, keys, solved, d)
