"""Discrete stochastic calculus on finite filtered spaces.

Increment conventions: for any process X the time-0 increment is zero and
dX_t = X_t - X_{t-1} for t >= 1, read per time from ``Process.increments``
and summed back up by ``accumulate``.  On a finite grid every martingale has
finite everything, so the classical decompositions hold with no integrability
caveats: the continuous part of any process is zero and the purely
discontinuous martingale part coincides with the whole martingale part.

All operators return processes on the same grid; compensators and their
relatives are predictable and start at zero.  Like ``space``, this module
reads a process atom by atom, as layers of integer numerators over one
denominator in exact mode (floats over 1 in float mode): every per-cell
operation runs once per atom of the meet of its operands' partitions,
through ``space.pointwise`` when it is linear in the cells (sums and
differences, over the lcm of the operands' denominators) and through
``space.product`` when it is linear in each operand (brackets, integrals,
the stochastic exponential, over the product of the denominators).  A
compensator's increments are conditional means on the time-(t-1) atoms.
The per-atom cross moments the layers above solve with (``cross_moments``)
come from here too.

The one failure model lives here, in the lowest module that finds a
failure: a check returns its first failure's ``FailureWitness`` (None when
it holds), and a failure found inside a solve raises ``CheckFailed``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .space import Filtration, Partition, Process, _add, _decoded, _encoded, _sub, cond_exp
from .space import atom_means, first_failing, is_adapted, pointwise, product


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
    read), from zero on the atoms of dX_0."""
    part = dX.layers[0][0]
    layers = [(part, ((0,) * dX.dim,) * len(part.atoms), 1)]
    for layer in dX.layers[1:]:
        layers.append(pointwise(_add, layers[-1], layer))
    return Process(dX.space, tuple(layers))


def sum_steps(op, dim, steps, levels=(), plus=None) -> Process:
    """Running sums from 0 of ``op(dX_t for X in steps, Y_t for Y in
    levels)`` over t >= 1, ``op`` linear in each operand (a ``product``
    op): the one per-cell kernel behind ``bracket``, ``integrate`` and the
    expanded-flow drift identity.  With ``plus``, a process, each summand
    is dP_t + op(...), added in that order.  The sums start on the meet of
    the operands' time-0 partitions."""
    zero = (0,) * dim
    terms = Process(steps[0].space, tuple(
        product(op if t else lambda *_: zero, *layers) for t, layers in enumerate(zip(
            *(X.increments.layers for X in steps), *(Y.layers for Y in levels)))))
    return accumulate(terms if plus is None else plus.increments + terms)


def centred(X: Process) -> Process:
    """X - X_0: the process minus its own time-0 value, atom by atom."""
    return Process(X.space, tuple(pointwise(_sub, layer, X.layers[0]) for layer in X.layers))


def cross_moments(X: Process, Y: Process, partition, t: int) -> list:
    """E[dX_t transpose(dY_t) | A] as an (X.dim, Y.dim) nested list for each
    atom A of ``partition``, a time-(t-1) partition (in float mode the
    weighted increment products summed member by member in outcome order,
    over the atom mass)."""
    n, d = X.dim, Y.dim
    _, cells, den = atom_means(partition, X.increments.layers[t], Y.increments.layers[t],
                               value=lambda dx, dy: [a * b for a in dx for b in dy],
                               weighted=lambda w, dx, dy: [w * a * b for a in dx for b in dy])
    means = _decoded(cells, den, X.space.arith.exact)
    return [[list(m[i * d:(i + 1) * d]) for i in range(n)] for m in means]


def _compensate(X: Process, filtration: Filtration) -> Process:
    """Accumulated conditional-mean increments, with no input checks: the
    increments live on the time-(t-1) atoms."""
    dX, parts = X.increments, filtration.partitions
    zero = ((0,) * X.dim,) * len(parts[0].atoms)
    return accumulate(Process(X.space, ((parts[0], zero, 1),) + tuple(
        cond_exp(dX, t, parts[t - 1], layer=True) for t in range(1, len(parts)))))


def compensator(A: Process, filtration: Filtration) -> Process:
    """Predictable dual projection: increments are conditional means.

    dA^p_t = E[dA_t | time-(t-1) atoms], A^p_0 = 0.  A - A^p is then a
    martingale and A^p is the unique predictable process null at zero doing
    this (uniqueness is exact on a finite grid).
    """
    _require_adapted(A, filtration, "compensator input")
    is_zero = A.space.arith.is_zero
    if first_failing(A, start=lambda v: all(map(is_zero, v))) is not None:
        raise CalculusError("compensator input must be null at time 0")
    return _compensate(A, filtration)


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
    return sum_steps(lambda dx, dy: tuple(a * b for a in dx for b in dy),
                     X.dim * Y.dim, (X, Y))


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
    return sum_steps(lambda dx, h: (sum((a * b for a, b in zip(h, dx)), 0),), 1, (X,), (H,))


def stoch_exp(X: Process) -> Process:
    """Stochastic exponential: the running product of (1 + dX_s).

    Requires scalar X with X_0 = 0.  The result starts at 1; it can hit zero
    or go negative, which is not an error here: ``verify_deflator`` decides
    positivity where it matters.
    """
    if X.dim != 1:
        raise CalculusError("stochastic exponential is for scalar processes")
    arith = X.space.arith
    if first_failing(X, start=lambda v: arith.is_zero(v[0])) is not None:
        raise CalculusError("stochastic exponential input must start at 0")
    part = X.layers[0][0]
    one = (Partition.trivial(X.space), ((1,),), 1)
    layers = [_encoded(part, ((1 * arith.parse(1),),) * len(part.atoms))]
    for t in range(1, X.horizon + 1):
        factor = pointwise(lambda c, x, x0: (c[0] + x[0] - x0[0],),
                           one, X.layers[t], X.layers[t - 1])
        layers.append(product(lambda level, f: (level[0] * f[0],), layers[-1], factor))
    return Process(X.space, tuple(layers))


def is_martingale(X: Process, filtration: Filtration):
    """Check E[dX_t | time-(t-1) atom] = 0 everywhere.

    Returns None, or the witness of the first failure in (time, atom) order,
    reason "drifts", whose detail is the offending conditional mean
    increment (a scalar for a one-dimensional process, a tuple otherwise).
    In exact mode a mean is zero when its integer sum is; only the
    witness's mean becomes a Fraction.
    """
    _require_adapted(X, filtration, "martingale-check input")
    arith = X.space.arith
    for t in range(1, X.horizon + 1):
        part = filtration.at(t - 1)
        _, cells, den = cond_exp(X.increments, t, part, layer=True)
        for atom, m in zip(part.atoms, cells):
            if not all(arith.is_zero(v) for v in m):
                (m,) = _decoded((m,), den, arith.exact)
                return FailureWitness("drifts", t, atom, m[0] if X.dim == 1 else tuple(m))
    return None
