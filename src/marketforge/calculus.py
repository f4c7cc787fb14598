"""Discrete stochastic calculus on finite filtered spaces.

Increment conventions: for any process X the time-0 increment is zero and
dX_t = X_t - X_{t-1} for t >= 1, read per time from ``Process.increments``
and summed back up by ``accumulate``.  On a finite grid every martingale has
finite everything, so the classical decompositions hold with no integrability
caveats: the continuous part of any process is zero and the purely
discontinuous martingale part coincides with the whole martingale part.

All operators return processes on the same grid; compensators and their
relatives are predictable and start at zero.  Every per-cell operation
runs through ``space.per_distinct``, once per distinct tuple of operand
cells, so cells shared on an atom stay shared in the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .space import Filtration, Process, _add, _sub, cond_exp, is_adapted, per_distinct


class CalculusError(ValueError):
    pass


@dataclass(frozen=True)
class MartingaleWitness:
    """First failing conditional-mean check: time, atom and its residual."""

    t: int
    atom: tuple[str, ...]
    residual: object  # scalar for one-dimensional processes, tuple otherwise


@dataclass(frozen=True)
class Decomposition:
    """X = X_0 + martingale_part + predictable_part (both parts null at 0)."""

    martingale_part: Process
    predictable_part: Process


def _require_adapted(X: Process, filtration: Filtration, what: str) -> None:
    if not is_adapted(X, filtration):
        raise CalculusError(f"{what} must be adapted to the filtration")


def accumulate(space, columns, dim, shape=None) -> Process:
    """Running sums from 0 of increment columns in the layout of
    ``Process.increments``, read once (a generator will do)."""
    levels = [[(0,) * dim] * space.size]
    for column in columns:
        levels.append(per_distinct(_add, levels[-1], column))
    return Process.from_columns(space, levels, shape=shape)


def centred(X: Process) -> Process:
    """X - X_0: the process minus its own time-0 value, outcome by outcome."""
    cols = X.columns()
    return Process.from_columns(X.space, [per_distinct(_sub, col, cols[0]) for col in cols],
                                shape=X.shape)


def _increment_means(X: Process, filtration: Filtration):
    """Yield the columns E[dX_t | time-(t-1) atoms] for t = 1..horizon,
    parallel to the outcomes: the one conditional-increment kernel behind
    ``compensator``, ``is_martingale`` and ``enlarge.drift``."""
    for t, column in enumerate(X.increments(), 1):
        yield cond_exp(column, filtration.at(t - 1), X.space)


def _compensate(X: Process, filtration: Filtration) -> Process:
    """Accumulated conditional-mean increments, with no input checks."""
    return accumulate(X.space, _increment_means(X, filtration), X.dim, shape=X.shape)


def compensator(A: Process, filtration: Filtration) -> Process:
    """Predictable dual projection: increments are conditional means.

    dA^p_t = E[dA_t | time-(t-1) atoms], A^p_0 = 0.  A - A^p is then a
    martingale and A^p is the unique predictable process null at zero doing
    this (uniqueness is exact on a finite grid).
    """
    _require_adapted(A, filtration, "compensator input")
    is_zero = A.space.arith.is_zero
    if not all(per_distinct(lambda v: all(map(is_zero, v)), A.columns()[0])):
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

    Scalar inputs give the scalar bracket; vector inputs give the flattened
    outer-product matrix with shape (X.dim, Y.dim).
    """
    if X.space is not Y.space or X.horizon != Y.horizon:
        raise CalculusError("bracket needs processes on one grid")
    columns = (per_distinct(lambda dx, dy: tuple(a * b for a in dx for b in dy), cx, cy)
               for cx, cy in zip(X.increments(), Y.increments()))
    return accumulate(X.space, columns, X.dim * Y.dim, shape=(X.dim, Y.dim))


def pred_bracket(X: Process, Y: Process, filtration: Filtration) -> Process:
    """Predictable covariation: the compensator of the bracket."""
    return compensator(bracket(X, Y), filtration)


def integrate(H: Process, X: Process) -> Process:
    """Discrete stochastic integral, summing transpose(H_s) dX_s for s <= t.

    H viewed through its (rows, cols) shape must have rows == X.dim; the
    result is cols-dimensional.  A scalar H multiplies a vector X
    componentwise.  Linearity in both arguments and the associativity
    H.(K.X) = (HK).X for scalar integrands follow from the definition.
    """
    if H.space is not X.space or H.horizon != X.horizon:
        raise CalculusError("integrate needs processes on one grid")
    rows, cols = H.shape
    if rows == X.dim:
        def step(h, dx):
            return tuple(
                sum((h[r * cols + c] * dx[r] for r in range(rows)), 0)
                for c in range(cols)
            )
        out_dim = cols
    elif H.dim == 1:
        def step(h, dx):
            return tuple(h[0] * d for d in dx)
        out_dim = X.dim
    else:
        raise CalculusError("integrand shape does not match the integrator")
    H_cols = H.columns()
    columns = (per_distinct(step, H_cols[t], column)
               for t, column in enumerate(X.increments(), 1))
    return accumulate(X.space, columns, out_dim)


def stoch_exp(X: Process) -> Process:
    """Stochastic exponential: the running product of (1 + dX_s).

    Requires scalar X with X_0 = 0.  The result starts at 1; it can hit zero
    or go negative, which is not an error here: ``verify_deflator`` decides
    positivity where it matters.
    """
    if X.dim != 1:
        raise CalculusError("stochastic exponential is for scalar processes")
    arith = X.space.arith
    cols = X.columns()
    if not all(per_distinct(lambda v: arith.is_zero(v[0]), cols[0])):
        raise CalculusError("stochastic exponential input must start at 0")
    levels = [[(1 * arith.parse(1),)] * X.space.size]
    for t in range(1, len(cols)):
        levels.append(per_distinct(lambda level, x, x0: (level[0] * (1 + x[0] - x0[0]),),
                                   levels[-1], cols[t], cols[t - 1]))
    return Process.from_columns(X.space, levels)


def is_martingale(X: Process, filtration: Filtration):
    """Check E[dX_t | time-(t-1) atom] = 0 everywhere.

    Returns (True, None) or (False, witness) with the first failure in
    (time, atom) order; the witness residual is the offending conditional
    mean increment.
    """
    _require_adapted(X, filtration, "martingale-check input")
    arith = X.space.arith
    for t, means in enumerate(_increment_means(X, filtration), 1):
        part = filtration.at(t - 1)
        for atom, members in zip(part.atoms, part.members):
            m = means[members[0]]
            if not all(arith.is_zero(v) for v in m):
                residual = m[0] if X.dim == 1 else tuple(m)
                return False, MartingaleWitness(t, atom, residual)
    return True, None
