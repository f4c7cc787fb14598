"""Shared helpers for the test suite: random model data and brute oracles.

The random generators the CLI battery needs at runtime live in
marketforge.selftest and are re-exported here; the ones only tests use
(``random_predictable``, the ``b2n_site`` jump site) are defined here.  The
brute oracles recompute conditional means and drifts by direct summation
over outcomes, independent of the library's conditional-expectation path,
so the calculus operators are checked against plain arithmetic.
"""

from marketforge.arith import EXACT, Arithmetic
from marketforge.fixtures import _children
from marketforge.jumpkernel import Site
from marketforge.selftest import (  # noqa: F401  (re-exports for tests)
    rand_fraction,
    random_adapted,
    random_site,
    site_to_float,
)
from marketforge.space import Process

from reference import delta


def random_predictable(space, filtration, rng, dim=1) -> Process:
    """Predictable process: deterministic at 0, previous-atom measurable after."""
    horizon = filtration.horizon
    v0 = tuple(rand_fraction(rng) for _ in range(dim))
    table = {}
    for t in range(1, horizon + 1):
        part = filtration.at(t - 1)
        for k, atom in enumerate(part.atoms):
            table[(t, k)] = tuple(rand_fraction(rng) for _ in range(dim))
    return Process.predictable(filtration, table, dim, initial=v0)


def b2n_site(arith: Arithmetic = EXACT) -> Site:
    """The noisy-signal site at time 1 on the signal-up observer atom."""
    rows = [("1/2", ("1",), "3/5", "1/5"),
            ("1/2", ("-1",), "-3/5", "-1/5")]
    return Site(1, _children(arith, rows, 1), True, arith)


def random_martingale(space, filtration, rng, dim=1):
    """Random martingale: center the increments of a random adapted process.

    Centering uses the brute compensator below, not the library's, so tests
    that feed martingales into library operators are not circular.
    """
    X = random_adapted(space, filtration, rng, dim=dim)
    drift = brute_compensator(X, filtration)
    return X - drift


def brute_cond_mean(space, filtration, t, values):
    """E[value | time-(t-1) atom] by direct summation; values per outcome."""
    part = filtration.at(t - 1)
    out = {}
    for atom in part.atoms:
        mass = sum(space.weight(o) for o in atom)
        dim = len(values[space.index(atom[0])])
        avg = tuple(
            sum(space.weight(o) * values[space.index(o)][j] for o in atom) / mass
            for j in range(dim)
        )
        for o in atom:
            out[o] = avg
    return out


def brute_compensator(X, filtration):
    """Predictable dual projection recomputed with raw sums."""
    space = X.space
    paths = []
    per_time = {}
    for t in range(1, X.horizon + 1):
        inc = [delta(X, o, t) for o in space.outcomes]
        per_time[t] = brute_cond_mean(space, filtration, t, inc)
    for o in space.outcomes:
        level = (0,) * X.dim
        path = [level]
        for t in range(1, X.horizon + 1):
            level = tuple(a + b for a, b in zip(level, per_time[t][o]))
            path.append(level)
        paths.append(tuple(path))
    return Process.from_paths(space, paths)
