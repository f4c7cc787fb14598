"""Shared helpers for the test suite: random model data and brute oracles.

The random generators the CLI battery needs at runtime live in
marketforge.selftest and are re-exported here; the ones only tests use
(``tree`` and ``random_tree``, ``random_predictable``, the ``b2n_site`` jump
site) are defined here, with ``bits``, a number's exact bits, and
``scaled``, a document field's numbers scaled as JSON floats, and
``split_outcomes``, a scenario with each outcome split into equal
copies.  The
brute oracles recompute conditional means and drifts by direct summation
over outcomes, independent of the library's conditional-expectation path,
so the calculus operators are checked against plain arithmetic.
"""

import json
import struct
from fractions import Fraction

from marketforge import viability
from marketforge.arith import EXACT, Arithmetic
from marketforge.jumpkernel import Site, SiteChild, solve_site
from marketforge.selftest import (  # noqa: F401  (re-exports for tests)
    rand_fraction,
    random_adapted,
    random_site,
    site_to_float,
)
from marketforge.space import Filtration, Process, SampleSpace

from reference import by_level_sets, delta


def bits(x):
    """A number as its type and exact value; floats by their bits, so that
    0.0 and -0.0 differ."""
    if isinstance(x, float):
        return "float", struct.pack("<d", x)
    return type(x).__name__, x


def scaled(value, factor):
    """Every number of a document field times ``factor``, as a JSON float."""
    if isinstance(value, list):
        return [scaled(x, factor) for x in value]
    return float(Fraction(str(value)) * factor)


def split_outcomes(doc: dict, k: int) -> dict:
    """The scenario with each outcome o replaced, in place, by k copies
    ``o#0``, ..., ``o#{k-1}`` of weight w/k (an exact "p/q" string), each
    with o's paths, enlargement label or time, and atoms: the same market
    on k times the outcomes, with the same atoms."""
    def copies(o):
        return [f"{o}#{j}" for j in range(k)]

    def per_outcome(values):
        return [v for v in values for _ in range(k)]

    def flow(times):
        return [[[c for o in atom for c in copies(o)] for atom in atoms] for atoms in times]

    out = json.loads(json.dumps(doc))
    space = out["space"]
    space["outcomes"] = [c for o in space["outcomes"] for c in copies(o)]
    space["weights"] = per_outcome(str(Fraction(str(w)) / k) for w in space["weights"])
    for name in ("driver", "prices", "carrier", "structure"):
        if name in out:
            out[name] = per_outcome(out[name])
    if "flow" in out:
        out["flow"] = flow(out["flow"])
    enlargement = out.get("enlargement", {})
    for name in ("variable", "times"):
        if name in enlargement:
            enlargement[name] = per_outcome(enlargement[name])
    if "flow" in enlargement:
        enlargement["flow"] = flow(enlargement["flow"])
    return out


def tree(labels, raw, arith: Arithmetic):
    """A tree on len(labels) outcomes: outcome i walks the label path
    ``labels[i]``, the time-t partition groups equal t-prefixes, and the
    weights are proportional to the positive integers ``raw``."""
    weights = [Fraction(r, sum(raw)) for r in raw]
    if not arith.exact:
        weights = [float(w) for w in weights]
    space = SampleSpace(tuple(f"o{i}" for i in range(len(labels))), tuple(weights),
                        arith=arith)
    parts = tuple(by_level_sets(space, [lab[:t] for lab in labels])
                  for t in range(len(labels[0]) + 1))
    return space, Filtration(space, parts)


def random_tree(rng, arith: Arithmetic):
    """A seeded ``tree`` on 3..12 outcomes with 1..3 steps of 3 labels."""
    n, horizon = rng.randint(3, 12), rng.randint(1, 3)
    labels = [tuple(rng.randint(0, 2) for _ in range(horizon)) for _ in range(n)]
    return tree(labels, [rng.randint(1, 9) for _ in range(n)], arith)


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


def record_site_solves(monkeypatch) -> list:
    """Record every (site, record) pair the expanded-flow pipeline solves.

    The pipeline solves each distinct site value once per call, so this
    holds the distinct sites in first-seen order (time by time, each time's
    expanded atoms in order), not one entry per (time, atom); pick a
    record by its site, with ``site_at`` and ``site_value``."""
    seen = []

    def solve_and_record(site):
        out = solve_site(site)
        seen.append((site, out))
        return out

    monkeypatch.setattr(viability, "solve_site", solve_and_record)
    return seen


def site_at(market, gauge, driver, D, t, g_atom) -> Site:
    """The expanded-flow site of (t, g_atom), g_atom a time-(t-1) expanded
    atom, built directly from the pipeline's inputs, with no memo."""
    k = market.F.at(t - 1).atom_index(g_atom[0])
    g_part = gauge.pair.expanded.at(t - 1)
    (phi,) = gauge.phi.on_atoms(t, g_part, [g_part.atom_index(g_atom[0])])
    inputs = viability._site_inputs((driver.W, gauge.N, D), t, market.F.at(t),
                                    market.F.transition(t, k))
    return viability._build_site(market, driver.d, phi, inputs)


def site_value(site: Site) -> tuple:
    """A site's children as (prob, w, nu, delta) tuples."""
    return tuple((c.prob, c.w, c.nu, c.delta) for c in site.children)


def record_for(solved, site: Site):
    """The (site, record) pair of ``record_site_solves`` whose site has the
    value of ``site``."""
    (hit,) = [(s, rec) for s, rec in solved if site_value(s) == site_value(site)]
    return hit


def b2n_site(arith: Arithmetic = EXACT) -> Site:
    """The noisy-signal site at time 1 on the signal-up observer atom."""
    half, nu, delta = arith.parse("1/2"), arith.parse("3/5"), arith.parse("1/5")
    one = arith.parse(1)
    return Site(1, (SiteChild(half, (one,), nu, delta),
                    SiteChild(half, (-one,), -nu, -delta)), True, arith)


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
