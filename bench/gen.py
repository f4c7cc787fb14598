"""Seeded input generators for the benchmark.

The program under test receives only the JSON documents built here; nothing
in this module imports marketforge, so a change to the engine cannot change
the inputs it is measured on.

``noisy_tree``  the noisy-signal initial enlargement on a T-step coin tree
                (n = 2^(T+1) outcomes).  At T = 2 it is the paper's b2n
                fixture, ``scenarios/noisy_signal.json``.
``site_battery`` jump sites for ``marketforge kernel``: random realizable
                accessible and inaccessible sites (a copy of the acceptance
                battery's generator) plus perfect-insider sites.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

UP, DOWN = Fraction(3, 25), Fraction(-2, 25)
NOISE = Fraction(1, 5)  # chance that the signal reports the wrong first step

EXIT_OK = 0
EXIT_NON_VIABLE = 4
INSIDER_EVERY = 10  # every 10th battery site is a perfect-insider site


def _num(x: Fraction):
    """JSON rendering used by the scenario files: ints as ints, else 'p/q'."""
    return int(x) if x.denominator == 1 else str(x)


def canonical_tree(horizon: int) -> dict:
    """The noisy coin tree with outcomes in path order (u before d, noise 0
    before noise 1).  The signal is the first step, flipped by the noise."""
    outcomes, weights, driver, prices, variable = [], [], [], [], []
    path_mass = Fraction(1, 2 ** horizon)
    for steps in itertools.product("ud", repeat=horizon):
        walk, price = [0], [Fraction(1)]
        for s in steps:
            walk.append(walk[-1] + (1 if s == "u" else -1))
            price.append(price[-1] + (UP if s == "u" else DOWN))
        for noise in (0, 1):
            outcomes.append("".join(steps) + str(noise))
            weights.append(str(path_mass * (NOISE if noise else 1 - NOISE)))
            driver.append(walk)
            prices.append([_num(p) for p in price])
            variable.append(steps[0] if not noise else
                             ("d" if steps[0] == "u" else "u"))
    return {
        "name": f"noisy-tree-T{horizon}",
        "space": {"outcomes": outcomes, "weights": weights},
        "driver": driver,
        "prices": prices,
        "enlargement": {"kind": "initial", "variable": variable},
    }


def noisy_tree(horizon: int, seed: int) -> dict:
    """The noisy coin tree with its outcomes listed in a seeded order.

    Listing order is not part of the model, so every seed describes the
    same market and must get the same verdict and the same report.
    """
    doc = canonical_tree(horizon)
    order = list(range(len(doc["driver"])))
    random.Random(seed).shuffle(order)
    space, enl = doc["space"], doc["enlargement"]
    for holder, key in ((space, "outcomes"), (space, "weights"), (doc, "driver"),
                        (doc, "prices"), (enl, "variable")):
        holder[key] = [holder[key][i] for i in order]
    return doc


# ---------------------------------------------------------------------------
# jump sites (same distribution as the acceptance battery's generator)


def _rank(rows) -> int:
    """Exact rank of a small rational matrix by Gaussian elimination."""
    m = [list(r) for r in rows]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _rand_fraction(rng, lo=-8, hi=8, den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _scaled_contraction(rng, ws):
    """Per-child values of a random linear form on the jumps, scaled so
    |value| < 1: tilts stay positive and deltas stay below one."""
    vec = [_rand_fraction(rng) for _ in range(len(ws[0]))]
    vals = [sum(a * b for a, b in zip(vec, w)) for w in ws]
    peak = max(abs(v) for v in vals)
    lam = Fraction(rng.randint(1, 3), 4) / (1 + peak)
    return [lam * v for v in vals]


def _junk_child(rng, dim):
    """Uncharged child with wild data, which every operator must ignore."""
    w = tuple(Fraction(rng.randint(-9, 9)) for _ in range(dim))
    return (Fraction(0), w, Fraction(rng.randint(2, 9)), Fraction(rng.randint(2, 9)))


def _centered_jumps(rng, max_dim):
    """Centered child jumps of full site rank, at most dim + 1 children."""
    while True:
        d = rng.randint(1, max_dim)
        m = rng.randint(1, d + 1)
        raw = [[_rand_fraction(rng, -4, 4, 3) for _ in range(d)] for _ in range(m)]
        weights = [rng.randint(1, 6) for _ in range(m)]
        probs = [Fraction(a, sum(weights)) for a in weights]
        mean = [sum(p * v[i] for p, v in zip(probs, raw)) for i in range(d)]
        ws = [tuple(v[i] - mean[i] for i in range(d)) for v in raw]
        if _rank(ws) == m - 1:
            return d, probs, ws


def _site_doc(kind, dim, children, rng, prob_key):
    children = list(children)
    if rng.random() < 0.3:
        children.insert(rng.randrange(len(children) + 1), _junk_child(rng, dim))
    return {"kind": kind, "dim": dim, "children": [
        {prob_key: str(p), "w": [str(x) for x in w], "nu": str(nu),
         "delta": str(de)} for p, w, nu, de in children]}


def random_accessible_site(rng, max_dim=4) -> dict:
    """Realizable accessible site: every check passes, exit 0."""
    d, probs, ws = _centered_jumps(rng, max_dim)
    nus = _scaled_contraction(rng, ws)
    deltas = _scaled_contraction(rng, ws)
    return _site_doc("accessible", d, zip(probs, ws, nus, deltas), rng, "p")


def random_inaccessible_site(rng, max_dim=4) -> dict:
    """Realizable inaccessible site: independent child jumps, exit 0."""
    while True:
        d = rng.randint(1, max_dim)
        m = rng.randint(1, d)
        ws = [tuple(_rand_fraction(rng, -4, 4, 3) for _ in range(d))
              for _ in range(m)]
        if _rank(ws) == m:
            break
    weights = [rng.randint(1, 6) for _ in range(m)]
    probs = [Fraction(a, sum(weights)) for a in weights]
    nus = _scaled_contraction(rng, ws)
    deltas = _scaled_contraction(rng, ws)
    return _site_doc("inaccessible", d, zip(probs, ws, nus, deltas), rng, "q")


def insider_site(rng, max_dim=4) -> dict:
    """Perfect-insider accessible site: nu = -1 on every charged child but
    one, so the tilted law is a point mass and the expanded Gram is zero,
    while the right side sum p (delta + nu) w stays nonzero.  No integrand
    exists, exit 4."""
    while True:
        d, probs, ws = _centered_jumps(rng, max_dim)
        if len(ws) < 2:
            continue
        keep = rng.randrange(len(ws))
        nus = [Fraction(-1)] * len(ws)
        nus[keep] = (1 - probs[keep]) / probs[keep]
        deltas = _scaled_contraction(rng, ws)
        rhs = [sum(p * (de + nu) * w[i] for p, w, nu, de in zip(probs, ws, nus, deltas))
               for i in range(d)]
        if any(rhs):
            return _site_doc("accessible", d, zip(probs, ws, nus, deltas), rng, "p")


def site_battery(seed: int, count: int) -> list[tuple[dict, int]]:
    """``count`` sites with their expected exit codes, fixed by construction.

    Every INSIDER_EVERY-th site is a perfect-insider site (exit 4); the rest
    alternate accessible and inaccessible realizable sites (exit 0).
    """
    rng = random.Random(seed)
    battery = []
    for i in range(count):
        if i % INSIDER_EVERY == INSIDER_EVERY - 1:
            battery.append((insider_site(rng), EXIT_NON_VIABLE))
        elif i % 2 == 0:
            battery.append((random_accessible_site(rng), EXIT_OK))
        else:
            battery.append((random_inaccessible_site(rng), EXIT_OK))
    return battery
