"""Canonical model fixtures shared by tests, the self-test battery and docs.

All numeric literals are given as exact decimal/fraction strings and parsed
through the requested arithmetic, so every fixture exists in both exact and
float flavors.

b1   -- one step, two outcomes, driver +-1, price 1 -> 1 + 0.1 dW + 0.02.
b2   -- two independent fair coins, two steps, same price recursion.
b2i  -- b2 initially enlarged by the first coin (a perfect insider signal).
b2n  -- b2 with an independent noise bit: the signal reveals the first coin
        flipped with probability 1/5, observed from time 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import EXACT, Arithmetic
from .jumpkernel import AccessibleSite, InaccessibleSite, SiteChild
from .space import (
    EnlargementPair,
    Filtration,
    Process,
    SampleSpace,
    build_initial_enlargement,
    natural_filtration,
)


@dataclass(frozen=True)
class ModelFixture:
    """A market model: space, base flow F, driver W, price S, optional pair."""

    name: str
    space: SampleSpace
    F: Filtration
    W: Process
    S: Process
    pair: EnlargementPair | None = None
    signal: tuple | None = None


def _walk_paths(arith: Arithmetic, signs_per_outcome):
    """Cumulative +-1 walk paths from per-step sign strings like "ud"."""
    one = arith.parse(1)
    paths = []
    for signs in signs_per_outcome:
        level = 0 * one
        path = [level]
        for s in signs:
            level = level + (one if s == "u" else -one)
            path.append(level)
        paths.append(path)
    return paths


def _price_from_walk(arith: Arithmetic, w_paths):
    """S with S_0 = 1 and dS_t = 0.1 dW_t + 0.02."""
    s0 = arith.parse(1)
    vol = arith.parse("1/10")
    drift = arith.parse("1/50")
    paths = []
    for wp in w_paths:
        s = s0
        path = [s]
        for t in range(1, len(wp)):
            s = s + vol * (wp[t] - wp[t - 1]) + drift
            path.append(s)
        paths.append(path)
    return paths


def b1(arith: Arithmetic = EXACT) -> ModelFixture:
    half = arith.parse("1/2")
    space = SampleSpace(("u", "d"), (half, half), arith=arith)
    w_paths = _walk_paths(arith, ["u", "d"])
    W = Process.from_paths(space, w_paths)
    S = Process.from_paths(space, _price_from_walk(arith, w_paths))
    return ModelFixture("b1", space, natural_filtration(space, [W]), W, S)


def b2(arith: Arithmetic = EXACT) -> ModelFixture:
    q = arith.parse("1/4")
    outcomes = ("uu", "ud", "du", "dd")
    space = SampleSpace(outcomes, (q, q, q, q), arith=arith)
    w_paths = _walk_paths(arith, outcomes)
    W = Process.from_paths(space, w_paths)
    S = Process.from_paths(space, _price_from_walk(arith, w_paths))
    return ModelFixture("b2", space, natural_filtration(space, [W]), W, S)


def b2i(arith: Arithmetic = EXACT) -> ModelFixture:
    base = b2(arith)
    signal = tuple(o[0] for o in base.space.outcomes)  # the first coin itself
    pair = build_initial_enlargement(base.F, signal)
    return ModelFixture("b2i", base.space, base.F, base.W, base.S,
                        pair=pair, signal=signal)


def b2n(arith: Arithmetic = EXACT) -> ModelFixture:
    """Two-coin market carrying an independent noise bit in the outcomes.

    Outcome "xy0" means coins x, y with a clean signal; "xy1" means the
    signal was flipped.  The noise bit has probability 1/5 and is never
    revealed by the base flow F, which only watches the coins.
    """
    clean = arith.parse("1/5")    # 1/4 * 4/5
    noisy = arith.parse("1/20")   # 1/4 * 1/5
    outcomes = []
    weights = []
    for coins in ("uu", "ud", "du", "dd"):
        for bit, w in (("0", clean), ("1", noisy)):
            outcomes.append(coins + bit)
            weights.append(w)
    space = SampleSpace(tuple(outcomes), tuple(weights), arith=arith)
    w_paths = _walk_paths(arith, [o[:2] for o in outcomes])
    W = Process.from_paths(space, w_paths)
    S = Process.from_paths(space, _price_from_walk(arith, w_paths))
    F = natural_filtration(space, [W])
    flip = {"u": "d", "d": "u"}
    signal = tuple(o[0] if o[2] == "0" else flip[o[0]] for o in outcomes)
    pair = build_initial_enlargement(F, signal)
    return ModelFixture("b2n", space, F, W, S, pair=pair, signal=signal)


# ---------------------------------------------------------------------------
# standalone jump sites


def _children(arith: Arithmetic, rows, dim: int):
    out = []
    for prob, w, nu, delta in rows:
        out.append(SiteChild(arith.parse(prob),
                             tuple(arith.parse(x) for x in w),
                             arith.parse(nu), arith.parse(delta)))
    return tuple(out)


def insider_site(arith: Arithmetic = EXACT) -> AccessibleSite:
    """The perfect-insider site: zero expanded Gram, nonzero drift demand."""
    rows = [("1/2", ("1",), "1", "1/5"),
            ("1/2", ("-1",), "-1", "-1/5")]
    return AccessibleSite(1, _children(arith, rows, 1), arith=arith)


def k1_site(arith: Arithmetic = EXACT) -> InaccessibleSite:
    """Two-dimensional inaccessible site with orthogonal child jumps."""
    rows = [("3/5", ("1", "0"), "1/2", "3/10"),
            ("2/5", ("0", "1"), "-1/2", "1/10")]
    return InaccessibleSite(2, _children(arith, rows, 2), arith=arith)
