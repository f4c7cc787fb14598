"""The paper's worked models, as the bundled scenario files.

Each fixture reads one file of ``scenarios/`` (shipped as package data)
through ``scenario.load_scenario`` or ``load_site``, in either arithmetic:
b1 is one_step.json, b2 is perfect_insider.json without its enlargement,
b2i is perfect_insider.json (the first coin as a perfect insider signal),
b2n is noisy_signal.json (the first coin, flipped with probability 1/5),
insider_site is site_insider.json and k1_site is site_inaccessible.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .arith import EXACT, Arithmetic
from .jumpkernel import Site
from .scenario import load_scenario, load_site, parse_document
from .space import EnlargementPair, Filtration, Process, SampleSpace

SCENARIOS = Path(__file__).parent / "scenarios"


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


def _document(filename: str):
    return parse_document((SCENARIOS / filename).read_text())


def _model(name: str, doc, arith: Arithmetic) -> ModelFixture:
    """The loaded scenario; ``pair`` and ``signal`` only for an initial
    enlargement, whose signal is the document's ``variable``."""
    built = load_scenario(doc, arith)
    enlargement = doc["enlargement"]
    initial = enlargement["kind"] == "initial"
    return ModelFixture(name, built.space, built.F, built.driver.W, built.market.S,
                        pair=built.pair if initial else None,
                        signal=tuple(enlargement["variable"]) if initial else None)


def b1(arith: Arithmetic = EXACT) -> ModelFixture:
    return _model("b1", _document("one_step.json"), arith)


def b2(arith: Arithmetic = EXACT) -> ModelFixture:
    doc = _document("perfect_insider.json")
    doc["enlargement"] = {"kind": "none"}
    return _model("b2", doc, arith)


def b2i(arith: Arithmetic = EXACT) -> ModelFixture:
    return _model("b2i", _document("perfect_insider.json"), arith)


def b2n(arith: Arithmetic = EXACT) -> ModelFixture:
    """Outcome "xy1" is coins x, y with the signal flipped; F never sees the bit."""
    return _model("b2n", _document("noisy_signal.json"), arith)


def insider_site(arith: Arithmetic = EXACT) -> Site:
    """The perfect-insider site: zero expanded Gram, nonzero drift demand."""
    return load_site(_document("site_insider.json"), arith)


def k1_site(arith: Arithmetic = EXACT) -> Site:
    """Two-dimensional inaccessible site with orthogonal child jumps."""
    return load_site(_document("site_inaccessible.json"), arith)
