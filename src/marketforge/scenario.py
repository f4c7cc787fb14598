"""Scenario and site file ingestion.

Scenario files are JSON.  In exact mode every number becomes one Fraction
-- JSON decimals through a parse hook, integers, "p/q" and decimal strings
through the arithmetic -- so a scenario round-trips bit-exactly.  Validation
failures carry the path to the offending field ("space.weights[2]: ...");
an engine constructor's own error is mapped to its field by ``_field``.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .arith import DEFAULT_TOLERANCE, EXACT, EXACT_MODE, FLOAT_MODE, Arithmetic
from .calculus import is_martingale
from .jumpkernel import KernelError, Site, SiteChild
from .mrp import Driver, synthesize_driver
from .space import (
    INF,
    EnlargementPair,
    Filtration,
    Partition,
    Process,
    RandomTime,
    SampleSpace,
    SpaceError,
    build_initial_enlargement,
    build_progressive_enlargement,
    is_adapted,
    natural_filtration,
)
from .viability import Market, ViabilityError


class ScenarioError(ValueError):
    """Input document failed validation; ``path`` locates the field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@contextmanager
def _field(path: str):
    """Report an engine error raised in the block as invalid data at ``path``."""
    try:
        yield
    except (SpaceError, KernelError, ViabilityError) as err:
        raise ScenarioError(path, str(err)) from None


def parse_document(text: str, arith: Arithmetic):
    """JSON with numbers routed through the arithmetic backend."""
    try:
        return json.loads(text, parse_float=Fraction if arith.exact else float)
    except json.JSONDecodeError as err:
        raise ValueError(f"not valid JSON: {err}") from None


def document_arith(doc, mode: str | None = None, tolerance: float | None = None) -> Arithmetic:
    """The arithmetic of a parsed document: ``mode`` when given (fixed by
    the caller), else the document's own "mode", else exact; ``tolerance``
    when given, else the document's "tolerance", else the default.

    Either field, when present, must be valid even where an argument
    overrides it: "mode" is "exact" or "float", and "tolerance" a positive
    JSON number within the float range, a decimal read as float mode reads
    it (so the document may have been parsed in either mode).
    """
    doc = doc if isinstance(doc, dict) else {}
    if doc.get("mode", EXACT_MODE) not in (EXACT_MODE, FLOAT_MODE):
        raise ScenarioError("mode", 'expected "exact" or "float"')
    if "tolerance" in doc:
        raw = doc["tolerance"]
        if type(raw) is Fraction:  # a decimal parsed in exact mode
            try:
                raw = float(raw)
            except OverflowError:
                raw = math.inf
        if type(raw) not in (int, float) or not 0 < raw <= sys.float_info.max:
            raise ScenarioError("tolerance", "expected a positive finite number")
        tolerance = float(raw) if tolerance is None else tolerance
    if (mode or doc.get("mode") or EXACT_MODE) == EXACT_MODE:
        return EXACT
    return Arithmetic(FLOAT_MODE, DEFAULT_TOLERANCE if tolerance is None else tolerance)


def _num(value, path: str, arith: Arithmetic):
    try:
        return arith.parse(value)
    except (ValueError, TypeError, ZeroDivisionError) as err:
        raise ScenarioError(path, f"not a number: {err}") from None


def _nonneg_int(value, path: str, expected: str) -> int:
    """A nonnegative JSON integer or integral JSON number (2 or 2.0), never a
    boolean, so that both modes accept exactly the same values."""
    if (isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)
            and (not isinstance(value, float) or math.isfinite(value))
            and value == int(value) and value >= 0):
        return int(value)
    raise ScenarioError(path, expected)


def _require(doc, key: str, path: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing field")
    return doc[key]


def _str_list(value, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ScenarioError(path, "expected a list of strings")
    return value


def _process(paths_doc, path: str, space: SampleSpace, arith: Arithmetic,
             horizon: int | None = None) -> Process:
    if not isinstance(paths_doc, list) or len(paths_doc) != space.size:
        raise ScenarioError(path, f"expected one path per outcome ({space.size})")
    parsed = {}  # raw token key -> its number, for this call only

    def num(x, where):
        """The number of token x, parsed once per distinct token; the field
        path ``where()`` is built only when parsing fails."""
        if isinstance(x, (list, dict)):
            return _num(x, where(), arith)  # never a number: fails with the path
        key = (type(x), repr(x) if isinstance(x, float) else x)
        if key not in parsed:
            parsed[key] = _num(x, where(), arith)
        return parsed[key]

    paths = []
    for i, raw in enumerate(paths_doc):
        if not isinstance(raw, list) or len(raw) < 2:
            raise ScenarioError(f"{path}[{i}]", "expected a path with >= 2 times")
        if horizon is not None and len(raw) != horizon + 1:
            raise ScenarioError(f"{path}[{i}]",
                                f"expected {horizon + 1} time points")
        fixed = []
        for t, v in enumerate(raw):
            if isinstance(v, list):
                fixed.append(tuple(num(x, lambda: f"{path}[{i}][{t}][{j}]")
                                   for j, x in enumerate(v)))
            else:
                fixed.append((num(v, lambda: f"{path}[{i}][{t}]"),))
        paths.append(tuple(fixed))
    with _field(path):
        return Process.from_paths(space, paths)


def _filtration(flow_doc, path: str, space: SampleSpace) -> Filtration:
    if not isinstance(flow_doc, list) or len(flow_doc) < 2:
        raise ScenarioError(path, "expected partitions for times 0..horizon")
    parts = []
    for t, atoms in enumerate(flow_doc):
        if not isinstance(atoms, list):
            raise ScenarioError(f"{path}[{t}]", "expected a list of atoms")
        with _field(f"{path}[{t}]"):
            parts.append(Partition.from_atoms(
                space, [_str_list(a, f"{path}[{t}][{k}]") for k, a in enumerate(atoms)]))
    with _field(path):
        return Filtration(space, tuple(parts))


def _enlargement(doc, path: str, F: Filtration, arith: Arithmetic) -> EnlargementPair:
    kind = _require(doc, "kind", path)
    if kind == "none":
        return EnlargementPair(F, F)
    if kind == "initial":
        variable = _require(doc, "variable", path)
        if not isinstance(variable, list) or len(variable) != F.space.size:
            raise ScenarioError(f"{path}.variable",
                                f"expected one value per outcome ({F.space.size})")
        for i, v in enumerate(variable):
            if isinstance(v, (list, dict)):
                raise ScenarioError(f"{path}.variable[{i}]",
                                    "expected a string or number, not a list or object")
        with _field(f"{path}.variable"):
            return build_initial_enlargement(F, tuple(variable))
    if kind == "progressive":
        times = _require(doc, "times", path)
        if not isinstance(times, list) or len(times) != F.space.size:
            raise ScenarioError(f"{path}.times",
                                f"expected one time per outcome ({F.space.size})")
        expected = "expected a nonnegative integer or \"inf\""
        fixed = [INF if v == "inf" else _nonneg_int(v, f"{path}.times[{i}]", expected)
                 for i, v in enumerate(times)]
        with _field(f"{path}.times"):
            return build_progressive_enlargement(F, RandomTime(F.space, tuple(fixed)))
    if kind == "explicit":
        G = _filtration(_require(doc, "flow", path), f"{path}.flow", F.space)
        if G.horizon != F.horizon:
            raise ScenarioError(f"{path}.flow", f"expected horizon {F.horizon}")
        with _field(f"{path}.flow"):
            return EnlargementPair(F, G)
    raise ScenarioError(f"{path}.kind", f"unknown enlargement kind {kind!r}")


@dataclass(frozen=True, eq=False)
class BuiltScenario:
    """A scenario resolved into engine objects."""

    name: str
    arith: Arithmetic
    space: SampleSpace
    F: Filtration
    pair: EnlargementPair
    market: Market
    driver: Driver
    carrier: Process
    structure: Process | None


def load_scenario(doc, arith: Arithmetic) -> BuiltScenario:
    """Resolve a parsed scenario document into engine objects."""
    if not isinstance(doc, dict):
        raise ScenarioError("", "scenario must be a JSON object")
    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError("name", "expected a string")
    space_doc = _require(doc, "space", "")
    outcomes = _str_list(_require(space_doc, "outcomes", "space"), "space.outcomes")
    weights_doc = _require(space_doc, "weights", "space")
    if not isinstance(weights_doc, list) or len(weights_doc) != len(outcomes):
        raise ScenarioError("space.weights", "expected one weight per outcome")
    weights = [_num(v, f"space.weights[{i}]", arith) for i, v in enumerate(weights_doc)]
    with _field("space"):
        space = SampleSpace(tuple(outcomes), tuple(weights), arith=arith)

    prices = _process(_require(doc, "prices", ""), "prices", space, arith)
    horizon = prices.horizon

    W = None
    if "driver" in doc:
        W = _process(doc["driver"], "driver", space, arith, horizon)

    if "flow" in doc:
        F = _filtration(doc["flow"], "flow", space)
        if F.horizon != horizon:
            raise ScenarioError("flow", f"expected horizon {horizon}")
    else:
        F = natural_filtration(space, [W if W is not None else prices])

    if W is not None:
        with _field("driver"):
            driver = Driver(W, F)
    else:
        driver = synthesize_driver(F)

    carrier = driver.W
    if "carrier" in doc:
        carrier = _process(doc["carrier"], "carrier", space, arith, horizon)
        if not is_adapted(carrier, F):
            raise ScenarioError("carrier", "carrier must be adapted to the base flow")
        witness = is_martingale(carrier, F)
        if witness is not None:
            raise ScenarioError("carrier", f"carrier must be a base-flow martingale; "
                                f"it drifts at t={witness.t} on {list(witness.atom)}")

    structure = None
    if "structure" in doc:
        structure = _process(doc["structure"], "structure", space, arith, horizon)
        if structure.dim != 1:
            raise ScenarioError("structure", "expected one number per time point")

    pair = _enlargement(doc.get("enlargement", {"kind": "none"}),
                        "enlargement", F, arith)

    with _field("prices"):
        market = Market(prices, F)

    return BuiltScenario(name, arith, space, F, pair, market, driver,
                         carrier, structure)


def load_site(doc, arith: Arithmetic):
    """Resolve a parsed site document into a jump site."""
    if not isinstance(doc, dict):
        raise ScenarioError("", "site must be a JSON object")
    kind = _require(doc, "kind", "")
    if kind not in ("accessible", "inaccessible"):
        raise ScenarioError("kind", f"expected accessible|inaccessible, got {kind!r}")
    dim = _nonneg_int(_require(doc, "dim", ""), "dim", "expected a nonnegative integer")
    children_doc = _require(doc, "children", "")
    if not isinstance(children_doc, list) or not children_doc:
        raise ScenarioError("children", "expected a nonempty list")
    children = []
    for i, c in enumerate(children_doc):
        path = f"children[{i}]"
        if not isinstance(c, dict):
            raise ScenarioError(path, "expected an object")
        if ("p" in c) == ("q" in c):
            raise ScenarioError(path, "give exactly one of \"p\" or \"q\"")
        key = "p" if "p" in c else "q"
        prob = _num(c[key], f"{path}.{key}", arith)
        w_doc = _require(c, "w", path)
        if not isinstance(w_doc, list) or len(w_doc) != dim:
            raise ScenarioError(f"{path}.w", f"expected a length-{dim} list")
        w = tuple(_num(x, f"{path}.w[{j}]", arith) for j, x in enumerate(w_doc))
        nu = _num(_require(c, "nu", path), f"{path}.nu", arith)
        delta = _num(_require(c, "delta", path), f"{path}.delta", arith)
        children.append(SiteChild(prob, w, nu, delta))
    with _field("children"):
        return Site(dim, tuple(children), kind == "accessible", arith)
