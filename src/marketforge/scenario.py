"""Scenario and site file ingestion.

Scenario files are JSON, parsed once in either mode: a JSON decimal is
kept as a ``Decimal`` and read, like every other number, where the loader
reads its field, in the mode the run resolves (``Arithmetic.decimal``).
In exact mode every number is read exactly -- decimals, integers, "p/q"
and decimal strings -- so a scenario round-trips bit-exactly.  The
weights and each list of paths are read by raw token (``_paths``): each
distinct token is parsed once, so no cell is parsed or wrapped on its
own.  The flow is the document's, or the natural flow of the driver's
(else the prices') token paths (``natural_filtration``), and every
process is then built on the flow's atoms, each distinct cell of a column
encoded once (``Process.from_keys``): no outcome is grouped for a
process adapted to the flow.  Validation failures carry the path to the offending
field ("space.weights[2]: ..."), the first in document order; an engine
constructor's own error is mapped to its field by ``_field``.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, repeat

from .arith import DEFAULT_TOLERANCE, EXACT, EXACT_MODE, FLOAT_MODE, Arithmetic
from .calculus import is_martingale
from .jumpkernel import KernelError, Site, SiteChild
from .mrp import Driver, synthesize_driver
from .space import (
    INF,
    EnlargementPair,
    Filtration,
    Process,
    RandomTime,
    SampleSpace,
    SpaceError,
    atom_labels,
    build_initial_enlargement,
    build_progressive_enlargement,
    check_keys,
    given_flow,
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


def parse_document(text: str):
    """JSON with each decimal kept exactly, as a ``Decimal``, for the loader
    to read in the run's mode."""
    try:
        return json.loads(text, parse_float=Decimal)
    except json.JSONDecodeError as err:
        raise ValueError(f"not valid JSON: {err}") from None


def document_arith(doc, mode: str | None = None, tolerance: float | None = None) -> Arithmetic:
    """The arithmetic of a parsed document: ``mode`` when given (fixed by
    the caller), else the document's own "mode", else exact; ``tolerance``
    when given, else the document's "tolerance", else the default.

    Either field, when present, must be valid even where an argument
    overrides it: "mode" is "exact" or "float", and "tolerance" a positive
    JSON number within the float range, a decimal read as float mode reads
    it.
    """
    doc = doc if isinstance(doc, dict) else {}
    if doc.get("mode", EXACT_MODE) not in (EXACT_MODE, FLOAT_MODE):
        raise ScenarioError("mode", 'expected "exact" or "float"')
    if "tolerance" in doc:
        raw = doc["tolerance"]
        if type(raw) is Decimal:
            raw = float(raw)
        if type(raw) not in (int, float) or not 0 < raw <= sys.float_info.max:
            raise ScenarioError("tolerance", "expected a positive finite number")
        tolerance = float(raw) if tolerance is None else tolerance
    if (mode or doc.get("mode") or EXACT_MODE) == EXACT_MODE:
        return EXACT
    return Arithmetic(FLOAT_MODE, DEFAULT_TOLERANCE if tolerance is None else tolerance)


def _number(raw, key, numbers: dict, arith: Arithmetic, where):
    """The number of a raw token, parsed once per ``key`` into ``numbers``;
    ``where()`` names the token's field when it is no number."""
    if key not in numbers:
        try:
            numbers[key] = arith.parse(raw)
        except (ValueError, TypeError, ZeroDivisionError) as err:
            raise ScenarioError(where(), f"not a number: {err}") from None
    return numbers[key]


def _num(value, path: str, arith: Arithmetic):
    return _number(value, None, {}, arith, lambda: path)


_PLAIN = frozenset((str, int))  # the token types ``_token_key`` keys as themselves


def _token_key(x):
    """The key of a raw JSON token: a string or an integer keys as itself,
    any other token as its type and the token, except that a float or a
    JSON decimal (so -0.0 stays apart from 0.0) or an object keys by its
    repr, a Fraction by its integer ratio and a list by its items' keys.
    Only a string is a string key and only an integer an integer key, so
    tokens of one key are written alike, and have one number or fail
    alike."""
    kind = type(x)
    if kind is str or kind is int:
        return x
    if kind is float or kind is Decimal or kind is dict:
        return kind, repr(x)
    if kind is Fraction:
        return kind, x.as_integer_ratio()
    if kind is list:
        return kind, tuple(map(_token_key, x))
    return kind, x


def _nonneg_int(value, path: str, expected: str, arith: Arithmetic) -> int:
    """A nonnegative JSON integer or integral JSON number (2 or 2.0), never a
    boolean; a decimal is read as the run's mode reads it."""
    value = arith.decimal(value)
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
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise ScenarioError(path, "expected a list of strings")
    return value


def _weights(weights_doc: list, arith: Arithmetic) -> tuple:
    """The weights, each distinct token parsed once, in order of its first
    occurrence, so the error names the first bad weight."""
    keys = list(map(_token_key, weights_doc))
    numbers: dict = {}
    for key, raw in dict(zip(keys, weights_doc)).items():
        _number(raw, key, numbers, arith, lambda: f"space.weights[{keys.index(key)}]")
    return tuple(map(numbers.__getitem__, keys))


def _paths(paths_doc, path: str, space: SampleSpace, arith: Arithmetic,
           horizon: int | None = None) -> tuple:
    """(keys, cells) of a list of paths, one per outcome: each cell's raw
    token key and each distinct key's cell, checked (``check_keys``) but
    not yet built.  Every distinct token is
    parsed once, and a field is named only when its token fails.  Errors
    come in path order, each path's shape before its values in (t, j)
    order, then the dimension and horizon checks.  The shapes and the token
    types are checked over the whole document at once; only a document
    failing a shape is walked path by path, to its first bad path."""
    if not isinstance(paths_doc, list) or len(paths_doc) != space.size:
        raise ScenarioError(path, f"expected one path per outcome ({space.size})")
    lengths = set(map(len, paths_doc)) if {list}.issuperset(map(type, paths_doc)) else {0}
    shaped = space.size
    if min(lengths) < 2 or horizon is not None and lengths != {horizon + 1}:
        shaped = next((i for i, raw in enumerate(paths_doc)
                       if not isinstance(raw, list) or len(raw) < 2
                       or horizon is not None and len(raw) != horizon + 1), space.size)
    keys = paths_doc[:shaped]
    if _PLAIN.issuperset(map(type, chain.from_iterable(keys))):  # each token its own key
        tokens = dict.fromkeys(chain.from_iterable(keys))
        tokens = dict(zip(tokens, tokens))
    else:
        keys = [list(map(_token_key, raw)) for raw in keys]
        tokens = dict(zip(chain.from_iterable(keys), chain.from_iterable(paths_doc[:shaped])))
    numbers: dict = {}  # token key -> number, for this process only
    cells = {}
    # Each distinct cell in outcome-major order of its first occurrence.
    for key, raw in tokens.items():
        vector = type(raw) is list
        items = tuple(zip(key[1], raw)) if vector else ((key, raw),)
        for j, (k, x) in enumerate(items):
            _number(x, k, numbers, arith,
                    lambda: _first_field(keys, key, path) + (f"[{j}]" if vector else ""))
        cells[key] = tuple(numbers[k] for k, _ in items)
    if shaped < space.size:
        bad = paths_doc[shaped]
        raise ScenarioError(f"{path}[{shaped}]", "expected a path with >= 2 times"
                            if not isinstance(bad, list) or len(bad) < 2
                            else f"expected {horizon + 1} time points")
    with _field(path):
        check_keys(space, keys, cells)
    return keys, cells


def _first_field(keys, key, path: str) -> str:
    """The field ``path[i][t]`` of the first cell keyed ``key``."""
    i = next(i for i, row in enumerate(keys) if key in row)
    return f"{path}[{i}][{keys[i].index(key)}]"


def _filtration(flow_doc, path: str, space: SampleSpace, base=None) -> Filtration:
    if not isinstance(flow_doc, list) or len(flow_doc) < 2:
        raise ScenarioError(path, "expected partitions for times 0..horizon")
    labellings = []
    for t, atoms in enumerate(flow_doc):
        if not isinstance(atoms, list):
            raise ScenarioError(f"{path}[{t}]", "expected a list of atoms")
        with _field(f"{path}[{t}]"):
            labellings.append(atom_labels(
                space, [_str_list(a, f"{path}[{t}][{k}]") for k, a in enumerate(atoms)]))
    with _field(path):
        return given_flow(space, labellings, base)


def _enlargement(doc, path: str, F: Filtration, arith: Arithmetic) -> EnlargementPair:
    kind = arith.decimal(_require(doc, "kind", path))
    if kind == "none":
        return EnlargementPair(F, F)
    if kind == "initial":
        variable = _require(doc, "variable", path)
        if not isinstance(variable, list) or len(variable) != F.space.size:
            raise ScenarioError(f"{path}.variable",
                                f"expected one value per outcome ({F.space.size})")
        kinds = set(map(type, variable))  # each entry's type read once
        if any(issubclass(kind, (list, dict)) for kind in kinds):
            i = next(i for i, v in enumerate(variable) if isinstance(v, (list, dict)))
            raise ScenarioError(f"{path}.variable[{i}]",
                                "expected a string or number, not a list or object")
        if Decimal in kinds:
            variable = map(arith.decimal, variable)
        with _field(f"{path}.variable"):
            return build_initial_enlargement(F, tuple(variable))
    if kind == "progressive":
        times = _require(doc, "times", path)
        if not isinstance(times, list) or len(times) != F.space.size:
            raise ScenarioError(f"{path}.times",
                                f"expected one time per outcome ({F.space.size})")
        expected = "expected a nonnegative integer or \"inf\""
        fixed = [INF if v == "inf" else _nonneg_int(v, f"{path}.times[{i}]", expected, arith)
                 for i, v in enumerate(times)]
        with _field(f"{path}.times"):
            return build_progressive_enlargement(F, RandomTime(F.space, tuple(fixed)))
    if kind == "explicit":
        G = _filtration(_require(doc, "flow", path), f"{path}.flow", F.space, F)
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
    with _field("space"):
        space = SampleSpace(tuple(outcomes), _weights(weights_doc, arith), arith=arith)

    prices = _paths(_require(doc, "prices", ""), "prices", space, arith)
    horizon = len(prices[0][0]) - 1

    W = None
    if "driver" in doc:
        W = _paths(doc["driver"], "driver", space, arith, horizon)

    if "flow" in doc:
        F = _filtration(doc["flow"], "flow", space)
        if F.horizon != horizon:
            raise ScenarioError("flow", f"expected horizon {horizon}")
    else:
        F = natural_filtration(space, *(W or prices))

    # Every process is built on the flow's atoms (on finer atoms only where
    # it is not adapted to the flow, which its check then reports).
    if W is not None:
        with _field("driver"):
            driver = Driver(Process.from_keys(space, *W, F), F)
    else:
        driver = synthesize_driver(F)

    carrier = driver.W
    if "carrier" in doc:
        carrier = Process.from_keys(
            space, *_paths(doc["carrier"], "carrier", space, arith, horizon), F)
        if not is_adapted(carrier, F):
            raise ScenarioError("carrier", "carrier must be adapted to the base flow")
        witness = is_martingale(carrier, F)
        if witness is not None:
            raise ScenarioError("carrier", f"carrier must be a base-flow martingale; "
                                f"it drifts at t={witness.t} on {list(witness.atom)}")

    structure = None
    if "structure" in doc:
        structure = Process.from_keys(
            space, *_paths(doc["structure"], "structure", space, arith, horizon), F)
        if structure.dim != 1:
            raise ScenarioError("structure", "expected one number per time point")

    pair = _enlargement(doc.get("enlargement", {"kind": "none"}),
                        "enlargement", F, arith)

    with _field("prices"):
        market = Market(Process.from_keys(space, *prices, F), F)

    return BuiltScenario(name, arith, space, F, pair, market, driver,
                         carrier, structure)


def load_site(doc, arith: Arithmetic):
    """Resolve a parsed site document into a jump site."""
    if not isinstance(doc, dict):
        raise ScenarioError("", "site must be a JSON object")
    kind = arith.decimal(_require(doc, "kind", ""))
    if kind not in ("accessible", "inaccessible"):
        raise ScenarioError("kind", f"expected accessible|inaccessible, got {kind!r}")
    dim = _nonneg_int(_require(doc, "dim", ""), "dim", "expected a nonnegative integer", arith)
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
