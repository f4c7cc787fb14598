"""Seeded input mutation fuzz: every input maps to a documented exit code.

Each mutation takes one bundled scenario or site file, or one golden input,
and either replaces a random leaf or subtree with a hostile value or deletes
a random key or list element.  After those, as many mutations again of a
copy of ``scenarios/one_step.json`` that carries ``mode`` and ``tolerance``
fields reach the document's own arithmetic fields.  The mutated document
goes to ``analyze`` or ``kernel`` on standard input, in exact or float
mode.  The run must:

- exit 0, 2, 3, 4 or 5, with no exception escaping ``cli.main``;
- on exit 3, print ``error: <path>: ...`` whose top-level key is a key of
  the unmutated document, so the message points at a field the user wrote.
  The messages without a path are ``site is out of float range`` and
  ``scenario is out of float range``.

Apart from the seeded mutations, every golden scenario input runs with one
process field (driver, prices, carrier, structure) scaled by 10^k for k in
``SCALES``, in both modes: numbers in range, but large or small enough for
float rounding and the float range to decide, under the same rules, and
no report it writes may hold ``NaN`` or ``Infinity``.
"""

import io
import json
import random
import re
from fractions import Fraction

import pytest

from marketforge.cli import main
from test_golden_reports import INPUTS, SCENARIOS
from util import scaled

SEED = 11
MUTATIONS = 500
FIELD_MUTATIONS = 100
MODES = ("exact", "float")
EXIT_CODES = {0, 2, 3, 4, 5}
HOSTILE = (None, True, False, [], {}, [[]], {"x": 1}, "1/0", "abc", "", "inf",
           "nan", "-1/3", 0, -1, -0.0, 1e308, 10 ** 400)
PATHLESS = {"site is out of float range", "scenario is out of float range"}
PATH_MESSAGE = re.compile(r"error: ([A-Za-z_]+)[\w.\[\]]*: ")


def _nodes(doc, at=()):
    """Every (container path, key) below the root, leaves and subtrees."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at, key
        yield from _nodes(value, at + (key,))


def _mutate(doc, rng):
    """A mutated deep copy of ``doc`` and a description of the change."""
    doc = json.loads(json.dumps(doc))
    at, key = rng.choice(list(_nodes(doc)))
    parent = doc
    for step in at:
        parent = parent[step]
    where = "".join(f"[{step!r}]" for step in (*at, key))
    if rng.random() < 0.25:
        del parent[key]
        return doc, f"delete {where}"
    value = rng.choice(HOSTILE)
    parent[key] = json.loads(json.dumps(value))
    return doc, f"{where} = {value!r:.40}"


def mutations():
    """The seeded mutations in order: (cmd, original, mutated doc, mode,
    case description)."""
    rng = random.Random(SEED)
    sources = [(cmd, json.loads(path.read_text())) for cmd, path in INPUTS
               if path is not None]
    for _ in range(MUTATIONS):
        cmd, original = rng.choice(sources)
        doc, change = _mutate(original, rng)
        mode = rng.choice(MODES)
        yield (cmd, original, doc, mode,
               f"{cmd} {original.get('name', original.get('kind'))} {mode}: {change}")
    fields = dict(json.loads((SCENARIOS / "one_step.json").read_text()),
                  mode="float", tolerance=1e-9)
    for _ in range(FIELD_MUTATIONS):
        doc, change = _mutate(fields, rng)
        mode = rng.choice(MODES)
        yield "analyze", fields, doc, mode, f"analyze one_step+fields {mode}: {change}"


def test_mutated_inputs_exit_with_a_documented_code(monkeypatch, capsys):
    problems = []
    for cmd, original, doc, mode, case in mutations():
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        try:
            code = main([cmd, "-", "--mode", mode])
        except Exception as err:  # any escape is the finding
            problems.append(f"{case}: raised {type(err).__name__}: {err}")
            continue
        finally:
            err_text = capsys.readouterr().err
        problems += _undocumented(case, code, err_text, original)
    assert problems == []


def _undocumented(case, code, err_text, original) -> list:
    """The problem with an exit: a code outside ``EXIT_CODES``, or an exit
    3 whose message is not pathless and names no top-level key of the
    ``original`` document."""
    if code not in EXIT_CODES:
        return [f"{case}: exit {code}: {err_text.strip()}"]
    if code == 3 and err_text.strip() not in {f"error: {m}" for m in PATHLESS}:
        match = PATH_MESSAGE.match(err_text)
        if match is None or match.group(1) not in original:
            return [f"{case}: exit 3 names no input field: {err_text.strip()}"]
    return []


SCALES = (-6, 8, 30, 300)
PROCESS_FIELDS = ("driver", "prices", "carrier", "structure")


def scaled_inputs():
    """Each golden scenario input with one process field scaled by 10^k,
    k in ``SCALES``: (description, original, scaled document)."""
    for cmd, path in INPUTS:
        if cmd != "analyze":
            continue
        original = json.loads(path.read_text())
        for name in PROCESS_FIELDS:
            if name not in original:
                continue
            for k in SCALES:
                doc = dict(original, **{name: scaled(original[name], Fraction(10) ** k)})
                yield f"{path.name} {name} x1e{k}", original, doc


@pytest.mark.parametrize("mode", MODES)
def test_scaled_process_fields_exit_with_a_documented_code(monkeypatch, capsys, tmp_path,
                                                           mode):
    """In-range numbers of any size: every exit is documented, nothing
    escapes ``cli.main``, where float rounding or range limits decide, and
    no report written holds ``NaN`` or ``Infinity``."""
    problems = []
    report = tmp_path / "report.json"
    for case, original, doc in scaled_inputs():
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        report.unlink(missing_ok=True)
        try:
            code = main(["analyze", "-", "--mode", mode, "--report", str(report)])
        except Exception as err:  # any escape is the finding
            problems.append(f"{case}: raised {type(err).__name__}: {err}")
            continue
        finally:
            err_text = capsys.readouterr().err
        problems += _undocumented(f"{case} {mode}", code, err_text, original)
        if report.exists() and re.search(r"\bNaN\b|Infinity", report.read_text()):
            problems.append(f"{case} {mode}: exit {code} with a report holding NaN or Infinity")
    assert problems == []
