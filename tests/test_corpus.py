"""Equivalence corpus: exit code, report digest and stderr pinned per case.

Every case runs ``analyze`` or ``kernel`` on a document read from standard
input, once in exact and once in float mode, and records the exit code, the
SHA-256 of the ``--report`` file (None when none is written) and the text
on stderr.  Stdout is left out because it carries timings.  The cases are:

- every input of ``test_golden_reports`` (the ``scenarios/`` files, the
  golden inputs and the documents with a bad mode or tolerance field);
- the noisy coin trees ``noisy_tree_T{2,3,4,6}.json`` with their outcome
  listing permuted by seeds 1 and 7; listing order is not part of the
  model, so every permutation must report what the committed order does,
  in both modes: exact mode computes in integers, and the float sums that
  build processes are ``math.fsum``, correctly rounded, so they depend
  neither on the order of their terms nor on the Python version;
- the seeded mutations of ``test_input_fuzz``, each in both modes.

A refactor must leave every entry as it is.  Regenerate only in a change
that moves report bytes, exit codes or messages on purpose, and list the
moved entries with it:

    PYTHONPATH=src python tests/test_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile

import pytest

from marketforge.cli import main
from test_golden_reports import FIELD_ERRORS, GOLDEN, INPUTS, MODES
from test_input_fuzz import mutations

DIGESTS = GOLDEN / "corpus_digests.json"
TREES = (2, 3, 4, 6)
PERMUTATIONS = (1, 7)


def permuted(doc: dict, seed: int) -> dict:
    """A noisy tree with its outcomes listed in a seeded order: every
    per-outcome list is reordered alike."""
    order = list(range(len(doc["space"]["outcomes"])))
    random.Random(seed).shuffle(order)
    doc = json.loads(json.dumps(doc))
    space, enl = doc["space"], doc["enlargement"]
    for holder, key in ((space, "outcomes"), (space, "weights"), (doc, "driver"),
                        (doc, "prices"), (enl, "variable")):
        holder[key] = [holder[key][i] for i in order]
    return doc


def documents():
    """(case stem, command, document text) for every case, in a fixed order."""
    for cmd, path in INPUTS + FIELD_ERRORS:
        if path is not None:
            yield f"{cmd}-{path.stem}", cmd, path.read_text()
    for T in TREES:
        tree = json.loads((GOLDEN / f"noisy_tree_T{T}.json").read_text())
        for seed in PERMUTATIONS:
            yield f"analyze-noisy_tree_T{T}-seed{seed}", "analyze", json.dumps(permuted(tree, seed))
    for n, (cmd, _, doc, _, _) in enumerate(mutations()):
        yield f"fuzz-{n:03d}", cmd, json.dumps(doc)


def run_case(cmd: str, text: str, mode: str, workdir: pathlib.Path) -> list:
    """[exit code, report SHA-256 or None, stderr] of one run on ``text``."""
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    err, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([cmd, "-", "--mode", mode, "--report", str(report)])
    finally:
        sys.stdin = stdin
    digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    return [code, digest, err.getvalue()]


def digests(workdir: pathlib.Path) -> dict:
    return {f"{stem}-{mode}": run_case(cmd, text, mode, workdir)
            for stem, cmd, text in documents() for mode in MODES}


def render(table: dict) -> str:
    """One line per case, sorted, so a moved entry shows as one line."""
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_corpus_matches_its_digests(monkeypatch, tmp_path):
    monkeypatch.delenv("FORGE_MODE", raising=False)
    want = json.loads(DIGESTS.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    moved = [(case, want[case], got[case]) for case in want if got[case] != want[case]]
    assert moved == []


@pytest.mark.parametrize("T", TREES)
def test_float_report_does_not_depend_on_the_outcome_listing_order(T, monkeypatch, tmp_path):
    monkeypatch.delenv("FORGE_MODE", raising=False)
    tree = json.loads((GOLDEN / f"noisy_tree_T{T}.json").read_text())
    runs = [run_case("analyze", json.dumps(doc), "float", tmp_path)
            for doc in (tree, *(permuted(tree, seed) for seed in PERMUTATIONS))]
    assert runs[0][0] == 0 and runs[1:] == runs[:1] * len(PERMUTATIONS)


if __name__ == "__main__":
    os.environ.pop("FORGE_MODE", None)
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(render(digests(pathlib.Path(tmp))))
