"""Splitting every outcome into equal copies changes nothing.

Each analyze input of ``test_golden_reports`` (the bundled scenarios and
the golden documents) is split by ``util.split_outcomes``: outcome o of
weight w becomes k copies of weight w/k, each with o's paths, label and
atoms.  The atoms are the same, so the market is the same: the split
document exits alike, writes a byte-identical report when the verdict is
viable, and otherwise fails with the same reason, t and check row, its
witness atom holding the copies of the outcomes of the unsplit one.  The
split is exact in exact mode for k = 2 and 3, and in float mode for k = 2
(w/2 is exact in binary; w/3 is not, so 3 fl(w/3) may differ from w and
with it the market).  Loading the split document groups the outcomes as
often as loading the unsplit one: once per flow.
"""

import json

import pytest

from marketforge import space
from marketforge.arith import EXACT, FLOAT
from marketforge.cli import main
from marketforge.scenario import load_scenario, parse_document

from test_golden_reports import INPUTS
from util import split_outcomes

ANALYZE = [path for cmd, path in INPUTS if cmd == "analyze"]
SPLITS = [("exact", 2), ("exact", 3), ("float", 2)]


@pytest.fixture(autouse=True)
def _clean_mode_env(monkeypatch):
    monkeypatch.delenv("FORGE_MODE", raising=False)


def _analyze(doc, mode, work, name):
    path, report = work / f"{name}.json", work / f"{name}-report.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", str(path), "--mode", mode, "--report", str(report)])
    return code, report.read_bytes()


def _failure(report: dict) -> tuple:
    """The verdict, the failing check row and its witness's reason, t and
    atom."""
    row = next((r for r in report["checks"] if r["passed"] is False and r["witness"]), None)
    witness = report["witness"]
    return (report["verdict"], row and row["name"], witness["reason"], witness["t"],
            witness["atom"])


def _groupings(monkeypatch, doc, arith) -> int:
    calls = []

    def grouped(parent, labels):
        calls.append(len(labels))
        return group(parent, labels)

    group = space._group_outcomes
    with monkeypatch.context() as patch:
        patch.setattr(space, "_group_outcomes", grouped)
        load_scenario(parse_document(json.dumps(doc)), arith)
    return len(calls)


@pytest.mark.parametrize("mode, k", SPLITS, ids=[f"{m}-k{k}" for m, k in SPLITS])
@pytest.mark.parametrize("path", ANALYZE, ids=[p.stem for p in ANALYZE])
def test_splitting_outcomes_into_equal_copies_changes_no_verdict(tmp_path, capsys, monkeypatch,
                                                                  path, mode, k):
    doc = json.loads(path.read_text())
    split = split_outcomes(doc, k)
    code, report = _analyze(doc, mode, tmp_path, "whole")
    split_code, split_report = _analyze(split, mode, tmp_path, "split")
    capsys.readouterr()
    assert split_code == code
    if code == 0:
        assert split_report == report
    else:
        verdict, row, reason, t, atom = _failure(json.loads(report))
        assert _failure(json.loads(split_report)) == (
            verdict, row, reason, t, [f"{o}#{j}" for o in atom for j in range(k)])
    arith = EXACT if mode == "exact" else FLOAT
    assert _groupings(monkeypatch, split, arith) == _groupings(monkeypatch, doc, arith)
