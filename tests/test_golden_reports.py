"""Golden reports: exit codes and ``--report`` bytes pinned across commits.

Each case runs ``analyze`` or ``kernel`` in exact and in float mode and
compares the exit code and the report file byte for byte with the copy
under ``tests/golden/``.  The inputs are the five files in ``scenarios/``,
the noisy-signal coin trees for T = 2..4 and T = 6 (outcomes listed in a
seeded order; at T = 6 an atom spans up to 64 outcomes), two progressive enlargements of the two-coin tree (one viable, one
failing the support condition), the viable one again with its driver
left to the synthesizer, an explicit-flow enlargement, and a trinomial
step with a two-dimensional driver under one asset, under two assets, and
under two assets whose structure martingale jumps by 8/5 (exit 4,
``jump-bound``), and a one-step market whose price drifts where the
driver does not move (exit 4, ``drift-not-spanned``, with a zero Gram),
and a three-outcome step whose second asset's drift the driver spans
only in part (exit 4, ``drift-not-spanned``, through the projection fit
on one column).  Two more jump sites pin the centred jump ξ·(w − c): an
accessible d = 2 site with a non-zero centre and a null child, and an
inaccessible site with a zero-jump child.  Last, a trinomial step whose
structure martingale jumps by exactly 1: exact mode stops at the base
``jump-bound`` (exit 4), while float mode sees 1 - eps, passes the site
stages and fails the expanded price-drift identity (exit 4,
``verification-mismatch``).  Their scenario JSON is stored beside the
reports.

Regenerate after an intended report change, and only then, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import pathlib

import pytest

from marketforge.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MODES = ("exact", "float")

INPUTS = (
    ("analyze", SCENARIOS / "noisy_signal.json"),
    ("analyze", SCENARIOS / "one_step.json"),
    ("analyze", SCENARIOS / "perfect_insider.json"),
    ("kernel", SCENARIOS / "site_inaccessible.json"),
    ("kernel", SCENARIOS / "site_insider.json"),
    ("analyze", GOLDEN / "noisy_tree_T2.json"),
    ("analyze", GOLDEN / "noisy_tree_T3.json"),
    ("analyze", GOLDEN / "noisy_tree_T4.json"),
    ("analyze", GOLDEN / "noisy_tree_T6.json"),
    ("analyze", GOLDEN / "progressive_b2_late.json"),
    ("analyze", GOLDEN / "progressive_b2_split.json"),
    ("analyze", GOLDEN / "explicit_noisy_second_coin.json"),
    ("analyze", GOLDEN / "trinomial_d2.json"),
    ("analyze", GOLDEN / "trinomial_d2_two_assets.json"),
    ("analyze", GOLDEN / "trinomial_d2_jump_bound.json"),
    ("analyze", GOLDEN / "progressive_b2_late_no_driver.json"),
    ("analyze", GOLDEN / "one_step_unspanned_drift.json"),
    ("kernel", GOLDEN / "site_accessible_d2.json"),
    ("kernel", GOLDEN / "site_inaccessible_zero_jump.json"),
    ("analyze", GOLDEN / "one_step_partly_spanned_drift.json"),
    ("analyze", GOLDEN / "trinomial_unit_structure_jump.json"),
)

CASES = [(cmd, path, mode) for cmd, path in INPUTS for mode in MODES]


def _case_id(cmd, path, mode):
    return f"{cmd}-{path.stem}-{mode}"


def _run(cmd, path, mode, report):
    return main([cmd, str(path), "--mode", mode, "--report", str(report)])


@pytest.fixture(autouse=True)
def _clean_mode_env(monkeypatch):
    monkeypatch.delenv("FORGE_MODE", raising=False)


@pytest.mark.parametrize("cmd,path,mode", CASES,
                         ids=[_case_id(*case) for case in CASES])
def test_report_matches_golden(cmd, path, mode, tmp_path, capsys):
    case = _case_id(cmd, path, mode)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    report = tmp_path / "report.json"
    code = _run(cmd, path, mode, report)
    capsys.readouterr()
    assert code == expected_codes[case]
    assert report.read_bytes() == (GOLDEN / f"{case}.json").read_bytes()


def regenerate() -> None:
    codes = {}
    for cmd, path, mode in CASES:
        case = _case_id(cmd, path, mode)
        codes[case] = _run(cmd, path, mode, GOLDEN / f"{case}.json")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
