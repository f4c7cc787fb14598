"""Command-line behavior: exit codes, messages, reports, mode resolution."""

import io
import json
import pathlib
from dataclasses import replace

import pytest

from marketforge import cli, enlarge, linalg, viability
from marketforge.arith import EXACT, FLOAT
from marketforge.cli import main
from marketforge.jumpkernel import CoercivityFailure
from marketforge.scenario import load_scenario, parse_document

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.fixture(autouse=True)
def _clean_mode_env(monkeypatch):
    monkeypatch.delenv("FORGE_MODE", raising=False)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def b2_scenario(enlargement):
    return {
        "name": "two-step",
        "space": {"outcomes": ["uu", "ud", "du", "dd"],
                  "weights": ["1/4", "1/4", "1/4", "1/4"]},
        "driver": [[0, 1, 2], [0, 1, 0], [0, -1, 0], [0, -1, -2]],
        "prices": [[1, "28/25", "31/25"], [1, "28/25", "26/25"],
                   [1, "23/25", "26/25"], [1, "23/25", "21/25"]],
        "enlargement": enlargement,
    }


# ---------------------------------------------------------------------------
# analyze: fixture scenarios


def test_analyze_one_step_viable(capsys):
    code, out, err = run_cli(["analyze", str(SCENARIOS / "one_step.json")], capsys)
    assert code == 0 and err == ""
    assert "verdict: viable" in out
    assert out.count("[pass]") == 9


def test_analyze_noisy_signal_report_numbers(tmp_path, capsys):
    report = tmp_path / "out.json"
    code, out, _ = run_cli(["analyze", str(SCENARIOS / "noisy_signal.json"),
                            "--report", str(report)], capsys)
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "viable"
    assert doc["mode"] == "exact"
    assert doc["gauge"]["u"]["min"] == "2/5"
    assert doc["gauge"]["phi"] == {"min": "-3/5", "max": "3/5"}
    assert doc["solution"]["coefficients"] == {"min": "-5/8", "max": "5/4"}
    assert doc["solution"]["jump"] == {"min": "-2", "max": "1/2"}
    assert all(row["passed"] for row in doc["checks"])


def test_analyze_insider_assumption_violated(capsys):
    code, out, _ = run_cli(
        ["analyze", str(SCENARIOS / "perfect_insider.json")], capsys)
    assert code == 5
    assert "verdict: assumption-violated" in out
    assert "[FAIL] support-condition" in out
    assert "[skip] site-solves-feasible" in out


def test_analyze_report_byte_identical_across_runs_and_pools(tmp_path, capsys):
    blobs = []
    for n in range(2):
        path = tmp_path / f"r{n}.json"
        code, _, _ = run_cli(["analyze", str(SCENARIOS / "noisy_signal.json"),
                              "--report", str(path)], capsys)
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_analyze_float_mode(tmp_path, capsys):
    report = tmp_path / "out.json"
    code, _, _ = run_cli(["analyze", str(SCENARIOS / "noisy_signal.json"),
                          "--mode", "float", "--report", str(report)], capsys)
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["mode"] == "float"
    assert doc["verdict"] == "viable"
    assert abs(doc["solution"]["coefficients"]["min"] + 0.625) < 1e-12
    assert abs(doc["solution"]["coefficients"]["max"] - 1.25) < 1e-12


def test_forge_mode_env_overrides_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FORGE_MODE", "float")
    report = tmp_path / "out.json"
    code, _, _ = run_cli(["analyze", str(SCENARIOS / "one_step.json"),
                          "--mode", "exact", "--report", str(report)], capsys)
    assert code == 0
    assert json.loads(report.read_text())["mode"] == "float"


def test_document_mode_field_applies_when_no_flag(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "one_step.json").read_text())
    doc["mode"] = "float"
    out_path = tmp_path / "out.json"
    code, _, _ = run_cli(["analyze", write_doc(tmp_path, doc),
                          "--report", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["mode"] == "float"
    assert abs(report["solution"]["deflator"]["max"] - 1.2) < 1e-12


def test_mode_flag_overrides_document_mode(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "one_step.json").read_text())
    doc["mode"] = "float"
    doc["tolerance"] = 1e-6
    out_path = tmp_path / "out.json"
    code, _, _ = run_cli(["analyze", write_doc(tmp_path, doc), "--mode",
                          "exact", "--report", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["mode"] == "exact"
    assert report["solution"]["deflator"]["max"] == "6/5"


def test_document_tolerance_feeds_float_arithmetic():
    import argparse

    from marketforge.cli import _resolve_arith

    doc = parse_document(json.dumps({"mode": "float", "tolerance": 1e-6}), EXACT)
    args = argparse.Namespace(mode=None, tolerance=None)
    arith = _resolve_arith(args, doc)
    assert arith.mode == "float" and arith.tolerance == 1e-6
    args = argparse.Namespace(mode=None, tolerance=1e-3)
    assert _resolve_arith(args, doc).tolerance == 1e-3
    args = argparse.Namespace(mode="exact", tolerance=None)
    assert _resolve_arith(args, doc).mode == "exact"


@pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), 0])
def test_tolerance_must_be_positive_and_finite(tmp_path, capsys, tolerance):
    # An infinite tolerance would call every pair of floats equal and turn
    # this non-viable market (exit 4) viable.
    doc = json.loads((GOLDEN / "trinomial_d2_jump_bound.json").read_text())
    doc["mode"], doc["tolerance"] = "float", tolerance
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 2 and "tolerance" in err


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name,field", [("tolerance_overflow", "tolerance"),
                                        ("mode_number", "mode"),
                                        ("tolerance_string", "tolerance")])
def test_a_bad_document_mode_or_tolerance_names_its_field(capsys, mode, name, field):
    # Checked even where --mode overrides the document: a 401-digit
    # tolerance once overflowed in float(), mode 7 ran exact, "abc" was
    # ignored.
    code, _, err = run_cli(["analyze", str(GOLDEN / f"one_step_{name}.json"),
                            "--mode", mode], capsys)
    assert (code, err.strip().split(":")[:2]) == (2, ["error", f" {field}"])


def test_analyze_reads_stdin(monkeypatch, capsys):
    text = (SCENARIOS / "one_step.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(["analyze", "-"], capsys)
    assert code == 0 and "verdict: viable" in out


# ---------------------------------------------------------------------------
# analyze: errors


def test_analyze_unreadable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 2
    assert "not valid JSON" in err


def test_analyze_missing_file_exits_2(capsys):
    code, _, err = run_cli(["analyze", "/nonexistent/scenario.json"], capsys)
    assert code == 2 and err


def test_analyze_validation_errors_name_the_field(tmp_path, capsys):
    doc = b2_scenario({"kind": "none"})
    doc["space"]["weights"] = ["1/4", "1/4"]
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "space.weights" in err

    doc = b2_scenario({"kind": "nonsense"})
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "enlargement.kind" in err

    doc = b2_scenario({"kind": "none"})
    doc["prices"][0][1] = "-1"
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "prices" in err

    doc = b2_scenario({"kind": "none"})
    doc["driver"][0][0] = "1/3"
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "driver" in err


def _noisy_signal_with_unadapted(field):
    """The noisy-signal scenario with a driver the flow does not see at
    time 1, or with a carrier that splits the time-2 atom {uu0, uu1}."""
    doc = json.loads((SCENARIOS / "noisy_signal.json").read_text())
    outcomes = doc["space"]["outcomes"]
    if field == "driver":
        doc["flow"] = [[outcomes], [outcomes], [[o] for o in outcomes]]
    else:
        doc["carrier"] = [list(path) for path in doc["driver"]]
        doc["carrier"][1] = [0, 2, 3]
    return doc


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("field", ["driver", "carrier"])
def test_analyze_unadapted_driver_or_carrier_exits_3(tmp_path, capsys, field, mode):
    doc = _noisy_signal_with_unadapted(field)
    code, out, err = run_cli(["analyze", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == 3 and out == ""
    assert err == f"error: {field}: {field} must be adapted to the " \
        f"{'filtration' if field == 'driver' else 'base flow'}\n"


# Adapted carriers with a drift: the first at t = 1 (where the gauge tilts
# the sites), the second only at t = 2 (where the gauge is zero).
DRIFTING_CARRIERS = {
    1: [[0, 2, 3], [0, 2, 3], [0, 2, 1], [0, 2, 1],
        [0, -1, 0], [0, -1, 0], [0, -1, -2], [0, -1, -2]],
    2: [[0, 1, 3], [0, 1, 3], [0, 1, 1], [0, 1, 1],
        [0, -1, 0], [0, -1, 0], [0, -1, -2], [0, -1, -2]],
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("t", [1, 2], ids=["drift-at-t1", "drift-at-t2"])
def test_analyze_carrier_must_be_a_martingale(tmp_path, capsys, t, mode):
    doc = json.loads((SCENARIOS / "noisy_signal.json").read_text())
    doc["carrier"] = DRIFTING_CARRIERS[t]
    code, out, err = run_cli(["analyze", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: carrier: carrier must be a base-flow martingale; "
                          f"it drifts at t={t} ")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("t, atom", [
    (1, ["uu0", "uu1", "ud0", "ud1", "du0", "du1", "dd0", "dd1"]),
    (2, ["uu0", "uu1", "ud0", "ud1"]),
], ids=["drift-at-t1", "drift-at-t2"])
def test_analyze_driver_must_be_a_martingale(tmp_path, capsys, t, atom, mode):
    # The driver generates the flow, so its drift sits on the flow's atoms.
    doc = json.loads((SCENARIOS / "noisy_signal.json").read_text())
    doc["driver"] = DRIFTING_CARRIERS[t]
    code, out, err = run_cli(["analyze", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == 3 and out == ""
    assert err == ("error: driver: driver must be a martingale of the flow; "
                   f"it drifts at t={t} on {atom}\n")


NON_FINITE = (float("nan"), float("inf"), float("-inf"))  # NaN, Infinity, -Infinity


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("value", NON_FINITE, ids=["NaN", "Infinity", "-Infinity"])
def test_analyze_non_finite_number_exits_3(tmp_path, capsys, mode, value):
    doc = b2_scenario({"kind": "none"})
    doc["prices"][1][1] = value
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == 3 and "prices[1][1]" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("value", NON_FINITE, ids=["NaN", "Infinity", "-Infinity"])
def test_kernel_non_finite_number_exits_3(tmp_path, capsys, mode, value):
    doc = {"kind": "accessible", "dim": 1,
           "children": [{"p": "1/2", "w": [1], "nu": value, "delta": 0},
                        {"p": "1/2", "w": [-1], "nu": 0, "delta": 0}]}
    code, _, err = run_cli(["kernel", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == 3 and "children[0].nu" in err


def test_analyze_explicit_flow_must_refine(tmp_path, capsys):
    doc = b2_scenario({
        "kind": "explicit",
        "flow": [[["uu", "ud", "du", "dd"]],
                 [["uu", "ud", "du", "dd"]],
                 [["uu", "ud"], ["du", "dd"]]],
    })
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "enlargement.flow" in err


def test_analyze_structure_cross_check(tmp_path, capsys):
    doc = b2_scenario({"kind": "none"})
    doc["prices"] = [[1, "28/25"], [1, "28/25"], [1, "23/25"], [1, "23/25"]]
    doc["driver"] = [[0, 1], [0, 1], [0, -1], [0, -1]]
    doc["structure"] = [[0, "1/5"], [0, "1/5"], [0, "-1/5"], [0, "-1/5"]]
    code, _, _ = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 0

    doc["structure"] = [[0, "1/4"], [0, "1/4"], [0, "-1/4"], [0, "-1/4"]]
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "structure" in err

    doc["structure"] = [[[0, 0], [1, 1]]] * 4   # a vector process is no structure
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "structure" in err


# ---------------------------------------------------------------------------
# analyze: progressive enlargements


def test_progressive_stopping_time_is_transparent(tmp_path, capsys):
    doc = b2_scenario({"kind": "progressive", "times": ["inf", "inf", 1, 1]})
    code, out, _ = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 0 and "verdict: viable" in out


def test_progressive_future_reveal_is_gated(tmp_path, capsys):
    doc = b2_scenario({"kind": "progressive", "times": ["inf", 1, "inf", 1]})
    code, out, _ = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 5 and "verdict: assumption-violated" in out


def test_progressive_bad_time_rejected(tmp_path, capsys):
    doc = b2_scenario({"kind": "progressive", "times": ["inf", -2, "inf", 1]})
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "enlargement.times[1]" in err


# Integer fields take a JSON integer or an integral JSON number, never a
# boolean or a non-finite number, in both modes alike.
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("value", [True, float("inf")], ids=["true", "Infinity"])
def test_progressive_time_must_be_an_integer(tmp_path, capsys, mode, value):
    doc = b2_scenario({"kind": "progressive", "times": ["inf", "inf", 1, value]})
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == 3 and "enlargement.times[3]" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_progressive_integral_float_time_reads_as_integer(tmp_path, capsys, mode):
    doc = b2_scenario({"kind": "progressive", "times": ["inf", "inf", 1, 1]})
    expected = run_cli(["analyze", write_doc(tmp_path, doc), "--mode", mode], capsys)[0]
    doc["enlargement"]["times"][3] = 1.0
    code, _, _ = run_cli(["analyze", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == expected == 0


# ---------------------------------------------------------------------------
# kernel


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_kernel_integral_float_dim_reads_as_integer(tmp_path, capsys, mode):
    path = SCENARIOS / "site_inaccessible.json"
    expected = run_cli(["kernel", str(path), "--mode", mode], capsys)[0]
    doc = json.loads(path.read_text())
    doc["dim"] = float(doc["dim"])
    code, _, err = run_cli(["kernel", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == expected == 0 and err == ""


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("dim", [True, 2.5, -1.0], ids=["true", "2.5", "-1.0"])
def test_kernel_dim_must_be_a_nonnegative_integer(tmp_path, capsys, mode, dim):
    doc = {"kind": "inaccessible", "dim": dim,
           "children": [{"q": 1, "w": [1], "nu": 0, "delta": 0}]}
    code, _, err = run_cli(["kernel", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == 3 and err.startswith("error: dim:")


def test_kernel_inaccessible_site_numbers(tmp_path, capsys):
    report = tmp_path / "out.json"
    code, out, _ = run_cli(["kernel", str(SCENARIOS / "site_inaccessible.json"),
                            "--report", str(report)], capsys)
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["solve"]["feasible"] is True
    assert doc["solve"]["xi"] == ["8/15", "-4/5"]
    assert doc["u"] == "1/2"
    assert doc["checks"]["energy"] == {"ok": True, "left": "48/125",
                                       "right": "112/125"}
    assert doc["checks"]["density"] is True and doc["checks"]["jump-bound"] is True


def test_kernel_insider_site_infeasible(tmp_path, capsys):
    report = tmp_path / "out.json"
    code, out, _ = run_cli(["kernel", str(SCENARIOS / "site_insider.json"),
                            "--report", str(report)], capsys)
    assert code == 4
    doc = json.loads(report.read_text())
    assert doc["solve"]["feasible"] is False
    assert doc["solve"]["residual"] == ["6/5"]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["site_inaccessible.json", "site_insider.json"])
def test_kernel_decides_coercivity_once(monkeypatch, capsys, name, mode):
    calls = []
    is_psd = linalg.is_psd

    def counted(A, arith):
        calls.append(A)
        return is_psd(A, arith)

    monkeypatch.setattr(linalg, "is_psd", counted)
    code, _, _ = run_cli(["kernel", str(SCENARIOS / name), "--mode", mode], capsys)
    assert code == (0 if name == "site_inaccessible.json" else 4)
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_kernel_site_out_of_float_range_exits_3(tmp_path, capsys, mode):
    # (delta + nu)^2 overflows a float in the energy bound; exact mode is fine.
    doc = json.loads((SCENARIOS / "site_inaccessible.json").read_text())
    doc["children"][1]["nu"] = 1e200
    report = tmp_path / "out.json"
    code, _, err = run_cli(["kernel", write_doc(tmp_path, doc), "--mode", mode,
                            "--report", str(report)], capsys)
    assert "Traceback" not in err
    if mode == "exact":
        assert code == 0 and err == ""
        assert json.loads(report.read_text())["checks"]["energy"]["ok"] is True
    else:
        assert code == 3 and err == "error: site is out of float range\n"
        assert not report.exists()


def _site_gram_overflows(doc):
    doc["children"][0]["w"] = [1e200, 0]


def _analyze_gram_overflows(doc):
    # The driver scaled by 2^520, which keeps every float mean exact, and the
    # unscaled driver as the carrier: the site Gram overflows to inf.
    doc["carrier"] = doc["driver"]
    doc["driver"] = [[x * 2.0 ** 520 for x in path] for path in doc["driver"]]
    doc["space"]["weights"] = ["3/16", "1/16"] * 4


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("command, source, spoil", [
    ("kernel", SCENARIOS / "site_inaccessible.json", _site_gram_overflows),
    ("analyze", SCENARIOS / "noisy_signal.json", _analyze_gram_overflows),
], ids=["kernel", "analyze"])
def test_site_gram_out_of_float_range_exits_3(tmp_path, capsys, mode,
                                              command, source, spoil):
    # Float mode used to read the inf Gram as a failed growth bound (exit 4).
    doc = json.loads(source.read_text())
    spoil(doc)
    report = tmp_path / "out.json"
    code, _, err = run_cli([command, write_doc(tmp_path, doc), "--mode", mode,
                            "--report", str(report)], capsys)
    assert "Traceback" not in err
    if mode == "exact":
        assert code == 0 and err == ""
    else:
        assert code == 3 and err == "error: site is out of float range\n"
        assert not report.exists()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_gauge_drift_identity_mismatch_is_a_verification_mismatch(
        tmp_path, capsys, monkeypatch, mode):
    # Doubling the identity's right side makes the re-check in solve_phi fail.
    pred_bracket = enlarge.pred_bracket
    monkeypatch.setattr(enlarge, "pred_bracket",
                        lambda X, Y, F: pred_bracket(X, Y, F).scale(2))
    report = tmp_path / "out.json"
    code, _, err = run_cli(["analyze", str(SCENARIOS / "noisy_signal.json"),
                            "--mode", mode, "--report", str(report)], capsys)
    assert code == 4 and err == ""
    doc = json.loads(report.read_text())
    witness = doc["witness"]
    assert doc["verdict"] == "non-viable"
    assert witness["reason"] == "verification-mismatch"
    assert witness["t"] == 1 and witness["atom"] == ["uu0", "ud0"]
    a, b = witness["detail"]
    assert a != b and a != 0
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["gauge-solve"]["passed"] is False
    assert checks["gauge-solve"]["witness"]["reason"] == "verification-mismatch"
    assert checks["support-condition"]["passed"] is None


# ---------------------------------------------------------------------------
# analyze: the check row where each stage stops

CHECK_NAMES = (
    "base-structure-solve", "base-deflator-battery", "gauge-solve",
    "support-condition", "tilt-floor-positive", "site-solves-feasible",
    "jump-bound", "price-drift-identity", "expanded-deflator-battery",
)

# A one-step trinomial with a revealed bit.  The carrier (jumps 1, -5, 4
# against the driver's 1, 0, -1) carries the bit's drift with phi = -+3/10,
# and every child stays possible under each bit, but on the bit-0 atom the
# tilt of child c is 1 - 3/10 * 4 = -1/5: the support condition holds and
# the tilt floor fails.
NEGATIVE_TILT = {
    "name": "negative-tilt",
    "space": {"outcomes": ["a0", "a1", "b0", "b1", "c0", "c1"],
              "weights": ["1/4", "1/12", "3/20", "11/60", "1/10", "7/30"]},
    "driver": [[0, 1], [0, 1], [0, 0], [0, 0], [0, -1], [0, -1]],
    "carrier": [[0, 1], [0, 1], [0, -5], [0, -5], [0, 4], [0, 4]],
    "prices": [[1, "11/10"], [1, "11/10"], [1, 1], [1, 1],
               [1, "9/10"], [1, "9/10"]],
    "enlargement": {"kind": "initial", "variable": [0, 1, 0, 1, 0, 1]},
}


def _double_the_deflator(module, monkeypatch):
    """Make ``module``'s call of the deflator battery see twice the deflator."""
    battery = viability.verify_deflator
    monkeypatch.setattr(module, "verify_deflator",
                        lambda deflator, market, flow: battery(deflator.scale(2),
                                                               market, flow))


def _patch_site_solve(monkeypatch, change):
    """Pass every jump-site solve of the expanded pipeline through ``change``."""
    solve_site = viability.solve_site
    monkeypatch.setattr(viability, "solve_site", lambda site: change(solve_site(site)))


def _fail_coercivity(solve):
    raise CoercivityFailure("forced coercivity failure")


def _spoil_first_jump_row(solve):
    return replace(solve, rows=(replace(solve.rows[0], ok=False), *solve.rows[1:]))


def _double_the_price_drift_rhs(monkeypatch):
    price_drift_rhs = viability.price_drift_rhs
    monkeypatch.setattr(viability, "price_drift_rhs",
                        lambda market, D, gauge: price_drift_rhs(market, D, gauge).scale(2))


# check row -> (input document, patch applied before the run, exit code)
STAGE_CASES = {
    "base-deflator-battery": (
        "noisy_signal", lambda mp: _double_the_deflator(cli, mp), 4),
    "support-condition": ("perfect_insider", None, 5),
    "tilt-floor-positive": (NEGATIVE_TILT, None, 5),
    "site-solves-feasible/infeasible": (
        "noisy_signal",
        lambda mp: _patch_site_solve(mp, lambda s: replace(s, feasible=False)), 4),
    "site-solves-feasible/coercivity": (
        "noisy_signal", lambda mp: _patch_site_solve(mp, _fail_coercivity), 4),
    "jump-bound/site-row": (
        "noisy_signal", lambda mp: _patch_site_solve(mp, _spoil_first_jump_row), 4),
    # K ten times too large: every site row still passes, but the jump of Y
    # on the up-signal atom is 10 * 5/4 * 2/5 = 5.
    "jump-bound/Y": (
        "noisy_signal",
        lambda mp: _patch_site_solve(
            mp, lambda s: replace(s, solution=tuple(10 * x for x in s.solution))), 4),
    "price-drift-identity": ("noisy_signal", _double_the_price_drift_rhs, 4),
    "expanded-deflator-battery": (
        "noisy_signal", lambda mp: _double_the_deflator(viability, mp), 4),
}


def _expected_rows(stage):
    stop = CHECK_NAMES.index(stage)
    return [(name, True if i < stop else False if i == stop else None, i != stop)
            for i, name in enumerate(CHECK_NAMES)]


def _run_stage_case(case, mode, tmp_path, capsys, monkeypatch, report=None):
    source, patch, _ = STAGE_CASES[case]
    doc = json.loads((SCENARIOS / f"{source}.json").read_text()) \
        if isinstance(source, str) else source
    if patch is not None:
        patch(monkeypatch)
    argv = ["analyze", write_doc(tmp_path, doc), "--mode", mode]
    return run_cli(argv + (["--report", str(report)] if report else []), capsys)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("case", STAGE_CASES)
def test_a_failing_stage_fails_its_own_check_row(tmp_path, capsys, monkeypatch,
                                                 case, mode):
    expected_code = STAGE_CASES[case][2]
    report = tmp_path / "out.json"
    code, _, err = _run_stage_case(case, mode, tmp_path, capsys, monkeypatch, report)
    assert code == expected_code and err == ""
    out = json.loads(report.read_text())
    stage = case.split("/")[0]
    expected = _expected_rows(stage)
    if stage == "support-condition":
        # The insider's tilt floor is 0, and the row shows the gauge's flag.
        expected[4] = ("tilt-floor-positive", False, True)
    assert [(c["name"], c["passed"], c["witness"] is None)
            for c in out["checks"]] == expected
    # The row holds the verdict's witness.  A row formats t through the
    # arithmetic (a string in exact mode), so t is left out of the match.
    row_witness = out["checks"][CHECK_NAMES.index(stage)]["witness"]
    assert (row_witness["reason"], row_witness["atom"], row_witness["detail"]) \
        == (out["witness"]["reason"], out["witness"]["atom"], out["witness"]["detail"])


# Every failing return of solve_structure_G: the gate (support, tilt floor),
# the sites (coercivity, infeasible, a jump row), the jump of Y, the price
# drift identity and the expanded battery.
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("case", [c for c in STAGE_CASES if c != "base-deflator-battery"])
def test_every_failing_verdict_of_solve_structure_G_names_its_check_row(
        tmp_path, capsys, monkeypatch, case, mode):
    verdicts = []
    solve_structure_G = cli.solve_structure_G
    monkeypatch.setattr(cli, "solve_structure_G",
                        lambda *args: verdicts.append(solve_structure_G(*args))
                        or verdicts[-1])
    _run_stage_case(case, mode, tmp_path, capsys, monkeypatch)
    (verdict,) = verdicts
    assert verdict.status != viability.VIABLE
    assert verdict.stage in cli._CHECK_NAMES and verdict.stage == case.split("/")[0]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("bad", ["abc", "1/0", True, None, {"x": 1}])
def test_repeated_bad_token_names_its_first_path(tmp_path, capsys, mode, bad):
    doc = b2_scenario({"kind": "none"})
    for i, t in ((2, 1), (1, 2), (3, 2)):
        doc["prices"][i][t] = bad
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == 3 and err.startswith("error: prices[1][2]: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", [-1e300, ["one-step"], {"name": "one-step"}],
                         ids=["number", "list", "object"])
def test_scenario_name_must_be_a_string(tmp_path, capsys, mode, name):
    # In exact mode a decimal name parses to a Fraction, which JSON cannot hold.
    doc = json.loads((SCENARIOS / "one_step.json").read_text())
    doc["name"] = name
    report = tmp_path / "out.json"
    code, out, err = run_cli(["analyze", write_doc(tmp_path, doc), "--mode", mode,
                              "--report", str(report)], capsys)
    assert code == 3 and out == "" and err == "error: name: expected a string\n"
    assert not report.exists()


def test_float_loader_keeps_signed_zeros():
    doc = json.loads((SCENARIOS / "noisy_signal.json").read_text())
    doc["carrier"] = doc["driver"]
    zeros = [0, 0.0, -0.0, 0, -0.0, 0.0, "0", "-0"]
    for path, zero in zip(doc["carrier"], zeros):
        path[0] = zero
    built = load_scenario(parse_document(json.dumps(doc), FLOAT), FLOAT)
    got = [repr(built.carrier.at(o, 0)[0]) for o in built.space.outcomes]
    assert got == ["0.0", "0.0", "-0.0", "0.0", "-0.0", "0.0", "0.0", "0.0"]


def test_kernel_float_mode(capsys):
    code, out, _ = run_cli(["kernel", str(SCENARIOS / "site_inaccessible.json"),
                            "--mode", "float"], capsys)
    assert code == 0 and "mode: float" in out


def test_kernel_invalid_site_exits_3(tmp_path, capsys):
    doc = {"kind": "accessible", "dim": 1,
           "children": [{"p": "1/2", "w": [1], "nu": 0, "delta": 1},
                        {"p": "1/2", "w": [-1], "nu": 0, "delta": 0}]}
    code, _, err = run_cli(["kernel", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "delta" in err

    doc = {"kind": "accessible", "dim": 1,
           "children": [{"p": "1/2", "q": "1/2", "w": [1], "nu": 0, "delta": 0}]}
    code, _, err = run_cli(["kernel", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "children[0]" in err

    doc = {"kind": "sideways", "dim": 1,
           "children": [{"p": 1, "w": [0], "nu": 0, "delta": 0}]}
    code, _, err = run_cli(["kernel", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "kind" in err


def test_kernel_missing_child_field_names_path(tmp_path, capsys):
    doc = {"kind": "inaccessible", "dim": 2,
           "children": [{"q": 1, "w": [1, 0], "delta": 0}]}
    code, _, err = run_cli(["kernel", write_doc(tmp_path, doc)], capsys)
    assert code == 3 and "children[0].nu" in err


def _nested_signal_value(doc):
    doc["enlargement"]["variable"][0] = [1, 2]


def _short_explicit_flow(doc):
    doc["enlargement"]["flow"].pop()


def _bad_q(doc):
    doc["children"][0]["q"] = "abc"


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("command, source, spoil, where", [
    ("analyze", SCENARIOS / "noisy_signal.json", _nested_signal_value,
     "enlargement.variable[0]"),
    ("analyze", GOLDEN / "explicit_noisy_second_coin.json", _short_explicit_flow,
     "enlargement.flow"),
    ("kernel", SCENARIOS / "site_inaccessible.json", _bad_q, "children[0].q"),
], ids=["nested-signal-value", "short-explicit-flow", "bad-q"])
def test_malformed_input_exits_3_and_names_the_field(tmp_path, capsys, mode,
                                                     command, source, spoil, where):
    doc = json.loads(source.read_text())
    spoil(doc)
    code, _, err = run_cli([command, write_doc(tmp_path, doc), "--mode", mode], capsys)
    assert code == 3
    assert err.startswith(f"error: {where}: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes_exact(tmp_path, capsys):
    report = tmp_path / "out.json"
    code, out, _ = run_cli(["selftest", "--report", str(report)], capsys)
    assert code == 0
    assert "all passed" in out
    doc = json.loads(report.read_text())
    assert doc["all_passed"] is True
    names = {row["name"] for row in doc["results"]}
    assert "invalid-site-rejection" in names and "random-site-battery" in names


def test_selftest_passes_float(capsys):
    code, out, _ = run_cli(["selftest", "--mode", "float"], capsys)
    assert code == 0 and "float mode" in out


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_selftest_passes_outside_the_checkout(tmp_path, monkeypatch, capsys, mode):
    # The fixtures are package data, found from the module, not the cwd.
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["selftest", "--mode", mode], capsys)
    assert code == 0 and "all passed" in out


def test_bad_mode_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("FORGE_MODE", "quantum")
    code, _, err = run_cli(["selftest"], capsys)
    assert code == 2 and "quantum" in err and "FORGE_MODE" in err
