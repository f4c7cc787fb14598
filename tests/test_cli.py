"""Command-line behavior: exit codes, messages, reports, mode resolution."""

import io
import json
import pathlib

import pytest

from marketforge.cli import main

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

    text = json.dumps({"mode": "float", "tolerance": 1e-6})
    args = argparse.Namespace(mode=None, tolerance=None)
    arith = _resolve_arith(args, text)
    assert arith.mode == "float" and arith.tolerance == 1e-6
    args = argparse.Namespace(mode=None, tolerance=1e-3)
    assert _resolve_arith(args, text).tolerance == 1e-3
    args = argparse.Namespace(mode="exact", tolerance=None)
    assert _resolve_arith(args, text).mode == "exact"


@pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), 0])
def test_tolerance_must_be_positive_and_finite(tmp_path, capsys, tolerance):
    # An infinite tolerance would call every pair of floats equal and turn
    # this non-viable market (exit 4) viable.
    doc = json.loads((GOLDEN / "trinomial_d2_jump_bound.json").read_text())
    doc["mode"], doc["tolerance"] = "float", tolerance
    code, _, err = run_cli(["analyze", write_doc(tmp_path, doc)], capsys)
    assert code == 2 and "tolerance" in err


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


def test_bad_mode_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("FORGE_MODE", "quantum")
    code, _, err = run_cli(["selftest"], capsys)
    assert code == 2 and "quantum" in err
