"""Command-line front end.

Subcommands:

  analyze SCENARIO   run the full viability pipeline on a scenario file
  kernel SITE        certify coercivity at the tilt floor, solve one jump
                     site by a minimum-norm solve, run its check battery
  selftest           run the built-in verification battery

Pass "-" as the file to read from standard input.  Arithmetic mode is
resolved in precedence order: FORGE_MODE environment variable, then
--mode, then the document's own "mode" field, then exact; --tolerance
likewise falls back to the document's "tolerance" field.  Human-readable
output goes to stdout; --report PATH additionally writes a deterministic
JSON report (no timings, stable key order) that is byte-identical
across runs.

Exit codes: 0 viable / all checks pass, 1 selftest failure, 2 unreadable
input, 3 invalid model data, 4 non-viable, 5 assumption violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import report
from .arith import DEFAULT_TOLERANCE, EXACT, Arithmetic
from .enlarge import Infeasible, solve_phi
from .jumpkernel import (
    CoercivityFailure,
    NegativeTilt,
    check_coercivity,
    check_jump_bound,
    energy_bound,
    solve_site,
    tilt_floor,
    verify_density,
)
from .scenario import BuiltScenario, ScenarioError, load_scenario, load_site, parse_document
from .selftest import run_selftest
from .space import first_mismatch
from .viability import (
    ASSUMPTION_VIOLATED,
    NON_VIABLE,
    VIABLE,
    FailureWitness,
    NonViable,
    Verdict,
    solve_structure_F,
    solve_structure_G,
    verify_deflator,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_NON_VIABLE = 4
EXIT_ASSUMPTION = 5

_VERDICT_EXIT = {
    VIABLE: EXIT_OK,
    NON_VIABLE: EXIT_NON_VIABLE,
    ASSUMPTION_VIOLATED: EXIT_ASSUMPTION,
}

_CHECK_NAMES = (
    "base-structure-solve",
    "base-deflator-battery",
    "gauge-solve",
    "support-condition",
    "tilt-floor-positive",
    "site-solves-feasible",
    "jump-bound",
    "price-drift-identity",
    "expanded-deflator-battery",
)

_SITE_STAGES = ("site-solves-feasible", "jump-bound", "price-drift-identity",
                "expanded-deflator-battery")

_REASON_STAGE = {
    "site-infeasible": "site-solves-feasible",
    "site-coercivity": "site-solves-feasible",
    "jump-bound": "jump-bound",
    "verification-mismatch": "price-drift-identity",
}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _resolve_arith(args, text: str | None = None) -> Arithmetic:
    """Precedence: FORGE_MODE env, then --mode, then the document, then exact."""
    mode = os.environ.get("FORGE_MODE") or args.mode
    tol = args.tolerance
    if text is not None and (mode is None or tol is None):
        try:
            probe = json.loads(text)
        except ValueError:
            probe = None
        if isinstance(probe, dict):
            if mode is None and isinstance(probe.get("mode"), str):
                mode = probe["mode"]
            raw = probe.get("tolerance")
            if tol is None and isinstance(raw, (int, float)) \
                    and not isinstance(raw, bool):
                tol = float(raw)
    mode = mode or "exact"
    if mode == "exact":
        return EXACT
    if mode == "float":
        return Arithmetic("float", tol if tol is not None else DEFAULT_TOLERANCE)
    raise ValueError(f"unknown mode {mode!r} (use exact or float)")


def _load(args, loader):
    """Read, parse and load the input file with ``loader(doc, arith)``.

    Returns (arith, loaded, t0), t0 taken just before parsing, or the exit
    code after printing the error: 2 for an unreadable file, an unknown mode
    or bad JSON, 3 for invalid model data.
    """
    try:
        text = _read_text(args.file)
    except OSError as err:
        return _fail(str(err), EXIT_PARSE)
    try:
        arith = _resolve_arith(args, text)
    except ValueError as err:
        return _fail(str(err), EXIT_PARSE)
    t0 = time.perf_counter()
    try:
        doc = parse_document(text, arith)
    except ValueError as err:
        return _fail(str(err), EXIT_PARSE)
    try:
        return arith, loader(doc, arith), t0
    except ScenarioError as err:
        return _fail(str(err), EXIT_INVALID)


def _write_report(args, doc) -> None:
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.render_json(doc))


# ---------------------------------------------------------------------------
# analyze


def _checked_base_solution(built: BuiltScenario):
    """Base-flow structure solve, cross-checked against an explicit one."""
    solution = solve_structure_F(built.market, built.driver)
    if built.structure is not None:
        miss = first_mismatch(built.structure, solution.martingale)
        if miss is not None:
            raise ScenarioError(
                "structure",
                f"given structure process disagrees with the solved "
                f"one at ({miss[0]}, t={miss[1]})")
    return solution


def _run_pipeline(built: BuiltScenario):
    """Returns (verdict, gauge, checks) with one row per named check."""
    checks = {name: (None, None) for name in _CHECK_NAMES}

    try:
        base = _checked_base_solution(built)
        checks["base-structure-solve"] = (True, None)
    except NonViable as err:
        checks["base-structure-solve"] = (False, err.witness)
        return Verdict(NON_VIABLE, err.witness, None), None, checks

    ok, witness = verify_deflator(base.deflator, built.market, built.F)
    checks["base-deflator-battery"] = (ok, witness)
    if not ok:
        return Verdict(NON_VIABLE, witness, None), None, checks

    try:
        gauge = solve_phi(built.pair, built.carrier, built.driver.W)
        checks["gauge-solve"] = (True, None)
    except Infeasible as err:
        checks["gauge-solve"] = (False, str(err))
        witness = FailureWitness("gauge-infeasible", detail=str(err))
        return Verdict(ASSUMPTION_VIOLATED, witness, None), None, checks

    checks["support-condition"] = (gauge.support_ok, None)
    checks["tilt-floor-positive"] = (gauge.u_positive, None)

    verdict = solve_structure_G(built.market, built.pair, gauge, built.driver,
                                base_solution=base)
    reason = verdict.witness.reason if verdict.witness else None
    if verdict.status == VIABLE:
        for name in _SITE_STAGES:
            checks[name] = (True, None)
    elif verdict.status == ASSUMPTION_VIOLATED:
        if reason == "support":
            checks["support-condition"] = (False, verdict.witness)
        elif reason == "tilt-floor":
            checks["tilt-floor-positive"] = (False, verdict.witness)
    else:
        stage = _REASON_STAGE.get(reason, "expanded-deflator-battery")
        for name in _SITE_STAGES:
            if name == stage:
                checks[name] = (False, verdict.witness)
                break
            checks[name] = (True, None)
    return verdict, gauge, checks


def cmd_analyze(args) -> int:
    loaded = _load(args, load_scenario)
    if isinstance(loaded, int):
        return loaded
    arith, built, t0 = loaded
    t1 = time.perf_counter()
    try:
        verdict, gauge, checks = _run_pipeline(built)
    except ScenarioError as err:
        return _fail(str(err), EXIT_INVALID)
    t2 = time.perf_counter()

    rows = [(name, checks[name][0], checks[name][1]) for name in _CHECK_NAMES]
    doc_out = report.analyze_report(built.name, arith, verdict, gauge, rows)
    _write_report(args, doc_out)
    timings = [("load", (t1 - t0) * 1000), ("solve", (t2 - t1) * 1000)]
    sys.stdout.write(report.render_analyze_text(doc_out, timings))
    return _VERDICT_EXIT[verdict.status]


# ---------------------------------------------------------------------------
# kernel


def cmd_kernel(args) -> int:
    loaded = _load(args, load_site)
    if isinstance(loaded, int):
        return loaded
    arith, site, t0 = loaded

    try:
        solve = solve_site(site)
    except (NegativeTilt, CoercivityFailure) as err:
        doc_out = report.site_report(arith, site, error=str(err))
        _write_report(args, doc_out)
        sys.stdout.write(report.render_site_text(doc_out))
        return EXIT_INVALID if isinstance(err, NegativeTilt) else EXIT_NON_VIABLE
    t1 = time.perf_counter()

    u = tilt_floor(site)
    checks = {"density": verify_density(site),
              "coercivity-at-floor": check_coercivity(site, u)}
    passed = solve.feasible and checks["density"] and checks["coercivity-at-floor"]
    if solve.feasible:
        bound_ok, bound_rows = check_jump_bound(site, solve.solution)
        checks["jump-bound"] = bound_ok
        checks["jumps"] = [report.fmt_value(r.jump, arith) for r in bound_rows]
        passed = passed and bound_ok
        if u > 0:
            energy_ok, left, right = energy_bound(site, solve.solution, u)
            checks["energy"] = {"ok": energy_ok,
                                "left": report.fmt_value(left, arith),
                                "right": report.fmt_value(right, arith)}
            passed = passed and energy_ok
    t2 = time.perf_counter()

    doc_out = report.site_report(arith, site, solve=solve, checks=checks)
    _write_report(args, doc_out)
    timings = [("solve", (t1 - t0) * 1000), ("checks", (t2 - t1) * 1000)]
    sys.stdout.write(report.render_site_text(doc_out, timings))
    return EXIT_OK if passed else EXIT_NON_VIABLE


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    try:
        arith = _resolve_arith(args)
    except ValueError as err:
        return _fail(str(err), EXIT_PARSE)
    rows = run_selftest(arith)
    doc_out = report.selftest_report(arith, rows)
    _write_report(args, doc_out)
    sys.stdout.write(report.render_selftest_text(doc_out))
    return EXIT_OK if doc_out["all_passed"] else EXIT_SELFTEST


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketforge",
        description="Viability analysis for finite markets under "
                    "information-flow expansion.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=("exact", "float"), default=None,
                        help="arithmetic backend (FORGE_MODE overrides this; "
                             "falls back to the document, then exact)")
    common.add_argument("--tolerance", type=float, default=None,
                        help="comparison tolerance for float mode "
                             "(falls back to the document)")
    common.add_argument("--report", metavar="PATH", default=None,
                        help="also write a deterministic JSON report")

    sub = parser.add_subparsers(dest="command", required=True)
    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="analyze a scenario file")
    p_analyze.add_argument("file", help="scenario JSON path, or - for stdin")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_kernel = sub.add_parser("kernel", parents=[common],
                              help="solve one jump-site file")
    p_kernel.add_argument("file", help="site JSON path, or - for stdin")
    p_kernel.set_defaults(fn=cmd_kernel)

    p_self = sub.add_parser("selftest", parents=[common],
                            help="run the built-in verification battery")
    p_self.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
