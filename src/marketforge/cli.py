"""Command-line front end.

Subcommands:

  analyze SCENARIO   run the full viability pipeline on a scenario file and
                     report it as nine check rows; the verdict names the
                     row where it stopped
  kernel SITE        solve one jump site in one pass (coercivity at the
                     tilt floor, minimum-norm solve, jump rows), then
                     apply the kernel's pass rule
  selftest           run the built-in verification battery

Pass "-" as the file to read from standard input.  Arithmetic mode is
resolved in precedence order: FORGE_MODE environment variable, then
--mode, then the document's own "mode" field, then exact; --tolerance
likewise falls back to the document's "tolerance" field.  Either field,
when present, must be valid even where a flag overrides it: a bad one exits
2 as "error: mode: ..." or "error: tolerance: ...", and an unknown
FORGE_MODE as "error: FORGE_MODE: ...".  Human-readable
output goes to stdout; --report PATH additionally writes a deterministic
JSON report (no timings, stable key order) that is byte-identical
across runs.

Exit codes: 0 viable / all checks pass, 1 selftest failure, 2 unreadable
input, 3 invalid model data, 4 non-viable, 5 assumption violated.  Two
exit-3 messages name no field: "site is out of float range" and, for a
float conditional mean of inf and -inf, "scenario is out of float range".
A failing check row holds one
``FailureWitness``; a failure found inside a solve reaches ``analyze`` as
one ``CheckFailed``, whose status picks the exit code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import report
from .arith import EXACT_MODE, FLOAT_MODE, Arithmetic
from .enlarge import solve_phi
from .jumpkernel import CoercivityFailure, NegativeTilt, site_checks, solve_site
from .scenario import BuiltScenario, ScenarioError, document_arith, load_scenario, load_site
from .scenario import parse_document
from .space import first_mismatch
from .viability import (
    ASSUMPTION_VIOLATED,
    NON_VIABLE,
    VIABLE,
    CheckFailed,
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


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _forced_mode(args) -> str | None:
    """The mode FORGE_MODE, else --mode, fixes, or None when neither does."""
    env = os.environ.get("FORGE_MODE")
    if env and env not in (EXACT_MODE, FLOAT_MODE):
        raise ValueError(f"FORGE_MODE: unknown mode {env!r} (use exact or float)")
    return env or args.mode


def _resolve_arith(args, doc=None) -> Arithmetic:
    """Precedence: FORGE_MODE env, then --mode, then the parsed document,
    then exact; the document's own mode and tolerance are checked by the
    loader whenever present."""
    return document_arith(doc, _forced_mode(args), args.tolerance)


def _load(args, loader):
    """Read, parse and load the input file with ``loader(doc, arith)``.

    The text is parsed once, its decimals kept exactly; the loader reads
    each number in the mode FORGE_MODE, --mode or the document's own
    "mode" picks.  Returns (arith, loaded, t0), t0 taken just before
    parsing, or the exit code
    after printing the error: 2 for an unreadable file (missing, or not
    UTF-8), an unknown mode, a bad mode or tolerance field or bad JSON, 3
    for invalid model data.
    """
    try:
        text = _read_text(args.file)
    except OSError as err:
        return _fail(str(err), EXIT_PARSE)
    except UnicodeDecodeError as err:
        return _fail(f"{args.file}: not UTF-8 text ({err.reason} at byte {err.start})",
                     EXIT_PARSE)
    try:
        mode = _forced_mode(args)
    except ValueError as err:
        return _fail(str(err), EXIT_PARSE)
    t0 = time.perf_counter()
    try:
        doc = parse_document(text)
        arith = document_arith(doc, mode, args.tolerance)
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


def _run_pipeline(built: BuiltScenario):
    """Returns (verdict, gauge); the gauge is None when the pipeline stops
    before it is solved.  A failure found inside a solve arrives here as
    one CheckFailed.  Raises ScenarioError when a given structure process
    disagrees with the solved one."""
    try:
        base = solve_structure_F(built.market, built.driver)
        if built.structure is not None:
            miss = first_mismatch(built.structure, base.martingale)
            if miss is not None:
                raise ScenarioError(
                    "structure",
                    f"given structure process disagrees with the solved "
                    f"one at ({miss[0]}, t={miss[1]})")
        witness = verify_deflator(base.deflator, built.market, built.F)
        if witness is not None:
            return Verdict(NON_VIABLE, witness, stage="base-deflator-battery"), None
        gauge = solve_phi(built.pair, built.carrier, built.driver.W)
    except CheckFailed as err:
        return Verdict(err.status, err.witness, stage=err.stage), None
    return solve_structure_G(built.market, gauge, base), gauge


def _check_rows(verdict: Verdict, gauge):
    """One (name, passed, witness) row per named check: the rows before the
    verdict's stage pass, that row fails with the verdict's witness, and the
    later rows are skipped, except that the support and tilt-floor rows show
    the gauge's flags whenever a gauge was solved."""
    stop = _CHECK_NAMES.index(verdict.stage) if verdict.stage else len(_CHECK_NAMES)
    flags = {} if gauge is None else {"support-condition": gauge.support_ok,
                                      "tilt-floor-positive": gauge.u_positive}
    return [(name, True, None) if i < stop else
            (name, False, verdict.witness) if i == stop else
            (name, flags.get(name), None)
            for i, name in enumerate(_CHECK_NAMES)]


def cmd_analyze(args) -> int:
    loaded = _load(args, load_scenario)
    if isinstance(loaded, int):
        return loaded
    arith, built, t0 = loaded
    t1 = time.perf_counter()
    try:
        verdict, gauge = _run_pipeline(built)
    except (ScenarioError, OverflowError) as err:  # a site or a mean out of float range
        return _fail(str(err), EXIT_INVALID)
    t2 = time.perf_counter()

    doc_out = report.analyze_report(built.name, arith, verdict, gauge,
                                    _check_rows(verdict, gauge))
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
        t1 = time.perf_counter()
        passed, checks = site_checks(site, solve)
    except (NegativeTilt, CoercivityFailure) as err:
        doc_out = report.site_report(arith, site, error=str(err))
        _write_report(args, doc_out)
        sys.stdout.write(report.render_site_text(doc_out))
        return EXIT_INVALID if isinstance(err, NegativeTilt) else EXIT_NON_VIABLE
    except OverflowError:
        return _fail("site is out of float range", EXIT_INVALID)
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
    from .selftest import run_selftest  # its battery and fixtures load for selftest alone

    rows = run_selftest(arith)
    doc_out = report.selftest_report(arith, rows)
    _write_report(args, doc_out)
    sys.stdout.write(report.render_selftest_text(doc_out))
    return EXIT_OK if doc_out["all_passed"] else EXIT_SELFTEST


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one in the process (parsing leaves it unchanged)."""
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
