"""Benchmark for marketforge, driven from outside through ``marketforge.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The engine is imported from ``src/`` of
that checkout; nothing needs building.  The load is closed-loop: one client
in one process makes sequential CLI calls, ``--parallel`` stays at 1, and
each workload runs in its own interpreter, so memory and import cost belong
to it.

Workloads (why each exists is in BENCHMARK.json and LAYERS.md):

  noisy-tree-exact  ``analyze --mode exact`` on the noisy coin tree, T = 8
  site-battery      ``kernel`` on 1000 seeded sites, each in exact then float
  noisy-tree-float  ``analyze --mode float`` on the noisy coin tree, T = 10;
                    runnable, but not in BENCHMARK.json (see LAYERS.md)

Timing starts after a warm-up (one tree call, or the first 50 sites), and a
run then repeats operations until one more would end after ``--seconds``;
the battery always completes at least one full pass.

Every call passes a gate: expected exit code, the verdict its report states,
and a report byte-identical to the one the same input gave earlier in the
run.  Tree reports must also carry the exact-mode reference values in
``expected.json`` (exactly in exact mode, within tolerance in float mode).
A call that misses the gate or raises counts as failed, by reason, and the
run goes on.  ``attempted`` and ``failed`` count operations (one input in
one mode), not calls, so they repeat exactly for a seed.  ``correct`` is
false when an exact-mode call or a tree call fails.  Float-mode site calls
are checked against the same expected verdict as their exact twin, so a
failure there is an exact/float disagreement; those are counted in
``failed`` without making the run incorrect.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics, and writes
the spans to ``.bench_out/`` when the run ends.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

TREES = {"noisy-tree-exact": (8, "exact"), "noisy-tree-float": (10, "float")}
BATTERY = "site-battery"
BATTERY_SITES = 1000
TRACE_SITES = 200  # sites (each in both modes) per traced battery pass
WARM_UP_SITES = 50
SETUP_LAUNCHES = 15
MODULES = ("init", "arith", "calculus", "cli", "enlarge", "fixtures", "jumpkernel",
           "linalg", "mrp", "report", "scenario", "selftest", "space", "viability")


def load_engine():
    """Import marketforge.cli from this checkout's src/, or exit nonzero."""
    if not (SRC / "marketforge" / "cli.py").is_file():
        sys.exit(f"error: no engine at {SRC / 'marketforge'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import marketforge.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "marketforge":
        sys.exit(f"error: imported marketforge from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import marketforge.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import marketforge.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Ledger:
    """Operations and their failures, and the latency of every call.

    An operation is one input in one mode, identified by ``key``.  A run
    repeats operations as time allows; each call is gated, and an operation
    fails if any of its calls fails.  ``attempted`` and ``failed`` count
    operations, not calls, so they depend on the seed and not on how many
    repeats the machine's speed allowed.
    """

    def __init__(self):
        self.outcome: dict = {}  # key -> None, or the first failing call's reason
        self.correct = True
        self.latencies: list[float] = []
        self.passed_time = 0.0
        self.passed = 0
        self.reports: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def failed(self) -> int:
        return sum(reason is not None for reason in self.outcome.values())

    @property
    def reasons(self) -> Counter:
        return Counter(r for r in self.outcome.values() if r is not None)

    def restart_clock(self) -> None:
        """Forget the timings of warm-up calls; their gate results stay."""
        self.latencies.clear()
        self.passed_time = 0.0
        self.passed = 0

    def call(self, cli, argv, report: Path, key, expected_exit: int, judge,
             reference: bool, label: str) -> float:
        """Run one CLI call in-process and gate it; returns its wall time."""
        with contextlib.suppress(FileNotFoundError):
            report.unlink()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the engine must never raise; count it
                code = type(exc).__name__
            dt = time.perf_counter() - t0
        reason = self._gate(code, report, key, expected_exit, judge)
        self.latencies.append(dt)
        if reason is None:
            self.passed += 1
            self.passed_time += dt
            self.outcome.setdefault(key, None)
        else:
            if self.outcome.get(key) is None:
                self.outcome[key] = f"{label}:{reason}"
            if reference:
                self.correct = False
        return dt

    def _gate(self, code, report: Path, key, expected_exit, judge):
        if not isinstance(code, int):
            return f"raised-{code}"
        if code != expected_exit:
            return f"exit-{code}"
        try:
            data = report.read_bytes()
        except FileNotFoundError:
            return "no-report"
        first = self.reports.setdefault(key, data)
        if data != first:
            return "report-bytes-differ"
        try:
            return None if judge(json.loads(data)) else "wrong-verdict"
        except (ValueError, KeyError, TypeError, AttributeError):
            return "unreadable-report"


def matches(got, want, exact: bool) -> bool:
    """Report values against exact-mode reference values: equal strings in
    exact mode, within 1e-9 relative (the float default tolerance) in float."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k], exact) for k in want))
    if isinstance(want, str) and not exact:
        ref = float(Fraction(want))
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - ref) <= 1e-9 * max(1.0, abs(ref)))
    return got == want


def tree_judge(horizon: int, mode: str):
    """Viable, every check passed, and the gauge and solution summaries of
    the exact-mode reference (``expected.json``, independent of the seed)."""
    want = json.loads((HERE / "expected.json").read_text())[f"T{horizon}"]

    def judge(doc) -> bool:
        return (doc["verdict"] == want["verdict"]
                and all(c["passed"] for c in doc["checks"])
                and matches({k: doc[k] for k in ("gauge", "solution")},
                            {k: want[k] for k in ("gauge", "solution")},
                            mode == "exact"))
    return judge


def site_verdict(doc) -> str:
    """'pass' when the solve is feasible and every check holds, else why not."""
    if doc.get("error") is not None:
        return "error"
    if not doc["solve"]["feasible"]:
        return "infeasible"
    for name, value in doc["checks"].items():
        ok = value.get("ok") if isinstance(value, dict) else value
        if ok is False:
            return "check-failed"
    return "pass"


SITE_VERDICT = {gen.EXIT_OK: "pass", gen.EXIT_NON_VIABLE: "infeasible"}


class Workload:
    """Inputs written to a work directory, and one operation over them."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.report = work / "report.json"
        if name in TREES:
            horizon, self.mode = TREES[name]
            self.judge = tree_judge(horizon, self.mode)
            self.path = work / "tree.json"
            self.path.write_text(json.dumps(gen.noisy_tree(horizon, seed)))
        else:
            self.sites = []
            for i, (doc, expected) in enumerate(gen.site_battery(seed, BATTERY_SITES)):
                path = work / f"site{i}.json"
                path.write_text(json.dumps(doc))
                self.sites.append((str(path), expected))

    def analyze(self, cli, ledger: Ledger) -> float:
        gc.collect()  # every call starts from the same collector state
        return ledger.call(cli, ["analyze", str(self.path), "--mode", self.mode,
                                 "--report", str(self.report)],
                           self.report, "tree", gen.EXIT_OK, self.judge,
                           True, self.mode)

    def site(self, cli, ledger: Ledger, i: int) -> float:
        """Site i in exact mode, then in float mode against the same verdict."""
        path, expected = self.sites[i]
        want = SITE_VERDICT[expected]
        total = 0.0
        for mode in ("exact", "float"):
            total += ledger.call(cli, ["kernel", path, "--mode", mode,
                                       "--report", str(self.report)],
                                 self.report, (i, mode), expected,
                                 lambda doc: site_verdict(doc) == want,
                                 mode == "exact", mode)
        return total


def until_deadline(seconds: float, step, at_least: int = 1) -> None:
    """Call ``step(i)`` for i = 0, 1, ... while one more step, as long as
    the last one, still ends within ``seconds``; at least ``at_least`` times."""
    t0 = time.perf_counter()
    i = 0
    while True:
        start = time.perf_counter()
        step(i)
        i += 1
        now = time.perf_counter()
        if i >= at_least and now - t0 + (now - start) > seconds:
            return


def warm_up(cli, wl: Workload, ledger: Ledger) -> None:
    """Untimed but gated calls, so lazy set-up and caches are done before timing."""
    if wl.name in TREES:
        wl.analyze(cli, ledger)
    else:
        for i in range(WARM_UP_SITES):
            wl.site(cli, ledger, i)
    ledger.restart_clock()


def run_plain(cli, wl: Workload, seconds: float, ledger: Ledger) -> None:
    """Closed loop of operations for ``seconds``, after a warm-up.  The
    battery makes at least one full pass, so every site is gated."""
    warm_up(cli, wl, ledger)
    if wl.name in TREES:
        until_deadline(seconds, lambda i: wl.analyze(cli, ledger))
    else:
        until_deadline(seconds, lambda i: wl.site(cli, ledger, i % len(wl.sites)),
                       at_least=len(wl.sites))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(ledger: Ledger, setup_s: float) -> dict:
    ms = [x * 1000 for x in ledger.latencies]
    return {
        "call_p50_ms": (statistics.median(ms), "ms"),
        "call_p99_ms": (quantile(ms, 0.99), "ms"),
        "calls_per_s": (ledger.passed / ledger.passed_time
                        if ledger.passed_time else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


# ---------------------------------------------------------------------------
# traced run

# per-layer time metrics: name -> span names whose outermost time is summed
STAGE_TIMES = {
    "scenario.parse_s": ["scenario.parse_document"],
    "scenario.load_s": ["scenario.load_scenario", "scenario.load_site"],
    "viability.base_solve_s": ["viability.solve_structure_F"],
    "viability.deflator_battery_s": ["viability.verify_deflator"],
    "viability.expanded_solve_s": ["viability.solve_structure_G"],
    "viability.price_drift_rhs_s": ["viability.price_drift_rhs"],
    "enlarge.solve_phi_s": ["enlarge.solve_phi"],
    "enlarge.drift_s": ["enlarge.drift"],
    "enlarge.support_s": ["enlarge.check_support_condition"],
    "enlarge.compute_u_s": ["enlarge.compute_u"],
    "jumpkernel.site_solve_s": ["jumpkernel.xi_accessible", "jumpkernel.xi_inaccessible"],
    "jumpkernel.checks_s": ["jumpkernel.check_jump_bound", "jumpkernel.check_coercivity",
                            "jumpkernel.energy_bound", "jumpkernel.verify_density"],
    "space.cond_exp_s": ["space.cond_exp"],
    "space.is_adapted_s": ["space.is_adapted"],
}
SELF_TIMES = ("mrp", "viability", "linalg", "calculus", "cli")
CALL_COUNTS = {
    "enlarge.drift_calls": ["enlarge.drift"],
    "enlarge.support_calls": ["enlarge.check_support_condition"],
    "jumpkernel.sites": ["jumpkernel.xi_accessible", "jumpkernel.xi_inaccessible"],
    "jumpkernel.restricted_inverse_calls": ["jumpkernel.restricted_inverse"],
    "linalg.rref_calls": ["linalg.rref"],
    "linalg.lstsq_calls": ["linalg.lstsq_min_norm"],
    "calculus.compensator_calls": ["calculus.compensator"],
    "calculus.bracket_calls": ["calculus.bracket"],
    "calculus.is_martingale_calls": ["calculus.is_martingale"],
    "space.cond_exp_calls": ["space.cond_exp"],
    "space.is_adapted_calls": ["space.is_adapted"],
    "space.children_of_calls": ["space.Partition.children_of"],
}


def layer_metrics(tracer: spans.Tracer, lo: int, hi: int) -> tuple[dict, dict]:
    """(times, counts) of one traced operation, from spans [lo, hi)."""
    s = spans.summarize(tracer, lo, hi)
    times = {name: sum(s["incl"][n] for n in parts) for name, parts in STAGE_TIMES.items()}
    for layer in SELF_TIMES:
        times[f"{layer}.self_s"] = spans.layer_self(s, layer)
    times["report.render_s"] = spans.outermost(tracer, lo, hi, "report")
    counts = {name: sum(s["calls"][n] for n in parts) for name, parts in CALL_COUNTS.items()}
    return times, counts


def size_counts(tracer: spans.Tracer) -> dict:
    """Size counts of the traced scenario, arith.max_bits and source lines."""
    out = {"space.outcomes": 0, "space.cells": 0, "space.f_atom_cells": 0,
           "space.g_atom_cells": 0, "arith.max_bits": 0}
    built = tracer.results.get("scenario.load_scenario")
    if built:
        b = built[0]
        horizon = b.F.horizon
        out["space.outcomes"] = len(b.space.outcomes)
        out["space.cells"] = len(b.space.outcomes) * (horizon + 1)
        out["space.f_atom_cells"] = sum(len(b.F.at(t).atoms) for t in range(horizon + 1))
        out["space.g_atom_cells"] = sum(len(b.pair.expanded.at(t).atoms)
                                        for t in range(horizon + 1))
    for verdict in tracer.results.get("viability.solve_structure_G", ()):
        D = verdict.solution.deflator if verdict.solution else None
        if D is None or not D.space.arith.exact:
            continue
        for o in D.space.outcomes:
            for t in range(D.horizon + 1):
                v = D.value(o, t)
                out["arith.max_bits"] = max(out["arith.max_bits"], v.numerator.bit_length(),
                                            v.denominator.bit_length())
    total = 0
    for module in MODULES:
        path = SRC / "marketforge" / f"{'__init__' if module == 'init' else module}.py"
        lines = len(path.read_text().splitlines()) if path.is_file() else 0
        out[f"{module}.lines"] = lines
        total += lines
    out["src.lines"] = total
    return out


def run_traced(cli, wl: Workload, seconds: float, ledger: Ledger, seed: int) -> dict:
    """Alternate untraced and traced operations until ``seconds`` have passed.

    For the battery one operation is a pass over the first TRACE_SITES
    sites.  Times are medians over the traced operations; counts must repeat
    exactly between them, or the run is marked incorrect.
    """
    if wl.name in TREES:
        def op():
            return wl.analyze(cli, ledger)
    else:
        def op():
            return sum(wl.site(cli, ledger, i) for i in range(TRACE_SITES))
    tracer = spans.Tracer()
    plain, traced, times, counts = [], [], [], []

    def pair(_):
        plain.append(op())
        lo = tracer.mark()
        with tracer:
            traced.append(op())
        t, c = layer_metrics(tracer, lo, tracer.mark())
        times.append(t)
        counts.append(c)

    until_deadline(seconds, pair)
    if any(c != counts[0] for c in counts):
        print(f"error: call counts differ between traced operations: {counts}",
              file=sys.stderr)
        ledger.correct = False
    metrics = {name: (statistics.median(t[name] for t in times), "s") for name in times[0]}
    metrics.update({name: (value, "count") for name, value in counts[0].items()})
    sites = counts[0]["jumpkernel.sites"]
    metrics["linalg.rref_per_site"] = (counts[0]["linalg.rref_calls"] / sites
                                       if sites else 0.0, "ratio")
    for name, value in size_counts(tracer).items():
        unit = "bits" if name == "arith.max_bits" else (
            "lines" if name.endswith(".lines") else "count")
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{wl.name}-seed{seed}.json")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*TREES, BATTERY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_engine()
    setup_s = measure_setup() if not args.trace else None
    ledger = Ledger()
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        wl = Workload(args.workload, args.seed, work)
        gc.collect()
        gc.freeze()  # the engine and the inputs are not garbage; stop rescanning them
        if args.trace:
            metrics = run_traced(cli, wl, args.seconds, ledger, args.seed)
        else:
            run_plain(cli, wl, args.seconds, ledger)
            metrics = end_to_end(ledger, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {ledger.attempted} operations "
          f"in {len(ledger.latencies)} timed calls, {ledger.failed} failed "
          f"(error_rate {ledger.failed / ledger.attempted:.4f})")
    if ledger.reasons:
        print("failures by mode and reason: " + json.dumps(dict(sorted(ledger.reasons.items()))))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
