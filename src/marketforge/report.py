"""Report assembly and rendering.

Machine-readable reports are JSON with sorted keys and no volatile fields
(timings live only in the human text), so one scenario in one mode renders
byte-identically on every run.  Exact-mode numbers serialize as "p/q"
strings; float mode uses plain JSON numbers.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

from .arith import Arithmetic
from .jumpkernel import Site, tilt_floor
from .space import extrema
from .viability import FailureWitness, StructureSolution, Verdict


def fmt_value(v, arith: Arithmetic):
    """Recursive JSON-friendly conversion of engine values."""
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, (tuple, list)):
        return [fmt_value(x, arith) for x in v]
    if is_dataclass(v):
        return {f.name: fmt_value(getattr(v, f.name), arith) for f in fields(v)}
    if isinstance(v, dict):
        return {str(k): fmt_value(x, arith) for k, x in v.items()}
    try:
        return arith.fmt(v)
    except (TypeError, ValueError):
        return str(v)


def witness_dict(w: FailureWitness | None, arith: Arithmetic):
    if w is None:
        return None
    return {
        "reason": w.reason,
        "t": w.t,
        "atom": list(w.atom) if w.atom is not None else None,
        "detail": fmt_value(w.detail, arith),
    }


def _extrema(bounds, arith: Arithmetic):
    """The (least, greatest) pair of ``space.extrema``, or None, rendered."""
    lo, hi = bounds or (None, None)
    return {"min": fmt_value(lo, arith), "max": fmt_value(hi, arith)}


def gauge_summary(gauge, arith: Arithmetic):
    return {
        "phi": _extrema(extrema(gauge.phi, start=1), arith),
        "u": _extrema(extrema(gauge.u, start=1), arith),
        "support_ok": gauge.support_ok,
        "u_positive": gauge.u_positive,
    }


def solution_summary(solution: StructureSolution | None, arith: Arithmetic):
    if solution is None:
        return None
    return {
        "coefficients": _extrema(extrema(solution.driver_coefficients, start=1),
                                 arith),
        "jump": _extrema(extrema(solution.martingale.increments, start=1), arith),
        "deflator": _extrema(extrema(solution.deflator), arith),
        "jump_bound_ok": True,
    }


def analyze_report(name: str, arith: Arithmetic, verdict: Verdict,
                   gauge=None, checks=()):
    """Assemble the analyze-report dictionary (stable, serialization-ready)."""
    return {
        "scenario": name,
        "mode": arith.mode,
        "verdict": verdict.status,
        "witness": witness_dict(verdict.witness, arith),
        "gauge": gauge_summary(gauge, arith) if gauge is not None else None,
        "solution": solution_summary(verdict.solution, arith),
        "checks": [
            {"name": n, "passed": p, "witness": fmt_value(w, arith)}
            for n, p, w in checks
        ],
    }


def site_report(arith: Arithmetic, site: Site, solve=None, checks=None,
                error: str | None = None):
    kind = "accessible" if site.accessible else "inaccessible"
    out = {
        "kind": kind,
        "mode": arith.mode,
        "dim": site.dim,
        "u": fmt_value(tilt_floor(site), arith),
        "error": error,
        "solve": None,
        "checks": fmt_value(checks, arith),
    }
    if solve is not None:
        out["solve"] = {
            "xi": fmt_value(solve.solution, arith),
            "feasible": solve.feasible,
            "residual": fmt_value(solve.residual, arith),
            "coercivity": fmt_value(solve.coercivity, arith),
        }
    return out


def selftest_report(arith: Arithmetic, rows):
    return {
        "mode": arith.mode,
        "results": [{"name": n, "passed": ok, "note": note} for n, ok, note in rows],
        "all_passed": all(ok for _, ok, _ in rows),
    }


def render_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fmt_inline(v) -> str:
    if isinstance(v, dict):
        if set(v) == {"min", "max"}:
            if v["min"] is None:  # a process with no component has no values
                return "(empty)"
            return f"[{_fmt_inline(v['min'])}, {_fmt_inline(v['max'])}]"
        return ", ".join(f"{k}={_fmt_inline(x)}" for k, x in v.items())
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_inline(x) for x in v) + "]"
    return str(v)


def render_analyze_text(doc, timings=None) -> str:
    lines = [f"scenario: {doc['scenario']}", f"mode: {doc['mode']}",
             f"verdict: {doc['verdict']}"]
    if doc.get("witness"):
        lines.append(f"witness: {_fmt_inline(doc['witness'])}")
    if doc.get("gauge"):
        g = doc["gauge"]
        lines.append(
            "gauge: phi in {}; u in {}; support {}; tilt floor {}".format(
                _fmt_inline(g["phi"]), _fmt_inline(g["u"]),
                "ok" if g["support_ok"] else "violated",
                "positive" if g["u_positive"] else "not positive"))
    if doc.get("solution"):
        s = doc["solution"]
        lines.append(
            "solution: coefficients in {}; jumps in {}; deflator in {}".format(
                _fmt_inline(s["coefficients"]), _fmt_inline(s["jump"]),
                _fmt_inline(s["deflator"])))
    lines.append("checks:")
    for row in doc["checks"]:
        state = {True: "pass", False: "FAIL", None: "skip"}[row["passed"]]
        suffix = f"  ({_fmt_inline(row['witness'])})" if row["witness"] else ""
        lines.append(f"  [{state}] {row['name']}{suffix}")
    if timings:
        lines.append("timings: " + ", ".join(
            f"{name} {ms:.1f}ms" for name, ms in timings))
    return "\n".join(lines) + "\n"


def render_site_text(doc, timings=None) -> str:
    lines = [f"site: {doc['kind']} (dim {doc['dim']})", f"mode: {doc['mode']}",
             f"u: {doc['u']}"]
    if doc.get("error"):
        lines.append(f"error: {doc['error']}")
    if doc.get("solve"):
        s = doc["solve"]
        lines.append(f"xi: {_fmt_inline(s['xi'])}")
        lines.append(f"feasible: {s['feasible']}")
        if not s["feasible"]:
            lines.append(f"residual: {_fmt_inline(s['residual'])}")
    if doc.get("checks"):
        lines.append("checks:")
        for name, value in doc["checks"].items():
            lines.append(f"  {name}: {_fmt_inline(value)}")
    if timings:
        lines.append("timings: " + ", ".join(
            f"{name} {ms:.1f}ms" for name, ms in timings))
    return "\n".join(lines) + "\n"


def render_selftest_text(doc) -> str:
    lines = [f"selftest ({doc['mode']} mode)"]
    for row in doc["results"]:
        state = "pass" if row["passed"] else "FAIL"
        suffix = f"  ({row['note']})" if row["note"] and not row["passed"] else ""
        lines.append(f"  [{state}] {row['name']}{suffix}")
    lines.append("all passed" if doc["all_passed"] else "FAILURES present")
    return "\n".join(lines) + "\n"
