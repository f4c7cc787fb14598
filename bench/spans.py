"""Outside-in span tracer for the engine's layers.

``Tracer.install`` replaces each listed function with a wrapper wherever a
``marketforge.*`` module binds it, so a name brought in with
``from .calculus import compensator`` is caught as well as the original.
Methods are patched on their class.  Nothing under ``src/`` is edited and
``uninstall`` restores every binding, so untraced calls in the same process
run the original code.

Each wrapper records one span: name, start, end and the index of the span
that was open when it started.  Spans stay in memory until ``dump``.  A
listed name the engine no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# layer -> functions (``Class.method`` for methods) whose calls become spans
TRACED = {
    "cli": ["main"],
    "scenario": ["parse_document", "load_scenario", "load_site"],
    "mrp": ["Driver.__post_init__", "represent", "check_mrp", "synthesize_driver"],
    "viability": ["Market.__post_init__", "solve_structure_F", "verify_deflator",
                  "solve_structure_G", "price_drift_rhs"],
    "enlarge": ["solve_phi", "drift", "check_support_condition", "compute_u"],
    "jumpkernel": ["xi_accessible", "xi_inaccessible", "restricted_inverse",
                   "check_jump_bound", "check_coercivity", "energy_bound",
                   "verify_density"],
    "linalg": ["rref", "lstsq_min_norm", "solve_pd", "pinv_psd", "is_psd",
               "null_space", "project_columns"],
    "calculus": ["compensator", "bracket", "pred_bracket", "integrate",
                 "stoch_exp", "is_martingale", "doob_decompose"],
    "space": ["cond_exp", "is_adapted", "is_predictable", "Partition.children_of",
              "natural_filtration", "build_initial_enlargement"],
    "report": ["analyze_report", "site_report", "render_json",
               "render_analyze_text", "render_site_text"],
}

# results kept for size counts and arith.max_bits
KEEP_RESULTS = ("scenario.load_scenario", "viability.solve_structure_G")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.results: dict[str, list] = defaultdict(list)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        open_, clock = self._open, time.perf_counter
        keep = self.results[name] if name in KEEP_RESULTS else None

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if keep is not None:
                keep.append(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "marketforge" or name.startswith("marketforge.")}
        for layer, functions in TRACED.items():
            home = modules.get(f"marketforge.{layer}")
            if home is None:
                continue
            for qual in functions:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                wrapped = self._wrap(f"{layer}.{qual}", original)
                targets = [owner] if owner_name else list(modules.values())
                for target in targets:
                    if vars(target).get(attr) is original:
                        self._patches.append((target, attr, original))
                        setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def mark(self) -> int:
        """Span count so far; spans recorded after it belong to later calls."""
        return len(self.names)

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent] in columnar JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "start": self.starts,
                       "end": self.ends, "parent": self.parents}, fh)


def summarize(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-span-name totals over spans [lo, hi): calls, inclusive seconds
    (spans nested in a span of the same name are not counted twice) and
    self seconds (span time minus the time of its child spans)."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    child_time = defaultdict(float)
    for i in range(lo, hi):
        if parents[i] >= lo:
            child_time[parents[i]] += ends[i] - starts[i]
    calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i in range(lo, hi):
        name, dur = names[i], ends[i] - starts[i]
        calls[name] += 1
        self_s[name] += dur - child_time[i]
        p = parents[i]
        while p >= lo and names[p] != name:
            p = parents[p]
        if p < lo:
            incl[name] += dur
    return {"calls": calls, "incl": incl, "self": self_s}


def layer_self(summary: dict, layer: str) -> float:
    prefix = layer + "."
    return sum(v for k, v in summary["self"].items() if k.startswith(prefix))


def outermost(tracer: Tracer, lo: int, hi: int, layer: str) -> float:
    """Seconds inside spans of ``layer`` that have no ancestor in that layer."""
    prefix = layer + "."
    names, parents = tracer.names, tracer.parents
    total = 0.0
    for i in range(lo, hi):
        if not names[i].startswith(prefix):
            continue
        p = parents[i]
        while p >= lo and not names[p].startswith(prefix):
            p = parents[p]
        if p < lo:
            total += tracer.ends[i] - tracer.starts[i]
    return total
