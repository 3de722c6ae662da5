"""Per-layer spans and work counters, recorded from outside the engine.

`Tracer.install` replaces public functions and methods of the engine's
modules with wrappers that record a span (name, parent span, start, end,
problem index) or bump counters, and `uninstall` puts the originals back.
Nothing inside the engine changes. Spans and counters stay in memory until
the run ends.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter

from eqsat import analysis, egraph, machine, rules, saturation, terms, theories

# Span name -> the module and name of the public function it wraps. The
# `saturate` span has no metric of its own. It and the `load_bundled` span
# mark what `classical.cleanup_s` leaves out of `stream_optimize`.
SPAN_FUNCTIONS = {
    "terms.parse_term": (terms, "parse_term"),
    "rules.parse_theory": (rules, "parse_theory"),
    "theories.load_bundled": (theories, "load_bundled"),
    "theories.stream_optimize": (theories, "stream_optimize"),
    "saturation.compile_theory": (saturation, "compile_theory"),
    "saturation.saturate": (saturation, "saturate"),
    "saturation.eqsat_step": (saturation, "eqsat_step"),
    "machine.ematch_program": (machine, "ematch_program"),
    "analysis.analyze": (analysis, "analyze"),
    "analysis.extract": (analysis, "extract"),
}
SPAN_METHODS = {
    "egraph.rebuild": (egraph.EGraph, "rebuild"),
    "saturation.goal": (saturation.AreEqual, "__call__"),
}
# Per-layer time metric -> the span whose self time it sums.
SELF_TIMES = {
    "terms.parse_s": "terms.parse_term",
    "rules.theory_parse_s": "rules.parse_theory",
    "saturation.compile_s": "saturation.compile_theory",
    "saturation.apply_s": "saturation.eqsat_step",
    "saturation.goal_s": "saturation.goal",
    "machine.search_s": "machine.ematch_program",
    "egraph.rebuild_s": "egraph.rebuild",
    "analysis.sign_s": "analysis.analyze",
    "analysis.extract_s": "analysis.extract",
    "classical.cleanup_s": "theories.stream_optimize",
}
# Per-layer time metric -> the span whose whole duration it sums.
TOTAL_TIMES = {"saturation.step_s": "saturation.eqsat_step"}
# Counter -> the span whose calls it counts.
CALL_COUNTS = {
    "rules.theory_parses": "rules.parse_theory",
    "theories.bundled_loads": "theories.load_bundled",
    "saturation.compile_calls": "saturation.compile_theory",
    "saturation.iterations": "saturation.eqsat_step",
    "saturation.goal_checks": "saturation.goal",
    "machine.ematch_calls": "machine.ematch_program",
    "egraph.rebuild_calls": "egraph.rebuild",
    "analysis.sign_recomputes": "analysis.analyze",
}


class Tracer:
    """`clock` times the spans; the benchmark passes a clock that leaves
    out the time spent in its reference passes."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index, start, end, problem]
        self.counts: Counter = Counter()
        self.problem = -1  # index of the problem being solved; -1 in set-up
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, self.problem]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_matches(self, result):
        self.counts["machine.matches"] += len(result)

    def _run_program(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["machine.vm_runs"] += 1
            if not out:
                counts["machine.vm_runs_empty"] += 1
            return out

        return wrapper

    def _versioned(self, fn, calls, changes):
        """Counts calls, and the calls that moved the graph's version."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            v0 = g.version
            out = fn(g, *args, **kwargs)
            counts[calls] += 1
            if g.version != v0:
                counts[changes] += 1
            return out

        return wrapper

    def _inform(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(sched, rule_index, n_matches, iteration):
            banned = fn(sched, rule_index, n_matches, iteration)
            counts["saturation.matches_found"] += n_matches
            if banned:
                counts["saturation.matches_dropped"] += n_matches
            return banned

        return wrapper

    # -- installing -------------------------------------------------------

    def _patch_function(self, module, attr, wrapper):
        """Replace the function in every engine module that holds it."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name == "eqsat" or name.startswith("eqsat."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        for name, (module, attr) in SPAN_FUNCTIONS.items():
            after = self._count_matches if name == "machine.ematch_program" else None
            wrapper = self._span(name, getattr(module, attr), after)
            self._patch_function(module, attr, wrapper)
        for name, (cls, attr) in SPAN_METHODS.items():
            self._patch_method(cls, attr, self._span(name, cls.__dict__[attr]))
        run_program = self._run_program(machine.run_program)
        self._patch_function(machine, "run_program", run_program)
        G = egraph.EGraph
        add = self._versioned(
            G.add_enode, "egraph.add_enode_calls", "egraph.enodes_new"
        )
        self._patch_method(G, "add_enode", add)
        merge = self._versioned(G.merge, "egraph.merge_calls", "egraph.unions")
        self._patch_method(G, "merge", merge)
        B = saturation.BackoffScheduler
        self._patch_method(B, "inform", self._inform(B.inform))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_times(spans, scale) -> dict[str, float]:
    """Per-layer seconds; `scale(problem)` rescales each span's time."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for i, (name, _, start, end, problem) in enumerate(spans):
        k = scale(problem)
        total_s[name] += (end - start) * k
        self_s[name] += (end - start - child[i]) * k
    out = {m: self_s[s] for m, s in SELF_TIMES.items()}
    out.update({m: total_s[s] for m, s in TOTAL_TIMES.items()})
    return out


def layer_counts(counts: Counter, reports) -> dict[str, float]:
    """Per-layer work counts; `reports` are the engine's saturation reports
    of the same work."""
    out = {m: counts[s] for m, s in CALL_COUNTS.items()}
    for key in (
        "saturation.matches_found",
        "saturation.matches_dropped",
        "machine.vm_runs",
        "machine.vm_runs_empty",
        "egraph.add_enode_calls",
        "egraph.enodes_new",
        "egraph.merge_calls",
        "egraph.unions",
    ):
        out[key] = counts[key]
    found = out["saturation.matches_found"]
    out["saturation.match_keep_ratio"] = (
        (found - out["saturation.matches_dropped"]) / found if found else 1.0
    )
    runs = out["machine.vm_runs"]
    hits = runs - out["machine.vm_runs_empty"]
    out["machine.vm_hit_ratio"] = hits / runs if runs else 1.0
    out["egraph.final_enodes"] = sum(rep.n_enodes for rep in reports)
    return out


def cross_check(counts: Counter, reports) -> list[str]:
    """Totals counted here must equal those in the engine's own reports."""
    errors = []
    per_rule = sum(
        st.matches for rep in reports for st in (rep.per_rule or {}).values()
    )
    if counts["machine.matches"] != per_rule:
        errors.append(
            f"ematch_program found {counts['machine.matches']} matches,"
            f" Report.per_rule says {per_rule}"
        )
    iterations = sum(rep.iterations for rep in reports)
    if counts["saturation.eqsat_step"] != iterations:
        errors.append(
            f"eqsat_step ran {counts['saturation.eqsat_step']} times,"
            f" Report.iterations says {iterations}"
        )
    return errors
