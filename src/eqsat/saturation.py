"""Equality-saturation driver: iteration loop, schedulers, goals, limits,
contradiction detection and reporting."""

from __future__ import annotations

import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

from .egraph import EGraph, LitNode, OpNode
from .errors import CapacityExceeded, SegmentUnsupported
from .machine import EMatch, EMatchProgram, compile_pattern, ematch_program
from .rules import PatLit, PatTerm, PatVar, Pattern, Rule, RuleKind, Theory
from .terms import Term, UnknownBuiltin, eval_builtin

# -- stop reasons -----------------------------------------------------------

SATURATED = "saturated"
ITERATION_LIMIT = "iteration-limit"
TIME_LIMIT = "time-limit"
ECLASS_LIMIT = "eclass-limit"
ENODE_LIMIT = "enode-limit"
GOAL_REACHED = "goal-reached"
CONTRADICTION = "contradiction"


@dataclass(frozen=True)
class StopReason:
    kind: str
    rule: Optional[str] = None

    def __str__(self):
        if self.kind == CONTRADICTION:
            return f"{self.kind}({self.rule})"
        return self.kind


@dataclass(frozen=True)
class AreEqual:
    """Goal satisfied when both terms resolve to the same e-class."""

    t1: Term
    t2: Term

    def __call__(self, g: EGraph) -> bool:
        a, b = g.lookup_term(self.t1), g.lookup_term(self.t2)
        return a is not None and b is not None and g.find(a) == g.find(b)


@dataclass
class SaturationParams:
    timeout: int = 8  # iterations
    timelimit_s: Optional[float] = None
    matchlimit: int = 5000
    eclasslimit: int = 5000
    enodelimit: int = 15000
    goal: Optional[object] = None  # callable EGraph -> bool
    scheduler: str = "backoff"  # "simple" | "backoff"
    schedulerparams: dict = field(default_factory=dict)
    printiter: bool = False  # one line per iteration on stderr


@dataclass
class RuleStats:
    name: str  # a label only: unnamed rules of different theories share names
    search_s: float = 0.0
    apply_s: float = 0.0
    matches: int = 0  # a search stops at search_limit: a ban counts match_limit + 1


@dataclass
class Report:
    stop_reason: StopReason
    iterations: int
    n_enodes: int
    n_eclasses: int
    per_rule: dict[int, RuleStats] = field(default_factory=dict)  # by rule index

    def to_json_dict(self) -> dict:
        rules = [
            {
                "name": st.name,
                "search_s": st.search_s,
                "apply_s": st.apply_s,
                "matches": st.matches,
            }
            for st in self.per_rule.values()
        ]
        return {
            "stop_reason": str(self.stop_reason),
            "iterations": self.iterations,
            "n_enodes": self.n_enodes,
            "n_eclasses": self.n_eclasses,
            "rules": rules,
        }

    def render(self) -> str:
        lines = [
            f"stop reason: {self.stop_reason}",
            f"iterations:  {self.iterations}",
            f"e-nodes:     {self.n_enodes}",
            f"e-classes:   {self.n_eclasses}",
        ]
        if self.per_rule:
            name_w = max([4] + [len(st.name) for st in self.per_rule.values()])
            lines.append(f"{'rule':<{name_w}}  {'search_s':>10}  {'apply_s':>10}  {'matches':>8}")
            for st in self.per_rule.values():
                lines.append(
                    f"{st.name:<{name_w}}  {st.search_s:>10.6f}  {st.apply_s:>10.6f}  {st.matches:>8}"
                )
        return "\n".join(lines)


# -- schedulers -------------------------------------------------------------


class SimpleScheduler:
    def can_search(self, rule_index: int, iteration: int) -> bool:
        return True

    def search_limit(self, rule_index: int) -> Optional[int]:
        """How many matches a search may stop at; None searches for all."""
        return None

    def inform(self, rule_index: int, n_matches: int, iteration: int) -> bool:
        """Returns True when the rule got banned by this report."""
        return False


@dataclass
class BackoffState:
    match_limit: int
    ban_length: int
    banned_until: int = -1
    times_banned: int = 0


class BackoffScheduler:
    """Bans rules that match in exponentially growing numbers of locations.

    When a search exceeds the rule's match limit the rule is banned for
    `ban_length` iterations and both the limit and the ban length double.
    """

    def __init__(self, n_rules: int, match_limit: int = 5000, ban_length: int = 5):
        self.states = [
            BackoffState(match_limit, ban_length) for _ in range(n_rules)
        ]

    def can_search(self, rule_index: int, iteration: int) -> bool:
        return iteration > self.states[rule_index].banned_until

    def search_limit(self, rule_index: int) -> Optional[int]:
        # one match over the limit bans the rule and drops every match, so a
        # search need not find more (egg searches up to threshold + 1 too)
        return self.states[rule_index].match_limit + 1

    def inform(self, rule_index: int, n_matches: int, iteration: int) -> bool:
        st = self.states[rule_index]
        if n_matches > st.match_limit:
            st.banned_until = iteration + st.ban_length
            st.match_limit *= 2
            st.ban_length *= 2
            st.times_banned += 1
            return True
        return False


def make_scheduler(params: SaturationParams, n_rules: int):
    if params.scheduler == "simple":
        return SimpleScheduler()
    if params.scheduler == "backoff":
        return BackoffScheduler(
            n_rules,
            match_limit=params.schedulerparams.get("match_limit", params.matchlimit),
            ban_length=params.schedulerparams.get("ban_length", 5),
        )
    raise ValueError(f"unknown scheduler {params.scheduler!r}")


# -- compiled search plan ---------------------------------------------------


@dataclass
class _Direction:
    lhs: Pattern
    rhs: Pattern
    program: EMatchProgram


@dataclass
class _CompiledRule:
    rule: Rule
    directions: list[_Direction]


def compile_theory(theory: Theory) -> list[_CompiledRule]:
    compiled = []
    for rule in theory.rules:
        dirs = []
        pairs = [(rule.lhs, rule.rhs)]
        if rule.kind is RuleKind.EQUALITY:
            pairs.append((rule.rhs, rule.lhs))
        try:
            for lhs, rhs in pairs:
                dirs.append(_Direction(lhs, rhs, compile_pattern(lhs)))
        except SegmentUnsupported as exc:
            warnings.warn(f"rule {rule.name!r} skipped in e-graph mode: {exc}")
            dirs = []
        compiled.append(_CompiledRule(rule, dirs))
    return compiled


# -- instantiation into the graph ------------------------------------------


def _add_pattern(g: EGraph, pat: Pattern, m: EMatch, dynamic: bool) -> int:
    """Add the instantiation of `pat` under match `m`, returning its class.

    Bound variables map directly to their e-class ids; no term is
    reconstructed from the graph. Dynamic RHS nodes fold builtins over
    literal bindings bottom-up.
    """
    bindings = m.binding_dict()
    lits = m.literal_dict()

    def lit_id(v) -> int:
        return g.add_enode(LitNode(v))

    def go(p: Pattern):
        # returns ("lit", value) or ("id", class id)
        if isinstance(p, PatVar):
            if dynamic and p.index in lits:
                return ("lit", lits[p.index])
            return ("id", bindings[p.index])
        if isinstance(p, PatLit):
            return ("lit", p.value)
        assert isinstance(p, PatTerm) and isinstance(p.op, str)
        vals = [go(a) for a in p.args]
        if (
            dynamic
            and len(vals) == 2
            and all(k == "lit" and not isinstance(v, str) for k, v in vals)
        ):
            try:
                return ("lit", eval_builtin(p.op, [v for _, v in vals]))
            except UnknownBuiltin:
                pass
        children = tuple(v if k == "id" else lit_id(v) for k, v in vals)
        return ("id", g.add_enode(OpNode(p.op, children)))

    k, v = go(pat)
    del go  # the closure refers to itself; clearing it spares the cycle collector
    return v if k == "id" else lit_id(v)


def _lookup_pattern(g: EGraph, pat: Pattern, m: EMatch) -> Optional[int]:
    """Resolve a pattern instantiation by lookup only (no graph growth)."""
    bindings = m.binding_dict()

    def go(p: Pattern) -> Optional[int]:
        if isinstance(p, PatVar):
            return g.find(bindings[p.index])
        if isinstance(p, PatLit):
            return g.lookup(LitNode(p.value))
        assert isinstance(p, PatTerm) and isinstance(p.op, str)
        children = []
        for a in p.args:
            cid = go(a)
            if cid is None:
                return None
            children.append(cid)
        return g.lookup(OpNode(p.op, tuple(children)))

    return go(pat)


# -- the driver -------------------------------------------------------------


def eqsat_step(
    g: EGraph,
    compiled: list[_CompiledRule],
    sched,
    params: SaturationParams,
    iteration: int,
    stats: dict[int, RuleStats],
) -> tuple[bool, Optional[StopReason]]:
    """One search/apply/rebuild cycle, adding its times and matches to
    `stats`. Returns (changed, early stop)."""
    v0 = g.version

    # Phase 1: search (read-only)
    found: list[list[tuple[_Direction, EMatch]]] = []
    for idx, cr in enumerate(compiled):
        matches: list[tuple[_Direction, EMatch]] = []
        st = stats.setdefault(idx, RuleStats(cr.rule.name))
        if cr.directions and sched.can_search(idx, iteration):
            t0 = time.perf_counter()
            limit = sched.search_limit(idx)
            for d in cr.directions:
                left = None if limit is None else limit - len(matches)
                if left == 0:
                    break
                for m in ematch_program(g, d.program, left):
                    matches.append((d, m))
            st.search_s += time.perf_counter() - t0
            st.matches += len(matches)
            if sched.inform(idx, len(matches), iteration):
                matches = []  # banned: this iteration's matches are dropped
        found.append(matches)

    # Phase 2: apply
    stop: Optional[StopReason] = None
    try:
        for idx, cr in enumerate(compiled):
            t0 = time.perf_counter()
            for d, m in found[idx]:
                if cr.rule.kind is RuleKind.UNEQUAL:
                    rid = _lookup_pattern(g, d.rhs, m)
                    if rid is not None and g.find(rid) == g.find(m.class_id):
                        stop = StopReason(CONTRADICTION, cr.rule.name)
                        break
                    continue
                dynamic = cr.rule.kind is RuleKind.DYNAMIC
                new_id = _add_pattern(g, d.rhs, m, dynamic)
                g.merge(m.class_id, new_id)
            stats[idx].apply_s += time.perf_counter() - t0
            if stop is not None:
                break
    except CapacityExceeded:
        stop = StopReason(ENODE_LIMIT)

    # Phase 3: rebuild
    g.rebuild()
    return g.version != v0, stop


def saturate(g: EGraph, theory: Theory, params: Optional[SaturationParams] = None) -> Report:
    params = params or SaturationParams()
    compiled = compile_theory(theory)
    sched = make_scheduler(params, len(compiled))
    stats: dict[int, RuleStats] = {}
    old_limit = g.node_limit
    g.node_limit = params.enodelimit
    t_start = time.perf_counter()
    reason: Optional[StopReason] = None
    iterations = 0
    try:
        # 0-indexed counter with an inclusive bound: up to timeout+1 steps may
        # run, so a fixpoint reached on the last budgeted step is still
        # detected as saturation rather than reported as an iteration limit.
        for iteration in range(params.timeout + 1):
            if (
                params.timelimit_s is not None
                and time.perf_counter() - t_start > params.timelimit_s
            ):
                reason = StopReason(TIME_LIMIT)
                break
            iterations = iteration + 1
            changed, stop = eqsat_step(g, compiled, sched, params, iteration, stats)
            if params.printiter:
                print(
                    f"iteration {iterations}: {g.n_eclasses} classes, {g.n_enodes} nodes",
                    file=sys.stderr,
                )
            if stop is not None:
                reason = stop
                break
            if g.n_eclasses > params.eclasslimit:
                reason = StopReason(ECLASS_LIMIT)
                break
            if g.n_enodes > params.enodelimit:
                reason = StopReason(ENODE_LIMIT)
                break
            if params.goal is not None and params.goal(g):
                reason = StopReason(GOAL_REACHED)
                break
            if not changed:
                reason = StopReason(SATURATED)
                break
        if reason is None:
            reason = StopReason(ITERATION_LIMIT)
    finally:
        g.node_limit = old_limit
    return Report(reason, iterations, g.n_enodes, g.n_eclasses, stats)


def prove_equal(
    t1: Term,
    t2: Term,
    theory: Theory,
    params: Optional[SaturationParams] = None,
) -> tuple[bool, Report]:
    g = EGraph()
    a = g.add_term(t1)
    b = g.add_term(t2)
    params = replace(params or SaturationParams(), goal=AreEqual(t1, t2))
    if g.find(a) == g.find(b):
        return True, Report(StopReason(GOAL_REACHED), 0, g.n_enodes, g.n_eclasses)
    report = saturate(g, theory, params)
    return g.find(a) == g.find(b), report
