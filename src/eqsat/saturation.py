"""Equality-saturation driver: iteration loop, schedulers, goals, limits,
contradiction detection and reporting."""

from __future__ import annotations

import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .egraph import EGraph, LitNode, OpNode
from .errors import CapacityExceeded, SegmentUnsupported
from .machine import EMatch, EMatchProgram, compile_pattern, ematch_program
from .rules import PatLit, PatTerm, PatVar, Pattern, Rule, RuleKind, Theory
from .terms import BUILTIN_OPS, Term, eval_builtin

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
    # adds the right-hand side under a match and returns its class; for an
    # UNEQUAL rule, only looks it up (None when it is absent)
    instantiate: Callable[[EGraph, EMatch], Optional[int]]


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
                program = compile_pattern(lhs)
                if rule.kind is RuleKind.UNEQUAL:
                    instantiate = _compile_lookup(rhs)
                else:
                    instantiate = _compile_builder(rhs, rule.kind is RuleKind.DYNAMIC)
                dirs.append(_Direction(lhs, rhs, program, instantiate))
        except SegmentUnsupported as exc:
            warnings.warn(f"rule {rule.name!r} skipped in e-graph mode: {exc}")
            dirs = []
        compiled.append(_CompiledRule(rule, dirs))
    return compiled


# -- instantiation into the graph ------------------------------------------
#
# A right-hand side compiles once into closures over (graph, bindings,
# literal bindings), the `EMatch.bindings` and `EMatch.literal_bindings`
# tuples. Bound variables map directly to their e-class ids; no term is
# reconstructed from the graph. A closure returns a class id (an int), or a
# literal not yet added to the graph as a 1-tuple: a literal child is added
# after all of its siblings, and a literal folded into its parent never is.
# The graph's methods are looked up on each call, so wrappers put on them
# later see every call. As in the matcher (see `machine.py`), closures get
# what they need as default arguments, which spares the cycle collector.


def _operator(p: Pattern) -> str:
    if not isinstance(p, PatTerm) or not isinstance(p.op, str):
        raise SegmentUnsupported(
            "segment and operation-position variables cannot be instantiated"
            " in an e-graph"
        )
    return p.op


def _compile_builder(pat: Pattern, dynamic: bool) -> Callable[[EGraph, EMatch], int]:
    """Adds the instantiation of `pat` under a match and returns its class.
    With `dynamic`, a literal-bound variable stands for its literal, and a
    builtin over two numeric literals folds into one."""
    f = _build_node(pat, dynamic)

    def instantiate(g: EGraph, m: EMatch, f=f) -> int:
        r = f(g, m.bindings, m.literal_bindings)
        return r if type(r) is int else g.add_enode(LitNode(r[0]))

    return instantiate


def _build_node(p: Pattern, dynamic: bool):
    if isinstance(p, PatVar):
        idx = p.index
        if dynamic:

            def var_or_literal(g, binds, lits, idx=idx):
                for i, v in lits:
                    if i == idx:
                        return (v,)
                return binds[idx][1]

            return var_or_literal
        return lambda g, binds, lits, idx=idx: binds[idx][1]
    if isinstance(p, PatLit):
        lit = (p.value,)
        return lambda g, binds, lits, lit=lit: lit
    op = _operator(p)
    fs = [_build_node(a, dynamic) for a in p.args]
    if len(fs) == 2:
        f0, f1 = fs
        # a builtin folds when both arguments turn out numeric literals, which
        # a symbol never is
        symbol = any(isinstance(a, PatLit) and isinstance(a.value, str) for a in p.args)
        can_fold = dynamic and op in BUILTIN_OPS and not symbol

        def node2(g, binds, lits, f0=f0, f1=f1, can_fold=can_fold, op=op):
            x = f0(g, binds, lits)
            y = f1(g, binds, lits)
            if type(x) is not int:
                if can_fold and type(y) is not int:
                    return (eval_builtin(op, (x[0], y[0])),)
                x = g.add_enode(LitNode(x[0]))
            if type(y) is not int:
                y = g.add_enode(LitNode(y[0]))
            return g.add_enode(OpNode(op, (x, y)))

        return node2

    def node(g, binds, lits, fs=fs, op=op):
        vals = [f(g, binds, lits) for f in fs]
        children = tuple(
            [v if type(v) is int else g.add_enode(LitNode(v[0])) for v in vals]
        )
        return g.add_enode(OpNode(op, children))

    return node


def _compile_lookup(pat: Pattern) -> Callable[[EGraph, EMatch], Optional[int]]:
    """Resolves the instantiation of `pat` by lookup only (no graph growth)."""
    f = _lookup_node(pat)
    return lambda g, m, f=f: f(g, m.bindings)


def _lookup_node(p: Pattern):
    if isinstance(p, PatVar):
        idx = p.index
        return lambda g, binds, idx=idx: g.find(binds[idx][1])
    if isinstance(p, PatLit):
        node = LitNode(p.value)
        return lambda g, binds, node=node: g.lookup(node)
    op = _operator(p)
    fs = [_lookup_node(a) for a in p.args]

    def lookup(g, binds, fs=fs, op=op):
        children = []
        for f in fs:
            cid = f(g, binds)
            if cid is None:
                return None
            children.append(cid)
        return g.lookup(OpNode(op, tuple(children)))

    return lookup


# -- the driver -------------------------------------------------------------


def eqsat_step(
    g: EGraph,
    compiled: list[_CompiledRule],
    sched,
    params: SaturationParams,
    iteration: int,
    stats: dict[int, RuleStats],
    deadline: Optional[float] = None,
) -> tuple[bool, Optional[StopReason]]:
    """One search/apply/rebuild cycle, adding its times and matches to
    `stats`. Returns (changed, early stop). Once `time.perf_counter()` is
    past `deadline`, no further rule is searched or applied, and the step
    rebuilds the graph and stops with `time-limit`."""
    v0 = g.version
    stop: Optional[StopReason] = None
    for idx, cr in enumerate(compiled):
        stats.setdefault(idx, RuleStats(cr.rule.name))

    # Phase 1: search (read-only)
    found: list[list[tuple[_Direction, EMatch]]] = []
    for idx, cr in enumerate(compiled):
        if idx and _past(deadline):
            stop = StopReason(TIME_LIMIT)
            break
        matches: list[tuple[_Direction, EMatch]] = []
        if cr.directions and sched.can_search(idx, iteration):
            t0 = time.perf_counter()
            limit = sched.search_limit(idx)
            for d in cr.directions:
                left = None if limit is None else limit - len(matches)
                if left == 0:
                    break
                for m in ematch_program(g, d.program, left):
                    matches.append((d, m))
            st = stats[idx]
            st.search_s += time.perf_counter() - t0
            st.matches += len(matches)
            if sched.inform(idx, len(matches), iteration):
                matches = []  # banned: this iteration's matches are dropped
        found.append(matches)

    # Phase 2: apply
    try:
        for idx, matches in enumerate(found):
            if stop is None and _past(deadline):
                stop = StopReason(TIME_LIMIT)
            if stop is not None:
                break
            cr = compiled[idx]
            t0 = time.perf_counter()
            if cr.rule.kind is RuleKind.UNEQUAL:
                for d, m in matches:
                    rid = d.instantiate(g, m)
                    if rid is not None and g.find(rid) == g.find(m.class_id):
                        stop = StopReason(CONTRADICTION, cr.rule.name)
                        break
            else:
                for d, m in matches:
                    g.merge(m.class_id, d.instantiate(g, m))
            stats[idx].apply_s += time.perf_counter() - t0
    except CapacityExceeded:
        stop = StopReason(ENODE_LIMIT)

    # Phase 3: rebuild
    g.rebuild()
    return g.version != v0, stop


def _past(deadline: Optional[float]) -> bool:
    return deadline is not None and time.perf_counter() > deadline


def saturate(g: EGraph, theory: Theory, params: Optional[SaturationParams] = None) -> Report:
    params = params or SaturationParams()
    compiled = compile_theory(theory)
    sched = make_scheduler(params, len(compiled))
    stats: dict[int, RuleStats] = {}
    old_limit = g.node_limit
    g.node_limit = params.enodelimit
    deadline = None
    if params.timelimit_s is not None:
        deadline = time.perf_counter() + params.timelimit_s
    reason: Optional[StopReason] = None
    iterations = 0
    try:
        # 0-indexed counter with an inclusive bound: up to timeout+1 steps may
        # run, so a fixpoint reached on the last budgeted step is still
        # detected as saturation rather than reported as an iteration limit.
        for iteration in range(params.timeout + 1):
            if _past(deadline):
                reason = StopReason(TIME_LIMIT)
                break
            iterations = iteration + 1
            changed, stop = eqsat_step(
                g, compiled, sched, params, iteration, stats, deadline
            )
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
