"""Equality-saturation driver: iteration loop, scheduler, goals, limits,
contradiction detection and reporting."""

from __future__ import annotations

import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Optional, Sequence, Union

from .egraph import EGraph, OpNode
from .errors import CapacityExceeded, SegmentUnsupported
from .machine import EMatch, EMatchProgram, RunState, compile_pattern, ematch_program
from .rules import PatTerm, PatVar, Pattern, Rule, RuleKind, Theory, class_literal
from .terms import BUILTIN_OPS, Atom, Lit, Term, eval_builtin, fold_tree

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
    """Goal satisfied when both terms resolve to the same e-class.

    The first time both terms are found in a graph, the goal keeps that
    graph and the two class ids, and later checks on the same graph compare
    them with `find`: e-nodes are never removed, so a term found once stays
    in the class of its id. A check on another graph looks the terms up."""

    t1: Term
    t2: Term
    # [graph, class of t1, class of t2] once both were found in the graph
    _found: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __call__(self, g: EGraph) -> bool:
        found = self._found
        if found and found[0] is g:
            return g.find(found[1]) == g.find(found[2])
        a, b = g.lookup_term(self.t1), g.lookup_term(self.t2)
        if a is None or b is None:
            return False
        found[:] = (g, a, b)
        return g.find(a) == g.find(b)


@dataclass
class SaturationParams:
    timeout: int = 8  # iterations
    timelimit_s: Optional[float] = None
    matchlimit: Optional[int] = 5000  # None: no rule is ever banned
    eclasslimit: int = 5000
    enodelimit: int = 15000
    goal: Optional[object] = None  # callable EGraph -> bool
    printiter: bool = False  # one line per iteration on stderr


@dataclass
class RuleStats:
    name: str  # a label only: unnamed rules of different theories share names
    # 0.0 for a rule never searched, as a dead one is (see `eqsat_step`)
    search_s: float = 0.0
    apply_s: float = 0.0
    # the matches searches returned; a search stops at search_limit, so a ban
    # counts match_limit + 1, or match_limit // 2 + 1 for a mirrored rule
    matches: int = 0
    # the matches whose right-hand side was instantiated (looked up, for a
    # `!=` rule): those the searches built, which leaves out most matches
    # that the rule's last applied search had found
    applied: int = 0


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
                "applied": st.applied,
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
            lines.append(
                f"{'rule':<{name_w}}  {'search_s':>10}  {'apply_s':>10}"
                f"  {'matches':>8}  {'applied':>8}"
            )
            for st in self.per_rule.values():
                lines.append(
                    f"{st.name:<{name_w}}  {st.search_s:>10.6f}  {st.apply_s:>10.6f}"
                    f"  {st.matches:>8}  {st.applied:>8}"
                )
        return "\n".join(lines)


# -- the scheduler ----------------------------------------------------------


@dataclass
class BackoffState:
    match_limit: Optional[int]  # None: the rule is never banned
    # how many matches each found one counts as: 2 for a mirrored rule, whose
    # one direction stands for two, otherwise 1
    weight: int
    ban_length: int = 5
    banned_until: int = -1
    times_banned: int = 0
    # the rebuild count (`EGraph.rebuilds`) at which the rule's last search
    # ran, once every match it kept was applied; a search builds only the
    # matches newer than it. -1, which builds every match, until then and
    # after a ban
    since: int = -1


class BackoffScheduler:
    """Bans rules that match in exponentially growing numbers of locations,
    and remembers when each rule last applied all its matches.

    When a search's matches, each counted `weight` times, exceed the rule's
    match limit, the rule is banned for `ban_length` iterations and both the
    limit and the ban length double. With no match limit, no rule is ever
    banned and every search finds all its matches. A scheduler serves one
    run on one graph: the rebuild counts it remembers are that graph's.
    """

    def __init__(self, weights: Sequence[int], match_limit: Optional[int] = 5000):
        self.states = [BackoffState(match_limit, w) for w in weights]

    def can_search(self, rule_index: int, iteration: int) -> bool:
        return iteration > self.states[rule_index].banned_until

    def can_stop(self, iteration: int) -> bool:
        """Whether an `iteration` that changed nothing ends the run as
        saturated. A pass that skipped a banned rule proves nothing: lift
        every ban that was live in it, and stop only when there was none."""
        live = [st for st in self.states if st.banned_until >= iteration]
        for st in live:
            st.banned_until = iteration
        return not live

    def search_limit(self, rule_index: int) -> Optional[int]:
        """How many matches a search may stop at; None searches for all.
        One match over the limit bans the rule and drops every match, so a
        search need not find more (egg searches up to threshold + 1 too)."""
        st = self.states[rule_index]
        return None if st.match_limit is None else st.match_limit // st.weight + 1

    def inform(self, rule_index: int, n_matches: int, iteration: int) -> bool:
        """Told the matches a search returned; returns True when they ban
        the rule."""
        st = self.states[rule_index]
        if st.match_limit is not None and st.weight * n_matches > st.match_limit:
            st.banned_until = iteration + st.ban_length
            st.match_limit *= 2
            st.ban_length *= 2
            st.times_banned += 1
            st.since = -1
            return True
        return False

    def applied(self, rule_index: int, rebuilds: int) -> None:
        """Told that every match that a search of the rule kept, made when
        the graph had made `rebuilds` rebuilds, was applied."""
        self.states[rule_index].since = rebuilds


# -- compiled search plan ---------------------------------------------------


@dataclass(frozen=True, eq=False)  # by identity: a closure has no useful equality
class _Direction:
    program: EMatchProgram
    # adds the right-hand side under a match and returns its class; for an
    # UNEQUAL rule, only looks it up (None when it is absent)
    instantiate: Callable[[EGraph, EMatch], Optional[int]]


@dataclass(frozen=True)
class _CompiledRule:
    rule: Rule
    directions: tuple[_Direction, ...]
    # an `==` rule whose sides swap under a renaming of its variables keeps
    # one direction, which stands for both (see `mirrored`)
    mirrored: bool


# What `compile_theory` returns: one compiled rule per rule of the theory, in
# the theory's order.
CompiledTheory = tuple[_CompiledRule, ...]


def compile_theory(theory: Theory) -> CompiledTheory:
    """Compiles every rule of `theory`, both sides, for `saturate` and
    `prove_equal`. An `==` rule runs in both directions, unless it is
    `mirrored`: then its one direction stands for both. The result holds no
    per-run state, so one compiled theory can serve any number of runs. A
    rule that cannot run in an e-graph is kept with no directions and warned
    about here, once."""
    compiled = []
    for rule in theory.rules:
        dirs = []
        n_vars = len(rule.patvar_names)
        pairs = [(rule.lhs, rule.rhs)]
        mirror = rule.kind is RuleKind.EQUALITY and mirrored(rule.lhs, rule.rhs)
        if rule.kind is RuleKind.EQUALITY and not mirror:
            pairs.append((rule.rhs, rule.lhs))
        try:
            for lhs, rhs in pairs:
                program = compile_pattern(lhs)
                if rule.kind is RuleKind.UNEQUAL:
                    instantiate = _compile_lookup(rhs, n_vars)
                elif rule.kind is RuleKind.DYNAMIC:
                    instantiate = _compile_builder(rhs, n_vars, program.lifts)
                else:
                    instantiate = _compile_builder(rhs, n_vars)
                dirs.append(_Direction(program, instantiate))
        except SegmentUnsupported as exc:
            warnings.warn(f"rule {rule.name!r} skipped in e-graph mode: {exc}")
            dirs = []
        compiled.append(_CompiledRule(rule, tuple(dirs), mirror))
    return tuple(compiled)


def _compiled(theory: Theory) -> CompiledTheory:
    """`compile_theory(theory)`, kept on `theory` and made again only when
    its rules are no longer those compiled (`Rule` compares by identity)."""
    rules = tuple(theory.rules)
    if theory.compiled is None or theory.compiled[0] != rules:
        theory.compiled = (rules, compile_theory(theory))
    return theory.compiled[1]


def mirrored(lhs: Pattern, rhs: Pattern) -> bool:
    """Whether one renaming π of the variables gives π(lhs) = rhs and
    π(rhs) = lhs, predicates included and no operator a variable, as for
    `(+ a b) == (+ b a)`. The rhs-to-lhs direction of such a rule then finds
    the matches of the lhs-to-rhs one, renamed, and adds the same right-hand
    sides. Walks the patterns on a stack, so that depth is not bounded by
    the recursion limit."""
    pi: dict[int, int] = {}  # the renaming, both ways round at each position
    todo = [(lhs, rhs)]
    while todo:
        p, q = todo.pop()
        if type(p) is PatVar and type(q) is PatVar:
            if (
                p.predicate != q.predicate
                or pi.setdefault(p.index, q.index) != q.index
                or pi.setdefault(q.index, p.index) != p.index
            ):
                return False
        elif isinstance(p, (Atom, Lit)) and isinstance(q, (Atom, Lit)):
            if p != q:
                return False
        elif type(p) is PatTerm and type(q) is PatTerm:
            if type(p.op) is not str or p.op != q.op or len(p.args) != len(q.args):
                return False
            todo += zip(p.args, q.args)
        else:
            return False
    return True


# -- instantiation into the graph ------------------------------------------
#
# A right-hand side compiles once, folded by `terms.fold_tree`, into a flat
# plan, as egg instantiates a pattern from its post-order node list. The
# plan has one step per operator node, in post-order with children left to
# right, and in a `=>` rule one step per lifted variable, at its place in
# the walk. A run fills one sequence of values: the match itself (its root
# class, then the class of variable i at 1 + i, read by index in C), then one
# value per step. A step names each child by its position in that sequence, or
# holds a literal child, an `Atom` or a `Lit`, which is its own e-node. Bound
# variables map directly to their e-class ids; no term is reconstructed from
# the graph, and nothing recurses, so a right-hand side of any depth runs.
#
# A plan is lean when every value is a class id: no literal, no lifted
# variable, so nothing folds. Each step of a lean plan picks its children
# with one `itemgetter`; a plan of one or two nodes runs as straight-line
# code, a longer one in a loop.
#
# Every other plan runs in `_run`, where a value is a class id or a literal
# not yet added to the graph. A literal child is added after all of its
# siblings, and in a `=>` rule a builtin over two numeric literals folds
# into one, which is never added. A lifted variable stands
# for its class's literal of the kind its guard lifts
# (`EMatchProgram.lifts`), read at its step: a class only gains nodes, so
# that is the literal the guard saw, unless the class has gained a second
# one since, which raises InconsistentClass. A `!=` rule's plan runs there
# too, looking each node up instead of adding it.
#
# The graph's methods are looked up on each call, so wrappers put on them
# later see every call. As in the matcher (see `machine.py`), closures get
# what they need as default arguments, which spares the cycle collector.


def _plan(pat: Pattern, n_vars: int, lifts: Optional[dict[int, str]]):
    """The steps of `pat`'s plan, and its root: the position of its value,
    or a literal. Variable i is at position 1 + i, as in a match, and step k
    at 1 + `n_vars` + k. A step is (operator, children, whether a builtin over
    two literals folds), or (None, the variable's position, kind) for a
    lifted variable. `lifts` is a `=>` rule's; with None nothing folds."""
    steps: list[tuple] = []

    def leaf(p):
        if isinstance(p, (Atom, Lit)):
            return p
        if isinstance(p, PatVar) and p.index not in (lifts or ()):
            return 1 + p.index
        if isinstance(p, PatVar):
            steps.append((None, 1 + p.index, lifts[p.index]))
            return n_vars + len(steps)
        raise SegmentUnsupported("a segment cannot be instantiated in an e-graph")

    def node(p, kids):
        if not isinstance(p.op, str):
            raise SegmentUnsupported(
                "an operation-position variable cannot be instantiated in an e-graph"
            )
        # a builtin folds when both arguments turn out numeric literals,
        # which a symbol never is
        symbol = Atom in map(type, kids)
        fold = lifts is not None and len(kids) == 2 and p.op in BUILTIN_OPS and not symbol
        steps.append((p.op, tuple(kids), fold))
        return n_vars + len(steps)

    root = fold_tree(pat, PatTerm, leaf, node)
    return steps, root


def _compile_builder(
    pat: Pattern, n_vars: int, lifts: Optional[dict[int, str]] = None
) -> Callable[[EGraph, EMatch], int]:
    """Adds the instantiation of `pat` under a match of `n_vars` variables
    and returns its class. With `lifts`, those of a `=>` rule's left-hand
    side, a lifted variable stands for its literal, and a builtin over two
    numeric literals folds into one."""
    steps, root = _plan(pat, n_vars, lifts)
    if not steps and type(root) is int:  # a variable
        return lambda g, m, i=root: m[i]
    if type(root) is not int or any(
        op is None or any(type(k) is not int for k in kids) for op, kids, _ in steps
    ):  # a literal, as the root or a child, or a lifted variable
        return lambda g, m, steps=steps, root=root: _run(g, m, steps, root, g.add_enode)
    lean = [(op, _picker(kids)) for op, kids, _ in steps]
    if len(lean) == 1:
        ((op, pick),) = lean
        return lambda g, m, op=op, pick=pick, new=tuple.__new__: g.add_enode(
            new(OpNode, (op, pick(m)))
        )
    if len(lean) == 2:  # as in `(+ ~a (+ ~b ~c))`
        (op0, pick0), (op1, pick1) = lean

        def two_nodes(g, m, op0=op0, pick0=pick0, op1=op1, pick1=pick1,
                      new=tuple.__new__):
            cid = g.add_enode(new(OpNode, (op0, pick0(m))))
            return g.add_enode(new(OpNode, (op1, pick1(m + (cid,)))))

        return two_nodes

    def nodes(g, m, lean=lean, new=tuple.__new__):
        for op, pick in lean:
            m += (g.add_enode(new(OpNode, (op, pick(m)))),)
        return m[-1]

    return nodes


def _compile_lookup(
    pat: Pattern, n_vars: int
) -> Callable[[EGraph, EMatch], Optional[int]]:
    """Resolves the instantiation of `pat` under a match of `n_vars`
    variables by lookup only (no graph growth): its class, or None."""
    steps, root = _plan(pat, n_vars, None)
    if not steps and type(root) is int:  # a variable
        return lambda g, m, i=root: g.find(m[i])
    return lambda g, m, steps=steps, root=root: _run(g, m, steps, root, g.lookup)


def _picker(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The tuple of the items at `positions` of a tuple, read in C; an
    `itemgetter` of one index would give a bare item, so one position is a
    slice."""
    if len(positions) == 1:
        (i,) = positions
        return itemgetter(slice(i, i + 1 or None))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _run(g: EGraph, m: EMatch, steps: list[tuple], root, place) -> Optional[int]:
    """Runs a plan that is not lean under `m`, with `place` adding an e-node
    (`g.add_enode`) or looking it up (`g.lookup`): the class of the root, or
    None once `place` finds no node."""
    vals = list(m)
    for op, kids, fold in steps:
        if op is None:  # a lifted variable; `kids` is its position, `fold` its kind
            vals.append(Lit(class_literal(g, vals[kids], fold)))
            continue
        xs = [vals[k] if type(k) is int else k for k in kids]
        if fold and type(xs[0]) is Lit and type(xs[1]) is Lit:
            vals.append(Lit(eval_builtin(op, (xs[0].value, xs[1].value))))
            continue
        xs = [x if type(x) is int else place(x) for x in xs]
        cid = None if None in xs else place(tuple.__new__(OpNode, (op, tuple(xs))))
        if cid is None:
            return None
        vals.append(cid)
    r = vals[root] if type(root) is int else root
    return r if type(r) is int else place(r)


# -- the driver -------------------------------------------------------------


def eqsat_step(
    g: EGraph,
    compiled: CompiledTheory,
    sched: BackoffScheduler,
    iteration: int,
    stats: dict[int, RuleStats],
    deadline: Optional[float] = None,
) -> tuple[bool, Optional[StopReason]]:
    """One search/apply/rebuild cycle, adding its times and matches to
    `stats`, on `g` rebuilt first if it changed since its last rebuild. Each
    rule's search builds only the matches newer than its last applied search
    (`BackoffState.since`). A rule none of whose directions finds every
    (operator, arity) it binds (`EMatchProgram.ops`) in the graph's index is
    dead: it has no match, so it is not searched, and it records only what
    a search finding nothing would, its `since`. A graph's keys only grow,
    so the rule was dead at every earlier step, and once alive every match
    it has is newer than that `since`. A dead direction of a live rule is
    not searched either: it adds no match. Every search of the step shares
    one run state (`machine.RunState`). Returns (changed, early stop).
    Once `time.perf_counter()` is past `deadline`, no further root is
    searched and no further match applied: the step rebuilds the graph and
    stops with `time-limit`, and a search that ran past the deadline is not
    reported to the scheduler; a dead rule is passed without looking at the
    clock."""
    v0 = g.version
    stop: Optional[StopReason] = None
    if len(stats) < len(compiled):  # a run's first step
        for idx, cr in enumerate(compiled):
            if idx not in stats:
                stats[idx] = RuleStats(cr.rule.name)

    # Phase 1: search (read-only), on a graph whose every row carries its
    # stamp, so that `searched` is the rebuild count each search ran at
    if not g.is_rebuilt():
        g.rebuild()
    searched = g.rebuilds
    # one run state, and its index, for every search below, with registers
    # for the largest program: the phase adds and merges nothing (a first
    # sign guard registers its analysis, which changes class data alone)
    n_regs = max([d.program.n_regs for cr in compiled for d in cr.directions], default=1)
    run = RunState(g, n_regs)
    keys = run.index.keys()
    # per rule searched and not banned: its index, whether it is a `!=` rule,
    # and per direction the matches its search kept; None stands for a match
    # the rule's last search kept, which was applied
    found: list[tuple[int, bool, list[list[Optional[EMatch]]]]] = []
    for idx, cr in enumerate(compiled):
        for d in cr.directions:
            if keys >= d.program.ops:
                break
        else:
            # dead, or with no directions: recorded as a search that found
            # nothing would be
            if cr.directions and cr.rule.kind is not RuleKind.UNEQUAL:
                sched.applied(idx, searched)
            continue
        if not sched.can_search(idx, iteration):
            continue
        t0 = time.perf_counter()
        limit = sched.search_limit(idx)
        # A match applied before has its right-hand side in the graph, in the
        # match's class, so applying it again on the rebuilt graph finds
        # e-nodes that exist or merges classes that congruence would merge in
        # the rebuild. A `!=` lookup that failed may succeed later, so it is
        # made every time: a `!=` rule never tells the scheduler it applied,
        # so its `since` stays -1.
        unequal = cr.rule.kind is RuleKind.UNEQUAL
        since = sched.states[idx].since
        matches: list[list[Optional[EMatch]]] = []
        n = 0
        for d in cr.directions:
            left = None if limit is None else limit - n
            if left == 0 or deadline is not None and time.perf_counter() > deadline:
                break
            if keys >= d.program.ops:
                matches.append(ematch_program(g, d.program, left, deadline, since, run))
            else:  # a dead direction of a live rule
                matches.append([])
            n += len(matches[-1])
        st = stats[idx]
        st.search_s += time.perf_counter() - t0
        st.matches += n
        if deadline is not None and time.perf_counter() > deadline:
            # the search may have been cut off: its count decides no ban
            stop = StopReason(TIME_LIMIT)
            break
        if not sched.inform(idx, n, iteration):  # a ban drops the matches
            found.append((idx, unequal, matches))

    # Phase 2: apply, one direction's matches at a time
    merge = g.merge
    try:
        for idx, unequal, matches in found:
            if stop is not None:
                break
            # a match is a non-empty tuple, a match not built None
            if any(map(any, matches)):
                cr = compiled[idx]
                st = stats[idx]
                t0 = time.perf_counter()
                for d, ms in zip(cr.directions, matches):
                    instantiate = d.instantiate
                    for m in filter(None, ms):
                        if deadline is not None and time.perf_counter() > deadline:
                            stop = StopReason(TIME_LIMIT)
                            break
                        st.applied += 1
                        rid = instantiate(g, m)
                        if unequal:
                            if rid is not None and g.find(rid) == g.find(m[0]):
                                stop = StopReason(CONTRADICTION, cr.rule.name)
                                break
                        elif rid != m[0]:  # most right-hand sides are there
                            merge(m[0], rid)
                    if stop is not None:
                        break
                st.apply_s += time.perf_counter() - t0
            if stop is None and not unequal:
                sched.applied(idx, searched)
    except CapacityExceeded as exc:
        stop = StopReason(exc.kind)

    # Phase 3: rebuild
    g.rebuild()
    return g.version != v0, stop


def saturate(
    g: EGraph,
    theory: Union[Theory, CompiledTheory],
    params: Optional[SaturationParams] = None,
) -> Report:
    """Saturates `g` with a theory, or with the result of `compile_theory`
    on one. A `Theory` is compiled on its first run and the result kept with
    it (`Theory.compiled`), so later runs reuse it until its rule list
    changes; a compiled theory is only read, so it can be passed again to
    later calls."""
    params = params or SaturationParams()
    compiled = _compiled(theory) if isinstance(theory, Theory) else theory
    weights = [2 if cr.mirrored else 1 for cr in compiled]
    sched = BackoffScheduler(weights, params.matchlimit)
    stats: dict[int, RuleStats] = {}
    old_limits = g.node_limit, g.class_limit
    g.node_limit, g.class_limit = params.enodelimit, params.eclasslimit
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
            if deadline is not None and time.perf_counter() > deadline:
                reason = StopReason(TIME_LIMIT)
                break
            iterations = iteration + 1
            changed, stop = eqsat_step(g, compiled, sched, iteration, stats, deadline)
            if params.printiter:
                print(
                    f"iteration {iterations}: {g.n_eclasses} classes, {g.n_enodes} nodes",
                    file=sys.stderr,
                )
            if stop is not None:
                reason = stop
                break
            # the step stops at the limit (`EGraph.class_limit`); a graph
            # that started over it and added no node passes it here
            if g.n_eclasses > params.eclasslimit:
                reason = StopReason(ECLASS_LIMIT)
                break
            if params.goal is not None and params.goal(g):
                reason = StopReason(GOAL_REACHED)
                break
            if not changed and sched.can_stop(iteration):
                reason = StopReason(SATURATED)
                break
        if reason is None:
            reason = StopReason(ITERATION_LIMIT)
    finally:
        g.node_limit, g.class_limit = old_limits
    return Report(reason, iterations, g.n_enodes, g.n_eclasses, stats)


def prove_equal(
    t1: Term,
    t2: Term,
    theory: Union[Theory, CompiledTheory],
    params: Optional[SaturationParams] = None,
) -> tuple[bool, Report]:
    """Whether saturating a graph of `t1` and `t2` with `theory` (a `Theory`
    or a compiled one, as for `saturate`) puts them in one e-class. A
    `Theory` is compiled once, by its first `saturate` run, and kept with
    it, so proving many pairs with one `Theory` compiles it once."""
    g = EGraph()
    a = g.add_term(t1)
    b = g.add_term(t2)
    params = replace(params or SaturationParams(), goal=AreEqual(t1, t2))
    if g.find(a) == g.find(b):
        return True, Report(StopReason(GOAL_REACHED), 0, g.n_enodes, g.n_eclasses)
    report = saturate(g, theory, params)
    return g.find(a) == g.find(b), report
