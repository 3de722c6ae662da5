"""Backtracking virtual machine for e-graph pattern matching.

A pattern compiles straight to a chain of closures, one per step of a
pre-order walk of the pattern: bind an operator's e-node, check a literal,
check a predicate, compare two registers, and last yield the match. Each
closure calls the next as its continuation (the idiom of the classical
matchers); machine registers hold e-class ids. A variable's first
occurrence with no guard emits no step, so most patterns end in a bind:
that leaf bind yields the match of each row it binds itself, one call per
match fewer than a bind followed by a yield. A search reads a rebuilt
graph: `ematch_program` and `run_program` first rebuild a graph with pending
merges or analysis updates (given a run state, they leave that to its
maker), so every e-node's children are canonical ids,
every register holds one, and the search itself merges nothing. A ground
subpattern compiles like any other subpattern: on a congruence-closed graph a
class holds a ground term's e-node exactly when a hashcons lookup would find
it there.

A bind reads the class's e-nodes of its operator and arity from the graph's
per-operator index (`EGraph.nodes_by_op`) in two dict lookups, in the order
of the class's nodes, and a search runs a pattern rooted at an operator only
on the classes that index lists under it. A program records every (operator,
arity) its binds read (`EMatchProgram.ops`); in the relational view a join
with an empty relation is empty, so a search on a graph whose index lacks one
of them returns no match and runs no root.

A run state (`RunState`) holds the graph, its index and the registers, and
one serves every search of a step: `eqsat_step` makes one after its opening
rebuild, with registers enough for its largest program, and hands it to each
`ematch_program` call, which hands it to `run_program` for each root. A run
only sets the root register, the list of the root's matches, its limit and
`since`. The registers need no reset between roots or programs, as every
step writes a register before any later step reads it. A search given no
run state makes its own.

A match (`EMatch`) is one flat tuple of class ids: the root class, then the
class of variable i at position 1 + i. A final step builds it from the
registers with one `itemgetter` call, in C, as one row of ids (egg's `Subst`,
the rows of relational e-matching). It holds class ids and nothing else: a
guard only checks its class, and a `=>` rule reads a guarded variable's
literal from the class when it builds (see `EMatchProgram.lifts`).

A run yields each match once, with no set to deduplicate them: on a rebuilt
graph each canonical e-node lies in exactly one class, so a match fixes,
bottom-up, the class of every pattern position and the e-node bound at every
operator. A search path is thus a function of its match.

A search given `since`, a rebuild count (`EGraph.rebuilds`), builds only the
matches that are new since then, in the manner of semi-naive evaluation
(Zhang et al., *Relational E-Matching*, POPL 2022). Each step hands its
continuation the newest stamp on the path so far (see `egraph.py`): a bind
that of the row it binds, and a step that reads a class beyond its rows (a
literal check, a predicate, the root of a pattern rooted at a variable or a
literal) that of the class. A path no newer than `since` existed, with the
same guard results, at a search made when the graph had made `since`
rebuilds, and as the path fixes the match, that search found the match. Such
a match is counted but not built: `None` takes its place in the result, so
that `len` of a result counts every match. A predicate reads only its own
class's nodes, literals and data (see `rules.py`), so the class's stamp
covers it. With `since=-1` every match is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Optional, Union

from .egraph import EGraph
from .errors import SegmentUnsupported
from .rules import (
    PatSegment,
    PatTerm,
    PatVar,
    Pattern,
    Predicate,
    resolve_predicate,
)
from .terms import Atom, Lit


@dataclass(frozen=True, eq=False)
class EMatchProgram:
    """A compiled pattern. It compares by identity: a closure has no useful
    equality."""

    # the first closure of the chain; it lives as long as the program
    start: Callable[["RunState", int], None] = field(repr=False)
    n_regs: int
    root_op: Optional[str]  # the operator the root binds; None for a leaf
    root_arity: int  # the root's number of arguments; 0 for a leaf
    ops: frozenset[tuple[str, int]]  # the (operator, arity) of every bind
    # variable index -> the literal kind its guard lifts (`Predicate.lift`)
    lifts: dict[int, str]


# A match: (root class, class of variable 0, class of variable 1, ...). A
# plain tuple, built in C, and hashed and compared in C.
EMatch = tuple[int, ...]


def compile_pattern(p: Pattern) -> EMatchProgram:
    # the steps in pre-order, each waiting for its continuation
    steps: list[Callable] = []
    var_regs: dict[int, int] = {}
    lifts: dict[int, str] = {}
    ops: set[tuple[str, int]] = set()
    next_reg = 1
    todo = [(p, 0)]  # the subpatterns still to walk, the next on top, and their registers
    while todo:
        pat, reg = todo.pop()
        if isinstance(pat, PatSegment):
            raise SegmentUnsupported(
                "segment variables are not supported by the e-graph matcher"
            )
        if isinstance(pat, PatVar):
            if pat.index in var_regs:
                steps.append(partial(_compare, var_regs[pat.index], reg))
                continue
            var_regs[pat.index] = reg
            if pat.predicate is not None:
                pred = resolve_predicate(pat.predicate)
                if pred.lift is not None:
                    lifts[pat.index] = pred.lift
                steps.append(partial(_check_predicate, reg, pred, pat.predicate.params))
            continue
        if isinstance(pat, (Atom, Lit)):
            steps.append(partial(_check_lit, reg, pat))
            continue
        if isinstance(pat.op, PatVar):
            raise SegmentUnsupported(
                "operation-position variables are not supported by the e-graph matcher"
            )
        base = next_reg
        next_reg += len(pat.args)
        ops.add((pat.op, len(pat.args)))
        steps.append(partial(_bind, reg, pat.op, len(pat.args), base))
        todo += zip(reversed(pat.args), range(next_reg - 1, base - 1, -1))
    n_vars = len(var_regs)
    assert sorted(var_regs) == list(range(n_vars))
    var_regs = tuple(var_regs[i] for i in range(n_vars))
    if steps and steps[-1].func is _bind:  # the leaf bind yields
        k = _bind_yield(*steps.pop().args, var_regs)
    else:
        k = _yield(var_regs)
    for step in reversed(steps):
        k = step(k)
    ops = frozenset(ops)
    if isinstance(p, PatTerm):
        return EMatchProgram(k, next_reg, p.op, len(p.args), ops, lifts)
    return EMatchProgram(k, next_reg, None, 0, ops, lifts)


class _Full(Exception):
    """Ends a run that holds as many matches as it was asked for."""


class RunState:
    """The state of the runs of programs of at most `n_regs` registers on
    one rebuilt graph, one root class after another; `run_program` sets the
    per-root fields. It reads the graph's index when made, so it serves
    until the graph next changes."""

    __slots__ = ("g", "classes", "index", "regs", "found", "limit", "since")

    def __init__(self, g: EGraph, n_regs: int):
        self.g = g
        self.classes = g.classes
        self.index = g.nodes_by_op()
        self.regs: list[Optional[int]] = [None] * n_regs
        self.found: list[Optional[EMatch]] = []
        self.limit: Optional[int] = None
        self.since = -1


# One closure maker per step: each takes the step's operands and the closure
# of the step after it, but the last step (a yield, or a leaf bind that
# yields) takes the registers of the variables. A closure takes the run and
# the newest stamp on the path so far. The graph is rebuilt, so every register
# holds a canonical class id and no closure calls `find`.
# A closure gets what it needs as default arguments, not from enclosing
# cells: every cell is one more object for the cycle collector to track, and
# every compile of a theory makes a closure per step of every rule.


def _bind(reg: int, op: str, arity: int, base: int, k):
    key = (op, arity)
    end = base + arity

    # a run starts only on an index that lists every bind's key (`ops`)
    def bind(r: RunState, t, reg=reg, key=key, base=base, end=end, k=k):
        regs = r.regs
        for children, stamp in r.index[key].get(regs[reg], ()):
            regs[base:end] = children
            k(r, stamp if stamp > t else t)

    return bind


def _check_lit(reg: int, leaf: Union[Atom, Lit], k):
    # a literal leaf is its own e-node
    def check_lit(r: RunState, t, reg=reg, leaf=leaf, k=k):
        cls = r.classes[r.regs[reg]]
        if leaf in cls.nodes:
            stamp = cls.stamp
            k(r, stamp if stamp > t else t)

    return check_lit


def _check_predicate(reg: int, pred: Predicate, params: tuple[float, ...], k):
    def check(r: RunState, t, pred=pred, reg=reg, params=params, k=k):
        cid = r.regs[reg]
        if pred.egraph(r.g, cid, params):
            # read after the check: a graph's first sign guard registers the
            # sign analysis, which stamps the classes it sets
            stamp = r.classes[cid].stamp
            k(r, stamp if stamp > t else t)

    return check


def _compare(i: int, j: int, k):
    def compare(r: RunState, t, i=i, j=j, k=k):
        regs = r.regs
        if regs[i] == regs[j]:
            k(r, t)

    return compare


def _match_of(var_regs: tuple[int, ...]):
    # the match, read from the registers in C; an `itemgetter` of the root
    # register alone gives a bare value, so a pattern with no variable has its
    # own reader
    if var_regs:
        return itemgetter(0, *var_regs)
    return lambda regs: (regs[0],)


def _bind_yield(reg: int, op: str, arity: int, base: int, var_regs: tuple[int, ...]):
    # a bind that is the last step, with the yield inlined: no later step
    # reads the registers it writes, so it writes them only to build a match
    key = (op, arity)
    end = base + arity
    match_of = _match_of(var_regs)

    def bind_yield(
        r: RunState, t, reg=reg, key=key, base=base, end=end, match_of=match_of
    ):
        regs = r.regs
        found = r.found
        since = r.since
        limit = r.limit
        for children, stamp in r.index[key].get(regs[reg], ()):
            if t > since or stamp > since:
                regs[base:end] = children
                found.append(match_of(regs))
            else:
                found.append(None)  # found before: counted, not built
            if len(found) == limit:
                raise _Full

    return bind_yield


def _yield(var_regs: tuple[int, ...]):
    match_of = _match_of(var_regs)

    def yield_(r: RunState, t, match_of=match_of):
        found = r.found
        if t > r.since:
            found.append(match_of(r.regs))
        else:
            found.append(None)  # found before: counted, not built
        if len(found) == r.limit:
            raise _Full

    return yield_


def run_program(
    g: EGraph,
    prog: EMatchProgram,
    root: int,
    limit: Optional[int] = None,
    since: int = -1,
    run: Optional[RunState] = None,
) -> list[Optional[EMatch]]:
    """Depth-first execution from the class of `root`, on the graph rebuilt
    first if it is not; enumeration follows class-node insertion order. No
    match comes twice, as the graph is rebuilt (see the module docstring);
    with a `limit` the run stops as soon as it holds that many. A match whose
    path is no newer than rebuild `since` is None in the result. `run` is
    the state `ematch_program` shares across its roots: a run given one takes
    the graph as rebuilt, `root` as canonical, `limit` as None or positive,
    and the run's index as listing every (operator, arity) of `prog.ops`."""
    if run is None:
        if g.pending or g.analysis_worklist:
            g.rebuild()
        if limit == 0:
            return []
        if root not in g.classes:  # the classes are keyed by their canonical ids
            root = g.find(root)
        run = RunState(g, prog.n_regs)
        if not run.index.keys() >= prog.ops:
            return []
    run.regs[0] = root
    run.found = found = []
    run.limit = limit
    run.since = since
    # a pattern rooted at an operator reads its root class's rows; one rooted
    # at a variable or a literal matches the class itself
    t = -1 if prog.root_op is not None else run.classes[root].stamp
    try:
        prog.start(run, t)
    except _Full:
        pass
    return found


def ematch(g: EGraph, p: Pattern) -> list[EMatch]:
    prog = compile_pattern(p)
    return ematch_program(g, prog)


def ematch_program(
    g: EGraph,
    prog: EMatchProgram,
    limit: Optional[int] = None,
    deadline: Optional[float] = None,
    since: int = -1,
    run: Optional[RunState] = None,
) -> list[Optional[EMatch]]:
    """Every match of `prog`, root classes in id order, on the graph rebuilt
    first if it is not; with a `limit`, the first `limit` of them. A program
    that starts by binding an operator runs only on the classes that
    `nodes_by_op` lists under its operator and arity, and none runs at all
    when the index lacks an (operator, arity) that one of its binds reads.
    The roots share one run state, each run through `run_program`: `run`
    when given, which the caller vouches for (the graph is rebuilt, the
    run's index is current and lists every key of `prog.ops`, and it has
    `prog.n_regs` registers or more), else one made here. Once
    `time.perf_counter()` is past `deadline`, no further root is run: the
    matches are then those of the roots run so far. A match whose search
    path is no newer than rebuild `since` (see the module docstring) is
    counted but not built: None stands in its place. With the default -1
    every match is built."""
    if run is None:
        if g.pending or g.analysis_worklist:
            g.rebuild()
        run = RunState(g, prog.n_regs)
        if not run.index.keys() >= prog.ops:
            return []
    if limit == 0:
        return []
    if prog.root_op is not None:
        roots = run.index[prog.root_op, prog.root_arity]
    else:
        roots = g.canonical_ids()
    out: list[Optional[EMatch]] = []
    for cid in roots:
        # matches of different roots differ in their class, so runs cannot
        # repeat one another's
        left = None if limit is None else limit - len(out)
        out += run_program(g, prog, cid, left, since, run)
        if len(out) == limit:
            break
        if deadline is not None and time.perf_counter() > deadline:
            break
    return out
