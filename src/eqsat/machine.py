"""Backtracking virtual machine for e-graph pattern matching.

Patterns compile to short instruction programs; machine registers hold
e-class ids. A search reads a rebuilt graph: `ematch_program` and
`run_program` first rebuild a graph with pending merges or analysis updates,
so every e-node's children are canonical ids, every register holds one, and
the search itself merges nothing. A ground subpattern compiles like any other
subpattern: on a congruence-closed graph a class holds a ground term's e-node
exactly when a hashcons lookup would find it there.

A run yields each match once, with no set to deduplicate them: on a rebuilt
graph each canonical e-node lies in exactly one class, so a match (its root
class and the classes of its variables) fixes, bottom-up, the class of every
pattern position and the e-node taken at every `Bind`. A search path is thus
a function of its match, and a lifted literal is a function of its class.

Each program is also compiled, once, into a chain of closures, one per
instruction, each calling the next as its continuation (the idiom of the
classical matchers). The instructions stay as a view of the program, for
`disassemble` and for tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

from .egraph import EGraph, LitNode, OpNode
from .errors import InconsistentClass, SegmentUnsupported
from .rules import (
    PatLit,
    PatSegment,
    PatVar,
    Pattern,
    PredicateRef,
    class_literals,
    resolve_predicate,
)
from .terms import Number


@dataclass(frozen=True)
class Bind:
    reg: int
    op: str
    arity: int
    out_base: int


@dataclass(frozen=True)
class CheckLit:
    reg: int
    value: Union[Number, str]


@dataclass(frozen=True)
class CheckPredicate:
    reg: int
    pred: PredicateRef
    bindlit: bool


@dataclass(frozen=True)
class Compare:
    reg_i: int
    reg_j: int


@dataclass(frozen=True)
class Yield:
    var_regs: tuple[int, ...]


Instruction = Union[Bind, CheckLit, CheckPredicate, Compare, Yield]


@dataclass(frozen=True)
class EMatchProgram:
    instructions: tuple[Instruction, ...]
    n_regs: int
    # the first closure of the compiled chain; it lives as long as the program
    start: Callable[["_Run"], None] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start", _compile_chain(self.instructions))


class EMatch(NamedTuple):
    """A tuple, so that hashing and comparing it run in C."""

    class_id: int
    bindings: tuple[int, ...]  # the class of variable i at position i
    literal_bindings: tuple[tuple[int, Union[Number, str]], ...]

    def binding_dict(self) -> dict[int, int]:
        return dict(enumerate(self.bindings))

    def literal_dict(self) -> dict[int, Union[Number, str]]:
        return dict(self.literal_bindings)


_LIFTING = {"number", "int", "real"}


def compile_pattern(p: Pattern) -> EMatchProgram:
    instrs: list[Instruction] = []
    var_regs: dict[int, int] = {}
    next_reg = 1

    def emit(pat: Pattern, reg: int):
        nonlocal next_reg
        if isinstance(pat, PatSegment):
            raise SegmentUnsupported(
                "segment variables are not supported by the e-graph matcher"
            )
        if isinstance(pat, PatVar):
            if pat.index in var_regs:
                instrs.append(Compare(var_regs[pat.index], reg))
                return
            var_regs[pat.index] = reg
            if pat.predicate is not None:
                pred = resolve_predicate(pat.predicate)
                instrs.append(
                    CheckPredicate(reg, pat.predicate, pred.lift in _LIFTING)
                )
            return
        if isinstance(pat, PatLit):
            instrs.append(CheckLit(reg, pat.value))
            return
        if isinstance(pat.op, PatVar):
            raise SegmentUnsupported(
                "operation-position variables are not supported by the e-graph matcher"
            )
        base = next_reg
        next_reg += len(pat.args)
        instrs.append(Bind(reg, pat.op, len(pat.args), base))
        for k, a in enumerate(pat.args):
            emit(a, base + k)

    emit(p, 0)
    del emit  # the closure refers to itself; clearing it spares the cycle collector
    n_vars = len(var_regs)
    yield_regs = tuple(var_regs[i] for i in sorted(var_regs))
    assert sorted(var_regs) == list(range(n_vars))
    instrs.append(Yield(yield_regs))
    return EMatchProgram(tuple(instrs), next_reg)


def disassemble(prog: EMatchProgram) -> str:
    lines = []
    for ins in prog.instructions:
        if isinstance(ins, Bind):
            lines.append(f"BIND r{ins.reg} {ins.op} /{ins.arity} -> r{ins.out_base}")
        elif isinstance(ins, CheckLit):
            lines.append(f"CHECK_LIT r{ins.reg} {ins.value}")
        elif isinstance(ins, CheckPredicate):
            lift = " lift" if ins.bindlit else ""
            lines.append(f"CHECK_PRED r{ins.reg} {ins.pred.name}{lift}")
        elif isinstance(ins, Compare):
            lines.append(f"COMPARE r{ins.reg_i} r{ins.reg_j}")
        else:
            regs = " ".join(f"r{r}" for r in ins.var_regs)
            lines.append(f"YIELD {regs}")
    return "\n".join(lines)


class _Full(Exception):
    """Ends a run that holds as many matches as it was asked for."""


class _Run:
    """The state of one run of a program from one root class."""

    __slots__ = ("g", "classes", "regs", "lits", "found", "limit")

    def __init__(self, g, n_regs, root, limit):
        self.g = g
        self.classes = g.classes
        self.regs: list[Optional[int]] = [None] * n_regs
        self.regs[0] = root
        self.lits: dict[int, Union[Number, str]] = {}  # register -> lifted literal
        self.found: list[EMatch] = []
        self.limit = limit


# One closure maker per instruction: each takes the instruction and the
# closure of the instruction after it. The graph is rebuilt, so every
# register holds a canonical class id and no closure calls `find`.
# A closure gets what it needs as default arguments, not from enclosing
# cells: every cell is one more object for the cycle collector to track, and
# each `saturate` call compiles a closure per instruction of every rule.


def _bind(ins: Bind, k):
    reg, op, arity, base = ins.reg, ins.op, ins.arity, ins.out_base
    end = base + arity

    def bind(r: _Run, reg=reg, op=op, arity=arity, base=base, end=end, k=k):
        regs = r.regs
        matching = [
            n.children
            for n in r.classes[regs[reg]].nodes
            if type(n) is OpNode and n.op == op and len(n.children) == arity
        ]
        for children in matching:
            regs[base:end] = children
            k(r)

    return bind


def _check_lit(ins: CheckLit, k):
    reg, node = ins.reg, LitNode(ins.value)

    def check_lit(r: _Run, reg=reg, node=node, k=k):
        if node in r.classes[r.regs[reg]].nodes:
            k(r)

    return check_lit


def _check_predicate(ins: CheckPredicate, k):
    reg, params = ins.reg, ins.pred.params
    pred = resolve_predicate(ins.pred)
    if not ins.bindlit:

        def check(r: _Run, pred=pred, reg=reg, params=params, k=k):
            if pred.egraph(r.g, r.regs[reg], params):
                k(r)

        return check
    kind = pred.lift
    # a literal-kind predicate holds exactly when the class has a literal of
    # its kind, so the literals lifted for binding decide it
    by_literals = pred.name in _LIFTING

    def check_lift(
        r: _Run, pred=pred, reg=reg, params=params, kind=kind, by_lits=by_literals, k=k
    ):
        g = r.g
        cid = r.regs[reg]
        if not by_lits and not pred.egraph(g, cid, params):
            return
        lits = class_literals(g, cid, kind)
        if len(lits) > 1:
            raise InconsistentClass(f"class c{cid} holds distinct literals {lits}")
        if not lits:
            if not by_lits:
                k(r)
            return
        r.lits[reg] = lits[0]
        k(r)
        del r.lits[reg]

    return check_lift


def _compare(ins: Compare, k):
    i, j = ins.reg_i, ins.reg_j

    def compare(r: _Run, i=i, j=j, k=k):
        regs = r.regs
        if regs[i] == regs[j]:
            k(r)

    return compare


def _yield(ins: Yield, lifted: list[int]):
    var_regs = ins.var_regs
    lit_vars = [(i, reg) for i, reg in enumerate(var_regs) if reg in lifted]

    def yield_(r: _Run, var_regs=var_regs, lit_vars=lit_vars):
        regs, lits = r.regs, r.lits
        bindings = tuple([regs[reg] for reg in var_regs])
        lit_bindings = tuple([(i, lits[reg]) for i, reg in lit_vars if reg in lits])
        found = r.found
        found.append(EMatch(regs[0], bindings, lit_bindings))
        if len(found) == r.limit:
            raise _Full

    return yield_


_CLOSURE_MAKERS = {
    Bind: _bind,
    CheckLit: _check_lit,
    CheckPredicate: _check_predicate,
    Compare: _compare,
}


def _compile_chain(instrs: tuple[Instruction, ...]):
    """The closure that runs `instrs` (ending in `Yield`) from the first."""
    lifted = [ins.reg for ins in instrs if type(ins) is CheckPredicate and ins.bindlit]
    k = _yield(instrs[-1], lifted)
    for ins in reversed(instrs[:-1]):
        k = _CLOSURE_MAKERS[type(ins)](ins, k)
    return k


def run_program(
    g: EGraph, prog: EMatchProgram, root: int, limit: Optional[int] = None
) -> list[EMatch]:
    """Depth-first execution from the class of `root`, on the graph rebuilt
    first if it is not; enumeration follows class-node insertion order. No
    match comes twice, as the graph is rebuilt (see the module docstring);
    with a `limit` the run stops as soon as it holds that many."""
    if g.pending or g.analysis_worklist:
        g.rebuild()
    if limit == 0:
        return []
    run = _Run(g, prog.n_regs, g.find(root), limit)
    try:
        prog.start(run)
    except _Full:
        pass
    return run.found


def ematch(g: EGraph, p: Pattern) -> list[EMatch]:
    prog = compile_pattern(p)
    return ematch_program(g, prog)


def ematch_program(
    g: EGraph,
    prog: EMatchProgram,
    limit: Optional[int] = None,
    deadline: Optional[float] = None,
) -> list[EMatch]:
    """Every match of `prog`, root classes in id order, on the graph rebuilt
    first if it is not; with a `limit`, the first `limit` of them. A program
    that starts by binding an operator runs only on the classes holding that
    operator. Once `time.perf_counter()` is past `deadline`, no further root
    is run: the matches are then those of the roots run so far."""
    if g.pending or g.analysis_worklist:
        g.rebuild()
    first = prog.instructions[0]
    if type(first) is Bind:
        roots = g.classes_by_op().get(first.op, ())
    else:
        roots = g.canonical_ids()
    out: list[EMatch] = []
    for cid in roots:
        # matches of different roots differ in their class, so runs cannot
        # repeat one another's
        left = None if limit is None else limit - len(out)
        out += run_program(g, prog, cid, left)
        if len(out) == limit:
            break
        if deadline is not None and time.perf_counter() > deadline:
            break
    return out
