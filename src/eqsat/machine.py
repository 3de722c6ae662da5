"""Backtracking virtual machine for e-graph pattern matching.

Patterns compile to short instruction programs; machine registers hold
e-class ids. Maximal ground subpatterns are resolved once per search (lookup
only, never growing the graph) and checked with a single instruction.

Each program is also compiled, once, into a chain of closures, one per
instruction, each calling the next as its continuation (the idiom of the
classical matchers). The instructions stay as a view of the program, for
`disassemble` and for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

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
from .terms import Atom, Compound, Lit, Number, Term, print_term


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
class LookupGround:
    reg: int
    ground: Term


@dataclass(frozen=True)
class Yield:
    var_regs: tuple[int, ...]


Instruction = Union[Bind, CheckLit, CheckPredicate, Compare, LookupGround, Yield]


@dataclass(frozen=True)
class EMatchProgram:
    instructions: tuple[Instruction, ...]
    n_regs: int
    ground_subterms: tuple[Term, ...]
    # the first closure of the compiled chain; it lives as long as the program
    start: Callable[["_Run"], None] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start", _compile_chain(self.instructions))


@dataclass(frozen=True, slots=True)
class EMatch:
    class_id: int
    bindings: tuple[tuple[int, int], ...]  # (var index, class id), sorted
    literal_bindings: tuple[tuple[int, Union[Number, str]], ...]

    def binding_dict(self) -> dict[int, int]:
        return dict(self.bindings)

    def literal_dict(self) -> dict[int, Union[Number, str]]:
        return dict(self.literal_bindings)


_LIFTING = {"number", "int", "real"}


def _is_ground(p: Pattern) -> bool:
    if isinstance(p, (PatVar, PatSegment)):
        return False
    if isinstance(p, PatLit):
        return True
    if isinstance(p.op, PatVar):
        return False
    return all(_is_ground(a) for a in p.args)


def _ground_term(p: Pattern) -> Term:
    if isinstance(p, PatLit):
        return Atom(p.value) if isinstance(p.value, str) else Lit(p.value)
    return Compound(p.op, tuple(_ground_term(a) for a in p.args))


def compile_pattern(p: Pattern) -> EMatchProgram:
    instrs: list[Instruction] = []
    grounds: list[Term] = []
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
        if _is_ground(pat):
            gt = _ground_term(pat)
            grounds.append(gt)
            instrs.append(LookupGround(reg, gt))
            return
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
    return EMatchProgram(tuple(instrs), next_reg, tuple(grounds))


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
        elif isinstance(ins, LookupGround):
            lines.append(f"LOOKUP r{ins.reg} {print_term(ins.ground)}")
        else:
            regs = " ".join(f"r{r}" for r in ins.var_regs)
            lines.append(f"YIELD {regs}")
    return "\n".join(lines)


class _Full(Exception):
    """Ends a run that holds as many matches as it was asked for."""


class _Run:
    """The state of one run of a program from one root class."""

    __slots__ = ("g", "find", "regs", "lits", "found", "pairs", "grounds", "limit")

    def __init__(self, g, n_regs, root, grounds, limit):
        self.g = g
        self.find = g.find
        self.regs: list[Optional[int]] = [None] * n_regs
        self.regs[0] = self.find(root)
        self.lits: dict[int, Union[Number, str]] = {}  # register -> lifted literal
        self.found: dict[EMatch, None] = {}  # insertion-ordered set
        # matches share equal (var, class) pairs: fewer objects for the collector
        self.pairs: dict[tuple[int, int], tuple[int, int]] = {}
        self.grounds = grounds
        self.limit = limit


# One closure maker per instruction: each takes the instruction and the
# closure of the instruction after it. A register a closure reads may hold a
# class id that a merge has since made stale, so every reader calls `find`.
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
            for n in r.g.class_nodes(regs[reg])
            if type(n) is OpNode and n.op == op and len(n.children) == arity
        ]
        for children in matching:
            regs[base:end] = children
            k(r)

    return bind


def _check_lit(ins: CheckLit, k):
    reg, node = ins.reg, LitNode(ins.value)

    def check_lit(r: _Run, reg=reg, node=node, k=k):
        # a literal node has no children, so it is always canonical
        if node in r.g.class_nodes(r.regs[reg]):
            k(r)

    return check_lit


def _check_predicate(ins: CheckPredicate, k):
    reg, params = ins.reg, ins.pred.params
    pred = resolve_predicate(ins.pred)
    if not ins.bindlit:

        def check(r: _Run, pred=pred, reg=reg, params=params, k=k):
            if pred.egraph(r.g, r.find(r.regs[reg]), params):
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
        cid = r.find(r.regs[reg])
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
        find, regs = r.find, r.regs
        if find(regs[i]) == find(regs[j]):
            k(r)

    return compare


def _lookup_ground(ins: LookupGround, k):
    reg, ground = ins.reg, ins.ground

    def lookup_ground(r: _Run, reg=reg, ground=ground, k=k):
        find = r.find
        if find(r.regs[reg]) == find(r.grounds[ground]):
            k(r)

    return lookup_ground


def _yield(ins: Yield, lifted: list[int]):
    var_regs = ins.var_regs
    lit_vars = [(i, reg) for i, reg in enumerate(var_regs) if reg in lifted]

    def yield_(r: _Run, var_regs=var_regs, lit_vars=lit_vars):
        find, regs, pairs = r.find, r.regs, r.pairs
        ids = enumerate([find(regs[reg]) for reg in var_regs])
        bindings = tuple([pairs.setdefault(p, p) for p in ids])
        lits = r.lits
        lit_bindings = tuple([(i, lits[reg]) for i, reg in lit_vars if reg in lits])
        found = r.found
        found[EMatch(find(regs[0]), bindings, lit_bindings)] = None
        if len(found) == r.limit:
            raise _Full

    return yield_


_CLOSURE_MAKERS = {
    Bind: _bind,
    CheckLit: _check_lit,
    CheckPredicate: _check_predicate,
    Compare: _compare,
    LookupGround: _lookup_ground,
}


def _compile_chain(instrs: tuple[Instruction, ...]):
    """The closure that runs `instrs` (ending in `Yield`) from the first."""
    lifted = [ins.reg for ins in instrs if type(ins) is CheckPredicate and ins.bindlit]
    k = _yield(instrs[-1], lifted)
    for ins in reversed(instrs[:-1]):
        k = _CLOSURE_MAKERS[type(ins)](ins, k)
    return k


def run_program(
    g: EGraph,
    prog: EMatchProgram,
    root: int,
    ground_ids: Optional[dict[Term, int]] = None,
    limit: Optional[int] = None,
) -> list[EMatch]:
    """Depth-first execution; enumeration follows class-node insertion order.
    Each distinct match comes once, and with a `limit` the run stops as soon
    as it holds that many."""
    if ground_ids is None:
        ground_ids = resolve_grounds(g, prog)
    if ground_ids is None or limit == 0:
        return []
    run = _Run(g, prog.n_regs, root, ground_ids, limit)
    try:
        prog.start(run)
    except _Full:
        pass
    return list(run.found)


def resolve_grounds(g: EGraph, prog: EMatchProgram) -> Optional[dict[Term, int]]:
    """Lookup-only pre-resolution; None when any ground subterm is absent.
    Lookups read the hashcons, which only a rebuild makes whole after a
    merge, so pending merges are rebuilt first."""
    if prog.ground_subterms and g.worklist:
        g.rebuild()
    ids: dict[Term, int] = {}
    for gt in prog.ground_subterms:
        cid = g.lookup_term(gt)
        if cid is None:
            return None
        ids[gt] = cid
    return ids


def ematch(g: EGraph, p: Pattern) -> list[EMatch]:
    prog = compile_pattern(p)
    return ematch_program(g, prog)


def ematch_program(
    g: EGraph, prog: EMatchProgram, limit: Optional[int] = None
) -> list[EMatch]:
    """Every match of `prog`, root classes in id order; with a `limit`, the
    first `limit` of them. A program that starts by binding an operator runs
    only on the classes holding that operator."""
    ground_ids = resolve_grounds(g, prog)
    if ground_ids is None:
        return []
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
        out += run_program(g, prog, cid, ground_ids, left)
        if len(out) == limit:
            break
    return out
