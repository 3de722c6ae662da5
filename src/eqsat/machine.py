"""Backtracking virtual machine for e-graph pattern matching.

Patterns compile to short instruction programs; machine registers hold
e-class ids. Maximal ground subpatterns are resolved once per search (lookup
only, never growing the graph) and checked with a single instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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
    find = g.find
    regs: list[Optional[int]] = [None] * prog.n_regs
    regs[0] = find(root)
    lit_regs: dict[int, Union[Number, str]] = {}
    found: dict[EMatch, None] = {}  # insertion-ordered set
    instrs = prog.instructions
    # matches share equal (var, class) pairs: fewer objects for the collector
    pairs: dict[tuple[int, int], tuple[int, int]] = {}

    def step(pc: int):
        ins = instrs[pc]
        kind = type(ins)
        if kind is Bind:
            op, arity, base = ins.op, ins.arity, ins.out_base
            matching = [
                n.children
                for n in g.class_nodes(regs[ins.reg])
                if type(n) is OpNode and n.op == op and len(n.children) == arity
            ]
            for children in matching:
                regs[base : base + arity] = children  # each reader canonicalizes
                step(pc + 1)
            return
        if kind is Yield:
            ids = enumerate([find(regs[r]) for r in ins.var_regs])
            bindings = tuple([pairs.setdefault(p, p) for p in ids])
            lits = tuple(
                (i, lit_regs[r]) for i, r in enumerate(ins.var_regs) if r in lit_regs
            )
            found[EMatch(find(root), bindings, lits)] = None
            if len(found) == limit:
                raise _Full
            return
        if kind is CheckLit:
            # a literal node has no children, so it is always canonical
            if LitNode(ins.value) in g.class_nodes(regs[ins.reg]):
                step(pc + 1)
            return
        if kind is CheckPredicate:
            cid = find(regs[ins.reg])
            pred = resolve_predicate(ins.pred)
            if not pred.egraph(g, cid, ins.pred.params):
                return
            if ins.bindlit:
                lits = class_literals(g, cid, pred.lift or "number")
                if len(lits) > 1:
                    raise InconsistentClass(
                        f"class c{cid} holds distinct literals {lits}"
                    )
                if lits:
                    lit_regs[ins.reg] = lits[0]
                    step(pc + 1)
                    del lit_regs[ins.reg]
                    return
            step(pc + 1)
            return
        if kind is Compare:
            if find(regs[ins.reg_i]) == find(regs[ins.reg_j]):
                step(pc + 1)
            return
        # LookupGround
        if find(regs[ins.reg]) == find(ground_ids[ins.ground]):
            step(pc + 1)

    try:
        step(0)
    except _Full:
        pass
    del step  # the closure refers to itself; clearing it spares the cycle collector
    return list(found)


def resolve_grounds(g: EGraph, prog: EMatchProgram) -> Optional[dict[Term, int]]:
    """Lookup-only pre-resolution; None when any ground subterm is absent."""
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
