"""Pattern AST, rule kinds, predicate registry and the theory file parser.

Rule files are line-oriented: `#` starts a comment, `@vars a b c` declares
bare pattern-variable names for the rules that follow, `@name foo` names the
next rule. A rule line is two S-expressions joined by one of the operators
`-->` (rewrite), `=>` (dynamic), `==` (equality), `!=` (unequal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

from . import terms
from .analysis import class_sign
from .errors import (
    InconsistentClass,
    RuleSyntaxError,
    SExprSyntaxError,
    UnboundRhsVariable,
    UnknownPredicate,
)
from .terms import (
    ATOM_RE,
    Atom,
    Lit,
    Number,
    Term,
    classify_token,
    print_number,
    print_sexpr,
    print_term,
    read_sexpr,
    tokenize,
)

# ---------------------------------------------------------------------------
# Pattern AST


@dataclass(frozen=True)
class PredicateRef:
    name: str
    params: tuple[float, ...] = ()


@dataclass(frozen=True)
class PatVar:
    name: str
    index: int
    predicate: Optional[PredicateRef] = None


@dataclass(frozen=True)
class PatSegment:
    name: str
    index: int
    predicate: Optional[PredicateRef] = None


@dataclass(frozen=True, eq=False)
class PatTerm:
    op: Union[str, PatVar]
    args: tuple["Pattern", ...]

    def __eq__(self, other):
        if not isinstance(other, PatTerm):
            return NotImplemented
        return terms.tree_eq(self, other)

    def __hash__(self):
        return terms.tree_hash(self)


# A literal leaf of a pattern is the term leaf it matches: an `Atom` or a `Lit`.
Pattern = Union[PatVar, PatSegment, Atom, Lit, PatTerm]


class RuleKind(Enum):
    REWRITE = "-->"
    DYNAMIC = "=>"
    EQUALITY = "=="
    UNEQUAL = "!="


@dataclass(eq=False)
class Rule:
    kind: RuleKind
    lhs: Pattern
    rhs: Pattern
    name: str
    patvar_names: tuple[str, ...]

    def __str__(self):
        return f"{print_pattern(self.lhs)} {self.kind.value} {print_pattern(self.rhs)}"


@dataclass
class Theory:
    name: str
    rules: list[Rule] = field(default_factory=list)
    # what `saturate` compiled of the theory, kept for its later runs: (the
    # rules it compiled, as a tuple, and the compiled theory). A changed rule
    # list compiles again.
    compiled: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __add__(self, other: "Theory") -> "Theory":
        return Theory(f"{self.name}+{other.name}", self.rules + other.rules)


# ---------------------------------------------------------------------------
# Predicate registry
#
# Each predicate carries the two evaluation modes: a classical check over a
# Term and an e-graph check over (EGraph, class id). `lift` names the literal
# kind a class that passes the e-graph check holds (None = no lifting): the
# check reads it with `class_literal`, and a `=>` rule builds with it.
#
# An e-graph check reads nothing but its own class's nodes (`class_nodes`),
# its literal nodes (`class_lits`, which `class_literals` filters by kind) and
# its analysis data (`getdata`). The stamped search (see `machine.py`) relies
# on this: a class's stamp moves whenever its literals or its data change, so
# a predicate's result on a class whose stamp has not moved is unchanged too.


@dataclass(frozen=True)
class Predicate:
    name: str
    n_params: int
    classical: Callable  # (Term, params) -> bool
    egraph: Callable  # (EGraph, class_id, params) -> bool
    lift: Optional[str] = None  # "number" | "int" | "real"


def resolve_predicate(ref: PredicateRef) -> Predicate:
    pred = _REGISTRY.get(ref.name)
    if pred is None:
        raise UnknownPredicate(f"unknown predicate {ref.name!r}")
    if len(ref.params) != pred.n_params:
        raise UnknownPredicate(
            f"{ref.name} takes {pred.n_params} parameter(s), got {len(ref.params)}"
        )
    return pred


def _lit_value(t: Term) -> Optional[Number]:
    return t.value if isinstance(t, Lit) else None


def _kind_ok(v, kind: str) -> bool:
    if kind == "int":
        return isinstance(v, int)
    if kind == "real":
        return isinstance(v, float)
    return isinstance(v, (int, float))


def class_literals(g, cid, kind: str = "number") -> list:
    """The literal values of the given kind in an e-class. They are distinct:
    a class's nodes are a set, and a `Lit` compares by value."""
    return [n.value for n in g.class_lits(cid) if _kind_ok(n.value, kind)]


def class_literal(g, cid, kind: str = "number"):
    """The one literal of the given kind in an e-class, or None. Raises
    InconsistentClass when the class holds two distinct ones."""
    lits = class_literals(g, cid, kind)
    if len(lits) > 1:
        raise InconsistentClass(f"class c{cid} holds distinct literals {lits}")
    return lits[0] if lits else None


def _builtin_predicates() -> dict[str, Predicate]:
    def lit_kind_pred(kind):
        def classical(t, params):
            v = _lit_value(t)
            return v is not None and _kind_ok(v, kind)

        def egraph(g, cid, params):
            return class_literal(g, cid, kind) is not None

        return Predicate(kind, 0, classical, egraph, lift=kind)

    def near_zero_classical(t, params):
        v = _lit_value(t)
        return v is not None and not math.isnan(v) and abs(v) <= params[0]

    def near_zero_egraph(g, cid, params):
        v = class_literal(g, cid, "number")
        return v is not None and not math.isnan(v) and abs(v) <= params[0]

    def iszero_classical(t, params):
        v = _lit_value(t)
        return v is not None and v == 0

    def iszero_egraph(g, cid, params):
        return class_sign(g, cid) == 0

    def notzero_classical(t, params):
        v = _lit_value(t)
        return v is not None and not math.isnan(v) and v != 0

    def notzero_egraph(g, cid, params):
        s = class_sign(g, cid)
        return s is not None and not math.isnan(s) and s != 0

    def csf_classical(t, params):
        v = _lit_value(t)
        return (
            v is not None and v != 0 and not math.isnan(v) and not math.isinf(v)
        )

    def csf_egraph(g, cid, params):
        s = class_sign(g, cid)
        return s is not None and s in (1, -1)

    preds = [lit_kind_pred(kind) for kind in ("number", "int", "real")] + [
        Predicate("near_zero", 1, near_zero_classical, near_zero_egraph, lift="number"),
        Predicate("iszero", 0, iszero_classical, iszero_egraph),
        Predicate("notzero", 0, notzero_classical, notzero_egraph),
        Predicate("cansimplifyfraction", 0, csf_classical, csf_egraph),
    ]
    return {p.name: p for p in preds}


_REGISTRY = _builtin_predicates()


# ---------------------------------------------------------------------------
# Rule parsing

_OPERATORS = {k.value: k for k in RuleKind}


def _parse_predicate(spec: str) -> PredicateRef:
    if "(" in spec:
        name, _, rest = spec.partition("(")
        params_text = rest.rstrip(")")
        try:
            params = tuple(
                float(p) for p in params_text.replace(",", " ").split() if p
            )
        except ValueError:
            raise RuleSyntaxError(f"bad predicate parameters in {spec!r}") from None
    else:
        name, params = spec, ()
    ref = PredicateRef(name, params)
    resolve_predicate(ref)  # validate at parse time
    return ref


class _VarTable:
    def __init__(self, declared: set[str]):
        self.declared = declared
        self.indices: dict[str, int] = {}
        self.order: list[str] = []
        self.read: set[int] = set()  # the indices the RHS reads
        # the guard of each variable's first occurrence on the side being
        # read, when a matcher searches that side; None when none does
        self.guards: Optional[dict[int, Optional[PredicateRef]]] = {}

    def index(self, name: str, allocate: bool) -> int:
        if name not in self.indices:
            if not allocate:
                raise UnboundRhsVariable(name)
            self.indices[name] = len(self.order)
            self.order.append(name)
        elif not allocate:
            self.read.add(self.indices[name])
        return self.indices[name]


def _leaf_pattern(tok: str, table: _VarTable, allocate: bool) -> Pattern:
    base, guarded, pred_spec = tok.partition("::")
    if guarded and not pred_spec:
        raise RuleSyntaxError(f"empty predicate guard in {tok!r}")
    pred = _parse_predicate(pred_spec) if pred_spec else None
    segment = False
    if base.startswith("~~"):
        base, segment = base[2:], True
    elif base.startswith("~"):
        base = base[1:]
    elif base.endswith("..."):
        base, segment = base[:-3], True
    elif base in table.declared:
        pass
    else:
        # literal leaf: a number or a bare symbol
        if pred is not None:
            raise RuleSyntaxError(f"predicate attached to non-variable {tok!r}")
        try:
            return classify_token(base, 0)
        except SExprSyntaxError:
            raise RuleSyntaxError(f"malformed pattern token {tok!r}") from None
    if not base or not ATOM_RE.fullmatch(base):
        raise RuleSyntaxError(f"bad variable name in {tok!r}")
    idx = table.index(base, allocate)
    # a matcher checks a guard at a variable's first occurrence on the side it
    # searches, and compares a later occurrence's class with the first one's
    guards = table.guards
    if guards is None:
        if pred is not None:
            raise RuleSyntaxError(
                f"guard in {tok!r} on a right-hand side that no matcher searches"
            )
    else:
        first = guards.setdefault(idx, pred)
        if pred is not None and pred != first:
            raise RuleSyntaxError(
                f"guard in {tok!r} is not that of the first ~{base} of its side,"
                " which is the one a matcher checks"
            )
    if segment:
        return PatSegment(base, idx, pred)
    return PatVar(base, idx, pred)


def _read_pattern(toks, table: _VarTable, allocate: bool) -> tuple[Pattern, int]:
    """The pattern that starts `toks`, and the position after it."""

    def leaf(tok, offset):
        return _leaf_pattern(tok, table, allocate)

    def node(head, args, offset):
        if isinstance(head, PatVar):
            return PatTerm(head, tuple(args))
        if isinstance(head, Atom):
            return PatTerm(head.name, tuple(args))
        raise RuleSyntaxError(f"bad operation {print_pattern(head)!r} in pattern")

    return read_sexpr(toks, leaf, node)


def parse_rule(line: str, declared_vars: set[str], name: str = "") -> Rule:
    table = _VarTable(set(declared_vars))
    try:
        toks = list(tokenize(line))
        # the rule operator must sit at paren depth 0
        depth = 0
        top = []
        for i, (t, _) in enumerate(toks):
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
            elif t in _OPERATORS and depth == 0:
                top.append((i, _OPERATORS[t]))
        if len(top) != 1:
            raise RuleSyntaxError(
                f"expected exactly one top-level rule operator in {line!r}"
            )
        opi, kind = top[0]
        lhs, end = _read_pattern(toks[:opi], table, allocate=True)
        if end != opi:
            raise RuleSyntaxError(f"trailing tokens before operator in {line!r}")
        rhs_toks = toks[opi + 1 :]
        lhs_guards = table.guards
        table.guards = {} if kind is RuleKind.EQUALITY else None
        rhs, end = _read_pattern(rhs_toks, table, allocate=False)
        if end != len(rhs_toks):
            raise RuleSyntaxError(f"trailing tokens after RHS in {line!r}")
        # each direction of an `==` rule checks the guards of the side it
        # searches, so a guard holds both ways only if both sides carry it
        if kind is RuleKind.EQUALITY:
            for idx, guard in table.guards.items():
                if guard != lhs_guards[idx]:
                    raise RuleSyntaxError(
                        f"~{table.order[idx]} is guarded differently on the two"
                        f" sides of {line!r}, so one direction would not check"
                        " its guard"
                    )
    except SExprSyntaxError as exc:
        raise RuleSyntaxError(exc.args[0]) from None
    if isinstance(lhs, PatSegment) or isinstance(rhs, PatSegment):
        raise RuleSyntaxError("segment variable allowed only as a term argument")
    if kind is RuleKind.EQUALITY and len(table.read) < len(table.order):
        bad = next(v for i, v in enumerate(table.order) if i not in table.read)
        exc = UnboundRhsVariable(bad)
        # read right to left, the rule leaves the variable unbound
        exc.args = (f"variable ~{bad} appears on the LHS but not on the RHS",)
        raise exc
    return Rule(kind, lhs, rhs, name, tuple(table.order))


def parse_theory(text: str, name: str = "theory") -> Theory:
    theory = Theory(name)
    declared: set[str] = set()
    pending_name: Optional[str] = None
    pending_line = 0  # the line of `pending_name`'s @name
    seen_names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            directive, *words = line.split()
            if directive == "@vars":
                declared = set(words)
                continue
            if directive == "@name":
                if len(words) != 1:
                    raise RuleSyntaxError("@name takes exactly one name")
                if pending_name is not None:
                    break  # the earlier @name names no rule: reported below
                (pending_name,), pending_line = words, lineno
                continue
            if directive.startswith("@"):
                raise RuleSyntaxError(f"unknown directive {directive!r}")
            rule_name = pending_name or f"r{len(theory.rules)}"
            pending_name = None
            rule = parse_rule(line, declared, name=rule_name)
        except (RuleSyntaxError, UnknownPredicate) as exc:
            exc.args = (f"line {lineno}: {exc}",)  # keeps the type and its fields
            raise
        if rule.name in seen_names:
            raise RuleSyntaxError(f"line {lineno}: duplicate rule name {rule.name!r}")
        seen_names.add(rule.name)
        theory.rules.append(rule)
    if pending_name is not None:
        raise RuleSyntaxError(f"line {pending_line}: @name {pending_name!r} names no rule")
    return theory


# ---------------------------------------------------------------------------
# Canonical printing


def print_pattern(p: Pattern) -> str:
    return print_sexpr(p, _print_pattern_leaf)


def _print_pattern_leaf(p: Union[PatVar, PatSegment, Atom, Lit]) -> str:
    if isinstance(p, (Atom, Lit)):
        return print_term(p)
    sigil = "~~" if isinstance(p, PatSegment) else "~"
    return f"{sigil}{p.name}{_pred_suffix(p.predicate)}"


def _pred_suffix(ref: Optional[PredicateRef]) -> str:
    if ref is None:
        return ""
    if ref.params:
        params = ",".join(print_number(v) for v in ref.params)
        return f"::{ref.name}({params})"
    return f"::{ref.name}"
