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
from .errors import (
    DuplicatePredicate,
    RuleSyntaxError,
    SExprSyntaxError,
    UnboundRhsVariable,
    UnknownPredicate,
)
from .terms import ATOM_RE, Lit, Number, Term, classify_token, print_number

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


@dataclass(frozen=True)
class PatLit:
    # numeric literal or bare symbol literal
    value: Union[int, float, str]

    def __eq__(self, other):
        if not isinstance(other, PatLit):
            return NotImplemented
        if isinstance(self.value, str) or isinstance(other.value, str):
            return self.value == other.value
        return terms.num_eq(self.value, other.value)

    def __hash__(self):
        v = self.value
        return hash(("PatLit", v if isinstance(v, str) else terms.num_key(v)))


@dataclass(frozen=True)
class PatTerm:
    op: Union[str, PatVar]
    args: tuple["Pattern", ...]


Pattern = Union[PatVar, PatSegment, PatLit, PatTerm]


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

    def __add__(self, other: "Theory") -> "Theory":
        return Theory(f"{self.name}+{other.name}", self.rules + other.rules)


# ---------------------------------------------------------------------------
# Predicate registry
#
# Each predicate carries the two evaluation modes: a classical check over a
# Term and an e-graph check over (EGraph, class id). `lift` names the literal
# kind the e-matcher may bind out of a matched class (None = no lifting).


@dataclass(frozen=True)
class Predicate:
    name: str
    n_params: int
    classical: Callable  # (Term, params) -> bool
    egraph: Callable  # (EGraph, class_id, params) -> bool
    lift: Optional[str] = None  # "number" | "int" | "real"


_REGISTRY: dict[str, Predicate] = {}


def register_predicate(pred: Predicate) -> None:
    if pred.name in _REGISTRY:
        raise DuplicatePredicate(pred.name)
    _REGISTRY[pred.name] = pred


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
    """Distinct literal values of the given kind present in an e-class."""
    out = []
    for node in g.class_nodes(cid):
        v = getattr(node, "value", None)
        if v is not None and not isinstance(v, str) and _kind_ok(v, kind):
            if not any(terms.num_eq(v, w) for w in out):
                out.append(v)
    return out


def _sign_of(g, cid):
    from .analysis import class_sign

    return class_sign(g, cid)


def _install_builtins() -> None:
    def lit_kind_pred(kind):
        def classical(t, params):
            v = _lit_value(t)
            return v is not None and _kind_ok(v, kind)

        def egraph(g, cid, params):
            return bool(class_literals(g, cid, kind))

        return classical, egraph

    for kind in ("number", "int", "real"):
        c, e = lit_kind_pred(kind)
        register_predicate(Predicate(kind, 0, c, e, lift=kind))

    def near_zero_classical(t, params):
        v = _lit_value(t)
        return v is not None and not math.isnan(v) and abs(v) <= params[0]

    def near_zero_egraph(g, cid, params):
        return any(
            not math.isnan(v) and abs(v) <= params[0]
            for v in class_literals(g, cid, "number")
        )

    register_predicate(
        Predicate("near_zero", 1, near_zero_classical, near_zero_egraph, lift="number")
    )

    def iszero_classical(t, params):
        v = _lit_value(t)
        return v is not None and v == 0

    def iszero_egraph(g, cid, params):
        return _sign_of(g, cid) == 0

    register_predicate(Predicate("iszero", 0, iszero_classical, iszero_egraph))

    def notzero_classical(t, params):
        v = _lit_value(t)
        return v is not None and not math.isnan(v) and v != 0

    def notzero_egraph(g, cid, params):
        s = _sign_of(g, cid)
        return s is not None and not math.isnan(s) and s != 0

    register_predicate(Predicate("notzero", 0, notzero_classical, notzero_egraph))

    def csf_classical(t, params):
        v = _lit_value(t)
        return (
            v is not None and v != 0 and not math.isnan(v) and not math.isinf(v)
        )

    def csf_egraph(g, cid, params):
        s = _sign_of(g, cid)
        return s is not None and s in (1, -1)

    register_predicate(
        Predicate("cansimplifyfraction", 0, csf_classical, csf_egraph)
    )


_install_builtins()


# ---------------------------------------------------------------------------
# Rule parsing

_OPERATORS = {k.value: k for k in RuleKind}


def _tokenize_rule(text: str) -> list[tuple[str, int]]:
    """Like terms.tokenize but keeps `::pred(params)` attached to its token."""
    out: list[tuple[str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            out.append((c, i))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in "()":
            j += 1
        tok = text[i:j]
        if "::" in tok and j < n and text[j] == "(":
            k = text.find(")", j)
            if k < 0:
                raise RuleSyntaxError(f"unterminated predicate parameters in {tok!r}")
            tok = text[i : k + 1]
            j = k + 1
        out.append((tok, i))
        i = j
    return out


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

    def index(self, name: str, allocate: bool) -> int:
        if name in self.indices:
            return self.indices[name]
        if not allocate:
            raise UnboundRhsVariable(name)
        idx = len(self.order)
        self.indices[name] = idx
        self.order.append(name)
        return idx


def _leaf_pattern(tok: str, table: _VarTable, allocate: bool) -> Pattern:
    base, _, pred_spec = tok.partition("::")
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
            t = classify_token(base, 0)
        except (SExprSyntaxError, ValueError):  # ValueError: too many digits
            raise RuleSyntaxError(f"malformed pattern token {tok!r}") from None
        return PatLit(t.value if isinstance(t, Lit) else t.name)
    if not base or not ATOM_RE.fullmatch(base):
        raise RuleSyntaxError(f"bad variable name in {tok!r}")
    idx = table.index(base, allocate)
    if segment:
        return PatSegment(base, idx, pred)
    return PatVar(base, idx, pred)


def _parse_pattern(toks, pos, table: _VarTable, allocate: bool):
    if pos >= len(toks):
        raise RuleSyntaxError("unexpected end of pattern")
    tok, off = toks[pos]
    if tok == ")":
        raise RuleSyntaxError("unexpected ')' in pattern")
    if tok != "(":
        return _leaf_pattern(tok, table, allocate), pos + 1
    pos += 1
    if pos >= len(toks) or toks[pos][0] in "()":
        raise RuleSyntaxError("empty or headless pattern term")
    op_tok = toks[pos][0]
    op_leaf = _leaf_pattern(op_tok, table, allocate)
    if isinstance(op_leaf, PatVar):
        op: Union[str, PatVar] = op_leaf
    elif isinstance(op_leaf, PatLit) and isinstance(op_leaf.value, str):
        op = op_leaf.value
    else:
        raise RuleSyntaxError(f"bad operation {op_tok!r} in pattern")
    pos += 1
    args: list[Pattern] = []
    while True:
        if pos >= len(toks):
            raise RuleSyntaxError("unbalanced '(' in pattern")
        if toks[pos][0] == ")":
            return PatTerm(op, tuple(args)), pos + 1
        arg, pos = _parse_pattern(toks, pos, table, allocate)
        args.append(arg)


def pattern_vars(p: Pattern) -> list[int]:
    """Variable indices in first-appearance order (with repetitions)."""
    out: list[int] = []

    def walk(q):
        if isinstance(q, (PatVar, PatSegment)):
            out.append(q.index)
        elif isinstance(q, PatTerm):
            if isinstance(q.op, PatVar):
                out.append(q.op.index)
            for a in q.args:
                walk(a)

    walk(p)
    return out


def _check_segments(p: Pattern, at_arg: bool = False):
    if isinstance(p, PatSegment) and not at_arg:
        raise RuleSyntaxError("segment variable allowed only as a term argument")
    if isinstance(p, PatTerm):
        for a in p.args:
            _check_segments(a, at_arg=True)


def parse_rule(line: str, declared_vars: set[str], name: str = "") -> Rule:
    toks = _tokenize_rule(line)
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
    table = _VarTable(set(declared_vars))
    lhs, end = _parse_pattern(toks[:opi], 0, table, allocate=True)
    if end != opi:
        raise RuleSyntaxError(f"trailing tokens before operator in {line!r}")
    rhs_toks = toks[opi + 1 :]
    rhs, end = _parse_pattern(rhs_toks, 0, table, allocate=False)
    if end != len(rhs_toks):
        raise RuleSyntaxError(f"trailing tokens after RHS in {line!r}")
    _check_segments(lhs)
    _check_segments(rhs)
    if kind is RuleKind.EQUALITY:
        if set(pattern_vars(rhs)) != set(pattern_vars(lhs)):
            missing = set(pattern_vars(lhs)) - set(pattern_vars(rhs))
            bad = table.order[sorted(missing)[0]]
            exc = UnboundRhsVariable(bad)
            # read right to left, the rule leaves the variable unbound
            exc.args = (f"variable ~{bad} appears on the LHS but not on the RHS",)
            raise exc
    return Rule(kind, lhs, rhs, name, tuple(table.order))


def parse_theory(text: str, name: str = "theory") -> Theory:
    theory = Theory(name)
    declared: set[str] = set()
    pending_name: Optional[str] = None
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
                (pending_name,) = words
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
    return theory


# ---------------------------------------------------------------------------
# Canonical printing


def print_pattern(p: Pattern) -> str:
    if isinstance(p, PatVar):
        return f"~{p.name}{_pred_suffix(p.predicate)}"
    if isinstance(p, PatSegment):
        return f"~~{p.name}{_pred_suffix(p.predicate)}"
    if isinstance(p, PatLit):
        return p.value if isinstance(p.value, str) else print_number(p.value)
    op = p.op if isinstance(p.op, str) else f"~{p.op.name}"
    inner = " ".join([op] + [print_pattern(a) for a in p.args])
    return f"({inner})"


def _pred_suffix(ref: Optional[PredicateRef]) -> str:
    if ref is None:
        return ""
    if ref.params:
        params = ",".join(print_number(v) for v in ref.params)
        return f"::{ref.name}({params})"
    return f"::{ref.name}"
