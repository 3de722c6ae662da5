"""Term data model: S-expression trees of atoms, numeric literals and
compound applications, plus the textual format and the builtin evaluator."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .errors import ContractViolation, SExprSyntaxError, UnknownBuiltin

Number = Union[int, float]


def num_key(v: Number):
    """Hash key for a numeric value: collapses 1 and 1.0, canonicalizes NaN."""
    if isinstance(v, float) and math.isnan(v):
        return "#nan"
    return v


def num_eq(a: Number, b: Number) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    if isinstance(b, float) and math.isnan(b):
        return False
    return a == b


class Term:
    """Base class; concrete terms are Atom, Lit or Compound."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Term):
    name: str


class Lit(Term):
    """Numeric literal. Equality is value-based (1 == 1.0) and NaN-aware."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("Lit is immutable")

    def __eq__(self, other):
        return isinstance(other, Lit) and num_eq(self.value, other.value)

    def __hash__(self):
        return hash(("Lit", num_key(self.value)))

    def __repr__(self):
        return f"Lit({self.value!r})"


@dataclass(frozen=True, slots=True)
class Compound(Term):
    op: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.op:
            raise ContractViolation("compound operation must be non-empty")


# ---------------------------------------------------------------------------
# TermInterface-style accessors


def istree(t: Term) -> bool:
    return isinstance(t, Compound)


def operation(t: Term) -> str:
    if not isinstance(t, Compound):
        raise ContractViolation(f"operation() called on non-compound term {t!r}")
    return t.op


def arguments(t: Term) -> tuple[Term, ...]:
    if not isinstance(t, Compound):
        raise ContractViolation(f"arguments() called on non-compound term {t!r}")
    return t.args


def arity(t: Term) -> int:
    return len(arguments(t))


def similarterm(op: str, args: Sequence[Term]) -> Term:
    return Compound(op, tuple(args))


# ---------------------------------------------------------------------------
# Textual S-expression format

ATOM_RE = re.compile(r"[A-Za-z_+\-*/<>=!?.|&~][A-Za-z0-9_+\-*/<>=!?.|&~]*")
# Exponents and the inf/nan spellings are accepted beyond the base grammar so
# that every printable float round-trips.
INT_RE = re.compile(r"-?\d+")
NUM_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
FLOAT_WORDS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def tokenize(text: str) -> Iterator[tuple[str, int]]:
    """Yield (token, byte offset) pairs; parens are single-char tokens."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            yield c, i
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            yield text[i:j], i
            i = j


def classify_token(tok: str, offset: int) -> Term:
    if tok in FLOAT_WORDS:
        return Lit(FLOAT_WORDS[tok])
    if NUM_RE.fullmatch(tok):
        if INT_RE.fullmatch(tok):
            return Lit(int(tok))
        return Lit(float(tok))
    if ATOM_RE.fullmatch(tok):
        return Atom(tok)
    raise SExprSyntaxError(f"malformed token {tok!r}", offset)


def parse_term(text: str) -> Term:
    toks = list(tokenize(text))
    term, pos = _parse(toks, 0, text)
    if pos != len(toks):
        raise SExprSyntaxError("trailing input after term", toks[pos][1])
    return term


def _parse(toks: list[tuple[str, int]], pos: int, text: str) -> tuple[Term, int]:
    if pos >= len(toks):
        raise SExprSyntaxError("unexpected end of input", len(text))
    tok, off = toks[pos]
    if tok == ")":
        raise SExprSyntaxError("unexpected ')'", off)
    if tok != "(":
        return classify_token(tok, off), pos + 1
    pos += 1
    if pos >= len(toks):
        raise SExprSyntaxError("unbalanced '('", off)
    op_tok, op_off = toks[pos]
    if op_tok in ("(", ")"):
        raise SExprSyntaxError("empty or headless compound", op_off)
    head = classify_token(op_tok, op_off)
    if not isinstance(head, Atom):
        raise SExprSyntaxError(f"operation must be a symbol, got {op_tok!r}", op_off)
    pos += 1
    args: list[Term] = []
    while True:
        if pos >= len(toks):
            raise SExprSyntaxError("unbalanced '('", off)
        if toks[pos][0] == ")":
            return Compound(head.name, tuple(args)), pos + 1
        arg, pos = _parse(toks, pos, text)
        args.append(arg)


def print_number(v: Number) -> str:
    if isinstance(v, int):
        return str(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def print_term(t: Term) -> str:
    # iterative, so that nesting depth is not bounded by the recursion limit
    out: list[str] = []
    todo: list[Union[Term, str]] = [t]  # terms still to print, and text
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Atom):
            out.append(x.name)
        elif isinstance(x, Lit):
            out.append(print_number(x.value))
        else:
            out.append(f"({x.op}")
            todo.append(")")
            for a in reversed(x.args):
                todo += (a, " ")
    return "".join(out)


# ---------------------------------------------------------------------------
# Builtin evaluation for dynamic rules and constant folding

BUILTIN_OPS = {"+", "-", "*", "/"}


def eval_builtin(op: str, args: Sequence[Number]) -> Number:
    """Evaluate a binary arithmetic builtin with IEEE division semantics.

    Integer arguments stay exact; int/int division yields an int only when
    it divides evenly. Division by zero follows sign (0/0 is NaN).
    """
    if op not in BUILTIN_OPS or len(args) != 2:
        raise UnknownBuiltin(f"not a builtin: {op}/{len(args)}")
    a, b = args
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    # division
    if isinstance(a, int) and isinstance(b, int):
        if b != 0:
            return a // b if a % b == 0 else a / b
    if b == 0 and not (isinstance(b, float) and math.isnan(b)):
        if a == 0 or (isinstance(a, float) and math.isnan(a)):
            return math.nan
        return math.inf if a > 0 else -math.inf
    return a / b


# ---------------------------------------------------------------------------
# Anonymous-function inlining

LAMBDA_OP = "lambda"
CALL_OP = "call"


def substitute_atom(t: Term, name: str, repl: Term) -> Term:
    if isinstance(t, Atom) and t.name == name:
        return repl
    if isinstance(t, Compound):
        return Compound(t.op, tuple(substitute_atom(a, name, repl) for a in t.args))
    return t


def inline_anonymous(t: Term) -> Optional[Term]:
    """Inline a single-argument lambda application, or return None.

    Recognizes (call (lambda x body) arg) and substitutes arg for x in body.
    Malformed lambdas are left alone (returns None), mirroring a guarded
    combinator wrapper.
    """
    if not (isinstance(t, Compound) and t.op == CALL_OP and len(t.args) == 2):
        return None
    fn, actual = t.args
    if not (isinstance(fn, Compound) and fn.op == LAMBDA_OP and len(fn.args) == 2):
        return None
    param, body = fn.args
    if not isinstance(param, Atom):
        return None
    return substitute_atom(body, param.name, actual)
