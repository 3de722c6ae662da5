"""Term data model: S-expression trees of atoms, numeric literals and
compound applications, plus the textual format and the builtin evaluator."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar, Union

from .errors import ContractViolation, SExprSyntaxError, UnknownBuiltin

Number = Union[int, float]
T = TypeVar("T")


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


@dataclass(frozen=True, slots=True, eq=False)
class Compound(Term):
    op: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.op:
            raise ContractViolation("compound operation must be non-empty")

    def __eq__(self, other):
        if not isinstance(other, Compound):
            return NotImplemented
        return tree_eq(self, other)

    def __hash__(self):
        return tree_hash(self)


# Walks of trees of one node type, each node with `op` and `args`: terms, and
# the patterns of `rules.py`. They are iterative, so that nesting depth is not
# bounded by the recursion limit.


def fold_tree(
    t, kind: type, leaf: Callable[[object], T], node: Callable[[object, list[T]], T]
) -> T:
    """Fold tree `t`: each node of type `kind` becomes `node(x, values)`,
    where `values` is a new list of the values of `x.args` in order, and
    everything else becomes `leaf(x)`. Children are folded before their
    parent, left to right."""
    if not isinstance(t, kind):
        return leaf(t)
    # open nodes, innermost last: (node, its children not yet visited, the
    # values of those visited)
    todo = [(t, iter(t.args), [])]
    while todo:
        x, rest, values = todo[-1]
        for a in rest:
            if isinstance(a, kind):
                todo.append((a, iter(a.args), []))
                break
            values.append(leaf(a))
        else:
            todo.pop()
            value = node(x, values)
            if not todo:
                return value
            todo[-1][2].append(value)


def tree_eq(a, b) -> bool:
    """Whether trees `a` and `b`, both of `type(a)`, are equal; leaves
    compare with `==`, and a subtree shared by both sides compares equal
    without a walk."""
    kind = type(a)
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a.op != b.op or len(a.args) != len(b.args):
            return False
        for x, y in zip(a.args, b.args):
            if x is y:
                continue
            if isinstance(x, kind):
                if not isinstance(y, kind):
                    return False
                todo.append((x, y))
            elif x != y:
                return False
    return True


def tree_hash(t) -> int:
    """A hash of tree `t` that agrees with `tree_eq`; leaves hash with
    `hash`."""
    return fold_tree(t, type(t), hash, lambda x, hashes: hash((x.op, *hashes)))


# ---------------------------------------------------------------------------
# Textual S-expression format

ATOM_RE = re.compile(r"[A-Za-z_+\-*/<>=!?.|&~][A-Za-z0-9_+\-*/<>=!?.|&~]*")
# Exponents and the inf/nan spellings are accepted beyond the base grammar so
# that every printable float round-trips.
INT_RE = re.compile(r"-?\d+")
NUM_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
FLOAT_WORDS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def tokenize(text: str) -> Iterator[tuple[str, int]]:
    """Yield (token, offset) pairs; parens are single-char tokens. A rule
    guard's parameter list, as in `x::near_zero(1e-13)`, stays part of its
    token; no term token contains `::`."""
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
            if j < n and text[j] == "(" and "::" in text[i:j]:
                k = text.find(")", j)
                if k < 0:
                    raise SExprSyntaxError(
                        f"unterminated predicate parameters in {text[i:j]!r}", i
                    )
                j = k + 1
            yield text[i:j], i
            i = j


def classify_token(tok: str, offset: int) -> Term:
    if tok in FLOAT_WORDS:
        return Lit(FLOAT_WORDS[tok])
    if NUM_RE.fullmatch(tok):
        if INT_RE.fullmatch(tok):
            try:
                return Lit(int(tok))
            except ValueError:  # over int()'s limit on digits converted
                raise SExprSyntaxError("integer literal too long", offset) from None
        return Lit(float(tok))
    if ATOM_RE.fullmatch(tok):
        return Atom(tok)
    raise SExprSyntaxError(f"malformed token {tok!r}", offset)


def read_sexpr(
    toks: Sequence[tuple[str, int]],
    leaf: Callable[[str, int], T],
    node: Callable[[T, list[T], int], T],
) -> tuple[T, int]:
    """Read the S-expression that starts `toks`, and return it with the
    position after it. Each token other than a paren, a compound's head
    included, is made by `leaf(token, offset)` in reading order, and each
    compound by `node(head, args, offset of its "(")`. Iterative, so that
    nesting depth is not bounded by the recursion limit."""
    open_: list[tuple[T, list[T], int]] = []  # (head, args, offset of "(")
    pos = 0
    while True:
        if pos >= len(toks):
            if open_:
                raise SExprSyntaxError("unbalanced '('", open_[-1][2])
            raise SExprSyntaxError("unexpected end of input", 0)
        tok, off = toks[pos]
        pos += 1
        if tok == "(":
            if pos >= len(toks):
                raise SExprSyntaxError("unbalanced '('", off)
            head_tok, head_off = toks[pos]
            if head_tok in ("(", ")"):
                raise SExprSyntaxError("empty or headless compound", head_off)
            pos += 1
            open_.append((leaf(head_tok, head_off), [], off))
            continue
        if tok != ")":
            value = leaf(tok, off)
        elif open_:
            value = node(*open_.pop())
        else:
            raise SExprSyntaxError("unexpected ')'", off)
        if not open_:
            return value, pos
        open_[-1][1].append(value)


def _compound(head: Term, args: list[Term], offset: int) -> Compound:
    if not isinstance(head, Atom):
        raise SExprSyntaxError(
            f"operation must be a symbol, got {print_term(head)!r}", offset
        )
    return Compound(head.name, tuple(args))


def parse_term(text: str) -> Term:
    toks = list(tokenize(text))
    term, pos = read_sexpr(toks, classify_token, _compound)
    if pos != len(toks):
        raise SExprSyntaxError("trailing input after term", toks[pos][1])
    return term


def print_number(v: Number) -> str:
    if isinstance(v, int):
        return str(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def print_sexpr(x, leaf: Callable[[object], str]) -> str:
    """Print `x`, where a compound is a node with an `op` and `args`: an op
    that is a string prints as itself, and every other node through
    `leaf(node)`. Iterative, so that nesting depth is not bounded by the
    recursion limit."""
    out: list[str] = []
    todo: list = [x]  # nodes still to print, and text
    while todo:
        y = todo.pop()
        if isinstance(y, str):
            out.append(y)
        elif hasattr(y, "args"):
            out.append("(")
            todo.append(")")
            for a in reversed(y.args):
                todo += (a, " ")
            todo.append(y.op)
        else:
            out.append(leaf(y))
    return "".join(out)


def _print_leaf(t: Term) -> str:
    return t.name if isinstance(t, Atom) else print_number(t.value)


def print_term(t: Term) -> str:
    return print_sexpr(t, _print_leaf)


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
    """`t` with `repl` for each atom `name`, except inside a `(lambda name
    body)`, which binds the name anew."""
    atom = Atom(name)

    def node(x: Compound, args: list[Term]) -> Term:
        return x if _binder(x) == atom else Compound(x.op, tuple(args))

    return fold_tree(t, Compound, lambda x: repl if x == atom else x, node)


def _binder(x: Compound) -> Optional[Atom]:
    """The atom that `x` binds, when it is a `(lambda atom body)`."""
    if x.op == LAMBDA_OP and len(x.args) == 2 and isinstance(x.args[0], Atom):
        return x.args[0]
    return None


def inline_anonymous(t: Term) -> Optional[Term]:
    """Inline a single-argument lambda application, or return None.

    Recognizes (call (lambda x body) arg) and substitutes arg for x in body.
    Malformed lambdas are left alone (returns None), mirroring a guarded
    combinator wrapper, and so is a body with a lambda that binds an atom
    of arg, which would capture it.
    """
    if not (isinstance(t, Compound) and t.op == CALL_OP and len(t.args) == 2):
        return None
    fn, actual = t.args
    if not (isinstance(fn, Compound) and fn.op == LAMBDA_OP and len(fn.args) == 2):
        return None
    param, body = fn.args
    if not isinstance(param, Atom):
        return None
    leaves: set[Term] = set()
    fold_tree(actual, Compound, leaves.add, lambda x, _: None)
    if fold_tree(
        body, Compound, lambda x: False, lambda x, inner: any(inner) or _binder(x) in leaves
    ):
        return None
    return substitute_atom(body, param.name, actual)
