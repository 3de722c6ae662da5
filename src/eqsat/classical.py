"""Classical (syntactic) rewriting.

`match` walks a pattern and a term together on an explicit stack of
pending pairs. A segment variable is a choice point that a failed walk
returns to, where Sussman's flexible pattern matcher calls a continuation.
Segments enumerate splits left to right, shortest first; the first
successful substitution wins.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from .errors import ContractViolation, UnsupportedRuleKind
from .rules import (
    PatSegment,
    PatTerm,
    PatVar,
    Pattern,
    Rule,
    RuleKind,
    resolve_predicate,
)
from .terms import BUILTIN_OPS, Atom, Compound, Lit, Term, eval_builtin, fold_tree

Substitution = dict[int, Union[Term, tuple[Term, ...]]]
Rewriter = Callable[[Term], Optional[Term]]


def _check_pred(ref, t: Term) -> bool:
    if ref is None:
        return True
    return resolve_predicate(ref).classical(t, ref.params)


def match(lhs: Pattern, t: Term) -> Optional[Substitution]:
    """The first substitution under which `lhs` matches `t`, or None.

    Walks the pattern and the term together on a stack of pending pairs,
    binding variables left to right: a variable's first occurrence is the
    one whose guard is checked, and later ones only compare. A pair is a
    pattern and a term, or an argument list that holds a segment and the
    terms it has still to cover. An unbound segment is a choice point that
    keeps the stack and the bindings; a walk that fails resumes from the
    last choice point with that segment one term longer, so splits are
    tried shortest first and the first substitution wins."""
    if isinstance(lhs, PatSegment):
        raise ContractViolation("segment pattern outside argument position")
    b: Substitution = {}
    todo: list = [(lhs, t)]
    # per choice point: [stack, bindings, segment, patterns after it, terms
    # from it on, length of its next split]
    choices = []
    while todo:
        p, x = todo.pop()
        if type(p) is tuple:  # an argument list that holds a segment
            if not p:
                ok = not x
            elif isinstance(p[0], PatSegment):
                bound = b.get(p[0].index)
                if bound is None:
                    choices.append([todo, b, p[0], p[1:], x, 0])
                    ok = False  # resumes below with the shortest split
                else:
                    ok = x[: len(bound)] == bound
                    todo.append((p[1:], x[len(bound) :]))
            else:
                ok = len(x) > 0
                if ok:
                    todo += ((p[1:], x[1:]), (p[0], x[0]))
        elif isinstance(p, PatVar):
            if p.index in b:
                ok = b[p.index] == x
            else:
                ok = _check_pred(p.predicate, x)
                b[p.index] = x
        elif isinstance(p, PatTerm):
            ok = isinstance(x, Compound) and (
                x.op == p.op
                if isinstance(p.op, str)
                else b.setdefault(p.op.index, Atom(x.op)) == Atom(x.op)
            )
            if ok and any(isinstance(a, PatSegment) for a in p.args):
                todo.append((p.args, x.args))
            elif ok:
                ok = len(p.args) == len(x.args)
                todo += zip(reversed(p.args), reversed(x.args))
        else:
            ok = x == p
        while not ok:
            if not choices:
                return None
            choice = choices[-1]
            saved, b, seg, rest, xs, n = choice
            if n > len(xs) or n and not _check_pred(seg.predicate, xs[n - 1]):
                choices.pop()
                continue
            choice[-1] = n + 1
            b = dict(b)
            b[seg.index] = xs[:n]
            todo = saved + [(rest, xs[n:])]
            ok = True
    return b


# ---------------------------------------------------------------------------
# Instantiation and rule application


def instantiate(rhs: Pattern, s: Substitution, fold: bool = False) -> Term:
    """The term `rhs` stands for under `s`. With `fold` (a `=>` rule), a
    builtin node whose operator the rule writes, and whose two arguments are
    built as numeric literals, becomes the literal it evaluates to."""
    if isinstance(rhs, PatSegment):
        raise ContractViolation("segment outside argument position")

    def leaf(p):  # a term, or a segment's tuple of terms
        if isinstance(p, (Atom, Lit)):
            return p
        if isinstance(p, PatSegment):
            chunk = s.get(p.index)
            if not isinstance(chunk, tuple):
                raise ContractViolation(f"unbound segment ~~{p.name}")
            return chunk
        if p.index not in s:
            raise ContractViolation(f"unbound variable ~{p.name}")
        if isinstance(s[p.index], tuple):
            raise ContractViolation(f"segment ~~{p.name} used as a single term")
        return s[p.index]

    def node(p, values):
        op = p.op  # a variable is not a builtin, so its node never folds
        folds = fold and op in BUILTIN_OPS
        if isinstance(op, PatVar):
            op = s.get(op.index)
            if not isinstance(op, Atom):
                raise ContractViolation(
                    f"operation variable ~{p.op.name} not bound to a symbol"
                )
            op = op.name
        args: list[Term] = []
        for v in values:
            args += v if type(v) is tuple else (v,)
        if folds and len(args) == 2 and all(isinstance(a, Lit) for a in args):
            return Lit(eval_builtin(op, [a.value for a in args]))
        return Compound(op, tuple(args))

    return fold_tree(rhs, PatTerm, leaf, node)


def apply_rule(rule: Rule, t: Term) -> Optional[Term]:
    """Apply a rewrite or dynamic rule at the root; None when not matching."""
    return rule_rewriter(rule)(t)


def rule_rewriter(rule: Rule) -> Rewriter:
    """Rewriter applying a rewrite or dynamic rule at the root: it tests the
    left-hand side's root operator, then calls `match`."""
    if rule.kind not in (RuleKind.REWRITE, RuleKind.DYNAMIC):
        raise UnsupportedRuleKind(
            f"{rule.kind.value} rules are not supported by the classical backend"
        )
    lhs, rhs, fold = rule.lhs, rule.rhs, rule.kind is RuleKind.DYNAMIC
    # the root operator a match needs, tested before the matcher is called
    op = lhs.op if isinstance(lhs, PatTerm) and isinstance(lhs.op, str) else None

    def rewrite(t: Term) -> Optional[Term]:
        if op is not None and not (isinstance(t, Compound) and t.op == op):
            return None
        sub = match(lhs, t)
        return None if sub is None else instantiate(rhs, sub, fold)

    return rewrite


# ---------------------------------------------------------------------------
# Rewriter combinators


def Chain(rws: Sequence[Rewriter]) -> Rewriter:
    rws = list(rws)

    def chained(t):
        cur, changed = t, False
        for rw in rws:
            r = rw(cur)
            if r is not None:
                cur, changed = r, True
        return cur if changed else None

    return chained


def PassThrough(rw: Rewriter) -> Rewriter:
    def passthrough(t):
        r = rw(t)
        return r if r is not None else t

    return passthrough


def Postwalk(rw: Rewriter) -> Rewriter:
    """Applies `rw` to every subterm, children left to right before their
    parent, which it sees with the children's results in place."""

    def node(t, results):  # a result is None where nothing changed
        if results.count(None) == len(results):
            return rw(t)
        args = tuple(a if r is None else r for a, r in zip(t.args, results))
        t = Compound(t.op, args)
        r = rw(t)
        return t if r is None else r

    def walk(t):
        return fold_tree(t, Compound, rw, node)

    return walk


def Prewalk(rw: Rewriter) -> Rewriter:
    """Applies `rw` to every subterm, a parent before its children, which
    are taken from the parent's result."""

    def walk(t):
        # open compounds, innermost last: [term after its own rewrite,
        # results of its arguments walked so far, whether it was rewritten,
        # whether one of its arguments changed]
        stack = []
        while True:
            r = rw(t)
            cur = t if r is None else r
            if isinstance(cur, Compound) and cur.args:
                stack.append([cur, [], r is not None, False])
                t = cur.args[0]
                continue
            while stack:
                node, args, rewritten, child_changed = frame = stack[-1]
                if r is None:
                    args.append(node.args[len(args)])
                else:
                    args.append(r)
                    child_changed = frame[3] = True
                if len(args) < len(node.args):
                    t = node.args[len(args)]
                    break
                stack.pop()
                if child_changed:
                    node = Compound(node.op, tuple(args))
                r = node if rewritten or child_changed else None
            else:
                return r

    return walk


def Fixpoint(rw: Rewriter) -> Rewriter:
    def fixed(t):
        cur, changed = t, False
        while True:
            r = rw(cur)
            if r is None or r == cur:
                return cur if changed else None
            cur, changed = r, True

    return fixed


# ---------------------------------------------------------------------------
# Strategy mini-language for the CLI

DEFAULT_STRATEGY = "fixpoint(postwalk(chain(all)))"

_STRATEGY_NAMES = {
    "prewalk": Prewalk,
    "postwalk": Postwalk,
    "fixpoint": Fixpoint,
    "passthrough": PassThrough,
}


def parse_strategy(text: str, rulesets: dict[str, list[Rewriter]]) -> Rewriter:
    """Parse e.g. "fixpoint(postwalk(chain(all)))" against named rulesets."""
    text = text.strip()

    def parse(s: str) -> Rewriter:
        s = s.strip()
        if "(" not in s:
            raise ValueError(f"bad strategy fragment {s!r}")
        name, _, rest = s.partition("(")
        if not rest.endswith(")"):
            raise ValueError(f"unbalanced parens in strategy {s!r}")
        inner = rest[:-1]
        name = name.strip()
        if name == "chain":
            key = inner.strip()
            if key not in rulesets:
                raise ValueError(f"unknown ruleset {key!r}")
            return Chain(rulesets[key])
        if name not in _STRATEGY_NAMES:
            raise ValueError(f"unknown strategy combinator {name!r}")
        return _STRATEGY_NAMES[name](parse(inner))

    return parse(text)
