"""Classical (syntactic) rewriting.

The matcher compiler turns a pattern into a chain of per-node matcher
procedures linked by continuation callbacks, in the style of Sussman's
flexible pattern matcher. Segment variables enumerate splits left to right,
shortest first; the first successful substitution wins.
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


def compile_matcher(lhs: Pattern) -> Callable[[Term], Optional[Substitution]]:
    """Compile a pattern into a root matcher returning the first substitution."""
    m = _compile_one(lhs)

    def match_root(t: Term) -> Optional[Substitution]:
        return m(t, {}, _identity)

    return match_root


def _identity(b: Substitution) -> Substitution:
    return b


def _check_pred(ref, t: Term) -> bool:
    if ref is None:
        return True
    return resolve_predicate(ref).classical(t, ref.params)


def _compile_one(p: Pattern):
    """Matcher for a single term position: fn(term, bindings, succeed)."""
    if isinstance(p, PatVar):
        idx, pred = p.index, p.predicate

        def match_var(t, b, k):
            if idx in b:
                return k(b) if b[idx] == t else None
            if not _check_pred(pred, t):
                return None
            b2 = dict(b)
            b2[idx] = t
            return k(b2)

        return match_var
    if isinstance(p, (Atom, Lit)):

        def match_lit(t, b, k):
            return k(b) if t == p else None

        return match_lit
    if isinstance(p, PatTerm):
        seq = _compile_seq(p.args)
        op = p.op
        if isinstance(op, PatVar):
            op_idx = op.index

            def match_term_varop(t, b, k):
                if not isinstance(t, Compound):
                    return None
                bound = Atom(t.op)
                if op_idx in b:
                    if b[op_idx] != bound:
                        return None
                    b2 = b
                else:
                    b2 = dict(b)
                    b2[op_idx] = bound
                return seq(t.args, 0, b2, lambda i, b3: k(b3) if i == len(t.args) else None)

            return match_term_varop

        def match_term(t, b, k):
            if not isinstance(t, Compound) or t.op != op:
                return None
            return seq(t.args, 0, b, lambda i, b2: k(b2) if i == len(t.args) else None)

        return match_term
    raise ContractViolation("segment pattern outside argument position")


def _compile_seq(pats: Sequence[Pattern]):
    """Matcher over a run of sibling terms: fn(terms, i, bindings, succeed)."""
    matchers = []
    for p in pats:
        if isinstance(p, PatSegment):
            matchers.append(_segment_matcher(p))
        else:
            matchers.append(_element_matcher(_compile_one(p)))

    def run(ts, i, b, k, js=0):
        if js == len(matchers):
            return k(i, b)
        return matchers[js](ts, i, b, lambda i2, b2: run(ts, i2, b2, k, js + 1))

    return run


def _element_matcher(m):
    def match_elem(ts, i, b, k):
        if i >= len(ts):
            return None
        return m(ts[i], b, lambda b2: k(i + 1, b2))

    return match_elem


def _segment_matcher(p: PatSegment):
    idx, pred = p.index, p.predicate

    def match_seg(ts, i, b, k):
        if idx in b:
            bound = b[idx]
            n = len(bound)
            if ts[i : i + n] == bound:
                return k(i + n, b)
            return None
        for n in range(0, len(ts) - i + 1):  # shortest split first
            chunk = tuple(ts[i : i + n])
            if pred is not None and not all(_check_pred(pred, t) for t in chunk):
                continue
            b2 = dict(b)
            b2[idx] = chunk
            r = k(i + n, b2)
            if r is not None:
                return r
        return None

    return match_seg


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
    """Apply a rewrite or dynamic rule at the root; None when not matching.

    Compiles the rule's matcher on each call: to apply one rule many times,
    build its rewriter once with `rule_rewriter`."""
    return rule_rewriter(rule)(t)


def rule_rewriter(rule: Rule) -> Rewriter:
    """Rewriter applying a rewrite or dynamic rule at the root. The rule's
    matcher is compiled once and lives as long as the rewriter."""
    if rule.kind not in (RuleKind.REWRITE, RuleKind.DYNAMIC):
        raise UnsupportedRuleKind(
            f"{rule.kind.value} rules are not supported by the classical backend"
        )
    lhs, rhs, fold = rule.lhs, rule.rhs, rule.kind is RuleKind.DYNAMIC
    match = compile_matcher(lhs)
    # the root operator a match needs, tested before the matcher is called
    op = lhs.op if isinstance(lhs, PatTerm) and isinstance(lhs.op, str) else None

    def rewrite(t: Term) -> Optional[Term]:
        if op is not None and not (isinstance(t, Compound) and t.op == op):
            return None
        sub = match(t)
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
