"""Naive reference implementations used to cross-check the engine.

Everything here is deliberately brute-force and independent of the package's
data structures beyond the public Term/EGraph APIs.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import deque

from unittest import mock

from eqsat import saturation
from eqsat.classical import instantiate, match
from eqsat.egraph import MISSING, EGraph, OpNode
from eqsat.errors import InconsistentClass
from eqsat.rules import (
    PatSegment,
    PatTerm,
    PatVar,
    Rule,
    Theory,
    class_literals,
    resolve_predicate,
)
from eqsat.saturation import BackoffScheduler, CompiledTheory
from eqsat.terms import Atom, Compound, Lit, Term, UnknownBuiltin, eval_builtin


# -- congruence closure -----------------------------------------------------


def subterms(t: Term) -> list[Term]:
    out = [t]
    if isinstance(t, Compound):
        for a in t.args:
            out.extend(subterms(a))
    return out


def congruence_closure(terms: list[Term], merges: list[tuple[Term, Term]]):
    """Partition of all subterms under the merges, closed under congruence.

    Returns a mapping term -> representative index. O(n^3) fixpoint: repeat
    until no rule fires.
    """
    universe: list[Term] = []
    for t in terms:
        for s in subterms(t):
            if s not in universe:
                universe.append(s)
    rep = list(range(len(universe)))

    def find(i):
        while rep[i] != i:
            i = rep[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            rep[max(ri, rj)] = min(ri, rj)
            return True
        return False

    def index_of(t):
        return universe.index(t)

    for a, b in merges:
        union(index_of(a), index_of(b))

    changed = True
    while changed:
        changed = False
        for i, ti in enumerate(universe):
            for j, tj in enumerate(universe):
                if j <= i or not isinstance(ti, Compound) or not isinstance(tj, Compound):
                    continue
                if ti.op != tj.op or len(ti.args) != len(tj.args):
                    continue
                if find(i) == find(j):
                    continue
                if all(
                    find(index_of(a)) == find(index_of(b))
                    for a, b in zip(ti.args, tj.args)
                ):
                    changed |= union(i, j)
    return {i: find(i) for i in range(len(universe))}, universe


# -- analysis fixpoint ------------------------------------------------------


def same_value(a, b) -> bool:
    """Analysis values are equal, NaN included."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def analysis_fixpoint(g: EGraph, analysis) -> dict[int, object]:
    """Each canonical class's value of `analysis` (MISSING when it has none),
    computed from nothing by passes over the whole graph until no class
    changes. Values the graph stores under the analysis's name are set aside
    meanwhile and put back afterwards."""
    name = analysis.name
    saved = {cid: cls.data.pop(name) for cid, cls in g.classes.items() if name in cls.data}
    try:
        changed = True
        while changed:
            changed = False
            for cid in g.canonical_ids():
                cls = g.classes[cid]
                acc = MISSING
                for n in cls.nodes:
                    v = analysis.make(g, n)
                    if v is not MISSING:
                        acc = v if acc is MISSING else analysis.join(acc, v)
                if acc is MISSING:
                    continue
                old = cls.data.get(name, MISSING)
                if old is not MISSING:
                    acc = analysis.join(old, acc)
                if old is MISSING or not same_value(old, acc):
                    cls.data[name] = acc
                    changed = True
        return {cid: g.getdata(cid, name, MISSING) for cid in g.canonical_ids()}
    finally:
        for cls in g.classes.values():
            cls.data.pop(name, None)
        for cid, v in saved.items():
            g.classes[cid].data[name] = v


# -- naive e-matching -------------------------------------------------------


def naive_ematch(g: EGraph, pattern) -> set[tuple[int, ...]]:
    """All matches of a predicate-free pattern, by recursion over every node
    of every class, each in the shape of `machine.EMatch`: the class, then
    the class of each variable in variable order."""

    results = set()

    def match_in_class(p, cid, binds):
        cid = g.find(cid)
        if isinstance(p, PatVar):
            old = binds.get(p.index)
            if old is not None:
                return [binds] if old == cid else []
            b2 = dict(binds)
            b2[p.index] = cid
            return [b2]
        if isinstance(p, (Atom, Lit)):
            for n in g.class_nodes(cid):
                if n == p:
                    return [binds]
            return []
        assert isinstance(p, PatTerm) and isinstance(p.op, str)
        outs = []
        for n in g.class_nodes(cid):
            if not isinstance(n, OpNode):
                continue
            if n.op != p.op or len(n.children) != len(p.args):
                continue
            partial = [binds]
            for sub, child in zip(p.args, n.children):
                partial = [
                    b2 for b in partial for b2 in match_in_class(sub, child, b)
                ]
                if not partial:
                    break
            outs.extend(partial)
        return outs

    for cid in g.canonical_ids():
        for b in match_in_class(pattern, cid, {}):
            results.add((g.find(cid), *(b[i] for i in sorted(b))))
    return results


# -- right-hand-side instantiation --------------------------------------------


def add_pattern(g: EGraph, pat, m, lifts=None) -> int:
    """Add the instantiation of `pat` under match `m`, returning its class,
    by walking the pattern on every call. Operator children are added left to
    right, and literal children after all of their siblings. With `lifts`, a
    `=>` rule's {variable: literal kind}, a lifted variable stands for its
    class's one literal of that kind, and nodes fold builtins over literals
    bottom-up."""
    bindings = dict(enumerate(m[1:]))
    dynamic = lifts is not None

    def lit_id(v) -> int:
        return g.add_enode(v)

    def go(p):
        # returns ("lit", Atom or Lit) or ("id", class id)
        if isinstance(p, PatVar):
            if dynamic and p.index in lifts:
                (v, *more) = class_literals(g, bindings[p.index], lifts[p.index])
                if more:
                    raise InconsistentClass(f"c{bindings[p.index]} holds {v} and {more}")
                return ("lit", Lit(v))
            return ("id", bindings[p.index])
        if isinstance(p, (Atom, Lit)):
            return ("lit", p)
        assert isinstance(p, PatTerm) and isinstance(p.op, str)
        vals = [go(a) for a in p.args]
        if (
            dynamic
            and len(vals) == 2
            and all(k == "lit" and isinstance(v, Lit) for k, v in vals)
        ):
            try:
                return ("lit", Lit(eval_builtin(p.op, [v.value for _, v in vals])))
            except UnknownBuiltin:
                pass
        children = tuple(v if k == "id" else lit_id(v) for k, v in vals)
        return ("id", g.add_enode(OpNode(p.op, children)))

    k, v = go(pat)
    return v if k == "id" else lit_id(v)


def lookup_pattern(g: EGraph, pat, m):
    """Resolve a pattern instantiation by lookup only (no graph growth)."""
    bindings = dict(enumerate(m[1:]))

    def go(p):
        if isinstance(p, PatVar):
            return g.find(bindings[p.index])
        if isinstance(p, (Atom, Lit)):
            return g.lookup(p)
        assert isinstance(p, PatTerm) and isinstance(p.op, str)
        children = []
        for a in p.args:
            cid = go(a)
            if cid is None:
                return None
            children.append(cid)
        return g.lookup(OpNode(p.op, tuple(children)))

    return go(pat)


# -- unbounded backoff search -------------------------------------------------


class UnboundedBackoffScheduler(BackoffScheduler):
    """Backoff that lets every search find all its matches. A search that
    stops one match over the limit must ban the same rules and leave the
    same graph."""

    def search_limit(self, rule_index):
        return None


# -- apply every match ---------------------------------------------------------


class ApplyEveryMatchScheduler(BackoffScheduler):
    """Backoff whose rules never record `since`, so that every search builds
    every match and each iteration applies every match its searches keep.
    Building only the matches newer than a rule's last applied search must
    leave the same partition, report and bans."""

    def applied(self, rule_index, rebuilds):
        pass


# -- two-way compile ----------------------------------------------------------


def compile_two_way(theory: Theory) -> CompiledTheory:
    """`compile_theory` with no rule taken as mirrored: every `==` rule
    searches and applies both of its directions. A mirrored rule's one
    direction must leave the same partition and report."""
    with mock.patch.object(saturation, "mirrored", lambda lhs, rhs: False):
        return saturation.compile_theory(theory)


def subterm_partition(g: EGraph, terms: list[Term]) -> set[frozenset[Term]]:
    """The distinct subterms of `terms`, grouped by the class that holds
    them in `g`; class ids, which differ between equal runs, play no part."""
    by_class: dict[int, set[Term]] = {}
    for t in terms:
        for s in subterms(t):
            by_class.setdefault(g.find(g.lookup_term(s)), set()).add(s)
    return {frozenset(ts) for ts in by_class.values()}


# -- recursive walks, the reference for the classical combinators ----------


def postwalk(rw, t: Term):
    """`classical.Postwalk(rw)(t)`, by recursion on the term."""
    changed = False
    if isinstance(t, Compound):
        new_args = []
        for a in t.args:
            r = postwalk(rw, a)
            changed = changed or r is not None
            new_args.append(a if r is None else r)
        if changed:
            t = Compound(t.op, tuple(new_args))
    r = rw(t)
    if r is not None:
        return r
    return t if changed else None


def prewalk(rw, t: Term):
    """`classical.Prewalk(rw)(t)`, by recursion on the term."""
    r = rw(t)
    changed = r is not None
    cur = r if changed else t
    if isinstance(cur, Compound):
        new_args = []
        child_changed = False
        for a in cur.args:
            ra = prewalk(rw, a)
            child_changed = child_changed or ra is not None
            new_args.append(a if ra is None else ra)
        if child_changed:
            cur = Compound(cur.op, tuple(new_args))
            changed = True
    return cur if changed else None


# -- recursive term equality, hashing and substitution, the reference for ----
# -- Compound's and terms.substitute_atom's iterative ones ------------------


def term_eq(a: Term, b: Term) -> bool:
    """`a == b`, by recursion on the terms, with no identity shortcut."""
    if isinstance(a, Compound) and isinstance(b, Compound):
        return (
            a.op == b.op
            and len(a.args) == len(b.args)
            and all(term_eq(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, Compound) or isinstance(b, Compound):
        return False
    return a == b


def term_hash(t: Term) -> int:
    """`hash(t)`, by recursion: a compound hashes its operation together
    with its arguments' hashes."""
    if isinstance(t, Compound):
        return hash((t.op, *(term_hash(a) for a in t.args)))
    return hash(t)


def substitute_atom(t: Term, name: str, repl: Term) -> Term:
    """`terms.substitute_atom(t, name, repl)`, by recursion on the term. A
    `(lambda name body)` binds the name anew, so it stays as it is."""
    if isinstance(t, Atom) and t.name == name:
        return repl
    if isinstance(t, Compound):
        if t.op == "lambda" and len(t.args) == 2 and t.args[0] == Atom(name):
            return t
        return Compound(t.op, tuple(substitute_atom(a, name, repl) for a in t.args))
    return t


# -- classical matching -------------------------------------------------------


def substitutions(p, t: Term):
    """Every substitution under which pattern `p` matches `t`, by recursion,
    in the order `classical.match` tries them: left to right, each
    segment's splits shortest first. A variable's guard is checked where it
    is first bound; a later occurrence only compares."""
    return _match_one(p, t, {})


def _guard(ref, t: Term) -> bool:
    return ref is None or resolve_predicate(ref).classical(t, ref.params)


def _match_one(p, t: Term, binds: dict):
    if isinstance(p, PatVar):
        if p.index in binds:
            if binds[p.index] == t:
                yield binds
        elif _guard(p.predicate, t):
            yield {**binds, p.index: t}
    elif isinstance(p, PatTerm):
        if not isinstance(t, Compound):
            return
        if isinstance(p.op, PatVar):
            op = Atom(t.op)
            if binds.get(p.op.index, op) != op:
                return
            binds = {**binds, p.op.index: op}
        elif p.op != t.op:
            return
        yield from _match_args(p.args, t.args, binds)
    elif t == p:  # a literal
        yield binds


def _match_args(ps: tuple, ts: tuple, binds: dict):
    if not ps:
        if not ts:
            yield binds
        return
    p, rest = ps[0], ps[1:]
    if not isinstance(p, PatSegment):
        if ts:
            for b in _match_one(p, ts[0], binds):
                yield from _match_args(rest, ts[1:], b)
    elif p.index in binds:
        n = len(binds[p.index])
        if ts[:n] == binds[p.index]:
            yield from _match_args(rest, ts[n:], binds)
    else:
        for n in range(len(ts) + 1):
            if all(_guard(p.predicate, x) for x in ts[:n]):
                yield from _match_args(rest, ts[n:], {**binds, p.index: ts[:n]})


# -- BFS prover over classical rewriting ------------------------------------


def rewrite_neighbors(t: Term, rules: list[Rule]) -> list[Term]:
    """All single-step rewrites of t, applying each rule at every position."""
    out = []

    def at(node, rebuild):
        for rule in rules:
            s = match(rule.lhs, node)
            if s is not None:
                out.append(rebuild(instantiate(rule.rhs, s)))
        if isinstance(node, Compound):
            for i, a in enumerate(node.args):
                def rb(new, i=i, node=node, rebuild=rebuild):
                    args = node.args[:i] + (new,) + node.args[i + 1 :]
                    return rebuild(Compound(node.op, args))
                at(a, rb)

    at(t, lambda x: x)
    return out


def bfs_connected(t1: Term, t2: Term, rules: list[Rule], depth: int) -> bool:
    """Whether t2 is reachable from t1 in at most `depth` rewrite steps."""
    if t1 == t2:
        return True
    seen = {t1}
    frontier = deque([(t1, 0)])
    while frontier:
        t, d = frontier.popleft()
        if d >= depth:
            continue
        for n in rewrite_neighbors(t, rules):
            if n == t2:
                return True
            if n not in seen:
                seen.add(n)
                frontier.append((n, d + 1))
    return False


# -- represented-term enumeration (for extraction optimality) ---------------


def enumerate_terms(g: EGraph, cid: int, depth: int) -> set[Term]:
    """All terms represented by class cid using derivations of height < depth."""
    cid = g.find(cid)
    if depth <= 0:
        return set()
    out: set[Term] = set()
    for n in g.class_nodes(cid):
        if not isinstance(n, OpNode):
            out.add(n)
        else:
            choices: list[list[Term]] = []
            ok = True
            for ch in n.children:
                sub = enumerate_terms(g, ch, depth - 1)
                if not sub:
                    ok = False
                    break
                choices.append(sorted(sub, key=repr))
            if not ok:
                continue
            def product(i, acc):
                if i == len(choices):
                    out.add(Compound(n.op, tuple(acc)))
                    return
                for c in choices[i]:
                    product(i + 1, acc + [c])
            product(0, [])
    return out


# -- a stream interpreter, the reference for `stream_optimize` --------------


def _getindex(s: list, i):
    """The item at the 1-based index `i` of `s`; an index out of range is an
    error, not a count from the end."""
    if not (type(i) is int and 1 <= i <= len(s)):
        raise IndexError(f"index {i} out of 1..{len(s)}")
    return s[i - 1]


def _divide(a, b):
    """`a / b`, where division by zero follows the sign of `a` and 0/0 is
    NaN."""
    if b != 0:
        return a / b
    return math.nan if a == 0 or math.isnan(a) else math.copysign(math.inf, a)


def _foldr(g, s: list):
    """`g(s[0], g(s[1], ... g(s[-2], s[-1])))` over a non-empty list."""
    return functools.reduce(lambda acc, v: g(v, acc), reversed(s))


_STREAM_OPS = {
    "call": lambda f, v: f(v),
    "apply": lambda f, v: f(v),
    "compose": lambda f, g: lambda v: f(g(v)),
    "fand": lambda f, g: lambda v: f(v) and g(v),
    "and": lambda a, b: a and b,
    "ifelse": lambda c, a, b: a if c else b,
    "<": operator.lt,
    ">": operator.gt,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "fill": lambda v, n: [v] * n,
    "map": lambda f, s: [f(v) for v in s],
    "filter": lambda f, s: [v for v in s if f(v)],
    "reverse": lambda s: s[::-1],
    "cat": operator.add,
    "sum": sum,
    "length": len,
    "getindex": _getindex,
    # reduce and the folds take a binary function and a non-empty list; a
    # reduce runs left to right, and each map variant maps `f` first
    "reduce": functools.reduce,
    "foldl": functools.reduce,
    "foldr": _foldr,
    "mapreduce": lambda f, g, s: functools.reduce(g, map(f, s)),
    "mapfoldl": lambda f, g, s: functools.reduce(g, map(f, s)),
    "mapfoldr": lambda f, g, s: _foldr(g, [f(v) for v in s]),
}


def eval_stream(t: Term, env: dict):
    """The value of a stream term, by recursion on it: a number or a bool, a
    list for a stream, a Python callable for a function. An atom is read
    from `env`, where `true` and `false` are the bools unless bound."""
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Atom):
        return {"true": True, "false": False, **env}[t.name]
    if t.op == "lambda":
        param, body = t.args
        return lambda v: eval_stream(body, {**env, param.name: v})
    return _STREAM_OPS[t.op](*(eval_stream(a, env) for a in t.args))
