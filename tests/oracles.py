"""Naive reference implementations used to cross-check the engine.

Everything here is deliberately brute-force and independent of the package's
data structures beyond the public Term/EGraph APIs.
"""

from __future__ import annotations

import math
from collections import deque

from eqsat.classical import compile_matcher, instantiate
from eqsat.egraph import MISSING, EGraph, LitNode, OpNode
from eqsat.rules import PatLit, PatTerm, PatVar, Rule
from eqsat.saturation import BackoffScheduler
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
    changes. `analysis.modify` is not run. Values the graph stores under the
    analysis's name are set aside meanwhile and put back afterwards."""
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


def naive_ematch(g: EGraph, pattern) -> set[tuple[int, tuple[tuple[int, int], ...]]]:
    """All (class, bindings) pairs for a predicate-free pattern, by recursion
    over every node of every class."""

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
        if isinstance(p, PatLit):
            node = LitNode(p.value)
            for n in g.class_nodes(cid):
                if n == node:
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
            results.add((g.find(cid), tuple(sorted(b.items()))))
    return results


# -- right-hand-side instantiation --------------------------------------------


def add_pattern(g: EGraph, pat, m, dynamic: bool) -> int:
    """Add the instantiation of `pat` under match `m`, returning its class,
    by walking the pattern on every call. Operator children are added left to
    right, and literal children after all of their siblings. Dynamic RHS
    nodes fold builtins over literal bindings bottom-up."""
    bindings = m.binding_dict()
    lits = m.literal_dict()

    def lit_id(v) -> int:
        return g.add_enode(LitNode(v))

    def go(p):
        # returns ("lit", value) or ("id", class id)
        if isinstance(p, PatVar):
            if dynamic and p.index in lits:
                return ("lit", lits[p.index])
            return ("id", bindings[p.index])
        if isinstance(p, PatLit):
            return ("lit", p.value)
        assert isinstance(p, PatTerm) and isinstance(p.op, str)
        vals = [go(a) for a in p.args]
        if (
            dynamic
            and len(vals) == 2
            and all(k == "lit" and not isinstance(v, str) for k, v in vals)
        ):
            try:
                return ("lit", eval_builtin(p.op, [v for _, v in vals]))
            except UnknownBuiltin:
                pass
        children = tuple(v if k == "id" else lit_id(v) for k, v in vals)
        return ("id", g.add_enode(OpNode(p.op, children)))

    k, v = go(pat)
    return v if k == "id" else lit_id(v)


def lookup_pattern(g: EGraph, pat, m):
    """Resolve a pattern instantiation by lookup only (no graph growth)."""
    bindings = m.binding_dict()

    def go(p):
        if isinstance(p, PatVar):
            return g.find(bindings[p.index])
        if isinstance(p, PatLit):
            return g.lookup(LitNode(p.value))
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


# -- BFS prover over classical rewriting ------------------------------------


def rewrite_neighbors(t: Term, rules: list[Rule]) -> list[Term]:
    """All single-step rewrites of t, applying each rule at every position."""
    out = []

    def at(node, rebuild):
        for rule in rules:
            s = compile_matcher(rule.lhs)(node)
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
        if isinstance(n, LitNode):
            out.add(Atom(n.value) if isinstance(n.value, str) else Lit(n.value))
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
