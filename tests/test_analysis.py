import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import analysis_fixpoint, enumerate_terms, same_value
from eqsat.analysis import (
    Analysis,
    DEFAULT_ASSUMPTIONS,
    analyze,
    astsize,
    astsize_inv,
    class_sign,
    extract,
    format_sign,
    mult_penalty,
    sign_analysis,
    sign_join,
)
from eqsat.egraph import EGraph, MISSING, OpNode
from eqsat.errors import AnalysisDiverged, Unextractable
from eqsat.terms import Atom, Compound, Lit, eval_builtin, parse_term, print_term


def sign_of(src, assumptions=None):
    g = EGraph()
    root = g.add_term(parse_term(src))
    g.rebuild()
    analyze(g, sign_analysis(assumptions))
    return g.getdata(root, "sign")


# -- sign analysis ----------------------------------------------------------


def test_sign_literals():
    assert sign_of("3") == 1
    assert sign_of("-2.5") == -1
    assert sign_of("0") == 0
    assert sign_of("inf") == math.inf
    assert sign_of("-inf") == -math.inf
    assert math.isnan(sign_of("nan"))


def test_sign_default_assumptions():
    assert sign_of("x") == 1
    assert sign_of("y") == -1
    assert sign_of("z") == 0
    assert sign_of("k") == math.inf
    assert sign_of("a") is None


def test_sign_paper_outcomes():
    assert sign_of("(* 3 x)") == 1
    assert sign_of("(* 3 (* (+ 2 a) 2))") is None
    assert sign_of("(* -3 (* y (* 2 (* x y))))") == -1
    assert math.isnan(sign_of("(/ k k)"))


def test_sign_addition_zero_ambiguous():
    assert sign_of("(+ x y)") is None  # +1 + -1 = 0 → unknown
    assert sign_of("(+ x x)") == 1
    assert sign_of("(- y x)") == -1


def test_sign_custom_assumptions():
    assert sign_of("(* q q)", {"q": -1.0}) == 1
    assert sign_of("x", {}) is None


def test_sign_join():
    assert sign_join(1, 1) == 1
    assert sign_join(1, -1) is None
    assert sign_join(None, 1) is None
    assert math.isnan(sign_join(math.nan, math.nan))


def test_sign_join_semilattice_on_domain():
    vals = [None, 0, 1, -1, math.inf, -math.inf]
    for a in vals:
        for b in vals:
            ab, ba = sign_join(a, b), sign_join(b, a)
            assert ab == ba
            assert sign_join(a, a) == a


def test_format_sign():
    assert format_sign(None) == "unknown"
    assert format_sign(1) == "+1"
    assert format_sign(-1) == "-1"
    assert format_sign(0) == "0"
    assert format_sign(math.inf) == "+Inf"
    assert format_sign(math.nan) == "NaN"


def test_class_sign_tracks_graph_changes():
    g = EGraph()
    q = g.add_term(parse_term("(* q q)"))
    g.rebuild()
    assert class_sign(g, q) is None
    analyze(g, sign_analysis({"q": -1.0}))  # re-registering replaces the values
    assert class_sign(g, q) == 1
    # class data is the join over all nodes: an unknown symbol keeps the
    # merged class unknown even when a literal joins it
    a = g.add_term(parse_term("a"))
    three = g.add_term(parse_term("3"))
    g.merge(a, three)
    g.rebuild()
    assert class_sign(g, g.find(a)) is None


_lit_leaf = st.sampled_from([Lit(0), Lit(1), Lit(2), Lit(-3), Lit(0.5)])
_lit_terms = st.recursive(
    _lit_leaf,
    lambda ch: st.builds(
        lambda op, a, b: Compound(op, (a, b)),
        st.sampled_from(["+", "-", "*", "/"]),
        ch,
        ch,
    ),
    max_leaves=8,
)


def _numeric_value(t):
    if isinstance(t, Lit):
        return t.value
    return eval_builtin(t.op, [_numeric_value(a) for a in t.args])


@settings(max_examples=80, deadline=None)
@given(_lit_terms)
def test_sign_sound_on_literal_terms(t):
    s = sign_of(print_term(t))
    if s is None:
        return
    v = _numeric_value(t)
    if isinstance(v, float) and math.isnan(v):
        assert math.isnan(s)
    elif math.isinf(v):
        assert s == v
    else:
        assert s == (1 if v > 0 else -1 if v < 0 else 0)


# -- analysis invariant -----------------------------------------------------


def test_analysis_invariant_at_fixpoint():
    g = EGraph()
    g.add_term(parse_term("(* -3 (* y (* 2 (* x y))))"))
    g.rebuild()
    an = sign_analysis(None)
    analyze(g, an)
    snapshot = {cid: g.getdata(cid, "sign", MISSING) for cid in g.canonical_ids()}
    analyze(g, an)
    after = {cid: g.getdata(cid, "sign", MISSING) for cid in g.canonical_ids()}
    def eq(a, b):
        if isinstance(a, float) and isinstance(b, float):
            return (math.isnan(a) and math.isnan(b)) or a == b
        return a == b
    assert snapshot.keys() == after.keys()
    assert all(eq(snapshot[c], after[c]) for c in snapshot)


def test_registered_analysis_joins_on_merge():
    g = EGraph()
    g.analyses["sign"] = sign_analysis(None)
    p = g.add_term(parse_term("3"))
    n = g.add_term(parse_term("-2"))
    assert g.getdata(p, "sign") == 1
    g.merge(p, n)
    g.rebuild()
    assert g.getdata(g.find(p), "sign") is None


def test_rebuild_propagates_what_congruence_changes():
    # merging x with 7 changes no value, but makes (* x 2) and (* 7 2)
    # congruent; their classes' join changes the value of (+ (* x 2) 1)
    g = EGraph()
    analyze(g, sign_analysis())
    x, seven = g.add_term(parse_term("x")), g.add_term(parse_term("7"))
    top = g.add_term(parse_term("(+ (* x 2) 1)"))
    g.merge(g.add_term(parse_term("(* x 2)")), g.add_term(parse_term("3")))
    g.merge(g.add_term(parse_term("(* 7 2)")), g.add_term(parse_term("-5")))
    g.rebuild()
    assert g.getdata(top, "sign") == 1
    g.merge(x, seven)
    g.rebuild()
    assert g.is_rebuilt()
    assert g.getdata(g.find(top), "sign") is None


def test_incremental_sign_matches_naive_fixpoint():
    # random adds, merges and rebuilds on a graph with the sign analysis
    # registered first; after every rebuild each class holds the value the
    # full-graph fixpoint gives, and the graph has the partition and e-nodes
    # of a twin that replays the same steps with no analysis: an analysis
    # never adds a node or merges a class
    rng = random.Random(7)
    leaves = [Atom(s) for s in "xyzka"] + [
        Lit(v) for v in (0, 1, -2, 2.5, math.inf, -math.inf, math.nan)
    ]
    an = sign_analysis()
    checked = merged = 0

    def partition(graph, ids):
        classes = {}
        for i in ids:
            classes.setdefault(graph.find(i), set()).add(i)
        return {frozenset(c) for c in classes.values()}

    def check(g, twin, ids):
        nonlocal checked
        g.rebuild()
        twin.rebuild()
        assert partition(g, ids) == partition(twin, ids)
        assert g.n_enodes == twin.n_enodes
        want = analysis_fixpoint(g, an)
        for cid in g.canonical_ids():
            assert same_value(g.getdata(cid, "sign", MISSING), want[cid]), g.dump()
            checked += 1

    for _ in range(300):
        g, twin = EGraph(), EGraph()
        analyze(g, an)
        ids = []
        for _ in range(rng.randint(4, 30)):
            r = rng.random()
            if r < 0.25 or len(ids) < 2:
                leaf = rng.choice(leaves)
                ids.append(g.add_term(leaf))
                assert twin.add_term(leaf) == ids[-1]
            elif r < 0.6:
                op = rng.choice(["+", "-", "*", "/", "f"])
                arity = 1 if op == "f" else 2
                children = tuple(rng.choice(ids) for _ in range(arity))
                ids.append(g.add_enode(OpNode(op, children)))
                assert twin.add_enode(OpNode(op, children)) == ids[-1]
            elif r < 0.85:
                a, b = rng.choice(ids), rng.choice(ids)
                g.merge(a, b)
                twin.merge(a, b)
                merged += 1
            else:
                check(g, twin, ids)
        check(g, twin, ids)
    assert checked > 3000 and merged > 1000


def test_diverging_analysis_raises():
    # a depth count around a cycle grows without bound
    def make(g, n):
        if not isinstance(n, OpNode):
            return 0
        depths = [g.getdata(c, "depth", MISSING) for c in n.children]
        return MISSING if MISSING in depths else 1 + max(depths)

    g = EGraph()
    a = g.add_term(parse_term("a"))
    g.merge(g.add_enode(OpNode("f", (a,))), a)
    g.rebuild()
    analyze(g, sign_analysis())
    with pytest.raises(AnalysisDiverged):
        analyze(g, Analysis("depth", make, max))
    # the failed analysis leaves the graph usable, with the others kept up
    assert "depth" not in g.analyses
    assert all("depth" not in cls.data for cls in g.classes.values())
    b = g.add_term(parse_term("(* 2 x)"))
    g.rebuild()
    assert g.getdata(b, "sign") == 1


# -- cost functions ---------------------------------------------------------


def test_astsize():
    assert astsize(Atom("a"), ()) == 1
    assert astsize(OpNode("*", (0, 1)), [1, 1]) == 3


def test_mult_penalty():
    assert mult_penalty(Lit(2), ()) == 1
    assert mult_penalty(OpNode("*", (0, 1)), [1, 1]) == 7
    assert mult_penalty(OpNode("+", (0, 1)), [1, 1]) == 5


def test_astsize_inv_prefers_larger():
    g = EGraph()
    small = g.add_term(parse_term("(+ a b)"))
    big = g.add_term(parse_term("(+ a (+ b c))"))
    g.merge(small, big)
    g.rebuild()
    assert extract(g, astsize_inv, g.find(small)) == parse_term("(+ a (+ b c))")


# -- extraction -------------------------------------------------------------


def test_extract_single_literal():
    g = EGraph()
    i = g.add_term(Lit(5))
    g.rebuild()
    assert extract(g, astsize, i) == Lit(5)


def test_extract_picks_cheapest():
    g = EGraph()
    a = g.add_term(parse_term("(* a 1)"))
    b = g.add_term(parse_term("a"))
    g.merge(a, b)
    g.rebuild()
    assert extract(g, astsize, g.find(a)) == Atom("a")


def test_extract_mult_penalty_prefers_addition():
    g = EGraph()
    m = g.add_term(parse_term("(* x 2)"))
    p = g.add_term(parse_term("(+ x x)"))
    g.merge(m, p)
    g.rebuild()
    assert extract(g, mult_penalty, g.find(m)) == parse_term("(+ x x)")
    assert extract(g, astsize, g.find(m)) == parse_term("(+ x x)")  # ties → later node


def test_extract_cyclic_class_unextractable():
    g = EGraph()
    a = g.add_term(parse_term("a"))
    f = g.add_enode(OpNode("f", (a,)))
    g.merge(f, a)  # class contains f(itself) and leaf a — still extractable
    g.rebuild()
    assert extract(g, astsize, g.find(a)) == Atom("a")
    # a pure cycle with no leaf has no finite cost
    g2 = EGraph()
    x = g2.add_term(parse_term("q"))
    loop = g2.add_enode(OpNode("g", (x,)))
    g2.merge(loop, x)
    g2.rebuild()
    # remove the leaf node to leave only the cyclic node
    cls = g2.classes[g2.find(x)]
    cls.nodes = {n: None for n in cls.nodes if isinstance(n, OpNode)}
    with pytest.raises(Unextractable):
        extract(g2, astsize, g2.find(x))


def test_extract_readd_idempotent():
    g = EGraph()
    r = g.add_term(parse_term("(* (+ 1 2) 1)"))
    alt = g.add_term(parse_term("(+ 1 2)"))
    g.merge(r, alt)
    g.rebuild()
    t = extract(g, astsize, g.find(r))
    g2 = EGraph()
    r2 = g2.add_term(t)
    g2.rebuild()
    t2 = extract(g2, astsize, r2)
    def size(u):
        return 1 + sum(size(a) for a in getattr(u, "args", ()))
    assert size(t) == size(t2)


def test_extract_optimal_vs_enumeration_small():
    g = EGraph()
    r = g.add_term(parse_term("(* a (* 1 1))"))
    s = g.add_term(parse_term("(* a 1)"))
    g.merge(r, s)
    g.rebuild()
    t = extract(g, astsize, g.find(r))
    rep = enumerate_terms(g, g.find(r), 6)
    def size(u):
        return 1 + sum(size(a) for a in getattr(u, "args", ()))
    assert size(t) == min(size(u) for u in rep)


def test_extract_deep_nesting():
    depth = 5000
    t = Atom("a")
    for k in range(depth):
        t = Compound("f", (t, Lit(k))) if k % 2 else Compound("g", (t,))
    g = EGraph()
    root = g.add_term(t)
    assert print_term(extract(g, astsize, root)) == print_term(t)
