import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import congruence_closure, enumerate_terms, subterm_partition
from eqsat.egraph import EGraph, OpNode
from eqsat.errors import CapacityExceeded, InconsistentClass, UnknownId
from eqsat.rules import class_literal
from eqsat.saturation import SaturationParams, saturate
from eqsat.terms import Atom, Compound, Lit, parse_term
from eqsat.theories import load_bundled


def build(*srcs):
    g = EGraph()
    ids = [g.add_term(parse_term(s)) for s in srcs]
    g.rebuild()
    return g, ids


# -- union-find -------------------------------------------------------------


def test_find_fresh_and_idempotent():
    g, (a, b) = build("a", "b")
    assert g.find(a) == a
    assert g.find(g.find(b)) == g.find(b)
    with pytest.raises(UnknownId):
        g.find(99)


def test_bad_ids_raise_unknown_id():
    g, (a, _) = build("a", "b")
    n = g.n_eclasses  # nothing is merged, so each id has its class
    for children in [(-1,), (n,), (a, n), (a, -n - 1)]:
        with pytest.raises(UnknownId):
            g.add_enode(OpNode("f", children))
    with pytest.raises(UnknownId):
        g.lookup(OpNode("f", (99,)))
    with pytest.raises(UnknownId):
        g.merge(a, 99)
    with pytest.raises(UnknownId):
        g.merge(-1, a)
    assert g.n_eclasses == n and not g.pending


def test_merge_basics():
    g, (a, b) = build("a", "b")
    assert g.merge(a, a) == g.find(a)
    r = g.merge(a, b)
    assert g.find(a) == g.find(b) == r
    g.rebuild()
    assert g.n_eclasses == 1


# -- adding -----------------------------------------------------------------


def test_add_term_counts():
    g, _ = build("(/ (* a (* 2 3)) 6)")
    assert g.n_eclasses == 7
    assert g.n_enodes == 7


def test_add_term_idempotent():
    g = EGraph()
    i = g.add_term(parse_term("(* a 1)"))
    j = g.add_term(parse_term("(* a 1)"))
    assert g.find(i) == g.find(j)


def test_value_based_literal_identity():
    g = EGraph()
    i = g.add_term(Lit(1))
    j = g.add_term(Lit(1.0))
    assert g.find(i) == g.find(j)
    assert g.n_enodes == 1


def test_node_limit():
    g = EGraph(node_limit=3)
    g.add_term(parse_term("(f a b)"))  # exactly 3 nodes
    with pytest.raises(CapacityExceeded) as exc:
        g.add_term(parse_term("c"))
    assert exc.value.kind == "enode-limit"


def test_class_limit():
    g = EGraph()
    g.class_limit = 3
    a, b = g.add_term(Atom("a")), g.add_term(Atom("b"))
    g.add_term(parse_term("(f a)"))
    g.merge(a, b)  # a merge frees a class
    g.add_term(parse_term("(g a)"))
    assert g.n_eclasses == 3
    with pytest.raises(CapacityExceeded) as exc:
        g.add_term(parse_term("c"))
    assert exc.value.kind == "eclass-limit"
    assert g.add_term(parse_term("(f b)")) is not None  # no new class


# -- lookup -----------------------------------------------------------------


def test_lookup():
    g, (i,) = build("(f a)")
    a = g.lookup(Atom("a"))
    assert a is not None
    assert g.lookup(OpNode("f", (a,))) == g.find(i)
    assert g.lookup(Atom("zzz")) is None
    assert g.lookup_term(parse_term("(f a)")) == g.find(i)
    assert g.lookup_term(parse_term("(f b)")) is None


def test_lookup_after_merge_uses_canonical_children():
    g, (fa, a, b) = build("(f a)", "a", "b")
    g.merge(a, b)
    g.rebuild()
    assert g.lookup_term(parse_term("(f b)")) == g.find(fa)


def test_op_and_lit_nodes_never_share_a_hashcons_entry():
    # an OpNode is a tuple: it equals a plain tuple of its fields, but never
    # a leaf e-node, an Atom or a Lit, whatever the leaf holds
    assert OpNode("f", (0,)) == ("f", (0,))
    assert hash(OpNode("f", (0,))) == hash(("f", (0,)))
    g = EGraph()
    pairs = [(OpNode("a", ()), Atom("a")), (OpNode("0", ()), Lit(0))]
    for op_node, lit_node in pairs:
        assert op_node != lit_node and lit_node != op_node
        assert g.add_enode(op_node) != g.add_enode(lit_node)
    g.rebuild()
    assert g.n_enodes == g.n_eclasses == 4
    for op_node, lit_node in pairs:
        assert g.lookup(op_node) != g.lookup(lit_node)


# -- rebuilding / congruence ------------------------------------------------


def test_congruence_propagation():
    g, (fa, fb, a, b) = build("(f a)", "(f b)", "a", "b")
    g.merge(a, b)
    g.rebuild()
    assert g.find(fa) == g.find(fb)


def test_transitive_chain_single_rebuild():
    g, (fa, fc, a, b, c) = build("(f a)", "(f c)", "a", "b", "c")
    g.merge(a, b)
    g.merge(b, c)
    g.rebuild()
    assert g.find(fa) == g.find(fc)


def test_rebuild_empty_worklist_noop():
    g, _ = build("(f a)")
    before = g.dump()
    g.rebuild()
    assert g.dump() == before


def test_hashcons_invariant_after_rebuild():
    g, (fa, fb, a, b) = build("(f (g a))", "(f (g b))", "a", "b")
    g.merge(a, b)
    g.rebuild()
    for cid in g.canonical_ids():
        for n in g.class_nodes(cid):
            assert g.canonicalize(n) == n
            assert g.find(g.memo[n]) == cid


def test_canonical_node_sets_disjoint():
    g, (x, y, a, b) = build("(f a b)", "(f b a)", "a", "b")
    g.merge(a, b)
    g.rebuild()
    seen = set()
    for cid in g.canonical_ids():
        for n in g.class_nodes(cid):
            assert n not in seen
            seen.add(n)


def test_class_count_accounting():
    g = EGraph()
    g.add_term(parse_term("(+ (f a) (f b))"))
    allocated = len(g._uf)
    g.merge(g.lookup_term(Atom("a")), g.lookup_term(Atom("b")))
    g.rebuild()
    # one explicit merge plus one congruence merge of the f-classes
    assert g.n_eclasses == allocated - 2


# -- dump golden ------------------------------------------------------------


def test_dump_format():
    g, (i, a) = build("(* a 1)", "a")
    lines = g.dump().splitlines()
    assert lines[0].startswith("c0: a")
    assert any(line.endswith("(* c0 c1)") for line in lines)


# -- monotonicity -----------------------------------------------------------


def test_represented_terms_never_shrink():
    g, (i, j, a, b) = build("(f a)", "(f b)", "a", "b")
    before = enumerate_terms(g, i, 4)
    g.merge(a, b)
    g.rebuild()
    after = enumerate_terms(g, g.find(i), 4)
    assert before <= after


# -- congruence-closure oracle property ------------------------------------

_leaves = [Atom("a"), Atom("b"), Atom("c"), Lit(1)]


@st.composite
def term_pools(draw):
    pool: list = list(_leaves[: draw(st.integers(2, 4))])
    for _ in range(draw(st.integers(1, 5))):
        op = draw(st.sampled_from(["f", "g", "+"]))
        n = draw(st.integers(1, 2))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(n))
        t = Compound(op, args)
        if t not in pool:
            pool.append(t)
    return pool


@settings(max_examples=60, deadline=None)
@given(term_pools(), st.data())
def test_congruence_closure_matches_oracle(pool, data):
    merges = []
    for _ in range(data.draw(st.integers(0, 5))):
        merges.append(
            (data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)))
        )
    g = EGraph()
    ids = {}
    for t in pool:
        ids[t] = g.add_term(t)
    for a, b in merges:
        g.merge(ids[a], ids[b])
    g.rebuild()
    rep, universe = congruence_closure(pool, merges)
    uidx = {i: g.lookup_term(t) for i, t in enumerate(universe)}
    for i in range(len(universe)):
        for j in range(len(universe)):
            same_oracle = rep[i] == rep[j]
            same_graph = uidx[i] == uidx[j]
            assert same_oracle == same_graph


# -- rebuild: canonical node sets and an exact hashcons --------------------


def assert_rebuilt(g):
    """Every class node is canonical and in one class only, and `memo` holds
    exactly those nodes, each mapped to its class."""
    owner = {}
    for cid, cls in g.classes.items():
        for n in cls.nodes:
            assert g.canonicalize(n) == n
            assert owner.setdefault(n, cid) == cid
    distinct = {g.canonicalize(n) for c in g.classes.values() for n in c.nodes}
    assert len(g.memo) == g.n_enodes == len(distinct)
    for n, cid in g.memo.items():
        assert g.canonicalize(n) == n
        assert g.find(cid) == owner[n]


def test_rebuild_matches_oracle_on_random_graphs():
    rng = random.Random(6)
    for _ in range(120):
        g = EGraph()
        pool = list(_leaves[: rng.randint(2, 4)])
        ids = {t: g.add_term(t) for t in pool}  # lookups miss until a rebuild
        merges = []
        for _ in range(3):  # add, merge, rebuild, and again on the result
            for _ in range(rng.randint(2, 6)):
                op = rng.choice(["f", "g", "+"])
                args = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
                t = Compound(op, args)
                if t not in ids:
                    pool.append(t)
                    ids[t] = g.add_term(t)
            for _ in range(rng.randint(1, 3)):
                a, b = rng.choice(pool), rng.choice(pool)
                merges.append((a, b))
                g.merge(ids[a], ids[b])
            g.rebuild()
            assert_rebuilt(g)
            rep, universe = congruence_closure(pool, merges)
            found = [g.lookup_term(t) for t in universe]
            assert None not in found
            for i in range(len(universe)):
                for j in range(len(universe)):
                    assert (rep[i] == rep[j]) == (found[i] == found[j])


class _CanonicalFirst(EGraph):
    """Probes the hashcons with canonical e-nodes only, the reference for
    `add_enode` and `lookup`, which probe with the node as given first."""

    def add_enode(self, n):
        return super().add_enode(self.canonicalize(n))

    def lookup(self, n):
        return super().lookup(self.canonicalize(n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(term_pools(), st.data())
def test_memo_probe_with_stale_nodes_matches_canonical_probe(pool, data):
    draw = data.draw
    pool = list(pool)
    graphs = (EGraph(), _CanonicalFirst())
    # per graph: each term's class and its e-node as first added, whose
    # children go stale as the classes below them merge
    ids = [{} for _ in graphs]
    nodes = [{} for _ in graphs]

    def node_of(k, t):
        if isinstance(t, Compound):
            return OpNode(t.op, tuple(ids[k][a] for a in t.args))
        return t

    def place(t):
        for k, g in enumerate(graphs):
            nodes[k][t] = node_of(k, t)
            ids[k][t] = g.add_enode(nodes[k][t])

    for t in pool:
        place(t)
    ops = st.sampled_from(["f", "g", "+"])
    merges, found = [], []  # found: (graph, term, class) of each probe that hit
    for _ in range(draw(st.integers(1, 3))):  # rounds that end in a rebuild
        for _ in range(draw(st.integers(1, 4))):
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            merges.append((a, b))
            for k, g in enumerate(graphs):
                g.merge(ids[k][a], ids[k][b])
        # new nodes over the classes their arguments had when added
        for _ in range(draw(st.integers(0, 2))):
            args = tuple(draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 2))))
            t = Compound(draw(ops), args)
            if t not in ids[0]:
                pool.append(t)
                place(t)
        probes = pool + [Compound(draw(ops), (draw(st.sampled_from(pool)),))]
        for t in probes:
            got = [g.lookup(node_of(k, t)) for k, g in enumerate(graphs)]
            # a stale key can only add hits to those of the canonical probe
            # on the same graph (the twin may have picked other roots)
            g, n = graphs[0], node_of(0, t)
            assert EGraph.lookup(g, g.canonicalize(n)) is None or got[0] is not None
            found += [(k, t, cid) for k, cid in enumerate(got) if cid is not None]
        # the e-nodes made so far again, with the ids they were made of
        for t in pool:
            for k, g in enumerate(graphs):
                found.append((k, t, g.add_enode(nodes[k][t])))
        for g in graphs:
            g.rebuild()
    for g in graphs:
        assert_rebuilt(g)
    g, twin = graphs
    assert subterm_partition(g, pool) == subterm_partition(twin, pool)
    assert (g.n_enodes, g.n_eclasses) == (twin.n_enodes, twin.n_eclasses)
    # every class a probe gave, stale or not, holds the term probed for
    for k, t, cid in found:
        assert graphs[k].find(cid) == graphs[k].lookup_term(t)
    rep, universe = congruence_closure(pool, merges)
    classes = [g.lookup_term(t) for t in universe]
    for i in range(len(universe)):
        for j in range(len(universe)):
            assert (rep[i] == rep[j]) == (classes[i] == classes[j])


# -- literal nodes kept beside the node set --------------------------------

# 2.0 is the node 2, and -0.0 the node 0
_LITERALS = [Lit(v) for v in (0, 1, 2, 2.0, 0.5, -0.0, math.nan, math.inf)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_class_lits_are_the_literal_nodes_of_the_class(data):
    # exact at every moment, not only after a rebuild, as a `=>` build reads
    # them while it adds and merges
    draw = data.draw
    g = EGraph()
    pool = [g.add_term(t) for t in (Atom("a"), Atom("b"))]
    kinds = {"number": (int, float), "int": int, "real": float}

    def check():
        for cid, cls in g.classes.items():
            lits = tuple(n for n in cls.nodes if type(n) is Lit)
            assert cls.lits == lits == g.class_lits(cid)
            for kind, types in kinds.items():
                of_kind = [n for n in lits if isinstance(n.value, types)]
                if len(of_kind) > 1:  # distinct: the nodes of a class are a set
                    with pytest.raises(InconsistentClass):
                        class_literal(g, cid, kind)
                else:
                    got = class_literal(g, cid, kind)
                    assert [Lit(got)] == of_kind if of_kind else got is None
        for i in range(len(g._uf)):  # any id, canonical or not
            assert g.class_lits(i) == g.classes[g.find(i)].lits

    for _ in range(draw(st.integers(1, 12))):
        step = draw(st.sampled_from(["literal", "node", "merge", "merge", "rebuild"]))
        if step == "literal":
            pool.append(g.add_enode(draw(st.sampled_from(_LITERALS))))
        elif step == "node":
            args = tuple(draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 2))))
            pool.append(g.add_enode(OpNode(draw(st.sampled_from(["f", "+"])), args)))
        elif step == "merge":
            g.merge(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        else:
            g.rebuild()
        check()


def test_classes_stay_in_increasing_id_order():
    # `canonical_ids` and `nodes_by_op` rely on it and sort nothing
    def assert_ordered(g):
        assert list(g.classes) == sorted(g.classes) == g.canonical_ids()
        for rows in g.nodes_by_op().values():
            assert list(rows) == sorted(rows)

    rng = random.Random(19)
    for _ in range(100):
        g = EGraph()
        pool = [g.add_term(t) for t in _leaves]
        for _ in range(rng.randint(1, 4)):  # add, merge, rebuild, and again
            for _ in range(rng.randint(1, 6)):
                args = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
                pool.append(g.add_enode(OpNode(rng.choice(["f", "g", "+"]), args)))
                assert_ordered(g)
            for _ in range(rng.randint(0, 4)):
                g.merge(rng.choice(pool), rng.choice(pool))
                assert_ordered(g)
            g.rebuild()
            assert_ordered(g)
    g = EGraph()
    g.add_term(parse_term("(/ (* a (* 2 3)) 6)"))
    saturate(g, load_bundled("comm_monoid") + load_bundled("folder"))
    assert len(g._uf) > g.n_eclasses  # merges deleted classes
    assert_ordered(g)


def test_headline_ends_with_distinct_canonical_enodes():
    theory = load_bundled("comm_monoid")
    for name in ("comm_group", "folder", "div_sim"):
        theory = theory + load_bundled(name)
    g = EGraph()
    g.add_term(parse_term("(/ (* a (* 2 3)) 6)"))
    report = saturate(g, theory, SaturationParams())
    assert_rebuilt(g)
    assert report.n_enodes == g.n_enodes == 1662


def test_add_and_lookup_term_deep_nesting():
    def chain(depth, leaf="a", inner="g"):  # `inner` for the middle g only
        t = Atom(leaf)
        for k in range(depth):
            op = inner if k == depth // 2 else "g"
            t = Compound("f", (t, Lit(k))) if k % 2 else Compound(op, (t,))
        return t

    depth = 5000
    t = chain(depth)
    g = EGraph()
    root = g.add_term(t)
    assert g.n_enodes == depth + 1 + depth // 2  # and a literal for each f
    assert g.lookup_term(t) == root
    version, n_enodes = g.version, g.n_enodes
    misses = [
        chain(depth, leaf="b"),  # at a leaf
        chain(depth, inner="k"),  # at an inner node
        Compound("h", (t,)),  # at the root
        Compound("h", (Atom("b"), t)),  # at a leaf and the root
    ]
    for miss in misses:
        assert g.lookup_term(miss) is None
        assert (g.version, g.n_enodes) == (version, n_enodes)
    assert g.add_term(t) == root
