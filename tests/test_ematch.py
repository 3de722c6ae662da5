import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import enumerate_terms, naive_ematch
from eqsat.egraph import EGraph, OpNode
from eqsat.errors import InconsistentClass, SegmentUnsupported
from eqsat.machine import (
    Bind,
    CheckLit,
    CheckPredicate,
    Compare,
    EMatch,
    LookupGround,
    Yield,
    compile_pattern,
    disassemble,
    ematch,
    ematch_program,
    run_program,
)
from eqsat.rules import parse_rule
from eqsat.terms import Atom, Compound, Lit, parse_term


def lhs(line):
    return parse_rule(line, set()).lhs


def build(*srcs):
    g = EGraph()
    ids = [g.add_term(parse_term(s)) for s in srcs]
    g.rebuild()
    return g, ids


# -- compilation ------------------------------------------------------------


def test_compile_golden():
    prog = compile_pattern(lhs("(* ~a 1) --> ~a"))
    assert prog.instructions == (
        Bind(0, "*", 2, 1),
        CheckLit(2, 1),
        Yield((1,)),
    )
    assert prog.n_regs == 3


def test_compile_bare_variable():
    prog = compile_pattern(lhs("~x --> ~x"))
    assert prog.instructions == (Yield((0,)),)


def test_compile_repeated_var_compares():
    prog = compile_pattern(lhs("(* (sin ~x) (cos ~x)) --> ~x"))
    compares = [i for i in prog.instructions if isinstance(i, Compare)]
    assert len(compares) == 1


def test_compile_predicate():
    prog = compile_pattern(lhs("(+ ~a::number ~b) --> ~b"))
    checks = [i for i in prog.instructions if isinstance(i, CheckPredicate)]
    assert len(checks) == 1 and checks[0].bindlit


def test_compile_ground_subterm():
    prog = compile_pattern(lhs("(f (g 1 2) ~x) --> ~x"))
    lookups = [i for i in prog.instructions if isinstance(i, LookupGround)]
    assert lookups == [LookupGround(1, parse_term("(g 1 2)"))]
    assert prog.ground_subterms == (parse_term("(g 1 2)"),)


def test_compile_rejects_segments_and_var_ops():
    with pytest.raises(SegmentUnsupported):
        compile_pattern(lhs("(f ~~xs) --> (f ~~xs)"))
    with pytest.raises(SegmentUnsupported):
        compile_pattern(lhs("(~f ~x) --> ~x"))


def test_disassembly_golden():
    prog = compile_pattern(lhs("(* ~a 1) --> ~a"))
    assert disassemble(prog) == "BIND r0 * /2 -> r1\nCHECK_LIT r2 1\nYIELD r1"


def test_compile_deterministic():
    a = compile_pattern(lhs("(f ~x (g ~y ~x)) --> ~y"))
    b = compile_pattern(lhs("(f ~x (g ~y ~x)) --> ~y"))
    assert a == b


# -- execution --------------------------------------------------------------


def test_run_simple_match():
    g, (i,) = build("(* x 1)")
    matches = ematch(g, lhs("(* ~a 1) --> ~a"))
    assert len(matches) == 1
    m = matches[0]
    assert m.class_id == g.find(i)
    assert m.binding_dict() == {0: g.lookup_term(Atom("x"))}


def test_bare_variable_matches_every_class():
    g, _ = build("(f (g x))")
    assert len(ematch(g, lhs("~x --> ~x"))) == g.n_eclasses


def test_ground_pattern():
    g, (i, _) = build("(f a)", "(g b)")
    matches = ematch(g, lhs("(f a) --> done"))
    assert [m.class_id for m in matches] == [g.find(i)]
    assert ematch(g, lhs("(f zzz) --> done")) == []


def test_repeated_variable_after_merge():
    g, (i,) = build("(/ (* 2 3) 6)")
    assert ematch(g, lhs("(/ ~a ~a) --> 1")) == []
    g.merge(g.lookup_term(parse_term("(* 2 3)")), g.lookup_term(Lit(6)))
    g.rebuild()
    matches = ematch(g, lhs("(/ ~a ~a) --> 1"))
    assert len(matches) == 1


def test_literal_lifting():
    g, (i,) = build("(+ 2 x)")
    matches = ematch(g, lhs("(+ ~a::number ~b) --> ~b"))
    assert len(matches) == 1
    assert matches[0].literal_dict() == {0: 2}


@pytest.mark.parametrize(
    "kind, lifted", [("number", [2, 2.5]), ("int", [2]), ("real", [2.5])]
)
def test_literal_kind_predicates(kind, lifted):
    g, _ = build("(f 2)", "(f 2.5)", "(f x)")
    matches = ematch(g, lhs(f"(f ~a::{kind}) --> ~a"))
    assert [m.literal_dict()[0] for m in matches] == lifted


def test_literal_lifting_after_merge():
    # a symbolic class that also holds a literal lifts the literal
    g, (fx, two) = build("(f x)", "2")
    g.merge(g.lookup_term(Atom("x")), two)
    g.rebuild()
    matches = ematch(g, lhs("(f ~a::number) --> ~a"))
    assert len(matches) == 1
    assert matches[0].literal_dict() == {0: 2}


def test_inconsistent_class_detected():
    g, (two, three, fx) = build("2", "3", "(f 2)")
    g.merge(two, three)
    g.rebuild()
    with pytest.raises(InconsistentClass):
        ematch(g, lhs("(f ~a::number) --> ~a"))


def test_commutativity_match_count():
    g, _ = build("(+ (* a b) (* c d))")
    matches = ematch(g, lhs("(* ~a ~b) --> (* ~b ~a)"))
    assert len(matches) == 2


def test_determinism():
    g, _ = build("(f (g x) (g y))", "(g (g x))")
    p = lhs("(g ~x) --> ~x")
    assert ematch(g, p) == ematch(g, p)


# -- soundness --------------------------------------------------------------


def test_match_soundness_by_enumeration():
    g, _ = build("(* (sin q) (cos q))", "(* x 1)")
    for m in ematch(g, lhs("(* ~a ~b) --> (* ~b ~a)")):
        a_terms = enumerate_terms(g, m.binding_dict()[0], 4)
        b_terms = enumerate_terms(g, m.binding_dict()[1], 4)
        rep = enumerate_terms(g, m.class_id, 5)
        assert any(
            Compound("*", (ta, tb)) in rep for ta in a_terms for tb in b_terms
        )


# -- oracle equivalence -----------------------------------------------------

_ops = ["f", "g", "+"]
_leaves = [Atom("a"), Atom("b"), Lit(1), Lit(2)]


@st.composite
def graphs(draw):
    g = EGraph()
    pool = [g.add_term(t) for t in _leaves]
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(_ops))
        n = draw(st.integers(1, 2))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(n))
        pool.append(g.add_enode(OpNode(op, args)))
    for _ in range(draw(st.integers(0, 3))):
        g.merge(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
    g.rebuild()
    return g


@st.composite
def pattern_lines(draw, depth=3):
    def pat(d):
        if d == 0 or draw(st.booleans()):
            return draw(st.sampled_from(["~v", "~w", "a", "b", "1", "2"]))
        n = draw(st.integers(1, 2))
        op = draw(st.sampled_from(_ops))
        return f"({op} " + " ".join(pat(d - 1) for _ in range(n)) + ")"

    src = pat(depth)
    return f"{src} --> 0"


@settings(max_examples=60, deadline=None)
@given(graphs(), pattern_lines())
def test_vm_matches_naive_oracle(g, line):
    pattern = lhs(line)
    got = {(m.class_id, m.bindings) for m in ematch(g, pattern)}
    assert got == naive_ematch(g, pattern)


# -- operator index ---------------------------------------------------------


def _random_unrebuilt_graph(rng):
    """A random graph whose last merges may not be rebuilt yet."""
    g = EGraph()
    pool = [g.add_term(t) for t in _leaves]
    for _ in range(rng.randint(1, 10)):
        args = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        pool.append(g.add_enode(OpNode(rng.choice(_ops), args)))
    for _ in range(rng.randint(0, 3)):
        g.merge(rng.choice(pool), rng.choice(pool))
    if rng.random() < 0.5:
        g.rebuild()
    return g, pool


def _random_pattern(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(["~v", "~w", "a", "b", "1", "2"])
    args = " ".join(_random_pattern(rng, depth - 1) for _ in range(rng.randint(1, 2)))
    return f"({rng.choice(_ops)} {args})"


def test_classes_by_op_lists_holding_classes_in_id_order():
    rng = random.Random(11)
    for _ in range(50):
        g, _ = _random_unrebuilt_graph(rng)
        expected = {}
        for cid in g.canonical_ids():
            for op in sorted({n.op for n in g.class_nodes(cid) if isinstance(n, OpNode)}):
                expected.setdefault(op, []).append(cid)
        assert g.classes_by_op() == expected


# rooted at a variable, a literal, a symbol, a ground term, and an operator
_FIXED_PATTERNS = ["~v", "1", "a", "(f a)", "(+ ~v ~v)", "(g (f ~v))"]


def test_indexed_ematch_matches_naive_oracle():
    rng = random.Random(12)
    for _ in range(150):
        g, pool = _random_unrebuilt_graph(rng)
        srcs = _FIXED_PATTERNS + [_random_pattern(rng, 3) for _ in range(4)]
        # a pattern with a ground subterm rebuilds a graph with pending
        # merges, so the others search the graph as it is first
        srcs.sort(
            key=lambda src: bool(compile_pattern(lhs(f"{src} --> 0")).ground_subterms)
        )
        for step in range(3):  # as built; grown and merged; rebuilt
            if step == 1:
                pool.append(g.add_enode(OpNode(rng.choice(_ops), (rng.choice(pool),))))
                g.merge(rng.choice(pool), rng.choice(pool))
            if step == 2:
                g.rebuild()
            for src in srcs:
                p = lhs(f"{src} --> 0")
                got = ematch(g, p)
                assert [m.class_id for m in got] == sorted(m.class_id for m in got)
                assert len(set(got)) == len(got)
                assert {(m.class_id, m.bindings) for m in got} == naive_ematch(g, p), src


def test_ground_pattern_on_unrebuilt_graph():
    g, _ = build("(f b)", "(g a)", "(h a)")
    g.merge(g.lookup_term(Atom("a")), g.lookup_term(Atom("b")))  # not rebuilt
    assert len(ematch(g, lhs("(f ~x) --> 0"))) == 1
    (m,) = ematch(g, lhs("(f a) --> 0"))
    assert m.class_id == g.find(g.lookup_term(parse_term("(f b)")))
    assert not g.worklist


def test_ematch_after_growth_sees_new_classes():
    g, _ = build("(f a)")
    pattern = lhs("(h ~x) --> ~x")
    assert ematch(g, pattern) == []
    assert len(ematch(g, lhs("(f ~x) --> ~x"))) == 1
    hb = g.add_term(parse_term("(h b)"))
    (m,) = ematch(g, pattern)
    assert m.class_id == hb
    g.add_term(parse_term("(f b)"))
    assert len(ematch(g, lhs("(f ~x) --> ~x"))) == 2


def test_ematch_program_stops_at_limit():
    g, _ = build("(+ (f a) (f b))", "(f (f 1))", "(g (f 2))")
    g.merge(g.lookup_term(parse_term("(f a)")), g.lookup_term(parse_term("(f b)")))
    g.rebuild()  # the first root class now holds two matches
    prog = compile_pattern(lhs("(f ~x) --> ~x"))
    every = ematch_program(g, prog)
    assert len(every) == 5
    assert every[0].class_id == every[1].class_id
    for limit in range(7):
        assert ematch_program(g, prog, limit) == every[:limit]
    root = every[0].class_id
    assert run_program(g, prog, root, limit=1) == every[:1]
    assert run_program(g, prog, root, limit=0) == []


def test_run_program_yields_each_match_once():
    g, _ = build("(f a)", "(f b)", "(g a)", "(h a)")
    a, b = g.lookup_term(Atom("a")), g.lookup_term(Atom("b"))
    fa, fb = g.lookup_term(parse_term("(f a)")), g.lookup_term(parse_term("(f b)"))
    g.merge(a, b)
    root = g.merge(fa, fb)  # not rebuilt: both f nodes match with ~x = a
    prog = compile_pattern(lhs("(f ~x) --> ~x"))
    assert run_program(g, prog, root) == [EMatch(root, ((0, g.find(a)),), ())]
