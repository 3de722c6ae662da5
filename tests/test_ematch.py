import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import enumerate_terms, naive_ematch
from eqsat.analysis import analyze, sign_analysis
from eqsat.egraph import EGraph, OpNode
from eqsat.errors import InconsistentClass, SegmentUnsupported
from eqsat import machine
from eqsat.machine import (
    EMatch,
    RunState,
    compile_pattern,
    ematch,
    ematch_program,
    run_program,
)
from eqsat.rules import PatTerm, PatVar, Theory, class_literal, parse_rule
from eqsat.saturation import compile_theory
from eqsat.terms import Atom, Compound, Lit, parse_term, print_term


def lhs(line):
    return parse_rule(line, set()).lhs


def built(g, line, since=-1):
    """The literal that a `=>` rule builds for each match its search builds
    on `g`."""
    (cr,) = compile_theory(Theory("t", [parse_rule(line, set())]))
    (d,) = cr.directions
    matches = ematch_program(g, d.program, since=since)
    return [class_literal(g, d.instantiate(g, m)) for m in matches]


def build(*srcs):
    g = EGraph()
    ids = [g.add_term(parse_term(s)) for s in srcs]
    g.rebuild()
    return g, ids


# -- compilation ------------------------------------------------------------


def test_compile_golden():
    prog = compile_pattern(lhs("(* ~a 1) --> ~a"))
    assert prog.root_op == "*"
    assert prog.n_regs == 3  # the root, then one register per argument
    g, (i, _, j) = build("(* x 1)", "(* y 2)", "(* z 1.0)")
    assert ematch_program(g, prog) == [
        (g.find(i), g.lookup_term(Atom("x"))),
        (g.find(j), g.lookup_term(Atom("z"))),
    ]


def test_compile_bare_variable():
    prog = compile_pattern(lhs("~x --> ~x"))
    assert prog.root_op is None
    assert prog.n_regs == 1
    g, (i,) = build("a")
    assert ematch_program(g, prog) == [(i, i)]


def test_compile_repeated_var_compares():
    prog = compile_pattern(lhs("(* (sin ~x) (cos ~x)) --> ~x"))
    g, (i, j) = build("(* (sin a) (cos a))", "(* (sin a) (cos b))")
    a = g.lookup_term(Atom("a"))
    assert ematch_program(g, prog) == [(g.find(i), a)]
    g.merge(a, g.lookup_term(Atom("b")))
    g.rebuild()  # the two products are now congruent
    assert g.find(i) == g.find(j)
    assert ematch_program(g, prog) == [(g.find(i), g.find(a))]


def test_compile_predicate():
    prog = compile_pattern(lhs("(+ ~a::number ~b) --> ~b"))
    assert prog.root_op == "+"
    assert prog.lifts == {0: "number"}  # the literal kind the guard checks
    g, (i, _) = build("(+ 2 x)", "(+ y x)")
    x = g.lookup_term(Atom("x"))
    assert ematch_program(g, prog) == [(g.find(i), g.lookup_term(Lit(2)), x)]


def test_compile_ground_subterm():
    # a ground subterm compiles like any other subterm
    prog = compile_pattern(lhs("(f (g 1 2) ~x) --> ~x"))
    assert prog.root_op == "f"
    assert prog.n_regs == 5
    g, (i, _, _) = build("(f (g 1 2) a)", "(f (g 1 3) b)", "(f (h 1 2) c)")
    assert ematch_program(g, prog) == [(g.find(i), g.lookup_term(Atom("a")))]


def test_compile_rejects_segments_and_var_ops():
    with pytest.raises(SegmentUnsupported):
        compile_pattern(lhs("(f ~~xs) --> (f ~~xs)"))
    with pytest.raises(SegmentUnsupported):
        compile_pattern(lhs("(~f ~x) --> ~x"))


def test_compile_deterministic():
    pattern = lhs("(f ~x (g ~y ~x)) --> ~y")
    a, b = compile_pattern(pattern), compile_pattern(pattern)
    assert a != b  # a program compares by identity
    assert (a.root_op, a.n_regs) == (b.root_op, b.n_regs)
    g, _ = build("(f p (g q p))", "(f r (g s r))", "(f p (g r p))", "(f p (g q r))")
    found = ematch_program(g, a)
    assert len(found) == 3
    assert ematch_program(g, b) == found


# -- execution --------------------------------------------------------------


def test_run_simple_match():
    g, (i,) = build("(* x 1)")
    matches = ematch(g, lhs("(* ~a 1) --> ~a"))
    assert len(matches) == 1
    m = matches[0]
    assert m == (g.find(i), g.lookup_term(Atom("x")))


def test_bare_variable_matches_every_class():
    g, _ = build("(f (g x))")
    assert len(ematch(g, lhs("~x --> ~x"))) == g.n_eclasses


def test_ground_pattern():
    g, (i, _) = build("(f a)", "(g b)")
    matches = ematch(g, lhs("(f a) --> done"))
    assert matches == [(g.find(i),)]
    assert ematch(g, lhs("(f zzz) --> done")) == []


def test_repeated_variable_after_merge():
    g, (i,) = build("(/ (* 2 3) 6)")
    assert ematch(g, lhs("(/ ~a ~a) --> 1")) == []
    g.merge(g.lookup_term(parse_term("(* 2 3)")), g.lookup_term(Lit(6)))
    g.rebuild()
    matches = ematch(g, lhs("(/ ~a ~a) --> 1"))
    assert len(matches) == 1


def test_literal_lifting():
    # a `=>` rule builds with the literal its guard checks
    g, (i,) = build("(+ 2 x)")
    assert built(g, "(+ ~a::number ~b) => (+ ~a 1)") == [3]


@pytest.mark.parametrize(
    "kind, lifted", [("number", [2, 2.5]), ("int", [2]), ("real", [2.5])]
)
def test_literal_kind_predicates(kind, lifted):
    g, _ = build("(f 2)", "(f 2.5)", "(f x)")
    assert compile_pattern(lhs(f"(f ~a::{kind}) --> ~a")).lifts == {0: kind}
    assert built(g, f"(f ~a::{kind}) => (* ~a 2)") == [2 * v for v in lifted]


def test_literal_lifting_after_merge():
    # a symbolic class that also holds a literal lifts the literal
    g, (fx, two) = build("(f x)", "2")
    g.merge(g.lookup_term(Atom("x")), two)
    g.rebuild()
    assert built(g, "(f ~a::number) => (+ ~a 1)") == [3]


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
        root, a, b = m
        a_terms = enumerate_terms(g, a, 4)
        b_terms = enumerate_terms(g, b, 4)
        rep = enumerate_terms(g, root, 5)
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


@st.composite
def path_lines(draw, g, depth=3):
    """A pattern drawn down a path of `g` from a class with an operator node,
    which matches there when its variables do. A leaf is a literal that its
    class holds or a variable, ~v or ~w, so that variables repeat."""

    def path(cid, d):
        nodes = g.class_nodes(cid)
        ops = [n for n in nodes if type(n) is OpNode]
        if d == 0 or not ops:
            leaves = [print_term(n) for n in nodes if type(n) is not OpNode]
            return draw(st.sampled_from(leaves + ["~v", "~w"]))
        op, args = draw(st.sampled_from(ops))
        return f"({op} {' '.join(path(c, d - 1) for c in args)})"

    roots = [c for c in g.canonical_ids() if OpNode in map(type, g.class_nodes(c))]
    return f"{path(draw(st.sampled_from(roots)), depth)} --> 0"


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_vm_matches_naive_oracle(g, data):
    # half the patterns run down a path of the graph, so that nested ones match
    line = data.draw(path_lines(g) if data.draw(st.booleans()) else pattern_lines())
    pattern = lhs(line)
    got = ematch(g, pattern)
    _assert_match_shapes(g, pattern, got)
    assert set(got) == naive_ematch(g, pattern)


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


def _naive_nodes_by_op(g):
    """`nodes_by_op` by a scan of every class's nodes and their stamps."""
    out = {}
    for cid in g.canonical_ids():
        for n, stamp in g.classes[cid].nodes.items():
            if isinstance(n, OpNode):
                out.setdefault((n.op, len(n.children)), {}).setdefault(cid, []).append(
                    (n.children, stamp)
                )
    return out


def test_nodes_by_op_lists_rows_in_id_and_node_order():
    def ordered(index):  # dict equality would not see the order
        return {key: list(rows.items()) for key, rows in index.items()}

    rng = random.Random(11)
    for _ in range(50):
        g, _ = _random_unrebuilt_graph(rng)
        index = g.nodes_by_op()
        assert ordered(index) == ordered(_naive_nodes_by_op(g))
        for rows in index.values():
            assert list(rows) == sorted(rows)  # the roots of a search, in id order
        # a row made since the last rebuild carries the next one's stamp
        for rows in index.values():
            for row in rows.values():
                assert all(0 < stamp <= g.rebuilds + 1 for _, stamp in row)
        # a rebuild can make nodes canonical without moving the version
        before = {
            (n, cid): stamp
            for cid, cls in g.classes.items()
            for n, stamp in cls.nodes.items()
        }
        g.rebuild()
        index = g.nodes_by_op()
        assert ordered(index) == ordered(_naive_nodes_by_op(g))
        # a row keeps its stamp when the rebuild leaves it in its class, and
        # otherwise takes this rebuild's
        for (op, arity), rows in index.items():
            for cid, row in rows.items():
                for children, stamp in row:
                    old = before.get((OpNode(op, children), cid))
                    assert stamp == (g.rebuilds if old is None else old)


# -- stamped search ---------------------------------------------------------

# rooted at a variable and at a literal, with literal checks, repeated
# variables, a literal guard (lifting) and the sign guards; ending in a bind
# that yields (a leaf bind) at the root and at depths 1 and 2, one of them
# after a guard
_STAMP_PATTERNS = [
    "~v", "1", "a", "~v::number", "~v::notzero", "~v::iszero", "(f ~v)",
    "(f ~v::number)", "(+ ~v ~v)", "(g (f ~v))", "(+ 1 ~v)", "(f 3)",
    "(+ ~v::notzero ~w)", "(f ~v::iszero)", "(g ~v::cansimplifyfraction ~w::int)",
    "(+ (f ~v) ~w)", "(g (+ ~v (f ~w)))", "(+ ~v::notzero (g ~w))",
]
_SIGNS = st.sampled_from([-1, 0, 1])


def _search(g, prog, since=-1):
    """The search's result, or None where two literals share a class."""
    try:
        return ematch_program(g, prog, since=since)
    except InconsistentClass:
        return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_stamped_search_builds_only_the_new_matches(data):
    draw = data.draw
    g = EGraph()
    analyze(g, sign_analysis({"a": draw(_SIGNS), "b": draw(_SIGNS)}))
    pool = [g.add_term(t) for t in _leaves]

    def add():
        arity = draw(st.integers(1, 2))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        pool.append(g.add_enode(OpNode(draw(st.sampled_from(_ops)), args)))

    for _ in range(draw(st.integers(1, 8))):
        add()
    for _ in range(draw(st.integers(0, 2))):
        g.merge(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
    g.rebuild()
    progs = [compile_pattern(lhs(f"{src} --> 0")) for src in _STAMP_PATTERNS]
    first = [_search(g, prog) for prog in progs]
    assert not any(None in ms for ms in first if ms)  # -1 builds every match
    since = g.rebuilds
    for prog, before in zip(progs, first):
        if before is not None:  # on the graph searched, every match is old
            assert _search(g, prog, since) == [None] * len(before)
    for _ in range(draw(st.integers(1, 6))):
        step = draw(st.sampled_from(["add", "merge", "literal", "signs", "rebuild"]))
        if step == "add":
            add()
        elif step == "merge":
            g.merge(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        elif step == "literal":  # a class gains a literal by a merge alone
            # a new literal's class has no parents, so the class keeps its id
            lit = g.add_enode(Lit(draw(st.sampled_from([1, 2, 3, 3]))))
            g.merge(draw(st.sampled_from(pool)), lit)
        elif step == "signs":  # classes change sign in `_propagate` alone
            analyze(g, sign_analysis({"a": draw(_SIGNS), "b": draw(_SIGNS)}))
        else:
            g.rebuild()
    g.rebuild()
    for src, prog, before in zip(_STAMP_PATTERNS, progs, first):
        every = _search(g, prog)
        if before is None or every is None:
            continue
        assert None not in every
        new = _search(g, prog, since)
        # one entry per match, in the full search's order; an entry not built
        # is a match of the first search
        assert len(new) == len(every), src
        old = set(before)
        for m, full in zip(new, every):
            assert m == full if m is not None else full in old, src


def test_stamped_search_sees_a_literal_gained_by_a_merge():
    g, (fx,) = build("(f x)")
    x = g.lookup_term(Atom("x"))
    srcs = ("(f ~v::number)", "(f 2)")
    progs = [compile_pattern(lhs(f"{src} --> 0")) for src in srcs]
    assert [ematch_program(g, prog) for prog in progs] == [[], []]
    since = g.rebuilds
    two = g.add_term(Lit(2))
    assert g.merge(x, two) == x  # x keeps its id, so the row (f x) is an old one
    g.rebuild()
    assert ematch_program(g, progs[0], since=since) == [(fx, x)]
    assert ematch_program(g, progs[1], since=since) == [(fx,)]
    assert built(g, "(f ~v::number) => (+ ~v 1)", since) == [3]


def test_stamped_search_sees_a_sign_set_by_propagation():
    g, (fa,) = build("(f a)")
    a = g.lookup_term(Atom("a"))
    analyze(g, sign_analysis({}))  # a has no sign
    prog = compile_pattern(lhs("(f ~v::notzero) --> 0"))
    assert ematch_program(g, prog) == []
    since = g.rebuilds
    analyze(g, sign_analysis({"a": 1}))  # no row changes, only a's data
    assert ematch_program(g, prog, since=since) == [(fa, a)]


# rooted at a variable, a literal, a symbol, a ground term, and an operator
_FIXED_PATTERNS = ["~v", "1", "a", "(f a)", "(+ ~v ~v)", "(g (f ~v))"]
# literal-kind variables, which lift their class's literal into the match; the
# naive oracle is predicate-free, so these are checked for duplicates only
_LIFTING_PATTERNS = [
    "~v::number", "(f ~v::int)", "(+ ~v::number ~w)", "(+ ~v::int ~v)",
    "(g (f ~v::number))",
]


def _variables(p) -> dict[int, str]:
    """Variable index -> the literal kind a literal-kind predicate guards it
    with, or ""."""
    out: dict[int, str] = {}
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, PatVar):
            ref = q.predicate
            kind = ref.name if ref and ref.name in ("number", "int", "real") else ""
            out[q.index] = out.get(q.index) or kind
        elif isinstance(q, PatTerm):
            todo += q.args
    return out


def _assert_match_shapes(g, p, got) -> None:
    """Each match is a plain tuple of 1 + n_vars canonical class ids: its
    root class, then the class of each variable."""
    variables = _variables(p)
    assert compile_pattern(p).lifts == {i: k for i, k in variables.items() if k}
    for m in got:
        assert type(m) is tuple and len(m) == 1 + len(variables)
        assert all(type(c) is int and g.find(c) == c for c in m)


def test_indexed_ematch_matches_naive_oracle():
    rng = random.Random(12)
    mixed = 0  # lifted literals whose class also holds an operator node
    shapes = set()  # the variable counts of the matches checked
    for _ in range(150):
        g, pool = _random_unrebuilt_graph(rng)
        srcs = _FIXED_PATTERNS + [_random_pattern(rng, 3) for _ in range(4)]
        # as built; grown and merged; rebuilt; the literal 1 merged with an operator
        for step in range(4):
            if step == 1:
                pool.append(g.add_enode(OpNode(rng.choice(_ops), (rng.choice(pool),))))
                g.merge(rng.choice(pool), rng.choice(pool))
            if step == 2:
                g.rebuild()
            if step == 3:
                g.merge(pool[2], pool[4])
            for src in srcs:
                p = lhs(f"{src} --> 0")
                got = ematch(g, p)
                assert [m[0] for m in got] == sorted(m[0] for m in got)
                assert len(set(got)) == len(got)
                assert set(got) == naive_ematch(g, p), src
                _assert_match_shapes(g, p, got)
                shapes.update(len(m) - 1 for m in got)
            for src in _LIFTING_PATTERNS:
                p = lhs(f"{src} --> 0")
                try:
                    got = ematch(g, p)
                except InconsistentClass:  # the literals 1 and 2 share a class
                    continue
                assert [m[0] for m in got] == sorted(m[0] for m in got)
                assert len(set(got)) == len(got), src
                _assert_match_shapes(g, p, got)
                shapes.update(len(m) - 1 for m in got)
                lifted = compile_pattern(p).lifts
                for m in got:
                    for i in lifted:
                        nodes = g.class_nodes(m[1 + i])
                        mixed += any(isinstance(n, OpNode) for n in nodes)
    assert mixed >= 500
    assert {0, 1, 2} <= shapes


def test_ground_pattern_on_unrebuilt_graph():
    g, _ = build("(f b)", "(g a)", "(h a)")
    g.merge(g.lookup_term(Atom("a")), g.lookup_term(Atom("b")))  # not rebuilt
    assert len(ematch(g, lhs("(f ~x) --> 0"))) == 1
    assert not g.pending  # a variable pattern rebuilds first too
    (m,) = ematch(g, lhs("(f a) --> 0"))
    assert m == (g.find(g.lookup_term(parse_term("(f b)"))),)
    assert not g.pending


def test_ematch_after_growth_sees_new_classes():
    g, _ = build("(f a)")
    pattern = lhs("(h ~x) --> ~x")
    assert ematch(g, pattern) == []
    assert len(ematch(g, lhs("(f ~x) --> ~x"))) == 1
    hb = g.add_term(parse_term("(h b)"))
    (m,) = ematch(g, pattern)
    assert m[0] == hb
    g.add_term(parse_term("(f b)"))
    assert len(ematch(g, lhs("(f ~x) --> ~x"))) == 2


def test_ematch_program_stops_at_limit():
    g, _ = build("(+ (f a) (f b))", "(f (f 1))", "(g (f 2))")
    g.merge(g.lookup_term(parse_term("(f a)")), g.lookup_term(parse_term("(f b)")))
    g.rebuild()  # the first root class now holds two matches
    prog = compile_pattern(lhs("(f ~x) --> ~x"))
    every = ematch_program(g, prog)
    assert len(every) == 5
    assert every[0][0] == every[1][0]
    for limit in range(7):
        assert ematch_program(g, prog, limit) == every[:limit]
    root = every[0][0]
    assert run_program(g, prog, root, limit=1) == every[:1]
    assert run_program(g, prog, root, limit=0) == []


def test_run_program_yields_each_match_once():
    g, _ = build("(f a)", "(f b)", "(g a)", "(h a)")
    a, b = g.lookup_term(Atom("a")), g.lookup_term(Atom("b"))
    fa, fb = g.lookup_term(parse_term("(f a)")), g.lookup_term(parse_term("(f b)"))
    g.merge(a, b)
    root = g.merge(fa, fb)  # not rebuilt: both f nodes match with ~x = a
    prog = compile_pattern(lhs("(f ~x) --> ~x"))
    assert run_program(g, prog, root) == [(root, g.find(a))]


# -- one run state per search ----------------------------------------------

# rooted at a variable, a literal and a symbol; lifted literal guards, one of
# them on a repeated variable; repeated variables; nested operators; a leaf
# bind at the root and at depths 1 and 2
_SHARED_PATTERNS = [
    "~v", "1", "a", "~v::number", "(f ~v)", "(f ~v::number)", "(+ ~v ~v)",
    "(+ ~v::number ~w)", "(+ ~v::int ~v)", "(g (f ~v))", "(+ 1 ~v)",
    "(g ~v::number (f ~w))", "(f (+ ~v ~w))", "(+ (f ~v) ~w)",
    "(g (+ ~v (f ~w)))",
]


def _per_root(g, prog, since):
    """Each canonical class's own run, as a standalone `run_program` makes
    it; None where two literals share a class."""
    try:
        return [run_program(g, prog, cid, None, since) for cid in g.canonical_ids()]
    except InconsistentClass:
        return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_shared_run_equals_the_runs_of_single_roots(data):
    draw = data.draw
    g = EGraph()
    pool = [g.add_term(t) for t in _leaves + [Lit(3), Lit(2.5)]]

    def grow():
        for _ in range(draw(st.integers(1, 8))):
            args = tuple(draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 2))))
            pool.append(g.add_enode(OpNode(draw(st.sampled_from(_ops)), args)))
        for _ in range(draw(st.integers(0, 3))):
            g.merge(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        g.rebuild()

    grow()
    since = g.rebuilds
    grow()
    for src in _SHARED_PATTERNS:
        prog = compile_pattern(lhs(f"{src} --> 0"))
        for s in (-1, since):
            runs = _per_root(g, prog, s)
            if runs is None:
                continue
            every = [m for ms in runs for m in ms]
            assert ematch_program(g, prog, since=s) == every, src
            # small limits, some of which end a run in the middle of its
            # root class, and the limits at and one past the end
            for limit in {*range(1, 7), len(every), len(every) + 1} - {0}:
                got = ematch_program(g, prog, limit, since=s)
                assert got == every[:limit], (src, limit)
            index = g.nodes_by_op()
            if not index.keys() >= prog.ops:
                assert every == []
                continue
            # one run state for every root, each run cut at a limit of its own
            run = RunState(g, prog.n_regs)
            for i, (cid, ms) in enumerate(zip(g.canonical_ids(), runs)):
                limit = 1 + i % 3
                assert run_program(g, prog, cid, limit, s, run) == ms[:limit], src
    # several programs searched in a row with one run state, as a step
    # searches, sized for the largest: each finds what it finds alone
    srcs = draw(st.lists(st.sampled_from(_SHARED_PATTERNS), min_size=2, max_size=6))
    progs = [compile_pattern(lhs(f"{src} --> 0")) for src in srcs]
    run = RunState(g, max(p.n_regs for p in progs))
    for src, prog in zip(srcs, progs):
        if not run.index.keys() >= prog.ops:
            continue  # a step searches only a program whose keys are all there
        limit = draw(st.sampled_from([None, 1, 2, 3, 5]))
        s = draw(st.sampled_from([-1, since, g.rebuilds]))
        try:
            alone = ematch_program(g, prog, limit, since=s)
        except InconsistentClass:  # two literals share a class
            continue
        assert ematch_program(g, prog, limit, since=s, run=run) == alone, (src, limit, s)


def _last_step(prog):
    """The name of the closure that ends the program's chain of steps."""
    f = prog.start
    while "k" in inspect.signature(f).parameters:
        f = inspect.signature(f).parameters["k"].default
    return f.__name__


@pytest.mark.parametrize(
    "src, last",
    [
        ("(f ~v)", "bind_yield"),
        ("(+ (f ~v) ~w)", "bind_yield"),
        ("(g (+ ~v (f ~w)))", "bind_yield"),
        ("(+ ~v::number (f ~w))", "bind_yield"),
        ("~v", "yield_"),
        ("(f ~v::number)", "yield_"),
        ("(+ 1 ~v)", "yield_"),
        ("(+ (f ~v) ~v)", "yield_"),
    ],
)
def test_a_program_that_ends_in_a_bind_yields_from_it(src, last):
    assert _last_step(compile_pattern(lhs(f"{src} --> 0"))) == last


def test_leaf_bind_stops_inside_its_rows():
    # one class holds three f rows, and a g row names it: the leaf bind of
    # each pattern reads those three rows in one loop
    g = EGraph()
    a, b, c = (g.add_term(Atom(x)) for x in "abc")
    f0, f1, f2 = (g.add_enode(OpNode("f", (x,))) for x in (a, b, c))
    g.merge(f0, f1)
    g.merge(f0, f2)
    g.add_enode(OpNode("g", (f0,)))
    g.rebuild()
    for src in ("(f ~v)", "(g (f ~v))"):
        prog = compile_pattern(lhs(f"{src} --> 0"))
        every = ematch_program(g, prog)
        (root,) = {m[0] for m in every}
        assert every == [(root, a), (root, b), (root, c)], src
        for limit in (1, 2, 3, 4):
            assert ematch_program(g, prog, limit) == every[:limit], src
            assert run_program(g, prog, root, limit) == every[:limit], src
            # rows as old as the search are counted, not built
            old = ematch_program(g, prog, limit, since=g.rebuilds)
            assert old == [None] * min(limit, 3), src


def test_absent_operator_runs_no_root(monkeypatch):
    g, _ = build("(f a)", "(f (g b))", "(+ 1 2)")
    calls = []
    real = machine.run_program

    def counted(g, prog, root, *args):
        calls.append(root)
        return real(g, prog, root, *args)

    monkeypatch.setattr(machine, "run_program", counted)
    # no class holds an h node, nor a g node of two arguments
    for src, ops in [
        ("(f (h ~v))", {("f", 1), ("h", 1)}),
        ("(f (g ~v ~w))", {("f", 1), ("g", 2)}),
    ]:
        prog = compile_pattern(lhs(f"{src} --> 0"))
        assert prog.ops == ops
        assert ematch_program(g, prog) == [] and calls == [], src
        assert ematch_program(g, prog, 3, since=0) == [] and calls == [], src
    # every key present, no match: the root still runs
    plus = g.lookup_term(parse_term("(+ 1 2)"))
    assert ematch_program(g, compile_pattern(lhs("(+ ~v (f 1)) --> 0"))) == []
    assert calls == [plus]
    calls.clear()
    prog = compile_pattern(lhs("(f (h ~v)) --> 0"))
    g.add_term(parse_term("(h c)"))
    assert ematch_program(g, prog) == [] and len(calls) == 2  # both f roots
    calls.clear()
    fhc = g.add_term(parse_term("(f (h c))"))
    c = g.lookup_term(Atom("c"))
    assert ematch_program(g, prog) == [(fhc, c)] and len(calls) == 3


def test_every_root_is_one_run_program_call(monkeypatch):
    g, _ = build("(f a)", "(f (g b))", "(f (f 1))", "(g (f 2) a)", "(+ (f a) (f b))")
    g.merge(g.lookup_term(parse_term("(f a)")), g.lookup_term(parse_term("(f b)")))
    g.rebuild()
    runs = []
    real = machine.run_program

    def counted(g, prog, root, *args):
        out = real(g, prog, root, *args)
        runs.append((root, out))
        return out

    monkeypatch.setattr(machine, "run_program", counted)
    for src in ("(f ~x)", "(f (f ~x::number))", "(g ~x ~y)", "~x", "a"):
        prog = compile_pattern(lhs(f"{src} --> 0"))
        runs.clear()
        found = ematch_program(g, prog)
        assert found
        if prog.root_op is None:
            roots = g.canonical_ids()
        else:
            roots = list(g.nodes_by_op()[prog.root_op, prog.root_arity])
        assert [root for root, _ in runs] == roots, src
        assert [m for _, out in runs for m in out] == found, src


def test_a_match_is_one_flat_tuple_of_class_ids():
    # (root class, class of variable 0, class of variable 1, ...): class ids,
    # nothing else, in a plain tuple that hashes and compares in C
    assert EMatch == tuple[int, ...]
    g, (i, _) = build("(+ x (f y))", "(+ x 1)")
    x, y = g.lookup_term(Atom("x")), g.lookup_term(Atom("y"))
    for line, want in [
        ("(+ ~a (f ~b)) --> 0", [(g.find(i), x, y)]),  # ends in a leaf bind
        ("(+ ~a (f y)) --> 0", [(g.find(i), x)]),  # ends in a literal check
        ("(+ x (f y)) --> 0", [(g.find(i),)]),  # no variable
    ]:
        (m,) = ematch(g, lhs(line))
        assert [m] == want and type(m) is tuple, line
        assert hash(m) == hash(want[0])


def test_guarded_search_on_a_rebuilt_graph_calls_no_find(monkeypatch):
    g, _ = build(
        "(+ 2 x)", "(+ x 3)", "(* (+ 2 x) y)", "(/ (* 2 x) (* 2 x))", "(/ y 0)",
        "(+ (f 1) 1)",
    )
    g.merge(g.lookup_term(parse_term("(f 1)")), g.lookup_term(Lit(1)))
    g.rebuild()
    analyze(g, sign_analysis())
    calls = []
    real = EGraph.find

    def counted(self, i):
        calls.append(i)
        return real(self, i)

    monkeypatch.setattr(EGraph, "find", counted)
    found = []
    for line in (
        "(+ ~a::number ~b) --> ~b",
        "(+ ~a::int ~a) --> ~a",
        "(/ ~x::cansimplifyfraction ~x::cansimplifyfraction) --> 1",
        "(/ ~x ~y::notzero) --> ~x",
        "(/ ~x ~y::iszero) --> ~x",
        "(* ~x::near_zero(3) ~y) --> 0",
    ):
        matches = ematch_program(g, compile_pattern(lhs(line)))
        assert matches, line
        found += matches
    assert calls == []
