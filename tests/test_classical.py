import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from eqsat.classical import (
    Chain,
    Fixpoint,
    PassThrough,
    Postwalk,
    Prewalk,
    apply_rule,
    instantiate,
    match,
    parse_strategy,
    rule_rewriter,
)
from eqsat.errors import ContractViolation, UnsupportedRuleKind
from eqsat.rules import PatSegment, PatTerm, PatVar, parse_rule, parse_theory
from eqsat.terms import Atom, Compound, Lit, parse_term, print_term

FOLDER = parse_theory(
    "(+ ~a::number ~b::number) => (+ ~a ~b)\n(* ~a::number ~b::number) => (* ~a ~b)\n"
)


def match_line(lhs_line, term_src):
    rule = parse_rule(lhs_line, set())
    return match(rule.lhs, parse_term(term_src)), rule


# -- matching ---------------------------------------------------------------


def test_match_simple():
    s, rule = match_line("(* ~a 1) --> ~a", "(* x 1)")
    assert s == {0: Atom("x")}


def test_match_repeated_variable_consistency():
    s, _ = match_line("(* ~a ~a) --> ~a", "(* x y)")
    assert s is None
    s, _ = match_line("(* ~a ~a) --> ~a", "(* x x)")
    assert s == {0: Atom("x")}


def test_match_literal_value_based():
    s, _ = match_line("(* ~a 1) --> ~a", "(* x 1.0)")
    assert s == {0: Atom("x")}
    s, _ = match_line("(* ~a 1) --> ~a", "(* x 2)")
    assert s is None


def test_match_segments_shortest_split_first():
    s, _ = match_line("(f ~~pre 3 ~~post) --> (f ~~pre ~~post)", "(f 1 2 3 4)")
    assert s == {0: (Lit(1), Lit(2)), 1: (Lit(4),)}


def test_match_empty_segment():
    s, _ = match_line("(f ~~s) --> (f ~~s)", "(f)")
    assert s == {0: ()}


def test_match_variable_operation():
    s, rule = match_line("(~f ~x) --> (~f (~f ~x))", "(g a)")
    assert s == {0: Atom("g"), 1: Atom("a")}
    assert instantiate(rule.rhs, s) == parse_term("(g (g a))")


def test_match_predicate_gate():
    s, _ = match_line("(+ ~a::number ~b) --> ~b", "(+ 1 x)")
    assert s == {0: Lit(1), 1: Atom("x")}
    s, _ = match_line("(+ ~a::number ~b) --> ~b", "(+ y x)")
    assert s is None


def test_match_segment_predicate():
    s, _ = match_line("(f ~~xs::number) --> (f ~~xs)", "(f 1 2)")
    assert s == {0: (Lit(1), Lit(2))}
    s, _ = match_line("(f ~~xs::number) --> (f ~~xs)", "(f 1 y)")
    assert s is None


# -- instantiation ----------------------------------------------------------


def test_instantiate_nested():
    rule = parse_rule("(sin (* 2 ~x)) --> (* 2 (* (sin ~x) (cos ~x)))", set())
    s = match(rule.lhs, parse_term("(sin (* 2 z))"))
    assert instantiate(rule.rhs, s) == parse_term("(* 2 (* (sin z) (cos z)))")


def test_instantiate_bare_variable():
    rule = parse_rule("(id ~a) --> ~a", set())
    s = {0: parse_term("(+ 1 2)")}
    assert instantiate(rule.rhs, s) == parse_term("(+ 1 2)")


def test_instantiate_empty_splice():
    rule = parse_rule("(g ~~s) --> (f ~~s)", set())
    assert instantiate(rule.rhs, {0: ()}) == Compound("f", ())


@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize(
    "line, s, message",
    [
        ("(f ~x) --> (g ~x)", {}, "unbound variable ~x"),
        ("(f ~x) --> (g ~x)", {0: (Atom("a"),)}, "segment ~~x used as a single term"),
        ("(~h ~x) --> (~h 1)", {0: Lit(3)}, "operation variable ~h not bound to a symbol"),
        ("(f ~~s) --> (g ~~s)", {}, "unbound segment ~~s"),
        ("(f ~~s) --> (g ~~s)", {0: Atom("a")}, "unbound segment ~~s"),
    ],
)
def test_instantiate_contract_violations(line, s, message, fold):
    with pytest.raises(ContractViolation, match=message):
        instantiate(parse_rule(line, set()).rhs, s, fold)


@pytest.mark.parametrize("fold", [False, True])
def test_instantiate_rejects_a_segment_at_the_root(fold):
    with pytest.raises(ContractViolation, match="segment outside argument position"):
        instantiate(PatSegment("s", 0), {0: (Lit(1),)}, fold)


@pytest.mark.parametrize(
    "line, term, want",
    [
        # a node whose operator the rule writes folds, under an operator
        # variable too
        ("(~f ~x::number) => (~f (+ ~x 1))", "(g 2)", "(g 3)"),
        ("(h ~x::number) => (k (+ ~x 1))", "(h 2)", "(k 3)"),
        # a node whose operator is a variable never folds
        ("(~f ~x::number ~y::number) => (~f ~x ~y)", "(+ 1 2)", "(+ 1 2)"),
        # spliced arguments fold
        ("(f ~~s::number) => (* ~~s)", "(f 2 3)", "6"),
        ("(f ~~s::number) => (* ~~s)", "(f 2 3 4)", "(* 2 3 4)"),
    ],
)
def test_dynamic_rule_folds_every_node_it_writes(line, term, want):
    assert apply_rule(parse_rule(line, set()), parse_term(term)) == parse_term(want)


# -- apply_rule -------------------------------------------------------------


def test_apply_rule_rewrite():
    rule = parse_rule("(sin (* 2 ~x)) --> (* 2 (* (sin ~x) (cos ~x)))", set())
    out = apply_rule(rule, parse_term("(sin (* 2 z))"))
    assert out == parse_term("(* 2 (* (sin z) (cos z)))")
    assert apply_rule(rule, parse_term("(sin z)")) is None


def test_apply_rule_root_only():
    rule = parse_rule("(+ ~a::number ~b::number) => (+ ~a ~b)", set())
    assert apply_rule(rule, parse_term("(+ 1 2)")) == Lit(3)
    assert apply_rule(rule, parse_term("(f (+ 1 2))")) is None


def test_apply_rule_dynamic_symbolic_fallback():
    rule = parse_rule("(f ~a) => (g ~a)", set())
    assert apply_rule(rule, parse_term("(f x)")) == parse_term("(g x)")


def test_apply_rule_rejects_egraph_kinds():
    for line in ["(* ~a ~b) == (* ~b ~a)", "(f ~x) != g0"]:
        rule = parse_rule(line, set())
        with pytest.raises(UnsupportedRuleKind):
            apply_rule(rule, parse_term("(* x y)"))


def test_apply_rule_keeps_no_rule_alive():
    rule = parse_rule("(f ~x) --> (g ~x)", set())
    assert apply_rule(rule, parse_term("(f a)")) == parse_term("(g a)")
    ref = weakref.ref(rule)
    del rule
    gc.collect()
    assert ref() is None


# -- combinators ------------------------------------------------------------


def fold_rw():
    return [rule_rewriter(r) for r in FOLDER.rules]


def test_empty_and_passthrough():
    assert PassThrough(lambda t: None)(parse_term("x")) == Atom("x")


def test_chain():
    rw = Chain(fold_rw())
    assert rw(parse_term("(+ 1 2)")) == Lit(3)
    assert rw(parse_term("(- 1 2)")) is None


def test_fold_pipeline():
    rw = Fixpoint(Postwalk(Chain(fold_rw())))
    assert rw(parse_term("(+ 1 (+ 2 3))")) == Lit(6)


def test_postwalk_no_match_returns_none():
    assert Postwalk(lambda t: None)(parse_term("(f (g x))")) is None
    # PassThrough keeps per-node identity, so the walk reports the term itself
    t = parse_term("(f (g x))")
    assert Postwalk(PassThrough(lambda t: None))(t) == t


def test_walk_visit_counts():
    seen = []
    def counter(t):
        seen.append(t)
        return None
    t = parse_term("(f (g x) (h y 1))")
    Postwalk(counter)(t)
    assert len(seen) == 6
    seen.clear()
    Prewalk(counter)(t)
    assert len(seen) == 6
    assert seen[0] == t  # pre-order starts at the root


def test_prewalk_vs_postwalk_order():
    order = []
    def spy(t):
        order.append(print_term(t))
        return None
    t = parse_term("(f (g x))")
    Prewalk(spy)(t)
    assert order == ["(f (g x))", "(g x)", "x"]
    order.clear()
    Postwalk(spy)(t)
    assert order == ["x", "(g x)", "(f (g x))"]


def _spy_rewriter(seen):
    """Records each term it is given and rewrites x to y, (g t) to (f t 1)
    and 2 to the nullary (h)."""

    def rw(t):
        seen.append(print_term(t))
        if t == Atom("x"):
            return Atom("y")
        if isinstance(t, Compound) and t.op == "g" and len(t.args) == 1:
            return Compound("f", (t.args[0], Lit(1)))
        if t == Lit(2):
            return Compound("h", ())
        return None

    return rw


walk_terms = st.recursive(
    st.sampled_from([Atom("x"), Atom("y"), Lit(1), Lit(2), Compound("h", ())]),
    lambda ch: st.builds(
        lambda op, args: Compound(op, tuple(args)),
        st.sampled_from(["f", "g", "+"]),
        st.lists(ch, min_size=1, max_size=3),
    ),
    max_leaves=12,
)


@given(walk_terms)
def test_walks_match_the_recursive_reference(t):
    for walk, reference in ((Postwalk, oracles.postwalk), (Prewalk, oracles.prewalk)):
        seen, want_seen = [], []
        got = walk(_spy_rewriter(seen))(t)
        want = reference(_spy_rewriter(want_seen), t)
        assert got == want
        assert seen == want_seen


def _deep_g(depth, leaf):
    t = leaf
    for _ in range(depth):
        t = Compound("g", (t, Lit(1)))
    return t


@pytest.mark.parametrize("walk", [Postwalk, Prewalk])
def test_walks_deep_nesting(walk):
    depth = 5000
    rw = lambda t: Atom("b") if t == Atom("a") else None
    out = walk(rw)(_deep_g(depth, Atom("a")))
    assert print_term(out) == print_term(_deep_g(depth, Atom("b")))
    assert walk(rw)(_deep_g(depth, Atom("c"))) is None


def test_fixpoint_is_fixed_point():
    rw = Postwalk(Chain(fold_rw()))
    out = Fixpoint(rw)(parse_term("(+ 1 (+ 2 (* 2 2)))"))
    assert out == Lit(7)
    assert rw(out) is None


# -- matcher soundness property --------------------------------------------

leaf_srcs = st.sampled_from(["~v", "~w", "x", "y", "1", "2"])


@st.composite
def pattern_srcs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(leaf_srcs)
    n = draw(st.integers(1, 3))
    op = draw(st.sampled_from(["f", "g", "+"]))
    args = " ".join(draw(pattern_srcs(depth=depth - 1)) for _ in range(n))
    return f"({op} {args})"


def terms_over(ops, leaves, min_args=1):
    return st.recursive(
        st.sampled_from(leaves),
        lambda ch: st.builds(
            lambda op, args: Compound(op, tuple(args)),
            st.sampled_from(ops),
            st.lists(ch, min_size=min_args, max_size=3),
        ),
        max_leaves=8,
    )


term_leaves = [Atom("x"), Atom("y"), Lit(1), Lit(2)]
small_terms = terms_over(["f", "g", "+"], term_leaves)


@given(pattern_srcs(), small_terms)
def test_matcher_soundness(pat_src, t):
    rule = parse_rule(f"{pat_src} --> 0", set())
    s = match(rule.lhs, t)
    if s is not None:
        assert instantiate(rule.lhs, s) == t


# -- matcher against the recursive reference --------------------------------

segment_srcs = st.sampled_from(["~~s", "~~t::number", "~~u"])
guarded_leaf_srcs = st.sampled_from(["~x", "~y", "~v::number", "1", "2", "a"])
# zero-argument compounds, and 1.5, which is a number and no int
match_terms = terms_over(["f", "g"], term_leaves + [Lit(1.5)], min_args=0)


@st.composite
def segment_pattern_srcs(draw, depth=3):
    """Patterns with segments, guarded segments and variables, an operator
    variable `~o`, repeated variables and literals."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(guarded_leaf_srcs)
    op = draw(st.sampled_from(["f", "g", "~o"]))
    arg = st.one_of(segment_srcs, segment_pattern_srcs(depth=depth - 1))
    return f"({' '.join([op, *draw(st.lists(arg, max_size=3))])})"


def _instance(draw, p, chosen):
    """A term that `p` matches when `chosen` holds the values of its
    variables, except that one part in ten is drawn afresh and an operator
    variable's operator is drawn at each occurrence, so that some terms are
    misses."""
    if draw(st.integers(0, 9)) == 0:
        return draw(match_terms)
    if isinstance(p, PatVar):
        return chosen.setdefault(p.index, draw(match_terms))
    if not isinstance(p, PatTerm):
        return p
    op = p.op if isinstance(p.op, str) else draw(st.sampled_from(["f", "g"]))
    args = []
    for a in p.args:
        if isinstance(a, PatSegment):
            args += chosen.setdefault(a.index, tuple(draw(st.lists(match_terms, max_size=2))))
        else:
            args.append(_instance(draw, a, chosen))
    return Compound(op, tuple(args))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(segment_pattern_srcs(), st.data())
def test_match_is_the_first_reference_substitution(pat_src, data):
    rule = parse_rule(f"{pat_src} --> 0", set())
    t = _instance(data.draw, rule.lhs, {})
    first = next(oracles.substitutions(rule.lhs, t), None)
    assert match(rule.lhs, t) == first


# A rewriter tests the root operator of a left-hand side rooted at one before
# it calls the matcher; the terms add an operator that no pattern uses, atoms
# named as operators, and compounds with no arguments.
wide_terms = terms_over(
    ["f", "g", "+", "q"], term_leaves + [Atom("f"), Atom("+")], min_args=0
)


def _rewrite_by_matcher(rule, t):
    s = match(rule.lhs, t)
    return None if s is None else instantiate(rule.rhs, s)


@given(pattern_srcs(), wide_terms)
def test_root_operator_test_changes_no_rewrite(pat_src, t):
    rule = parse_rule(f"{pat_src} --> (k {pat_src})", set())
    assert rule_rewriter(rule)(t) == _rewrite_by_matcher(rule, t)


@pytest.mark.parametrize(
    "line",
    [
        "~v --> (k ~v)",  # rooted at a variable
        "x --> y",  # at a literal
        "1 --> 2",
        "(~f ~x) --> (k ~f ~x)",  # at an operator variable
        "(f) --> a",  # at an operator with no arguments
    ],
)
def test_root_operator_test_fixed_cases(line):
    rule = parse_rule(line, set())
    terms = ["f", "(f)", "(f x)", "(g x)", "(+ 1 2)", "x", "1", "(q)"]
    got = [rule_rewriter(rule)(parse_term(t)) for t in terms]
    assert got == [_rewrite_by_matcher(rule, parse_term(t)) for t in terms]
    assert any(r is not None for r in got)
    if line == "(f) --> a":
        assert got[:2] == [None, Atom("a")]  # the atom f is no (f)


# -- strategy language ------------------------------------------------------


def test_parse_strategy_default():
    rw = parse_strategy("fixpoint(postwalk(chain(all)))", {"all": fold_rw()})
    assert rw(parse_term("(+ 1 (+ 2 3))")) == Lit(6)


def test_parse_strategy_single_pass():
    rw = parse_strategy("postwalk(chain(all))", {"all": fold_rw()})
    # one postwalk pass folds bottom-up all the way here
    assert rw(parse_term("(+ 1 (+ 2 3))")) == Lit(6)


def test_parse_strategy_errors():
    with pytest.raises(Exception):
        parse_strategy("bogus(chain(all))", {"all": []})
    with pytest.raises(Exception):
        parse_strategy("chain(missing)", {"all": []})
