import math
import sys

import pytest
from hypothesis import given, strategies as st

import oracles
from eqsat import theories
from eqsat.classical import Postwalk
from eqsat.egraph import EGraph
from eqsat.errors import SExprSyntaxError, UnknownBuiltin
from eqsat.terms import (
    Atom,
    Compound,
    Lit,
    eval_builtin,
    fold_tree,
    inline_anonymous,
    parse_term,
    print_term,
    substitute_atom,
)

# -- strategies -------------------------------------------------------------

atoms = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).map(Atom)
numbers = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)
lits = numbers.map(Lit)
ops = st.from_regex(r"[A-Za-z_+*/][A-Za-z0-9_+*/]{0,4}", fullmatch=True)


def terms(max_leaves=20):
    return st.recursive(
        st.one_of(atoms, lits),
        lambda ch: st.builds(
            lambda op, args: Compound(op, tuple(args)),
            ops,
            st.lists(ch, min_size=0, max_size=3),
        ),
        max_leaves=max_leaves,
    )


# -- parse/print ------------------------------------------------------------


def test_parse_simple():
    t = parse_term("(/ (* a (* 2 3)) 6)")
    assert t == Compound(
        "/", (Compound("*", (Atom("a"), Compound("*", (Lit(2), Lit(3))))), Lit(6))
    )


def test_parse_leaves():
    assert parse_term("a") == Atom("a")
    assert parse_term("42") == Lit(42)
    assert parse_term("-3") == Lit(-3)
    assert parse_term("2.5") == Lit(2.5)
    assert parse_term("1e-20") == Lit(1e-20)
    assert parse_term("inf") == Lit(math.inf)
    assert parse_term("-inf") == Lit(-math.inf)
    assert parse_term("nan") == Lit(math.nan)


def test_parse_nullary_compound():
    assert parse_term("(f)") == Compound("f", ())
    assert print_term(Compound("f", ())) == "(f)"


@pytest.mark.parametrize(
    "bad", ["", "(", ")", "(f", "f)", "()", "((f) x)", "(f x) y", "(1 2)"]
)
def test_parse_errors(bad):
    with pytest.raises(SExprSyntaxError):
        parse_term(bad)


def test_syntax_error_offset():
    with pytest.raises(SExprSyntaxError) as e:
        parse_term("(f x))")
    assert e.value.offset == 5


def test_overlong_integer_literal_is_a_syntax_error():
    # int() converts at most 4,300 digits; the limit stays
    assert parse_term("(f " + "7" * 4300 + ")") == Compound("f", (Lit(int("7" * 4300)),))
    with pytest.raises(SExprSyntaxError, match="integer literal too long") as e:
        parse_term("(f " + "7" * 4301 + ")")
    assert e.value.offset == 3


@given(terms())
def test_print_parse_roundtrip(t):
    assert parse_term(print_term(t)) == t


def test_print_term_deep_nesting():
    depth = 5000
    t = Atom("a")
    for k in range(depth):
        t = Compound("f", (t, Lit(k))) if k % 2 else Compound("g", (t,))
    expected = "a"
    for k in range(depth):
        expected = f"(f {expected} {k})" if k % 2 else f"(g {expected})"
    assert print_term(t) == expected
    assert print_term(Compound("h", ())) == "(h)"


def test_parse_term_deep_nesting():
    depth = 5000
    text = "(g " * depth + "a" + " 1)" * depth
    t = parse_term(text)
    for _ in range(depth):
        assert t.op == "g" and t.args[1] == Lit(1)
        t = t.args[0]
    assert t == Atom("a")


# -- equality and hashing ---------------------------------------------------


def test_cross_kind_numeric_equality():
    assert Lit(1) == Lit(1.0)
    assert hash(Lit(1)) == hash(Lit(1.0))
    assert Lit(math.nan) == Lit(math.nan)
    assert hash(Lit(math.nan)) == hash(Lit(math.nan))
    assert Lit(0) != Lit(math.nan)
    assert Lit(1) != Atom("1x")


@given(numbers, numbers)
def test_lit_hash_coherent(a, b):
    la, lb = Lit(a), Lit(b)
    if la == lb:
        assert hash(la) == hash(lb)


# few operations and leaves, so that random pairs are often equal; a
# `(lambda a body)` binds `a`
small_terms = st.recursive(
    st.sampled_from([Atom("a"), Atom("b"), Lit(1), Lit(1.0), Lit(2), Lit(math.nan)]),
    lambda ch: st.one_of(
        st.builds(
            lambda op, args: Compound(op, tuple(args)),
            st.sampled_from(["f", "g", "lambda"]),
            st.lists(ch, max_size=2),
        ),
        st.builds(
            lambda x, body: Compound("lambda", (x, body)),
            st.sampled_from([Atom("a"), Atom("b")]),
            ch,
        ),
    ),
    max_leaves=6,
)


@given(small_terms, small_terms)
def test_compound_eq_and_hash_match_recursive_reference(a, b):
    assert (a == b) is oracles.term_eq(a, b)
    assert (a != b) is not oracles.term_eq(a, b)
    assert hash(a) == oracles.term_hash(a)
    if a == b:
        assert hash(a) == hash(b)
    copy = parse_term(print_term(a))  # equal, and shares no subterm with a
    assert copy == a and hash(copy) == hash(a)


def _deep_g(depth, leaf):
    return parse_term("(g " * depth + leaf + ")" * depth)


def test_compound_eq_and_hash_deep_nesting():
    a, b = _deep_g(5000, "a"), _deep_g(5000, "a")
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != _deep_g(5000, "b") and not a == _deep_g(5000, "b")
    assert _deep_g(5000, "1") == _deep_g(5000, "1.0")
    assert hash(_deep_g(5000, "1")) == hash(_deep_g(5000, "1.0"))
    assert a != _deep_g(4999, "a")


def test_compound_eq_skips_shared_subterms():
    class Opaque(Atom):
        __hash__ = Atom.__hash__

        def __eq__(self, other):
            raise AssertionError("a shared subterm was compared")

    shared = Opaque("x")
    assert Compound("f", (shared, Lit(1))) == Compound("f", (shared, Lit(1.0)))


def test_compound_eq_defers_to_other_types():
    t = Compound("f", ())
    assert t.__eq__(Atom("f")) is NotImplemented
    assert t != Atom("f") and Atom("f") != t and t != "f"


# -- the tree fold ----------------------------------------------------------


def test_fold_tree_folds_children_first_left_to_right():
    calls = []

    def leaf(x):
        calls.append(print_term(x))
        return print_term(x)

    def node(x, values):
        calls.append(x.op)
        return f"({' '.join([x.op, *values])})"

    t = parse_term("(f a (g) (h b c))")
    assert fold_tree(t, Compound, leaf, node) == "(f a (g) (h b c))"
    assert calls == ["a", "g", "b", "c", "h", "f"]
    assert fold_tree(Atom("a"), Compound, leaf, node) == "a"


def test_tree_walks_take_a_deep_chain_under_a_low_recursion_limit():
    depth = 20_000
    t, copy, renamed = _deep_g(depth, "x"), _deep_g(depth, "x"), _deep_g(depth, "y")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert hash(t) == hash(copy)
        g = EGraph()
        root = g.add_term(t)
        assert g.n_enodes == depth + 1
        assert g.lookup_term(copy) == root
        assert g.lookup_term(renamed) is None
        assert Postwalk(lambda x: None)(t) is None
        assert Postwalk(lambda x: Atom("y") if x == Atom("x") else None)(t) == renamed
        assert substitute_atom(t, "x", Atom("y")) == renamed
        assert theories._astsize(t) == depth + 1
    finally:
        sys.setrecursionlimit(limit)


# -- builtin evaluation -----------------------------------------------------


@pytest.mark.parametrize(
    "op,args,expect",
    [
        ("+", [1, 2], 3),
        ("-", [1, 2], -1),
        ("*", [2, 3], 6),
        ("/", [6, 6], 1),
        ("/", [6, 4], 1.5),
        ("/", [1, 2], 0.5),
        ("*", [2.0, 3], 6.0),
    ],
)
def test_eval_builtin(op, args, expect):
    got = eval_builtin(op, args)
    assert got == expect
    assert type(got) is type(expect)


def test_eval_builtin_division_by_zero():
    assert eval_builtin("/", [1, 0]) == math.inf
    assert eval_builtin("/", [-1, 0]) == -math.inf
    assert math.isnan(eval_builtin("/", [0, 0]))
    assert math.isnan(eval_builtin("/", [math.nan, 0]))


def test_eval_builtin_unknown():
    with pytest.raises(UnknownBuiltin):
        eval_builtin("%", [1, 2])
    with pytest.raises(UnknownBuiltin):
        eval_builtin("+", [1, 2, 3])


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_int_division_exactness(a, b):
    if b != 0:
        got = eval_builtin("/", [a, b])
        if a % b == 0:
            assert isinstance(got, int) and got * b == a
        else:
            assert isinstance(got, float) and got == a / b


# -- lambda inlining --------------------------------------------------------


def test_inline_anonymous():
    t = parse_term("(call (lambda x (* 7 x)) 3)")
    assert inline_anonymous(t) == parse_term("(* 7 3)")


def test_inline_anonymous_shadows_nothing_else():
    t = parse_term("(call (lambda x (+ x y)) (g x))")
    assert inline_anonymous(t) == parse_term("(+ (g x) y)")


def test_inline_anonymous_keeps_a_lambda_that_rebinds_the_parameter():
    t = parse_term("(call (lambda x (map (lambda x (+ x 1)) x)) (fill 2 3))")
    assert inline_anonymous(t) == parse_term("(map (lambda x (+ x 1)) (fill 2 3))")


def test_inline_anonymous_refuses_to_capture():
    t = parse_term("(call (lambda x (lambda y (+ x y))) y)")
    assert inline_anonymous(t) is None
    t = parse_term("(call (lambda x (lambda y (+ x y))) z)")
    assert inline_anonymous(t) == parse_term("(lambda y (+ z y))")


@given(small_terms, small_terms)
def test_substitute_atom_matches_recursive_reference(t, repl):
    assert substitute_atom(t, "a", repl) == oracles.substitute_atom(t, "a", repl)


def test_substitute_atom_deep_nesting():
    t = substitute_atom(_deep_g(5000, "x"), "x", parse_term("(h 2)"))
    assert t == _deep_g(5000, "(h 2)")


@pytest.mark.parametrize(
    "src",
    ["(call f 3)", "(map (lambda x x) v)", "a", "(call (lambda x x) 1 2)"],
)
def test_inline_anonymous_rejects(src):
    assert inline_anonymous(parse_term(src)) is None
