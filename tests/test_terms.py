import math

import pytest
from hypothesis import given, strategies as st

from eqsat.errors import ContractViolation, SExprSyntaxError, UnknownBuiltin
from eqsat.terms import (
    Atom,
    Compound,
    Lit,
    arguments,
    arity,
    eval_builtin,
    inline_anonymous,
    istree,
    operation,
    parse_term,
    print_term,
    similarterm,
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


# -- accessors --------------------------------------------------------------


def test_accessors():
    t = parse_term("(f a 1)")
    assert istree(t)
    assert operation(t) == "f"
    assert arguments(t) == (Atom("a"), Lit(1))
    assert arity(t) == 2
    assert similarterm("g", arguments(t)) == parse_term("(g a 1)")


def test_accessors_reject_leaves():
    for leaf in (Atom("a"), Lit(1)):
        assert not istree(leaf)
        with pytest.raises(ContractViolation):
            operation(leaf)
        with pytest.raises(ContractViolation):
            arguments(leaf)


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


@pytest.mark.parametrize(
    "src",
    ["(call f 3)", "(map (lambda x x) v)", "a", "(call (lambda x x) 1 2)"],
)
def test_inline_anonymous_rejects(src):
    assert inline_anonymous(parse_term(src)) is None
