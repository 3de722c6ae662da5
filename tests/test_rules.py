import math

import pytest

from eqsat import rules
from eqsat.analysis import analyze, sign_analysis
from eqsat.egraph import EGraph
from eqsat.errors import (
    InconsistentClass,
    RuleSyntaxError,
    UnboundRhsVariable,
    UnknownPredicate,
)
from eqsat.rules import (
    PatSegment,
    PatTerm,
    PatVar,
    PredicateRef,
    Rule,
    RuleKind,
    Theory,
    class_literal,
    class_literals,
    parse_rule,
    parse_theory,
    resolve_predicate,
)
from eqsat.terms import Atom, Lit, parse_term


def test_parse_rewrite_rule():
    r = parse_rule("(* ~a ~b) --> (* ~b ~a)", set(), name="comm")
    assert r.kind is RuleKind.REWRITE
    assert r.lhs == PatTerm("*", (PatVar("a", 0), PatVar("b", 1)))
    assert r.rhs == PatTerm("*", (PatVar("b", 1), PatVar("a", 0)))
    assert r.patvar_names == ("a", "b")


def test_parse_all_kinds():
    kinds = {
        "-->": RuleKind.REWRITE,
        "=>": RuleKind.DYNAMIC,
        "==": RuleKind.EQUALITY,
        "!=": RuleKind.UNEQUAL,
    }
    for op, kind in kinds.items():
        r = parse_rule(f"(f ~x) {op} (g ~x)", set())
        assert r.kind is kind


def test_declared_vars_without_tilde():
    r = parse_rule("(* a b) --> (* b a)", {"a", "b"})
    assert r.lhs == PatTerm("*", (PatVar("a", 0), PatVar("b", 1)))


def test_literal_leaves():
    r = parse_rule("(* ~a 1) --> ~a", set())
    assert r.lhs == PatTerm("*", (PatVar("a", 0), Lit(1)))
    r = parse_rule("(f ~a true) --> ~a", set())
    assert r.lhs.args[1] == Atom("true")


def test_dense_indices_by_first_lhs_appearance():
    r = parse_rule("(f ~b (g ~a ~b)) --> (h ~a)", set())
    assert r.patvar_names == ("b", "a")
    assert r.lhs.args[1].args[0].index == 1


def test_segment_variables():
    r = parse_rule("(f pre... ~x post...) --> (g ~x)", set())
    assert isinstance(r.lhs.args[0], PatSegment)
    assert isinstance(r.lhs.args[2], PatSegment)
    # ~~name spelling is equivalent
    r2 = parse_rule("(f ~~pre ~x ~~post) --> (g ~x)", set())
    assert r2.lhs.args[0] == PatSegment("pre", 0)


def test_segment_only_in_argument_position():
    with pytest.raises(RuleSyntaxError):
        parse_rule("xs... --> (f xs...)", set())


def test_variable_operation():
    r = parse_rule("(~f ~x) --> (~f (~f ~x))", set())
    assert isinstance(r.lhs.op, PatVar)
    assert r.lhs.op.name == "f"


def test_unbound_rhs_variable():
    with pytest.raises(UnboundRhsVariable):
        parse_rule("(f ~x) --> (g ~y)", set())


def test_equality_needs_same_vars_both_sides():
    with pytest.raises(UnboundRhsVariable):
        parse_rule("(* ~a ~b) == (* ~b ~b)", set())


def test_equality_error_names_the_side_the_variable_is_on():
    with pytest.raises(UnboundRhsVariable) as info:
        parse_theory("(* ~a ~b) == (* ~b ~b)\n")
    assert info.value.name == "a"
    assert str(info.value) == (
        "line 1: variable ~a appears on the LHS but not on the RHS"
    )


def test_bad_predicate_parameter_is_a_syntax_error():
    with pytest.raises(RuleSyntaxError, match=r"^line 2: bad predicate parameters"):
        parse_theory("# near zero\n(f ~x::near_zero(abc)) --> ~x\n")


def test_unknown_predicate_in_theory_names_its_line():
    with pytest.raises(UnknownPredicate) as info:
        parse_theory("@vars y\n(f ~x::bogus) --> ~x\n")
    assert str(info.value) == "line 2: unknown predicate 'bogus'"


@pytest.mark.parametrize(
    "bad",
    [
        "(f ~x)",  # no operator
        "(f ~x) --> (g ~x) --> ~x",  # two operators
        "(f ~x --> (g ~x)",  # unbalanced
        "(f ~x) --> ",  # missing rhs
        "() --> ~x",
    ],
)
def test_rule_syntax_errors(bad):
    with pytest.raises(RuleSyntaxError):
        parse_rule(bad, set())


@pytest.mark.parametrize(
    "directive, message",
    [
        ("@name", "@name takes exactly one name"),
        ("@name a b", "@name takes exactly one name"),
        ("@namefoo", "unknown directive '@namefoo'"),
        ("@varsx y", "unknown directive '@varsx'"),
        ("@bogus", "unknown directive '@bogus'"),
    ],
)
def test_theory_directive_is_the_first_word(directive, message):
    with pytest.raises(RuleSyntaxError) as info:
        parse_theory(f"@vars x\n{directive}\n(f x) --> x\n")
    assert str(info.value) == f"line 2: {message}"


# -- predicates -------------------------------------------------------------


@pytest.mark.parametrize(
    "line",
    [
        "(f ~a ~a::number) --> ok",
        "(f ~a::int ~a::real) --> ok",
        "(f (g ~a::number) ~a::near_zero(1)) => ~a",
        # an `==` rule searches its right-hand side too
        "(g ~a) == (f ~a ~a::number)",
    ],
)
def test_guard_on_a_later_occurrence_is_a_syntax_error(line):
    # a matcher checks the guard of a variable's first occurrence and only
    # compares the class of a later one, so a different later guard would
    # be ignored
    with pytest.raises(RuleSyntaxError, match="is not that of the first ~a"):
        parse_rule(line, set())


@pytest.mark.parametrize(
    "line",
    ["(f ~a) --> (g ~a::number)", "(f ~a::number) => (g ~a::number)", "(f ~a) != ~a::int"],
)
def test_guard_on_a_right_hand_side_that_is_not_searched_is_a_syntax_error(line):
    with pytest.raises(RuleSyntaxError, match="right-hand side that no matcher searches"):
        parse_rule(line, set())


@pytest.mark.parametrize(
    "line",
    [
        "(f ~a::number) == (g ~a)",
        "(f ~a) == (g ~a::number)",
        "(f ~a::number) == (g ~a::int)",
        "(f ~a ~a) == (g ~a::int)",  # the left first occurrence is bare
        "(+ ~a::number ~b) == (+ ~b ~a)",
    ],
)
def test_guard_on_one_side_of_an_equality_is_a_syntax_error(line):
    # each direction checks the guards of the side it searches: a guard on
    # one side only would hold one way
    with pytest.raises(RuleSyntaxError, match="~a is guarded differently"):
        parse_rule(line, set())


@pytest.mark.parametrize(
    "line",
    [
        "(/ a::cansimplifyfraction a::cansimplifyfraction) --> 1",  # div_sim's
        "(+ ~a::int ~a) --> ~a",  # a bare later occurrence is compared only
        "(f ~a::number) == (g ~a::number ~a)",
        "(f ~a::int ~a) == (g ~a::int)",  # each side has its own first occurrence
    ],
)
def test_checked_guards_parse(line):
    r = parse_rule(line, {"a"})
    assert parse_rule(str(r), set()).lhs == r.lhs


def test_predicate_parsing():
    r = parse_rule("(+ ~a::number ~b::number) => (+ ~a ~b)", set())
    assert r.lhs.args[0].predicate == PredicateRef("number")


def test_predicate_with_params():
    r = parse_rule("(* ~a::near_zero(1e-13) (cos ~b)) --> 0", set())
    assert r.lhs.args[0].predicate == PredicateRef("near_zero", (1e-13,))


def test_unknown_predicate_rejected_at_parse():
    with pytest.raises(UnknownPredicate):
        parse_rule("(f ~x::no_such_pred) --> ~x", set())
    with pytest.raises(UnknownPredicate):
        parse_rule("(f ~x::number(3)) --> ~x", set())  # wrong arity


def test_classical_predicate_checks():
    number = resolve_predicate(PredicateRef("number"))
    assert number.classical(parse_term("3"), ())
    assert number.classical(parse_term("2.5"), ())
    assert not number.classical(parse_term("a"), ())
    intp = resolve_predicate(PredicateRef("int"))
    assert intp.classical(parse_term("3"), ())
    assert not intp.classical(parse_term("2.5"), ())
    realp = resolve_predicate(PredicateRef("real"))
    assert realp.classical(parse_term("2.5"), ())
    assert not realp.classical(parse_term("3"), ())
    nz = resolve_predicate(PredicateRef("near_zero", (1e-13,)))
    assert nz.classical(parse_term("1e-20"), (1e-13,))
    assert not nz.classical(parse_term("1"), (1e-13,))


def test_egraph_predicate_checks():
    g = EGraph()
    three = g.add_term(parse_term("3"))
    sym = g.add_term(parse_term("a"))
    g.rebuild()
    number = resolve_predicate(PredicateRef("number"))
    assert number.egraph(g, three, ())
    assert not number.egraph(g, sym, ())
    iszero = resolve_predicate(PredicateRef("iszero"))
    notzero = resolve_predicate(PredicateRef("notzero"))
    zero = g.add_term(parse_term("0"))
    g.rebuild()
    assert iszero.egraph(g, zero, ())
    assert not iszero.egraph(g, three, ())
    assert notzero.egraph(g, three, ())
    assert not notzero.egraph(g, zero, ())


class _OneClassView:
    """The three readers of a class that an e-graph predicate may use, for
    one class only; any other read fails."""

    def __init__(self, g, cid):
        self._g, self._cid = g, cid
        self.analyses = g.analyses  # read to see the sign analysis registered

    def class_nodes(self, cid):
        assert cid == self._cid
        return self._g.class_nodes(cid)

    def class_lits(self, cid):
        assert cid == self._cid
        return self._g.class_lits(cid)

    def getdata(self, cid, name, default=None):
        assert cid == self._cid
        return self._g.getdata(cid, name, default)


def test_egraph_predicates_read_only_their_own_class():
    # the stamped search relies on it: a class's stamp moves whenever its
    # literals or its analysis data change, and covers nothing else
    g = EGraph()
    for src in ("(+ 2 x)", "(* y 3)", "0", "1e-20", "2.5", "(/ x z)", "(- k 7)"):
        g.add_term(parse_term(src))
    analyze(g, sign_analysis())
    names = ("number", "int", "real", "iszero", "notzero", "cansimplifyfraction")
    preds = [resolve_predicate(PredicateRef(n)) for n in names]
    preds.append(resolve_predicate(PredicateRef("near_zero", (1e-13,))))
    results = set()
    for pred in preds:
        params = (1e-13,) * pred.n_params
        for cid in g.canonical_ids():
            got = pred.egraph(_OneClassView(g, cid), cid, params)
            assert got == pred.egraph(g, cid, params)
            results.add((pred.name, got))
    # each predicate holds on some class and fails on another
    assert len(results) == 2 * len(preds)


def test_lifting_predicates_fail_without_a_literal_of_their_kind():
    # a `=>` rule builds with the literal of its kind in a class that a
    # lifting predicate passed, so there must be one
    g = EGraph()
    for t in ("a", "(f a)", "x", "(+ 2 x)", "-3", "2.5", "1e-20", "(/ x z)"):
        g.add_term(parse_term(t))
    for v in (0.0, math.nan, math.inf, -math.inf):
        g.add_term(Lit(v))
    g.merge(g.add_term(parse_term("y")), g.add_term(parse_term("7")))
    g.rebuild()
    lifting = [p for p in rules._REGISTRY.values() if p.lift is not None]
    assert {p.name for p in lifting} >= {"number", "int", "real", "near_zero"}
    for pred in lifting:
        params = (math.inf,) * pred.n_params  # the widest tolerance
        without = [
            cid for cid in g.canonical_ids() if not class_literals(g, cid, pred.lift)
        ]
        assert len(without) >= 4
        assert not any(pred.egraph(g, cid, params) for cid in without)


def test_class_literals():
    g = EGraph()
    a = g.add_term(parse_term("3"))
    b = g.add_term(parse_term("x"))
    g.merge(a, b)
    g.rebuild()
    assert class_literals(g, g.find(a), "number") == [3]
    assert class_literals(g, g.find(a), "real") == []
    # a literal is its own e-node, equal by value: 3.0 is the node 3, and two
    # NaNs are one node, so a class holds one literal per value
    assert g.add_term(Lit(3.0)) == g.find(a)
    assert g.add_term(Lit(math.nan)) == g.add_term(Lit(float("nan")))


def test_class_literal_is_the_one_literal_of_its_kind():
    g = EGraph()
    x, three, half = (g.add_term(parse_term(s)) for s in ("x", "3", "0.5"))
    g.merge(x, three)
    g.rebuild()
    assert class_literal(g, x) == 3 and class_literal(g, x, "int") == 3
    assert class_literal(g, x, "real") is None
    g.merge(x, half)  # two distinct numbers in one class
    assert class_literal(g, x, "int") == 3 and class_literal(g, x, "real") == 0.5
    with pytest.raises(InconsistentClass):
        class_literal(g, x)
    # a lifting predicate reads the class's literal, so it raises there too
    for name, params in (("number", ()), ("near_zero", (1e-13,))):
        with pytest.raises(InconsistentClass):
            resolve_predicate(PredicateRef(name, params)).egraph(g, x, params)


# -- theory files -----------------------------------------------------------

THEORY_SRC = """
# a comment line
@vars a b
@name comm
(* a b) --> (* b a)
(* a 1) --> a     # trailing comment
"""


def test_parse_theory():
    th = parse_theory(THEORY_SRC, name="demo")
    assert [r.name for r in th.rules] == ["comm", "r1"]
    assert th.rules[0].kind is RuleKind.REWRITE


def test_theory_error_carries_line_number():
    with pytest.raises(RuleSyntaxError) as e:
        parse_theory("@vars a\n(f a) --> (g a) --> a\n")
    assert "line 2" in str(e.value)


def _deep_rule_theory(depth):
    return "@vars x\n" + "(g " * depth + "x" + ")" * depth + " --> x\n"


def test_deep_pattern_parses_and_prints_back():
    # the reader, the printer and PatTerm's equality and hash do not recurse
    (rule,) = parse_theory(_deep_rule_theory(5000)).rules
    printed = str(rule)
    assert printed == "(g " * 5000 + "~x" + ")" * 5000 + " --> ~x"
    again = parse_rule(printed, set())
    assert (again.lhs, again.rhs) == (rule.lhs, rule.rhs)
    assert hash(again.lhs) == hash(rule.lhs)
    assert again.lhs != rule.lhs.args[0]


def test_overlong_number_in_pattern_is_a_syntax_error():
    # int() refuses a literal of more than 4,300 digits with a ValueError
    with pytest.raises(RuleSyntaxError, match="line 2: malformed pattern token"):
        parse_theory("@vars x\n(f x " + "7" * 5000 + ") --> x\n")


@pytest.mark.parametrize(
    "src, message",
    [
        ("(f ~x) --> ~x\n@name last\n", "line 2: @name 'last' names no rule"),
        ("@name a\n# a comment\n@name b\n(f ~x) --> ~x\n", "line 1: @name 'a' names no rule"),
        ("@name a\n@vars x\n@name b\n", "line 1: @name 'a' names no rule"),
    ],
    ids=["at-the-end", "before-another-name", "after-vars"],
)
def test_name_with_no_rule_is_a_syntax_error(src, message):
    with pytest.raises(RuleSyntaxError) as info:
        parse_theory(src)
    assert str(info.value) == message


def test_name_then_vars_still_names_the_next_rule():
    th = parse_theory("@name first\n@vars x\n(f x) --> x\n")
    assert [r.name for r in th.rules] == ["first"]


@pytest.mark.parametrize("tok", ["~x::", "x::", "1::"], ids=["var", "declared", "literal"])
def test_empty_guard_is_a_syntax_error(tok):
    with pytest.raises(RuleSyntaxError) as info:
        parse_theory(f"@vars x\n(f {tok}) --> (g)\n")
    assert str(info.value) == f"line 2: empty predicate guard in {tok!r}"


def test_unterminated_guard_parameters_is_a_syntax_error():
    with pytest.raises(RuleSyntaxError) as info:
        parse_theory("(f ~x) --> ~x::near_zero(1e-13\n")
    assert str(info.value) == (
        "line 1: unterminated predicate parameters in '~x::near_zero'"
    )


def test_theory_duplicate_name():
    with pytest.raises(RuleSyntaxError):
        parse_theory("@name r\n(f ~x) --> ~x\n@name r\n(g ~x) --> ~x\n")


def test_theory_vars_redeclaration_replaces():
    th = parse_theory("@vars a\n(f a) --> a\n@vars b\n(f b) --> b\n(f a) --> (f a)\n")
    # after the second @vars, `a` is a plain symbol literal again
    assert th.rules[2].lhs == PatTerm("f", (Atom("a"),))


def test_theory_concatenation():
    t1 = parse_theory("(f ~x) --> ~x", name="one")
    t2 = parse_theory("(g ~x) --> ~x", name="two")
    both = t1 + t2
    assert isinstance(both, Theory)
    assert len(both.rules) == 2


# -- printing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "line",
    [
        "(* ~a ~b) --> (* ~b ~a)",
        "(+ ~a::number ~b::number) => (+ ~a ~b)",
        "(/ (* ~a ~b) ~c) == (* ~a (/ ~b ~c))",
        "(f ~x) != g0",
        "(f pre... ~x post...) --> (g ~x)",
        "(* ~a::near_zero(1e-13) (cos ~b)) --> 0",
    ],
)
def test_rule_str_roundtrip(line):
    r = parse_rule(line, set())
    printed = str(r)
    r2 = parse_rule(printed, set())
    assert str(r2) == printed
    assert r2.kind is r.kind
    assert r2.lhs == r.lhs and r2.rhs == r.rhs
