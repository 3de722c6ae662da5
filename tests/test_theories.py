import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import eval_stream
from eqsat.analysis import astsize, extract
from eqsat.classical import instantiate
from eqsat.egraph import EGraph
from eqsat.errors import EqsatError
from eqsat.rules import PatTerm, PatVar, RuleKind, parse_theory
from eqsat.saturation import SaturationParams, saturate
from eqsat import theories
from eqsat.terms import Atom, Compound, Lit, parse_term, print_term
from eqsat.theories import (
    BUNDLED,
    bundled_source,
    load_bundled,
    lower_fand,
    stream_optimize,
)


def simplify(src, *theory_names, **params):
    g = EGraph()
    root = g.add_term(parse_term(src))
    g.rebuild()
    theory = load_bundled(theory_names[0])
    for n in theory_names[1:]:
        theory = theory + load_bundled(n)
    report = saturate(g, theory, SaturationParams(**params))
    return extract(g, astsize, root), report


# -- bundled corpus ---------------------------------------------------------


def test_all_bundled_load():
    for name in BUNDLED:
        th = load_bundled(name)
        assert th.rules, name


def test_unknown_bundled_name():
    with pytest.raises(KeyError) as info:
        bundled_source("nope")
    assert isinstance(info.value, EqsatError)
    assert str(info.value) == "no bundled theory named 'nope'"


def test_bundled_roundtrip_through_printer():
    for name in BUNDLED:
        th = load_bundled(name)
        for r in th.rules:
            line = str(r)
            declared = set(r.patvar_names)
            reparsed = parse_theory(f"@vars {' '.join(sorted(declared))}\n{line}\n")
            assert len(reparsed.rules) == 1
            r2 = reparsed.rules[0]
            assert r2.kind is r.kind
            assert r2.lhs == r.lhs and r2.rhs == r.rhs


# -- headline simplification pipeline ---------------------------------------


def test_paper_pipeline_simplifies_to_a():
    best, report = simplify(
        "(/ (* a (* 2 3)) 6)", "comm_monoid", "comm_group", "folder", "div_sim"
    )
    assert best == Atom("a")
    # rules are still banned when the last budgeted iteration changes nothing
    assert report.stop_reason.kind == "iteration-limit"


def test_folder_alone_folds():
    best, _ = simplify("(* (+ 1 2) (+ 2 2))", "folder")
    assert best == Lit(12)


def test_div_sim_cancellation():
    best, _ = simplify("(* a (/ 6 6))", "comm_monoid", "div_sim")
    assert best == Atom("a")


# -- stream fusion ----------------------------------------------------------


def test_stream_fill_map_case():
    out, report = stream_optimize(parse_term("(map (lambda x (* 7 x)) (fill 3 4))"))
    assert out == parse_term("(fill 21 4)")


def test_stream_getindex_case():
    out, report = stream_optimize(
        parse_term("(getindex (map (lambda x (* 7 x)) (fill 3 4)) 1)")
    )
    assert out == Lit(21)


def test_stream_composed_maps_fuse_to_a_number():
    # extraction keeps (apply (compose f g) x); the cleanup lowers it to calls
    out, _ = stream_optimize(parse_term(
        "(getindex (map (lambda x (* 51 x)) (map (lambda x (- 87 x)) (fill 31 5))) 2)"
    ))
    assert out == Lit(2856)


def test_stream_reverse_reverse():
    out, _ = stream_optimize(parse_term("(reverse (reverse v))"))
    assert out == Atom("v")


def test_stream_length_fill():
    out, _ = stream_optimize(parse_term("(length (fill q 7))"))
    assert out == Lit(7)


def test_stream_filter_fusion_shrinks():
    out, _ = stream_optimize(parse_term("(filter p (filter q v))"))
    assert astsize_of(out) <= astsize_of(parse_term("(filter p (filter q v))"))


def _filter_lambda(draw) -> Compound:
    """A lambda that compares its parameter with a free `x`, a free `k` or a
    literal, on either side."""
    param = Atom(draw(st.sampled_from(["y", "z", "x1"])))
    other = draw(st.sampled_from([Atom("x"), Atom("k"), Lit(draw(st.integers(0, 9)))]))
    args = (param, other) if draw(st.booleans()) else (other, param)
    return Compound("lambda", (param, Compound(draw(st.sampled_from("<>")), args)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_stream_optimize_keeps_the_value_of_fused_filters(data):
    draw = data.draw
    t = Compound("filter", (_filter_lambda(draw), Compound("filter", (_filter_lambda(draw), Atom("s")))))
    wrap = draw(st.sampled_from([None, "sum", "length"]))
    if wrap is not None:
        t = Compound(wrap, (t,))
    env = {
        "x": draw(st.integers(0, 9)),
        "k": draw(st.integers(0, 9)),
        "s": draw(st.lists(st.integers(0, 9), max_size=6)),
    }
    out, _ = stream_optimize(t)
    assert eval_stream(out, env) == eval_stream(t, env), (print_term(t), print_term(out))


# The sort of each argument of a stream operator, for the rule check below: a
# unary or a binary function, a non-empty number list, a count of `fill`, a
# 1-based index, or a number. A variable takes the sort of the positions it
# fills; a count or an index that is also an argument of `+` is a number of
# that kind.
_ARG_SORTS = {
    "fill": ("number", "count"),
    "getindex": ("list", "index"),
    "map": ("fn1", "list"),
    "filter": ("fn1", "list"),
    "reverse": ("list",),
    "cat": ("list", "list"),
    "sum": ("list",),
    "length": ("list",),
    "reduce": ("fn2", "list"),
    "foldl": ("fn2", "list"),
    "foldr": ("fn2", "list"),
    "mapreduce": ("fn1", "fn2", "list"),
    "mapfoldl": ("fn1", "fn2", "list"),
    "mapfoldr": ("fn1", "fn2", "list"),
    "apply": ("fn1", "number"),
    "call": ("fn1", "number"),
    "compose": ("fn1", "fn1"),
    "fand": ("fn1", "fn1"),
    "ifelse": ("bool", "list", "list"),
    "and": ("bool", "bool"),
    **{op: ("number", "number") for op in ("+", "-", "*", "/")},
}


def _variable_sorts(rule) -> dict[int, str]:
    """Variable index -> the sort of the positions it fills in `rule`."""
    sorts: dict[int, str] = {}
    todo = [(rule.lhs, None), (rule.rhs, None)]
    while todo:
        p, sort = todo.pop()
        if isinstance(p, PatVar):
            if sort is not None and sorts.get(p.index) in (None, "number"):
                sorts[p.index] = sort
        elif isinstance(p, PatTerm):
            todo += zip(p.args, _ARG_SORTS[p.op])
    return sorts


# dyadic values, so that sums and products of a few are exact
_NUMBERS = st.sampled_from([0, 1, 2, -3, 5, 0.5, -2.5])


def _draw_function(draw, arity):
    c = draw(_NUMBERS)
    if arity == 1:
        return draw(st.sampled_from([
            lambda v: v + c, lambda v: v * c, lambda v: c - v,
            lambda v: v > c, lambda v: v < c,
        ]))
    # neither associative nor commutative, so that a fold's direction shows
    return draw(st.sampled_from([
        lambda a, b: a - b, lambda a, b: 2 * a + b, lambda a, b: a * b + c,
    ]))


def _same_value(a, b) -> bool:
    """Equality of stream values, with NaN equal to NaN."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_value, a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_every_stream_rule_keeps_the_value(data):
    # each rule of `stream`, `normalize` and `fold`, its variables filled with
    # random closed values of their sorts, gives both sides one value under
    # the stream interpreter; a `=>` right-hand side folds its builtins first,
    # as the engine does
    draw = data.draw
    rules = [r for name in ("stream", "normalize", "fold") for r in load_bundled(name).rules]
    for rule in rules:
        sorts = _variable_sorts(rule)
        values = {}
        for i, sort in sorted(sorts.items(), key=lambda item: item[1] == "index"):
            if sort in ("fn1", "fn2"):
                values[i] = _draw_function(draw, int(sort[-1]))
            elif sort == "list":
                values[i] = draw(st.lists(_NUMBERS, min_size=1, max_size=4))
            elif sort == "count":
                values[i] = draw(st.integers(1, 4))
            elif sort == "index":
                # in range of every list and every `fill` of the rule
                lengths = [len(v) if isinstance(v, list) else v
                           for j, v in values.items() if sorts[j] in ("list", "count")]
                values[i] = draw(st.integers(1, min(lengths)))
            else:
                values[i] = draw(_NUMBERS)
        names = rule.patvar_names
        s = {i: Lit(v) if sorts[i] in ("number", "count", "index") else Atom(names[i])
             for i, v in values.items()}
        env = {names[i]: v for i, v in values.items()}
        lhs = instantiate(rule.lhs, s)
        rhs = instantiate(rule.rhs, s, fold=rule.kind is RuleKind.DYNAMIC)
        want, got = eval_stream(lhs, env), eval_stream(rhs, env)
        assert _same_value(want, got), (str(rule), print_term(lhs), env, want, got)


def test_lower_fand_binds_an_atom_free_in_neither_function():
    f, g = parse_term("(lambda y (> y x))"), parse_term("(lambda x1 (< x1 k))")
    out = lower_fand(Compound("fand", (f, g)))
    assert out == parse_term(
        "(lambda x2 (and (call (lambda y (> y x)) x2) (call (lambda x1 (< x1 k)) x2)))"
    )
    assert lower_fand(parse_term("(fand p q)")) == parse_term(
        "(lambda x (and (call p x) (call q x)))"
    )
    assert lower_fand(parse_term("(fand p)")) is None
    assert lower_fand(parse_term("(and p q)")) is None


def astsize_of(t):
    return 1 + sum(astsize_of(a) for a in getattr(t, "args", ()))


def _random_stream_term(rng, depth=3):
    if depth == 0:
        return rng.choice(
            [Atom("v"), Atom("w"), Lit(rng.randint(0, 5)), Atom("p")]
        )
    op = rng.choice(["map", "filter", "fill", "reverse", "sum", "length", "cat",
                     "getindex"])
    sub = lambda: _random_stream_term(rng, depth - 1)
    if op in ("map", "filter"):
        fn = rng.choice(
            [Atom("f"), Atom("g"),
             parse_term("(lambda x (* 2 x))"), parse_term("(lambda x (+ x 1))")]
        )
        return Compound(op, (fn, sub()))
    if op in ("fill", "cat", "getindex"):
        return Compound(op, (sub(), sub()))
    return Compound(op, (sub(),))


def test_stream_optimize_never_grows():
    rng = random.Random(7)
    for _ in range(50):
        t = _random_stream_term(rng)
        out, _ = stream_optimize(t)
        assert astsize_of(out) <= astsize_of(t), print_term(t)


# -- near-zero optimizer ----------------------------------------------------


def test_near_zero_rule_fires():
    best, _ = simplify("(* 1e-20 (cos b))", "near_zero_opt")
    assert best == Lit(0)


def test_near_zero_respects_tolerance():
    best, _ = simplify("(* 0.5 (cos b))", "near_zero_opt")
    assert best == parse_term("(* 0.5 (cos b))")


def test_near_zero_inside_sum():
    best, _ = simplify("(+ q (* 1e-20 (sin b)))", "near_zero_opt")
    assert best == Atom("q")


# -- rule kinds in the corpus ----------------------------------------------


def test_fold_theory_minus_is_subtraction():
    fold = load_bundled("fold")
    g = EGraph()
    root = g.add_term(parse_term("(- 5 2)"))
    g.rebuild()
    saturate(g, fold, SaturationParams())
    assert extract(g, astsize, root) == Lit(3)


def test_stream_theory_kinds():
    th = load_bundled("stream")
    kinds = {r.kind for r in th.rules}
    assert RuleKind.EQUALITY in kinds and RuleKind.REWRITE in kinds


def test_stream_optimize_parses_its_theories_once(monkeypatch):
    parses = []
    parse = theories.parse_theory

    def counted(*args, **kwargs):
        parses.append(kwargs.get("name"))
        return parse(*args, **kwargs)

    monkeypatch.setattr(theories, "parse_theory", counted)
    t = parse_term("(map (lambda x (* 7 x)) (fill 3 4))")
    out1, _ = stream_optimize(t)
    first = len(parses)
    out2, _ = stream_optimize(t)
    assert len(parses) == first
    assert out1 == out2 == parse_term("(fill 21 4)")
    # loaded theories stay the caller's own to change
    assert load_bundled("stream").rules is not load_bundled("stream").rules


def test_stream_optimize_deep_nesting():
    depth = 5000
    t = parse_term("(+ " * depth + "a" + " 1)" * depth)
    assert theories._astsize(t) == 2 * depth + 1
    out, _ = stream_optimize(t)
    assert print_term(out) == print_term(t)  # nothing here to fuse or fold
