import gc
import json
import random
import time
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ApplyEveryMatchScheduler,
    UnboundedBackoffScheduler,
    add_pattern,
    compile_two_way,
    lookup_pattern,
    subterm_partition,
)
from test_ematch import graphs
from eqsat import machine, saturation, theories
from eqsat.analysis import astsize, extract
from eqsat.egraph import EGraph, OpNode
from eqsat.errors import InconsistentClass
from eqsat.machine import EMatchProgram, ematch_program
from eqsat.rules import (
    PatTerm,
    PatVar,
    PredicateRef,
    Rule,
    RuleKind,
    Theory,
    class_literals,
    parse_theory,
)
from eqsat.saturation import (
    AreEqual,
    BackoffScheduler,
    Report,
    SaturationParams,
    StopReason,
    compile_theory,
    eqsat_step,
    mirrored,
    prove_equal,
    saturate,
)
from eqsat.terms import BUILTIN_OPS, Atom, Lit, parse_term, print_term
from eqsat.theories import load_bundled, stream_optimize


def sat(src, theory_src, **kw):
    g = EGraph()
    root = g.add_term(parse_term(src))
    g.rebuild()
    report = saturate(g, parse_theory(theory_src), SaturationParams(**kw))
    return g, root, report


# -- basic runs -------------------------------------------------------------


def test_empty_theory_saturates_immediately():
    g, root, report = sat("(f a)", "")
    assert report.stop_reason.kind == "saturated"
    assert report.iterations == 1
    assert report.n_enodes == 2


def test_commutativity_one_step():
    g, root, report = sat("(* x y)", "(* ~a ~b) == (* ~b ~a)")
    assert report.stop_reason.kind == "saturated"
    assert g.lookup_term(parse_term("(* y x)")) == g.find(root)


def test_dynamic_folder():
    g, root, report = sat("(+ 1 2)", "(+ ~a::number ~b::number) => (+ ~a ~b)")
    assert g.lookup_term(Lit(3)) == g.find(root)


def test_self_referential_rule_saturates_finitely():
    # (f x) -> (f (f x)) folds back into its own class: the e-graph
    # represents the infinite unrolling with one cyclic class
    g, root, report = sat("(f a)", "(f ~x) --> (f (f ~x))")
    assert report.stop_reason.kind == "saturated"
    assert g.n_enodes == 3


def test_growth_rule_trips_limit():
    g, root, report = sat(
        "(f a)", "(f ~x) --> (f (g ~x))", eclasslimit=50, enodelimit=200, timeout=500
    )
    assert report.stop_reason.kind in ("eclass-limit", "enode-limit")


def test_enodelimit_respected_eagerly():
    g, root, report = sat(
        "(f a)", "(f ~x) --> (f (g ~x))", enodelimit=40, eclasslimit=5000, timeout=500
    )
    assert report.stop_reason.kind == "enode-limit"
    assert g.n_enodes <= 40


@pytest.mark.parametrize("limit", [100, 500])
def test_eclasslimit_respected_inside_the_step(limit):
    # checked after the step, these stopped at 239 and 797 classes
    g = EGraph()
    g.add_term(parse_term("(+ a1 (+ a2 (+ a3 (+ a4 (+ a5 (+ a6 (+ a7 a8)))))))"))
    params = SaturationParams(timeout=50, matchlimit=None, eclasslimit=limit)
    report = saturate(g, parse_theory(COMM_ASSOC), params)
    assert report.stop_reason.kind == "eclass-limit"
    assert report.n_eclasses == g.n_eclasses <= limit


def test_graph_over_eclasslimit_stops_at_its_first_new_class():
    g, root, report = sat("(+ a (+ b c))", "(+ ~x ~y) == (+ ~y ~x)", eclasslimit=2)
    assert report.stop_reason.kind == "eclass-limit"
    assert report.iterations == 1
    assert g.n_eclasses == 5  # the rule's first new node was refused
    # a step that adds nothing stops at the check after it
    g, root, report = sat("(f (g a))", "(h ~x) --> ~x", eclasslimit=2)
    assert report.stop_reason.kind == "eclass-limit"
    assert report.iterations == 1
    assert g.n_eclasses == 3


def test_graph_over_enodelimit_saturates_when_nothing_is_added():
    # the limit is checked when a node is added, and no rule adds one here
    g, root, report = sat("(f (g a))", "(h ~x) --> ~x", enodelimit=2)
    assert g.n_enodes == 3
    assert report.stop_reason.kind == "saturated"


def test_goal_stops_early():
    t1, t2 = parse_term("(+ a (+ b c))"), parse_term("(+ (+ a b) c)")
    theory = parse_theory(
        "@vars a b c\n(+ a b) == (+ b a)\n(+ a (+ b c)) == (+ (+ a b) c)\n"
    )
    equal, report = prove_equal(t1, t2, theory)
    assert equal
    assert report.stop_reason.kind == "goal-reached"


def test_contradiction():
    g = EGraph()
    fa = g.add_term(parse_term("(f a)"))
    g0 = g.add_term(parse_term("g0"))
    g.merge(fa, g0)
    g.rebuild()
    theory = parse_theory("@name noteq\n(f ~x) != g0\n")
    report = saturate(g, theory, SaturationParams())
    assert report.stop_reason.kind == "contradiction"
    assert report.stop_reason.rule == "noteq"
    assert str(report.stop_reason) == "contradiction(noteq)"


def test_unequal_rule_without_collision_is_inert():
    g, root, report = sat("(f a)", "(f ~x) != g0")
    assert report.stop_reason.kind == "saturated"


def test_timelimit():
    g, root, report = sat(
        "(f a)", "(f ~x) --> (f (f ~x))", timelimit_s=0.0, timeout=1000,
        enodelimit=10**6, eclasslimit=10**6,
    )
    assert report.stop_reason.kind == "time-limit"


def _clock_passing_deadline_on(monkeypatch, target, attr):
    """A fake `perf_counter` standing still until `target.attr` is first
    called, and past any deadline from then on."""
    clock = [0.0]
    monkeypatch.setattr(saturation.time, "perf_counter", lambda: clock[0])
    real = getattr(target, attr)

    def call(*args, **kwargs):
        clock[0] = 100.0
        return real(*args, **kwargs)

    monkeypatch.setattr(target, attr, call)


TWO_RULES = "@vars x\n(f x) --> (g x)\n(f x) --> (h x)\n"


def test_timelimit_checked_between_searches(monkeypatch):
    _clock_passing_deadline_on(monkeypatch, saturation, "ematch_program")
    g = EGraph()
    g.add_term(parse_term("(f a)"))
    report = saturate(g, parse_theory(TWO_RULES), SaturationParams(timelimit_s=1.0))
    assert report.stop_reason.kind == "time-limit"
    assert report.iterations == 1
    # both rules match (f a); rule 1 was never searched
    assert [st.matches for st in report.per_rule.values()] == [1, 0]
    assert g.lookup_term(parse_term("(g a)")) is None  # nothing applied


def test_timelimit_checked_between_applications(monkeypatch):
    g = EGraph()
    fa = g.add_term(parse_term("(f a)"))
    _clock_passing_deadline_on(monkeypatch, g, "merge")
    report = saturate(g, parse_theory(TWO_RULES), SaturationParams(timelimit_s=1.0))
    assert report.stop_reason.kind == "time-limit"
    assert report.iterations == 1
    assert [st.matches for st in report.per_rule.values()] == [1, 1]
    assert g.find(g.lookup_term(parse_term("(g a)"))) == g.find(fa)
    assert g.lookup_term(parse_term("(h a)")) is None  # rule 1 not applied
    assert not g.pending  # rebuilt


class _RecordingScheduler(BackoffScheduler):
    def __init__(self, n_rules):
        super().__init__([1] * n_rules, match_limit=None)
        self.informed = []

    def inform(self, rule_index, n_matches, iteration):
        self.informed.append((rule_index, n_matches))
        return False


def _three_fs():
    g = EGraph()
    for src in ("(f a)", "(f b)", "(f c)"):
        g.add_term(parse_term(src))
    return g


def test_timelimit_checked_between_search_roots(monkeypatch):
    g = _three_fs()
    _clock_passing_deadline_on(monkeypatch, machine, "run_program")
    compiled = compile_theory(parse_theory(TWO_RULES))
    sched, stats = _RecordingScheduler(len(compiled)), {}
    changed, stop = eqsat_step(g, compiled, sched, 0, stats, 1.0)
    assert stop.kind == "time-limit" and not changed
    # rule 0 ran on one root of three, and rule 1 not at all
    assert [st.matches for st in stats.values()] == [1, 0]
    assert sched.informed == []  # a cut-off search decides no ban
    assert g.lookup_term(parse_term("(g a)")) is None  # nothing applied


def test_timelimit_checked_between_matches(monkeypatch):
    g = _three_fs()
    _clock_passing_deadline_on(monkeypatch, g, "merge")
    report = saturate(g, parse_theory(TWO_RULES), SaturationParams(timelimit_s=1.0))
    assert report.stop_reason.kind == "time-limit"
    assert report.iterations == 1
    assert [st.matches for st in report.per_rule.values()] == [3, 3]
    ga = g.lookup_term(parse_term("(g a)"))
    assert ga is not None and ga == g.lookup_term(parse_term("(f a)"))
    assert g.lookup_term(parse_term("(g b)")) is None  # the second match waits
    assert not g.pending  # rebuilt


def test_every_search_reads_a_rebuilt_graph_and_merges_nothing(monkeypatch):
    searches = []
    real = saturation.ematch_program

    def checked(g, *args):
        assert not g.pending and not g.analysis_worklist
        version = g.version
        found = real(g, *args)
        assert g.version == version
        searches.append(len(found))
        return found

    monkeypatch.setattr(saturation, "ematch_program", checked)
    theory = load_bundled("comm_monoid")
    for name in ("comm_group", "folder", "div_sim"):
        theory = theory + load_bundled(name)
    g = EGraph()
    g.add_term(parse_term("(/ (* a (* 2 3)) 6)"))
    saturate(g, theory)
    stream_optimize(parse_term("(getindex (map (lambda x (* 7 x)) (fill 3 4)) 1)"))
    stream_optimize(parse_term("(reverse (map (lambda x (+ x 1)) (cat (fill 2 5) s)))"))
    equal, _ = prove_equal(
        parse_term("(+ a (+ b c))"), parse_term("(+ c (+ b a))"), parse_theory(COMM_ASSOC)
    )
    assert equal
    assert len(searches) > 100 and sum(searches) > 1000


def test_saturated_is_fixed_point():
    g, root, report = sat("(* x y)", "(* ~a ~b) == (* ~b ~a)")
    assert report.stop_reason.kind == "saturated"
    compiled = compile_theory(parse_theory("(* ~a ~b) == (* ~b ~a)"))
    sched = BackoffScheduler([2], match_limit=None)
    changed, stop = eqsat_step(g, compiled, sched, 0, {})
    assert not changed and stop is None


def test_eqsat_step_adds_to_the_callers_stats(monkeypatch):
    made = []
    rule_stats = saturation.RuleStats

    def counted(name):
        made.append(name)
        return rule_stats(name)

    monkeypatch.setattr(saturation, "RuleStats", counted)
    g = EGraph()
    g.add_term(parse_term("(* (* a b) c)"))
    g.rebuild()
    compiled = compile_theory(
        parse_theory("@vars a b c\n(* a b) == (* b a)\n(* a (* b c)) == (* (* a b) c)\n")
    )
    sched, stats = BackoffScheduler([2, 1], match_limit=None), {}
    eqsat_step(g, compiled, sched, 0, stats)
    first = dict(stats)
    # commutativity is mirrored: its one direction matches each product once
    assert [st.matches for st in stats.values()] == [2, 1]
    eqsat_step(g, compiled, sched, 1, stats)
    assert made == ["r0", "r1"]  # one RuleStats per rule, made in the first step
    assert all(stats[i] is first[i] for i in stats)
    assert [st.matches for st in stats.values()] == [2 + 6, 1 + 5]


def test_eqsat_step_shares_one_run_state_across_its_searches(monkeypatch):
    made, searches = [], []

    class Counted(machine.RunState):
        __slots__ = ()

        def __init__(self, g, n_regs):
            made.append(n_regs)
            super().__init__(g, n_regs)

    search = machine.ematch_program

    def counted(*args, **kwargs):
        searches.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(machine, "RunState", Counted)
    monkeypatch.setattr(saturation, "RunState", Counted)
    monkeypatch.setattr(saturation, "ematch_program", counted)
    g = EGraph()
    g.add_term(parse_term("(* (* a b) (f c))"))
    compiled = compile_theory(
        parse_theory("@vars a b c\n(* a b) == (* b a)\n(* a (* b c)) == (* (* a b) c)\n"
                     "(f a) --> (g a)\n")
    )
    sched = BackoffScheduler([2, 1, 1], match_limit=None)
    for iteration in range(3):
        made.clear(), searches.clear()
        eqsat_step(g, compiled, sched, iteration, {})
        assert len(searches) >= 3
        assert made == [max(p.n_regs for p in searches)]


def test_a_theory_compiles_on_its_first_run_alone(monkeypatch):
    calls = []
    real = saturation.compile_theory

    def counted(theory):
        calls.append(theory)
        return real(theory)

    monkeypatch.setattr(saturation, "compile_theory", counted)
    theory = parse_theory(COMM_ASSOC)
    for _ in range(2):
        g = EGraph()
        g.add_term(parse_term("(+ a (+ b c))"))
        saturate(g, theory, SaturationParams())
        assert prove_equal(parse_term("(+ a b)"), parse_term("(+ b a)"), theory)[0]
    assert calls == [theory]
    kept = theory.compiled[1]
    # the field plays no part in comparing or printing a Theory
    fresh = Theory(theory.name, theory.rules)
    assert theory == fresh and repr(theory) == repr(fresh)
    # a changed rule list compiles again
    theory.rules.append(parse_theory("(f ~x) --> ~x").rules[0])
    prove_equal(parse_term("(f a)"), parse_term("a"), theory)
    assert calls == [theory, theory]
    assert len(theory.compiled[1]) == 3 and theory.compiled[1] is not kept
    prove_equal(parse_term("(f a)"), parse_term("a"), theory)
    assert len(calls) == 2


# -- prove_equal ------------------------------------------------------------

COMM_ASSOC = "@vars a b c\n(+ a b) == (+ b a)\n(+ a (+ b c)) == (+ (+ a b) c)\n"


def test_prove_syntactic_equality_immediate():
    t = parse_term("(+ a b)")
    equal, report = prove_equal(t, t, parse_theory(""))
    assert equal and report.iterations == 0


def test_prove_unknown():
    equal, report = prove_equal(
        parse_term("(+ a b)"), parse_term("(* a b)"), parse_theory(COMM_ASSOC)
    )
    assert not equal
    assert report.stop_reason.kind == "saturated"


def test_prove_assoc_rotation():
    equal, _ = prove_equal(
        parse_term("(+ a (+ b c))"),
        parse_term("(+ c (+ b a))"),
        parse_theory(COMM_ASSOC),
    )
    assert equal


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return parse_term(rng.choice(["a", "b", "c", "1"]))
    if rng.random() < 0.5:
        return parse_term(f"(f {print_term(_random_term(rng, depth - 1))})")
    args = " ".join(print_term(_random_term(rng, depth - 1)) for _ in range(2))
    return parse_term(f"(+ {args})")


def test_are_equal_gives_the_lookup_verdict_on_each_graph():
    def by_lookup(g, t1, t2):
        a, b = g.lookup_term(t1), g.lookup_term(t2)
        return a is not None and b is not None and g.find(a) == g.find(b)

    rng = random.Random(7)
    verdicts = set()
    for _ in range(60):
        t1, t2 = _random_term(rng, 3), _random_term(rng, 3)
        goal = AreEqual(t1, t2)
        graphs = [EGraph(), EGraph()]  # one goal checks both, in turn
        for _ in range(8):
            for g in graphs:
                for t in rng.sample([t1, t2, _random_term(rng, 2)], rng.randint(0, 2)):
                    g.add_term(t)
                ids = g.canonical_ids()
                if ids and rng.random() < 0.4:
                    g.merge(rng.choice(ids), rng.choice(ids))
                a, b = g.lookup_term(t1), g.lookup_term(t2)
                if a is not None and b is not None and rng.random() < 0.15:
                    g.merge(a, b)
                g.rebuild()
                want = by_lookup(g, t1, t2)
                assert goal(g) == want
                verdicts.add((g is graphs[0], want))
    assert len(verdicts) == 4  # both verdicts came on both graphs


# -- schedulers -------------------------------------------------------------


def test_simple_scheduler_never_bans():
    # `--scheduler simple`: backoff with no match limit
    s = BackoffScheduler([1, 2], match_limit=None)
    assert not s.inform(0, 10**9, 0)
    assert not s.inform(1, 10**9, 0)
    assert s.can_search(0, 5)
    assert s.can_stop(0)


def test_backoff_documented_trace():
    s = BackoffScheduler([1], match_limit=10)
    assert s.can_search(0, 0)
    assert s.inform(0, 11, 0)  # 11 matches at iteration 0 → ban
    for it in range(1, 6):
        assert not s.can_search(0, it)
    assert s.can_search(0, 6)
    st = s.states[0]
    assert st.match_limit == 20
    assert st.ban_length == 10
    assert st.times_banned == 1


def test_can_stop_lifts_the_bans_of_the_pass():
    s = BackoffScheduler([1, 1], match_limit=10)
    assert s.can_stop(0)
    assert s.inform(0, 11, 0)  # banned through iteration 5
    assert not s.can_stop(3)
    assert s.can_search(0, 4)  # the ban is lifted
    assert s.can_stop(4)
    assert s.inform(1, 11, 4)  # banned through iteration 9
    assert not s.can_stop(9)  # the rule was not searched in iteration 9
    assert s.can_stop(10)


# (+ a0 (+ a1 ... (+ a8 a9)))
SUM_10 = "(+ a0 (+ a1 (+ a2 (+ a3 (+ a4 (+ a5 (+ a6 (+ a7 (+ a8 a9)))))))))"


def test_no_saturated_while_a_rule_is_banned():
    # at the fifth iteration nothing changes only because rules are banned
    g = EGraph()
    g.add_term(parse_term(SUM_10))
    report = saturate(g, load_bundled("comm_group"), SaturationParams(timeout=50))
    assert report.stop_reason.kind != "saturated"


def test_backoff_under_limit_no_ban():
    s = BackoffScheduler([1], match_limit=10)
    assert not s.inform(0, 10, 0)
    assert s.can_search(0, 1)


def test_backoff_banned_rule_contributes_zero_matches():
    theory = parse_theory("@name comm\n(* ~a ~b) == (* ~b ~a)\n")
    g = EGraph()
    g.add_term(parse_term("(* x y)"))
    g.rebuild()
    params = SaturationParams(matchlimit=1, timeout=0)  # one iteration
    report = saturate(g, theory, params)
    # the one match of a mirrored rule stands for two, over limit 1 at once;
    # matches of the banning iteration are discarded
    assert report.per_rule[0].name == "comm"
    assert report.per_rule[0].matches == 1
    assert g.lookup_term(parse_term("(* y x)")) is None
    assert g.n_enodes == 3


# -- compiled right-hand sides ----------------------------------------------

_RHS_VARS = (PatVar("x", 0), PatVar("y", 1), PatVar("z", 2))
_RHS_LITERALS = (Lit(0), Lit(2), Lit(2.5), Atom("a"))


def _random_rhs(rng, depth, literals=_RHS_LITERALS):
    if depth == 0 or rng.random() < 0.3:
        # variables twice as often as literals, so that nodes of variables
        # alone and repeated variables are common
        return rng.choice(_RHS_VARS if rng.random() < 2 / 3 else literals)
    op = rng.choice(["+", "*", "/", "-", "f", "g"])
    n = 2 if rng.random() < 0.7 else rng.randint(0, 3)
    return PatTerm(op, tuple(_random_rhs(rng, depth - 1, literals) for _ in range(n)))


def _builder_kinds(rhs, lifts):
    """The kinds of right-hand-side node that `rhs` holds: operator nodes of
    variables alone, of variables and operator nodes, of two or more
    operator nodes alone and with a literal child; repeated variables,
    variables that stand for their literal, and builtins that fold (`lifts`,
    a `=>` rule's; None for another rule). Also the form of its plan: a
    variable or a literal root; a lean plan, all of whose values are class
    ids, of one, two, or three or more nodes; or a plan that is not lean
    with a lean subtree."""
    lifted = lifts or {}

    def class_var(p):
        return isinstance(p, PatVar) and p.index not in lifted

    def lean(p):
        return class_var(p) or isinstance(p, PatTerm) and all(map(lean, p.args))

    def literal(p):  # a number, a lifted variable or a fold gives a literal
        if isinstance(p, PatTerm):
            return (
                lifts is not None and p.op in BUILTIN_OPS and len(p.args) == 2
                and all(map(literal, p.args))
            )
        return p.index in lifted if isinstance(p, PatVar) else type(p) is Lit

    kinds = set()
    seen = set()
    nodes = []  # the operator nodes of `rhs`
    todo = [rhs]
    while todo:
        p = todo.pop()
        if isinstance(p, PatVar):
            if p.index in seen:
                kinds.add("repeated")
            if p.index in lifted:
                kinds.add("lifted")
            seen.add(p.index)
        elif isinstance(p, PatTerm):
            nodes.append(p)
            todo += p.args
            if literal(p):
                kinds.add("fold")
            if not p.args:
                continue
            plain = sum(map(class_var, p.args))
            n_nodes = sum(isinstance(a, PatTerm) for a in p.args)
            if any(isinstance(a, (Atom, Lit)) for a in p.args):
                kinds.add("literal child")
            elif plain == len(p.args):
                kinds.add("variables")
            elif plain + n_nodes == len(p.args) and plain:
                kinds.add("variables and nodes")
            elif n_nodes == len(p.args) and n_nodes > 1:
                kinds.add("nodes")
    if class_var(rhs):
        kinds.add("variable root")
    elif isinstance(rhs, (Atom, Lit)):
        kinds.add("constant root")
    elif lean(rhs):
        sizes = {1: "one lean node", 2: "two lean nodes"}
        kinds.add(sizes.get(len(nodes), "three or more lean nodes"))
    elif any(map(lean, nodes)):
        kinds.add("lean subtree")
    return kinds


def _random_graph(seed):
    """The same graph for the same seed; its last merges may be pending."""
    rng = random.Random(seed)
    g = EGraph()
    pool = [g.add_term(parse_term(s)) for s in ("a", "b", "0", "2", "2.5", "(f a)")]
    for _ in range(rng.randint(2, 12)):
        args = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        pool.append(g.add_enode(OpNode(rng.choice(["+", "*", "f", "g"]), args)))
    for _ in range(rng.randint(0, 3)):
        g.merge(rng.choice(pool), rng.choice(pool))
    if rng.random() < 0.5:
        g.rebuild()
    return g, pool


def _random_match(rng, g, pool, lifts):
    """A match whose lifted variables are bound to classes that hold a
    literal of their kind, as their guards make sure."""

    def bind(i):
        kind = lifts.get(i)
        return rng.choice([c for c in pool if kind is None or class_literals(g, c, kind)])

    return (rng.choice(pool), *(bind(i) for i in range(3)))


def _instantiator(kind, rhs, guards=(None, None, None)):
    """The instantiation of `rhs` in a rule whose left-hand side guards the
    variables x, y and z with the literal kinds `guards` (None: no guard)."""
    lhs_vars = tuple(
        replace(v, predicate=k and PredicateRef(k)) for v, k in zip(_RHS_VARS, guards)
    )
    rule = Rule(kind, PatTerm("q", lhs_vars), rhs, "r", ("x", "y", "z"))
    (d,) = compile_theory(Theory("t", [rule]))[0].directions
    assert d.program.lifts == {i: k for i, k in enumerate(guards) if k}
    return d.instantiate


@pytest.mark.parametrize("kind", [RuleKind.REWRITE, RuleKind.DYNAMIC])
def test_compiled_builder_matches_interpreted(kind):
    rng = random.Random(21)
    inconsistent = 0  # builds that read a class holding two distinct literals
    drawn = Counter()  # the right-hand sides that hold each kind of node
    for trial in range(600):
        want_g, pool = _random_graph(trial)
        got_g, _ = _random_graph(trial)
        # so that each form of plan is drawn, every other right-hand side has
        # variables alone, none of them lifted, 1 to 3 deep, and one in ten
        # is a literal
        lean = trial % 2 == 0
        if lean:
            rhs = _random_rhs(rng, (1, 2, 2, 3)[trial // 2 % 4], _RHS_VARS)
        elif trial % 10 == 1:
            rhs = rng.choice(_RHS_LITERALS)
        else:
            rhs = _random_rhs(rng, 3)
        guards = tuple(rng.choice([None, None, "number", "int", "real"]) for _ in range(3))
        if lean:
            guards = (None, None, None)
        build = _instantiator(kind, rhs, guards)
        lifts = {i: k for i, k in enumerate(guards) if k}
        drawn.update(_builder_kinds(rhs, lifts if kind is RuleKind.DYNAMIC else None))
        for _ in range(3):  # each merge leaves the next one a graph to repair
            m = _random_match(rng, want_g, pool, lifts)
            if kind is RuleKind.DYNAMIC:
                try:
                    want = add_pattern(want_g, rhs, m, lifts)
                except InconsistentClass:
                    with pytest.raises(InconsistentClass):
                        build(got_g, m)
                    assert got_g.dump() == want_g.dump(), rhs
                    inconsistent += 1
                    break
            else:
                want = add_pattern(want_g, rhs, m)
            got = build(got_g, m)
            assert got == want, rhs
            assert got_g.dump() == want_g.dump(), rhs
            want_g.merge(m[0], want)
            got_g.merge(m[0], got)
    assert kind is RuleKind.REWRITE or inconsistent > 10
    kinds = ["variables", "variables and nodes", "nodes", "literal child", "repeated"]
    kinds += ["variable root", "constant root", "one lean node", "two lean nodes"]
    kinds += ["three or more lean nodes", "lean subtree"]
    if kind is RuleKind.DYNAMIC:
        kinds += ["lifted", "fold"]
    assert {k: drawn[k] >= 30 for k in kinds} == dict.fromkeys(kinds, True), drawn


def test_compiled_builder_folds_nested_literals():
    rhs = PatTerm("+", (PatTerm("*", (PatVar("x", 0), Lit(2))),
                        PatTerm("/", (PatVar("y", 1), Lit(4)))))
    g = EGraph()
    three, two = g.add_term(Lit(3)), g.add_term(Lit(2))
    n = g.n_enodes
    m = (three, three, two, two)
    cid = _instantiator(RuleKind.DYNAMIC, rhs, ("number", "int", None))(g, m)
    assert g.n_enodes == n + 1  # the folded 6.5 alone
    assert g.lookup_term(Lit(6.5)) == cid


def test_dynamic_rule_reads_its_literal_when_it_builds():
    (cr,) = compile_theory(parse_theory("(f ~a::number) => (+ ~a 1)\n"))
    (d,) = cr.directions
    g = EGraph()
    g.add_term(parse_term("(f 2)"))
    g.rebuild()
    (m,) = ematch_program(g, d.program)
    assert g.find(d.instantiate(g, m)) == g.lookup_term(Lit(3))
    # the class of 2 gains a second literal between the search and the apply
    g.merge(g.lookup_term(Lit(2)), g.add_term(Lit(4)))
    with pytest.raises(InconsistentClass):
        d.instantiate(g, m)


def test_compiled_lookup_matches_interpreted():
    rng = random.Random(22)
    found = 0
    drawn = Counter()
    # no graph holds 7 or c, so a literal child may be absent
    literals = _RHS_LITERALS + (Lit(7), Atom("c"))
    for trial in range(300):
        g, pool = _random_graph(trial)
        # one right-hand side in ten is a literal
        rhs = rng.choice(literals) if trial % 10 == 1 else _random_rhs(rng, 2, literals)
        drawn["constant root"] += isinstance(rhs, (Atom, Lit))
        todo = [rhs]
        while todo:
            p = todo.pop()
            if isinstance(p, PatTerm):
                todo += p.args
                lits = [a for a in p.args if isinstance(a, (Atom, Lit))]
                if any(g.lookup(a) is None for a in lits):
                    drawn["absent literal child"] += 1
                    break
        lookup = _instantiator(RuleKind.UNEQUAL, rhs)
        before = g.dump()
        for _ in range(3):
            m = _random_match(rng, g, pool, {})
            want = lookup_pattern(g, rhs, m)
            assert lookup(g, m) == want, rhs
            found += want is not None
        assert g.dump() == before
    assert found > 50  # the comparison covers lookups that succeed
    assert min(drawn["constant root"], drawn["absent literal child"]) >= 30, drawn


def test_rhs_operator_variable_skips_rule():
    theory = parse_theory("@vars x\n(f x) --> (x a)\n")
    with pytest.warns(UserWarning, match="skipped in e-graph mode"):
        (cr,) = compile_theory(theory)
    assert cr.directions == ()


def test_compiled_rules_die_with_the_run(monkeypatch):
    refs = []
    calls = 0
    real = saturation.compile_theory

    def compile_and_watch(theory):
        nonlocal calls
        calls += 1
        compiled = real(theory)
        for cr in compiled:
            for d in cr.directions:
                for obj in (d.program, d.program.start, d.instantiate):
                    refs.append(weakref.ref(obj))
        return compiled

    def live_programs():
        return sum(isinstance(o, EMatchProgram) for o in gc.get_objects())

    monkeypatch.setattr(saturation, "compile_theory", compile_and_watch)
    monkeypatch.setattr(theories, "compile_theory", compile_and_watch)
    gc.disable()  # reference counting alone must free them
    try:
        # a Theory is compiled for the call and freed when it returns
        sat(
            "(/ (* a (* 2 3)) 6)",
            "(* ~a ~b) == (* ~b ~a)\n(* ~p::number ~q::number) => (* ~p ~q)\n",
        )
        assert refs
        assert all(r() is None for r in refs)
        # stream_optimize compiles its theory once; later calls neither
        # compile nor leave a program behind (the cycle collector is off, so
        # gc.get_objects() also lists any garbage in cycles)
        t = parse_term("(map (lambda x (* 7 x)) (fill 3 4))")
        stream_optimize(t)
        calls = 0
        before = live_programs()
        for _ in range(50):
            stream_optimize(t)
        assert calls == 0
        assert live_programs() == before
    finally:
        gc.enable()


def _untimed(report: Report) -> dict:
    d = report.to_json_dict()
    for r in d["rules"]:
        r.pop("search_s"), r.pop("apply_s")
    return d


def _saturated(t, theory) -> tuple:
    g = EGraph()
    g.add_term(t)
    g.rebuild()
    report = saturate(g, theory)
    return g.dump(), _untimed(report)


# The stream-fuse benchmark's pipelines and the tops it puts over them.
STREAM_TEMPLATES = (
    "(map {F} (fill {X} {N}))",
    "(map {F} (reverse (fill {X} {N})))",
    "(map {F} (cat (fill {X} {N}) (fill {X} {M})))",
    "(reverse (map {F} (map {G} (fill {X} {N}))))",
    "(cat (map {F} (fill {X} {N})) (map {F} (fill {Y} {M})))",
    "(map {F} (reverse (cat (fill {X} {N}) (fill {Y} {M}))))",
    "(reverse (reverse (map {F} (fill {X} {N}))))",
    "(map {F} (map {G} (reverse (cat (fill {X} {N}) (fill {X} {M})))))",
)
STREAM_TOPS = ("(getindex {S} {I})", "(sum {S})", "(length {S})", "{S}")


def test_reused_stream_theory_matches_a_fresh_compile(monkeypatch):
    terms = []
    for i, template in enumerate(STREAM_TEMPLATES):
        for j, top in enumerate(STREAM_TOPS):
            s = template.format(
                F="(lambda x (* 51 x))", G="(lambda x (- 62 x))",
                X=21 + i, Y=33, N=11 + j, M=17,
            )
            terms.append(parse_term(top.format(S=s, I=1 + i)))
    compiled, cleanup = theories._stream_pipeline()
    for t in terms:
        assert _saturated(t, compiled) == _saturated(t, load_bundled("stream"))
    got = [stream_optimize(t) for t in terms]
    monkeypatch.setattr(
        theories, "_stream_pipeline", lambda: (load_bundled("stream"), cleanup)
    )
    for t, (out, report) in zip(terms, got):
        want_out, want_report = stream_optimize(t)
        assert print_term(out) == print_term(want_out)
        assert _untimed(report) == _untimed(want_report)


def test_compiled_theory_reused_across_backoff_runs(monkeypatch):
    theory = load_bundled("comm_monoid")
    for n in ("comm_group", "folder", "div_sim"):
        theory = theory + load_bundled(n)
    compiled = compile_theory(theory)
    bans = []
    inform = BackoffScheduler.inform

    def watch(self, *args):
        bans.append(inform(self, *args))
        return bans[-1]

    monkeypatch.setattr(BackoffScheduler, "inform", watch)
    headline = parse_term("(/ (* a (* 2 3)) 6)")
    for _ in range(2):
        bans.clear()
        got = _saturated(headline, compiled)
        assert any(bans)  # backoff state lives in the run, not in `compiled`
        assert got == _saturated(headline, theory)


# -- report -----------------------------------------------------------------


def test_report_json_schema():
    g, root, report = sat("(* x y)", "@name comm\n(* ~a ~b) == (* ~b ~a)\n")
    d = report.to_json_dict()
    assert set(d) == {"stop_reason", "iterations", "n_enodes", "n_eclasses", "rules"}
    assert d["stop_reason"] == "saturated"
    assert d["rules"][0]["name"] == "comm"
    assert set(d["rules"][0]) == {"name", "search_s", "apply_s", "matches", "applied"}
    json.dumps(d)  # serializable


def test_per_rule_keyed_by_rule_index():
    # unnamed rules are r0, r1, ... in each theory, so names repeat here
    theory = load_bundled("fold") + load_bundled("near_zero_opt")
    g = EGraph()
    g.add_term(parse_term("(* 1e-20 (cos b))"))
    report = saturate(g, theory, SaturationParams())
    assert len(theory.rules) == 15
    assert list(report.per_rule) == list(range(15))
    assert [st.name for st in report.per_rule.values()] == [r.name for r in theory.rules]
    assert len(report.to_json_dict()["rules"]) == 15


def test_report_render_table():
    g, root, report = sat("(* x y)", "@name comm\n(* ~a ~b) == (* ~b ~a)\n")
    text = report.render()
    assert "stop reason: saturated" in text
    assert "comm" in text and "matches" in text


# -- determinism ------------------------------------------------------------


def test_two_runs_identical():
    def run():
        g, root, report = sat(
            "(/ (* a (* 2 3)) 6)",
            "@vars a b c\n(* a b) == (* b a)\n(* a (* b c)) == (* (* a b) c)\n"
            "(+ ~p::number ~q::number) => (+ ~p ~q)\n"
            "(* ~p::number ~q::number) => (* ~p ~q)\n"
            "(/ (* a b) c) == (* a (/ b c))\n",
        )
        return _untimed(report), g.dump()

    assert run() == run()


# -- ban-bounded search -----------------------------------------------------

SUM_12 = "(+ a0 (+ a1 (+ a2 (+ a3 (+ a4 (+ a5 (+ a6 (+ a7 (+ a8 (+ a9 (+ a10 a11)))))))))))"


def _saturate_with(monkeypatch, scheduler_cls, src, theory):
    made = []

    def make(weights, match_limit):
        made.append(scheduler_cls(weights, match_limit))
        return made[-1]

    monkeypatch.setattr(saturation, "BackoffScheduler", make)
    g = EGraph()
    g.add_term(parse_term(src))
    g.rebuild()
    report = saturate(g, theory)
    return g.dump(), str(report.stop_reason), report.iterations, made[0]


@pytest.mark.parametrize("case", ["headline", "sum12"])
def test_bounded_search_leaves_graph_as_unbounded(monkeypatch, case):
    if case == "headline":
        src = "(/ (* a (* 2 3)) 6)"
        theory = load_bundled("comm_monoid")
        for n in ("comm_group", "folder", "div_sim"):
            theory = theory + load_bundled(n)
    else:
        src = SUM_12
        theory = parse_theory(COMM_ASSOC)
    *want, ref = _saturate_with(monkeypatch, UnboundedBackoffScheduler, src, theory)
    *got, sched = _saturate_with(monkeypatch, BackoffScheduler, src, theory)
    assert got == want
    # the bound was reached, so the comparison covers a ban
    assert any(st.times_banned for st in sched.states)
    assert [st.times_banned for st in sched.states] == [
        st.times_banned for st in ref.states
    ]


@pytest.mark.parametrize("match_limit", [1, 2, 3, 4, 6])
def test_rule_match_count_stops_one_over_limit(match_limit):
    # three products: commutativity is mirrored, so its one direction matches
    # three times and stands for the two directions' six matches
    g, root, report = sat(
        "(* (* (* a b) c) d)", "(* ~a ~b) == (* ~b ~a)",
        timeout=0, matchlimit=match_limit,
    )
    banned = match_limit < 6
    # the search stops once the six reach the limit + 1
    assert report.per_rule[0].matches == (match_limit // 2 + 1 if banned else 3)
    assert (report.n_enodes == 7) == banned  # a ban drops every match


def test_search_limits():
    assert BackoffScheduler([1], match_limit=None).search_limit(0) is None
    s = BackoffScheduler([1, 2], match_limit=10)
    assert s.search_limit(0) == 11
    # a mirrored rule's matches count twice, so it is over the limit at 6
    assert s.search_limit(1) == 6
    assert not s.inform(1, 5, 0)
    assert s.inform(1, 6, 0)
    assert s.search_limit(1) == 11
    s.inform(0, 11, 0)
    assert s.search_limit(0) == 21
    assert SaturationParams().matchlimit == 5000
    assert BackoffScheduler([1]).states[0].match_limit == 5000


# -- mirrored rules -----------------------------------------------------------


@pytest.mark.parametrize(
    "rule, want",
    [
        ("(+ a b) == (+ b a)", True),  # commutativity
        ("(+ a (+ b c)) == (+ (+ a b) c)", False),  # associativity
        ("(f a b c) == (f b c a)", False),  # a 3-cycle swaps no two sides
        ("(+ ~a::number ~b) == (+ ~b ~a::number)", False),  # predicates differ
        ("(+ ~a::number ~b::number) == (+ ~b::number ~a::number)", True),
        ("(~h a b) == (~h b a)", False),  # an operator variable
        ("(f a a) == (f a a)", True),
        ("(g (f a 0 b) c) == (g (f b 0 a) c)", True),
        ("(g (f a b) a) == (g (f b a) b)", True),
        ("(f a 0) == (f a 1)", False),
    ],
)
def test_mirrored_rules(rule, want):
    (r,) = parse_theory("@vars a b c\n" + rule).rules
    assert mirrored(r.lhs, r.rhs) is want
    if type(r.lhs.op) is str:
        (cr,) = compile_theory(Theory("t", [r]))
        assert cr.mirrored is want
        assert len(cr.directions) == (1 if want else 2)


HEADLINE = "(/ (* a (* 2 3)) 6)"


def _four_theories():
    theory = load_bundled("comm_monoid")
    for name in ("comm_group", "folder", "div_sim"):
        theory = theory + load_bundled(name)
    return theory


def _bracket(leaves, rng):
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randint(1, len(leaves) - 1)
    return f"(+ {_bracket(leaves[:k], rng)} {_bracket(leaves[k:], rng)})"


def _ac_pairs(n):
    """`n` pairs of sums of 3 to 6 leaves over a, b and c: one in three has
    the same leaves, one a leaf changed and one a leaf more."""
    rng = random.Random(5)
    pairs = []
    for i in range(n):
        left = [rng.choice("abc") for _ in range(rng.randint(3, 6))]
        right = list(left)
        rng.shuffle(right)
        if i % 3 == 1:
            right[0] = "b" if right[0] != "b" else "c"
        elif i % 3 == 2:
            right.append(rng.choice("abc"))
        pairs.append([parse_term(_bracket(leaves, rng)) for leaves in (left, right)])
    return pairs


@pytest.fixture
def made(monkeypatch):
    """The schedulers `saturate` makes, in order."""
    made = []

    def make(weights, match_limit):
        made.append(BackoffScheduler(weights, match_limit))
        return made[-1]

    monkeypatch.setattr(saturation, "BackoffScheduler", make)
    return made


@pytest.mark.parametrize("scheduler", ["simple", "backoff"])
@pytest.mark.parametrize("case", ["headline", "sum12", "ac-pairs"])
def test_mirrored_compile_leaves_the_two_way_partition_and_report(made, case, scheduler):
    if case == "headline":
        theory, problems = _four_theories(), [[parse_term(HEADLINE)]]
    elif case == "sum12":
        theory, problems = parse_theory(COMM_ASSOC), [[parse_term(SUM_12)]]
    else:
        theory, problems = parse_theory(COMM_ASSOC), _ac_pairs(102)
    # under the simple scheduler the headline and SUM_12 stop short of the
    # e-node limit, whose cut lands at a match that depends on the order of adds
    timeout = {"headline": 5, "sum12": 2}.get(case, 8) if scheduler == "simple" else 8

    def run(compiled, terms):
        # as prove_equal does for a pair, keeping the graph
        g = EGraph()
        for t in terms:
            g.add_term(t)
        g.rebuild()
        goal = AreEqual(*terms) if len(terms) == 2 else None
        matchlimit = None if scheduler == "simple" else 5000
        params = SaturationParams(timeout=timeout, matchlimit=matchlimit, goal=goal)
        report = saturate(g, compiled, params)
        banned = [st.times_banned for st in made[-1].states]
        return (
            subterm_partition(g, terms),
            str(report.stop_reason),
            report.iterations,
            report.n_enodes,
            report.n_eclasses,
            banned,
        )

    one_way, two_way = compile_theory(theory), compile_two_way(theory)
    assert any(cr.mirrored for cr in one_way)
    assert not any(cr.mirrored for cr in two_way)
    results = []
    for terms in problems:
        got = run(one_way, terms)
        assert got == run(two_way, terms)
        results.append(got)
    reasons = {r[1] for r in results}
    if scheduler == "simple":
        assert reasons <= {"saturated", "goal-reached", "iteration-limit"}
    if case == "ac-pairs":
        assert reasons == {"saturated", "goal-reached"}
    if case == "headline" and scheduler == "backoff":
        assert any(results[0][-1])  # the comparison covers a ban


def _stream_problems():
    # two of the stream-fuse benchmark's pipelines, under two of its tops
    f, g = "(lambda x (* 51 x))", "(lambda x (- 62 x))"
    pipes = [
        STREAM_TEMPLATES[1].format(F=f, X=21, N=11),
        STREAM_TEMPLATES[3].format(F=f, G=g, X=24, N=13),
    ]
    return [
        [parse_term(STREAM_TOPS[0].format(S=pipes[0], I=2))],
        [parse_term(STREAM_TOPS[1].format(S=pipes[1]))],
    ]


@pytest.mark.parametrize("matchlimit", [None, 5000])
@pytest.mark.parametrize("case", ["headline", "sum12", "ac-pairs", "stream", "near-zero"])
def test_skipping_applied_matches_leaves_the_partition_and_report(monkeypatch, case, matchlimit):
    if case == "headline":
        theory, problems = _four_theories(), [[parse_term(HEADLINE)]]
    elif case == "sum12":
        theory, problems = parse_theory(COMM_ASSOC), [[parse_term(SUM_12)]]
    elif case == "ac-pairs":
        theory, problems = parse_theory(COMM_ASSOC), _ac_pairs(102)
    elif case == "stream":
        theory, problems = load_bundled("stream"), _stream_problems()
    else:
        theory = load_bundled("near_zero_opt")
        problems = [[parse_term("(* 1e-20 (cos b))")]]
    compiled = compile_theory(theory)

    def run(scheduler_cls, terms, timeout):
        made = []

        def make(weights, match_limit):
            made.append(scheduler_cls(weights, match_limit))
            return made[-1]

        monkeypatch.setattr(saturation, "BackoffScheduler", make)
        g = EGraph()
        roots = [g.add_term(t) for t in terms]
        g.rebuild()
        goal = AreEqual(*terms) if len(terms) == 2 else None
        params = SaturationParams(timeout=timeout, matchlimit=matchlimit, goal=goal)
        report = saturate(g, compiled, params)
        got = (
            subterm_partition(g, terms),
            str(report.stop_reason),
            report.iterations,
            report.n_enodes,
            report.n_eclasses,
            [st.matches for st in report.per_rule.values()],
            [st.times_banned for st in made[0].states],
            # extraction breaks ties by node order within a class
            [print_term(extract(g, astsize, r)) for r in roots],
        )
        return got, sum(st.applied for st in report.per_rule.values())

    for terms in problems:
        for timeout in range(9):
            got, skipping = run(BackoffScheduler, terms, timeout)
            want, every = run(ApplyEveryMatchScheduler, terms, timeout)
            assert got == want
            assert skipping <= every
            if case == "sum12" and matchlimit is not None and timeout == 6:
                # the longest run that the e-node limit does not cut
                assert want[1] == "iteration-limit"
                assert skipping <= 0.6 * every
            if want[1] != "iteration-limit":
                break  # a longer budget runs the same iterations


def test_applied_counts_the_right_hand_sides_instantiated():
    compiled = compile_theory(parse_theory(COMM_ASSOC))
    calls = [0]

    def counted(instantiate):
        def wrapper(g, m):
            calls[0] += 1
            return instantiate(g, m)

        return wrapper

    wrapped = tuple(
        replace(
            cr,
            directions=tuple(
                replace(d, instantiate=counted(d.instantiate)) for d in cr.directions
            ),
        )
        for cr in compiled
    )
    g = EGraph()
    g.add_term(parse_term(SUM_12))
    g.rebuild()
    report = saturate(g, wrapped)
    matches = sum(st.matches for st in report.per_rule.values())
    applied = sum(st.applied for st in report.per_rule.values())
    assert applied == calls[0]
    assert applied < matches


def test_one_directions_applied_match_never_skips_the_others():
    # `(f x y) == (g y x)` is not mirrored. On (f a b), direction 0 applies
    # M = (c, (a, b), ()) in iteration 0, which puts (g b a) in c; in
    # iteration 1 direction 1 finds on c, through that new row, a match
    # equal to M and builds it, while direction 0 finds M on old rows only
    compiled = compile_theory(parse_theory("@vars x y\n(f x y) == (g y x)\n"))
    assert len(compiled[0].directions) == 2
    applied = [[], []]

    def recorded(i, instantiate):
        def wrapper(g, m):
            applied[i].append(m)
            return instantiate(g, m)

        return wrapper

    cr = compiled[0]
    dirs = tuple(
        replace(d, instantiate=recorded(i, d.instantiate))
        for i, d in enumerate(cr.directions)
    )
    wrapped = (replace(cr, directions=dirs),)
    g = EGraph()
    c = g.add_term(parse_term("(f a b)"))
    g.rebuild()
    a, b = g.lookup_term(parse_term("a")), g.lookup_term(parse_term("b"))
    sched, stats = BackoffScheduler([1], match_limit=None), {}
    m = (c, a, b)
    eqsat_step(g, wrapped, sched, 0, stats)
    assert applied == [[m], []]
    searched = g.rebuilds
    eqsat_step(g, wrapped, sched, 1, stats)
    assert applied == [[m], [m]]  # direction 0 skipped its repeat, 1 did not
    assert sched.states[0].since == searched  # both directions searched then
    assert stats[0].matches == 3 and stats[0].applied == 2


def test_a_search_that_builds_nothing_still_records_since():
    compiled = compile_theory(
        parse_theory("@vars x\n(f x) --> (g x)\n(h x) --> (k x)\n(h x) != c\n")
    )
    g = EGraph()
    for src in ("(f a)", "(f b)", "c"):
        g.add_term(parse_term(src))
    g.rebuild()
    # rule 0 is banned; rules 1 and 2 are dead (the graph holds no h), so
    # they are not searched and keep -1, as a `!=` rule always does
    sched, stats = BackoffScheduler([1, 1, 1], match_limit=1), {}
    eqsat_step(g, compiled, sched, 0, stats)
    assert [st.since for st in sched.states] == [-1, -1, -1]
    assert [st.times_banned for st in sched.states] == [1, 0, 0]
    assert [(st.matches, st.applied) for st in stats.values()] == [(2, 0), (0, 0), (0, 0)]
    # a search whose every match was applied before builds none, and records
    sched, stats = BackoffScheduler([1, 1, 1], match_limit=None), {}
    eqsat_step(g, compiled, sched, 0, stats)
    assert stats[0].applied == 2
    searched = g.rebuilds
    eqsat_step(g, compiled, sched, 1, stats)
    assert (stats[0].matches, stats[0].applied) == (4, 2)
    assert [st.since for st in sched.states] == [searched, -1, -1]


@st.composite
def theory_texts(draw, g):
    """1 to 4 `-->`, `!=` and `==` rules over the operators of `graphs()` and
    over `h`, which those graphs never hold. A left-hand side is drawn at
    random, or from a path down `g`, which it then matches when its variables
    do. An `==` rule's right-hand side is an `h` node of its variables, so
    its right-to-left direction is dead where its left-to-right one lives."""
    nodes = [(op, n) for op in ("f", "g", "+", "h") for n in (1, 2)]
    leaves = st.sampled_from(["~x", "~y", "a", "1"])

    def pat(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(leaves)
        op, n = draw(st.sampled_from(nodes))
        return f"({op} {' '.join(pat(depth - 1) for _ in range(n))})"

    def path(cid, depth):
        ops = [n for n in g.class_nodes(cid) if type(n) is OpNode]
        if depth == 0 or not ops or depth < 3 and draw(st.booleans()):
            return draw(st.sampled_from(["~x", "~y"]))
        op, args = draw(st.sampled_from(ops))
        return f"({op} {' '.join(path(c, depth - 1) for c in args)})"

    lines = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lhs = pat(3)
        else:
            lhs = path(draw(st.sampled_from(g.canonical_ids())), 3)
        kind = draw(st.sampled_from(["-->", "!=", "=="]))
        if kind == "==":
            rhs = f"(h {' '.join(v for v in ('~x', '~y') if v in lhs) or 'a'})"
        else:
            rhs = draw(st.sampled_from([v for v in ("~x", "~y") if v in lhs] + ["a", "(g a)"]))
        lines.append(f"{lhs} {kind} {rhs}")
    return "\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_a_rule_not_searched_has_no_match(g, data):
    compiled = compile_theory(parse_theory(data.draw(theory_texts(g))))
    before = [[ematch_program(g, d.program) for d in cr.directions] for cr in compiled]
    searched_programs = []
    real = saturation.ematch_program

    def recording(g, prog, *args):
        searched_programs.append(prog)
        return real(g, prog, *args)

    sched, stats = BackoffScheduler([1] * len(compiled), match_limit=None), {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(saturation, "ematch_program", recording)
        eqsat_step(g, compiled, sched, 0, stats)
    for idx, cr in enumerate(compiled):
        ran = [d.program in searched_programs for d in cr.directions]
        assert all(ms == [] for ms, r in zip(before[idx], ran) if not r)
        if not any(ran):
            rs = stats[idx]
            assert (rs.matches, rs.applied, rs.search_s) == (0, 0, 0.0)
            assert sched.states[idx].since == -1  # a dead rule records nothing


def test_a_rule_that_comes_alive_builds_every_match():
    # rule 1 reads (h x), which rule 0 adds in the first step
    compiled = compile_theory(parse_theory("(f ~x) --> (h ~x)\n(h ~x) --> (k ~x)\n"))
    g = EGraph()
    fs = [g.add_term(parse_term(src)) for src in ("(f a)", "(f b)")]
    g.rebuild()
    sched, stats = BackoffScheduler([1, 1]), {}
    eqsat_step(g, compiled, sched, 0, stats)
    assert (stats[1].matches, stats[1].applied, stats[1].search_s) == (0, 0, 0.0)
    assert sched.states[1].since == -1
    eqsat_step(g, compiled, sched, 1, stats)
    assert (stats[1].matches, stats[1].applied) == (2, 2)
    for cid, src in zip(fs, ("(k a)", "(k b)")):
        assert g.find(g.lookup_term(parse_term(src))) == g.find(cid)


def test_a_match_already_in_its_class_merges_nothing(monkeypatch):
    # (* a b) and (* b a) share a class, so each of the two matches of the
    # commutativity rule finds its right-hand side there
    g = EGraph()
    ab = g.add_term(parse_term("(* a b)"))
    g.merge(ab, g.add_term(parse_term("(* b a)")))
    g.rebuild()
    merged = []
    real = EGraph.merge

    def merge(self, a, b):
        merged.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(EGraph, "merge", merge)
    compiled = compile_theory(parse_theory("(* ~a ~b) == (* ~b ~a)"))
    stats = {}
    changed, stop = eqsat_step(g, compiled, BackoffScheduler([2]), 0, stats)
    assert (changed, stop) == (False, None)
    assert (stats[0].matches, stats[0].applied) == (2, 2)
    assert merged == []
    # a right-hand side that is not there yet is merged into the class
    g.add_term(parse_term("(* c d)"))
    eqsat_step(g, compiled, BackoffScheduler([2]), 1, stats)
    assert len(merged) == 1 and stats[0].applied == 2 + 3


def test_headline_records_since_for_every_unbanned_rule(made):
    g = EGraph()
    g.add_term(parse_term(HEADLINE))
    report = saturate(g, _four_theories())
    assert (str(report.stop_reason), report.iterations) == ("iteration-limit", 9)
    # rules 3-7 never match
    assert [st.matches for st in report.per_rule.values()] == [
        5055, 180, 7266, 0, 0, 0, 0, 0, 298, 6584, 8,
    ]
    assert [st.applied for st in report.per_rule.values()] == [
        1859, 139, 2138, 0, 0, 0, 0, 0, 198, 1419, 3,
    ]
    # the last step searched at one rebuild fewer than the graph has made;
    # the banned rules 2 and 9 keep -1, and so do rules 3-7, which read `+`
    # or `-` and are dead at every step
    last = g.rebuilds - 1
    states = made[0].states
    assert [st.since for st in states] == [last] * 2 + [-1] * 6 + [last, -1, last]
    assert [st.times_banned for st in states] == [0, 0, 1] + [0] * 6 + [1, 0]


def test_unequal_rule_looks_up_a_repeated_match_again():
    # every iteration finds the same match of (f ~x) != g0; (f a) joins g0's
    # class in the third, so only a lookup made again in the fourth sees it
    theory = (
        "@vars x\n@name noteq\n(f ~x) != g0\n"
        "(f ~x) --> (k ~x)\n(k ~x) --> (h ~x)\n(h ~x) --> g0\n"
    )
    g = EGraph()
    g.add_term(parse_term("(f a)"))
    g.add_term(parse_term("g0"))
    g.rebuild()
    report = saturate(g, parse_theory(theory))
    assert str(report.stop_reason) == "contradiction(noteq)"
    assert report.iterations == 4


@pytest.mark.parametrize("banned", [False, True])
def test_report_counts_the_matches_ematch_program_returned(monkeypatch, made, banned):
    # the benchmark's cross-check: Report.per_rule against ematch_program
    returned = []
    real = machine.ematch_program

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        returned.append(len(out))
        return out

    monkeypatch.setattr(saturation, "ematch_program", counted)
    g = EGraph()
    g.add_term(parse_term(HEADLINE))
    report = saturate(g, _four_theories(), SaturationParams(timeout=8 if banned else 3))
    assert any(st.times_banned for st in made[0].states) == banned
    assert sum(returned) == sum(st.matches for st in report.per_rule.values())


def test_benchmark_tracer_counts_the_headline(monkeypatch):
    # bench/tracing.py wraps engine names from outside the engine; code that
    # calls around a wrapped name leaves its counters at 0 and the benchmark's
    # cross-check failing
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracing

    tracer = tracing.Tracer(time.perf_counter)
    # the theory is compiled and the graph built before the wrappers go on,
    # so that a right-hand side that bound a graph method when it was
    # compiled, and not on each call, adds no e-node the tracer sees
    compiled = compile_theory(_four_theories())
    g = EGraph()
    g.add_term(parse_term(HEADLINE))
    tracer.install()
    try:
        report = saturation.saturate(g, compiled, SaturationParams())
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    assert tracing.cross_check(counts, [report]) == []
    assert counts["machine.vm_runs"] > 0
    # each applied match of a rule whose two sides are operator nodes adds
    # at least the node at its root
    builds = sum(
        st.applied
        for i, st in report.per_rule.items()
        if compiled[i].rule.kind is not RuleKind.UNEQUAL
        and isinstance(compiled[i].rule.lhs, PatTerm)
        and isinstance(compiled[i].rule.rhs, PatTerm)
    )
    assert counts["egraph.add_enode_calls"] >= builds > 0
    assert counts["egraph.merge_calls"] > 0
