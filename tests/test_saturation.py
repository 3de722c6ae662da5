import gc
import json
import random
import weakref

import pytest

from oracles import UnboundedBackoffScheduler, add_pattern, lookup_pattern
from eqsat import saturation
from eqsat.egraph import EGraph, OpNode
from eqsat.machine import EMatch
from eqsat.rules import PatLit, PatTerm, PatVar, Rule, RuleKind, Theory, parse_theory
from eqsat.saturation import (
    BackoffScheduler,
    Report,
    SaturationParams,
    SimpleScheduler,
    StopReason,
    compile_theory,
    eqsat_step,
    make_scheduler,
    prove_equal,
    saturate,
)
from eqsat.terms import Lit, parse_term
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
    assert not g.worklist  # rebuilt


def test_saturated_is_fixed_point():
    g, root, report = sat("(* x y)", "(* ~a ~b) == (* ~b ~a)")
    assert report.stop_reason.kind == "saturated"
    compiled = compile_theory(parse_theory("(* ~a ~b) == (* ~b ~a)"))
    sched = SimpleScheduler()
    changed, stop = eqsat_step(g, compiled, sched, SaturationParams(), 0, {})
    assert not changed and stop is None


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


# -- schedulers -------------------------------------------------------------


def test_simple_scheduler_never_bans():
    s = SimpleScheduler()
    assert not s.inform(0, 10**9, 0)
    assert s.can_search(0, 5)


def test_backoff_documented_trace():
    s = BackoffScheduler(1, match_limit=10, ban_length=5)
    assert s.can_search(0, 0)
    assert s.inform(0, 11, 0)  # 11 matches at iteration 0 → ban
    for it in range(1, 6):
        assert not s.can_search(0, it)
    assert s.can_search(0, 6)
    st = s.states[0]
    assert st.match_limit == 20
    assert st.ban_length == 10
    assert st.times_banned == 1


def test_backoff_under_limit_no_ban():
    s = BackoffScheduler(1, match_limit=10, ban_length=5)
    assert not s.inform(0, 10, 0)
    assert s.can_search(0, 1)


def test_backoff_banned_rule_contributes_zero_matches():
    theory = parse_theory("@name comm\n(* ~a ~b) == (* ~b ~a)\n")
    g = EGraph()
    g.add_term(parse_term("(* x y)"))
    g.rebuild()
    params = SaturationParams(schedulerparams={"match_limit": 1})
    report = saturate(g, theory, params)
    # both directions of one node exceed limit 1 immediately; matches of the
    # banning iteration are discarded
    assert report.per_rule[0].name == "comm"
    assert report.per_rule[0].matches == 0 or report.stop_reason.kind


def test_make_scheduler():
    assert isinstance(
        make_scheduler(SaturationParams(scheduler="simple"), 1), SimpleScheduler
    )
    s = make_scheduler(SaturationParams(), 2)
    assert isinstance(s, BackoffScheduler)
    assert s.states[0].match_limit == 5000
    with pytest.raises(ValueError):
        make_scheduler(SaturationParams(scheduler="bogus"), 1)


# -- compiled right-hand sides ----------------------------------------------

_RHS_VARS = (PatVar("x", 0), PatVar("y", 1), PatVar("z", 2))
_RHS_LEAVES = _RHS_VARS + (PatLit(0), PatLit(2), PatLit(2.5), PatLit("a"))


def _random_rhs(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_RHS_LEAVES)
    op = rng.choice(["+", "*", "/", "-", "f", "g"])
    n = 2 if rng.random() < 0.7 else rng.randint(0, 3)
    return PatTerm(op, tuple(_random_rhs(rng, depth - 1) for _ in range(n)))


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


def _random_match(rng, pool):
    lits = [(i, rng.choice([0, 1, -3, 0.5, 2])) for i in range(3) if rng.random() < 0.5]
    binds = tuple((i, rng.choice(pool)) for i in range(3))
    return EMatch(rng.choice(pool), binds, tuple(lits))


def _instantiator(kind, rhs):
    rule = Rule(kind, PatTerm("q", _RHS_VARS), rhs, "r", ("x", "y", "z"))
    (d,) = compile_theory(Theory("t", [rule]))[0].directions
    return d.instantiate


@pytest.mark.parametrize("kind", [RuleKind.REWRITE, RuleKind.DYNAMIC])
def test_compiled_builder_matches_interpreted(kind):
    rng = random.Random(21)
    dynamic = kind is RuleKind.DYNAMIC
    for trial in range(300):
        want_g, pool = _random_graph(trial)
        got_g, _ = _random_graph(trial)
        rhs = _random_rhs(rng, 3)
        build = _instantiator(kind, rhs)
        for _ in range(3):  # each merge leaves the next one a graph to repair
            m = _random_match(rng, pool)
            want = add_pattern(want_g, rhs, m, dynamic)
            got = build(got_g, m)
            assert got == want, rhs
            assert got_g.dump() == want_g.dump(), rhs
            want_g.merge(m.class_id, want)
            got_g.merge(m.class_id, got)


def test_compiled_builder_folds_nested_literals():
    rhs = PatTerm("+", (PatTerm("*", (PatVar("x", 0), PatLit(2))),
                        PatTerm("/", (PatVar("y", 1), PatLit(4)))))
    g, pool = _random_graph(0)
    n = g.n_enodes
    m = EMatch(pool[0], ((0, pool[0]), (1, pool[1]), (2, pool[2])), ((0, 3), (1, 2)))
    cid = _instantiator(RuleKind.DYNAMIC, rhs)(g, m)
    assert g.n_enodes == n + 1  # the folded 6.5 alone
    assert g.lookup_term(Lit(6.5)) == cid


def test_compiled_lookup_matches_interpreted():
    rng = random.Random(22)
    found = 0
    for trial in range(300):
        g, pool = _random_graph(trial)
        rhs = _random_rhs(rng, 2)
        lookup = _instantiator(RuleKind.UNEQUAL, rhs)
        before = g.dump()
        for _ in range(3):
            m = _random_match(rng, pool)
            want = lookup_pattern(g, rhs, m)
            assert lookup(g, m) == want, rhs
            found += want is not None
        assert g.dump() == before
    assert found > 50  # the comparison covers lookups that succeed


def test_rhs_operator_variable_skips_rule():
    theory = parse_theory("@vars x\n(f x) --> (x a)\n")
    with pytest.warns(UserWarning, match="skipped in e-graph mode"):
        (cr,) = compile_theory(theory)
    assert cr.directions == []


def test_compiled_rules_die_with_the_run(monkeypatch):
    refs = []
    real = saturation.compile_theory

    def compile_and_watch(theory):
        compiled = real(theory)
        for cr in compiled:
            for d in cr.directions:
                for obj in (d.program, d.program.start, d.instantiate):
                    refs.append(weakref.ref(obj))
        return compiled

    monkeypatch.setattr(saturation, "compile_theory", compile_and_watch)
    gc.disable()  # reference counting alone must free them
    try:
        sat(
            "(/ (* a (* 2 3)) 6)",
            "(* ~a ~b) == (* ~b ~a)\n(* ~p::number ~q::number) => (* ~p ~q)\n",
        )
        stream_optimize(parse_term("(map (lambda x (* 7 x)) (fill 3 4))"))
        assert refs
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


# -- report -----------------------------------------------------------------


def test_report_json_schema():
    g, root, report = sat("(* x y)", "@name comm\n(* ~a ~b) == (* ~b ~a)\n")
    d = report.to_json_dict()
    assert set(d) == {"stop_reason", "iterations", "n_enodes", "n_eclasses", "rules"}
    assert d["stop_reason"] == "saturated"
    assert d["rules"][0]["name"] == "comm"
    assert set(d["rules"][0]) == {"name", "search_s", "apply_s", "matches"}
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
        d = report.to_json_dict()
        for r in d["rules"]:
            r.pop("search_s"), r.pop("apply_s")
        return d, g.dump()

    assert run() == run()


# -- ban-bounded search -----------------------------------------------------

SUM_12 = "(+ a0 (+ a1 (+ a2 (+ a3 (+ a4 (+ a5 (+ a6 (+ a7 (+ a8 (+ a9 (+ a10 a11)))))))))))"


def _saturate_with(monkeypatch, scheduler_cls, src, theory):
    made = []

    def make(params, n_rules):
        made.append(scheduler_cls(n_rules, match_limit=params.matchlimit))
        return made[-1]

    monkeypatch.setattr(saturation, "make_scheduler", make)
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
    # three products: each direction of commutativity matches three times
    g, root, report = sat(
        "(* (* (* a b) c) d)", "(* ~a ~b) == (* ~b ~a)",
        timeout=0, schedulerparams={"match_limit": match_limit},
    )
    banned = match_limit < 6
    assert report.per_rule[0].matches == (match_limit + 1 if banned else 6)
    assert (report.n_enodes == 7) == banned  # a ban drops every match


def test_search_limits():
    assert SimpleScheduler().search_limit(0) is None
    s = BackoffScheduler(1, match_limit=10)
    assert s.search_limit(0) == 11
    s.inform(0, 11, 0)
    assert s.search_limit(0) == 21
