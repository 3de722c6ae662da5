"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line. Randomized criteria use fixed seeds and
check the engine against independent brute-force oracles from oracles.py.
"""

import math
import random
import time

import pytest

from oracles import (
    bfs_connected,
    congruence_closure,
    enumerate_terms,
    naive_ematch,
)
from eqsat.analysis import analyze, astsize, extract, sign_analysis
from eqsat.egraph import EGraph, OpNode
from eqsat import machine, saturation
from eqsat.machine import ematch
from eqsat.rules import parse_rule, parse_theory
from eqsat.saturation import (
    BackoffScheduler,
    SaturationParams,
    prove_equal,
    saturate,
)
from eqsat.terms import Atom, Compound, Lit, parse_term, print_term
from eqsat.theories import load_bundled, stream_optimize


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def four_theory():
    th = load_bundled("comm_monoid")
    for n in ("comm_group", "folder", "div_sim"):
        th = th + load_bundled(n)
    return th


def run_pipeline(src, theory, params=None):
    g = EGraph()
    root = g.add_term(parse_term(src))
    g.rebuild()
    rep = saturate(g, theory, params or SaturationParams())
    return g, extract(g, astsize, root), rep


# -- criterion 1: headline simplification -----------------------------------


def test_criterion_1_paper_pipeline():
    t0 = time.perf_counter()
    g, best, rep = run_pipeline("(/ (* a (* 2 3)) 6)", four_theory())
    elapsed = time.perf_counter() - t0
    report(
        "1 paper-pipeline",
        best == Atom("a") and elapsed < 1.0,
    )


def test_criterion_1_search_work(monkeypatch):
    # the work bound does not depend on the machine's load, as the time does
    runs = 0
    run_program = machine.run_program

    def counted(g, prog, root, *args):
        nonlocal runs
        runs += 1
        if prog.root_op is not None:
            assert any(
                isinstance(n, OpNode) and n.op == prog.root_op
                for n in g.class_nodes(root)
            )
        return run_program(g, prog, root, *args)

    monkeypatch.setattr(machine, "run_program", counted)
    g, best, rep = run_pipeline("(/ (* a (* 2 3)) 6)", four_theory())
    assert best == Atom("a")
    assert runs <= 6000, runs


# -- criterion 2: sign analysis ---------------------------------------------


def test_criterion_2_sign_analysis():
    def sign_of(src):
        g = EGraph()
        root = g.add_term(parse_term(src))
        g.rebuild()
        analyze(g, sign_analysis(None))  # defaults: x=+, y=-, z=0, k=inf
        return g.getdata(root, "sign")

    ok = (
        sign_of("(* 3 x)") == 1
        and sign_of("(* 3 (* (+ 2 a) 2))") is None
        and sign_of("(* -3 (* y (* 2 (* x y))))") == -1
        and math.isnan(sign_of("(/ k k)"))
    )
    report("2 sign-analysis", ok)


# -- criterion 3: stream fusion ---------------------------------------------


@pytest.mark.parametrize(
    "src, searches, runs",
    [
        ("(map (lambda x (* 7 x)) (fill 3 4))", 28, 28),
        ("(getindex (map (lambda x (* 7 x)) (fill 3 4)) 1)", 37, 42),
    ],
)
def test_criterion_3_search_work(monkeypatch, src, searches, runs):
    # a rule whose operators the graph lacks is not searched, and no root of
    # a search is dropped
    counts = {"searches": 0, "runs": 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    search = counting(saturation.ematch_program, "searches")
    monkeypatch.setattr(saturation, "ematch_program", search)
    monkeypatch.setattr(machine, "run_program", counting(machine.run_program, "runs"))
    stream_optimize(parse_term(src))
    assert counts["searches"] <= searches, counts
    assert counts["runs"] == runs, counts


def test_criterion_3_stream_fusion():
    t0 = time.perf_counter()
    out1, _ = stream_optimize(parse_term("(map (lambda x (* 7 x)) (fill 3 4))"))
    t1 = time.perf_counter()
    out2, _ = stream_optimize(
        parse_term("(getindex (map (lambda x (* 7 x)) (fill 3 4)) 1)")
    )
    t2 = time.perf_counter()
    ok = (
        out1 == parse_term("(fill 21 4)")
        and out2 == Lit(21)
        and t1 - t0 < 2.0
        and t2 - t1 < 2.0
    )
    report("3 stream-fusion", ok)


# -- criterion 4: congruence-closure oracle ---------------------------------


def _random_term_pool(rng, max_terms):
    leaves = [Atom("a"), Atom("b"), Atom("c"), Lit(1)]
    pool = list(leaves[: rng.randint(2, 4)])
    while len(pool) < max_terms and rng.random() < 0.8:
        op = rng.choice(["f", "g", "+"])
        args = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        t = Compound(op, args)
        if t not in pool:
            pool.append(t)
    return pool


def test_criterion_4_congruence_closure_oracle():
    rng = random.Random(4)
    ok = True
    for _ in range(500):
        pool = _random_term_pool(rng, max_terms=8)
        merges = [
            (rng.choice(pool), rng.choice(pool))
            for _ in range(rng.randint(0, 5))
        ]
        g = EGraph()
        ids = {t: g.add_term(t) for t in pool}
        for a, b in merges:
            g.merge(ids[a], ids[b])
        g.rebuild()
        rep, universe = congruence_closure(pool, merges)
        for i in range(len(universe)):
            for j in range(i + 1, len(universe)):
                same_oracle = rep[i] == rep[j]
                same_graph = g.lookup_term(universe[i]) == g.lookup_term(
                    universe[j]
                )
                if same_oracle != same_graph:
                    ok = False
    report("4 congruence-closure-oracle", ok)


# -- criterion 5: e-matcher oracle ------------------------------------------


def _random_graph(rng, max_nodes):
    g = EGraph()
    pool = [g.add_term(t) for t in (Atom("a"), Atom("b"), Lit(1), Lit(2))]
    while g.n_enodes < max_nodes and rng.random() < 0.85:
        op = rng.choice(["f", "g", "+"])
        args = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        pool.append(g.add_enode(OpNode(op, args)))
    for _ in range(rng.randint(0, 3)):
        g.merge(rng.choice(pool), rng.choice(pool))
    g.rebuild()
    return g


def _random_pattern_src(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(["~v", "~w", "a", "b", "1", "2"])
    op = rng.choice(["f", "g", "+"])
    args = " ".join(
        _random_pattern_src(rng, depth - 1) for _ in range(rng.randint(1, 2))
    )
    return f"({op} {args})"


def test_criterion_5_ematcher_oracle():
    rng = random.Random(5)
    ok = True
    for _ in range(200):
        g = _random_graph(rng, max_nodes=30)
        pattern = parse_rule(f"{_random_pattern_src(rng, 4)} --> 0", set()).lhs
        got = set(ematch(g, pattern))
        if got != naive_ematch(g, pattern):
            ok = False
    report("5 ematcher-oracle", ok)


# -- criterion 6: prove vs BFS oracle ---------------------------------------

PLUS_COMM_ASSOC = parse_theory(
    "@vars a b c\n(+ a b) == (+ b a)\n(+ a (+ b c)) == (+ (+ a b) c)\n"
)


def _random_plus_term(rng, budget):
    # budget counts nodes; a leaf costs 1, a + node costs 1 plus children
    if budget < 3 or rng.random() < 0.3:
        return rng.choice([Atom("a"), Atom("b"), Atom("c")])
    left = rng.randint(1, budget - 2)
    return Compound(
        "+",
        (_random_plus_term(rng, left), _random_plus_term(rng, budget - 1 - left)),
    )


def test_criterion_6_prove_vs_bfs():
    rng = random.Random(6)
    pool = []
    while len(pool) < 40:
        t = _random_plus_term(rng, 9)
        if t not in pool:
            pool.append(t)
    rules = PLUS_COMM_ASSOC.rules
    ok = True
    checked = 0
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            checked += 1
            proven, _ = prove_equal(pool[i], pool[j], PLUS_COMM_ASSOC)
            reachable = bfs_connected(pool[i], pool[j], rules, depth=12)
            if proven != reachable:
                ok = False
    report("6 prove-vs-bfs", ok and checked == 780)


# -- criterion 7: extraction optimality -------------------------------------


def test_criterion_7_extraction_optimality():
    rng = random.Random(7)
    ok = True
    for _ in range(100):
        g = _random_graph(rng, max_nodes=14)
        root = rng.choice(g.canonical_ids())
        try:
            t = extract(g, astsize, root)
        except Exception:
            ok = False
            continue
        rep_terms = enumerate_terms(g, root, 6)
        def size(u):
            return 1 + sum(size(a) for a in getattr(u, "args", ()))
        if not rep_terms or size(t) != min(size(u) for u in rep_terms):
            ok = False
    report("7 extraction-optimality", ok)


# -- criterion 8: backoff scheduler -----------------------------------------


def test_criterion_8_backoff():
    # documented state-machine trace
    s = BackoffScheduler([1], match_limit=10)
    trace_ok = (
        s.can_search(0, 0)
        and s.inform(0, 11, 0)
        and all(not s.can_search(0, it) for it in range(1, 6))
        and s.can_search(0, 6)
        and s.states[0].match_limit == 20
        and s.states[0].ban_length == 10
    )
    # 12-leaf sum under comm+assoc stays within the e-node limit
    src = parse_term("(+ a0 (+ a1 (+ a2 (+ a3 (+ a4 (+ a5 (+ a6 (+ a7 "
                     "(+ a8 (+ a9 (+ a10 a11)))))))))))")
    g = EGraph()
    g.add_term(src)
    g.rebuild()
    params = SaturationParams()
    t0 = time.perf_counter()
    rep = saturate(g, PLUS_COMM_ASSOC, params)
    elapsed = time.perf_counter() - t0
    run_ok = (
        rep.stop_reason.kind
        in ("saturated", "iteration-limit", "time-limit", "eclass-limit", "enode-limit")
        and g.n_enodes <= params.enodelimit
        and elapsed < 10.0
    )
    report("8 backoff-scheduler", trace_ok and run_ok)


# -- criterion 9: determinism -----------------------------------------------


def _strip_timings(rep):
    d = rep.to_json_dict()
    for r in d["rules"]:
        r.pop("search_s")
        r.pop("apply_s")
    return d


def test_criterion_9_determinism():
    def run_all():
        outputs = []
        reports = []
        g, best, rep = run_pipeline("(/ (* a (* 2 3)) 6)", four_theory())
        outputs.append(print_term(best))
        reports.append(_strip_timings(rep))
        for src in (
            "(map (lambda x (* 7 x)) (fill 3 4))",
            "(getindex (map (lambda x (* 7 x)) (fill 3 4)) 1)",
        ):
            out, rep = stream_optimize(parse_term(src))
            outputs.append(print_term(out))
            reports.append(_strip_timings(rep))
        def sign_out(src):
            g = EGraph()
            root = g.add_term(parse_term(src))
            g.rebuild()
            analyze(g, sign_analysis(None))
            return repr(g.getdata(root, "sign"))
        outputs.extend(sign_out(s) for s in ("(* 3 x)", "(/ k k)"))
        return outputs, reports

    a_out, a_rep = run_all()
    b_out, b_rep = run_all()
    serial_ok = a_out == b_out and a_rep == b_rep

    def partition():
        g = EGraph()
        g.add_term(parse_term("(/ (* a (* 2 3)) 6)"))
        g.rebuild()
        saturate(g, four_theory(), SaturationParams())
        return g.dump()

    report("9 determinism", serial_ok and partition() == partition())


# -- bundled near-zero optimizer (out-of-scope benchmarks stand-in) ---------


def test_near_zero_rule_unit():
    g, best, rep = run_pipeline("(* 1e-20 (cos b))", load_bundled("near_zero_opt"))
    report("near-zero-opt", best == Lit(0))
