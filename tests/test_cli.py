import json

import pytest

from eqsat.cli import _params, build_parser, main
from eqsat.terms import parse_term

FOUR = [
    "--theory", "@comm_monoid", "--theory", "@comm_group",
    "--theory", "@folder", "--theory", "@div_sim",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- simplify ---------------------------------------------------------------


def test_simplify_paper_pipeline(capsys):
    code, out, err = run(
        capsys, "simplify", *FOUR, "--expr", "(/ (* a (* 2 3)) 6)"
    )
    assert code == 2  # iteration-limit: some rule is still banned at the end
    assert out.strip() == "a"


def test_simplify_empty_theory_echoes(capsys):
    code, out, _ = run(capsys, "simplify", "--expr", "(f a)")
    assert code == 0
    assert out.strip() == "(f a)"


def test_simplify_malformed_expr(capsys):
    code, out, err = run(capsys, "simplify", "--expr", "(f a")
    assert code == 1
    assert out == ""
    assert err


def test_simplify_overlong_integer_exits_1(capsys):
    code, out, err = run(capsys, "simplify", "--expr", "(+ 1 " + "9" * 5000 + ")")
    assert code == 1
    assert out == ""
    assert err == "error: integer literal too long (at offset 5)\n"


def test_simplify_warns_of_a_skipped_rule_in_one_line(tmp_path, capsys):
    th = tmp_path / "segment.theory"
    th.write_text("(f xs... ~x) --> ~x\n")
    code, out, err = run(capsys, "simplify", "--theory", str(th), "--expr", "(f a)")
    assert code == 0
    assert out.strip() == "(f a)"
    assert err == (
        "warning: rule 'r0' skipped in e-graph mode: "
        "segment variables are not supported by the e-graph matcher\n"
    )


def test_name_with_no_rule_exits_1(tmp_path, capsys):
    th = tmp_path / "dangling.theory"
    th.write_text("(f ~x) --> ~x\n@name last\n")
    code, out, err = run(capsys, "simplify", "--theory", str(th), "--expr", "(f a)")
    assert code == 1
    assert out == ""
    assert err == "error: line 2: @name 'last' names no rule\n"


def test_simplify_limit_stop_prints_term(tmp_path, capsys):
    th = tmp_path / "grow.theory"
    th.write_text("(f ~x) --> (f (g ~x))\n")
    code, out, _ = run(
        capsys,
        "simplify",
        "--theory", str(th),
        "--expr", "(f a)",
        "--enodelimit", "40",
        "--timeout", "500",
    )
    assert code == 2
    assert out.strip()  # term still printed
    parse_term(out.strip())


def test_simplify_json_report(capsys):
    code, out, _ = run(
        capsys, "simplify", *FOUR, "--expr", "(/ (* a (* 2 3)) 6)", "--json"
    )
    assert code == 2
    d = json.loads(out)
    assert d["term"] == "a"
    assert set(d["report"]) == {
        "stop_reason", "iterations", "n_enodes", "n_eclasses", "rules"
    }


def test_simplify_verbose_report_on_stderr(capsys):
    code, out, err = run(
        capsys, "simplify", *FOUR, "--expr", "(/ (* a (* 2 3)) 6)", "--verbose"
    )
    assert code == 2
    assert out.splitlines()[-1].strip() == "a"
    assert "stop reason" in err
    assert "a" != err.strip()  # stderr never carries the result term


def test_simplify_json_verbose_stdout_is_json(capsys):
    code, out, err = run(
        capsys, "simplify", "--theory", "@comm_monoid", "--expr", "(* a 1)",
        "--json", "--verbose",
    )
    assert code == 0
    assert json.loads(out)["term"] == "a"
    assert "iteration 1:" in err


@pytest.mark.parametrize("assume,expect", [(["q=+"], "1"), (["q=0"], "(/ q q)"), (None, "(/ q q)")])
def test_simplify_assume_guards_sign_rules(capsys, assume, expect):
    argv = ["simplify", "--theory", "@div_sim", "--expr", "(/ q q)"]
    if assume is not None:
        argv += ["--assume", *assume]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expect


def test_simplify_expr_from_file(tmp_path, capsys):
    f = tmp_path / "e.sexp"
    f.write_text("(* q 1)\n")
    code, out, _ = run(
        capsys, "simplify", "--theory", "@comm_monoid", "--expr", f"@{f}"
    )
    assert code == 0
    assert out.strip() == "q"


def test_simplify_theory_from_path(tmp_path, capsys):
    th = tmp_path / "t.theory"
    th.write_text("@vars a\n(dup a) --> a\n")
    code, out, _ = run(
        capsys, "simplify", "--theory", str(th), "--expr", "(dup v)"
    )
    assert code == 0
    assert out.strip() == "v"


def test_bad_rule_reported_once_with_its_line(tmp_path, capsys):
    th = tmp_path / "t.theory"
    th.write_text("(f ~x) --> (g ~z)\n")
    code, out, err = run(
        capsys, "simplify", "--theory", str(th), "--expr", "(f a)"
    )
    assert code == 1 and out == ""
    assert err.strip() == (
        "error: line 1: variable ~z appears on the RHS but not on the LHS"
    )


@pytest.mark.parametrize("command", ["simplify", "rewrite"])
def test_unchecked_guard_exits_1(tmp_path, capsys, command):
    # neither matcher checks a guard on a later occurrence of a variable, so
    # the rule would turn (f x x) into ok
    th = tmp_path / "t.theory"
    th.write_text("(f ~a ~a::number) --> ok\n")
    code, out, err = run(capsys, command, "--theory", str(th), "--expr", "(f x x)")
    assert code == 1 and out == ""
    assert err == (
        "error: line 1: guard in '~a::number' is not that of the first ~a of its"
        " side, which is the one a matcher checks\n"
    )


def test_one_sided_equality_guard_exits_1(tmp_path, capsys):
    # the right-to-left direction searches (g ~a) unguarded, so the rule
    # would prove (f x) equal to (g x) for the symbol x
    th = tmp_path / "t.theory"
    th.write_text("(f ~a::number) == (g ~a)\n")
    code, out, err = run(
        capsys, "prove", "--theory", str(th), "--expr", "(f x)", "--expr", "(g x)"
    )
    assert code == 1 and out == ""
    assert err == (
        "error: line 1: ~a is guarded differently on the two sides of"
        " '(f ~a::number) == (g ~a)', so one direction would not check its guard\n"
    )


@pytest.mark.parametrize(
    "directive, message",
    [
        ("@name", "@name takes exactly one name"),
        ("@namefoo", "unknown directive '@namefoo'"),
        ("@varsx y", "unknown directive '@varsx'"),
    ],
)
def test_bad_theory_directive_exits_1(tmp_path, capsys, directive, message):
    th = tmp_path / "t.theory"
    th.write_text(f"{directive}\n(f ~x) --> ~x\n")
    code, out, err = run(capsys, "simplify", "--theory", str(th), "--expr", "(f a)")
    assert code == 1 and out == ""
    assert err == f"error: line 1: {message}\n"


def test_unknown_bundled_theory_exits_1(capsys):
    code, out, err = run(capsys, "simplify", "--theory", "@nope", "--expr", "(* a 1)")
    assert code == 1 and out == ""
    assert err == "error: no bundled theory named 'nope'\n"


def test_simplify_wrong_arity(capsys):
    code, _, err = run(capsys, "simplify", "--expr", "a", "--expr", "b")
    assert code == 1 and err


# -- prove ------------------------------------------------------------------


def test_prove_equal(capsys):
    code, out, _ = run(
        capsys, "prove", "--theory", "@comm_group",
        "(+ a (+ b c))", "(+ (+ a b) c)",
    )
    assert code == 0
    assert out.strip() == "equal"


def test_prove_trivial_and_unknown(capsys):
    code, out, _ = run(capsys, "prove", "a", "a")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "prove", "a", "b")
    assert code == 3 and out.strip() == "unknown"


# -- rewrite ----------------------------------------------------------------


def test_rewrite_fold(capsys):
    code, out, _ = run(
        capsys, "rewrite", "--theory", "@folder",
        "--strategy", "fixpoint(postwalk(chain(all)))",
        "--expr", "(+ 1 (+ 2 3))",
    )
    assert code == 0
    assert out.strip() == "6"


def test_rewrite_skips_equality_rules_with_warning(capsys):
    code, out, err = run(
        capsys, "rewrite", "--theory", "@comm_monoid", "--expr", "(* a b)"
    )
    assert code == 0
    assert out.strip() == "(* a b)"
    assert err == (
        "warning: rule 'mul-comm' (==) skipped in classical mode\n"
        "warning: rule 'mul-assoc' (==) skipped in classical mode\n"
    )


def test_rewrite_single_pass_strategy(capsys):
    code, out, _ = run(
        capsys, "rewrite", "--theory", "@folder",
        "--strategy", "postwalk(chain(all))",
        "--expr", "(+ 1 (+ 2 3))",
    )
    assert code == 0
    assert out.strip() == "6"


# -- analyze ----------------------------------------------------------------


@pytest.mark.parametrize(
    "expr,assume,expect",
    [
        ("(* 3 x)", ["x=+"], "sign = +1"),
        ("(/ k k)", ["k=inf"], "sign = NaN"),
        ("(* 3 (* (+ 2 a) 2))", None, "sign = unknown"),
    ],
)
def test_analyze(capsys, expr, assume, expect):
    argv = ["analyze", "--expr", expr]
    if assume is not None:
        argv += ["--assume", *assume]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expect


def test_analyze_bad_assume(capsys):
    code, _, err = run(capsys, "analyze", "--expr", "x", "--assume", "x=wat")
    assert code == 1 and err


def _nested_sum(depth):
    return "(+ " * depth + "a" + " 1)" * depth


def test_simplify_deeply_nested_term(capsys):
    code, out, err = run(
        capsys, "simplify", "--theory", "@comm_monoid", "--expr", _nested_sum(400)
    )
    assert code in (0, 2)
    assert out.count("(+") == 400
    assert "Traceback" not in err


def test_simplify_deeper_than_the_recursion_limit(capsys):
    code, out, err = run(
        capsys, "simplify", "--theory", "@comm_monoid", "--expr", _nested_sum(1200)
    )
    assert code in (0, 2)
    assert out.count("(+") == 1200
    assert "Traceback" not in err


def test_optimize_stream_deeper_than_the_recursion_limit(capsys):
    code, out, err = run(capsys, "optimize-stream", "--expr", _nested_sum(1200))
    assert code == 0
    assert out.count("(+") == 1200
    assert "Traceback" not in err


def test_rewrite_deeper_than_the_recursion_limit(capsys):
    # (* a 1) --> a rebuilds the whole spine, and Fixpoint compares the new
    # term with the old one
    expr = "(+ " * 1200 + "(* a 1)" + " 1)" * 1200
    code, out, err = run(capsys, "rewrite", "--theory", "@comm_monoid", "--expr", expr)
    assert code == 0
    assert out.strip() == _nested_sum(1200)
    assert "Traceback" not in err


def test_optimize_stream_keeps_a_lambda_that_rebinds_the_parameter(capsys):
    expr = "(call (lambda x (map (lambda x (+ x 1)) x)) (fill 2 3))"
    code, out, err = run(capsys, "optimize-stream", "--expr", expr)
    assert code == 0
    assert out.strip() == "(map (lambda x (+ x 1)) (fill 2 3))"


def test_optimize_stream_inlines_a_deep_lambda(capsys):
    body = "(+ " * 1200 + "x" + " 1)" * 1200
    code, out, err = run(
        capsys, "optimize-stream", "--expr", f"(call (lambda x {body}) 2)"
    )
    assert code == 0
    assert out.strip() == "1202"
    assert "Traceback" not in err


def test_simplify_with_a_deep_mirrored_rule(tmp_path, capsys):
    # the check that the rule's sides swap walks 450 levels without recursing
    g450 = "(g " * 450 + "{})" + ")" * 449
    th = tmp_path / "deep.theory"
    th.write_text("@vars a b\n" + g450.format("(f a b)") + " == " + g450.format("(f b a)"))
    expr = g450.format("(f x y)")
    code, out, err = run(capsys, "simplify", "--theory", str(th), "--expr", expr)
    assert code == 0
    assert out.strip() in (expr, g450.format("(f y x)"))
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "rule, expr, want",
    [
        ("(k " + "(f " * 3000 + "~x" + ")" * 3001 + " --> (g ~x)",
         "(k " + "(f " * 3000 + "a" + ")" * 3001, "(g a)"),
        ("(f " + " ".join(f"~x{i}" for i in range(3000)) + ") --> (g ~x0)",
         "(f " + " ".join(f"a{i}" for i in range(3000)) + ")", "(g a0)"),
    ],
    ids=["deep", "wide"],
)
def test_rewrite_matches_a_left_hand_side_of_any_size(tmp_path, capsys, rule, expr, want):
    # the classical matcher walks its pattern and term on a stack; each
    # term matches, so the whole pattern is walked (once: the deep rule is
    # rooted at `k`, so no subterm of the term gets past the root test)
    th = tmp_path / "big.theory"
    th.write_text(rule + "\n")
    code, out, err = run(capsys, "rewrite", "--theory", str(th), "--expr", expr)
    assert (code, out, err) == (0, want + "\n", "")


def test_deep_left_hand_side_compiles(tmp_path, capsys):
    # the theory parses and its matcher compiles at any depth; the graph of
    # `a` has no (g, 1) row, so the matcher never runs
    th = tmp_path / "deep.theory"
    th.write_text("@vars x\n" + "(g " * 3000 + "x" + ")" * 3000 + " --> x\n")
    code, out, err = run(capsys, "simplify", "--theory", str(th), "--expr", "a")
    assert (code, out, err) == (0, "a\n", "")


def _deep(head, leaf, depth=3000):
    return f"({head} " * depth + leaf + ")" * depth


@pytest.mark.parametrize(
    "rule, argv, code, want",
    [
        ("(f ~x) --> " + _deep("g", "~x"), ["simplify", "--expr", "(f a)"], 0,
         "(f a)"),
        ("@vars x\n(f x) => " + _deep("+ 1", "2"), ["simplify", "--expr", "(f a)"],
         0, "3002"),
        ("(q ~x) != " + _deep("g", "~x"),
         ["prove", "--expr", "(q a)", "--expr", "b"], 3, "unknown"),
        ("(f ~x) --> " + _deep("g", "~x"), ["rewrite", "--expr", "(f a)"], 0,
         _deep("g", "a")),
        ("@vars x\n(f x) => " + _deep("+ 1", "2"), ["rewrite", "--expr", "(f x)"],
         0, "3002"),
    ],
    ids=[
        "rewrite", "dynamic-fold", "unequal",
        "classical-rewrite", "classical-dynamic-fold",
    ],
)
def test_deep_right_hand_side_runs(tmp_path, capsys, rule, argv, code, want):
    # both backends build a right-hand side without recursing, so only a
    # searched side is bounded by the recursion limit
    th = tmp_path / "deep.theory"
    th.write_text(rule + "\n")
    command, *rest = argv
    got_code, out, err = run(capsys, command, "--theory", str(th), *rest)
    assert (got_code, out.strip(), err) == (code, want, "")


def test_deep_equality_rule_is_a_clean_error(tmp_path, capsys):
    # each side of an `==` rule is searched, and a compiled matcher calls one
    # closure per pattern step
    th = tmp_path / "deep.theory"
    th.write_text("(f ~x) == " + _deep("g", "~x") + "\n")
    code, out, err = run(capsys, "simplify", "--theory", str(th), "--expr", "(f a)")
    assert code == 1
    assert out == ""
    assert err == "error: expression nested too deeply\n"


# -- optimize-stream --------------------------------------------------------


def test_optimize_stream(capsys):
    code, out, _ = run(
        capsys, "optimize-stream",
        "--expr", "(map (lambda x (* 7 x)) (fill 3 4))",
    )
    assert code == 0
    assert out.strip() == "(fill 21 4)"


def test_optimize_stream_fuses_filters_without_capturing_a_free_atom(capsys):
    code, out, _ = run(
        capsys, "optimize-stream",
        "--expr", "(filter (lambda y (> y x)) (filter (lambda z (< z 5)) s))",
    )
    assert code == 0
    assert out.strip() == "(filter (lambda x1 (and (> x1 x) (< x1 5))) s)"


def test_output_reparseable(capsys):
    code, out, _ = run(
        capsys, "optimize-stream", "--json",
        "--expr", "(getindex (map (lambda x (* 7 x)) (fill 3 4)) 1)",
    )
    assert code == 0
    assert parse_term(json.loads(out)["term"]) == parse_term("21")


# -- usage --------------------------------------------------------------------

# A value each option accepts, and whether it takes one.
OPTIONS = {
    "--theory": ["@comm_monoid"],
    "--expr": ["(* x 1)"],
    "--timeout": ["3"],
    "--timelimit-ms": ["100"],
    "--matchlimit": ["10"],
    "--eclasslimit": ["10"],
    "--enodelimit": ["100"],
    "--scheduler": ["simple"],
    "--cost": ["astsize"],
    "--strategy": ["postwalk(chain(all))"],
    "--assume": ["x=+"],
    "--json": [],
    "--verbose": [],
}
LIMITS = ["--timeout", "--timelimit-ms", "--matchlimit", "--eclasslimit",
          "--enodelimit", "--scheduler"]
# the options each subcommand reads
ACCEPTED = {
    "simplify": ["--theory", *LIMITS, "--cost", "--assume", "--json", "--verbose"],
    "prove": ["--theory", *LIMITS, "--json", "--verbose"],
    "rewrite": ["--theory", "--strategy", "--json"],
    "analyze": ["--assume", "--json"],
    "optimize-stream": [*LIMITS, "--json", "--verbose"],
}
ACCEPTED_PAIRS = [(c, f) for c, flags in ACCEPTED.items() for f in ["--expr", *flags]]
REMOVED_PAIRS = [
    (c, f) for c in ACCEPTED for f in OPTIONS if (c, f) not in ACCEPTED_PAIRS
]
ONE_EXPR = ["--expr", "(* x 1)"]


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "flags, matchlimit",
    [([], 5000), (["--scheduler", "backoff"], 5000), (["--scheduler", "simple"], None),
     (["--matchlimit", "7"], 7)],
)
def test_scheduler_sets_the_match_limit(flags, matchlimit):
    args = build_parser().parse_args(["simplify", *flags, "a"])
    assert _params(args).matchlimit == matchlimit


def test_every_option_is_accepted_or_removed():
    assert len(ACCEPTED_PAIRS) == 38 and len(REMOVED_PAIRS) == 27


@pytest.mark.parametrize("command,flag", ACCEPTED_PAIRS)
def test_subcommand_accepts_the_options_it_reads(command, flag):
    args = build_parser().parse_args([command, flag, *OPTIONS[flag]])
    assert vars(args)[flag[2:].replace("-", "_")] not in (None, False, [])


@pytest.mark.parametrize("command,flag", REMOVED_PAIRS)
def test_subcommand_rejects_options_it_does_not_read(capsys, command, flag):
    exprs = ONE_EXPR * (2 if command == "prove" else 1)
    code, out, err = usage_error(capsys, command, *exprs, flag, *OPTIONS[flag])
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["simplify", "--bogus", *ONE_EXPR], "unrecognized arguments: --bogus"),
        (["simplify", "--scheduler", "fifo", *ONE_EXPR], "invalid choice: 'fifo'"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["simplify", "--timeout", "-3", *ONE_EXPR], "argument --timeout: expected"),
        (["prove", "--matchlimit", "-1", "a", "a"], "argument --matchlimit: expected"),
        (["simplify", "--eclasslimit", "-1", *ONE_EXPR], "argument --eclasslimit"),
        (["optimize-stream", "--enodelimit", "-5", *ONE_EXPR], "argument --enodelimit"),
        (["simplify", "--timelimit-ms", "-0.5", *ONE_EXPR], "argument --timelimit-ms"),
        (["simplify", "--timelimit-ms", "nan", *ONE_EXPR], "got 'nan'"),
        (["simplify", "--timeout", "x", *ONE_EXPR], "invalid limit value: 'x'"),
        (["simplify", "--scheduler", "simple", "--matchlimit", "3", *ONE_EXPR],
         "argument --matchlimit: not allowed with --scheduler simple"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    code, out, err = usage_error(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simplify"], "simplify expects 1 expression(s), got 0"),
        (["prove", "a"], "prove expects 2 expression(s), got 1"),
        (["analyze", "a", "--expr", "b"], "analyze expects 1 expression(s), got 2"),
    ],
)
def test_wrong_number_of_expressions_exits_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["simplify", "-h"], ["prove", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = usage_error(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: eqsat") and err == ""
