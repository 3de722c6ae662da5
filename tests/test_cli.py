import json

import pytest

from eqsat.cli import main
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
    assert code == 0
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
    assert code == 0
    d = json.loads(out)
    assert d["term"] == "a"
    assert set(d["report"]) == {
        "stop_reason", "iterations", "n_enodes", "n_eclasses", "rules"
    }


def test_simplify_verbose_report_on_stderr(capsys):
    code, out, err = run(
        capsys, "simplify", *FOUR, "--expr", "(/ (* a (* 2 3)) 6)", "--verbose"
    )
    assert code == 0
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
    assert "skipped in classical mode" in err


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


def test_too_deep_input_is_a_clean_error(capsys):
    code, out, err = run(
        capsys, "simplify", "--theory", "@comm_monoid", "--expr", _nested_sum(1200)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


# -- optimize-stream --------------------------------------------------------


def test_optimize_stream(capsys):
    code, out, _ = run(
        capsys, "optimize-stream",
        "--expr", "(map (lambda x (* 7 x)) (fill 3 4))",
    )
    assert code == 0
    assert out.strip() == "(fill 21 4)"


def test_output_reparseable(capsys):
    code, out, _ = run(
        capsys, "optimize-stream", "--json",
        "--expr", "(getindex (map (lambda x (* 7 x)) (fill 3 4)) 1)",
    )
    assert code == 0
    assert parse_term(json.loads(out)["term"]) == parse_term("21")
