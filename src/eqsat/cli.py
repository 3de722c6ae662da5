"""Command-line front-end.

Subcommands: simplify, prove, rewrite, analyze, optimize-stream. Theories are
given as file paths or @name for a bundled theory. Exit codes: 0 success,
1 parse/usage error, 2 limit-stop (result still printed), 3 prove unknown.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

from .analysis import (
    COST_FUNCTIONS,
    analyze,
    extract,
    format_sign,
    sign_analysis,
)
from .classical import DEFAULT_STRATEGY, parse_strategy, rule_rewriter
from .egraph import EGraph
from .errors import EqsatError
from .rules import RuleKind, Theory, parse_theory
from .saturation import (
    ECLASS_LIMIT,
    ENODE_LIMIT,
    ITERATION_LIMIT,
    TIME_LIMIT,
    SaturationParams,
    prove_equal,
    saturate,
)
from .terms import parse_term, print_term
from .theories import load_bundled, stream_optimize

LIMIT_STOPS = {ITERATION_LIMIT, TIME_LIMIT, ECLASS_LIMIT, ENODE_LIMIT}

_ASSUME_VALUES = {
    "+": 1.0,
    "-": -1.0,
    "0": 0.0,
    "inf": math.inf,
    "-inf": -math.inf,
    "nan": math.nan,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theory", action="append", default=[], metavar="PATH|@NAME")
    p.add_argument("--expr", action="append", default=[], metavar="SEXP|@FILE")
    p.add_argument("--timeout", type=int, default=None, metavar="ITERS")
    p.add_argument("--timelimit-ms", type=float, default=None)
    p.add_argument("--matchlimit", type=int, default=None)
    p.add_argument("--eclasslimit", type=int, default=None)
    p.add_argument("--enodelimit", type=int, default=None)
    p.add_argument("--scheduler", choices=["simple", "backoff"], default=None)
    p.add_argument("--cost", choices=sorted(COST_FUNCTIONS), default="astsize")
    p.add_argument("--strategy", default=DEFAULT_STRATEGY)
    p.add_argument("--assume", nargs="*", default=None, metavar="SYM=SIGN")
    p.add_argument("--json", action="store_true")
    p.add_argument("--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqsat", description="term rewriting and equality saturation"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simplify", "prove", "rewrite", "analyze", "optimize-stream"):
        p = sub.add_parser(name)
        _add_common(p)
        p.add_argument("exprs", nargs="*", metavar="SEXP")
    return parser


def _params(args) -> SaturationParams:
    params = SaturationParams()
    if args.timeout is not None:
        params.timeout = args.timeout
    if args.timelimit_ms is not None:
        params.timelimit_s = args.timelimit_ms / 1000.0
    if args.matchlimit is not None:
        params.matchlimit = args.matchlimit
    if args.eclasslimit is not None:
        params.eclasslimit = args.eclasslimit
    if args.enodelimit is not None:
        params.enodelimit = args.enodelimit
    if args.scheduler is not None:
        params.scheduler = args.scheduler
    params.printiter = args.verbose
    return params


def _load_theories(specs: list[str]) -> Theory:
    theory = Theory("cli", [])
    for spec in specs:
        if spec.startswith("@"):
            part = load_bundled(spec[1:])
        else:
            part = parse_theory(Path(spec).read_text(), name=spec)
        theory = theory + part
    return theory


def _read_exprs(args) -> list[str]:
    out = []
    for e in list(args.expr) + list(args.exprs):
        if e.startswith("@"):
            out.append(Path(e[1:]).read_text().strip())
        else:
            out.append(e)
    return out


def _assumptions(args) -> Optional[dict[str, float]]:
    if args.assume is None:
        return None
    table = {}
    for item in args.assume:
        sym, _, val = item.partition("=")
        if val not in _ASSUME_VALUES:
            raise EqsatError(f"bad --assume value {item!r}")
        table[sym] = _ASSUME_VALUES[val]
    return table


def cmd_simplify(args) -> int:
    exprs = _read_exprs(args)
    if len(exprs) != 1:
        print("simplify expects exactly one expression", file=sys.stderr)
        return 1
    term = parse_term(exprs[0])
    theory = _load_theories(args.theory)
    params = _params(args)
    g = EGraph()
    assumptions = _assumptions(args)
    if assumptions is not None:
        analyze(g, sign_analysis(assumptions))
    root = g.add_term(term)
    report = saturate(g, theory, params)
    best = extract(g, COST_FUNCTIONS[args.cost], root)
    if args.json:
        print(
            json.dumps(
                {"term": print_term(best), "report": report.to_json_dict()}, indent=2
            )
        )
    else:
        print(print_term(best))
        if args.verbose:
            print(report.render(), file=sys.stderr)
    return 2 if report.stop_reason.kind in LIMIT_STOPS else 0


def cmd_prove(args) -> int:
    exprs = _read_exprs(args)
    if len(exprs) != 2:
        print("prove expects exactly two expressions", file=sys.stderr)
        return 1
    t1, t2 = parse_term(exprs[0]), parse_term(exprs[1])
    theory = _load_theories(args.theory)
    equal, report = prove_equal(t1, t2, theory, _params(args))
    verdict = "equal" if equal else "unknown"
    if args.json:
        print(json.dumps({"result": verdict, "report": report.to_json_dict()}, indent=2))
    else:
        print(verdict)
        if args.verbose:
            print(report.render(), file=sys.stderr)
    return 0 if equal else 3


def cmd_rewrite(args) -> int:
    exprs = _read_exprs(args)
    if len(exprs) != 1:
        print("rewrite expects exactly one expression", file=sys.stderr)
        return 1
    term = parse_term(exprs[0])
    theory = _load_theories(args.theory)
    rewriters = []
    for r in theory.rules:
        if r.kind in (RuleKind.REWRITE, RuleKind.DYNAMIC):
            rewriters.append(rule_rewriter(r))
        else:
            print(
                f"warning: rule {r.name!r} ({r.kind.value}) skipped in classical mode",
                file=sys.stderr,
            )
    strategy = parse_strategy(args.strategy, {"all": rewriters})
    result = strategy(term)
    out = result if result is not None else term
    if args.json:
        print(json.dumps({"term": print_term(out)}, indent=2))
    else:
        print(print_term(out))
    return 0


def cmd_analyze(args) -> int:
    exprs = _read_exprs(args)
    if len(exprs) != 1:
        print("analyze expects exactly one expression", file=sys.stderr)
        return 1
    term = parse_term(exprs[0])
    g = EGraph()
    root = g.add_term(term)
    analyze(g, sign_analysis(_assumptions(args)))
    value = g.getdata(root, "sign", None)
    text = f"sign = {format_sign(value)}"
    if args.json:
        print(json.dumps({"expr": print_term(term), "sign": format_sign(value)}))
    else:
        print(text)
    return 0


def cmd_optimize_stream(args) -> int:
    exprs = _read_exprs(args)
    if len(exprs) != 1:
        print("optimize-stream expects exactly one expression", file=sys.stderr)
        return 1
    term = parse_term(exprs[0])
    out, report = stream_optimize(term, _params(args))
    if args.json:
        print(
            json.dumps(
                {"term": print_term(out), "report": report.to_json_dict()}, indent=2
            )
        )
    else:
        print(print_term(out))
        if args.verbose:
            print(report.render(), file=sys.stderr)
    return 2 if report.stop_reason.kind in LIMIT_STOPS else 0


_COMMANDS = {
    "simplify": cmd_simplify,
    "prove": cmd_prove,
    "rewrite": cmd_rewrite,
    "analyze": cmd_analyze,
    "optimize-stream": cmd_optimize_stream,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EqsatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
