"""Command-line front-end.

Subcommands: simplify, prove, rewrite, analyze, optimize-stream; each takes
only the options it reads. Theories are given as file paths or @name for a
bundled theory. Exit codes: 0 success, 1 parse/usage error, 2 limit-stop
(result still printed), 3 prove unknown.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
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
    Report,
    SaturationParams,
    prove_equal,
    saturate,
)
from .terms import Term, parse_term, print_term
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


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, where argparse exits 2: the CLI keeps 2 for
    a limit stop."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least_0(convert):
    """An argparse type for a limit: `convert`, then refuse a value that is
    negative or NaN."""

    def limit(text: str):
        value = convert(text)
        if not value >= 0:  # false for NaN too
            raise argparse.ArgumentTypeError(f"expected a value >= 0, got {text!r}")
        return value

    return limit


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes the option groups its `cmd_*` reads, and only
    those."""

    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    io = group()
    io.add_argument("--expr", action="append", default=[], metavar="SEXP|@FILE")
    io.add_argument("exprs", nargs="*", metavar="SEXP")
    io.add_argument("--json", action="store_true")
    theories = group()
    theories.add_argument("--theory", action="append", default=[], metavar="PATH|@NAME")
    # what `_params` reads; --verbose also prints the report
    limits = group()
    count, ms = _at_least_0(int), _at_least_0(float)
    limits.add_argument("--timeout", type=count, default=None, metavar="ITERS")
    limits.add_argument("--timelimit-ms", type=ms, default=None)
    limits.add_argument("--matchlimit", type=count, default=None)
    limits.add_argument("--eclasslimit", type=count, default=None)
    limits.add_argument("--enodelimit", type=count, default=None)
    limits.add_argument("--scheduler", choices=["simple", "backoff"], default=None)
    limits.add_argument("--verbose", action="store_true")
    cost = group()
    cost.add_argument("--cost", choices=sorted(COST_FUNCTIONS), default="astsize")
    strategy = group()
    strategy.add_argument("--strategy", default=DEFAULT_STRATEGY)
    assumptions = group()
    assumptions.add_argument("--assume", nargs="*", default=None, metavar="SYM=SIGN")

    parser = _Parser(prog="eqsat", description="term rewriting and equality saturation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, groups in (
        ("simplify", [theories, limits, cost, assumptions]),
        ("prove", [theories, limits]),
        ("rewrite", [theories, strategy]),
        ("analyze", [assumptions]),
        ("optimize-stream", [limits]),
    ):
        sub.add_parser(name, parents=groups + [io])
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
    if args.scheduler == "simple":
        params.matchlimit = None
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


def _read_terms(args, n: int) -> list[Term]:
    """The command's `n` expressions, parsed."""
    texts = [
        Path(e[1:]).read_text().strip() if e.startswith("@") else e
        for e in args.expr + args.exprs
    ]
    if len(texts) != n:
        raise EqsatError(f"{args.command} expects {n} expression(s), got {len(texts)}")
    return [parse_term(t) for t in texts]


def _print_result(args, key: str, text: str, report: Report) -> None:
    """`text` on stdout, with the report under --json, or on stderr under
    --verbose."""
    if args.json:
        print(json.dumps({key: text, "report": report.to_json_dict()}, indent=2))
    else:
        print(text)
        if args.verbose:
            print(report.render(), file=sys.stderr)


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
    (term,) = _read_terms(args, 1)
    theory = _load_theories(args.theory)
    params = _params(args)
    g = EGraph()
    assumptions = _assumptions(args)
    if assumptions is not None:
        analyze(g, sign_analysis(assumptions))
    root = g.add_term(term)
    report = saturate(g, theory, params)
    best = extract(g, COST_FUNCTIONS[args.cost], root)
    _print_result(args, "term", print_term(best), report)
    return 2 if report.stop_reason.kind in LIMIT_STOPS else 0


def cmd_prove(args) -> int:
    t1, t2 = _read_terms(args, 2)
    theory = _load_theories(args.theory)
    equal, report = prove_equal(t1, t2, theory, _params(args))
    _print_result(args, "result", "equal" if equal else "unknown", report)
    return 0 if equal else 3


def cmd_rewrite(args) -> int:
    (term,) = _read_terms(args, 1)
    theory = _load_theories(args.theory)
    rewriters = []
    for r in theory.rules:
        if r.kind in (RuleKind.REWRITE, RuleKind.DYNAMIC):
            rewriters.append(rule_rewriter(r))
        else:
            warnings.warn(f"rule {r.name!r} ({r.kind.value}) skipped in classical mode")
    strategy = parse_strategy(args.strategy, {"all": rewriters})
    result = strategy(term)
    out = result if result is not None else term
    if args.json:
        print(json.dumps({"term": print_term(out)}, indent=2))
    else:
        print(print_term(out))
    return 0


def cmd_analyze(args) -> int:
    (term,) = _read_terms(args, 1)
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
    (term,) = _read_terms(args, 1)
    out, report = stream_optimize(term, _params(args))
    _print_result(args, "term", print_term(out), report)
    return 2 if report.stop_reason.kind in LIMIT_STOPS else 0


_COMMANDS = {
    "simplify": cmd_simplify,
    "prove": cmd_prove,
    "rewrite": cmd_rewrite,
    "analyze": cmd_analyze,
    "optimize-stream": cmd_optimize_stream,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "matchlimit", None) is not None and args.scheduler == "simple":
        parser.error("argument --matchlimit: not allowed with --scheduler simple")

    def warn(message, *_):
        print(f"warning: {message}", file=sys.stderr)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = warn
            return _COMMANDS[args.command](args)
    except (EqsatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
