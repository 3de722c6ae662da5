"""Bundled theories and the end-to-end stream fusion optimizer."""

from __future__ import annotations

import functools
from importlib import resources
from typing import Optional

from ..analysis import astsize, extract
from ..classical import Chain, Fixpoint, Postwalk, Rewriter, rule_rewriter
from ..egraph import EGraph
from ..errors import UnknownTheory
from ..rules import RuleKind, Theory, parse_theory
from ..saturation import (
    CompiledTheory,
    Report,
    SaturationParams,
    compile_theory,
    saturate,
)
from ..terms import CALL_OP, LAMBDA_OP, Atom, Compound, Term, fold_tree, inline_anonymous

BUNDLED = (
    "comm_monoid",
    "comm_group",
    "folder",
    "div_sim",
    "stream",
    "normalize",
    "fold",
    "near_zero_opt",
)


def bundled_source(name: str) -> str:
    if name not in BUNDLED:
        raise UnknownTheory(f"no bundled theory named {name!r}")
    return (
        resources.files(__package__).joinpath("data", f"{name}.theory").read_text()
    )


def load_bundled(name: str) -> Theory:
    return parse_theory(bundled_source(name), name=name)


def stream_optimize(
    t: Term, params: Optional[SaturationParams] = None
) -> tuple[Term, Report]:
    """Saturate with the stream theory, extract by astsize, then clean up the
    result classically (lambda inlining, helper lowering, constant folding)."""
    stream, cleanup = _stream_pipeline()
    g = EGraph()
    root = g.add_term(t)
    report = saturate(g, stream, params)
    best = extract(g, astsize, root)
    out = cleanup(best)
    if out is None or _astsize(out) > _astsize(best):
        # helper lowering (fand -> lambda) can bloat a term whose functions
        # stay opaque; keep the extracted form unless cleanup paid off
        return best, report
    return out, report


@functools.cache
def _stream_pipeline() -> tuple[CompiledTheory, Rewriter]:
    """The compiled stream theory and the classical cleanup rewriter, built
    on the first call (not at import) and reused by every later one.
    Neither is handed out, and neither keeps state between calls: `saturate`
    only reads a compiled theory, each run keeping its own backoff states
    and rule statistics, and the rewriter combinators hold only their
    rules."""
    stream = compile_theory(load_bundled("stream"))
    classical_rules = [
        rule_rewriter(r)
        for th in (load_bundled("normalize"), load_bundled("fold"))
        for r in th.rules
        if r.kind in (RuleKind.REWRITE, RuleKind.DYNAMIC)
    ]
    cleanup = Chain([inline_anonymous, lower_fand] + classical_rules)
    return stream, Fixpoint(Postwalk(cleanup))


def lower_fand(t: Term) -> Optional[Term]:
    """`(fand f g)` as `(lambda v (and (call f v) (call g v)))`, or None for
    any other term. The binder `v` is `x`, or else the first of `x1`, `x2`,
    ... that is not an atom of `f` or `g`, so that it captures none of their
    free atoms."""
    if not (isinstance(t, Compound) and t.op == "fand" and len(t.args) == 2):
        return None
    f, g = t.args
    leaves: set[Term] = set()
    for fn in t.args:
        fold_tree(fn, Compound, leaves.add, lambda x, _: None)
    v, i = Atom("x"), 0
    while v in leaves:
        i += 1
        v = Atom(f"x{i}")
    calls = (Compound(CALL_OP, (f, v)), Compound(CALL_OP, (g, v)))
    return Compound(LAMBDA_OP, (v, Compound("and", calls)))


def _astsize(t: Term) -> int:
    return fold_tree(t, Compound, lambda x: 1, lambda x, sizes: 1 + sum(sizes))
