"""Term rewriting with classical combinators and e-graph equality saturation."""

from .terms import (
    Atom,
    Compound,
    Lit,
    Term,
    eval_builtin,
    inline_anonymous,
    parse_term,
    print_term,
)
from .rules import (
    PatSegment,
    PatTerm,
    PatVar,
    PredicateRef,
    Rule,
    RuleKind,
    Theory,
    parse_rule,
    parse_theory,
)
from .classical import (
    Chain,
    Fixpoint,
    PassThrough,
    Postwalk,
    Prewalk,
    apply_rule,
    compile_matcher,
    instantiate,
    rule_rewriter,
)
from .egraph import EGraph, OpNode
from .machine import compile_pattern, ematch, run_program
from .analysis import (
    Analysis,
    COST_FUNCTIONS,
    analyze,
    astsize,
    astsize_inv,
    extract,
    mult_penalty,
    sign_analysis,
)
from .saturation import (
    AreEqual,
    BackoffScheduler,
    Report,
    SaturationParams,
    StopReason,
    compile_theory,
    eqsat_step,
    prove_equal,
    saturate,
)
from .theories import load_bundled, stream_optimize

__version__ = "0.1.0"
