"""E-class analyses (make/join), the sign analysis, and cost-based term
extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .egraph import EGraph, ENode, MISSING, OpNode
from .errors import AnalysisDiverged, Unextractable
from .terms import Atom, Compound, Lit, Term


@dataclass(frozen=True)
class Analysis:
    """Join-semilattice analysis: make computes a value per e-node, join
    combines class values on merge. An analysis never changes the graph;
    constant folding is the job of `=>` rules."""

    name: str
    make: Callable[[EGraph, ENode], object]  # may return MISSING
    join: Callable[[object, object], object]


def analyze(g: EGraph, analysis: Analysis) -> None:
    """Register an analysis on the graph and compute it for every class.

    Any old value under its name is dropped first. Every node is queued for
    `make` and the graph is rebuilt; from then on the graph keeps the
    analysis up to date as it grows. If it does not settle, the analysis is
    unregistered, its values are dropped and `AnalysisDiverged` is raised.
    """
    g.analyses[analysis.name] = analysis
    for cid, cls in g.classes.items():
        cls.data.pop(analysis.name, None)
        g.analysis_worklist.extend((n, cid) for n in cls.nodes)
    try:
        g.rebuild()
    except AnalysisDiverged:
        del g.analyses[analysis.name]
        for cls in g.classes.values():
            cls.data.pop(analysis.name, None)
        g.rebuild()  # the other analyses' queued nodes
        raise


# ---------------------------------------------------------------------------
# Sign analysis
#
# Domain: None (unknown), 0, 1, -1, +-inf, nan. Atoms get their sign from a
# configurable assumption table.

DEFAULT_ASSUMPTIONS: dict[str, float] = {"x": 1, "y": -1, "z": 0, "k": math.inf}

SIGN_ANALYSIS_NAME = "sign"


def _sign(v: float) -> float:
    if isinstance(v, float) and math.isnan(v):
        return math.nan
    return 1 if v > 0 else (-1 if v < 0 else 0)


def _sign_div(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if b == 0:
        return math.nan if a == 0 else (math.inf if a > 0 else -math.inf)
    return a / b


def sign_join(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return a
    return a if a == b else None


def sign_analysis(assumptions: Optional[dict[str, float]] = None) -> Analysis:
    table = dict(DEFAULT_ASSUMPTIONS if assumptions is None else assumptions)

    def make(g: EGraph, n: ENode):
        if type(n) is Atom:
            return table.get(n.name)
        if type(n) is Lit:
            v = n.value
            if v == math.inf:
                return math.inf
            if v == -math.inf:
                return -math.inf
            return _sign(float(v))
        if n.op in ("*", "/", "+", "-") and len(n.children) == 2:
            l = g.getdata(n.children[0], SIGN_ANALYSIS_NAME, MISSING)
            r = g.getdata(n.children[1], SIGN_ANALYSIS_NAME, MISSING)
            if l is MISSING or r is MISSING:
                return MISSING
            if l is None or r is None:
                return None
            if n.op == "*":
                return l * r
            if n.op == "/":
                return _sign_div(l, r)
            s = l + r if n.op == "+" else l - r
            if s == 0:
                return None  # zero-ambiguous: could be any value of that sign sum
            if math.isinf(s) or math.isnan(s):
                return s
            return _sign(s)
        return None

    return Analysis(SIGN_ANALYSIS_NAME, make, sign_join)


def class_sign(g: EGraph, cid: int):
    """Sign value of an e-class. The first call registers the sign analysis
    with the default assumptions unless one is registered already."""
    if SIGN_ANALYSIS_NAME not in g.analyses:
        analyze(g, sign_analysis())
    return g.getdata(cid, SIGN_ANALYSIS_NAME, None)


def format_sign(v) -> str:
    if v is None:
        return "unknown"
    if isinstance(v, float) and math.isnan(v):
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    return f"+{int(v)}" if v > 0 else str(int(v))


# ---------------------------------------------------------------------------
# Cost functions and extraction

CostFunction = Callable[[ENode, Sequence[float]], float]


def astsize(node: ENode, child_costs: Sequence[float]) -> float:
    return 1 + sum(child_costs)


_BIG = float(2**40)


def astsize_inv(node: ENode, child_costs: Sequence[float]) -> float:
    # Prefers the largest term while keeping costs positive: a node of size s
    # gets cost _BIG - s, compositionally via its children's costs.
    return _BIG - 1 - sum(_BIG - c for c in child_costs)


def mult_penalty(node: ENode, child_costs: Sequence[float]) -> float:
    if type(node) is not OpNode:
        return 1
    cost = 1 + len(node.children) + sum(child_costs)
    if node.op == "*":
        cost += 2
    return cost


COST_FUNCTIONS: dict[str, CostFunction] = {
    "astsize": astsize,
    "astsize_inv": astsize_inv,
    "mult_penalty": mult_penalty,
}


def _node_cost(cf: CostFunction, n: ENode, costs: dict[int, float]) -> float:
    if type(n) is not OpNode:
        return cf(n, ())
    # the graph is rebuilt, so every child id is canonical
    return cf(n, [costs.get(c, math.inf) for c in n.children])


def extract(g: EGraph, cf: CostFunction, root: int) -> Term:
    """Extract the minimum-cost term represented by root's e-class.

    Runs the extraction analysis to fixpoint, on the graph rebuilt first if
    it has pending merges or analysis updates; at equal cost the node seen
    last in class insertion order wins.
    """
    if g.pending or g.analysis_worklist:
        g.rebuild()
    costs: dict[int, float] = {}
    best: dict[int, ENode] = {}
    limit = 10 * max(1, g.n_eclasses)
    for _ in range(limit):
        changed = False
        for cid in g.canonical_ids():
            best_cost = math.inf
            best_node = None
            for n in g.class_nodes(cid):
                c = _node_cost(cf, n, costs)
                if c <= best_cost and not math.isinf(c):
                    best_cost, best_node = c, n
            if best_node is None:
                continue
            if cid not in costs or costs[cid] != best_cost or best.get(cid) != best_node:
                if cid not in costs or costs[cid] != best_cost:
                    changed = True
                costs[cid] = best_cost
                best[cid] = best_node
        if not changed:
            break
    else:
        raise AnalysisDiverged(f"extraction did not stabilize in {limit} passes")

    root = g.find(root)
    if root not in costs:
        raise Unextractable(f"no finite-cost term reachable from class c{root}")

    # built iteratively, so that term depth is not bounded by the recursion limit
    built: list[Term] = []  # terms of the classes built, until their parent is
    path: set[int] = set()  # the classes from the root down to the one built
    # a stack of classes; a class's (id, best node) sits below its children
    todo: list = [root]
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            cid, n = x
            path.remove(cid)
            k = len(n.children)
            args = tuple(built[len(built) - k :])
            del built[len(built) - k :]
            built.append(Compound(n.op, args))
            continue
        cid = x  # the root and every child id are canonical
        if cid in path:
            raise Unextractable(f"cyclic best-node chain through class c{cid}")
        n = best[cid]
        if type(n) is not OpNode:  # a leaf, a term as it is
            built.append(n)
            continue
        path.add(cid)
        todo.append((cid, n))
        todo += reversed(n.children)
    return built[0]
