"""The three seeded workloads: their theories, inputs, solver and checks.

Every batch is stratified: the strata (term shapes, leaf compositions and
bracketings, pipeline templates) and their counts are fixed, and the seed
fills in atoms and constants. Different seeds therefore give different
inputs but the same engine work, to within a few hundredths of a percent,
which keeps the spread between runs with different seeds small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checkers
import eqsat
from eqsat import analysis, saturation, terms, theories


@dataclass
class Problem:
    inputs: tuple  # parsed eqsat terms
    texts: tuple  # the same inputs as text, for the checkers
    kind: str
    expected: object = None  # the atom a headline-family term must become


# -- simplify-arith -----------------------------------------------------------

HEADLINE = "(/ (* a (* 2 3)) 6)"
# Re-associations and commutations of the headline; {d} = {c1} * {c2}.
HEADLINE_SHAPES = (
    "(/ (* {v} (* {c1} {c2})) {d})",
    "(/ (* (* {v} {c1}) {c2}) {d})",
    "(/ (* (* {c1} {c2}) {v}) {d})",
    "(/ (* {c1} (* {v} {c2})) {d})",
    "(/ (* (* {c2} {v}) {c1}) {d})",
    "(/ (* {c2} (* {c1} {v})) {d})",
)
# Distinct primes, so that no constant equals another or their product and
# every choice builds an e-graph of the same shape.
PRIME_PAIRS = ((2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (5, 7))
# Near-zero terms small enough (about half a second each) that none
# dominates the batch; larger ones run for many seconds.
NEAR_ZERO_SHAPES = (
    "(+ {v} (* {eps} ({trig} {w})))",
    "(+ (* {k} {v}) (* {eps} ({trig} {w})))",
)
ATOMS = ("a", "b", "x", "y")


def _simplify_arith_items(rng: random.Random):
    out = [("headline", (HEADLINE,), "a")]
    for shape in HEADLINE_SHAPES:
        c1, c2 = rng.choice(PRIME_PAIRS)
        if rng.random() < 0.5:
            c1, c2 = c2, c1
        v = rng.choice(ATOMS)
        out.append(("headline", (shape.format(v=v, c1=c1, c2=c2, d=c1 * c2),), v))
    for shape in NEAR_ZERO_SHAPES:
        v, w = rng.sample(ATOMS, 2)
        text = shape.format(
            v=v,
            w=w,
            k=rng.randint(2, 9),
            eps=rng.choice(("1e-20", "1e-18", "1e-16", "1e-15")),
            trig=rng.choice(("cos", "sin")),
        )
        out.append(("near-zero", (text,), None))
    return out


# -- prove-ac -----------------------------------------------------------------

# Leaf-count compositions over the three atoms; each is used equally often.
COMPOSITIONS = {
    3: ((3,), (2, 1), (1, 1, 1)),
    4: ((4,), (3, 1), (2, 2), (2, 1, 1)),
    5: ((5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1)),
    6: ((6,), (5, 1), (4, 2), (3, 3), (4, 1, 1), (3, 2, 1), (2, 2, 2)),
}
AC_ATOMS = ("a", "b", "c")
# Pair kinds: one in three is equal by construction. An unequal pair turns
# one leaf of the most frequent atom into the second atom, or has one leaf
# more than the left sum (one less, for six leaves). The sizes of the two
# kinds interleave, so that pairs near the median are close in cost.
AC_KINDS = ("equal", "unequal-changed", "unequal-resized")
AC_REPEATS = 4
AC_THEORY = "@vars a b c\n(+ a b) == (+ b a)\n(+ a (+ b c)) == (+ (+ a b) c)\n"
# The leaf orders and bracketings of each stratum are drawn once, from this
# fixed seed: they move a pair's work by up to half, enough to move the
# batch's median from one stratum to another. --seed renames the atoms.
AC_SHAPE_SEED = "prove-ac-shapes"


def _bracket(leaves, rng: random.Random) -> str:
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randint(1, len(leaves) - 1)
    return f"(+ {_bracket(leaves[:k], rng)} {_bracket(leaves[k:], rng)})"


def _prove_ac_items(rng: random.Random):
    shapes = random.Random(AC_SHAPE_SEED)
    out = []
    for _ in range(AC_REPEATS):
        for comps in COMPOSITIONS.values():
            for comp in comps:
                for kind in AC_KINDS:
                    # slot i occurs comp[i] times in the left sum
                    left = [i for i, k in enumerate(comp) for _ in range(k)]
                    right = list(left)
                    if kind == "unequal-changed":
                        right[0] = 1
                    elif kind == "unequal-resized":
                        right = right[1:] if len(right) == 6 else right + [2]
                    shapes.shuffle(left)
                    shapes.shuffle(right)
                    names = rng.sample(AC_ATOMS, 3)
                    texts = tuple(
                        _bracket([names[i] for i in leaves], shapes)
                        for leaves in (left, right)
                    )
                    out.append((kind.split("-")[0], texts, None))
    return out


# -- stream-fuse --------------------------------------------------------------

# Pipelines over fill / map / reverse / cat. F and G are distinct lambdas, X
# and Y distinct fill values, N and M distinct lengths (equal ones would make
# two fills one e-class and change the shape of the work). Literal ranges are
# disjoint (index 1-9, lengths 11-19, fill values 21-49, lambda constants
# 51-99), so that no two roles share an e-class by accident.
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
STREAM_REPEATS = 6


def _lambda(rng: random.Random) -> str:
    return f"(lambda x ({rng.choice('+*-')} {rng.randint(51, 99)} x))"


def _stream_fuse_items(rng: random.Random):
    out = []
    for _ in range(STREAM_REPEATS):
        for template in STREAM_TEMPLATES:
            for top in STREAM_TOPS:
                f = _lambda(rng)
                g = _lambda(rng)
                while g == f:
                    g = _lambda(rng)
                x, y = rng.sample(range(21, 50), 2)
                n, m = rng.sample(range(11, 20), 2)
                s = template.format(F=f, G=g, X=x, Y=y, N=n, M=m)
                out.append(("stream", (top.format(S=s, I=rng.randint(1, 9)),), None))
    return out


# -- workloads ----------------------------------------------------------------


class Workload:
    """`setup` loads the theories and parses the inputs and is timed as
    set-up; `solve` runs one problem through the public API and returns its
    output as text with the saturation reports it produced."""

    name: str
    round_s: float  # calibrated seconds of one round, to size a run

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.items = self.generate(rng)

    def setup(self) -> None:
        self.load_theories()
        self.problems = [
            Problem(tuple(terms.parse_term(t) for t in texts), texts, kind, expected)
            for kind, texts, expected in self.items
        ]

    def check(self, p: Problem, output: str):
        """None when `output` is correct for `p`, else a message."""
        try:
            return self.check_one(p, output)
        except checkers.CheckError as exc:
            return f"{p.texts}: {exc}"

    @staticmethod
    def output_size(outputs) -> int:
        return sum(checkers.size(checkers.read(o)) for o in outputs)


class SimplifyArith(Workload):
    name = "simplify-arith"
    round_s = 4.9

    generate = staticmethod(_simplify_arith_items)

    def load_theories(self):
        four = [
            theories.load_bundled(n)
            for n in ("comm_monoid", "comm_group", "folder", "div_sim")
        ]
        self.headline_theory = four[0] + four[1] + four[2] + four[3]
        self.near_zero_theory = theories.load_bundled("near_zero_opt")

    def solve(self, p: Problem):
        theory = self.headline_theory if p.kind == "headline" else self.near_zero_theory
        g = eqsat.EGraph()
        root = g.add_term(p.inputs[0])
        report = saturation.saturate(g, theory, saturation.SaturationParams())
        best = analysis.extract(g, analysis.astsize, root)
        return terms.print_term(best), [report]

    def check_one(self, p, output):
        envs = checkers.sign_environments(self.seed)
        if p.kind == "headline":
            return checkers.check_exact(p.texts[0], output, envs, p.expected)
        return checkers.check_near_zero(p.texts[0], output, envs)


class ProveAC(Workload):
    name = "prove-ac"
    round_s = 3.3

    generate = staticmethod(_prove_ac_items)

    def load_theories(self):
        self.theory = eqsat.rules.parse_theory(AC_THEORY, name="ac")

    def solve(self, p: Problem):
        equal, report = saturation.prove_equal(p.inputs[0], p.inputs[1], self.theory)
        return ("equal" if equal else "unequal"), [report]

    def check_one(self, p, output):
        return checkers.check_ac_verdict(p.texts[0], p.texts[1], output == "equal")


class StreamFuse(Workload):
    name = "stream-fuse"
    round_s = 1.9

    generate = staticmethod(_stream_fuse_items)

    def load_theories(self):
        # The bundled theories that stream_optimize itself loads.
        self.theories = [
            theories.load_bundled(n) for n in ("stream", "normalize", "fold")
        ]

    def solve(self, p: Problem):
        out, report = theories.stream_optimize(p.inputs[0])
        return terms.print_term(out), [report]

    def check_one(self, p, output):
        return checkers.check_stream(p.texts[0], output)


WORKLOADS = {w.name: w for w in (SimplifyArith, ProveAC, StreamFuse)}
