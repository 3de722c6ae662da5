"""Output checkers that share no code with the engine.

Each checker reads the engine's printed output with its own S-expression
reader and decides correctness by a computation of its own:

* arithmetic terms are evaluated exactly with `fractions.Fraction`, under
  seeded atom values that obey the engine's default sign assumptions;
* AC sums are compared by the multisets of their leaves;
* stream expressions are run by a small interpreter.

A checker returns None when the output is correct and a message otherwise.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

# Near-zero pruning replaces `(* c (cos t))` and `(* c (sin t))` by 0 when the
# literal c is at most this large (the bound written in near_zero_opt).
NEAR_ZERO = 1e-13
# Agreement asked of a near-zero result and its input with those products
# removed, relative to the larger magnitude (absolute below 1).
NEAR_ZERO_TOLERANCE = 1e-9


class CheckError(Exception):
    pass


# -- reading ------------------------------------------------------------------


def read(text: str):
    """Parse an S-expression into nested lists of str / int / Fraction."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def item():
        nonlocal pos
        if pos >= len(tokens):
            raise CheckError(f"unexpected end of {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise CheckError(f"unexpected ')' in {text!r}")
        if tok != "(":
            return _atom(tok)
        out = []
        while pos < len(tokens) and tokens[pos] != ")":
            out.append(item())
        if pos >= len(tokens):
            raise CheckError(f"unbalanced '(' in {text!r}")
        pos += 1
        return out

    expr = item()
    if pos != len(tokens):
        raise CheckError(f"trailing input in {text!r}")
    return expr


def _atom(tok: str):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        value = float(tok)
    except ValueError:
        return tok
    if not math.isfinite(value):
        raise CheckError(f"non-finite literal {tok}")
    return Fraction(value)


def size(expr) -> int:
    """Number of nodes: one per atom, literal and application head."""
    if isinstance(expr, list):
        return 1 + sum(size(a) for a in expr[1:])
    return 1


# -- arithmetic ---------------------------------------------------------------


def sign_environments(seed: int, atoms=("a", "b", "x", "y"), count: int = 3):
    """Seeded exact atom values; x is positive and y negative, as the
    engine's sign analysis assumes, the others are any nonzero value."""
    rng = random.Random(seed)
    envs = []
    for _ in range(count):
        env = {}
        for name in atoms:
            v = Fraction(rng.randint(1, 997), rng.randint(1, 97))
            if name == "y" or (name not in ("x", "y") and rng.random() < 0.5):
                v = -v
            env[name] = v
        envs.append(env)
    return envs


def evaluate(expr, env):
    if isinstance(expr, str):
        if expr not in env:
            raise CheckError(f"unbound atom {expr}")
        return env[expr]
    if not isinstance(expr, list):
        return Fraction(expr)
    op, args = expr[0], [evaluate(a, env) for a in expr[1:]]
    if op in ("cos", "sin") and len(args) == 1:
        return Fraction(getattr(math, op)(float(args[0])))
    if len(args) != 2:
        raise CheckError(f"cannot evaluate {op}/{len(args)}")
    a, b = args
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise CheckError("division by zero")
        return a / b
    raise CheckError(f"cannot evaluate operator {op}")


def check_exact(input_text: str, output_text: str, envs, expected_atom=None):
    """The output is no larger than the input, equals `expected_atom` when
    given, and has the input's exact value under every environment."""
    src, out = read(input_text), read(output_text)
    if size(out) > size(src):
        return f"{output_text} is larger than {input_text}"
    if expected_atom is not None and out != expected_atom:
        return f"{input_text} gave {output_text}, expected {expected_atom}"
    for env in envs:
        if evaluate(out, env) != evaluate(src, env):
            return f"{output_text} differs in value from {input_text} at {env}"
    return None


def drop_near_zero(expr):
    """The input with every near-zero trigonometric product replaced by 0."""
    if not isinstance(expr, list):
        return expr
    if (
        len(expr) == 3
        and expr[0] == "*"
        and isinstance(expr[1], (int, Fraction))
        and abs(expr[1]) <= Fraction(NEAR_ZERO)
        and isinstance(expr[2], list)
        and expr[2][0] in ("cos", "sin")
    ):
        return 0
    return [expr[0]] + [drop_near_zero(a) for a in expr[1:]]


def check_near_zero(input_text: str, output_text: str, envs):
    """The output is no larger than the input and matches the input with its
    near-zero products removed, within NEAR_ZERO_TOLERANCE."""
    src, out = read(input_text), read(output_text)
    if size(out) > size(src):
        return f"{output_text} is larger than {input_text}"
    reduced = drop_near_zero(src)
    for env in envs:
        want, got = evaluate(reduced, env), evaluate(out, env)
        if abs(got - want) > NEAR_ZERO_TOLERANCE * max(1, abs(want)):
            return f"{output_text} differs from pruned {input_text} at {env}"
    return None


# -- AC sums ------------------------------------------------------------------


def leaves(expr) -> Counter:
    if isinstance(expr, list):
        if expr[0] != "+":
            raise CheckError(f"not a sum: {expr}")
        out = Counter()
        for a in expr[1:]:
            out += leaves(a)
        return out
    return Counter([expr])


def check_ac_verdict(left_text: str, right_text: str, verdict: bool):
    """Two sums are equal under commutativity and associativity exactly
    when their leaf multisets are equal."""
    truth = leaves(read(left_text)) == leaves(read(right_text))
    if verdict != truth:
        return f"prove {left_text} = {right_text} said {verdict}, truth is {truth}"
    return None


# -- streams ------------------------------------------------------------------


class _Closure:
    def __init__(self, param, body, env):
        self.param, self.body, self.env = param, body, env

    def __call__(self, value):
        return run_stream(self.body, {**self.env, self.param: value})


def _compose(f, g):
    return lambda value: f(g(value))


def _callable(f):
    if not callable(f):
        raise CheckError(f"not a function: {f!r}")
    return f


def _stream(s):
    if not isinstance(s, list):
        raise CheckError(f"not a stream: {s!r}")
    return s


def _count(n):
    if isinstance(n, Fraction) and n.denominator == 1:
        n = int(n)
    if not isinstance(n, int) or n < 0:
        raise CheckError(f"not a length: {n!r}")
    return n


def run_stream(expr, env=None):
    """Value of a stream expression: numbers, lists for streams, and
    Python callables for functions. Indexing is 1-based."""
    env = env or {}
    if isinstance(expr, str):
        if expr not in env:
            raise CheckError(f"unbound atom {expr}")
        return env[expr]
    if not isinstance(expr, list):
        return expr
    op, args = expr[0], expr[1:]
    if op == "lambda" and len(args) == 2 and isinstance(args[0], str):
        return _Closure(args[0], args[1], env)
    vals = [run_stream(a, env) for a in args]
    if op in ("call", "apply") and len(vals) == 2:
        return _callable(vals[0])(vals[1])
    if op == "compose" and len(vals) == 2:
        return _compose(_callable(vals[0]), _callable(vals[1]))
    if op == "fill" and len(vals) == 2:
        return [vals[0]] * _count(vals[1])
    if op == "map" and len(vals) == 2:
        f = _callable(vals[0])
        return [f(v) for v in _stream(vals[1])]
    if op == "reverse" and len(vals) == 1:
        return _stream(vals[0])[::-1]
    if op == "cat" and len(vals) == 2:
        return _stream(vals[0]) + _stream(vals[1])
    if op == "getindex" and len(vals) == 2:
        s, i = _stream(vals[0]), _count(vals[1])
        if not 1 <= i <= len(s):
            raise CheckError(f"index {i} out of range 1..{len(s)}")
        return s[i - 1]
    if op == "sum" and len(vals) == 1:
        return sum(_stream(vals[0]))
    if op == "length" and len(vals) == 1:
        return len(_stream(vals[0]))
    if op in ("+", "-", "*") and len(vals) == 2:
        return evaluate([op, *vals], {})
    raise CheckError(f"cannot run {op}/{len(vals)}")


def check_stream(input_text: str, output_text: str):
    """The output is no larger than the input and has the same value."""
    src, out = read(input_text), read(output_text)
    if size(out) > size(src):
        return f"{output_text} is larger than {input_text}"
    want, got = run_stream(src), run_stream(out)
    if got != want:
        return f"{output_text} gives {got}, {input_text} gives {want}"
    return None
