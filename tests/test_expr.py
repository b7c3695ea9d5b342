"""Expression parsing, evaluation and round-trip printing."""

import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nisio import parse, evaluate, to_source
from nisio.errors import (
    EvalError,
    ExprSyntaxError,
    UnboundVariable,
    UnknownIdentifier,
)
from nisio.expr import Bin, Call, Neg, Num, Var


def ev(src, **bindings):
    return evaluate(parse(src), bindings)


def test_basic_arithmetic():
    assert ev("2*x1+1", x1=3.0) == 7.0
    assert ev("cos(2*pi*x1)", x1=0.5) == -1.0
    assert ev("x1^2", x1=-2.0) == 4.0
    assert ev("min(x1,v1)", x1=2.0, v1=1.0) == 1.0
    assert ev("max(1, 2, 3)") == 3.0
    assert ev("tanh(0)") == 0.0
    assert ev("abs(-3.5)") == 3.5
    assert ev("e") == math.e


def test_precedence_and_associativity():
    assert ev("2^3^2") == 512.0          # right-associative
    assert ev("-2^2") == -4.0            # ^ binds tighter than unary minus
    assert ev("2^-3") == 0.125
    assert ev("-x1^2", x1=3.0) == -9.0
    assert ev("2*-3") == -6.0
    assert ev("1-2-3") == -4.0           # left-associative
    assert ev("2+3*4") == 14.0
    assert ev("(2+3)*4") == 20.0
    assert ev("6/3/2") == 1.0


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2*+x1")
    assert err.value.offset == 2
    for bad in ["", "(", "1+", "sin()", "1 2", "min(1)", ")", "@", '2**3']:
        with pytest.raises(ExprSyntaxError):
            parse(bad)


def test_unknown_function():
    with pytest.raises(UnknownIdentifier):
        parse("sqrt(x1)")


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        ev("x1 + v1", x1=1.0)


def test_domain_errors():
    with pytest.raises(EvalError):
        ev("log(x1)", x1=0.0)
    with pytest.raises(EvalError):
        ev("log(x1)", x1=-1.0)
    with pytest.raises(EvalError):
        ev("1/x1", x1=0.0)
    with pytest.raises(EvalError):
        ev("exp(x1)", x1=1000.0)       # overflow is an error, not inf
    with pytest.raises(EvalError):
        ev("(-1)^0.5")                  # nan


def test_variables_and_constants():
    e = parse("x1*v2 + sin(x2) - pi")
    assert e.variables() == {"x1", "v2", "x2"}
    assert parse("pi").variables() == set()


def test_array_evaluation_matches_scalar():
    e = parse("cos(2*pi*x1) + 0.05*v1^2 - min(x1, v1)")
    xs = np.linspace(0.0, 1.0, 17)
    vs = np.linspace(-1.0, 1.0, 17)
    vec = evaluate(e, {"x1": xs, "v1": vs})
    scal = np.array([evaluate(e, {"x1": float(x), "v1": float(v)})
                     for x, v in zip(xs, vs)])
    assert np.array_equal(vec, scal)


def test_evaluation_deterministic():
    e = parse("sin(x1)*exp(x1/3) - x1^3")
    a = evaluate(e, {"x1": 0.7342})
    b = evaluate(e, {"x1": 0.7342})
    assert a == b


# ---------------------------------------------------------------------------
# property: print-then-parse round trip, 1000 random trees of depth <= 6
# ---------------------------------------------------------------------------

_FUNCS1 = ["sin", "cos", "exp", "log", "abs", "tanh"]
_VARS = ["x1", "x2", "v1"]


def random_tree(r: random.Random, depth: int):
    if depth == 0 or r.random() < 0.25:
        if r.random() < 0.5:
            return Num(round(r.uniform(-2, 4), 3) if r.random() < 0.9
                       else float(r.randint(0, 5)))
        return Var(r.choice(_VARS))
    kind = r.random()
    if kind < 0.55:
        op = r.choice(["+", "-", "*", "/", "^"])
        return Bin(op, random_tree(r, depth - 1), random_tree(r, depth - 1))
    if kind < 0.7:
        return Neg(random_tree(r, depth - 1))
    if kind < 0.9:
        return Call(r.choice(_FUNCS1), (random_tree(r, depth - 1),))
    return Call(r.choice(["min", "max"]),
                (random_tree(r, depth - 1), random_tree(r, depth - 1)))


def test_roundtrip_property():
    r = random.Random(12345)
    checked = 0
    for _ in range(1000):
        tree = random_tree(r, r.randint(1, 6))
        printed = to_source(tree)
        reparsed = parse(printed)
        bindings = {v: r.uniform(-2.0, 2.0) for v in _VARS}
        try:
            expected = evaluate(tree, bindings)
        except EvalError:
            # domain errors must reproduce identically through the round trip
            with pytest.raises(EvalError):
                evaluate(reparsed, bindings)
            continue
        got = evaluate(reparsed, bindings)
        assert got == expected, (printed, got, expected)   # 0 ulp
        checked += 1
    assert checked > 500


def test_fuzz_mutations_never_crash():
    r = random.Random(999)
    valid = [
        "2*x1+1", "cos(2*pi*x1)", "min(x1,v1) - max(x1, 2)",
        "-x1^2 + exp(x1/3)", "(x1+1)*(v1-2)/4", "tanh(abs(x1))^2",
    ]
    alphabet = "0123456789.+-*/^(),xv abc$#"
    for _ in range(400):
        s = list(r.choice(valid))
        for _ in range(r.randint(1, 3)):
            kind = r.randint(0, 2)
            pos = r.randrange(len(s) + 1)
            if kind == 0:
                s.insert(pos, r.choice(alphabet))
            elif kind == 1 and s:
                del s[min(pos, len(s) - 1)]
            elif s:
                s[min(pos, len(s) - 1)] = r.choice(alphabet)
        mutated = "".join(s)
        try:
            tree = parse(mutated)
            evaluate(tree, {"x1": 0.5, "x2": 0.25, "v1": 1.0,
                            "xv": 1.0, "x": 1.0, "v": 1.0})
        except (ExprSyntaxError, UnknownIdentifier, UnboundVariable, EvalError):
            pass      # rejected cleanly, never a crash


def test_negative_literal_roundtrip():
    tree = Bin("^", Num(3.0), Num(-2.0))
    assert evaluate(parse(to_source(tree)), {}) == evaluate(tree, {})


# ---------------------------------------------------------------------------
# evaluate against the reference tree walk in conftest
# ---------------------------------------------------------------------------

def _outcome(fn, tree, bindings):
    """Result bytes (with type and shape), or the error's type and text."""
    try:
        value = fn(tree, bindings)
    except (EvalError, UnboundVariable) as err:
        return type(err), str(err)
    return type(value), np.shape(value), np.asarray(value).tobytes()


_FAILURES = ("division by zero", "log of non-positive value",
             "non-finite result", "variable")


def test_compiled_evaluation_matches_tree_walk(reference_evaluate):
    r = random.Random(2718)
    seen = Counter()
    for _ in range(1000):
        tree = random_tree(r, r.randint(1, 6))
        names = _VARS if r.random() < 0.9 else _VARS[:2]      # v1 unbound
        scalar = {v: r.choice([0.0, -1.0, r.uniform(-2.0, 2.0)]) for v in names}
        array = {v: np.array([r.uniform(-2.0, 2.0) for _ in range(5)]
                             + [r.choice([0.0, -0.0, -1.0])]) for v in names}
        for bindings in (scalar, array):
            expected = _outcome(reference_evaluate, tree, bindings)
            assert _outcome(evaluate, tree, bindings) == expected, to_source(tree)
            assert _outcome(evaluate, tree, bindings) == expected   # again
            if isinstance(expected[1], str):           # an error's text
                seen[next(f for f in _FAILURES if expected[1].startswith(f))] += 1
            else:
                seen["ok"] += 1
    assert set(seen) == {"ok", *_FAILURES} and seen["ok"] > 1000


def test_compiled_evaluation_errors_match_tree_walk(reference_evaluate):
    cases = [("1/(x1 - x1)", {"x1": 0.5}), ("x1/0", {"x1": np.ones(3)}),
             ("log(x1) + y", {"x1": 0.0}), ("y + log(x1)", {"x1": 0.0}),
             ("log(x1 - 1)", {"x1": np.array([2.0, 1.0])}),
             ("exp(x1)", {"x1": 1000.0}), ("(-1)^0.5", {}),
             ("min(x1, y, 1/0)", {"x1": 1.0}), ("1/0", {})]
    for src, bindings in cases:
        tree = parse(src)
        expected = _outcome(reference_evaluate, tree, bindings)
        assert expected[0] in (EvalError, UnboundVariable)
        assert _outcome(evaluate, tree, bindings) == expected, src


def test_compiled_evaluation_is_thread_safe(reference_evaluate):
    sources = ["cos(2*pi*(x1 - 0.3)) + 0.05*v1^2 + 0.5",
               "v1*(0.5 + 0.25*cos(2*pi*x1))", "max(x1, v1, tanh(x1*v1))/3"]
    env = {"x1": np.linspace(0.0, 1.0, 257), "v1": np.linspace(-1, 1, 257)}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(50):
            for src in sources:
                tree = parse(src)              # fresh: both threads walk it at once
                a, b = pool.map(lambda t: evaluate(t, env).tobytes(), [tree, tree])
                assert a == b == reference_evaluate(tree, env).tobytes()


# ---------------------------------------------------------------------------
# the depth bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src, offset", [
    ("+".join(["x1"] * 1200), 599),                  # the 200th '+'
    ("(" * 400 + "x1" + ")" * 400, 200),
    ("-" * 1000 + "x1", 200),
    ("^".join(["x1"] * 300), 600),                   # the 201st exponent
    ("sin(" * 300 + "x1" + ")" * 300, 800)],
    ids=["sum", "parentheses", "unary-minus", "power", "calls"])
def test_expression_past_the_depth_bound_is_rejected_at_its_offset(src, offset):
    with pytest.raises(ExprSyntaxError, match="more than 200 levels") as err:
        parse(src)
    assert err.value.offset == offset


@pytest.mark.parametrize("src", [
    "+".join(["x1"] * 200),
    "(" * 199 + "x1" + ")" * 199,
    "-" * 199 + "x1",
    "^".join(["x1"] * 200),
    "sin(" * 199 + "x1" + ")" * 199,
    "1-(" * 99 + "x1" + ")" * 99],
    ids=["sum", "parentheses", "unary-minus", "power", "calls", "right-nested"])
def test_expression_at_the_depth_bound_parses_evaluates_and_prints(
        src, reference_evaluate):
    tree = parse(src)
    x1 = np.linspace(0.5, 1.0, 3)
    assert evaluate(tree, {"x1": x1}).tobytes() == \
        reference_evaluate(tree, {"x1": x1}).tobytes()
    assert to_source(parse(to_source(tree))) == to_source(tree)
