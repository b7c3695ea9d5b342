"""Shared fixtures: the verification corpus, cached eigensolves, and the
recursive expression walk that compiled evaluation is checked against."""

import math

import numpy as np
import pytest

from nisio import build_generator, solve_evolution, solve_policy_iteration
from nisio import problems, to_source
from nisio.errors import EvalError, UnboundVariable
from nisio.expr import Bin, Call, Neg, Num, Var


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def corpus():
    """Name -> (spec, generator) for the six 1D verification problems."""
    out = {}
    for name, spec in problems.corpus_1d(64).items():
        out[name] = (spec, build_generator(spec))
    return out


@pytest.fixture(scope="session")
def corpus_pairs(corpus):
    """Evolution-method eigenpairs for the corpus (computed once)."""
    return {name: solve_evolution(gen) for name, (spec, gen) in corpus.items()}


@pytest.fixture(scope="session")
def corpus_policy_pairs(corpus):
    """Policy-iteration eigenpairs for the corpus (computed once)."""
    return {name: solve_policy_iteration(gen)
            for name, (spec, gen) in corpus.items()}


@pytest.fixture(scope="session")
def cosine_gen():
    return build_generator(problems.torus_cosine(64))


@pytest.fixture(scope="session")
def cosine_pair(cosine_gen):
    return solve_evolution(cosine_gen)


def random_irreducible(rng, n):
    """Random irreducible nonnegative matrix with positive diagonal.

    Sparse random entries plus a ring make the support strongly
    connected; the positive diagonal makes it primitive, so power
    iteration is guaranteed to converge.
    """
    q = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.5)
    for i in range(n):
        q[i, (i + 1) % n] += rng.uniform(0.1, 1.0)
        q[i, i] += rng.uniform(0.05, 0.5)
    return q


def _reference_evaluate(expr, bindings: dict):
    """The recursive-walk ``evaluate`` that compiled evaluation replaced."""
    with np.errstate(all="ignore"):
        result = _reference_eval(expr, bindings)
    if np.ndim(result) == 0:
        result = float(result)
        if not math.isfinite(result):
            raise EvalError(f"non-finite result from {to_source(expr)!r}")
        return result
    result = np.asarray(result, dtype=float)
    if not np.isfinite(result).all():
        raise EvalError(f"non-finite result from {to_source(expr)!r}")
    return result


def _reference_eval(node, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariable(
                f"variable {node.name!r} is not bound") from None
    if isinstance(node, Neg):
        return -_reference_eval(node.operand, env)
    if isinstance(node, Bin):
        left = _reference_eval(node.left, env)
        right = _reference_eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if np.any(right == 0):
                raise EvalError(f"division by zero at offset {node.offset}")
            return left / right
        if node.op == "^":
            return np.power(left, right)
        raise AssertionError(node.op)
    if isinstance(node, Call):
        args = [_reference_eval(a, env) for a in node.args]
        if node.func == "min":
            out = args[0]
            for a in args[1:]:
                out = np.minimum(out, a)
            return out
        if node.func == "max":
            out = args[0]
            for a in args[1:]:
                out = np.maximum(out, a)
            return out
        if node.func == "log":
            if np.any(np.asarray(args[0]) <= 0):
                raise EvalError(
                    f"log of non-positive value at offset {node.offset}")
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
                "abs": np.abs, "tanh": np.tanh}[node.func](args[0])
    raise AssertionError(type(node))


@pytest.fixture(scope="session")
def reference_evaluate():
    """``evaluate`` as the recursive tree walk it was before compilation."""
    return _reference_evaluate
