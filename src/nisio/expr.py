"""Arithmetic expressions for coefficient functions.

Problem coefficients (drift, diffusion, running cost) are given in config
files as small arithmetic expressions over the space variables ``x1..xd``
and control components ``v1..vm``.  This module parses such expressions
into an immutable syntax tree and evaluates a tree by walking it in
post-order.  Evaluation works on scalar or numpy array bindings, so the
same expression serves both table construction on a grid and vectorized
evaluation along simulated paths.

Grammar (precedence low to high, ``^`` is right-associative)::

    expr    :=  term (('+'|'-') term)*
    term    :=  factor (('*'|'/') factor)*
    factor  :=  '-' factor | power
    power   :=  atom ('^' factor)?
    atom    :=  number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: sin cos exp log abs tanh (one argument), min max (two or
more).  Known constants: pi, e.  Any other bare name is a free variable
to be supplied at evaluation time.  Unary minus binds tighter than ``*``
and ``/`` but looser than ``^``, so ``-x1^2`` means ``-(x1^2)``.

A tree may be at most ``MAX_DEPTH`` nodes deep, and the source may nest
parentheses, function arguments, unary minuses and exponents at most
``MAX_DEPTH`` levels deep; :func:`parse` rejects deeper input with an
:class:`ExprSyntaxError` at the offset where the bound is crossed, so
that the recursive parser, walk and printer stay far from Python's
recursion limit.  ``ProblemSpec`` holds a tree built by hand to the same
depth bound.

Trees are immutable and safe to evaluate concurrently.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ExprSyntaxError, UnboundVariable, UnknownIdentifier

__all__ = ["Expr", "parse", "evaluate", "to_source"]

#: bound on the depth of a tree and on the nesting of its source
MAX_DEPTH = 200

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "tanh": np.tanh,
    # variadic: folded from the left over two or more arguments
    "min": np.minimum,
    "max": np.maximum,
}

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": np.power}

_CONSTANTS = {"pi": math.pi, "e": math.e}

# precedence table used by both the parser and the printer
_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 25
_PREC_POW = 30
_PREC_ATOM = 100


class Expr:
    """Base class of expression nodes.  Instances are immutable."""

    __slots__ = ()

    def variables(self) -> set[str]:
        """Free variable names of the expression."""
        return {node.name for node, _ in _walk(self) if isinstance(node, Var)}

    def __call__(self, **bindings):
        return evaluate(self, bindings)

    def __repr__(self):
        return f"{type(self).__name__}({to_source(self)!r})"


@dataclass(frozen=True, repr=False, slots=True)
class Num(Expr):
    value: float
    offset: int = 0



@dataclass(frozen=True, repr=False, slots=True)
class Var(Expr):
    name: str
    offset: int = 0



@dataclass(frozen=True, repr=False, slots=True)
class Neg(Expr):
    operand: Expr
    offset: int = 0



@dataclass(frozen=True, repr=False, slots=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr
    offset: int = 0



@dataclass(frozen=True, repr=False, slots=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]
    offset: int = 0



def _walk(expr: Expr):
    """Every ``(node, depth)`` of ``expr``, the root at depth 1.  The walk
    keeps its own stack, so a tree of any depth, one built by hand past
    ``MAX_DEPTH`` included, is walked without recursion."""
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, Neg):
            children = (node.operand,)
        elif isinstance(node, Bin):
            children = (node.left, node.right)
        elif isinstance(node, Call):
            children = node.args
        else:
            children = ()
        stack += [(child, depth + 1) for child in children]


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip over pure whitespace tail
            rest = source[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {source[bad]!r}", bad)
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# parser: recursive descent with precedence climbing
# ---------------------------------------------------------------------------

class _Parser:
    """Each ``parse_*`` method returns ``(tree, depth of tree)``."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0        # parse_expr calls under way

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    @staticmethod
    def bounded(depth: int, off: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested more than {MAX_DEPTH} levels deep", off)
        return depth

    def parse_expr(self, min_prec=0) -> tuple[Expr, int]:
        self.nesting = self.bounded(self.nesting + 1, self.peek()[2])
        left, depth = self.parse_prefix()
        while True:
            kind, text, off = self.peek()
            if kind != "op" or text not in "+-*/^":
                break
            prec = {"+": _PREC_ADD, "-": _PREC_ADD,
                    "*": _PREC_MUL, "/": _PREC_MUL,
                    "^": _PREC_POW}[text]
            if prec < min_prec:
                break
            self.advance()
            if text == "^":
                right, right_depth = self.parse_expr(prec - 1)  # right-associative
            else:
                right, right_depth = self.parse_expr(prec + 1)
            left = Bin(text, left, right, off)
            depth = self.bounded(1 + max(depth, right_depth), off)
        self.nesting -= 1
        return left, depth

    def parse_prefix(self) -> tuple[Expr, int]:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            operand, depth = self.parse_expr(_PREC_NEG)
            return Neg(operand, off), self.bounded(1 + depth, off)
        return self.parse_atom()

    def parse_atom(self) -> tuple[Expr, int]:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text), off), 1
        if kind == "name":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in _FUNCTIONS:
                    raise UnknownIdentifier(
                        f"unknown function {text!r} at offset {off}")
                self.advance()
                args = [self.parse_expr()]
                while True:
                    k, t, o = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.parse_expr())
                    else:
                        break
                self.expect_op(")")
                if text in ("min", "max"):
                    if len(args) < 2:
                        raise ExprSyntaxError(
                            f"{text} needs at least two arguments", off)
                elif len(args) != 1:
                    raise ExprSyntaxError(
                        f"{text} takes exactly one argument", off)
                trees, depths = zip(*args)
                return Call(text, trees, off), self.bounded(1 + max(depths), off)
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text], off), 1
            return Var(text, off), 1
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", off)


def parse(source: str) -> Expr:
    """Parse expression source text into an :class:`Expr` tree.

    Raises :class:`ExprSyntaxError` (with character offset) on malformed
    input or input nested deeper than ``MAX_DEPTH``, and
    :class:`UnknownIdentifier` for unknown function names.
    """
    if not isinstance(source, str):
        raise ExprSyntaxError("expression source must be text", 0)
    parser = _Parser(_tokenize(source))
    tree, _ = parser.parse_expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {text!r} after expression", off)
    return tree


# ---------------------------------------------------------------------------
# evaluation: a post-order walk of the tree
# ---------------------------------------------------------------------------

def evaluate(expr: Expr, bindings: dict):
    """Evaluate ``expr`` with the given variable bindings.

    Bindings may be scalars or numpy arrays (broadcast together).  The
    result is a ``float`` for scalar bindings, an ndarray otherwise.
    Domain violations (log of a non-positive value, division by zero) and
    non-finite results raise :class:`EvalError`; the coefficient tables
    built from expressions must be finite.
    """
    with np.errstate(all="ignore"):
        result = _eval(expr, bindings)
    if np.ndim(result) == 0:
        result = float(result)
        if not math.isfinite(result):
            raise EvalError(f"non-finite result from {to_source(expr)!r}")
        return result
    result = np.asarray(result, dtype=float)
    if not np.isfinite(result).all():
        raise EvalError(f"non-finite result from {to_source(expr)!r}")
    return result


def _eval(node: Expr, env: dict):
    """The value of ``node``: children first, left to right, each domain
    check just before the operation it guards."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariable(
                f"variable {node.name!r} is not bound") from None
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, Bin):
        left, right = _eval(node.left, env), _eval(node.right, env)
        if node.op == "/" and np.any(right == 0):
            raise EvalError(f"division by zero at offset {node.offset}")
        return _OPERATORS[node.op](left, right)
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        if node.func == "log" and np.any(np.asarray(args[0]) <= 0):
            raise EvalError(f"log of non-positive value at offset {node.offset}")
        func = _FUNCTIONS[node.func]
        return func(args[0]) if len(args) == 1 else functools.reduce(func, args)
    raise AssertionError(type(node))


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _prec(node: Expr) -> int:
    if isinstance(node, Bin):
        return _PREC_POW if node.op == "^" else (
            _PREC_MUL if node.op in "*/" else _PREC_ADD)
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def to_source(expr: Expr) -> str:
    """Render the tree back to source.

    Parenthesization is chosen so that re-parsing reproduces the exact
    tree shape (floating-point evaluation order included): same-precedence
    right children of left-associative operators are parenthesized, and
    literals are printed with ``repr`` so they round-trip bit-exactly.
    """
    if isinstance(expr, Num):
        return f"({expr.value!r})" if expr.value < 0 else repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_source(expr.operand)
        if _prec(expr.operand) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Bin):
        prec = _prec(expr)
        left = to_source(expr.left)
        right = to_source(expr.right)
        if expr.op == "^":
            # right-associative: parenthesize same-precedence left children
            if _prec(expr.left) <= prec:
                left = f"({left})"
            if _prec(expr.right) < prec:
                right = f"({right})"
        else:
            if _prec(expr.left) < prec:
                left = f"({left})"
            if _prec(expr.right) <= prec:
                right = f"({right})"
        return f"{left}{expr.op}{right}"
    if isinstance(expr, Call):
        return f"{expr.func}({','.join(to_source(a) for a in expr.args)})"
    raise AssertionError(type(expr))
