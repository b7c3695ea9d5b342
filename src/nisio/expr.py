"""Arithmetic expressions for coefficient functions.

Problem coefficients (drift, diffusion, running cost) are given in config
files as small arithmetic expressions over the space variables ``x1..xd``
and control components ``v1..vm``.  This module parses such expressions
into an immutable syntax tree.  The first evaluation of a tree compiles it
into one flat Python function, cached on the tree, that runs the numpy
operations of a post-order walk in the same order, so values and errors
are exactly those of walking the tree.  Evaluation works on scalar or
numpy array bindings, so the same expression serves both table
construction on a grid and vectorized evaluation along simulated paths.

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

Trees are immutable after construction (the cached code aside) and safe
to evaluate concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ExprSyntaxError, UnboundVariable, UnknownIdentifier

__all__ = ["Expr", "parse", "evaluate", "to_source"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "tanh": np.tanh,
    # min/max are variadic and handled separately
    "min": None,
    "max": None,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

# precedence table used by both the parser and the printer
_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 25
_PREC_POW = 30
_PREC_ATOM = 100


class Expr:
    """Base class of expression nodes.  Instances are immutable."""

    # the compiled evaluator, set on first evaluation (see ``_compile``)
    __slots__ = ("_code",)

    def variables(self) -> set[str]:
        """Free variable names of the expression."""
        out: set[str] = set()
        _collect_vars(self, out)
        return out

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



def _collect_vars(node: Expr, out: set[str]) -> None:
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.operand, out)
    elif isinstance(node, Bin):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, Call):
        for a in node.args:
            _collect_vars(a, out)


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
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

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

    def parse_expr(self, min_prec=0) -> Expr:
        left = self.parse_prefix()
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
                right = self.parse_expr(prec - 1)  # right-associative
            else:
                right = self.parse_expr(prec + 1)
            left = Bin(text, left, right, off)
        return left

    def parse_prefix(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_expr(_PREC_NEG), off)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text), off)
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
                return Call(text, tuple(args), off)
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text], off)
            return Var(text, off)
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", off)


def parse(source: str) -> Expr:
    """Parse expression source text into an :class:`Expr` tree.

    Raises :class:`ExprSyntaxError` (with character offset) on malformed
    input and :class:`UnknownIdentifier` for unknown function names.
    """
    if not isinstance(source, str):
        raise ExprSyntaxError("expression source must be text", 0)
    parser = _Parser(_tokenize(source))
    tree = parser.parse_expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {text!r} after expression", off)
    return tree


# ---------------------------------------------------------------------------
# evaluation: each tree is compiled once into one flat Python function
# ---------------------------------------------------------------------------

def evaluate(expr: Expr, bindings: dict):
    """Evaluate ``expr`` with the given variable bindings.

    Bindings may be scalars or numpy arrays (broadcast together).  The
    result is a ``float`` for scalar bindings, an ndarray otherwise.
    Domain violations (log of a non-positive value, division by zero) and
    non-finite results raise :class:`EvalError`; the coefficient tables
    built from expressions must be finite.
    """
    try:
        code = expr._code
    except AttributeError:
        code = _compile(expr)
    with np.errstate(all="ignore"):
        result = code(bindings)
    if np.ndim(result) == 0:
        result = float(result)
        if not math.isfinite(result):
            raise EvalError(f"non-finite result from {to_source(expr)!r}")
        return result
    result = np.asarray(result, dtype=float)
    if not np.isfinite(result).all():
        raise EvalError(f"non-finite result from {to_source(expr)!r}")
    return result


_RUNTIME = {
    "_any": np.any, "_asarray": np.asarray, "_power": np.power,
    "_minimum": np.minimum, "_maximum": np.maximum,
    "EvalError": EvalError, "UnboundVariable": UnboundVariable,
}


def _compile(expr: Expr):
    """Compile ``expr`` into ``code(env)``, cache it on the tree, return it.

    The body is the post-order walk of the tree written out as straight-line
    statements, one per node: the same numpy calls on the same operands in
    the same order, with each domain check just before the operation it
    guards, so values, errors and their order are those of a recursive walk.
    Literals are bound as globals of the function and keep their exact
    value; the source holds only fixed templates, temporaries, known
    function names and ``repr``'d strings.  Compiling is idempotent, so
    threads racing on the first call of a tree at worst compile it twice.
    """
    lines: list[str] = []
    names = dict(_RUNTIME)

    def assign(rhs: str) -> str:
        out = f"t{len(lines)}"
        lines.append(f"{out} = {rhs}")
        return out

    def check(test: str, message: str) -> None:
        lines.append(f"if {test}: raise EvalError({message!r})")

    def emit(node: Expr) -> str:
        """Append the statements computing ``node``; return its name."""
        if isinstance(node, Num):
            name = f"c{len(names)}"
            names[name] = node.value
            return name
        if isinstance(node, Var):
            return assign(f"env[{node.name!r}]")
        if isinstance(node, Neg):
            return assign(f"-{emit(node.operand)}")
        if isinstance(node, Bin):
            left, right = emit(node.left), emit(node.right)
            if node.op in ("+", "-", "*"):
                return assign(f"{left} {node.op} {right}")
            if node.op == "/":
                check(f"_any({right} == 0)",
                      f"division by zero at offset {node.offset}")
                return assign(f"{left} / {right}")
            if node.op == "^":
                return assign(f"_power({left}, {right})")
            raise AssertionError(node.op)
        if isinstance(node, Call):
            args = [emit(a) for a in node.args]
            if node.func in ("min", "max"):
                out = args[0]
                for a in args[1:]:
                    out = assign(f"_{node.func}imum({out}, {a})")
                return out
            if node.func == "log":
                check(f"_any(_asarray({args[0]}) <= 0)",
                      f"log of non-positive value at offset {node.offset}")
            names[f"_{node.func}"] = _FUNCTIONS[node.func]
            return assign(f"_{node.func}({args[0]})")
        raise AssertionError(type(node))

    result = emit(expr)
    body = "".join(f"        {line}\n" for line in lines) or "        pass\n"
    source = ("def code(env):\n    try:\n" + body
              + "    except KeyError as err:\n"
              "        raise UnboundVariable("
              "f'variable {err.args[0]!r} is not bound') from None\n"
              f"    return {result}\n")
    exec(compile(source, "<nisio.expr>", "exec"), names)
    code = names["code"]
    object.__setattr__(expr, "_code", code)
    return code


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
