"""Line-oriented experiment configuration.

A config file is a sequence of ``section.key = value`` lines (``#``
starts a comment).  Expression values are double-quoted so they may
contain spaces; list values use ``;`` between items and ``,`` between
components (split at the top level only, so function arguments like
``min(x1,v1)`` survive).  Example::

    problem.topology = torus
    problem.n        = 64
    problem.controls = -1 ; 1
    problem.sigma    = "1"
    problem.b        = "v1"
    problem.r        = "cos(2*pi*x1) + 0.05*v1^2"
    solver.tol       = 1e-9
    mc.seed          = 42

Every invariant of the problem description is validated at load time and
rejected with the offending line number and the name of the invariant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field


from .eigensolver import SolveOptions
from .errors import ConfigError, ExprSyntaxError, UnknownIdentifier, ValidationError
from .expr import parse
from .generator import ProblemSpec
from .grid import Grid
from .mc import check_settings

__all__ = ["Config", "McSection", "OutputSection", "load_config"]

_KEY_RE = re.compile(r"^[a-z_][a-z0-9_]*\.[a-z_][a-z0-9_]*$")
_FORMATS = ("json", "csv")
_SOLVER_KEYS = (("dt_factor", float), ("tol", float), ("max_iters", int))
_MC_KEYS = {"T": "mc.t", "dt_sim": "mc.dt_sim", "N": "mc.n", "seed": "mc.seed"}


@dataclass(frozen=True)
class McSection:
    T: float = 20.0
    dt_sim: float = 1e-3
    N: int = 10_000
    seed: int = 0
    x0: tuple | None = None


@dataclass(frozen=True)
class OutputSection:
    dir: str = "out"
    formats: tuple = _FORMATS


@dataclass(frozen=True)
class Config:
    problem: ProblemSpec
    solver: SolveOptions = field(default_factory=SolveOptions)
    mc: McSection = field(default_factory=McSection)
    output: OutputSection = field(default_factory=OutputSection)

    def mc_start(self) -> tuple:
        if self.mc.x0 is not None:
            return self.mc.x0
        center = 0.5 * self.problem.grid.extent
        return (center,) * self.problem.grid.d


def _split_top(text: str, sep: str) -> list[str]:
    """Split on ``sep`` at parenthesis depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _strip_comment(line: str) -> str:
    out, in_quote = [], False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _raw_items(text: str):
    """Yield ``(key, value, line_number)`` triples from config text."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'section.key = value'", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"malformed key {key!r}", lineno)
        value = value.strip()
        if value.startswith('"'):
            if not value.endswith('"') or len(value) < 2:
                raise ConfigError("unterminated quoted value", lineno)
            value = value[1:-1]
        if not value:
            raise ConfigError(f"empty value for {key}", lineno)
        yield key, value, lineno


class _Items:
    def __init__(self, text: str):
        self.data = {}
        for key, value, lineno in _raw_items(text):
            if key in self.data:
                raise ConfigError(f"duplicate key {key}", lineno)
            self.data[key] = (value, lineno)
        self.used = set()

    def get(self, key, default=None):
        self.used.add(key)
        if key in self.data:
            return self.data[key][0]
        return default

    def line(self, key):
        return self.data[key][1] if key in self.data else None

    def require(self, key):
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required key {key}")
        return value

    def unused(self):
        return sorted(set(self.data) - self.used)


def _convert(items: _Items, key: str, conv, default=None):
    raw = items.get(key)
    if raw is None:
        return default
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}", items.line(key)) from exc


def _parse_expr_for(items: _Items, key: str, raw: str):
    try:
        return parse(raw)
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        raise ConfigError(f"{key}: {exc}", items.line(key)) from exc


def _parse_integer(raw: str) -> int:
    """An integer count, also when spelled as a float (``64.0``, ``1e2``)."""
    value = float(raw)
    if not value.is_integer():
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(value)


def _parse_point(raw: str) -> tuple:
    point = tuple(float(c) for c in _split_top(raw, ","))
    if not all(math.isfinite(c) for c in point):
        raise ValueError(f"components must be finite, got {raw!r}")
    return point


def _parse_controls(raw: str):
    vectors = []
    for part in _split_top(raw, ";"):
        vectors.append(tuple(float(c) for c in _split_top(part, ",")))
    return tuple(vectors)


def loads(text: str) -> Config:
    """Parse and validate config text (see :func:`load_config`)."""
    items = _Items(text)

    topology = items.require("problem.topology")
    d = _convert(items, "problem.d", int, 1)
    items.require("problem.n")
    n = _convert(items, "problem.n", _parse_integer)
    extent = _convert(items, "problem.extent", float, 1.0)
    try:
        grid = Grid(topology=topology, n=n, d=d, extent=extent)
    except ValidationError as exc:
        key = f"problem.{exc.field}"
        raise ConfigError(f"{key}: {exc}", items.line(key)) from exc

    controls = _convert(items, "problem.controls", _parse_controls, ((0.0,),))
    sigma_raw = items.require("problem.sigma")
    sigma_parts = [e for row in _split_top(sigma_raw, ";")
                   for e in _split_top(row, ",")]
    sigma = tuple(_parse_expr_for(items, "problem.sigma", e) for e in sigma_parts)
    b_raw = items.require("problem.b")
    b = tuple(_parse_expr_for(items, "problem.b", e)
              for e in _split_top(b_raw, ","))
    r = _parse_expr_for(items, "problem.r", items.require("problem.r"))
    sense = items.get("problem.sense", "minimize")
    eps_a = _convert(items, "problem.eps_a", float, 1e-8)

    try:
        problem = ProblemSpec(grid=grid, controls=controls, sigma=sigma,
                              b=b, r=r, sense=sense, eps_a=eps_a)
    except ValidationError as exc:
        key = f"problem.{exc.field}"
        raise ConfigError(f"{key}: {exc}", items.line(key)) from exc

    solver = {}
    for name, conv in _SOLVER_KEYS:      # unset keys keep the dataclass defaults
        key = f"solver.{name}"
        value = _convert(items, key, conv)
        if value is None:
            continue
        try:        # each field is checked on its own, so the error has its line
            SolveOptions(**{name: value})
        except ValidationError as exc:
            raise ConfigError(f"{key}: {exc}", items.line(key)) from exc
        solver[name] = value

    x0 = _convert(items, "mc.x0", _parse_point)
    if x0 is not None:
        if len(x0) != grid.d:
            raise ConfigError(f"mc.x0 needs {grid.d} components",
                              items.line("mc.x0"))
    mc = McSection(
        T=_convert(items, "mc.t", float, 20.0),
        dt_sim=_convert(items, "mc.dt_sim", float, 1e-3),
        N=_convert(items, "mc.n", int, 10_000),
        seed=_convert(items, "mc.seed", int, 0),
        x0=x0)
    try:
        check_settings(mc.T, mc.dt_sim, mc.N, mc.seed)
    except ValidationError as exc:
        key = _MC_KEYS[exc.field]
        # a default horizon is too short only for the dt_sim that was set
        line = items.line(key) or items.line("mc.dt_sim")
        raise ConfigError(f"{key}: {exc}", line) from exc

    formats = tuple(f.strip() for f in
                    items.get("output.formats", ",".join(_FORMATS)).split(","))
    unknown = [f for f in formats if f not in _FORMATS]
    if unknown:
        raise ConfigError(f"output.formats: unknown format {unknown[0]!r}, "
                          f"expected {' or '.join(_FORMATS)}",
                          items.line("output.formats"))
    output = OutputSection(dir=items.get("output.dir", "out"), formats=formats)

    extra = items.unused()
    if extra:
        raise ConfigError(f"unknown keys: {', '.join(extra)}",
                          items.line(extra[0]))
    return Config(problem=problem, solver=SolveOptions(**solver), mc=mc,
                  output=output)


def load_config(path: str) -> Config:
    """Load and fully validate a config file.

    Raises :class:`ConfigError` with the offending line number for parse
    failures (and without one for a file that cannot be read), and
    :class:`ValidationError` naming the violated invariant for semantic
    failures.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads(text)
