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

Each section is read into one checked type, which holds the defaults of
the keys left unset and checks the values: ``problem`` into
:class:`~nisio.grid.Grid` and :class:`~nisio.generator.ProblemSpec`,
``solver`` into :class:`~nisio.eigensolver.SolveOptions`, ``mc`` into
:class:`~nisio.mc.McSettings` and ``output`` into :class:`OutputSection`.
The key of a field is ``section.<field in lower case>``.  Integer keys
(``problem.n``, ``problem.d``, ``mc.n``, ``mc.seed``, ``solver.max_iters``)
also take an integral float spelling such as ``64.0`` or ``1e4``.

Every invariant of the problem description is validated at load time and
rejected with the offending line number and the name of the invariant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .eigensolver import SolveOptions
from .errors import ConfigError, ExprSyntaxError, UnknownIdentifier, ValidationError
from .expr import parse
from .generator import ProblemSpec
from .grid import Grid
from .mc import McSettings

__all__ = ["Config", "OutputSection", "load_config"]

_KEY_RE = re.compile(r"^[a-z_][a-z0-9_]*\.[a-z_][a-z0-9_]*$")
_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class OutputSection:
    dir: str = "out"
    formats: tuple = _FORMATS

    def __post_init__(self):
        unknown = [f for f in self.formats if f not in _FORMATS]
        if unknown:
            raise ValidationError(f"unknown format {unknown[0]!r}, "
                                  f"expected {' or '.join(_FORMATS)}",
                                  field="formats")


@dataclass(frozen=True)
class Config:
    problem: ProblemSpec
    solver: SolveOptions = field(default_factory=SolveOptions)
    mc: McSettings = field(default_factory=McSettings)
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

    def get(self, key):
        self.used.add(key)
        return self.data[key][0] if key in self.data else None

    def line(self, key):
        return self.data[key][1] if key in self.data else None

    def last_line(self, section):
        """The line of the last key set in ``section``."""
        return max((line for key, (_, line) in self.data.items()
                    if key.startswith(f"{section}.")), default=None)

    def require(self, key):
        if self.get(key) is None:
            raise ConfigError(f"missing required key {key}")

    def unused(self):
        return sorted(set(self.data) - self.used)


def _section(items: _Items, section: str, cls, readers: dict, **fields):
    """``cls(**fields)``, plus each field whose key ``section.<field in lower
    case>`` is set, read by ``readers[field]``; unset keys keep the defaults
    of ``cls``.  A :class:`ValidationError` of ``cls`` becomes a
    :class:`ConfigError` naming the key of its field, at that key's line or,
    for a field left at its default, at the last key set in ``section``."""
    for name, reader in readers.items():
        key = f"{section}.{name.lower()}"
        raw = items.get(key)
        if raw is None:
            continue
        try:
            fields[name] = reader(raw)
        except (ValueError, TypeError, ExprSyntaxError, UnknownIdentifier) as exc:
            raise ConfigError(f"{key}: {exc}", items.line(key)) from exc
    try:
        return cls(**fields)
    except ValidationError as exc:
        key = f"{section}.{exc.field.lower()}"
        line = items.line(key) or items.last_line(section)
        raise ConfigError(f"{key}: {exc}", line) from exc


def _parse_integer(raw: str) -> int:
    """An integer, also when spelled as a float (``64.0``, ``1e2``)."""
    try:
        return int(raw)     # exact beyond 2**53, as a large seed may be
    except ValueError:
        pass
    value = float(raw)
    if not value.is_integer():
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(value)


def _parse_point(raw: str) -> tuple:
    return tuple(float(c) for c in _split_top(raw, ","))


def _parse_names(raw: str) -> tuple:
    return tuple(name.strip() for name in raw.split(","))


def _parse_exprs(raw: str) -> tuple:
    return tuple(parse(e) for e in _split_top(raw, ","))


def _parse_matrix(raw: str) -> tuple:      # row-major
    return tuple(e for row in _split_top(raw, ";") for e in _parse_exprs(row))


def _parse_controls(raw: str) -> tuple:
    return tuple(_parse_point(part) for part in _split_top(raw, ";"))


def loads(text: str) -> Config:
    """Parse and validate config text (see :func:`load_config`)."""
    items = _Items(text)

    for name in ("topology", "n", "sigma", "b", "r"):
        items.require(f"problem.{name}")
    grid = _section(items, "problem", Grid, {
        "topology": str, "n": _parse_integer, "d": _parse_integer,
        "extent": float})
    problem = _section(items, "problem", ProblemSpec, {
        "controls": _parse_controls, "sigma": _parse_matrix, "b": _parse_exprs,
        "r": parse, "sense": str, "eps_a": float},
        grid=grid, controls=((0.0,),))
    solver = _section(items, "solver", SolveOptions, {
        "dt_factor": float, "tol": float, "max_iters": _parse_integer})
    mc = _section(items, "mc", McSettings, {
        "T": float, "dt_sim": float, "N": _parse_integer,
        "seed": _parse_integer, "x0": _parse_point})
    if mc.x0 is not None and len(mc.x0) != grid.d:
        raise ConfigError(f"mc.x0 needs {grid.d} components",
                          items.line("mc.x0"))
    output = _section(items, "output", OutputSection, {
        "dir": str, "formats": _parse_names})

    extra = items.unused()
    if extra:
        raise ConfigError(f"unknown keys: {', '.join(extra)}",
                          items.line(extra[0]))
    return Config(problem=problem, solver=solver, mc=mc, output=output)


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
