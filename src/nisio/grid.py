"""Spatial grids for the 1D reflecting interval and the d-torus (d <= 2).

Grid functions are plain float ndarrays of length ``grid.size``, ordered
row-major over the node lattice (for d = 2, node ``(i, j)`` sits at flat
index ``i * n + j``).  :func:`as_grid_function` checks the length and the
finiteness of one.

Every input rule of the library is raised here, by one helper each, with
one message, one class and, where given, the ``field`` it names:

* :func:`require_positive`: an array strictly positive,
  ``NonPositiveInput("<name> must be strictly positive")``;
* :func:`require_nonnegative`: an array nonnegative,
  ``NonPositiveInput("<name> must be nonnegative")``;
* :func:`require_finite`: an array or a scalar finite,
  ``ValidationError("<name> contains non-finite values")``;
* :func:`require_positive_finite`: a scalar in ``(0, inf)``,
  ``NonPositiveInput("<name> must be positive and finite")``, always
  with ``field=<name>``;

and :func:`_whole_number` takes counts and sizes: an ``int`` or a float
with an integral value, never a ``bool`` (``ValidationError("<name> must
be a whole number, got <value>")``), and at least ``least`` where given
(``NonPositiveInput("<name> must be >= <least>")``).

The sign rules compare with 0, and a NaN compares false, so they let
NaNs pass; callers that must reject them check finiteness too.

The boundary rule lives in one place, :meth:`Grid.neighbour`: the torus
wraps lattice indices, and the interval mirrors them through its
endpoints, so the ghost node ``-1`` is node ``1`` and the ghost node
``n`` is node ``n - 2``.  In one dimension the co-normal reflection
direction is the outward normal, so the mirror ghost node is the zero
Neumann condition.  The generator's stencil and the centered gradient of
the log-transform residual both read their neighbours from this map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveInput, ValidationError

__all__ = ["Grid", "GridFunction", "as_grid_function", "require_positive",
           "require_nonnegative", "require_finite", "require_positive_finite"]

#: A grid function is a float ndarray with one value per grid node.
GridFunction = np.ndarray

INTERVAL = "interval"
TORUS = "torus"


@dataclass(frozen=True)
class Grid:
    """Uniform grid on ``[0, extent]`` (reflecting) or the extent-periodic torus.

    ``n`` is the number of points per axis; the interval uses ``n`` nodes
    including both endpoints (spacing ``extent/(n-1)``), the torus uses
    ``n`` distinct nodes per period (spacing ``extent/n``).  ``n`` and
    ``d`` are whole numbers; an integral float is stored as an ``int``.
    """

    topology: str
    n: int
    d: int = 1
    extent: float = 1.0

    def __post_init__(self):
        if self.topology not in (INTERVAL, TORUS):
            raise ValidationError(
                f"topology must be '{INTERVAL}' or '{TORUS}', got {self.topology!r}",
                field="topology")
        object.__setattr__(self, "n", _whole_number(self.n, "n"))
        object.__setattr__(self, "d", _whole_number(self.d, "d"))
        if self.n < 8:
            raise ValidationError(f"n >= 8 required, got n = {self.n}",
                                  field="n")
        require_positive_finite(self.extent, "extent")
        if self.topology == INTERVAL and self.d != 1:
            raise ValidationError("interval topology implies d = 1", field="d")
        if self.topology == TORUS and self.d not in (1, 2):
            raise ValidationError("torus topology supports d = 1 or d = 2",
                                  field="d")

    @property
    def h(self) -> float:
        if self.topology == INTERVAL:
            return self.extent / (self.n - 1)
        return self.extent / self.n

    @property
    def size(self) -> int:
        return self.n ** self.d

    def axis_coords(self) -> np.ndarray:
        return self.h * np.arange(self.n)

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape ``(size, d)``."""
        c = self.axis_coords()
        if self.d == 1:
            return c[:, None]
        x1, x2 = np.meshgrid(c, c, indexing="ij")
        return np.column_stack([x1.ravel(), x2.ravel()])

    def ones(self) -> GridFunction:
        return np.ones(self.size)

    def neighbour(self, offset) -> np.ndarray:
        """Flat index of each node's neighbour at the lattice ``offset``.

        ``offset`` holds one integer step per axis.  The torus wraps; the
        interval mirrors through its endpoints (see the module docstring).
        """
        if len(offset) != self.d:
            raise ValidationError(f"offset needs {self.d} components")
        n = self.n
        flat = 0
        for index, step in zip(np.indices((n,) * self.d), offset):
            index = index + step
            if self.topology == TORUS:
                index %= n
            else:
                index = (n - 1) - np.abs((n - 1) - np.abs(index))
            flat = flat * n + index
        return flat.ravel()


def _whole_number(value, field: str, least: int | None = None) -> int:
    """``value`` as an ``int``: an integer, or a float with an integral
    value such as ``64.0``; anything else, a ``bool`` too, raises
    :class:`ValidationError` naming ``field``, and a number below
    ``least`` :class:`NonPositiveInput`."""
    whole = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
             or isinstance(value, (float, np.floating))
             and float(value).is_integer())
    if not whole:
        raise ValidationError(f"{field} must be a whole number, got {value!r}",
                              field=field)
    if least is not None and value < least:
        raise NonPositiveInput(f"{field} must be >= {least}", field=field)
    return int(value)


def _control_indices(policy) -> np.ndarray:
    """``policy`` as an int64 array of control indices: whole numbers,
    integral floats accepted; anything else raises :class:`ValidationError`
    naming ``policy``."""
    with np.errstate(invalid="ignore"):     # NaN and inf fail the test below
        indices = np.asarray(policy).astype(np.int64)
    if not np.array_equal(indices, policy):
        raise ValidationError("policy entries must be whole numbers",
                              field="policy")
    return indices


def as_grid_function(grid: Grid, values) -> GridFunction:
    """Validate and return ``values`` as a grid function for ``grid``."""
    f = np.asarray(values, dtype=float)
    if f.shape != (grid.size,):
        raise ValidationError(
            f"grid function must have shape ({grid.size},), got {f.shape}")
    require_finite(f, "grid function")
    return f


def require_positive(values, name: str) -> None:
    """Raise :class:`NonPositiveInput` unless ``min(values) > 0``."""
    if np.min(values) <= 0:
        raise NonPositiveInput(f"{name} must be strictly positive")


def require_nonnegative(values, name: str) -> None:
    """Raise :class:`NonPositiveInput` where a value is below 0 (an empty
    array has none)."""
    if np.any(np.less(values, 0)):
        raise NonPositiveInput(f"{name} must be nonnegative")


def require_finite(values, name: str, field: str | None = None) -> None:
    """Raise :class:`ValidationError` unless every value is finite."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} contains non-finite values",
                              field=field)


def require_positive_finite(value, name: str) -> None:
    """Raise :class:`NonPositiveInput` naming the field ``name`` unless
    the scalar ``value`` lies in ``(0, inf)``."""
    if not 0 < value < math.inf:
        raise NonPositiveInput(f"{name} must be positive and finite",
                               field=name)
