"""Spatial grids for the 1D reflecting interval and the d-torus (d <= 2).

Grid functions are plain float ndarrays of length ``grid.size``, ordered
row-major over the node lattice (for d = 2, node ``(i, j)`` sits at flat
index ``i * n + j``).  The helpers below validate the contracts that the
rest of the library relies on: matching length, finiteness and, where an
operation requires it, strict positivity.

The boundary rule lives in one place, :meth:`Grid.neighbour`: the torus
wraps lattice indices, and the interval mirrors them through its
endpoints, so the ghost node ``-1`` is node ``1`` and the ghost node
``n`` is node ``n - 2``.  In one dimension the co-normal reflection
direction is the outward normal, so the mirror ghost node is the zero
Neumann condition.  The generator's stencil and the centered gradient of
the log-transform residual both read their neighbours from this map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["Grid", "GridFunction", "as_grid_function", "require_positive"]

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
        if not (self.extent > 0 and np.isfinite(self.extent)):
            raise ValidationError("extent must be a positive finite number",
                                  field="extent")
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


def _whole_number(value, field: str) -> int:
    """``value`` as an ``int``: an integer, or a float with an integral
    value such as ``64.0``; anything else, a ``bool`` too, raises
    :class:`ValidationError` naming ``field``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValidationError(f"{field} must be a whole number, got {value!r}",
                          field=field)


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
    if not np.isfinite(f).all():
        raise ValidationError("grid function contains non-finite values")
    return f


def require_positive(f: GridFunction, what: str = "grid function") -> None:
    if np.min(f) <= 0:
        raise ValidationError(f"{what} must be strictly positive "
                              f"(min value {np.min(f):.3g})")
