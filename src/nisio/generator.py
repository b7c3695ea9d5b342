"""Monotone upwind discretization of the controlled generator family.

For each control value ``v`` the operator

    (L_v f)(x) = 1/2 trace(a(x) D^2 f(x)) + <b(x, v), grad f(x)>

is discretized with central second differences for the diffusion part and
first-order upwind differences for the drift (direction chosen per node by
the sign of each drift component), which keeps every off-diagonal entry of
the resulting matrix nonnegative.  Together with the explicit-Euler CFL
bound this Metzler structure makes positivity, monotonicity and the
envelope inequality of the induced semigroup hold exactly, not just up to
discretization error.

Boundary handling: the reflecting interval uses a mirror ghost node (in
one dimension the co-normal reflection direction is the outward normal,
so the boundary condition reduces to zero Neumann); the torus wraps
indices.  On the 2-torus a mixed second derivative is discretized with
the sign-split seven-point stencil, which is monotone exactly when the
diffusion matrix is pointwise diagonally dominant, |a12| <= min(a11, a22);
this is validated at build time.

The control family is stored once, as the CSR stack ``vstack(A_v)``.  The
envelope operator ``(G f)(x) = min_v (L_v + r_v) f(x)`` (``max_v`` for
maximization problems) is one product ``stack @ f`` reduced over controls
by :func:`_envelope`; CSR row blocks keep each row's entry order, so this
is bitwise the envelope of the separate products ``A_v @ f``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateDiffusion,
    EvalError,
    NonFiniteCoefficient,
    UnboundVariable,
    ValidationError,
)
from .expr import Expr, evaluate, parse
from .grid import Grid, GridFunction, TORUS, as_grid_function

__all__ = [
    "ProblemSpec",
    "DiscreteGenerator",
    "build_generator",
    "apply_linear",
    "apply_G",
    "argmin_policy",
]

MAX_CONTROLS = 64
MINIMIZE = "minimize"
MAXIMIZE = "maximize"


def _as_expr(e) -> Expr:
    return e if isinstance(e, Expr) else parse(e)


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and control set of a risk-sensitive problem.

    ``sigma`` is the d x d dispersion matrix (row-major tuple of
    expressions in ``x1..xd``); the generator uses ``a = sigma sigma^T``,
    while the Monte Carlo simulator needs ``sigma`` itself.  ``b`` is the
    drift (d expressions in ``x1..xd, v1..vm``) and ``r`` the running
    cost (one expression).  ``controls`` is the finite control set, one
    m-vector per control.
    """

    grid: Grid
    controls: tuple
    sigma: tuple
    b: tuple
    r: Expr
    sense: str = MINIMIZE
    eps_a: float = 1e-8

    def __post_init__(self):
        d = self.grid.d
        controls = tuple(tuple(float(c) for c in np.atleast_1d(v)) for v in self.controls)
        object.__setattr__(self, "controls", controls)
        sigma = tuple(_as_expr(e) for e in self.sigma)
        object.__setattr__(self, "sigma", sigma)
        b = tuple(_as_expr(e) for e in self.b)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", _as_expr(self.r))
        if not controls:
            raise ValidationError("control set must be nonempty")
        if len(controls) > MAX_CONTROLS:
            raise ValidationError(
                f"control set size {len(controls)} exceeds {MAX_CONTROLS}")
        m = len(controls[0])
        if any(len(v) != m for v in controls):
            raise ValidationError("all control vectors must have equal length")
        if len(sigma) not in (1, d * d):
            raise ValidationError(
                f"sigma needs 1 (scalar, meaning sigma*I) or {d*d} expressions")
        if len(b) != d:
            raise ValidationError(f"b needs {d} component expressions")
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise ValidationError("sense must be 'minimize' or 'maximize'")
        if not (self.eps_a > 0):
            raise ValidationError("eps_a must be positive")
        allowed = {f"x{i+1}" for i in range(d)}
        for e in sigma:
            extra = e.variables() - allowed
            if extra:
                raise ValidationError(
                    f"sigma may only depend on {sorted(allowed)}, found {sorted(extra)}")
        allowed |= {f"v{i+1}" for i in range(m)}
        for e in (*b, self.r):
            extra = e.variables() - allowed
            if extra:
                raise ValidationError(
                    f"coefficient may only depend on {sorted(allowed)}, found {sorted(extra)}")

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    @property
    def m(self) -> int:
        return len(self.controls[0])

    def x_bindings(self, x: np.ndarray) -> dict:
        """Bindings ``x1..xd`` for an ``(..., d)`` coordinate array."""
        x = np.asarray(x, dtype=float)
        return {f"x{i+1}": x[..., i] for i in range(self.grid.d)}

    def control_bindings(self, v) -> dict:
        v = np.asarray(v, dtype=float)
        return {f"v{i+1}": v[..., i] for i in range(self.m)}

    def sigma_entries(self) -> tuple:
        """``(expr, places)`` for each expression of ``sigma``, in order.

        ``places`` are the ``(i, j)`` entries of the dispersion matrix that
        take the expression's value: the whole diagonal for a single
        expression (``sigma * I``), one entry each for a row-major d x d
        tuple.  Every other entry is zero.
        """
        d = self.grid.d
        if len(self.sigma) == 1:
            return ((self.sigma[0], tuple((i, i) for i in range(d))),)
        return tuple((e, ((k // d, k % d),)) for k, e in enumerate(self.sigma))

    def sigma_at(self, x: np.ndarray) -> np.ndarray:
        """Dispersion matrix at coordinates ``x``: shape ``(..., d, d)``."""
        env = self.x_bindings(x)
        d = self.grid.d
        base = np.zeros(np.shape(x)[:-1])
        out = np.zeros(base.shape + (d, d))
        for e, places in self.sigma_entries():
            s = evaluate(e, env) + base
            for i, j in places:
                out[..., i, j] = s
        return out

    def a_at(self, x: np.ndarray) -> np.ndarray:
        """Diffusion matrix ``a = sigma sigma^T`` at ``x``."""
        s = self.sigma_at(x)
        return s @ np.swapaxes(s, -1, -2)

    def b_at(self, x: np.ndarray, v) -> np.ndarray:
        env = {**self.x_bindings(x), **self.control_bindings(np.asarray(v))}
        base = np.zeros(np.shape(x)[:-1])
        return np.stack(
            [evaluate(e, env) + base for e in self.b], axis=-1)

    def r_at(self, x: np.ndarray, v) -> np.ndarray:
        env = {**self.x_bindings(x), **self.control_bindings(np.asarray(v))}
        return evaluate(self.r, env) + np.zeros(np.shape(x)[:-1])


@dataclass
class DiscreteGenerator:
    """Per-control matrices ``A_v = L_v + diag(r_v)`` on a grid.

    Immutable after construction (the only internal mutable state is
    caches: Euler stacks keyed by time step, and ``mats``).  ``stack`` is
    the CSR matrix ``vstack(A_v)`` of shape ``(n_controls * size, size)``;
    its row block ``mats[v]`` has nonnegative off-diagonal entries and
    row sums equal to ``r_v`` up to rounding.
    """

    grid: Grid
    spec: ProblemSpec
    stack: sp.csr_matrix
    r_tables: np.ndarray      # (n_controls, size)
    a_table: np.ndarray       # (size, d, d)
    dt_max: float
    sense: str = MINIMIZE
    _step_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_controls(self) -> int:
        return len(self.r_tables)

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def r_max(self) -> float:
        return float(np.max(np.abs(self.r_tables)))

    def with_sense(self, sense: str) -> "DiscreteGenerator":
        """A view of the same discrete operators with the other envelope."""
        if sense not in (MINIMIZE, MAXIMIZE):
            raise ValidationError("sense must be 'minimize' or 'maximize'")
        return replace(self, sense=sense)

    def _blocks(self, stack: sp.csr_matrix) -> tuple:
        n = self.size
        return tuple(stack[v * n:(v + 1) * n] for v in range(self.n_controls))

    @cached_property
    def mats(self) -> tuple:
        """Per-control matrices ``A_v``, the row blocks of ``stack``."""
        return self._blocks(self.stack)

    def step_stack(self, dt: float) -> sp.csr_matrix:
        """Stacked Euler step matrices ``vstack(I + dt A_v)`` (cached per ``dt``)."""
        key = float(dt)
        stack = self._step_cache.get(key)
        if stack is None:
            eye = sp.identity(self.size, format="csr")
            stack = sp.vstack([eye] * self.n_controls) + dt * self.stack
            self._step_cache[key] = stack
        return stack

    def step_matrices(self, dt: float) -> tuple:
        """Euler step matrices ``I + dt A_v``, the row blocks of :meth:`step_stack`."""
        return self._blocks(self.step_stack(dt))


def _axis_tables(spec: ProblemSpec, nodes: np.ndarray):
    """Evaluate coefficient tables at the nodes; wrap eval failures."""
    try:
        a = spec.a_at(nodes)
        b = np.stack([spec.b_at(nodes, v) for v in spec.controls])
        r = np.stack([spec.r_at(nodes, v) for v in spec.controls])
    except EvalError as exc:
        raise NonFiniteCoefficient(str(exc)) from exc
    except UnboundVariable as exc:
        raise ValidationError(str(exc)) from exc
    for name, table in (("a", a), ("b", b), ("r", r)):
        if not np.isfinite(table).all():
            raise NonFiniteCoefficient(f"coefficient {name} is not finite")
    return a, b, r


def build_generator(spec: ProblemSpec) -> DiscreteGenerator:
    """Assemble ``A_v = L_v + diag(r_v)`` for every control.

    Raises :class:`DegenerateDiffusion` when the diffusion matrix fails
    the ellipticity threshold ``eps_a`` (or, on the 2-torus, pointwise
    diagonal dominance), and :class:`NonFiniteCoefficient` when any
    coefficient table is non-finite.
    """
    grid = spec.grid
    nodes = grid.nodes()
    a, b, r = _axis_tables(spec, nodes)

    if grid.d == 1:
        min_eig = a[:, 0, 0]
    else:
        tr2 = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
        disc = np.sqrt((0.5 * (a[:, 0, 0] - a[:, 1, 1])) ** 2 + a[:, 0, 1] ** 2)
        min_eig = tr2 - disc
    if np.min(min_eig) < spec.eps_a:
        raise DegenerateDiffusion(
            f"min eigenvalue of a(x) is {np.min(min_eig):.3g} < eps_a = {spec.eps_a:.3g}")

    h = grid.h
    mats = []
    for k in range(spec.n_controls):
        if grid.d == 1:
            A = _assemble_1d(grid, a[:, 0, 0], b[k, :, 0], r[k], h)
        else:
            A = _assemble_2d_torus(grid, a, b[k], r[k], h)
        mats.append(A)

    # CFL: the classical bound from the coefficient tables, sharpened by
    # the exact positivity bound 1/max(-diag A_v) so that I + dt A_v is
    # entrywise nonnegative whenever dt <= dt_max.
    amax = float(np.max(np.abs(a)))
    bmax = float(np.max(np.sum(np.abs(b), axis=-1)))
    dt_cap = h * h / (grid.d * amax + h * bmax)
    diag_min = min(float(A.diagonal().min()) for A in mats)
    if diag_min < 0:
        dt_cap = min(dt_cap, 1.0 / (-diag_min))

    return DiscreteGenerator(
        grid=grid, spec=spec, stack=sp.vstack(mats, format="csr"),
        r_tables=r, a_table=a, dt_max=dt_cap, sense=spec.sense)


def _assemble_1d(grid: Grid, a: np.ndarray, b: np.ndarray, r: np.ndarray,
                 h: float) -> sp.csr_matrix:
    n = grid.n
    cdiff = a / (2.0 * h * h)
    cplus = cdiff + np.maximum(b, 0.0) / h
    cminus = cdiff + np.maximum(-b, 0.0) / h
    center = r - (cplus + cminus)

    idx = np.arange(n)
    rows = [idx, idx]
    cols = [idx, np.empty(n, dtype=int)]
    vals = [center, cplus]
    if grid.topology == TORUS:
        cols[1] = (idx + 1) % n
        rows.append(idx)
        cols.append((idx - 1) % n)
        vals.append(cminus)
    else:
        up = np.minimum(idx + 1, n - 1)
        up[n - 1] = n - 2          # mirror ghost beyond the right endpoint
        cols[1] = up
        down = np.maximum(idx - 1, 0)
        down[0] = 1                # mirror ghost beyond the left endpoint
        rows.append(idx)
        cols.append(down)
        vals.append(cminus)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return A.tocsr()


def _assemble_2d_torus(grid: Grid, a: np.ndarray, b: np.ndarray,
                       r: np.ndarray, h: float) -> sp.csr_matrix:
    n = grid.n
    size = grid.size
    a11, a22, a12 = a[:, 0, 0], a[:, 1, 1], a[:, 0, 1]
    ap = np.abs(a12)
    slack = np.minimum(a11 - ap, a22 - ap)
    if np.min(slack) < 0:
        raise DegenerateDiffusion(
            "mixed derivative too strong for the monotone stencil: "
            f"need |a12| <= min(a11, a22), worst slack {np.min(slack):.3g}")

    h2 = 2.0 * h * h
    c1 = (a11 - ap) / h2
    c2 = (a22 - ap) / h2
    c1p = c1 + np.maximum(b[:, 0], 0.0) / h
    c1m = c1 + np.maximum(-b[:, 0], 0.0) / h
    c2p = c2 + np.maximum(b[:, 1], 0.0) / h
    c2m = c2 + np.maximum(-b[:, 1], 0.0) / h
    cpp = np.maximum(a12, 0.0) / h2    # (+1, +1) and (-1, -1) neighbors
    cpm = np.maximum(-a12, 0.0) / h2   # (+1, -1) and (-1, +1) neighbors
    center = r - (c1p + c1m + c2p + c2m + 2.0 * cpp + 2.0 * cpm)

    i, j = np.divmod(np.arange(size), n)

    def flat(di, dj):
        return ((i + di) % n) * n + (j + dj) % n

    rows, cols, vals = [], [], []

    def add(di, dj, coef):
        rows.append(np.arange(size))
        cols.append(flat(di, dj))
        vals.append(coef)

    add(0, 0, center)
    add(1, 0, c1p)
    add(-1, 0, c1m)
    add(0, 1, c2p)
    add(0, -1, c2m)
    add(1, 1, cpp)
    add(-1, -1, cpp)
    add(1, -1, cpm)
    add(-1, 1, cpm)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size))
    return A.tocsr()


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def apply_linear(gen: DiscreteGenerator, v: int, f: GridFunction) -> GridFunction:
    """Apply the frozen-control operator ``(L_v + diag(r_v)) f``."""
    if not 0 <= v < gen.n_controls:
        raise IndexError(f"control index {v} out of range [0, {gen.n_controls})")
    f = as_grid_function(gen.grid, f)
    return gen.mats[v] @ f


def _envelope(products: np.ndarray, size: int, sense: str,
              with_arg: bool = False):
    """Minimum over controls of stacked products such as ``stack @ f``
    (maximum for ``sense='maximize'``), and with ``with_arg`` the index
    attaining it, ties breaking low."""
    products = products.reshape(-1, size)
    if sense == MINIMIZE:
        best = products.min(axis=0)
        return (best, products.argmin(axis=0)) if with_arg else best
    best = products.max(axis=0)
    return (best, products.argmax(axis=0)) if with_arg else best


def apply_G(gen: DiscreteGenerator, f: GridFunction) -> GridFunction:
    """Pointwise envelope over controls of the per-control applications.

    Minimum over controls for ``sense='minimize'``, maximum otherwise.
    The per-control products are the same arrays :func:`apply_linear`
    produces, so ``apply_G(f) <= apply_linear(v, f)`` holds exactly.
    """
    f = as_grid_function(gen.grid, f)
    return _envelope(gen.stack @ f, gen.size, gen.sense)


def argmin_policy(gen: DiscreteGenerator, f: GridFunction) -> np.ndarray:
    """Per-node control index attaining the envelope; ties break low.

    For maximization problems this is the argmax of the same stack.
    """
    f = as_grid_function(gen.grid, f)
    return _envelope(gen.stack @ f, gen.size, gen.sense, with_arg=True)[1]
