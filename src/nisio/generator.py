"""Monotone upwind discretization of the controlled generator family.

For each control value ``v`` the operator

    (L_v f)(x) = 1/2 trace(a(x) D^2 f(x)) + <b(x, v), grad f(x)>

is discretized with central second differences for the diffusion part and
first-order upwind differences for the drift (direction chosen per node by
the sign of each drift component), which keeps every off-diagonal entry of
the resulting matrix nonnegative.  Together with the explicit-Euler step
bound ``dt_max``, read from the assembled rows, this Metzler structure
makes positivity, monotonicity and the envelope inequality of the induced
semigroup hold exactly, not just up to discretization error.

One assembler serves the interval, the circle and the 2-torus: it loops
over the axes and takes every neighbour from :meth:`Grid.neighbour`, the
grid's single boundary rule (wrap on the torus, mirror ghost node on the
reflecting interval).  On the 2-torus a mixed second derivative is
discretized with the sign-split seven-point stencil, which is monotone
exactly when the diffusion matrix is pointwise diagonally dominant,
|a12| <= min(a11, a22); this is validated at build time.

The control family is stored once, as the CSR stack ``vstack(A_v)``.  The
envelope operator ``(G f)(x) = min_v (L_v + r_v) f(x)`` (``max_v`` for
maximization problems) is one product ``stack @ f`` reduced over controls
by :func:`_envelope`; CSR row blocks keep each row's entry order, so this
is bitwise the envelope of the separate products ``A_v @ f``.  Repeated
products, such as Euler steps, go through one map, :func:`_envelope_map`:
it steps a batch of iterates, one row each with its own sense, by scipy's
CSR kernel on buffers of its own, with one product over block-diagonal
copies of the stack while the stack is small, and every row has the bits
of :func:`_envelope` on its own product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateDiffusion,
    EvalError,
    NonFiniteCoefficient,
    UnboundVariable,
    ValidationError,
)
from .expr import MAX_DEPTH, Expr, _walk, evaluate, parse
from .grid import (Grid, GridFunction, _control_indices, as_grid_function,
                   require_finite, require_shape)

__all__ = [
    "ProblemSpec",
    "DiscreteGenerator",
    "build_generator",
    "apply_G",
    "argmin_policy",
]

MAX_CONTROLS = 64
MINIMIZE = "minimize"
MAXIMIZE = "maximize"


def _check_sense(sense) -> None:
    if sense not in (MINIMIZE, MAXIMIZE):
        raise ValidationError("sense must be 'minimize' or 'maximize'",
                              field="sense")


def _as_expr(e, field: str) -> Expr:
    """Source text parsed, or a tree checked against the depth bound that
    :func:`parse` enforces, else :class:`ValidationError` naming ``field``."""
    if not isinstance(e, Expr):
        return parse(e)
    if any(depth > MAX_DEPTH for _, depth in _walk(e)):
        raise ValidationError(
            f"expression nested more than {MAX_DEPTH} levels deep", field=field)
    return e


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
        sigma = tuple(_as_expr(e, "sigma") for e in self.sigma)
        object.__setattr__(self, "sigma", sigma)
        b = tuple(_as_expr(e, "b") for e in self.b)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", _as_expr(self.r, "r"))
        # each error names its field, which config.loads maps to a line
        if not controls:
            raise ValidationError("control set must be nonempty",
                                  field="controls")
        if len(controls) > MAX_CONTROLS:
            raise ValidationError(
                f"control set size {len(controls)} exceeds {MAX_CONTROLS}",
                field="controls")
        m = len(controls[0])
        if any(len(v) != m for v in controls):
            raise ValidationError("all control vectors must have equal length",
                                  field="controls")
        require_finite(controls, "control set", field="controls")
        if len(sigma) not in (1, d * d):
            raise ValidationError(
                f"sigma needs 1 (scalar, meaning sigma*I) or {d*d} expressions",
                field="sigma")
        if len(b) != d:
            raise ValidationError(f"b needs {d} component expressions",
                                  field="b")
        _check_sense(self.sense)
        if not (self.eps_a > 0):
            raise ValidationError("eps_a must be positive", field="eps_a")
        allowed = {f"x{i+1}" for i in range(d)}
        for e in sigma:
            extra = e.variables() - allowed
            if extra:
                raise ValidationError(
                    f"sigma may only depend on {sorted(allowed)}, found {sorted(extra)}",
                    field="sigma")
        allowed |= {f"v{i+1}" for i in range(m)}
        for name, e in [("b", e) for e in b] + [("r", self.r)]:
            extra = e.variables() - allowed
            if extra:
                raise ValidationError(
                    f"coefficient may only depend on {sorted(allowed)}, found {sorted(extra)}",
                    field=name)

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

    Immutable after construction (the only internal mutable state is the
    Euler stack of the latest time step).  ``stack`` is the CSR
    matrix ``vstack(A_v)`` of shape ``(n_controls * size, size)``; its
    row block ``v`` is ``A_v``, with nonnegative off-diagonal entries and
    row sums equal to ``r_v`` up to rounding.  ``dt_max`` is the longest
    Euler step for which every ``I + dt L_v`` is a Markov-chain step and
    every ``I + dt A_v`` is entrywise nonnegative:
    ``min(1 / max q_v, 1 / max(-diag A_v))``, with ``q_v`` the
    off-diagonal row sum of ``A_v``.  A frozen policy is a generator with
    one control, :meth:`frozen`.  A ``sense`` other than ``"minimize"``
    and ``"maximize"`` raises :class:`ValidationError` naming ``sense``.
    """

    grid: Grid
    stack: sp.csr_matrix
    r_tables: np.ndarray      # (n_controls, size)
    a_table: np.ndarray       # (size, d, d)
    dt_max: float
    sense: str = MINIMIZE
    _step_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        _check_sense(self.sense)

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
        """A view of the same discrete operators with the envelope of
        ``sense``; the view shares this generator's Euler stack.  A bad
        ``sense`` raises as the constructor does."""
        return replace(self, sense=sense)

    def frozen(self, policy) -> "DiscreteGenerator":
        """The one-control generator of the frozen policy ``u``, one control
        index or one per node: row ``x`` of its ``stack`` is row ``x`` of
        ``A_{u(x)}``, its cost ``r_{u(x)}(x)``.  Grid, sense and the
        family's ``dt_max`` carry over (the frozen evolution steps at the
        family's bound); the Euler stack is its own.  ``apply_G`` and
        ``evolve`` on it give ``A_u f`` and the frozen-control evolution,
        which dominate the envelope's.  A policy that is neither one index
        nor one per node, or an entry that is not a whole number (integral
        floats are accepted), raises :class:`ValidationError`, and an index
        outside ``[0, n_controls)`` :class:`ControlOutOfRange`, also an
        :class:`IndexError`; each names ``policy``."""
        n = self.size
        if np.ndim(policy):
            require_shape(policy, (n,), "policy", field="policy")
        u = _control_indices(policy, self.n_controls)
        nodes = np.arange(n)
        return DiscreteGenerator(
            grid=self.grid, stack=self.stack[u * n + nodes],
            r_tables=self.r_tables[u, nodes][None], a_table=self.a_table,
            dt_max=self.dt_max, sense=self.sense)

    def step_stack(self, dt: float) -> sp.csr_matrix:
        """Stacked Euler step matrices ``vstack(I + dt A_v)``.  The stack of
        the latest ``dt`` is kept, so repeated steps of one size build it
        once."""
        key = float(dt)
        stack = self._step_cache.get(key)
        if stack is None:
            eye = sp.identity(self.size, format="csr")
            stack = sp.vstack([eye] * self.n_controls) + dt * self.stack
            self._step_cache.clear()
            self._step_cache[key] = stack
        return stack

    def step_matrices(self, dt: float) -> tuple:
        """Euler step matrices ``I + dt A_v``, the row blocks of :meth:`step_stack`."""
        n, stack = self.size, self.step_stack(dt)
        return tuple(stack[v * n:(v + 1) * n] for v in range(self.n_controls))


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

    mats, q_max = _assemble(grid, a, b, r)

    # The step bound, read from the stencil: I + dt L_v is a Markov-chain
    # step while dt <= 1/max q_v, q_v being the off-diagonal row sum (the
    # jump rate) of L_v, and I + dt A_v is entrywise nonnegative while
    # dt <= 1/max(-diag A_v).
    dt_cap = 1.0 / q_max
    diag_min = min(float(A.diagonal().min()) for A in mats)
    if diag_min < 0:
        dt_cap = min(dt_cap, 1.0 / (-diag_min))

    return DiscreteGenerator(
        grid=grid, stack=sp.vstack(mats, format="csr"),
        r_tables=r, a_table=a, dt_max=dt_cap, sense=spec.sense)


def _assemble(grid: Grid, a: np.ndarray, b: np.ndarray,
              r: np.ndarray) -> tuple:
    """Upwind stencil matrices ``A_v = L_v + diag(r_v)``, one per control,
    and the largest jump rate ``max_{v,x} q_v(x)``.

    Per axis ``k``: central diffusion ``(a_kk - |a12|) / (2 h^2)`` (the
    ``|a12|`` term is 0 in 1D) plus the upwind drift, toward the ``+1``
    and ``-1`` neighbours.  On the 2-torus the sign-split mixed term adds
    the diagonal neighbours.  Neighbours come from :meth:`Grid.neighbour`.
    The jump rate ``q_v(x)`` is the sum of row ``x``'s off-diagonal
    entries, so the diagonal of ``L_v`` is ``-q_v``.
    """
    d, h, size = grid.d, grid.h, grid.size
    h2 = 2.0 * h * h
    a12 = a[:, 0, 1] if d == 2 else 0.0
    ap = np.abs(a12)
    slack = np.min([a[:, k, k] - ap for k in range(d)])
    if slack < 0:
        raise DegenerateDiffusion(
            "mixed derivative too strong for the monotone stencil: "
            f"need |a12| <= min(a11, a22), worst slack {slack:.3g}")
    diffusion = [(a[:, k, k] - ap) / h2 for k in range(d)]
    units = np.eye(d, dtype=int)
    offsets = [off for k in range(d) for off in (units[k], -units[k])]
    if d == 2:
        cpp = np.maximum(a12, 0.0) / h2    # (+1, +1) and (-1, -1) neighbors
        cpm = np.maximum(-a12, 0.0) / h2   # (+1, -1) and (-1, +1) neighbors
        offsets += [(1, 1), (-1, -1), (1, -1), (-1, 1)]
    nodes = np.arange(size)
    rows = np.tile(nodes, len(offsets) + 1)
    cols = np.concatenate([nodes, *(grid.neighbour(off) for off in offsets)])

    mats, q_max = [], 0.0
    for bv, rv in zip(b, r):
        coefs = []
        for k in range(d):
            coefs.append(diffusion[k] + np.maximum(bv[:, k], 0.0) / h)
            coefs.append(diffusion[k] + np.maximum(-bv[:, k], 0.0) / h)
        total = coefs[0]
        for c in coefs[1:]:
            total = total + c
        if d == 2:
            total = total + 2.0 * cpp + 2.0 * cpm
            coefs += [cpp, cpp, cpm, cpm]
        q_max = max(q_max, float(total.max()))
        A = sp.coo_matrix((np.concatenate([rv - total, *coefs]), (rows, cols)),
                          shape=(size, size))
        mats.append(A.tocsr())
    return mats, q_max


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def _matmul_kernel(n_row, n_col, indptr, indices, data, x, y):
    """The signature and effect of scipy's CSR kernel, ``y += A @ x`` for
    the CSR arrays of ``A``, through ``@``: the stand-in where the kernel
    cannot be imported.  ``@`` runs that kernel on a fresh zeroed array,
    so on a zeroed ``y`` the sum has the kernel's bits."""
    a = sp.csr_matrix((data, indices, indptr), shape=(n_row, n_col))
    y += a @ np.ravel(x)


try:    # the kernel behind ``csr @ vector``; private, so it may move
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:
    _csr_matvec = _matmul_kernel


# Largest step stack, in nonzeros, that :func:`_envelope_map` copies into
# one block-diagonal product for a batch of several rows.  For two orbits
# on a 2-vCPU host the copies saved call overhead up to 45k nonzeros (the
# 2-torus at n = 40).  At 64k (n = 48) they measured no faster than one
# product per row, and they added about 2 MB to the peak resident memory
# of a solve.
_BLOCK_NNZ = 2 ** 15


def _envelope_map(stack: sp.csr_matrix, size: int, senses):
    """``g -> y`` for repeated envelope products of a ``(B, size)`` batch,
    ``B = len(senses)``: row ``j`` of ``y`` is ``_envelope(stack @ g[j],
    size, senses[j])`` to the bit.  ``y`` is a buffer of the returned
    function's own, never the product buffer, so it may be fed back as the
    next argument; the next call overwrites it.  A ``g`` of any shape but
    ``(B, size)`` raises ``ValueError`` before any product, since the
    kernel reads its argument unchecked.

    The products go through scipy's CSR kernel on a zeroed buffer, as
    ``@`` computes them on a fresh zeroed array, so they have its bits
    without its per-call dispatch.  For one row the kernel runs on the
    stack's own arrays.  For several, up to ``_BLOCK_NNZ`` nonzeros, it
    runs once over ``B`` block-diagonal copies of the stack: row ``r`` of
    copy ``j`` holds the entries of row ``r`` in their order, its columns
    shifted by ``j * size``, so the kernel sums the products of row ``r``
    with ``g[j]`` in the order of the single product.  Larger stacks take
    one product per row.  Each row's products are then reduced over
    controls by the chain of :func:`_reduce_blocks`.
    """
    y = np.empty((len(senses), size))
    shape, kernel = y.shape, _csr_matvec
    copies, (rows, cols), nnz = len(senses), stack.shape, stack.nnz
    indptr, indices, data = stack.indptr, stack.indices, stack.data
    if copies == 1 or nnz <= _BLOCK_NNZ:
        if copies > 1:
            indptr = np.concatenate([indptr[:-1] + j * nnz
                                     for j in range(copies)]
                                    + [indptr[-1:] + (copies - 1) * nnz])
            indices = np.concatenate([indices + j * cols
                                      for j in range(copies)])
            data = np.tile(data, copies)
        products = np.empty(copies * rows)
        reducers = [_reduce_blocks(products[j * rows:(j + 1) * rows], size,
                                   sense, row)
                    for j, (sense, row) in enumerate(zip(senses, y))]
        block_rows, block_cols = copies * rows, copies * cols

        def block_diagonal(g):
            if g.shape != shape:
                raise _batch_shape_error(g, shape)
            products.fill(0.0)
            kernel(block_rows, block_cols, indptr, indices, data, g, products)
            for reduce in reducers:
                reduce()
            return y
        return block_diagonal

    products = np.empty((copies, rows))
    reducers = [_reduce_blocks(p, size, sense, row)
                for p, sense, row in zip(products, senses, y)]

    def each_row(g):
        if g.shape != shape:
            raise _batch_shape_error(g, shape)
        products.fill(0.0)
        for x, p in zip(g, products):
            kernel(rows, cols, indptr, indices, data, x, p)
        for reduce in reducers:
            reduce()
        return y
    return each_row


def _reduce_blocks(products: np.ndarray, size: int, sense: str,
                   out: np.ndarray):
    """A function that writes the envelope of the ``size``-long blocks of
    ``products`` into ``out``, bitwise ``_envelope(products, size, sense)``.

    A chain of binary ``np.minimum`` (``np.maximum``) runs over
    precomputed views of the blocks.  numpy reduces an outer axis by that
    same binary loop, row after row, so the chain has the bits of the
    axis-0 reduction in :func:`_envelope`, signed zeros and NaNs included.
    """
    blocks = [products[i:i + size] for i in range(0, len(products), size)]
    if len(blocks) == 1:
        return functools.partial(np.copyto, out, blocks[0])
    first, second, tail = blocks[0], blocks[1], blocks[2:]
    op = np.minimum if sense == MINIMIZE else np.maximum

    def reduce():
        op(first, second, out=out)
        for block in tail:
            op(out, block, out=out)
    return reduce


def _batch_shape_error(g, shape) -> ValueError:
    return ValueError(f"dimension mismatch: a batch of shape {g.shape}, "
                      f"not {shape}")


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
    On the one-control generator ``gen.frozen(v)`` this is the
    frozen-control operator ``(L_v + diag(r_v)) f``; its products are rows
    of the same ``stack @ f``, so ``apply_G(gen, f) <= apply_G(gen.frozen(v),
    f)`` holds exactly.
    """
    f = as_grid_function(gen.grid, f)
    return _envelope(gen.stack @ f, gen.size, gen.sense)


def argmin_policy(gen: DiscreteGenerator, f: GridFunction) -> np.ndarray:
    """Per-node control index attaining the envelope; ties break low.

    For maximization problems this is the argmax of the same stack.
    """
    f = as_grid_function(gen.grid, f)
    return _envelope(gen.stack @ f, gen.size, gen.sense, with_arg=True)[1]
