"""Monte Carlo estimation of the exponential-of-integral cost.

Under a fixed Markov policy the risk-sensitive cost

    (1/T) log E[ exp( integral_0^T r(X_s, v(X_s)) ds ) ]

is estimated by Euler-Maruyama simulation of the state equation.  The
reflecting interval folds overshoots back through the boundary (the
standard mirror approximation of the boundary local time; in 1D the
co-normal direction is the outward normal, so mirroring is the correct
reflection), the torus wraps coordinates modulo the period.  The running
cost integral uses left-endpoint quadrature, matching the filtration
convention of the Euler step.

:class:`McSettings` holds a run's settings, defaults and checks; it is the
``mc`` section of a config, and :class:`McConfig` adds the policy.

Each chunk sets up its work once: a node table holding the control of
every grid node, preallocated buffers that the step updates in place (the
dispersion matrix takes the entries that ``ProblemSpec.sigma_entries``
names), and the bindings of every step, views of those buffers.  A path's
node is its state rounded to the grid, clipped (interval) or wrapped
(torus) on each axis.  On a line the gather itself clips or wraps the
rounded index (``np.take`` with ``mode="clip"`` or ``"wrap"``), and the
2-torus wraps both axes in ``np.ravel_multi_index``, so no step takes an
integer remainder.  The step computes the plain formula
``x + b dt + sqrt(dt) sigma dW`` with the same floating-point operations in
the same order, so its bits do not depend on the buffering.  A coefficient
without free variables, such as a constant ``sigma``, is evaluated at the
first step only.

The running cost never feeds back into the state, so each block of
``_BLOCK`` steps (the blocks of the increments, below) runs in two passes.
The state pass takes the steps one at a time without ``r``: the node
gather, the drift and ``sigma`` where they vary, ``x + step + dW``, the
finiteness and range checks, and the wrap or fold.  It writes each state
into a ``(block + 1, paths, d)`` buffer and, when ``r`` reads a control
under a varying policy, keeps each step's gathered node rows.  The cost
pass then evaluates ``r`` once on the ``(block, paths)`` bindings, forms
``(r + 0.0) dt``, and adds the rows to the running sums with one
``np.add.reduce`` over ``[acc; r_0 dt; r_1 dt; ...]``: numpy adds the rows
of an outer axis one after another, which has the bits of ``acc += r_k dt``
taken step by step (one path, whose column numpy would sum pairwise, adds
its rows one at a time).  An ``r`` without free variables is evaluated
once, at step 0.  A running sum that is not finite (``r dt`` or the sum
overflowed) raises :class:`NonFiniteState` at the first such step, and no
floating-point warning.
Errors keep their type, message and step.  A step evaluates ``r`` and adds
``r dt`` before it evaluates ``b`` and ``sigma`` and checks the state, so
the state pass stops at its first event, at step ``j`` (an
:class:`EvalError` of the drift or ``sigma``, a :class:`NonFiniteState`),
and raises it only after the cost pass over steps ``0..j`` has raised
nothing; an ``r`` that fails in a block raises the error of its first
failing step, after the running sums of the steps before it.

Under a Markov policy a drift that reads the controls and nothing else,
such as ``b = v1``, is a function of the node as well.  The node table then
also holds each node's step ``(b + 0.0) dt``, evaluated once per chunk on the
node controls, and one gather per step fills both a path's control and its
step.  Where the table cannot be formed (an evaluation error, or a
floating-point event such as an overflow of ``b dt``), even at a node that
no path visits, the step evaluates the drift itself, as for a drift of the
state, so that every error keeps its type, its message and its step.  When
the policy puts one control vector (the same bits) at every node, the
gather runs at the first step only; a coefficient of the controls alone
is still evaluated at every step, on the same bindings, which gives the
same bits and the same first error.

The increments ``sqrt(dt) sigma dW`` are formed a block of ``_BLOCK`` steps
at a time when no ``sigma`` entry varies along the chunk: one generator call
fills the normals of the whole block, in the order single-step draws would
take them, and one pass multiplies them by ``sigma``.  That product is the
sum ``einsum`` forms, started from ``0.0`` and taken over the entries that
``ProblemSpec.sigma_entries`` names; a skipped structural zero adds a
signed zero to a sum that is never ``-0.0``, which changes no bit.  A
varying ``sigma`` runs the same code with a block of one step.  The wrap
modulo the period (the torus, and the mirror fold of the interval) equals
``np.mod`` bit for bit without its division.  A unit period (the unit
torus, and the mirror of the interval of extent 0.5) takes ``x -
floor(x)``; any other period takes numpy's remainder rule for a positive
divisor written out: ``fmod``, add the period where the result is
negative, and add ``0.0`` to turn ``-0.0`` into ``+0.0``.

Determinism: paths are simulated in fixed-size chunks with
counter-derived per-chunk generator streams, and the final reduction runs
in chunk order, so results are bit-identical for a given master seed
regardless of the worker count.  ``NISIO_THREADS`` caps the worker pool
(speed only, never results).
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvalError, NonFiniteState, ValidationError
from .expr import evaluate
from .generator import ProblemSpec
from .grid import (INTERVAL, TORUS, _control_indices, _whole_number,
                   require_finite, require_positive_finite, require_shape)

__all__ = ["McSettings", "McConfig", "McEstimate", "cost_samples",
           "simulate_cost", "policy_sweep"]

_CHUNK = 4096   # fixed so that chunk streams do not depend on worker count
_BLOCK = 32     # steps per draw of increments and per evaluation of r
_TAKE_MODE = {INTERVAL: "clip", TORUS: "wrap"}  # resolves _nearest_node


@dataclass(frozen=True)
class McSettings:
    """Horizon ``T``, Euler step ``dt_sim``, ``N`` paths, master ``seed``
    and start point ``x0`` (``None``: the caller picks it) of a simulation.
    Checked in this order, each error naming its field: ``dt_sim`` positive
    and finite, ``N`` a whole number ``>= 100``, ``T`` finite and at least
    10 steps, ``seed`` a whole number ``>= 0``, ``x0`` finite.  An integral
    float ``N`` or ``seed`` is stored as an ``int``."""

    T: float = 20.0
    dt_sim: float = 1e-3
    N: int = 10_000
    seed: int = 0
    x0: tuple | None = None

    def __post_init__(self):
        if self.x0 is not None:
            object.__setattr__(self, "x0",
                               tuple(float(c) for c in np.atleast_1d(self.x0)))
        require_positive_finite(self.dt_sim, "dt_sim")
        object.__setattr__(self, "N", _whole_number(self.N, "N", least=100))
        if not (math.isfinite(self.T) and self.T >= 10 * self.dt_sim):
            raise ValidationError("horizon must be finite and cover at least "
                                  "10 steps", field="T")
        object.__setattr__(self, "seed",
                           _whole_number(self.seed, "seed", least=0))
        if self.x0 is not None:
            require_finite(self.x0, "x0", field="x0")


@dataclass(frozen=True)
class McConfig(McSettings):
    """The settings of one cost estimate, with ``x0`` given, and a
    ``policy`` that assigns a control index to every grid node; states
    look up their control at the nearest node.  Policy entries must be
    whole numbers (integral floats are accepted)."""

    policy: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "policy", _control_indices(self.policy))


@dataclass(frozen=True)
class McEstimate:
    """Log-mean-exp cost estimate with a delta-method standard error, over
    the simulated horizon ``T``: the step count times ``dt_sim``."""

    value: float
    stderr: float
    n_effective: float
    N: int
    T: float
    dt_sim: float


def _nearest_node(spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Index of the nearest grid node for each row of ``x``, which
    ``np.take(..., mode=_TAKE_MODE[topology])`` resolves to the node: the
    rounded index on a line (the take clips it on the interval and wraps it
    on the torus), and on the 2-torus the row-major flat index of the
    wrapped axes.  No integer remainder is taken on a line: a state in the
    domain rounds to an index in ``[0, n]``, and only ``n`` wraps."""
    grid = spec.grid
    idx = np.rint(x / grid.h).astype(np.int64)
    if grid.d == 1:
        return idx[:, 0]
    return np.ravel_multi_index((idx[:, 0], idx[:, 1]), (grid.n, grid.n),
                                mode="wrap")


def _fold(x: np.ndarray, period: float, out=None, whole=None) -> np.ndarray:
    """``np.mod(x, period)`` bit for bit, for a positive ``period``.

    A unit period takes ``x - floor(x)``, with ``floor(x)`` in ``whole``:
    ``floor`` is exact, the difference is the exact fractional part for
    ``x >= 0``, and for ``x < 0`` it is the one rounding of ``fmod(x, 1) +
    1`` that ``np.mod`` takes; an integer gives ``+0.0``.  Any other period
    takes numpy's remainder rule written out: ``fmod``, add the period where
    the result is negative, and add ``0.0`` to turn ``-0.0`` into ``+0.0``."""
    if period == 1.0:
        whole = np.floor(x, out=whole)
        return np.subtract(x, whole, out=out)
    out = np.fmod(x, period, out=out)
    np.add(out, period, out=out, where=out < 0)
    out += 0.0
    return out


def _reflect_interval(x: np.ndarray, extent: float) -> np.ndarray:
    """Fold positions back into [0, extent] (handles any overshoot)."""
    return extent - np.abs(_fold(x, 2.0 * extent) - extent)


def _increments(rng, sig, rows, sqrt_dt, noise, out, product) -> None:
    """Draw ``noise`` (steps x paths x d) and set ``out`` to ``sqrt(dt) sigma
    dW`` for each step; ``rows[i]`` lists the columns of the entries of row
    ``i`` of ``sig`` that are not structural zeros."""
    rng.standard_normal(out=noise)
    for i, row in enumerate(rows):
        out_i = out[..., i]
        np.multiply(sig[:, i, row[0]], noise[..., row[0]], out=out_i)
        out_i += 0.0                    # einsum's sum starts from 0.0
        for j in row[1:]:
            out_i += np.multiply(sig[:, i, j], noise[..., j], out=product)
    out *= sqrt_dt


def _drift_table(spec: ProblemSpec, node_controls: np.ndarray, dt: float):
    """The node table, one row per column of ``[v, (b + 0.0) * dt]`` and
    one column per node, when the drift reads the controls and nothing
    else, else ``None``.

    Each step row is formed with the operations the step applies to the
    gathered controls, so a gathered column has their bits.  A table that
    fails (an :class:`EvalError`, or any floating-point event in the
    product, overflow to a non-finite entry included) gives ``None`` too,
    even where no path goes: the step then evaluates the drift itself, and
    raises what it raises, at its own step."""
    m = spec.m
    table = np.empty((m + spec.grid.d, len(node_controls)))
    table[:m] = node_controls.T
    env = spec.control_bindings(table[:m].T)
    names = [e.variables() for e in spec.b]
    if not any(names) or not all(n <= env.keys() for n in names):
        return None
    try:
        with np.errstate(all="raise"):
            for i, e in enumerate(spec.b):
                column = table[m + i]
                np.add(evaluate(e, env), 0.0, out=column)
                np.multiply(column, dt, out=column)
    except (EvalError, FloatingPointError):
        return None
    return table


def _add_costs(costs, r, dt, start) -> None:
    """Add ``r_k dt = (r_k + 0.0) dt``, written to the rows ``costs[1:]``,
    to the running sums ``costs[0]`` step by step.  Raise
    :class:`NonFiniteState` at the first step, counted from ``start``,
    whose running sum is not finite (so is every later one), and leave
    ``costs[0]`` as it was."""
    r_dt = costs[1:]
    total = np.empty_like(costs[0])
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(r, 0.0, out=r_dt)
        r_dt *= dt
        # numpy adds the rows of an outer axis one after another, but sums
        # a single column pairwise; one row is added directly
        if len(total) > 1 and len(r_dt) > 1:
            np.add.reduce(costs, axis=0, out=total)
        else:
            np.copyto(total, costs[0])
            for c in r_dt:
                total += c
        if np.isfinite(total).all():
            costs[0] = total
            return
        sums = np.add.accumulate(costs, axis=0)     # the running sums
    first = int(np.argmin(np.isfinite(sums).all(axis=1))) - 1
    raise NonFiniteState("running cost left the finite range",
                         step=start + first)


def _simulate_chunk(spec: ProblemSpec, cfg: McConfig, chunk_index: int,
                    n_paths: int, n_steps: int) -> np.ndarray:
    grid = spec.grid
    d = grid.d
    m = spec.m
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(chunk_index,)))
    dt = cfg.dt_sim
    sqrt_dt = math.sqrt(dt)
    node_controls = np.asarray(spec.controls, dtype=float)[cfg.policy]

    # With one control vector at every node (same bits: -0.0 and +0.0
    # differ), v keeps its step-0 value.
    bits = node_controls.view(np.uint64)
    fixed = bool((bits == bits[0]).all())

    # A drift of the controls alone is a function of the node: its step
    # b dt joins the controls in one node table, and one gather fills both.
    # The table holds a row per column, so that every binding and the step
    # are contiguous.
    table = _drift_table(spec, node_controls, dt)
    tabulated = table is not None
    if not tabulated:
        table = np.ascontiguousarray(node_controls.T)

    # Increments a block of steps at a time while sigma stays put.
    block = 1 if any(e.variables() for e in spec.sigma) else _BLOCK
    # The state pass writes the states of a block into ``states``, from the
    # carried state in row 0, and the gathered node rows into ``rows``: one
    # per step where r reads a control that varies, else one for all.
    controls = set(spec.control_bindings(node_controls))
    keep = not fixed and bool(spec.r.variables() & controls)
    states = np.empty((block + 1, n_paths, d))
    states[0] = cfg.x0
    rows = np.empty((block if keep else 1, len(table), n_paths))
    costs = np.zeros((block + 1, n_paths))     # [acc; r_0 dt; r_1 dt; ...]
    acc = costs[0]
    b = np.empty((n_paths, d))
    sig = np.zeros((n_paths, d, d))
    if tabulated:
        steps = [row[m:].T for row in rows]
    else:
        steps = [np.empty((n_paths, d))] * len(rows)
    # the bindings of each step of a block, views of its state and row
    envs = [{**spec.x_bindings(states[j]),
             **spec.control_bindings(rows[j % len(rows), :m].T)}
            for j in range(block)]

    def cost_env(n):
        """The bindings of r over steps 0..n-1 of a block."""
        v = rows[:n, :m] if keep else rows[0, :m]
        return {**spec.x_bindings(states[:n]),
                **spec.control_bindings(v.swapaxes(-2, -1))}

    # The coefficients of the state pass, in the order the step evaluates
    # them, each with the views its value fills; one without free variables
    # is evaluated at step 0 only.  Adding 0.0 turns -0.0 into +0.0, as the
    # zero bases of ``ProblemSpec.r_at``, ``b_at`` and ``sigma_at`` do.
    coefficients = [] if tabulated else [(e, (b[:, i],))
                                         for i, e in enumerate(spec.b)]
    coefficients += [(e, tuple(sig[:, i, j] for i, j in places))
                     for e, places in spec.sigma_entries()]
    varying = [(e, outs) for e, outs in coefficients if e.variables()]
    drift_varies = any(e.variables() for e in spec.b)
    r_varies = bool(spec.r.variables())
    full_env = cost_env(block)

    noise = np.empty((block, n_paths, d))
    diffusion = np.empty((block, n_paths, d))
    product = np.empty((block, n_paths))
    whole = np.empty((n_paths, d))
    mode = _TAKE_MODE[grid.topology]
    entries = {p for _, places in spec.sigma_entries() for p in places}
    sigma_rows = [[j for j in range(d) if (i, j) in entries] for i in range(d)]
    for start in range(0, n_steps, block):
        count = min(block, n_steps - start)
        # State pass: the step without r.  It stops at its first event, at
        # step j; ``done`` counts the steps whose r the step-by-step order
        # evaluates before it (r follows the gather).
        event, done = None, 0
        try:
            for j in range(count):
                k = start + j
                row, step = rows[j % len(rows)], steps[j % len(rows)]
                x, y = states[j], states[j + 1]
                if k == 0 or not fixed:
                    np.take(table, _nearest_node(spec, x), axis=1, out=row,
                            mode=mode)
                done = j + 1
                for e, outs in coefficients if k == 0 else varying:
                    value = evaluate(e, envs[j])
                    for out in outs:
                        np.add(value, 0.0, out=out)
                if not tabulated and (k == 0 or drift_varies):
                    np.multiply(b, dt, out=step)
                if j == 0:
                    _increments(rng, sig, sigma_rows, sqrt_dt, noise[:count],
                                diffusion[:count], product[:count])
                np.add(x, step, out=y)
                y += diffusion[j]
                if not np.isfinite(y).all():
                    raise NonFiniteState("simulated state left the finite range",
                                         step=k)
                if grid.topology == INTERVAL:
                    np.copyto(y, _reflect_interval(y, grid.extent))
                    if not (y.min() >= 0.0 and y.max() <= grid.extent):
                        raise NonFiniteState(
                            "reflected state left [0, extent]", step=k)
                else:
                    _fold(y, grid.extent, out=y, whole=whole)
        except Exception as exc:    # raised after the costs of steps 0..j
            event = exc
        # Cost pass: r over the steps done, once; a constant r at step 0 only.
        if done and (start == 0 or r_varies):
            try:
                r = evaluate(spec.r, full_env if done == block
                             else cost_env(done))
            except EvalError:
                # step by step: the first failing step's error takes the
                # place of any later event, after the costs of the steps
                # before it
                for j, env in enumerate(envs[:done]):
                    try:
                        np.add(evaluate(spec.r, env), 0.0, out=costs[j + 1])
                    except EvalError as exc:
                        done, event = j, exc
                        break
                r = costs[1:done + 1]
        if done:
            _add_costs(costs[:done + 1], r, dt, start)
        if event is not None:
            raise event
        states[0] = states[count]
    return acc.copy()


def _worker_count() -> int:
    """``NISIO_THREADS``, a positive integer; 1 when it is unset."""
    raw = os.environ.get("NISIO_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValidationError(
            f"NISIO_THREADS must be a positive integer, got {raw!r}",
            field="NISIO_THREADS")
    return workers


def _check_start(grid, x0) -> None:
    """``x0`` has a coordinate per axis of ``grid``, each in ``[0, extent]``."""
    require_shape(x0, (grid.d,), "x0", field="x0")
    if not all(0.0 <= c <= grid.extent for c in x0):
        raise ValidationError(
            f"x0 {x0} lies outside the domain [0, {grid.extent}]", field="x0")


def _step_count(cfg: McSettings) -> int:
    """The number of Euler steps simulated, ``T / dt_sim`` rounded."""
    return int(round(cfg.T / cfg.dt_sim))


def cost_samples(spec: ProblemSpec, cfg: McConfig) -> np.ndarray:
    """Per-path accumulated cost integrals ``A_p = sum_k r(x_k, v_k) dt``.

    A ``cfg.policy`` without one index per node, or an ``x0`` without one
    coordinate per axis, raises :class:`ValidationError`, and an index
    outside ``[0, spec.n_controls)`` :class:`ControlOutOfRange`, each
    naming its field."""
    require_shape(cfg.policy, (spec.grid.size,), "policy", field="policy")
    _control_indices(cfg.policy, spec.n_controls)
    _check_start(spec.grid, cfg.x0)
    n_steps = _step_count(cfg)
    chunks = [(c, min(_CHUNK, cfg.N - c * _CHUNK))
              for c in range((cfg.N + _CHUNK - 1) // _CHUNK)]

    workers = _worker_count()
    if workers == 1:
        parts = [_simulate_chunk(spec, cfg, c, npaths, n_steps)
                 for c, npaths in chunks]
    else:
        # each chunk runs in a copy of the caller's context, so that the
        # workers see its numpy error state
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(contextvars.copy_context().run,
                                   _simulate_chunk, spec, cfg, c, npaths,
                                   n_steps)
                       for c, npaths in chunks]
            parts = [f.result() for f in futures]   # fixed chunk order
    return np.concatenate(parts)


def simulate_cost(spec: ProblemSpec, cfg: McConfig) -> McEstimate:
    """Estimate the risk-sensitive cost of ``cfg.policy`` by simulation.

    Returns ``(1/T) * log-mean-exp`` of the accumulated cost integrals
    over ``cfg.N`` paths (max-subtracted, so any ``|A| <= 700`` is safe),
    with the delta-method standard error of the log-mean.  ``T`` is the
    simulated horizon, the step count times ``dt_sim``.
    """
    return _log_mean_exp(cost_samples(spec, cfg), cfg)


def _log_mean_exp(a: np.ndarray, cfg: McConfig) -> McEstimate:
    """The estimate of :func:`simulate_cost` from the samples ``a``."""
    T = _step_count(cfg) * cfg.dt_sim
    m = float(np.max(a))
    w = np.exp(a - m)
    mean_w = float(np.mean(w))
    value = (m + math.log(mean_w)) / T
    if cfg.N > 1:
        std_w = float(np.std(w, ddof=1))
        stderr = std_w / (math.sqrt(cfg.N) * mean_w * T)
    else:
        stderr = 0.0
    sum_w = float(np.sum(w))
    n_eff = sum_w * sum_w / float(np.sum(w * w))
    return McEstimate(value=value, stderr=stderr, n_effective=n_eff,
                      N=cfg.N, T=T, dt_sim=cfg.dt_sim)


def policy_sweep(spec: ProblemSpec, cfg: McConfig, policies) -> list[McEstimate]:
    """Estimate the cost of several policies with common random numbers.

    Every policy is simulated from the same master seed (identical noise
    per path), which makes ordered comparisons between policies sharp.
    """
    return [simulate_cost(spec, replace(cfg, policy=np.asarray(p, dtype=np.int64)))
            for p in policies]
