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
every grid node, one bindings dict holding views of the state and control
buffers, and preallocated buffers that the step updates in place (the
dispersion matrix takes the entries that ``ProblemSpec.sigma_entries``
names).  A path's node is its state rounded to the grid, clipped (interval)
or wrapped (torus) on each axis.  The step computes the plain formula
``x + b dt + sqrt(dt) sigma dW`` with the same floating-point operations in
the same order, so its bits do not depend on the buffering.  A coefficient
without free variables, such as a constant ``sigma``, is evaluated at the
first step only.

Under a Markov policy a drift that reads the controls and nothing else,
such as ``b = v1``, is a function of the node as well.  The node table then
also holds each node's step ``(b + 0.0) dt``, evaluated once per chunk on the
node controls, and one gather per step fills both a path's control and its
step.  Where the table cannot be formed (an evaluation error, or a
floating-point event such as an overflow of ``b dt``), even at a node that
no path visits, the step evaluates the drift itself, as for a drift of the
state, so that every error keeps its type, its message and its step.  When
the policy puts one control vector (the same bits) at every node, the
gather runs at the first step only, and so does the evaluation of each
coefficient of the controls alone and, if no drift component varies, the
step ``b dt``.

The increments ``sqrt(dt) sigma dW`` are formed a block of ``_BLOCK`` steps
at a time when no ``sigma`` entry varies along the chunk: one generator call
fills the normals of the whole block, in the order single-step draws would
take them, and one pass multiplies them by ``sigma``.  That product is the
sum ``einsum`` forms, started from ``0.0`` and taken over the entries that
``ProblemSpec.sigma_entries`` names; a skipped structural zero adds a
signed zero to a sum that is never ``-0.0``, which changes no bit.  A
varying ``sigma`` runs the same code with a block of one step.  The wrap
modulo the period (the torus, and the mirror fold of the interval) is
numpy's remainder rule for a positive divisor written out: ``fmod``, add
the period where the result is negative, and add ``0.0`` to turn ``-0.0``
into ``+0.0``; it equals ``np.mod`` bit for bit without its division.

Determinism: paths are simulated in fixed-size chunks with
counter-derived per-chunk generator streams, and the final reduction runs
in chunk order, so results are bit-identical for a given master seed
regardless of the worker count.  ``NISIO_THREADS`` caps the worker pool
(speed only, never results).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvalError, NonFiniteState, ValidationError
from .expr import evaluate
from .generator import ProblemSpec
from .grid import INTERVAL

__all__ = ["McSettings", "McConfig", "McEstimate", "cost_samples",
           "simulate_cost", "policy_sweep"]

_CHUNK = 4096   # fixed so that chunk streams do not depend on worker count
_BLOCK = 32     # steps per draw of increments: 1.25 MB of buffers for 1024 2-D paths


@dataclass(frozen=True)
class McSettings:
    """Horizon ``T``, Euler step ``dt_sim``, ``N`` paths, master ``seed``
    and start point ``x0`` (``None``: the caller picks it) of a simulation.
    Checked in this order, each error naming its field: ``dt_sim`` positive
    and finite, ``N >= 100``, ``T`` finite and at least 10 steps,
    ``seed >= 0``, ``x0`` finite."""

    T: float = 20.0
    dt_sim: float = 1e-3
    N: int = 10_000
    seed: int = 0
    x0: tuple | None = None

    def __post_init__(self):
        if self.x0 is not None:
            object.__setattr__(self, "x0",
                               tuple(float(c) for c in np.atleast_1d(self.x0)))
        if not (self.dt_sim > 0 and math.isfinite(self.dt_sim)):
            raise ValidationError("dt_sim must be positive and finite",
                                  field="dt_sim")
        if not self.N >= 100:
            raise ValidationError("at least 100 paths required", field="N")
        if not (math.isfinite(self.T) and self.T >= 10 * self.dt_sim):
            raise ValidationError("horizon must be finite and cover at least "
                                  "10 steps", field="T")
        if not self.seed >= 0:
            raise ValidationError("seed must be nonnegative", field="seed")
        if self.x0 is not None and not all(map(math.isfinite, self.x0)):
            raise ValidationError("x0 must be finite", field="x0")


@dataclass(frozen=True)
class McConfig(McSettings):
    """The settings of one cost estimate, with ``x0`` given, and a
    ``policy`` that assigns a control index to every grid node; states
    look up their control at the nearest node.  Policy entries must be
    whole numbers (integral floats are accepted)."""

    policy: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        with np.errstate(invalid="ignore"):     # NaN and inf fail the test below
            policy = np.asarray(self.policy).astype(np.int64)
        if not np.array_equal(policy, self.policy):
            raise ValidationError("policy entries must be whole numbers",
                                  field="policy")
        object.__setattr__(self, "policy", policy)


@dataclass(frozen=True)
class McEstimate:
    """Log-mean-exp cost estimate with a delta-method standard error."""

    value: float
    stderr: float
    n_effective: float
    N: int
    T: float
    dt_sim: float


def _nearest_node(spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Flat index of the nearest grid node for each row of ``x``: each axis
    is clipped (interval) or wrapped (torus), then the axes are combined
    by Horner's rule, row-major."""
    grid = spec.grid
    idx = np.rint(x / grid.h).astype(np.int64)
    if grid.topology == INTERVAL:
        np.clip(idx, 0, grid.n - 1, out=idx)
    else:
        idx %= grid.n
    flat = idx[:, 0]
    for j in range(1, grid.d):
        flat = flat * grid.n + idx[:, j]
    return flat


def _fold(x: np.ndarray, period: float, out=None) -> np.ndarray:
    """``np.mod(x, period)`` bit for bit, for a positive ``period``."""
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


def _simulate_chunk(spec: ProblemSpec, cfg: McConfig, chunk_index: int,
                    n_paths: int, n_steps: int) -> np.ndarray:
    grid = spec.grid
    d = grid.d
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(chunk_index,)))
    dt = cfg.dt_sim
    sqrt_dt = math.sqrt(dt)
    node_controls = np.asarray(spec.controls, dtype=float)[cfg.policy]

    x = np.tile(np.asarray(cfg.x0, dtype=float), (n_paths, 1))

    # With one control vector at every node (same bits: -0.0 and +0.0
    # differ), v and every coefficient of the controls alone keep their
    # step-0 values.
    bits = node_controls.view(np.uint64)
    fixed = bool((bits == bits[0]).all())
    held = set(spec.control_bindings(node_controls)) if fixed else set()

    # A drift of the controls alone is a function of the node: its step
    # b dt joins the controls in one node table, and one gather fills both.
    # The table holds a row per column, so that every binding and the step
    # are contiguous.
    table = _drift_table(spec, node_controls, dt)
    tabulated = table is not None
    if not tabulated:
        table = np.ascontiguousarray(node_controls.T)
    row = np.empty((len(table), n_paths))
    v = row[:spec.m].T

    env = {**spec.x_bindings(x), **spec.control_bindings(v)}   # views of x, v
    acc = np.zeros(n_paths)
    r = np.empty(n_paths)
    r_dt = np.empty(n_paths)
    b = np.empty((n_paths, d))
    sig = np.zeros((n_paths, d, d))
    step = row[spec.m:].T if tabulated else np.empty((n_paths, d))

    # Coefficients in the order the step evaluates them, each with the
    # views its value fills; one whose free variables are all held is
    # evaluated at step 0 only.  Adding 0.0 turns -0.0 into +0.0, as the
    # zero bases of ``ProblemSpec.r_at``, ``b_at`` and ``sigma_at`` do.
    coefficients = [(spec.r, (r,))]
    if not tabulated:
        coefficients += [(e, (b[:, i],)) for i, e in enumerate(spec.b)]
    coefficients += [(e, tuple(sig[:, i, j] for i, j in places))
                     for e, places in spec.sigma_entries()]
    varying = [(e, outs) for e, outs in coefficients if e.variables() - held]
    drift_varies = any(e.variables() - held for e in spec.b)

    # Increments a block of steps at a time while sigma stays put.
    block = 1 if any(e.variables() - held for e in spec.sigma) else _BLOCK
    noise = np.empty((block, n_paths, d))
    diffusion = np.empty((block, n_paths, d))
    product = np.empty((block, n_paths))
    entries = {p for _, places in spec.sigma_entries() for p in places}
    rows = [[j for j in range(d) if (i, j) in entries] for i in range(d)]
    for k in range(n_steps):
        if k == 0 or not fixed:
            np.take(table, _nearest_node(spec, x), axis=1, out=row,
                    mode="clip")
        for e, outs in coefficients if k == 0 else varying:
            value = evaluate(e, env)
            for out in outs:
                np.add(value, 0.0, out=out)
        acc += np.multiply(r, dt, out=r_dt)
        if not tabulated and (k == 0 or drift_varies):
            np.multiply(b, dt, out=step)
        if k % block == 0:
            steps = min(block, n_steps - k)
            _increments(rng, sig, rows, sqrt_dt, noise[:steps],
                        diffusion[:steps], product[:steps])
        x += step
        x += diffusion[k % block]
        if not np.isfinite(x).all():
            raise NonFiniteState("simulated state left the finite range", step=k)
        if grid.topology == INTERVAL:
            np.copyto(x, _reflect_interval(x, grid.extent))
            if not (x.min() >= 0.0 and x.max() <= grid.extent):
                raise NonFiniteState(
                    "reflected state left [0, extent]", step=k)
        else:
            _fold(x, grid.extent, out=x)
    return acc


def _worker_count() -> int:
    raw = os.environ.get("NISIO_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def cost_samples(spec: ProblemSpec, cfg: McConfig) -> np.ndarray:
    """Per-path accumulated cost integrals ``A_p = sum_k r(x_k, v_k) dt``."""
    if cfg.policy.shape != (spec.grid.size,):
        raise ValidationError(
            f"policy must assign a control to each of {spec.grid.size} nodes")
    if np.min(cfg.policy) < 0 or np.max(cfg.policy) >= spec.n_controls:
        raise ValidationError("policy contains out-of-range control indices")
    if cfg.x0 is None or len(cfg.x0) != spec.grid.d:
        raise ValidationError(f"x0 needs {spec.grid.d} components")
    n_steps = int(round(cfg.T / cfg.dt_sim))
    chunks = [(c, min(_CHUNK, cfg.N - c * _CHUNK))
              for c in range((cfg.N + _CHUNK - 1) // _CHUNK)]

    workers = _worker_count()
    if workers == 1:
        parts = [_simulate_chunk(spec, cfg, c, npaths, n_steps)
                 for c, npaths in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_simulate_chunk, spec, cfg, c, npaths, n_steps)
                       for c, npaths in chunks]
            parts = [f.result() for f in futures]   # fixed chunk order
    return np.concatenate(parts)


def simulate_cost(spec: ProblemSpec, cfg: McConfig) -> McEstimate:
    """Estimate the risk-sensitive cost of ``cfg.policy`` by simulation.

    Returns ``(1/T) * log-mean-exp`` of the accumulated cost integrals
    over ``cfg.N`` paths (max-subtracted, so any ``|A| <= 700`` is safe),
    with the delta-method standard error of the log-mean.
    """
    return _log_mean_exp(cost_samples(spec, cfg), cfg)


def _log_mean_exp(a: np.ndarray, cfg: McConfig) -> McEstimate:
    """The estimate of :func:`simulate_cost` from the samples ``a``."""
    m = float(np.max(a))
    w = np.exp(a - m)
    mean_w = float(np.mean(w))
    value = (m + math.log(mean_w)) / cfg.T
    if cfg.N > 1:
        std_w = float(np.std(w, ddof=1))
        stderr = std_w / (math.sqrt(cfg.N) * mean_w * cfg.T)
    else:
        stderr = 0.0
    sum_w = float(np.sum(w))
    n_eff = sum_w * sum_w / float(np.sum(w * w))
    return McEstimate(value=value, stderr=stderr, n_effective=n_eff,
                      N=cfg.N, T=cfg.T, dt_sim=cfg.dt_sim)


def policy_sweep(spec: ProblemSpec, cfg: McConfig, policies) -> list[McEstimate]:
    """Estimate the cost of several policies with common random numbers.

    Every policy is simulated from the same master seed (identical noise
    per path), which makes ordered comparisons between policies sharp.
    """
    return [simulate_cost(spec, replace(cfg, policy=np.asarray(p, dtype=np.int64)))
            for p in policies]
