"""Fixed loops that measure how fast this machine runs the workloads' work.

On a shared virtual machine the same solve takes from 0.75x to 1.4x its
usual time, in spells of seconds to minutes: the CPU itself slows (steal
time stays near zero).  Medians within one run cannot remove a spell that
lasts the whole run, so next to every round the benchmark times a fixed
loop that does the same kind of work as the workload, written here without
any ``nisio`` code, and scales the round's time by ``REFERENCE_S / loop
time``.  A change to ``nisio`` moves the round and not the loop; a slow
spell moves both.

* ``cone_1d``: normalized power iteration of the min of two sparse
  tridiagonal Euler steps on 128 points, with a log-ratio stop statistic
  (the shape of the 1-D cone iteration).
* ``cone_2d``: the same with four 9-point stencils on a 48x48 torus.
* ``dense``: power iteration with a dense 128x128 matrix and a residual
  test (the Perron step of policy iteration).
* ``paths``: Euler-Maruyama steps of 1024 periodic paths with a
  nearest-node policy lookup and a cosine running cost walked as a tree.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
import scipy.sparse as sp


def _torus_stencil(n: int, d: int, seed: int, k: int) -> list:
    """``k`` Euler matrices ``I + dt L`` of random nonnegative stencils."""
    rng = np.random.default_rng(seed)
    size = n ** d
    idx = np.arange(size)
    if d == 1:
        shifts = [(idx + 1) % n, (idx - 1) % n]
    else:
        i, j = np.divmod(idx, n)
        shifts = [((i + a) % n) * n + (j + b) % n
                  for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1),
                               (1, 1), (-1, -1), (1, -1), (-1, 1))]
    mats = []
    for _ in range(k):
        coef = [rng.uniform(0.5, 1.0, size) for _ in shifts]
        rows = np.concatenate([idx] * (len(shifts) + 1))
        cols = np.concatenate([idx, *shifts])
        vals = np.concatenate([-sum(coef), *coef])
        lap = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
        dt = 0.9 / float(np.max(sum(coef)))
        mats.append((sp.identity(size, format="csr") + dt * lap).tocsr())
    return mats


def _cone(mats, iters: int) -> None:
    x = np.linspace(1.0, 2.0, mats[0].shape[0])
    kept = []
    for k in range(iters):
        y = np.min(np.stack([m @ x for m in mats]), axis=0)
        ratio = np.log(y / x)
        float(np.max(ratio) - np.min(ratio))
        x = y / np.max(y)
        if k % 16 == 0:
            kept.append(x.copy())


def _dense(q, iters: int) -> None:
    x = np.ones(q.shape[0])
    for _ in range(iters):
        y = q @ x
        lam = float(np.max(y / x))
        float(np.max(np.abs(y - lam * x)))
        x = y / np.max(y)


_OPS = {"+": np.add, "*": np.multiply, "-": np.subtract, "^": np.power}
# cos(2 pi (x - 0.3)) + 0.05 v^2 + 0.5 as a tree, walked like an expression
_COST = ("+", ("+", ("cos", ("*", 2 * math.pi, ("-", "x", 0.3))),
               ("*", 0.05, ("^", "v", 2.0))), 0.5)


def _walk(node, env):
    if isinstance(node, float):
        return node
    if isinstance(node, str):
        return env[node]
    if node[0] == "cos":
        return np.cos(_walk(node[1], env))
    return _OPS[node[0]](_walk(node[1], env), _walk(node[2], env))


def _paths(steps: int, n_paths: int = 1024, n: int = 64) -> None:
    rng = np.random.default_rng(0)
    policy = (np.arange(n) >= n // 2).astype(np.int64)
    controls = np.array([-1.0, 1.0])
    x = np.full((n_paths, 1), 0.5)
    acc = np.zeros(n_paths)
    dt = 1e-3
    for _ in range(steps):
        v = controls[policy[np.rint(x[:, 0] * n).astype(np.int64) % n]]
        env = {"x": x[:, 0], "v": v}
        acc += _walk(_COST, env) * dt
        drift = np.stack([_walk("v", env) + np.zeros(n_paths)], axis=-1)
        sig = np.ones((n_paths, 1, 1))
        noise = rng.standard_normal((n_paths, 1))
        x = x + drift * dt + math.sqrt(dt) * np.einsum("pij,pj->pi", sig, noise)
        if not np.isfinite(x).all():
            raise FloatingPointError("calibration path left the finite range")
        x = np.mod(x, 1.0)


_CONE_1D = _torus_stencil(128, 1, 0, 2)
_CONE_2D = _torus_stencil(48, 2, 1, 4)
_DENSE = 1.0 + np.random.default_rng(2).random((128, 128))

# workload -> (loop, median loop seconds on the reference machine: a 2-vCPU
# Intel Xeon VM at 2.1 GHz, numpy 2.4, one BLAS thread).  The reference
# only sets the scale of the reported seconds.
LOOPS = {
    "solve_1d": (lambda: _cone(_CONE_1D, 5000), 0.155),
    "solve_2d": (lambda: _cone(_CONE_2D, 1600), 0.196),
    "howard_dv_1d": (lambda: _dense(_DENSE, 9000), 0.133),
    "mc_sweep": (lambda: _paths(2400), 0.3),
}


def calibrate(workload: str) -> float:
    """Seconds the workload's fixed loop takes now."""
    loop, _ = LOOPS[workload]
    t0 = perf_counter()
    loop()
    return perf_counter() - t0


def reference_s(workload: str) -> float:
    return LOOPS[workload][1]
