"""Reference computations that share no code with ``nisio``.

Every problem the benchmark runs is given once, as the config strings the
program reads.  This module evaluates those strings with Python's own
parser on numpy arrays (``^`` becomes ``**``), assembles the monotone
upwind stencil from the formulas in the library README, and computes
eigenvalues with LAPACK.  The checks in :mod:`workloads` compare the
program's outputs against these numbers.

The operator is applied in difference form,
``(A f)_i = sum_k c_k (f_{nbr_k} - f_i) + r_i f_i``, so that the large
diffusion coefficients (about ``1/h^2``) multiply small differences.  A
Collatz-Weilandt band computed this way is accurate to a few ulps of the
terms, and :func:`cw_band` returns that rounding bound with the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps


def _split(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def formula(text: str, **env):
    """Evaluate a config expression string with numpy, not with nisio.expr."""
    names = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
             "abs": np.abs, "tanh": np.tanh, "min": np.minimum,
             "max": np.maximum, "pi": math.pi, "e": math.e}
    return eval(text.replace("^", "**"), {"__builtins__": {}}, {**names, **env})


@dataclass(frozen=True)
class Problem:
    """A torus problem as the config strings the program reads."""

    d: int
    n: int
    controls: str
    sigma: str
    b: str
    r: str
    sense: str = "minimize"

    def config_text(self) -> str:
        return "\n".join([
            "problem.topology = torus",
            f"problem.d = {self.d}",
            f"problem.n = {self.n}",
            f"problem.controls = {self.controls}",
            f'problem.sigma = "{self.sigma}"',
            f'problem.b = "{self.b}"',
            f'problem.r = "{self.r}"',
            f"problem.sense = {self.sense}",
        ]) + "\n"

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def control_list(self) -> list[tuple[float, ...]]:
        return [tuple(float(c) for c in _split(v, ","))
                for v in _split(self.controls, ";")]

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape ``(n**d, d)``, row-major."""
        c = self.h * np.arange(self.n)
        if self.d == 1:
            return c[:, None]
        return np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)


@dataclass(frozen=True)
class Stencil:
    """Neighbour offsets and per-control coefficients of ``A_v``.

    ``nbr[k]`` is the index array of the k-th neighbour of every node,
    ``coef[v, k]`` its coefficient under control ``v`` and ``r[v]`` the
    running cost.  The diagonal is ``r - sum_k coef``.
    """

    nbr: np.ndarray       # (K, N) int
    coef: np.ndarray      # (V, K, N)
    r: np.ndarray         # (V, N)
    sense: str

    @property
    def size(self) -> int:
        return self.r.shape[1]

    def apply(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``A_v f`` for every control, and a bound on its rounding error."""
        diff = f[self.nbr] - f                      # (K, N)
        terms = self.coef * diff                    # (V, K, N)
        out = terms.sum(axis=1) + self.r * f
        mag = np.abs(terms).sum(axis=1) + np.abs(self.r * f)
        # differences and products are exact to 1 ulp; the sum adds K+1
        # roundings of at most its running magnitude
        err = (self.nbr.shape[0] + 3) * EPS * mag + 2 * EPS * np.abs(
            self.coef).sum(axis=1) * np.abs(f)
        return out, err

    def envelope(self, f: np.ndarray):
        """``G f`` (min or max over controls) with its rounding bound."""
        out, err = self.apply(f)
        pick = np.argmin if self.sense == "minimize" else np.argmax
        idx = pick(out, axis=0)
        cols = np.arange(self.size)
        return out[idx, cols], err.max(axis=0)

    def dense(self, policy) -> np.ndarray:
        """Dense ``A_u`` with row ``i`` taken from control ``policy[i]``."""
        policy = np.broadcast_to(np.asarray(policy), (self.size,))
        rows = np.arange(self.size)
        coef = self.coef[policy, :, rows]           # (N, K)
        a = np.zeros((self.size, self.size))
        for k in range(self.nbr.shape[0]):
            np.add.at(a, (rows, self.nbr[k]), coef[:, k])
        a[rows, rows] += self.r[policy, rows] - coef.sum(axis=1)
        return a


def stencil(p: Problem) -> Stencil:
    """Upwind drift, central diffusion, periodic wrap; sign-split mixed term
    on the 2-torus."""
    x = p.nodes()
    env = {f"x{i + 1}": x[:, i] for i in range(p.d)}
    zero = np.zeros(len(x))
    sig = [formula(s, **env) + zero
           for row in _split(p.sigma, ";") for s in _split(row, ",")]
    if len(sig) == 1:
        sig = [sig[0], zero, zero, sig[0]] if p.d == 2 else sig
    if p.d == 1:
        a11 = sig[0] ** 2
    else:
        s11, s12, s21, s22 = sig
        a11, a22 = s11 * s11 + s12 * s12, s21 * s21 + s22 * s22
        a12 = s11 * s21 + s12 * s22
    h = p.h
    bs, rs = [], []
    for v in p.control_list():
        venv = {**env, **{f"v{j + 1}": c for j, c in enumerate(v)}}
        bs.append([formula(e, **venv) + zero for e in _split(p.b, ",")])
        rs.append(formula(p.r, **venv) + zero)
    n, idx = p.n, np.arange(len(x))
    if p.d == 1:
        cdiff = a11 / (2 * h * h)
        coef = [[cdiff + np.maximum(b[0], 0) / h,
                 cdiff + np.maximum(-b[0], 0) / h] for b in bs]
        nbr = [(idx + 1) % n, (idx - 1) % n]
    else:
        i, j = np.divmod(idx, n)

        def at(di, dj):
            return ((i + di) % n) * n + (j + dj) % n

        nbr = [at(1, 0), at(-1, 0), at(0, 1), at(0, -1),
               at(1, 1), at(-1, -1), at(1, -1), at(-1, 1)]
        h2 = 2 * h * h
        c1, c2 = (a11 - np.abs(a12)) / h2, (a22 - np.abs(a12)) / h2
        cpp, cpm = np.maximum(a12, 0) / h2, np.maximum(-a12, 0) / h2
        coef = [[c1 + np.maximum(b[0], 0) / h, c1 + np.maximum(-b[0], 0) / h,
                 c2 + np.maximum(b[1], 0) / h, c2 + np.maximum(-b[1], 0) / h,
                 cpp, cpp, cpm, cpm] for b in bs]
    return Stencil(nbr=np.array(nbr), coef=np.array(coef, dtype=float),
                   r=np.array(rs), sense=p.sense)


def cw_band(st: Stencil, phi: np.ndarray):
    """``(min G phi/phi, max G phi/phi, rounding bound)`` for ``phi > 0``."""
    g, err = st.envelope(phi)
    ratio = g / phi
    return float(ratio.min()), float(ratio.max()), float((err / phi).max())


def residual(st: Stencil, rho: float, phi: np.ndarray) -> tuple[float, float]:
    """``||G phi - rho phi||_inf`` and a bound on its rounding error."""
    g, err = st.envelope(phi)
    return (float(np.abs(g - rho * phi).max()),
            float(err.max() + 2 * EPS * abs(rho) * np.abs(phi).max()))


def perron_root(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenvalue of largest real part of a Metzler matrix, by LAPACK."""
    w, vecs = np.linalg.eig(a)
    k = int(np.argmax(w.real))
    vec = np.abs(vecs[:, k].real)
    return float(w[k].real), vec / vec.max()


def howard(st: Stencil, sense: str | None = None, max_sweeps: int = 100):
    """Envelope eigenpair by policy iteration on dense LAPACK eigenproblems.

    Returns ``(rho, phi, policy)``.  Near-ties keep the previous control,
    so the iteration stops on the first repeated policy.
    """
    sense = sense or st.sense
    pick = np.argmin if sense == "minimize" else np.argmax
    cols = np.arange(st.size)
    policy = pick(st.apply(np.ones(st.size))[0], axis=0)
    for _ in range(max_sweeps):
        lam, phi = perron_root(st.dense(policy))
        vals, err = st.apply(phi)
        best = vals[pick(vals, axis=0), cols]
        keep = np.abs(vals[policy, cols] - best) <= 4 * err.max(axis=0)
        new = np.where(keep, policy, pick(vals, axis=0))
        if np.array_equal(new, policy):
            return lam, phi, policy
        policy = new
    raise RuntimeError("reference policy iteration did not settle")
