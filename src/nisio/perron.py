"""Perron-Frobenius machinery for irreducible nonnegative matrices.

Classical power iteration with sup-norm normalization, plus the two
Collatz-Weilandt functionals

    cw_lower(Q, x) = min_{i: x_i > 0} (Qx)_i / x_i   <=  lambda,
    cw_upper(Q, x) = max_i (Qx)_i / x_i              >=  lambda,

which sandwich the principal eigenvalue for every admissible test vector
and collapse to it at the Perron vector.  This module doubles as the
oracle for the abstract cone iteration.

Periodic (e.g. bipartite) matrices make plain power iteration oscillate;
:func:`perron` then raises :class:`NoConvergence` and the caller should
retry on ``Q + c*I`` (the shift preserves eigenvectors and adds ``c`` to
the eigenvalue).

:func:`noda` is the sparse counterpart for irreducible Metzler matrices
(nonnegative off the diagonal), such as the frozen-policy generators of
policy iteration: Noda's shifted inverse iteration, with the shift kept
at the Collatz-Weilandt upper bound.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .cone import _cw_band
from .errors import NoConvergence, NonPositiveInput, NotIrreducible, ValidationError, ZeroVector

__all__ = ["perron", "noda", "cw_lower", "cw_upper", "is_irreducible"]

# cap on Noda sweeps; the band normally reaches rounding level in under ten
_NODA_MAX_ITERS = 100


def _check_matrix(m) -> np.ndarray:
    q = np.asarray(m, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValidationError("matrix contains non-finite entries")
    if np.min(q) < 0:
        raise ValidationError("matrix must be entrywise nonnegative")
    return q


def _strongly_connected(adj) -> bool:
    from scipy.sparse.csgraph import connected_components
    n_components, _ = connected_components(adj, directed=True,
                                           connection="strong")
    return n_components == 1


def is_irreducible(m) -> bool:
    """Strong connectivity of the support graph."""
    return _strongly_connected(_check_matrix(m) > 0)


def perron(m, tol: float = 1e-12, max_iters: int = 200_000):
    """Principal eigenpair of an irreducible nonnegative matrix.

    Power iteration with sup-norm normalization; the eigenvalue estimate
    is the Collatz-Weilandt upper functional ``max_i (Qx)_i/x_i``, so the
    running estimates are upper bounds.  Returns ``(lam, x)`` with
    ``||Q x - lam x||_inf <= tol * lam``, ``x > 0`` and ``||x||_inf = 1``.

    Raises :class:`NotIrreducible` for reducible support, and
    :class:`NoConvergence` when the iteration stalls, which signals a
    periodic matrix: retry on the shifted matrix ``Q + c*I`` and subtract
    ``c`` from the eigenvalue.
    """
    q = _check_matrix(m)
    if not is_irreducible(q):
        raise NotIrreducible("support graph is not strongly connected")
    if tol <= 0:
        raise ValidationError("tol must be positive")
    n = q.shape[0]
    x = np.ones(n)
    lam = float(np.max(q.sum(axis=1)))
    for _ in range(max_iters):
        y = q @ x
        lam = float(np.max(y / x))
        if np.max(np.abs(y - lam * x)) <= tol * lam:
            return lam, x
        x = y / np.max(y)
    raise NoConvergence(
        f"power iteration stalled after {max_iters} iterations; the matrix "
        "is likely periodic, retry on Q + c*I and subtract c",
        best=(lam, x))


def noda(a, x0=None, tol: float = 0.0):
    """Principal pair of an irreducible Metzler matrix by Noda iteration.

    Each sweep solves ``(s I - a) y = x`` with the shift ``s`` at the
    Collatz-Weilandt upper bound ``max_i (a x)_i / x_i`` (raised by a few
    ulps), which keeps ``s I - a`` a nonsingular M-matrix with a
    nonnegative inverse, so ``y > 0``; then ``x <- y / max y``.  The shift
    falls monotonically and converges superlinearly to the root (Noda,
    Numer. Math. 17, 1971).  The iteration starts from ``x0`` (default
    the flat vector) and stops once the band ``[min ax/x, max ax/x]`` is
    at most ``tol`` wide, or when a sweep no longer narrows it, which
    happens at rounding level.

    Returns ``(lam, x)``: the midpoint of the final band, which contains
    the root, and the test vector ``x > 0`` with ``||x||_inf = 1``.  The
    caller certifies the pair.  Raises :class:`NotIrreducible` for a
    reducible support graph.
    """
    from scipy.sparse.linalg import spsolve

    a = sp.csr_matrix(a, dtype=float)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a.data).all():
        raise ValidationError("matrix contains non-finite entries")
    off = a - sp.diags(a.diagonal())
    if off.nnz and np.min(off.data) < 0:
        raise ValidationError("matrix must be nonnegative off the diagonal")
    if not _strongly_connected(off > 0):
        raise NotIrreducible("support graph is not strongly connected")
    x = np.ones(n) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (n,):
        raise ValidationError(f"x0 must have shape ({n},)")
    if np.min(x) <= 0:
        raise NonPositiveInput("x0 must be strictly positive")
    x = x / np.max(x)
    eye = sp.identity(n, format="csr")

    lo, hi = _cw_band(a @ x, x)
    for _ in range(_NODA_MAX_ITERS):
        if hi - lo <= tol:
            break
        s = hi + 4.0 * np.spacing(abs(hi))
        y = spsolve((s * eye - a).tocsc(), x)
        if not np.min(y) > 0:        # the shift met the root in rounding
            break
        y = y / np.max(y)
        lo_y, hi_y = _cw_band(a @ y, y)
        if hi_y - lo_y >= hi - lo:
            break
        x, lo, hi = y, lo_y, hi_y
    return 0.5 * (lo + hi), x


def cw_lower(m, x) -> float:
    """Lower Collatz-Weilandt functional ``min_{i: x_i>0} (Qx)_i/x_i``.

    Valid for any nonnegative nonzero ``x``; never exceeds the principal
    eigenvalue.  Exactly invariant under positive scaling of ``x``.
    """
    q = _check_matrix(m)
    x = np.asarray(x, dtype=float)
    if np.min(x) < 0:
        raise NonPositiveInput("x must be nonnegative")
    support = x > 0
    if not support.any():
        raise ZeroVector("x must be nonzero")
    y = q @ x
    return float(np.min(y[support] / x[support]))


def cw_upper(m, x) -> float:
    """Upper Collatz-Weilandt functional ``max_i (Qx)_i/x_i``.

    Requires strictly positive ``x``; never falls below the principal
    eigenvalue.
    """
    q = _check_matrix(m)
    x = np.asarray(x, dtype=float)
    if np.min(x) <= 0:
        raise NonPositiveInput("x must be strictly positive")
    y = q @ x
    return float(np.max(y / x))
