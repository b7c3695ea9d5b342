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
at the Collatz-Weilandt upper bound.  Its shifted system ``s I - a`` is
formed once per call, straight from ``a``'s CSR arrays, and each sweep
refills the diagonal and calls SuperLU's ``gssv`` as ``spsolve`` would
(:func:`_csc_solve`), so a sweep has the bits of
``spsolve((s * identity(n) - a).tocsc(), x)`` without building scipy
matrices.  ``scipy.sparse.linalg`` is imported on the first solve, not
with this module.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import scipy.sparse as sp

from .cone import _cw_band
from .errors import (NoConvergence, NonPositiveIterate, NotIrreducible,
                     ZeroVector)
from .generator import MINIMIZE, _envelope_map
from .grid import (_whole_number, require_finite, require_nonnegative,
                   require_positive, require_positive_finite, require_shape)

__all__ = ["perron", "noda", "cw_lower", "cw_upper", "is_irreducible"]

# cap on Noda sweeps; the band normally reaches rounding level in under ten
_NODA_MAX_ITERS = 100
_TINY = np.finfo(float).tiny   # least normal float64


def _order(a) -> int:
    """The order ``n`` of the square matrix ``a``, dense or sparse."""
    n = max(a.shape, default=0)
    require_shape(a, (n, n), "matrix", field="matrix")
    return n


def _check_matrix(m) -> np.ndarray:
    q = np.asarray(m, dtype=float)
    _order(q)
    require_finite(q, "matrix")
    require_nonnegative(q, "matrix")
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
    ``max_iters`` is a whole number ``>= 1``; an integral float counts as
    its ``int``.

    Raises :class:`NotIrreducible` for reducible support, and
    :class:`NoConvergence` when the iteration stalls, which signals a
    periodic matrix: retry on the shifted matrix ``Q + c*I`` and subtract
    ``c`` from the eigenvalue.
    """
    q = _check_matrix(m)
    if not is_irreducible(q):
        raise NotIrreducible("support graph is not strongly connected")
    require_positive_finite(tol, "tol")
    max_iters = _whole_number(max_iters, "max_iters", least=1)
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


@functools.cache
def _gssv():
    """SuperLU's ``gssv``, the driver behind ``spsolve``, or ``None``.

    Private, so it may move.  Imported on first use, not with the module:
    it loads ``scipy.sparse.linalg``, which costs about 10 MB and 0.15 s.
    """
    try:
        from scipy.sparse.linalg._dsolve._superlu import gssv
    except ImportError:
        return None
    return gssv


def _csc_solve(n: int, data, indices, indptr, b) -> np.ndarray:
    """Solve ``m y = b`` for the canonical CSC matrix ``m`` (sorted row
    indices, no duplicates), bit for bit as
    ``spsolve(csc_matrix((data, indices, indptr)), b)``.

    Calls SuperLU with the arguments ``spsolve`` passes for a vector
    ``b`` (default column ordering) without building a matrix object or
    running its format checks.  (``spsolve`` would call UMFPACK instead
    where scikit-umfpack is installed; nisio does not depend on it.)  An
    exactly singular ``m`` warns with ``MatrixRankWarning`` and gives NaNs,
    as ``spsolve`` does.  Falls back to ``spsolve`` when the private driver
    cannot be imported.
    """
    gssv = _gssv()
    if gssv is None:
        from scipy.sparse.linalg import spsolve
        return spsolve(sp.csc_matrix((data, indices, indptr), shape=(n, n)), b)
    y, info = gssv(n, len(data), data, indices.astype(np.intc, copy=False),
                   indptr.astype(np.intc, copy=False), b, 1,
                   options=dict(ColPerm=None))
    if info != 0:
        from scipy.sparse.linalg import MatrixRankWarning
        warnings.warn("Matrix is exactly singular", MatrixRankWarning,
                      stacklevel=2)
        y.fill(np.nan)
    return y


class _ShiftedSystem:
    """``s I - a`` in CSC form for a run of shifts ``s``, with the bits of
    ``(s * identity(n) - a).tocsc()``.

    scipy's subtraction keeps the off-diagonal entries ``0 - a_ij`` that
    are nonzero and the diagonal entries ``s - a_ii``, and drops zeros;
    ``tocsc`` sorts each column by row.  Only the diagonal depends on
    ``s``, so the pattern is formed once, from ``a``'s CSR arrays, and
    :meth:`solve` refills the diagonal.  For a non-canonical ``a``
    (unsorted or duplicate entries) the pattern is read from ``a`` minus
    an empty matrix, which sums duplicates as ``s * identity(n) - a``
    does: in storage order, from 0.
    """

    def __init__(self, a: sp.csr_matrix):
        n = self.n = a.shape[0]
        if not a.has_canonical_format:
            a = a - sp.csr_matrix(a.shape)
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        on_diag = a.indices == rows
        off = ~on_diag & (a.data != 0)
        self.off_diagonal = a.data[off]
        self.a_diag = np.zeros(n)
        self.a_diag[rows[on_diag]] = a.data[on_diag]
        nodes = np.arange(n)
        r = np.concatenate([rows[off], nodes])
        c = np.concatenate([a.indices[off], nodes])
        order = np.lexsort((r, c))          # by column, then by row
        self.data = np.concatenate([-self.off_diagonal, np.zeros(n)])[order]
        self.indices = r[order].astype(np.intc)
        self.indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(c, minlength=n), out=self.indptr[1:])
        # one diagonal entry per column, so these are in column order
        self.diag_pos = np.flatnonzero(order >= len(self.off_diagonal))

    def support(self) -> sp.csr_matrix:
        """The pattern read as CSR: the support graph of ``a`` reversed, with
        self-loops, which has the same strong components."""
        return sp.csr_matrix((np.ones(len(self.data)), self.indices,
                              self.indptr), shape=(self.n, self.n))

    def solve(self, s, b) -> np.ndarray:
        """``spsolve((s * identity(n) - a).tocsc(), b)``, bit for bit."""
        diag = s - self.a_diag
        self.data[self.diag_pos] = diag
        if diag.all():
            return _csc_solve(self.n, self.data, self.indices, self.indptr, b)
        # a zero diagonal entry, which the subtraction drops
        m = sp.csc_matrix((self.data, self.indices, self.indptr),
                          shape=(self.n, self.n), copy=True)
        m.eliminate_zeros()
        return _csc_solve(self.n, m.data, m.indices, m.indptr, b)


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

    The CSC pattern of ``s I - a`` is formed once per call; a sweep only
    refills its diagonal ``s - a_ii`` and calls SuperLU directly (see
    :class:`_ShiftedSystem` and :func:`_csc_solve`).  Every sweep has the
    bits of ``spsolve((s * identity(n) - a).tocsc(), x)``, and the bands
    those of ``a @ x``.

    Returns ``(lam, x)``: the midpoint of the final band, which contains
    the root, and the test vector ``x > 0`` with ``||x||_inf = 1``.  The
    caller certifies the pair.  A non-square ``a`` or an ``x0`` without
    one entry per row raises :class:`ValidationError` naming ``matrix`` or
    ``x0``, a reducible support graph :class:`NotIrreducible`, and an
    entry of the normalized iterate that underflows below the least
    normal float64, to a subnormal or to zero (an eigenvector whose range
    passes float64's), :class:`NonPositiveIterate`.
    """
    a = sp.csr_matrix(a, dtype=float)
    n = _order(a)
    require_finite(a.data, "matrix")
    system = _ShiftedSystem(a)
    require_nonnegative(system.off_diagonal, "matrix off the diagonal")
    if not _strongly_connected(system.support()):
        raise NotIrreducible("support graph is not strongly connected")
    x = np.ones(n) if x0 is None else np.asarray(x0, dtype=float)
    require_shape(x, (n,), "x0", field="x0")
    require_positive(x, "x0")
    require_finite(x, "x0")
    x = x / np.max(x)
    # the envelope of one control is the product itself
    product = _envelope_map(a, n, (MINIMIZE,))

    lo, hi = _cw_band(product(x[None])[0], x)
    for _ in range(_NODA_MAX_ITERS):
        if hi - lo <= tol:
            break
        s = hi + 4.0 * np.spacing(abs(hi))
        y = system.solve(s, x)
        if not np.min(y) > 0:        # the shift met the root in rounding
            break
        y = y / np.max(y)
        if not np.min(y) >= _TINY:
            raise NonPositiveIterate(
                f"Noda iterate underflowed: {np.count_nonzero(y < _TINY)} of "
                f"{n} entries of the normalized eigenvector fell below the "
                f"least normal float64, {_TINY:.4g} "
                f"({np.count_nonzero(y == 0)} rounded to zero), "
                "beyond the float64 range")
        lo_y, hi_y = _cw_band(product(y[None])[0], y)
        if hi_y - lo_y >= hi - lo:
            break
        x, lo, hi = y, lo_y, hi_y
    return 0.5 * (lo + hi), x


def cw_lower(m, x) -> float:
    """Lower Collatz-Weilandt functional ``min_{i: x_i>0} (Qx)_i/x_i``.

    Valid for any finite, nonnegative, nonzero ``x``; never exceeds the
    principal eigenvalue.  Exactly invariant under positive scaling of
    ``x``.  An ``x`` without one entry per row of ``m`` raises
    :class:`ValidationError` naming ``x``.
    """
    q = _check_matrix(m)
    x = np.asarray(x, dtype=float)
    require_shape(x, (len(q),), "x", field="x")
    require_finite(x, "x")
    require_nonnegative(x, "x")
    support = x > 0
    if not support.any():
        raise ZeroVector("x must be nonzero")
    y = q @ x
    return float(np.min(y[support] / x[support]))


def cw_upper(m, x) -> float:
    """Upper Collatz-Weilandt functional ``max_i (Qx)_i/x_i``.

    Requires finite, strictly positive ``x``, one entry per row of ``m``;
    never falls below the principal eigenvalue.
    """
    q = _check_matrix(m)
    x = np.asarray(x, dtype=float)
    require_shape(x, (len(q),), "x", field="x")
    require_finite(x, "x")
    require_positive(x, "x")
    y = q @ x
    return float(np.max(y / x))
