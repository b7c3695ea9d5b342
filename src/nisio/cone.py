"""Normalized power iteration for monotone, positively 1-homogeneous maps.

The iteration ``g <- map(g) / ||map(g)||_inf`` applies to any strongly
positive, order-preserving, 1-homogeneous map over grid functions: one
explicit Euler step of the envelope semigroup, a frozen-control step, or
plain multiplication by a nonnegative matrix.  Convergence is detected
through the oscillation of the pointwise ratios ``map(g)/g``, which also
brackets the map's principal growth factor from below and above
(Collatz-Weilandt): the iteration stops once
``max_x log(map(g)/g) - min_x log(map(g)/g) < tol``.  That test costs
``N`` logs, so each iteration first takes only the least ratio ``lo``
and ``max map(g)``, a lower bound of the greatest ratio ``hi``; it takes
``hi`` when ``log(max map(g)) - log(lo)`` is within a rounding margin of
``tol``, and runs the test when ``log(hi) - log(lo)`` is too -- necessary
conditions, so the stopping iteration, and with it every iterate and
statistic, is the one the plain test gives.

Along the orbit the precise bracket is measured by the cone functionals

    under_alpha(f) = min_x f(x)/ref(x),   over_alpha(f) = max_x f(x)/ref(x),

evaluated against the converged iterate as reference and rescaled by the
accumulated growth (the raw normalized iterates are not monotone; the
growth-rescaled orbit is).  The bracket width ``eta = over - under``
contracts geometrically for strongly positive maps, and
:func:`fit_exponential_rate` extracts the contraction rate from its log.

The orbit is recorded every ``stride`` iterations, and the records are
halved (``stride`` doubled) whenever they pass the cap
``max(2, min(_MAX_RECORDS, _RECORD_BYTES // (8 N)))``.  A record holds
four scalars and no iterate, so the cap bounds the number of bracket
points, not memory; it keeps the rule of the byte-bounded records it
replaced, so a grid of ``N`` nodes is recorded at the same iterations.
The bracket is computed on first access by replaying the orbit from its
normalized start with the loop's own operations (recomputation instead
of storage, as in Griewank and Walther, ACM TOMS 26, 2000), so a solve
that never reads it never pays for it.  The growth, the fixed point and
the stopping iteration never depend on the records.

The growth averages the log sup norms of the last quarter of the run, kept
as float64; older ones are dropped in blocks of at least ``_LOG_BLOCK`` and
a quarter of the kept length, so each value is moved a bounded number of
times.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientData,
    NoConvergence,
    NonDeterministicMap,
    NonPositiveEta,
    NonPositiveInput,
    NonPositiveIterate,
)

__all__ = ["OrbitStats", "RateFit", "alpha_bounds", "power_iterate",
           "fit_exponential_rate"]

# Cap on the orbit records (see the module docstring); the count binds
# for N <= 1024 nodes.
_MAX_RECORDS = 4096
_RECORD_BYTES = 32 * 2 ** 20
_LOG_BLOCK = 1024      # least number of log sup norms dropped at once

# Margin of the band gate in ``power_iterate``: 4 K eps with K = 16, the
# exact power of two 2**-46.  K bounds the ulp error of numpy's float64
# ``log`` with room (numpy's own accuracy tests hold it to 1 ulp, as libm
# is), and the factor 4 absorbs the rounding of the gate's arithmetic.
_GATE = 2.0 ** -46

_FLOAT = np.dtype(float)


def alpha_bounds(f: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """Cone bracket ``(min f/ref, max f/ref)`` of ``f`` against ``reference``.

    ``reference`` must be strictly positive and ``f`` nonnegative.  The
    bounds are the largest ``a`` with ``f - a*ref >= 0`` and the smallest
    ``a`` with ``a*ref - f >= 0``; they are exactly invariant under
    positive scaling of ``f`` when the factor is a power of two.
    """
    f = np.asarray(f, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if reference.shape != f.shape:
        raise NonPositiveInput("f and reference must have the same shape")
    if np.min(reference) <= 0:
        raise NonPositiveInput("reference must be strictly positive")
    if np.min(f) < 0:
        raise NonPositiveInput("f must be nonnegative")
    return _cw_band(f, reference)


def _cw_band(gf: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Collatz-Weilandt band ``(min gf/f, max gf/f)`` of ``gf = G f``;
    :func:`alpha_bounds` without the input checks."""
    ratios = gf / f
    return float(np.min(ratios)), float(np.max(ratios))


@dataclass
class OrbitStats:
    """Per-iteration diagnostics of a normalized power iteration.

    All arrays are aligned with ``iterations``.  Long runs are thinned by
    halving (see the module docstring): grids of more than 1024 nodes
    keep fewer than ``_MAX_RECORDS`` records.
    ``under_alpha``/``over_alpha`` are the cone bounds of the
    growth-rescaled orbit against the final iterate, ``eta`` their
    difference, ``rho_estimate`` the per-application upper growth estimate
    ``max_x map(g)/g`` and ``sup_norm`` the pre-normalization sup norm
    ``||map(g)||_inf``.

    ``zeta1`` (ratio bound of the reference) and ``p1_min`` are surfaced
    as diagnostics for the hypotheses behind exponential convergence;
    they are reported, never asserted.

    The stats that :func:`power_iterate` returns compute ``under_alpha``,
    ``over_alpha``, ``eta`` and ``p1_min`` on first access, by one replay
    of the orbit, and keep them; the other fields never replay it.
    """

    iterations: np.ndarray
    under_alpha: np.ndarray
    over_alpha: np.ndarray
    eta: np.ndarray
    rho_estimate: np.ndarray
    sup_norm: np.ndarray
    n_iterations: int
    converged: bool
    zeta1: float
    p1_min: float | None = None


class _ReplayedStats(OrbitStats):
    """:class:`OrbitStats` whose bracket fields come from ``replay()``,
    called on the first access to any of them; ``p1_min`` is ``None``
    without a replay unless ``collect_p1``.  The lock keeps two threads
    from replaying at once through the map's shared buffers."""

    def __init__(self, replay, collect_p1, **fields):
        vars(self).update(fields, _replay=replay, _collect_p1=collect_p1,
                          _bracket=None, _lock=threading.Lock())

    def _field(self, index):
        with self._lock:
            if self._bracket is None:
                self._bracket = self._replay()
                self._replay = None
        return self._bracket[index]

    under_alpha = property(lambda self: self._field(0))
    over_alpha = property(lambda self: self._field(1))
    eta = property(lambda self: self._field(2))
    p1_min = property(
        lambda self: self._field(3) if self._collect_p1 else None)


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay rate of ``log eta`` per iteration."""

    theta: float
    r2: float
    n_used: int


def power_iterate(map_fn, f0: np.ndarray, tol: float = 1e-12,
                  max_iters: int = 1_000_000,
                  collect_p1: bool = False):
    """Iterate ``g <- map_fn(g)/||map_fn(g)||_inf`` until the ratio band closes.

    Stops when ``max_x log(map(g)/g) - min_x log(map(g)/g) < tol``, with
    the logs taken by numpy as written.  An iteration costs one call of
    ``map_fn``, two divisions into buffers (the ratios and the normalized
    iterate) and two reductions (``min`` of the ratios, ``max`` of
    ``map(g)``, each a bare ufunc ``reduce``, the reduction that the array
    methods dispatch to).  The ``max`` of the ratios is taken
    at recorded iterations, and where ``log(max map(g)) - log(min r)``
    passes a gate; the ``N`` logs of the stop test only where
    ``log(max r) - log(min r)`` passes it too.  Every closing band passes
    both (see the loop), so the iterates are exactly those of the plain
    test.  ``map_fn`` may return a buffer that its next call overwrites;
    a float64 ``ndarray`` is used as it is, anything else (subclasses
    too) goes through ``np.asarray``.  The normalized iterate is written
    into one of two buffers of the iteration's own, in turn, never into
    the start or the map's buffer, and the returned fixed point is the
    last one written.

    ``map_fn`` must be deterministic: the bracket fields of the stats are
    computed on first access by running the orbit again, from the
    normalized start, with the same operations (``n_iterations`` calls of
    ``map_fn``, and two more per record under ``collect_p1``), so every
    field has the bits it would have if the recorded iterates were kept.
    If the replay does not end on the returned fixed point byte for byte,
    that access raises :class:`NonDeterministicMap`.

    Returns ``(growth, fixed_point, stats)`` where ``growth`` is the
    geometric mean of the normalization factors over the last quarter of
    the run (transients discarded) and ``fixed_point`` the final iterate,
    sup-normalized and strictly positive.

    Raises :class:`NonPositiveIterate` if the map fails strong positivity
    at this discretization and :class:`NoConvergence` after ``max_iters``.
    """
    g = np.asarray(f0, dtype=float).copy()
    if np.min(g) <= 0:
        raise NonPositiveInput("starting function must be strictly positive")
    if not tol > 0:
        raise NonPositiveInput("tol must be positive")
    if max_iters < 1:
        raise NonPositiveInput("max_iters must be >= 1")
    g = g / np.max(g)
    start = g       # for the replay: the loop never writes it

    # (k, max ratio, sup norm, sum of log sup norms before k)
    records: list[tuple] = []
    stride = 1
    cap = max(2, min(_MAX_RECORDS, _RECORD_BYTES // (8 * g.size)))
    log_factors = array.array("d")      # log s of the last iterations
    log_limit = _LOG_BLOCK              # length at which to drop a block
    cum = 0.0
    converged = False
    gate_tol = tol * (1.0 + _GATE)

    ratios = np.empty_like(g)
    # g is written into these in turn, never into start or the map's buffer
    buffers = (np.empty_like(g), np.empty_like(g))
    least, greatest = np.minimum.reduce, np.maximum.reduce
    k = 0
    while k < max_iters:
        y = map_fn(g)
        if type(y) is not np.ndarray or y.dtype is not _FLOAT:
            y = np.asarray(y, dtype=float)
        np.divide(y, g, out=ratios)
        lo = least(ratios)
        s = greatest(y)
        record = k % stride == 0
        hi = greatest(ratios) if record else None
        if not lo > 0:
            # Iterates are never negative: the start f0 / max(f0) is
            # nonnegative or all NaN after the checks above, and each later
            # one is y / max(y) for a y that passed this check (all NaN if
            # y has a NaN).  So lo > 0 (false for NaN) implies y > 0, and
            # the check on y runs whenever it could fire.
            if least(y) <= 0:
                raise NonPositiveIterate(
                    "map produced a non-positive value from a positive iterate")
            log_s = math.log(s)
        else:
            # Gate: with L = np.log(ratios) within K = 16 ulps, i.e.
            # |L_i - ln r_i| <= K eps |ln r_i|, the indices of lo and hi give
            #   max L - min L >= ln hi - ln lo - K eps (|ln hi| + |ln lo|),
            # and the rounded difference is at least (1 - eps/2) times that,
            # so "max L - min L < tol" forces
            #   ln hi - ln lo < tol (1 + eps) + K eps (|ln hi| + |ln lo|).
            # math.log is within one ulp, so a - b exceeds ln hi - ln lo
            # by at most about eps (|a| + |b|), and the test below (margin
            # 4K eps, computed with a few roundings) holds whenever the
            # exact test can pass: it only skips iterations that the exact
            # test would not stop at.
            #
            # Pre-gate: the same test with s = max y in place of hi, which
            # spares the max of the ratios on most iterations.  Here g is
            # x / max(x) for a positive x with a finite max (else g has a
            # NaN and lo is NaN), so g <= 1 and max g == 1 exactly, as
            # rounding is monotone and x_j / x_j is 1.  So every ratio
            # y_i / g_i rounds to at least y_i, giving hi >= s, and lo is at
            # most the ratio y_j <= s where g_j == 1: ln lo <= ln s <= ln hi.
            # With D = ln hi - ln lo >= ln s - ln lo and
            # |ln hi| <= |ln s| + D, the condition above gives
            #   ln s - ln lo <= D < (tol (1 + eps) + K eps (|ln s| + |ln lo|))
            #                       / (1 - K eps),
            # at most tol (1 + (2K + 2) eps) + 2K eps (|ln s| + |ln lo|):
            # inside the 4K eps margin with room for the roundings, so the
            # pre-gate too holds whenever the exact test can pass.
            b = math.log(lo)
            a = log_s = math.log(s)
            if a - b <= gate_tol + _GATE * (abs(a) + abs(b)):
                if hi is None:
                    hi = greatest(ratios)
                a = math.log(hi)
                if a - b <= gate_tol + _GATE * (abs(a) + abs(b)):
                    log_r = np.log(ratios)
                    converged = bool(log_r.max() - log_r.min() < tol)

        if record:
            records.append((k, hi, s, cum))
            if len(records) > cap:
                records = records[::2]
                stride *= 2

        log_factors.append(log_s)
        cum += log_s
        g = np.divide(y, s, out=buffers[k % 2])
        k += 1
        if len(log_factors) == log_limit:
            # growth averages the last max(1, n // 4) of a run of n >= k
            # iterations, and n - max(1, n // 4) never decreases with n
            kept = max(1, k // 4)
            del log_factors[:-kept]
            log_limit = kept + max(_LOG_BLOCK, kept // 4)
        if converged:
            break

    n_tail = max(1, k // 4)
    tail = itertools.islice(log_factors, len(log_factors) - n_tail, None)
    growth = math.exp(sum(tail) / n_tail)     # Python floats, in iteration order

    ref = g
    log_growth = math.log(growth)
    if ref.min() <= 0:
        raise NonPositiveInput("reference must be strictly positive")
    rec_k, rec_rho, rec_norm, rec_cum = zip(*records)
    scale = np.array([math.exp(c - kk * log_growth)
                      for kk, c in zip(rec_k, rec_cum)])
    # a copy of ref: the caller owns the returned fixed point
    replay = functools.partial(_replay_bracket, map_fn, start, ref.copy(),
                               rec_k, scale, k, collect_p1)
    stats = _ReplayedStats(
        replay, collect_p1,
        iterations=np.array(rec_k, dtype=int),
        rho_estimate=np.array(rec_rho),
        sup_norm=np.array(rec_norm),
        n_iterations=k,
        converged=converged,
        zeta1=float(np.max(ref) / np.min(ref)),
    )
    if not converged:
        log_r = np.log(ratios)
        osc = float(log_r.max() - log_r.min())
        raise NoConvergence(
            f"power iteration did not close the ratio band within {max_iters} "
            f"iterations (last oscillation {osc:.3g})",
            best=(growth, ref, stats))
    return growth, ref, stats


def _replay_bracket(map_fn, g, ref, rec_k, scale, n_iterations, collect_p1):
    """``(under_alpha, over_alpha, eta, p1_min)`` of the orbit of
    :func:`power_iterate` that starts at the normalized ``g``, recorded at
    the iterations ``rec_k`` and ended after ``n_iterations`` on ``ref``.

    Each recorded iterate is reduced against ``ref`` as
    :func:`alpha_bounds` reduces it (``ref`` was checked positive, and the
    iterates are never negative), and its bracket rescaled by ``scale``.
    """
    lows = np.empty(len(rec_k))
    highs = np.empty(len(rec_k))
    p1_min = math.inf
    i = 0
    for k in range(n_iterations):
        if i < len(rec_k) and rec_k[i] == k:
            lows[i], highs[i] = _cw_band(g, ref)
            if collect_p1:
                # hypothesis diagnostic: the map must not annihilate both z
                # and ref - z for any recorded iterate dominated by ref
                z = np.minimum(g, ref)
                value = float(np.max(np.abs(map_fn(ref - z)))
                              + np.max(map_fn(z)))
                p1_min = min(p1_min, value)
            i += 1
        y = np.asarray(map_fn(g), dtype=float)
        g = y / y.max()
    if g.tobytes() != ref.tobytes():
        raise NonDeterministicMap(
            "replaying the orbit did not reproduce its fixed point: "
            "the map is not deterministic")
    under = scale * lows
    over = scale * highs
    return under, over, over - under, p1_min if collect_p1 else None


def fit_exponential_rate(stats: OrbitStats, noise_floor: float = 1e-12) -> RateFit:
    """Fit ``log eta_k ~ -theta * k`` by least squares.

    Bracket widths below ``noise_floor`` times the largest width are
    floating-point noise around the converged orbit and are excluded.
    ``theta > 0`` indicates contraction; a flat ``eta`` sequence yields
    ``theta = 0``.
    """
    eta = np.asarray(stats.eta, dtype=float)
    ks = np.asarray(stats.iterations, dtype=float)
    pos = eta > 0
    if not pos.any():
        raise NonPositiveEta("all bracket widths are zero: orbit already converged")
    floor = float(np.max(eta)) * noise_floor
    mask = eta > floor
    if mask.sum() < 10:
        raise InsufficientData(
            f"need at least 10 usable bracket widths, have {int(mask.sum())}")
    x = ks[mask]
    y = np.log(eta[mask])
    if np.ptp(y) == 0.0:
        # perfectly flat widths: no contraction, and no variance to explain
        return RateFit(theta=0.0, r2=0.0, n_used=int(mask.sum()))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 0.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(theta=float(-slope), r2=r2, n_used=int(mask.sum()))
