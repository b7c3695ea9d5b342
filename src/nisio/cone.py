"""Normalized power iteration for monotone, positively 1-homogeneous maps.

The iteration ``g <- map(g) / ||map(g)||_inf`` applies to any strongly
positive, order-preserving, 1-homogeneous map over grid functions: a
run of explicit Euler steps of the envelope semigroup (the evolution
solver's map is eight of them), a frozen-control step, or plain
multiplication by a nonnegative matrix.  Convergence is detected
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

The loop records nothing per iteration.  The orbit statistics are taken
every ``S``-th iteration of a run of ``n``, where ``S`` is the least
power of two with ``ceil(n / S) <= cap`` and
``cap = max(2, min(_MAX_RECORDS, _RECORD_BYTES // (8 N)))`` for a grid
of ``N`` nodes.  They are computed on first access by replaying the
orbit from its normalized start with the loop's own operations
(recomputation instead of storage, as in Griewank and Walther, ACM TOMS
26, 2000), so a solve that never reads them never pays for them.  The
growth, the fixed point and the stopping iteration never depend on them.

The growth averages the log sup norms of the last quarter of the run, kept
as float64; older ones are dropped in blocks of at least ``_LOG_BLOCK`` and
a quarter of the kept length, so each value is moved a bounded number of
times.

One loop, :func:`_lockstep_iterate`, runs every iteration.  On short
vectors an iteration is bound by call overhead, so the loop advances a
batch of ``B`` orbits of one start together: one call per iteration for
the maps of all of them and one for each bookkeeping step over the
``(B, N)`` batch, with the band gate of :func:`_band_gate` per orbit.
:func:`power_iterate` is the case ``B = 1``, and an orbit has the same
bits whatever orbits run beside it.
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
from .grid import (_whole_number, require_finite, require_nonnegative,
                   require_positive, require_positive_finite, require_shape)

__all__ = ["OrbitStats", "RateFit", "alpha_bounds", "power_iterate",
           "fit_exponential_rate"]

# Cap on the orbit records (see the module docstring); the count binds
# for N <= 1024 nodes.
_MAX_RECORDS = 4096
_RECORD_BYTES = 32 * 2 ** 20
_LOG_BLOCK = 1024      # least number of log sup norms dropped at once

# Margin of the band gate, :func:`_band_gate`: 4 K eps with K = 16, the
# exact power of two 2**-46.  K bounds the ulp error of numpy's float64
# ``log`` with room (numpy's own accuracy tests hold it to 1 ulp, as libm
# is), and the factor 4 absorbs the rounding of the gate's arithmetic.
_GATE = 2.0 ** -46

_FLOAT = np.dtype(float)
_least, _greatest = np.minimum.reduce, np.maximum.reduce


def alpha_bounds(f: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """Cone bracket ``(min f/ref, max f/ref)`` of ``f`` against ``reference``.

    ``reference`` must have the shape of ``f`` (else
    :class:`ValidationError` naming ``reference``) and be strictly
    positive, and ``f`` nonnegative, both finite (else
    :class:`ValidationError`).  The bounds are the largest
    ``a`` with ``f - a*ref >= 0`` and the smallest ``a`` with
    ``a*ref - f >= 0``; they are exactly invariant under positive scaling
    of ``f`` when the factor is a power of two.
    """
    f = np.asarray(f, dtype=float)
    reference = np.asarray(reference, dtype=float)
    require_shape(reference, f.shape, "reference", field="reference")
    require_finite(f, "f")
    require_finite(reference, "reference")
    require_positive(reference, "reference")
    require_nonnegative(f, "f")
    return _cw_band(f, reference)


def _cw_band(gf: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Collatz-Weilandt band ``(min gf/f, max gf/f)`` of ``gf = G f``;
    :func:`alpha_bounds` without the input checks."""
    ratios = gf / f
    return float(np.min(ratios)), float(np.max(ratios))


@dataclass
class OrbitStats:
    """Per-iteration diagnostics of a normalized power iteration.

    All arrays are aligned with ``iterations``, every ``S``-th iteration
    of the run (see the module docstring): grids of more than 1024 nodes
    keep fewer than ``_MAX_RECORDS`` of them.
    ``under_alpha``/``over_alpha`` are the cone bounds of the
    growth-rescaled orbit against the final iterate, ``eta`` their
    difference, ``rho_estimate`` the per-application upper growth estimate
    ``max_x map(g)/g`` and ``sup_norm`` the pre-normalization sup norm
    ``||map(g)||_inf``.

    ``zeta1`` (ratio bound of the reference) and ``p1_min`` are surfaced
    as diagnostics for the hypotheses behind exponential convergence;
    they are reported, never asserted.

    The stats that :func:`power_iterate` returns compute every array
    field but ``iterations``, and ``p1_min``, on the first access to any
    of them, by one replay of the orbit, and keep them; ``iterations``,
    ``n_iterations``, ``converged`` and ``zeta1`` never replay it.
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
    """:class:`OrbitStats` whose replayed fields come from the dict that
    ``replay()`` returns, called on the first access to any of them.  The
    lock keeps two threads from replaying at once through the map's shared
    buffers."""

    def __init__(self, replay, **fields):
        vars(self).update(fields, _replay=replay, _replayed=None,
                          _lock=threading.Lock())

    def _field(self, name):
        with self._lock:
            if self._replayed is None:
                self._replayed = self._replay()
                self._replay = None
        return self._replayed[name]

    under_alpha = property(lambda self: self._field("under_alpha"))
    over_alpha = property(lambda self: self._field("over_alpha"))
    eta = property(lambda self: self._field("eta"))
    rho_estimate = property(lambda self: self._field("rho_estimate"))
    sup_norm = property(lambda self: self._field("sup_norm"))
    p1_min = property(lambda self: self._field("p1_min"))


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay rate of ``log eta`` per iteration."""

    theta: float
    r2: float
    n_used: int


def power_iterate(map_fn, f0: np.ndarray, tol: float = 1e-12,
                  max_iters: int = 1_000_000):
    """Iterate ``g <- map_fn(g)/||map_fn(g)||_inf`` until the ratio band closes.

    Stops when ``max_x log(map(g)/g) - min_x log(map(g)/g) < tol``, with
    the logs taken by numpy as written.  This is the one-orbit case of
    :func:`_lockstep_iterate`: its batch map calls ``map_fn`` on the one
    row and views the result as a ``(1, N)`` row.  ``map_fn`` may return a
    buffer that its next call overwrites; a float64 ``ndarray`` is used as
    it is, anything else (subclasses too) goes through ``np.asarray``.
    The normalized iterate is written into buffers of the loop's own,
    never into the start or the map's buffer, and the returned fixed point
    is a copy of the last one.

    ``map_fn`` must be deterministic: every field of the stats but
    ``iterations``, ``n_iterations``, ``converged`` and ``zeta1`` is
    computed on first access by running the orbit again, from the
    normalized start, with the same operations (``n_iterations`` calls of
    ``map_fn``, and two more per recorded iteration for ``p1_min``), so
    every field has the bits it would have if the recorded iterates were
    kept.  If the replay does not end on the returned fixed point byte
    for byte, that access raises :class:`NonDeterministicMap`.

    Returns ``(growth, fixed_point, stats)`` where ``growth`` is the
    geometric mean of the normalization factors over the last quarter of
    the run (transients discarded) and ``fixed_point`` the final iterate,
    sup-normalized and strictly positive.

    Raises :class:`ValidationError` before iterating if ``f0`` has a NaN
    or an infinity or ``max_iters`` is not a whole number,
    :class:`NonPositiveIterate` if the map fails strong positivity at this
    discretization and :class:`NoConvergence` after ``max_iters``.
    """
    def one_row(g):
        y = map_fn(g[0])
        if type(y) is not np.ndarray or y.dtype is not _FLOAT:
            y = np.asarray(y, dtype=float)
        return y[None]
    outcome, = _lockstep_iterate([map_fn], lambda orbits: one_row, f0, tol,
                                 max_iters)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _lockstep_iterate(map_fns, batch_for, f0: np.ndarray,
                      tol: float = 1e-12, max_iters: int = 1_000_000) -> list:
    """The normalized power iteration of each of ``map_fns`` from the one
    start ``f0``, all advanced in one loop.

    ``batch_for(orbits)``, for a list of indices into ``map_fns``, returns
    a function that maps a ``(B, N)`` float64 array ``g``, ``B =
    len(orbits)``, to a ``(B, N)`` float64 array whose row ``j`` is
    ``map_fns[orbits[j]](g[j])``, bit for bit; it may return a buffer that
    its next call overwrites.  Each iteration makes one call of it and then
    one call each over the ``B`` rows for the ratios ``y / g``, their
    least per row, the ``max`` of each row of ``y = map(g)`` and the
    normalized iterates ``y / max y``, each a bare ufunc (``reduce``, the
    reduction that the array methods dispatch to), and runs
    :func:`_band_gate` per orbit: the ``max`` of an orbit's ratios, and
    the ``N`` logs of its stop test, are taken only where its band passes
    the gate, and every closing band passes it, so the iterates are
    exactly those of the plain test.  The loop keeps nothing per iteration
    but the log sup norms that the growth averages.  An orbit leaves the
    batch at the iteration where it stops, and the others go on in a batch
    of their own; so an orbit's iterates, stopping iteration, growth,
    fixed point and replayable stats (the replay calls the orbit's
    ``map_fn``) do not depend on the other orbits.

    Returns one entry per map: the triple :func:`power_iterate` returns,
    or the error it would raise (:class:`NonPositiveIterate`, or
    :class:`NoConvergence` with its ``best``).  A failed orbit ends the
    orbits after it that are still running, and their entries are
    ``None``.  A bad ``f0``, ``tol`` or ``max_iters`` raises as in
    :func:`power_iterate`.
    """
    start, max_iters = _normalized_start(f0, tol, max_iters)
    gate_tol = tol * (1.0 + _GATE)
    outcomes = [None] * len(map_fns)
    logs = [array.array("d") for _ in map_fns]
    drop_at = _LOG_BLOCK    # the iteration at which to drop old log norms
    running = list(range(len(map_fns)))
    # the loop never writes start, which the replay reads
    g = np.tile(start, (len(running), 1))
    least, greatest, divide, gate = _least, _greatest, np.divide, _band_gate
    k = 0
    while running:
        # a batch of the running orbits, until one of them ends
        apply = batch_for(running)
        orbit_logs = [logs[i] for i in running]
        ratios, g_next = np.empty_like(g), np.empty_like(g)
        bands = np.empty((len(running), 2))     # per row: least ratio, max y
        lows, highs = bands[:, 0], bands[:, 1]
        # the column of row maxima; numpy divides by a 0-d view of a lone
        # one faster than by a (1, 1) column
        s = bands[:, 1:] if len(running) > 1 else bands[0, 1, ...]
        ended = {}      # position -> its NonPositiveIterate, or None if closed
        while True:
            y = apply(g)
            divide(y, g, out=ratios)
            least(ratios, 1, out=lows)
            greatest(y, 1, out=highs)
            for i, (lo, high) in enumerate(bands.tolist()):
                try:
                    log_s, closed = gate(lo, high, ratios, y, i, tol, gate_tol)
                except NonPositiveIterate as exc:
                    ended[i] = exc
                    highs[i] = 1.0  # its max may be 0: keep the division quiet
                    continue
                orbit_logs[i].append(log_s)
                if closed:
                    ended[i] = None
            divide(y, s, out=g_next)
            k += 1
            if k == drop_at:
                drop_at = _drop_old_logs(orbit_logs, k)
            if ended or k == max_iters:
                break
            g, g_next = g_next, g

        keep, failed = [], False
        for i, orbit in enumerate(running):
            if i not in ended and k < max_iters:
                if not failed:
                    keep.append(i)
                continue
            outcome = ended.get(i)
            if outcome is None:
                try:
                    outcome = _orbit_result(map_fns[orbit], start,
                                            g_next[i].copy(), k, orbit_logs[i],
                                            i in ended, ratios[i], max_iters)
                except (NoConvergence, NonPositiveInput) as exc:
                    outcome = exc
            outcomes[orbit] = outcome
            failed = failed or isinstance(outcome, Exception)
        running = [running[i] for i in keep]
        g = g_next[keep]
    return outcomes


def _normalized_start(f0, tol: float, max_iters) -> tuple[np.ndarray, int]:
    """``(f0 / max(f0), max_iters)``, the first in a new array and the
    second an ``int``, after the input checks of :func:`power_iterate`."""
    g = np.asarray(f0, dtype=float).copy()
    require_finite(g, "starting function")
    require_positive(g, "starting function")
    require_positive_finite(tol, "tol")
    max_iters = _whole_number(max_iters, "max_iters", least=1)
    return g / np.max(g), max_iters


def _band_gate(lo, s, ratios, y, i: int, tol: float, gate_tol: float):
    """``(log s, closed)`` for row ``i`` of one iteration ``y = map(g)`` of
    the power iteration over a batch, with ``ratios = y / g``, ``lo`` the
    least of ``ratios[i]`` and ``s`` the ``max`` of ``y[i]``; ``closed`` is
    the plain stop test ``max log(ratios[i]) - min log(ratios[i]) < tol``,
    evaluated only where two gates (``gate_tol = tol * (1 + _GATE)``) let
    it pass.  Raises :class:`NonPositiveIterate` where ``y[i]`` has a
    value that is not positive."""
    if not lo > 0:
        # Iterates are never negative: the start f0 / max(f0) is
        # nonnegative or all NaN after the checks of _normalized_start, and
        # each later one is y / max(y) for a y that passed this check (all
        # NaN if y has a NaN).  So lo > 0 (false for NaN) implies y > 0,
        # and the check on y runs whenever it could fire.
        if _least(y[i]) <= 0:
            raise NonPositiveIterate(
                "map produced a non-positive value from a positive iterate")
        return math.log(s), False
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
        a = math.log(_greatest(ratios[i]))
        if a - b <= gate_tol + _GATE * (abs(a) + abs(b)):
            log_r = np.log(ratios[i])
            return log_s, bool(log_r.max() - log_r.min() < tol)
    return log_s, False


def _drop_old_logs(logs, k: int) -> int:
    """Keep the last ``max(1, k // 4)`` of each of the log sup norms
    ``logs`` after ``k`` iterations, and return the iteration at which to
    drop again, when ``max(_LOG_BLOCK, kept // 4)`` more have come.  The
    growth of a run of ``n >= k`` iterations averages the last
    ``max(1, n // 4)``, and ``n - max(1, n // 4)`` never decreases with
    ``n``, so the kept ones hold that tail."""
    kept = max(1, k // 4)
    for log_factors in logs:
        del log_factors[:-kept]
    return k + max(_LOG_BLOCK, kept // 4)


def _orbit_result(map_fn, start, g, k: int, log_factors, converged: bool,
                  ratios, max_iters: int):
    """``(growth, fixed_point, stats)`` of an orbit of :func:`power_iterate`
    that started at ``start`` and ended on ``g`` after ``k`` iterations,
    with the kept log sup norms ``log_factors`` and the last ``ratios``;
    :class:`NoConvergence` carrying that triple if it did not converge."""
    n_tail = max(1, k // 4)
    tail = itertools.islice(log_factors, len(log_factors) - n_tail, None)
    growth = math.exp(sum(tail) / n_tail)     # Python floats, in iteration order

    ref = g
    require_positive(ref, "reference")
    cap = max(2, min(_MAX_RECORDS, _RECORD_BYTES // (8 * g.size)))
    stride = 1
    while -(-k // stride) > cap:
        stride *= 2
    # a copy of ref: the caller owns the returned fixed point
    replay = functools.partial(_replay_orbit, map_fn, start, ref.copy(),
                               stride, k, math.log(growth))
    stats = _ReplayedStats(
        replay,
        iterations=np.arange(0, k, stride),
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


def _replay_orbit(map_fn, g, ref, stride, n_iterations, log_growth):
    """The replayed :class:`OrbitStats` fields, as a dict, of the orbit of
    :func:`power_iterate` that starts at the normalized ``g``, is
    recorded every ``stride`` iterations and ended after ``n_iterations``
    on ``ref``, with the growth ``exp(log_growth)``.

    Each recorded iterate is reduced against ``ref`` as
    :func:`alpha_bounds` reduces it (``ref`` was checked positive, and the
    iterates are never negative), and its bracket is rescaled by the
    accumulated growth.
    """
    rows = []
    p1_min = math.inf
    cum = 0.0               # sum of the log sup norms before k
    for k in range(n_iterations):
        record = k % stride == 0
        if record:
            # hypothesis diagnostic: the map must not annihilate both z
            # and ref - z for any recorded iterate dominated by ref
            z = np.minimum(g, ref)
            value = float(np.max(np.abs(map_fn(ref - z)))
                          + np.max(map_fn(z)))
            p1_min = min(p1_min, value)
        y = np.asarray(map_fn(g), dtype=float)
        s = y.max()
        if record:
            rows.append((np.max(y / g), s, math.exp(cum - k * log_growth))
                        + _cw_band(g, ref))
        cum += math.log(s)
        g = y / s
    if g.tobytes() != ref.tobytes():
        raise NonDeterministicMap(
            "replaying the orbit did not reproduce its fixed point: "
            "the map is not deterministic")
    rho_estimate, sup_norm, scale, lows, highs = map(np.array, zip(*rows))
    under = scale * lows
    over = scale * highs
    return dict(rho_estimate=rho_estimate, sup_norm=sup_norm,
                under_alpha=under, over_alpha=over, eta=over - under,
                p1_min=p1_min)


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
