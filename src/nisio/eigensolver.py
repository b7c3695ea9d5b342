"""Principal eigenpair of the discrete envelope operator.

Two independent routes compute the pair ``(rho, phi)`` with
``G phi = rho phi``, ``phi > 0``, ``||phi||_inf = 1``:

* :func:`solve_evolution` runs the normalized cone iteration with
  ``_EULER_STEPS = 8`` explicit Euler steps of the semigroup as the map,
  ``(I + dt G)^8`` with nothing normalized between the steps (its
  principal growth factor is ``(1 + dt * rho)^8``, and its eigenvector
  is ``phi`` itself).
* :func:`solve_policy_iteration` alternates an eigensolve for the frozen
  policy with a greedy policy update.  The frozen-policy matrix ``A_u``
  is the stack of the one-control generator ``gen.frozen(u)``, and its
  principal pair comes from Noda's shifted inverse iteration, which
  solves with ``s I - A_u`` at the Collatz-Weilandt upper bound ``s``: a
  nonsingular M-matrix with a nonnegative inverse, so the whole chain
  stays monotone-matrix-theoretic.

Both routes share one certificate: one product ``stack @ phi`` gives
``G phi`` and the policy, ``rho`` is the midpoint of the band
``[min Gphi/phi, max Gphi/phi]``, which contains the true discrete
eigenvalue, and the residual must not exceed ``tol``.

Either route on the view ``gen.with_sense("maximize")`` takes the
pointwise maximum over controls and returns the companion pair
``(beta, psi)``; for minimization problems ``beta >= rho`` always, with
equality for a single control.  ``solve_evolution(gen, opts,
senses=("minimize", "maximize"))`` returns both pairs from one loop that
advances the two orbits in lockstep on the shared Euler steps, each pair
the one-sense solve's to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import OrbitStats, _cw_band, _lockstep_iterate, power_iterate
from .errors import CycleDetected, NoConvergence, ValidationError
from .generator import (DiscreteGenerator, _envelope, _envelope_map,
                        argmin_policy)
from .grid import (GridFunction, _whole_number, require_finite,
                   require_positive_finite, require_shape)
from .perron import noda
from .semigroup import _check_cfl

__all__ = ["EigenPair", "SolveOptions", "solve_evolution",
           "solve_policy_iteration"]

MAX_POLICY_ITERS = 100
# keep the previous control where |best - current| <= TIE_TOL phi_x s,
# with s = max(1, max |best / phi|) the scale of G phi / phi
TIE_TOL = 1e-12
# Euler steps per cone iteration: the band test and the normalization of
# the cone loop run once per this many steps
_EULER_STEPS = 8


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and budgets for the eigensolvers.

    ``tol`` bounds the sup-norm eigen-residual ``||G phi - rho phi||_inf``
    of the returned pair.  ``dt`` overrides the evolution step (must not
    exceed the generator's step bound ``dt_max``, the longest step that
    keeps every Euler matrix nonnegative, else :class:`CflViolation`); by
    default ``dt_factor`` of ``dt_max`` is used, from ``f0`` (ones by
    default).  The ``solver`` section of a config is one of these
    (``tol``, ``max_iters`` and ``dt_factor``).  ``max_iters`` is a whole
    number of cone iterations, each one map of ``_EULER_STEPS = 8`` Euler
    steps; an integral float is stored as an ``int``.  ``f0`` must be
    finite, else :class:`ValidationError`.
    """

    tol: float = 1e-9
    max_iters: int = 5_000_000
    dt: float | None = None
    dt_factor: float = 0.9
    f0: np.ndarray | None = None

    def __post_init__(self):
        require_positive_finite(self.tol, "tol")
        object.__setattr__(self, "max_iters",
                           _whole_number(self.max_iters, "max_iters", least=1))
        if self.dt is not None:
            require_positive_finite(self.dt, "dt")
        if not (0 < self.dt_factor <= 1):
            raise ValidationError("dt_factor must be in (0, 1]",
                                  field="dt_factor")
        if self.f0 is not None:
            require_finite(np.asarray(self.f0, dtype=float), "f0", field="f0")


def _step_size(gen: DiscreteGenerator, opts: SolveOptions) -> float:
    """The evolution step: ``opts.dt``, else ``dt_factor`` of ``dt_max``."""
    return opts.dt if opts.dt is not None else gen.dt_max * opts.dt_factor


@dataclass
class EigenPair:
    """Eigenpair ``G phi = rho phi`` with diagnostics.

    ``phi`` is strictly positive with sup norm one; ``residual`` is the
    achieved ``||G phi - rho phi||_inf``; ``policy`` the per-node control
    index attaining the envelope at ``phi``.
    """

    rho: float
    phi: GridFunction
    policy: np.ndarray
    residual: float
    method: str
    sense: str
    stats: OrbitStats | None = None
    policy_iterations: int = 0


def _finish(gen: DiscreteGenerator, phi: np.ndarray, method: str,
            stats=None, policy_iterations: int = 0) -> EigenPair:
    phi = phi / np.max(phi)
    gphi, policy = _envelope(gen.stack @ phi, gen.size, gen.sense,
                             with_arg=True)
    # midpoint of the Collatz-Weilandt band at phi; the band contains
    # the true discrete eigenvalue, so this minimizes the residual
    lower, upper = _cw_band(gphi, phi)
    rho = 0.5 * (lower + upper)
    residual = float(np.max(np.abs(gphi - rho * phi)))
    return EigenPair(rho=float(rho), phi=phi, policy=policy,
                     residual=residual, method=method, sense=gen.sense,
                     stats=stats, policy_iterations=policy_iterations)


def _certified(pair: EigenPair, tol: float) -> EigenPair:
    if pair.residual > tol:
        raise NoConvergence(
            f"eigen-residual {pair.residual:.3g} above tol {tol:.3g}",
            best=pair)
    return pair


def solve_evolution(gen: DiscreteGenerator,
                    opts: SolveOptions | None = None, *, senses=None):
    """Eigenpair via normalized power iteration on eight semigroup steps.

    The map of the cone iteration is ``_EULER_STEPS = 8`` exact envelope
    Euler steps of size ``dt``, each reading the previous step's output,
    with no normalization between them: ``(I + dt G)^8``, whose growth
    factor is ``(1 + dt * rho)^8``.  The band test and the normalization
    thus run once per eight steps; the band of the map is about eight
    times that of one step, and so is the stop tolerance,
    ``0.5 * tol * dt * 8``.  An orbit that does not settle within
    ``max_iters`` iterations (each one map, ``8 * max_iters`` Euler steps
    in all) raises :class:`NoConvergence` carrying, as ``best``, the pair
    at its last iterate.  An ``opts.f0`` that is not one value per node
    raises :class:`ValidationError` before any product.

    With ``senses``, a tuple of ``"minimize"`` and ``"maximize"``, returns
    a tuple with the pair of each view ``gen.with_sense(sense)``, in that
    order, from one loop that advances every orbit on the shared Euler
    steps (:func:`nisio.cone._lockstep_iterate`).  Each pair is the one
    ``solve_evolution(gen.with_sense(sense), opts)`` returns, to the bit,
    and the error raised is the one that those calls, made in turn, raise
    first.
    """
    opts = opts or SolveOptions()
    f0 = gen.grid.ones() if opts.f0 is None else np.asarray(opts.f0, float)
    require_shape(f0, (gen.size,), "f0", field="f0")
    dt = _step_size(gen, opts)
    _check_cfl(gen, dt)
    stack = gen.step_stack(dt)
    # the oscillation of the log ratios of the map is ~ 8 dt times the
    # oscillation of G f / f
    power_tol = 0.5 * opts.tol * dt * _EULER_STEPS
    if senses is None:
        try:
            outcome = power_iterate(_orbit_map(stack, gen.size, gen.sense),
                                    f0, tol=power_tol,
                                    max_iters=opts.max_iters)
        except NoConvergence as exc:
            outcome = exc
        return _evolution_pair(gen, outcome, opts.tol)
    if not senses:
        raise ValidationError("senses must name at least one sense",
                              field="senses")
    views = [gen.with_sense(sense) for sense in senses]
    outcomes = _lockstep_iterate(
        [_orbit_map(stack, gen.size, view.sense) for view in views],
        lambda orbits: _euler_steps(stack, gen.size,
                                    [views[i].sense for i in orbits]),
        f0, tol=power_tol, max_iters=opts.max_iters)
    return tuple(_evolution_pair(view, outcome, opts.tol)
                 for view, outcome in zip(views, outcomes))


def _euler_steps(stack, size: int, senses):
    """The map ``(I + dt G)^8`` of a ``(B, size)`` batch, row ``j`` in the
    sense ``senses[j]``, for the Euler step stack ``stack``: the envelope
    map applied ``_EULER_STEPS`` times, each call on the output of the one
    before; the result is the last call's output buffer."""
    step = _envelope_map(stack, size, senses)

    def steps(g):
        for _ in range(_EULER_STEPS):
            g = step(g)
        return g
    return steps


def _orbit_map(stack, size: int, sense: str):
    """The map of :func:`_euler_steps` for one orbit, on a vector."""
    steps = _euler_steps(stack, size, (sense,))
    return lambda g: steps(g[None])[0]


def _evolution_pair(gen: DiscreteGenerator, outcome, tol: float) -> EigenPair:
    """The certified pair of a cone orbit's ``(growth, phi, stats)``, or
    its error: a :class:`NoConvergence` gets the pair at its last iterate
    as ``best``."""
    if isinstance(outcome, NoConvergence):
        _, phi, stats = outcome.best
        outcome.best = _finish(gen, phi, "evolution", stats=stats)
    if isinstance(outcome, Exception):
        raise outcome
    _, phi, stats = outcome
    return _certified(_finish(gen, phi, "evolution", stats=stats), tol)


def solve_policy_iteration(gen: DiscreteGenerator,
                           opts: SolveOptions | None = None) -> EigenPair:
    """Eigenpair via Howard iteration with a Noda inner solve.

    For the frozen policy ``u`` the sparse matrix ``A_u`` takes row ``i``
    from control ``u[i]``.  Its principal pair is found by Noda iteration
    (:func:`nisio.perron.noda`), warm-started from the previous
    eigenvector and stopped once the Collatz-Weilandt band of ``A_u`` is
    at most ``tol / 10`` wide or stops narrowing at rounding level.  The
    policy is then refreshed greedily on the eigenvector, keeping the
    previous control on near-ties to prevent oscillation between
    equivalent policies (Bokanowski, Maroso and Zidani, SIAM J. Numer.
    Anal. 47, 2009, for the convergence of Howard's algorithm).
    Terminates because the policy set is finite; a revisited policy raises
    :class:`CycleDetected`.

    The pair at the stable policy is certified like the evolution route's:
    ``rho`` is the midpoint of the band ``[min G phi/phi, max G phi/phi]``,
    and a residual above ``tol`` raises :class:`NoConvergence` carrying
    the pair as ``best``.  A reducible ``A_u`` raises
    :class:`NotIrreducible`.
    """
    opts = opts or SolveOptions()
    nodes = np.arange(gen.size)
    policy = argmin_policy(gen, gen.grid.ones())
    seen = set()
    phi = gen.grid.ones()
    for it in range(1, MAX_POLICY_ITERS + 1):
        _, phi = noda(gen.frozen(policy).stack, phi, tol=opts.tol / 10)
        products = gen.stack @ phi
        best, greedy = _envelope(products, gen.size, gen.sense, with_arg=True)
        current = products[policy * gen.size + nodes]
        # best is on the envelope's side of current: one tie test, either
        # sense, relative to phi at the node, so that nodes where phi is
        # tiny still update
        tie = TIE_TOL * phi * max(1.0, float(np.max(np.abs(best / phi))))
        keep = (best - tie <= current) & (current <= best + tie)
        new_policy = np.where(keep, policy, greedy)
        if np.array_equal(new_policy, policy):
            return _certified(_finish(gen, phi, "policy_iteration",
                                      policy_iterations=it), opts.tol)
        seen.add(policy.tobytes())
        if new_policy.tobytes() in seen:
            raise CycleDetected(
                f"policy oscillation detected at iteration {it}",
                policies=(policy, new_policy))
        policy = new_policy
    raise NoConvergence(
        f"policy iteration did not stabilize in {MAX_POLICY_ITERS} sweeps",
        best=_finish(gen, phi, "policy_iteration"))

