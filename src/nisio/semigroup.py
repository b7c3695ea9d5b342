"""Explicit-Euler time stepping of the dynamic-programming semigroup.

One step of size ``dt`` maps ``f`` to ``f + dt * G f``, realized as the
pointwise envelope ``min_v (I + dt A_v) f``: one product with the stacked
Euler matrices and one reduction over controls.  The step bound
``gen.dt_max`` is read from the stencil as two conditions: at
``dt <= 1 / max q_v`` (``q_v`` the off-diagonal row sum of ``L_v``)
``I + dt L_v`` is a Markov-chain step, and at ``dt <= 1 / max(-diag A_v)``
``I + dt A_v`` is entrywise nonnegative.  Under it the discrete evolution
shares the structural properties of the continuous semigroup *exactly*:

* monotone: ``f <= g`` implies ``step(f) <= step(g)`` entrywise,
* positively 1-homogeneous (bit-exact for power-of-two factors),
* superadditive: ``step(f + g) >= step(f) + step(g)``,
* dominated by every frozen-control evolution ``evolve(gen.frozen(v), ...)``
  (envelope inequality).

Explicit Euler is deliberately chosen over implicit stepping: it keeps
these order properties machine-checkable per step instead of approximate,
at an acceptable step-bound cost for the grid sizes this library targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflViolation, ValidationError
from .generator import DiscreteGenerator, _envelope, _envelope_map, apply_G
from .grid import GridFunction, _whole_number, as_grid_function, require_positive

__all__ = [
    "EvolveOptions",
    "step",
    "evolve",
    "generator_limit_check",
]


@dataclass(frozen=True)
class EvolveOptions:
    """Time-stepping parameters.

    ``dt`` is the requested step; :func:`evolve` snaps it *down* so that
    ``t_final`` is an integer number of steps (exact semigroup composition
    tests rely on this), and raises :class:`CflViolation` when it is above
    the generator's ``dt_max``.  ``record_every`` > 0, a whole number (an
    integral float is stored as an ``int``), makes :func:`evolve` return
    the recorded snapshots as well.
    """

    dt: float
    t_final: float
    record_every: int = 0

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValidationError("dt must be positive and finite")
        if not (self.t_final >= 0 and math.isfinite(self.t_final)):
            raise ValidationError("t_final must be nonnegative and finite")
        object.__setattr__(self, "record_every",
                           _whole_number(self.record_every, "record_every"))
        if self.record_every < 0:
            raise ValidationError("record_every must be >= 0",
                                  field="record_every")

    def n_steps(self) -> int:
        if self.t_final == 0:
            return 0
        return max(1, math.ceil(self.t_final / self.dt - 1e-9))


def _check_cfl(gen: DiscreteGenerator, dt: float) -> None:
    if dt > gen.dt_max:
        raise CflViolation(
            f"dt = {dt:.6g} exceeds the stability bound dt_max = {gen.dt_max:.6g}")


def step(gen: DiscreteGenerator, f: GridFunction, dt: float) -> GridFunction:
    """One explicit Euler step ``f + dt * G f``.

    Computed as ``min_v (I + dt A_v) f`` so that monotonicity and the
    envelope inequality hold exactly for ``dt <= gen.dt_max``.
    """
    _check_cfl(gen, dt)
    f = as_grid_function(gen.grid, f)
    return _envelope(gen.step_stack(dt) @ f, gen.size, gen.sense)


def evolve(gen: DiscreteGenerator, f: GridFunction, opts: EvolveOptions):
    """Evolve ``f`` to time ``t_final`` by composed Euler steps.

    ``opts.dt`` is checked against ``dt_max`` and snapped down so that a
    whole number of steps reaches ``t_final``.  ``t_final = 0`` returns
    ``f`` unchanged.  With ``record_every > 0`` returns ``(f_final, times,
    snapshots)``; otherwise just ``f_final``.
    """
    f = as_grid_function(gen.grid, f)
    _check_cfl(gen, opts.dt)
    n = opts.n_steps()
    dt = opts.t_final / n if n else opts.dt
    # the snapped dt may land just above the requested one (n_steps allows
    # a 1e-9 slack, and t_final / n rounds): add steps until it fits
    while dt > gen.dt_max and n < 2 ** 62:
        n += 1
        dt = opts.t_final / n
    _check_cfl(gen, dt)
    record = opts.record_every > 0
    times, snaps = [0.0], [f.copy()]
    if n:
        euler = _envelope_map(gen.step_stack(dt), gen.size, gen.sense)
        f = np.ascontiguousarray(f, dtype=float)
        for k in range(1, n + 1):
            f = euler(f)
            if record and (k % opts.record_every == 0 or k == n):
                times.append(k * dt)
                snaps.append(f.copy())
    if record:
        return f, np.array(times), np.array(snaps)
    return f


def generator_limit_check(gen: DiscreteGenerator, f: GridFunction,
                          t_list) -> np.ndarray:
    """Sup-norm residuals of ``(S_t f - f)/t`` against ``G f`` per ``t``.

    For smooth positive ``f`` the residual decays linearly in ``t`` (it is
    the first-order Taylor remainder of the evolution), so halving ``t``
    should roughly halve the residual.
    """
    f = as_grid_function(gen.grid, f)
    require_positive(f)
    gf = apply_G(gen, f)
    out = []
    for t in t_list:
        if not t > 0:
            raise ValidationError("every t in t_list must be positive")
        ft = evolve(gen, f, EvolveOptions(dt=gen.dt_max, t_final=float(t)))
        out.append(float(np.max(np.abs((ft - f) / t - gf))))
    return np.array(out)
