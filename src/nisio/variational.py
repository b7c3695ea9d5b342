"""Variational cross-checks of the principal eigenvalue.

Three independent characterizations of ``rho`` are evaluated here:

* Collatz-Weilandt sandwich: for every strictly positive grid function
  ``f``, ``min_x (Gf/f)(x) <= rho <= max_x (Gf/f)(x)``.  Over discrete
  probability weights the inner sup/inf over measures is attained at
  point masses, so the bounds reduce to the pointwise extremes of
  ``Gf/f``; both collapse to ``rho`` at ``f = phi``.
* Donsker-Varadhan duality (single control): ``rho = sup_nu (int r dnu -
  I(nu))`` with the rate function ``I(nu) = -inf_{f>0} int (L f / f) dnu``,
  the optimizer being the twisted stationary measure built from the left
  and right principal eigenvectors.  Every evaluated ``nu`` yields a
  certified lower bound on ``rho``.
* Logarithmic transform: with ``psi = log phi``, the pair solves the
  ergodic Isaacs-type equation ``min_v [r + L_v psi] + 1/2 |sigma^T grad
  psi|^2 = rho`` up to discretization error, which must shrink under grid
  refinement.

The inner minimization of the rate function is done over ``psi = log f``
(unconstrained, and convex for a Metzler generator because each term
``nu_x L_xy exp(psi_y - psi_x)`` is convex in the increments), with an
analytic gradient and multiple starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NonPositiveInput, ValidationError
from .generator import DiscreteGenerator, _envelope, apply_G
from .grid import GridFunction, INTERVAL, as_grid_function
from .perron import noda
from .semigroup import EvolveOptions, evolve

__all__ = ["SandwichReport", "DvReport", "HjiReport", "cw_bounds",
           "cw_search", "dv_rate", "dv_check", "hji_residual"]


@dataclass(frozen=True)
class SandwichReport:
    """Collatz-Weilandt bounds of ``Gf/f`` for one test function."""

    lower: float
    upper: float
    f_label: str = ""
    rho: float | None = None

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def cw_bounds(gen: DiscreteGenerator, f: GridFunction,
              f_label: str = "", rho: float | None = None) -> SandwichReport:
    """Pointwise extremes of ``Gf/f`` for strictly positive ``f``.

    These are the point-mass reductions of the measure-valued sandwich
    and bracket the principal eigenvalue for *any* admissible ``f``.
    """
    f = as_grid_function(gen.grid, f)
    if np.min(f) <= 0:
        raise NonPositiveInput("f must be strictly positive")
    return SandwichReport(*_cw_band(apply_G(gen, f), f), f_label, rho)


def _cw_band(gf: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Collatz-Weilandt band ``(min gf/f, max gf/f)`` of ``gf = G f``."""
    ratios = gf / f
    return float(np.min(ratios)), float(np.max(ratios))


def cw_search(gen: DiscreteGenerator, direction: str = "both",
              iters: int = 50, f0: GridFunction | None = None,
              steps_per_iter: int = 16,
              rho: float | None = None) -> list[SandwichReport]:
    """Tighten the sandwich along the normalized semigroup orbit.

    Candidates are the semigroup iterates themselves (strictly positive
    by construction, and driven toward the eigenfunction).  Along this
    family the upper bound is nonincreasing and the lower bound
    nondecreasing, so the active bound improves monotonically toward
    ``rho``.  Returns one report per iterate, the start included.
    """
    if direction not in ("tighten-lower", "tighten-upper", "both"):
        raise ValidationError(
            "direction must be 'tighten-lower', 'tighten-upper' or 'both'")
    if iters < 1:
        raise ValidationError("iters must be >= 1")
    f = gen.grid.ones() if f0 is None else as_grid_function(gen.grid, f0)
    if np.min(f) <= 0:
        raise NonPositiveInput("starting function must be strictly positive")
    dt = gen.dt_max * 0.9
    opts = EvolveOptions(dt=dt, t_final=steps_per_iter * dt)
    reports = [cw_bounds(gen, f, f_label="iterate 0", rho=rho)]
    for k in range(1, iters + 1):
        f = evolve(gen, f, opts)
        f = f / np.max(f)
        reports.append(cw_bounds(gen, f, f_label=f"iterate {k}", rho=rho))
    return reports


# ---------------------------------------------------------------------------
# Donsker-Varadhan rate function (single control)
# ---------------------------------------------------------------------------

def _single_control_L(gen: DiscreteGenerator) -> sp.csr_matrix:
    if gen.n_controls != 1:
        raise ValidationError(
            "the rate function is defined for single-control generators only")
    return (gen.mats[0] - sp.diags(gen.r_tables[0])).tocsr()


def _dv_objective(L: sp.csr_matrix, LT: sp.csr_matrix, nu: np.ndarray):
    """Objective ``J(psi) = sum_x nu_x e^{-psi_x} (L e^psi)_x`` and gradient."""

    def fun(psi):
        psi = psi - np.max(psi)       # shift invariance; avoids overflow
        u = np.exp(psi)
        Lu = L @ u
        j = float(nu @ (Lu / u))
        if not math.isfinite(j):
            return np.inf, np.zeros_like(psi)
        grad = u * (LT @ (nu / u)) - nu * Lu / u
        return j, grad

    return fun


def dv_rate(gen: DiscreteGenerator, nu, n_starts: int = 3, seed: int = 0,
            maxiter: int = 2000, gtol: float = 1e-11,
            extra_starts=()) -> float:
    """Donsker-Varadhan rate ``I(nu) = -inf_{f>0} sum_x nu_x (Lf/f)_x``.

    The infimum is taken over ``f = e^psi`` by quasi-Newton minimization
    with the analytic gradient, from several starts (the flat function,
    seeded random perturbations, and any caller-provided ``extra_starts``).
    Always nonnegative; zero exactly at stationary distributions of ``L``.
    Tiny negative values from incomplete minimization are clamped to 0.
    """
    import scipy.optimize

    L = _single_control_L(gen)
    LT = L.T.tocsr()
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (gen.size,):
        raise ValidationError(f"nu must have shape ({gen.size},)")
    if np.min(nu) < 0:
        raise NonPositiveInput("nu must be nonnegative")
    total = float(np.sum(nu))
    if abs(total - 1.0) > 1e-8:
        raise ValidationError(f"nu must sum to 1, got {total!r}")
    fun = _dv_objective(L, LT, nu)

    rng = np.random.default_rng(seed)
    starts = [np.zeros(gen.size)]
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)
    while len(starts) < n_starts + len(extra_starts) + 1:
        starts.append(0.5 * rng.standard_normal(gen.size))

    best = math.inf
    for psi0 in starts:
        res = scipy.optimize.minimize(
            fun, psi0, jac=True, method="L-BFGS-B",
            options={"maxiter": maxiter, "gtol": gtol, "ftol": 1e-15})
        if res.fun < best:
            best = float(res.fun)
    return max(0.0, -best)


@dataclass(frozen=True)
class DvReport:
    """Donsker-Varadhan identity check at the twisted stationary measure."""

    rho: float
    certificate: float     # int r dnu* - I(nu*)
    gap: float
    rate: float            # I(nu*)
    nu: np.ndarray


def dv_check(gen: DiscreteGenerator, seed: int = 0) -> DvReport:
    """Evaluate ``sup_nu (int r dnu - I(nu))`` at the known optimizer.

    The candidate ``nu*`` is the normalized componentwise product of the
    right and left principal eigenvectors of ``A = L + diag(r)`` (the
    twisted stationary measure).  Both come from Noda iteration
    (:func:`nisio.perron.noda`) on the sparse ``A`` and ``A.T``, run to
    rounding level; ``rho`` comes from the same Perron solves, as the
    midpoint of the Collatz-Weilandt band at the right eigenvector, so
    the reported gap isolates the rate-function evaluation.
    """
    _single_control_L(gen)
    A = gen.mats[0]
    rho, phi = noda(A)
    _, phi_hat = noda(A.T)
    nu = phi * phi_hat
    nu = nu / np.sum(nu)
    rate = dv_rate(gen, nu, seed=seed, extra_starts=[np.log(phi)])
    certificate = float(gen.r_tables[0] @ nu) - rate
    return DvReport(rho=rho, certificate=certificate,
                    gap=abs(rho - certificate), rate=rate, nu=nu)


# ---------------------------------------------------------------------------
# logarithmic (Isaacs) transform residual
# ---------------------------------------------------------------------------

def _centered_gradient(gen: DiscreteGenerator, psi: np.ndarray) -> np.ndarray:
    """Per-axis centered differences; zero at reflecting endpoints."""
    grid = gen.grid
    h = grid.h
    if grid.d == 1:
        g = np.empty_like(psi)
        if grid.topology == INTERVAL:
            g[1:-1] = (psi[2:] - psi[:-2]) / (2 * h)
            g[0] = 0.0       # mirror ghost: psi(-h) = psi(h)
            g[-1] = 0.0
        else:
            g = (np.roll(psi, -1) - np.roll(psi, 1)) / (2 * h)
        return g[:, None]
    f = psi.reshape(grid.n, grid.n)
    g1 = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * h)
    g2 = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2 * h)
    return np.column_stack([g1.ravel(), g2.ravel()])


@dataclass(frozen=True)
class HjiReport:
    """Sup-norm residual of the log-transformed eigen-equation."""

    residual: float
    h: float
    n: int


def hji_residual(gen: DiscreteGenerator, pair) -> HjiReport:
    """Residual of ``min_v [r + L_v psi] + 1/2 grad(psi)^T a grad(psi) = rho``
    at ``psi = log phi``.

    The quadratic term uses ``a = sigma sigma^T`` and centered gradients,
    so the residual measures how well the discrete pair satisfies the
    transformed equation; it shrinks under grid refinement and vanishes
    identically when the cost is constant (``psi = 0``).
    """
    phi = as_grid_function(gen.grid, pair.phi)
    if np.min(phi) <= 0:
        raise NonPositiveInput("phi must be strictly positive")
    psi = np.log(phi)
    grad = _centered_gradient(gen, psi)
    quad = 0.5 * np.einsum("xi,xij,xj->x", grad, gen.a_table, grad)
    linear = np.stack([(A - sp.diags(r)) @ psi + r
                       for A, r in zip(gen.mats, gen.r_tables)])
    env = _envelope(linear, gen.size, gen.sense)
    residual = float(np.max(np.abs(env + quad - pair.rho)))
    return HjiReport(residual=residual, h=gen.grid.h, n=gen.grid.n)
