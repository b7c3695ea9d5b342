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
  certified lower bound on ``rho``.  A frozen policy is a single-control
  problem: ``dv_check(gen.frozen(u))`` checks the identity at ``u``.
* Logarithmic transform: with ``psi = log phi``, the pair solves the
  ergodic Isaacs-type equation ``min_v [r + L_v psi] + 1/2 |sigma^T grad
  psi|^2 = rho`` up to discretization error, which must shrink under grid
  refinement.

The inner minimization of the rate function is done over ``psi = log f``
(unconstrained, and convex for a Metzler generator because each term
``nu_x L_xy exp(psi_y - psi_x)`` is convex in the increments) by one
damped Newton solve whose Hessian is a sparse weighted graph Laplacian;
convexity makes a single flat start sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cone import _cw_band
from .eigensolver import SolveOptions, _step_size
from .errors import ValidationError
from .generator import DiscreteGenerator, _envelope, apply_G
from .grid import (GridFunction, _whole_number, as_grid_function,
                   require_finite, require_nonnegative, require_positive)
from .perron import _csc_solve, noda
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
    require_positive(f, "f")
    return SandwichReport(*_cw_band(apply_G(gen, f), f), f_label, rho)


def cw_search(gen: DiscreteGenerator,
              iters: int = 50, f0: GridFunction | None = None,
              steps_per_iter: int = 16,
              rho: float | None = None) -> list[SandwichReport]:
    """Tighten the sandwich along the normalized semigroup orbit.

    Candidates are the semigroup iterates themselves (strictly positive
    by construction, and driven toward the eigenfunction).  Along this
    family the upper bound is nonincreasing and the lower bound
    nondecreasing, so the active bound improves monotonically toward
    ``rho``.  Returns one report per iterate, the start included.
    ``iters`` and ``steps_per_iter`` are whole numbers ``>= 1``; an
    integral float counts as its ``int``.
    """
    iters = _whole_number(iters, "iters", least=1)
    steps_per_iter = _whole_number(steps_per_iter, "steps_per_iter", least=1)
    f = gen.grid.ones() if f0 is None else as_grid_function(gen.grid, f0)
    require_positive(f, "starting function")
    dt = _step_size(gen, SolveOptions())
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

def _require_one_control(gen: DiscreteGenerator) -> None:
    if gen.n_controls != 1:
        raise ValidationError(
            "the rate function is defined for single-control generators only")


def _generator_part(gen: DiscreteGenerator) -> sp.csr_matrix:
    """The stacked generator parts ``vstack(L_v)``, ``L_v = A_v - diag(r_v)``."""
    return gen.stack - sp.vstack([sp.diags(r) for r in gen.r_tables])


_EPS = float(np.finfo(float).eps)
_ARMIJO = 0.25          # fraction of the predicted decrease a step must reach
_MAX_HALVINGS = 40      # backtracking gives up below a step of 2**-40


def dv_rate(gen: DiscreteGenerator, nu, maxiter: int = 2000) -> float:
    """Donsker-Varadhan rate ``I(nu) = -inf_{f>0} sum_x nu_x (Lf/f)_x``.

    Over ``f = e^psi`` the objective is
    ``J(psi) = nu . L1 + sum_{x != y} nu_x L_xy expm1(psi_y - psi_x)``
    (``L1 = 0`` up to rounding; with ``expm1`` the terms scale with the
    increments, so no terms of the size of ``diag L`` cancel).  Each term
    is convex in the increments.  With edge weights
    ``w_xy = nu_x L_xy exp(psi_y - psi_x)`` the Hessian is the graph
    Laplacian with edge weights ``w_xy + w_yx``: positive semidefinite,
    singular along the constants of each connected piece of the graph (a
    node that no edge touches is one such piece).  The infimum is found
    by damped Newton steps from ``psi = 0`` on that sparse Hessian, its
    diagonal shifted by ``N`` ulps of the largest entry, with Armijo
    backtracking.  The iteration stops when the Newton decrement reaches
    the rounding level of ``J``'s terms, when backtracking cannot lower
    ``J``, or after ``maxiter`` steps, a whole number ``>= 0`` (an
    integral float counts as its ``int``; ``0`` gives the flat start's
    value).  Convexity makes the flat start as good as any.

    Always nonnegative; zero exactly at stationary distributions of ``L``.
    Tiny negative values from rounding are clamped to 0.
    """
    _require_one_control(gen)
    L = _generator_part(gen)
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (gen.size,):
        raise ValidationError(f"nu must have shape ({gen.size},)")
    require_finite(nu, "nu")
    require_nonnegative(nu, "nu")
    total = float(np.sum(nu))
    if abs(total - 1.0) > 1e-8:
        raise ValidationError(f"nu must sum to 1, got {total!r}")
    maxiter = _whole_number(maxiter, "maxiter", least=0)

    n = gen.size
    coo = L.tocoo()
    edge = (coo.row != coo.col) & (coo.data > 0) & (nu[coo.row] > 0)
    src, dst = coo.row[edge], coo.col[edge]
    coef = nu[src] * coo.data[edge]
    base = float(nu @ (L @ np.ones(n)))
    nodes = np.arange(n)
    # The Hessian's triplets: ``csc_matrix`` sums each entry's terms, and an
    # entry has at most two, -w_xy and -w_yx, whose sum does not depend on
    # their order (signed zeros included).
    h_rows = np.concatenate([src, dst, nodes])
    h_cols = np.concatenate([dst, src, nodes])

    def evaluate(psi):
        """Edge weights, the terms of ``J - base`` and ``J`` at ``psi``."""
        inc = psi[dst] - psi[src]
        with np.errstate(over="ignore"):
            w = coef * np.exp(inc)
            terms = coef * np.expm1(inc)
        return w, terms, base + float(np.sum(terms))

    psi = np.zeros(n)
    w, terms, j = evaluate(psi)
    for _ in range(maxiter):
        out_w = np.bincount(src, w, minlength=n)
        in_w = np.bincount(dst, w, minlength=n)
        grad = in_w - out_w
        diag = out_w + in_w
        shift = n * _EPS * float(np.max(diag))
        h = sp.csc_matrix((np.concatenate([-w, -w, diag + shift]),
                           (h_rows, h_cols)), shape=(n, n))
        step = _csc_solve(n, h.data, h.indices, h.indptr, -grad)
        decrement = -float(grad @ step)
        if not decrement > _EPS * (abs(base) + float(np.sum(np.abs(terms)))):
            break                           # rounding level, or a NaN solve
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = psi + t * step
            trial -= np.max(trial)          # J is shift invariant
            w_t, terms_t, j_t = evaluate(trial)
            if j_t <= j - _ARMIJO * t * decrement:
                break
            t *= 0.5
        else:
            break                           # backtracking cannot lower J
        psi, w, terms, j = trial, w_t, terms_t, j_t
    return max(0.0, -j)


@dataclass(frozen=True)
class DvReport:
    """Donsker-Varadhan identity check at the twisted stationary measure."""

    rho: float
    certificate: float     # int r dnu* - I(nu*)
    gap: float
    rate: float            # I(nu*)
    nu: np.ndarray


def dv_check(gen: DiscreteGenerator) -> DvReport:
    """Evaluate ``sup_nu (int r dnu - I(nu))`` at the known optimizer.

    The candidate ``nu*`` is the normalized componentwise product of the
    right and left principal eigenvectors of ``A = L + diag(r)`` (the
    twisted stationary measure).  Both come from Noda iteration
    (:func:`nisio.perron.noda`) on the sparse ``A`` and ``A.T``, run to
    rounding level; ``rho`` comes from the same Perron solves, as the
    midpoint of the Collatz-Weilandt band at the right eigenvector, so
    the reported gap isolates the rate-function evaluation.
    """
    _require_one_control(gen)
    rho, phi = noda(gen.stack)
    _, phi_hat = noda(gen.stack.T)
    nu = phi * phi_hat
    nu = nu / np.sum(nu)
    rate = dv_rate(gen, nu)
    certificate = float(gen.r_tables[0] @ nu) - rate
    return DvReport(rho=rho, certificate=certificate,
                    gap=abs(rho - certificate), rate=rate, nu=nu)


# ---------------------------------------------------------------------------
# logarithmic (Isaacs) transform residual
# ---------------------------------------------------------------------------

def _centered_gradient(gen: DiscreteGenerator, psi: np.ndarray) -> np.ndarray:
    """Per-axis centered differences over :meth:`Grid.neighbour`.

    The mirror rule makes them zero at the reflecting endpoints.
    """
    grid = gen.grid
    units = np.eye(grid.d, dtype=int)
    return np.column_stack([
        (psi[grid.neighbour(e)] - psi[grid.neighbour(-e)]) / (2 * grid.h)
        for e in units])


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
    require_positive(phi, "phi")
    psi = np.log(phi)
    grad = _centered_gradient(gen, psi)
    quad = 0.5 * np.einsum("xi,xij,xj->x", grad, gen.a_table, grad)
    linear = _generator_part(gen) @ psi + gen.r_tables.ravel()
    env = _envelope(linear, gen.size, gen.sense)
    residual = float(np.max(np.abs(env + quad - pair.rho)))
    return HjiReport(residual=residual, h=gen.grid.h, n=gen.grid.n)
