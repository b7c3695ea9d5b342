"""Cone iteration: bracket functionals, convergence, rate extraction."""

import numpy as np
import pytest

from nisio import (
    OrbitStats,
    alpha_bounds,
    fit_exponential_rate,
    power_iterate,
    perron,
    solve_evolution,
)
from nisio.errors import (
    InsufficientData,
    NonPositiveEta,
    NonPositiveInput,
    NonPositiveIterate,
)
from nisio.semigroup import step

from conftest import random_irreducible


def test_alpha_bounds_examples():
    ref = np.array([0.5, 1.0, 0.25])
    assert alpha_bounds(ref, ref) == (1.0, 1.0)
    assert alpha_bounds(2.0 * ref, ref) == (2.0, 2.0)
    bumped = ref.copy()
    bumped[1] += ref[1]
    assert alpha_bounds(bumped, ref) == (1.0, 2.0)
    with pytest.raises(NonPositiveInput):
        alpha_bounds(ref, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(NonPositiveInput):
        alpha_bounds(-ref, ref)


def test_power_iterate_flat_matrix():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    growth, fp, stats = power_iterate(lambda g: m @ g, np.array([0.3, 0.9]))
    assert growth == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(fp, [1.0, 1.0])
    assert stats.converged


def test_power_iterate_from_eigenfunction(cosine_gen, cosine_pair):
    dt = cosine_gen.dt_max * 0.9
    growth, _, stats = power_iterate(
        lambda g: step(cosine_gen, g, dt), cosine_pair.phi,
        tol=1e-8 * dt)
    assert stats.n_iterations <= 2
    assert growth == pytest.approx(1.0 + dt * cosine_pair.rho, abs=1e-12)


def test_growth_matches_perron():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        q = random_irreducible(rng, n)
        lam, _ = perron(q, tol=1e-13)
        growth, _, _ = power_iterate(lambda g: q @ g, np.ones(n), tol=1e-13)
        assert growth == pytest.approx(lam, rel=1e-8)


def test_scaling_invariance_of_iteration(cosine_gen):
    dt = cosine_gen.dt_max * 0.9
    f0 = np.random.default_rng(12).uniform(0.2, 1.0, cosine_gen.size)
    one_step = lambda g: step(cosine_gen, g, dt)
    g1, fp1, s1 = power_iterate(one_step, f0, tol=1e-9 * dt)
    g2, fp2, s2 = power_iterate(one_step, 4.0 * f0, tol=1e-9 * dt)
    assert np.array_equal(fp1, fp2)            # power-of-two start scaling
    assert s1.n_iterations == s2.n_iterations
    assert g1 == g2


def test_monotone_bracket_and_eta(cosine_pair):
    stats = cosine_pair.stats
    assert np.all(np.diff(stats.under_alpha) >= -1e-10)
    assert np.all(np.diff(stats.over_alpha) <= 1e-10)
    assert np.all(stats.eta >= 0.0)
    assert stats.eta[-1] < 1e-6          # bracket closed
    fit = fit_exponential_rate(stats)
    assert fit.theta > 0
    assert fit.r2 >= 0.99


def test_rho_estimate_nonincreasing(cosine_pair):
    # the per-iteration upper growth estimate decreases along the orbit
    est = cosine_pair.stats.rho_estimate
    assert np.all(np.diff(est) <= 1e-12)


def test_fit_synthetic_geometric():
    k = np.arange(40)
    eta = 0.5 ** k
    stats = OrbitStats(iterations=k, under_alpha=np.zeros(40),
                       over_alpha=eta, eta=eta, rho_estimate=np.zeros(40),
                       sup_norm=np.ones(40), n_iterations=40, converged=True,
                       zeta1=1.0)
    fit = fit_exponential_rate(stats)
    assert fit.theta == pytest.approx(np.log(2.0), rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_eta_flags_no_contraction():
    k = np.arange(20)
    eta = np.full(20, 0.25)
    stats = OrbitStats(iterations=k, under_alpha=np.zeros(20),
                       over_alpha=eta, eta=eta, rho_estimate=np.zeros(20),
                       sup_norm=np.ones(20), n_iterations=20, converged=True,
                       zeta1=1.0)
    fit = fit_exponential_rate(stats)
    assert fit.theta == 0.0


def test_fit_errors():
    base = dict(under_alpha=np.zeros(5), rho_estimate=np.zeros(5),
                sup_norm=np.ones(5), n_iterations=5, converged=True, zeta1=1.0)
    short = OrbitStats(iterations=np.arange(5), over_alpha=np.ones(5),
                       eta=0.5 ** np.arange(5), **base)
    with pytest.raises(InsufficientData):
        fit_exponential_rate(short)
    zero = OrbitStats(iterations=np.arange(5), over_alpha=np.zeros(5),
                      eta=np.zeros(5), **base)
    with pytest.raises(NonPositiveEta):
        fit_exponential_rate(zero)


def test_non_positive_iterate():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])    # second row kills positivity
    with pytest.raises(NonPositiveIterate):
        power_iterate(lambda g: m @ g, np.array([1.0, 1.0]))


def test_multi_start_uniqueness(cosine_gen):
    rng = np.random.default_rng(13)
    pairs = [solve_evolution(cosine_gen)]
    from nisio.eigensolver import SolveOptions
    for _ in range(4):
        f0 = rng.uniform(0.2, 1.0, cosine_gen.size)
        pairs.append(solve_evolution(cosine_gen, SolveOptions(f0=f0)))
    for p in pairs[1:]:
        assert np.max(np.abs(p.phi - pairs[0].phi)) <= 1e-6
        assert abs(p.rho - pairs[0].rho) <= 1e-8


def test_p1_p2_diagnostics(cosine_gen):
    from nisio.eigensolver import SolveOptions
    pair = solve_evolution(cosine_gen, SolveOptions(collect_p1=True, tol=1e-6))
    assert pair.stats.zeta1 >= 1.0
    assert pair.stats.p1_min is not None and pair.stats.p1_min > 0
