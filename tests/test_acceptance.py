"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each test prints ``criterion NN PASS`` after its assertions
(pytest itself reports the pass/fail verdict per test either way).
"""

import time

import numpy as np
import pytest

from nisio import (
    EvolveOptions,
    SolveOptions,
    build_generator,
    cw_bounds,
    cw_lower,
    cw_upper,
    dv_check,
    dv_rate,
    evolve,
    fit_exponential_rate,
    generator_limit_check,
    hji_residual,
    perron,
    simulate_cost,
    solve_evolution,
    solve_policy_iteration,
)
from nisio.mc import McConfig, policy_sweep
from nisio import problems

from conftest import random_irreducible


def report(num, text):
    print(f"\ncriterion {num:02d} PASS: {text}")


# ---------------------------------------------------------------------------

def test_criterion_01_matrix_cw_oracle_suite():
    """100 random irreducible matrices: Perron vs dense, CW sandwich."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        q = random_irreducible(rng, n)
        lam_oracle = float(np.max(np.linalg.eigvals(q).real))
        lam, x = perron(q, tol=1e-13)
        assert lam == pytest.approx(lam_oracle, rel=1e-8)
        for _ in range(100):
            v = rng.uniform(0.01, 1.0, n)
            assert cw_lower(q, v) <= lam_oracle + 1e-10
            assert cw_upper(q, v) >= lam_oracle - 1e-10
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"perron within 1e-8 of dense eig, sandwich holds "
              f"(100 matrices x 100 vectors, {elapsed:.1f}s)")


def test_criterion_02_semigroup_invariant_suite():
    """Exact monotonicity/homogeneity/superadditivity/envelope at t = 1."""
    t0 = time.time()
    rng = np.random.default_rng(102)
    dt = 2.0 ** -13
    for spec in (problems.torus_two_control(64),
                 problems.interval_two_control(64)):
        gen = build_generator(spec)
        opts = EvolveOptions(dt=dt, t_final=1.0)
        rmax = gen.r_max
        f = rng.uniform(0.1, 1.0, gen.size)
        g = f + rng.uniform(0.0, 1.0, gen.size)
        sf, sg = evolve(gen, f, opts), evolve(gen, g, opts)

        assert np.all(sf <= sg)                                   # monotone
        assert np.array_equal(evolve(gen, 2.0 * f, opts), 2.0 * sf)   # homog
        h = rng.uniform(0.05, 2.0, gen.size)
        lhs = evolve(gen, f + h, opts)
        rhs = sf + evolve(gen, h, opts)
        assert np.min(lhs - rhs) >= 0.0                           # superadd
        for v in range(gen.n_controls):
            assert np.all(evolve(gen.frozen(v), f, opts) >= sf)   # envelope
        bound = np.exp(rmax)
        assert np.max(np.abs(sf)) <= bound * np.max(np.abs(f)) + 1e-9
        assert np.max(np.abs(sf - sg)) <= bound * np.max(np.abs(f - g)) + 1e-9
        two_step = evolve(gen, evolve(gen, f, EvolveOptions(dt, 0.25)),
                          EvolveOptions(dt, 0.75))
        assert np.array_equal(two_step, sf)                       # composition
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"exact order/envelope/composition properties at t=1 "
              f"(interval + torus, {elapsed:.1f}s)")


def test_criterion_03_generator_limit(cosine_gen):
    """(S_t f - f)/t -> G f with first-order residual decay."""
    t0 = time.time()
    rng = np.random.default_rng(103)
    x = cosine_gen.grid.nodes()[:, 0]
    for _ in range(5):
        c = rng.uniform(-0.3, 0.3, 2)
        f = 1.0 + c[0] * np.sin(2 * np.pi * x) + c[1] * np.cos(2 * np.pi * x)
        res = generator_limit_check(cosine_gen, f, [0.1, 0.05, 0.025])
        ratios = res[:-1] / res[1:]
        assert np.all((1.5 <= ratios) & (ratios <= 2.5))
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, f"halving t scales the limit residual by [1.5, 2.5] "
              f"(5 random smooth f, {elapsed:.1f}s)")


def test_criterion_04_eigensolver_exactness():
    """r = c: rho = c and phi = 1 to 1e-10."""
    for c in (0.7, -0.3):
        gen = build_generator(problems.constant_cost(c, 64))
        for pair in (solve_evolution(gen), solve_policy_iteration(gen)):
            assert abs(pair.rho - c) <= 1e-10
            assert np.max(np.abs(pair.phi - 1.0)) <= 1e-10
    report(4, "constant cost gives rho = c, phi = 1 to 1e-10 (both methods)")


def test_criterion_05_eigensolver_oracle(corpus_pairs, corpus_policy_pairs):
    """Dense-eigendecomposition oracle and cross-method agreement."""
    t0 = time.time()
    gen = build_generator(problems.torus_cosine(128))
    pair = solve_evolution(gen)
    lam_oracle = float(np.max(np.linalg.eigvals(gen.frozen(0).stack.toarray()).real))
    assert pair.rho == pytest.approx(lam_oracle, rel=1e-6)
    for name, pe in corpus_pairs.items():
        pp = corpus_policy_pairs[name]
        assert abs(pe.rho - pp.rho) <= 1e-6 * max(1e-3, abs(pe.rho)), name
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(5, f"rho matches dense eig at n=128 (rel 1e-6); methods agree on "
              f"the 6-problem corpus ({elapsed:.1f}s)")


def test_criterion_06_sandwich(corpus, corpus_pairs):
    """Collatz-Weilandt sandwich for 100 random positive f per problem."""
    rng = np.random.default_rng(106)
    for name, (spec, gen) in corpus.items():
        pair = corpus_pairs[name]
        for _ in range(100):
            f = rng.uniform(0.05, 2.0, gen.size)
            rep = cw_bounds(gen, f)
            assert rep.lower <= pair.rho + 1e-8, name
            assert rep.upper >= pair.rho - 1e-8, name
        gap = cw_bounds(gen, pair.phi).gap
        assert gap <= 2.0 * 1e-9, name       # twice the solve tolerance
    report(6, "lower <= rho <= upper for 600 random f; gap at phi within "
              "2x residual tolerance")


def test_criterion_07_exponential_convergence(corpus_pairs):
    """Bracket contraction is log-linear with monotone endpoints."""
    for name, pair in corpus_pairs.items():
        st = pair.stats
        assert np.all(np.diff(st.under_alpha) >= -1e-10), name
        assert np.all(np.diff(st.over_alpha) <= 1e-10), name
        fit = fit_exponential_rate(st)
        assert fit.theta > 0, name
        assert fit.r2 >= 0.99, name
    report(7, "eta decays log-linearly (theta > 0, r2 >= 0.99); bracket "
              "monotone within 1e-10 on all corpus orbits")


def test_criterion_08_uniqueness(cosine_gen):
    """Ten random starts reach the same normalized eigenpair."""
    rng = np.random.default_rng(108)
    pairs = []
    for _ in range(10):
        f0 = rng.uniform(0.1, 1.0, cosine_gen.size)
        pairs.append(solve_evolution(cosine_gen, SolveOptions(f0=f0)))
    for p in pairs[1:]:
        assert np.max(np.abs(p.phi - pairs[0].phi)) <= 1e-6
        assert abs(p.rho - pairs[0].rho) <= 1e-8
    report(8, "10 random starts: phi within 1e-6 sup norm, rho within 1e-8")


def test_criterion_09_max_version(corpus, corpus_pairs):
    """beta >= rho everywhere; equality for single-control problems."""
    for name, (spec, gen) in corpus.items():
        beta = solve_evolution(gen.with_sense("maximize")).rho
        rho = corpus_pairs[name].rho
        assert beta >= rho - 1e-10, name
        if gen.n_controls == 1:
            assert abs(beta - rho) <= 1e-10, name
    report(9, "beta >= rho on the corpus; beta = rho to 1e-10 when the "
              "control set is a singleton")


def test_criterion_10_donsker_varadhan(cosine_gen):
    """DV identity at n = 64 plus 20 random lower-bound certificates."""
    t0 = time.time()
    rep = dv_check(cosine_gen)
    assert rep.gap <= 1e-3
    rng = np.random.default_rng(110)
    r_vec = cosine_gen.r_tables[0]
    for _ in range(20):
        nu = rng.dirichlet(np.ones(cosine_gen.size))
        cert = float(r_vec @ nu) - dv_rate(cosine_gen, nu)
        assert cert <= rep.rho + 1e-6
    gen0 = build_generator(problems.constant_cost(0.0, 64))
    rep0 = dv_check(gen0)
    assert rep0.rate <= 1e-6          # I(stationary) = 0 when r = 0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(10, f"DV gap {rep.gap:.1e} <= 1e-3; 20 certificates below rho; "
               f"I(stationary) <= 1e-6 ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_11_hji_residual(corpus):
    """Log-transform residual shrinks from n = 64 to n = 256; 0 for r = c."""
    makers = {
        "torus_cosine": problems.torus_cosine,
        "torus_cosine_drift": problems.torus_cosine_drift,
        "torus_two_control": problems.torus_two_control,
        "torus_variable_sigma": problems.torus_variable_sigma,
        "interval_cosine": problems.interval_cosine,
        "interval_two_control": problems.interval_two_control,
    }
    for name, make in makers.items():
        res = {}
        for n in (64, 256):
            gen = build_generator(make(n))
            pair = solve_evolution(gen)
            res[n] = hji_residual(gen, pair).residual
        assert res[256] < res[64], (name, res)
    gen = build_generator(problems.constant_cost(1.0, 64))
    pair = solve_evolution(gen, SolveOptions(dt=2.0 ** -13))
    assert hji_residual(gen, pair).residual == 0.0
    report(11, "residual decreases from n=64 to n=256 on all 6 corpus "
               "problems; exactly 0 for constant cost")


@pytest.mark.slow
def test_criterion_12_mc_cross_validation():
    """Simulated cost matches rho; frozen controls never beat it."""
    t0 = time.time()
    spec = problems.torus_two_control(64)
    gen = build_generator(spec)
    pair = solve_evolution(gen)
    base = McConfig(T=20.0, dt_sim=1e-3, N=10_000, seed=1204, x0=(0.5,),
                    policy=pair.policy)
    est = simulate_cost(spec, base)
    assert abs(est.value - pair.rho) <= max(3 * est.stderr, 5e-2)
    constants = policy_sweep(
        spec, base, [np.full(gen.size, v) for v in range(gen.n_controls)])
    for e in constants:
        assert e.value >= pair.rho - 5e-2
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(12, f"optimal-policy estimate {est.value:.4f} vs rho "
               f"{pair.rho:.4f} (3 sigma = {3*est.stderr:.1e}); constant "
               f"controls dominate ({elapsed:.0f}s)")


def test_criterion_13_periodic_2d_separability():
    """Separable 2D cost: rho equals twice the 1D cosine value."""
    gen1 = build_generator(problems.torus_cosine(32))
    gen2 = build_generator(problems.torus2d_separable(32))
    rho1 = solve_evolution(gen1).rho
    rho2 = solve_evolution(gen2).rho
    assert abs(rho2 - 2.0 * rho1) <= 1e-4
    report(13, f"2D rho = {rho2:.8f} vs 2 x 1D rho = {2*rho1:.8f} "
               f"(diff {abs(rho2-2*rho1):.1e} <= 1e-4)")
