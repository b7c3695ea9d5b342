"""Sandwich bounds, rate-function duality and the log-transform residual."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from nisio import (
    SolveOptions,
    build_generator,
    cw_bounds,
    cw_search,
    dv_check,
    dv_rate,
    hji_residual,
    perron,
    solve_evolution,
    solve_policy_iteration,
)
from nisio.errors import NonPositiveInput, ValidationError
from nisio import problems, variational

from conftest import mixed_torus, reference_noda, same_bytes


def test_bounds_at_ones(corpus):
    for name, (spec, gen) in corpus.items():
        rep = cw_bounds(gen, gen.grid.ones())
        rmin_env = np.min(gen.r_tables, axis=0)
        assert rep.lower == pytest.approx(float(np.min(rmin_env)), abs=1e-12)
        assert rep.upper == pytest.approx(float(np.max(rmin_env)), abs=1e-12)


def test_bounds_at_phi(cosine_gen, cosine_pair):
    rep = cw_bounds(cosine_gen, cosine_pair.phi)
    assert rep.gap <= 2e-9          # twice the solve tolerance
    assert rep.lower <= cosine_pair.rho <= rep.upper


def test_bounds_perturbed_phi(cosine_gen, cosine_pair):
    rng = np.random.default_rng(0)
    f = cosine_pair.phi * (1.0 + 0.1 * rng.uniform(-1, 1, cosine_gen.size))
    rep = cw_bounds(cosine_gen, f)
    assert rep.lower < cosine_pair.rho < rep.upper


def test_sandwich_100_random(corpus, corpus_pairs):
    rng = np.random.default_rng(1)
    for name, (spec, gen) in corpus.items():
        rho = corpus_pairs[name].rho
        for _ in range(100):
            f = rng.uniform(0.05, 2.0, gen.size)
            rep = cw_bounds(gen, f)
            assert rep.lower <= rho + 1e-8, name
            assert rep.upper >= rho - 1e-8, name


def test_bounds_scaling_exact(cosine_gen):
    f = np.random.default_rng(2).uniform(0.1, 1.0, cosine_gen.size)
    base = cw_bounds(cosine_gen, f)
    for c in (2.0, 0.5, 64.0):
        rep = cw_bounds(cosine_gen, c * f)
        assert rep.lower == base.lower and rep.upper == base.upper


def test_bounds_rejects_nonpositive(cosine_gen):
    f = cosine_gen.grid.ones()
    f[3] = 0.0
    with pytest.raises(NonPositiveInput):
        cw_bounds(cosine_gen, f)


def test_cw_search_tightens(cosine_gen, cosine_pair):
    reports = cw_search(cosine_gen, iters=50, rho=cosine_pair.rho)
    start_gap = reports[0].upper - cosine_pair.rho
    end_gap = reports[-1].upper - cosine_pair.rho
    assert start_gap >= 10 * end_gap
    uppers = np.array([r.upper for r in reports])
    lowers = np.array([r.lower for r in reports])
    assert np.all(np.diff(uppers) <= 1e-10)     # nonincreasing upper
    assert np.all(np.diff(lowers) >= -1e-10)    # nondecreasing lower
    gaps = uppers - lowers
    assert np.all(np.diff(gaps) <= 1e-10)


def test_cw_search_fixed_point_at_phi(cosine_gen, cosine_pair):
    reports = cw_search(cosine_gen, iters=5, f0=cosine_pair.phi)
    for rep in reports:
        assert rep.gap <= 2e-9


def test_cw_search_validation(cosine_gen):
    with pytest.raises(ValidationError):
        cw_search(cosine_gen, iters=0)


@pytest.mark.parametrize("steps", [0, -1])
def test_cw_search_rejects_steps_per_iter_below_one(cosine_gen, steps):
    with pytest.raises(ValidationError, match="steps_per_iter"):
        cw_search(cosine_gen, iters=2, steps_per_iter=steps)


# ---------------------------------------------------------------------------
# Donsker-Varadhan
# ---------------------------------------------------------------------------

def stationary_distribution(gen):
    """Left null vector of L via the Perron solve on the shifted transpose."""
    L = (gen.frozen(0).stack - sp.diags(gen.r_tables[0])).toarray()
    c = abs(float(np.min(np.diag(L)))) + 1.0
    _, pi = perron(L.T + c * np.eye(gen.size), tol=1e-13)
    return pi / np.sum(pi)


def test_dv_rate_nonnegative_and_zero_at_stationary():
    gen = build_generator(problems.constant_cost(0.0, 64))
    pi = stationary_distribution(gen)
    assert dv_rate(gen, pi) <= 1e-6
    # objective at psi = 0 is sum nu (L 1) = 0, so I >= 0 by definition
    rng = np.random.default_rng(3)
    nu = rng.dirichlet(np.ones(gen.size))
    assert dv_rate(gen, nu) >= 0.0


def test_dv_rate_point_mass_oracle():
    gen = build_generator(problems.torus_cosine(16))
    L = (gen.frozen(0).stack - sp.diags(gen.r_tables[0])).toarray()
    for j in (0, 7):
        nu = np.zeros(gen.size)
        nu[j] = 1.0
        rate = dv_rate(gen, nu, maxiter=20000)
        oracle = -L[j, j]       # exp terms vanish in the limit
        assert rate >= 0.0
        assert rate == pytest.approx(oracle, rel=1e-6)
        assert rate <= oracle * (1 + 1e-12)


def test_dv_rate_nonstationary_strictly_positive(cosine_gen):
    pi = stationary_distribution(cosine_gen)
    x = cosine_gen.grid.nodes()[:, 0]
    rng = np.random.default_rng(4)
    for _ in range(10):
        nu = pi * (1.0 + 0.5 * np.sin(2 * np.pi * x + rng.uniform(0, 2 * np.pi)))
        nu = nu / np.sum(nu)
        assert dv_rate(cosine_gen, nu) >= 1e-4


def test_dv_rate_requires_single_control():
    gen = build_generator(problems.torus_two_control(64))
    with pytest.raises(ValidationError):
        dv_rate(gen, np.full(gen.size, 1.0 / gen.size))


def test_dv_identity(cosine_gen):
    rep = dv_check(cosine_gen)
    assert rep.gap <= 1e-3
    assert rep.rate >= 0.0
    pair = solve_evolution(cosine_gen)
    assert rep.rho == pytest.approx(pair.rho, abs=1e-8)


def test_dv_identity_gap_at_rounding_level():
    rep = dv_check(build_generator(problems.torus_cosine(128)))
    assert rep.gap <= 1e-11


def test_dv_identity_zero_cost():
    gen = build_generator(problems.constant_cost(0.0, 64))
    rep = dv_check(gen)
    assert abs(rep.rho) <= 1e-9
    assert rep.rate <= 1e-6          # I(stationary) = 0
    assert rep.gap <= 1e-6


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
@pytest.mark.parametrize("spec", [problems.torus_two_control(128),
                                  problems.interval_two_control(128),
                                  problems.torus_variable_sigma(128),
                                  mixed_torus(16, 0.3)],
                         ids=["torus_two_control128", "interval_two_control128",
                              "torus_variable_sigma128", "mixed16"])
def test_dv_identity_at_the_controlled_optimum(spec, sense):
    # the optimal policy frozen is an uncontrolled problem, whose rho the
    # Donsker-Varadhan functional attains
    gen = build_generator(spec).with_sense(sense)
    pair = solve_policy_iteration(gen)
    rep = dv_check(gen.frozen(pair.policy))
    assert abs(rep.rho - pair.rho) <= 1e-10
    assert rep.gap <= 1e-10


def test_dv_certificates_never_exceed_rho(cosine_gen, cosine_pair):
    rng = np.random.default_rng(5)
    r_vec = cosine_gen.r_tables[0]
    for _ in range(20):
        nu = rng.dirichlet(np.ones(cosine_gen.size))
        certificate = float(r_vec @ nu) - dv_rate(cosine_gen, nu)
        assert certificate <= cosine_pair.rho + 1e-6


def lbfgs_multistart_rate(gen, nu):
    """The earlier ``dv_rate`` at its defaults: L-BFGS-B from the flat
    start and three seeded random starts; the reference for the Newton
    solve."""
    import scipy.optimize

    L = (gen.frozen(0).stack - sp.diags(gen.r_tables[0])).tocsr()
    LT = L.T.tocsr()
    nu = np.asarray(nu, dtype=float)

    def fun(psi):
        psi = psi - np.max(psi)
        u = np.exp(psi)
        Lu = L @ u
        j = float(nu @ (Lu / u))
        if not math.isfinite(j):
            return np.inf, np.zeros_like(psi)
        return j, u * (LT @ (nu / u)) - nu * Lu / u

    rng = np.random.default_rng(0)
    starts = [np.zeros(gen.size)]
    starts.extend(0.5 * rng.standard_normal(gen.size) for _ in range(3))
    best = math.inf
    for psi0 in starts:
        res = scipy.optimize.minimize(
            fun, psi0, jac=True, method="L-BFGS-B",
            options={"maxiter": 2000, "gtol": 1e-11, "ftol": 1e-15})
        best = min(best, float(res.fun))
    return max(0.0, -best)


def _dirichlet_draws(spec, seed, k):
    gen = build_generator(spec)
    rng = np.random.default_rng(seed)
    return gen, [rng.dirichlet(np.ones(gen.size)) for _ in range(k)]


def _nu_star(spec):
    gen = build_generator(spec)
    return gen, [dv_check(gen).nu]


FULL_SUPPORT = {    # name -> (generator, full-support nu list)
    "torus_cosine": lambda: _dirichlet_draws(     # criterion 10's draws
        problems.torus_cosine(64), 110, 20),
    "interval_cosine": lambda: _dirichlet_draws(
        problems.interval_cosine(64), 11, 10),
    "torus2d_nu_star": lambda: _nu_star(problems.torus2d_separable(16)),
}


@pytest.mark.parametrize("case", sorted(FULL_SUPPORT))
def test_dv_rate_matches_multistart_on_full_support(case):
    gen, nus = FULL_SUPPORT[case]()
    for nu in nus:
        rate = dv_rate(gen, nu)
        assert rate == pytest.approx(lbfgs_multistart_rate(gen, nu), rel=1e-12)


def test_dv_rate_half_support_never_below_multistart(cosine_gen):
    # zero on half the nodes the infimum is not attained; the multistart
    # stops early there, Newton must not stop earlier
    rng = np.random.default_rng(12)
    for _ in range(5):
        nu = rng.dirichlet(np.ones(cosine_gen.size))
        nu[rng.permutation(cosine_gen.size)[:cosine_gen.size // 2]] = 0.0
        nu /= np.sum(nu)
        ref = lbfgs_multistart_rate(cosine_gen, nu)
        assert dv_rate(cosine_gen, nu) >= ref * (1 - 1e-12)


def test_dv_rate_one_step_bounded_by_converged(cosine_gen):
    nu = np.random.default_rng(13).dirichlet(np.ones(cosine_gen.size))
    rate = dv_rate(cosine_gen, nu)
    early = dv_rate(cosine_gen, nu, maxiter=1)
    assert math.isfinite(early)
    assert 0.0 <= early <= rate


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dv_rate_rejects_non_finite_nu(cosine_gen, bad):
    nu = np.full(cosine_gen.size, 1.0 / cosine_gen.size)
    nu[5] = bad
    with pytest.raises(ValidationError, match="finite"):
        dv_rate(cosine_gen, nu)


def reference_dv_rate(gen, nu, maxiter=2000):
    """``dv_rate`` with each Newton step through ``spsolve`` on a Hessian
    assembled by ``csc_matrix`` from its triplets; input checks left out."""
    from scipy.sparse.linalg import spsolve
    eps = float(np.finfo(float).eps)
    L = (gen.frozen(0).stack - sp.diags(gen.r_tables[0])).tocsr()
    n = gen.size
    coo = L.tocoo()
    edge = (coo.row != coo.col) & (coo.data > 0) & (nu[coo.row] > 0)
    src, dst = coo.row[edge], coo.col[edge]
    coef = nu[src] * coo.data[edge]
    base = float(nu @ (L @ np.ones(n)))
    nodes = np.arange(n)
    h_rows = np.concatenate([src, dst, nodes])
    h_cols = np.concatenate([dst, src, nodes])

    def evaluate(psi):
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
        shift = n * eps * float(np.max(diag))
        hess = sp.csc_matrix(
            (np.concatenate([-w, -w, diag + shift]), (h_rows, h_cols)),
            shape=(n, n))
        step = spsolve(hess, -grad)
        decrement = -float(grad @ step)
        if not decrement > eps * (abs(base) + float(np.sum(np.abs(terms)))):
            break
        t = 1.0
        for _ in range(40):
            trial = psi + t * step
            trial -= np.max(trial)
            w_t, terms_t, j_t = evaluate(trial)
            if j_t <= j - 0.25 * t * decrement:
                break
            t *= 0.5
        else:
            break
        psi, w, terms, j = trial, w_t, terms_t, j_t
    return max(0.0, -j)


def _pin_rate_cases():
    """(generator, nu, maxiter): full support, half support and point
    masses, whose edge weights decay to zero."""
    rng = np.random.default_rng(14)
    cases = []
    for spec in (problems.torus_cosine(32), problems.interval_cosine(32),
                 problems.torus_cosine_drift(32), problems.torus2d_separable(8)):
        gen = build_generator(spec)
        for _ in range(2):
            cases.append((gen, rng.dirichlet(np.ones(gen.size)), 2000))
        half = rng.dirichlet(np.ones(gen.size))
        half[rng.permutation(gen.size)[:gen.size // 2]] = 0.0
        cases.append((gen, half / np.sum(half), 2000))
    gen = build_generator(problems.torus_cosine(16))
    for j in (0, 7):
        cases.append((gen, np.eye(gen.size)[j], 20000))
    return cases


def test_dv_rate_pins_the_spsolve_newton():
    for gen, nu, maxiter in _pin_rate_cases():
        rate = dv_rate(gen, nu, maxiter=maxiter)
        want = reference_dv_rate(gen, nu, maxiter=maxiter)
        assert np.float64(rate).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("spec", [problems.torus_cosine(64),
                                  problems.interval_cosine(33),
                                  problems.torus2d_separable(12)],
                         ids=["torus_cosine64", "interval_cosine33",
                              "torus2d_separable12"])
def test_dv_check_pins_the_spsolve_route(spec, monkeypatch):
    gen = build_generator(spec)
    report = dv_check(gen)
    monkeypatch.setattr(variational, "noda",
                        lambda a: reference_noda(a)[:2])
    monkeypatch.setattr(variational, "dv_rate", reference_dv_rate)
    want = dv_check(gen)
    for name in ("rho", "certificate", "gap", "rate", "nu"):
        assert same_bytes(getattr(report, name), getattr(want, name)), name


# ---------------------------------------------------------------------------
# logarithmic transform
# ---------------------------------------------------------------------------

def test_hji_zero_for_constant_cost():
    gen = build_generator(problems.constant_cost(1.0, 64))
    pair = solve_evolution(gen, SolveOptions(dt=2.0 ** -13))
    rep = hji_residual(gen, pair)
    assert rep.residual == 0.0


def test_hji_refinement_decrease():
    res = {}
    for n in (64, 256):
        gen = build_generator(problems.interval_cosine(n))
        res[n] = hji_residual(gen, solve_evolution(gen)).residual
    assert res[256] < res[64]


def test_hji_matches_rayleigh_residual(cosine_gen, cosine_pair):
    # single control: the transform residual equals |L psi + |grad psi|^2 a/2
    # + r - rho|, which differs from |G phi/phi - rho| only by the O(h^2)
    # defect of the discrete chain rule
    rep = hji_residual(cosine_gen, cosine_pair)
    gphi_res = cosine_pair.residual / np.min(cosine_pair.phi)
    h2 = cosine_gen.grid.h ** 2
    assert abs(rep.residual - gphi_res) <= 5.0 * h2
