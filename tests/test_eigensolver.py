"""Eigensolver exactness, oracle agreement and cross-method checks."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from nisio import (
    EigenPair,
    SolveOptions,
    apply_G,
    build_generator,
    power_iterate,
    solve_evolution,
    solve_policy_iteration,
)
from nisio import eigensolver, generator, problems
from nisio.cone import alpha_bounds
from nisio.errors import (CflViolation, NoConvergence, NonPositiveIterate,
                          NumericalError, ValidationError)
from nisio.expr import parse, to_source

from conftest import mixed_torus, reference_noda, same_bytes
from test_cone import assert_same_pair


def test_constant_cost_exact_both_methods():
    for topology in ("torus", "interval"):
        gen = build_generator(problems.constant_cost(0.7, 64, topology))
        for pair in (solve_evolution(gen), solve_policy_iteration(gen)):
            assert abs(pair.rho - 0.7) <= 1e-10
            assert np.max(np.abs(pair.phi - 1.0)) <= 1e-10


def test_constant_cost_policy_iteration_single_sweep():
    gen = build_generator(problems.constant_cost(0.3, 64))
    pair = solve_policy_iteration(gen)
    assert pair.policy_iterations == 1


def test_cosine_dense_oracle_n128():
    gen = build_generator(problems.torus_cosine(128))
    pair = solve_evolution(gen)
    lam_oracle = float(np.max(np.linalg.eigvals(gen.frozen(0).stack.toarray()).real))
    assert pair.rho == pytest.approx(lam_oracle, rel=1e-6)
    assert pair.residual <= 1e-9


def test_single_control_policy_equals_evolution(cosine_gen):
    pe = solve_evolution(cosine_gen)
    pp = solve_policy_iteration(cosine_gen)
    assert pp.policy_iterations == 1
    assert pp.rho == pytest.approx(pe.rho, abs=1e-8)


def test_cross_method_agreement(corpus_pairs, corpus_policy_pairs):
    for name, pe in corpus_pairs.items():
        pp = corpus_policy_pairs[name]
        assert pp.rho == pytest.approx(pe.rho, rel=1e-6), name
        assert np.max(np.abs(pp.phi - pe.phi)) <= 1e-5, name


def test_envelope_against_frozen_controls():
    gen = build_generator(problems.torus_two_control(64))
    pair = solve_evolution(gen)
    dt = gen.dt_max * 0.9
    mats = gen.step_matrices(dt)
    for v in range(gen.n_controls):
        growth, _, _ = power_iterate(lambda g, M=mats[v]: M @ g,
                                     gen.grid.ones(), tol=1e-12 * dt)
        rho_v = (growth - 1.0) / dt
        assert pair.rho <= rho_v + 1e-8


def test_sandwich_containment(corpus, corpus_pairs):
    # f = 1 in the CW functional: min_x min_v r <= rho <= max_x min_v r
    for name, (spec, gen) in corpus.items():
        rmin_env = np.min(gen.r_tables, axis=0)
        rho = corpus_pairs[name].rho
        assert np.min(rmin_env) - 1e-9 <= rho <= np.max(rmin_env) + 1e-9, name


def test_grid_refinement_cauchy():
    rhos = {n: solve_evolution(build_generator(problems.torus_cosine(n))).rho
            for n in (32, 64, 128)}
    d1 = abs(rhos[64] - rhos[32])
    d2 = abs(rhos[128] - rhos[64])
    assert d2 < d1


def test_max_version(corpus, corpus_pairs):
    for name, (spec, gen) in corpus.items():
        beta_pair = solve_evolution(gen.with_sense("maximize"))
        rho = corpus_pairs[name].rho
        assert beta_pair.rho >= rho - 1e-10, name
        if gen.n_controls == 1:
            assert abs(beta_pair.rho - rho) <= 1e-10, name
        else:
            # r depends on v in every multi-control corpus problem
            assert beta_pair.rho > rho + 1e-3, name


def test_max_version_constant_cost():
    gen = build_generator(problems.constant_cost(0.4, 64, two_controls=True))
    assert abs(solve_evolution(gen.with_sense("maximize")).rho - 0.4) <= 1e-10


def test_residual_definition(cosine_gen, cosine_pair):
    from nisio import apply_G
    res = np.max(np.abs(apply_G(cosine_gen, cosine_pair.phi)
                        - cosine_pair.rho * cosine_pair.phi))
    assert res == cosine_pair.residual
    assert cosine_pair.residual <= 1e-9
    assert np.max(cosine_pair.phi) == 1.0
    assert np.min(cosine_pair.phi) > 0


def test_duplicate_controls_stable_policy():
    # identical controls create everywhere-tied updates; the tie-breaking
    # rule must keep the policy stable instead of cycling
    from nisio import ProblemSpec
    spec = problems.torus_cosine(64)
    dup = ProblemSpec(grid=spec.grid, controls=[(0.0,), (0.0,)],
                      sigma=spec.sigma, b=spec.b, r=spec.r)
    pair = solve_policy_iteration(build_generator(dup))
    assert pair.policy_iterations <= 2


def test_solve_options_validation():
    with pytest.raises(Exception):
        SolveOptions(tol=-1.0)
    with pytest.raises(Exception):
        SolveOptions(dt_factor=1.5)


@pytest.mark.parametrize("bad", [
    {"tol": float("nan")}, {"tol": 0.0}, {"dt": float("nan")}, {"dt": 0.0},
    {"dt": -1e-4}, {"dt": float("inf")}, {"max_iters": 0},
    {"max_iters": -3}, {"tol": float("inf")}, {"max_iters": float("inf")},
    {"max_iters": float("nan")}, {"max_iters": 2.5}, {"max_iters": True},
    {"f0": np.array([1.0, np.nan, 1.0])}, {"f0": [1.0, np.inf, 1.0]}],
    ids=["tol-nan", "tol-0", "dt-nan", "dt-0", "dt-negative", "dt-inf",
         "max_iters-0", "max_iters-negative", "tol-inf", "max_iters-inf",
         "max_iters-nan", "max_iters-fractional", "max_iters-bool",
         "f0-nan", "f0-inf"])
def test_solve_options_rejects(bad):
    name = next(iter(bad))
    rule = "contains non-finite values" if name == "f0" else "must be"
    with pytest.raises(ValidationError, match=f"^{name} {rule}") as err:
        SolveOptions(**bad)
    assert err.value.field == name


def test_integral_float_max_iters_is_stored_as_int():
    opts = SolveOptions(max_iters=100000.0)
    assert type(opts.max_iters) is int and opts.max_iters == 100000


def test_evolution_no_convergence_carries_the_pair_at_its_last_iterate(
        cosine_gen):
    opts = SolveOptions(max_iters=10)
    with pytest.raises(NoConvergence, match="^power iteration did not close "
                       "the ratio band within 10 iterations") as err:
        solve_evolution(cosine_gen, opts)
    best = err.value.best
    assert isinstance(best, EigenPair) and best.method == "evolution"
    assert best.residual > opts.tol
    ratios = apply_G(cosine_gen, best.phi) / best.phi
    assert ratios.min() <= best.rho <= ratios.max()
    assert best.stats.n_iterations == opts.max_iters


def test_dt_above_cfl_bound_is_cfl_violation(cosine_gen):
    with pytest.raises(CflViolation):
        solve_evolution(cosine_gen, SolveOptions(dt=1.5 * cosine_gen.dt_max))


def test_dt_override(cosine_gen):
    pair = solve_evolution(cosine_gen, SolveOptions(dt=2.0 ** -13))
    assert pair.residual <= 1e-9


def _eight_euler_steps(gen, dt):
    """Eight envelope Euler steps of ``gen``, each on the last one's output."""
    one_step = generator._envelope_map(gen.step_stack(dt), gen.size,
                                       (gen.sense,))

    def steps(g):
        g = g[None]
        for _ in range(8):
            g = one_step(g)
        return g[0]
    return steps


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
@pytest.mark.parametrize("spec", [*problems.corpus_1d(64).values(),
                                  problems.torus2d_separable(16),
                                  mixed_torus(16, 0.25)],
                         ids=[*problems.corpus_1d(64), "separable16",
                              "mixed16"])
def test_evolution_iterates_eight_euler_steps(spec, sense):
    # the cone iteration on (I + dt G)^8 with the tolerance of 8 steps,
    # built by hand, gives the solve's pair to the bit
    gen = build_generator(spec).with_sense(sense)
    opts = SolveOptions()
    dt = opts.dt_factor * gen.dt_max
    growth, phi, stats = power_iterate(_eight_euler_steps(gen, dt),
                                       gen.grid.ones(),
                                       tol=0.5 * opts.tol * dt * 8)
    pair = solve_evolution(gen, opts)
    assert same_bytes(pair.phi, phi)
    ratios = apply_G(gen, phi) / phi
    assert pair.rho.hex() == (0.5 * (ratios.min() + ratios.max())).hex()
    assert same_bytes(pair.policy, generator.argmin_policy(gen, phi))
    assert pair.stats.n_iterations == stats.n_iterations
    # the growth of the map is that of eight steps
    assert growth == pytest.approx((1.0 + dt * pair.rho) ** 8, rel=1e-9)


def dense_policy_root(gen, policy):
    """Oracle: largest real eigenvalue of the dense ``A_u`` at ``policy``."""
    rows = np.arange(gen.size)
    a_u = np.stack([gen.frozen(v).stack.toarray() for v in range(gen.n_controls)])
    return float(np.max(np.linalg.eigvals(a_u[policy, rows]).real))


@pytest.mark.parametrize("spec", [problems.torus_two_control(256),
                                  problems.interval_two_control(128)],
                         ids=["torus_two_control_256", "interval_two_control_128"])
def test_policy_iteration_contract(spec):
    gen = build_generator(spec)
    tol = SolveOptions().tol
    pair = solve_policy_iteration(gen)
    assert pair.residual <= tol
    ratios = apply_G(gen, pair.phi) / pair.phi
    assert np.min(ratios) <= pair.rho <= np.max(ratios)
    assert abs(pair.rho - dense_policy_root(gen, pair.policy)) <= tol


def test_policy_iteration_contract_fine_grid():
    pair = solve_policy_iteration(build_generator(problems.torus_two_control(512)))
    assert pair.residual <= SolveOptions().tol


def test_policy_iteration_unreachable_tol_raises_with_best():
    gen = build_generator(problems.torus_two_control(64))
    with pytest.raises(NoConvergence) as info:
        solve_policy_iteration(gen, SolveOptions(tol=1e-17))
    best = info.value.best
    assert isinstance(best, EigenPair)
    assert best.method == "policy_iteration"
    assert best.residual > 1e-17


def _cost_scaled(spec, factor):
    """``spec`` with its running cost ``r`` multiplied by ``factor``."""
    return replace(spec, r=parse(f"{factor!r}*({to_source(spec.r)})"))


@pytest.mark.parametrize("factor", [1e4, 1e6])
@pytest.mark.parametrize("name", ["torus_two_control", "interval_two_control",
                                  "torus_variable_sigma"])
def test_policy_iteration_certifies_at_large_costs(name, factor):
    # phi falls far below 1 where the cost is high; the tie test must still
    # let the policy update there, or the band stays wide
    gen = build_generator(_cost_scaled(getattr(problems, name)(256), factor))
    pair = solve_policy_iteration(gen, SolveOptions(tol=1e-9 * factor))
    assert pair.residual <= 1e-9 * factor


@pytest.mark.parametrize("factor", [1e4, 1e6])
@pytest.mark.parametrize("name", ["torus_two_control", "torus_variable_sigma"])
def test_evolution_certifies_at_large_costs(name, factor):
    # eight steps without a normalization between them: phi spans the
    # widest range at large costs, and both senses still certify
    gen = build_generator(_cost_scaled(getattr(problems, name)(256), factor))
    tol = 1e-9 * factor
    pairs = solve_evolution(gen, SolveOptions(tol=tol),
                            senses=("minimize", "maximize"))
    for pair in pairs:
        assert pair.residual <= tol


def test_policy_iteration_at_large_cost_lies_in_the_evolution_band():
    gen = build_generator(_cost_scaled(problems.torus_two_control(256), 1e4))
    opts = SolveOptions(tol=1e-5)
    howard = solve_policy_iteration(gen, opts)
    evolution = solve_evolution(gen, opts)
    lower, upper = alpha_bounds(apply_G(gen, evolution.phi), evolution.phi)
    assert lower <= howard.rho <= upper
    assert howard.rho == pytest.approx(1.5172348880e4, abs=1e-5)


@pytest.mark.filterwarnings("error")
def test_policy_iteration_names_the_underflow_of_its_iterate():
    # at r x 1e8 the eigenvector spans more than float64's range: the
    # failure names that, before any NaN band or singular solve
    gen = build_generator(_cost_scaled(problems.interval_two_control(256), 1e8))
    with pytest.raises(NonPositiveIterate, match="underflowed") as err:
        solve_policy_iteration(gen, SolveOptions(tol=1e-1))
    assert isinstance(err.value, NumericalError)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, factor", [
    ("torus_two_control", 1e8), ("torus_variable_sigma", 1e8),
    ("torus_variable_sigma", 1e7)])
def test_policy_iteration_names_a_subnormal_iterate(name, factor):
    # here the least entries of the eigenvector are subnormal, not zero
    # (down to 6.8e-322); unnamed, they end Howard in NoConvergence with a
    # residual as large as rho
    gen = build_generator(_cost_scaled(getattr(problems, name)(256), factor))
    with pytest.raises(NonPositiveIterate,
                       match="below the least normal float64") as err:
        solve_policy_iteration(gen, SolveOptions(tol=1e-1))
    assert isinstance(err.value, NumericalError)


def test_policy_iteration_separable_2d():
    gen = build_generator(problems.torus2d_separable(64))
    pair = solve_policy_iteration(gen)
    gen1 = build_generator(problems.torus_cosine(64))
    rho1 = float(np.max(np.linalg.eigvals(gen1.frozen(0).stack.toarray()).real))
    assert abs(pair.rho - 2.0 * rho1) <= 1e-9


def test_concurrent_evolution_on_one_generator():
    # each solve owns its product buffer: threads sharing one generator
    # (and its cached step stack) get the serial pair to the byte
    want = solve_evolution(build_generator(problems.torus_two_control(64)))
    gen = build_generator(problems.torus_two_control(64))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(solve_evolution, gen) for _ in range(4)]
            pairs = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for pair in pairs:
        assert pair.rho.hex() == want.rho.hex()
        assert pair.residual.hex() == want.residual.hex()
        assert pair.phi.tobytes() == want.phi.tobytes()
        assert pair.policy.tobytes() == want.policy.tobytes()
        assert pair.stats.n_iterations == want.stats.n_iterations


@pytest.mark.parametrize("shape", [5, 64, (32, 1)])
def test_start_of_wrong_length_rejected(shape):
    # refused with the library's own error before the first product
    gen = build_generator(problems.torus_two_control(32))
    with pytest.raises(ValidationError, match=r"^f0 must have shape \(32,\)") as err:
        solve_evolution(gen, SolveOptions(f0=np.ones(shape)))
    assert err.value.field == "f0"


@pytest.mark.parametrize("spec", [problems.torus_two_control(128),
                                  mixed_torus(16, 0.25)],
                         ids=["torus_two_control128", "mixed16"])
def test_policy_iteration_pins_the_spsolve_noda(spec, monkeypatch):
    gen = build_generator(spec)
    pair = solve_policy_iteration(gen)
    monkeypatch.setattr(eigensolver, "noda",
                        lambda a, x0, tol: reference_noda(a, x0, tol)[:2])
    want = solve_policy_iteration(gen)
    assert pair.policy_iterations == want.policy_iterations
    for name in ("rho", "phi", "policy", "residual"):
        assert same_bytes(getattr(pair, name), getattr(want, name)), name


# ---------------------------------------------------------------------------
# both senses in one lockstep loop against one solve per sense
# ---------------------------------------------------------------------------

def _one_sense_solves(gen, senses, opts=None):
    """The one-sense solves made in turn, up to the first error."""
    pairs = []
    for sense in senses:
        try:
            pairs.append(solve_evolution(gen.with_sense(sense), opts))
        except NumericalError as exc:
            return pairs, exc
    return pairs, None


def assert_lockstep_solves(gen, senses, opts=None):
    """``solve_evolution(gen, opts, senses=senses)`` returns the pairs of
    the one-sense solves to the bit, or raises the first one's error."""
    pairs, error = _one_sense_solves(gen, senses, opts)
    if error is None:
        got = solve_evolution(gen, opts, senses=senses)
        assert type(got) is tuple and len(got) == len(senses)
        for a, b in zip(got, pairs):
            assert_same_pair(a, b)
        return got
    with pytest.raises(type(error)) as err:
        solve_evolution(gen, opts, senses=senses)
    assert str(err.value) == str(error)
    if isinstance(error, NoConvergence):
        assert_same_pair(err.value.best, error.best)
    return err.value


BOTH_ORDERS = [("minimize", "maximize"), ("maximize", "minimize")]


@pytest.mark.parametrize("senses", BOTH_ORDERS, ids=["min-max", "max-min"])
def test_lockstep_pairs_pin_one_sense_solves_on_the_corpus(senses):
    for name, spec in problems.corpus_1d(32).items():
        assert_lockstep_solves(build_generator(spec), senses)


@pytest.mark.parametrize("senses", BOTH_ORDERS, ids=["min-max", "max-min"])
@pytest.mark.parametrize("spec", [problems.torus_two_control(128),
                                  mixed_torus(16, 0.25)],
                         ids=["torus_two_control128", "mixed16"])
def test_lockstep_pairs_pin_one_sense_solves(spec, senses):
    pairs = assert_lockstep_solves(build_generator(spec), senses)
    # the orbits stop at different iterations
    assert pairs[0].stats.n_iterations != pairs[1].stats.n_iterations


@pytest.mark.parametrize("nnz_bound", [0, 2 ** 62],
                         ids=["product-per-orbit", "block-diagonal"])
def test_lockstep_pins_both_product_layouts(nnz_bound, monkeypatch):
    monkeypatch.setattr(generator, "_BLOCK_NNZ", nnz_bound)
    for spec in (problems.torus_two_control(32), mixed_torus(8, -0.25)):
        # three orbits, two of them alike: the batch shrinks from 3 to 1
        assert_lockstep_solves(build_generator(spec),
                               ("maximize", "minimize", "maximize"))


def test_lockstep_pins_the_kernel_fallback(monkeypatch):
    monkeypatch.setattr(generator, "_csr_matvec", generator._matmul_kernel)
    for spec in (problems.torus_two_control(32), mixed_torus(8, 0.25)):
        for senses in BOTH_ORDERS:
            assert_lockstep_solves(build_generator(spec), senses)


def test_lockstep_pins_start_and_step_overrides():
    gen = build_generator(problems.torus_two_control(64))
    f0 = 1.5 + np.sin(2 * np.pi * gen.grid.nodes()[:, 0])
    for opts in (SolveOptions(f0=f0), SolveOptions(dt=0.5 * gen.dt_max,
                                                   tol=1e-7)):
        for senses in BOTH_ORDERS:
            assert_lockstep_solves(gen, senses, opts)


def test_lockstep_raises_the_no_convergence_of_the_first_failed_sense():
    # the min orbit takes 158 iterations and the max orbit 154
    gen = build_generator(problems.torus_two_control(32))
    for max_iters, fails in ((10, BOTH_ORDERS[0]), (156, ("minimize",))):
        opts = SolveOptions(max_iters=max_iters)
        for senses in BOTH_ORDERS:
            err = assert_lockstep_solves(gen, senses, opts)
            assert isinstance(err, NoConvergence)
            assert err.best.sense == next(s for s in senses if s in fails)
            assert err.best.stats.n_iterations == max_iters


def test_lockstep_rejects_a_start_of_wrong_length():
    gen = build_generator(problems.torus_two_control(32))
    for shape in (5, 64, (32, 1)):
        with pytest.raises(ValidationError,
                           match=r"^f0 must have shape \(32,\)") as err:
            solve_evolution(gen, SolveOptions(f0=np.ones(shape)),
                            senses=("minimize", "maximize"))
        assert err.value.field == "f0"


def test_one_sense_solve_iterates_through_power_iterate(monkeypatch):
    # the benchmark's tracer wraps eigensolver.power_iterate by name to
    # count and time cone iterations: the one-sense solve must call it
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return power_iterate(*args, **kwargs)

    gen = build_generator(problems.torus_two_control(32))
    want = solve_evolution(gen)
    monkeypatch.setattr(eigensolver, "power_iterate", counting)
    got = solve_evolution(gen)
    assert len(calls) == 1
    assert_same_pair(got, want)


@pytest.mark.parametrize("senses", [(), ("minimize", "sideways")],
                         ids=["empty", "unknown"])
def test_lockstep_rejects_bad_senses(senses):
    gen = build_generator(problems.torus_two_control(16))
    with pytest.raises(ValidationError):
        solve_evolution(gen, senses=senses)


def test_concurrent_lockstep_solves_on_one_generator():
    senses = ("minimize", "maximize")
    want = solve_evolution(build_generator(problems.torus_two_control(64)),
                           senses=senses)
    gen = build_generator(problems.torus_two_control(64))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(solve_evolution, gen, senses=senses)
                       for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for pairs in results:
        for a, b in zip(pairs, want):
            assert_same_pair(a, b)
