"""Monte Carlo estimator: exact cases, determinism, envelope ordering."""

import os

import numpy as np
import pytest

from nisio import (
    Grid,
    McConfig,
    ProblemSpec,
    build_generator,
    policy_sweep,
    simulate_cost,
    solve_evolution,
)
from nisio.errors import NonFiniteState, ValidationError
from nisio import mc
from nisio.mc import cost_samples
from nisio import problems


def frozen_spec(r="0.5", sigma="1", b="0", topology="interval"):
    return ProblemSpec(grid=Grid(topology, n=64), controls=[(0.0,)],
                       sigma=(sigma,), b=(b,), r=r)


def cfg_for(spec, **kw):
    args = dict(T=1.0, dt_sim=1e-3, N=200, seed=7, x0=(0.5,),
                policy=np.zeros(spec.grid.size, dtype=int))
    args.update(kw)
    return McConfig(**args)


def test_constant_cost_deterministic_integrand():
    spec = frozen_spec(r="0.5")
    est = simulate_cost(spec, cfg_for(spec))
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.stderr == 0.0
    assert est.n_effective == pytest.approx(est.N)


def test_frozen_path_evaluates_cost_at_start():
    # sigma = 0 and b = 0 freeze the path at x0 (the generator would
    # reject this spec as degenerate, but the simulator does not need it)
    spec = frozen_spec(r="x1^2 + 0.25", sigma="0", b="0")
    est = simulate_cost(spec, cfg_for(spec, x0=(0.5,)))
    assert est.value == pytest.approx(0.5 ** 2 + 0.25, abs=1e-12)
    assert est.stderr == 0.0


def test_large_cost_no_overflow():
    # |A| = 700: log-mean-exp must not overflow thanks to max-subtraction
    spec = frozen_spec(r="35")
    est = simulate_cost(spec, cfg_for(spec, T=20.0))
    assert est.value == pytest.approx(35.0, abs=1e-10)


def test_determinism_bit_identical():
    spec = problems.torus_two_control(16)
    gen = build_generator(spec)
    policy = np.zeros(gen.size, dtype=int)
    cfg = cfg_for(spec, N=500, policy=policy)
    a = simulate_cost(spec, cfg)
    b = simulate_cost(spec, cfg)
    assert a.value == b.value and a.stderr == b.stderr


def test_worker_count_does_not_change_results(monkeypatch):
    spec = problems.torus_two_control(16)
    cfg = cfg_for(spec, N=9000, policy=np.zeros(spec.grid.size, dtype=int))
    base = simulate_cost(spec, cfg)
    monkeypatch.setenv("NISIO_THREADS", "4")
    threaded = simulate_cost(spec, cfg)
    assert threaded.value == base.value and threaded.stderr == base.stderr


def test_reflection_stays_in_domain():
    # strong noise exercises the fold; the internal check would raise
    # if any state escaped [0, extent]
    spec = frozen_spec(r="x1", sigma="3")
    samples = cost_samples(spec, cfg_for(spec, N=300))
    # r = x1 in [0, 1] integrated over T = 1 from left endpoints
    assert np.all(samples >= 0.0) and np.all(samples <= 1.0)


def test_escaped_reflection_raises_typed_error(monkeypatch):
    # the domain check is a typed error, not an assert that python -O strips
    fold = mc._reflect_interval

    def leaky(x, extent):
        x = fold(x, extent)
        x[3, 0] = extent + 0.25
        return x

    monkeypatch.setattr(mc, "_reflect_interval", leaky)
    spec = frozen_spec(sigma="3")
    with pytest.raises(NonFiniteState) as err:
        cost_samples(spec, cfg_for(spec))
    assert err.value.step == 0


def test_policy_sweep_common_random_numbers():
    spec = problems.torus_two_control(16)
    n = spec.grid.size
    cfg = cfg_for(spec, N=400, policy=np.zeros(n, dtype=int))
    single = simulate_cost(spec, cfg)
    sweep = policy_sweep(spec, cfg, [np.zeros(n, dtype=int),
                                     np.zeros(n, dtype=int),
                                     np.ones(n, dtype=int)])
    assert sweep[0].value == single.value           # sweep of same policy
    assert sweep[1].value == sweep[0].value         # identical policies
    assert sweep[2].value != sweep[0].value


def test_optimal_policy_below_constants():
    spec = problems.torus_two_control(32)
    gen = build_generator(spec)
    pair = solve_evolution(gen)
    cfg = cfg_for(spec, T=5.0, N=2000, policy=pair.policy)
    opt, c0, c1 = policy_sweep(
        spec, cfg, [pair.policy,
                    np.zeros(gen.size, dtype=int),
                    np.ones(gen.size, dtype=int)])
    tol = 3 * max(opt.stderr, c0.stderr, c1.stderr)
    assert opt.value <= c0.value + tol
    assert opt.value <= c1.value + tol


@pytest.mark.filterwarnings("ignore:overflow")
def test_blowup_detection():
    # drift * dt overflows in a single step; the folded state would be nan
    spec = frozen_spec(b="1.7e308", sigma="0.01")
    with pytest.raises(NonFiniteState):
        simulate_cost(spec, cfg_for(spec, T=20.0, dt_sim=2.0, N=100))


def test_config_validation():
    spec = frozen_spec()
    with pytest.raises(ValidationError):
        cfg_for(spec, N=50)                 # too few paths
    with pytest.raises(ValidationError):
        cfg_for(spec, dt_sim=-1.0)
    with pytest.raises(ValidationError):
        cfg_for(spec, T=1e-3)               # fewer than 10 steps
    bad = cfg_for(spec, policy=np.zeros(3, dtype=int))
    with pytest.raises(ValidationError):
        simulate_cost(spec, bad)


def test_torus_2d_simulation_runs():
    spec = problems.torus2d_separable(16)
    cfg = McConfig(T=0.5, dt_sim=1e-3, N=200, seed=3, x0=(0.25, 0.75),
                   policy=np.zeros(spec.grid.size, dtype=int))
    est = simulate_cost(spec, cfg)
    assert np.isfinite(est.value) and est.stderr >= 0.0


def test_cosine_problem_estimate_matches_rho():
    # uncontrolled cosine potential: simulated growth rate vs solved rho,
    # at a reduced size (the acceptance suite runs T=20, N=10^4)
    spec = problems.torus_cosine(64)
    gen = build_generator(spec)
    pair = solve_evolution(gen)
    cfg = McConfig(T=10.0, dt_sim=1e-3, N=2000, seed=5, x0=(0.5,),
                   policy=pair.policy)
    est = simulate_cost(spec, cfg)
    assert abs(est.value - pair.rho) <= max(3 * est.stderr, 5e-2)
