"""Monte Carlo estimator: exact cases, determinism, envelope ordering, and
the path-step pinned bit for bit to its per-step reference."""

import math
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
from nisio.errors import EvalError, NonFiniteState, ValidationError
from nisio import mc
from nisio.expr import evaluate
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


@pytest.mark.parametrize("T, dt_sim, steps", [(1.0, 0.003, 333),
                                               (0.0155, 0.001, 16)])
def test_constant_cost_divides_by_the_simulated_horizon(T, dt_sim, steps):
    # T / dt_sim rounds to whole steps: 333 steps of 0.003 fall short of
    # T = 1, and 16 steps of 0.001 overshoot T = 0.0155
    spec = problems.constant_cost(1.0, n=16)
    est = simulate_cost(spec, McConfig(T=T, dt_sim=dt_sim, N=100, seed=3,
                                       x0=(0.5,), policy=np.zeros(16, int)))
    assert est.T == steps * dt_sim
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == 0.0


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


@pytest.mark.parametrize("kw", [dict(T=math.inf), dict(T=math.nan),
                                dict(dt_sim=math.inf), dict(dt_sim=math.nan),
                                dict(seed=-1), dict(N=0), dict(N=1000.5),
                                dict(seed=1.5), dict(seed="7"),
                                dict(seed=True)])
def test_unusable_settings_are_rejected(kw):
    with pytest.raises(ValidationError) as err:
        cfg_for(frozen_spec(), **kw)
    assert err.value.field == next(iter(kw))


@pytest.mark.parametrize("policy", [[0.5, 1.7], [0.0, math.nan], [math.inf, 1.0]])
def test_non_integral_policy_is_rejected(policy):
    with pytest.raises(ValidationError) as err:
        McConfig(x0=(0.5,), policy=policy)
    assert err.value.field == "policy"


def test_integral_float_policy_is_kept():
    cfg = McConfig(x0=(0.5,), policy=[0.0, 1.0])
    assert cfg.policy.dtype == np.int64 and cfg.policy.tolist() == [0, 1]


def test_integral_float_path_count_and_seed_are_stored_as_int():
    spec = frozen_spec(r="cos(2*pi*x1)")
    cfg = cfg_for(spec, N=200.0, seed=np.float64(7.0))
    assert type(cfg.N) is int and type(cfg.seed) is int
    assert np.array_equal(cost_samples(spec, cfg),
                          cost_samples(spec, cfg_for(spec, N=200, seed=7)))


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


# ---------------------------------------------------------------------------
# the hoisted, in-place path-step against the per-step code it replaced
# ---------------------------------------------------------------------------

def _seed_coefficients(evaluate):
    """``ProblemSpec.r_at``, ``b_at`` and ``sigma_at`` as they were before
    the path-step was hoisted, on the given ``evaluate``."""
    def coefficients(spec):
        d = spec.grid.d

        def env(x, v=None):
            out = spec.x_bindings(x)
            return out if v is None else {**out, **spec.control_bindings(v)}

        def sigma_at(x):
            base = np.zeros(np.shape(x)[:-1])
            if len(spec.sigma) == 1:
                s = evaluate(spec.sigma[0], env(x)) + base
                out = np.zeros(base.shape + (d, d))
                for i in range(d):
                    out[..., i, i] = s
                return out
            out = np.empty(base.shape + (d, d))
            for i in range(d):
                for j in range(d):
                    out[..., i, j] = evaluate(spec.sigma[i * d + j], env(x)) + base
            return out

        def b_at(x, v):
            base = np.zeros(np.shape(x)[:-1])
            return np.stack([evaluate(e, env(x, v)) + base for e in spec.b],
                            axis=-1)

        def r_at(x, v):
            return evaluate(spec.r, env(x, v)) + np.zeros(np.shape(x)[:-1])

        return r_at, b_at, sigma_at
    return coefficients


def _live_coefficients(spec):
    return spec.r_at, spec.b_at, spec.sigma_at


def _reference_chunk(coefficients):
    """The path-step as it was before hoisting, as a ``_simulate_chunk``;
    ``coefficients(spec)`` gives the ``(r_at, b_at, sigma_at)`` it calls."""
    def simulate_chunk(spec, cfg, chunk_index, n_paths, n_steps):
        grid = spec.grid
        d = grid.d
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(chunk_index,)))
        controls = np.asarray(spec.controls, dtype=float)
        r_at, b_at, sigma_at = coefficients(spec)

        def nearest_node(x):
            idx = np.rint(x / grid.h).astype(np.int64)
            if grid.topology == "interval":
                np.clip(idx, 0, grid.n - 1, out=idx)
            else:
                idx %= grid.n
            return idx[:, 0] if d == 1 else idx[:, 0] * grid.n + idx[:, 1]

        x = np.tile(np.asarray(cfg.x0, dtype=float), (n_paths, 1))
        acc = np.zeros(n_paths)
        sqrt_dt = math.sqrt(cfg.dt_sim)
        for k in range(n_steps):
            nodes = nearest_node(x)
            v = controls[cfg.policy[nodes]]
            acc += r_at(x, v) * cfg.dt_sim
            drift = b_at(x, v)
            sig = sigma_at(x)
            noise = rng.standard_normal((n_paths, d))
            x = x + drift * cfg.dt_sim + sqrt_dt * np.einsum("pij,pj->pi", sig, noise)
            assert np.isfinite(x).all()
            if grid.topology == "interval":
                m = np.mod(x, 2.0 * grid.extent)
                x = grid.extent - np.abs(m - grid.extent)
            else:
                x = np.mod(x, grid.extent)
        return acc
    return simulate_chunk


@pytest.fixture(scope="module")
def reference_chunks(reference_evaluate):
    """The previous path-step on the previous coefficient code and tree
    walk (pins the bits), and on the live ``ProblemSpec`` methods (keeps the
    simulator in step with the coefficients the generator uses)."""
    return {"seed": _reference_chunk(_seed_coefficients(reference_evaluate)),
            "ProblemSpec": _reference_chunk(_live_coefficients)}


def _pin_cases():
    for name, spec in problems.corpus_1d(16).items():
        policy = np.arange(spec.grid.size) % spec.n_controls
        starts = [(0.5,), (0.0,), (spec.grid.extent,), (-0.0,)]
        for x0 in starts:
            yield f"{name} x0={x0}", spec, dict(x0=x0, policy=policy)
    yield "torus2d_separable", problems.torus2d_separable(8), dict(
        x0=(0.25, 0.75), policy=np.zeros(64, dtype=int))
    full = ProblemSpec(
        grid=Grid("torus", n=8, d=2),
        controls=[(-1.0, -1.0), (1.0, 1.0), (1.0, -1.0)],
        sigma=("1", "0.25", "0.25*sin(2*pi*x2)", "1 + 0.1*cos(2*pi*x1)"),
        b=("v1", "v2*cos(2*pi*x1)"),
        r="cos(2*pi*x1) + cos(2*pi*x2) + 0.05*(v1^2 + v2^2)")
    for x0 in [(0.25, 0.75), (0.0, 1.0)]:
        yield f"full 2x2 sigma x0={x0}", full, dict(
            x0=x0, policy=np.arange(64) % 3)
    scalar_2d = ProblemSpec(
        grid=Grid("torus", n=8, d=2), controls=[(-1.0,), (1.0,)],
        sigma=("0.5 + 0.25*cos(2*pi*x2)",), b=("v1", "-0.5*v1"),
        r="cos(2*pi*x1)*sin(2*pi*x2) + 0.1*v1")
    yield "scalar sigma 2-D", scalar_2d, dict(
        x0=(0.25, 0.5), policy=np.arange(64) % 2)
    constant_full = ProblemSpec(
        grid=Grid("torus", n=8, d=2), controls=[(-1.0, 0.0), (1.0, 0.5)],
        sigma=("1", "0.25", "-0.25", "1"), b=("v1", "v2"), r="x1 - x2*v2")
    yield "constant full sigma", constant_full, dict(
        x0=(0.5, 0.5), policy=np.arange(64) % 2)
    # signed zeros: a -0.0 start, drift and cost, and a zero sigma
    zeros = ProblemSpec(grid=Grid("interval", n=8), controls=[(0.0,)],
                        sigma=("0*x1",), b=("-0.0",), r="-0.0*x1")
    yield "signed zeros", zeros, dict(x0=(-0.0,), policy=np.zeros(8, dtype=int))
    zeros2d = ProblemSpec(grid=Grid("torus", n=8, d=2), controls=[(0.0,)],
                          sigma=("0*x1",), b=("-0.0", "-0.0*x2"), r="-0.0")
    yield "signed zeros 2-D", zeros2d, dict(x0=(-0.0, 0.5),
                                            policy=np.zeros(64, dtype=int))
    # both sides of the fold: a torus of period 0.7 wraps through fmod, an
    # interval of extent 0.5 mirrors modulo 1 through floor
    odd_torus = ProblemSpec(
        grid=Grid("torus", n=16, extent=0.7), controls=[(-1.0,), (1.0,)],
        sigma=("0.75 + 0.25*sin(2*pi*x1/0.7)",), b=("v1",),
        r="cos(2*pi*x1/0.7) + 0.1*v1")
    half_interval = ProblemSpec(
        grid=Grid("interval", n=16, extent=0.5), controls=[(-1.0,), (1.0,)],
        sigma=("1",), b=("v1",), r="4*(x1 - 0.25)^2 + 0.1*v1^2")
    for name, spec in (("torus of extent 0.7", odd_torus),
                       ("interval of extent 0.5", half_interval)):
        for x0 in [(0.0,), (spec.grid.extent,), (-0.0,)]:
            yield f"{name} x0={x0}", spec, dict(x0=x0,
                                                policy=np.arange(16) % 2)


def test_path_step_pins_reference_samples(monkeypatch, reference_chunks):
    cases = 0
    for label, spec, kw in _pin_cases():
        cfg = McConfig(T=0.05, dt_sim=1e-3, N=300, seed=11, **kw)
        got = cost_samples(spec, cfg)
        for name, chunk in reference_chunks.items():
            with monkeypatch.context() as m:
                m.setattr(mc, "_simulate_chunk", chunk)
                expected = cost_samples(spec, cfg)
            assert got.tobytes() == expected.tobytes(), (label, name)
        cases += 1
    assert cases == 37


@pytest.mark.parametrize("threads", ["1", "2"])
def test_path_step_pins_reference_samples_over_chunks(monkeypatch, threads,
                                                     reference_chunks):
    # 9000 paths are three chunks, of 4096, 4096 and 808
    monkeypatch.setenv("NISIO_THREADS", threads)
    for spec, x0, T in ((problems.torus_variable_sigma(32), (0.5,), 0.02),
                        (problems.interval_two_control(32), (0.5,), 0.02),
                        (_held_full_sigma_2d(), (0.25, 0.75), 0.07)):
        cfg = McConfig(T=T, dt_sim=1e-3, N=9000, seed=5, x0=x0,
                       policy=np.arange(spec.grid.size) % 2)
        got = cost_samples(spec, cfg)
        with monkeypatch.context() as m:
            m.setattr(mc, "_simulate_chunk", reference_chunks["seed"])
            expected = cost_samples(spec, cfg)
        assert got.tobytes() == expected.tobytes()


def _fixed_control_cases():
    for name, spec in problems.corpus_1d(16).items():
        for c in range(spec.n_controls):
            yield f"{name} control {c}", spec, dict(
                x0=(0.5,), policy=np.full(16, c))
    yield "duplicate controls", _duplicate_controls(), dict(
        x0=(0.5,), policy=np.arange(16) % 2)
    state_drift = ProblemSpec(
        grid=Grid("interval", n=16), controls=[(-1.0,), (1.5,)],
        sigma=("0.5 + 0.2*x1",), b=("v1*sin(2*pi*x1) - 0.5*x1",),
        r="cos(2*pi*x1) + 0.1*v1")
    yield "drift of x and v", state_drift, dict(
        x0=(0.25,), policy=np.ones(16, dtype=int))
    control_cost = ProblemSpec(
        grid=Grid("torus", n=16), controls=[(-1.0,), (0.75,)],
        sigma=("1 + 0.2*sin(2*pi*x1)",), b=("0.5*cos(2*pi*x1)",),
        r="0.3*v1^2 + v1")
    yield "control-only r", control_cost, dict(
        x0=(0.5,), policy=np.ones(16, dtype=int))
    torus2d = ProblemSpec(
        grid=Grid("torus", n=8, d=2), controls=[(-1.0, 0.5), (1.0, -0.5)],
        sigma=("1", "0.25", "0.25*sin(2*pi*x2)", "1 + 0.1*cos(2*pi*x1)"),
        b=("v1", "v2*cos(2*pi*x1)"), r="cos(2*pi*x2) + v1*v2")
    yield "2-D torus", torus2d, dict(x0=(0.25, 0.75),
                                     policy=np.ones(64, dtype=int))
    yield "2-D drift of v only", problems.torus2d_separable(8), dict(
        x0=(0.25, 0.75), policy=np.zeros(64, dtype=int))
    yield "signed zero controls", _signed_zero_controls(), dict(
        x0=(0.5,), policy=np.arange(16) % 2)


def _duplicate_controls():
    return ProblemSpec(grid=Grid("torus", n=16), controls=[(0.5,), (0.5,)],
                       sigma=("1",), b=("v1",), r="v1^2 + cos(2*pi*x1)")


def _signed_zero_controls():
    return ProblemSpec(grid=Grid("torus", n=16), controls=[(0.0,), (-0.0,)],
                       sigma=("1",), b=("v1 + 0.5",), r="v1 + cos(2*pi*x1)")


def test_fixed_control_path_step_pins_reference_samples(monkeypatch,
                                                        reference_chunks):
    for label, spec, kw in _fixed_control_cases():
        cfg = McConfig(T=0.05, dt_sim=1e-3, N=300, seed=11, **kw)
        got = cost_samples(spec, cfg)
        for name, chunk in reference_chunks.items():
            with monkeypatch.context() as m:
                m.setattr(mc, "_simulate_chunk", chunk)
                expected = cost_samples(spec, cfg)
            assert got.tobytes() == expected.tobytes(), (label, name)


def test_nearest_node_once_per_chunk_under_a_fixed_control(monkeypatch):
    monkeypatch.setenv("NISIO_THREADS", "1")      # the calls in chunk order
    calls = []
    nearest = mc._nearest_node

    def counted(spec, x):
        calls.append(len(x))
        return nearest(spec, x)

    monkeypatch.setattr(mc, "_nearest_node", counted)
    two = problems.torus_two_control(16)
    alternate = np.arange(16) % 2
    # 5000 paths are two chunks; 50 steps each
    for spec, policy, per_chunk in [(two, np.ones(16, dtype=int), 1),
                                    (_duplicate_controls(), alternate, 1),
                                    (two, alternate, 50),
                                    (_signed_zero_controls(), alternate, 50)]:
        calls.clear()
        cost_samples(spec, McConfig(T=0.05, dt_sim=1e-3, N=5000, seed=2,
                                    x0=(0.5,), policy=policy))
        assert calls == [4096] * per_chunk + [904] * per_chunk


# ---------------------------------------------------------------------------
# the node table of a drift of the controls alone
# ---------------------------------------------------------------------------

def _assert_pins_reference(monkeypatch, reference_chunks, spec, cfg):
    got = cost_samples(spec, cfg)
    for name, chunk in reference_chunks.items():
        with monkeypatch.context() as m:
            m.setattr(mc, "_simulate_chunk", chunk)
            expected = cost_samples(spec, cfg)
        assert got.tobytes() == expected.tobytes(), name


def _table_cases():
    # two control components: the table evaluates contiguous rows where
    # the reference evaluates strided columns of the gathered controls
    strided = ProblemSpec(
        grid=Grid("torus", n=8, d=2),
        controls=[(-1.0, 0.5), (1.0, -0.5), (0.25, 1.0)],
        sigma=("1", "0.25", "0.25*sin(2*pi*x2)", "1 + 0.1*cos(2*pi*x1)"),
        b=("v1 - 0.5*v2", "v2*v1 + 0.125"),
        r="cos(2*pi*x1) + sin(2*pi*x2) + 0.1*v1*v2")
    yield "2-D, two control components", strided, dict(
        x0=(0.25, 0.75), policy=np.arange(64) % 3)
    transcendental = ProblemSpec(
        grid=Grid("interval", n=16), controls=[(-1.3,), (0.7,), (2.1,)],
        sigma=("0.5 + 0.2*x1",), b=("sin(v1) + exp(-v1^2)",),
        r="cos(2*pi*x1) + tanh(v1)")
    yield "transcendental drift", transcendental, dict(
        x0=(0.5,), policy=np.arange(16) % 3)
    constant = ProblemSpec(
        grid=Grid("torus", n=16), controls=[(-1.0,), (0.75,)],
        sigma=("1 + 0.2*sin(2*pi*x1)",), b=("log(2 + v1)*3",),
        r="cos(2*pi*x1) + v1")
    yield "constant policy", constant, dict(
        x0=(0.5,), policy=np.ones(16, dtype=int))
    # one component constant, the other of the controls
    mixed = ProblemSpec(
        grid=Grid("torus", n=8, d=2), controls=[(-1.0,), (1.0,)],
        sigma=("1",), b=("-0.5", "v1*0.75"), r="x1*x2 + v1")
    yield "constant and control components", mixed, dict(
        x0=(0.5, 0.5), policy=np.arange(64) % 2)


def test_drift_table_pins_reference_samples(monkeypatch, reference_chunks):
    for label, spec, kw in _table_cases():
        cfg = McConfig(T=0.05, dt_sim=1e-3, N=300, seed=11, **kw)
        _assert_pins_reference(monkeypatch, reference_chunks, spec, cfg)


def test_drift_table_only_for_a_drift_of_the_controls():
    def table(spec, dt=1e-3):
        policy = np.arange(spec.grid.size) % spec.n_controls
        return mc._drift_table(
            spec, np.asarray(spec.controls, dtype=float)[policy], dt)

    two = table(problems.torus_two_control(16))
    v = np.resize([-1.0, 1.0], 16)
    assert two.tobytes() == np.stack([v, (v + 0.0) * 1e-3]).tobytes()
    assert table(problems.torus_variable_sigma(16)) is None   # reads x1
    assert table(problems.torus_cosine(16)) is None           # constant
    assert table(_exp_drift_spec("1")) is None                # exp(1000)
    huge = ProblemSpec(grid=Grid("torus", n=16), controls=[(1.0,), (1.7e308,)],
                       sigma=("1",), b=("v1",), r="0")
    assert table(huge, dt=2.0) is None                        # b dt overflows


def _exp_drift_spec(sigma):
    # exp(1000) is infinite: the drift fails at the nodes of control 1
    return ProblemSpec(grid=Grid("interval", n=16),
                       controls=[(0.5,), (1000.0,)], sigma=(sigma,),
                       b=("exp(v1)",), r="x1 + v1")


def test_drift_failing_where_no_path_goes_does_not_raise(monkeypatch,
                                                         reference_chunks):
    policy = np.zeros(16, dtype=int)
    policy[15] = 1                      # x = 1; the paths stay near 0.3
    cfg = McConfig(T=0.05, dt_sim=1e-3, N=300, seed=3, x0=(0.25,),
                   policy=policy)
    _assert_pins_reference(monkeypatch, reference_chunks,
                           _exp_drift_spec("0.01"), cfg)


def test_drift_failing_where_a_path_goes_raises_at_its_step(monkeypatch):
    # without noise every path moves by exp(0.5) dt a step from 0.5 and
    # meets control 1 at node 10; the drift raises at that step
    spec, dt = _exp_drift_spec("0"), 1e-3
    policy = np.where(np.arange(16) >= 10, 1, 0)
    x, expected = 0.5, None
    for k in range(200):
        if np.rint(x / spec.grid.h) >= 10:
            expected = k
            break
        x = (x + np.exp(0.5) * dt) + 0.0
        x = 1.0 - abs(np.mod(x, 2.0) - 1.0)
    assert expected is not None and expected > 50

    steps = []
    nearest = mc._nearest_node

    def counted(spec, x):
        steps.append(len(x))
        return nearest(spec, x)

    monkeypatch.setattr(mc, "_nearest_node", counted)
    with pytest.raises(EvalError, match=r"non-finite result from 'exp\(v1\)'"):
        cost_samples(spec, McConfig(T=0.2, dt_sim=dt, N=100, seed=3,
                                    x0=(0.5,), policy=policy))
    assert len(steps) == expected + 1       # step 0 to the failing step


@pytest.mark.filterwarnings("ignore:overflow")
def test_drift_step_overflowing_where_a_path_goes_raises_at_its_step():
    # b dt overflows only at the nodes of control 1, where x0 starts
    spec = ProblemSpec(grid=Grid("interval", n=16),
                       controls=[(1.0,), (1.7e308,)], sigma=("0.01",),
                       b=("v1",), r="x1")
    policy = np.where(np.arange(16) >= 8, 1, 0)
    with pytest.raises(NonFiniteState) as err:
        cost_samples(spec, McConfig(T=20.0, dt_sim=2.0, N=100, seed=1,
                                    x0=(0.75,), policy=policy))
    assert err.value.step == 0


def test_x0_missing_a_coordinate_is_rejected():
    spec = problems.torus2d_separable(8)
    cfg = McConfig(T=0.05, dt_sim=1e-3, N=100, seed=1, x0=(0.5,),
                   policy=np.zeros(64, dtype=int))
    with pytest.raises(ValidationError):
        cost_samples(spec, cfg)


def test_x0_extra_coordinate_is_rejected():
    spec = frozen_spec()
    with pytest.raises(ValidationError):
        cost_samples(spec, cfg_for(spec, x0=(0.5, 0.25)))


def test_missing_x0_is_rejected():
    spec = frozen_spec()
    cfg = McConfig(T=1.0, dt_sim=1e-3, N=200, seed=7,
                   policy=np.zeros(spec.grid.size, dtype=int))
    with pytest.raises(ValidationError,
                       match=r"^x0 must have shape \(1,\), got \(\)$"):
        cost_samples(spec, cfg)


@pytest.mark.parametrize("spec, x0", [
    (frozen_spec(r="x1^2"), (3.0,)),
    (frozen_spec(r="x1^2"), (-1e-300,)),
    (problems.torus_two_control(16), (1.3,)),
    (problems.torus2d_separable(8), (0.5, np.nextafter(1.0, 2.0))),
], ids=["interval-above", "interval-below", "torus", "2-torus"])
def test_x0_outside_the_domain_is_rejected(spec, x0):
    with pytest.raises(ValidationError, match="outside the domain") as err:
        cost_samples(spec, cfg_for(spec, x0=x0))
    assert err.value.field == "x0"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x0_is_rejected(bad):
    spec = frozen_spec(r="x1")
    with pytest.raises(ValidationError):
        cost_samples(spec, cfg_for(spec, x0=(bad,)))


# ---------------------------------------------------------------------------
# the blocked increments and the fold
# ---------------------------------------------------------------------------

def _adversarial(period):
    multiples = np.arange(-5, 6) * period
    return np.concatenate([
        [0.0, -0.0, period, -period, np.nextafter(period, 0),
         -np.nextafter(period, 0), 5e-324, -5e-324, 1e-310, -1e-310,
         1e300, -1e300, np.inf, -np.inf, np.nan],
        multiples, np.nextafter(multiples, np.inf),
        np.nextafter(multiples, -np.inf),
        np.random.default_rng(0).standard_normal(2000) * 3 * period,
        np.random.default_rng(1).standard_normal(200) * 1e-17])


@pytest.mark.parametrize("extent", [1.0, 0.7, 2 * math.pi, 1e-3, 3.0, 0.5])
def test_fold_equals_np_mod_bitwise(extent):
    # the torus wraps modulo extent, the interval's mirror modulo 2*extent
    for period in (extent, 2.0 * extent):
        x = _adversarial(period)
        with np.errstate(invalid="ignore"):
            expected = np.mod(x, period)
            got = mc._fold(x, period)
            in_place = x.copy()
            mc._fold(in_place, period, out=in_place)
        assert got.tobytes() == expected.tobytes(), period
        assert in_place.tobytes() == expected.tobytes(), period


def test_nearest_node_matches_clip_and_wrap():
    x = np.random.default_rng(2).uniform(-1.5, 2.5, size=(500, 2))
    for topology in ("interval", "torus"):
        for d in (1, 2) if topology == "torus" else (1,):
            grid = Grid(topology, n=16, d=d)
            spec = ProblemSpec(grid=grid, controls=[(0.0,)], sigma=("1",),
                               b=("0",) * d, r="0")
            idx = np.rint(x[:, :d] / grid.h).astype(np.int64)
            idx = (np.clip(idx, 0, 15) if topology == "interval"
                   else idx % 16)
            expected = idx[:, 0] if d == 1 else idx[:, 0] * 16 + idx[:, 1]
            # the node that the path-step's gather takes
            got = np.take(np.arange(grid.size),
                          mc._nearest_node(spec, x[:, :d]),
                          mode=mc._TAKE_MODE[topology])
            assert got.tobytes() == expected.astype(got.dtype).tobytes()


def _held_full_sigma_2d():
    return ProblemSpec(
        grid=Grid("torus", n=8, d=2), controls=[(-1.0, 0.5), (1.0, -0.5)],
        sigma=("1", "0.25", "0.25", "0.75"), b=("v1", "v2*cos(2*pi*x1)"),
        r="cos(2*pi*x1)*sin(2*pi*x2) + 0.1*v1")


@pytest.mark.parametrize("steps", [10, mc._BLOCK - 1, mc._BLOCK,
                                   mc._BLOCK + 1, 2 * mc._BLOCK + 5])
def test_block_boundaries_pin_reference_samples(monkeypatch, steps,
                                                reference_chunks):
    dt = 0.5 ** 10              # steps * dt is exact, so is the step count
    for spec, x0 in [(_held_full_sigma_2d(), (0.25, 0.75)),
                     (problems.torus_variable_sigma(16), (0.5,)),
                     (problems.interval_two_control(16), (0.5,)),
                     (problems.torus_cosine_drift(16), (0.5,))]:
        cfg = McConfig(T=steps * dt, dt_sim=dt, N=300, seed=13, x0=x0,
                       policy=np.arange(spec.grid.size) % spec.n_controls)
        got = cost_samples(spec, cfg)
        with monkeypatch.context() as m:
            m.setattr(mc, "_simulate_chunk", reference_chunks["seed"])
            expected = cost_samples(spec, cfg)
        assert got.tobytes() == expected.tobytes(), spec.sigma


@pytest.mark.parametrize("rows", [[[0]], [[0], [1]], [[0, 1], [0, 1]]])
def test_increments_equal_einsum_bitwise(rows):
    # signed zeros, subnormals, overflow and NaN in sigma; every entry
    # that no row names is a structural zero
    d, n_paths, steps, sqrt_dt = len(rows), 64, 5, math.sqrt(1e-3)
    values = np.array([0.0, -0.0, 1.0, -0.5, 5e-324, 1e300, np.inf, np.nan])
    sig = np.zeros((n_paths, d, d))
    for i, row in enumerate(rows):
        for j in row:
            sig[:, i, j] = np.resize(np.roll(values, i + 3 * j), n_paths)
    stream = np.random.default_rng(4)
    noise = np.empty((steps, n_paths, d))
    got = np.empty((steps, n_paths, d))
    with np.errstate(all="ignore"):
        mc._increments(np.random.default_rng(4), sig, rows, sqrt_dt, noise,
                       got, np.empty((steps, n_paths)))
        expected = [sqrt_dt * np.einsum("pij,pj->pi", sig,
                                        stream.standard_normal((n_paths, d)))
                    for _ in range(steps)]
    assert got.tobytes() == np.stack(expected).tobytes()


@pytest.mark.parametrize("n_paths", [1, 2])
def test_a_chunk_of_one_or_two_paths_pins_reference_samples(n_paths,
                                                            reference_chunks):
    # numpy sums a single column of the block's costs pairwise, not in
    # step order; a chunk of one path must still add its costs step by step
    n_steps = 2 * mc._BLOCK + 5
    for spec in (problems.torus_two_control(16),
                 problems.interval_two_control(16),
                 problems.torus_variable_sigma(16)):
        for seed in range(8):
            cfg = McConfig(T=n_steps * 1e-3, dt_sim=1e-3, N=100, seed=seed,
                           x0=(0.5,), policy=np.arange(16) % 2)
            got = mc._simulate_chunk(spec, cfg, 1, n_paths, n_steps)
            expected = reference_chunks["seed"](spec, cfg, 1, n_paths, n_steps)
            assert got.tobytes() == expected.tobytes(), (spec.r, seed)


# ---------------------------------------------------------------------------
# the order of errors between the state pass and the cost pass
# ---------------------------------------------------------------------------

def _noiseless_interval_path(drift, x0, dt, steps):
    """The states ``x_0, x_1, ...`` of a path with ``sigma = 0`` on [0, 1],
    formed as the step forms them, ``x + (b + 0.0) dt`` and then folded,
    where ``drift(x)`` gives ``b``; the last one is non-finite if a state
    left the finite range."""
    xs = [x0]
    for _ in range(steps):
        x = xs[-1] + (drift(xs[-1]) + 0.0) * dt
        if not math.isfinite(x):
            return xs + [x]
        xs.append(1.0 - abs(float(np.mod(x, 2.0)) - 1.0))
    return xs


def _overflow_at_node_12(r):
    """A noiseless path on [0, 1] that moves by 0.01 a step (dt = 2) until
    it reaches node 12, where the control 1e308 makes ``b dt`` overflow;
    its config, and its states."""
    spec = ProblemSpec(grid=Grid("interval", n=16),
                       controls=[(0.005,), (1e308,)], sigma=("0",),
                       b=("v1",), r=r)
    policy = np.where(np.arange(16) >= 12, 1, 0)
    cfg = McConfig(T=200.0, dt_sim=2.0, N=100, seed=5, x0=(0.05,),
                   policy=policy)
    node = lambda x: min(max(round(x / spec.grid.h), 0), 15)
    xs = _noiseless_interval_path(lambda x: (0.005, 1e308)[policy[node(x)]],
                                  0.05, 2.0, 100)
    return spec, cfg, xs


@pytest.mark.filterwarnings("error")
def test_cost_error_mid_block_comes_before_a_later_state_event():
    spec, cfg, xs = _overflow_at_node_12("log(0.705 - x1) + v1")
    fails = next(k for k, x in enumerate(xs) if x >= 0.705)
    leaves = len(xs) - 2                    # the step whose state is inf
    assert not math.isfinite(xs[-1]) and fails < leaves
    assert fails // mc._BLOCK == leaves // mc._BLOCK
    assert fails % mc._BLOCK and leaves % mc._BLOCK
    with np.errstate(over="ignore"), pytest.raises(EvalError) as err:
        cost_samples(spec, cfg)
    assert str(err.value) == "log of non-positive value at offset 0"


@pytest.mark.filterwarnings("error")
def test_state_event_comes_before_a_cost_error_of_a_later_step():
    # r = x1 would fail on the non-finite state, a step after the event
    spec, cfg, xs = _overflow_at_node_12("x1")
    leaves = len(xs) - 2
    assert not math.isfinite(xs[-1]) and leaves % mc._BLOCK
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as err:
        cost_samples(spec, cfg)
    assert err.value.step == leaves
    assert str(err.value) == (
        f"simulated state left the finite range (step {leaves})")


@pytest.mark.filterwarnings("error")
def test_cost_error_comes_before_a_drift_error_at_the_same_step():
    spec = ProblemSpec(grid=Grid("interval", n=16), controls=[(0.0,)],
                       sigma=("0",), b=("0.005 + 0*log(0.705 - x1)",),
                       r="log(0.705 - x1)")
    xs = _noiseless_interval_path(lambda x: 0.005, 0.05, 2.0, 100)
    fails = next(k for k, x in enumerate(xs) if x >= 0.705)
    assert fails % mc._BLOCK
    with pytest.raises(EvalError) as drift_err:
        evaluate(spec.b[0], {"x1": xs[fails]})
    with pytest.raises(EvalError) as err:
        cost_samples(spec, McConfig(T=200.0, dt_sim=2.0, N=100, seed=5,
                                    x0=(0.05,), policy=np.zeros(16, dtype=int)))
    assert str(err.value) == "log of non-positive value at offset 0"
    assert str(drift_err.value) != str(err.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_error_order_holds_in_worker_threads(monkeypatch, threads):
    # a worker sees the caller's np.errstate, as the calling thread does
    monkeypatch.setenv("NISIO_THREADS", threads)
    test_cost_error_mid_block_comes_before_a_later_state_event()
    test_state_event_comes_before_a_cost_error_of_a_later_step()
    test_cost_error_comes_before_a_drift_error_at_the_same_step()


def test_cost_error_is_that_of_the_first_failing_step():
    # from x0 = 0.6 the right log fails at step 0 and the left one, which
    # is evaluated first, from step 11 on: a whole block's evaluation meets
    # the left one's error first, the step-by-step order the right one's
    spec = ProblemSpec(grid=Grid("interval", n=16), controls=[(0.0,)],
                       sigma=("0",), b=("0.5",),
                       r="log(0.705 - x1) + log(x1 - 0.68)")
    errors = []
    for x in (0.6, 0.75):
        with pytest.raises(EvalError) as err:
            evaluate(spec.r, {"x1": x})
        errors.append(str(err.value))
    assert errors[0] != errors[1]
    with pytest.raises(EvalError) as err:
        cost_samples(spec, McConfig(T=0.4, dt_sim=0.02, N=100, seed=5,
                                    x0=(0.6,), policy=np.zeros(16, dtype=int)))
    assert str(err.value) == errors[0]


# ---------------------------------------------------------------------------
# a running cost that leaves the finite range
# ---------------------------------------------------------------------------

def _first_overflow(r, dt):
    """The first step at which the running sum of ``(r + 0.0) dt``, added
    step by step, is not finite."""
    acc, step = 0.0, 0
    while math.isfinite(acc := acc + (r + 0.0) * dt):
        step += 1
    return step


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("r, dt_sim, sigma, step", [
    ("1e308", 2.0, "1", 0),                         # r dt overflows
    ("1e308", 0.5, "1", 3),                         # so does the sum
    # a noiseless path stays at x0 = 0.5; r is evaluated on every block
    ("2e306*(1 + x1)", 0.5, "0", _first_overflow(2e306 * 1.5, 0.5)),
])
def test_cost_overflow_raises_at_its_step(monkeypatch, threads, r, dt_sim,
                                          sigma, step):
    monkeypatch.setenv("NISIO_THREADS", threads)
    spec = ProblemSpec(grid=Grid("torus", n=16), controls=[(0.0,)],
                       sigma=(sigma,), b=("0",), r=r)
    # 5000 paths are two chunks
    cfg = McConfig(T=200 * dt_sim, dt_sim=dt_sim, N=5000, seed=3, x0=(0.5,),
                   policy=np.zeros(16, dtype=int))
    for estimate in (cost_samples, simulate_cost):
        with pytest.raises(NonFiniteState) as err:
            estimate(spec, cfg)
        assert err.value.step == step
        assert str(err.value) == (
            f"running cost left the finite range (step {step})")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_noisy_cost_overflow_raises_at_the_first_step_of_any_path(
        monkeypatch, threads):
    monkeypatch.setenv("NISIO_THREADS", threads)
    spec = ProblemSpec(grid=Grid("torus", n=16), controls=[(0.0,)],
                       sigma=("1",), b=("0",), r="2e307*(1 + x1)")
    cfg = McConfig(T=10.0, dt_sim=0.5, N=5000, seed=3, x0=(0.5,),
                   policy=np.zeros(16, dtype=int))
    with pytest.raises(NonFiniteState) as err:
        cost_samples(spec, cfg)
    # r dt lies in [1e307, 2e307]: the sum overflows at steps 8 to 17
    step = err.value.step
    assert 8 <= step <= 17
    # the first chunk's paths, the first of the two to raise
    assert np.isfinite(mc._simulate_chunk(spec, cfg, 0, mc._CHUNK, step)).all()
    with pytest.raises(NonFiniteState) as err:
        mc._simulate_chunk(spec, cfg, 0, mc._CHUNK, step + 1)
    assert err.value.step == step


def _cost_overflow_from_node(node, r):
    """A noiseless path on [0, 1] from 0.3 that moves by 0.01 a step
    (dt = 2); from ``node`` on its control is 1e308, which makes ``r dt``
    overflow where ``r`` adds ``v1``.  Its config, and its states."""
    spec = ProblemSpec(grid=Grid("interval", n=16),
                       controls=[(0.0,), (1e308,)], sigma=("0",),
                       b=("0.005",), r=r)
    cfg = McConfig(T=200.0, dt_sim=2.0, N=100, seed=5, x0=(0.3,),
                   policy=np.where(np.arange(16) >= node, 1, 0))
    xs = _noiseless_interval_path(lambda x: 0.005, 0.3, 2.0, 100)
    at_node = next(k for k, x in enumerate(xs) if round(x * 15) >= node)
    return spec, cfg, xs, at_node


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_cost_overflow_and_cost_error_keep_the_step_order(monkeypatch,
                                                          threads):
    monkeypatch.setenv("NISIO_THREADS", threads)
    r = "log(0.665 - x1) + v1"
    # from node 10 on, r dt overflows before the log fails, in one block
    spec, cfg, xs, overflows = _cost_overflow_from_node(10, r)
    fails = next(k for k, x in enumerate(xs) if x >= 0.665)
    assert overflows < fails and overflows // mc._BLOCK == fails // mc._BLOCK
    assert overflows % mc._BLOCK
    with pytest.raises(NonFiniteState) as err:
        cost_samples(spec, cfg)
    assert err.value.step == overflows
    # from node 11 on, the log fails first
    spec, cfg, xs, overflows = _cost_overflow_from_node(11, r)
    assert fails < overflows and overflows // mc._BLOCK == fails // mc._BLOCK
    assert fails % mc._BLOCK
    with pytest.raises(EvalError) as err:
        cost_samples(spec, cfg)
    assert str(err.value) == "log of non-positive value at offset 0"


@pytest.mark.filterwarnings("error")
def test_cost_overflow_comes_before_a_state_event_at_the_same_step():
    # at node 12 the control 1e308 makes both r dt and b dt overflow
    spec, cfg, xs = _overflow_at_node_12("v1")
    leaves = len(xs) - 2
    with pytest.raises(NonFiniteState) as err:
        cost_samples(spec, cfg)
    assert err.value.step == leaves
    assert str(err.value) == (
        f"running cost left the finite range (step {leaves})")


@pytest.mark.parametrize("value", ["four", "0", "-2", "2.5", ""])
def test_malformed_thread_count_is_rejected(monkeypatch, value):
    monkeypatch.setenv("NISIO_THREADS", value)
    spec = frozen_spec()
    with pytest.raises(ValidationError, match="NISIO_THREADS") as err:
        cost_samples(spec, cfg_for(spec))
    assert err.value.field == "NISIO_THREADS"


def test_unset_thread_count_means_one_worker(monkeypatch):
    monkeypatch.delenv("NISIO_THREADS", raising=False)
    assert mc._worker_count() == 1
