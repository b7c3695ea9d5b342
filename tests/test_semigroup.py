"""Structural properties of the explicit-Euler semigroup."""

import numpy as np
import pytest

from nisio import (
    EvolveOptions,
    build_generator,
    evolve,
    generator_limit_check,
    solve_evolution,
    step,
)
from nisio.errors import CflViolation, NonPositiveInput, ValidationError
from nisio import problems


@pytest.fixture(scope="module")
def two_control():
    return build_generator(problems.torus_two_control(64))


def test_step_constant_cost_exact():
    gen = build_generator(problems.constant_cost(1.0, 64))
    dt = 2.0 ** -13           # dyadic: all arithmetic on integers/2^k is exact
    out = step(gen, gen.grid.ones(), dt)
    assert np.array_equal(out, np.full(gen.size, 1.0 + dt))


def test_step_cfl_guard(two_control):
    f = two_control.grid.ones()
    with pytest.raises(CflViolation):
        step(two_control, f, two_control.dt_max * 1.01)


@pytest.mark.parametrize("run", [
    lambda gen, f, opts: evolve(gen, f, opts),
    lambda gen, f, opts: evolve(gen.frozen(1), f, opts),
], ids=["evolve", "evolve_linear"])
def test_evolve_cfl_guard(run):
    # a step above dt_max is refused, not shrunk by snapping to t_final
    gen = build_generator(problems.torus_two_control(32))
    f = gen.grid.ones()
    for dt in (1.01 * gen.dt_max, 10 * gen.dt_max):
        with pytest.raises(CflViolation):
            run(gen, f, EvolveOptions(dt=dt, t_final=0.05))
    out = run(gen, f, EvolveOptions(dt=gen.dt_max, t_final=0.05))
    assert np.all(np.isfinite(out)) and np.all(out > 0)


def test_step_at_eigenfunction(two_control):
    pair = solve_evolution(two_control)
    dt = two_control.dt_max * 0.9
    out = step(two_control, pair.phi, dt)
    expected = (1.0 + dt * pair.rho) * pair.phi
    assert np.max(np.abs(out - expected)) <= 2 * dt * pair.residual + 1e-15


def test_evolve_identity_at_zero(two_control):
    f = np.random.default_rng(0).uniform(0.1, 1.0, two_control.size)
    out = evolve(two_control, f, EvolveOptions(dt=1e-4, t_final=0.0))
    assert np.array_equal(out, f)


def test_compound_interest_limit():
    # r = c, f = 1: k steps of size 1/k give (1 + c/k)^k -> e^c
    gen = build_generator(problems.constant_cost(1.0, 8))
    k = 1000
    out = evolve(gen, gen.grid.ones(), EvolveOptions(dt=1.0 / k, t_final=1.0))
    assert np.max(np.abs(out - (1 + 1.0 / k) ** k)) < 1e-12
    assert abs(out[0] - np.e) <= 2e-3


def test_monotone_exact(two_control):
    rng = np.random.default_rng(1)
    opts = EvolveOptions(dt=two_control.dt_max * 0.9, t_final=1.0)
    for _ in range(3):
        f = rng.uniform(0.1, 1.0, two_control.size)
        g = f + rng.uniform(0.0, 1.0, two_control.size)
        assert np.all(evolve(two_control, f, opts) <= evolve(two_control, g, opts))


def test_envelope_exact(two_control):
    rng = np.random.default_rng(2)
    opts = EvolveOptions(dt=two_control.dt_max * 0.9, t_final=1.0)
    f = rng.uniform(0.1, 1.0, two_control.size)
    sf = evolve(two_control, f, opts)
    for v in range(two_control.n_controls):
        assert np.all(evolve(two_control.frozen(v), f, opts) >= sf)


def test_homogeneity(two_control):
    rng = np.random.default_rng(3)
    opts = EvolveOptions(dt=two_control.dt_max * 0.9, t_final=0.5)
    f = rng.uniform(0.1, 1.0, two_control.size)
    sf = evolve(two_control, f, opts)
    for c in (2.0, 0.25, 16.0):       # power-of-two factors are bit-exact
        assert np.array_equal(evolve(two_control, c * f, opts), c * sf)
    general = evolve(two_control, 3.3 * f, opts)
    assert np.allclose(general, 3.3 * sf, rtol=1e-13, atol=1e-13)


def test_superadditive(two_control):
    rng = np.random.default_rng(4)
    opts = EvolveOptions(dt=two_control.dt_max * 0.9, t_final=1.0)
    for _ in range(3):
        f = rng.uniform(0.1, 1.0, two_control.size)
        g = rng.uniform(0.05, 2.0, two_control.size)
        lhs = evolve(two_control, f + g, opts)
        rhs = evolve(two_control, f, opts) + evolve(two_control, g, opts)
        assert np.min(lhs - rhs) >= 0.0


def test_composition_bit_exact(two_control):
    f = np.random.default_rng(5).uniform(0.1, 1.0, two_control.size)
    dt = 2.0 ** -13
    ab = evolve(two_control, evolve(two_control, f, EvolveOptions(dt, 0.25)),
                EvolveOptions(dt, 0.75))
    whole = evolve(two_control, f, EvolveOptions(dt, 1.0))
    assert np.array_equal(ab, whole)


def test_boundedness_and_lipschitz(two_control):
    rng = np.random.default_rng(6)
    t = 1.0
    opts = EvolveOptions(dt=two_control.dt_max * 0.9, t_final=t)
    rmax = two_control.r_max
    f = rng.uniform(-1.0, 1.0, two_control.size)
    g = rng.uniform(-1.0, 1.0, two_control.size)
    sf, sg = evolve(two_control, f, opts), evolve(two_control, g, opts)
    bound = np.exp(rmax * t)
    assert np.max(np.abs(sf)) <= bound * np.max(np.abs(f)) + 1e-9
    assert np.max(np.abs(sf - sg)) <= bound * np.max(np.abs(f - g)) + 1e-9


def test_unit_lower_bound(two_control):
    # e^{max|r| t} S_t 1 >= 1, up to the O(dt) defect of the Euler product
    t = 1.0
    dt = two_control.dt_max * 0.9
    out = evolve(two_control, two_control.grid.ones(), EvolveOptions(dt, t))
    rmax = two_control.r_max
    slack = rmax ** 2 * dt * t * np.exp(rmax * t)
    assert np.min(np.exp(rmax * t) * out) >= 1.0 - slack - 1e-9


def test_evolve_linear_single_control_identical():
    gen = build_generator(problems.torus_cosine(64))
    f = np.random.default_rng(7).uniform(0.1, 1.0, gen.size)
    opts = EvolveOptions(dt=gen.dt_max * 0.9, t_final=0.5)
    assert np.array_equal(evolve(gen, f, opts), evolve(gen.frozen(0), f, opts))


def test_evolve_linear_constant_cost_exact():
    gen = build_generator(problems.constant_cost(0.5, 64, two_controls=True))
    dt = 2.0 ** -13
    k = 256
    out = evolve(gen.frozen(1), gen.grid.ones(), EvolveOptions(dt, k * dt))
    assert np.max(np.abs(out - (1 + 0.5 * dt) ** k)) < 1e-12


def test_generator_limit_constant_cost():
    gen = build_generator(problems.constant_cost(1.0, 16))
    res = generator_limit_check(gen, gen.grid.ones(), [0.2, 0.1, 0.05])
    # scalar expansion: ((1 + c dt)^{t/dt} - 1)/t - c = O(t)
    for t, r in zip([0.2, 0.1, 0.05], res):
        assert r <= t * np.e
    assert res[0] > res[1] > res[2]


def test_generator_limit_ratios(cosine_gen):
    rng = np.random.default_rng(8)
    x = cosine_gen.grid.nodes()[:, 0]
    for _ in range(5):
        c = rng.uniform(-0.3, 0.3, 2)
        f = 1.0 + c[0] * np.sin(2 * np.pi * x) + c[1] * np.cos(2 * np.pi * x)
        res = generator_limit_check(cosine_gen, f, [0.1, 0.05, 0.025])
        ratios = res[:-1] / res[1:]
        assert np.all(ratios >= 1.5) and np.all(ratios <= 2.5)


def test_generator_limit_at_eigenfunction(cosine_gen, cosine_pair):
    t_list = [0.2, 0.1, 0.05]
    res = generator_limit_check(cosine_gen, cosine_pair.phi, t_list)
    rho = abs(cosine_pair.rho)
    for t, r in zip(t_list, res):
        assert r <= rho ** 2 * t + 10 * cosine_pair.residual


@pytest.mark.parametrize("t", [np.inf, np.nan, 0.0, -0.1])
def test_generator_limit_check_names_t_list(cosine_gen, t):
    # an infinite t used to pass the sign check and fail in EvolveOptions,
    # naming t_final
    f = cosine_gen.grid.ones()
    with pytest.raises(NonPositiveInput,
                       match="^t_list must be positive and finite$") as err:
        generator_limit_check(cosine_gen, f, [0.1, t])
    assert err.value.field == "t_list"


def test_evolve_options_validation():
    with pytest.raises(ValidationError):
        EvolveOptions(dt=0.0, t_final=1.0)
    with pytest.raises(ValidationError):
        EvolveOptions(dt=1e-3, t_final=-1.0)
    with pytest.raises(ValidationError):
        EvolveOptions(dt=1e-3, t_final=1.0, record_every=-1)


def test_record_every_must_be_a_whole_number(cosine_gen):
    for bad in (2.5, True):
        with pytest.raises(ValidationError) as err:
            EvolveOptions(dt=1e-3, t_final=1.0, record_every=bad)
        assert err.value.field == "record_every"
    opts = EvolveOptions(dt=1e-3, t_final=1.0, record_every=16.0)
    assert type(opts.record_every) is int
    dt = cosine_gen.dt_max * 0.5
    _, times, _ = evolve(cosine_gen, cosine_gen.grid.ones(),
                         EvolveOptions(dt, 64 * dt, record_every=16.0))
    assert len(times) == 5


def test_record_snapshots(cosine_gen):
    f = cosine_gen.grid.ones()
    dt = cosine_gen.dt_max * 0.5
    final, times, snaps = evolve(cosine_gen, f, EvolveOptions(dt, 64 * dt, record_every=16))
    assert times[0] == 0.0
    assert np.array_equal(snaps[0], f)
    assert np.array_equal(snaps[-1], final)
    assert len(times) == 5


@pytest.mark.parametrize("make", [problems.torus_cosine,
                                  problems.torus_two_control])
def test_evolve_snapshots_match_single_steps(make):
    # one control too: the map's output is fed back as its next argument,
    # so it must never be the product buffer that the next call zeroes
    gen = build_generator(make(32))
    f = gen.grid.ones() + 0.5 * np.cos(2 * np.pi * gen.grid.nodes()[:, 0])
    dt = 0.5 * gen.dt_max
    final, times, snaps = evolve(gen, f, EvolveOptions(dt, 32 * dt,
                                                       record_every=8))
    want, want_snaps = f, [f]
    for k in range(1, 33):
        want = step(gen, want, dt)
        if k % 8 == 0:
            want_snaps.append(want)
    assert np.array_equal(times, dt * np.arange(0, 33, 8))
    assert np.array_equal(np.array(want_snaps).view(np.uint64),
                          snaps.view(np.uint64))
    assert np.array_equal(want.view(np.uint64), final.view(np.uint64))


def test_only_the_euler_stack_of_the_latest_step_is_kept():
    gen = build_generator(problems.torus_two_control(16))
    f = gen.grid.ones()
    for k in range(50):
        step(gen, f, gen.dt_max * (1.0 - k / 100))
    generator_limit_check(gen, f, [0.1, 0.05, 0.025])
    assert len(gen._step_cache) <= 1
    dt = 0.5 * gen.dt_max
    assert gen.step_stack(dt) is gen.step_stack(dt)
    # the max solve on the with_sense view reuses the min solve's stack
    solve_evolution(gen)
    stacks = list(gen._step_cache.values())
    flipped = gen.with_sense("maximize")
    solve_evolution(flipped)
    assert list(flipped._step_cache.values()) == stacks
    assert list(gen._step_cache.values())[0] is stacks[0]
