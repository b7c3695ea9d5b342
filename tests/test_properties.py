"""Property tests on randomly generated problem specs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nisio import (
    Grid,
    ProblemSpec,
    apply_G,
    argmin_policy,
    build_generator,
    eigensolver,
    generator,
    solve_evolution,
    step,
)
from nisio.errors import NumericalError

from test_cone import (
    _reference_power_iterate,
    assert_same_array,
    assert_same_orbit,
    assert_same_pair,
)
from test_generator import assert_pins_reference_stencil, assert_sharp_step_bound

coef = st.floats(-2.0, 2.0, allow_nan=False).map(lambda c: round(c, 3))
scale = st.floats(0.5, 1.5, allow_nan=False).map(lambda s: round(s, 3))


@st.composite
def specs(draw):
    """Torus or interval, d = 1 or 2-torus, 1 to 4 controls, n <= 24."""
    topology, d = draw(st.sampled_from(
        [("torus", 1), ("interval", 1), ("torus", 2)]))
    n = draw(st.integers(8, 24 if d == 1 else 12))
    controls = draw(st.lists(st.tuples(*[coef] * d), min_size=1, max_size=4))
    if d == 1:
        sigma = (f"{draw(scale)} + 0.2*sin(2*pi*x1)",)
        b = (f"v1 + {draw(coef)}*cos(2*pi*x1)",)
        r = f"{draw(coef)}*cos(2*pi*x1) + {draw(coef)}*v1^2"
    else:
        # |c| <= 0.2 min(s1, s2) with s2/s1 <= 3 keeps a = sigma sigma^T
        # diagonally dominant, |a12| <= min(a11, a22), at every node
        s1, s2 = draw(scale), draw(scale)
        c = round(draw(st.floats(-0.2, 0.2)) * min(s1, s2), 4)
        sigma = (str(s1), str(c), str(c), str(s2))
        b = ("v1", f"v2 + {draw(coef)}*sin(2*pi*x1)")
        r = (f"{draw(coef)}*cos(2*pi*x1) + {draw(coef)}*sin(2*pi*x2)"
             f" + {draw(coef)}*v1*v2")
    spec = ProblemSpec(grid=Grid(topology, n=n, d=d), controls=controls,
                       sigma=sigma, b=b, r=r)
    return spec, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(specs())
def test_single_envelope_matches_per_control_products(case):
    spec, seed = case
    base = build_generator(spec)
    f = np.random.default_rng(seed).uniform(-1.0, 2.0, base.size)
    nodes = np.arange(base.size)
    dt = 0.9 * base.dt_max
    for sense, reduce in (("minimize", np.min), ("maximize", np.max)):
        gen = base.with_sense(sense)
        products = np.stack([apply_G(gen.frozen(v), f)
                             for v in range(gen.n_controls)])
        gf = apply_G(gen, f)
        assert np.array_equal(gf, reduce(products, axis=0))
        assert np.array_equal(products[argmin_policy(gen, f), nodes], gf)
        steps = np.stack([M @ f for M in gen.step_matrices(dt)])
        assert np.array_equal(step(gen, f, dt), reduce(steps, axis=0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(specs())
def test_assembler_and_gradient_pin_references(case):
    spec, seed = case
    assert_pins_reference_stencil(spec, seed)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(specs())
def test_step_bound_is_sharp(case):
    assert_sharp_step_bound(case[0])


def _evolution_outcome(gen):
    try:
        return solve_evolution(gen)
    except NumericalError as exc:
        return exc


@settings(max_examples=20, deadline=None, derandomize=True)
@given(specs())
def test_gated_power_iteration_matches_plain_loop(case):
    spec, _ = case
    base = build_generator(spec)
    for sense in ("minimize", "maximize"):
        gen = base.with_sense(sense)
        got = _evolution_outcome(gen)
        with mock.patch.object(eigensolver, "power_iterate",
                               _reference_power_iterate):
            want = _evolution_outcome(gen)
        assert type(got) is type(want)
        if isinstance(want, NumericalError):
            assert str(got) == str(want)
            got, want = getattr(got, "best", None), getattr(want, "best", None)
        if isinstance(want, tuple):             # from the cone iteration
            assert_same_orbit(got, want)
        elif want is not None:
            assert_same_pair(got, want)


@pytest.mark.parametrize("kernel", ["direct", "fallback"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=specs())
def test_stack_product_is_bitwise_matmul(kernel, case):
    spec, seed = case
    base = build_generator(spec)
    rng = np.random.default_rng(seed)
    kernels = {"direct": generator._csr_matvec, "fallback": None}
    for stack in (base.stack, base.step_stack(0.9 * base.dt_max)):
        with mock.patch.object(generator, "_csr_matvec", kernels[kernel]):
            product = generator._stack_product(stack)
        for sense in ("minimize", "maximize"):
            for _ in range(2):                  # the buffer is reused
                f = rng.uniform(-1.0, 2.0, base.size)
                want = stack @ f
                got = product(f)
                assert_same_array(got, want)
                best, arg = generator._envelope(got, base.size, sense,
                                                with_arg=True)
                want_best, want_arg = generator._envelope(
                    want, base.size, sense, with_arg=True)
                assert_same_array(best, want_best)
                assert_same_array(arg, want_arg)
                assert_same_array(generator._envelope(got, base.size, sense),
                                  want_best)


def _awkward(rng, size):
    """Values with signed zeros, NaN and infinities among ordinary ones."""
    f = rng.uniform(-1.0, 2.0, size)
    picks = rng.choice(size, size=min(size, 6), replace=False)
    f[picks] = [0.0, -0.0, np.nan, np.inf, -np.inf, -0.0][:len(picks)]
    return f


@pytest.mark.parametrize("kernel", ["direct", "fallback"])
@pytest.mark.parametrize("n_controls", [1, 2, 3, 4])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_envelope_map_is_bitwise_envelope(kernel, n_controls, data):
    spec, seed = data.draw(
        specs().filter(lambda case: case[0].n_controls == n_controls))
    base = build_generator(spec)
    rng = np.random.default_rng(seed)
    size = base.size
    kernels = {"direct": generator._csr_matvec, "fallback": None}
    for stack in (base.stack, base.step_stack(0.9 * base.dt_max)):
        for sense in ("minimize", "maximize"):
            with mock.patch.object(generator, "_csr_matvec", kernels[kernel]):
                euler = generator._envelope_map(stack, size, sense)
            f = rng.uniform(0.5, 1.5, size)
            for f_in in (f, _awkward(rng, size)):
                got = euler(f_in)
                assert_same_array(got, generator._envelope(stack @ f_in,
                                                           size, sense))
            for _ in range(3):              # the output fed back in
                want = generator._envelope(stack @ f, size, sense)
                f = euler(f)
                assert_same_array(f, want)

            # products with signed zeros, NaN and infinities in every block
            planted = np.concatenate([_awkward(rng, size)
                                      for _ in range(n_controls)])

            def plant(rows, cols, indptr, indices, values, g, out):
                np.copyto(out, planted)

            with mock.patch.object(generator, "_csr_matvec", plant):
                got = generator._envelope_map(stack, size, sense)(f)
            assert_same_array(got, generator._envelope(planted, size, sense))


@pytest.mark.parametrize("kernel", ["direct", "fallback"])
@pytest.mark.parametrize("nnz_bound", [0, 2 ** 62],
                         ids=["product-per-orbit", "block-diagonal"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=specs(), senses=st.lists(st.sampled_from(["minimize", "maximize"]),
                                     min_size=1, max_size=3))
def test_envelope_batch_is_bitwise_envelope_map(kernel, nnz_bound, case,
                                                senses):
    spec, seed = case
    base = build_generator(spec)
    rng = np.random.default_rng(seed)
    size = base.size
    kernels = {"direct": generator._csr_matvec, "fallback": None}
    for stack in (base.stack, base.step_stack(0.9 * base.dt_max)):
        with mock.patch.multiple(generator, _csr_matvec=kernels[kernel],
                                 _BLOCK_NNZ=nnz_bound):
            batch = generator._envelope_batch(stack, size, senses)
            maps = [generator._envelope_map(stack, size, sense)
                    for sense in senses]
        for _ in range(2):                  # the buffer is reused
            g = np.stack([_awkward(rng, size) for _ in senses])
            y = batch(g)
            assert y.shape == g.shape
            for row, one_step, x in zip(y, maps, g):
                assert_same_array(row, one_step(x))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=specs(), senses=st.lists(st.sampled_from(["minimize", "maximize"]),
                                     min_size=1, max_size=3))
def test_lockstep_solve_matches_one_sense_solves(case, senses):
    spec, _ = case
    base = build_generator(spec)
    want = [_evolution_outcome(base.with_sense(sense)) for sense in senses]
    first = next((w for w in want if isinstance(w, NumericalError)), None)
    try:
        got = solve_evolution(base, senses=tuple(senses))
    except NumericalError as exc:
        assert type(exc) is type(first) and str(exc) == str(first)
        return
    assert first is None
    for a, b in zip(got, want):
        assert_same_pair(a, b)
