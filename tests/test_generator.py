"""Stencil correctness, Metzler structure and consistency orders."""

import numpy as np
import pytest
import scipy.sparse as sp

from nisio import ProblemSpec, Grid, apply_G, apply_linear, argmin_policy, build_generator
from nisio.errors import (
    DegenerateDiffusion,
    NonFiniteCoefficient,
    ValidationError,
)
from nisio import generator, problems


def uncontrolled(topology="torus", n=64, sigma="1", b="0", r="0", d=1):
    sig = (sigma,) if d == 1 else (sigma, "0", "0", sigma)
    bb = (b,) if d == 1 else (b, b)
    return build_generator(ProblemSpec(
        grid=Grid(topology, n=n, d=d), controls=[(0.0,)],
        sigma=sig, b=bb, r=r))


def test_torus_laplacian_row():
    gen = uncontrolled(n=64)
    h = gen.grid.h
    A = gen.mats[0].toarray()
    for i in (0, 5, 63):
        assert A[i, (i - 1) % 64] == 1.0 / (2 * h * h)
        assert A[i, (i + 1) % 64] == 1.0 / (2 * h * h)
        assert A[i, i] == -1.0 / (h * h)


def test_annihilates_constants():
    for gen in (uncontrolled("torus"), uncontrolled("interval"),
                build_generator(problems.torus2d_separable(16))):
        for c in (1.0, 3.0):
            f = np.full(gen.size, c)
            out = apply_linear(gen, 0, f) - gen.r_tables[0] * f
            assert np.max(np.abs(out)) <= 1e-12


def test_diffusion_second_order_torus():
    errs = {}
    for n in (64, 128, 256):
        gen = uncontrolled(n=n)
        x = gen.grid.nodes()[:, 0]
        f = np.cos(2 * np.pi * x)
        exact = -0.5 * (2 * np.pi) ** 2 * f      # (1/2) a f'' with a = 1
        r_term = gen.r_tables[0] * f
        errs[n] = np.max(np.abs(apply_linear(gen, 0, f) - r_term - exact))
    assert 3.5 < errs[64] / errs[128] < 4.5
    assert 3.5 < errs[128] / errs[256] < 4.5


def test_interval_neumann_second_order():
    errs = {}
    for n in (64, 128, 256):
        gen = uncontrolled("interval", n=n)
        x = gen.grid.nodes()[:, 0]
        f = np.cos(np.pi * x)                    # satisfies f'(0) = f'(1) = 0
        exact = -0.5 * np.pi ** 2 * f
        errs[n] = np.max(np.abs(apply_linear(gen, 0, f) - exact))
    assert 3.5 < errs[64] / errs[128] < 4.6
    assert 3.5 < errs[128] / errs[256] < 4.6


def test_upwind_drift_on_linear_function():
    gen = build_generator(ProblemSpec(
        grid=Grid("interval", n=64), controls=[(0.0,)],
        sigma=("0.1",), b=("1",), r="0"))
    x = gen.grid.nodes()[:, 0]
    out = apply_linear(gen, 0, x.copy())
    # forward difference of a linear function is exact; diffusion term vanishes
    assert np.max(np.abs(out[1:-1] - 1.0)) < 1e-9


def test_metzler_and_row_sums():
    for spec in problems.corpus_1d(64).values():
        gen = build_generator(spec)
        for A, r in zip(gen.mats, gen.r_tables):
            off = A - sp.diags(A.diagonal())
            assert off.min() >= 0.0                      # exact Metzler
            rowsum = np.asarray(A.sum(axis=1)).ravel()
            assert np.max(np.abs(rowsum - r)) <= 1e-12


def test_apply_G_examples():
    # single control: envelope degenerates to the linear operator
    gen = uncontrolled()
    f = np.random.default_rng(0).uniform(0.1, 1.0, gen.size)
    assert np.array_equal(apply_G(gen, f), apply_linear(gen, 0, f))

    # G(1) = min_v r
    spec = problems.torus_two_control(64)
    gen2 = build_generator(spec)
    ones = gen2.grid.ones()
    rmin = np.min(gen2.r_tables, axis=0)
    assert np.max(np.abs(apply_G(gen2, ones) - rmin)) <= 1e-12

    # two controls with b = +-1, r = 0: G x ~ -1 in the interior
    gen3 = build_generator(ProblemSpec(
        grid=Grid("interval", n=64), controls=[(-1.0,), (1.0,)],
        sigma=("0.1",), b=("v1",), r="0"))
    x = gen3.grid.nodes()[:, 0]
    out = apply_G(gen3, x.copy())
    assert np.max(np.abs(out[1:-1] + 1.0)) < 1e-9


def test_envelope_below_every_control():
    gen = build_generator(problems.torus_two_control(64))
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = rng.uniform(0.1, 2.0, gen.size)
        gf = apply_G(gen, f)
        for v in range(gen.n_controls):
            assert np.all(gf <= apply_linear(gen, v, f))     # exact


def test_positive_homogeneity_exact():
    gen = build_generator(problems.torus_two_control(64))
    f = np.random.default_rng(2).uniform(0.1, 1.0, gen.size)
    for c in (2.0, 0.5, 8.0):
        assert np.array_equal(apply_G(gen, c * f), c * apply_G(gen, f))
    assert np.allclose(apply_G(gen, 3.0 * f), 3.0 * apply_G(gen, f),
                       rtol=1e-14, atol=1e-11)


def test_argmin_policy():
    gen = uncontrolled()
    f = np.random.default_rng(3).uniform(0.1, 1.0, gen.size)
    assert np.all(argmin_policy(gen, f) == 0)

    # r = v^2 with control-independent dynamics: v = 0 dominates
    gen2 = build_generator(ProblemSpec(
        grid=Grid("torus", n=64), controls=[(0.0,), (1.0,)],
        sigma=("1",), b=("0",), r="v1^2"))
    assert np.all(argmin_policy(gen2, gen2.grid.ones()) == 0)

    # self-consistency: applying the argmin policy reproduces the envelope
    gen3 = build_generator(problems.torus_two_control(64))
    f = np.random.default_rng(4).uniform(0.1, 1.0, gen3.size)
    pol = argmin_policy(gen3, f)
    stacked = np.stack([apply_linear(gen3, v, f) for v in range(2)])
    chosen = stacked[pol, np.arange(gen3.size)]
    assert np.array_equal(chosen, apply_G(gen3, f))


def test_cfl_bound_value():
    gen = uncontrolled(n=64)
    h = gen.grid.h
    assert gen.dt_max == pytest.approx(h * h, rel=1e-12)   # a = 1, b = 0
    gen2 = build_generator(ProblemSpec(
        grid=Grid("torus", n=64), controls=[(0.0,)],
        sigma=("1",), b=("2",), r="0"))
    assert gen2.dt_max == pytest.approx(h * h / (1 + 2 * h), rel=1e-12)


def test_2d_cross_term_consistency():
    # sigma = [[1, 0.3], [0, 1]] gives a = [[1.09, 0.3], [0.3, 1]]
    errs = {}
    for n in (16, 32, 64):
        spec = ProblemSpec(
            grid=Grid("torus", n=n, d=2), controls=[(0.0,)],
            sigma=("1", "0.3", "0", "1"), b=("0", "0"), r="0")
        gen = build_generator(spec)
        nodes = gen.grid.nodes()
        f = np.cos(2 * np.pi * (nodes[:, 0] + nodes[:, 1]))
        # trace(a D^2 f)/2 = -(a11 + 2 a12 + a22)/2 * (2 pi)^2 * f
        exact = -0.5 * (1.09 + 0.6 + 1.0) * (2 * np.pi) ** 2 * f
        errs[n] = np.max(np.abs(apply_linear(gen, 0, f) - exact))
        A = gen.mats[0]
        off = A - sp.diags(A.diagonal())
        assert off.min() >= 0.0
        rowsum = np.asarray(A.sum(axis=1)).ravel()
        assert np.max(np.abs(rowsum)) <= 1e-11 * (n / 16) ** 2
    assert 3.4 < errs[16] / errs[32] < 4.6
    assert 3.4 < errs[32] / errs[64] < 4.6


def test_2d_dominance_violation():
    # a = sigma sigma^T = [[1.81, 0.55], [0.55, 0.26]]: positive definite
    # but |a12| > a22, outside the monotone stencil's reach
    spec = ProblemSpec(
        grid=Grid("torus", n=16, d=2), controls=[(0.0,)],
        sigma=("1", "0.9", "0.1", "0.5"), b=("0", "0"), r="0")
    with pytest.raises(DegenerateDiffusion):
        build_generator(spec)


def test_degenerate_diffusion():
    with pytest.raises(DegenerateDiffusion):
        uncontrolled(sigma="0.00001")


def test_non_finite_coefficient():
    with pytest.raises(NonFiniteCoefficient):
        uncontrolled(r="log(x1)")     # x1 = 0 is on the grid


def test_spec_validation():
    grid = Grid("torus", n=64)
    with pytest.raises(ValidationError):
        ProblemSpec(grid=grid, controls=[], sigma=("1",), b=("0",), r="0")
    with pytest.raises(ValidationError):
        ProblemSpec(grid=grid, controls=[(v,) for v in range(65)],
                    sigma=("1",), b=("0",), r="0")
    with pytest.raises(ValidationError):
        ProblemSpec(grid=grid, controls=[(0.0,)], sigma=("1",),
                    b=("0", "0"), r="0")
    with pytest.raises(ValidationError):
        ProblemSpec(grid=grid, controls=[(0.0,)], sigma=("1",),
                    b=("0",), r="x2")          # unknown variable in 1D
    with pytest.raises(ValidationError):
        ProblemSpec(grid=grid, controls=[(0.0,)], sigma=("v1",),
                    b=("0",), r="0")           # sigma must not depend on v
    with pytest.raises(ValidationError):
        Grid("interval", n=64, d=2)
    with pytest.raises(ValidationError):
        Grid("torus", n=4)


def test_direct_csr_kernel_is_used():
    # scipy's CSR kernel is private: if a release moves it, the step product
    # falls back to ``stack @ g`` and this test, not only the timing, shows it
    assert generator._csr_matvec is not None
    stack = build_generator(problems.torus_two_control(32)).step_stack(1e-4)
    product = generator._stack_product(stack)
    f = np.linspace(1.0, 2.0, 32)
    want = stack @ f

    def no_matmul(self, other):
        raise AssertionError("the product dispatched to @")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(stack), "__matmul__", no_matmul)
        got = product(f)
    assert np.array_equal(got, want)
