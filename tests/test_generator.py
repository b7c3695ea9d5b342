"""Stencil correctness, Metzler structure and consistency orders."""

import numpy as np
import pytest
import scipy.sparse as sp

from nisio import ProblemSpec, Grid, apply_G, argmin_policy, build_generator
from nisio import EvolveOptions, SolveOptions, evolve, solve_evolution
from nisio.errors import (
    DegenerateDiffusion,
    NonFiniteCoefficient,
    ValidationError,
)
from nisio import generator, problems
from nisio.expr import MAX_DEPTH, Bin, Var

from conftest import mixed_torus, same_bytes


def uncontrolled(topology="torus", n=64, sigma="1", b="0", r="0", d=1):
    sig = (sigma,) if d == 1 else (sigma, "0", "0", sigma)
    bb = (b,) if d == 1 else (b, b)
    return build_generator(ProblemSpec(
        grid=Grid(topology, n=n, d=d), controls=[(0.0,)],
        sigma=sig, b=bb, r=r))


def test_torus_laplacian_row():
    gen = uncontrolled(n=64)
    h = gen.grid.h
    A = gen.frozen(0).stack.toarray()
    for i in (0, 5, 63):
        assert A[i, (i - 1) % 64] == 1.0 / (2 * h * h)
        assert A[i, (i + 1) % 64] == 1.0 / (2 * h * h)
        assert A[i, i] == -1.0 / (h * h)


def test_annihilates_constants():
    for gen in (uncontrolled("torus"), uncontrolled("interval"),
                build_generator(problems.torus2d_separable(16))):
        for c in (1.0, 3.0):
            f = np.full(gen.size, c)
            out = apply_G(gen.frozen(0), f) - gen.r_tables[0] * f
            assert np.max(np.abs(out)) <= 1e-12


def test_diffusion_second_order_torus():
    errs = {}
    for n in (64, 128, 256):
        gen = uncontrolled(n=n)
        x = gen.grid.nodes()[:, 0]
        f = np.cos(2 * np.pi * x)
        exact = -0.5 * (2 * np.pi) ** 2 * f      # (1/2) a f'' with a = 1
        r_term = gen.r_tables[0] * f
        errs[n] = np.max(np.abs(apply_G(gen.frozen(0), f) - r_term - exact))
    assert 3.5 < errs[64] / errs[128] < 4.5
    assert 3.5 < errs[128] / errs[256] < 4.5


def test_interval_neumann_second_order():
    errs = {}
    for n in (64, 128, 256):
        gen = uncontrolled("interval", n=n)
        x = gen.grid.nodes()[:, 0]
        f = np.cos(np.pi * x)                    # satisfies f'(0) = f'(1) = 0
        exact = -0.5 * np.pi ** 2 * f
        errs[n] = np.max(np.abs(apply_G(gen.frozen(0), f) - exact))
    assert 3.5 < errs[64] / errs[128] < 4.6
    assert 3.5 < errs[128] / errs[256] < 4.6


def test_upwind_drift_on_linear_function():
    gen = build_generator(ProblemSpec(
        grid=Grid("interval", n=64), controls=[(0.0,)],
        sigma=("0.1",), b=("1",), r="0"))
    x = gen.grid.nodes()[:, 0]
    out = apply_G(gen.frozen(0), x.copy())
    # forward difference of a linear function is exact; diffusion term vanishes
    assert np.max(np.abs(out[1:-1] - 1.0)) < 1e-9


def test_metzler_and_row_sums():
    for spec in problems.corpus_1d(64).values():
        gen = build_generator(spec)
        for A, r in zip((gen.frozen(v).stack for v in range(gen.n_controls)), gen.r_tables):
            off = A - sp.diags(A.diagonal())
            assert off.min() >= 0.0                      # exact Metzler
            rowsum = np.asarray(A.sum(axis=1)).ravel()
            assert np.max(np.abs(rowsum - r)) <= 1e-12


def test_apply_G_examples():
    # single control: envelope degenerates to the linear operator
    gen = uncontrolled()
    f = np.random.default_rng(0).uniform(0.1, 1.0, gen.size)
    assert np.array_equal(apply_G(gen, f), apply_G(gen.frozen(0), f))

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
            assert np.all(gf <= apply_G(gen.frozen(v), f))     # exact


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
    stacked = np.stack([apply_G(gen3.frozen(v), f) for v in range(2)])
    chosen = stacked[pol, np.arange(gen3.size)]
    assert np.array_equal(chosen, apply_G(gen3, f))


def same_csr(a, b):
    return all(same_bytes(getattr(a, k), getattr(b, k))
               for k in ("data", "indices", "indptr"))


@pytest.mark.parametrize("spec", [problems.torus_two_control(16),
                                  mixed_torus(8, 0.3)],
                         ids=["torus_two_control16", "mixed8"])
def test_frozen_policy_gathers_rows_of_the_stack(spec):
    gen = build_generator(spec).with_sense(generator.MAXIMIZE)
    n = gen.size
    for v in range(gen.n_controls):
        frozen = gen.frozen(v)
        assert frozen.n_controls == 1
        assert same_csr(frozen.stack, gen.stack[v * n:(v + 1) * n])
        assert same_bytes(frozen.r_tables, gen.r_tables[v:v + 1])
        assert (frozen.dt_max, frozen.sense) == (gen.dt_max, gen.sense)
    policy = np.random.default_rng(6).integers(0, gen.n_controls, n)
    frozen = gen.frozen(policy)
    for x in range(n):
        row = gen.stack[policy[x] * n + x]
        assert same_bytes(frozen.stack[x].data, row.data)
        assert same_bytes(frozen.stack[x].indices, row.indices)
        assert frozen.r_tables[0, x] == gen.r_tables[policy[x], x]


def test_frozen_generator_keeps_its_own_euler_cache():
    gen = build_generator(problems.torus_two_control(16))
    dt = 0.5 * gen.dt_max
    gen.step_stack(dt)
    frozen = gen.frozen(0)
    assert frozen.step_stack(dt).shape == (gen.size, gen.size)
    assert same_csr(frozen.step_stack(dt), gen.step_matrices(dt)[0])


@pytest.mark.parametrize("policy", [1.5, np.nan, np.full(16, 0.5),
                                    np.zeros(3, dtype=int),
                                    np.array([], dtype=int),
                                    np.zeros((2, 16), dtype=int)],
                         ids=["fraction", "nan", "fractions", "short",
                              "empty", "two-dimensional"])
def test_frozen_rejects_a_policy_that_is_not_control_indices(policy):
    gen = build_generator(problems.torus_two_control(16))
    with pytest.raises(ValidationError) as err:
        gen.frozen(policy)
    assert err.value.field == "policy"


def test_frozen_takes_integral_float_indices():
    gen = build_generator(problems.torus_two_control(16))
    for policy in (np.ones(gen.size), 1.0):
        assert same_csr(gen.frozen(policy).stack, gen.frozen(1).stack)


@pytest.mark.parametrize("v", [-1, 2])
def test_out_of_range_control_raises_index_error(v):
    gen = build_generator(problems.torus_two_control(16))
    f = gen.grid.ones()
    opts = EvolveOptions(dt=gen.dt_max, t_final=gen.dt_max)
    policy = np.zeros(gen.size, dtype=int)
    policy[3] = v
    for call in (lambda: gen.frozen(v), lambda: gen.frozen(policy),
                 lambda: apply_G(gen.frozen(v), f),
                 lambda: evolve(gen.frozen(v), f, opts)):
        with pytest.raises(IndexError, match="out of range"):
            call()


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
        errs[n] = np.max(np.abs(apply_G(gen.frozen(0), f) - exact))
        A = gen.frozen(0).stack
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


@pytest.mark.parametrize("kw, field", [
    (dict(n=64.5), "n"), (dict(n=float("nan")), "n"), (dict(n="64"), "n"),
    (dict(n=16, d=1.5), "d"), (dict(n=16, d=True), "d")])
def test_non_integral_grid_sizes_are_rejected(kw, field):
    with pytest.raises(ValidationError) as err:
        Grid("torus", **kw)
    assert err.value.field == field


def test_integral_float_grid_sizes_are_stored_as_int():
    grid = Grid("torus", n=16.0, d=np.float64(2.0))
    assert type(grid.n) is int and type(grid.d) is int
    assert grid == Grid("torus", n=16, d=2)
    assert grid.ones().shape == (256,)


def _left_chain(depth):
    """``x1 + x1 + ... + x1`` built by hand as a left-deep tree ``depth``
    nodes deep."""
    tree = Var("x1")
    for _ in range(depth - 1):
        tree = Bin("+", tree, Var("x1"))
    return tree


@pytest.mark.parametrize("field", ["r", "b", "sigma"])
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1500])
def test_hand_built_tree_past_the_depth_bound_is_rejected(field, depth):
    coefficients = dict(sigma=("1",), b=("0",), r="0")
    chain = _left_chain(depth)
    coefficients[field] = chain if field == "r" else (chain,)
    with pytest.raises(ValidationError, match="nested more than") as err:
        ProblemSpec(grid=Grid("torus", n=16), controls=[(0.0,)],
                    **coefficients)
    assert err.value.field == field


def test_hand_built_tree_at_the_depth_bound_evaluates_like_its_parse():
    source = " + ".join(["x1"] * MAX_DEPTH)
    specs = [ProblemSpec(grid=Grid("torus", n=16), controls=[(0.0,)],
                         sigma=("1",), b=(e,), r=e)
             for e in (_left_chain(MAX_DEPTH), source)]
    nodes = specs[0].grid.nodes()
    assert same_bytes(specs[0].r_at(nodes, (0.0,)),
                      specs[1].r_at(nodes, (0.0,)))
    assert same_bytes(specs[0].b_at(nodes, (0.0,)),
                      specs[1].b_at(nodes, (0.0,)))


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


# ---------------------------------------------------------------------------
# bitwise pins against the per-topology assemblers and gradient that the
# single neighbour-map assembler replaced
# ---------------------------------------------------------------------------

def _reference_assemble_1d(grid, a, b, r, h):
    """The interval/circle assembler as it was before the neighbour map."""
    n = grid.n
    cdiff = a / (2.0 * h * h)
    cplus = cdiff + np.maximum(b, 0.0) / h
    cminus = cdiff + np.maximum(-b, 0.0) / h
    center = r - (cplus + cminus)

    idx = np.arange(n)
    rows = [idx, idx]
    cols = [idx, np.empty(n, dtype=int)]
    vals = [center, cplus]
    if grid.topology == "torus":
        cols[1] = (idx + 1) % n
        rows.append(idx)
        cols.append((idx - 1) % n)
        vals.append(cminus)
    else:
        up = np.minimum(idx + 1, n - 1)
        up[n - 1] = n - 2          # mirror ghost beyond the right endpoint
        cols[1] = up
        down = np.maximum(idx - 1, 0)
        down[0] = 1                # mirror ghost beyond the left endpoint
        rows.append(idx)
        cols.append(down)
        vals.append(cminus)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return A.tocsr()


def _reference_assemble_2d_torus(grid, a, b, r, h):
    """The 2-torus assembler as it was before the neighbour map."""
    n = grid.n
    size = grid.size
    a11, a22, a12 = a[:, 0, 0], a[:, 1, 1], a[:, 0, 1]
    ap = np.abs(a12)
    slack = np.minimum(a11 - ap, a22 - ap)
    if np.min(slack) < 0:
        raise DegenerateDiffusion(
            "mixed derivative too strong for the monotone stencil: "
            f"need |a12| <= min(a11, a22), worst slack {np.min(slack):.3g}")

    h2 = 2.0 * h * h
    c1 = (a11 - ap) / h2
    c2 = (a22 - ap) / h2
    c1p = c1 + np.maximum(b[:, 0], 0.0) / h
    c1m = c1 + np.maximum(-b[:, 0], 0.0) / h
    c2p = c2 + np.maximum(b[:, 1], 0.0) / h
    c2m = c2 + np.maximum(-b[:, 1], 0.0) / h
    cpp = np.maximum(a12, 0.0) / h2
    cpm = np.maximum(-a12, 0.0) / h2
    center = r - (c1p + c1m + c2p + c2m + 2.0 * cpp + 2.0 * cpm)

    i, j = np.divmod(np.arange(size), n)

    def flat(di, dj):
        return ((i + di) % n) * n + (j + dj) % n

    rows, cols, vals = [], [], []

    def add(di, dj, coef):
        rows.append(np.arange(size))
        cols.append(flat(di, dj))
        vals.append(coef)

    add(0, 0, center)
    add(1, 0, c1p)
    add(-1, 0, c1m)
    add(0, 1, c2p)
    add(0, -1, c2m)
    add(1, 1, cpp)
    add(-1, -1, cpp)
    add(1, -1, cpm)
    add(-1, 1, cpm)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size))
    return A.tocsr()


def reference_build(spec):
    """``(stack, dt_max)`` as the per-topology assemblers built them.

    This ``dt_max`` is the coefficient-table estimate
    ``h^2 / (d max|a| + h max|b|_1)``, capped by ``1/max(-diag A_v)``,
    which the stencil's own bound replaced.
    """
    grid = spec.grid
    a, b, r = generator._axis_tables(spec, grid.nodes())
    h = grid.h
    mats = []
    for k in range(spec.n_controls):
        if grid.d == 1:
            mats.append(_reference_assemble_1d(grid, a[:, 0, 0], b[k, :, 0],
                                               r[k], h))
        else:
            mats.append(_reference_assemble_2d_torus(grid, a, b[k], r[k], h))
    amax = float(np.max(np.abs(a)))
    bmax = float(np.max(np.sum(np.abs(b), axis=-1)))
    dt_cap = h * h / (grid.d * amax + h * bmax)
    diag_min = min(float(A.diagonal().min()) for A in mats)
    if diag_min < 0:
        dt_cap = min(dt_cap, 1.0 / (-diag_min))
    return sp.vstack(mats, format="csr"), dt_cap


def reference_centered_gradient(grid, psi):
    """The roll/slice centered gradient before the neighbour map."""
    h = grid.h
    if grid.d == 1:
        g = np.empty_like(psi)
        if grid.topology == "interval":
            g[1:-1] = (psi[2:] - psi[:-2]) / (2 * h)
            g[0] = 0.0
            g[-1] = 0.0
        else:
            g = (np.roll(psi, -1) - np.roll(psi, 1)) / (2 * h)
        return g[:, None]
    f = psi.reshape(grid.n, grid.n)
    g1 = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * h)
    g2 = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2 * h)
    return np.column_stack([g1.ravel(), g2.ravel()])


def stencil_step_bounds(stack, size):
    """``(1/max q_v, 1/max(-diag A_v))`` from the dense blocks of ``stack``.

    ``q_v(x)`` is the off-diagonal row sum of ``A_v``, the jump rate of the
    Markov chain that ``L_v`` generates; the second bound is ``inf`` when
    no diagonal entry is negative.
    """
    rate = decay = 0.0
    for start in range(0, stack.shape[0], size):
        A = stack[start:start + size].toarray()
        diag = np.diag(A)
        rate = max(rate, float((A - np.diag(diag)).sum(axis=1).max()))
        decay = max(decay, float(-diag.min()))
    return 1.0 / rate, (1.0 / decay if decay > 0 else np.inf)


def assert_pins_reference_stencil(spec, seed=0):
    """Stack arrays and the gradient equal the references' bytes, and
    ``dt_max`` is the bound read from the stencil's dense blocks."""
    from nisio.variational import _centered_gradient
    gen = build_generator(spec)
    stack, _ = reference_build(spec)
    for name in ("indptr", "indices", "data"):
        assert same_bytes(getattr(gen.stack, name), getattr(stack, name)), name
    assert gen.stack.shape == stack.shape
    jump_dt, diag_dt = stencil_step_bounds(stack, gen.size)
    if diag_dt < jump_dt * (1 - 1e-13):     # the diagonal clearly binds
        assert same_bytes(gen.dt_max, diag_dt)
    else:   # the row sums are added in another order than the assembler's
        assert gen.dt_max == pytest.approx(min(jump_dt, diag_dt), rel=1e-14)
    rng = np.random.default_rng(seed)
    for psi in (rng.uniform(-3.0, 3.0, gen.size),
                np.log(rng.uniform(0.1, 1.0, gen.size))):
        assert same_bytes(_centered_gradient(gen, psi),
                           reference_centered_gradient(spec.grid, psi))


@pytest.mark.parametrize("n", [8, 16, 33])
def test_assembler_pins_reference_on_corpus_1d(n):
    for name, spec in problems.corpus_1d(n).items():
        assert_pins_reference_stencil(spec, seed=n)


def test_assembler_pins_reference_on_interval_n8():
    for spec in (problems.interval_two_control(8), problems.interval_cosine(8),
                 problems.constant_cost(0.5, n=8, topology="interval")):
        assert_pins_reference_stencil(spec)


@pytest.mark.parametrize("c", [0.0, 0.3, -0.3, 0.45, -0.45])
def test_assembler_pins_reference_on_2d_tori(c):
    assert_pins_reference_stencil(problems.torus2d_separable(12))
    assert_pins_reference_stencil(mixed_torus(10, c), seed=1)
    assert_pins_reference_stencil(mixed_torus(13, c, b=("0", "0")), seed=2)


# ---------------------------------------------------------------------------
# the step bound read from the stencil
# ---------------------------------------------------------------------------

ROUNDING = 16 * np.finfo(float).eps


def dense_euler_steps(gen, dt):
    """Dense ``(I + dt A_v, I + dt L_v)`` for every control, with ``L_v``
    the off-diagonal part of ``A_v`` less its row sums on the diagonal."""
    eye = np.eye(gen.size)
    for A in (gen.frozen(v).stack for v in range(gen.n_controls)):
        A = A.toarray()
        off = A - np.diag(np.diag(A))
        yield eye + dt * A, eye + dt * (off - np.diag(off.sum(axis=1)))


def assert_sharp_step_bound(spec):
    """Every Euler step is nonnegative at ``dt_max`` and one is not a step
    ``1e-9`` longer; ``dt_max`` is never below the coefficient-table
    estimate, and keeps its bits where the diagonal bound that too."""
    gen = build_generator(spec)
    _, table_dt = reference_build(spec)
    assert gen.dt_max >= table_dt
    assert gen.step_stack(gen.dt_max).min() >= 0.0
    for step_a, step_l in dense_euler_steps(gen, gen.dt_max):
        assert step_a.min() >= 0.0
        # the test's row sums may round a few ulps off the assembler's
        assert step_l.min() >= -ROUNDING
    assert min(min(step_a.min(), step_l.min()) for step_a, step_l
               in dense_euler_steps(gen, gen.dt_max * (1 + 1e-9))) < 0.0
    if table_dt == stencil_step_bounds(gen.stack, gen.size)[1]:
        assert same_bytes(gen.dt_max, table_dt)


@pytest.mark.parametrize("n", [8, 16, 33])
def test_step_bound_is_sharp_on_corpus_1d(n):
    for spec in problems.corpus_1d(n).values():
        assert_sharp_step_bound(spec)


@pytest.mark.parametrize("c", [0.0, 0.3, -0.3, 0.45, -0.45])
def test_step_bound_is_sharp_on_2d_tori(c):
    assert_sharp_step_bound(problems.torus2d_separable(12))
    assert_sharp_step_bound(mixed_torus(10, c))
    assert_sharp_step_bound(mixed_torus(13, c, b=("0", "0")))


def test_step_bound_moves_on_one_corpus_problem_and_the_mixed_torus():
    for name, spec in problems.corpus_1d(64).items():
        dt_max = build_generator(spec).dt_max
        _, table_dt = reference_build(spec)
        if name == "torus_variable_sigma":
            assert dt_max > 1.003 * table_dt
        else:
            assert same_bytes(dt_max, table_dt), name
    spec = mixed_torus(16, 0.25)
    assert build_generator(spec).dt_max > 1.2 * reference_build(spec)[1]


def test_longer_step_takes_fewer_iterations():
    spec = mixed_torus(10, 0.3)
    gen = build_generator(spec)
    _, table_dt = reference_build(spec)
    tol = SolveOptions().tol
    new = solve_evolution(gen)
    old = solve_evolution(gen, SolveOptions(dt=0.9 * table_dt))
    assert new.stats.n_iterations < old.stats.n_iterations
    assert new.residual <= tol and old.residual <= tol      # both certified
    assert abs(new.rho - old.rho) <= 2 * tol


def test_dominance_violation_matches_reference_message():
    spec = ProblemSpec(
        grid=Grid("torus", n=16, d=2), controls=[(0.0,)],
        sigma=("1", "0.9", "0.1", "0.5"), b=("0", "0"), r="0")
    with pytest.raises(DegenerateDiffusion) as want:
        reference_build(spec)
    with pytest.raises(DegenerateDiffusion) as got:
        build_generator(spec)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("topology, d", [("torus", 1), ("interval", 1),
                                         ("torus", 2)])
def test_neighbour_map(topology, d):
    grid = Grid(topology, n=8, d=d)
    nodes = np.arange(grid.size)
    assert np.array_equal(grid.neighbour((0,) * d), nodes)
    if topology == "interval":
        # ghost -1 is node 1, ghost n is node n - 2
        assert np.array_equal(grid.neighbour((1,)), [1, 2, 3, 4, 5, 6, 7, 6])
        assert np.array_equal(grid.neighbour((-1,)), [1, 0, 1, 2, 3, 4, 5, 6])
    elif d == 1:
        assert np.array_equal(grid.neighbour((1,)), (nodes + 1) % 8)
        assert np.array_equal(grid.neighbour((-1,)), (nodes - 1) % 8)
    else:
        i, j = np.divmod(nodes, 8)
        for di, dj in [(1, 0), (0, -1), (1, -1), (-1, 1), (-1, -1)]:
            assert np.array_equal(grid.neighbour((di, dj)),
                                  ((i + di) % 8) * 8 + (j + dj) % 8)
    with pytest.raises(ValidationError):
        grid.neighbour((1,) * (d + 1))
