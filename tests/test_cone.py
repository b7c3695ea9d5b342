"""Cone iteration: bracket functionals, convergence, rate extraction."""

import math

import numpy as np
import pytest

from nisio import (
    OrbitStats,
    alpha_bounds,
    build_generator,
    fit_exponential_rate,
    power_iterate,
    perron,
    problems,
    solve_evolution,
)
from nisio.errors import (
    InsufficientData,
    NoConvergence,
    NonPositiveEta,
    NonPositiveInput,
    NonPositiveIterate,
    ValidationError,
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


def test_alpha_bounds_names_a_shape_mismatch():
    with pytest.raises(ValidationError) as err:
        alpha_bounds(np.ones(2), np.ones(3))
    assert str(err.value) == "reference must have shape (2,), got (3,)"
    assert not isinstance(err.value, NonPositiveInput)
    with pytest.raises(NonPositiveInput, match="strictly positive"):
        alpha_bounds(np.ones(3), np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_alpha_bounds_rejects_non_finite_input(bad):
    ones, broken = np.ones(3), np.array([1.0, bad, 1.0])
    for f, reference in ((broken, ones), (ones, broken)):
        with pytest.raises(ValidationError, match="non-finite"):
            alpha_bounds(f, reference)


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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_power_iterate_rejects_a_tol_that_is_not_positive(tol):
    with pytest.raises(NonPositiveInput, match="tol"):
        power_iterate(lambda g: g, np.ones(2), tol=tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_start_with_a_non_finite_value_is_rejected_before_iterating(bad):
    from nisio.cone import _lockstep_iterate
    calls = []

    def map_fn(g):
        calls.append(1)
        return 2.0 * g
    f0 = np.array([1.0, bad, 0.5])
    with pytest.raises(ValidationError, match="non-finite"):
        power_iterate(map_fn, f0, max_iters=50)
    with pytest.raises(ValidationError, match="non-finite"):
        _lockstep_iterate([map_fn] * 2, _row_by_row([map_fn] * 2), f0,
                          max_iters=50)
    assert not calls


@pytest.mark.parametrize("max_iters", [math.nan, math.inf, 2.5, True],
                         ids=["nan", "inf", "fraction", "bool"])
def test_max_iters_that_is_not_a_whole_number_is_rejected(max_iters):
    # before the map is called, through both entry points: no iteration
    # count equals a NaN, so the loop would run on a map that never closes
    from nisio.cone import _lockstep_iterate
    calls = []
    w = np.array([1.0, 1.5, 2.0])

    def map_fn(g):
        calls.append(1)
        return w * g
    with pytest.raises(ValidationError, match="whole number"):
        power_iterate(map_fn, np.ones(3), max_iters=max_iters)
    with pytest.raises(ValidationError, match="whole number"):
        _lockstep_iterate([map_fn] * 2, _row_by_row([map_fn] * 2), np.ones(3),
                          max_iters=max_iters)
    assert not calls


def test_max_iters_below_one_is_not_positive():
    for max_iters in (0, -3, 0.0):
        with pytest.raises(NonPositiveInput, match="max_iters must be >= 1"):
            power_iterate(lambda g: g, np.ones(2), max_iters=max_iters)


def test_integral_float_max_iters_counts_as_its_int():
    q = _growth_1e3_matrix(7)
    with pytest.raises(NoConvergence, match="within 3 iterations") as err:
        power_iterate(lambda g: q @ g, np.ones(len(q)), max_iters=3.0)
    assert err.value.best[2].n_iterations == 3


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
    pair = solve_evolution(cosine_gen, SolveOptions(tol=1e-6))
    assert pair.stats.zeta1 >= 1.0
    assert pair.stats.p1_min is not None and pair.stats.p1_min > 0


# ---------------------------------------------------------------------------
# bitwise pin: the gated loop against the plain N-log loop
# ---------------------------------------------------------------------------

def _reference_power_iterate(map_fn, f0, tol=1e-12, max_iters=1_000_000):
    """The plain loop: N logs per iteration, a copy of every record."""
    g = np.asarray(f0, dtype=float).copy()
    if np.min(g) <= 0:
        raise NonPositiveInput("starting function must be strictly positive")
    if tol <= 0:
        raise NonPositiveInput("tol must be positive")
    if max_iters < 1:
        raise NonPositiveInput("max_iters must be >= 1")
    g = g / np.max(g)

    rec_k, rec_g, rec_rho, rec_norm = [], [], [], []
    stride = 1
    log_factors = []
    cumlog = [0.0]
    converged = False

    k = 0
    while k < max_iters:
        y = map_fn(g)
        y = np.asarray(y, dtype=float)
        if np.min(y) <= 0:
            raise NonPositiveIterate(
                "map produced a non-positive value from a positive iterate")
        ratios = y / g
        log_r = np.log(ratios)
        osc = float(np.max(log_r) - np.min(log_r))
        s = float(np.max(y))

        if k % stride == 0:
            rec_k.append(k)
            rec_g.append(g.copy())
            rec_rho.append(float(np.max(ratios)))
            rec_norm.append(s)
            if len(rec_k) > 4096:
                rec_k = rec_k[::2]
                rec_g = rec_g[::2]
                rec_rho = rec_rho[::2]
                rec_norm = rec_norm[::2]
                stride *= 2

        log_factors.append(math.log(s))
        cumlog.append(cumlog[-1] + log_factors[-1])
        g = y / s
        k += 1
        if osc < tol:
            converged = True
            break

    tail = log_factors[-max(1, len(log_factors) // 4):]
    growth = math.exp(sum(tail) / len(tail))

    ref = g
    log_growth = math.log(growth)
    under = np.empty(len(rec_k))
    over = np.empty(len(rec_k))
    for idx, (kk, gk) in enumerate(zip(rec_k, rec_g)):
        lo, hi = alpha_bounds(gk, ref)
        scale = math.exp(cumlog[kk] - kk * log_growth)
        under[idx] = scale * lo
        over[idx] = scale * hi

    p1_min = math.inf
    for gk in rec_g:
        z = np.minimum(gk, ref)
        value = float(np.max(np.abs(map_fn(ref - z))) + np.max(map_fn(z)))
        p1_min = min(p1_min, value)
    stats = OrbitStats(
        iterations=np.array(rec_k, dtype=int),
        under_alpha=under,
        over_alpha=over,
        eta=over - under,
        rho_estimate=np.array(rec_rho),
        sup_norm=np.array(rec_norm),
        n_iterations=k,
        converged=converged,
        zeta1=float(np.max(ref) / np.min(ref)),
        p1_min=p1_min,
    )
    if not converged:
        raise NoConvergence(
            f"power iteration did not close the ratio band within {max_iters} "
            f"iterations (last oscillation {osc:.3g})",
            best=(growth, ref, stats))
    return growth, ref, stats


def assert_same_orbit(a, b):
    """Growth, fixed point and every OrbitStats field equal to the bit."""
    (growth_a, ref_a, st_a), (growth_b, ref_b, st_b) = a, b
    assert growth_a.hex() == growth_b.hex()
    assert_same_array(ref_a, ref_b)
    assert_same_stats(st_a, st_b)


def assert_same_array(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert np.array_equal(x.view(np.uint8), y.view(np.uint8))


def assert_same_stats(st_a, st_b):
    for name in ("iterations", "under_alpha", "over_alpha", "eta",
                 "rho_estimate", "sup_norm"):
        assert_same_array(getattr(st_a, name), getattr(st_b, name))
    assert st_a.n_iterations == st_b.n_iterations
    assert st_a.converged == st_b.converged
    assert st_a.zeta1.hex() == st_b.zeta1.hex()
    assert st_a.p1_min.hex() == st_b.p1_min.hex()


def assert_same_pair(a, b):
    """Two eigenpairs equal to the bit, stats included."""
    assert a.rho.hex() == b.rho.hex() and a.residual.hex() == b.residual.hex()
    assert_same_array(a.phi, b.phi)
    assert_same_array(a.policy, b.policy)
    assert (a.method, a.sense) == (b.method, b.sense)
    assert_same_stats(a.stats, b.stats)


def assert_same_run(map_fn, f0, **kw):
    """Run both loops; equal results, or equal NoConvergence with equal best."""
    try:
        expected = _reference_power_iterate(map_fn, f0, **kw)
    except NoConvergence as exc:
        with pytest.raises(NoConvergence) as got:
            power_iterate(map_fn, f0, **kw)
        assert str(got.value) == str(exc)
        assert_same_orbit(got.value.best, exc.best)
        return got.value
    assert_same_orbit(power_iterate(map_fn, f0, **kw), expected)
    return expected


def test_gated_loop_pins_euler_steps_both_senses():
    for name, spec in problems.corpus_1d(32).items():
        base = build_generator(spec)
        for sense in ("minimize", "maximize"):
            gen = base.with_sense(sense)
            dt = 0.9 * gen.dt_max
            growth, _, stats = assert_same_run(
                lambda g: step(gen, g, dt), gen.grid.ones(), tol=1e-8 * dt)
            assert stats.converged, (name, sense)


def test_gated_loop_pins_thinned_records(corpus):
    # the solver's tolerance: over 4097 iterations, so the records thin
    _, gen = corpus["torus_cosine_drift"]
    dt = 0.9 * gen.dt_max
    _, _, stats = assert_same_run(lambda g: step(gen, g, dt),
                                  gen.grid.ones(), tol=0.5e-9 * dt)
    assert stats.n_iterations > 4097 and len(stats.iterations) <= 4097


def _growth_1e3_matrix(seed, n=12):
    q = random_irreducible(np.random.default_rng(seed), n)
    lam, _ = perron(q, tol=1e-13)
    return q * (1e3 / lam)


def _band_floor(q, iters=400):
    """Smallest log-ratio band of the plain iteration on ``q``."""
    g = np.ones(len(q))
    floor = math.inf
    for _ in range(iters):
        y = q @ g
        log_r = np.log(y / g)
        floor = min(floor, float(np.max(log_r) - np.min(log_r)))
        g = y / np.max(y)
    return floor


def test_gated_loop_pins_matrix_near_rounding_floor():
    # growth ~1e3: the logs are ~6.9, so their rounding is far above eps
    # and the gate's |log hi| + |log lo| margin decides; tol a few ulps
    # above the band's floor stops at an iteration set by rounding alone
    for seed in range(4):
        q = _growth_1e3_matrix(seed)
        floor = _band_floor(q)
        ulp = math.ulp(math.log(1e3))
        for j in range(1, 6):
            tol = floor + j * ulp
            growth, _, stats = assert_same_run(
                lambda g: q @ g, np.ones(len(q)), tol=tol, max_iters=2000)
            assert stats.converged
            assert growth == pytest.approx(1e3, rel=1e-9)


def test_gated_loop_pins_where_logs_disagree():
    # ratios whose least one numpy's log rounds above math.log: the band
    # of numpy logs can be an ulp narrower than math.log's, and tol
    # between the two stops the plain loop at once; a gate without margin
    # would not
    rng = np.random.default_rng(17)
    for growth in (1.001, 1e3):
        x = growth * (1.0 + rng.uniform(-1e-2, 1e-2, 100000))
        above = x[np.log(x) > np.array([math.log(v) for v in x])]
        for lo in above[:5]:
            ratios = np.array([lo, lo * (1.0 + 1e-12), lo, lo * (1.0 + 2e-12)])
            log_r = np.log(ratios)
            tol = np.nextafter(log_r.max() - log_r.min(), np.inf)
            _, _, stats = assert_same_run(lambda g: ratios * g, np.ones(4),
                                          tol=tol, max_iters=50)
            assert stats.n_iterations == 1


def test_one_orbit_pins_maps_that_return_other_than_float64_arrays():
    # a Python list and a float32 array go through np.asarray; a buffer
    # that the next call overwrites is read before that call
    q = _growth_1e3_matrix(5)
    buffer = np.empty(len(q))

    def into_buffer(g):
        np.matmul(q, g, out=buffer)
        return buffer
    maps = {"list": lambda g: (q @ g).tolist(),
            "float32": lambda g: (q @ g).astype(np.float32),
            "buffer": into_buffer}
    for name, map_fn in maps.items():
        _, _, stats = assert_same_run(map_fn, np.ones(len(q)), tol=1e-6,
                                      max_iters=2000)
        assert stats.converged, name


def test_gated_loop_pins_p1_min(cosine_gen):
    dt = 0.9 * cosine_gen.dt_max
    _, _, stats = assert_same_run(lambda g: step(cosine_gen, g, dt),
                                  cosine_gen.grid.ones(), tol=1e-6 * dt)
    assert stats.p1_min > 0


def test_max_iters_exhaustion_reports_final_oscillation():
    # stopped with the band still wide (the gate skips the log test), and
    # with tol below the rounding floor after enough iterations to thin
    # the records twice
    q = _growth_1e3_matrix(7)
    for tol, max_iters in ((1e-12, 3), (1e-300, 9000)):
        err = assert_same_run(lambda g: q @ g, np.ones(len(q)), tol=tol,
                              max_iters=max_iters)
        _, _, stats = err.best
        assert not stats.converged and stats.n_iterations == max_iters
        assert len(stats.iterations) <= 4097
        last = float(str(err).rsplit("oscillation ", 1)[1].rstrip(")"))
        assert math.isfinite(last) and last >= 0.0


def _record_cap(n, max_iters):
    """Records kept after ``max_iters`` steps of a map that never converges."""
    w = 1.0 + 1e-3 * np.linspace(0.0, 1.0, n)      # band log(1.001) > tol
    with pytest.raises(NoConvergence) as err:
        power_iterate(lambda g: g * w, np.ones(n), max_iters=max_iters)
    return len(err.value.best[2].iterations)


def test_record_count_cap_binds_up_to_1024_nodes():
    # N = 1023: 4096 records fit the byte budget, and the 4097th thins them
    assert _record_cap(1023, 4096) == 4096
    assert _record_cap(1023, 4097) == 2049
    # N = 1025: the byte budget, 32 MiB // (8 N) = 4092 records, binds
    assert _record_cap(1025, 4096) == 2048


def test_record_bytes_bound_on_2d_torus(monkeypatch):
    # one Euler step per iteration, so that the run (5904 iterations)
    # outgrows the byte cap of 1820 records
    import nisio.cone as cone
    from nisio import eigensolver
    monkeypatch.setattr(eigensolver, "_EULER_STEPS", 1)
    gen = build_generator(problems.torus2d_separable(48))
    n = gen.size
    pair = solve_evolution(gen)
    records = len(pair.stats.iterations)
    assert records * 8 * n <= cone._RECORD_BYTES + 8 * n
    monkeypatch.setattr(cone, "_RECORD_BYTES", 2 ** 62)    # no byte cap
    free = solve_evolution(gen)
    assert len(free.stats.iterations) > records
    assert pair.rho.hex() == free.rho.hex()
    assert_same_array(pair.phi, free.phi)
    assert_same_array(pair.policy, free.policy)
    assert pair.stats.n_iterations == free.stats.n_iterations


# ---------------------------------------------------------------------------
# the bracket is replayed on demand, not stored
# ---------------------------------------------------------------------------

def test_solve_allocates_no_orbit_records():
    # n = 64: 1313 iterations, above the byte cap of 1024 records
    import tracemalloc
    gen = build_generator(problems.torus2d_separable(64))
    tracemalloc.start()
    try:
        pair = solve_evolution(gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.stats.n_iterations > len(pair.stats.iterations)
    assert peak <= 4 * 2 ** 20


def test_long_run_keeps_only_the_averaged_tail_of_log_norms():
    # 10**5 iterations of a swap that never closes the band: the log sup
    # norms before the last quarter, which growth never reads, are dropped
    import tracemalloc
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    tracemalloc.start()
    try:
        with pytest.raises(NoConvergence) as err:
            power_iterate(lambda g: swap @ g, np.array([1.0, 2.0]),
                          max_iters=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.best[2].n_iterations == 100_000
    # about 850 kB if every log sup norm were kept
    assert peak <= 500_000


def test_replayed_bracket_pins_byte_capped_records():
    # N = 2304: the byte rule, not the count, sets the cap, and the records
    # thin; a plain loop that keeps the recorded iterates gives the bracket
    import nisio.cone as cone
    from nisio.generator import _envelope_map
    gen = build_generator(problems.torus2d_separable(48))
    dt = 0.9 * gen.dt_max                   # the solver's step and tolerance
    envelope = _envelope_map(gen.step_stack(dt), gen.size, (gen.sense,))

    def one_step(g):
        return envelope(g[None])[0]
    growth, fp, stats = power_iterate(one_step, gen.grid.ones(), tol=0.5e-9 * dt)
    cap = cone._RECORD_BYTES // (8 * gen.size)
    assert cap < cone._MAX_RECORDS
    assert stats.n_iterations > cap >= len(stats.iterations)

    wanted = set(stats.iterations.tolist())
    kept, cumlog = {}, {}
    g, cum = gen.grid.ones(), 0.0
    for k in range(stats.n_iterations):
        if k in wanted:
            kept[k], cumlog[k] = g.copy(), cum
        y = one_step(g)
        s = float(np.max(y))
        cum += math.log(s)
        g = y / s
    assert_same_array(g, fp)
    under, over = [], []
    for k in stats.iterations.tolist():
        lo, hi = alpha_bounds(kept[k], fp)
        scale = math.exp(cumlog[k] - k * math.log(growth))
        under.append(scale * lo)
        over.append(scale * hi)
    under, over = np.array(under), np.array(over)
    assert_same_array(stats.under_alpha, under)
    assert_same_array(stats.over_alpha, over)
    assert_same_array(stats.eta, over - under)


def _counted(map_fn):
    calls = [0]

    def counted(g):
        calls[0] += 1
        return map_fn(g)
    return counted, calls


REPLAYED = ("under_alpha", "over_alpha", "eta", "rho_estimate", "sup_norm",
            "p1_min")


@pytest.mark.parametrize("first", REPLAYED)
def test_bracket_replays_the_map_once_on_demand(cosine_gen, first):
    dt = 0.9 * cosine_gen.dt_max
    counted, calls = _counted(lambda g: step(cosine_gen, g, dt))
    _, _, stats = power_iterate(counted, cosine_gen.grid.ones(),
                                tol=1e-6 * dt)
    n = stats.n_iterations
    assert calls[0] == n
    for name in ("n_iterations", "iterations", "converged", "zeta1"):
        getattr(stats, name)
    assert calls[0] == n
    replay = n + 2 * len(stats.iterations)
    getattr(stats, first)
    assert calls[0] == n + replay
    for name in REPLAYED:
        getattr(stats, name)
    assert calls[0] == n + replay
    assert stats.eta[-1] >= 0.0 and stats.p1_min > 0


def test_bracket_replay_rejects_a_drifting_map():
    from nisio.errors import NonDeterministicMap, NumericalError
    q = random_irreducible(np.random.default_rng(3), 8)
    drift = [False]

    def drifting(g):
        y = q @ g
        if drift[0]:
            y[0] = np.nextafter(y[0], np.inf)
        return y
    growth, _, stats = power_iterate(drifting, np.ones(8), tol=1e-12)
    drift[0] = True
    assert stats.n_iterations > 1 and stats.zeta1 >= 1.0
    with pytest.raises(NonDeterministicMap, match="not deterministic") as err:
        stats.eta
    assert isinstance(err.value, NumericalError)


def test_concurrent_first_reads_replay_once(cosine_gen):
    import sys
    import threading
    dt = 0.9 * cosine_gen.dt_max
    counted, calls = _counted(lambda g: step(cosine_gen, g, dt))
    _, _, stats = power_iterate(counted, cosine_gen.grid.ones(), tol=1e-6 * dt)
    n = calls[0]
    results = []
    threads = [threading.Thread(target=lambda: results.append(stats.eta))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls[0] == 2 * n + 2 * len(stats.iterations) and len(results) == 4
    assert all(r is results[0] for r in results)


# ---------------------------------------------------------------------------
# the lockstep loop against the plain N-log loop, orbit by orbit
# ---------------------------------------------------------------------------

def _row_by_row(map_fns):
    """The ``batch_for`` of :func:`_lockstep_iterate` that calls each
    orbit's map on its row."""
    def batch_for(orbits):
        return lambda g: np.stack([map_fns[i](row)
                                   for i, row in zip(orbits, g)])
    return batch_for


def _reference_outcome(map_fn, f0, **kw):
    try:
        return _reference_power_iterate(map_fn, f0, **kw)
    except (NoConvergence, NonPositiveIterate) as exc:
        return exc


def assert_lockstep_runs(map_fns, f0, **kw):
    """Each lockstep outcome is the plain loop's on its map, or ``None``
    for an orbit that a failed one before it ended."""
    from nisio.cone import _lockstep_iterate
    got = _lockstep_iterate(map_fns, _row_by_row(map_fns), f0, **kw)
    assert len(got) == len(map_fns)
    for i, (map_fn, outcome) in enumerate(zip(map_fns, got)):
        if outcome is None:
            assert any(isinstance(e, Exception) for e in got[:i])
            continue
        want = _reference_outcome(map_fn, f0, **kw)
        assert type(outcome) is type(want)
        if not isinstance(want, Exception):
            assert_same_orbit(outcome, want)
            continue
        assert str(outcome) == str(want)
        if isinstance(want, NoConvergence):
            assert_same_orbit(outcome.best, want.best)
    return got


def test_lockstep_pins_orbits_that_stop_at_different_iterations():
    # three matrices near their rounding floors: the orbits close at
    # different iterations, and the batch shrinks twice
    qs = [_growth_1e3_matrix(seed) for seed in range(3)]
    tol = max(_band_floor(q) for q in qs) + 4 * math.ulp(math.log(1e3))
    got = assert_lockstep_runs([lambda g, q=q: q @ g for q in qs],
                               np.ones(12), tol=tol, max_iters=2000)
    stops = [stats.n_iterations for _, _, stats in got]
    assert len(set(stops)) == 3, stops


def test_lockstep_pins_euler_steps_of_both_senses(corpus):
    for name in ("torus_two_control", "interval_two_control"):
        _, gen = corpus[name]
        dt = 0.9 * gen.dt_max
        steps = [lambda g, view=gen.with_sense(sense): step(view, g, dt)
                 for sense in ("maximize", "minimize")]
        got = assert_lockstep_runs(steps, gen.grid.ones(), tol=1e-8 * dt)
        assert got[0][2].n_iterations != got[1][2].n_iterations


def test_lockstep_max_iters_exhaustion_keeps_each_best():
    # 9000 iterations: the log sup norms are dropped in blocks on the way
    qs = [_growth_1e3_matrix(seed) for seed in (7, 13)]
    for tol, max_iters in ((1e-12, 3), (1e-300, 9000)):
        got = assert_lockstep_runs([lambda g, q=q: q @ g for q in qs],
                                   np.ones(12), tol=tol, max_iters=max_iters)
        for err in got:
            assert isinstance(err, NoConvergence)
            assert err.best[2].n_iterations == max_iters


def test_lockstep_failed_orbit_ends_the_orbits_after_it():
    q = _growth_1e3_matrix(1)
    zero = np.zeros((12, 12))
    late = np.ones((12, 12))
    late[3] = 0.0                   # a zero row: y has a zero from the start
    good = lambda g: q @ g          # noqa: E731
    got = assert_lockstep_runs([good, lambda g: zero @ g, good], np.ones(12),
                               tol=1e-9)
    assert isinstance(got[1], NonPositiveIterate) and got[2] is None
    got = assert_lockstep_runs([lambda g: late @ g, good], np.ones(12),
                               tol=1e-9)
    assert isinstance(got[0], NonPositiveIterate) and got[1] is None
    # the orbit before a failed one runs on to its own end
    got = assert_lockstep_runs([good, lambda g: late @ g], np.ones(12),
                               tol=1e-9)
    assert got[0][2].converged and got[0][2].n_iterations > 1


def test_lockstep_long_run_keeps_only_the_averaged_tail_of_log_norms():
    import tracemalloc
    from nisio.cone import _lockstep_iterate
    factors = np.array([[1.0], [2.0]])
    swaps = [lambda g, c=c: c * g[::-1] for c in factors[:, 0]]

    def batch_for(orbits):
        return lambda g: factors[orbits] * g[:, ::-1]
    tracemalloc.start()
    try:
        got = _lockstep_iterate(swaps, batch_for, np.array([1.0, 2.0]),
                                max_iters=40_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [err.best[2].n_iterations for err in got] == [40_000] * 2
    # about 700 kB if every log sup norm were kept
    assert peak <= 400_000
