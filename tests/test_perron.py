"""Perron pair and Collatz-Weilandt functionals against dense oracles."""

import importlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from nisio import build_generator, cw_lower, cw_upper, is_irreducible, perron
from nisio import problems
from nisio.perron import noda
from nisio.errors import (
    NoConvergence,
    NonPositiveInput,
    NotIrreducible,
    ValidationError,
    ZeroVector,
)

from conftest import mixed_torus, random_irreducible, reference_noda, same_bytes


# the module; ``nisio.perron`` is the function of that name
perron_module = importlib.import_module("nisio.perron")


def dense_perron_value(q):
    """Oracle: largest real part of the dense eigendecomposition."""
    return float(np.max(np.linalg.eigvals(q).real))


def test_constant_row_sums():
    lam, x = perron([[1.0, 1.0], [1.0, 1.0]])
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(x, [1.0, 1.0])


def test_periodic_matrix_needs_shift():
    q = np.array([[0.0, 2.0], [2.0, 0.0]])
    lam, _ = perron(q + np.eye(2))
    assert lam == pytest.approx(3.0, abs=1e-12)
    assert lam - 1.0 == pytest.approx(2.0, abs=1e-12)


def test_periodic_asymmetric_via_shift():
    q = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NoConvergence):
        perron(q, max_iters=3000)
    lam, x = perron(q + np.eye(2))
    assert lam - 1.0 == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert lam - 1.0 == pytest.approx(dense_perron_value(q), abs=1e-10)
    # the shifted eigenvector is the eigenvector of q itself
    assert np.max(np.abs(q @ x - np.sqrt(2.0) * x)) < 1e-9


def test_not_irreducible():
    assert not is_irreducible([[1.0, 1.0], [0.0, 1.0]])
    assert is_irreducible([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NotIrreducible):
        perron([[1.0, 1.0], [0.0, 1.0]])


def test_cw_examples():
    q = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert cw_lower(q, [1.0, 1.0]) == 1.0
    assert cw_upper(q, [1.0, 1.0]) == 2.0
    ones = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert cw_lower(ones, [1.0, 0.0]) == 1.0
    assert cw_upper(ones, [1.0, 2.0]) == 3.0


def test_cw_at_perron_vector():
    q = np.array([[1.0, 1.0], [2.0, 1.0]])
    lam, x = perron(q, tol=1e-13)
    assert cw_lower(q, x) == pytest.approx(lam, rel=1e-10)
    assert cw_upper(q, x) == pytest.approx(lam, rel=1e-10)


def test_cw_input_validation():
    q = np.eye(2)
    with pytest.raises(ZeroVector):
        cw_lower(q, [0.0, 0.0])
    with pytest.raises(NonPositiveInput):
        cw_lower(q, [-1.0, 1.0])
    with pytest.raises(NonPositiveInput):
        cw_upper(q, [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cw_rejects_non_finite_x(bad):
    q = np.array([[1.0, 1.0], [2.0, 1.0]])
    for functional in (cw_lower, cw_upper):
        with pytest.raises(ValidationError, match="non-finite"):
            functional(q, [bad, 1.0])


@pytest.mark.parametrize("x", [np.ones(3), np.ones(5), np.ones((4, 1)),
                               np.ones(()), np.ones((2, 4))],
                         ids=["short", "long", "column", "scalar", "matrix"])
def test_cw_rejects_x_without_one_entry_per_row(x):
    # the product would raise numpy's error, or broadcast, past the checks
    for functional in (cw_lower, cw_upper):
        with pytest.raises(ValidationError) as err:
            functional(np.ones((4, 4)), x)
        assert str(err.value) == f"x must have shape (4,), got {x.shape}"
        assert err.value.field == "x"


def test_cw_scaling_invariance(rng):
    q = random_irreducible(np.random.default_rng(5), 6)
    x = np.random.default_rng(6).uniform(0.1, 2.0, 6)
    for c in (2.0, 0.5, 1024.0):       # power-of-two factors: bit-exact
        assert cw_lower(q, c * x) == cw_lower(q, x)
        assert cw_upper(q, c * x) == cw_upper(q, x)
    assert cw_lower(q, 3.7 * x) == pytest.approx(cw_lower(q, x), rel=1e-13)


def test_oracle_corpus(rng):
    """100 random irreducible matrices: perron vs dense, CW sandwich."""
    r = np.random.default_rng(816)
    for _ in range(100):
        n = int(r.integers(2, 9))
        q = random_irreducible(r, n)
        lam_oracle = dense_perron_value(q)
        lam, x = perron(q, tol=1e-13)
        assert lam == pytest.approx(lam_oracle, rel=1e-8)
        assert np.min(x) > 0 and np.max(x) == 1.0
        assert np.max(np.abs(q @ x - lam * x)) <= 1e-13 * lam * 1.01
        for _ in range(100):
            v = r.uniform(0.01, 1.0, n)
            assert cw_lower(q, v) <= lam_oracle * (1 + 1e-12) + 1e-12
            assert cw_upper(q, v) >= lam_oracle * (1 - 1e-12) - 1e-12


def test_noda_oracle_corpus():
    """Random irreducible Metzler matrices: Noda vs dense, band at rounding."""
    r = np.random.default_rng(1971)
    for _ in range(50):
        n = int(r.integers(2, 12))
        # subtracting a diagonal keeps it Metzler; the root may take either sign
        a = random_irreducible(r, n) - np.diag(r.uniform(0.0, 3.0, n))
        lam_oracle = dense_perron_value(a)
        lam, x = noda(sp.csr_matrix(a))
        assert lam == pytest.approx(lam_oracle, abs=1e-12 * max(1.0, abs(lam_oracle)))
        assert np.min(x) > 0 and np.max(x) == 1.0
        ratios = (a @ x) / x
        assert np.max(ratios) - np.min(ratios) <= 1e-12 * max(1.0, abs(lam_oracle))


def test_noda_rejects_bad_input():
    with pytest.raises(NotIrreducible):
        noda(sp.csr_matrix([[-1.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(ValidationError):
        noda(sp.csr_matrix([[-1.0, -1.0], [1.0, -1.0]]))
    with pytest.raises(NonPositiveInput):
        noda(sp.csr_matrix([[-1.0, 1.0], [1.0, -1.0]]), x0=np.array([1.0, 0.0]))


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_perron_rejects_a_tol_that_is_not_positive(tol):
    with pytest.raises(ValidationError, match="tol"):
        perron(np.array([[1.0, 1.0], [2.0, 1.0]]), tol=tol)


@pytest.mark.parametrize("max_iters", [0, -2, 2.5, np.nan, np.inf, True])
def test_perron_max_iters_is_a_whole_number_at_least_one(max_iters):
    with pytest.raises(ValidationError) as err:
        perron(np.array([[1.0, 1.0], [2.0, 1.0]]), max_iters=max_iters)
    assert err.value.field == "max_iters"


def test_perron_integral_float_max_iters_counts_as_its_int():
    q = np.array([[1.0, 1.0], [2.0, 1.0]])
    lam, x = perron(q, max_iters=500.0)
    want_lam, want_x = perron(q, max_iters=500)
    assert lam == want_lam and same_bytes(x, want_x)
    with pytest.raises(NoConvergence, match="after 2 iterations"):
        perron(np.array([[0.0, 1.0], [4.0, 0.0]]), max_iters=2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_noda_rejects_non_finite_x0(bad):
    a = build_generator(problems.torus_cosine(16)).frozen(0).stack
    x0 = np.ones(16)
    x0[3] = bad
    with pytest.raises(ValidationError, match="x0"):
        noda(a, x0=x0)


# ---------------------------------------------------------------------------
# noda pinned, bit for bit, to the scipy.sparse loop (conftest.reference_noda)
# ---------------------------------------------------------------------------

def non_canonical_csr(rng, n):
    """An irreducible Metzler CSR whose rows hold unsorted entries, split
    duplicates (one part may be negative) and an explicit zero."""
    d = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.5)
    for i in range(n):
        d[i, (i + 1) % n] += 0.3
    coo = sp.coo_matrix(d - np.diag(rng.uniform(0.0, 3.0, n)))
    rows, cols, vals = list(coo.row), list(coo.col), list(coo.data)
    for k in range(len(vals)):
        if rng.uniform() < 0.5:
            part = rng.uniform(-1.0, 2.0) * vals[k]
            rows.append(rows[k])
            cols.append(cols[k])
            vals.append(vals[k] - part)
            vals[k] = part
    rows, cols, vals = rows + [0], cols + [n - 1], vals + [0.0]
    perm = rng.permutation(len(vals))
    rows, cols, vals = (np.asarray(v)[perm] for v in (rows, cols, vals))
    by_row = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    a = sp.csr_matrix((vals[by_row], cols[by_row], indptr), shape=(n, n))
    assert not a.has_canonical_format
    return a


def pin_matrices():
    """(label, matrix): corpus operators, their transposes (CSC), policy
    rows of 2-D mixed stacks (which hold explicit zeros) and non-canonical
    CSR matrices."""
    rng = np.random.default_rng(1971)
    out = []
    specs = [(f"{name}{n}", spec) for n in (16, 33)
             for name, spec in problems.corpus_1d(n).items()]
    specs += [("mixed8", mixed_torus(8, 0.3)), ("mixed9", mixed_torus(9, -0.45))]
    for label, spec in specs:
        gen = build_generator(spec)
        size = gen.size
        policy = rng.integers(0, gen.n_controls, size)
        out.append((f"{label}/policy", gen.stack[policy * size + np.arange(size)]))
        out.append((f"{label}/A0", gen.frozen(0).stack))
        out.append((f"{label}/A0.T", gen.frozen(0).stack.T))
    out += [(f"non_canonical{n}", non_canonical_csr(rng, n)) for n in (3, 7, 12)]
    return out


PIN_MATRICES = pin_matrices()


def starts(n):
    return [None, np.random.default_rng(n).uniform(0.2, 1.0, n)]


def assert_noda_pins_reference(a, x0, tol):
    lam, x = noda(a, x0, tol)
    lam_ref, x_ref, _ = reference_noda(a, x0, tol)
    assert type(lam) is type(lam_ref)
    assert same_bytes(lam, lam_ref)
    assert same_bytes(x, x_ref)


def test_pin_matrices_cover_the_awkward_inputs():
    kinds = {label: a for label, a in PIN_MATRICES}
    assert (kinds["mixed8/policy"].data == 0.0).any()     # explicit zeros
    assert kinds["torus_cosine16/A0.T"].format == "csc"
    assert not kinds["non_canonical7"].has_canonical_format


@pytest.mark.parametrize("tol", [0.0, 1e-10])
@pytest.mark.parametrize("label,a", PIN_MATRICES, ids=[m[0] for m in PIN_MATRICES])
def test_noda_pins_the_spsolve_loop(label, a, tol):
    for x0 in starts(a.shape[0]):
        assert_noda_pins_reference(a, x0, tol)


def test_noda_fallback_without_superlu_driver_pins_the_spsolve_loop(monkeypatch):
    monkeypatch.setattr(perron_module, "_gssv", lambda: None)
    for label, a in PIN_MATRICES[::3]:
        for x0 in starts(a.shape[0]):
            assert_noda_pins_reference(a, x0, 0.0)


def test_noda_calls_superlu_once_per_sweep(monkeypatch):
    gssv = perron_module._gssv()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return gssv(*args, **kwargs)
    monkeypatch.setattr(perron_module, "_gssv", lambda: counting)
    for label, a in PIN_MATRICES:
        for tol in (0.0, 1e-10):
            calls.clear()
            noda(a, tol=tol)
            assert len(calls) == reference_noda(a, tol=tol)[2], label


def test_shifted_system_drops_a_zero_diagonal_like_spsolve():
    from scipy.sparse.linalg import spsolve
    a = build_generator(problems.torus_cosine(16)).frozen(0).stack
    system = perron_module._ShiftedSystem(a)
    b = np.random.default_rng(0).uniform(0.5, 1.0, 16)
    eye = sp.identity(16, format="csr")
    for s in (a[0, 0], a[5, 5], 1.0 + a.diagonal().max()):
        assert same_bytes(system.solve(s, b), spsolve((s * eye - a).tocsc(), b))


def test_noda_first_shift_can_meet_a_diagonal_entry():
    """A subnormal warm start rounds the band below ``a_00`` by exactly the
    four-ulp raise, so the first shift equals ``a_00``."""
    from scipy.sparse.linalg import MatrixRankWarning
    a00 = -(3 + 1.5 * 2.0**-48)
    a = sp.csr_matrix(np.array([[a00, 1e-10, 0.0],
                                [0.0, -100.0, 5e-324],
                                [1.0, 0.0, -100.0]]))
    x0 = np.array([2.0**-1026, 1e-320, 1.0])
    hi = float(np.max((a @ x0) / x0))
    assert hi + 4.0 * np.spacing(abs(hi)) == a00
    with pytest.warns(MatrixRankWarning):
        assert_noda_pins_reference(a, x0, 0.0)


def test_csc_solve_of_a_singular_matrix_warns_and_gives_nan_like_spsolve():
    from scipy.sparse.linalg import MatrixRankWarning, spsolve
    m = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    b = np.ones(2)
    with pytest.warns(MatrixRankWarning, match="singular"):
        y = perron_module._csc_solve(2, m.data, m.indices, m.indptr, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MatrixRankWarning)
        assert same_bytes(y, spsolve(m, b))
    assert np.isnan(y).all()
