"""Perron pair and Collatz-Weilandt functionals against dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from nisio import cw_lower, cw_upper, is_irreducible, perron
from nisio.perron import noda
from nisio.errors import (
    NoConvergence,
    NonPositiveInput,
    NotIrreducible,
    ValidationError,
    ZeroVector,
)

from conftest import random_irreducible


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
