"""One message, one class and one ``field`` per input rule.

Every entry point that checks a positive, nonnegative or finite array, a
positive and finite scalar, or a whole number's least value, raises the
error of its ``nisio.grid`` helper: the exact message, the exact class,
and ``field`` where the input is a named field.
"""

import types

import numpy as np
import pytest
import scipy.sparse as sp

from nisio import (EvolveOptions, Grid, McSettings, ProblemSpec, SolveOptions,
                   alpha_bounds, build_generator, cw_bounds, cw_lower,
                   cw_search, cw_upper, dv_rate, generator_limit_check,
                   hji_residual, perron, power_iterate, problems)
from nisio.cone import _orbit_result
from nisio.errors import NonPositiveInput, ValidationError
from nisio.perron import noda

N = 16
ONES = np.ones(N)
Q = np.array([[1.0, 1.0], [2.0, 1.0]])
METZLER = sp.csr_matrix([[-1.0, 1.0], [1.0, -1.0]])


def _with(value):
    """``ONES`` with ``value`` at node 3."""
    f = ONES.copy()
    f[3] = value
    return f


def _nu(value):
    nu = np.full(N, 1.0 / N)
    nu[3] = value
    return nu


@pytest.fixture(scope="module")
def gen():
    return build_generator(problems.torus_cosine(N))


POSITIVE = "must be strictly positive"
NONNEGATIVE = "must be nonnegative"
FINITE = "contains non-finite values"
SCALAR = "must be positive and finite"

CASES = {
    # strictly positive arrays
    "alpha_bounds-reference": (
        lambda g: alpha_bounds(ONES, _with(0.0)),
        NonPositiveInput, f"reference {POSITIVE}", None),
    "power_iterate-start": (
        lambda g: power_iterate(lambda f: f, _with(0.0)),
        NonPositiveInput, f"starting function {POSITIVE}", None),
    "orbit_result-reference": (
        lambda g: _orbit_result(None, ONES, _with(0.0), 1, [0.0], True,
                                None, 1),
        NonPositiveInput, f"reference {POSITIVE}", None),
    "cw_bounds-f": (
        lambda g: cw_bounds(g, _with(0.0)),
        NonPositiveInput, f"f {POSITIVE}", None),
    "cw_search-f0": (
        lambda g: cw_search(g, iters=1, f0=_with(-1.0)),
        NonPositiveInput, f"starting function {POSITIVE}", None),
    "hji_residual-phi": (
        lambda g: hji_residual(g, types.SimpleNamespace(phi=_with(0.0),
                                                        rho=0.0)),
        NonPositiveInput, f"phi {POSITIVE}", None),
    "cw_upper-x": (
        lambda g: cw_upper(Q, [1.0, 0.0]),
        NonPositiveInput, f"x {POSITIVE}", None),
    "noda-x0": (
        lambda g: noda(METZLER, x0=np.array([1.0, 0.0])),
        NonPositiveInput, f"x0 {POSITIVE}", None),
    "generator_limit_check-f": (
        lambda g: generator_limit_check(g, _with(0.0), [0.1]),
        NonPositiveInput, f"grid function {POSITIVE}", None),
    # nonnegative arrays
    "alpha_bounds-f": (
        lambda g: alpha_bounds(_with(-1.0), ONES),
        NonPositiveInput, f"f {NONNEGATIVE}", None),
    "dv_rate-nu": (
        lambda g: dv_rate(g, _nu(-0.5)),
        NonPositiveInput, f"nu {NONNEGATIVE}", None),
    "cw_lower-x": (
        lambda g: cw_lower(Q, [1.0, -1.0]),
        NonPositiveInput, f"x {NONNEGATIVE}", None),
    "check_matrix": (
        lambda g: perron([[1.0, -1.0], [1.0, 1.0]]),
        NonPositiveInput, f"matrix {NONNEGATIVE}", None),
    "noda-off-diagonal": (
        lambda g: noda(sp.csr_matrix([[-1.0, -1.0], [1.0, -1.0]])),
        NonPositiveInput, f"matrix off the diagonal {NONNEGATIVE}", None),
    # finite arrays and scalars
    "as_grid_function": (
        lambda g: cw_bounds(g, _with(np.nan)),
        ValidationError, f"grid function {FINITE}", None),
    "alpha_bounds-f-finite": (
        lambda g: alpha_bounds(_with(np.inf), ONES),
        ValidationError, f"f {FINITE}", None),
    "alpha_bounds-reference-finite": (
        lambda g: alpha_bounds(ONES, _with(np.nan)),
        ValidationError, f"reference {FINITE}", None),
    "power_iterate-start-finite": (
        lambda g: power_iterate(lambda f: f, _with(np.nan)),
        ValidationError, f"starting function {FINITE}", None),
    "check_vector": (
        lambda g: cw_upper(Q, [np.inf, 1.0]),
        ValidationError, f"x {FINITE}", None),
    "check_matrix-finite": (
        lambda g: perron([[1.0, np.nan], [1.0, 1.0]]),
        ValidationError, f"matrix {FINITE}", None),
    "noda-matrix": (
        lambda g: noda(sp.csr_matrix([[-1.0, np.inf], [1.0, -1.0]])),
        ValidationError, f"matrix {FINITE}", None),
    "noda-x0-finite": (
        lambda g: noda(METZLER, x0=np.array([1.0, np.nan])),
        ValidationError, f"x0 {FINITE}", None),
    "SolveOptions-f0": (
        lambda g: SolveOptions(f0=_with(np.inf)),
        ValidationError, f"f0 {FINITE}", "f0"),
    "dv_rate-nu-finite": (
        lambda g: dv_rate(g, _nu(np.nan)),
        ValidationError, f"nu {FINITE}", None),
    "McSettings-x0": (
        lambda g: McSettings(x0=(np.nan,)),
        ValidationError, f"x0 {FINITE}", "x0"),
    "ProblemSpec-controls": (
        lambda g: ProblemSpec(grid=Grid("torus", n=N), controls=[(np.inf,)],
                              sigma=("1",), b=("v1",), r="0"),
        ValidationError, f"control set {FINITE}", "controls"),
    # positive and finite scalars
    "SolveOptions-tol": (
        lambda g: SolveOptions(tol=np.inf),
        NonPositiveInput, f"tol {SCALAR}", "tol"),
    "SolveOptions-dt": (
        lambda g: SolveOptions(dt=-1e-3),
        NonPositiveInput, f"dt {SCALAR}", "dt"),
    "EvolveOptions-dt": (
        lambda g: EvolveOptions(dt=np.nan, t_final=1.0),
        NonPositiveInput, f"dt {SCALAR}", "dt"),
    "McSettings-dt_sim": (
        lambda g: McSettings(dt_sim=0.0),
        NonPositiveInput, f"dt_sim {SCALAR}", "dt_sim"),
    "power_iterate-tol": (
        lambda g: power_iterate(lambda f: f, ONES, tol=np.nan),
        NonPositiveInput, f"tol {SCALAR}", "tol"),
    "perron-tol": (
        lambda g: perron(Q, tol=0.0),
        NonPositiveInput, f"tol {SCALAR}", "tol"),
    "Grid-extent": (
        lambda g: Grid("torus", n=N, extent=np.inf),
        NonPositiveInput, f"extent {SCALAR}", "extent"),
    "generator_limit_check-t_list": (
        lambda g: generator_limit_check(g, ONES, [np.inf]),
        NonPositiveInput, f"t_list {SCALAR}", "t_list"),
    # whole numbers below their least value
    "power_iterate-max_iters": (
        lambda g: power_iterate(lambda f: f, ONES, max_iters=0),
        NonPositiveInput, "max_iters must be >= 1", "max_iters"),
    "SolveOptions-max_iters": (
        lambda g: SolveOptions(max_iters=0.0),
        NonPositiveInput, "max_iters must be >= 1", "max_iters"),
    "perron-max_iters": (
        lambda g: perron(Q, max_iters=0),
        NonPositiveInput, "max_iters must be >= 1", "max_iters"),
    "cw_search-iters": (
        lambda g: cw_search(g, iters=0),
        NonPositiveInput, "iters must be >= 1", "iters"),
    "cw_search-steps_per_iter": (
        lambda g: cw_search(g, steps_per_iter=-1),
        NonPositiveInput, "steps_per_iter must be >= 1", "steps_per_iter"),
    "dv_rate-maxiter": (
        lambda g: dv_rate(g, _nu(1.0 / N), maxiter=-1),
        NonPositiveInput, "maxiter must be >= 0", "maxiter"),
    "McSettings-N": (
        lambda g: McSettings(N=99),
        NonPositiveInput, "N must be >= 100", "N"),
    "McSettings-seed": (
        lambda g: McSettings(seed=-1),
        NonPositiveInput, "seed must be >= 0", "seed"),
    "EvolveOptions-t_final": (
        lambda g: EvolveOptions(dt=1e-3, t_final=np.inf),
        ValidationError, "t_final must be nonnegative and finite", "t_final"),
    "EvolveOptions-record_every": (
        lambda g: EvolveOptions(dt=1e-3, t_final=1.0, record_every=-1),
        NonPositiveInput, "record_every must be >= 0", "record_every"),
}


@pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))
def test_each_rule_raises_its_class_message_and_field(gen, case):
    call, cls, message, field = case
    with pytest.raises(ValidationError) as err:
        call(gen)
    assert type(err.value) is cls
    assert str(err.value) == message
    assert err.value.field == field
