"""One message, one class and one ``field`` per input rule.

Every entry point that checks a positive, nonnegative or finite array, a
positive and finite scalar, a whole number's least value, an array's
shape or a policy's control indices, raises the error of its
``nisio.grid`` helper: the exact message, the exact class, and ``field``
where the input is a named field.
"""

import types

import numpy as np
import pytest
import scipy.sparse as sp

from nisio import (EvolveOptions, Grid, McConfig, McSettings, ProblemSpec,
                   SolveOptions, alpha_bounds, build_generator, cw_bounds,
                   cw_lower, cw_search, cw_upper, dv_rate,
                   generator_limit_check, hji_residual, perron, power_iterate,
                   problems, solve_evolution)
from nisio.cone import _orbit_result
from nisio.errors import ControlOutOfRange, NonPositiveInput, ValidationError
from nisio.mc import cost_samples
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


TWO_CONTROL = problems.torus_two_control(N)


def _policy(value):
    """Control 0 at every node but node 3, which takes ``value``."""
    policy = np.zeros(N, dtype=int)
    policy[3] = value
    return policy


def _cost_samples(policy=_policy(1), x0=(0.5,)):
    return cost_samples(TWO_CONTROL, McConfig(x0=x0, policy=policy))


@pytest.fixture(scope="module")
def gen():
    return build_generator(problems.torus_cosine(N))


POSITIVE = "must be strictly positive"
NONNEGATIVE = "must be nonnegative"
FINITE = "contains non-finite values"
SCALAR = "must be positive and finite"
OUT_OF_RANGE = "control index 2 out of range [0, 2)"

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
    # shapes, lengths and control indices
    "as_grid_function-shape": (
        lambda g: cw_bounds(g, np.ones(N + 1)),
        ValidationError, f"grid function must have shape ({N},), got ({N + 1},)",
        None),
    "Grid-neighbour-offset": (
        lambda g: g.grid.neighbour((1, 0)),
        ValidationError, "offset must have shape (1,), got (2,)", "offset"),
    "alpha_bounds-shape": (
        lambda g: alpha_bounds(ONES, np.ones(3)),
        ValidationError, f"reference must have shape ({N},), got (3,)",
        "reference"),
    "solve_evolution-f0": (
        lambda g: solve_evolution(g, SolveOptions(f0=np.ones((N, 1)))),
        ValidationError, f"f0 must have shape ({N},), got ({N}, 1)", "f0"),
    "dv_rate-nu-shape": (
        lambda g: dv_rate(g, np.full(4, 0.25)),
        ValidationError, f"nu must have shape ({N},), got (4,)", "nu"),
    "cw_lower-x-shape": (
        lambda g: cw_lower(Q, [1.0]),
        ValidationError, "x must have shape (2,), got (1,)", "x"),
    "cw_upper-x-shape": (
        lambda g: cw_upper(Q, np.ones((2, 1))),
        ValidationError, "x must have shape (2,), got (2, 1)", "x"),
    "check_matrix-square": (
        lambda g: perron(np.ones((2, 3))),
        ValidationError, "matrix must have shape (3, 3), got (2, 3)",
        "matrix"),
    "check_matrix-vector": (
        lambda g: cw_upper(np.ones(2), ONES),
        ValidationError, "matrix must have shape (2, 2), got (2,)", "matrix"),
    "noda-square": (
        lambda g: noda(sp.csr_matrix(np.ones((3, 2)))),
        ValidationError, "matrix must have shape (3, 3), got (3, 2)",
        "matrix"),
    "noda-x0-shape": (
        lambda g: noda(METZLER, x0=np.ones(3)),
        ValidationError, "x0 must have shape (2,), got (3,)", "x0"),
    "frozen-shape": (
        lambda g: g.frozen(np.zeros(3, dtype=int)),
        ValidationError, f"policy must have shape ({N},), got (3,)", "policy"),
    "frozen-range": (
        lambda g: build_generator(TWO_CONTROL).frozen(_policy(2)),
        ControlOutOfRange, OUT_OF_RANGE, "policy"),
    "frozen-negative": (
        lambda g: g.frozen(-1),
        ControlOutOfRange, "control index -1 out of range [0, 1)", "policy"),
    "cost_samples-policy-shape": (
        lambda g: _cost_samples(policy=np.zeros(3, dtype=int)),
        ValidationError, f"policy must have shape ({N},), got (3,)", "policy"),
    "cost_samples-range": (
        lambda g: _cost_samples(policy=_policy(2)),
        ControlOutOfRange, OUT_OF_RANGE, "policy"),
    "cost_samples-x0": (
        lambda g: _cost_samples(x0=(0.5, 0.25)),
        ValidationError, "x0 must have shape (1,), got (2,)", "x0"),
    "cost_samples-no-x0": (
        lambda g: _cost_samples(x0=None),
        ValidationError, "x0 must have shape (1,), got ()", "x0"),
}


@pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))
def test_each_rule_raises_its_class_message_and_field(gen, case):
    call, cls, message, field = case
    with pytest.raises(ValidationError) as err:
        call(gen)
    assert type(err.value) is cls
    assert str(err.value) == message
    assert err.value.field == field


@pytest.mark.parametrize("call", [
    lambda: build_generator(TWO_CONTROL).frozen(2),
    lambda: _cost_samples(policy=_policy(2))], ids=["frozen", "cost_samples"])
def test_an_out_of_range_control_is_one_error_of_both_kinds(call):
    # a ValidationError for the command line, an IndexError as in Python
    for kind in (ValidationError, IndexError):
        with pytest.raises(kind) as err:
            call()
        assert type(err.value) is ControlOutOfRange
        assert str(err.value) == OUT_OF_RANGE
        assert err.value.field == "policy"
