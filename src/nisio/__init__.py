"""nisio: principal eigenvalue tools for risk-sensitive control semigroups.

The library discretizes the controlled generator family of a reflected or
periodic diffusion with a monotone upwind scheme, time-steps the induced
nonlinear (dynamic-programming envelope) semigroup, and computes the
principal eigenpair by normalized power iteration and by Howard policy
iteration.  Collatz-Weilandt sandwich bounds, Donsker-Varadhan rate
functions, a logarithmic Isaacs-equation residual and Monte Carlo
simulation of the underlying stochastic cost provide independent
cross-checks of every number the solvers produce.
"""

from types import ModuleType as _ModuleType

from .errors import (
    CflViolation,
    ConfigError,
    CycleDetected,
    DegenerateDiffusion,
    EvalError,
    ExprSyntaxError,
    NisioError,
    NoConvergence,
    NonDeterministicMap,
    NonFiniteCoefficient,
    NonFiniteState,
    NonPositiveIterate,
    NotIrreducible,
    NumericalError,
    UnboundVariable,
    UnknownIdentifier,
    ValidationError,
)
from .expr import Expr, evaluate, parse, to_source
from .grid import Grid, GridFunction
from .generator import (
    DiscreteGenerator,
    ProblemSpec,
    apply_G,
    argmin_policy,
    build_generator,
)
from .semigroup import (
    EvolveOptions,
    evolve,
    generator_limit_check,
    step,
)
from .cone import OrbitStats, RateFit, alpha_bounds, fit_exponential_rate, power_iterate
from .perron import cw_lower, cw_upper, is_irreducible, perron
from .eigensolver import (
    EigenPair,
    SolveOptions,
    solve_evolution,
    solve_policy_iteration,
)
from .variational import (
    DvReport,
    HjiReport,
    SandwichReport,
    cw_bounds,
    cw_search,
    dv_check,
    dv_rate,
    hji_residual,
)
from .mc import McConfig, McEstimate, McSettings, policy_sweep, simulate_cost

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
