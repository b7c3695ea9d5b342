"""Exception taxonomy shared by all nisio modules.

Every error raised by the library derives from :class:`NisioError`, so
callers (in particular the command line driver) can map failures onto the
two coarse classes that matter operationally: invalid input versus
numerical failure.
"""


class NisioError(Exception):
    """Base class for all nisio errors."""


# ---------------------------------------------------------------------------
# input / validation errors (CLI exit code 1)
# ---------------------------------------------------------------------------

class ValidationError(NisioError):
    """A named invariant of a problem description was violated; ``field``,
    when set, names the input that broke it."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class ExprSyntaxError(NisioError):
    """Malformed expression source; carries the character offset."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None
                         else f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(NisioError):
    """Identifier is neither a known function, constant nor allowed variable."""


class UnboundVariable(NisioError):
    """Expression evaluated without a binding for one of its variables."""


class ConfigError(ValidationError):
    """Config file could not be parsed; carries the line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NonPositiveInput(ValidationError):
    """Argument violated a strict-positivity precondition."""


class ZeroVector(ValidationError):
    """Vector argument must be nonzero."""


class InsufficientData(ValidationError):
    """Not enough recorded samples for the requested fit."""


class NonPositiveEta(ValidationError):
    """Orbit already converged: no positive bracket widths to fit."""


# ---------------------------------------------------------------------------
# numerical errors (CLI exit code 2)
# ---------------------------------------------------------------------------

class NumericalError(NisioError):
    """Base class for failures of the numerical machinery."""


class EvalError(NumericalError):
    """Expression evaluation hit a domain error or a non-finite value."""


class NotIrreducible(NumericalError):
    """Support graph of the matrix is not strongly connected."""


class NoConvergence(NumericalError):
    """Iteration exhausted its budget; carries the best state found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NonPositiveIterate(NumericalError):
    """The iterated map produced a non-positive value from a positive input."""


class NonDeterministicMap(NumericalError):
    """Running the iterated map again did not reproduce its orbit."""


class CycleDetected(NumericalError):
    """Policy iteration revisited a policy without converging."""

    def __init__(self, message, policies=()):
        super().__init__(message)
        self.policies = tuple(policies)


class CflViolation(NumericalError):
    """Requested time step exceeds the stability bound of the scheme."""


class DegenerateDiffusion(ValidationError):
    """Diffusion matrix too close to singular (or not stencil-dominant)."""


class NonFiniteCoefficient(ValidationError):
    """A coefficient table contains NaN or infinity."""


class NonFiniteState(NumericalError):
    """A simulated path left the representable range; carries the step index."""

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step
