"""Exception hierarchy shared across the package."""


class ParameterDomainError(ValueError):
    """A parameter lies outside its mathematical domain."""


class ContractError(ValueError):
    """A precondition on the inputs of an operation was violated."""


class UnsupportedCaseError(ValueError):
    """The requested case is mathematically excluded by the implementation."""


class DegenerateScenarioError(ValueError):
    """The scenario degenerates (e.g. a single-file database has no interference)."""


class SeriesDivergenceError(ArithmeticError):
    """A series expansion left its practical convergence region.

    ``argument`` carries the dimensionless expansion argument so callers can
    see how far outside the region the evaluation was attempted.
    """

    def __init__(self, message, argument=None):
        super().__init__(message)
        self.argument = argument


class MomentReliabilityWarning(UserWarning):
    """An empirical moment has relative standard error above the trust threshold."""
