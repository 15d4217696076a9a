"""Exception hierarchy shared across the package."""


class RhoestError(Exception):
    """Base class for all package errors."""


class ContractViolationError(RhoestError, ValueError):
    """An input violates a documented precondition or invariant."""


class QuadratureError(RhoestError, ArithmeticError):
    """Numerical integration failed to reach the requested tolerance."""


class DegenerateCandidatesError(RhoestError, ValueError):
    """Candidate densities are numerically linearly dependent."""


class ConfigError(RhoestError, ValueError):
    """A configuration file or CLI argument could not be interpreted."""


class SolverError(RhoestError, ArithmeticError):
    """An iterative solver met a non-finite value or failed to converge."""
