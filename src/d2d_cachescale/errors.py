"""Exception types shared across the package."""


class CacheScaleError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(CacheScaleError, ValueError):
    """A constructor or operation argument is outside its allowed range."""


class DomainError(CacheScaleError, ValueError):
    """A function argument is outside the function's mathematical domain."""


class InfeasibleProblemError(CacheScaleError):
    """The instance admits no solution: the network cannot hold the library."""


class InvariantViolationError(CacheScaleError):
    """Supplied data violates a structural invariant it promised to satisfy."""


class BracketError(CacheScaleError):
    """A root-finding bracket does not contain the requested solution."""


class SizeGuardError(CacheScaleError):
    """A request exceeds a size guard: an exhaustive search or a simulation too large to run."""
