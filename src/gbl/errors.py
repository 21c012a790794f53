"""Exception types shared across the toolkit."""


class GBLError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(GBLError):
    """Operands live on Grassmannians of different (n, m)."""


class RankDeficient(GBLError):
    """Input rows do not span an n-dimensional subspace."""


class OutOfChart(GBLError):
    """The plane pairing w(P, P0) is not positive; chart quantities undefined."""


class CutLocus(GBLError):
    """No unique minimal geodesic (an angle reaches pi/2, or orientations disagree)."""


class InversionFailure(GBLError):
    """A monotone Newton root solve did not settle within its step cap."""


class OutOfDomain(GBLError):
    """Evaluation point lies outside the immersion's domain."""


class UnknownName(GBLError):
    """No builtin immersion with that name."""


class PreconditionViolated(GBLError):
    """Caller-side contract violated (admissibility, bounds ordering, ...)."""


class Stalled(GBLError):
    """A shrinking step failed to decrement its certified bound."""


class UsageError(GBLError):
    """Invalid command-line configuration."""
