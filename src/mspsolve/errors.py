"""Exception taxonomy for the solver library."""


class MspError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(MspError, ValueError):
    """Operands are not conformal (shape contract violated)."""


class DomainError(MspError, ValueError):
    """A parameter is outside its documented domain."""


class SingularMatrixError(MspError, RuntimeError):
    """A direct factorization met a pivot below the singularity guard."""


class SketchRankCollapse(MspError, RuntimeError):
    """The sketched core matrix stayed unfactorable through jitter escalation.

    Re-seeding the sketch is the caller's remedy; the event has tiny
    probability under the default sizing.
    """


class BreakdownError(MspError, RuntimeError):
    """A Krylov recurrence lost its ability to continue (singular tridiagonal)."""


class InconsistentEstimate(MspError, RuntimeError):
    """A stochastic estimate came out impossibly negative (broken factor)."""
