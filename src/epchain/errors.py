"""Exception types raised across the package.

Every error derives from :class:`EpchainError` so callers can catch the
package's failures with a single handler, and from the closest builtin
(``ValueError``, ``ArithmeticError``, ...) so generic handling keeps working.
"""


class EpchainError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EpchainError, ValueError):
    """A configuration document is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# chain construction

class NonPositiveN(ConfigError):
    """The number of modes must be a positive integer."""


class LengthMismatch(ConfigError):
    """A per-bond or per-site sequence has the wrong length for the chain."""


class NonFiniteParameter(ConfigError):
    """A chain parameter is NaN or infinite."""


class ImaginaryResidual(EpchainError, ArithmeticError):
    """The real quadrature generator came out with a non-real entry.

    This signals a structural defect in the dynamical matrix it was derived
    from, not a rounding issue.
    """


# ---------------------------------------------------------------------------
# spectral analysis

class EigensolverFailure(EpchainError, ArithmeticError):
    """The dense eigensolver did not converge."""


class RankAmbiguity(EpchainError, ArithmeticError):
    """A singular value sits too close to the rank threshold to call.

    Raised instead of guessing; rerun with an adjusted tolerance.
    """


class NoTransition(EpchainError, ValueError):
    """A 1-d exceptional-point search found no spectral transition."""


# ---------------------------------------------------------------------------
# Gaussian dynamics

class NegativeOccupancy(ConfigError):
    """Thermal occupancies must be nonnegative."""


class OverflowRisk(EpchainError, ArithmeticError):
    """Propagating this far overflows double precision.

    The message states the time at which K t, the propagator or the
    transported covariance stopped being finite.
    """


class UnsortedTimes(ConfigError):
    """Trajectory sample times must be sorted ascending."""


# ---------------------------------------------------------------------------
# entanglement metrics

class InvalidBipartition(ConfigError):
    """Mode sets do not form a proper two-sided partition of the chain."""


class AsymmetricInput(EpchainError, ValueError):
    """A matrix that must be symmetric is not."""


class OutOfRange(EpchainError, ValueError):
    """A scalar argument lies outside its admissible interval."""


class PrecisionLoss(EpchainError, ArithmeticError):
    """A partial transpose is not positive definite in floating point.

    Cholesky cannot factor it, or a symplectic eigenvalue comes out <= 0: the
    witness has no significant digit left, so it is refused, not eigensolved.
    """


class DivisionByZeroLog(EpchainError, ZeroDivisionError):
    """The enhancement ratio is undefined when the reference witness is 1."""
