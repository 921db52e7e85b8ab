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

    The message states whether K t, the propagator or the transported
    covariance stopped being finite, then the cell (``_at_cell``).
    ``entangle`` ends its table before that time.
    """


class SymplecticityLost(EpchainError, ArithmeticError):
    """Rounding broke the propagator's symplecticity.

    Its residual max|S Omega S^T - Omega| exceeds 1e-10 (1 + ||S||_2^2); the
    message states the residual, then the cell.  ``entangle`` ends its table
    before that time.
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
    """Rounding has eaten a transported covariance or its witness: refused.

    The covariance fails the bona fide test, Cholesky cannot factor the
    partial transpose, a symplectic eigenvalue comes out <= 0, or the logs
    sum more than 1e-2 off 1/2 ln det sigma_0, which det S = 1 forbids.
    ``entangle`` ends its table before the refused time.
    """


class DivisionByZeroLog(EpchainError, ZeroDivisionError):
    """The enhancement ratio is undefined when the reference witness is 1."""


def _at_cell(refusal: EpchainError, cell: list[str]) -> EpchainError:
    """The refusing layer's reason and, appended by the caller that walks the cells, the
    cell, as "(g=1.0, t=100.0)", in the same class; a ConfigError (a wrong input) as it is."""
    return refusal if isinstance(refusal, ConfigError) else type(refusal)(f"{refusal} ({', '.join(cell)})")
