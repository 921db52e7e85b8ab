"""Gaussian covariance-matrix transport under the chain dynamics.

Zero-mean Gaussian states are fully described by their covariance matrix
sigma in the quadrature ordering (X1, P1, ..., XN, PN), with the vacuum
normalized to the identity.  Linear dynamics d/dt beta = K beta transports
covariances as sigma(t) = S sigma S^T with the symplectic propagator
S = exp(K t).  The exponential is always taken from t = 0 rather than by
step chaining, so results stay exact at exceptional points (where S is
polynomial times exponential in t) and no error accumulates in regimes of
exponential growth.  ``evolve_grid`` transports a whole stack of
(generator, time) cells; ``propagator``, ``evolve`` and ``evolve_trajectory``
are its one-generator case, and ``GaussianState`` shares its bona fide check.
Each guard checks a certificate first, over the whole stack, and runs the
exact eigensolve or SVD only for cells it cannot clear: the growth cap bounds
||K||_2 by ||K||_F, the symplectic residual's scale bounds ||S||_2^2 below by
the largest squared column norm, and one Cholesky of sigma + i Omega plus
half the slack clears bona-fide-ness.  A certificate clears only cells that
the exact test passes, so the decisions and messages are the exact tests'.
The stack's exponentials come from ``expm``, which gives scipy's bits for
every slice but runs scipy's Python slice loop as stacked numpy around
scipy's private Pade kernels, so it is tied to the scipy release that
``.github/constraints.txt`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import RealGenerator, symplectic_form
from .errors import (
    AsymmetricInput,
    ConfigError,
    EpchainError,
    NegativeOccupancy,
    NonFiniteParameter,
    OverflowRisk,
    UnsortedTimes,
)

__all__ = [
    "GaussianState",
    "SymplecticPropagator",
    "initial_state",
    "propagator",
    "evolve",
    "evolve_trajectory",
    "evolve_grid",
    "GROWTH_CAP",
]

# ||K t|| above this would push exp(K t) toward the double-precision ceiling
GROWTH_CAP = 300.0

_SYMMETRY_RTOL = 1e-12
_BONA_FIDE_ATOL = 1e-9
_BONA_FIDE_RTOL = 1e-8
_SYMPLECTIC_RTOL = 1e-10
# the largest 2N for which a Cholesky certifies bona-fide-ness (see _cholesky_clears)
_CHOLESKY_CLEARS_SIZE = 78


def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    """The stack m exactly symmetrized, once it is finite and symmetric to 1e-12 relative."""
    norm = np.abs(m).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(norm).all():
        raise NonFiniteParameter(f"{name} has a NaN or infinite entry")
    asym = np.abs(m - m.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(asym > _SYMMETRY_RTOL * np.maximum(1.0, norm))
    if bad.size:
        raise AsymmetricInput(f"{name} asymmetry {asym[bad[0]]:.3e} exceeds tolerance")
    return 0.5 * (m + m.transpose(0, 2, 1))


def _bona_fide_count(cm: np.ndarray) -> tuple[int, ConfigError | None]:
    """The count of leading bona fide matrices of the stack cm and the next one's error."""
    norm = np.abs(cm).max(axis=(1, 2), initial=0.0)
    slack = np.maximum(_BONA_FIDE_ATOL, _BONA_FIDE_RTOL * norm)
    pencil = cm + 1j * symplectic_form(cm.shape[1] // 2)
    if _cholesky_clears(pencil, slack):
        return len(cm), None
    lowest = np.linalg.eigvalsh(pencil).min(axis=1)
    failed = np.flatnonzero(lowest < -slack)
    if not failed.size:
        return len(cm), None
    stop = int(failed[0])
    return stop, ConfigError(
        f"not a bona fide covariance matrix: min eig(sigma + i Omega) = {lowest[stop]:.3e}"
    )


def _cholesky_clears(pencil: np.ndarray, slack: np.ndarray) -> bool:
    """Whether one Cholesky of pencil + (slack / 2) I proves eigvalsh(pencil) >= -slack per slice.

    Let n = 2N, m = max|sigma| and u = 2**-53.  A Cholesky that completes on
    B = fl(pencil + slack/2 I) is exact for B + dB with ||dB||_2 <= c n (n + 1)
    u ||B||_2 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 10.5; c = 8 covers complex arithmetic and LAPACK's blocking),
    forming B costs u (m + slack/2), and eigvalsh's lowest eigenvalue is
    exact for a perturbation of norm at most c n u ||pencil||_2.  With both
    norms at most n (m + 1 + slack/2), the computed lowest eigenvalue is
    then at least -slack/2 - n (c n (n + 1) + c n + 1) u (m + 1 + slack/2),
    which is >= -slack for every m >= 0 while that factor n (...) u stays
    below 4.5e-10: for 2N <= 78.  A larger size, a failed factorization or
    a non-finite factor clears nothing, and the stack is eigensolved.
    """
    if pencil.shape[1] > _CHOLESKY_CLEARS_SIZE:
        return False
    try:
        factor = np.linalg.cholesky(pencil + 0.5 * slack[:, None, None] * np.eye(pencil.shape[1]))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix of a zero-mean N-mode Gaussian state.

    The matrix must be finite, symmetric (to 1e-12 relative) and bona fide,
    meaning sigma + i Omega is positive semidefinite up to numerical slack.
    All are checked at construction; the stored matrix is exactly symmetrized.
    """

    n_modes: int
    cm: np.ndarray

    def __post_init__(self):
        cm = np.asarray(self.cm, dtype=float)
        n = self.n_modes
        if cm.shape != (2 * n, 2 * n):
            raise ConfigError(f"covariance matrix must be {2*n}x{2*n}, got {cm.shape}")
        cm = _symmetrized(cm[None], "covariance matrix")
        _, error = _bona_fide_count(cm)
        if error is not None:
            raise error
        cm = cm[0]
        cm.setflags(write=False)
        object.__setattr__(self, "cm", cm)

    @classmethod
    def _checked(cls, n_modes: int, cm: np.ndarray) -> GaussianState:
        """The state of a read-only cm that already passed the checks of __post_init__."""
        state = object.__new__(cls)
        object.__setattr__(state, "n_modes", n_modes)
        object.__setattr__(state, "cm", cm)
        return state

    @property
    def purity_determinant(self) -> float:
        """det(sigma); equals 1 for pure states in this normalization."""
        return float(np.linalg.det(self.cm))


def initial_state(n_modes: int, thermal_occupancies: Sequence[float] | float | None = None) -> GaussianState:
    """Product thermal state with covariance diag(2 n_j + 1) per quadrature.

    ``thermal_occupancies`` may be a scalar (broadcast), a length-N sequence,
    or None for vacuum.  Vacuum gives the identity matrix.
    """
    if n_modes < 1:
        raise ConfigError(f"n_modes must be positive, got {n_modes}")
    if thermal_occupancies is None:
        occ = np.zeros(n_modes)
    else:
        occ = np.atleast_1d(np.asarray(thermal_occupancies, dtype=float))
        if occ.size == 1:
            occ = np.full(n_modes, occ[0])
        if occ.shape != (n_modes,):
            raise ConfigError(
                f"thermal_occupancies must have length {n_modes}, got shape {occ.shape}"
            )
    if np.any(occ < 0) or not np.all(np.isfinite(occ)):
        raise NegativeOccupancy(f"occupancies must be finite and nonnegative, got {occ}")
    diag = np.repeat(2.0 * occ + 1.0, 2)
    return GaussianState(n_modes=n_modes, cm=np.diag(diag))


@dataclass(frozen=True)
class SymplecticPropagator:
    """Propagator S(t) = exp(K t) with S Omega S^T = Omega."""

    s: np.ndarray
    t: float

    @property
    def n_modes(self) -> int:
        return self.s.shape[0] // 2


def propagator(k: RealGenerator, t: float) -> SymplecticPropagator:
    """Matrix exponential S(t) = exp(K t) by scaling and squaring.

    Valid at exceptional points, where K is non-diagonalizable and the
    entries of S are polynomials in t times exponentials.  The symplectic
    identity S Omega S^T = Omega is verified to 1e-10 relative before the
    propagator is returned.

    Raises
    ------
    OverflowRisk
        If ||K|| * |t| exceeds the growth cap of 300, in which case exp(K t)
        could exceed the range of double precision; the message states the
        offending growth exponent and the cap.
    """
    s, error = _propagators(k.data[None], np.array([t], dtype=float))
    if error is not None:
        raise error
    return SymplecticPropagator(s=s[0], t=float(t))


def evolve(state: GaussianState, k: RealGenerator, t: float) -> GaussianState:
    """Transport a covariance matrix: sigma(t) = S sigma S^T with S = exp(K t)."""
    return _evolve(state, k, [t])[0]


def evolve_trajectory(
    state: GaussianState, k: RealGenerator, times: Sequence[float]
) -> list[GaussianState]:
    """Evolve the state to each sample time, each directly from t = 0."""
    return _evolve(state, k, _sample_times(times))


def _evolve(
    state: GaussianState, k: RealGenerator, times: Sequence[float]
) -> list[GaussianState]:
    if k.n_modes != state.n_modes:
        raise ConfigError(
            f"generator is for {k.n_modes} modes but the state has {state.n_modes}"
        )
    cms, error = evolve_grid(state, k.data[None], times)
    if error is not None:
        raise error
    # evolve_grid's covariances are exactly symmetric and checked bona fide
    cms.setflags(write=False)
    return [GaussianState._checked(state.n_modes, cm) for cm in cms]


def _sample_times(times: Sequence[float]) -> np.ndarray:
    """Trajectory sample times as an array: nonempty, 1-d, finite, ascending."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ConfigError("times must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(ts)):
        raise ConfigError(f"times must be finite, got {ts}")
    if np.any(np.diff(ts) < 0):
        raise UnsortedTimes(f"times must be sorted ascending, got {ts}")
    return ts


def expm(a: np.ndarray) -> np.ndarray:
    """exp of each slice of a (P, n, n) float stack, bit for bit ``scipy.linalg.expm``'s.

    scipy 1.17 loops over the slices in Python; this runs the same steps with
    the zero-pattern test and the squarings done once over the stack.  A
    slice without off-diagonal nonzeros is exp of its diagonal; a triangular
    one goes to scipy, whose Code Fragment 2.1 it needs; any other is
    scaled and Pade-approximated by scipy's own C kernels (Al-Mohy & Higham
    2009), then squared s times, in rounds over the cells still to square.
    scipy is imported here, so commands that transport no covariance skip it.
    """
    import scipy.linalg
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    nonzero = a != 0
    strict_lower = np.tri(n, k=-1, dtype=bool)
    lower = (nonzero & strict_lower).any(axis=(1, 2))
    upper = (nonzero & strict_lower.T).any(axis=(1, 2))
    out = np.empty_like(a)
    diagonal = np.flatnonzero(~(lower | upper))[:, None]
    diag = np.arange(n)
    out[diagonal] = 0.0
    out[diagonal, diag, diag] = np.exp(a[diagonal, diag, diag])
    triangular = np.flatnonzero(lower ^ upper)
    if triangular.size:
        out[triangular] = scipy.linalg.expm(a[triangular])
    general = np.flatnonzero(lower & upper)
    squarings = np.empty(general.size, dtype=int)
    work = np.empty((5, n, n))  # scipy's workspace: the kernels scale and overwrite it
    for j, i in enumerate(general):
        work[0] = a[i]
        m, squarings[j] = pick_pade_structure(work)
        if m < 0:
            raise MemoryError(f"expm could not allocate its Pade structure (error code {m})")
        info = pade_UV_calc(work, m)
        if info <= -11:
            raise MemoryError(f"expm could not allocate its workspace (error code {info})")
        if info != 0:
            raise RuntimeError(f"expm got an internal LAPACK error (error code {info})")
        out[i] = work[0]
    # most squarings first, so round r squares the leading cells with s >= r
    order = np.argsort(-squarings, kind="stable")[: np.count_nonzero(squarings)]
    squared = general[order]
    block = out[squared]
    for r in range(1, int(squarings.max(initial=0)) + 1):
        rows = block[: np.count_nonzero(squarings >= r)]
        rows[...] = rows @ rows
    out[squared] = block
    return out


def _propagators(k: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, EpchainError | None]:
    """exp(K t) of the generator-major cells of k x times before the first that fails, in
    order, a finite time, the growth cap and the symplectic residual; and that cell's error."""
    # ||K||_2 <= ||K||_F, taken of K over its largest entry so that no square
    # underflows: a generator whose bound keeps every finite time within half
    # the cap is cleared, and only the rest get the exact SVD
    spans = np.abs(np.where(np.isfinite(times), times, 0.0))  # no 0 * inf; refused below
    peak = np.abs(k).max(axis=(1, 2), initial=0.0)
    norms = peak * np.linalg.norm(k / np.where(peak > 0.0, peak, 1.0)[:, None, None], axis=(1, 2))
    unclear = np.flatnonzero(~(norms * spans.max(initial=0.0) <= 0.5 * GROWTH_CAP))
    if unclear.size:
        norms[unclear] = np.linalg.norm(k[unclear], 2, axis=(1, 2))
    exponents = (norms[:, None] * spans).ravel()
    cell_times = np.tile(times, len(k))
    refused = np.flatnonzero(~np.isfinite(cell_times) | (exponents > GROWTH_CAP))
    stop = int(refused[0]) if refused.size else cell_times.size
    error: EpchainError | None = None
    if refused.size:
        t = float(cell_times[stop])
        if np.isfinite(t):
            error = OverflowRisk(
                f"propagation to t={t} has growth exponent {exponents[stop]:.1f} "
                f"(cap {GROWTH_CAP:.0f}); entries would overflow double precision"
            )
        else:
            error = ConfigError(f"time must be finite, got {t}")
    s = expm(k[np.arange(stop) // times.size] * cell_times[:stop, None, None])
    omega = symplectic_form(k.shape[1] // 2)
    residual = np.abs(s @ omega @ s.transpose(0, 2, 1) - omega).max(axis=(1, 2))
    # ||S||_2^2 is at least the largest squared column norm: a residual within
    # half of that scale passes with room for rounding, and only the rest are
    # tested exactly, with ||S||_2 from the SVD
    columns = np.einsum("cij,cij->cj", s, s).max(axis=1, initial=0.0)
    lost = np.flatnonzero(~(residual <= _SYMPLECTIC_RTOL * (1.0 + 0.5 * columns)))
    if lost.size:
        scale = 1.0 + np.linalg.norm(s[lost], 2, axis=(1, 2)) ** 2
        lost = lost[residual[lost] > _SYMPLECTIC_RTOL * scale]
    if lost.size:
        stop = int(lost[0])
        error = EpchainError(
            f"propagator lost symplecticity: residual {residual[stop]:.3e} "
            f"at t={float(cell_times[stop])}"
        )
    return s[:stop], error


def evolve_grid(
    state: GaussianState, k: np.ndarray, times: Sequence[float]
) -> tuple[np.ndarray, EpchainError | None]:
    """Transport the state over a stack of generators times a set of times.

    ``k`` is a (G, 2N, 2N) stack of generator matrices; the G x T cells are
    taken generator-major.  Every cell passes, in order, a finite time, the
    growth cap on ||K||_2 |t|, the stacked ``expm`` (scipy's
    scaling-and-squaring algorithm and bits on each slice), the symplectic
    residual, a finite covariance (``OverflowRisk`` otherwise: the cap
    bounds S, but S sigma S^T of a large sigma can still overflow), and
    bona-fide-ness; ``evolve`` is the case of one generator.
    Each guard is certificate first, exact eigensolve (or SVD) only for the
    cells its certificate cannot clear, so it decides as the exact test does.

    Returns the (C, 2N, 2N) covariances of the C leading cells that passed,
    and the error of the first cell that failed, or None when all G x T
    cells passed.
    """
    k = np.asarray(k, dtype=float)
    times = np.asarray(times, dtype=float)
    size = 2 * state.n_modes
    if k.ndim != 3 or k.shape[1:] != (size, size):
        raise ConfigError(
            f"generators must be a stack of {size}x{size} matrices, got shape {k.shape}"
        )
    s, error = _propagators(k, times)
    # S sigma S^T with distinct operands: a shortcut such as S @ S^T for the
    # vacuum would let numpy switch to another BLAS kernel and move the bits
    with np.errstate(over="ignore", invalid="ignore"):
        cm = s @ state.cm @ s.transpose(0, 2, 1)
        cm = 0.5 * (cm + cm.transpose(0, 2, 1))
    overflowed = np.flatnonzero(~np.isfinite(cm).all(axis=(1, 2)))
    if overflowed.size:
        cm = cm[: overflowed[0]]
        error = OverflowRisk(
            f"covariance at t={float(times[overflowed[0] % times.size])} "
            "overflows double precision"
        )
    stop, not_bona_fide = _bona_fide_count(cm)
    return cm[:stop], not_bona_fide or error
