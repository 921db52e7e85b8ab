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
Growth stops a cell only where its K t, S, S Omega S^T or covariance is
not finite (``OverflowRisk``).  The other guards check a certificate first,
over the whole stack, and run the exact test only for cells it cannot
clear, so both decide as the exact tests do.  The symplectic residual's
scale bounds ||S||_2^2 below by the largest squared column norm, before
any SVD.  A symplectic S maps a bona fide sigma_0 to a bona fide
S sigma_0 S^T (sigma + i Omega >= 0 is invariant under congruence), so a
transported covariance from a diagonal sigma_0 with entries >= 1 (every
``initial_state``) is cleared by a bound built from S's residual and
||S||_F alone (``_certified_count``); only from the first cell it cannot
clear, or for another sigma_0, does one Cholesky of sigma + i Omega plus
half the slack run, then ``eigvalsh`` where that fails.  The stack's
exponentials come from ``expm``, which gives scipy's bits for every slice
but runs scipy's Python slice loop as stacked numpy around scipy's private
Pade kernels, so it is tied to the scipy release that
``.github/constraints.txt`` pins.  It loads those kernels' extension module
straight from its file in scipy's ``linalg`` directory, once per process,
so a transport never runs ``scipy.linalg``'s package init, which is most
of what importing ``scipy.linalg`` costs.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
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
    SymplecticityLost,
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
]

_SYMMETRY_RTOL = 1e-12
_BONA_FIDE_ATOL = 1e-9
_BONA_FIDE_RTOL = 1e-8
_SYMPLECTIC_RTOL = 1e-10
# the largest 2N for which a Cholesky certifies bona-fide-ness (see _cholesky_clears)
_CHOLESKY_CLEARS_SIZE = 78
# entries of slab 0 over one block of expm's Pade workspace, which holds five such
# slabs (2.6 MB): 4096 cells of 4x4, 18 of 60x60
_EXPM_BLOCK_ENTRIES = 1 << 16
_UNIT_ROUNDOFF = 2.0**-53


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
    if not np.isfinite(diag).all():
        raise NonFiniteParameter("covariance matrix has a NaN or infinite entry")
    # diag(2 n + 1) with n >= 0 is symmetric and bona fide by construction
    cm = np.diag(diag)
    cm.setflags(write=False)
    return GaussianState._checked(n_modes, cm)


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
        If K t, exp(K t) or S Omega S^T is not finite: the propagator has left
        the range of double precision at t.
    SymplecticityLost
        If max|S Omega S^T - Omega| exceeds 1e-10 (1 + ||S||_2^2).
    """
    s, _, _, error = _propagators(k.data[None], np.array([t], dtype=float))
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


@functools.cache
def _pade_kernels():
    """scipy's compiled Pade kernels, ``scipy.linalg._matfuncs_expm``, loaded from its file.

    The module is found by name in scipy's ``linalg`` directory and executed
    without importing ``scipy.linalg``, whose package init (array-API
    compatibility layers, BLAS and LAPACK wrappers) costs most of the
    import and none of which the kernels use.  The module object is a second
    one of the same shared library, with the same ``pick_pade_structure``
    and ``pade_UV_calc``, so the bits are those ``scipy.linalg.expm`` gets,
    in either import order.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    spec = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg = [os.path.join(path, "linalg") for path in scipy_spec.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec("_matfuncs_expm", linalg)
    if spec is None:
        from importlib.metadata import PackageNotFoundError, version

        try:
            release = f"scipy {version('scipy')}"
        except PackageNotFoundError:
            release = "no installed scipy"
        raise ImportError(
            f"expm needs scipy's compiled Pade kernels, scipy/linalg/_matfuncs_expm, "
            f"which {release} does not have; install the release that "
            ".github/constraints.txt pins"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expm(a: np.ndarray) -> np.ndarray:
    """exp of each slice of a (P, n, n) float stack, bit for bit ``scipy.linalg.expm``'s.

    scipy 1.17 loops over the slices in Python; this runs the same steps with
    the zero-pattern test and the squarings done once over the stack.  A
    slice without off-diagonal nonzeros is exp of its diagonal; a triangular
    one goes to ``scipy.linalg.expm``, whose Code Fragment 2.1 it needs (no
    preset makes one, so no preset imports ``scipy.linalg``); any other is
    scaled and Pade-approximated by scipy's own C kernels (Al-Mohy & Higham
    2009), then squared s times, in rounds over the cells still to square.
    The kernels' extension module is loaded once per process from its file
    (``_pade_kernels``), without ``scipy.linalg``'s package init.
    The kernels work in place on each cell's view of one (cells, 5, n, n)
    workspace, filled and read back once per block of at most 2**16 / n^2
    cells, so its memory stays near 2.6 MB for any stack.
    """
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
        import scipy.linalg

        out[triangular] = scipy.linalg.expm(a[triangular])
    general = np.flatnonzero(lower & upper)
    kernels = _pade_kernels()
    squarings = []
    # scipy's workspace, (cells, 5, n, n): its kernels scale and overwrite each cell's slabs
    step = max(1, _EXPM_BLOCK_ENTRIES // n**2)
    work = np.empty((min(general.size, step), 5, n, n))
    for first in range(0, general.size, step):
        cells = general[first : first + step]
        block = work[: cells.size]
        block[:, 0] = a[cells]
        for cell in block:
            m, s = kernels.pick_pade_structure(cell)
            if m < 0:
                raise MemoryError(f"expm could not allocate its Pade structure (error code {m})")
            info = kernels.pade_UV_calc(cell, m)
            if info <= -11:
                raise MemoryError(f"expm could not allocate its workspace (error code {info})")
            if info != 0:
                raise RuntimeError(f"expm got an internal LAPACK error (error code {info})")
            squarings.append(s)
        out[cells] = block[:, 0]
    squarings = np.array(squarings, dtype=int)
    # most squarings first, so round r squares the leading cells with s >= r
    order = np.argsort(-squarings, kind="stable")[: np.count_nonzero(squarings)]
    squared = general[order]
    block = out[squared]
    for r in range(1, int(squarings.max(initial=0)) + 1):
        rows = block[: np.count_nonzero(squarings >= r)]
        rows[...] = rows @ rows
    out[squared] = block
    return out


def _propagators(
    k: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, EpchainError | None]:
    """exp(K t) of the generator-major cells of k x times before the first that fails, in
    order, a finite time, K t, S and S Omega S^T, and the symplectic residual; per
    returned cell its residual max|S Omega S^T - Omega| and ||S||_F^2; and the error."""
    cell_times = np.tile(times, len(k))
    omega = symplectic_form(k.shape[1] // 2)
    # a growing S leaves the float range here; each cell is tested for that, so nothing warns
    with np.errstate(over="ignore", invalid="ignore"):
        kt = k[np.arange(cell_times.size) // times.size] * cell_times[:, None, None]
        refused = np.flatnonzero(~np.isfinite(kt).all(axis=(1, 2)))
        stop = int(refused[0]) if refused.size else cell_times.size
        s = expm(kt[:stop])
        residual = np.abs(s @ omega @ s.transpose(0, 2, 1) - omega).max(axis=(1, 2), initial=0.0)
        # ||S||_2^2 is at least the largest squared column norm: a residual within
        # half of that scale passes with room for rounding, and only the rest are
        # tested exactly, with ||S||_2 from the SVD
        squares = np.einsum("cij,cij->cj", s, s)
        columns = squares.max(axis=1, initial=0.0)
        finite = np.isfinite(s).all(axis=(1, 2)) & np.isfinite(residual)
        lost = np.flatnonzero(finite & ~(residual <= _SYMPLECTIC_RTOL * (1.0 + 0.5 * columns)))
        if lost.size:
            scale = 1.0 + np.linalg.norm(s[lost], 2, axis=(1, 2)) ** 2
            lost = lost[residual[lost] > _SYMPLECTIC_RTOL * scale]
        frobenius = squares.sum(axis=1)
    # the first cell that is not finite or lost symplecticity
    failed = ~finite
    failed[lost] = True
    first = np.flatnonzero(failed)
    stop = int(first[0]) if first.size else stop
    if stop == cell_times.size:
        return s, residual, frobenius, None
    passed = s[:stop], residual[:stop], frobenius[:stop]
    t = float(cell_times[stop])
    if not np.isfinite(t):
        return *passed, ConfigError(f"time must be finite, got {t}")
    if stop == len(s) or not finite[stop]:
        return *passed, OverflowRisk(f"propagator at t={t} overflows double precision")
    return *passed, SymplecticityLost(
        f"propagator lost symplecticity: residual {residual[stop]:.3e} at t={t}")


def _certified_count(
    sigma0: np.ndarray, cm: np.ndarray, residual: np.ndarray, frobenius: np.ndarray
) -> int:
    """The count of leading covariances of the stack cm that the symplectic residual
    of their propagators proves bona fide, as ``_bona_fide_count`` would decide.

    Each cm is fl(fl(S sigma0) S^T) symmetrized, for the computed S whose
    computed residual R^ of R = S Omega S^T - Omega and ||S||_F^2 (the
    ``_propagators`` outputs) are given.  Let n = 2N, u = 2**-53,
    gamma = n u / (1 - n u), and m = max|sigma^| per cell.

    Exactly, sigma + i Omega = S (sigma0 + i Omega) S^T - i R for
    sigma = S sigma0 S^T.  The first term is a congruence of sigma0 + i Omega,
    which is positive semidefinite for a diagonal sigma0 with entries >= 1
    (per mode [[a, i], [-i, b]] with a b >= 1), so
    lambda_min(sigma + i Omega) >= -||R||_2 (Weyl).  S Omega is exact (Omega
    is a signed permutation) and subtracting Omega rounds one entry per row,
    so ||R||_2 <= n max|R^| + gamma ||S||_F^2 + u max|R^|, with
    || |S| |S|^T ||_2 <= ||S||_F^2.  fl(fl(S sigma0) S^T) is off sigma by at
    most 2.01 gamma |S| sigma0 |S|^T entry by entry, at most
    2.01 gamma ||S||_F^2 ||sigma0||_2 in the 2-norm, and the symmetrization
    keeps that bound and rounds once more, at most u n m.  With c = 8,

        lambda_min(sigma^ + i Omega) >= -(n max|R^| + c gamma ||S||_F^2 (1 + ||sigma0||_F)
                                          + c u n m).

    A cell clears where this bound is within half its slack.  For 2N <= 78
    eigvalsh's own error, at most c n u ||sigma^ + i Omega||_2 <= c n^2 u (m + 1)
    (``_cholesky_clears``), is below 5.4e-12 (m + 1), under 1/80 of the
    other half of the slack.  That room also holds what the bound leaves
    out, all of relative order u: the u max|R^| term, the rounding of
    ||S||_F^2 and of the bound itself, and underflow, whose absolute errors
    (n^2 2**-1074 per entry) are far below the slack's 1e-9 floor.  So a
    cleared cell passes the exact test, and that test still decides and
    reports every cell from the first one not cleared.  Any other sigma0, or
    a larger 2N, clears no cell.
    """
    n = len(sigma0)
    diagonal = sigma0.diagonal()
    if n > _CHOLESKY_CLEARS_SIZE or np.count_nonzero(sigma0) != n or not diagonal.min() >= 1.0:
        return 0
    norm = np.abs(cm).max(axis=(1, 2), initial=0.0)
    slack = np.maximum(_BONA_FIDE_ATOL, _BONA_FIDE_RTOL * norm)
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (n * residual[: len(cm)]
                 + 8.0 * gamma * frobenius[: len(cm)] * (1.0 + np.linalg.norm(diagonal))
                 + 8.0 * _UNIT_ROUNDOFF * n * norm)
    uncleared = np.flatnonzero(~(bound <= 0.5 * slack))
    return int(uncleared[0]) if uncleared.size else len(cm)


def evolve_grid(
    state: GaussianState, k: np.ndarray, times: Sequence[float]
) -> tuple[np.ndarray, EpchainError | None]:
    """Transport the state over a stack of generators times a set of times.

    ``k`` is a (G, 2N, 2N) stack of generator matrices; the G x T cells are
    taken generator-major.  Every cell passes, in order, a finite time, a
    finite K t, the stacked ``expm`` (scipy's scaling-and-squaring algorithm
    and bits on each slice), a finite S and S Omega S^T, the symplectic
    residual, a finite covariance (``OverflowRisk`` where a value is not),
    and bona-fide-ness; ``evolve`` is the case of one generator.  The last
    two checks are certificate first, as the exact tests decide: where the
    state's sigma_0 is diagonal with entries >= 1 and 2N <= 78, S's residual
    and ||S||_F clear bona-fide-ness cell by cell (``_certified_count``),
    and the Cholesky and ``eigvalsh`` of ``_bona_fide_count`` run only from
    the first cell not cleared.

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
    s, residual, frobenius, error = _propagators(k, times)
    # S sigma S^T with distinct operands: a shortcut such as S @ S^T for the
    # vacuum would let numpy switch to another BLAS kernel and move the bits
    with np.errstate(over="ignore", invalid="ignore"):
        cm = s @ state.cm @ s.transpose(0, 2, 1)
        cm = 0.5 * (cm + cm.transpose(0, 2, 1))
    overflowed = np.flatnonzero(~np.isfinite(cm).all(axis=(1, 2)))
    if overflowed.size:
        cm = cm[: overflowed[0]]
        t = float(times[overflowed[0] % times.size])
        error = OverflowRisk(f"covariance at t={t} overflows double precision")
    cleared = _certified_count(state.cm, cm, residual, frobenius)
    if cleared == len(cm):
        return cm, error
    stop, not_bona_fide = _bona_fide_count(cm[cleared:])
    return cm[: cleared + stop], not_bona_fide or error
