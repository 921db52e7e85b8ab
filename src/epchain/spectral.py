"""Non-Hermitian spectrum classification and exceptional-point detection.

The dynamical matrix of a chain with squeezing interactions is non-Hermitian
even though the underlying Hamiltonian is Hermitian.  Its 2N eigenvalues are
closed under lambda -> -conj(lambda) and fall into three regimes: purely
imaginary, purely real, or mixed.  ``spectrum_stack`` labels a whole stack
of matrices with one eigensolve; ``spectrum_report`` is its one-slice case.
Where eigenvalues and eigenvectors coalesce the matrix acquires nontrivial
Jordan blocks; this module computes those block structures numerically
(rank staircase of matrix powers with singular-value thresholding), groups
eigenvalues into exceptional-point clusters, locates spectral transitions
along 1-d parameter families, and scans the exceptional surface of
three-mode chains.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .chain import BdgMatrix, ChainSpec, build_bdg_matrix, spec_bdg_stack
from .errors import ConfigError, EigensolverFailure, NoTransition, OutOfRange, RankAmbiguity

__all__ = [
    "Region",
    "SpectrumReport",
    "EpCluster",
    "EsPoint",
    "spectrum_stack",
    "eigenspectrum",
    "spectrum_report",
    "jordan_structure",
    "detect_eps",
    "locate_ep_1d",
    "scan_exceptional_surface",
]

DEFAULT_REGION_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8
DEFAULT_CLUSTER_TOL = 1e-7
# parameter values that locate_ep_1d labels before it bisects
_LOCATE_GRID_POINTS = 129


class Region(enum.Enum):
    """Spectral regime of a dynamical matrix."""

    PURELY_IMAGINARY = "purely_imaginary"
    PURELY_REAL = "purely_real"
    MIXED = "mixed"


_REGIONS = tuple(Region)  # region codes index this


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues with their regime label.

    ``boundary`` is set when the label is not stable under halving or
    doubling the classification tolerance, which flags points sitting on a
    spectral transition.
    """

    eigenvalues: tuple[complex, ...]
    region: Region
    boundary: bool = False


@dataclass(frozen=True)
class EpCluster:
    """A coalescing eigenvalue cluster with its Jordan block structure.

    ``jordan_blocks`` lists block sizes in decreasing order; ``order`` is the
    largest block.  Clusters of order 1 are ordinary degeneracies and are
    never reported as exceptional points.
    """

    center: complex
    algebraic_multiplicity: int
    jordan_blocks: tuple[int, ...]

    @property
    def order(self) -> int:
        return max(self.jordan_blocks)


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance must be positive and finite, got {tol}")


def _label_rows(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Region codes (indices into ``_REGIONS``) and on-real, on-imaginary masks of eigenvalue rows.

    The rule is documented on ``spectrum_stack``.
    """
    threshold = np.maximum(tol * np.abs(values).max(axis=-1, initial=0.0), 1e-12)[:, None]
    on_real = np.abs(values.imag) <= threshold
    on_imag = np.abs(values.real) <= threshold
    return np.where(on_imag.all(axis=-1), 0, np.where(on_real.all(axis=-1), 1, 2)), on_real, on_imag


def spectrum_stack(m, tol: float = DEFAULT_REGION_TOL) -> tuple[np.ndarray, list[Region], np.ndarray]:
    """Eigensolve and label a (P, 2N, 2N) stack of dynamical matrices.

    An eigenvalue is on the real (imaginary) axis when its imaginary (real)
    part is at most ``tol`` times the largest magnitude in its row, with an
    absolute floor of 1e-12; a slice is purely imaginary (real) when all its
    eigenvalues are.  Zero eigenvalues lie on both axes, so they never force
    MIXED, and an all-zero spectrum is purely imaginary.

    Returns the (P, 2N) eigenvalues, each row sorted by (real, imaginary)
    part, the region of each slice, and its boundary flag: set when the
    label at ``tol / 2`` or ``2 * tol`` differs from the label at ``tol``,
    which flags slices sitting on a spectral transition.
    """
    _check_tol(tol)
    try:
        values = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"dense eigensolver failed: {exc}") from exc
    values = np.take_along_axis(values, np.lexsort((values.imag, values.real), axis=-1), axis=-1)
    codes, halved, doubled = (_label_rows(values, t)[0] for t in (tol, tol / 2, tol * 2))
    return values, [_REGIONS[c] for c in codes.tolist()], (halved != codes) | (doubled != codes)


def eigenspectrum(m: BdgMatrix) -> np.ndarray:
    """Eigenvalues of the dynamical matrix, sorted by (real, imaginary) part."""
    return spectrum_stack(m.data[None])[0][0]


def spectrum_report(m: BdgMatrix, tol: float = DEFAULT_REGION_TOL) -> SpectrumReport:
    """Eigensolve plus region classification, with a boundary-stability flag."""
    values, (region,), boundary = spectrum_stack(m.data[None], tol)
    return SpectrumReport(tuple(values[0].tolist()), region, bool(boundary[0]))


def jordan_structure(m: BdgMatrix, center: complex, tol: float = DEFAULT_RANK_TOL) -> tuple[int, ...]:
    """Jordan block sizes of the eigenvalue cluster at ``center``.

    Uses the rank staircase r_k = rank((M - center)^k): the number of blocks
    of size at least k equals r_{k-1} - r_k.  Ranks come from singular-value
    thresholding at ``tol * s1**k`` where s1 is the largest singular value of
    M - center; referencing the k-th power to s1**k keeps the threshold
    meaningful when the power itself collapses to rounding debris, as it does
    for nilpotent matrices.

    Returns block sizes sorted decreasing.  Sizes of eigenvalues far from
    ``center`` never enter the staircase, so the sizes sum to the algebraic
    multiplicity of the cluster.

    Raises
    ------
    RankAmbiguity
        If any singular value falls within a factor of 10 of the threshold,
        in which case the rank (and hence the block structure) cannot be
        trusted at this tolerance.
    OutOfRange
        If a threshold ``tol * s1**k`` overflows.
    """
    _check_tol(tol)
    size = m.size
    shifted = m.data - complex(center) * np.eye(size)
    s1 = float(np.linalg.norm(shifted, 2))
    ranks = [size]
    power = np.eye(size, dtype=complex)
    for k in range(1, size + 1):
        try:
            threshold = tol * s1**k
        except OverflowError as exc:
            raise OutOfRange(f"rank threshold tol * s1**{k} overflows at s1 = {s1:.3e}") from exc
        power = power @ shifted
        try:
            singular = np.linalg.svd(power, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise EigensolverFailure(f"SVD failed on power {k}: {exc}") from exc
        if threshold > 0:
            ambiguous = (singular > threshold / 10) & (singular < threshold * 10)
            if np.any(ambiguous):
                raise RankAmbiguity(
                    f"singular value {singular[ambiguous][0]:.3e} within a factor 10 "
                    f"of the rank threshold {threshold:.3e} at power {k}; "
                    "adjust the tolerance"
                )
        rank = int(np.sum(singular > threshold))
        if rank == ranks[-1]:
            break
        ranks.append(rank)
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    blocks: list[int] = []
    for k, count_ge in enumerate(at_least, start=1):
        exactly = count_ge - (at_least[k] if k < len(at_least) else 0)
        blocks.extend([k] * exactly)
    return tuple(sorted(blocks, reverse=True))


def _cluster_eigenvalues(values: np.ndarray, radius: float) -> list[np.ndarray]:
    """Single-linkage clustering of complex values at the given radius.

    The groups are the connected components of the within-radius graph,
    found by spreading the smallest (real, imaginary) rank along its edges;
    groups and their members come in (real, imaginary) order.
    """
    ordered = values[np.lexsort((values.imag, values.real))]
    n = len(ordered)
    near = (np.abs(ordered[:, None] - ordered[None, :]) <= radius) | np.eye(n, dtype=bool)
    labels = np.arange(n)
    while True:
        spread = np.where(near, labels, n).min(axis=1)
        if np.array_equal(spread, labels):
            break
        labels = spread
    # a group's label is its first member's index, so the labels in order are the roots
    return [ordered[labels == root] for root in np.flatnonzero(labels == np.arange(n))]


def detect_eps(m: BdgMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[EpCluster, ...]:
    """Find exceptional points: eigenvalue clusters with Jordan order >= 2.

    Eigenvalues are grouped by single-linkage at radius
    ``max(DEFAULT_CLUSTER_TOL, (2N eps)^(1/2N)) * max(1, ||M||)``.  The
    second term accounts for finite-precision scatter: a Jordan block of
    size k responds to perturbations of size eps by spreading its eigenvalue
    over a disk of radius eps^(1/k), so high-order coalescences always
    appear as clusters far wider than machine precision.  Over-grouping is harmless because the
    rank staircase is the arbiter: a group whose block sizes do not add up to
    its multiplicity is re-split at the bare ``DEFAULT_CLUSTER_TOL`` radius,
    and groups that end up diagonalizable are dropped.  Ranks are thresholded
    at ``rank_tol`` (see ``jordan_structure``).
    """
    values = eigenspectrum(m)
    size = m.size
    scale = max(1.0, float(np.linalg.norm(m.data, 2)))
    debris = float(size * np.finfo(float).eps) ** (1.0 / size)
    wide = max(DEFAULT_CLUSTER_TOL, debris) * scale
    tight = DEFAULT_CLUSTER_TOL * scale

    clusters: list[EpCluster] = []
    pending = _cluster_eigenvalues(values, wide)
    while pending:
        group = pending.pop()
        if len(group) < 2:
            continue
        center = complex(np.mean(group))
        blocks = jordan_structure(m, center, rank_tol)
        if sum(blocks) != len(group):
            # grouped too widely: genuinely distinct eigenvalues were merged
            if len(group) > 1 and wide > tight:
                sub = _cluster_eigenvalues(np.asarray(group), tight)
                if len(sub) > 1:
                    pending.extend(sub)
            continue
        if blocks and blocks[0] >= 2:
            clusters.append(
                EpCluster(
                    center=center,
                    algebraic_multiplicity=len(group),
                    jordan_blocks=blocks,
                )
            )
    clusters.sort(key=lambda c: (c.center.real, c.center.imag))
    return tuple(clusters)


def _signatures(m: np.ndarray, tol: float) -> list[tuple[Region, int, int]]:
    """Region label plus counts of real-axis and imaginary-axis eigenvalues, per slice.

    The counts change whenever an eigenvalue pair collides and leaves one of
    the axes, so they see transitions interior to the mixed region that the
    three-way label alone cannot.
    """
    values, regions, _ = spectrum_stack(m, tol)
    _, on_real, on_imag = _label_rows(values, tol)
    n_real = (on_real & ~on_imag).sum(axis=-1).tolist()
    n_imag = (on_imag & ~on_real).sum(axis=-1).tolist()
    return list(zip(regions, n_real, n_imag))


def locate_ep_1d(
    family: Callable[[float], ChainSpec],
    lo: float,
    hi: float,
    tol: float = 1e-6,
    region_tol: float = DEFAULT_REGION_TOL,
) -> tuple[float, ...]:
    """Locate spectral transition points of a one-parameter chain family.

    Labels 129 evenly spaced values of the parameter on [lo, hi], ends
    included, as one stack, computing for each the spectral signature
    (region label, number of real-axis eigenvalues, number of
    imaginary-axis eigenvalues), then bisects every signature change down
    to an interval of width ``tol`` and returns the sorted midpoints.
    Results closer than twice ``tol`` are merged: a grid point landing
    exactly on a transition produces a zero-width signature plateau whose
    two edges are the same physical point.

    Raises
    ------
    ConfigError
        If [lo, hi] is not a finite interval with lo < hi, or ``tol`` is
        not positive and finite.
    NoTransition
        If the signature is uniform across the whole scan.
    """
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        raise ConfigError(f"bad interval [{lo}, {hi}]")
    _check_tol(tol)
    grid = np.linspace(lo, hi, _LOCATE_GRID_POINTS)
    signatures = _signatures(spec_bdg_stack([family(float(x)) for x in grid]), region_tol)
    found: list[float] = []
    for a, b, sig_a, sig_b in zip(grid, grid[1:], signatures, signatures[1:]):
        if sig_a == sig_b:
            continue
        left, right = float(a), float(b)
        left_sig = sig_a
        while right - left > tol:
            mid = 0.5 * (left + right)
            (mid_sig,) = _signatures(spec_bdg_stack([family(mid)]), region_tol)
            if mid_sig == left_sig:
                left = mid
            else:
                right = mid
        found.append(0.5 * (left + right))
    if not found:
        raise NoTransition(f"no spectral transition of the family on [{lo}, {hi}]")
    found.sort()
    merged: list[list[float]] = []
    for x in found:
        if merged and x - merged[-1][-1] <= 2 * tol:
            merged[-1].append(x)
        else:
            merged.append([x])
    return tuple(float(np.mean(group)) for group in merged)


@dataclass(frozen=True)
class EsPoint:
    """One grid point of an exceptional-surface scan of a three-mode chain."""

    g1: float
    g2: float
    j1: float
    j2: float
    residual: float
    on_surface: bool
    ep_order: int
    block_sizes: tuple[int, ...]


def scan_exceptional_surface(
    g1_values: Iterable[float],
    g2_values: Iterable[float],
    j1_values: Iterable[float],
    j2_values: Iterable[float],
    tol: float = 1e-9,
    detect_everywhere: bool = False,
) -> list[EsPoint]:
    """Scan three-mode chains for the coalescence surface g1^2+g2^2 = J1^2+J2^2.

    For every grid combination the residual ``|g1^2 + g2^2 - J1^2 - J2^2|``
    is evaluated; where it is at most ``tol`` (finite and nonnegative, else
    ``ConfigError``), or always with ``detect_everywhere``, ``detect_eps``
    runs at its default rank tolerance, and the point records the highest
    Jordan order found and that cluster's block sizes: order 3 on the
    surface proper, order 2 at the arc point g1 = J1, g2 = J2.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ConfigError(f"surface tolerance must be nonnegative and finite, got {tol}")
    # float64 axes: a square past the float range is inf here, not an OverflowError
    axes = [np.asarray(list(values), dtype=np.float64)
            for values in (g1_values, g2_values, j1_values, j2_values)]
    points: list[EsPoint] = []
    for g1, g2, j1, j2 in itertools.product(*axes):
        with np.errstate(over="ignore"):  # an overflowed square: an infinite residual
            residual = abs(g1**2 + g2**2 - j1**2 - j2**2)
        on_surface = residual <= tol
        order = 0
        blocks: tuple[int, ...] = ()
        if on_surface or detect_everywhere:
            spec = ChainSpec(
                n_modes=3, hopping=(complex(g1), complex(g2)),
                pairing=(float(j1), float(j2)), sms=0,
            )
            eps = detect_eps(build_bdg_matrix(spec))
            if eps:
                best = max(eps, key=lambda c: c.order)
                order = best.order
                blocks = best.jordan_blocks
        points.append(
            EsPoint(
                g1=float(g1), g2=float(g2), j1=float(j1), j2=float(j2),
                residual=float(residual), on_surface=bool(on_surface),
                ep_order=order, block_sizes=blocks,
            )
        )
    return points
