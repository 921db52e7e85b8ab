"""Shared test helpers, hypothesis strategies and per-cell references."""

import math

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from epchain import ChainSpec, EntanglementResult, dynamics, entanglement, symplectic_form
from epchain.errors import (
    AsymmetricInput,
    ConfigError,
    EpchainError,
    InvalidBipartition,
    OverflowRisk,
    PrecisionLoss,
)


def assert_multiset_close(actual, expected, tol, label=""):
    """Assert two complex multisets match under an optimal pairing."""
    a = np.asarray(actual, dtype=complex)
    b = np.asarray(expected, dtype=complex)
    assert a.shape == b.shape, f"{label}: sizes differ, {a.shape} vs {b.shape}"
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    assert worst <= tol, f"{label}: multiset mismatch {worst:.3e} > {tol:.1e}"


@st.composite
def chain_specs(draw, max_n=6, min_n=1):
    """Random valid chain specifications with bounded rates."""
    n = draw(st.integers(min_n, max_n))
    rate = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    angle = st.floats(0.0, 2.0 * np.pi, allow_nan=False, allow_infinity=False)
    positive = st.floats(0.0, 1.5, allow_nan=False, allow_infinity=False)
    hopping = tuple(
        draw(rate) * np.exp(1j * draw(angle)) for _ in range(n - 1)
    )
    pairing = tuple(draw(positive) for _ in range(n - 1))
    sms = tuple(complex(draw(rate)) for _ in range(n))
    return ChainSpec(n_modes=n, hopping=hopping, pairing=pairing, sms=sms)


@st.composite
def spec_stacks(draw):
    """Stacks of 1 to 4 random chain specifications of one size."""
    spec = draw(chain_specs())
    n = spec.n_modes
    return [spec] + draw(st.lists(chain_specs(min_n=n, max_n=n), max_size=3))


# ---------------------------------------------------------------------------
# the per-cell witness pipeline, kept as an independent reference for the
# stacked kernel that ``propagator``, ``evolve``, ``symplectic_eigenvalues``
# and ``entanglement_result`` are the one-cell case of; the tolerances are
# read from ``dynamics`` and ``entanglement`` at call time, so a
# monkeypatched one applies to both


def reference_propagator(k, t):
    """S = exp(K t) for a RealGenerator, with the overflow and symplectic checks."""
    if not np.isfinite(t):
        raise ConfigError(f"time must be finite, got {t}")
    omega = symplectic_form(k.n_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        kt = k.data * t
        s = expm(kt) if np.isfinite(kt).all() else None
        if s is None or not (np.isfinite(s).all() and np.isfinite(s @ omega @ s.T).all()):
            raise OverflowRisk(f"propagator at t={t} overflows double precision")
    return reference_symplectic_check(s, t)


def reference_symplectic_check(s, t):
    """s itself, once its symplectic residual is within 1e-10 (1 + ||S||_2^2) by an SVD."""
    omega = symplectic_form(len(s) // 2)
    residual = float(np.abs(s @ omega @ s.T - omega).max())
    scale = 1.0 + float(np.linalg.norm(s, 2)) ** 2
    if residual > dynamics._SYMPLECTIC_RTOL * scale:
        raise EpchainError(f"propagator lost symplecticity: residual {residual:.3e} at t={t}")
    return s


def reference_evolve(state, k, t):
    """The covariance S sigma S^T of a GaussianState, checked bona fide."""
    if k.n_modes != state.n_modes:
        raise ConfigError(
            f"generator is for {k.n_modes} modes but the state has {state.n_modes}"
        )
    s = reference_propagator(k, t)
    with np.errstate(over="ignore", invalid="ignore"):
        cm = s @ state.cm @ s.T
        cm = 0.5 * (cm + cm.T)
    if not np.isfinite(cm).all():
        raise OverflowRisk(f"covariance at t={t} overflows double precision")
    return reference_bona_fide_check(cm)


def reference_half_log_det(state):
    """1/2 ln det sigma_0 from the eigenvalues of the initial covariance."""
    return 0.5 * math.fsum(math.log(v) for v in np.linalg.eigvalsh(state.cm))


def reference_bona_fide_check(cm):
    """cm itself, once the eigvalsh of sigma + i Omega shows it bona fide."""
    norm = float(np.abs(cm).max())
    lowest = float(np.linalg.eigvalsh(cm + 1j * symplectic_form(len(cm) // 2)).min())
    if lowest < -max(dynamics._BONA_FIDE_ATOL, dynamics._BONA_FIDE_RTOL * norm):
        raise ConfigError(
            f"not a bona fide covariance matrix: min eig(sigma + i Omega) = {lowest:.3e}"
        )
    return cm


def reference_symplectic_eigenvalues(sigma):
    """Ascending symplectic eigenvalues of one symmetric positive-definite matrix."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise AsymmetricInput(f"expected an even-sized square matrix, got {sigma.shape}")
    asym = float(np.abs(sigma - sigma.T).max())
    if asym > 1e-12 * max(1.0, float(np.abs(sigma).max())):
        raise AsymmetricInput(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    n = sigma.shape[0] // 2
    omega = symplectic_form(n)
    try:
        chol = np.linalg.cholesky(0.5 * (sigma + sigma.T))
        values = np.linalg.eigvalsh(1j * (chol.T @ omega @ chol))[n:]
    except np.linalg.LinAlgError:
        values = np.zeros(n)
    if (values <= 0.0).any():
        raise PrecisionLoss("a matrix is not positive definite in floating point: "
                            "the witness has lost all precision")
    return values


def reference_entanglement_result(cm, part, half_log_det=None):
    """EntanglementResult of a covariance matrix across a bipartition.

    With the initial state's half_log_det, a spectrum whose logs sum further
    than the witness's bound from it is refused, as det S = 1 forbids it.
    """
    n = len(cm) // 2
    if part.n_modes != n:
        raise InvalidBipartition(
            f"partition is for {part.n_modes} modes but the state has {n}"
        )
    signs = np.ones(2 * n)
    for mode in part.side_b:
        signs[2 * mode + 1] = -1.0
    values = reference_symplectic_eigenvalues(signs[:, None] * cm * signs[None, :])
    if half_log_det is not None:
        drift = abs(math.fsum(math.log(v) for v in values) - half_log_det)
        if not drift <= entanglement._INVARIANT_TOL:
            raise PrecisionLoss(
                f"the symplectic eigenvalues break det S = 1: their logs sum {drift:.3g} off "
                "1/2 ln det sigma_0; the witness has lost precision"
            )
    neg = float(-np.sum(np.log(values[values < 1.0]))) if np.any(values < 1.0) else 0.0
    return EntanglementResult(
        partition=part,
        symplectic_eigenvalues_pt=tuple(values.tolist()),
        nu_minus=float(values[0]),
        log_negativity=max(neg, 0.0),
    )
