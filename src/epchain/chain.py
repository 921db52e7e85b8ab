"""Chain specifications and their linear-dynamics generators.

An N-mode bosonic chain couples neighbouring modes through beam-splitter
(hopping) and two-mode-squeezing (pairing) interactions, with optional
single-mode squeezing on each site:

    H = sum_j eta_j/2 * a_j^2 + sum_j (g_j a_j+ a_{j+1} + J_j a_j+ a_{j+1}+)
        + h.c.

The Heisenberg equations of motion close on the vector Phi = [a, a+], giving
i d/dt Phi = M Phi with a 2N x 2N block matrix M = [[A, B], [-B*, -A*]].
This module validates parameter records, builds M, and converts it to the
real generator K of the quadrature dynamics d/dt beta = K beta in the
interleaved ordering beta = (X1, P1, ..., XN, PN).  ``bdg_stack`` and
``generator_stack`` build M and K for a whole stack of same-size chains at
once, and ``spec_bdg_stack`` feeds ``bdg_stack`` a sequence of specs;
``build_bdg_matrix`` and ``quadrature_generator`` are their one-slice case.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ImaginaryResidual,
    LengthMismatch,
    NonFiniteParameter,
    NonPositiveN,
)

__all__ = [
    "ChainSpec",
    "BdgMatrix",
    "RealGenerator",
    "symplectic_form",
    "build_chain_spec",
    "build_bdg_matrix",
    "quadrature_generator",
    "bdg_stack",
    "spec_bdg_stack",
    "generator_stack",
    "particle_hole_residual",
]

_CHAIN_KEYS = ("n", "g", "phi", "J", "eta")


@functools.lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form, a direct sum of [[0, 1], [-1, 0]].

    The matrix is cached per N and read-only; copy it before writing.
    """
    size = 2 * n_modes
    omega = np.zeros((size, size))
    # entries (2j, 2j+1) and (2j+1, 2j) lie 2 * size + 2 apart in the
    # flattened matrix
    flat = omega.reshape(-1)
    flat[1 :: 2 * size + 2] = 1.0
    flat[size :: 2 * size + 2] = -1.0
    omega.setflags(write=False)
    return omega


def _check_mode_count(n_modes) -> int:
    if isinstance(n_modes, bool) or not isinstance(n_modes, (int, np.integer)):
        raise NonPositiveN(f"n_modes must be a positive integer, got {n_modes!r}")
    if n_modes < 1:
        raise NonPositiveN(f"n_modes must be a positive integer, got {n_modes}")
    return int(n_modes)


def _uniform_hopping(g, phi) -> complex:
    return complex(g) * cmath.exp(1j * phi)


def _is_scalar(value) -> bool:
    return np.isscalar(value) or (isinstance(value, np.ndarray) and value.ndim == 0)


def _as_tuple(value, length: int, name: str, dtype) -> tuple:
    """Coerce a scalar (broadcast) or exact-length sequence to a tuple."""
    if isinstance(value, (list, tuple, np.ndarray)) and not _is_scalar(value) and len(value) == 0:
        value = 0  # empty sequence means "all zeros"
    try:
        if _is_scalar(value):
            arr = np.full(length, value, dtype=dtype)
        else:
            arr = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not convertible to {dtype.__name__}: {exc}") from exc
    if arr.shape != (length,):
        raise LengthMismatch(f"{name} must have length {length}, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise NonFiniteParameter(f"{name} contains NaN or infinite entries")
    return tuple(arr.tolist())


@dataclass(frozen=True)
class ChainSpec:
    """Validated parameter record for an open N-mode chain.

    Attributes
    ----------
    n_modes:
        Number of modes N (at least 1).
    hopping:
        N-1 complex beam-splitter rates, one per bond; the phase of each
        entry is the hopping phase on that bond.
    pairing:
        N-1 nonnegative two-mode-squeezing rates, one per bond.
    sms:
        N single-mode-squeezing rates, one per site.  Real in all bundled
        experiments; complex values are accepted and conjugated where the
        equations of motion require.
    """

    n_modes: int
    hopping: tuple[complex, ...] = field(default=())
    pairing: tuple[float, ...] = field(default=())
    sms: tuple[complex, ...] = field(default=())

    def __post_init__(self):
        n = _check_mode_count(self.n_modes)
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "hopping", _as_tuple(self.hopping, n - 1, "hopping", complex))
        object.__setattr__(self, "pairing", _as_tuple(self.pairing, n - 1, "pairing", float))
        object.__setattr__(self, "sms", _as_tuple(self.sms, n, "sms", complex))
        if any(j < 0 for j in self.pairing):
            raise ConfigError("pairing rates must be nonnegative")

    @classmethod
    def uniform(cls, n_modes: int, g: float = 0.0, j: float = 0.0,
                eta: float = 0.0, phi: float = 0.0) -> "ChainSpec":
        """Build a chain with identical rates on every bond and site."""
        return cls(
            n_modes=n_modes,
            hopping=_uniform_hopping(g, phi),
            pairing=float(j),
            sms=complex(eta),
        )


def build_chain_spec(config: Mapping) -> ChainSpec:
    """Validate a parameter record and expand scalars to full sequences.

    The record uses the keys ``n`` (required), ``g``, ``phi``, ``J`` and
    ``eta``; each of the last four may be a scalar (broadcast) or a sequence
    of the required length (N-1 for bond quantities, N for ``eta``).  The
    hopping rates are assembled as g * exp(i phi) per bond.
    """
    if not isinstance(config, Mapping):
        raise ConfigError(f"chain config must be a mapping, got {type(config).__name__}")
    unknown = set(config) - set(_CHAIN_KEYS)
    if unknown:
        raise ConfigError(f"unknown chain config keys: {sorted(unknown)}")
    if "n" not in config:
        raise ConfigError("chain config is missing the mode count 'n'")
    n = _check_mode_count(config["n"])
    bonds = n - 1
    g = _as_tuple(config.get("g", 0.0), bonds, "g", float)
    phi = _as_tuple(config.get("phi", 0.0), bonds, "phi", float)
    pairing = _as_tuple(config.get("J", 0.0), bonds, "J", float)
    sms = _as_tuple(config.get("eta", 0.0), n, "eta", complex)
    hopping = tuple(gv * cmath.exp(1j * pv) for gv, pv in zip(g, phi))
    return ChainSpec(n_modes=n, hopping=hopping, pairing=pairing, sms=sms)


@dataclass(frozen=True)
class BdgMatrix:
    """The 2N x 2N dynamical matrix M = [[A, B], [-B*, -A*]].

    A (Hermitian) collects the hopping couplings and B (symmetric) the
    squeezing couplings; see :func:`bdg_stack`.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2:
            raise ConfigError(f"dynamical matrix must be square and even-sized, got {data.shape}")
        if not (np.all(np.isfinite(data.real)) and np.all(np.isfinite(data.imag))):
            raise NonFiniteParameter("dynamical matrix contains NaN or infinite entries")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def size(self) -> int:
        return self.data.shape[0]

    @property
    def n_modes(self) -> int:
        return self.size // 2


def bdg_stack(hopping, pairing, sms) -> np.ndarray:
    """Assemble the dynamical matrices of a stack of same-size chains.

    ``hopping`` holds P rows of N-1 complex bond rates; ``pairing`` (N-1
    bond rates per row) and ``sms`` (N site rates per row) broadcast
    against it, so a scalar applies to every bond or site of every chain.
    Collecting the coefficient of each operator in i d a_j/dt = [a_j, H]
    row by row gives

        A[j, j+1] = g_j,      A[j+1, j] = conj(g_j),
        B[j, j]   = conj(eta_j),
        B[j, j+1] = B[j+1, j] = J_j,

    and the adjoint equations fix the lower half to [-B*, -A*].  A is
    Hermitian and B symmetric exactly, entry by entry.  Returns the
    (P, 2N, 2N) complex stack; the rates are checked as ``ChainSpec``
    checks them, with its errors.
    """
    hop = np.asarray(hopping, dtype=complex)
    if hop.ndim != 2:
        raise ConfigError(f"hopping must be a 2-d stack of bond rates, got shape {hop.shape}")
    pair = np.asarray(pairing, dtype=float)
    site = np.asarray(sms, dtype=complex)
    for name, rates in (("hopping", hop), ("pairing", pair), ("sms", site)):
        if not np.isfinite(rates).all():
            raise NonFiniteParameter(f"{name} contains NaN or infinite entries")
    if (pair < 0).any():
        raise ConfigError("pairing rates must be nonnegative")
    count, n = hop.shape[0], hop.shape[1] + 1
    # every rate lands on a zero entry as 0 + rate, so signed zeros in the
    # rates come out as +0.0; in the flattened n x n blocks the diagonal
    # starts at 0, the superdiagonal at 1 and the subdiagonal at n, each
    # with stride n + 1
    a = np.zeros((count, n, n), dtype=complex)
    b = np.zeros((count, n, n), dtype=complex)
    flat_a, flat_b = a.reshape(count, n * n), b.reshape(count, n * n)
    flat_a[:, 1 :: n + 1] = hop + 0.0
    flat_a[:, n :: n + 1] = hop.conj() + 0.0
    flat_b[:, 1 :: n + 1] = pair + 0.0
    flat_b[:, n :: n + 1] = pair + 0.0
    flat_b[:, :: n + 1] = site.conj() + 0.0
    m = np.empty((count, 2 * n, 2 * n), dtype=complex)
    m[:, :n, :n] = a
    m[:, :n, n:] = b
    m[:, n:, :n] = -b.conj()
    m[:, n:, n:] = -a.conj()
    return m


def spec_bdg_stack(specs: Sequence[ChainSpec]) -> np.ndarray:
    """``bdg_stack`` of a sequence of same-size chain specs, in order."""
    for spec in specs[1:]:
        if spec.n_modes != specs[0].n_modes:
            raise ConfigError(
                f"chain specs must share one size, got N={specs[0].n_modes} and N={spec.n_modes}"
            )
    return bdg_stack([s.hopping for s in specs], [s.pairing for s in specs], [s.sms for s in specs])


def build_bdg_matrix(spec: ChainSpec) -> BdgMatrix:
    """Assemble the dynamical matrix of the chain's Heisenberg equations.

    The one-chain case of :func:`spec_bdg_stack`.
    """
    return BdgMatrix(data=spec_bdg_stack([spec])[0])


@dataclass(frozen=True)
class RealGenerator:
    """Real matrix K generating d/dt beta = K beta in quadrature ordering."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2:
            raise ConfigError(f"generator must be square and even-sized, got {data.shape}")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def size(self) -> int:
        return self.data.shape[0]

    @property
    def n_modes(self) -> int:
        return self.size // 2


def generator_stack(m) -> np.ndarray:
    """Real quadrature generators K of a (P, 2N, 2N) stack of dynamical matrices.

    With X = (a + a+)/sqrt(2) and P = -i(a - a+)/sqrt(2), the basis change
    U Phi = (X1..XN, P1..PN) turns i d/dt Phi = M Phi into d/dt beta = K beta
    with K = -i U M U^-1, which is real whenever M has the block structure
    produced by :func:`bdg_stack`.  The spectrum of K is -i times the
    spectrum of M.  Returns the (P, 2N, 2N) stack of K in the interleaved
    ordering.

    Raises
    ------
    ImaginaryResidual
        For the first slice whose transformed generator has an entry with
        imaginary part above 1e-12 relative to its magnitude scale,
        indicating that the input was not a valid dynamical matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] % 2:
        raise ConfigError(f"dynamical matrices must be a stack of square even-sized matrices, "
                          f"got shape {m.shape}")
    n = m.shape[1] // 2
    ident = np.eye(n)
    u = np.block([[ident, ident], [-1j * ident, 1j * ident]]) / np.sqrt(2.0)
    u_inv = np.block([[ident, 1j * ident], [ident, -1j * ident]]) / np.sqrt(2.0)
    k_block = -1j * (u @ m @ u_inv)
    scale = np.fmax(1.0, np.abs(k_block).max(axis=(1, 2), initial=0.0))
    residual = np.abs(k_block.imag).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(residual > 1e-12 * scale)
    if bad.size:
        p = bad[0]
        raise ImaginaryResidual(
            f"quadrature generator has imaginary residual {float(residual[p]):.3e} "
            f"(scale {float(scale[p]):.3e}); the input is not a valid dynamical matrix"
        )
    # (X1..XN, P1..PN) read as (X1, P1, ...); + 0.0 turns -0.0 into +0.0, as a matmul does
    r = np.arange(2 * n)
    order = r // 2 + (r % 2) * n
    return k_block.real[:, order[:, None], order] + 0.0


def quadrature_generator(m: BdgMatrix) -> RealGenerator:
    """Convert the mode-operator dynamics to the real quadrature generator.

    The one-matrix case of :func:`generator_stack`.

    Raises
    ------
    ImaginaryResidual
        If the input is not a valid dynamical matrix; see
        :func:`generator_stack`.
    """
    return RealGenerator(data=generator_stack(m.data[None])[0])


def particle_hole_residual(m: BdgMatrix) -> float:
    """Max-entry residual of the particle-hole symmetry Sx M Sx + M* = 0."""
    n = m.n_modes
    swap = np.zeros((2 * n, 2 * n))
    swap[:n, n:] = np.eye(n)
    swap[n:, :n] = np.eye(n)
    return float(np.abs(swap @ m.data @ swap + m.data.conj()).max())
