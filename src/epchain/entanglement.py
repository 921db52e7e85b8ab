"""Bipartite entanglement witnesses for Gaussian states of the chain.

Entanglement across a bipartition is detected with the positive partial
transpose test in its covariance-matrix form: flipping the sign of the P
quadratures of one side maps sigma to sigma~ = Theta sigma Theta, and the
state is entangled exactly when the smallest symplectic eigenvalue nu_- of
sigma~ drops below 1.  The logarithmic negativity -sum ln(nu~_k) over the
eigenvalues below 1 quantifies the violation.

Besides the numeric pipeline (build the chain, transport the vacuum
covariance, partial-transpose, Cholesky-factor (or refuse), eigensolve;
``witness_stack`` runs it on a stack of covariances, the fig2, fig4 and
entangle sweeps run its core on their own exactly symmetric stacks without
its input checks, and ``entanglement_result`` and ``symplectic_eigenvalues``
are its one-matrix case), the module carries closed-form witnesses for
three reference families: the two-mode chain without on-site squeezing,
the uniform chain at g = J with an arbitrary hopping phase (whose invariant
is a polynomial in t with exact, phase-independent coefficients; fig3 and
its ratio fit are computed from it alone), and the three-mode chain on its
coalescence surface.

det S = 1 gives every cut of a transported state prod nu~_k =
sqrt(det sigma_0); ``witness_stack`` and ``chain_nu_minus`` refuse a
spectrum off it (``PrecisionLoss``), where rounding has eaten the witness;
a stack's refusal is its first refused matrix's own, which the kernel gets
as a value, with the witnesses of the matrices before it.
``chain_nu_minus`` is one cell of entangle's route table
(``sweeps._spec_map``), so its value and its refusals are that cell's.

Two families need no kernel, each decided from the spec's fields:
- the two-mode chain with real hopping and equal, real on-site squeezing
  (``_two_mode_rates``): its K splits into two traceless 2x2 blocks, whose
  exponentials are closed forms, and ``_two_mode_witness`` gives nu_- and
  E_N of a whole stack of cells exactly;
- the one-quadrature chain, N >= 3 with no on-site squeezing and real
  hopping h_b = J_b on every bond or h_b = -J_b on every bond
  (``_one_quadrature_bonds``): K^2 = 0, S = I + K t, and
  ``_one_quadrature_witness`` gives every cut's witness at all times from
  the singular values of the cut's bond matrix.
Neither runs a matrix exponential or an eigensolve.  fig2 takes the first
for its grid, and ``chain_nu_minus`` and entangle take either for such a
chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain import ChainSpec, symplectic_form
from .dynamics import GaussianState, _symmetrized
from .errors import (
    AsymmetricInput,
    ConfigError,
    DivisionByZeroLog,
    InvalidBipartition,
    OutOfRange,
    OverflowRisk,
    PrecisionLoss,
)

__all__ = [
    "Bipartition",
    "EntanglementResult",
    "partial_transpose",
    "symplectic_eigenvalues",
    "entanglement_result",
    "witness_stack",
    "nu_minus",
    "chain_nu_minus",
    "bkc_nu_minus",
    "nu_from_xi",
    "xi_from_nu",
    "nu_closed_form_two_mode",
    "xi_series_coefficients",
    "nu_closed_form_bkc_ep",
    "nu_closed_form_three_mode_nonuniform",
    "three_mode_surface_spec",
    "enhancement_ratio",
]

# |sum ln nu~_k - 1/2 ln det sigma_0| that refuses a witness; presets stay within 1.1e-4
_INVARIANT_TOL = 1e-2


@dataclass(frozen=True)
class Bipartition:
    """A two-sided split of the chain's modes (0-based indices).

    Labels use 1-based mode numbers with the two sides separated by ``|``,
    e.g. ``"13|2"`` puts modes 1 and 3 on side A and mode 2 on side B.
    Commas are accepted for chains with ten or more modes (``"1,12|..."``).
    """

    n_modes: int
    side_a: frozenset[int]
    side_b: frozenset[int]

    def __post_init__(self):
        a, b = frozenset(self.side_a), frozenset(self.side_b)
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)
        modes = set(range(self.n_modes))
        if not a or not b:
            raise InvalidBipartition("both sides of a bipartition must be non-empty")
        if a & b:
            raise InvalidBipartition(f"sides overlap on modes {sorted(a & b)}")
        if a | b != modes:
            raise InvalidBipartition(
                f"sides cover {sorted(a | b)} but the chain has modes {sorted(modes)}"
            )

    @classmethod
    def from_sides(cls, n_modes: int, side_a: Sequence[int]) -> "Bipartition":
        a = frozenset(int(i) for i in side_a)
        if any(i < 0 or i >= n_modes for i in a):
            raise InvalidBipartition(f"mode indices {sorted(a)} out of range for N={n_modes}")
        return cls(n_modes=n_modes, side_a=a, side_b=frozenset(range(n_modes)) - a)

    @classmethod
    def from_label(cls, label: str, n_modes: int) -> "Bipartition":
        if not isinstance(label, str):
            raise InvalidBipartition(f"label {label!r} must be a string like '13|2'")
        parts = label.split("|")
        if len(parts) != 2:
            raise InvalidBipartition(f"label {label!r} must contain exactly one '|'")

        def parse(side: str) -> frozenset[int]:
            tokens = side.split(",") if "," in side else list(side)
            try:
                indices = [int(tok) - 1 for tok in tokens if tok]
            except ValueError as exc:
                raise InvalidBipartition(f"bad mode token in {side!r}") from exc
            return frozenset(indices)

        a, b = parse(parts[0]), parse(parts[1])
        if any(i < 0 or i >= n_modes for i in a | b):
            raise InvalidBipartition(f"label {label!r} is out of range for N={n_modes}")
        return cls(n_modes=n_modes, side_a=a, side_b=b)

    @classmethod
    def one_vs_rest(cls, n_modes: int, mode: int = 0) -> "Bipartition":
        return cls.from_sides(n_modes, [mode])

    @property
    def label(self) -> str:
        def render(side: frozenset[int]) -> str:
            names = [str(i + 1) for i in sorted(side)]
            return ",".join(names) if self.n_modes > 9 else "".join(names)

        return f"{render(self.side_a)}|{render(self.side_b)}"


@dataclass(frozen=True)
class EntanglementResult:
    """Partial-transpose symplectic spectrum and derived witnesses.

    ``nu_minus`` is the smallest value of the spectrum and
    ``log_negativity`` is -sum ln(nu~_k) over nu~_k < 1 (natural log).
    """

    partition: Bipartition
    symplectic_eigenvalues_pt: tuple[float, ...]
    nu_minus: float
    log_negativity: float


def partial_transpose(state: GaussianState, part: Bipartition) -> np.ndarray:
    """Covariance matrix with the P quadratures of side B sign-flipped.

    Works for non-contiguous sides by per-mode sign flips; no reordering.
    """
    if part.n_modes != state.n_modes:
        raise InvalidBipartition(
            f"partition is for {part.n_modes} modes but the state has {state.n_modes}"
        )
    return state.cm * _flip_signs(part)


def _flip_signs(part: Bipartition) -> np.ndarray:
    """Theta_i Theta_j, with Theta = -1 on the P quadratures of side B, else +1."""
    signs = np.ones(2 * part.n_modes)
    for mode in part.side_b:
        signs[2 * mode + 1] = -1.0
    return np.outer(signs, signs)


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """The N symplectic eigenvalues of a symmetric positive-definite matrix, ascending.

    Williamson's theorem (Am. J. Math. 58, 141 (1936)) gives such a sigma N
    positive ones: the upper half of the spectrum of the Hermitian matrix
    i L^T Omega L, L the Cholesky factor of sigma.  A matrix Cholesky cannot
    factor, or a value that comes out not positive, raises ``PrecisionLoss``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise AsymmetricInput(f"expected an even-sized square matrix, got {sigma.shape}")
    return _spectra(_symmetrized(sigma[None], "matrix"))[0]


def _spectra(sigmas: np.ndarray) -> np.ndarray:
    """``symplectic_eigenvalues`` of each matrix of a symmetric (C, 2N, 2N) stack."""
    n = sigmas.shape[1] // 2
    try:
        chol = np.linalg.cholesky(sigmas)
    except np.linalg.LinAlgError:
        values = None
    else:
        values = np.linalg.eigvalsh(1j * (chol.transpose(0, 2, 1) @ symplectic_form(n) @ chol))[:, n:]
    if values is None or (values <= 0.0).any():
        raise PrecisionLoss("a matrix is not positive definite in floating point: "
                            "the witness has lost all precision")
    return values


def _witnesses(pt: np.ndarray, half_log_det: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic spectra and E_N of a finite, exactly symmetric stack of partial
    transposes (refused off half_log_det)."""
    values = _spectra(pt)
    if half_log_det is not None:
        drift = np.abs(np.sum(np.log(values), axis=1) - half_log_det)
        broken = drift[~(drift <= _INVARIANT_TOL)]
        if broken.size:
            raise PrecisionLoss(
                f"the symplectic eigenvalues break det S = 1: their logs sum {broken[0]:.3g} off "
                "1/2 ln det sigma_0; the witness has lost precision")
    # E_N sums the logs of each row's values below 1 as one contiguous run,
    # so numpy's pairwise summation groups them as for a single row
    below = values < 1.0
    counts = below.sum(axis=1)
    neg = np.zeros(len(values))
    # the distinct positive counts, ascending
    for count in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        rows = counts == count
        neg[rows] = -np.sum(np.log(values[rows][below[rows]].reshape(-1, count)), axis=1)
    return values, np.where(0.0 > neg, 0.0, neg)


def entanglement_result(state: GaussianState, part: Bipartition) -> EntanglementResult:
    """Partial-transpose spectrum, nu_-, and logarithmic negativity in one pass.

    Raises ``PrecisionLoss`` where the partial transpose is not positive definite.
    """
    values, neg = _witnesses(_symmetrized(partial_transpose(state, part)[None], "matrix"))
    return EntanglementResult(
        partition=part,
        symplectic_eigenvalues_pt=tuple(values[0].tolist()),
        nu_minus=float(values[0, 0]),
        log_negativity=float(neg[0]),
    )


def witness_stack(
    cms: np.ndarray, part: Bipartition, half_log_det: float
) -> tuple[np.ndarray, np.ndarray]:
    """nu_- and E_N for a stack of covariances transported from one sigma_0,
    as ``entanglement_result`` gives them matrix by matrix.

    The whole (C, 2N, 2N) stack is sign-flipped into its partial transpose
    and goes through one stacked Cholesky factor L and the eigenvalues of
    i L^T Omega L.  Returns (nu_minus, log_negativity) arrays; raises the
    first refused matrix's own ``PrecisionLoss``: it has no Cholesky factor,
    a symplectic eigenvalue that is not positive, or logs that sum more than
    1e-2 off ``half_log_det`` = 1/2 ln det sigma_0.
    """
    cms = np.asarray(cms, dtype=float)
    n = part.n_modes
    if cms.ndim != 3 or cms.shape[1:] != (2 * n, 2 * n):
        raise InvalidBipartition(
            f"partition is for {n} modes but the covariances have shape {cms.shape}"
        )
    # symmetrized before the sign flips: the same bits and errors as after them
    nu, neg, refusal = _cut_witnesses(_symmetrized(cms, "matrix"), part, half_log_det)
    if refusal is not None:
        raise refusal
    return nu, neg


def _cut_witnesses(
    cms: np.ndarray, part: Bipartition, half_log_det: float
) -> tuple[np.ndarray, np.ndarray, PrecisionLoss | None]:
    """``witness_stack`` of a finite, exactly symmetric stack, such as ``evolve_grid``'s,
    without its input checks: (nu_minus, log_negativity) over the matrices
    before the first refused one, and that matrix's own ``PrecisionLoss``
    (None if none)."""
    pt = cms * _flip_signs(part)
    try:
        values, neg = _witnesses(pt, half_log_det)
        return values[:, 0], neg, None
    except PrecisionLoss as exc:
        refusal = exc
    # the stacked Cholesky refuses a stack as a whole; a matrix alone gets the bits
    # and refusal it gets in the stack, so it is found one matrix at a time
    for stop in range(len(pt)):
        try:
            _witnesses(pt[stop : stop + 1], half_log_det)
        except PrecisionLoss as exc:
            refusal = exc
            break
    values, neg = _witnesses(pt[:stop], half_log_det)
    return values[:, 0], neg, refusal


def nu_minus(state: GaussianState, part: Bipartition) -> float:
    """Smallest symplectic eigenvalue of the partial transpose; < 1 means entangled."""
    return entanglement_result(state, part).nu_minus


# ---------------------------------------------------------------------------
# the two-mode chain in closed form

# |(mu t)^2| below which a block's c and s are summed as series in it: the
# first term left out, x^4 / 8!, is below 2.5e-17
_SERIES_LIMIT = 1e-3


def _two_mode_rates(spec: ChainSpec) -> tuple[float, float, float] | None:
    """(h, J, eta) of a two-mode chain with real hopping h and equal, real on-site
    squeezing eta, which ``_two_mode_witness`` takes exactly; None for any other chain."""
    if spec.n_modes != 2:
        return None
    (h,), (j,), (eta, eta_2) = spec.hopping, spec.pairing, spec.sms
    if h.imag != 0.0 or eta.imag != 0.0 or eta != eta_2:
        return None
    return h.real, j, eta.real


def _block_exponential(upper, lower) -> tuple[np.ndarray, ...]:
    """x = upper lower = (mu t)^2, |mu t|, and c and s of e^B = c I + s B, for
    B = [[0, upper], [lower, 0]] (entries of K t).

    c = cosh(mu t) and s = sinh(mu t)/(mu t) where x > 0, cos and sin of
    |mu t| where x < 0, with |mu t| = sqrt|upper| sqrt|lower|, which
    overflows only where an entry does.  Where |x| < 1e-3 both are series in
    x, which hold at the EP, x = 0.
    """
    x = upper * lower
    z = np.sqrt(abs(upper)) * np.sqrt(abs(lower))
    growing = x > 0.0
    c = np.where(growing, np.cosh(z), np.cos(z))
    s = np.where(growing, np.sinh(z), np.sin(z)) / z
    series = abs(x) < _SERIES_LIMIT
    c = np.where(series, 1.0 + x * (1.0 / 2.0 + x * (1.0 / 24.0 + x / 720.0)), c)
    s = np.where(series, 1.0 + x * (1.0 / 6.0 + x * (1.0 / 120.0 + x / 5040.0)), s)
    return x, z, c, s


def _two_mode_blocks(h, j, eta, t) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(upper, lower, x, z, c, s) of K+ t and of K- t, per cell of h and t
    broadcast: the block's off-diagonal entries and their ``_block_exponential``.

    In the basis X+- = (X1 +- X2)/sqrt(2), P+- alike, K splits into the
    traceless blocks K+ = [[0, h - (J + eta)], [-h - (J + eta), 0]] and
    K- = [[0, (J - eta) - h], [h + (J - eta), 0]], so e^{K+- t} is
    c I + s K+- t.
    """
    entries = (((h - (j + eta)) * t, (-h - (j + eta)) * t),
               (((j - eta) - h) * t, (h + (j - eta)) * t))
    return tuple((upper, lower, *_block_exponential(upper, lower)) for upper, lower in entries)


def _times(coefficient, *factors) -> np.ndarray:
    """coefficient * factors, left to right, and exactly 0 where the coefficient
    is: a factor that overflowed to inf stands for a finite one, so 0 * inf,
    NaN in floats, is 0."""
    product = coefficient
    for factor in factors:
        product = product * factor
    return np.where(coefficient == 0.0, 0.0, product)


def _two_mode_witness(h, j, eta, t) -> tuple[np.ndarray, np.ndarray, OverflowRisk | None]:
    """nu_- and E_N of the two-mode chain's evolved vacuum, exactly, per cell of h
    and t broadcast, in C order: over the cells before the first refused one, and
    that cell's ``OverflowRisk`` (None if none).

    With a, b, c, d the entries of e^{-K+ t} e^{K- t} (``_two_mode_blocks``),
    the invariant excess is y = ((a - d)^2 + (b + c)^2)/2, where exactly
    a - d = 4 (h t s+)(eta t s-) and b + c = 2 ((J - eta) t s- c+ + (J + eta) t s+ c-),
    so neither is formed as a difference of a and d or of b and c.  Where both
    blocks grow past their series and J - eta and J + eta differ in sign, the
    two terms of b + c, of size e^{(mu+ + mu-) t}, cancel down to
    e^{(mu+ - mu-) t}; there, with z = mu t, A = (J + eta) t / z+ and
    B = (J - eta) t / z-, b + c = 2 (A sinh(z+ - z-) + (A + B) c+ sinh(z-)), with
    z+ - z- = 4 J eta t^2 / (z+ + z-) and A + B = -4 J eta h^2 t^4 / ((z+ z-)^2 (A - B)),
    none of which cancels.  Then nu_- = 1/sqrt(1 + y + sqrt(y (y + 2))) and
    E_N = -ln nu_- = log1p(y + sqrt(y (y + 2)))/2; where y (y + 2) overflows,
    nu_- = 1/sqrt(2 (1 + y)) as in ``_nu_from_excess`` and
    E_N = (ln 2 + log1p(y))/2.  A cell is refused only where y is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ((_, _, x_plus, z_plus, c_plus, s_plus),
         (_, _, x_minus, z_minus, c_minus, s_minus)) = _two_mode_blocks(h, j, eta, t)
        # 0 where h t or eta t is, though the other factor's s may have overflowed
        a_minus_d = np.where((h * t == 0.0) | (eta * t == 0.0), 0.0,
                             4.0 * (h * t * s_plus) * (eta * t * s_minus))
        b_plus_c = 2.0 * (_times((j - eta) * t, s_minus, c_plus) + _times((j + eta) * t, s_plus, c_minus))
        apart = (x_plus >= _SERIES_LIMIT) & (x_minus >= _SERIES_LIMIT) & ((j - eta) * (j + eta) < 0.0)
        if apart.any():
            a, b = (j + eta) * t / z_plus, (j - eta) * t / z_minus
            jt, et, ht = j * t, eta * t, h * t
            a_plus_b = -4.0 * jt * et * ht * ht / ((z_plus * z_minus) ** 2 * (a - b))
            split = a * np.sinh(4.0 * jt * et / (z_plus + z_minus)) + _times(a_plus_b, c_plus, z_minus * s_minus)
            b_plus_c = np.where(apart, 2.0 * split, b_plus_c)
        # (y/2) y, not y^2 / 2: no square overflows where y does not
        y = ((0.5 * a_minus_d) * a_minus_d + (0.5 * b_plus_c) * b_plus_c).ravel()
        square = y * (y + 2.0)
        root = np.sqrt(square)
        wide = np.isinf(square)
        nu = np.where(wide, 0.5 / np.sqrt(0.5 * (1.0 + y)), 1.0 / np.sqrt(1.0 + y + root))
        logneg = 0.5 * np.where(wide, math.log(2.0) + np.log1p(y), np.log1p(y + root))
    refused = np.flatnonzero(~np.isfinite(y))
    if not refused.size:
        return nu, logneg, None
    stop = refused[0]
    return nu[:stop], logneg[:stop], OverflowRisk("the witness overflows double precision")


def _two_mode_propagators(h, j, eta, t) -> np.ndarray:
    """S = e^{K t} of the two-mode chain per cell of h and t broadcast, as a
    (C, 4, 4) stack in the ordering (X1, P1, X2, P2), from ``_two_mode_blocks``:
    with E+- = e^{K+- t}, S's mode blocks are S11 = S22 = (E+ + E-)/2 and
    S12 = S21 = (E+ - E-)/2."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        blocks = [np.stack([c, s * upper, s * lower, c], axis=-1).reshape(-1, 2, 2)
                  for upper, lower, _, _, c, s in _two_mode_blocks(h, j, eta, t)]
        total, difference = 0.5 * (blocks[0] + blocks[1]), 0.5 * (blocks[0] - blocks[1])
    return np.block([[total, difference], [difference, total]])


def _two_mode_entries(h, j, eta, keep: tuple[np.ndarray, np.ndarray], t: np.ndarray) -> np.ndarray:
    """sigma = S S^T of the two-mode chain at the index pairs ``keep``, per time, as a
    (T, entries) array, S from ``_two_mode_propagators``; an overflowed entry is not
    finite."""
    s = _two_mode_propagators(h, j, eta, t)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("cik,cik->ci", s[:, keep[0]], s[:, keep[1]])


# ---------------------------------------------------------------------------
# the one-quadrature chain in closed form

def _one_quadrature_bonds(spec: ChainSpec) -> tuple[tuple[float, ...], bool] | None:
    """(J_b per bond, whether X is the coupled quadrature) of a chain of N >= 3 modes
    with no on-site squeezing whose hopping h_b is real and equal to J_b on every bond
    (X-coupled) or to -J_b on every bond (P-coupled), which ``_one_quadrature_witness``
    takes exactly; None for any other chain.

    Bond b then contributes 2 J_b X_b X_(b+1) (or -2 J_b P_b P_(b+1)) to H, so K
    maps the coupled quadrature onto the other one only: K^2 = 0 and S = I + K t
    exactly, the structure of a Gaussian cluster state (Menicucci et al., PRL 97,
    110501 (2006)).  Rates and zero bonds may differ from bond to bond.
    """
    if spec.n_modes < 3 or any(eta != 0.0 for eta in spec.sms):
        return None
    if any(h.imag != 0.0 for h in spec.hopping):
        return None
    for x_coupled, sign in ((True, 1.0), (False, -1.0)):
        if all(h.real == sign * j for h, j in zip(spec.hopping, spec.pairing)):
            return spec.pairing, x_coupled
    return None


def _cut_couplings(pairing: Sequence[float], part: Bipartition) -> np.ndarray:
    """The singular values of W_AB, the |A| x |B| matrix that holds 2 J_b for each
    bond b joining a mode of side A to one of side B, without its zero rows and
    columns; empty where no bond of nonzero rate crosses the cut."""
    crossing = [(bond, bond + 1) if bond in part.side_a else (bond + 1, bond)
                for bond, rate in enumerate(pairing)
                if rate != 0.0 and (bond in part.side_a) != (bond + 1 in part.side_a)]
    rows = {a: i for i, a in enumerate(sorted({a for a, _ in crossing}))}
    columns = {b: i for i, b in enumerate(sorted({b for _, b in crossing}))}
    w = np.zeros((len(rows), len(columns)))
    for a, b in crossing:
        w[rows[a], columns[b]] = 2.0 * pairing[min(a, b)]
    return np.linalg.svd(w, compute_uv=False) if crossing else np.zeros(0)


def _one_quadrature_witness(
    pairing: Sequence[float], parts: Sequence[Bipartition], t: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], OverflowRisk | None]:
    """nu_- and E_N per cut of a one-quadrature chain's evolved vacuum, exactly, per
    time: over the times before the first one refused, and its ``OverflowRisk``
    (None if none).

    sigma = S S^T is I on the coupled quadrature, -2 J_b t between it and the other,
    and I + 4 t^2 A^2 on the other (A the bonds' adjacency, ``_one_quadrature_entries``).
    For a cut A|B the reduced state's symplectic eigenvalues are
    nu_k^2 = 1 + t^2 s_k^2, with s_k the singular values of W_AB (``_cut_couplings``):
    the symplectic shear that clears its cross block leaves I + t^2 W_AB W_AB^T on
    the other quadrature.  The state is pure, so E_N = sum_k arccosh nu_k =
    sum_k arcsinh(|t| s_k) and nu_- = 1/(x + hypot(1, x)), x = |t| max s_k.  A cut
    that no bond crosses gives exactly 1 and 0.  A time is refused only where an
    E_N overflows.
    """
    at = np.abs(t)
    witnesses = []
    with np.errstate(over="ignore"):
        for part in parts:
            s = _cut_couplings(pairing, part)
            x = at * s.max(initial=0.0)
            logneg = np.zeros(len(t))
            for value in s.tolist():
                logneg = logneg + np.arcsinh(at * value)
            witnesses.append((1.0 / (x + np.hypot(1.0, x)), logneg))
    refused = np.flatnonzero(~np.isfinite(np.array([logneg for _, logneg in witnesses])).all(axis=0))
    if not refused.size:
        return witnesses, None
    stop = refused[0]
    return ([(nu[:stop], logneg[:stop]) for nu, logneg in witnesses],
            OverflowRisk("the witness overflows double precision"))


def _one_quadrature_entries(
    pairing: Sequence[float], x_coupled: bool, keep: tuple[np.ndarray, np.ndarray], t: np.ndarray
) -> np.ndarray:
    """sigma = S S^T = I + t (K + K^T) + t^2 K K^T of a one-quadrature chain at the
    index pairs ``keep``, per time, as a (T, entries) array.  K is built from the
    rates, with -2 J_b at (other quadrature of one mode, coupled quadrature of its
    neighbour) and exact zeros elsewhere, so an entry that is 0 for all t is 0.
    t^2 K K^T is formed as t (t K K^T), so a zero entry stays 0 where t^2 overflows."""
    n = len(pairing) + 1
    coupled, other = (0, 1) if x_coupled else (1, 0)
    k = np.zeros((2 * n, 2 * n))
    bond = np.arange(n - 1)
    rates = -2.0 * np.asarray(pairing, dtype=float)
    k[2 * bond + other, 2 * bond + 2 + coupled] = rates
    k[2 * bond + 2 + other, 2 * bond + coupled] = rates
    identity = (keep[0] == keep[1]).astype(float)
    linear, quadratic = (k + k.T)[keep], (k @ k.T)[keep]
    t = np.asarray(t, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return identity + t * linear + t * (t * quadratic)


# ---------------------------------------------------------------------------
# numeric pipeline helpers

def chain_nu_minus(spec: ChainSpec, t: float, part: Bipartition | None = None) -> float:
    """nu_- of the evolved vacuum: one cell of entangle's route table.

    Takes the chain's route by ``sweeps._spec_map``, as entangle does for
    each of its times, so the value is that cell's, bit for bit.  A
    two-mode chain with real hopping and equal, real on-site squeezing,
    and a one-quadrature chain (N >= 3, real hopping h_b = J_b on every
    bond or h_b = -J_b on every bond, no on-site squeezing), are exact,
    with no matrix exponential and no eigensolve, and a refusal ends with
    "(t=...)".  Any other chain runs the kernel's one cell: it transports
    the vacuum (``evolve_grid``) and takes the cut's witness
    (``_cut_witnesses``), and a refusal ends with its cell, "(t=25.0, cut
    1|2)" for the witness's, "(t=1e+308)" for the transport's.  A time that
    is not finite is a ``ConfigError``.  Defaults to the first-mode-vs-rest cut.
    """
    from .sweeps import _spec_map  # sweeps builds on this module

    if part is None:
        part = Bipartition.one_vs_rest(spec.n_modes)
    if part.n_modes != spec.n_modes:
        raise InvalidBipartition(
            f"partition is for {part.n_modes} modes but the state has {spec.n_modes}"
        )
    if not math.isfinite(t):
        raise ConfigError(f"time must be finite, got {float(t)}")
    [(nu, _)], _, refusal = _spec_map(spec, np.array([float(t)]), [part])
    if refusal is not None:
        raise refusal
    return float(nu[0])


def bkc_nu_minus(n_modes: int, phi: float, t: float) -> float:
    """nu_- of the uniform chain at g = J = 1, no on-site squeezing, hopping phase phi."""
    spec = ChainSpec.uniform(n_modes, g=1.0, j=1.0, eta=0.0, phi=phi)
    return chain_nu_minus(spec, t)


# ---------------------------------------------------------------------------
# closed forms

def nu_from_xi(xi: float) -> float:
    """Invert xi = (nu^2 + nu^-2)/2 on (0, 1]: nu = sqrt(xi - sqrt(xi^2 - 1)).

    Evaluated as 1/sqrt(xi + sqrt(xi^2 - 1)), which is exact in the same
    arithmetic but immune to the cancellation that the textbook form suffers
    for large xi.  Where xi^2 overflows (xi > ~1.3e154) the inner root is xi
    itself, and nu = 1/sqrt(2 xi) is evaluated with the same two roundings
    as below that point, so nu stays positive and monotone up to the
    largest float.

    Raises
    ------
    OutOfRange
        If xi is NaN, infinite, or below 1 by more than 1e-12.
    """
    if not math.isfinite(xi):
        raise OutOfRange(f"xi must be finite, got {xi}")
    if xi < 1.0:
        if xi < 1.0 - 1e-12:
            raise OutOfRange(f"xi must be at least 1, got {xi}")
        xi = 1.0
    square = xi * xi
    if math.isinf(square):
        # 0.5 / sqrt(xi / 2) is 1 / sqrt(2 xi) scaled by powers of 2, exactly
        return 0.5 / math.sqrt(0.5 * xi)
    return 1.0 / math.sqrt(xi + math.sqrt(square - 1.0))


def xi_from_nu(nu: float) -> float:
    """Map a witness value back to the invariant xi = (nu^2 + nu^-2)/2."""
    if not 0.0 < nu <= 1.0:
        raise OutOfRange(f"nu must lie in (0, 1], got {nu}")
    return 0.5 * (nu * nu + 1.0 / (nu * nu))


def _square_of(jt: float) -> float:
    """(J t)^2; where it overflows, so does xi >= 8 (J t)^2 + 1: ``OutOfRange``."""
    try:
        return jt**2
    except OverflowError as exc:  # float ** raises where numpy returns inf
        raise OutOfRange(f"xi is past the float range: (J t)^2 overflows at J t = {jt:.6g}") from exc


def _sin_squared(phase: float, name: str) -> float:
    """sin(phase)^2; a non-finite phase is ``OutOfRange``, as a non-finite t or xi is."""
    if not math.isfinite(phase):
        raise OutOfRange(f"{name} must be finite, got {phase}")
    return math.sin(phase) ** 2


def _nu_from_excess(y: float) -> float:
    """nu from y = xi - 1 >= 0: 1/sqrt(1 + y + sqrt(y (y + 2))).

    The same inversion as ``nu_from_xi``, but where nu is near 1 and xi
    rounds to 1 it keeps every digit: sqrt(xi^2 - 1) = sqrt(y (y + 2)) is
    formed from y itself.  Where y (y + 2) overflows, nu = 1/sqrt(2 xi) as in
    ``nu_from_xi``.
    """
    if not math.isfinite(y):
        raise OutOfRange(f"xi must be finite, got {1.0 + y}")
    square = y * (y + 2.0)
    if math.isinf(square):
        return 0.5 / math.sqrt(0.5 * (1.0 + y))
    return 1.0 / math.sqrt(1.0 + y + math.sqrt(square))


def nu_closed_form_two_mode(g: float, j: float, t: float) -> float:
    """Closed-form nu_- of the two-mode chain without on-site squeezing.

    The invariant is xi(t) = (g^2 - J^2 cos(4 c t)) / c^2 with
    c^2 = g^2 - J^2.  Its excess y = xi - 1 is evaluated directly, so nu
    keeps its digits where it is near 1: 2 J^2 sin^2(2 c t) / c^2 when
    oscillatory, 2 J^2 sinh^2(2 |c| t) / (J^2 - g^2) when growing, and the
    series limit 8 J^2 t^2 when |g^2 - J^2| is within 1e-8 J^2 of the
    coalescence point.  A square, sinh or phase 2 c t past the float range
    raises ``OutOfRange``, as an overflowed xi does.
    """
    g, j = float(g), float(j)
    try:
        g2, j2 = g**2, j**2
        c2 = g2 - j2
        if abs(c2) <= 1e-8 * j2 or (j2 == 0.0 and c2 == 0.0):
            y = 8.0 * j2 * t * t
        elif c2 > 0:
            y = 2.0 * j2 * math.sin(2.0 * math.sqrt(c2) * t) ** 2 / c2
        else:
            y = 2.0 * j2 * math.sinh(2.0 * math.sqrt(-c2) * t) ** 2 / (-c2)
    except (OverflowError, ValueError) as exc:  # math.sin raises on an infinite phase
        raise OutOfRange(f"xi cannot be evaluated in floats at g={g}, J={j}, t={t}: {exc}") from exc
    return _nu_from_excess(y)


@functools.cache
def xi_series_coefficients(max_n: int) -> tuple[float, ...]:
    """Exact coefficients c_1 .. c_(max_n - 1) of the coalescence-point invariant.

    At g = J and hopping phase pi/2 the quadrature generator of the uniform
    chain is nilpotent, so S(t) is a polynomial in t and the first-mode-vs-rest
    invariant is xi = 1 + sum_j c_j (J t)^(2 j), j = 1 .. N-1, with

        c_j = 2 * 4^j / (j!)^2,

    the degree-(N-1) truncation of 2 I_0(4 J t) - 1.  Each value is the
    correctly rounded quotient of two integers.  The tuple is cached per
    max_n: fig3 asks for the same few again for every cell.
    """
    if max_n < 2:
        raise OutOfRange(f"max_n must be at least 2, got {max_n}")
    return tuple(2 * 4**j / math.factorial(j) ** 2 for j in range(1, max_n))


def nu_closed_form_bkc_ep(n_modes: int, phi: float, t: float) -> float:
    """Closed-form nu_- of the uniform chain at g = J = 1 and hopping phase phi.

    Evaluates xi = 1 + sum_j c_j t^(2 j) sin(phi)^(2 (j - 1)) with the
    exact coefficients of :func:`xi_series_coefficients`, by Horner's rule
    so that no power of t overflows on its own for large N.  An xi past
    the float range or a non-finite phi raises ``OutOfRange``.
    """
    u = _square_of(t)
    step = u * _sin_squared(phi, "phi")
    acc = 0.0
    for c in reversed(xi_series_coefficients(n_modes) if n_modes >= 2 else ()):
        acc = c + step * acc
    return nu_from_xi(1.0 + u * acc)


def nu_closed_form_three_mode_nonuniform(varphi: float, j: float, t: float) -> float:
    """Closed-form nu_- of the three-mode chain on its coalescence surface.

    Along the circle g1^2 + g2^2 = J1^2 + J2^2 = 2 J^2 (with
    varphi = pi/4 - arctan(g2/g1) measuring the angle from the arc point
    g1 = g2 = J), the middle-vs-outer witness obeys
    xi = 32 J^4 t^4 sin^2(varphi) + 16 J^2 t^2 + 1; an xi past the float
    range or a non-finite varphi raises ``OutOfRange``.
    """
    u = _square_of(j * t)
    xi = 32.0 * u * u * _sin_squared(varphi, "varphi") + 16.0 * u + 1.0
    return nu_from_xi(xi)


def three_mode_surface_spec(varphi: float) -> ChainSpec:
    """Three-mode chain at J = 1 on the coalescence circle, parameterized by varphi."""
    g1, g2 = _surface_hopping(varphi)
    return ChainSpec(n_modes=3, hopping=(complex(g1), complex(g2)), pairing=1.0, sms=0)


def _surface_hopping(varphi: float, j: float = 1.0) -> tuple[float, float]:
    """Hopping rates (g1, g2) of ``three_mode_surface_spec``."""
    theta = math.pi / 4 - varphi
    return math.sqrt(2.0) * j * math.cos(theta), math.sqrt(2.0) * j * math.sin(theta)


def enhancement_ratio(
    n_modes: int,
    t: float,
    nu_fn: Callable[[int, float, float], float] | None = None,
) -> float:
    """Witness gain of the phase-pi/2 coalescence over the phase-0 one.

    Computes R = ln(nu_-(pi/2, t)) / ln(nu_-(0, t)) for the uniform chain at
    g = J = 1 via the numeric pipeline (or a supplied nu(N, phi, t) callable).
    The ratio is independent of the logarithm base.

    Raises
    ------
    DivisionByZeroLog
        If the reference witness nu_-(0, t) equals 1, as at t = 0.
    """
    fn = nu_fn if nu_fn is not None else bkc_nu_minus
    reference = fn(n_modes, 0.0, t)
    if reference >= 1.0:
        raise DivisionByZeroLog(
            f"reference witness is {reference}; the ratio is undefined there"
        )
    return math.log(fn(n_modes, math.pi / 2, t)) / math.log(reference)
