"""Pinned invariant suite runnable from the CLI and the test harness.

Each check draws from a fixed seed, evaluates one structural invariant of
the package (symmetries of the dynamical matrix, symplecticity and purity of
the transport, agreement of independent computation routes, closed-form
oracles), and reports a pass/fail with the worst observed residual.
Thresholds can be scaled uniformly through ``tol_scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment

from .chain import (
    ChainSpec,
    bdg_stack,
    build_bdg_matrix,
    particle_hole_residual,
    quadrature_generator,
    symplectic_form,
)
from .dynamics import evolve, initial_state, propagator
from .entanglement import (
    Bipartition,
    entanglement_result,
    nu_closed_form_bkc_ep,
    nu_closed_form_three_mode_nonuniform,
    nu_closed_form_two_mode,
    nu_from_xi,
    chain_nu_minus,
    three_mode_surface_spec,
    xi_from_nu,
)
from .errors import ConfigError, NoTransition
from .spectral import Region, detect_eps, eigenspectrum, locate_ep_1d, spectrum_stack

__all__ = ["CheckResult", "run_selftest", "SELFTEST_SEED"]

SELFTEST_SEED = 20240811


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_spec(rng: np.random.Generator, n_max: int = 6) -> ChainSpec:
    n = int(rng.integers(1, n_max + 1))
    bonds = n - 1
    g = rng.uniform(0.0, 1.5, bonds)
    phi = rng.uniform(0.0, 2.0 * math.pi, bonds)
    pairing = rng.uniform(0.0, 1.5, bonds)
    eta = rng.uniform(-1.0, 1.0, n)
    return ChainSpec(
        n_modes=n,
        hopping=tuple(g * np.exp(1j * phi)),
        pairing=tuple(pairing),
        sms=tuple(eta.astype(complex)),
    )


def _multiset_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    """Largest matched distance between two complex multisets."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _worst(pairs: Iterator[float]) -> float:
    return max(pairs, default=0.0)


def run_selftest(tol_scale: float = 1.0, draws: int = 40) -> list[CheckResult]:
    """Run every invariant check; returns one result per check.

    ``tol_scale`` multiplies every threshold and must be positive and
    finite; ``draws`` random chains (at least 1) feed the transport checks.
    """
    if not 0.0 < tol_scale < math.inf:
        raise ConfigError(f"tol_scale must be positive and finite, got {tol_scale}")
    if draws < 1:
        raise ConfigError(f"draws must be at least 1, got {draws}")
    rng = np.random.default_rng(SELFTEST_SEED)
    specs = [_random_spec(rng) for _ in range(draws)]
    matrices = [build_bdg_matrix(s) for s in specs]
    results: list[CheckResult] = []

    def record(name: str, worst: float, bound: float, extra: str = ""):
        bound = bound * tol_scale
        results.append(
            CheckResult(
                name=name,
                passed=worst <= bound,
                detail=f"worst {worst:.3e} (bound {bound:.3e}){extra}",
            )
        )

    # structural symmetries of the dynamical matrix
    record(
        "particle_hole_symmetry",
        _worst(particle_hole_residual(m) / max(1.0, np.abs(m.data).max()) for m in matrices),
        1e-14,
    )
    record(
        "spectrum_negation_closure",
        _worst(
            _multiset_mismatch(vals, -vals.conj()) / max(1.0, np.abs(vals).max())
            for vals in (eigenspectrum(m) for m in matrices)
        ),
        1e-9,
    )
    record(
        "quadrature_spectrum_map",
        _worst(
            _multiset_mismatch(
                np.linalg.eigvals(quadrature_generator(m).data),
                -1j * eigenspectrum(m),
            )
            / max(1.0, float(np.abs(m.data).max()))
            for m in matrices
        ),
        1e-10,
    )
    record(
        "generator_hamiltonian_identity",
        _worst(
            float(
                np.abs(
                    quadrature_generator(m).data @ symplectic_form(m.n_modes)
                    + symplectic_form(m.n_modes) @ quadrature_generator(m).data.T
                ).max()
            )
            / max(1.0, float(np.abs(m.data).max()))
            for m in matrices
        ),
        1e-13,
    )

    # symplectic transport; times kept moderate so the determinant comparison
    # is not swamped by the conditioning of strongly squeezed covariances
    times = rng.uniform(0.1, 1.5, draws)
    worst_sympl = 0.0
    worst_semigroup = 0.0
    worst_purity = 0.0
    worst_bona_fide = 0.0
    for spec, m, t in zip(specs, matrices, times):
        k = quadrature_generator(m)
        omega = symplectic_form(spec.n_modes)
        s = propagator(k, float(t))
        scale = 1.0 + float(np.linalg.norm(s, 2)) ** 2
        worst_sympl = max(worst_sympl, float(np.abs(s @ omega @ s.T - omega).max()) / scale)
        s1 = propagator(k, float(t) * 0.5)
        worst_semigroup = max(
            worst_semigroup, float(np.abs(s1 @ s1 - s).max()) / max(1.0, float(np.abs(s).max()))
        )
        occ = rng.uniform(0.0, 1.0, spec.n_modes)
        state0 = initial_state(spec.n_modes, occ)
        state_t = evolve(state0, k, float(t))
        d0, dt_ = state0.purity_determinant, state_t.purity_determinant
        worst_purity = max(worst_purity, abs(dt_ - d0) / max(abs(d0), 1.0))
        lowest = float(
            np.linalg.eigvalsh(state_t.cm + 1j * symplectic_form(spec.n_modes)).min()
        )
        worst_bona_fide = max(worst_bona_fide, max(-lowest, 0.0))
    record("propagator_symplectic", worst_sympl, 1e-10)
    record("propagator_semigroup", worst_semigroup, 1e-9)
    record("purity_conservation", worst_purity, 1e-8)
    record("bona_fide_state", worst_bona_fide, 1e-8)

    # independent-route agreement: adaptive ODE integration of the covariance
    worst_ode = 0.0
    for g_over_j in (0.79, 1.19, 1.59):
        spec = ChainSpec.uniform(2, g=g_over_j, j=1.0, eta=0.2)
        k = quadrature_generator(build_bdg_matrix(spec)).data
        n2 = k.shape[0]

        def rhs(_t, y, k=k, n2=n2):
            sigma = y.reshape(n2, n2)
            return (k @ sigma + sigma @ k.T).ravel()

        sol = solve_ivp(
            rhs, (0.0, 5.0), np.eye(n2).ravel(), rtol=1e-10, atol=1e-12, method="RK45"
        )
        sigma_ode = sol.y[:, -1].reshape(n2, n2)
        s = propagator(quadrature_generator(build_bdg_matrix(spec)), 5.0)
        sigma_exp = s @ s.T
        worst_ode = max(
            worst_ode,
            float(np.abs(sigma_ode - sigma_exp).max()) / float(np.abs(sigma_exp).max()),
        )
    record("ode_vs_exponential", worst_ode, 1e-7)

    # closed-form oracles
    worst_cf = 0.0
    for g in (0.5, 0.99, 1.0, 1.01, 1.5):
        spec = ChainSpec.uniform(2, g=g, j=1.0)
        for t in np.linspace(0.0, 5.0, 26):
            worst_cf = max(
                worst_cf,
                abs(chain_nu_minus(spec, float(t)) - nu_closed_form_two_mode(g, 1.0, float(t))),
            )
    record("two_mode_closed_form", worst_cf, 1e-8)

    worst_nid = 0.0
    for varphi in (0.0, math.pi / 8, math.pi / 4):
        spec = three_mode_surface_spec(varphi)
        part = Bipartition.from_label("13|2", 3)
        for t in np.linspace(0.0, 5.0, 11):
            worst_nid = max(
                worst_nid,
                abs(
                    chain_nu_minus(spec, float(t), part)
                    - nu_closed_form_three_mode_nonuniform(varphi, 1.0, float(t))
                ),
            )
    record("three_mode_surface_closed_form", worst_nid, 1e-6)

    # the coalescence-point series that fig3 prints, against the numeric pipeline
    record(
        "bkc_ep_closed_form",
        _worst(
            abs(
                chain_nu_minus(ChainSpec.uniform(n, g=1.0, j=1.0, phi=phi), float(t))
                - nu_closed_form_bkc_ep(n, phi, float(t))
            )
            for n in (3, 4, 6)
            for phi in (0.0, 0.7, math.pi / 2, 2.9)
            for t in np.linspace(0.0, 3.5, 8)
        ),
        1e-7,
    )

    worst_vac = 0.0
    for spec in specs:
        if spec.n_modes < 2:
            continue
        part = Bipartition.one_vs_rest(spec.n_modes, int(rng.integers(spec.n_modes)))
        worst_vac = max(worst_vac, abs(chain_nu_minus(spec, 0.0, part) - 1.0))
    record("vacuum_witness_unity", worst_vac, 1e-12)

    record(
        "xi_round_trip",
        _worst(abs(xi_from_nu(nu_from_xi(x)) - x) / x for x in (1.0, 9.0, 17.0, 1e6)),
        1e-12,
    )

    # exceptional-point structure
    expected_blocks = {
        (2, 0.0): (2, 2),
        (4, 0.0): (2, 2, 2, 2),
        (4, math.pi / 2): (4, 4),
        (3, math.pi / 2): (3, 3),
    }
    bad = []
    for (n, phi), want in expected_blocks.items():
        m = build_bdg_matrix(ChainSpec.uniform(n, g=1.0, j=1.0, phi=phi))
        clusters = detect_eps(m)
        got = clusters[0].jordan_blocks if len(clusters) == 1 else ()
        if got != want:
            bad.append(f"N={n}, phi={phi:.3f}: got {got}, want {want}")
    results.append(
        CheckResult(
            name="ep_block_structure",
            passed=not bad,
            detail="all four pinned structures correct" if not bad else "; ".join(bad),
        )
    )

    try:
        found = locate_ep_1d(
            lambda g: ChainSpec.uniform(2, g=g, j=1.0, eta=0.2), 0.5, 1.5, tol=1e-8
        )
        worst_split = _multiset_mismatch(np.asarray(found, complex), np.array([0.8, 1.2], complex))
    except NoTransition:
        worst_split = math.inf
    record("two_mode_ep_splitting", worst_split, 1e-6)

    m = bdg_stack(np.repeat(np.linspace(0.0, 3.0, 61)[:, None], 2, axis=1), 1.0, 0.2)
    never_real = Region.PURELY_REAL not in spectrum_stack(m)[1]
    results.append(
        CheckResult(
            name="odd_chain_never_purely_real",
            passed=never_real,
            detail="61-point scan of g in [0, 3]",
        )
    )

    rates = rng.uniform(0.1, 2.0, (30, 4))  # g1, g2, J1, J2 per chain
    vals = np.sort(np.abs(spectrum_stack(bdg_stack(rates[:, :2], rates[:, 2:], 0.0))[0]), axis=-1)
    record("three_mode_permanent_zero_pair", float(vals[:, 1].max()), 1e-9)

    worst_count = 0
    for spec in specs:
        if spec.n_modes < 2:
            continue
        k = quadrature_generator(build_bdg_matrix(spec))
        state = evolve(initial_state(spec.n_modes), k, 1.0)
        size_a = int(rng.integers(1, spec.n_modes))
        part = Bipartition.from_sides(spec.n_modes, rng.choice(spec.n_modes, size_a, replace=False))
        res = entanglement_result(state, part)
        below = sum(1 for v in res.symplectic_eigenvalues_pt if v < 1.0 - 1e-9)
        allowed = min(len(part.side_a), len(part.side_b))
        worst_count = max(worst_count, below - allowed)
    results.append(
        CheckResult(
            name="ppt_violation_count",
            passed=worst_count <= 0,
            detail=f"excess violations {worst_count} (allowed 0)",
        )
    )

    return results
