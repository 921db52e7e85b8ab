"""Covariance-matrix transport: propagators, evolution, trajectories."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import solve_ivp

from epchain import (
    ChainSpec,
    GaussianState,
    build_bdg_matrix,
    evolve,
    evolve_grid,
    evolve_trajectory,
    initial_state,
    propagator,
    quadrature_generator,
    symplectic_form,
)
from epchain.errors import (
    AsymmetricInput,
    ConfigError,
    NegativeOccupancy,
    NonFiniteParameter,
    OverflowRisk,
    UnsortedTimes,
)

from conftest import chain_specs, reference_evolve


def generator(spec):
    return quadrature_generator(build_bdg_matrix(spec))


class TestInitialState:
    def test_vacuum_is_identity(self):
        np.testing.assert_array_equal(initial_state(2).cm, np.eye(4))

    def test_thermal_scalar(self):
        np.testing.assert_allclose(initial_state(1, 0.5).cm, 2.0 * np.eye(2))

    def test_thermal_sequence(self):
        state = initial_state(3, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(state.cm, np.diag([1, 1, 3, 3, 1, 1]))

    def test_negative_occupancy(self):
        with pytest.raises(NegativeOccupancy):
            initial_state(2, [-0.1, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            initial_state(2, [0.1, 0.2, 0.3])


class TestGaussianStateValidation:
    def test_asymmetric_rejected(self):
        cm = np.eye(2)
        cm[0, 1] = 1e-6
        with pytest.raises(AsymmetricInput):
            GaussianState(n_modes=1, cm=cm)

    def test_unphysical_rejected(self):
        with pytest.raises(ConfigError):
            GaussianState(n_modes=1, cm=0.5 * np.eye(2))

    def test_vacuum_accepted(self):
        state = GaussianState(n_modes=2, cm=np.eye(4))
        assert state.purity_determinant == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteParameter, match="covariance matrix has a NaN"):
            GaussianState(n_modes=2, cm=np.diag([bad, 1.0, 1.0, 1.0]))

    def test_bona_fide_slack(self):
        # min eig(sigma + i Omega) of a I is a - 1, against a slack of
        # 1e-8 max|sigma| (the 1e-9 floor only matters below max|sigma| = 0.1)
        GaussianState(n_modes=1, cm=(1.0 - 5e-9) * np.eye(2))
        with pytest.raises(ConfigError, match="not a bona fide"):
            GaussianState(n_modes=1, cm=(1.0 - 2e-8) * np.eye(2))
        # diag(x, 1/x - d) has a lowest eigenvalue of about -d: the slack
        # is 1e-5 at x = 1000
        GaussianState(n_modes=1, cm=np.diag([1e3, 1e-3 - 5e-6]))
        with pytest.raises(ConfigError, match="not a bona fide"):
            GaussianState(n_modes=1, cm=np.diag([1e3, 1e-3 - 2e-5]))


class TestPropagator:
    def test_zero_time_is_identity(self):
        k = generator(ChainSpec.uniform(2, g=0.7, j=0.4))
        np.testing.assert_array_equal(propagator(k, 0.0).s, np.eye(4))

    def test_coalescence_point_is_polynomial(self):
        # at g = J the generator is nilpotent of index 2, so exp(K t) = 1 + K t
        k = generator(ChainSpec.uniform(2, g=1.0, j=1.0))
        np.testing.assert_allclose(k.data @ k.data, np.zeros((4, 4)), atol=1e-14)
        for t in (0.5, 2.0, 7.0):
            np.testing.assert_allclose(
                propagator(k, t).s, np.eye(4) + k.data * t, atol=1e-12
            )

    def test_single_mode_squeezer_closed_form(self):
        # hyperbolic scaling: eigenvalues of S are e^{+-t}
        k = generator(ChainSpec(n_modes=1, sms=(1.0,)))
        s = propagator(k, 1.0).s
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(s)), [np.exp(-1.0), np.exp(1.0)], rtol=1e-12
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_guard(self):
        # exp(K t) is refused only once it leaves the float range: e^350 passes
        k = generator(ChainSpec(n_modes=1, sms=(1.0,)))
        assert np.isfinite(propagator(k, 350.0).s).all()
        for t in (1000.0, 1e308):
            with pytest.raises(OverflowRisk, match=re.escape(f"propagator at t={t} overflows double precision")):
                propagator(k, t)

    @given(chain_specs())
    @settings(max_examples=25, deadline=None)
    def test_symplectic_identity(self, spec):
        k = generator(spec)
        omega = symplectic_form(spec.n_modes)
        for t in (0.3, 1.7):
            s = propagator(k, t).s
            scale = 1.0 + float(np.linalg.norm(s, 2)) ** 2
            assert np.abs(s @ omega @ s.T - omega).max() <= 1e-10 * scale

    @given(chain_specs())
    @settings(max_examples=25, deadline=None)
    def test_semigroup(self, spec):
        k = generator(spec)
        s_sum = propagator(k, 1.3).s
        s_prod = propagator(k, 0.8).s @ propagator(k, 0.5).s
        scale = max(1.0, float(np.abs(s_sum).max()))
        assert np.abs(s_sum - s_prod).max() <= 1e-9 * scale


class TestEvolve:
    def test_zero_time_identity(self):
        state = initial_state(2)
        k = generator(ChainSpec.uniform(2, g=0.5, j=1.0))
        np.testing.assert_array_equal(evolve(state, k, 0.0).cm, state.cm)

    def test_purity_conserved(self):
        k = generator(ChainSpec.uniform(2, g=0.5, j=1.0, eta=0.2))
        for t in (0.5, 1.5, 3.0):
            state = evolve(initial_state(2), k, t)
            assert state.purity_determinant == pytest.approx(1.0, rel=1e-8)

    def test_dimension_mismatch(self):
        k = generator(ChainSpec.uniform(3, g=0.5, j=1.0))
        with pytest.raises(ConfigError):
            evolve(initial_state(2), k, 1.0)

    @given(chain_specs(min_n=2))
    @settings(max_examples=20, deadline=None)
    def test_bona_fide_preserved(self, spec):
        k = generator(spec)
        state = evolve(initial_state(spec.n_modes), k, 1.0)
        omega = symplectic_form(spec.n_modes)
        lowest = float(np.linalg.eigvalsh(state.cm + 1j * omega).min())
        assert lowest >= -1e-8

    def test_overflowing_covariance_is_overflow_risk(self):
        # S itself stays finite; S sigma S^T of a state of 1e104 thermal
        # quanta passes the float range all the same
        k = generator(ChainSpec.uniform(2, g=0.2, j=1.0))
        t = 299 / np.linalg.norm(k.data, 2)
        with pytest.raises(OverflowRisk, match=re.escape(f"covariance at t={t} overflows")):
            evolve(initial_state(2, 1e104), k, t)

    def test_grid_stops_at_first_overflowing_cell(self):
        state = initial_state(2, 1e104)
        k = generator(ChainSpec.uniform(2, g=0.2, j=1.0))
        t = 299 / np.linalg.norm(k.data, 2)
        stack = np.stack([k.data, generator(ChainSpec.uniform(2, g=1.5, j=1.0)).data])
        # generator-major: the cell (0.2, t) overflows, and no later cell is returned
        cms, error = evolve_grid(state, stack, [0.0, 1.0, t])
        assert isinstance(error, OverflowRisk)
        assert str(error) == f"covariance at t={t} overflows double precision"
        assert len(cms) == 2
        for cm, t_cell in zip(cms, [0.0, 1.0]):
            assert cm.tobytes() == reference_evolve(state, k, t_cell).tobytes()

    def test_ode_route_agrees(self):
        # independent route: adaptive integration of d sigma/dt = K sigma + sigma K^T
        spec = ChainSpec.uniform(2, g=0.79, j=1.0, eta=0.2)
        k = generator(spec)

        def rhs(_t, y):
            sigma = y.reshape(4, 4)
            return (k.data @ sigma + sigma @ k.data.T).ravel()

        sol = solve_ivp(rhs, (0.0, 5.0), np.eye(4).ravel(), rtol=1e-10, atol=1e-12)
        sigma_ode = sol.y[:, -1].reshape(4, 4)
        sigma_exp = evolve(initial_state(2), k, 5.0).cm
        assert (
            np.abs(sigma_ode - sigma_exp).max() / np.abs(sigma_exp).max() <= 1e-7
        )


class TestTrajectory:
    def test_single_time(self):
        state = initial_state(2)
        k = generator(ChainSpec.uniform(2, g=0.5, j=1.0))
        (out,) = evolve_trajectory(state, k, [0.0])
        np.testing.assert_array_equal(out.cm, state.cm)

    def test_not_chained(self):
        # the same time must give the same state regardless of the sample grid
        state = initial_state(2)
        k = generator(ChainSpec.uniform(2, g=0.9, j=1.0, eta=0.2))
        long = evolve_trajectory(state, k, [0.0, 1.0, 2.0])
        (short,) = evolve_trajectory(state, k, [2.0])
        assert np.abs(long[-1].cm - short.cm).max() <= 1e-12 * np.abs(short.cm).max()

    def test_unsorted_times(self):
        state = initial_state(2)
        k = generator(ChainSpec.uniform(2, g=0.5, j=1.0))
        with pytest.raises(UnsortedTimes):
            evolve_trajectory(state, k, [1.0, 0.5])

    def test_exponential_growth_in_imaginary_region(self):
        # purely imaginary spectrum of M means real growth rates for K
        state = initial_state(2)
        k = generator(ChainSpec.uniform(2, g=0.79, j=1.0, eta=0.2))
        norms = [
            float(np.abs(s.cm).max())
            for s in evolve_trajectory(state, k, np.linspace(0.0, 5.0, 11))
        ]
        assert all(a < b for a, b in zip(norms, norms[1:]))
