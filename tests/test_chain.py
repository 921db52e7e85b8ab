"""Chain specification, dynamical matrix, and quadrature generator."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from epchain import (
    BdgMatrix,
    ChainSpec,
    build_bdg_matrix,
    build_chain_spec,
    eigenspectrum,
    particle_hole_residual,
    quadrature_generator,
    symplectic_form,
)
from epchain.errors import (
    ConfigError,
    ImaginaryResidual,
    LengthMismatch,
    NonFiniteParameter,
    NonPositiveN,
)

from conftest import assert_multiset_close, chain_specs


class TestBuildChainSpec:
    def test_uniform_expansion(self):
        spec = build_chain_spec({"n": 2, "g": 1, "J": 1, "eta": 0, "phi": 0})
        assert spec.hopping == (1 + 0j,)
        assert spec.pairing == (1.0,)
        assert spec.sms == (0j, 0j)

    def test_nonuniform_three_mode(self):
        spec = build_chain_spec({"n": 3, "g": [0.7, 1.1], "J": [1.0, 0.9], "eta": 0})
        assert spec.n_modes == 3
        assert spec.hopping == (0.7 + 0j, 1.1 + 0j)
        assert spec.pairing == (1.0, 0.9)
        assert spec.sms == (0j, 0j, 0j)

    def test_bond_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            build_chain_spec({"n": 2, "g": [1, 1], "J": 1, "eta": 0})

    def test_site_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            build_chain_spec({"n": 3, "eta": [0.0, 0.0]})

    def test_nonpositive_n(self):
        with pytest.raises(NonPositiveN):
            build_chain_spec({"n": 0})
        with pytest.raises(NonPositiveN):
            build_chain_spec({"n": -3})
        with pytest.raises(NonPositiveN):
            build_chain_spec({"n": 2.5})

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteParameter):
            build_chain_spec({"n": 2, "g": float("nan")})
        with pytest.raises(NonFiniteParameter):
            build_chain_spec({"n": 2, "J": float("inf")})

    def test_negative_pairing_rejected(self):
        with pytest.raises(ConfigError):
            build_chain_spec({"n": 2, "J": -0.5})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            build_chain_spec({"n": 2, "gg": 1.0})

    def test_phase_goes_into_hopping(self):
        spec = build_chain_spec({"n": 2, "g": 2.0, "phi": np.pi / 2})
        assert spec.hopping[0] == pytest.approx(2j)

    def test_missing_n(self):
        with pytest.raises(ConfigError):
            build_chain_spec({"g": 1.0})

    def test_scalar_broadcast_from_json(self):
        # the chain keys of a command's JSON config file
        spec = build_chain_spec(json.loads('{"n": 4, "g": 1.0, "J": 0.5}'))
        assert spec.hopping == (1 + 0j,) * 3
        assert spec.pairing == (0.5,) * 3


class TestBuildBdgMatrix:
    def test_single_mode_squeezer(self):
        # pure on-site squeezing: forced analytic form, eigenvalues +-i
        m = build_bdg_matrix(ChainSpec(n_modes=1, sms=(1.0,)))
        np.testing.assert_array_equal(m.data, np.array([[0, 1], [-1, 0]], dtype=complex))
        assert_multiset_close(eigenspectrum(m), [1j, -1j], 1e-14)

    def test_pure_beam_splitter(self):
        m = build_bdg_matrix(ChainSpec.uniform(2, g=1.0))
        assert_multiset_close(eigenspectrum(m), [1, 1, -1, -1], 1e-12)

    def test_two_mode_eigenvalue_formula(self):
        # lambda = +-sqrt(g^2 - J^2), each twice
        m = build_bdg_matrix(ChainSpec.uniform(2, g=1.5, j=1.0))
        root = np.sqrt(1.25)
        assert_multiset_close(eigenspectrum(m), [root, root, -root, -root], 1e-12)

    def test_block_layout(self):
        spec = build_chain_spec({"n": 3, "g": [0.5, 0.7], "phi": [0.3, 0.0],
                                 "J": [1.0, 1.2], "eta": [0.1, 0.2, 0.3]})
        m = build_bdg_matrix(spec)
        n = 3
        a, b = m.data[:n, :n], m.data[:n, n:]
        assert a[0, 1] == spec.hopping[0] and a[1, 0] == np.conj(spec.hopping[0])
        assert b[0, 0] == np.conj(spec.sms[0])
        assert b[0, 1] == b[1, 0] == spec.pairing[0]
        np.testing.assert_array_equal(m.data[n:, :n], -b.conj())
        np.testing.assert_array_equal(m.data[n:, n:], -a.conj())

    @given(chain_specs())
    @settings(max_examples=40, deadline=None)
    def test_blocks_exactly_hermitian_and_symmetric(self, spec):
        m = build_bdg_matrix(spec)
        n = m.n_modes
        a, b = m.data[:n, :n], m.data[:n, n:]
        assert np.array_equal(a, a.conj().T)
        assert np.array_equal(b, b.T)

    @given(chain_specs())
    @settings(max_examples=40, deadline=None)
    def test_particle_hole_symmetry(self, spec):
        m = build_bdg_matrix(spec)
        scale = max(1.0, float(np.abs(m.data).max()))
        assert particle_hole_residual(m) <= 1e-14 * scale

    @given(chain_specs())
    @example(ChainSpec(n_modes=3, hopping=(1 + 0j, 0j), pairing=(0.0, 1.0), sms=(0j, 0j, 0j)))
    @settings(max_examples=30, deadline=None)
    def test_spectrum_negation_closure(self, spec):
        # compared through the power sums sum(lambda^p), p = 1..2N, which fix
        # a multiset of 2N values; at a defective EP (this example has a
        # third-order one) the eigenvalues move by ~eps^(1/3), their power
        # sums only by ~eps
        values = eigenspectrum(build_bdg_matrix(spec))
        scale = max(1.0, float(np.abs(values).max()))
        for power in range(1, len(values) + 1):
            mismatch = abs(np.sum(values**power) - np.sum((-values.conj()) ** power))
            assert mismatch <= 1e-9 * scale**power


class TestQuadratureGenerator:
    def test_single_mode_hyperbolic(self):
        k = quadrature_generator(build_bdg_matrix(ChainSpec(n_modes=1, sms=(1.0,))))
        assert_multiset_close(np.linalg.eigvals(k.data), [1.0, -1.0], 1e-12)

    def test_beam_splitter_rotation(self):
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=1.0)))
        assert_multiset_close(np.linalg.eigvals(k.data), [1j, 1j, -1j, -1j], 1e-12)

    def test_two_mode_spectrum_map(self):
        # derived from the eigenvalue formula through the -i map
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=1.5, j=1.0)))
        root = np.sqrt(1.25)
        assert_multiset_close(
            np.linalg.eigvals(k.data), [1j * root, 1j * root, -1j * root, -1j * root], 1e-12
        )

    @given(chain_specs())
    @example(ChainSpec(n_modes=2, hopping=(1 + 0j,), pairing=(0.0,), sms=(1 + 0j, 1 + 0j)))
    @example(ChainSpec(n_modes=3, hopping=(1 + 0j, 0j), pairing=(0.0, 1.0), sms=(0j, 0j, 0j)))
    @settings(max_examples=30, deadline=None)
    def test_spectrum_matches_minus_i_times_m(self, spec):
        # the power traces tr(A^p), p = 1..2N, fix the spectrum of a 2N x 2N
        # matrix; unlike the eigenvalues, which move by ~sqrt(eps) at a
        # defective EP such as g = eta = 1, they stay well-conditioned
        m = build_bdg_matrix(spec)
        k = quadrature_generator(m).data
        minus_i_m = -1j * m.data
        scale = max(1.0, float(np.abs(m.data).max()))
        k_power = np.eye(len(k))
        m_power = np.eye(len(k), dtype=complex)
        for power in range(1, len(k) + 1):
            k_power = k_power @ k
            m_power = m_power @ minus_i_m
            assert abs(np.trace(k_power) - np.trace(m_power)) <= 1e-10 * scale**power

    @given(chain_specs())
    @settings(max_examples=30, deadline=None)
    def test_hamiltonian_matrix_identity(self, spec):
        k = quadrature_generator(build_bdg_matrix(spec)).data
        omega = symplectic_form(spec.n_modes)
        scale = max(1.0, float(np.abs(k).max()))
        assert np.abs(k @ omega + omega @ k.T).max() <= 1e-13 * scale

    def test_imaginary_residual_on_invalid_input(self):
        bogus = BdgMatrix(data=np.array([[1j, 0], [0, 0]], dtype=complex))
        with pytest.raises(ImaginaryResidual):
            quadrature_generator(bogus)


def test_uniform_constructor_matches_config_route():
    a = ChainSpec.uniform(4, g=0.9, j=1.1, eta=0.2, phi=0.4)
    b = build_chain_spec({"n": 4, "g": 0.9, "J": 1.1, "eta": 0.2, "phi": 0.4})
    assert a.n_modes == b.n_modes
    np.testing.assert_allclose(a.hopping, b.hopping, atol=1e-15)
    assert a.pairing == b.pairing
    assert a.sms == b.sms


def test_spec_is_immutable_and_hashable():
    spec = ChainSpec.uniform(2, g=1.0, j=0.5)
    with pytest.raises(AttributeError):
        spec.n_modes = 3
    assert hash(spec) == hash(ChainSpec.uniform(2, g=1.0, j=0.5))


def test_symplectic_form_is_cached_and_read_only():
    for n in (1, 2, 3, 7):
        omega = symplectic_form(n)
        np.testing.assert_array_equal(omega, np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]]))
        assert symplectic_form(n) is omega
        assert not omega.flags.writeable
        with pytest.raises(ValueError):
            omega[0, 1] = 0.0

