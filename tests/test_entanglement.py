"""Partial-transpose witnesses, closed forms, and series coefficients."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epchain import (
    Bipartition,
    ChainSpec,
    GaussianState,
    bkc_nu_minus,
    build_bdg_matrix,
    build_chain_spec,
    chain_nu_minus,
    dynamics,
    enhancement_ratio,
    entanglement_result,
    evolve,
    evolve_grid,
    initial_state,
    nu_closed_form_bkc_ep,
    nu_closed_form_three_mode_nonuniform,
    nu_closed_form_two_mode,
    nu_from_xi,
    nu_minus,
    partial_transpose,
    quadrature_generator,
    symplectic_eigenvalues,
    symplectic_form,
    three_mode_surface_spec,
    witness_stack,
    xi_from_nu,
    xi_series_coefficients,
)
from epchain import sweeps
from epchain.entanglement import (
    _cut_witnesses,
    _one_quadrature_bonds,
    _one_quadrature_witness,
    _two_mode_propagators,
    _two_mode_rates,
    _two_mode_witness,
)
from epchain.errors import (
    AsymmetricInput,
    DivisionByZeroLog,
    InvalidBipartition,
    NonFiniteParameter,
    OutOfRange,
    OverflowRisk,
    PrecisionLoss,
)
from epchain.sweeps import entanglement_trajectory

from conftest import oracle_propagator, oracle_two_mode, reference_evolve


# hopping phases with rational (cos phi, sin phi), the last two at phi = pi/2
# and 0; the series law in sin^2(phi) is checked exactly at each of them
PYTHAGOREAN_PHASES = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(4, 5), Fraction(3, 5)),
    (Fraction(-3, 5), Fraction(4, 5)),
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
]


def two_mode_squeezed_cm(r):
    """Oracle covariance of a two-mode squeezed state at parameter r."""
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    z = np.diag([1.0, -1.0])
    return np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])


class TestBipartition:
    def test_from_label(self):
        part = Bipartition.from_label("13|2", 3)
        assert part.side_a == {0, 2} and part.side_b == {1}
        assert part.label == "13|2"

    def test_comma_labels_for_wide_chains(self):
        part = Bipartition.from_label("1,12|2,3,4,5,6,7,8,9,10,11", 12)
        assert part.side_a == {0, 11}

    def test_invalid_overlap(self):
        with pytest.raises(InvalidBipartition):
            Bipartition(3, frozenset({0, 1}), frozenset({1, 2}))

    def test_invalid_incomplete(self):
        with pytest.raises(InvalidBipartition):
            Bipartition(3, frozenset({0}), frozenset({1}))

    def test_invalid_empty_side(self):
        with pytest.raises(InvalidBipartition):
            Bipartition.from_label("12|", 2)

    def test_out_of_range_label(self):
        with pytest.raises(InvalidBipartition):
            Bipartition.from_label("14|2", 3)


class TestPartialTranspose:
    def test_identity_fixed_point(self):
        state = initial_state(2)
        part = Bipartition.from_label("1|2", 2)
        np.testing.assert_array_equal(partial_transpose(state, part), np.eye(4))

    def test_sign_pattern_two_modes(self):
        # flipping P of side B means Theta = diag(1, 1, 1, -1)
        state = GaussianState(2, np.eye(4) * 2.0)
        part = Bipartition.from_label("1|2", 2)
        cm = state.cm.copy()
        expected = np.diag([1, 1, 1, -1.0]) @ cm @ np.diag([1, 1, 1, -1.0])
        np.testing.assert_array_equal(partial_transpose(state, part), expected)

    def test_non_contiguous_side(self):
        # side B = {2} of three modes: only index 3 (P of mode 2) flips
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(6, 6))
        cm = basis @ basis.T + 6 * np.eye(6)
        state = GaussianState(3, cm)
        part = Bipartition.from_label("13|2", 3)
        theta = np.diag([1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            partial_transpose(state, part), theta @ cm @ theta, atol=1e-14
        )


class TestSymplecticEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(symplectic_eigenvalues(np.eye(6)), np.ones(3))

    def test_direct_sum(self):
        values = symplectic_eigenvalues(np.diag([3.0, 3.0, 1.0, 1.0]))
        np.testing.assert_allclose(values, [1.0, 3.0])

    def test_two_mode_squeezed_oracle(self):
        # brute-force eigensolve of i Omega sigma~ for the standard covariance
        r = 0.7
        cm = two_mode_squeezed_cm(r)
        theta = np.diag([1.0, 1.0, 1.0, -1.0])
        pt = theta @ cm @ theta
        brute = np.abs(np.linalg.eigvals(1j * symplectic_form(2) @ pt))
        brute.sort()
        expected_min = np.exp(-2 * r)
        assert brute[0] == pytest.approx(expected_min, rel=1e-10)
        values = symplectic_eigenvalues(pt)
        assert values[0] == pytest.approx(expected_min, rel=1e-10)

    def test_asymmetric_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        with pytest.raises(AsymmetricInput):
            symplectic_eigenvalues(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # refused before any eigensolve, which would not converge on NaN
        with pytest.raises(NonFiniteParameter, match="NaN or infinite"):
            symplectic_eigenvalues(np.full((4, 4), bad))
        cms = np.stack([np.eye(4), np.eye(4)])
        cms[1, 2, 2] = bad
        with pytest.raises(NonFiniteParameter, match="NaN or infinite"):
            witness_stack(cms, Bipartition.one_vs_rest(2), 0.0)


class TestWitnesses:
    def test_vacuum_not_entangled(self):
        state = initial_state(3)
        for label in ("1|23", "13|2", "12|3"):
            result = entanglement_result(state, Bipartition.from_label(label, 3))
            assert nu_minus(state, result.partition) == result.nu_minus == pytest.approx(1.0)
            assert result.log_negativity == 0.0

    def test_pure_pairing_matches_squeezer(self):
        # g = 0, J = 1: two-mode squeezer, nu_- = e^{-2 J t}
        spec = ChainSpec.uniform(2, g=0.0, j=1.0)
        part = Bipartition.from_label("1|2", 2)
        value = chain_nu_minus(spec, 1.0, part)
        assert value == pytest.approx(np.exp(-2.0), abs=1e-9)
        k = quadrature_generator(build_bdg_matrix(spec))
        state = evolve(initial_state(2), k, 1.0)
        assert entanglement_result(state, part).log_negativity == pytest.approx(2.0, abs=1e-9)

    def test_coalescence_point_value(self):
        # series limit of the closed form: xi = 1 + 8 J^2 t^2 at J t = 1
        expected = math.sqrt(9.0 - math.sqrt(80.0))
        value = chain_nu_minus(ChainSpec.uniform(2, g=1.0, j=1.0), 1.0)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_log_negativity_definition(self):
        # PT spectrum {0.5, 2.0} gives E = -ln 0.5
        r = 0.5 * math.log(2.0)  # e^{-2r} = 0.5
        state = GaussianState(2, two_mode_squeezed_cm(r))
        part = Bipartition.from_label("1|2", 2)
        res = entanglement_result(state, part)
        np.testing.assert_allclose(res.symplectic_eigenvalues_pt, [0.5, 2.0], rtol=1e-12)
        assert res.log_negativity == pytest.approx(math.log(2.0), rel=1e-12)

    def test_violation_count_bounded(self):
        # at most min(|A|, |B|) eigenvalues of the PT may drop below 1
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            bonds = n - 1
            spec = ChainSpec(
                n_modes=n,
                hopping=tuple(rng.uniform(0, 1.5, bonds) * np.exp(1j * rng.uniform(0, 2 * np.pi, bonds))),
                pairing=tuple(rng.uniform(0, 1.5, bonds)),
                sms=tuple(rng.uniform(-1, 1, n).astype(complex)),
            )
            k = quadrature_generator(build_bdg_matrix(spec))
            state = evolve(initial_state(n), k, 1.0)
            size_a = int(rng.integers(1, n))
            part = Bipartition.from_sides(n, rng.choice(n, size_a, replace=False))
            res = entanglement_result(state, part)
            below = sum(1 for v in res.symplectic_eigenvalues_pt if v < 1 - 1e-9)
            assert below <= min(len(part.side_a), len(part.side_b))


class TestXiMaps:
    def test_unit_witness(self):
        assert xi_from_nu(1.0) == 1.0
        assert nu_from_xi(1.0) == 1.0

    def test_hyperbolic_identity(self):
        assert xi_from_nu(math.exp(-2.0)) == pytest.approx(math.cosh(4.0), rel=1e-12)

    @pytest.mark.parametrize("xi", [1.0, 9.0, 17.0])
    def test_round_trip(self, xi):
        assert xi_from_nu(nu_from_xi(xi)) == pytest.approx(xi, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            xi_from_nu(0.0)
        with pytest.raises(OutOfRange):
            xi_from_nu(1.5)
        for xi in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfRange):
                nu_from_xi(xi)

    def test_large_xi_is_stable(self):
        # the naive sqrt(xi - sqrt(xi^2-1)) loses half the digits here
        xi = 2.0e7
        nu = nu_from_xi(xi)
        assert xi_from_nu(nu) == pytest.approx(xi, rel=1e-12)

    @pytest.mark.parametrize("xi", [1e20, 1e100, 1e150, 1.3e154, 1e160, 1e300, sys.float_info.max])
    def test_huge_xi(self, xi):
        # nu = 1/sqrt(2 xi) with the same two roundings on both sides of the
        # point where xi^2 overflows (about 1.34e154), and never 0
        nu = nu_from_xi(xi)
        assert nu == 0.5 / math.sqrt(0.5 * xi)
        assert nu == pytest.approx(math.sqrt(0.5 / xi), rel=1e-15)
        assert nu > 0.0


class TestTwoModeClosedForm:
    def test_initial_value(self):
        for g in (0.3, 1.0, 2.0):
            assert nu_closed_form_two_mode(g, 1.0, 0.0) == 1.0

    def test_pure_squeezer_limit(self):
        for t in (0.5, 1.0, 3.0):
            assert nu_closed_form_two_mode(0.0, 1.0, t) == pytest.approx(
                np.exp(-2.0 * t), rel=1e-12
            )

    def test_coalescence_series(self):
        assert nu_closed_form_two_mode(1.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(9.0 - math.sqrt(80.0)), rel=1e-12
        )

    def test_no_pairing_means_no_entanglement(self):
        assert nu_closed_form_two_mode(1.3, 0.0, 2.0) == 1.0

    def test_keeps_its_digits_near_one(self):
        # xi = 1 + 8e-18 rounds to 1; its excess y = xi - 1 does not
        assert abs(nu_closed_form_two_mode(2.0, 1.0, 1e-9) - 0.999999998000000002) <= 1e-15
        with mpmath.workdps(40):
            for g, t in [(2.0, 1e-7), (2.0, 2.0), (0.5, 1e-6), (0.5, 1.0), (1.0, 1e-8), (1.0, 0.3)]:
                c2 = mpmath.mpf(g) ** 2 - 1
                if c2 == 0:
                    y = 8 * mpmath.mpf(t) ** 2
                elif c2 > 0:
                    y = 2 * mpmath.sin(2 * mpmath.sqrt(c2) * t) ** 2 / c2
                else:
                    y = 2 * mpmath.sinh(2 * mpmath.sqrt(-c2) * t) ** 2 / -c2
                exact = 1 / mpmath.sqrt(1 + y + mpmath.sqrt(y * (y + 2)))
                assert abs(nu_closed_form_two_mode(g, 1.0, t) - float(exact)) <= 4e-16

    @pytest.mark.parametrize("g, t, cause", [
        (1e200, 1.0, "Numerical result out of range"),  # g ** 2
        (0.5, 1000.0, "math range error"),  # sinh(2 |c| t)
        (1e150, 1e160, "math domain error"),  # sin of the infinite phase 2 c t
    ])
    def test_overflow_is_out_of_range(self, g, t, cause):
        with pytest.raises(OutOfRange, match=f"xi cannot be evaluated in floats.*{cause}"):
            nu_closed_form_two_mode(g, 1.0, t)

    @pytest.mark.parametrize("g", [0.5, 0.9, 0.99, 1.0, 1.01, 1.5])
    def test_matches_numeric_pipeline(self, g):
        spec = ChainSpec.uniform(2, g=g, j=1.0)
        for t in np.linspace(0.0, 5.0, 26):
            assert chain_nu_minus(spec, float(t)) == pytest.approx(
                nu_closed_form_two_mode(g, 1.0, float(t)), abs=1e-8
            )


@pytest.mark.parametrize("g", [0.5, 0.8, 1.2, 1.7])
def test_no_verdict_flips_silently(g):
    # each cell is refused, or it is entangled exactly when the closed form is
    spec = ChainSpec.uniform(2, g=g, j=1.0)
    flips = []
    for t in 0.5 * np.arange(201):
        try:
            nu = chain_nu_minus(spec, float(t))
        except (PrecisionLoss, OverflowRisk):
            continue
        exact = nu_closed_form_two_mode(g, 1.0, float(t))
        if abs(exact - 1.0) > 1e-6 and (nu < 1.0) != (exact < 1.0):
            flips.append((float(t), nu, exact))
    assert not flips


@given(st.floats(0.1, 3.0), st.floats(1.05, 3.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_oscillatory_chains_are_never_refused(j, ratio, fraction):
    # g > J, no on-site squeezing: S stays bounded, so up to ||K||_2 t = 3000
    # the witness is the closed form's and nothing refuses it
    spec = ChainSpec.uniform(2, g=ratio * j, j=j)
    t = fraction * 3000.0 / np.linalg.norm(quadrature_generator(build_bdg_matrix(spec)).data, 2)
    nu, exact = chain_nu_minus(spec, t), nu_closed_form_two_mode(ratio * j, j, t)
    assert abs(nu - exact) <= 1e-9


def oracle_nu_minus(spec, t, part):
    """nu_- from a 50-digit mpmath exp(K t) and eigensolve of Omega sigma~, vacuum start."""
    with mpmath.workdps(50):
        n = spec.n_modes
        s = mpmath.expm(mpmath.matrix(quadrature_generator(build_bdg_matrix(spec)).data.tolist()) * t)
        signs = np.ones(2 * n)
        for mode in part.side_b:
            signs[2 * mode + 1] = -1.0
        flip = mpmath.diag(signs.tolist())
        pt = flip * s * s.T * flip
        values = mpmath.eig(mpmath.matrix(symplectic_form(n).tolist()) * pt, left=False, right=False)
        return float(min(abs(mpmath.im(v)) for v in values))


@pytest.mark.parametrize("n, g, eta, label", [
    (2, 0.5, 0.0, "1|2"), (2, 0.8, 0.2, "1|2"), (3, 0.5, 0.3, "1|23"),
])
def test_accepted_witnesses_of_growing_chains_match_oracle(n, g, eta, label):
    # the kernel refuses the N = 3 chain's witnesses from t ~ 10 on; every value
    # it still prints, up to that edge, is within 1 % of the oracle.  The
    # two-mode chains take the exact route: every time is accepted, within 1e-12
    spec = ChainSpec.uniform(n, g=g, j=1.0, eta=eta)
    part = Bipartition.from_label(label, n)
    rtol = 1e-12 if n == 2 else 1e-2
    accepted = 0
    for t in np.arange(2.0, 12.0, 0.5):
        try:
            nu = chain_nu_minus(spec, float(t), part)
        except PrecisionLoss:
            continue
        accepted += 1
        exact = oracle_nu_minus(spec, float(t), part)
        assert abs(nu - exact) <= rtol * exact, (float(t), nu, exact)
    if n == 2:
        assert accepted == 20
    else:
        assert 5 <= accepted < 20


def two_mode_norm(h, j, eta):
    """||K||_2: the largest |entry| of the two blocks K+- of the two-mode K."""
    return max(abs(h - (j + eta)), abs(h + j + eta), abs((j - eta) - h), abs(h + (j - eta)))


@st.composite
def two_mode_cells(draw):
    """(h, J, eta, t) with ||K|| t <= 100; a third of the draws on or next to an
    EP, h = +-(J +- eta) (1 + offset), where a block of K is nilpotent or nearly so."""
    j = draw(st.floats(0.0, 3.0))
    eta = draw(st.floats(-3.0, 3.0))
    if draw(st.integers(0, 2)) == 0:
        offset = draw(st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, -1e-6, 1e-4]))
        h = draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from([j + eta, j - eta])) * (1 + offset)
    else:
        h = draw(st.floats(-3.0, 3.0))
    norm = two_mode_norm(h, j, eta)
    # 100 / norm overflows for a subnormal norm; a time must be finite
    t = draw(st.floats(0.0, 1.0)) * min(100.0 / norm, 1e300) if norm else draw(st.floats(0.0, 100.0))
    return h, j, eta, t


class TestTwoModeWitness:
    """The two-mode chain's exact witness (``_two_mode_witness``) and its callers."""

    @given(two_mode_cells())
    @settings(max_examples=60, deadline=None)
    @example((0.9, 1.0, 0.2, 10.0))
    @example((1.2, 1.0, 0.2, 5.0))  # on the EP g = 1 + eta
    @example((0.8, 1.0, 0.2, 40.0))  # on the EP g = 1 - eta, polynomial growth
    @example((2.2250738585e-313, 0.0, 0.0, 1e300))  # a subnormal hopping at the time cap
    def test_matches_mpmath_oracle(self, cell):
        nu, logneg, refusal = _two_mode_witness(*cell[:3], np.array([cell[3]]))
        assert refusal is None
        exact_nu, exact_logneg = oracle_two_mode(*cell)
        assert abs(nu[0] - exact_nu) <= 1e-12 * exact_nu, (cell, nu[0], exact_nu)
        # E_N = -ln nu_-: nu_-'s relative error, in E_N's units
        assert abs(logneg[0] - exact_logneg) <= 1e-12 * max(exact_logneg, 1.0), (cell, logneg[0])

    @given(st.floats(-3.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_without_sms_is_the_closed_form(self, h, j, t):
        nu, _, _ = _two_mode_witness(h, j, 0.0, np.array([t]))
        assert nu[0] == pytest.approx(nu_closed_form_two_mode(h, j, t), rel=1e-12, abs=0.0)

    def test_state_table_cell(self):
        # the cell of the PT route's silent wrong value (1.3657249e-4, 1.08e-3 off):
        # entangle at g = 0.9, eta = 0.2, t = 10 now matches the oracle
        _, columns, extras = entanglement_trajectory(
            {"n": 2, "g": 0.9, "J": 1.0, "eta": 0.2}, [5.0, 10.0], [])
        exact = oracle_two_mode(0.9, 1.0, 0.2, 10.0)
        assert extras == {}
        assert abs(columns[1][1] - exact[0]) <= 1e-10 * exact[0]
        assert abs(columns[2][1] - exact[1]) <= 1e-10 * exact[1]
        assert f"{columns[1][1]:.7e}" == "1.3642527e-04"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h, j, eta", [(0.7, 1.0, 0.2), (1.2, 1.0, 0.2), (0.8, 1.0, 0.2),
                                           (1.3, 0.8, 0.5), (-0.4, 0.3, -1.2), (0.0, 0.0, 5.0)])
    def test_propagators_match_oracle(self, h, j, eta):
        # S from the two blocks is exp(K t), and so symplectic, to rounding
        times = np.array([0.0, 0.3, 1.7, 4.0])
        for cell, t in zip(_two_mode_propagators(h, j, eta, times), times):
            exact = np.array(oracle_propagator(h, j, eta, t).tolist(), dtype=float)
            assert np.abs(cell - exact).max() <= 1e-14 * np.abs(exact).max()
        # the chain's own generator: scipy's expm agrees to its rounding
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=h, j=j, eta=eta))).data
        expected = scipy.linalg.expm(k * 1.7)
        assert np.abs(_two_mode_propagators(h, j, eta, np.array([1.7]))[0] - expected).max() <= (
            1e-11 * np.abs(expected).max())

    @pytest.mark.parametrize("spec, exact", [
        (ChainSpec.uniform(2, g=0.7, j=1.0, eta=0.2), (0.7, 1.0, 0.2)),
        (ChainSpec.uniform(2, g=-1.5), (-1.5, 0.0, 0.0)),
        (ChainSpec(2, hopping=0.7, pairing=1.0, sms=(0.2, 0.2)), (0.7, 1.0, 0.2)),
        # a hopping phase, unequal or complex squeezing, or a third mode: the kernel
        (ChainSpec.uniform(2, g=0.7, j=1.0, phi=0.3), None),
        (ChainSpec.uniform(2, g=0.7, j=1.0, phi=math.pi), None),
        (ChainSpec(2, hopping=0.7, pairing=1.0, sms=(0.2, 0.3)), None),
        (ChainSpec(2, hopping=0.7, pairing=1.0, sms=0.2 + 1e-300j), None),
        (ChainSpec.uniform(3, g=0.7, j=1.0), None),
    ])
    def test_route_is_decided_from_the_spec(self, spec, exact):
        assert _two_mode_rates(spec) == exact

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refused_only_where_y_overflows(self):
        # nu_- ~ 1e-151 at y ~ 1e301 is printed; y past the float range is refused
        times = np.array([0.0, 150.0, 200.0, 400.0])
        nu, logneg, refusal = _two_mode_witness(0.5, 1.0, 0.2, times)
        assert len(nu) == 3 and str(refusal) == "the witness overflows double precision"
        assert (nu > 0).all() and np.isfinite(logneg).all()
        exact = oracle_two_mode(0.5, 1.0, 0.2, 200.0)
        assert abs(nu[2] - exact[0]) <= 1e-12 * exact[0] and abs(logneg[2] - exact[1]) <= 1e-12 * exact[1]
        # rates past about 1e154, at t = 0 and after: no NaN from an overflowed (mu t)^2
        nu, _, refusal = _two_mode_witness(1e200, 1.0, 0.2, np.array([0.0, 0.025]))
        assert refusal is None and nu[0] == 1.0 and 0.0 < nu[1] <= 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h, j, eta", [(0.0, 1.0, 5.0), (0.0, 0.0, 5.0), (0.0, -1.0, 5.0)])
    def test_zero_hopping_past_the_blocks_overflow(self, h, j, eta):
        # at t = 150 cosh(mu t) of a block overflows, but with h = 0 it only multiplies the
        # terms A + B = 0 and h t = 0: y is finite (about 1e260 at J = 1, eta = 5,
        # where b + c = 2 sinh(2 t); 0 at J = 0, a product state), and the cell is printed
        nu, logneg, refusal = _two_mode_witness(h, j, eta, np.array([150.0]))
        assert refusal is None
        exact_nu, exact_logneg = oracle_two_mode(h, j, eta, 150.0)
        assert abs(nu[0] - exact_nu) <= 1e-12 * exact_nu
        assert abs(logneg[0] - exact_logneg) <= 1e-12 * max(exact_logneg, 1.0)

    @pytest.mark.parametrize("g", [0.7, 1.2, 1.6])
    def test_include_cm_is_the_evolved_covariance(self, g):
        # entangle's N = 2 covariance columns are the row-major upper triangle of
        # S sigma_0 S^T, sigma_0 the vacuum's, as the kernel writes them
        times = [0.0, 0.4, 1.7, 5.0]
        header, columns, extras = entanglement_trajectory(
            {"n": 2, "g": g, "J": 1.0, "eta": 0.2}, times, [], include_cm=True)
        assert extras == {}
        upper = np.triu_indices(4)
        assert header[3:] == [f"cm_{i + 1}_{k + 1}" for i, k in zip(*upper)]
        generator = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=g, j=1.0, eta=0.2)))
        for row, t in zip(columns[3], times):
            expected = reference_evolve(initial_state(2), generator, t)[upper]
            assert np.abs(row - expected).max() <= 1e-12 * np.abs(expected).max(), (g, t)


@st.composite
def one_quadrature_chains(draw):
    """(chain config, cut, ascending times) of a one-quadrature chain: N = 3..8,
    bond rates in [0, 2] with some bonds 0, hopping h_b = J_b on every bond or
    h_b = -J_b on every bond, a random cut, and |t| <= 3."""
    n = draw(st.integers(3, 8))
    rates = draw(st.lists(st.just(0.0) | st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    sign = draw(st.sampled_from([1.0, -1.0]))
    side = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    times = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5)))
    return {"n": n, "g": [sign * rate for rate in rates], "J": rates}, Bipartition.from_sides(n, side), times


def long_chain_cuts(n):
    """The benchmark's three N-mode cuts: 1|rest, half|half and odd|even."""
    side = lambda modes: ",".join(map(str, modes))
    return [f"1|{side(range(2, n + 1))}",
            f"{side(range(1, n // 2 + 1))}|{side(range(n // 2 + 1, n + 1))}",
            f"{side(range(1, n + 1, 2))}|{side(range(2, n + 1, 2))}"]


def oracle_pure_witness(spec, t, part, dps=40):
    """(nu_-, E_N) of the evolved vacuum from the symplectic eigenvalues of the
    reduced state of side A in dps-digit mpmath: S_A, the rows of side A of
    I + K t + (K t)^2 / 2 with K the chain's float generator (its K^2 is zero up
    to the generator's rounding), sigma_A = S_A S_A^T, and the eigenvalues nu_k^2
    of B^T B, B = L^T Omega L, L the Cholesky factor of sigma_A (Williamson).  A
    pure state's partial transpose has nu_k - sqrt(nu_k^2 - 1) and its inverse,
    so nu_- = 1 / (nu_max + sqrt(nu_max^2 - 1)) and E_N = sum_k arccosh nu_k."""
    k = quadrature_generator(build_bdg_matrix(spec)).data
    rows = [2 * mode + q for mode in sorted(part.side_a) for q in (0, 1)]
    with mpmath.workdps(dps):
        kt = mpmath.matrix(k.tolist()) * mpmath.mpf(t)
        kt_a = mpmath.matrix([[kt[r, c] for c in range(len(k))] for r in rows])
        s_a = kt_a + kt_a * kt / 2
        for i, r in enumerate(rows):
            s_a[i, r] += 1
        lower = mpmath.cholesky(s_a * s_a.T)
        b = lower.T * mpmath.matrix(symplectic_form(len(rows) // 2).tolist()) * lower
        squares = mpmath.eigsy(b.T * b, eigvals_only=True)
        nus = [mpmath.sqrt(max(value, 1)) for value in squares]
        top = max(nus)
        # each nu_k appears twice among the eigenvalues of B^T B
        return float(1 / (top + mpmath.sqrt(top * top - 1))), float(sum(mpmath.acosh(v) for v in nus) / 2)


class TestOneQuadratureWitness:
    """The one-quadrature chain's exact witness (``_one_quadrature_witness``) and its callers."""

    @given(one_quadrature_chains())
    @settings(max_examples=60, deadline=None)
    @example(({"n": 3, "g": [1.0, 1.0], "J": [1.0, 1.0]}, Bipartition.from_sides(3, [1]), [0.0, 3.0]))
    @example(({"n": 4, "g": [-0.0, -1.5, -0.0], "J": [0.0, 1.5, 0.0]}, Bipartition.from_sides(4, [0, 3]),
              [-2.0, 1.0]))  # a P-coupled chain whose cut no bond of nonzero rate crosses
    def test_matches_the_partial_transpose_kernel(self, chain):
        config, part, times = chain
        spec = build_chain_spec(config)
        assert _one_quadrature_bonds(spec) is not None
        _, columns, extras = entanglement_trajectory(config, times, [part.label])
        assert extras == {}
        k = quadrature_generator(build_bdg_matrix(spec)).data
        cms, error = evolve_grid(initial_state(spec.n_modes), k[None], times)
        nu, logneg, refusal = _cut_witnesses(cms, part, 0.0)
        assert error is None and refusal is None
        assert (np.abs(columns[1] - nu) <= 1e-10 * nu).all(), (columns[1], nu)
        assert (np.abs(columns[2] - logneg) <= 1e-10 * np.maximum(logneg, 1.0)).all(), (columns[2], logneg)
        # chain_nu_minus takes the same route: each cell bit for bit
        assert [chain_nu_minus(spec, t, part) for t in times] == columns[1].tolist()
        # on-site squeezing, a hopping phase of pi (whose hopping has an imaginary
        # part of 1.2e-16 g) and mixed signs leave the family
        assert _one_quadrature_bonds(build_chain_spec({**config, "eta": 0.1})) is None
        nonzero = [b for b, rate in enumerate(config["J"]) if rate]
        if nonzero:
            assert _one_quadrature_bonds(build_chain_spec({**config, "phi": math.pi})) is None
        if len(nonzero) >= 2:
            g = list(config["g"])
            g[nonzero[0]] = -g[nonzero[0]]
            assert _one_quadrature_bonds(build_chain_spec({**config, "g": g})) is None

    @pytest.mark.parametrize("spec, bonds", [
        (ChainSpec.uniform(3, g=1.0, j=1.0), ((1.0, 1.0), True)),
        (ChainSpec(4, hopping=(-0.5, 0.0, -2.0), pairing=(0.5, 0.0, 2.0)), ((0.5, 0.0, 2.0), False)),
        (ChainSpec(3), ((0.0, 0.0), True)),
        (build_chain_spec({"n": 30, "g": 1.0, "J": 1.0, "phi": 0.0}), ((1.0,) * 29, True)),
        # two modes keep the two-mode route; any other chain runs the kernel
        (ChainSpec.uniform(2, g=1.0, j=1.0), None),
        (ChainSpec(4, hopping=(1.0, -1.0, 1.0), pairing=1.0), None),
        (ChainSpec.uniform(3, g=1.0, j=1.0, eta=0.1), None),
        (ChainSpec(3, hopping=1.0, pairing=1.0, sms=1e-300j), None),
        (build_chain_spec({"n": 3, "g": 1.0, "J": 1.0, "phi": math.pi}), None),
        (build_chain_spec({"n": 3, "g": 1.0, "J": 1.0, "phi": math.pi / 2}), None),
        (ChainSpec(3, hopping=1.0 + 1e-300j, pairing=1.0), None),
        (ChainSpec.uniform(3, g=0.5, j=1.0), None),
    ])
    def test_route_is_decided_from_the_spec(self, monkeypatch, spec, bonds):
        assert _one_quadrature_bonds(spec) == bonds
        calls = []
        evolve_grid = sweeps.evolve_grid
        monkeypatch.setattr(sweeps, "evolve_grid", lambda *args: calls.append(1) or evolve_grid(*args))
        chain_nu_minus(spec, 0.5)
        assert bool(calls) == (bonds is None and spec.n_modes > 2)

    def test_long_chain_cuts_match_mpmath(self):
        spec = build_chain_spec({"n": 30, "g": 1.0, "J": 1.0, "phi": 0.0})
        parts = [Bipartition.from_label(label, 30) for label in long_chain_cuts(30)]
        times = np.array([0.35, 3.35])
        witnesses, _ = _one_quadrature_witness(spec.pairing, parts, times)
        for part, (nu, logneg) in zip(parts, witnesses):
            for t, got_nu, got_logneg in zip(times.tolist(), nu.tolist(), logneg.tolist()):
                exact_nu, exact_logneg = oracle_pure_witness(spec, t, part)
                assert abs(got_nu - exact_nu) <= 1e-13 * exact_nu, (part.label, t, got_nu, exact_nu)
                assert abs(got_logneg - exact_logneg) <= 1e-13 * exact_logneg, (part.label, t, got_logneg)

    @pytest.mark.parametrize("n", [3, 4, 10, 30])
    def test_one_vs_rest_is_the_series(self, n):
        times = np.linspace(0.0, 3.5, 15)
        spec = ChainSpec.uniform(n, g=1.0, j=1.0)
        [(nu, _)], _ = _one_quadrature_witness(spec.pairing, [Bipartition.one_vs_rest(n)], times)
        for t, value in zip(times.tolist(), nu.tolist()):
            exact = nu_closed_form_bkc_ep(n, 0.0, t)
            assert abs(value - exact) <= 1e-14 * exact, (t, value, exact)

    def test_even_in_time(self):
        times = [-3.0, -1.5, -0.1, 0.0, 0.1, 1.5, 3.0]
        _, columns, _ = entanglement_trajectory({"n": 6, "g": [1.0, 0.5, 0.0, 2.0, 1.0],
                                                 "J": [1.0, 0.5, 0.0, 2.0, 1.0]},
                                                times, ["135|246", "12|3456"])
        for column in columns[1:]:
            assert column.tolist() == column[::-1].tolist()
        assert columns[1][3] == 1.0 and columns[2][3] == 0.0

    def test_runs_no_expm_cholesky_or_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-quadrature chain ran a matrix exponential or an eigensolve")

        for module, name in [(dynamics, "expm"), (dynamics, "evolve_grid"), (sweeps, "evolve_grid"),
                             (np.linalg, "cholesky"), (np.linalg, "eigvalsh"), (np.linalg, "eigvals"),
                             (np.linalg, "eig")]:
            monkeypatch.setattr(module, name, refuse)
        config = {"n": 30, "g": 1.0, "J": 1.0, "phi": 0.0}
        _, columns, extras = entanglement_trajectory(config, np.linspace(0.0, 3.0, 31), long_chain_cuts(30),
                                                     include_cm=True)
        assert extras == {} and columns[-1].shape == (31, 60 * 61 // 2)
        assert 0.0 < chain_nu_minus(build_chain_spec(config), 3.0) < 1.0

    @pytest.mark.parametrize("x_coupled", [True, False])
    def test_include_cm_is_the_evolved_covariance(self, x_coupled):
        # the kept entries are sigma = S S^T to rounding, and exactly 0 wherever
        # the quadratic in t has no term
        rates = [1.0, 0.4, 0.0, 1.7]
        config = {"n": 5, "g": [r if x_coupled else -r for r in rates], "J": rates}
        times = [0.0, 0.3, 1.7, 3.0]
        header, columns, extras = entanglement_trajectory(config, times, [], include_cm=True)
        assert extras == {}
        upper = np.triu_indices(10)
        assert header[3:] == [f"cm_{i + 1}_{k + 1}" for i, k in zip(*upper)]
        generator = quadrature_generator(build_bdg_matrix(build_chain_spec(config)))
        for row, t in zip(columns[3], times):
            expected = reference_evolve(initial_state(5), generator, t)[upper]
            assert np.abs(row - expected).max() <= 1e-12 * np.abs(expected).max(), t
        k = generator.data * (np.abs(generator.data) > 1e-12)  # without the basis change's residue
        zero = ((k + k.T) == 0.0) & ((k @ k.T) == 0.0) & ~np.eye(10, dtype=bool)
        assert zero[upper].sum() > 0 and (columns[3][:, zero[upper]] == 0.0).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_past_the_float_range(self):
        # nu_- = 1/(x + hypot(1, x)) stays finite while t s does; with --include-cm the
        # t^2 entries overflow first, and the table ends at that time
        config = {"n": 5, "g": 1.0, "J": 1.0}
        _, columns, extras = entanglement_trajectory(config, [0.0, 1.0, 1e200], ["12|345"])
        assert extras == {} and columns[1][2] == 1.0 / 4e200 and np.isfinite(columns[2][2])
        _, columns, extras = entanglement_trajectory(config, [0.0, 1.0, 1e150, 1e200, 1e300], ["12|345"],
                                                     include_cm=True)
        assert len(columns[0]) == 3 and extras["truncated_by"] == "OverflowRisk"
        assert extras["truncation"] == "covariance overflows double precision (t=1e+200)"
        # past t s = 1.8e308 E_N overflows too
        _, columns, extras = entanglement_trajectory(config, [1.0, 1e308], ["12|345"])
        assert len(columns[0]) == 1
        assert extras["truncation"] == "the witness overflows double precision (t=1e+308)"


class TestSeriesCoefficients:
    def test_leading_coefficient_is_eight(self):
        coeffs = xi_series_coefficients(6)
        assert coeffs[0] == pytest.approx(8.0, abs=1e-6)

    def test_values_stable_across_sizes(self):
        # c_j does not depend on the chain size: a larger size only appends
        coeffs = xi_series_coefficients(6)
        assert coeffs == (8.0, 8.0, 32.0 / 9.0, 8.0 / 9.0, 32.0 / 225.0)
        assert xi_series_coefficients(30)[:5] == coeffs

    def test_coefficients_decay(self):
        coeffs = xi_series_coefficients(6)
        assert all(a >= b for a, b in zip(coeffs[1:], coeffs[2:]))

    def test_phase_zero_collapses_to_leading_term(self):
        # with no hopping phase the witness matches the two-mode series for
        # every size at the first-vs-rest cut
        for n in (3, 4, 5):
            for t in (0.3, 0.7, 1.0):
                got = bkc_nu_minus(n, 0.0, t)
                want = nu_from_xi(1.0 + 8.0 * t * t)
                assert got == pytest.approx(want, abs=1e-9)

    def test_min_size(self):
        with pytest.raises(OutOfRange):
            xi_series_coefficients(1)
        # a refusal is not cached: it is raised again
        with pytest.raises(OutOfRange):
            xi_series_coefficients(1)

    def test_cached_per_size(self):
        # fig3 asks for the same tuples for every cell: they are made once
        assert xi_series_coefficients(30) is xi_series_coefficients(30)
        assert xi_series_coefficients(30) is not xi_series_coefficients(29)

    def test_large_sizes_are_exact(self):
        # no ceiling on the size: N = 12 and 30 give the exact values too
        for max_n in (12, 30):
            coeffs = xi_series_coefficients(max_n)
            assert len(coeffs) == max_n - 1
            for j, c in enumerate(coeffs, start=1):
                assert c == float(Fraction(2 * 4**j, math.factorial(j) ** 2))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_exact_propagator(self, n):
        # at g = J = 1 and a hopping phase with rational (cos phi, sin phi)
        # the generator K has entries on the grid 1/25 and is nilpotent, so
        # S(t) = sum_k (K t)^k / k! is a polynomial with rational
        # coefficients; for the vacuum and the 1|rest cut,
        # xi = 2 det(sigma_1) - 1 with sigma_1 the first mode's 2x2 block of
        # S S^T.  Build that polynomial exactly and compare term by term with
        # 1 + sum_j c_j sin^(2 (j - 1))(phi) t^(2 j).
        phases = PYTHAGOREAN_PHASES if n <= 8 else [(Fraction(0), Fraction(1))]
        for cos, sin in phases:
            phi = math.atan2(sin, cos)
            k = quadrature_generator(
                build_bdg_matrix(ChainSpec.uniform(n, g=1.0, j=1.0, phi=phi))
            ).data
            k_grid = np.rint(25 * k)
            assert np.abs(25 * k - k_grid).max() <= 25e-12
            k_exact = np.array(
                [[Fraction(int(v), 25) for v in row] for row in k_grid], dtype=object
            )
            # rows[p][a][c] is the t^p coefficient of S[a][c], for a in {0, 1}
            rows = []
            power = np.array(
                [[Fraction(int(a == c)) for c in range(2 * n)] for a in (0, 1)], dtype=object
            )
            while any(v != 0 for v in power.ravel()):
                assert len(rows) < 2 * n, "K is not nilpotent"
                rows.append([[v / math.factorial(len(rows)) for v in r] for r in power])
                power = power.dot(k_exact)

            def block(a, b):
                poly = [Fraction(0)] * (2 * len(rows) - 1)
                for p, row_p in enumerate(rows):
                    for q, row_q in enumerate(rows):
                        poly[p + q] += sum(x * y for x, y in zip(row_p[a], row_q[b]))
                return poly

            s00, s01, s11 = block(0, 0), block(0, 1), block(1, 1)
            det = [Fraction(0)] * (2 * len(s00) - 1)
            for p in range(len(s00)):
                for q in range(len(s00)):
                    det[p + q] += s00[p] * s11[q] - s01[p] * s01[q]
            # K^p vanishes from a lower power where some sin(phi) = 0
            xi = [2 * d for d in det] + [Fraction(0)] * (2 * n - 1 - len(det))
            xi[0] -= 1
            want = [Fraction(0)] * len(xi)
            want[0] = Fraction(1)
            for j in range(1, n):
                want[2 * j] = Fraction(2 * 4**j, math.factorial(j) ** 2) * (sin * sin) ** (j - 1)
            assert xi == want, (cos, sin)
        assert xi_series_coefficients(n) == tuple(float(c) for c in want[2::2][:n - 1])


class TestBkcEpClosedForm:
    def test_two_modes_phase_independent(self):
        values = {nu_closed_form_bkc_ep(2, phi, 1.0) for phi in (0.0, 0.4, np.pi / 2)}
        target = math.sqrt(9.0 - math.sqrt(80.0))
        for v in values:
            assert v == pytest.approx(target, rel=1e-9)

    def test_initial_value(self):
        assert nu_closed_form_bkc_ep(4, 0.7, 0.0) == 1.0

    def test_overflow_is_out_of_range(self):
        with pytest.raises(OutOfRange, match=r"\(J t\)\^2 overflows at J t = 1e\+160"):
            nu_closed_form_bkc_ep(2, 0.3, 1e160)

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_non_finite_phase_is_out_of_range(self, phi):
        with pytest.raises(OutOfRange, match=r"^phi must be finite, got"):
            nu_closed_form_bkc_ep(3, phi, 1.0)

    def test_higher_order_beats_second_order(self):
        t = 3.5
        assert nu_closed_form_bkc_ep(3, np.pi / 2, t) < nu_closed_form_bkc_ep(3, 0.0, t)

    def test_matches_numeric_pipeline(self):
        # sizes beyond N = 9 included: the series has no size ceiling
        for n in (2, 3, 4, 5, 7, 12, 20, 30):
            for phi in (0.0, 0.4, np.pi / 4, np.pi / 2, 2.5):
                for t in (0.5, 1.5, 3.0, 3.5):
                    got = bkc_nu_minus(n, phi, t)
                    want = nu_closed_form_bkc_ep(n, phi, t)
                    assert got == pytest.approx(want, abs=1e-7), (n, phi, t)


class TestThreeModeClosedForm:
    def test_arc_point_value(self):
        # xi = 17 at J t = 1, varphi = 0
        assert nu_closed_form_three_mode_nonuniform(0.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(17.0 - math.sqrt(288.0)), rel=1e-12
        )

    def test_initial_value(self):
        assert nu_closed_form_three_mode_nonuniform(0.5, 1.0, 0.0) == 1.0

    def test_overflow_is_out_of_range(self):
        with pytest.raises(OutOfRange, match=r"\(J t\)\^2 overflows at J t = 1e\+160"):
            nu_closed_form_three_mode_nonuniform(0.1, 1.0, 1e160)

    @pytest.mark.parametrize("varphi", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_is_out_of_range(self, varphi):
        with pytest.raises(OutOfRange, match=r"^varphi must be finite, got"):
            nu_closed_form_three_mode_nonuniform(varphi, 1.0, 1.0)

    def test_angle_increases_entanglement(self):
        t = 2.0
        assert nu_closed_form_three_mode_nonuniform(
            np.pi / 4, 1.0, t
        ) < nu_closed_form_three_mode_nonuniform(0.0, 1.0, t)

    @pytest.mark.parametrize("varphi", [0.0, np.pi / 8, np.pi / 4])
    def test_matches_numeric_pipeline(self, varphi):
        part = Bipartition.from_label("13|2", 3)
        spec = three_mode_surface_spec(varphi)
        for t in np.linspace(0.0, 5.0, 21):
            got = chain_nu_minus(spec, float(t), part)
            want = nu_closed_form_three_mode_nonuniform(varphi, 1.0, float(t))
            assert got == pytest.approx(want, abs=1e-6)

    def test_tripartite_signature_in_decaying_region(self):
        # below the surface every one-vs-two cut is entangled simultaneously
        spec = ChainSpec(3, hopping=(0.5, 0.5), pairing=(1.0, 1.0), sms=0)
        k = quadrature_generator(build_bdg_matrix(spec))
        state = evolve(initial_state(3), k, 5.0)
        for label in ("13|2", "12|3", "23|1"):
            assert nu_minus(state, Bipartition.from_label(label, 3)) < 1.0


class TestEnhancementRatio:
    def test_two_modes_always_unity(self):
        for t in (0.5, 1.0, 3.5):
            assert enhancement_ratio(2, t) == pytest.approx(1.0, abs=1e-9)

    def test_undefined_at_zero_time(self):
        with pytest.raises(DivisionByZeroLog):
            enhancement_ratio(3, 0.0)

    def test_grows_with_size(self):
        assert enhancement_ratio(6, 3.5) > enhancement_ratio(3, 3.5)

    def test_accumulates_with_time(self):
        times = np.linspace(0.5, 3.5, 7)
        ratios = [enhancement_ratio(6, float(t)) for t in times]
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))


class TestPhaseMonotonicity:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_negativity_nondecreasing_in_phase(self, n):
        t = 3.5
        phis = np.linspace(0.0, np.pi / 2, 13)
        neg = [-math.log(bkc_nu_minus(n, float(phi), t)) for phi in phis]
        assert all(b >= a - 1e-9 for a, b in zip(neg, neg[1:]))

    def test_ordering_in_size_at_half_pi(self):
        t = 3.5
        values = [-math.log(bkc_nu_minus(n, np.pi / 2, t)) for n in range(2, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))
