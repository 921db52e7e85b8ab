"""Partial-transpose witnesses, closed forms, and series coefficients."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epchain import (
    Bipartition,
    ChainSpec,
    GaussianState,
    bkc_nu_minus,
    build_bdg_matrix,
    chain_nu_minus,
    enhancement_ratio,
    entanglement_result,
    evolve,
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
from epchain.errors import (
    AsymmetricInput,
    DivisionByZeroLog,
    InvalidBipartition,
    NonFiniteParameter,
    OutOfRange,
    OverflowRisk,
    PrecisionLoss,
)


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
    # the kernel refuses these chains' witnesses from t ~ 6-10 on; every value
    # it still prints, up to that edge, is within 1 % of the oracle
    spec = ChainSpec.uniform(n, g=g, j=1.0, eta=eta)
    part = Bipartition.from_label(label, n)
    accepted = 0
    for t in np.arange(2.0, 12.0, 0.5):
        try:
            nu = chain_nu_minus(spec, float(t), part)
        except PrecisionLoss:
            continue
        accepted += 1
        exact = oracle_nu_minus(spec, float(t), part)
        assert abs(nu - exact) <= 1e-2 * exact, (float(t), nu, exact)
    assert 5 <= accepted < 20


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
