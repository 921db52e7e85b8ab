"""Spectrum classification, Jordan structure, and exceptional-point search."""

import cmath
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epchain import (
    BdgMatrix,
    ChainSpec,
    Region,
    build_bdg_matrix,
    detect_eps,
    eigenspectrum,
    jordan_structure,
    locate_ep_1d,
    scan_exceptional_surface,
    spectrum_report,
    spectrum_stack,
)
from epchain.chain import spec_bdg_stack
from epchain.errors import ConfigError, NoTransition, OutOfRange, RankAmbiguity
from epchain.spectral import _REGIONS, DEFAULT_REGION_TOL, _cluster_eigenvalues, _label_rows

from conftest import assert_multiset_close, spec_stacks


def two_mode(g, j=1.0, eta=0.0):
    return build_bdg_matrix(ChainSpec.uniform(2, g=g, j=j, eta=eta))


# The per-slice labeller that ``spectrum_stack`` replaced, kept as the
# reference it must match bit for bit: one ``eigvals`` per matrix, a lexsort
# by (real, imag), and the scalar threshold and three-way label.

def reference_eigenspectrum(m):
    values = np.linalg.eigvals(m)
    return values[np.lexsort((values.imag, values.real))]


def reference_region_threshold(eigenvalues, tol):
    scale = float(np.abs(eigenvalues).max()) if len(eigenvalues) else 0.0
    return max(tol * scale, 1e-12)


def reference_label(eigenvalues, threshold):
    if np.all(np.abs(eigenvalues.real) <= threshold):
        return Region.PURELY_IMAGINARY
    if np.all(np.abs(eigenvalues.imag) <= threshold):
        return Region.PURELY_REAL
    return Region.MIXED


def reference_report(m, tol):
    values = reference_eigenspectrum(m)
    region = reference_label(values, reference_region_threshold(values, tol))
    boundary = (
        reference_label(values, reference_region_threshold(values, tol / 2)) != region
        or reference_label(values, reference_region_threshold(values, tol * 2)) != region
    )
    return values, region, boundary


def reference_signature(spec, tol):
    values = reference_eigenspectrum(build_bdg_matrix(spec).data)
    threshold = reference_region_threshold(values, tol)
    on_real = np.abs(values.imag) <= threshold
    on_imag = np.abs(values.real) <= threshold
    n_real = int(np.sum(on_real & ~on_imag))
    n_imag = int(np.sum(on_imag & ~on_real))
    return reference_label(values, threshold), n_real, n_imag


def reference_locate(family, lo, hi, tol=1e-6, region_tol=DEFAULT_REGION_TOL):
    """The scan of ``locate_ep_1d`` with one scalar signature per grid point."""
    grid = np.linspace(lo, hi, 129)
    signatures = [reference_signature(family(float(x)), region_tol) for x in grid]
    found = []
    for a, b, sig_a, sig_b in zip(grid, grid[1:], signatures, signatures[1:]):
        if sig_a == sig_b:
            continue
        left, right = float(a), float(b)
        while right - left > tol:
            mid = 0.5 * (left + right)
            if reference_signature(family(mid), region_tol) == sig_a:
                left = mid
            else:
                right = mid
        found.append(0.5 * (left + right))
    if not found:
        raise NoTransition("no transition")
    found.sort()
    merged = []
    for x in found:
        if merged and x - merged[-1][-1] <= 2 * tol:
            merged[-1].append(x)
        else:
            merged.append([x])
    return tuple(float(np.mean(group)) for group in merged)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NoTransition:
        return NoTransition


class TestSpectrumStack:
    @given(spec_stacks(), st.sampled_from([DEFAULT_REGION_TOL, 1e-6, 1e-3]))
    @settings(max_examples=150, deadline=None)
    @example([ChainSpec.uniform(3, g=1.0, j=1.0, phi=np.pi / 2)], DEFAULT_REGION_TOL)
    @example([ChainSpec.uniform(8, g=1.0, j=1.0, phi=np.pi / 2)], DEFAULT_REGION_TOL)
    @example([ChainSpec(n_modes=1), ChainSpec(n_modes=1, sms=0.7)], DEFAULT_REGION_TOL)
    @example([ChainSpec.uniform(2, g=1.59, j=1.0, eta=0.2)], DEFAULT_REGION_TOL)
    def test_bit_equal_to_per_slice_reference(self, specs, tol):
        values, regions, boundary = spectrum_stack(spec_bdg_stack(specs), tol)
        assert values.shape == (len(specs), 2 * specs[0].n_modes)
        assert len(regions) == len(boundary) == len(specs)
        for spec, row, region, flag in zip(specs, values, regions, boundary):
            ref_values, ref_region, ref_boundary = reference_report(build_bdg_matrix(spec).data, tol)
            assert row.tobytes() == ref_values.tobytes()
            assert region is ref_region
            assert bool(flag) == ref_boundary

    def test_one_slice_cases(self):
        m = two_mode(1.19, eta=0.2)
        values, (region,), (flag,) = spectrum_stack(m.data[None])
        report = spectrum_report(m)
        assert report.eigenvalues == tuple(values[0].tolist())
        assert (report.region, report.boundary) == (region, flag) == (Region.MIXED, False)
        assert eigenspectrum(m).tobytes() == values[0].tobytes()

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_is_checked(self, tol):
        with pytest.raises(ConfigError, match="positive and finite"):
            spectrum_stack(two_mode(1.0).data[None], tol)
        with pytest.raises(ConfigError, match="positive and finite"):
            jordan_structure(two_mode(1.0), 0.0, tol)


class TestEigenspectrum:
    @pytest.mark.parametrize("g", [0.3, 0.5, 0.9, 1.1, 1.5, 2.0])
    def test_two_mode_formula(self, g):
        # oracle: lambda = +-sqrt(g^2 - J^2) with multiplicity 2
        root = cmath.sqrt(g**2 - 1.0)
        assert_multiset_close(
            eigenspectrum(two_mode(g)), [root, root, -root, -root],
            1e-9 * max(g, 1.0), label=f"g={g}",
        )

    def test_single_mode_no_bonds(self):
        values = eigenspectrum(build_bdg_matrix(ChainSpec(n_modes=1)))
        assert_multiset_close(values, [0, 0], 1e-15)

    def test_deterministic_sort(self):
        a = eigenspectrum(two_mode(1.7))
        b = eigenspectrum(two_mode(1.7))
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a.real) >= 0)


class TestClassifyRegion:
    """The region rule of ``spectrum_stack``, through ``spectrum_report`` and
    the row labeller ``_label_rows``."""

    @pytest.mark.parametrize(
        "g, expected",
        [
            (0.79, Region.PURELY_IMAGINARY),
            (1.19, Region.MIXED),
            (1.59, Region.PURELY_REAL),
        ],
    )
    def test_three_regions_with_sms(self, g, expected):
        assert spectrum_report(two_mode(g, eta=0.2)).region is expected

    def test_zero_spectrum_counts_as_imaginary(self):
        # a single mode has no bonds: M is zero
        report = spectrum_report(build_bdg_matrix(ChainSpec(n_modes=1)))
        assert report.eigenvalues == (0j, 0j) and report.region is Region.PURELY_IMAGINARY
        codes, _, _ = _label_rows(np.zeros((1, 2), dtype=complex), DEFAULT_REGION_TOL)
        assert _REGIONS[codes[0]] is Region.PURELY_IMAGINARY

    def test_zero_modes_do_not_force_mixed(self):
        # permanent zero pair of the three-mode chain never forces MIXED
        m = build_bdg_matrix(ChainSpec(3, hopping=(0.4, 0.6), pairing=(1.0, 1.1), sms=0))
        assert spectrum_report(m).region is Region.PURELY_IMAGINARY

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_scaling_invariance(self, scale):
        values = eigenspectrum(two_mode(1.19, eta=0.2))
        codes, _, _ = _label_rows(scale * values[None], DEFAULT_REGION_TOL)
        assert _REGIONS[codes[0]] is Region.MIXED

    def test_boundary_flag_near_transition(self):
        report = spectrum_report(two_mode(1.59, eta=0.2))
        assert report.region is Region.PURELY_REAL and not report.boundary

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            spectrum_report(two_mode(1.0), tol=0.0)


class TestJordanStructure:
    def test_two_mode_coalescence(self):
        assert jordan_structure(two_mode(1.0), 0.0) == (2, 2)

    def test_three_mode_highest_order(self):
        m = build_bdg_matrix(ChainSpec.uniform(3, g=1.0, j=1.0, phi=np.pi / 2))
        assert jordan_structure(m, 0.0) == (3, 3)

    def test_semisimple_double_eigenvalue(self):
        # at g=2, J=1 the eigenvalue sqrt(3) is doubly degenerate but
        # diagonalizable: two size-1 blocks, so no exceptional point
        assert jordan_structure(two_mode(2.0), np.sqrt(3.0)) == (1, 1)

    def test_rank_ambiguity_raised(self):
        # singular value parked inside the factor-10 window around the threshold
        bogus = BdgMatrix(data=np.diag([1.0, 4e-8]).astype(complex))
        with pytest.raises(RankAmbiguity):
            jordan_structure(bogus, 0.0, tol=1e-8)

    def test_threshold_overflow_is_out_of_range(self):
        # tol * s1**2 is past the float range at s1 = 1e200
        m = BdgMatrix(data=np.array([[0.0, 1e200], [0.0, 0.0]], dtype=complex))
        with pytest.raises(OutOfRange, match=r"tol \* s1\*\*2 overflows at s1 = 1\.000e\+200"):
            jordan_structure(m, 0.0)

    def test_blocks_sum_to_multiplicity(self):
        for phi in (0.0, np.pi / 2, 0.7):
            m = build_bdg_matrix(ChainSpec.uniform(4, g=1.0, j=1.0, phi=phi))
            blocks = jordan_structure(m, 0.0)
            assert sum(blocks) == 8


class TestDetectEps:
    def test_four_mode_phase_zero(self):
        clusters = detect_eps(build_bdg_matrix(ChainSpec.uniform(4, g=1.0, j=1.0)))
        assert len(clusters) == 1
        assert clusters[0].jordan_blocks == (2, 2, 2, 2)
        assert clusters[0].algebraic_multiplicity == 8
        assert clusters[0].order == 2
        assert abs(clusters[0].center) < 1e-8

    def test_four_mode_phase_half_pi(self):
        clusters = detect_eps(
            build_bdg_matrix(ChainSpec.uniform(4, g=1.0, j=1.0, phi=np.pi / 2))
        )
        assert len(clusters) == 1
        assert clusters[0].jordan_blocks == (4, 4)
        assert clusters[0].order == 4

    def test_no_eps_for_nondegenerate_spectrum(self):
        assert detect_eps(two_mode(2.0)) == ()

    def test_ordinary_zero_pair_not_reported(self):
        m = build_bdg_matrix(ChainSpec(3, hopping=(0.4, 0.6), pairing=(1.0, 1.1), sms=0))
        assert detect_eps(m) == ()

    def test_geometric_multiplicity(self):
        # one Jordan block per eigenvector
        clusters = detect_eps(build_bdg_matrix(ChainSpec.uniform(2, g=1.0, j=1.0)))
        assert len(clusters[0].jordan_blocks) == 2

    @pytest.mark.parametrize(
        "n, phi, blocks",
        [
            (5, np.pi / 2, (5, 5)),
            (6, np.pi / 2, (6, 6)),
            (5, 0.3, (5, 5)),  # any non-lattice phase gives the highest order
            (5, 0.0, (2, 2, 2, 2, 1, 1)),  # odd size: 4-fold order 2 + zero modes
            (6, 0.0, (2, 2, 2, 2, 2, 2)),
        ],
    )
    def test_larger_chains(self, n, phi, blocks):
        # eigenvalue debris grows like eps^(1/k) with the block size, so these
        # exercise the clustering at its widest
        clusters = detect_eps(build_bdg_matrix(ChainSpec.uniform(n, g=1.0, j=1.0, phi=phi)))
        assert len(clusters) == 1
        assert clusters[0].jordan_blocks == blocks

    @pytest.mark.parametrize("scale", [0.3, 2.5])
    def test_coupling_scale_invariance(self, scale):
        m = build_bdg_matrix(ChainSpec.uniform(4, g=scale, j=scale, phi=np.pi / 2))
        (cluster,) = detect_eps(m)
        assert cluster.jordan_blocks == (4, 4)


@st.composite
def values_and_radius(draw):
    """Up to 13 complex values near a grid of spacing 1, scaled, and a radius around the spacing."""
    scale = draw(st.sampled_from([1e-9, 1e-5, 1e-2, 0.1]))
    cell = st.integers(-4, 4).map(float) | st.floats(-4.0, 4.0)
    points = draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=13))
    radius = draw(st.sampled_from([0.5, 1.0, 1.5, 3.0])) * scale
    return np.array([complex(re, im) * scale for re, im in points]), radius


class TestClusterEigenvalues:
    """Single-linkage groups are the connected components of the within-radius graph."""

    @given(values_and_radius())
    @settings(max_examples=300, deadline=None)
    def test_components(self, case):
        values, radius = case
        groups = _cluster_eigenvalues(values, radius)
        key = lambda z: (z.real, z.imag)
        # every value once, groups and their members in (real, imaginary) order
        assert sorted(map(key, np.concatenate(groups))) == sorted(map(key, values))
        assert all(list(map(key, g)) == sorted(map(key, g)) for g in groups)
        firsts = [key(g[0]) for g in groups]
        assert firsts == sorted(firsts)
        # two values within the radius share a group
        flat = [(k, z) for k, g in enumerate(groups) for z in g]
        for (k1, z1), (k2, z2) in itertools.combinations(flat, 2):
            if abs(z1 - z2) <= radius:
                assert k1 == k2
        # no group splits into two parts farther apart than the radius
        for group in groups:
            reached, rest = {0}, set(range(1, len(group)))
            while rest:
                step = {i for i in rest if any(abs(group[i] - group[j]) <= radius for j in reached)}
                assert step, (group, radius)
                reached |= step
                rest -= step


class TestLocateEp1d:
    def test_two_mode_splitting_by_sms(self):
        found = locate_ep_1d(
            lambda g: ChainSpec.uniform(2, g=g, j=1.0, eta=0.2), 0.5, 1.5, tol=1e-8
        )
        assert_multiset_close(found, [0.8, 1.2], 1e-6)

    def test_two_mode_without_sms(self):
        found = locate_ep_1d(lambda g: ChainSpec.uniform(2, g=g, j=1.0), 0.5, 1.5)
        assert len(found) == 1
        assert found[0] == pytest.approx(1.0, abs=1e-6)

    def test_four_mode_interior_transitions(self):
        # the trichotomy label only changes at the outer points; the spectral
        # signature sees all four pair collisions
        family = lambda g: ChainSpec.uniform(4, g=g, j=1.0, eta=0.2)
        found = locate_ep_1d(family, 0.5, 1.5, tol=1e-7)
        assert len(found) == 4
        assert all(a < b for a, b in zip(found, found[1:]))
        region = lambda g: spectrum_report(build_bdg_matrix(family(g))).region
        assert region(found[0] - 1e-3) is Region.PURELY_IMAGINARY
        assert region(found[3] + 1e-3) is Region.PURELY_REAL
        assert region(0.5 * (found[1] + found[2])) is Region.MIXED

    def test_no_transition(self):
        with pytest.raises(NoTransition):
            locate_ep_1d(lambda g: ChainSpec.uniform(2, g=g, j=1.0), 2.0, 3.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            locate_ep_1d(lambda g: ChainSpec.uniform(2, g=g, j=1.0), 1.0, 1.0)

    @pytest.mark.parametrize("lo, hi, kwargs", [
        (1.5, 0.5, {}),
        (0.5, float("inf"), {}),
        (0.5, 1.5, {"tol": 0.0}),
        (0.5, 1.5, {"tol": float("nan")}),
    ], ids=["reversed", "infinite", "zero_tol", "nan_tol"])
    def test_argument_errors_are_config_errors(self, lo, hi, kwargs):
        # a bisection width of 0 would never end
        with pytest.raises(ConfigError):
            locate_ep_1d(lambda g: ChainSpec.uniform(2, g=g, j=1.0, eta=0.2), lo, hi, **kwargs)

    def test_family_that_changes_size(self):
        family = lambda g: ChainSpec.uniform(2 if g < 1 else 3, g=g, j=1.0, eta=0.2)
        with pytest.raises(ConfigError, match="N=2 and N=3"):
            locate_ep_1d(family, 0.5, 1.5)

    def test_spec_stack_of_mixed_sizes(self):
        with pytest.raises(ConfigError, match="share one size, got N=2 and N=3"):
            spec_bdg_stack([ChainSpec.uniform(2, g=1.0), ChainSpec.uniform(3, g=1.0)])

    def test_fig2_family_equals_scalar_scan(self):
        family = lambda g: ChainSpec.uniform(2, g=g, j=1.0, eta=0.2)
        for lo, hi in ((0.5, 1.5), (0.5 + 1 / 64, 1.5 + 1 / 64)):
            assert locate_ep_1d(family, lo, hi) == reference_locate(family, lo, hi)

    @pytest.mark.parametrize("n", [3, 6, 8])
    @pytest.mark.parametrize("phi", [0.0, np.pi / 2])
    def test_ep_scan_families_equal_scalar_scan(self, n, phi):
        family = lambda g: ChainSpec.uniform(n, g=g, j=1.0, phi=phi)
        for lo, hi in ((0.5, 1.5), (0.52, 1.48)):
            assert outcome(locate_ep_1d, family, lo, hi) == outcome(reference_locate, family, lo, hi)


class TestOddChains:
    def test_never_purely_real(self):
        for g in np.linspace(0.0, 3.0, 101):
            m = build_bdg_matrix(ChainSpec.uniform(3, g=float(g), j=1.0, eta=0.2))
            assert spectrum_report(m).region is not Region.PURELY_REAL

    def test_three_mode_permanent_zero_pair(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g1, g2, j1, j2 = rng.uniform(0.1, 2.0, 4)
            spec = ChainSpec(3, hopping=(complex(g1), complex(g2)), pairing=(j1, j2), sms=0)
            values = np.sort(np.abs(eigenspectrum(build_bdg_matrix(spec))))
            scale = max(1.0, values[-1])
            assert values[1] <= 1e-9 * scale


class TestExceptionalSurface:
    def test_arc_point(self):
        points = scan_exceptional_surface([1.0], [1.0], [1.0], [1.0], tol=1e-9)
        (point,) = points
        assert point.on_surface
        assert point.ep_order == 2
        assert point.block_sizes == (2, 2, 1, 1)

    def test_surface_point_order_three(self):
        points = scan_exceptional_surface([np.sqrt(2.0)], [0.0], [1.0], [1.0], tol=1e-9)
        (point,) = points
        assert point.on_surface
        assert point.ep_order == 3
        assert point.block_sizes == (3, 3)

    def test_off_surface(self):
        points = scan_exceptional_surface([1.0], [1.0], [0.5], [0.5], tol=1e-9)
        (point,) = points
        assert not point.on_surface
        assert point.residual == pytest.approx(1.5)
        assert point.ep_order == 0

    def test_detector_finds_nothing_off_surface(self):
        points = scan_exceptional_surface(
            [0.6, 1.3], [0.4, 0.9], [1.0], [1.0], tol=1e-9, detect_everywhere=True
        )
        for point in points:
            if not point.on_surface:
                assert point.ep_order < 2

    def test_generator_axes_keep_every_point(self):
        axes = ([1.0, 1.1], (x for x in [1.0, 0.9]), [1.0], iter([1.0]))
        points = scan_exceptional_surface(*axes, tol=1e-9)
        assert [(p.g1, p.g2) for p in points] == [(1.0, 1.0), (1.0, 0.9), (1.1, 1.0), (1.1, 0.9)]
        assert points == scan_exceptional_surface([1.0, 1.1], [1.0, 0.9], [1.0], [1.0], tol=1e-9)

    @pytest.mark.parametrize("tol", [np.nan, -1e-9, np.inf])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ConfigError, match="surface tolerance must be nonnegative and finite"):
            scan_exceptional_surface([1.0], [1.0], [1.0], [1.0], tol=tol)

    def test_overflowing_square_is_off_surface_for_python_and_numpy_floats(self):
        for g1 in (1e200, np.float64(1e200)):
            (point,) = scan_exceptional_surface([g1], [1.0], [1.0], [1.0])
            assert point.residual == np.inf
            assert not point.on_surface and point.ep_order == 0

    def test_generic_surface_points_are_order_three(self):
        for theta in (np.pi / 8, np.pi / 5):
            g1 = np.sqrt(2.0) * np.cos(theta)
            g2 = np.sqrt(2.0) * np.sin(theta)
            (point,) = scan_exceptional_surface([g1], [g2], [1.0], [1.0], tol=1e-9)
            assert point.on_surface and point.ep_order == 3
