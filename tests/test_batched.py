"""The batched kernel against the scalar pipeline it replaces.

``bdg_stack``/``generator_stack`` promise the matrices of
``build_bdg_matrix``/``quadrature_generator``, and ``evolve_grid`` and
``witness_stack`` the values of ``evolve``/``entanglement_result``: bit for
bit, with the scalar pipeline's error at the first failing cell, so every
comparison of the kernel here is exact.  fig3 runs no kernel: its tables
are the closed forms ``nu_closed_form_bkc_ep``/``enhancement_ratio`` cell by
cell, and their drift from the numeric pipeline is pinned.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epchain import (
    BdgMatrix,
    Bipartition,
    ChainSpec,
    RealGenerator,
    bdg_stack,
    bkc_nu_minus,
    build_bdg_matrix,
    chain_nu_minus,
    enhancement_ratio,
    entanglement_result,
    evolve,
    evolve_grid,
    generator_stack,
    initial_state,
    nu_closed_form_bkc_ep,
    quadrature_generator,
    symplectic_eigenvalues,
    witness_stack,
)
from epchain import dynamics, sweeps
from epchain.errors import (
    ConfigError,
    DivisionByZeroLog,
    EpchainError,
    ImaginaryResidual,
    OverflowRisk,
    PrecisionLoss,
)
from epchain.sweeps import SweepAxis, entanglement_trajectory, fig2_grid, fig3_tables, fig4_grid

from conftest import chain_specs


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).ravel().tolist()


def scalar_cells(state0, generators, times, parts):
    """Reference: evolve and entanglement_result cell by cell, generator-major."""
    cms, results = [], []
    for k in generators:
        for t in times:
            try:
                state = evolve(state0, RealGenerator(k), float(t))
                cell = [entanglement_result(state, part) for part in parts]
            except EpchainError as exc:
                return cms, results, exc
            cms.append(state.cm)
            results.append(cell)
    return cms, results, None


def assert_kernel_matches_scalar(state0, generators, times, parts):
    generators = np.asarray(generators, dtype=float)
    ref_cms, ref_results, ref_error = scalar_cells(state0, generators, times, parts)
    cms, error = evolve_grid(state0, generators, times)
    try:
        for part in parts:
            witness_stack(cms, part)
    except PrecisionLoss as exc:
        # a refused cell ends the scalar loop before any later evolution error
        assert type(ref_error) is PrecisionLoss and str(exc) == str(ref_error)
        return cms, exc
    assert len(cms) == len(ref_cms), (error, ref_error)
    assert bits(cms) == bits(ref_cms)
    if ref_error is None:
        assert error is None
    else:
        assert type(error) is type(ref_error)
        assert str(error) == str(ref_error)
    for p, part in enumerate(parts):
        nu, logneg = witness_stack(cms, part)
        assert bits(nu) == bits([cell[p].nu_minus for cell in ref_results])
        assert bits(logneg) == bits([cell[p].log_negativity for cell in ref_results])
    return cms, error


@st.composite
def batches(draw):
    spec = draw(chain_specs(min_n=2))
    n = spec.n_modes
    specs = [spec] + draw(st.lists(chain_specs(min_n=n, max_n=n), max_size=2))
    generators = [quadrature_generator(build_bdg_matrix(s)).data for s in specs]
    times = sorted(draw(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6)))
    parts = [
        Bipartition.from_sides(n, side)
        for side in draw(
            st.lists(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1),
                min_size=1,
                max_size=3,
            )
        )
    ]
    occupancies = draw(
        st.none() | st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)
    )
    return initial_state(n, occupancies), generators, times, parts


class TestKernelMatchesScalar:
    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_bit_equal(self, batch):
        assert_kernel_matches_scalar(*batch)

    def test_pairwise_summed_negativity(self):
        # a half|half cut of 16 modes has 8 or more values below 1, where
        # numpy's pairwise summation changes the order of the E_N sum
        spec = ChainSpec.uniform(16, g=1.0, j=1.0, phi=np.pi / 2)
        k = quadrature_generator(build_bdg_matrix(spec)).data
        part = Bipartition.from_sides(16, range(8))
        assert_kernel_matches_scalar(initial_state(16), [k], [0.5, 1.5, 3.0], [part])
        result = entanglement_result(evolve(initial_state(16), RealGenerator(k), 3.0), part)
        assert sum(v < 1.0 for v in result.symplectic_eigenvalues_pt) >= 8

    def test_cholesky_fallback(self):
        # one matrix that is not positive definite sends the stack through
        # the scalar symplectic_eigenvalues, matrix by matrix
        part = Bipartition.one_vs_rest(2)
        good = evolve(
            initial_state(2), quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=1.0))), 0.7
        ).cm
        indefinite = np.diag([1.0, -0.5, 2.0, 1.0])
        nu, _ = witness_stack(np.stack([good, indefinite]), part)
        signs = np.array([1.0, 1.0, 1.0, -1.0])
        expected = [symplectic_eigenvalues(m * np.outer(signs, signs))[0] for m in (good, indefinite)]
        assert bits(nu) == bits(expected)


class TestKernelFailures:
    """Forced failures inside a batch: same error, same first cell as the scalar loop."""

    def test_overflow(self):
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(3, g=0.5, j=1.0, eta=0.3))).data
        times = np.linspace(0.0, 400.0, 81)
        cms, error = assert_kernel_matches_scalar(
            initial_state(3), [k], times, [Bipartition.one_vs_rest(3)]
        )
        assert isinstance(error, OverflowRisk) and 0 < len(cms) < len(times)

    def test_non_finite_time(self):
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=1.0))).data
        _, error = assert_kernel_matches_scalar(
            initial_state(2), [k], [0.5, np.inf], [Bipartition.one_vs_rest(2)]
        )
        assert isinstance(error, ConfigError)

    def test_lost_symplecticity(self):
        # exp((K + lam I) t) = e^{lam t} exp(K t) breaks S Omega S^T = Omega
        # by about 2 lam t, past the 1e-10 residual bound from t ~ 100 on
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=1.0))).data
        generators = [k, k + 1e-12 * np.eye(4)]
        times = np.linspace(0.0, 200.0, 9)
        cms, error = assert_kernel_matches_scalar(
            initial_state(2), generators, times, [Bipartition.one_vs_rest(2)]
        )
        assert type(error) is EpchainError and len(times) < len(cms) < 2 * len(times)

    def test_not_bona_fide(self, monkeypatch):
        # a negative slack fails the bona fide check once the thermal
        # state's lowest eigenvalue of sigma + i Omega falls below
        # min(0.5, 1e-3 max|sigma|), partway through the batch
        monkeypatch.setattr(dynamics, "_BONA_FIDE_ATOL", -0.5)
        monkeypatch.setattr(dynamics, "_BONA_FIDE_RTOL", -1e-3)
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=0.5, j=1.0))).data
        times = np.linspace(0.0, 4.0, 17)
        cms, error = assert_kernel_matches_scalar(
            initial_state(2, 0.5), [k], times, [Bipartition.one_vs_rest(2)]
        )
        assert type(error) is ConfigError and 0 < len(cms) < len(times)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_precision_loss(self):
        # at g = 0.5, J = 1, eta = 0 the smallest partial-transpose symplectic
        # eigenvalue rounds to 0.0 by t = 20: refused before any log is taken
        spec = ChainSpec.uniform(2, g=0.5, j=1.0)
        k = quadrature_generator(build_bdg_matrix(spec)).data
        _, error = assert_kernel_matches_scalar(
            initial_state(2), [k], [5.0, 20.0, 25.0], [Bipartition.one_vs_rest(2)]
        )
        assert type(error) is PrecisionLoss
        with pytest.raises(PrecisionLoss, match="not positive"):
            chain_nu_minus(spec, 20.0)


class TestSweepsThroughKernel:
    def test_entangle_truncation_matches_scalar(self):
        chain = {"n": 3, "g": 0.5, "J": 1.0, "eta": 0.3}
        times = np.linspace(0.0, 400.0, 81)
        _, rows, extras = entanglement_trajectory(chain, times, ["1|23"])
        spec = ChainSpec.uniform(3, g=0.5, j=1.0, eta=0.3)
        k = quadrature_generator(build_bdg_matrix(spec))
        part = Bipartition.from_label("1|23", 3)
        for row in rows[:-1]:
            result = entanglement_result(evolve(initial_state(3), k, row[0]), part)
            assert bits(row[1:]) == bits([result.nu_minus, result.log_negativity])
        with pytest.raises(OverflowRisk):
            evolve(initial_state(3), k, extras["truncated_at"])
        assert rows[-1][0].startswith("warning: truncated at t=")

    def test_pool_chunks_do_not_change_values(self, monkeypatch):
        # small chunks split these grids over several pool tasks
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 16 * 5)
        g_axis, t_axis = SweepAxis("g", 0.8, 1.2, 3), SweepAxis("t", 0.0, 5.0, 7)
        assert fig2_grid(g_axis=g_axis, t_axis=t_axis, threads=2) == fig2_grid(
            g_axis=g_axis, t_axis=t_axis, threads=1
        )
        axis = SweepAxis("g1", 0.0, 2.0, 4)
        kwargs = dict(g1_axis=axis, g2_axis=SweepAxis("g2", 0.0, 2.0, 4), arc_steps=5)
        assert fig4_grid(threads=2, **kwargs) == fig4_grid(threads=1, **kwargs)

    def test_pool_reports_first_failing_cell(self, monkeypatch):
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 16 * 5)
        g_axis, t_axis = SweepAxis("g", 1.5, 2.0, 3), SweepAxis("t", 0.0, 400.0, 9)
        messages = []
        for threads in (1, 2):
            with pytest.raises(OverflowRisk) as excinfo:
                fig2_grid(g_axis=g_axis, t_axis=t_axis, threads=threads)
            messages.append((str(excinfo.value), excinfo.value.exponent))
        assert messages[0] == messages[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g_start, error_type", [(0.5, PrecisionLoss), (1.5, OverflowRisk)])
    def test_pool_reports_first_refused_cell(self, monkeypatch, g_start, error_type):
        # g = 0.5 loses the witness at t = 20, g = 1.5 trips the growth cap at
        # t = 140: whichever generator comes first decides, at any thread count
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 16 * 5)
        g_axis = SweepAxis("g", g_start, 2.0 - g_start, 2)
        t_axis = SweepAxis("t", 0.0, 400.0, 21)
        messages = []
        for threads in (1, 2):
            with pytest.raises(error_type) as excinfo:
                fig2_grid(eta=0.0, g_axis=g_axis, t_axis=t_axis, threads=threads)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]


def reference_bdg(spec):
    """M as a sum of diagonals and a block matrix, independent of bdg_stack."""
    n = spec.n_modes
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    if n > 1:
        hop = np.asarray(spec.hopping, dtype=complex)
        pair = np.asarray(spec.pairing, dtype=float)
        a += np.diag(hop, 1) + np.diag(hop.conj(), -1)
        b += np.diag(pair, 1) + np.diag(pair, -1)
    b += np.diag(np.asarray(spec.sms, dtype=complex).conj())
    return np.block([[a, b], [-b.conj(), -a.conj()]])


def reference_generator(m):
    """K = P Re(-i U M U^-1) P^T with P the interleaving permutation."""
    n = m.shape[0] // 2
    ident = np.eye(n)
    u = np.block([[ident, ident], [-1j * ident, 1j * ident]]) / np.sqrt(2.0)
    u_inv = np.block([[ident, 1j * ident], [ident, -1j * ident]]) / np.sqrt(2.0)
    perm = np.zeros((2 * n, 2 * n))
    for j in range(n):
        perm[2 * j, j] = perm[2 * j + 1, n + j] = 1.0
    return perm @ (-1j * (u @ m @ u_inv)).real @ perm.T


@st.composite
def spec_stacks(draw):
    spec = draw(chain_specs())
    n = spec.n_modes
    return [spec] + draw(st.lists(chain_specs(min_n=n, max_n=n), max_size=3))


class TestStackedBuilder:
    @given(spec_stacks())
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_one_chain_builders(self, specs):
        m = bdg_stack([s.hopping for s in specs], [s.pairing for s in specs], [s.sms for s in specs])
        k = generator_stack(m)
        assert m.shape[0] == k.shape[0] == len(specs)
        for spec, m_slice, k_slice in zip(specs, m, k):
            one = build_bdg_matrix(spec)
            assert bits(m_slice.view(float)) == bits(one.data.view(float))
            assert bits(m_slice.view(float)) == bits(reference_bdg(spec).view(float))
            assert bits(k_slice) == bits(quadrature_generator(one).data)
            assert bits(k_slice) == bits(reference_generator(one.data))

    def test_first_slice_without_particle_hole_structure_raises(self):
        specs = [ChainSpec.uniform(3, g=g, j=1.0, eta=0.2) for g in (0.5, 1.0, 1.5, 2.0)]
        m = np.stack([build_bdg_matrix(spec).data for spec in specs])
        m[1, 0, 4] += 0.25  # B no longer mirrored in the lower-left block
        m[3, 1, 1] += 1.0j  # A no longer Hermitian
        with pytest.raises(ImaginaryResidual) as scalar:
            quadrature_generator(BdgMatrix(m[1]))
        with pytest.raises(ImaginaryResidual) as stacked:
            generator_stack(m)
        assert str(stacked.value) == str(scalar.value)

    def test_rates_are_checked_like_chain_spec(self):
        cases = [
            (([[np.nan]], 1.0, 0.0), ([np.nan], 1.0, 0.0)),
            (([[1.0]], np.inf, 0.0), ([1.0], np.inf, 0.0)),
            (([[1.0]], 1.0, np.nan), ([1.0], 1.0, np.nan)),
            (([[1.0]], -1.0, 0.0), ([1.0], -1.0, 0.0)),
        ]
        for stacked, single in cases:
            with pytest.raises(ConfigError) as scalar:
                ChainSpec(2, *single)
            with pytest.raises(ConfigError) as batch:
                bdg_stack(*stacked)
            assert type(batch.value) is type(scalar.value)
            assert str(batch.value) == str(scalar.value)


def fig3_closed_form_loops(n_values, phi_steps, t, ratio_times, fit_max_n):
    """fig3's tables and fit inputs from the closed forms, cell by cell."""
    witness = []
    for n in n_values:
        for phi in np.linspace(0.0, math.pi, phi_steps):
            nu = nu_closed_form_bkc_ep(n, float(phi), float(t))
            witness.append([n, float(phi), nu, -math.log(nu)])
    ratio = [
        [n, float(rt), enhancement_ratio(n, float(rt), nu_fn=nu_closed_form_bkc_ep)]
        for n in n_values
        for rt in ratio_times
    ]
    fit = [
        enhancement_ratio(n, float(t), nu_fn=nu_closed_form_bkc_ep) for n in range(2, fit_max_n + 1)
    ]
    return witness, ratio, fit


def recorded_fig3(monkeypatch, **kwargs):
    """fig3_tables' witness rows, ratio rows and the R(N) values it fits."""
    fit_inputs, fit = [], sweeps.curve_fit

    def recording_fit(f, xdata, ydata, **kw):
        fit_inputs.append(ydata.tolist())
        return fit(f, xdata, ydata, **kw)

    monkeypatch.setattr(sweeps, "curve_fit", recording_fit)
    (_, witness), (_, ratio), _ = fig3_tables(**kwargs)
    [fit_rs] = fit_inputs
    return witness, ratio, fit_rs


def raised(fn, *args, **kwargs):
    with pytest.raises(EpchainError) as excinfo:
        fn(*args, **kwargs)
    return type(excinfo.value), str(excinfo.value)


class TestFig3ThroughKernel:
    """fig3 evaluates the exact coalescence-point series, with no kernel call.

    The class keeps the name it had while fig3 ran on the batched kernel, so
    the ids of the tests that carried over stay stable.
    """

    kwargs = dict(n_values=(2, 3, 4), phi_steps=5, ratio_times=(0.5, 1.0, 3.5), fit_max_n=6)

    @pytest.mark.parametrize("phi_steps, ratio_times", [(5, (0.5, 1.0, 3.5)), (0, ())])
    def test_tables_equal_scalar_loops(self, monkeypatch, phi_steps, ratio_times):
        kwargs = dict(self.kwargs, phi_steps=phi_steps, ratio_times=ratio_times)
        got = recorded_fig3(monkeypatch, t=3.5, **kwargs)
        assert repr(got) == repr(fig3_closed_form_loops(t=3.5, **kwargs))

    def test_drift_from_numeric_pipeline(self, monkeypatch):
        # the fig3 inputs of the long_chain benchmark: every value within
        # 1e-7 of the numeric pipeline the tables were computed with before,
        # nu by at most 1.02e-7 and the ratio by at most 3.1e-9 relative
        # (the numeric side is the inexact one: see the exact-propagator
        # test of the series)
        n_values = (2, 3, 4, 5, 6)
        witness, ratio, _ = recorded_fig3(monkeypatch, n_values=n_values)
        phis = np.linspace(0.0, math.pi, 65).tolist()
        assert [row[:2] for row in witness] == [[n, phi] for n in n_values for phi in phis]
        numeric = [bkc_nu_minus(n, phi, 3.5) for n, phi, _, _ in witness]
        times = np.linspace(0.25, 3.5, 14).tolist()
        assert [row[:2] for row in ratio] == [[n, rt] for n in n_values for rt in times]
        numeric_ratio = [enhancement_ratio(n, rt) for n, rt, _ in ratio]
        for rows, reference, rel in ((witness, numeric, 1.02e-7), (ratio, numeric_ratio, 3.1e-9)):
            for row, want in zip(rows, reference):
                assert row[2] == pytest.approx(want, abs=1e-7, rel=0), row
                assert abs(row[2] / want - 1.0) <= rel, row

    @pytest.mark.parametrize(
        "t, ratio_times, expected",
        [
            # the witness table is fine at t = 0, the fit's reference is not
            (0.0, (0.5, 1.0, 3.5), DivisionByZeroLog),
            (3.5, (0.0, 1.0), DivisionByZeroLog),
            # the t = 0 ratio row fails before the t = 160 one is reached
            (3.5, (0.5, 0.0, 160.0), DivisionByZeroLog),
        ],
    )
    def test_errors_equal_scalar_loops(self, t, ratio_times, expected):
        kwargs = dict(self.kwargs, ratio_times=ratio_times)
        error = raised(fig3_tables, t=t, **kwargs)
        assert error == raised(fig3_closed_form_loops, t=t, **kwargs)
        assert error[0] is expected

    @pytest.mark.parametrize("outcomes", list(itertools.product(("low", "one", "fail"), repeat=4)))
    def test_ratio_error_order(self, monkeypatch, outcomes):
        # every mix of a good witness, a reference of 1 and a failing cell
        # over two times: the ratio table raises what the loop raises, and
        # otherwise holds the loop's values
        times = (1.0, 2.0)
        table = dict(zip(itertools.product((0.0, math.pi / 2), times), outcomes))

        def nu(n, phi, t):
            outcome = table[(phi, t)]
            if outcome == "fail":
                raise EpchainError(f"cell phi={phi} t={t} failed")
            return 1.0 if outcome == "one" else 0.25 + t / 10

        monkeypatch.setattr(sweeps, "nu_closed_form_bkc_ep", nu)
        # the fit runs at t = times[0], which the ratio table reaches first
        monkeypatch.setattr(sweeps, "curve_fit", lambda *args, **kw: (np.zeros(3), None))
        kwargs = dict(n_values=(3,), phi_steps=0, t=times[0], ratio_times=times, fit_max_n=4)
        try:
            expected = [enhancement_ratio(3, t, nu_fn=nu) for t in times]
        except EpchainError:
            expected = raised(lambda: [enhancement_ratio(3, t, nu_fn=nu) for t in times])
            assert raised(fig3_tables, **kwargs) == expected
        else:
            _, (_, ratio), _ = fig3_tables(**kwargs)
            assert [row[2] for row in ratio] == expected

    def test_long_time_is_exact(self, monkeypatch):
        # the kernel refused t = 120 (||K|| t past the growth cap at N = 3);
        # the series has no such limit
        with pytest.raises(OverflowRisk):
            bkc_nu_minus(3, 0.0, 120.0)
        got = recorded_fig3(monkeypatch, t=120.0, **self.kwargs)
        assert repr(got) == repr(fig3_closed_form_loops(t=120.0, **self.kwargs))
        witness, ratio, fit_rs = got
        values = [row[2] for row in witness + ratio] + fit_rs
        assert all(math.isfinite(v) and v > 0 for v in values)
