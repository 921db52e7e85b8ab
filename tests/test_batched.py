"""The batched witness kernel against the scalar evolve/entanglement_result pipeline.

``evolve_grid`` and ``witness_stack`` promise the scalar pipeline's values
bit for bit, and the scalar pipeline's error at the first failing cell, so
every comparison here is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epchain import (
    Bipartition,
    ChainSpec,
    RealGenerator,
    build_bdg_matrix,
    entanglement_result,
    evolve,
    evolve_grid,
    initial_state,
    quadrature_generator,
    symplectic_eigenvalues,
    witness_stack,
)
from epchain import dynamics
from epchain.errors import ConfigError, EpchainError, OverflowRisk
from epchain.sweeps import SweepAxis, entanglement_trajectory, fig2_grid, fig4_grid

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
            except EpchainError as exc:
                return cms, results, exc
            cms.append(state.cm)
            results.append([entanglement_result(state, part) for part in parts])
    return cms, results, None


def assert_kernel_matches_scalar(state0, generators, times, parts):
    generators = np.asarray(generators, dtype=float)
    ref_cms, ref_results, ref_error = scalar_cells(state0, generators, times, parts)
    cms, error = evolve_grid(state0, generators, times)
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
