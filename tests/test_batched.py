"""The batched kernel against the per-cell pipeline it replaces.

``bdg_stack``/``generator_stack`` promise the matrices of
``build_bdg_matrix``/``quadrature_generator``, and ``evolve_grid`` and
``witness_stack`` the values of the per-cell pipeline that ``evolve`` and
``entanglement_result`` ran before they became the kernel's one-cell case
(kept in ``conftest`` as ``reference_evolve`` and
``reference_entanglement_result``): bit for bit, with the per-cell error at
the first failing cell, so every comparison of the kernel here is exact.
The kernel's ``dynamics.expm`` promises ``scipy.linalg.expm``'s bits on
every slice of a stack.  fig3 runs no kernel: its tables are the closed forms
``nu_closed_form_bkc_ep``/``enhancement_ratio`` cell by cell, and their
drift from the numeric pipeline is pinned.
"""

import importlib.machinery
import importlib.util
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg._matfuncs_expm import pick_pade_structure

from epchain import (
    BdgMatrix,
    Bipartition,
    ChainSpec,
    GaussianState,
    RealGenerator,
    bdg_stack,
    bkc_nu_minus,
    build_bdg_matrix,
    chain_nu_minus,
    enhancement_ratio,
    entanglement_result,
    evolve,
    evolve_grid,
    evolve_trajectory,
    generator_stack,
    initial_state,
    nu_closed_form_bkc_ep,
    nu_closed_form_two_mode,
    propagator,
    quadrature_generator,
    symplectic_eigenvalues,
    symplectic_form,
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
    SymplecticityLost,
)
from epchain.sweeps import SweepAxis, entanglement_trajectory, fig3_tables, fig4_grid

from conftest import (
    at_time,
    chain_specs,
    column_key,
    reference_bona_fide_check,
    reference_entanglement_result,
    reference_evolve,
    reference_half_log_det,
    reference_propagator,
    reference_symplectic_check,
    reference_symplectic_eigenvalues,
    spec_stacks,
    table_rows,
)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).ravel().tolist()


def scalar_cells(state0, generators, times, parts):
    """Reference: the per-cell pipeline cell by cell, generator-major.

    Returns the covariances before the first cell that fails to evolve, that
    cell's error (None if none), and per cut each covariance's
    EntanglementResult or the PrecisionLoss that refuses it.
    """
    cms, error = [], None
    for k, t in itertools.product(generators, times):
        try:
            cms.append(reference_evolve(state0, RealGenerator(k), float(t)))
        except EpchainError as exc:
            error = exc
            break
    half_log_det = reference_half_log_det(state0)

    def witness(cm, part):
        try:
            return reference_entanglement_result(cm, part, half_log_det)
        except PrecisionLoss as exc:
            return exc

    return cms, error, [[witness(cm, part) for cm in cms] for part in parts]


def assert_kernel_matches_scalar(state0, generators, times, parts):
    generators = np.asarray(generators, dtype=float)
    ref_cms, ref_error, ref_results = scalar_cells(state0, generators, times, parts)
    cms, error = evolve_grid(state0, generators, times)
    assert len(cms) == len(ref_cms), (error, ref_error)
    assert bits(cms) == bits(ref_cms)
    if ref_error is None:
        assert error is None
    else:
        assert type(error) is type(ref_error)
        assert str(error) == str(ref_error)
    half_log_det = 0.5 * np.linalg.slogdet(state0.cm)[1]
    for part, results in zip(parts, ref_results):
        # a stack is refused by its first refused matrix's own refusal
        refusal = next((r for r in results if isinstance(r, PrecisionLoss)), None)
        if refusal is not None:
            # the cuts are evaluated in order, each over the whole stack
            with pytest.raises(PrecisionLoss) as excinfo:
                witness_stack(cms, part, half_log_det)
            assert str(excinfo.value) == str(refusal)
            return cms, excinfo.value
        nu, logneg = witness_stack(cms, part, half_log_det)
        assert bits(nu) == bits([result.nu_minus for result in results])
        assert bits(logneg) == bits([result.log_negativity for result in results])
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
        # a stack with one matrix that Cholesky cannot factor is refused as a
        # whole, as the per-cell reference refuses that matrix: no second route
        part = Bipartition.one_vs_rest(2)
        good = evolve(
            initial_state(2), quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=1.0))), 0.7
        ).cm
        indefinite = np.diag([1.0, -0.5, 2.0, 1.0])
        with pytest.raises(PrecisionLoss, match="not positive definite") as excinfo:
            witness_stack(np.stack([good, indefinite]), part, 0.0)
        refused = (PrecisionLoss, str(excinfo.value))
        signs = np.array([1.0, 1.0, 1.0, -1.0])
        flipped = [m * np.outer(signs, signs) for m in (good, indefinite)]
        assert outcome(lambda: reference_symplectic_eigenvalues(flipped[1])) == refused
        assert outcome(lambda: symplectic_eigenvalues(flipped[1])) == refused
        nu, _ = witness_stack(good[None], part, 0.0)
        assert bits(nu) == bits([reference_symplectic_eigenvalues(flipped[0])[0]])


    def test_stack_refusal_is_the_first_refused_matrix(self):
        # at N = 3, g = 0.5, eta = 0.3 the t = 6 covariance factors and breaks
        # det S = 1, and the t = 10 one has no Cholesky factor: the stack is
        # refused by t = 6's own refusal, not by the later matrix's
        spec = ChainSpec.uniform(3, g=0.5, j=1.0, eta=0.3)
        k = quadrature_generator(build_bdg_matrix(spec))
        cms = np.stack([evolve(initial_state(3), k, t).cm for t in (1.0, 6.0, 10.0)])
        with pytest.raises(PrecisionLoss, match="break det S = 1") as excinfo:
            witness_stack(cms, Bipartition.one_vs_rest(3), 0.0)
        assert outcome(lambda: chain_nu_minus(spec, 6.0)) == (
            PrecisionLoss, f"{excinfo.value} (t=6.0, cut 1|23)")

    def test_one_cell_refusals_end_with_their_cell(self):
        # chain_nu_minus is the kernel's one cell: a witness refusal names its time
        # and cut, a transport refusal its time
        spec = ChainSpec.uniform(3, g=0.5, j=1.0, eta=0.3)
        assert [outcome(lambda: chain_nu_minus(spec, t)) for t in (10.0, 6.0, 1e308)] == [
            (PrecisionLoss, "a matrix is not positive definite in floating point: "
                            "the witness has lost all precision (t=10.0, cut 1|23)"),
            (PrecisionLoss, "the symplectic eigenvalues break det S = 1: their logs sum 0.137 "
                            "off 1/2 ln det sigma_0; the witness has lost precision (t=6.0, cut 1|23)"),
            (OverflowRisk, "propagator overflows double precision (t=1e+308)"),
        ]
        # the two-mode chain's exact witness is refused only where it overflows, named by its time
        spec = ChainSpec.uniform(2, g=0.5, j=1.0)
        assert outcome(lambda: chain_nu_minus(spec, 1e308)) == (
            OverflowRisk, "the witness overflows double precision (t=1e+308)")


def kernel_map(eta, g_axis, t_axis, threads):
    """The witness kernel over fig2's grid of two-mode chains, which fig2 no
    longer runs (its witness is exact): (nu, E_N), or the first refused cell's
    refusal, raised."""
    g = g_axis.values()
    k = generator_stack(bdg_stack(g[:, None], 1.0, eta))
    [witness], _, error = sweeps._witness_map(
        k, t_axis.values(), [Bipartition.one_vs_rest(2)], threads, axes={"g": g})
    if error is not None:
        raise error
    return witness


def outcome(fn):
    """The bits of fn()'s value, or the class and message of its error."""
    try:
        return bits(fn())
    except EpchainError as exc:
        return type(exc), str(exc)


def witness_values(result):
    return [*result.symplectic_eigenvalues_pt, result.nu_minus, result.log_negativity]


@st.composite
def one_cells(draw):
    spec = draw(chain_specs())
    n = spec.n_modes
    times = sorted(draw(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4)))
    occupancies = draw(st.none() | st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    side = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)) if n > 1 else None
    part = None if side is None else Bipartition.from_sides(n, side)
    return spec, initial_state(n, occupancies), times, part


class TestOneCellCase:
    """The one-cell functions against the per-cell pipeline they replaced."""

    @given(one_cells())
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_reference(self, cell):
        spec, state, times, part = cell
        k = quadrature_generator(build_bdg_matrix(spec))
        assert outcome(lambda: [s.cm for s in evolve_trajectory(state, k, times)]) == outcome(
            lambda: [at_time(reference_evolve, state, k, t) for t in times]
        )
        for t in times:
            s = outcome(lambda: propagator(k, t))
            assert s == outcome(lambda: at_time(reference_propagator, k, t))
            evolved = outcome(lambda: evolve(state, k, t).cm)
            assert evolved == outcome(lambda: at_time(reference_evolve, state, k, t))
            if not isinstance(evolved, list):
                continue
            cm = evolve(state, k, t).cm
            shifted = cm - (np.linalg.eigvalsh(cm).min() + 0.5) * np.eye(len(cm))
            for sigma in (cm, shifted):
                assert outcome(lambda: symplectic_eigenvalues(sigma)) == outcome(
                    lambda: reference_symplectic_eigenvalues(sigma)
                )
            if part is not None:
                evolved_state = GaussianState(spec.n_modes, cm)
                assert outcome(
                    lambda: witness_values(entanglement_result(evolved_state, part))
                ) == outcome(lambda: witness_values(reference_entanglement_result(cm, part)))

    def test_one_expm_call_per_stage(self, monkeypatch):
        # keeps the benchmark's dynamics.expm.calls a count of stages
        calls, expm = [], dynamics.expm
        monkeypatch.setattr(dynamics, "expm", lambda a: calls.append(a.shape) or expm(a))
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(3, g=0.8, j=1.0)))
        propagator(k, 1.5)
        assert calls == [(1, 6, 6)]
        evolve_grid(initial_state(3), np.stack([k.data, 2.0 * k.data]), [0.5, 1.0, 2.0])
        assert calls == [(1, 6, 6), (6, 6, 6)]

    def test_one_bona_fide_check_per_evolve(self, monkeypatch):
        # the returned states are evolve_grid's checked covariances, not checked
        # again, whether its certificate cleared them (the vacuum) or its exact
        # test (an evolved, not diagonal sigma_0)
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(3, g=0.8, j=1.0)))
        states = [initial_state(3), GaussianState(3, evolve(initial_state(3), k, 0.4).cm)]
        calls = []
        monkeypatch.setattr(GaussianState, "__post_init__", lambda state: calls.append(state))
        for state in states:
            evolved = evolve(state, k, 1.5)
            assert not evolved.cm.flags.writeable
            assert bits(evolved.cm) == bits(reference_evolve(state, k, 1.5))
            trajectory = evolve_trajectory(state, k, [0.5, 1.0, 2.0])
            assert not any(s.cm.flags.writeable for s in trajectory)
        assert calls == []


def guard_outcome(result):
    """The bits of a guard's leading cells and the class and message of its error, if any."""
    cells, error = result
    return bits(cells), None if error is None else (type(error), str(error))


def reference_guard(check, cells):
    """The leading cells check passes and the class and message of the first it refuses."""
    passed = []
    for cell in cells:
        try:
            passed.append(check(*cell))
        except EpchainError as exc:
            return bits(passed), (type(exc), str(exc))
    return bits(passed), None


# multiples of each guard's threshold, straddling it and its certificate's
multiples = st.lists(
    st.floats(0.05, 1.6) | st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5]),
    min_size=1, max_size=6,
)


def residual_kicks(cells, sizes, seed):
    """Per (K, t) cell a kick to one entry of exp(K t) that moves its symplectic
    residual to f (1 + ||S||_2^2) 1e-10, f cycling through sizes."""
    rng = np.random.default_rng(seed)
    size = len(cells[0][0])
    omega = symplectic_form(size // 2)
    units = np.eye(size * size).reshape(-1, size, size)
    kicks = np.zeros((len(cells), size, size))
    for c, (kg, t) in enumerate(cells):
        s = scipy.linalg.expm(kg * t)
        # the residual's first-order change per unit kick; some kicks leave it unchanged
        linear = np.abs(units @ omega @ s.T + s @ omega @ units.transpose(0, 2, 1))
        linear = linear.max(axis=(1, 2))
        entry = rng.choice(np.flatnonzero(linear >= 0.5 * linear.max()))
        target = dynamics._SYMPLECTIC_RTOL * (1.0 + np.linalg.norm(s, 2) ** 2)
        kicks[c] = sizes[c % len(sizes)] * target / linear[entry] * units[entry]
    return kicks


def kicked_evolve(state, kg, t, kick):
    """``reference_evolve`` of one cell with exp(K t) + kick as its propagator."""
    omega = symplectic_form(state.n_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        s = scipy.linalg.expm(kg * t) + kick
        if not (np.isfinite(s).all() and np.isfinite(s @ omega @ s.T).all()):
            raise OverflowRisk("propagator overflows double precision")
    reference_symplectic_check(s)
    with np.errstate(over="ignore", invalid="ignore"):
        cm = s @ state.cm @ s.T
        cm = 0.5 * (cm + cm.T)
    if not np.isfinite(cm).all():
        raise OverflowRisk("covariance overflows double precision")
    return reference_bona_fide_check(cm, PrecisionLoss)


class TestCertifiedGuards:
    """Each guard's certificate against the exact eigvalsh or SVD test it goes before.

    The references in ``conftest`` run the exact test on every cell; the
    draws put cells on both sides of each threshold and of its certificate.
    """

    @given(chain_specs(), st.floats(0.0, 8.0), multiples)
    @settings(max_examples=60, deadline=None)
    def test_bona_fide_matches_eigvalsh(self, spec, t, shifts):
        # evolved vacuum is pure, min eig(sigma + i Omega) = 0: sigma - f tau I straddles the slack
        k = quadrature_generator(build_bdg_matrix(spec))
        try:
            cm = reference_evolve(initial_state(spec.n_modes), k, t)
        except EpchainError:
            return
        tau = max(dynamics._BONA_FIDE_ATOL, dynamics._BONA_FIDE_RTOL * float(np.abs(cm).max()))
        stack = np.stack([cm] + [cm - f * tau * np.eye(len(cm)) for f in shifts])
        count, error = dynamics._bona_fide_count(stack)
        assert guard_outcome((stack[:count], error)) == reference_guard(
            reference_bona_fide_check, [(m,) for m in stack]
        )
        for m in stack:
            assert outcome(lambda: GaussianState(spec.n_modes, m).cm) == outcome(
                lambda: reference_bona_fide_check(m)
            )

    @given(spec_stacks(), st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3), multiples,
           st.integers(0, 2**32 - 1))
    @example(  # a residual on the threshold to the last bit: the exact test must be the SVD's
        [ChainSpec(n_modes=2, hopping=(0j,), pairing=(0.0,), sms=(0j, 1 + 0j))], [0.0, 1.75], [1.0], 2
    )
    @settings(max_examples=60, deadline=None)
    def test_symplectic_residual_matches_svd(self, specs, times, sizes, seed):
        k = np.stack([quadrature_generator(build_bdg_matrix(spec)).data for spec in specs])
        times = np.array(sorted(times))
        cells = [(kg, t) for kg in k for t in times]
        kicks = residual_kicks(cells, sizes, seed)
        expm = dynamics.expm
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "expm", lambda a: expm(a) + kicks[: len(a)])
            s, _, _, error = dynamics._propagators(k, times)
        assert guard_outcome((s, error)) == reference_guard(
            lambda kg, t, kick: reference_symplectic_check(scipy.linalg.expm(kg * t) + kick),
            [(kg, t, kick) for (kg, t), kick in zip(cells, kicks)],
        )

    @given(spec_stacks(), st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4), multiples,
           st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-2, 1e-3, 1e-4]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_transport_certificate_matches_eigvalsh(self, specs, times, sizes, seed, scale, data):
        # propagators kicked as in test_symplectic_residual_matches_svd, within the
        # residual bound and of either sign, from a thermal sigma_0 with pure modes
        # and from one that is not diagonal; a slack cut by up to 1e4 puts kicked
        # cells on both sides of the bona fide test, and for 2N <= 12 still leaves
        # the certificate's room for eigvalsh's error (8 (2N)^2 u (m + 1))
        n = specs[0].n_modes
        k = np.stack([quadrature_generator(build_bdg_matrix(spec)).data for spec in specs])
        times = np.array(sorted(times))
        cells = [(kg, t) for kg in k for t in times]
        kicks = residual_kicks(cells, [0.5 * f for f in sizes], seed)
        kicks *= np.random.default_rng(seed).choice([-1.0, 1.0], size=len(cells))[:, None, None]
        occupancies = st.lists(st.just(0.0) | st.floats(0.0, 2.0), min_size=n, max_size=n)
        thermal = initial_state(n, data.draw(occupancies))
        mixer = scipy.linalg.expm(0.3 * k[0])
        states = [thermal, GaussianState(n, mixer @ thermal.cm @ mixer.T)]
        expm, eigvalsh = dynamics.expm, np.linalg.eigvalsh
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_BONA_FIDE_ATOL", scale * dynamics._BONA_FIDE_ATOL)
            patch.setattr(dynamics, "_BONA_FIDE_RTOL", scale * dynamics._BONA_FIDE_RTOL)
            for state in states:
                calls = []
                with pytest.MonkeyPatch.context() as kernel:
                    kernel.setattr(dynamics, "expm", lambda a: expm(a) + kicks[: len(a)])
                    kernel.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.dtype) or eigvalsh(a))
                    s, residual, frobenius, _ = dynamics._propagators(k, times)
                    with np.errstate(over="ignore", invalid="ignore"):
                        cm = s @ state.cm @ s.transpose(0, 2, 1)
                        cm = 0.5 * (cm + cm.transpose(0, 2, 1))
                    cm = cm[: np.count_nonzero(np.isfinite(cm).all(axis=(1, 2)).cumprod())]
                    cleared = dynamics._certified_count(state.cm, cm, residual, frobenius)
                    got = guard_outcome(evolve_grid(state, k, times))
                for m in cm[:cleared]:
                    reference_bona_fide_check(m)
                assert got == reference_guard(
                    lambda kg, t, kick: kicked_evolve(state, kg, t, kick),
                    [(kg, t, kick) for (kg, t), kick in zip(cells, kicks)],
                )
                if state is not thermal and np.count_nonzero(state.cm) > 2 * n:
                    # no certificate: the exact test runs on every cell that evolved
                    assert cleared == 0
                    assert len(cm) == 0 or calls == [np.dtype(complex)]

    def test_clean_stacks_run_no_eigensolve(self, monkeypatch):
        # fig2-, fig4- and long_chain-sized stacks as the benchmark runs them
        calls = []
        eigvalsh, norm = np.linalg.eigvalsh, np.linalg.norm
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh") or eigvalsh(a))
        monkeypatch.setattr(  # the spectral norm is an SVD per matrix
            np.linalg, "norm",
            lambda x, ord=None, axis=None: (ord == 2 and calls.append("svd")) or norm(x, ord, axis),
        )
        # vacuum is bona fide by construction: building it proves nothing
        vacuum = {n: initial_state(n) for n in (2, 3, 30)}
        g = SweepAxis("g", 0.5, 1.5, 9).values()
        k2 = generator_stack(bdg_stack(g[:, None], 1.0, 0.2))
        cms, error = evolve_grid(vacuum[2], k2, SweepAxis("t", 0.0, 5.0, 201).values())
        assert error is None and len(cms) == 9 * 201
        grid = SweepAxis("g1", 0.0, 2.0, 21).values().tolist()
        k4 = generator_stack(bdg_stack([(g1, g2) for g1 in grid for g2 in grid], 1.0, 0.0))
        cms, error = evolve_grid(vacuum[3], k4, [5.0])
        assert error is None and len(cms) == 21 * 21
        for phi in (np.pi / 2, 0.0):
            spec = ChainSpec.uniform(30, g=1.0, j=1.0, phi=phi)
            k30 = quadrature_generator(build_bdg_matrix(spec)).data[None]
            cms, error = evolve_grid(vacuum[30], k30, SweepAxis("t", 0.0, 3.0, 31).values())
            assert error is None and len(cms) == 31
        assert calls == []
        # the exact tests still run where a certificate cannot clear: exp((K + lam I) t)
        # of the bounded g = 1.5 chain has a symplectic residual of about 2 lam t
        _, error = evolve_grid(vacuum[2], k2[-1:] + 1e-12 * np.eye(4), [1e3])
        assert type(error) is SymplecticityLost
        dynamics._bona_fide_count((1.0 - 1e-6) * np.eye(4)[None])
        assert calls == ["svd", "eigvalsh"]

    def test_certificate_size(self, monkeypatch):
        # eigvalsh's error 8 n^2 u (m + 1) against half the slack peaks at m = 0.1,
        # where it stays under 1/80 up to 2N = 78, not beyond
        def share(n):
            half_slack = 0.5 * max(dynamics._BONA_FIDE_ATOL, dynamics._BONA_FIDE_RTOL * 0.1)
            return 8 * n * n * 2.0**-53 * 1.1 / half_slack

        size = dynamics._CERTIFIED_SIZE
        assert share(size) < 1 / 80 <= share(size + 2)
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        for n in (size // 2, size // 2 + 1):
            cms, error = evolve_grid(initial_state(n), np.zeros((1, 2 * n, 2 * n)), [1.0])
            assert error is None and bits(cms) == bits(np.eye(2 * n)[None])
        assert calls == [(1, size + 2, size + 2)]


KINDS = ("zero", "diagonal", "upper", "lower", "general")
PADE_EXAMPLE = (60, ("general",) * 6 + ("zero", "diagonal", "upper", "lower"),
                (1e-8, 1e-3, 0.1, 0.6, 2.0, 1e3, 1.0, 1.0, 50.0, 50.0), 0.1, 7)


def expm_stack(n, kinds, norms, zero_fraction, seed):
    """Random n x n slices of the given zero patterns, scaled to the given 1-norms.

    A pattern is imposed by multiplying with a 0/1 mask, so the entries it
    zeroes are +0.0 or -0.0; a general slice also gets -0.0 at random places.
    """
    rng = np.random.default_rng(seed)
    masks = {
        "zero": np.zeros((n, n)),
        "diagonal": np.eye(n),
        "upper": np.triu(np.ones((n, n))),
        "lower": np.tril(np.ones((n, n))),
        "general": np.ones((n, n)),
    }
    slices = []
    for kind, norm in zip(kinds, norms):
        a = rng.standard_normal((n, n)) * masks[kind]
        if kind == "general":
            a[rng.random((n, n)) < zero_fraction] = -0.0
        one_norm = np.abs(a).sum(axis=0).max()
        slices.append(a * (norm / one_norm) if one_norm else a)
    return np.stack(slices)


@st.composite
def expm_stacks(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    norms = [10.0 ** draw(st.floats(-8.0, 3.0)) for _ in kinds]
    return (draw(st.integers(2, 60)), kinds, norms, draw(st.floats(0.0, 0.5)),
            draw(st.integers(0, 2**32 - 1)))


class TestExpm:
    """``dynamics.expm`` against ``scipy.linalg.expm`` on each slice, bit for bit.

    The stacked kernel calls scipy's private Pade kernels itself, so a scipy
    release that changes either side shows up here first.
    """

    @given(expm_stacks())
    @example(PADE_EXAMPLE)
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_scipy(self, params):
        stack = expm_stack(*params)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [scipy.linalg.expm(a) for a in stack]
            assert bits(dynamics.expm(stack)) == bits(expected)

    @pytest.mark.parametrize("first", ["dynamics.expm", "import scipy.linalg"])
    def test_either_import_order(self, first):
        # expm loads scipy's Pade extension from its file, a second module
        # object of the same library: in a fresh process, calling it before or
        # after importing scipy.linalg gives scipy.linalg.expm's bits, and only
        # the triangular slices' fallback would import scipy.linalg itself
        code = "\n".join([
            "import sys, numpy as np",
            "from epchain import dynamics",
            "rng = np.random.default_rng(7)",
            "stack = rng.standard_normal((40, 6, 6)) * np.logspace(-3, 1.5, 40)[:, None, None]",
            "if sys.argv[1] == 'dynamics.expm':",
            "    got = dynamics.expm(stack)",
            "    assert 'scipy.linalg' not in sys.modules",
            "import scipy.linalg",
            "if sys.argv[1] != 'dynamics.expm':",
            "    got = dynamics.expm(stack)",
            "again = dynamics.expm(stack)",
            "want = np.array([scipy.linalg.expm(a) for a in stack])",
            "assert got.tobytes() == want.tobytes() == again.tobytes()",
            "print('ok')",
        ])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code, first], capture_output=True, text=True,
                             env=env, timeout=120)
        assert (out.returncode, out.stdout.strip()) == (0, "ok"), out.stderr

    def test_missing_extension_named(self, monkeypatch, tmp_path):
        # a scipy whose linalg directory lacks the compiled kernels is named with its version
        empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        empty.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: empty)
        dynamics._pade_kernels.cache_clear()
        try:
            with pytest.raises(ImportError, match=rf"scipy {re.escape(scipy.__version__)} does not"):
                dynamics.expm(np.ones((1, 2, 2)))
        finally:
            monkeypatch.undo()
            dynamics._pade_kernels.cache_clear()
        assert bits(dynamics.expm(np.ones((1, 2, 2)))) == bits([scipy.linalg.expm(np.ones((2, 2)))])

    def test_example_reaches_every_pade_degree(self):
        structures = set()
        for a in expm_stack(*PADE_EXAMPLE)[:6]:
            work = np.empty((5, *a.shape))
            work[0] = a
            structures.add(pick_pade_structure(work))
        assert {m for m, _ in structures} == {3, 5, 7, 9, 13}
        assert max(s for _, s in structures) >= 8


class TestKernelFailures:
    """Forced failures inside a batch: same error, same first cell as the scalar loop."""

    def test_overflow(self):
        # a bounded chain runs to t = 400 with no refusal
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, g=1.5, j=1.0, eta=0.2))).data
        times = np.linspace(0.0, 400.0, 401)
        cms, error = assert_kernel_matches_scalar(
            initial_state(2), [k], times, [Bipartition.one_vs_rest(2)]
        )
        assert error is None and len(cms) == len(times)
        # a product of squeezers overflows for real: S Omega S^T at t = 75
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(2, eta=5.0))).data
        times = [0.0, 0.5, 1.0, 75.0, 100.0]
        cms, error = assert_kernel_matches_scalar(
            initial_state(2), [k], times, [Bipartition.one_vs_rest(2)]
        )
        assert len(cms) == 3 and str(error) == "propagator overflows double precision"
        # a growing chain loses its witness to rounding long before it overflows
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(3, g=0.5, j=1.0, eta=0.3))).data
        _, error = assert_kernel_matches_scalar(
            initial_state(3), [k], np.linspace(0.0, 400.0, 81), [Bipartition.one_vs_rest(3)]
        )
        assert type(error) is PrecisionLoss

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
        assert type(error) is SymplecticityLost and len(times) < len(cms) < 2 * len(times)

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
        # rounding, not an input, broke the transported covariance: a numeric refusal
        assert type(error) is PrecisionLoss and 0 < len(cms) < len(times)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_precision_loss(self):
        # at N = 3, g = 0.5, J = 1, eta = 0.3 the rounded partial transpose has
        # no Cholesky factor by t = 10: refused before any log is taken
        spec = ChainSpec.uniform(3, g=0.5, j=1.0, eta=0.3)
        k = quadrature_generator(build_bdg_matrix(spec)).data
        _, error = assert_kernel_matches_scalar(
            initial_state(3), [k], [5.0, 10.0, 25.0], [Bipartition.one_vs_rest(3)]
        )
        assert type(error) is PrecisionLoss
        with pytest.raises(PrecisionLoss, match="not positive definite"):
            chain_nu_minus(spec, 10.0)


class TestSweepsThroughKernel:
    def test_entangle_truncation_matches_scalar(self):
        # a bounded chain runs to t = 400 untruncated: every row is the per-cell reference's
        chain = {"n": 3, "g": 1.5, "J": 1.0}
        times = np.linspace(0.0, 400.0, 401)
        _, columns, extras = entanglement_trajectory(chain, times, ["1|23"])
        rows = table_rows(columns)
        assert extras == {} and [row[0] for row in rows] == times.tolist()
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(3, g=1.5, j=1.0)))
        part = Bipartition.from_label("1|23", 3)
        for row in rows:
            result = reference_entanglement_result(reference_evolve(initial_state(3), k, row[0]), part)
            assert bits(row[1:]) == bits([result.nu_minus, result.log_negativity])
        # the two-mode chain without on-site squeezing is exact: the closed form's
        _, columns, extras = entanglement_trajectory({"n": 2, "g": 1.5, "J": 1.0}, times, ["1|2"])
        rows = table_rows(columns)
        assert extras == {} and len(rows) == len(times)
        for t, nu, _ in rows:
            assert abs(nu - nu_closed_form_two_mode(1.5, 1.0, t)) <= 1e-9
        # a product of squeezers overflows at t = 75: the rows end before it,
        # and the extras hold the reference's refusal
        times = [0.0, 0.5, 1.0, 75.0, 100.0]
        _, columns, extras = entanglement_trajectory({"n": 3, "eta": 5.0}, times, ["1|23"])
        rows = table_rows(columns)
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(3, eta=5.0)))
        for row in rows:
            result = reference_entanglement_result(reference_evolve(initial_state(3), k, row[0]), part)
            assert bits(row[1:]) == bits([result.nu_minus, result.log_negativity])
        assert extras["truncated_at"] == times[len(rows)] == 75.0
        assert extras["truncated_by"] == "OverflowRisk"
        with pytest.raises(OverflowRisk) as excinfo:
            reference_evolve(initial_state(3), k, extras["truncated_at"])
        assert extras["truncation"] == f"{excinfo.value} (t=75.0)"
        # a growing chain loses its witness to rounding: the rows end before
        # the first refused cell, and the extras hold that cell's own refusal
        times = np.linspace(0.0, 400.0, 81)
        _, columns, extras = entanglement_trajectory({"n": 3, "g": 0.5, "J": 1.0, "eta": 0.3}, times, ["1|23"])
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(3, g=0.5, j=1.0, eta=0.3))).data
        _, _, [results] = scalar_cells(initial_state(3), [k], times, [Bipartition.from_label("1|23", 3)])
        first = next(i for i, result in enumerate(results) if isinstance(result, PrecisionLoss))
        assert first == 2
        assert table_rows(columns) == [[t, r.nu_minus, r.log_negativity] for t, r in zip(times[:2], results)]
        assert extras == {"truncated_at": 10.0, "truncated_by": "PrecisionLoss",
                          "truncation": f"{results[first]} (t={times[first]}, cut 1|23)"}
        assert "not positive definite" in extras["truncation"]
        # a bounded chain is refused once rounding breaks S's symplecticity
        times = np.linspace(0.0, 14000.0, 1401)
        _, columns, extras = entanglement_trajectory(chain, times, ["1|23"])
        assert len(columns[0]) == 543 and extras["truncated_at"] == 5430.0
        assert extras["truncated_by"] == "SymplecticityLost"
        assert extras["truncation"].startswith("propagator lost symplecticity: residual")
        assert extras["truncation"].endswith(" (t=5430.0)")

    @pytest.mark.parametrize("n, eta, times, cuts, refusal", [
        # three cuts: the chunk's Cholesky fails at a later cell; the t = 6 cell
        # factors and is refused by det S = 1, and of its cuts the first decides
        (3, 0.3, np.linspace(0.0, 60.0, 121), ["3|12", "1|23", "2|13"],
         "the symplectic eigenvalues break det S = 1: their logs sum 0.137 off "
         "1/2 ln det sigma_0; the witness has lost precision (t=6.0, cut 3|12)"),
        # the second cut is refused first, at t = 7.0; the first only at t = 7.5
        (3, 0.0, np.linspace(0.0, 60.0, 121), ["3|12", "1|23"],
         "the symplectic eigenvalues break det S = 1: their logs sum 0.0213 off "
         "1/2 ln det sigma_0; the witness has lost precision (t=7.0, cut 1|23)"),
    ], ids=["n3_three_cuts", "n3_second_cut_first"])
    @pytest.mark.parametrize("threads, chunk_cells", [(1, None), (2, None), (2, 8)],
                             ids=["serial", "threads", "threads_8_cell_chunks"])
    def test_refusal_is_the_first_refused_cells_own(self, monkeypatch, n, eta, times, cuts, refusal,
                                                     threads, chunk_cells):
        # one chunk holds all 121 times unless chunk_cells splits them, so that
        # the worker threads run and the refused chunk is not the first
        if chunk_cells:
            monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", (2 * n) ** 2 * chunk_cells)
        chain = {"n": n, "g": 0.5, "J": 1.0, "eta": eta}
        _, columns, extras = entanglement_trajectory(chain, times, cuts, include_cm=True, threads=threads)
        k = quadrature_generator(build_bdg_matrix(ChainSpec.uniform(n, g=0.5, j=1.0, eta=eta))).data
        parts = [Bipartition.from_label(cut, n) for cut in cuts]
        cms, _, per_cut = scalar_cells(initial_state(n), [k], times, parts)
        i, cut, result = next((i, cut, results[i]) for i in range(len(times))
                              for cut, results in zip(cuts, per_cut)
                              if isinstance(results[i], PrecisionLoss))
        assert extras == {"truncated_at": times[i], "truncated_by": "PrecisionLoss",
                          "truncation": f"{result} (t={times[i]}, cut {cut})"}
        assert extras["truncation"] == refusal
        # the rows before it are every cut's witnesses and the covariance entries
        upper = np.triu_indices(2 * n)
        assert bits(columns[0]) == bits(times[:i])
        for p, results in enumerate(per_cut):
            assert bits(columns[1 + 2 * p]) == bits([r.nu_minus for r in results[:i]])
            assert bits(columns[2 + 2 * p]) == bits([r.log_negativity for r in results[:i]])
        assert bits(columns[-1]) == bits([cm[upper] for cm in cms[:i]])

    def test_pool_chunks_do_not_change_values(self, monkeypatch):
        # small chunks split these grids over several pool tasks
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 16 * 5)
        g_axis, t_axis = SweepAxis("g", 0.8, 1.2, 3), SweepAxis("t", 0.0, 5.0, 7)
        pooled, serial = (kernel_map(0.2, g_axis, t_axis, threads) for threads in (2, 1))
        assert column_key(pooled) == column_key(serial)
        kwargs = dict(g_axis=SweepAxis("g", 0.0, 2.0, 4), arc_steps=5)
        pooled, serial = (fig4_grid(threads=threads, **kwargs) for threads in (2, 1))
        assert [(h, column_key(c)) for h, c in pooled[:2]] + [pooled[2]] == (
            [(h, column_key(c)) for h, c in serial[:2]] + [serial[2]])

    def test_pool_reports_first_failing_cell(self, monkeypatch):
        # at eta = 5 the g = 7 chain is bounded and its 9 cells fill two 5-cell
        # chunks; the g = 1 chain overflows at t = 75, in the third chunk
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 16 * 5)
        g_axis, t_axis = SweepAxis("g", 7.0, 1.0, 2), SweepAxis("t", 0.0, 600.0, 9)
        messages = []
        for threads in (1, 2):
            with pytest.raises(OverflowRisk) as excinfo:
                kernel_map(5.0, g_axis, t_axis, threads)
            messages.append(str(excinfo.value))
        k = generator_stack(bdg_stack(g_axis.values()[:, None], 1.0, 5.0))
        _, error, _ = scalar_cells(initial_state(2), k, t_axis.values(), [])
        assert messages == [f"{error} (g=1.0, t=75.0)"] * 2
        assert str(error) == "propagator overflows double precision"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_transport_refusal_names_its_cell(self, monkeypatch, threads):
        # the transport gives the reason and the kernel the cell, generator
        # included; one-cell chunks make the worker threads run at threads=2
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 16)
        with pytest.raises(OverflowRisk) as excinfo:
            kernel_map(5.0, SweepAxis("g", 1.0, 5.0, 2), SweepAxis("t", 0.0, 100.0, 2), threads)
        assert str(excinfo.value) == "propagator overflows double precision (g=1.0, t=100.0)"
        # all 25 cells share t = 400: only the generator tells them apart
        with pytest.raises(OverflowRisk) as excinfo:
            fig4_grid(t=400.0, g_axis=SweepAxis("g", 0.0, 2.0, 5), arc_steps=0, threads=threads)
        assert str(excinfo.value).endswith(" (g1=0.0, g2=0.0, t=400.0)")

    def test_map_stops_at_first_failing_chunk(self, monkeypatch):
        # 2-cell chunks of two generators each at two times: at eta = 5, g = 10
        # and 7 are bounded, g = 4 overflows at t = 100, in the second chunk,
        # and no later chunk may be evaluated
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 16 * 5)
        calls = []
        evolve_grid = sweeps.evolve_grid
        monkeypatch.setattr(sweeps, "evolve_grid", lambda *args: calls.append(1) or evolve_grid(*args))
        g_axis, t_axis = SweepAxis("g", 10.0, -5.0, 6), SweepAxis("t", 0.0, 100.0, 2)
        errors = []
        for threads in (1, 2):
            calls.clear()
            with pytest.raises(OverflowRisk) as excinfo:
                kernel_map(5.0, g_axis, t_axis, threads)
            errors.append((type(excinfo.value), str(excinfo.value)))
            assert len(calls) == 2
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("chunk_entries, chain, times, cuts", [
        # 2-cell chunks at N = 3: 23 times are 12 chunks, each with three cuts
        (36 * 2, {"n": 3, "g": 1.2, "J": 1.0, "eta": 0.1}, np.linspace(0.0, 5.0, 23),
         ["1|23", "2|13", "3|12"]),
        # N = 30 with 31 times is 4 chunks of at most 9 cells; three cuts make 12 witness tasks
        (sweeps._CHUNK_ENTRIES, {"n": 30, "g": 1.0, "J": 1.0, "phi": math.pi / 2},
         np.linspace(0.0, 3.0, 31),
         ["1|" + ",".join(map(str, range(2, 31))),
          ",".join(map(str, range(1, 16))) + "|" + ",".join(map(str, range(16, 31))),
          ",".join(map(str, range(1, 31, 2))) + "|" + ",".join(map(str, range(2, 31, 2)))]),
    ], ids=["n3_small_chunks", "n30"])
    def test_trajectory_same_at_any_thread_count(self, monkeypatch, chunk_entries, chain, times, cuts):
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", chunk_entries)
        pooled, serial = (entanglement_trajectory(chain, times, cuts, include_cm=True, threads=threads)
                          for threads in (2, 1))
        assert (pooled[0], column_key(pooled[1]), pooled[2]) == (
            serial[0], column_key(serial[1]), serial[2])

    @pytest.mark.parametrize("failing_call", [None, 3])
    def test_first_refusal_at_any_thread_count(self, monkeypatch, failing_call):
        # the growing chain's witness is refused in its second 2-cell chunk, and
        # threads evolve later chunks before they collect it; an evolve_grid
        # that raises on the third chunk must not hide the refusal either
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 36 * 2)
        calls = []
        evolve_grid = sweeps.evolve_grid

        def counted(*args):
            calls.append(1)
            if len(calls) == failing_call:
                raise MemoryError("third chunk")
            return evolve_grid(*args)

        monkeypatch.setattr(sweeps, "evolve_grid", counted)
        tables = []
        for threads in (1, 2, 3):
            calls.clear()
            header, columns, extras = entanglement_trajectory(
                {"n": 3, "g": 0.5, "J": 1.0, "eta": 0.3}, np.linspace(0.0, 400.0, 81), ["1|23"],
                include_cm=True, threads=threads)
            tables.append((header, column_key(columns), extras))
            if failing_call:
                assert len(calls) == (2 if threads == 1 else 3)
        assert tables == [tables[0]] * 3
        assert len(columns[0]) == 2 and extras["truncated_at"] == 10.0
        assert extras["truncated_by"] == "PrecisionLoss" and "not positive definite" in extras["truncation"]

    def test_chunks_clear_the_gil_release_size(self, monkeypatch):
        # numpy runs a loop without the GIL only above 500 values, and worker
        # threads gain only if a chunk's stacked eigvalsh, 2N values per cell,
        # clears that; past N = 30 the entry budget alone falls short of it
        header = Path(np.get_include(), "numpy", "ndarraytypes.h").read_text()
        assert re.search(r"NPY_BEGIN_THREADS_THRESHOLDED\(loop_size\) do \{ if \(\(loop_size\) > 500\)",
                         header)
        lengths = []
        evolve_grid = sweeps.evolve_grid
        monkeypatch.setattr(sweeps, "evolve_grid",
                            lambda state0, k, t: lengths.append(len(k) * len(t)) or evolve_grid(state0, k, t))
        for n in (30, 31, 40, 64):
            lengths.clear()
            # at phi = 0 the chain is one-quadrature, which is exact with no kernel
            entanglement_trajectory({"n": n, "g": 1.0, "J": 1.0, "phi": math.pi / 2},
                                    np.linspace(0.0, 1.0, 12), [])
            assert lengths[0] * 2 * n > 500 and sum(lengths) == 12
        assert sweeps._CHUNK_ENTRIES // 80**2 * 80 <= 500  # N = 40: the budget alone gives 5 cells

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g_start, error_type", [(5.0, PrecisionLoss), (1.0, OverflowRisk)])
    def test_pool_reports_first_refused_cell(self, monkeypatch, g_start, error_type):
        # at eta = 5 and t = 100, g = 5 loses the witness and g = 1 overflows:
        # whichever generator, each a chunk of its own, comes first decides, at
        # any thread count; a refused witness names its cell, generator first
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 16 * 2)
        g_axis = SweepAxis("g", g_start, 6.0 - g_start, 2)
        t_axis = SweepAxis("t", 0.0, 100.0, 2)
        messages = []
        for threads in (1, 2):
            with pytest.raises(error_type) as excinfo:
                kernel_map(5.0, g_axis, t_axis, threads)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("(g=5.0, t=100.0, cut 1|2)") == (error_type is PrecisionLoss)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fig4_refusal_names_its_hopping(self, monkeypatch, threads):
        # every fig4 cell has the same time, so only (g1, g2) tells them apart;
        # at t = 10 the first refused of the 25 cells is the 14th, (1.0, 0.5),
        # in the fourth of seven 4-cell chunks
        monkeypatch.setattr("epchain.sweeps._CHUNK_ENTRIES", 36 * 4)
        g_axis = SweepAxis("g", 2.0, 0.0, 5)
        with pytest.raises(PrecisionLoss) as excinfo:
            fig4_grid(t=10.0, g_axis=g_axis, arc_steps=0, threads=threads)
        g = g_axis.values()
        points = np.stack([np.repeat(g, len(g)), np.tile(g, len(g))], axis=1)
        k = generator_stack(bdg_stack(points, 1.0, 0.0))
        _, _, [results] = scalar_cells(initial_state(3), k, [10.0], [Bipartition.from_label("13|2", 3)])
        first = next(i for i, result in enumerate(results) if isinstance(result, PrecisionLoss))
        assert first == 13 and points[first].tolist() == [1.0, 0.5]
        assert str(excinfo.value) == f"{results[first]} (g1=1.0, g2=0.5, t=10.0, cut 13|2)"


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
    """fig3_tables' witness rows, ratio rows and the R(N) values it fits.

    The rows hold Python ints and floats, so a repr tells an int column
    from a float one."""
    fit_inputs, fit = [], sweeps._exponential_fit

    def recording_fit(ns, rs):
        fit_inputs.append(rs.tolist())
        return fit(ns, rs)

    monkeypatch.setattr(sweeps, "_exponential_fit", recording_fit)
    (_, witness), (_, ratio), _ = fig3_tables(**kwargs)
    [fit_rs] = fit_inputs
    return table_rows(witness), table_rows(ratio), fit_rs


def raised(fn, *args, **kwargs):
    with pytest.raises(EpchainError) as excinfo:
        fn(*args, **kwargs)
    return type(excinfo.value), str(excinfo.value)


class TestFig3ThroughKernel:
    """fig3 evaluates the exact coalescence-point series, with no kernel call.

    The class keeps the name it had while fig3 ran on the batched kernel, so
    the ids of the tests that carried over stay stable.
    """

    kwargs = dict(n_values=(2, 3, 4), phi_steps=5, fit_max_n=6)
    # the ratio table's times are a module constant; these tests set their own
    ratio_times = (0.5, 1.0, 3.5)

    @pytest.mark.parametrize("phi_steps, ratio_times", [(5, (0.5, 1.0, 3.5)), (0, ())])
    def test_tables_equal_scalar_loops(self, monkeypatch, phi_steps, ratio_times):
        monkeypatch.setattr(sweeps, "_RATIO_TIMES", ratio_times)
        kwargs = dict(self.kwargs, phi_steps=phi_steps)
        got = recorded_fig3(monkeypatch, t=3.5, **kwargs)
        assert repr(got) == repr(fig3_closed_form_loops(t=3.5, ratio_times=ratio_times, **kwargs))

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
    def test_errors_equal_scalar_loops(self, monkeypatch, t, ratio_times, expected):
        monkeypatch.setattr(sweeps, "_RATIO_TIMES", ratio_times)
        error = raised(fig3_tables, t=t, **self.kwargs)
        assert error == raised(fig3_closed_form_loops, t=t, ratio_times=ratio_times, **self.kwargs)
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
        # the fit runs at t = times[0], which the ratio table reaches first; its
        # R(N) is the same for every N (constant data), which it fits with no warning
        monkeypatch.setattr(sweeps, "_RATIO_TIMES", times)
        kwargs = dict(n_values=(3,), phi_steps=0, t=times[0], fit_max_n=4)
        try:
            expected = [enhancement_ratio(3, t, nu_fn=nu) for t in times]
        except EpchainError:
            expected = raised(lambda: [enhancement_ratio(3, t, nu_fn=nu) for t in times])
            assert raised(fig3_tables, **kwargs) == expected
        else:
            _, (_, ratio), _ = fig3_tables(**kwargs)
            assert ratio[2].tolist() == expected

    def test_long_time_is_exact(self, monkeypatch):
        # at N = 3, t = 120 (||K||_2 t = 339, S bounded by a polynomial in t) the
        # kernel agrees with the series, which has no limit short of the float range
        assert bkc_nu_minus(3, 0.0, 120.0) == pytest.approx(nu_closed_form_bkc_ep(3, 0.0, 120.0), rel=1e-9)
        monkeypatch.setattr(sweeps, "_RATIO_TIMES", self.ratio_times)
        got = recorded_fig3(monkeypatch, t=120.0, **self.kwargs)
        loops = fig3_closed_form_loops(t=120.0, ratio_times=self.ratio_times, **self.kwargs)
        assert repr(got) == repr(loops)
        witness, ratio, fit_rs = got
        values = [row[2] for row in witness + ratio] + fit_rs
        assert all(math.isfinite(v) and v > 0 for v in values)
