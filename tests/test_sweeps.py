"""Sweep axes, writers, and the figure-grid helpers."""

import math

import numpy as np
import pytest

from epchain import symplectic_eigenvalues
from epchain.errors import ConfigError, UnsortedTimes
from epchain.sweeps import (
    SweepAxis,
    entanglement_trajectory,
    fig2_grid,
    fig3_tables,
    format_value,
    spectrum_sweep,
    write_rows,
)


class TestSweepAxis:
    def test_values_inclusive(self):
        axis = SweepAxis("g", 0.5, 1.5, 3)
        np.testing.assert_allclose(axis.values(), [0.5, 1.0, 1.5])

    def test_single_step(self):
        np.testing.assert_allclose(SweepAxis("t", 2.0, 9.0, 1).values(), [2.0])

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            SweepAxis("gamma", 0.0, 1.0, 5)

    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            SweepAxis("g", 0.0, 1.0, 0)

    def test_non_finite_range(self):
        with pytest.raises(ConfigError):
            SweepAxis("g", 0.0, float("inf"), 5)

    def test_from_config_shorthand(self):
        axis = SweepAxis.from_config("g1", [0.0, 2.0, 5])
        assert (axis.start, axis.stop, axis.steps) == (0.0, 2.0, 5)

    def test_from_config_mapping_missing_key(self):
        with pytest.raises(ConfigError):
            SweepAxis.from_config("g", {"start": 0.0, "steps": 5})


class TestFormatting:
    def test_float_17_digits(self):
        assert format_value(1.0 / 3.0) == "0.33333333333333331"

    def test_bool_lowercase(self):
        assert format_value(True) == "true"
        assert format_value(np.bool_(False)) == "false"

    def test_numpy_scalars(self):
        assert format_value(np.float64(0.5)) == "0.5"
        assert format_value(np.int64(7)) == "7"

    def test_write_rows_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            write_rows(tmp_path / "x.dat", ["a"], [[1.0]], fmt="xml")


class TestSpectrumSweepErrors:
    def test_axis_must_be_uniform_parameter(self):
        with pytest.raises(ConfigError):
            spectrum_sweep({"n": 3}, SweepAxis("g1", 0.0, 1.0, 3))


class TestTrajectoryErrors:
    def test_single_mode_rejected(self):
        with pytest.raises(ConfigError):
            entanglement_trajectory({"n": 1}, [0.0], [])

    def test_unsorted_times_propagate(self):
        with pytest.raises(UnsortedTimes):
            entanglement_trajectory({"n": 2, "J": 1.0}, [1.0, 0.5], [])

    def test_non_finite_time_rejected_before_truncation(self):
        # the overflow guard would truncate at t = 75; the bad sample behind
        # it must still be reported as an input error
        with pytest.raises(ConfigError, match="finite"):
            entanglement_trajectory({"n": 2, "eta": 5.0}, [0.0, 75.0, float("nan")], [])


def test_fig2_matches_closed_form_without_sms():
    # with eta = 0 the map must collapse onto the two-mode closed form
    from epchain import nu_closed_form_two_mode

    header, rows, extras = fig2_grid(
        eta=0.0,
        g_axis=SweepAxis("g", 0.6, 1.4, 5),
        t_axis=SweepAxis("t", 0.0, 3.0, 4),
    )
    for g, t, _region, nu, _logneg in rows:
        assert nu == pytest.approx(nu_closed_form_two_mode(g, 1.0, t), abs=1e-9)
    assert extras["transitions"] == pytest.approx([1.0], abs=1e-5)


def test_fig3_ratio_rows_match_direct_call():
    from epchain import enhancement_ratio, nu_closed_form_bkc_ep

    (_, _), (rheader, rrows), extras = fig3_tables(
        n_values=(3,), phi_steps=3, t=1.5, ratio_times=(1.0, 1.5), fit_max_n=5
    )
    assert rheader == ["N", "t", "ratio"]
    for n, t, ratio in rrows:
        assert ratio == enhancement_ratio(n, t, nu_fn=nu_closed_form_bkc_ep)
        assert ratio == pytest.approx(enhancement_ratio(n, t), rel=1e-7)
    assert extras["phi_symmetry_residual"] <= 1e-9


@pytest.mark.parametrize("n_values", [(1, 2), (2, 0)])
def test_fig3_needs_two_modes(n_values):
    # the 1|rest cut needs a second mode; the closed form alone would give 1
    with pytest.raises(ConfigError, match="chain sizes must be at least 2"):
        fig3_tables(n_values=n_values, phi_steps=3, fit_max_n=4)


def test_symplectic_eigenvalues_singular_matrix():
    # positive-semidefinite input exercises the non-Cholesky fallback
    values = symplectic_eigenvalues(np.diag([0.0, 0.0, 1.0, 1.0]))
    np.testing.assert_allclose(values, [0.0, 1.0], atol=1e-12)
