"""Sweep axes, writers, and the figure-grid helpers."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epchain import ChainSpec, locate_ep_1d, spectrum_stack, symplectic_eigenvalues
from epchain.chain import uniform_bdg_stack
from epchain.errors import ConfigError, NoTransition, PrecisionLoss, UnsortedTimes
from epchain.sweeps import (
    SweepAxis,
    entanglement_trajectory,
    fig2_grid,
    fig3_tables,
    fig4_grid,
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

    @pytest.mark.parametrize("steps", [2.5, True, False])
    def test_from_config_rejects_fractional_or_bool_steps(self, steps):
        with pytest.raises(ConfigError, match="steps must be a whole number"):
            SweepAxis.from_config("t", {"start": 0.0, "stop": 1.0, "steps": steps})

    def test_from_config_integral_float_steps(self):
        assert SweepAxis.from_config("t", [0.0, 1.0, 3.0]).steps == 3

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


def reference_write_rows(path, header, rows, fmt):
    """The per-value writer that write_rows replaced: one format_value call per cell."""
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([format_value(v) for v in row])
    else:
        payload = {"columns": list(header), "rows": [[format_value(v) for v in row] for row in rows]}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


TEXT = st.text(st.sampled_from(list('ab ,"\r\n\t%\\') + ["\u00e9", "\u20ac", "\U0001f600"]))
CELLS = {
    "float": st.floats(allow_subnormal=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2e-308]),
    "float32": st.floats(width=32).map(np.float32),
    "float64": st.floats().map(np.float64),
    "int": st.integers(),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "bool_": st.booleans().map(np.bool_),
    "str": TEXT,
}


@st.composite
def tables(draw):
    """A header and rows; most rows repeat the column types, some mix them."""
    width = draw(st.integers(0, 5))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=width, max_size=width))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        mixed = draw(st.booleans())
        row = [draw(CELLS[draw(st.sampled_from(sorted(CELLS)))] if mixed else CELLS[kind])
               for kind in kinds]
        rows.append(tuple(row) if draw(st.booleans()) else row)
    return header, rows


class TestWriterBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(table=tables())
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_per_value_writer(self, tmp_path_factory, fmt, table):
        header, rows = table
        out = tmp_path_factory.mktemp("w")
        write_rows(out / "new", header, rows, fmt)
        reference_write_rows(out / "ref", header, rows, fmt)
        assert (out / "new").read_bytes() == (out / "ref").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("header, rows", [
        ([], []),
        (["a,b", 'q"'], []),
        (["only"], [[""], [" "], ['"']]),
        (["x", "y"], [[], [1.5, "ok"], ("", "")]),
    ], ids=["empty", "header-only", "one-cell", "ragged"])
    def test_edge_tables(self, tmp_path, fmt, header, rows):
        write_rows(tmp_path / "new", header, rows, fmt)
        reference_write_rows(tmp_path / "ref", header, rows, fmt)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_time_past_the_float_range_truncates(self):
        # K t overflows at t = 1e308: the trajectory stops there, with no RuntimeWarning
        _, rows, extras = entanglement_trajectory({"n": 2, "g": 0.5, "J": 1.0}, [0.0, 1e308], [])
        assert rows == [(0.0, 1.0, 0.0)]
        assert extras == {"truncated_at": 1e308,
                          "truncation": "propagator at t=1e+308 overflows double precision"}


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


class TestFig2ClosedFormSpectrum:
    """fig2's exact regions and exceptional points against the numeric path."""

    @given(
        eta=st.floats(-2.0, 2.0),
        ends=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        steps=st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_eigensolve_and_ep_search(self, eta, ends, steps):
        ep_g = [abs(1.0 + eta), abs(1.0 - eta)]
        assume(min(ep_g) >= 1e-3)
        lo, hi = sorted(ends)
        assume(hi - lo >= 1e-2)
        points = np.array([sign * e for e in ep_g for sign in (-1.0, 1.0)])
        # locate_ep_1d resolves transitions two of its 129 grid points apart,
        # and cannot settle one within its bisection width of a range end
        inside = np.unique(points[(points > lo) & (points < hi)])
        assume(np.all(np.diff(inside) > 2 * (hi - lo) / 128))
        assume(np.abs(points[:, None] - np.array([lo, hi])).min() > 1e-5)

        g_axis = SweepAxis("g", *ends, steps)
        _, rows, extras = fig2_grid(eta, g_axis, SweepAxis("t", 0.0, 0.0, 1))
        g = g_axis.values()
        _, labels, _ = spectrum_stack(uniform_bdg_stack(2, g=g, j=1.0, eta=eta))
        far = np.abs(g[:, None] - points).min(axis=1) > 1e-6
        assert [row[2] for row, keep in zip(rows, far) if keep] == [
            label.value for label, keep in zip(labels, far) if keep]

        try:
            found = locate_ep_1d(lambda x: ChainSpec.uniform(2, g=x, j=1.0, eta=eta), lo, hi)
        except NoTransition:
            found = ()
        assert len(extras["transitions"]) == len(found)
        np.testing.assert_allclose(extras["transitions"], found, rtol=0, atol=2e-6)

    def test_calls_no_eigensolve_and_no_ep_search(self, monkeypatch):
        calls = []
        for module in ("epchain.spectral", "epchain.sweeps"):
            for name in ("spectrum_stack", "locate_ep_1d"):
                monkeypatch.setattr(f"{module}.{name}", lambda *a, name=name, **k: calls.append(name))
        fig2_grid(g_axis=SweepAxis("g", 0.5, 1.5, 5), t_axis=SweepAxis("t", 0.0, 1.0, 3))
        assert calls == []

    def test_default_grid_labels_its_exceptional_points_exactly(self):
        # g = 0.8 and g = 1.2 are grid points of the default axis; there one
        # eigenvalue pair is zero and the other on one axis
        g_axis = SweepAxis("g", 0.5, 1.5, 301)
        _, rows, extras = fig2_grid(g_axis=g_axis, t_axis=SweepAxis("t", 0.0, 0.0, 1))
        regions = {round(row[0], 12): row[2] for row in rows}
        assert regions[0.8] == "purely_imaginary"
        assert regions[1.2] == "purely_real"
        assert extras["transitions"] == [0.8, 1.2]

    def test_transitions_in_either_axis_order(self):
        t_axis = SweepAxis("t", 0.0, 0.0, 1)
        up = fig2_grid(0.5, SweepAxis("g", -2.0, 1.0, 3), t_axis)[2]["transitions"]
        down = fig2_grid(0.5, SweepAxis("g", 1.0, -2.0, 3), t_axis)[2]["transitions"]
        # of g = +-0.5 and +-1.5, only 1.5 lies outside (-2, 1)
        assert up == down == [-1.5, -0.5, 0.5]


def test_fig3_ratio_rows_match_direct_call():
    from epchain import enhancement_ratio, nu_closed_form_bkc_ep

    (_, _), (rheader, rrows), extras = fig3_tables(n_values=(3,), phi_steps=3, t=1.5, fit_max_n=5)
    assert rheader == ["N", "t", "ratio"]
    assert [t for _, t, _ in rrows] == np.linspace(0.25, 3.5, 14).tolist()
    for n, t, ratio in rrows:
        assert ratio == enhancement_ratio(n, t, nu_fn=nu_closed_form_bkc_ep)
        assert ratio == pytest.approx(enhancement_ratio(n, t), rel=1e-7)
    assert extras["phi_symmetry_residual"] <= 1e-9


@pytest.mark.parametrize("n_values", [(1, 2), (2, 0)])
def test_fig3_needs_two_modes(n_values):
    # the 1|rest cut needs a second mode; the closed form alone would give 1
    with pytest.raises(ConfigError, match="chain sizes must be at least 2"):
        fig3_tables(n_values=n_values, phi_steps=3, fit_max_n=4)


@pytest.mark.parametrize("call, message", [
    (lambda: fig3_tables(phi_steps=-1), "phi_steps must be nonnegative"),
    (lambda: fig3_tables(fit_max_n=3), "fit_max_n must be at least 4"),
    (lambda: fig4_grid(arc_steps=-2), "arc_steps must be nonnegative"),
    (lambda: fig2_grid(threads=0), "threads must be at least 1, got 0"),
    (lambda: fig4_grid(threads=-3), "threads must be at least 1, got -3"),
    (lambda: entanglement_trajectory({"n": 2}, [0.0], [], threads=0),
     "threads must be at least 1, got 0"),
], ids=["phi_steps", "fit_max_n", "arc_steps", "fig2_threads", "fig4_threads",
        "entangle_threads"])
def test_preset_arguments_checked_in_library(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


def test_threads_need_no_main_guard(tmp_path):
    # a script without an ``if __name__ == "__main__"`` guard, in a fresh
    # interpreter: the worker threads start no new process
    script = tmp_path / "script.py"
    script.write_text("\n".join([
        "from epchain.sweeps import SweepAxis, entanglement_trajectory, fig2_grid",
        "# 5 x 501 cells are two kernel chunks, 120 times at N = 12 are three",
        "fig2_grid(g_axis=SweepAxis('g', 0.5, 1.5, 5), threads=2)",
        "chain = {'n': 12, 'g': 1.0, 'J': 1.0}",
        "times = [0.025 * i for i in range(120)]",
        "entanglement_trajectory(chain, times, ['1|2,3,4,5,6,7,8,9,10,11,12'], threads=2)",
        "print('done')",
    ]) + "\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env=env, timeout=120)
    assert (out.returncode, out.stdout.strip()) == (0, "done"), out.stderr


def test_symplectic_eigenvalues_singular_matrix():
    # positive-semidefinite input has no Cholesky factor: refused, not eigensolved
    with pytest.raises(PrecisionLoss, match="not positive definite"):
        symplectic_eigenvalues(np.diag([0.0, 0.0, 1.0, 1.0]))
