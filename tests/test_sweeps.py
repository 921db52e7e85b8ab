"""Sweep axes, writers and the text of their float cells, and the figure-grid helpers."""

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epchain import (
    Bipartition,
    ChainSpec,
    build_chain_spec,
    chain_nu_minus,
    dynamics,
    floattext,
    locate_ep_1d,
    spectrum_stack,
    sweeps,
    symplectic_eigenvalues,
)
from epchain.chain import bdg_stack
from epchain.errors import (
    ConfigError,
    EpchainError,
    NoTransition,
    OutOfRange,
    OverflowRisk,
    PrecisionLoss,
    UnsortedTimes,
)
from epchain.sweeps import (
    SweepAxis,
    entanglement_trajectory,
    es_scan_table,
    fig2_grid,
    fig3_tables,
    fig4_grid,
    format_value,
    spectrum_sweep,
    write_rows,
)

from conftest import column_key, oracle_two_mode, reference_es_scan, table_rows


class TestSweepAxis:
    def test_values_inclusive(self):
        axis = SweepAxis("g", 0.5, 1.5, 3)
        np.testing.assert_allclose(axis.values(), [0.5, 1.0, 1.5])

    def test_single_step(self):
        np.testing.assert_allclose(SweepAxis("t", 2.0, 9.0, 1).values(), [2.0])

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
FLOAT64 = st.floats(allow_subnormal=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2e-308])
INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1])
# typed columns: a numpy array of each dtype the builders write, and of float32 and uint64
ARRAY_CELLS = {
    np.float64: FLOAT64,
    np.float32: st.floats(width=32, allow_subnormal=True),
    np.int64: INT64,
    np.uint64: st.integers(0, 2**64 - 1),
    np.bool_: st.booleans(),
    np.str_: TEXT,
}
# a plain list may mix every kind of cell, numpy scalars and ints past int64 among them
LIST_CELL = st.one_of(
    FLOAT64, st.integers(-(2**80), 2**80), st.booleans(), TEXT, FLOAT64.map(np.float64),
    st.floats(width=32).map(np.float32), INT64.map(np.int64), st.booleans().map(np.bool_),
)


@st.composite
def tables(draw):
    """A header and columns of one length that span its names: each a typed
    array or a mixed list, one name each, or a 2-D float64 block of 0 to 3
    columns, one name per column."""
    n_rows = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        dtype = draw(st.sampled_from([None, "block", *ARRAY_CELLS]))
        if dtype == "block":
            width = draw(st.integers(0, 3))
            cells = draw(st.lists(FLOAT64, min_size=n_rows * width, max_size=n_rows * width))
            columns.append(np.array(cells, dtype=np.float64).reshape(n_rows, width))
            continue
        cells = LIST_CELL if dtype is None else ARRAY_CELLS[dtype]
        column = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns.append(column if dtype is None else np.array(column, dtype=dtype))
    width = len(flat_columns(columns))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    return header, columns


def flat_columns(columns):
    """The table's columns with each 2-D block split into its 1-D columns."""
    return [part for column in columns
            for part in (column.T if isinstance(column, np.ndarray) and column.ndim == 2 else [column])]


def assert_same_bytes_as_reference(tmp_path, header, columns, fmt):
    write_rows(tmp_path / "new", header, columns, fmt)
    reference_write_rows(tmp_path / "ref", header, zip(*flat_columns(columns)), fmt)
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()


# cells that take Python's '%.17g' (non-finite, subnormal, a tie outside
# -6 <= e <= 16), an exact tie that numpy rounds, and signed zeros
SPECIAL_CELLS = [math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 2.0**-25,
                 1234567890123456.25, 0.0, -0.0]


def run_table(kinds, n_rows, seed):
    """A table of one column per kind: 'f' a float array, 'i' an int array,
    'b' a bool array and 't' text, so adjacent 'f' columns form a run.

    Float cells are random over 40 decades.  The first and last cell of
    every run, and a few others, hold ``SPECIAL_CELLS`` in the rows on
    either side of each block edge of ``write_rows``.
    """
    rng = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        if kind == "f":
            columns.append(rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows))
        elif kind == "i":
            columns.append(rng.integers(-10**6, 10**6, n_rows))
        elif kind == "b":
            columns.append(rng.integers(0, 2, n_rows).astype(bool))
        else:
            columns.append([f"x,{i}" for i in range(n_rows)])
    floats = [j for j, kind in enumerate(kinds) if kind == "f"]
    step = max(1, floattext.BLOCK_CELLS // len(floats))
    edges = {0, n_rows - 1, *range(step - 1, n_rows, step), *range(step, n_rows, step)}
    run_edges = {j for j in floats if kinds[j - 1 : j] != "f" or kinds[j + 1 : j + 2] != "f"}
    picked = run_edges | set(rng.choice(floats, 3).tolist())
    specials = itertools.cycle(SPECIAL_CELLS)
    for i in sorted(edges):
        for j in sorted(picked):
            columns[j][i] = next(specials)
    return [f"c{j}" for j in range(len(kinds))], columns


class TestWriterBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(table=tables())
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_per_value_writer(self, tmp_path_factory, fmt, table):
        assert_same_bytes_as_reference(tmp_path_factory.mktemp("w"), *table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("header, columns", [
        ([], []),
        (["a,b", 'q"'], [[], np.array([])]),
        (["only"], [["", " ", '"']]),
        # numpy would coerce this list to text, 1e-05 as '1e-05'
        (["mixed"], [[1e-05, "x"]]),
        # names json.dumps escapes: a quote, a backslash, non-ASCII and a control character
        (['q"', "back\\slash", "\u03bd\u208b \u00e9", "tab\t"],
         [np.array([0.5]), np.array([1]), ["x"], np.array([True])]),
        (['q"', "\\", "\u00e9"], [[], [], []]),
        # a block of no rows spans its two names; blocks of width 0 span none
        (["a", "b", "c"], [np.zeros((0, 2)), np.zeros((0, 0)), np.array([], dtype=np.int64)]),
        (["x", "y", "z"], [np.array([0.5, 2.0]), np.zeros((2, 0)), np.array([[1.5, -0.0], [3.0, 1e-310]])]),
        ([], [np.zeros((3, 0))]),
    ], ids=["empty", "header-only", "one-cell", "float-beside-text", "escaped-names",
            "escaped-names-no-rows", "block-no-rows", "run-across-empty-block", "only-empty-block"])
    def test_edge_tables(self, tmp_path, fmt, header, columns):
        assert_same_bytes_as_reference(tmp_path, header, columns, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kinds, n_rows", [
        ("fffifbfftf", 1500),  # runs of 1 to 3 floats split by int, bool and text
        ("ffff", 2100),  # a table of floats alone is one run
        ("tfi", 9000),  # runs of one float, a block of 4096 rows
        ("f" * 5000, 3),  # a row wider than a block
    ], ids=["split-runs", "one-run", "one-float-runs", "wide-row"])
    def test_runs_across_blocks(self, tmp_path, monkeypatch, fmt, kinds, n_rows):
        header, columns = run_table(kinds, n_rows, seed=len(kinds) + n_rows)
        fallbacks = count_fallbacks(monkeypatch)
        assert_same_bytes_as_reference(tmp_path, header, columns, fmt)
        cells = np.concatenate([c for c, kind in zip(columns, kinds) if kind == "f"])
        blocks = -(-n_rows // max(1, floattext.BLOCK_CELLS // kinds.count("f")))
        assert blocks >= 3
        assert len(fallbacks) == np.count_nonzero(
            (~in_band(cells) & (cells != 0.0)) | (cells == 2.0**-25)) > 0

    def test_list_columns_literal_text(self, tmp_path):
        assert write_rows(tmp_path / "m.csv", ["m"], [[1e-05, "x"]]).read_text() == (
            "m\n1.0000000000000001e-05\nx\n")
        # the benchmark's set-up probe: one column of one cell
        assert write_rows(tmp_path / "x.csv", ["x"], [[0.5]]).read_text() == "x\n0.5\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("header, columns, message", [
        (["a", "b"], [np.zeros(2)], "2 header names but 1 columns"),
        (["a"], [[1.0], [2.0]], "1 header names but 2 columns"),
        (["a", "b"], [np.zeros(2), [1, 2, 3]], r"differ in length: \[2, 3\]"),
        # a block spans one name per column of it
        (["a", "b", "c"], [np.zeros((2, 2))], "3 header names but 2 columns"),
        (["a", "b"], [np.zeros(2), np.zeros((2, 2))], "2 header names but 3 columns"),
        (["a", "b"], [np.zeros((2, 2), dtype=np.int64)], "1-D or a 2-D float block"),
    ], ids=["too-few-columns", "too-many-columns", "unequal-lengths", "block-narrower",
            "block-wider", "int-block"])
    def test_malformed_tables_rejected(self, tmp_path, fmt, header, columns, message):
        with pytest.raises(ConfigError, match=message):
            write_rows(tmp_path / "bad", header, columns, fmt)
        assert not (tmp_path / "bad").exists()


def python_texts(values):
    return ["%.17g" % float(value) for value in values]


def cell_texts(values):
    """``run_texts`` of the values as a column of one-cell runs, ``BLOCK_CELLS`` rows at a time."""
    column = np.asarray(values, dtype=float)[:, None]
    return [text for start in range(0, len(column), floattext.BLOCK_CELLS)
            for text in floattext.run_texts(column[start : start + floattext.BLOCK_CELLS], np.ones(1, bool), "")]


def count_fallbacks(monkeypatch):
    """Count the cells the vectorised formatter leaves to Python's '%.17g'."""
    calls = []
    fallback = floattext._python_text
    monkeypatch.setattr(floattext, "_python_text", lambda value: calls.append(value) or fallback(value))
    return calls


def in_band(values):
    """Nonzero finite values inside the formatter's certified band [1e-280, 1e280]."""
    a = np.abs(np.asarray(values, dtype=float))
    return (a >= 1e-280) & (a <= 1e280)


def decade(value):
    """The exact decimal exponent e of a nonzero value: 10^e <= |value| < 10^(e + 1)."""
    exact = abs(Fraction(value))
    e = math.floor(math.log10(abs(value)))
    return e - (Fraction(10) ** e > exact) + (Fraction(10) ** (e + 1) <= exact)


def half_unit_gap(value):
    """How far 17 significant digits of the value lie from a half unit, exactly."""
    scaled = abs(Fraction(value)) * Fraction(10) ** (16 - decade(value))
    return abs(scaled - math.floor(scaled) - Fraction(1, 2))


def near_tie(value):
    """Whether 17 significant digits of the value lie within 1e-9 units of a half unit."""
    return half_unit_gap(value) < Fraction(1, 10**9)


BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
FLOAT_CELLS = (
    st.floats(allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 2.0**-25])
    | BITS
    | st.floats(width=32).map(np.float32)
    | st.floats().map(np.float64)
)


class TestFloatTexts:
    @given(values=st.lists(FLOAT_CELLS, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_python(self, values):
        assert cell_texts(values) == python_texts(values)

    def test_edge_values(self):
        k = np.arange(-1074, 1024)
        powers = np.ldexp(1.0, k)
        tens = np.array([float(f"1e{j}") for j in range(-300, 301)])
        switches = np.array([1e-5, 1e-4, 1e16, 1e17])
        values = np.concatenate([
            powers, 3.0 * powers[:-1],  # 2**-25 = 2.98023223876953125e-08 is an exact decimal tie
            tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
            switches, np.nextafter(switches, 0.0), np.nextafter(switches, np.inf),
            # 17 digits round up into the next decade: 1e-243 is below 10^-243
            [9.9999999999999999e16, 1e-243, 1e-176, 1e-79, 0.0, -0.0, math.nan, math.inf],
        ])
        assert Fraction(1e-243) < Fraction(1, 10**243)
        values = np.concatenate([values, -values])
        assert cell_texts(values) == python_texts(values)

    def test_random_bit_patterns(self, monkeypatch):
        values = np.random.default_rng(20261019).integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
        fallbacks = count_fallbacks(monkeypatch)
        assert cell_texts(values) == python_texts(values)
        # the cells outside the band and the non-finite ones, and in the band
        # only decimal ties, none where 10^(16 - e) is a double: there 17 digits
        # of 1234567890123456.25 round half to even in numpy
        outside = ~in_band(fallbacks)
        assert np.count_nonzero(outside) == np.count_nonzero(~in_band(values) & (values != 0.0)) > 0
        ties = np.array(fallbacks)[~outside].tolist()
        assert all(near_tie(value) for value in ties) and len(ties) < 1e-3 * len(values)
        assert not [value for value in ties if -6 <= decade(value) <= 16]

    def test_exact_ties_round_half_to_even(self, monkeypatch):
        # 17 digits of m 2^(e - 17), m odd, end in an exact half where
        # m 5^(16 - e) has 18 digits; for -6 <= e <= 15 numpy rounds them
        rng = np.random.default_rng(21)
        ties = []
        for e in range(-6, 16):
            k = 16 - e
            lo, hi = -(-2 * 10**16 // 5**k), min((2 * 10**17 - 1) // 5**k, 2**53 - 1)
            odd = [lo | 1, hi - 1 + hi % 2, *(rng.integers(lo, hi - 1, 6, endpoint=True) | 1).tolist()]
            ties += [math.ldexp(m, e - 17) for m in odd]
        ties = np.array(ties + [-t for t in ties])
        assert all(half_unit_gap(value) == 0 for value in ties)
        assert sorted({decade(value) for value in ties}) == list(range(-6, 16))
        fallbacks = count_fallbacks(monkeypatch)
        assert cell_texts(ties) == python_texts(ties)
        assert fallbacks == []
        # where 10^(16 - e) is not a double (e = -7, -8), a tie takes Python's '%.17g'
        outside = np.array([3 * 2.0**-24, 2.0**-25])
        assert all(half_unit_gap(value) == 0 for value in outside)
        assert cell_texts(outside) == python_texts(outside)
        assert fallbacks == outside.tolist()

    def test_subnormals_take_the_fallback(self, monkeypatch):
        subnormals = np.array([5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300])
        normals = np.array([1e-280, 0.5, -3.25, 1.2345678901234567e279, 1e280, 0.0, -0.0])
        fallbacks = count_fallbacks(monkeypatch)
        assert cell_texts(normals) == python_texts(normals)
        assert fallbacks == []
        assert cell_texts(subnormals) == python_texts(subnormals)
        assert fallbacks == subnormals.tolist()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_chain_table_bytes(self, tmp_path, monkeypatch, fmt):
        # entangle --include-cm at N = 30: a t = 1e-310 row holds subnormal covariances
        fallbacks = count_fallbacks(monkeypatch)
        header, columns, _ = entanglement_trajectory(
            {"n": 30, "g": 1.0, "J": 1.0, "phi": 0.0}, [0.0, 1e-310, 0.5, 1.5, 3.0], [],
            include_cm=True)
        assert all(column.dtype == np.float64 for column in columns)
        assert columns[-1].shape == (5, 1830)
        assert_same_bytes_as_reference(tmp_path, header, columns, fmt)
        cells = np.concatenate(flat_columns(columns))
        assert len(fallbacks) == np.count_nonzero(~in_band(cells) & (cells != 0.0)) > 0


def traced_peak(call):
    """call()'s result and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWideTableMemory:
    """An N = 30 include-cm trajectory of 200 times, whose 1 830 covariance
    entries per row are 2.9 MB of floats and 10 MB of JSON text."""

    CHAIN = {"n": 30, "g": 1.0, "J": 1.0, "phi": math.pi / 2}
    TIMES = np.linspace(0.0, 3.0, 200)

    def trajectory(self):
        return entanglement_trajectory(self.CHAIN, self.TIMES, [], include_cm=True)

    def test_trajectory_keeps_only_the_written_entries(self):
        entanglement_trajectory(self.CHAIN, self.TIMES[:2], [], include_cm=True)  # imports and caches
        (header, columns, _), peak = traced_peak(self.trajectory)
        kept = len(self.TIMES) * (len(header) - 3) * 8
        # no full (2N)^2 covariance per cell outlives its chunk: the kept
        # entries plus a few chunks' work, where whole covariances took 4x
        assert kept == 200 * 1830 * 8 and peak <= 3 * kept

    def test_write_rows_streams_json(self, tmp_path):
        header, columns, _ = self.trajectory()
        write_rows(tmp_path / "warm.json", ["x"], [np.array([0.5])], "json")  # the formatter's tables
        path, peak = traced_peak(lambda: write_rows(tmp_path / "cm.json", header, columns, "json"))
        # one row block's floats and text at a time, where the joined body and
        # its rows took twice the file
        assert peak <= path.stat().st_size / 4


class TestSpectrumSweepErrors:
    def test_axis_must_be_uniform_parameter(self):
        with pytest.raises(ConfigError):
            spectrum_sweep({"n": 3}, SweepAxis("g1", 0.0, 1.0, 3))

    def test_unknown_axis_name(self):
        # the one check of an axis name from outside the program
        with pytest.raises(ConfigError, match="^spectrum sweeps support uniform axes "
                                              "g/J/eta/phi, not 'gamma'$"):
            spectrum_sweep({"n": 3}, SweepAxis("gamma", 0.0, 1.0, 5))


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

    @pytest.mark.parametrize("cuts", [["1,2|3", "12|3"], ["1|23", "12|3", "1|23"],
                                      ["1|23", "23|1"], ["13|2", "12|3", "2|13"]])
    def test_repeated_cut_rejected(self, cuts):
        # a cut is its pair of sides, however it was written and whichever side comes first
        with pytest.raises(ConfigError) as excinfo:
            entanglement_trajectory({"n": 3, "g": 1.0, "J": 1.0}, [0.0, 1.0], cuts)
        assert str(excinfo.value) == f"cut {cuts[-1]} is given more than once"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_time_past_the_float_range_truncates(self):
        # K t overflows at t = 1e308: the trajectory stops there, with no RuntimeWarning
        _, columns, extras = entanglement_trajectory({"n": 3, "g": 0.5, "J": 1.0}, [0.0, 1e308], [])
        assert column_key(columns) == column_key([np.array([0.0]), np.array([1.0]), np.array([0.0])])
        assert extras == {"truncated_at": 1e308,
                          "truncation": "propagator overflows double precision (t=1e+308)",
                          "truncated_by": "OverflowRisk"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("include_cm", [False, True])
    def test_exact_two_mode_witness_past_the_float_range_truncates(self, include_cm):
        # the two-mode chain's exact witness overflows at t = 1e308, where K t does not
        _, columns, extras = entanglement_trajectory(
            {"n": 2, "g": 0.5, "J": 1.0}, [0.0, 1e308], [], include_cm=include_cm)
        expected = [np.array([0.0]), np.array([1.0]), np.array([0.0])]
        if include_cm:
            expected.append(np.array([[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]]))
        assert column_key(columns) == column_key(expected)
        assert extras == {"truncated_at": 1e308,
                          "truncation": "the witness overflows double precision (t=1e+308)",
                          "truncated_by": "OverflowRisk"}


@st.composite
def routed_chains(draw):
    """(chain config, cut label, ascending times) of a chain of each route:
    two modes, one quadrature (h_b = +-J_b, no on-site squeezing) or the kernel."""
    n = draw(st.integers(2, 5))
    pairing = draw(st.lists(st.floats(0.0, 1.5), min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        sign = draw(st.sampled_from([1.0, -1.0]))
        config = {"n": n, "g": [sign * j for j in pairing], "J": pairing}
    else:
        config = {"n": n, "g": draw(st.lists(st.floats(-1.5, 1.5), min_size=n - 1, max_size=n - 1)),
                  "J": pairing, "phi": draw(st.sampled_from([0.0, 0.3, math.pi / 2])),
                  "eta": draw(st.sampled_from([0.0, 0.2, -0.4]))}
    side = draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
    label = "".join(map(str, sorted(side))) + "|" + "".join(str(m) for m in range(1, n + 1) if m not in side)
    times = sorted(draw(st.lists(st.floats(0.0, 12.0), min_size=1, max_size=4)))
    return config, label, times


@given(routed_chains())
@settings(max_examples=60, deadline=None)
@example(({"n": 3, "g": 0.5, "J": 1.0, "eta": 0.3}, "1|23", [0.0, 5.0, 10.0]))  # refused at t = 10
@example(({"n": 4, "g": [-1.0, 0.0, -0.5], "J": [1.0, 0.0, 0.5]}, "13|24", [0.0, 1e200]))
def test_chain_nu_minus_is_the_trajectory_cell_on_every_route(chain):
    # one route table serves both: each printed cell bit for bit, and the first
    # refused time with the same refusal
    config, label, times = chain
    _, columns, extras = entanglement_trajectory(config, times, [label])
    spec = build_chain_spec(config)
    part = Bipartition.from_label(label, config["n"])
    assert [chain_nu_minus(spec, t, part) for t in columns[0].tolist()] == columns[1].tolist()
    if extras:
        with pytest.raises(EpchainError) as excinfo:
            chain_nu_minus(spec, extras["truncated_at"], part)
        assert (type(excinfo.value).__name__, str(excinfo.value)) == (extras["truncated_by"], extras["truncation"])


def test_fig2_matches_closed_form_without_sms():
    # with eta = 0 the map must collapse onto the two-mode closed form
    from epchain import nu_closed_form_two_mode

    header, columns, extras = fig2_grid(
        eta=0.0,
        g_axis=SweepAxis("g", 0.6, 1.4, 5),
        t_axis=SweepAxis("t", 0.0, 3.0, 4),
    )
    for g, t, _region, nu, _logneg in table_rows(columns):
        assert nu == pytest.approx(nu_closed_form_two_mode(g, 1.0, t), abs=1e-9)
    assert extras["transitions"] == pytest.approx([1.0], abs=1e-5)


class TestFig2ExactWitness:
    """fig2's witness is ``_two_mode_witness`` of its whole grid: no kernel."""

    @pytest.mark.parametrize("eta, g_axis, t_axis", [
        # small_maps' grid
        (0.2, SweepAxis("g", 0.5, 1.5, 9), SweepAxis("t", 0.0, 5.0, 201)),
        # eta > J: both blocks grow below g = 4, where b + c is split
        (5.0, SweepAxis("g", 0.0, 6.0, 13), SweepAxis("t", 0.0, 5.0, 21)),
    ])
    def test_cells_are_chain_nu_minus_bit_for_bit(self, eta, g_axis, t_axis):
        _, columns, _ = fig2_grid(eta, g_axis, t_axis)
        for g, t, _, nu, _ in table_rows(columns):
            assert chain_nu_minus(ChainSpec.uniform(2, g=g, j=1.0, eta=eta), t) == nu, (g, t)

    def test_runs_no_expm_or_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fig2 ran a matrix exponential or an eigensolve")

        for module, name in [(dynamics, "expm"), (dynamics, "evolve_grid"), (np.linalg, "eigvalsh"),
                             (np.linalg, "eigvals"), (np.linalg, "eig")]:
            monkeypatch.setattr(module, name, refuse)
        _, columns, _ = fig2_grid(0.2, SweepAxis("g", 0.5, 1.5, 9), SweepAxis("t", 0.0, 5.0, 201))
        assert len(columns[3]) == 9 * 201

    def test_default_grid_matches_oracle(self):
        # rows through both EPs (g = 0.8, 1.2) and the ends; the first and last times
        g_axis, t_axis = SweepAxis("g", 0.5, 1.5, 301), SweepAxis("t", 0.0, 5.0, 501)
        _, columns, _ = fig2_grid(0.2, g_axis, t_axis)
        nu, logneg = columns[3].reshape(301, 501), columns[4].reshape(301, 501)
        g, times = g_axis.values(), t_axis.values()
        for row, i in itertools.product([0, 90, 150, 210, 300], [1, 100, 250, 500]):
            exact = oracle_two_mode(g[row], 1.0, 0.2, times[i])
            assert abs(nu[row, i] - exact[0]) <= 1e-12 * exact[0], (g[row], times[i])
            assert abs(logneg[row, i] - exact[1]) <= 1e-12 * exact[1], (g[row], times[i])
        assert (nu[:, 0] == 1.0).all() and (logneg[:, 0] == 0.0).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refusal_names_its_cell(self):
        # at eta = 5 and t = 100 the g = 5 cell is printed and the g = 1 cell's
        # witness overflows: the first refused cell, named by g and t
        with pytest.raises(OverflowRisk) as excinfo:
            fig2_grid(5.0, SweepAxis("g", 5.0, 1.0, 2), SweepAxis("t", 0.0, 100.0, 2))
        assert str(excinfo.value) == "the witness overflows double precision (g=1.0, t=100.0)"
        _, columns, _ = fig2_grid(5.0, SweepAxis("g", 5.0, 5.0, 1), SweepAxis("t", 0.0, 100.0, 2))
        assert 0.0 < columns[3][1] < 1e-140


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
        _, columns, extras = fig2_grid(eta, g_axis, SweepAxis("t", 0.0, 0.0, 1))
        g = g_axis.values()
        _, labels, _ = spectrum_stack(bdg_stack(g[:, None], 1.0, eta))
        far = np.abs(g[:, None] - points).min(axis=1) > 1e-6
        assert [region for region, keep in zip(columns[2], far) if keep] == [
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
        _, columns, extras = fig2_grid(g_axis=g_axis, t_axis=SweepAxis("t", 0.0, 0.0, 1))
        regions = {round(g, 12): region for g, region in zip(columns[0].tolist(), columns[2])}
        assert regions[0.8] == "purely_imaginary"
        assert regions[1.2] == "purely_real"
        assert extras["transitions"] == [0.8, 1.2]

    @pytest.mark.parametrize("eta, g, region", [
        (0.2, 1e200, "purely_real"), (1e200, 1.0, "purely_imaginary")])
    def test_labels_rates_past_the_square_range(self, eta, g, region):
        # (g - e)(g + e) overflows past about 1.3e154 unless the row is scaled
        # first; the label is the eigensolve's, with no RuntimeWarning
        g_axis = SweepAxis("g", g, g, 1)
        _, columns, _ = fig2_grid(eta, g_axis, SweepAxis("t", 0.0, 0.0, 1))
        _, labels, _ = spectrum_stack(bdg_stack(g_axis.values()[:, None], 1.0, eta))
        assert columns[2] == [label.value for label in labels] == [region]

    def test_transitions_in_either_axis_order(self):
        t_axis = SweepAxis("t", 0.0, 0.0, 1)
        up = fig2_grid(0.5, SweepAxis("g", -2.0, 1.0, 3), t_axis)[2]["transitions"]
        down = fig2_grid(0.5, SweepAxis("g", 1.0, -2.0, 3), t_axis)[2]["transitions"]
        # of g = +-0.5 and +-1.5, only 1.5 lies outside (-2, 1)
        assert up == down == [-1.5, -0.5, 0.5]


def es_axes(draw_value):
    """A strategy of the scan's four axes, 1 to 3 steps each, over the given values."""
    def axis(name, value):
        return st.builds(SweepAxis, st.just(name), value, value, st.integers(1, 3))
    rate = st.sampled_from([0.0, 0.5, 1.0, math.sqrt(2.0), 1.5]) | st.floats(0.0, 2.0)
    return st.tuples(axis("g1", rate), axis("g2", rate), axis("J1", draw_value), axis("J2", draw_value))


def scan_outcome(fn):
    """fn()'s columns bit for bit with its extras, or its error's class and message."""
    try:
        columns = fn()
    except EpchainError as exc:
        return type(exc), str(exc)
    on_surface = int(np.count_nonzero(columns[5]))
    return column_key(columns), {"points": len(columns[0]), "on_surface": on_surface}


class TestEsScanTable:
    HEADER = ["g1", "g2", "J1", "J2", "residual", "on_surface", "ep_order", "block_sizes"]

    @given(
        axes=es_axes(st.sampled_from([0.5, 1.0]) | st.floats(-0.5, 2.0)),
        tol=st.sampled_from([0.0, 1e-9, 1e-6, 0.2]),
        detect_everywhere=st.booleans(),
    )
    @example(axes=tuple(SweepAxis(name, 1.0, 1.0, 1) for name in ("g1", "g2", "J1", "J2")),
             tol=1e-9, detect_everywhere=False)  # the arc point
    @example(axes=(SweepAxis("g1", 0.0, math.sqrt(2.0), 3), SweepAxis("g2", math.sqrt(2.0), 0.0, 2),
                   SweepAxis("J1", 1.0, 1.0, 1), SweepAxis("J2", 1.0, 1.0, 1)),
             tol=1e-9, detect_everywhere=False)  # surface points
    @example(axes=(SweepAxis("g1", 0.5, 1.5, 3), SweepAxis("g2", 0.5, 1.5, 3),
                   SweepAxis("J1", 1.0, 1.0, 1), SweepAxis("J2", 0.5, 1.0, 2)),
             tol=1e-9, detect_everywhere=True)
    @example(axes=(SweepAxis("g1", 0.0, 0.0, 1), SweepAxis("g2", 1.3963484362616476, 0.0, 1),
                   SweepAxis("J1", 0.5, 0.5, 1), SweepAxis("J2", 0.5, 0.5, 1)),
             tol=0.0, detect_everywhere=False)  # pow(g2, 2) is an ulp off g2 * g2
    @settings(max_examples=60, deadline=None)
    def test_matches_per_point_reference(self, axes, tol, detect_everywhere):
        # the rates are checked all at once, so a negative pairing rate at a probed
        # point is refused before any detection; the reference checks it at its point
        values = [axis.values().astype(float) for axis in axes]
        probed_negative = any(
            min(j1, j2) < 0 and (detect_everywhere or abs(g1**2 + g2**2 - j1**2 - j2**2)
                                 <= tol * max(1.0, g1**2 + g2**2, j1**2 + j2**2))
            for g1, g2, j1, j2 in itertools.product(*values))
        expected = ((ConfigError, "pairing rates must be nonnegative") if probed_negative else
                    scan_outcome(lambda: reference_es_scan(*values, tol, detect_everywhere)))

        def table():
            header, columns, extras = es_scan_table(*axes, tol=tol, detect_everywhere=detect_everywhere)
            assert header == self.HEADER and extras == scan_outcome(lambda: columns)[1]
            return columns

        assert scan_outcome(table) == expected

    def test_rates_are_checked_before_any_detection(self):
        # the first point alone would be refused by the detector (its rank
        # threshold overflows); the second point's negative pairing rate is
        # the input error, and it is reported
        axes = (SweepAxis("g1", 1e200, 1e200, 1), SweepAxis("g2", 1.0, 1.0, 1),
                SweepAxis("J1", 1.0, -1.0, 2), SweepAxis("J2", 1.0, 1.0, 1))
        with pytest.raises(OutOfRange):
            es_scan_table(*axes[:2], SweepAxis("J1", 1.0, 1.0, 1), axes[3], detect_everywhere=True)
        with pytest.raises(ConfigError, match="^pairing rates must be nonnegative$"):
            es_scan_table(*axes, detect_everywhere=True)


def test_fig3_ratio_rows_match_direct_call():
    from epchain import enhancement_ratio, nu_closed_form_bkc_ep

    (_, _), (rheader, rcolumns), extras = fig3_tables(n_values=(3,), phi_steps=3, t=1.5, fit_max_n=5)
    assert rheader == ["N", "t", "ratio"]
    assert [column.dtype for column in rcolumns] == [np.int64, np.float64, np.float64]
    rrows = table_rows(rcolumns)
    assert [t for _, t, _ in rrows] == np.linspace(0.25, 3.5, 14).tolist()
    for n, t, ratio in rrows:
        assert ratio == enhancement_ratio(n, t, nu_fn=nu_closed_form_bkc_ep)
        assert ratio == pytest.approx(enhancement_ratio(n, t), rel=1e-7)
    assert extras["phi_symmetry_residual"] <= 1e-9


def ratio_fit_data(fit_max_n, t):
    """fig3's fit inputs: N = 2..fit_max_n and R(N, t) from the exact series."""
    from epchain import enhancement_ratio, nu_closed_form_bkc_ep

    ns = np.arange(2, fit_max_n + 1)
    return ns, np.array([enhancement_ratio(int(n), t, nu_fn=nu_closed_form_bkc_ep) for n in ns])


def ratio_model(n, a, b, c):
    return a * np.exp(b * n) + c


def ratio_residual(ns, rs, params):
    return float(np.sum((rs - ratio_model(ns, *params)) ** 2))


@pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
class TestRatioFit:
    """fig3's variable-projection fit of a exp(b N) + c against ``curve_fit``.

    Its residual is never larger than that of ``curve_fit`` from
    p0 = (-4, -0.5, 2.5) at the default tolerances.  Those tolerances stop
    curve_fit up to 1.0e-6 (relative) short of the least-squares parameters
    (N = 2..39 at t = 3.3577, against a 40-digit optimum), so the parameters
    are compared with curve_fit rerun from its own result at tolerances of
    1e-14, which is at most 3e-7 off them.
    """

    @given(fit_max_n=st.integers(4, 40), t=st.floats(0.25, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_curve_fit(self, fit_max_n, t):
        from scipy.optimize import curve_fit

        ns, rs = ratio_fit_data(fit_max_n, t)
        *fit, degenerate = sweeps._exponential_fit(ns, rs)
        assert not degenerate
        default, _ = curve_fit(ratio_model, ns, rs, p0=(-4.0, -0.5, 2.5), maxfev=20000)
        # three points are interpolated, and both residuals are the rounding of
        # terms about the size of max|a exp(b N)| + |c| that cancel
        scale = np.abs(ratio_model(ns, default[0], default[1], 0.0)).max() + abs(default[2])
        floor = len(ns) * (4 * 2.0**-53 * scale) ** 2 if len(ns) == 3 else 0.0
        assert ratio_residual(ns, rs, fit) <= ratio_residual(ns, rs, default) * (1 + 1e-9) + floor
        tight, _ = curve_fit(ratio_model, ns, rs, p0=default, xtol=1e-14, ftol=1e-14, gtol=1e-14,
                             maxfev=20000)
        np.testing.assert_allclose(fit, tight, rtol=1e-6, atol=0)

    def test_least_squares_optimum(self):
        # where curve_fit's defaults stop 1.0e-6 short: the fit is the optimum
        # of its float data to 1e-12, found in 40 digits as the root of
        # d/db of the residual left by the best (a, c)
        mpmath = pytest.importorskip("mpmath")
        ns, rs = ratio_fit_data(39, 3.3577133695222408)
        fit = sweeps._exponential_fit(ns, rs)[:3]
        n, y = [mpmath.mpf(int(v)) for v in ns], [mpmath.mpf(float(v)) for v in rs]

        def projected(b):
            e = [mpmath.exp(b * v) for v in n]
            e_mean, y_mean = mpmath.fsum(e) / len(e), mpmath.fsum(y) / len(y)
            a = (mpmath.fsum((u - e_mean) * (v - y_mean) for u, v in zip(e, y))
                 / mpmath.fsum((u - e_mean) ** 2 for u in e))
            c = y_mean - a * e_mean
            return a, c, mpmath.fsum((v - a * u - c) ** 2 for u, v in zip(e, y))

        with mpmath.workdps(40):
            b = mpmath.findroot(lambda b: mpmath.diff(lambda x: projected(x)[2], b),
                                mpmath.mpf(fit[1]))
            a, c, _ = projected(b)
            optimum = [float(a), float(b), float(c)]
        np.testing.assert_allclose(fit, optimum, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("fit_max_n", [4, 5, 30])
    def test_long_time_fit(self, fit_max_n):
        # at t = 1e4 xi^2 overflows in the witness, the fit's decay rate is
        # small (b from -0.045 at N <= 4 to -0.011 at N <= 30) and nothing warns
        ns, rs = ratio_fit_data(fit_max_n, 1e4)
        a, b, c, degenerate = sweeps._exponential_fit(ns, rs)
        assert all(math.isfinite(v) for v in (a, b, c)) and -0.05 < b < 0.0 and not degenerate
        assert ratio_residual(ns, rs, (a, b, c)) <= 0.06

    @pytest.mark.parametrize("rs, params", [
        # three points with equal steps, or constant data, have no exponential
        # fit; the search stops where F is flat, with no warning, and a = 0
        # leaves b undetermined: the fit is degenerate
        ([1.0, 1.0, 1.0, 1.0], (0.0, -0.5, 1.0)),
        ([2.0, 2.0, 2.0], (0.0, -0.5, 2.0)),
    ], ids=["constant", "constant-three"])
    def test_flat_data(self, rs, params):
        ns = np.arange(2, 2 + len(rs))
        assert sweeps._exponential_fit(ns, np.array(rs)) == (*params, True)

    def test_degenerate_fits_are_flagged(self):
        # fig3 --t 0.001: R(N) is flat past N = 2, and the fit is a step there
        ns, rs = ratio_fit_data(30, 0.001)
        a, b, _, degenerate = sweeps._exponential_fit(ns, rs)
        assert (a, b) == pytest.approx((-5.74e26, -38.06), rel=1e-3)
        assert math.exp(b) < 2.0**-52 and degenerate
        # a straight line has no finite optimum: exact data stops the search
        # where it crosses b = 0 back and forth, and data 1e-9 off the line
        # ends at b ~ 1.5e-10
        line = 1.0 + 0.5 * ns
        assert sweeps._exponential_fit(ns, line)[3]
        _, b, _, degenerate = sweeps._exponential_fit(ns, line + 1e-9 * np.sin(ns))
        assert abs(b) * 28 < 1e-8 and degenerate
        # fig3 --t 1e-5: R(N) = 1 for every N
        fit = fig3_tables(t=1e-5)[2]["ratio_fit"]
        assert fit == {"a": 0.0, "b": -0.5, "c": 1.0, "degenerate": True}

    def test_straight_line_stops_early(self, monkeypatch):
        # F peaks at b = 0 on exact linear data: the search crosses from b = -1/8
        # to 1/8, and stops where it would cross back, not after all _FIT_STEPS;
        # each profile evaluation, and the fitted column, calls expm1 once
        calls = []
        expm1 = np.expm1
        monkeypatch.setattr(np, "expm1", lambda *args: calls.append(args) or expm1(*args))
        ns = np.arange(2, 31)
        _, b, _, degenerate = sweeps._exponential_fit(ns, 1 + 0.5 * ns)
        assert b == 0.125 and degenerate
        assert len(calls) - 1 < 30

    def test_default_fit_is_not_degenerate(self):
        # fig3's defaults, which the long_chain benchmark workload runs too
        fit = fig3_tables()[2]["ratio_fit"]
        assert fit["degenerate"] is False and fit["b"] == pytest.approx(-0.4327, abs=1e-4)

    def test_three_points_interpolated(self):
        # exp(b) is the ratio of the steps, and the points are met to rounding
        ns, rs = np.arange(2, 5), np.array([1.0, 1.5, 1.75])
        a, b, c, degenerate = sweeps._exponential_fit(ns, rs)
        assert not degenerate
        assert b == math.log(0.5)
        np.testing.assert_allclose(ratio_model(ns, a, b, c), rs, rtol=1e-15)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", [
    lambda: fig3_tables(n_values=(2, 3), phi_steps=0, fit_max_n=4)[0],
    lambda: fig4_grid(g_axis=SweepAxis("g", 0.0, 2.0, 2), arc_steps=0, threads=1)[1],
    lambda: entanglement_trajectory({"n": 2, "g": 0.5, "J": 1.0}, [1e308], ["1|2"])[:2],
    # the kernel's first chunk evolves no cell, and keeps no covariance entry
    lambda: entanglement_trajectory({"n": 2, "g": 0.5, "J": 1.0}, [1e308], ["1|2"], include_cm=True)[:2],
], ids=["fig3_phi_steps_0", "fig4_arc_steps_0", "entangle_truncated_at_first_time",
        "entangle_cm_truncated_at_first_time"])
def test_zero_row_tables_write_the_header_alone(tmp_path, fmt, table):
    header, columns = table()
    assert len(flat_columns(columns)) == len(header) > 0 and all(len(column) == 0 for column in columns)
    text = write_rows(tmp_path / "t", header, columns, fmt).read_text()
    if fmt == "csv":
        assert text == ",".join(header) + "\n"
    else:
        assert text == json.dumps({"columns": header, "rows": []}, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("n_values", [(1, 2), (2, 0)])
def test_fig3_needs_two_modes(n_values):
    # the 1|rest cut needs a second mode; the closed form alone would give 1
    with pytest.raises(ConfigError, match="chain sizes must be at least 2"):
        fig3_tables(n_values=n_values, phi_steps=3, fit_max_n=4)


@pytest.mark.parametrize("call, message", [
    (lambda: fig3_tables(phi_steps=-1), "phi_steps must be nonnegative"),
    (lambda: fig3_tables(fit_max_n=3), "fit_max_n must be at least 4"),
    (lambda: fig4_grid(arc_steps=-2), "arc_steps must be nonnegative"),
    (lambda: fig4_grid(threads=-3), "threads must be at least 1, got -3"),
    (lambda: entanglement_trajectory({"n": 2}, [0.0], [], threads=0),
     "threads must be at least 1, got 0"),
], ids=["phi_steps", "fit_max_n", "arc_steps", "fig4_threads", "entangle_threads"])
def test_preset_arguments_checked_in_library(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_fig4_checks_its_time(monkeypatch, t):
    # a time that is not finite is a wrong input, refused before any cell evolves
    calls = []
    monkeypatch.setattr(sweeps, "evolve_grid", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match=f"^time must be finite, got {t}$"):
        fig4_grid(t=t)
    assert calls == []


def test_threads_need_no_main_guard(tmp_path):
    # a script without an ``if __name__ == "__main__"`` guard, in a fresh
    # interpreter: the worker threads start no new process
    script = tmp_path / "script.py"
    script.write_text("\n".join([
        "from epchain.sweeps import SweepAxis, entanglement_trajectory, fig4_grid",
        "# 31 x 31 + 33 cells are two kernel chunks, 120 times at N = 12 are three",
        "fig4_grid(g_axis=SweepAxis('g', 0.0, 2.0, 31), arc_steps=33, threads=2)",
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
