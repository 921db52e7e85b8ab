"""Command-line interface: outputs, manifests, determinism, exit codes."""

import argparse
import ast
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from epchain import cli
from epchain.chain import symplectic_form
from epchain.cli import build_parser, main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSpectrumCommand:
    def test_sweep_with_transitions(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "n": 2, "g": 1.0, "J": 1.0, "eta": 0.2,
            "sweep": {"axis": "g", "start": 0.5, "stop": 1.5, "steps": 21},
        })
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:4] == ["index", "g", "region", "boundary"]
        assert len(rows) == 21
        manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
        assert manifest["tool"] == "epchain"
        transitions = manifest["extras"]["transitions"]
        assert len(transitions) == 2
        assert transitions[0] == pytest.approx(0.8, abs=1e-5)
        assert transitions[1] == pytest.approx(1.2, abs=1e-5)
        regions = [r[2] for r in rows]
        assert regions[0] == "purely_imaginary"
        assert regions[-1] == "purely_real"
        assert "mixed" in regions

    def test_descending_sweep_has_the_ascending_transitions(self, tmp_path):
        transitions = []
        for start, stop in ((0.5, 1.5), (1.5, 0.5)):
            cfg = write_json(tmp_path / f"c{start}.json", {
                "n": 2, "g": 1.0, "J": 1.0, "eta": 0.2,
                "sweep": {"axis": "g", "start": start, "stop": stop, "steps": 21},
            })
            out = tmp_path / f"spec{start}.csv"
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            transitions.append(manifest["extras"]["transitions"])
        assert transitions[1] == transitions[0]
        assert len(transitions[0]) == 2

    def test_single_point_no_eps(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"n": 2, "g": 2.0, "J": 1.0})
        out = tmp_path / "point.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--detect-eps"]) == 0
        manifest = json.loads((tmp_path / "point.csv.manifest.json").read_text())
        assert manifest["extras"]["exceptional_points"] == []
        _, rows = read_csv(out)
        assert rows[0][1] == "purely_real"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["spectrum", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"n": 2, "bogus": 1})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_config_exits_2(self):
        assert main(["spectrum"]) == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    @pytest.mark.parametrize("command", ["spectrum"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, command, tol):
        cfg = write_json(tmp_path / "c.json", {"n": 2, "g": 1.0, "J": 1.0})
        argv = [command, f"--tol={tol}", "--out", str(tmp_path / "x.csv"),
                "--config", cfg, "--detect-eps"]
        assert main(argv) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["fig2", "fig4"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, command, threads):
        out = tmp_path / "x.csv"
        assert main([command, "--threads", threads, "--g-steps", "2", "--out", str(out)]) == 2
        assert f"threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_ambiguity_exits_3(self, tmp_path, capsys):
        # a huge rank tolerance lands singular values inside the undecidable
        # window, which must surface as a numeric failure
        cfg = write_json(tmp_path / "c.json", {"n": 2, "g": 1.0, "J": 1.0})
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--detect-eps", "--tol", "0.3"])
        assert code == 3
        assert "RankAmbiguity" in capsys.readouterr().err

    def test_rank_threshold_overflow_exits_3(self, tmp_path, capsys):
        # s1 ~ 3e200 puts tol * s1**2 past the float range
        cfg = write_json(tmp_path / "c.json", {"n": 3, "g": 1e200, "J": 1.0})
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--detect-eps"]) == 3
        assert "numeric failure: OutOfRange: rank threshold" in capsys.readouterr().err
        assert not out.exists()


class TestEntangleCommand:
    def run(self, tmp_path, g, times=None):
        cfg = write_json(tmp_path / f"e{g}.json", {
            "n": 2, "g": g, "J": 1.0, "eta": 0.2,
            "times": times or {"start": 0.0, "stop": 5.0, "steps": 26},
        })
        out = tmp_path / f"ent{g}.csv"
        code = main(["entangle", "--config", cfg, "--out", str(out), "--partition", "1|2"])
        assert code == 0
        _, rows = read_csv(out)
        return rows

    def test_decaying_region(self, tmp_path):
        rows = self.run(tmp_path, 0.79)
        nus = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(nus[1:], nus[2:]))

    def test_oscillatory_region(self, tmp_path):
        rows = self.run(tmp_path, 1.59)
        nus = np.array([float(r[1]) for r in rows])
        assert nus.min() > 0.05  # bounded away from full decay
        diffs = np.diff(nus)
        assert (diffs > 0).any() and (diffs < 0).any()

    def test_mixed_region_decays_overall(self, tmp_path):
        rows = self.run(tmp_path, 1.19)
        nus = [float(r[1]) for r in rows]
        assert nus[-1] < nus[1]

    def test_include_cm_columns(self, tmp_path):
        cfg = write_json(tmp_path / "cm.json", {
            "n": 2, "g": 0.5, "J": 1.0, "times": [0.0, 1.0],
        })
        out = tmp_path / "cm.csv"
        assert main(["entangle", "--config", cfg, "--out", str(out), "--include-cm"]) == 0
        header, rows = read_csv(out)
        assert "cm_1_1" in header and "cm_4_4" in header
        assert len(header) == 1 + 2 + 10  # t, two metrics, upper triangle of 4x4

    def test_nan_time_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "nan.json", {"n": 2, "J": 1.0, "times": [0.0, float("nan")]})
        out = tmp_path / "nan.csv"
        assert main(["entangle", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: times must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, options, message", [
        ({}, ["--partition", "1|4"], "label '1|4' is out of range for N=3"),
        ({"times": [0, "x"]}, [], "'times' entries must be numbers"),
        ({"times": {"start": 0, "stop": 1, "steps": "x"}}, [],
         "axis 't' start/stop/steps must be numbers"),
    ], ids=["partition", "time", "steps"])
    def test_malformed_values_exit_2(self, tmp_path, capsys, extra, options, message):
        cfg = write_json(tmp_path / "bad.json", {"n": 3, **extra})
        out = tmp_path / "bad.csv"
        assert main(["entangle", "--config", cfg, *options, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lost_witness_truncates(self, tmp_path, capsys):
        # at g = 0.5, eta = 0 the closed form is 7.8e-16 at t = 20 and 1.4e-19
        # at t = 25, and the rounded partial transpose has no Cholesky factor:
        # refused, with no log(0), E_N = inf or eigensolve of the rounded matrix
        for t in (20.0, 25.0):
            cfg = write_json(tmp_path / "lost.json", {
                "n": 2, "g": 0.5, "J": 1.0, "eta": 0.0, "times": [1.0, t],
            })
            out = tmp_path / "lost.csv"
            assert main(["entangle", "--config", cfg, "--out", str(out)]) == 0
            err = capsys.readouterr().err
            assert f"truncated at t={t:g} by PrecisionLoss: a matrix is not positive definite" in err
            assert err.rstrip().endswith(f"(t={t}, cut 1|2)")
            _, rows = read_csv(out)
            assert [float(row[0]) for row in rows] == [1.0]
            extras = json.loads((tmp_path / "lost.csv.manifest.json").read_text())["extras"]
            assert extras["truncated_at"] == t and extras["truncated_by"] == "PrecisionLoss"
            assert err.rstrip().endswith(extras["truncation"])

    def test_lost_symplecticity_truncates(self, tmp_path, capsys):
        # the bounded chain's rounded propagator breaks S Omega S^T = Omega at t = 13090
        cfg = write_json(tmp_path / "lost.json", {
            "n": 2, "g": 1.5, "J": 1.0, "eta": 0.2, "times": [0.0, 13090.0],
        })
        out = tmp_path / "lost.csv"
        assert main(["entangle", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert ("truncated at t=13090 by SymplecticityLost: propagator lost symplecticity: residual"
                in err)
        assert err.rstrip().endswith(" (t=13090.0)")
        _, rows = read_csv(out)
        assert [float(row[0]) for row in rows] == [0.0]
        extras = json.loads((tmp_path / "lost.csv.manifest.json").read_text())["extras"]
        assert extras["truncated_at"] == 13090.0 and extras["truncated_by"] == "SymplecticityLost"

    def test_overflow_truncates_with_warning_row(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "o.json", {
            "n": 2, "eta": 5.0, "times": [0.0, 0.5, 1.0, 75.0, 100.0],
        })
        out = tmp_path / "o.csv"
        assert main(["entangle", "--config", cfg, "--out", str(out)]) == 0
        # the warning goes to stderr and the manifest; the table stays numeric
        assert ("truncated at t=75 by OverflowRisk: propagator overflows double precision (t=75.0)"
                in capsys.readouterr().err)
        _, rows = read_csv(out)
        assert [float(row[0]) for row in rows] == [0.0, 0.5, 1.0]
        assert all(math.isfinite(float(value)) for row in rows for value in row)
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["extras"] == {"truncated_at": 75.0, "truncated_by": "OverflowRisk",
                                      "truncation": "propagator overflows double precision (t=75.0)"}


# the exit-code policy of the cli docstring and the README, one case per rule
@pytest.mark.parametrize("argv, config, code", [
    (["entangle"], {"n": 2, "g": 0.5, "J": 1.0, "times": [0.0, 1.0]}, 0),
    # a refused cell ends entangle's table: a truncation, not a failure
    (["entangle"], {"n": 2, "g": 0.5, "J": 1.0, "times": [1.0, 25.0]}, 0),
    (["entangle"], {"n": 2, "g": 1.5, "J": 1.0, "eta": 0.2, "times": [0.0, 13090.0]}, 0),
    (["selftest", "--draws", "8", "--tol", "1e-30"], None, 1),
    (["entangle"], {"n": 2, "J": 1.0, "times": [0.0, float("nan")]}, 2),
    (["fig2", "--eta", "5", "--g-min", "5", "--g-max", "1", "--g-steps", "2",
      "--t-max", "100", "--t-steps", "2"], None, 3),
    (["fig3", "--ns", "2", "--phi-steps", "3", "--t", "1e7"], None, 3),
    (["fig4", "--t", "10", "--g-steps", "5", "--arc-steps", "0"], None, 3),
    (["spectrum", "--detect-eps", "--tol", "0.3"], {"n": 2, "g": 1.0, "J": 1.0}, 3),
    (["es-scan", "--detect-everywhere"], {"g1": [0.5, 1e200, 3]}, 3),
], ids=["entangle", "entangle_witness_refused", "entangle_symplecticity_lost", "selftest_fails",
        "config_error", "fig2_refused", "fig3_overflow", "fig4_refused", "spectrum_rank_ambiguity",
        "es_scan_rank_overflow"])
def test_exit_code_policy(tmp_path, capsys, argv, config, code):
    options = [] if config is None else ["--config", write_json(tmp_path / "c.json", config)]
    if argv[0] != "selftest":
        options += ["--out", str(tmp_path / "x.csv")]
    assert main([*argv, *options]) == code
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") == (code == 3)
    assert err.startswith("config error: ") == (code == 2)


@pytest.mark.parametrize("command, config", [
    ("entangle", {"n": 2, "times": {"start": 0, "stop": 1, "steps": 2.5}}),
    ("spectrum", {"n": 2, "sweep": {"axis": "g", "start": 0.5, "stop": 1.5, "steps": 2.5}}),
    ("es-scan", {"g1": [0.5, 1.5, 2.5]}),
])
def test_fractional_steps_exit_2(tmp_path, capsys, command, config):
    out = tmp_path / "frac.csv"
    assert main([command, "--config", write_json(tmp_path / "c.json", config),
                 "--out", str(out)]) == 2
    assert "steps must be a whole number, got 2.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, key", [
    ("entangle", {"n": 2, "times": {"start": 0, "stop": 5, "step": 11}}, "step"),
    ("spectrum", {"n": 2, "sweep": {"axis": "g", "start": 0.5, "stop": 1.5, "steps": 5,
                                    "stesp": 9}}, "stesp"),
    ("es-scan", {"g1": {"start": 0.5, "stop": 1.5, "steps": 3, "step": 9}}, "step"),
])
def test_misspelled_axis_key_exits_2(tmp_path, capsys, command, config, key):
    out = tmp_path / "typo.csv"
    assert main([command, "--config", write_json(tmp_path / "c.json", config),
                 "--out", str(out)]) == 2
    assert f"unknown keys [{key!r}]" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_steps_accepted(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"n": 2, "times": {"start": 0, "stop": 1, "steps": 3.0}})
    out = tmp_path / "whole.csv"
    assert main(["entangle", "--config", cfg, "--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 3


class TestFigureCommands:
    def test_fig2_small_grid(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(["fig2", "--g-steps", "5", "--t-steps", "5", "--out", str(out),
                     "--threads", "1"])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["g", "t", "region", "nu_minus", "log_negativity"]
        assert len(rows) == 25
        manifest = json.loads((tmp_path / "fig2.csv.manifest.json").read_text())
        assert manifest["extras"]["transitions"] == pytest.approx([0.8, 1.2], abs=1e-5)

    def test_fig2_threads_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig2", "--g-steps", "4", "--t-steps", "4", "--out", str(a), "--threads", "1"])
        main(["fig2", "--g-steps", "4", "--t-steps", "4", "--out", str(b), "--threads", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_fig3_tables_and_fit(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code = main(["fig3", "--ns", "2,3", "--phi-steps", "5", "--fit-max-n", "6",
                     "--t", "3.5", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["N", "phi", "nu_minus", "neg_log_nu"]
        two_mode = [float(r[2]) for r in rows if r[0] == "2"]
        assert max(two_mode) - min(two_mode) <= 1e-9  # flat in phase
        ratio_path = tmp_path / "fig3_ratio.csv"
        rheader, rrows = read_csv(ratio_path)
        assert rheader == ["N", "t", "ratio"]
        manifest = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())
        fit = manifest["extras"]["ratio_fit"]
        assert fit["c"] == pytest.approx(2.5, abs=0.3)
        assert manifest["extras"]["phi_symmetry_residual"] <= 1e-9

    @pytest.mark.parametrize("t, degenerate", [("3.5", False), ("0.001", True)])
    def test_fig3_manifest_flags_degenerate_fit(self, tmp_path, t, degenerate):
        # the long_chain benchmark's fig3, and at t = 0.001 a ratio flat past N = 2
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--ns", "2,3,4,5,6", "--phi-steps", "65", "--t", t,
                     "--fit-max-n", "30", "--out", str(out)]) == 0
        fit = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())["extras"]["ratio_fit"]
        assert sorted(fit) == ["a", "b", "c", "degenerate"] and fit["degenerate"] is degenerate

    def test_fig3_long_time(self, tmp_path):
        # xi^2 overflows at N = 30 in the fit; the witness stays positive
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--ns", "2,6", "--phi-steps", "5", "--t", "1e4",
                     "--out", str(out)]) == 0
        for path in (out, tmp_path / "fig3_ratio.csv"):
            _, rows = read_csv(path)
            assert rows and all(0.0 < float(r[2]) < math.inf for r in rows)

    @pytest.mark.parametrize("t, code, message", [
        ("1e7", 3, "numeric failure: OutOfRange: xi must be finite"),
        # (J t)^2 itself overflows, where Python's float ** raises
        ("1e160", 3, "numeric failure: OutOfRange: xi is past the float range: (J t)^2 overflows"),
        ("nan", 2, "config error: time must be finite"),
        ("inf", 2, "config error: time must be finite"),
    ], ids=["1e7", "1e160", "nan", "inf"])
    def test_fig3_bad_time(self, tmp_path, capsys, t, code, message):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--ns", "2", "--phi-steps", "3", "--t", t, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_fig4_bad_time_exits_2(self, tmp_path, capsys, t):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--g-steps", "2", "--arc-steps", "0", "--t", t, "--out", str(out)]) == 2
        assert f"config error: time must be finite, got {t}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fig3", "--ns", "2,3", "--phi-steps", "3", "--fit-max-n", "5"],
        ["fig4", "--g-steps", "3", "--arc-steps", "3", "--threads", "1"],
    ], ids=["fig3", "fig4"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, argv):
        # a file where the output directory should be
        (tmp_path / "afile").touch()
        out = tmp_path / "afile" / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"config error: cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("fit_max_n", ["1", "3"])
    def test_fig3_fit_needs_three_sizes(self, tmp_path, capsys, fit_max_n):
        out = tmp_path / "fig3.csv"
        code = main(["fig3", "--ns", "2", "--phi-steps", "3", "--fit-max-n", fit_max_n,
                     "--out", str(out)])
        assert code == 2
        assert "config error: fit_max_n must be at least 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["fig3", "--ns", "2", "--phi-steps", "-1"], "--phi-steps"),
        (["fig4", "--g-steps", "2", "--arc-steps", "-2"], "--arc-steps"),
    ])
    def test_negative_step_counts_exit_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / f"{argv[0]}.csv"
        code = main(argv + ["--out", str(out)])
        assert code == 2
        # the check lives in the library, so it names the parameter
        parameter = flag[2:].replace("-", "_")
        assert f"config error: {parameter} must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_fig4_grid_and_arc(self, tmp_path):
        out = tmp_path / "fig4.csv"
        code = main(["fig4", "--g-steps", "5", "--arc-steps", "5", "--out", str(out),
                     "--threads", "1"])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["g1", "g2", "region", "nu_minus_13|2"]
        inside = [r for r in rows if float(r[0]) ** 2 + float(r[1]) ** 2 < 1.9
                  and float(r[0]) > 0 and float(r[1]) > 0]
        assert inside and all(r[2] == "purely_imaginary" for r in inside)
        assert all(float(r[3]) < 0.01 for r in inside)  # decayed at Jt = 5
        outside = [r for r in rows if float(r[0]) ** 2 + float(r[1]) ** 2 > 2.1]
        assert outside and all(float(r[3]) > 0.01 for r in outside)
        aheader, arows = read_csv(tmp_path / "fig4_arc.csv")
        assert aheader == ["varphi", "g1", "g2", "nu_minus_13|2", "nu_closed_form"]
        for row in arows:
            assert float(row[3]) == pytest.approx(float(row[4]), abs=1e-6)

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig3.json"
        code = main(["fig3", "--ns", "2", "--phi-steps", "3", "--fit-max-n", "4",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["N", "phi", "nu_minus", "neg_log_nu"]
        assert len(payload["rows"]) == 3


@pytest.mark.parametrize("command", ["fig2", "fig4"])
def test_default_threads_counted_per_call(command, tmp_path, monkeypatch):
    # main reuses one parser, so --threads' default (the usable cores) is
    # counted when each command runs, not when the parser was built
    seen, builder = [], getattr(cli, f"{command}_grid")
    monkeypatch.setattr(cli, f"{command}_grid", lambda **kw: seen.append(kw["threads"]) or builder(**kw))
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        assert main([command, "--g-steps", "2", "--out", str(tmp_path / "x.csv")]) == 0
    assert seen == [1, 2]


@pytest.mark.parametrize("command", ["spectrum", "entangle", "fig3", "es-scan"])
def test_threads_only_where_used(command, capsys):
    # only fig2 and fig4 set the witness kernel's worker threads; entangle uses the usable cores
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    ("fig2", ["--config", "x.json"]),
    ("fig3", ["--config", "x.json"]),
    ("fig4", ["--config", "x.json"]),
    ("entangle", ["--tol", "1e-9"]),
    ("fig3", ["--tol", "1e-9"]),
    ("fig2", ["--tol", "1e-9"]),
    ("fig4", ["--tol", "1e-9"]),
])
def test_config_and_tol_only_where_used(command, option, capsys):
    # fig2, fig3 and fig4 take their settings as options; neither the
    # trajectory, fig2's closed-form spectrum nor fig3's exact series has a
    # tolerance to set, and fig4 labels at the default region tolerance
    with pytest.raises(SystemExit) as exc:
        main([command, *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


# every value the command line can set, by command: --tol and --partition
# are the only source of the tolerances and cuts, which no config file sets
SETTABLE_VALUES = {
    "spectrum": ["out", "fmt", "config", "tol", "detect_eps"],
    "entangle": ["out", "fmt", "config", "partition", "include_cm"],
    "fig2": ["out", "fmt", "threads", "eta", "g_min", "g_max", "g_steps", "t_max", "t_steps"],
    "fig3": ["out", "fmt", "ns", "t", "phi_steps", "fit_max_n"],
    "fig4": ["out", "fmt", "threads", "j", "t", "g_max", "g_steps", "arc_steps"],
    "es-scan": ["out", "fmt", "config", "tol", "detect_everywhere"],
    "selftest": ["tol", "draws"],
}

# a config holding every key its command accepts (test_manifest_echoes_options
# runs each); any other key is refused
FULL_CONFIGS = {
    "spectrum": {"n": 2, "g": 1.0, "phi": 0.3, "J": 1.0, "eta": 0.2,
                 "sweep": {"axis": "g", "start": 0.5, "stop": 1.5, "steps": 3}},
    "entangle": {"n": 2, "g": 1.0, "phi": 0.3, "J": 1.0, "eta": 0.2, "times": [0.0, 1.0]},
    "es-scan": {"g1": [1.0, 1.0, 1], "g2": [1.0, 1.0, 1], "J1": [1.0, 1.0, 1],
                "J2": [1.0, 1.0, 1]},
}


def test_settable_values_census():
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    census = {
        name: [action.dest for action in sub._actions
               if not isinstance(action, argparse._HelpAction)]
        for name, sub in commands.choices.items()
    }
    assert census == SETTABLE_VALUES
    assert sum(map(len, census.values())) == 40


@pytest.mark.parametrize("command, key, value", [
    ("spectrum", "tol", 1e-9),
    ("es-scan", "tol", 1e-9),
    ("entangle", "partitions", ["1|2"]),
])
def test_option_values_are_not_config_keys(tmp_path, capsys, command, key, value):
    cfg = write_json(tmp_path / "c.json", {**FULL_CONFIGS[command], key: value})
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, options, echoed", [
    ("spectrum", [], {"tol": 1e-9, "rank_tol": 1e-8, "detect_eps": False}),
    ("spectrum", ["--tol", "1e-7", "--detect-eps"],
     {"tol": 1e-7, "rank_tol": 1e-7, "detect_eps": True}),
    ("entangle", [], {"partitions": ["1|2"], "include_cm": False}),
    ("entangle", ["--partition", "2|1", "--partition", "1|2", "--include-cm"],
     {"partitions": ["2|1", "1|2"], "include_cm": True}),
    ("es-scan", [], {"tol": 1e-9, "detect_everywhere": False}),
    ("es-scan", ["--tol", "1e-6", "--detect-everywhere"],
     {"tol": 1e-6, "detect_everywhere": True}),
])
def test_manifest_echoes_options(tmp_path, command, options, echoed):
    cfg = write_json(tmp_path / "c.json", FULL_CONFIGS[command])
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, *options, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert manifest["config"] == {**FULL_CONFIGS[command], **echoed}


# modules no preset loads: selftest alone imports scipy.integrate and scipy.optimize,
# expm loads scipy's Pade extension without scipy.linalg, np.unique and
# np.union1d, which import numpy.ma, are not called, and only a pooled witness
# run (more than one thread and more than one chunk) imports concurrent.futures
UNLOADED = ["concurrent.futures", "numpy.ma", "scipy.integrate", "scipy.linalg", "scipy.optimize"]


def loaded_in_fresh_process(code):
    """Which of UNLOADED are in sys.modules after code runs in a new interpreter."""
    code += f"\nimport sys; print(sorted(set({UNLOADED!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_out_integrate_and_optimize():
    assert loaded_in_fresh_process("import epchain.cli") == []


@pytest.mark.parametrize("command, options, config", [
    ("fig2", ["--g-steps", "3", "--t-steps", "4", "--threads", "1"], None),
    ("fig4", ["--g-steps", "3", "--arc-steps", "3", "--threads", "1"], None),
    ("entangle", [], FULL_CONFIGS["entangle"]),
    ("fig3", ["--ns", "2,3", "--phi-steps", "3", "--fit-max-n", "5"], None),
    ("spectrum", ["--detect-eps"], FULL_CONFIGS["spectrum"]),
    ("es-scan", ["--detect-everywhere"], FULL_CONFIGS["es-scan"]),
], ids=["fig2", "fig4", "entangle", "fig3", "spectrum", "es-scan"])
def test_preset_runs_load_no_scipy_subpackage(tmp_path, command, options, config):
    # each command runs cold, with the transport, eigensolve, fit and writer it always runs
    if config is not None:
        options = [*options, "--config", write_json(tmp_path / "c.json", config)]
    argv = [command, *options, "--out", str(tmp_path / "x.csv")]
    code = f"from epchain.cli import main\nassert main({argv!r}) == 0"
    assert loaded_in_fresh_process(code) == []
    assert (tmp_path / "x.csv").exists()


class TestEsScanCommand:
    def test_arc_point_row(self, tmp_path):
        cfg = write_json(tmp_path / "es.json", {
            "g1": [1.0, 1.0, 1], "g2": [1.0, 1.0, 1],
            "J1": [1.0, 1.0, 1], "J2": [1.0, 1.0, 1],
        })
        out = tmp_path / "es.csv"
        assert main(["es-scan", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["g1", "g2", "J1", "J2", "residual", "on_surface",
                          "ep_order", "block_sizes"]
        assert rows[0][5] == "true"
        assert rows[0][6] == "2"
        assert rows[0][7] == "2+2+1+1"

    def test_default_grid(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["es-scan"]) == 0
        assert (tmp_path / "es_scan.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, tol):
        out = tmp_path / "es.csv"
        assert main(["es-scan", f"--tol={tol}", "--out", str(out)]) == 2
        assert "surface tolerance must be nonnegative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_tolerance_keeps_exact_zeros(self, tmp_path):
        # the default grid's (1, 1) point has residual exactly 0
        out = tmp_path / "es.csv"
        assert main(["es-scan", "--tol", "0", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 25
        assert [(row[0], row[1]) for row in rows if row[5] == "true"] == [("1", "1")]

    def test_huge_hopping(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "es.json", {"g1": [0.5, 1e200, 3]})
        out = tmp_path / "es.csv"
        # off the surface the residual is infinite, and no detector runs
        assert main(["es-scan", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [(float(row[0]), row[4], row[5]) for row in rows[10:]] == [(1e200, "inf", "false")] * 5
        # the detector's rank threshold tol * s1**k passes the float range
        assert main(["es-scan", "--config", cfg, "--out", str(out), "--detect-everywhere"]) == 3
        assert "numeric failure: OutOfRange: rank threshold" in capsys.readouterr().err


class TestSelftestCommand:
    def test_passes_by_default(self, capsys):
        assert main(["selftest", "--draws", "8"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
        assert "PASS  bkc_ep_closed_form" in out

    def test_injected_fault_fails(self, capsys, monkeypatch):
        # a sign flip in the suite's reference Omega: S Omega S^T = Omega fails
        from epchain import selftest

        def corrupted(n_modes):
            omega = symplectic_form(n_modes).copy()
            omega[0, 1] = -omega[0, 1]
            return omega

        monkeypatch.setattr(selftest, "symplectic_form", corrupted)
        assert main(["selftest", "--draws", "8"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  propagator_symplectic" in out

    def test_tolerance_override_propagates(self, capsys):
        # impossibly tight thresholds must flip checks to FAIL
        assert main(["selftest", "--draws", "8", "--tol", "1e-30"]) == 1

    @pytest.mark.parametrize(
        "args",
        [["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
         ["--draws", "0"], ["--draws", "-3"]],
    )
    def test_defeating_arguments_exit_2(self, capsys, args):
        # an infinite scale would pass any fault, and no draw at all would
        # pass every transport check without running one
        assert main(["selftest", *args]) == 2
        assert "config error" in capsys.readouterr().err


def test_determinism_identical_config(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "n": 2, "g": 1.0, "J": 1.0, "eta": 0.2,
        "sweep": {"axis": "g", "start": 0.5, "stop": 1.5, "steps": 11},
    })
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["spectrum", "--config", cfg, "--out", str(a)])
    main(["spectrum", "--config", cfg, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_float_formatting_17_digits(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"n": 2, "g": 0.0, "J": 1.0, "times": [1.0]})
    out = tmp_path / "t.csv"
    main(["entangle", "--config", cfg, "--out", str(out)])
    _, rows = read_csv(out)
    # e^{-2} printed at full precision round-trips exactly
    assert float(rows[0][1]) == pytest.approx(math.exp(-2.0), abs=1e-9)
    assert len(rows[0][1].split(".")[-1]) >= 15


# sha256 of small outputs of every preset, recorded with the per-value writer
# (one ``format_value`` call per cell, ``csv.writer`` and ``json.dumps``)
# before the per-row template writer replaced it; the two ``spec.`` entries
# were recorded with the per-slice labeller (one ``eigvals`` per point)
# before the stacked ``spectrum_stack`` replaced it.  The two ``trunc.``
# entries were re-recorded when the truncation left the table for the
# manifest (the files lost only their final warning row), again when
# the run moved to a bounded chain: the old product of squeezers printed
# nu_- = 1.3e92 at t = 25 from the eigensolve that replaced a failed Cholesky
# factor, where the exact value is 1, and again when the ||K|| t cap that
# truncated that bounded chain went: the run now stops where a growing
# chain's propagator overflows.  The spec manifest
# was re-recorded when manifests began to echo the option values (tol,
# rank_tol, detect_eps) beside the config file's keys.  They pin the
# formatting, quoting and JSON layout, and the numbers' bits on this numeric
# stack (numpy 2.4, scipy 1.17 with OpenBLAS); re-record them only when the
# numbers or the layout move on purpose.  The ``es.`` entries and the
# spectrum run's JSON were recorded with the row writer, before the
# column writer replaced it: they pin int, bool and text columns in both
# layouts.
GOLDEN_SHA256 = {
    "cm.csv": "77a3bd95692b4f2da861b6525ae535f03ceb41a34f0c7ff0ad075739554b01be",
    "ent.json": "ad513755c1f1d2b64a9f8864d776317337adc0d8e5343a22c7ba231b75d0502a",
    "es.csv": "91202226cd30a298a7e0803ef728c68a74926d332722e6d472ecc930de0b0796",
    "es.json": "d3bb95a7d407ba1c6c485f3cf94f8f0b2c3314837b5d833acac51be00ff8f0e1",
    "fig2.csv": "63c2999c785f1d3d1210b76cc90eedaf736a243201f5d34196f8c26a85cecb88",
    "fig2.json": "0b51bfa58459aab9fff2dd9c6a394a8f775ff1efccf0df3a0b76a2ba2025458e",
    "fig3.csv": "a3a4f32f26e5d35f2141ef56b42fcc7230b7673bc0fe1aeecc3aa7468278e4dc",
    "fig3_ratio.csv": "226cb8682ddd020de1d8ca300c3f8e5899562d48bf749c84f23073a0b9b8c5c5",
    "fig4.csv": "804bb8b8166baa60f90f2e48028329cc5f8cf991e6e594b6e09cb1d042e65e24",
    "fig4_arc.csv": "45f4b64873bfdfa00c00ec3ce21c9685f4bb6ff144af686c8206965574fc3163",
    "spec.csv": "67865819b65e0efaf37f9c3cb963682b3362b27b0732479eb270bb5a3506ddb2",
    "spec.csv.manifest.json": "b2859d148e37412a330c856d5566dda8b6960a5dac21614162a40e27be32e201",
    "spec.json": "d2bb8ca5f9a3312945aabc15e017ca8d21888d197656307a548add0af6d47388",
    "spec.json.manifest.json": "72a713c14237892d477c0d307d7d382b99fbe273cc23623d461e9e892226ef79",
    "trunc.csv": "bb14da94d709a3dd2019bdb09f27496fd831226edac9bcc25fdd5eefd2eb9edc",
    "trunc.json": "e65af17aaeed3c90260c1b6efc17411a8a5d683e78046cd0c8f880db492c902f",
}


def golden_outputs(tmp_path):
    """Run the golden commands; return {output file name: sha256 of its bytes}."""
    ent = write_json(tmp_path / "ent_cfg.json", {
        "n": 3, "g": 1.0, "J": 1.0, "eta": 0.2, "phi": 0.7, "times": [0.0, 0.5, 1.5],
    })
    # a growing chain whose propagator overflows at t = 75, after finite witnesses
    trunc = write_json(tmp_path / "trunc_cfg.json", {
        "n": 10, "g": 1.5, "J": 1.0, "eta": 5.0, "times": [0.0, 0.5, 1.0, 75.0, 100.0],
    })
    # long_chain's N = 30 table, all floats; the t = 1e-310 row holds
    # subnormal covariances, which take Python's own '%.17g'
    cm = write_json(tmp_path / "cm_cfg.json", {
        "n": 30, "g": 1.0, "J": 1.0, "phi": math.pi / 2, "times": [0.0, 1e-310, 0.5, 1.5, 3.0],
    })
    # a g-sweep through the order-3 EP at g = J, phi = pi/2; its manifest
    # pins the located transitions and the detected clusters
    spec = write_json(tmp_path / "spec_cfg.json", {
        "n": 3, "g": 1.0, "J": 1.0, "eta": 0.2, "phi": math.pi / 2,
        "sweep": {"axis": "g", "start": 0.5, "stop": 1.5, "steps": 5},
    })
    cut = "1,2|3,4,5,6,7,8,9,10"
    runs = [
        ["spectrum", "--config", spec, "--detect-eps", "--out", "spec.csv"],
        ["spectrum", "--config", spec, "--detect-eps", "--format", "json", "--out", "spec.json"],
        # the default 5 x 5 grid, with its int, bool and text columns
        ["es-scan", "--detect-everywhere", "--out", "es.csv"],
        ["es-scan", "--detect-everywhere", "--format", "json", "--out", "es.json"],
        ["fig2", "--g-steps", "3", "--t-steps", "4", "--threads", "1", "--out", "fig2.csv"],
        # two float runs split by the text column region
        ["fig2", "--g-steps", "3", "--t-steps", "4", "--threads", "1", "--format", "json",
         "--out", "fig2.json"],
        ["fig4", "--g-steps", "3", "--arc-steps", "3", "--threads", "1", "--out", "fig4.csv"],
        ["fig3", "--ns", "2,3", "--phi-steps", "3", "--fit-max-n", "5", "--out", "fig3.csv"],
        ["entangle", "--config", ent, "--partition", "1|23", "--partition", "13|2",
         "--include-cm", "--format", "json", "--out", "ent.json"],
        ["entangle", "--config", trunc, "--partition", cut, "--out", "trunc.csv"],
        ["entangle", "--config", cm, "--include-cm", "--out", "cm.csv"],
        ["entangle", "--config", trunc, "--partition", cut, "--format", "json",
         "--out", "trunc.json"],
    ]
    out_dir = tmp_path / "out"
    for argv in runs:
        argv[-1] = str(out_dir / argv[-1])
        assert main(argv) == 0, argv
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.name.startswith("spec.") or not path.name.endswith(".manifest.json")
    }


def test_golden_output_bytes(tmp_path):
    assert golden_outputs(tmp_path) == GOLDEN_SHA256
