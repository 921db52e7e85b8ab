"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1
TINY = {
    "small_maps": {"fig2_g": 3, "fig2_t": 5, "fig4_g": 3, "arc": 3},
    "small_maps_pool": {"fig2_g": 3, "fig2_t": 5, "fig4_g": 3, "arc": 3},
    "long_chain": {"n": 4, "times": 3, "fit_max_n": 5, "ns": "2,3", "phi_steps": 3},
    "ep_scan": {"ns": [3], "points": 5, "es": 3},
}


def tiny_reference(name: str, out_dir: Path) -> Path:
    variant = random.Random(SEED).randrange(workloads.VARIANTS)
    owner = "small_maps" if name == "small_maps_pool" else name
    make_reference.make(owner, out_dir, TINY[name], variants=[variant])
    return out_dir


def tiny_run(name: str, reference_dir: Path, trace: bool) -> dict:
    return run.run_workload(name, SEED, 0, trace, sizes=TINY[name], reference_dir=reference_dir, probes=1)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_emitted_with_its_unit(name, tmp_path):
    reference_dir = tiny_reference(name, tmp_path)
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny_run(name, reference_dir, trace)
        assert result["correct"], result["info"]["failures"]
        assert result["failed"] == 0 and result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {key: metric["unit"] for key, metric in result["metrics"].items()}
        assert got == expected
        for key, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), key


def test_failing_check_counts_in_failed_frac(tmp_path):
    reference_dir = tiny_reference("small_maps", tmp_path)
    path = reference_dir / "small_maps.json"
    reference = json.loads(path.read_text())
    (entry,) = reference.values()
    row = entry["tables"]["fig2"]["rows"][1][1]
    row[3] = repr(float(row[3]) * 1.001)  # the nu_minus column
    path.write_text(json.dumps(reference))

    result = tiny_run("small_maps", reference_dir, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["info"]["failed_frac"] == result["failed"] / result["attempted"] > 0
    assert any("fig2 vs reference" in what for what in result["info"]["failures"])


def test_positivity_rejects_a_nonpositive_witness():
    header = ["t", "nu_minus_1|2", "log_negativity_1|2"]
    assert checks.positivity("t", header, [["0", "1", "0"], ["1", "0.5", "0.7"]]).ok
    assert not checks.positivity("t", header, [["0", "1", "0"], ["1", "-0.5", "0.7"]]).ok
    assert not checks.positivity("t", header, [["0", "1", "-1e-3"]]).ok


def test_timings_are_corrected_for_host_speed():
    # a pass timed while the reference kernel ran twice as slow as nominal
    record = run.PassRecord(wall=3.0, latencies=[], ref=2 * run.REF_NOMINAL_S)
    assert record.wall * record.scale == pytest.approx(1.5)
    assert run.host_ref() > 0
