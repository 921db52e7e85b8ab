"""epchain benchmark: one workload, run closed-loop in this process.

    python3 bench/run.py --workload small_maps --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory and outputs go to ``.bench_run/<workload>/``.  After an untimed,
checked warm-up pass the workload repeats for ``--seconds`` seconds, each
pass timed and its outputs checked (see ``checks.py``).

Timings are corrected for the host's speed.  On a shared host the speed of
a core drifts by tens of percent within a minute, more than any bound a
regression check could use.  So a fixed reference kernel (``host_ref``: a
pure-Python loop plus 4x4 ``expm`` and ``eigvals`` calls, the mix the
sweeps run) is timed before every pass and after the last, and each pass's
timings are scaled by ``REF_NOMINAL_S`` over the mean kernel time around
it: the reported seconds are those the pass would take on a host where the
kernel takes ``REF_NOMINAL_S``.  The kernel runs no ``epchain`` code, so a
change to the program moves the corrected timings as it moves the raw
ones; the raw median and the host speed (``REF_NOMINAL_S`` over the median
kernel time) are printed beside them and kept in ``result.json``.
``setup_s`` (process start, imports, file reads) does not follow the
kernel's speed and is reported uncorrected, as the median of
``SETUP_PROBES`` fresh processes.

Every workload but ``small_maps_pool`` runs with one BLAS thread.  Their
4x4 to 60x60 kernels gain nothing from a second thread, which only spins on
the second core (on 2 cores: twice the CPU time, 10 % more wall time), so
their timings would follow the neighbours' load on a shared host.
``small_maps_pool`` keeps the user's environment so that the oversubscription
of pool workers times BLAS threads stays visible.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced (``tracer.py``), checks that the traced outputs
equal the untraced ones, writes the spans of the last traced pass to
``spans.csv`` and reports the per-layer metrics, medians over traced
passes, per pass.  ``ep_scan`` and ``small_maps_pool`` are runnable but
not listed in BENCHMARK.json (see ``workloads.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, every end-to-end metric by name and unit (``failed_frac``
and the op sample count among them) and failure details.  An operation is a
CLI invocation, a stream point, or a ``locate_ep_1d`` call; ``attempted``
counts operations plus output checks, ``failed`` the failed ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy
import scipy.linalg

import checks
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
SETUP_PROBES = 7

# host_ref's time on a 2-vCPU Intel Xeon VM (CPython 3.11, numpy 2.4, scipy-openblas)
REF_NOMINAL_S = 0.025
REF_LOOPS = 125_000
REF_LINALG = 200
REF_REPEATS = 3
REF_MATRIX = numpy.linspace(-0.5, 0.5, 16).reshape(4, 4)

USER_BLAS = ("small_maps_pool",)  # workloads that keep the user's BLAS threads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "wall_s": "s",
    "cells_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"trace.overhead_frac": "frac", "spectral.jordan_per_ep": "calls/ep",
               "sweeps.write_rows.bytes": "B"}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# environment, set-up and memory


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas(module) -> dict:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {"unknown": "show_config(mode='dicts') unavailable"}
    keys = ("name", "version", "openblas configuration")
    return {lib: {k: deps[lib][k] for k in keys if k in deps[lib]} for lib in ("blas", "lapack") if lib in deps}


def environment(seed: int, variant: int) -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "affinity": affinity,
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "seed": seed,
        "variant": variant,
    }


def host_ref() -> float:
    """Median time of a fixed reference kernel: the host's current speed."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc += i * i % 7
        for i in range(REF_LINALG):
            e = scipy.linalg.expm(REF_MATRIX * (1.0 + 1e-3 * i))
            numpy.linalg.eigvals(e @ e.T)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_setup(workdir: Path, probes: int) -> list[float]:
    """setup_s of ``probes`` fresh processes, run one after another."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), str(workdir)],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class ChildRss(threading.Thread):
    """Samples the summed peak RSS (VmHWM) of this process's live children."""

    def __init__(self, interval: float = 0.05):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak_kb = 0
        self._stop_event = threading.Event()

    @staticmethod
    def _children() -> list[int]:
        pids = []
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children") as fh:
                    pids += [int(p) for p in fh.read().split()]
            except OSError:
                continue
        return pids

    @staticmethod
    def _hwm_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.peak_kb = max(self.peak_kb, sum(self._hwm_kb(pid) for pid in self._children()))

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassRecord:
    wall: float
    latencies: list  # (op kind, seconds)
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced pass
    ref: float = REF_NOMINAL_S  # host_ref time around the pass

    @property
    def scale(self) -> float:
        """Factor that corrects this pass's timings for the host's speed."""
        return REF_NOMINAL_S / self.ref


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: dict = field(default_factory=dict)  # description -> occurrences

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1


def run_pass(wl, tally: Tally) -> PassRecord:
    from epchain.errors import EpchainError

    latencies = []
    errors = []
    start = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            op.run()
        except Exception as exc:  # a failed operation is counted, the pass goes on
            errors.append((op.kind, exc))
        latencies.append((op.kind, time.perf_counter() - t0))
    wall = time.perf_counter() - start
    tally.attempted += len(wl.ops)
    for kind, exc in errors:
        if not isinstance(exc, EpchainError) and f"{kind}: {type(exc).__name__}" not in tally.failures:
            traceback.print_exception(exc, file=sys.stderr)
        tally.fail(f"{kind}: {type(exc).__name__}")
    return PassRecord(wall, latencies)


def check_pass(wl, tally: Tally, reference, rng: random.Random, baseline: dict | None) -> dict:
    """Check the outputs of the pass just run; return its tables."""
    from epchain.errors import EpchainError

    try:
        tables = wl.tables()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        tables = {}
        results = [checks.Check("outputs readable", False, repr(exc))]
    else:
        results = [c for name, (header, rows) in tables.items()
                   if (c := checks.positivity(name, header, rows)) is not None]
        results += checks.reference_checks(tables, reference)
        try:
            results += wl.check(tables, rng)
        except (ValueError, IndexError, EpchainError) as exc:
            results.append(checks.Check("workload checks ran", False, repr(exc)))
        if baseline is not None:
            results.append(checks.Check("traced outputs equal untraced", tables == baseline))
    tally.attempted += len(results)
    for check in results:
        if not check.ok:
            tally.correct = False
            tally.fail(f"check {check.name}: {check.detail}")
    return tables


def run_passes(wl, tally: Tally, seconds: float, reference, seed: int, first_pass: int,
               tracer=None, baseline=None, spans_path=None) -> list[PassRecord]:
    """Timed passes until ``seconds`` have gone by (at least one).

    With a tracer, each pass is traced and its spans are reduced to the
    per-layer metrics once the pass is over; the spans of the last traced
    pass are written to ``spans_path`` at the end.
    """
    records: list[PassRecord] = []
    refs: list[float] = []
    spans: list = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        refs.append(host_ref())
        if tracer is not None:
            tracer.active = True
        record = run_pass(wl, tally)
        if tracer is not None:
            tracer.active = False
            spans, counts = tracer.take()
            record.layers = tracing.layer_metrics(spans, counts)
        rng = random.Random(seed * 7919 + first_pass + len(records))
        check_pass(wl, tally, reference, rng, baseline)
        records.append(record)
    refs.append(host_ref())
    for record, before, after in zip(records, refs, refs[1:]):
        record.ref = (before + after) / 2
    if spans_path is not None:
        tracing.write_spans(spans_path, spans)
    return records


# ---------------------------------------------------------------------------
# the run


def _percentile(values: list[float], q: float) -> float:
    return float(numpy.percentile(values, q))


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
                 reference_dir: Path = REFERENCE_DIR, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return the result object plus an ``info`` block."""
    import workloads  # imports epchain, so only once src is on the path

    workdir = ROOT / ".bench_run" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.build(name, seed, workdir, sizes)
    env = environment(seed, wl.variant)
    setup = [] if trace else measure_setup(workdir, probes)
    reference = checks.load_reference(reference_dir / f"{wl.reference}.json", wl.variant, wl.inputs)
    tally = Tally()
    rss = ChildRss()
    rss.start()
    try:
        run_pass(wl, tally)
        baseline = check_pass(wl, tally, reference, random.Random(seed * 7919), None)
        if not trace:
            timed = run_passes(wl, tally, seconds, reference, seed, 1)
        else:
            timed = run_passes(wl, tally, seconds / 2, reference, seed, 1)
            tr = tracing.Tracer()
            tr.install()
            try:
                traced = run_passes(wl, tally, seconds / 2, reference, seed, 1 + len(timed),
                                    tracer=tr, baseline=baseline, spans_path=workdir / "spans.csv")
            finally:
                tr.uninstall()
    finally:
        rss.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + rss.peak_kb

    walls = [r.wall for r in timed]
    wall_s = statistics.median(r.wall * r.scale for r in timed)
    latencies = [s * r.scale for r in timed for kind, s in r.latencies if kind in wl.latency_kinds]
    e2e = {
        "wall_s": wall_s,
        "cells_per_s": wl.cells / wall_s,
        "op_p50_ms": 1e3 * _percentile(latencies, 50),
        "op_p90_ms": 1e3 * _percentile(latencies, 90),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": peak_kb / 1024,
    }
    info = {
        "workload": name, "seed": seed, "variant": wl.variant, "passes": len(timed),
        "cells_per_pass": wl.cells, "op_samples": len(latencies),
        "failed_frac": tally.failed / tally.attempted,
        "raw_wall_s": statistics.median(walls),
        "host_speed": REF_NOMINAL_S / statistics.median(r.ref for r in timed),
        "pass_walls_s": walls, "pass_refs_s": [r.ref for r in timed],
        "setup_runs_s": setup, "env": env, "failures": tally.failures,
    }
    if trace:
        metrics = {key: statistics.median(r.layers[key] for r in traced) for key in traced[0].layers}
        metrics["trace.overhead_frac"] = statistics.median(r.wall * r.scale for r in traced) / wall_s - 1
        result_metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        info["traced_passes"] = len(traced)
        info["untraced_wall_s"] = wall_s
    else:
        result_metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": result_metrics}
    (workdir / "result.json").write_text(json.dumps({**result, "info": info}, indent=1) + "\n")
    return {**result, "info": info}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in USER_BLAS and any(os.environ.get(v) != "1" for v in BLAS_THREAD_VARS):
        # BLAS sizes its thread pool when numpy loads, so start over with the
        # variables set; exec keeps this process, nothing is left running
        env = {**os.environ, **{v: "1" for v in BLAS_THREAD_VARS}}
        args_in = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *args_in], env)

    if not (SRC / "epchain" / "__init__.py").is_file():
        print(f"bench: no epchain package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import epchain

    if Path(epchain.__file__).resolve().parent != SRC / "epchain":
        print(f"bench: imported epchain from {epchain.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"bench: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    print(f"bench: workload={info['workload']} seed={info['seed']} variant={info['variant']} "
          f"passes={info['passes']} cells/pass={info['cells_per_pass']}")
    print("env: " + json.dumps(info["env"], sort_keys=True))
    if not args.trace:
        for key, metric in result["metrics"].items():
            print(f"metric {key} = {metric['value']!r} {metric['unit']}")
        print(f"metric failed_frac = {info['failed_frac']!r} frac "
              f"({result['failed']} of {result['attempted']} operations and checks)")
        print(f"op latency samples = {info['op_samples']}")
        print(f"raw (uncorrected) wall_s = {info['raw_wall_s']!r} s, "
              f"host speed = {info['host_speed']!r} (REF_NOMINAL_S / median host_ref)")
    else:
        print(f"untraced wall_s = {info['untraced_wall_s']!r} s, traced passes = {info['traced_passes']}")
    for what, count in info["failures"].items():
        print(f"failed x{count}: {what}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
