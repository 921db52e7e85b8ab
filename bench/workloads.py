"""The benchmark's workloads: seeded inputs, the operations of one pass, checks.

Every workload is closed-loop: one client in one process issues the next
operation when the previous one has returned.  The seed picks one of
``VARIANTS`` input variants (grid offsets or spacings, trajectory lengths)
and orders the stream; the program only sees the generated CLI arguments,
config files and matrices.  Grid sizes are equal across variants, so every
seed does the same amount of work.

Workloads (see BENCHMARK.json for why each was chosen):

``small_maps``       CLI fig2 (N = 2, eta = 0.2) and fig4 (N = 3, grid plus
                     coalescence arc) at ``--threads 1``, CSV output.
``small_maps_pool``  the same inputs with ``--threads`` at the usable core
                     count, so the sweeps process pool runs; no BLAS thread
                     variable is set.
``long_chain``       CLI entangle at N = 30, g = J, phi = pi/2 and phi = 0,
                     three cuts, ``--include-cm --format json``; CLI fig3
                     with ``--fit-max-n 30``.
``ep_scan``          library stream: one ``spectrum_report`` plus
                     ``detect_eps`` per g point of sweeps through the EP for
                     N in {3, 6, 8}, phi in {0, pi/2}; ``locate_ep_1d`` once
                     per family; CLI ``es-scan --detect-everywhere``.

Only ``small_maps`` and ``long_chain`` are listed in BENCHMARK.json: on a
shared 2-core machine, runs long enough to average out its speed drift fit
the time budget for two workloads only.  ``ep_scan`` and
``small_maps_pool`` (whose pass times spread by more than half their median
between runs, from oversubscribed BLAS threads) stay runnable with
``--workload``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from epchain import (
    Bipartition,
    ChainSpec,
    build_bdg_matrix,
    build_chain_spec,
    chain_nu_minus,
    nu_closed_form_three_mode_nonuniform,
)
# operations call through the modules, so the traced run sees these calls
from epchain import cli, spectral
from epchain.errors import EpchainError

import checks

VARIANTS = 8
NAMES = ("small_maps", "long_chain", "ep_scan", "small_maps_pool")

DEFAULT_SIZES = {
    "small_maps": {"fig2_g": 9, "fig2_t": 201, "fig4_g": 21, "arc": 33},
    "long_chain": {"n": 30, "times": 31, "fit_max_n": 30, "ns": "2,3,4,5,6", "phi_steps": 65},
    "ep_scan": {"ns": [3, 6, 8], "points": 101, "es": 17},
}
DEFAULT_SIZES["small_maps_pool"] = DEFAULT_SIZES["small_maps"]

# cells recomputed per pass with the scalar chain_nu_minus pipeline
SCALAR_SAMPLE = {"fig2": 8, "fig4": 4, "entangle": 3}


@dataclass
class Op:
    """One operation the client waits for."""

    kind: str
    run: Callable[[], object]


@dataclass
class Workload:
    reference: str  # stem of the reference table file
    variant: int
    inputs: dict  # everything the program receives, fingerprinted
    ops: list[Op]
    latency_kinds: tuple[str, ...]  # op kinds whose latency is reported
    cells: int  # output cells per pass
    tables: Callable[[], dict]  # name -> (header, rows) after a pass
    check: Callable[[dict, random.Random], list]  # extra checks per pass
    wildcard: Callable[[str, list, list], list] = field(default=lambda name, header, row: row)


def usable_cores() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))


class CliFailure(Exception):
    """A CLI invocation returned a nonzero exit code."""


def _cli_op(kind: str, argv: list[str]) -> Op:
    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise CliFailure(f"epchain {argv[0]} exited {code}: {sink.getvalue()[-300:]}")

    return Op(kind, run)


def build(name: str, seed: int, workdir: Path, sizes: dict | None = None) -> Workload:
    """Generate the inputs of one workload from the seed."""
    rng = random.Random(seed)
    variant = rng.randrange(VARIANTS)
    sizes = {**DEFAULT_SIZES[name], **(sizes or {})}
    workdir.mkdir(parents=True, exist_ok=True)
    if name in ("small_maps", "small_maps_pool"):
        threads = 1 if name == "small_maps" else usable_cores()
        return _small_maps(variant, sizes, workdir, threads)
    if name == "long_chain":
        return _long_chain(variant, sizes, workdir)
    if name == "ep_scan":
        return _ep_scan(variant, sizes, workdir, rng)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def _sample(rows: list, k: int, rng: random.Random) -> list:
    return rng.sample(rows, min(k, len(rows)))


def _scalar_check(label: str, expected: float, spec: ChainSpec, t: float, part: Bipartition):
    got = chain_nu_minus(spec, t, part)
    ok = checks.close(got, expected, checks.SCALAR_RTOL, checks.SCALAR_ATOL)
    return checks.Check(f"scalar {label}", ok, f"table {expected!r} vs chain_nu_minus {got!r}")


# ---------------------------------------------------------------------------
# small_maps, small_maps_pool


def _small_maps(variant: int, sizes: dict, workdir: Path, threads: int) -> Workload:
    g_step = 1.0 / (sizes["fig2_g"] - 1)
    offset = variant / VARIANTS * g_step
    fig2 = {"eta": 0.2, "g_min": 0.5 + offset, "g_max": 1.5 + offset,
            "g_steps": sizes["fig2_g"], "t_max": 5.0, "t_steps": sizes["fig2_t"]}
    fig4 = {"j": 1.0, "t": 5.0, "g_max": 2.0 + 0.01 * variant,
            "g_steps": sizes["fig4_g"], "arc_steps": sizes["arc"]}
    fig2_out, fig4_out = workdir / "fig2.csv", workdir / "fig4.csv"
    fig2_argv = ["fig2", "--out", str(fig2_out), "--threads", str(threads)]
    fig2_argv += [arg for key, value in fig2.items() for arg in (f"--{key.replace('_', '-')}", repr(value))]
    fig4_argv = ["fig4", "--out", str(fig4_out), "--threads", str(threads)]
    fig4_argv += [arg for key, value in fig4.items() for arg in (f"--{key.replace('_', '-')}", repr(value))]
    arc_out = fig4_out.with_name("fig4_arc.csv")

    def tables():
        return {
            "fig2": checks.read_table(fig2_out),
            "fig4": checks.read_table(fig4_out),
            "fig4_arc": checks.read_table(arc_out),
        }

    def check(tabs: dict, rng: random.Random) -> list:
        out = []
        header, rows = tabs["fig2"]
        col = header.index("nu_minus")
        for row in _sample(rows, SCALAR_SAMPLE["fig2"], rng):
            spec = ChainSpec.uniform(2, g=float(row[0]), j=1.0, eta=fig2["eta"])
            out.append(_scalar_check(f"fig2 g={row[0]} t={row[1]}", float(row[col]),
                                     spec, float(row[1]), Bipartition.one_vs_rest(2)))
        header, rows = tabs["fig4"]
        col = header.index("nu_minus_13|2")
        part = Bipartition.from_label("13|2", 3)
        for row in _sample(rows, SCALAR_SAMPLE["fig4"], rng):
            spec = ChainSpec(3, hopping=(complex(float(row[0])), complex(float(row[1]))),
                             pairing=fig4["j"], sms=0)
            out.append(_scalar_check(f"fig4 g1={row[0]} g2={row[1]}", float(row[col]),
                                     spec, fig4["t"], part))
        header, rows = tabs["fig4_arc"]
        col = header.index("nu_minus_13|2")
        worst = 0.0
        for row in rows:
            closed = nu_closed_form_three_mode_nonuniform(float(row[0]), fig4["j"], fig4["t"])
            worst = max(worst, abs(float(row[col]) - closed))
        out.append(checks.Check("fig4 arc vs closed form", worst <= checks.CLOSED_FORM_ATOL,
                                f"worst |nu - closed form| = {worst:.3e}"))
        return out

    cells = sizes["fig2_g"] * sizes["fig2_t"] + sizes["fig4_g"] ** 2 + sizes["arc"]
    return Workload(
        reference="small_maps", variant=variant,
        inputs={"fig2": fig2, "fig4": fig4},
        ops=[_cli_op("fig2", fig2_argv), _cli_op("fig4", fig4_argv)],
        # fig4 takes about half fig2's time; over one of each per pass the
        # median would fall in the gap between them and jump with the noise
        latency_kinds=("fig2",), cells=cells, tables=tables, check=check,
    )


# ---------------------------------------------------------------------------
# long_chain


def _cuts(n: int) -> list[str]:
    def side(modes) -> str:
        return ",".join(str(m) for m in modes)

    return [
        f"1|{side(range(2, n + 1))}",
        f"{side(range(1, n // 2 + 1))}|{side(range(n // 2 + 1, n + 1))}",
        f"{side(range(1, n + 1, 2))}|{side(range(2, n + 1, 2))}",
    ]


def _long_chain(variant: int, sizes: dict, workdir: Path) -> Workload:
    n = sizes["n"]
    cuts = _cuts(n)
    configs = {}
    ops = []
    outputs = {}
    for tag, phi in (("pi2", math.pi / 2), ("0", 0.0)):
        config = {"n": n, "g": 1.0, "J": 1.0, "phi": phi,
                  "times": {"start": 0.0, "stop": 3.0 + 0.05 * variant, "steps": sizes["times"]}}
        config_path = workdir / f"entangle_{tag}.config.json"
        config_path.write_text(json.dumps(config))
        out = workdir / f"entangle_{tag}.json"
        argv = ["entangle", "--config", str(config_path), "--out", str(out),
                "--include-cm", "--format", "json"]
        for cut in cuts:
            argv += ["--partition", cut]
        configs[f"entangle_{tag}"] = config
        outputs[f"entangle_{tag}"] = out
        ops.append(_cli_op("entangle", argv))
    fig3 = {"ns": sizes["ns"], "phi_steps": sizes["phi_steps"], "t": 3.5, "fit_max_n": sizes["fit_max_n"]}
    fig3_out = workdir / "fig3.csv"
    ops.append(_cli_op("fig3", ["fig3", "--out", str(fig3_out), "--ns", fig3["ns"],
                                "--phi-steps", str(fig3["phi_steps"]), "--t", repr(fig3["t"]),
                                "--fit-max-n", str(fig3["fit_max_n"])]))
    outputs["fig3"] = fig3_out
    outputs["fig3_ratio"] = fig3_out.with_name("fig3_ratio.csv")

    def tables():
        return {key: checks.read_table(path) for key, path in outputs.items()}

    def check(tabs: dict, rng: random.Random) -> list:
        out = []
        for key, config in configs.items():
            header, rows = tabs[key]
            spec = build_chain_spec({k: config[k] for k in ("n", "g", "J", "phi")})
            columns = [(i, h[len("nu_minus_"):]) for i, h in enumerate(header) if h.startswith("nu_minus_")]
            for row in _sample(rows, SCALAR_SAMPLE["entangle"], rng):
                col, label = rng.choice(columns)
                out.append(_scalar_check(f"{key} t={row[0]} cut={label}", float(row[col]),
                                         spec, float(row[0]), Bipartition.from_label(label, n)))
        return out

    n_ns = len(fig3["ns"].split(","))
    cells = 2 * sizes["times"] * len(cuts) + n_ns * fig3["phi_steps"] + n_ns * 14
    return Workload(
        reference="long_chain", variant=variant,
        inputs={"entangle": configs, "cuts": cuts, "fig3": fig3},
        ops=ops, latency_kinds=("entangle", "fig3"), cells=cells, tables=tables, check=check,
    )


# ---------------------------------------------------------------------------
# ep_scan

STREAM_HEADER = ["N", "phi", "g", "status", "region", "boundary", "eps", "blocks"]


def _ep_scan(variant: int, sizes: dict, workdir: Path, rng: random.Random) -> Workload:
    spacing = 0.96 + 0.01 * variant
    half = (sizes["points"] - 1) // 2
    h = 0.5 / half * spacing
    # every sweep passes exactly through the EP at g = J = 1
    g_values = [1.0 + (k - half) * h for k in range(sizes["points"])]
    families = [(n, phi) for n in sizes["ns"] for phi in (0.0, math.pi / 2)]
    points = [(n, phi, g) for n, phi in families for g in g_values]
    results: list = [None] * len(points)
    transitions: dict = {}

    def point_op(index: int) -> Op:
        n, phi, g = points[index]
        m = build_bdg_matrix(ChainSpec.uniform(n, g=g, j=1.0, phi=phi))

        def run():
            results[index] = None
            report = spectral.spectrum_report(m)
            try:
                clusters = spectral.detect_eps(m)
            except EpchainError as exc:
                results[index] = (type(exc).__name__, report, ())
                raise
            results[index] = ("ok", report, clusters)

        return Op("point", run)

    def locate_op(n: int, phi: float) -> Op:
        def run():
            transitions[(n, phi)] = None
            transitions[(n, phi)] = spectral.locate_ep_1d(
                lambda x: ChainSpec.uniform(n, g=x, j=1.0, phi=phi), g_values[0], g_values[-1])

        return Op("locate", run)

    es_steps = sizes["es"]
    es_half = (es_steps - 1) // 2
    es_h = 0.5 / es_half * spacing
    axis = [1.0 - es_half * es_h, 1.0 + es_half * es_h, es_steps]
    es_config = {"g1": axis, "g2": axis, "J1": [1.0, 1.0, 1], "J2": [1.0, 1.0, 1]}
    es_config_path = workdir / "es_scan.config.json"
    es_config_path.write_text(json.dumps(es_config))
    es_out = workdir / "es_scan.csv"

    order = list(range(len(points)))
    rng.shuffle(order)
    ops = [point_op(i) for i in order]
    ops += [locate_op(n, phi) for n, phi in families]
    ops.append(_cli_op("es-scan", ["es-scan", "--config", str(es_config_path),
                                   "--out", str(es_out), "--detect-everywhere"]))

    def tables():
        rows = []
        for (n, phi, g), result in zip(points, results):
            row = [str(n), repr(phi), repr(g)]
            if result is None:
                rows.append(row + ["missing", "", "", "", ""])
                continue
            status, report, clusters = result
            blocks = ";".join("+".join(str(b) for b in c.jordan_blocks) for c in clusters)
            rows.append(row + [status, report.region.value, str(report.boundary).lower(),
                               str(len(clusters)), blocks])
        located = []
        for n, phi in families:
            found = transitions.get((n, phi))
            for i, x in enumerate(found or ()):
                located.append([str(n), repr(phi), str(i), repr(x)])
        return {
            "stream": (STREAM_HEADER, rows),
            "locate": (["N", "phi", "index", "g"], located),
            "es_scan": checks.read_table(es_out),
        }

    def check(tabs: dict, rng: random.Random) -> list:
        # the uniform chain at g = J has an EP for every size and phase
        _, rows = tabs["stream"]
        at_ep = [row for row in rows if float(row[2]) == 1.0]
        missing = [f"N={row[0]} phi={row[1]}" for row in at_ep if row[3] != "ok" or row[6] == "0"]
        return [checks.Check("EP detected at g = J", len(at_ep) == len(families) and not missing,
                             f"families without an EP at g = J: {missing or 'none'}")]

    def wildcard(table: str, header: list, row: list) -> list:
        # a refused point or a label that flips under tolerance scaling is
        # not pinned: any outcome there is accepted
        if table != "stream":
            return row
        row = list(row)
        if row[3] != "ok":
            row[3:] = ["*"] * (len(row) - 3)
        elif row[5] == "true":
            row[4] = "*"
        return row

    return Workload(
        reference="ep_scan", variant=variant,
        inputs={"families": [[n, phi] for n, phi in families], "g": g_values, "es_scan": es_config},
        ops=ops, latency_kinds=("point",), cells=len(points) + es_steps**2,
        tables=tables, check=check, wildcard=wildcard,
    )
