"""Command-line front end for the bundled experiments.

Subcommands::

    spectrum   eigenvalues + region labels, optionally over one swept axis
    entangle   witness trajectory nu_-(t), E_N(t) for chosen bipartitions
    fig2       two-mode witness map over hopping strength and time
    fig3       uniform-chain witness vs hopping phase + enhancement ratios
    fig4       three-mode witness map over (g1, g2) + coalescence-circle cut
    es-scan    exceptional-surface scan of the three-mode parameter space
    selftest   run the pinned invariant suite

Exit codes: 0 success (an entangle table that ends at a refused cell too),
1 selftest check failure, 2 configuration error, 3 numeric failure of fig2,
fig3, fig4, spectrum --detect-eps or es-scan.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .chain import _CHAIN_KEYS
from .errors import ConfigError, EpchainError
from .spectral import DEFAULT_RANK_TOL, DEFAULT_REGION_TOL
from .sweeps import (
    SweepAxis,
    _check_threads,
    entanglement_trajectory,
    es_scan_table,
    fig2_grid,
    fig3_tables,
    fig4_grid,
    spectrum_sweep,
    write_manifest,
    write_rows,
)


def _load_config(path: str | None, required: bool = True) -> dict:
    if path is None:
        if required:
            raise ConfigError("this command needs --config pointing at a JSON file")
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return config


def _split_chain(config: dict) -> tuple[dict, dict]:
    chain = {k: v for k, v in config.items() if k in _CHAIN_KEYS}
    rest = {k: v for k, v in config.items() if k not in _CHAIN_KEYS}
    return chain, rest


def _times_from(rest: dict) -> list[float]:
    times = rest.get("times")
    if times is None:
        return [float(t) for t in np.linspace(0.0, 5.0, 51)]
    if isinstance(times, dict):
        axis = SweepAxis.from_config("t", {**times, "steps": times.get("steps", 51)})
        return [float(t) for t in axis.values()]
    if isinstance(times, list):
        try:
            return [float(t) for t in times]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'times' entries must be numbers: {exc}") from exc
    raise ConfigError("'times' must be a list or {start, stop, steps}")


def _add_output(parser: argparse.ArgumentParser):
    parser.add_argument("--out", help="output data file")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")


def _usable_cores() -> int:
    # the cores this process may run on, which an affinity mask can make fewer than the CPU count
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _add_threads(parser: argparse.ArgumentParser,
                 text: str = "worker threads for the witness kernel (default: the usable cores)"):
    # None is the usable cores, counted when the command runs
    parser.add_argument("--threads", type=int, default=None, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epchain", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"epchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and spectral regions")
    _add_output(p)
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--tol", type=float, default=None,
                   help=f"region and rank tolerance (default: {DEFAULT_REGION_TOL:g} "
                        f"and {DEFAULT_RANK_TOL:g})")
    p.add_argument("--detect-eps", action="store_true", help="attach exceptional-point clusters")

    p = sub.add_parser("entangle", help="witness trajectory")
    _add_output(p)
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--partition", action="append", default=None,
                   help="bipartition label like '13|2' (repeatable)")
    p.add_argument("--include-cm", action="store_true",
                   help="append flattened covariance upper triangles")

    p = sub.add_parser("fig2", help="two-mode witness map")
    _add_output(p)
    _add_threads(p, "accepted and checked, but no effect on fig2: its witness is exact, "
                         "with no kernel to run")
    p.add_argument("--eta", type=float, default=0.2)
    p.add_argument("--g-min", type=float, default=0.5)
    p.add_argument("--g-max", type=float, default=1.5)
    p.add_argument("--g-steps", type=int, default=301)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--t-steps", type=int, default=501)

    p = sub.add_parser("fig3", help="phase dependence and enhancement ratio")
    _add_output(p)
    p.add_argument("--ns", default="2,3,4,5,6", help="comma-separated chain sizes")
    p.add_argument("--t", type=float, default=3.5)
    p.add_argument("--phi-steps", type=int, default=65)
    p.add_argument("--fit-max-n", type=int, default=30)

    p = sub.add_parser("fig4", help="three-mode witness map and circle cut")
    _add_output(p)
    _add_threads(p)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--t", type=float, default=5.0)
    p.add_argument("--g-max", type=float, default=2.0)
    p.add_argument("--g-steps", type=int, default=81)
    p.add_argument("--arc-steps", type=int, default=65)

    p = sub.add_parser("es-scan", help="exceptional-surface scan")
    _add_output(p)
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--tol", type=float, default=DEFAULT_REGION_TOL,
                   help="surface residual tolerance, relative to max(1, g1^2 + g2^2, "
                        "J1^2 + J2^2) (default: %(default)g)")
    p.add_argument("--detect-everywhere", action="store_true",
                   help="run the detector at every grid point, not only on-surface")

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--tol", type=float, default=1.0,
                   help="uniform scale applied to every check threshold")
    p.add_argument("--draws", type=int, default=40)
    return parser


def _emit(args, command: str, tables: dict, config_echo: dict, extras: dict, default_name: str):
    """Write each (header, columns) table under ``<out stem><suffix>``, each with its manifest."""
    out = Path(args.out) if args.out else Path(default_name)
    if args.fmt == "json" and out.suffix == ".csv":
        out = out.with_suffix(".json")
    for suffix, (header, columns) in tables.items():
        path = out.with_name(out.stem + suffix + out.suffix)
        try:
            write_rows(path, header, columns, args.fmt)
            write_manifest(path, command, config_echo, extras)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        print(f"{command}: wrote {len(columns[0])} rows to {path}")


def _cmd_spectrum(args) -> int:
    config = _load_config(args.config)
    chain, rest = _split_chain(config)
    axis = None
    if "sweep" in rest:
        sweep = rest.pop("sweep")
        if not isinstance(sweep, dict) or "axis" not in sweep:
            raise ConfigError("'sweep' must be a mapping with an 'axis' name")
        axis = SweepAxis.from_config(sweep["axis"], {k: v for k, v in sweep.items() if k != "axis"})
    if rest:
        raise ConfigError(f"unknown config keys: {sorted(rest)}")
    tol = args.tol if args.tol is not None else DEFAULT_REGION_TOL
    rank_tol = args.tol if args.tol is not None else DEFAULT_RANK_TOL
    header, columns, extras = spectrum_sweep(
        chain, axis, tol=tol, detect=args.detect_eps, rank_tol=rank_tol
    )
    config_echo = {**config, "tol": tol, "rank_tol": rank_tol, "detect_eps": args.detect_eps}
    _emit(args, "spectrum", {"": (header, columns)}, config_echo, extras, "spectrum.csv")
    if extras.get("transitions"):
        print("transitions:", ", ".join(f"{x:.9g}" for x in extras["transitions"]))
    return 0


def _cmd_entangle(args) -> int:
    config = _load_config(args.config)
    chain, rest = _split_chain(config)
    times = _times_from(rest)
    unknown = set(rest) - {"times"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    header, columns, extras = entanglement_trajectory(
        chain, times, args.partition or [], include_cm=args.include_cm, threads=_usable_cores()
    )
    # the cuts as the table names them, the default 1|rest included: each cut's
    # nu_minus_ column follows t or the previous cut's log_negativity_ column
    n_cuts = len(args.partition) if args.partition else 1
    partitions = [name[len("nu_minus_"):] for name in header[1 : 1 + 2 * n_cuts : 2]]
    config_echo = {**config, "partitions": partitions, "include_cm": args.include_cm}
    _emit(args, "entangle", {"": (header, columns)}, config_echo, extras, "entangle.csv")
    if "truncated_at" in extras:
        print(f"warning: trajectory truncated at t={extras['truncated_at']:.6g} "
              f"by {extras['truncated_by']}: {extras['truncation']}", file=sys.stderr)
    return 0


def _cmd_fig2(args) -> int:
    if args.threads is not None:
        _check_threads(args.threads)
    header, columns, extras = fig2_grid(
        eta=args.eta,
        g_axis=SweepAxis("g", args.g_min, args.g_max, args.g_steps),
        t_axis=SweepAxis("t", 0.0, args.t_max, args.t_steps),
    )
    config_echo = {
        "eta": args.eta, "g_min": args.g_min, "g_max": args.g_max,
        "g_steps": args.g_steps, "t_max": args.t_max, "t_steps": args.t_steps,
    }
    _emit(args, "fig2", {"": (header, columns)}, config_echo, extras, "fig2.csv")
    return 0


def _cmd_fig3(args) -> int:
    try:
        n_values = tuple(int(tok) for tok in args.ns.split(",") if tok)
    except ValueError as exc:
        raise ConfigError(f"--ns must be comma-separated integers: {exc}") from exc
    witness, ratio, extras = fig3_tables(
        n_values=n_values, phi_steps=args.phi_steps, t=args.t, fit_max_n=args.fit_max_n
    )
    config_echo = {"ns": list(n_values), "t": args.t, "phi_steps": args.phi_steps,
                   "fit_max_n": args.fit_max_n}
    _emit(args, "fig3", {"": witness, "_ratio": ratio}, config_echo, extras, "fig3.csv")
    fit = extras["ratio_fit"]
    print(f"ratio fit: a={fit['a']:.4f} b={fit['b']:.4f} c={fit['c']:.4f}")
    return 0


def _cmd_fig4(args) -> int:
    grid, arc, extras = fig4_grid(
        j=args.j,
        t=args.t,
        g_axis=SweepAxis("g", 0.0, args.g_max, args.g_steps),
        arc_steps=args.arc_steps,
        threads=_usable_cores() if args.threads is None else args.threads,
    )
    config_echo = {"j": args.j, "t": args.t, "g_max": args.g_max,
                   "g_steps": args.g_steps, "arc_steps": args.arc_steps}
    _emit(args, "fig4", {"": grid, "_arc": arc}, config_echo, extras, "fig4.csv")
    return 0


def _cmd_es_scan(args) -> int:
    config = _load_config(args.config, required=False)
    axes = {}
    for name, default in (("g1", [0.5, 1.5, 5]), ("g2", [0.5, 1.5, 5]),
                          ("J1", [1.0, 1.0, 1]), ("J2", [1.0, 1.0, 1])):
        axes[name] = SweepAxis.from_config(name, config.get(name, default))
    unknown = set(config) - set(axes)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    header, columns, extras = es_scan_table(
        axes["g1"], axes["g2"], axes["J1"], axes["J2"], tol=args.tol,
        detect_everywhere=args.detect_everywhere,
    )
    config_echo = {**config, "tol": args.tol, "detect_everywhere": args.detect_everywhere}
    _emit(args, "es-scan", {"": (header, columns)}, config_echo, extras, "es_scan.csv")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(tol_scale=args.tol, draws=args.draws)
    failures = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "entangle": _cmd_entangle,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "es-scan": _cmd_es_scan,
    "selftest": _cmd_selftest,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves a parser as it was."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EpchainError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
