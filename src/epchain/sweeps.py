"""Experiment sweeps and machine-readable output writers.

Every bundled experiment reduces to evaluating the chain pipeline over a
parameter grid and emitting rows.  fig2, fig4 and spectrum sweeps build the
matrices of all their chains as one stack (``bdg_stack``,
``uniform_bdg_stack`` or ``spec_bdg_stack``); fig4 and spectrum sweeps
label it with one ``spectrum_stack`` call, and spectrum sweeps locate their
transitions with ``locate_ep_1d``.  fig2 needs neither: its two-mode
spectrum and exceptional points g = +-|1 +- eta| are closed forms, labelled
by the same rule.  fig2 and fig4 turn the stack into generators with
``generator_stack``, and the numeric witness presets (fig2, fig4 and its
arc, entangle) run one batched kernel: ``evolve_grid`` transports the
initial covariance for all (generator, time) cells at once and
``witness_stack`` evaluates nu_- and E_N per cut.  ``evolve`` and
``entanglement_result`` are their one-cell case, so every value equals what
they give for that cell, and a failing check raises the error a loop over
the cells would raise first.  The kernel works
through a grid in chunks of a fixed number of matrix entries, so memory
stays flat on large grids (but of at least 512 witness values, so that
numpy's stacked eigensolve releases the GIL), and stops at the first chunk
with an error.
The calling thread evolves the chunks in order; with ``threads > 1``
(the three witness presets take it) each chunk's cuts go to a
``concurrent.futures.ThreadPoolExecutor`` of that many worker threads
while the next chunk evolves, and their results are collected in order, so
values and errors are the same at any thread count.  fig3 needs
no kernel: at g = J its witness is the exact coalescence-point series
``nu_closed_form_bkc_ep``, and only its fit of the enhancement ratio
imports ``scipy.optimize``.  The presets check their own arguments, so a
library call gets the ``ConfigError`` the command line reports.  Rows are
assembled strictly by grid index and written with a pinned float format of
17 significant digits, so identical configurations produce byte-identical
files regardless of thread count.  ``format_value`` is the one-value
reference for that text; ``write_rows`` gives the same bytes but formats a
whole row with one %-template, built once per distinct tuple of cell types,
so only bool and text cells are handled value by value.
Each data file gets a sidecar ``<name>.manifest.json`` echoing the
configuration (the config file's keys and the value of every option that
changes the data) and the tool version.
"""

from __future__ import annotations

import collections
import concurrent.futures
import csv
import functools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .chain import (
    BdgMatrix,
    bdg_stack,
    build_bdg_matrix,
    build_chain_spec,
    generator_stack,
    quadrature_generator,
    spec_bdg_stack,
    uniform_bdg_stack,
)
from .dynamics import GaussianState, _sample_times, evolve_grid, initial_state
from .entanglement import (
    Bipartition,
    _surface_hopping,
    enhancement_ratio,
    nu_closed_form_bkc_ep,
    nu_closed_form_three_mode_nonuniform,
    witness_stack,
)
from .errors import ConfigError, EpchainError, NoTransition, OverflowRisk
from .spectral import (
    _REGIONS,
    DEFAULT_RANK_TOL,
    DEFAULT_REGION_TOL,
    _label_rows,
    detect_eps,
    locate_ep_1d,
    scan_exceptional_surface,
    spectrum_stack,
)

__all__ = [
    "SweepAxis",
    "format_value",
    "write_rows",
    "write_manifest",
    "spectrum_sweep",
    "entanglement_trajectory",
    "fig2_grid",
    "fig3_tables",
    "fig4_grid",
    "es_scan_table",
]

AXIS_NAMES = ("g", "J", "eta", "phi", "g1", "g2", "J1", "J2", "t")
# the times of fig3's enhancement-ratio table
_RATIO_TIMES = tuple(np.linspace(0.25, 3.5, 14).tolist())


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: an inclusive linear range."""

    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(f"unknown sweep axis {self.name!r}; expected one of {AXIS_NAMES}")
        if self.steps < 1:
            raise ConfigError(f"axis {self.name!r} needs at least 1 step, got {self.steps}")
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise ConfigError(f"axis {self.name!r} range is not finite")

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)

    @classmethod
    def from_config(cls, name: str, cfg) -> "SweepAxis":
        if isinstance(cfg, dict):
            try:
                cfg = [cfg["start"], cfg["stop"], cfg["steps"]]
            except KeyError as exc:
                raise ConfigError(f"axis {name!r} config needs start/stop/steps") from exc
        if not (isinstance(cfg, (list, tuple)) and len(cfg) == 3):
            raise ConfigError(f"axis {name!r} config must be [start, stop, steps] or a mapping")
        try:
            start, stop, steps = float(cfg[0]), float(cfg[1]), int(cfg[2])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"axis {name!r} start/stop/steps must be numbers: {exc}") from exc
        if isinstance(cfg[2], bool) or (isinstance(cfg[2], float) and steps != cfg[2]):
            raise ConfigError(f"axis {name!r} steps must be a whole number, got {cfg[2]!r}")
        return cls(name, start, stop, steps)


def format_value(value) -> str:
    """Pinned text form: 17 significant digits for floats, plain str otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


_BOOL_TEXT = {True: "true", False: "false"}


def _csv_text(text: str) -> str:
    """One cell as ``csv.writer`` quotes it (excel dialect, ``\\n`` line ends)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell_format(cls: type, text) -> tuple[str, object, bool]:
    """A cell type's %-spec, its preprocessing (or None) and whether it is escaped text.

    Mirrors ``format_value``: floats and ints go into the template as they
    are, a bool becomes its lowercase name, and anything else becomes
    ``text(str(value))``, escaped for the output format.
    """
    if issubclass(cls, (bool, np.bool_)):
        return "%s", _BOOL_TEXT.__getitem__, False
    if issubclass(cls, (float, np.floating)):
        return "%.17g", None, False
    if issubclass(cls, (int, np.integer)):
        return "%d", None, False
    return "%s", (text if cls is str else lambda value: text(str(value))), True


def _row_template(types: tuple[type, ...], fmt: str, text) -> tuple[str, list]:
    """The %-template of a row with these cell types, and its (index, preprocessing) pairs."""
    cells = [_cell_format(cls, text) for cls in types]
    fixes = [(i, fix) for i, (_, fix, _) in enumerate(cells) if fix is not None]
    if fmt == "csv":
        if len(cells) == 1 and cells[0][2]:
            # csv quotes a row's only cell when it is empty
            fixes = [(0, lambda value, fix=fixes[0][1]: fix(value) or '""')]
        return ",".join(spec for spec, _, _ in cells) + "\n", fixes
    if not cells:
        return "  []", fixes
    items = ",\n".join(f"   {spec}" if escaped else f'   "{spec}"' for spec, _, escaped in cells)
    return f"  [\n{items}\n  ]", fixes


def _formatted_rows(rows: Iterable[Sequence], fmt: str, text) -> Iterable[str]:
    """Each row as text, through one %-template per distinct tuple of cell types."""
    templates: dict = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        try:
            template, fixes = templates[types]
        except KeyError:
            template, fixes = templates[types] = _row_template(types, fmt, text)
        if fixes:
            cells = list(row)
            for i, fix in fixes:
                cells[i] = fix(cells[i])
            row = tuple(cells)
        yield template % row


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence], fmt: str = "csv") -> Path:
    """Write a table as CSV or JSON with deterministic formatting.

    Every cell reads as ``format_value`` writes it, quoted as ``csv.writer``
    quotes it or laid out as ``json.dumps({"columns": header, "rows":
    rows}, indent=1, sort_keys=True)`` lays it out.  A row is formatted by
    one %-template, built once per distinct tuple of cell types, so only
    bool and text cells pass through Python code one by one, and each
    distinct text is escaped once.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.writelines(_formatted_rows(rows, fmt, functools.cache(_csv_text)))
    elif fmt == "json":
        body = ",\n".join(_formatted_rows(rows, fmt, functools.cache(json.dumps)))
        head = json.dumps({"columns": list(header), "rows": []}, indent=1, sort_keys=True)
        with path.open("w") as fh:
            # the head ends in '"rows": []\n}'; the rows go between the brackets
            fh.writelines([head[:-4], "[\n", body, "\n ]\n}\n"] if body else [head, "\n"])
    else:
        raise ConfigError(f"output format must be csv or json, got {fmt!r}")
    return path


def write_manifest(data_path: str | Path, command: str, config: dict, extras: dict | None = None) -> Path:
    """Write the sidecar manifest next to a data file."""
    from . import __version__

    data_path = Path(data_path)
    manifest = {
        "tool": "epchain",
        "version": __version__,
        "command": command,
        "config": config,
        "data_file": data_path.name,
    }
    if extras:
        manifest["extras"] = extras
    out = data_path.with_name(data_path.name + ".manifest.json")
    out.write_text(json.dumps(manifest, indent=1, sort_keys=True, default=str) + "\n")
    return out


# ---------------------------------------------------------------------------
# batched witness kernel

# matrix entries per stacked matrix in one chunk: the cells per chunk shrink
# with the chain size, so a chunk's working set stays near a few MB
_CHUNK_ENTRIES = 1 << 15


def _witness_map(
    state0: GaussianState,
    k: np.ndarray,
    times: np.ndarray,
    parts: Sequence[Bipartition],
    threads: int = 1,
    keep_cm: bool = False,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray | None, EpchainError | None]:
    """nu_- and E_N per cut for every (generator, time) cell, generator-major.

    Returns one (nu_minus, log_negativity) pair of arrays per cut over the
    leading cells that passed every check, their covariances when
    ``keep_cm``, and the error of the first failing cell (None if none);
    a witness that ``witness_stack`` refuses is raised instead.

    The calling thread evolves the chunks in order and stops at the first
    with an error.  With ``threads > 1`` and more than one chunk it hands
    each chunk's cuts to that many worker threads and goes on to the next
    chunk while they run (the witness's stacked eigensolve releases the
    GIL); results are collected in chunk and cut order, so the first
    refused witness is raised as the serial loop raises it, and unless
    ``keep_cm``, at most ``threads + 1`` chunks' covariances are alive at
    once.
    """
    size = 2 * state0.n_modes
    # _CHUNK_ENTRIES entries per matrix stack, but at least _CHUNK_ENTRIES / 64
    # = 512 witness values: numpy runs a stacked eigvalsh without the GIL only
    # when it returns more than 500, which the first bound misses for N > 30
    per_chunk = max(_CHUNK_ENTRIES // size**2, math.ceil(_CHUNK_ENTRIES / 64 / size))
    if len(times) >= per_chunk:
        blocks = [(k[g : g + 1], times[i : i + per_chunk])
                  for g in range(len(k)) for i in range(0, len(times), per_chunk)]
    else:
        step = per_chunk // len(times)
        blocks = [(k[g : g + step], times) for g in range(0, len(k), step)]
    half_log_det = 0.5 * np.linalg.slogdet(state0.cm)[1]
    witnesses, cms, error = [], [], None
    pool = concurrent.futures.ThreadPoolExecutor(threads) if threads > 1 and len(blocks) > 1 else None
    pending = collections.deque()

    def collect():
        witnesses.append([future.result() for future in pending.popleft()])

    try:
        for kb, tb in blocks:
            try:
                chunk, error = evolve_grid(state0, kb, tb)
            except Exception:
                # a witness refused in an earlier chunk wins, as in the serial loop
                while pending:
                    collect()
                raise
            if keep_cm:
                cms.append(chunk)
            if pool is None:
                # a cell witness_stack refuses comes before any evolve_grid stopped at, so it raises
                witnesses.append([witness_stack(chunk, part, half_log_det) for part in parts])
            else:
                pending.append(
                    [pool.submit(witness_stack, chunk, part, half_log_det) for part in parts])
                if len(pending) > threads:
                    collect()
            if error is not None:
                break
        while pending:
            collect()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    per_cut = [
        tuple(np.concatenate([chunk[p][i] for chunk in witnesses]) for i in (0, 1))
        for p in range(len(parts))
    ]
    return per_cut, (np.concatenate(cms) if keep_cm else None), error


# ---------------------------------------------------------------------------
# spectrum and trajectory commands

def _transitions(family, axis: SweepAxis, tol: float) -> list[float]:
    """The located spectral transitions of a family over the axis range, in either order; [] if none."""
    lo, hi = sorted((float(axis.start), float(axis.stop)))
    try:
        return list(locate_ep_1d(family, lo, hi, region_tol=tol))
    except NoTransition:
        return []


def spectrum_sweep(
    chain: dict,
    axis: SweepAxis | None = None,
    tol: float = DEFAULT_REGION_TOL,
    detect: bool = False,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> tuple[list[str], list[list], dict]:
    """Eigenvalues and region labels, optionally over one swept parameter.

    Returns (header, rows, extras); extras carries the located transition
    points of the swept family and any detected exceptional points.
    """
    specs = [build_chain_spec(chain)]
    header = ["index", "region", "boundary"]
    lead = [[0]]
    if axis is not None:
        if axis.name not in ("g", "J", "eta", "phi"):
            raise ConfigError(f"spectrum sweeps support uniform axes g/J/eta/phi, not {axis.name!r}")
        header = ["index", axis.name, "region", "boundary"]
        family = lambda v: build_chain_spec({**chain, axis.name: v})
        lead = [[idx, value] for idx, value in enumerate(axis.values().tolist())]
        specs = [family(value) for _, value in lead]
    size = 2 * specs[0].n_modes
    header += [f"re_{i+1}" for i in range(size)] + [f"im_{i+1}" for i in range(size)]

    m = spec_bdg_stack(specs)
    values, regions, boundary = spectrum_stack(m, tol)
    rows = [
        key + [region.value, flag] + re + im
        for key, region, flag, re, im in zip(
            lead, regions, boundary.tolist(), values.real.tolist(), values.imag.tolist())
    ]
    extras: dict = {}
    if detect:
        extras["exceptional_points"] = [
            {
                "index": idx,
                "center": [cluster.center.real, cluster.center.imag],
                "multiplicity": cluster.algebraic_multiplicity,
                "blocks": list(cluster.jordan_blocks),
            }
            for idx, cell in enumerate(m)
            for cluster in detect_eps(BdgMatrix(cell), rank_tol=rank_tol)
        ]
    if axis is not None and axis.steps > 1:
        extras["transitions"] = _transitions(family, axis, tol)
    return header, rows, extras


def entanglement_trajectory(
    chain: dict,
    times: Sequence[float],
    partitions: Sequence[str],
    include_cm: bool = False,
    threads: int = 1,
) -> tuple[list[str], list[Sequence], dict]:
    """nu_- and logarithmic negativity per time per partition.

    If the propagator or the covariance overflows at some time, the rows end
    before it; the extras hold that time as ``truncated_at`` and the guard's
    message as ``truncation``.
    """
    _check_threads(threads)
    spec = build_chain_spec(chain)
    if spec.n_modes < 2:
        raise ConfigError("entanglement requires at least two modes")
    ts = _sample_times(times)
    if not partitions:
        partitions = [Bipartition.one_vs_rest(spec.n_modes).label]
    parts = [Bipartition.from_label(p, spec.n_modes) for p in partitions]
    k = quadrature_generator(build_bdg_matrix(spec))
    header = ["t"]
    for part in parts:
        header += [f"nu_minus_{part.label}", f"log_negativity_{part.label}"]
    n2 = 2 * spec.n_modes
    upper = np.triu_indices(n2)
    if include_cm:
        header += [f"cm_{i+1}_{j+1}" for i, j in zip(*upper)]
    witnesses, cms, error = _witness_map(
        initial_state(spec.n_modes), k.data[None], ts, parts, threads, include_cm
    )
    columns = [ts[: len(witnesses[0][0])].tolist()]
    for nu, logneg in witnesses:
        columns += [nu.tolist(), logneg.tolist()]
    if include_cm:
        columns += cms[:, upper[0], upper[1]].T.tolist()
    rows: list[Sequence] = list(zip(*columns))
    extras: dict = {}
    if isinstance(error, OverflowRisk):
        extras["truncated_at"] = float(ts[len(rows)])
        extras["truncation"] = str(error)
    elif error is not None:
        raise error
    return header, rows, extras


# ---------------------------------------------------------------------------
# figure-style grids

def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")


def fig2_grid(
    eta: float = 0.2,
    g_axis: SweepAxis | None = None,
    t_axis: SweepAxis | None = None,
    threads: int = 1,
) -> tuple[list[str], list[Sequence], dict]:
    """Two-mode witness map over hopping strength and time.

    Default grid: 301 hopping values on [0.5, 1.5] by 501 times on [0, 5],
    fine enough to resolve the splitting boundaries visibly.

    The spectrum is exact: at J = 1 the symmetric and antisymmetric modes
    decouple, so the eigenvalues are +-sqrt(g^2 - (1 + eta)^2) and
    +-sqrt(g^2 - (1 - eta)^2), labelled by ``spectrum_stack``'s rule at the
    default region tolerance.  The transitions are the exceptional points
    g = +-|1 +- eta| other than 0 that lie strictly inside the g range, in
    increasing order.  Only the witness runs the numeric kernel.
    """
    _check_threads(threads)
    g_axis = g_axis or SweepAxis("g", 0.5, 1.5, 301)
    t_axis = t_axis or SweepAxis("t", 0.0, 5.0, 501)
    g = g_axis.values()
    times = t_axis.values()
    m = uniform_bdg_stack(2, g=g, j=1.0, eta=eta)
    # the exceptional points on the g > 0 side; a root and its negative lie
    # on the same axes, so the roots alone decide the label
    ep_g = np.abs([1.0 + eta, 1.0 - eta])
    roots = np.sqrt(((g[:, None] - ep_g) * (g[:, None] + ep_g)).astype(complex))
    codes, _, _ = _label_rows(roots, DEFAULT_REGION_TOL)
    regions = [_REGIONS[c].value for c in codes.tolist()]
    k = generator_stack(m)
    [(nu, logneg)], _, error = _witness_map(
        initial_state(2), k, times, [Bipartition.one_vs_rest(2)], threads
    )
    if error is not None:
        raise error
    header = ["g", "t", "region", "nu_minus", "log_negativity"]
    n_times = len(times)
    rows = list(zip(
        np.repeat(g, n_times).tolist(), np.tile(times, len(g)).tolist(),
        np.repeat(regions, n_times).tolist(), nu.tolist(), logneg.tolist(),
    ))
    lo, hi = sorted((g_axis.start, g_axis.stop))
    transitions = sorted({x for e in ep_g.tolist() for x in (-e, e) if x != 0 and lo < x < hi})
    extras = {"eta": eta, "g_steps": g_axis.steps, "t_steps": t_axis.steps,
              "transitions": transitions}
    return header, rows, extras


def fig3_tables(
    n_values: Sequence[int] = (2, 3, 4, 5, 6),
    phi_steps: int = 65,
    t: float = 3.5,
    fit_max_n: int = 30,
) -> tuple[tuple[list[str], list[list]], tuple[list[str], list[list]], dict]:
    """Uniform-chain witness versus hopping phase, plus enhancement ratios.

    Returns (witness table, ratio table, extras).  The witness table runs
    phi over [0, pi] (symmetry about pi/2 is reported in the extras); the
    ratio table gives R(N, t) at 14 times evenly spaced on [0.25, 3.5];
    the extras carry the exponential fit a*exp(b*N)+c of R(N) at the
    fixed time over N = 2..fit_max_n.  At g = J the witness is the exact
    coalescence-point series, so every value comes from
    ``nu_closed_form_bkc_ep`` and every ratio from ``enhancement_ratio`` on
    it; no covariance is transported, and only an xi past the float range
    (``OutOfRange``) or a reference witness of 1 (``DivisionByZeroLog``, as
    at t = 0) fails.
    """
    from scipy.optimize import OptimizeWarning, curve_fit

    if fit_max_n < 4:
        # the fit a*exp(b*N)+c needs at least three sizes, N = 2..4
        raise ConfigError(f"fit_max_n must be at least 4, got {fit_max_n}")
    if phi_steps < 0:
        raise ConfigError(f"phi_steps must be nonnegative, got {phi_steps}")
    if any(n < 2 for n in n_values):
        raise ConfigError(f"chain sizes must be at least 2, got {list(n_values)}")
    t = float(t)
    if not math.isfinite(t):
        raise ConfigError(f"time must be finite, got {t}")
    phis = np.linspace(0.0, math.pi, phi_steps).tolist()
    witness_rows = []
    asymmetry = 0.0
    for n in n_values:
        nu = [nu_closed_form_bkc_ep(int(n), phi, t) for phi in phis]
        asymmetry = max([asymmetry] + [abs(a - b) for a, b in zip(nu, nu[::-1])])
        witness_rows += [[int(n), phi, value, -math.log(value)] for phi, value in zip(phis, nu)]
    witness = (["N", "phi", "nu_minus", "neg_log_nu"], witness_rows)

    ratio_rows = [
        [int(n), float(rt), enhancement_ratio(int(n), float(rt), nu_fn=nu_closed_form_bkc_ep)]
        for n in n_values for rt in _RATIO_TIMES
    ]
    ratio = (["N", "t", "ratio"], ratio_rows)

    fit_ns = np.arange(2, fit_max_n + 1)
    fit_rs = np.array([enhancement_ratio(int(n), t, nu_fn=nu_closed_form_bkc_ep) for n in fit_ns])
    with warnings.catch_warnings():
        # tiny fit ranges can make the parameter covariance singular; only
        # the point estimate is used
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(
            lambda n, a, b, c: a * np.exp(b * n) + c,
            fit_ns,
            fit_rs,
            p0=(-4.0, -0.5, 2.5),
            maxfev=20000,
        )
    extras = {
        "t": t,
        "phi_symmetry_residual": asymmetry,
        "ratio_fit": {"a": float(popt[0]), "b": float(popt[1]), "c": float(popt[2])},
        "ratio_fit_n_range": [2, int(fit_max_n)],
    }
    return witness, ratio, extras


def fig4_grid(
    j: float = 1.0,
    t: float = 5.0,
    g_axis: SweepAxis | None = None,
    arc_steps: int = 65,
    threads: int = 1,
) -> tuple[tuple[list[str], list[list]], tuple[list[str], list[list]], dict]:
    """Three-mode witness map over (g1, g2) at equal pairing, plus the arc cut.

    The main table maps the middle-vs-outer witness at the fixed time over
    the square grid g1, g2 in ``g_axis`` (default: 81 values on [0, 2]),
    g1-major; the second table cuts along the coalescence circle
    g1^2 + g2^2 = 2 J^2, parameterized by the angle from the arc point, with
    the closed-form witness alongside for comparison.  Regions use the
    default tolerance.
    """
    _check_threads(threads)
    if arc_steps < 0:
        raise ConfigError(f"arc_steps must be nonnegative, got {arc_steps}")
    g = (g_axis or SweepAxis("g", 0.0, 2.0, 81)).values().tolist()
    points = [(g1, g2) for g1 in g for g2 in g]
    m = bdg_stack(points, float(j), 0.0)
    _, regions, _ = spectrum_stack(m, DEFAULT_REGION_TOL)
    varphis = np.linspace(-math.pi / 4, math.pi / 4, arc_steps).tolist()
    arc_hopping = [_surface_hopping(varphi, j) for varphi in varphis]
    arc_m = bdg_stack(np.array(arc_hopping, dtype=complex).reshape(-1, 2), float(j), 0.0)
    # the grid and the arc share the chain size, time and cut: one stack
    k = generator_stack(np.concatenate([m, arc_m]))
    [(nu, _)], _, error = _witness_map(
        initial_state(3), k, np.array([float(t)]), [Bipartition.from_label("13|2", 3)], threads
    )
    if error is not None:
        raise error
    nu = nu.tolist()
    grid_rows = [[g1, g2, region.value, value]
                 for (g1, g2), region, value in zip(points, regions, nu)]
    grid = (["g1", "g2", "region", "nu_minus_13|2"], grid_rows)
    arc_rows = [
        [varphi, g1, g2, value, nu_closed_form_three_mode_nonuniform(varphi, j, t)]
        for varphi, (g1, g2), value in zip(varphis, arc_hopping, nu[len(points):])
    ]
    arc = (["varphi", "g1", "g2", "nu_minus_13|2", "nu_closed_form"], arc_rows)
    extras = {"j": float(j), "t": float(t)}
    return grid, arc, extras


def es_scan_table(
    g1_axis: SweepAxis,
    g2_axis: SweepAxis,
    j1_axis: SweepAxis,
    j2_axis: SweepAxis,
    tol: float = 1e-9,
    detect_everywhere: bool = False,
) -> tuple[list[str], list[list], dict]:
    """Exceptional-surface scan in the three-mode parameter space."""
    points = scan_exceptional_surface(
        g1_axis.values(),
        g2_axis.values(),
        j1_axis.values(),
        j2_axis.values(),
        tol=tol,
        detect_everywhere=detect_everywhere,
    )
    header = ["g1", "g2", "J1", "J2", "residual", "on_surface", "ep_order", "block_sizes"]
    rows = [
        [
            p.g1, p.g2, p.j1, p.j2, p.residual, p.on_surface, p.ep_order,
            "+".join(str(b) for b in p.block_sizes),
        ]
        for p in points
    ]
    n_on = sum(1 for p in points if p.on_surface)
    return header, rows, {"points": len(points), "on_surface": n_on}
