"""Experiment sweeps and machine-readable output writers.

Every bundled experiment reduces to evaluating the chain pipeline over a
parameter grid and emitting tables.  fig2, fig4 and spectrum sweeps build the
matrices of all their chains as one stack (``bdg_stack`` or
``spec_bdg_stack``); fig4 and spectrum sweeps
label it with one ``spectrum_stack`` call, and spectrum sweeps locate their
transitions with ``locate_ep_1d``.  fig2 needs neither: its two-mode
spectrum and exceptional points g = +-|1 +- eta| are closed forms, labelled
by the same rule.  fig2 and fig4 turn the stack into generators with
``generator_stack``, and the numeric witness presets (fig2, fig4 and its
arc, entangle) run one batched kernel: ``evolve_grid`` transports the
initial covariance for all (generator, time) cells at once and
``witness_stack``'s core (without its input checks, which the kernel's own
stacks pass by construction) evaluates nu_- and E_N per cut.  Every preset
starts from the vacuum.  ``evolve`` and ``entanglement_result`` are their
one-cell case, so every value equals what they give for that cell, and the
kernel returns, not raises, the first refusal a loop over the cells would
raise: the refusing layer gives the reason and the kernel appends the cell
(its generator's swept parameters, its time, a refused witness's cut);
fig2 and fig4 raise it, and entangle ends its table before that cell.
The kernel works through a grid in chunks of a fixed number of matrix
entries, so memory stays flat on large grids (but of at least 512 witness
values, so that numpy's stacked eigensolve releases the GIL), and stops at
the first chunk with an error.  Only what a table writes outlives a chunk:
the witnesses, and for ``entangle --include-cm`` the covariance entries it
prints, copied into one array for the whole grid as each chunk is evolved.
The calling thread evolves the chunks in order; with ``threads > 1``
(the three witness presets take it) and more than one chunk, each chunk's
cuts go to a ``concurrent.futures.ThreadPoolExecutor`` of that many worker
threads while the next chunks evolve, and their results are collected in
order, so values and errors are the same at any thread count.  Only such a
run imports ``concurrent.futures`` (and with it ``logging``).  fig3 needs
no kernel: at g = J its witness is the exact coalescence-point series
``nu_closed_form_bkc_ep``, and its fit of the enhancement ratio is a
variable projection in numpy (``_exponential_fit``), so no preset imports
``scipy.optimize``.  The presets check their own arguments, so a library
call gets the ``ConfigError`` the command line reports.

Every builder returns its tables as columns in grid-index order, one per
header name: numeric columns are numpy arrays (float64 for floats), text
columns lists of ``str``; a 2-D float64 array spans one header name per
column of it (``entanglement_trajectory``'s covariance entries).
``write_rows`` formats each column once, by its dtype, with a pinned float
format of 17 significant digits, so identical configurations produce
byte-identical files regardless of thread count.  ``format_value`` is the
one-value reference for that text, and ``write_rows`` gives the same bytes:
each run of adjacent float cells becomes one template argument per row,
whose text ``floattext.run_texts`` makes in numpy with the format's
separator between its cells, leaving to Python's own '%.17g' only the cells
it cannot certify (rounding ties outside -6 <= e <= 16, non-finite values,
magnitudes outside [1e-280, 1e280]); each row is one %-template, built once
per table.  The float cells are stacked and the text is written one block
of rows at a time, in CSV and JSON alike, so a wide table is held once, as
its builder returned it.
Each data file gets a sidecar ``<name>.manifest.json`` echoing the
configuration (the config file's keys and the value of every option that
changes the data) and the tool version.
"""

from __future__ import annotations

import collections
import csv
import functools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .chain import (
    BdgMatrix,
    bdg_stack,
    build_bdg_matrix,
    build_chain_spec,
    generator_stack,
    quadrature_generator,
    spec_bdg_stack,
)
from .dynamics import _UNIT_ROUNDOFF, _sample_times, evolve_grid, initial_state
from .entanglement import (
    Bipartition,
    _cut_witnesses,
    _surface_hopping,
    enhancement_ratio,
    nu_closed_form_bkc_ep,
    nu_closed_form_three_mode_nonuniform,
)
from .errors import ConfigError, EpchainError, NoTransition, _at_cell
from .floattext import BLOCK_CELLS, run_texts
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
# Newton and trust steps of fig3's fit at most; a fit of smooth data takes about 10
_FIT_STEPS = 200


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
            unknown = sorted(set(cfg) - {"start", "stop", "steps"}, key=str)
            if unknown:
                raise ConfigError(f"axis {name!r} config has unknown keys {unknown}; "
                                  "expected start/stop/steps")
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


def _table_template(
    header: Sequence[str], columns: Sequence[Sequence], fmt: str, text
) -> tuple[str, list, list[np.ndarray], np.ndarray, str, int]:
    """The table's row %-template, its columns as template arguments, its
    float columns as (rows, width) arrays, which of their cells end a run of
    adjacent float cells, the text between two cells of a run, and the row
    count.

    A run of float arrays is one argument, None (its text is made from the
    float arrays); an int array's arguments are its Python ints, a bool
    array's its lowercase names, and any other column's the ``format_value``
    text of each cell, escaped.  A 2-D float array spans as many header
    names as it has columns, so one of width 0 adds nothing, and a table
    that spans no name has no rows.
    """
    widths = []
    for column in columns:
        if isinstance(column, np.ndarray) and column.ndim != 1:
            if column.ndim != 2 or column.dtype.kind != "f":
                raise ConfigError(f"a table column must be 1-D or a 2-D float block, "
                                  f"got a {column.dtype} array of shape {column.shape}")
            widths.append(column.shape[1])
        else:
            widths.append(1)
    if sum(widths) != len(header):
        raise ConfigError(f"table has {len(header)} header names but {sum(widths)} columns")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ConfigError(f"table columns differ in length: {[len(column) for column in columns]}")
    specs, cells, floats, run_ends = [], [], [], []
    for column, width in zip(columns, widths):
        kind = column.dtype.kind if isinstance(column, np.ndarray) else None
        if kind == "f":
            if not width:
                continue
            if cells and cells[-1] is None:
                run_ends[-1] = False  # the run goes on
            else:
                specs.append(("%s", False))
                cells.append(None)
            floats.append(column.reshape(len(column), width))
            run_ends += [False] * (width - 1) + [True]
        elif kind in ("i", "u"):
            specs.append(("%d", False))
            cells.append(column.tolist())
        elif kind == "b":
            specs.append(("%s", False))
            cells.append(list(map(_BOOL_TEXT.__getitem__, column.tolist())))
        else:
            # not np.asarray: numpy coerces a mixed list, 1e-05 beside text to '1e-05'
            specs.append(("%s", True))
            if set(map(type, column)) <= {str}:
                # format_value is the identity on str, and text escapes each distinct
                # str once; no other cell skips format_value through a table keyed on
                # values, where -0.0 == 0.0 and True == 1 would share an entry
                cells.append(list(map(text, column)))
            else:
                cells.append(list(map(text, map(format_value, column))))
    n_rows = lengths.pop() if specs else 0
    run_ends = np.array(run_ends, dtype=bool)
    if fmt == "csv":
        if specs == [("%s", True)]:
            # csv quotes a row's only cell when it is empty
            cells[0] = [cell or '""' for cell in cells[0]]
        return ",".join(spec for spec, _ in specs) + "\n", cells, floats, run_ends, ",", n_rows
    items = ",\n".join(f"   {spec}" if escaped else f'   "{spec}"' for spec, escaped in specs)
    # within a run, a cell closes its quote and the next opens its own item
    return f"  [\n{items}\n  ]", cells, floats, run_ends, '",\n   "', n_rows


def _formatted_blocks(
    template: str, cells: list, floats: list[np.ndarray], run_ends: np.ndarray, sep: str,
    n_rows: int, row_sep: str,
) -> Iterable[str]:
    """The table's rows as text, one str per block of whole rows, the rows of
    a block joined by row_sep.

    A block holds about ``BLOCK_CELLS`` float cells (at least one row).  Its
    float cells are stacked into one (rows, k) float64 array, reused from
    block to block, whose text ``run_texts`` makes, one str per run of a
    row; they are zipped with the other columns' arguments.
    """
    runs = [i for i, cell in enumerate(cells) if cell is None]
    step = max(1, BLOCK_CELLS // max(1, len(run_ends)))
    stacked = np.empty((min(step, n_rows), len(run_ends)))
    for first in range(0, n_rows, step):
        block = [None if cell is None else cell[first : first + step] for cell in cells]
        if runs:  # a table without floats needs no formatter tables
            rows = stacked[: min(step, n_rows - first)]
            np.concatenate([column[first : first + step] for column in floats], axis=1, out=rows)
            texts = run_texts(rows, run_ends, sep)
            for j, i in enumerate(runs):
                block[i] = texts[j :: len(runs)]
        yield row_sep.join(map(template.__mod__, zip(*block)))


def write_rows(path: str | Path, header: Sequence[str], columns: Sequence[Sequence], fmt: str = "csv") -> Path:
    """Write a table, given as columns that span the header names, as CSV or JSON.

    A column spans one header name, except a 2-D float array, which spans
    as many as it has columns (so one wide block of floats need not be split
    into 1-D arrays).  Every cell reads as ``format_value`` writes it,
    quoted as ``csv.writer`` quotes it or laid out as ``json.dumps({"columns":
    header, "rows": rows}, indent=1, sort_keys=True)`` lays out the rows
    ``zip(*columns)`` of the 1-D columns the blocks split into.
    Each column is formatted once, by its type: numpy float arrays are cast
    to float64, and each run of adjacent float cells is one argument of the
    row template, whose '%.17g' text, cells and separators, is made in
    numpy (``floattext.run_texts``, in blocks of whole rows of about
    ``BLOCK_CELLS`` = 4096 cells, so the layout's temporaries stay near
    1 MB unless one row is wider); an int array is written with %d and a
    bool array as ``true``/``false``; a column of ``str`` cells is escaped
    once per distinct text, and any other column, a list or a text array,
    goes cell by cell through ``format_value`` first.  The rows are then
    formatted by one %-template for the table.  Each row block's float cells
    are stacked, formatted and written before the next block's, in JSON as
    in CSV, so neither a copy of the table's floats nor the file's whole
    text is ever held.  Columns that span a count of names other than the
    header's, columns of unequal length, or a 2-D array that is not float
    raise ``ConfigError``.
    """
    if fmt == "csv":
        text = functools.cache(_csv_text)
    elif fmt == "json":
        text = functools.cache(json.dumps)
    else:
        raise ConfigError(f"output format must be csv or json, got {fmt!r}")
    table = _table_template(header, list(columns), fmt, text)
    blocks = _formatted_blocks(*table, row_sep="" if fmt == "csv" else ",\n")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.writelines(blocks)
    else:
        # json.dumps's indent=1, sort_keys=True layout; each name goes through the C
        # escaper json.dumps applies to a str, not one json.dumps call per name (2x slower
        # than the whole indented dumps on a 1 833-name head)
        names = ",\n  ".join(map(encode_basestring_ascii, header))
        head = f'{{\n "columns": [\n  {names}\n ],\n "rows": ' if header else '{\n "columns": [],\n "rows": '
        with path.open("w") as fh:
            fh.write(head)
            first = next(blocks, None)
            if first is None:
                fh.write("[]\n}\n")
            else:
                fh.writelines(["[\n", first])
                for block in blocks:
                    fh.writelines([",\n", block])
                fh.write("\n ]\n}\n")
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


def _ahead(items: Iterable, n: int) -> Iterator:
    """The items in order, each handed out once the n after it are taken or the
    items end; an exception from items is raised after the items taken before it."""
    taken = collections.deque()
    try:
        for item in items:
            taken.append(item)
            if len(taken) > n:
                yield taken.popleft()
    except Exception:
        yield from taken
        raise
    yield from taken


def _witness_map(
    k: np.ndarray,
    times: np.ndarray,
    parts: Sequence[Bipartition],
    threads: int = 1,
    keep: tuple[np.ndarray, np.ndarray] | None = None,
    axes: Mapping[str, np.ndarray] | None = None,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray | None, EpchainError | None]:
    """nu_- and E_N per cut for every (generator, time) cell of the vacuum,
    generator-major.

    Returns one (nu_minus, log_negativity) pair of arrays per cut over the
    leading cells that passed every check, the covariance entries at the
    index pair ``keep`` of those cells as one (cells, entries) float64 array
    (None without ``keep``), and the refusal of the first refused cell (None
    if none): its first refused cut's ``PrecisionLoss``, else
    ``evolve_grid``'s error.  The refusing layer gives the reason and this
    loop names the cell: its value of each of ``axes`` (a parameter's name
    and its values per generator), its time and a refused cut, as
    "(g=5.0, t=100.0, cut 1|2)".  The kept entries are copied out of each
    chunk as it is evolved, so no chunk outlives its witnesses.  The chunks
    come from ``evolve_grid``, exactly symmetric and finite, so they skip
    ``witness_stack``'s input checks.

    The calling thread evolves the chunks in order and stops at the first
    with a refused cell.  With ``threads > 1`` and more than one chunk, each
    chunk's cuts go to that many worker threads (the stacked eigensolve
    releases the GIL) while up to ``threads`` more chunks evolve; results
    are collected in chunk and cut order, so the first refused cell is the
    serial loop's.  An exception from ``evolve_grid`` is raised only if no
    chunk before it refused a cell.  Only a pooled run imports
    ``concurrent.futures``.
    """
    size = k.shape[1]
    vacuum = initial_state(size // 2)
    # _CHUNK_ENTRIES entries per matrix stack, but at least _CHUNK_ENTRIES / 64
    # = 512 witness values: numpy runs a stacked eigvalsh without the GIL only
    # when it returns more than 500, which the first bound misses for N > 30
    per_chunk = max(_CHUNK_ENTRIES // size**2, math.ceil(_CHUNK_ENTRIES / 64 / size))
    # (first cell, generators, times): a span of one generator's times, or whole generators
    span, step = min(per_chunk, len(times)), max(1, per_chunk // len(times))
    chunks = [(g * len(times) + i, k[g : g + step], times[i : i + span])
              for g in range(0, len(k), step) for i in range(0, len(times), span)]
    if keep is not None:
        # the kept entries as flat indices into a cell's covariance
        flat = np.ravel_multi_index(keep, (size, size))
        kept = np.empty((len(k) * len(times), len(flat)))
    pool = None
    if threads > 1 and len(chunks) > 1:
        import concurrent.futures

        pool = concurrent.futures.ThreadPoolExecutor(threads)

    def stream():
        # per chunk until evolve_grid's error: its first cell, cells, witnesses per cut, error
        for first, kb, tb in chunks:
            chunk, error = evolve_grid(vacuum, kb, tb)
            if keep is not None:
                # mode="clip" lets take write straight into the rows (its default buffers out)
                chunk.reshape(len(chunk), size * size).take(
                    flat, axis=1, out=kept[first : first + len(chunk)], mode="clip")
            # the vacuum's 1/2 ln det sigma_0 is 0; a pool starts the cuts now, map when read
            witness = functools.partial(_cut_witnesses, chunk, half_log_det=0.0)
            yield first, len(chunk), (map if pool is None else pool.map)(witness, parts), error
            if error is not None:
                return

    witnesses, refusal, rows = [], None, len(k) * len(times)
    try:
        for first, n, outcomes, error in _ahead(stream(), 0 if pool is None else threads):
            outcomes = list(outcomes)
            # the first refused cell, whichever layer refused it, and of its refused cuts the first
            stop, part, refusal = min(
                [(len(nu), part, refused) for part, (nu, _, refused) in zip(parts, outcomes)
                 if refused is not None], key=lambda refused: refused[0], default=(n, None, error))
            witnesses.append([(nu[:stop], logneg[:stop]) for nu, logneg, _ in outcomes])
            if refusal is not None:
                rows = first + stop
                g, i = divmod(rows, len(times))
                cell = [f"{name}={float(values[g])}" for name, values in (axes or {}).items()]
                cell.append(f"t={float(times[i])}")
                refusal = _at_cell(refusal, cell + ([] if part is None else [f"cut {part.label}"]))
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    # each cut's (nu, log_negativity) over the chunks, joined
    per_cut = [tuple(map(np.concatenate, zip(*cut))) for cut in zip(*witnesses)]
    return per_cut, (None if keep is None else kept[:rows]), refusal


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
) -> tuple[list[str], list[Sequence], dict]:
    """Eigenvalues and region labels, optionally over one swept parameter.

    Returns (header, columns, extras); extras carries the located transition
    points of the swept family and any detected exceptional points.
    """
    specs = [build_chain_spec(chain)]
    header = ["index"]
    lead = []
    if axis is not None:
        if axis.name not in ("g", "J", "eta", "phi"):
            raise ConfigError(f"spectrum sweeps support uniform axes g/J/eta/phi, not {axis.name!r}")
        header.append(axis.name)
        family = lambda v: build_chain_spec({**chain, axis.name: v})
        lead = [axis.values()]
        specs = [family(value) for value in lead[0].tolist()]
    size = 2 * specs[0].n_modes
    header += ["region", "boundary"]
    header += [f"re_{i+1}" for i in range(size)] + [f"im_{i+1}" for i in range(size)]

    m = spec_bdg_stack(specs)
    values, regions, boundary = spectrum_stack(m, tol)
    columns = [np.arange(len(specs)), *lead, [region.value for region in regions], boundary,
               *values.real.T, *values.imag.T]
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
    return header, columns, extras


def entanglement_trajectory(
    chain: dict,
    times: Sequence[float],
    partitions: Sequence[str],
    include_cm: bool = False,
    threads: int = 1,
) -> tuple[list[str], list[np.ndarray], dict]:
    """nu_- and logarithmic negativity per time per partition.

    Returns (header, columns, extras): one float64 array per column, except
    that with ``include_cm`` the last column is one (rows, entries) float64
    block, the row-major upper triangle of each row's covariance, which
    spans the ``cm_i_j`` names.  The columns end before the first time
    whose cell ``_witness_map`` refuses, whatever refused it; the extras then
    hold that time as ``truncated_at``, the refusal's message as
    ``truncation`` and its class name as ``truncated_by``.
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
    upper = None
    if include_cm:
        upper = np.triu_indices(2 * spec.n_modes)
        # Python ints format several times faster than numpy's
        header += [f"cm_{i+1}_{j+1}" for i, j in zip(upper[0].tolist(), upper[1].tolist())]
    witnesses, cms, error = _witness_map(k.data[None], ts, parts, threads, upper)
    n_rows = len(witnesses[0][0])
    columns = [ts[:n_rows]]
    for nu, logneg in witnesses:
        columns += [nu, logneg]
    if include_cm:
        columns.append(cms)
    extras = {} if error is None else {
        "truncated_at": float(ts[n_rows]), "truncation": str(error), "truncated_by": type(error).__name__}
    return header, columns, extras


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
    """Two-mode witness map over hopping strength and time, g-major.

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
    m = bdg_stack(g[:, None], 1.0, eta)
    # the exceptional points on the g > 0 side; a root and its negative lie
    # on the same axes, so the roots alone decide the label
    ep_g = np.abs([1.0 + eta, 1.0 - eta])
    roots = np.sqrt(((g[:, None] - ep_g) * (g[:, None] + ep_g)).astype(complex))
    codes, _, _ = _label_rows(roots, DEFAULT_REGION_TOL)
    regions = [_REGIONS[c].value for c in codes.tolist()]
    k = generator_stack(m)
    [(nu, logneg)], _, error = _witness_map(k, times, [Bipartition.one_vs_rest(2)], threads, axes={"g": g})
    if error is not None:
        raise error
    header = ["g", "t", "region", "nu_minus", "log_negativity"]
    columns = [np.repeat(g, len(times)), np.tile(times, len(g)),
               [region for region in regions for _ in times], nu, logneg]
    lo, hi = sorted((g_axis.start, g_axis.stop))
    transitions = sorted({x for e in ep_g.tolist() for x in (-e, e) if x != 0 and lo < x < hi})
    extras = {"eta": eta, "g_steps": g_axis.steps, "t_steps": t_axis.steps,
              "transitions": transitions}
    return header, columns, extras


def _exponential_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, bool]:
    """The least-squares a, b, c of y ~ a exp(b x) + c over x = x0, x0 + 1, ...,
    and whether the fit is degenerate.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): for a fixed b the model is linear in (a, c), whose best values
    have a closed form and leave the residual |y_c|^2 - F(b), with
    F = (e_c . y_c)^2 / |e_c|^2 for the centred column e_c of exp(b x) and
    the centred data y_c.  So b maximizes F.  Three points are interpolated
    exactly where exp(b) = (y3 - y2) / (y2 - y1) is positive and not 1.
    Otherwise Newton steps on F'(b) = 0 run from b = -0.5: a step that
    lowers F by more than its rounding is retried at half its length, and
    where F is not concave the step goes uphill by a trust length that
    doubles on success and must raise F.  The search stops once a step is
    below 1e-12 (1 + |b|), or F is flat, or an accepted step crosses b = 0
    no shorter than the last one that did: F then peaks at b = 0, where the
    model is a straight line, and the search would cross back and forth
    (between b = -1/8 and 1/8 on exact linear data).  The column is
    expm1(b (x - x_ref)), with x_ref the end of x that keeps b (x - x_ref)
    <= 0: it neither overflows nor cancels for small |b|, and it differs
    from exp(b x) by a factor and a constant, which the projection absorbs.

    Data with no finite optimum leaves b where the search stopped, so the
    fit is flagged degenerate where exp(b) < 2^-52 (the exponential is a
    step at x0), where |b| (x_max - x0) < 1e-8 or the search stopped
    crossing b = 0 (it is a straight line), or where the search took all
    ``_FIT_STEPS`` steps.  Constant data is flagged too: it gives a = 0,
    which leaves b undetermined.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    centred_y = y - y.mean()
    powers = {end: np.stack([x - end, (x - end) ** 2]) for end in (x[0], x[-1])}
    columns = np.empty((3, len(x)))

    def profile(b: float) -> tuple[float, float, float]:
        """F(b), F'(b) and F''(b), from the columns e, de/db and d2e/db2."""
        d = powers[x[0] if b < 0.0 else x[-1]]
        columns[0] = np.expm1(b * d[0])
        np.multiply(d, columns[0] + 1.0, out=columns[1:])
        centred = columns - columns.mean(axis=1, keepdims=True)
        (q, q1, q2), (_, g11, _) = (centred[:2] @ centred.T).tolist()
        p, p1, p2 = (centred @ centred_y).tolist()
        if not q > 0.0:
            return -math.inf, 0.0, 0.0
        # F = p^2 / q with p' = p1, q' = 2 q1, q'' = 2 (g11 + q2)
        f = p * p / q
        f1 = 2.0 * (p * p1 - f * q1) / q
        f2 = 2.0 * (p1 * p1 + p * p2 - f * (g11 + q2) - 2.0 * q1 * f1) / q
        return f, f1, f2

    first, second = np.diff(y).tolist() if len(y) == 3 else (0.0, 0.0)
    stalled = False
    if 0.0 < first * second < math.inf and first != second:
        b = math.log(second / first)
    else:
        b = -0.5
        f, f1, f2 = profile(b)
        trust = 1.0
        # the length of the last accepted step across b = 0
        crossed = math.inf
        for _ in range(_FIT_STEPS):
            newton = f2 < 0.0
            if newton:
                step = max(-trust, min(trust, -f1 / f2))
            elif f1 != 0.0:
                step = math.copysign(trust, f1)
            else:
                break
            if abs(step) <= 1e-12 * (1.0 + abs(b)):
                b += step
                break
            trial = profile(b + step)
            # F = p^2 / q is good to a few n u, which a Newton step may lose; a step uphill must gain
            floor = f * (1.0 - 16.0 * len(x) * _UNIT_ROUNDOFF) if newton else math.nextafter(f, math.inf)
            if trial[0] >= floor:
                if (b < 0.0) != (b + step < 0.0):
                    if abs(step) >= crossed:
                        stalled = True
                        break
                    crossed = abs(step)
                b += step
                f, f1, f2 = trial
                trust = max(trust, 2.0 * abs(step))
            else:
                trust = 0.5 * abs(step)
        else:
            stalled = True
    # exp(b) < 2^-52, without overflowing exp for a large b
    degenerate = (stalled or not centred_y.any() or b < math.log(2.0**-52)
                  or abs(b) * float(x[-1] - x[0]) < 1e-8)
    end = x[0] if b < 0.0 else x[-1]
    e = np.expm1(b * (x - end))
    centred = e - e.mean()
    a = float(centred @ centred_y) / float(centred @ centred)
    c = float(y.mean()) - a * (float(e.mean()) + 1.0)
    return a * math.exp(-b * float(end)), b, c, degenerate


def fig3_tables(
    n_values: Sequence[int] = (2, 3, 4, 5, 6),
    phi_steps: int = 65,
    t: float = 3.5,
    fit_max_n: int = 30,
) -> tuple[tuple[list[str], list[np.ndarray]], tuple[list[str], list[np.ndarray]], dict]:
    """Uniform-chain witness versus hopping phase, plus enhancement ratios.

    Returns (witness table, ratio table, extras).  The witness table runs
    phi over [0, pi] (symmetry about pi/2 is reported in the extras); the
    ratio table gives R(N, t) at 14 times evenly spaced on [0.25, 3.5];
    the extras carry the least-squares fit a*exp(b*N)+c of R(N) at the
    fixed time over N = 2..fit_max_n (``_exponential_fit``: three sizes
    are interpolated, more are fitted by variable projection from
    b = -0.5), with ``degenerate`` true where the data has no finite
    optimum in reach (a step, a straight line, a constant, or a search out
    of steps).  At g = J the witness is the exact
    coalescence-point series, so every value comes from
    ``nu_closed_form_bkc_ep`` and every ratio from ``enhancement_ratio`` on
    it; no covariance is transported, and only an xi past the float range
    (``OutOfRange``) or a reference witness of 1 (``DivisionByZeroLog``, as
    at t = 0) fails.
    """
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
    sizes = np.array([int(n) for n in n_values], dtype=np.int64)
    phis = np.linspace(0.0, math.pi, phi_steps)
    nu_values = []
    asymmetry = 0.0
    for n in sizes.tolist():
        nu = [nu_closed_form_bkc_ep(n, phi, t) for phi in phis.tolist()]
        asymmetry = max([asymmetry] + [abs(a - b) for a, b in zip(nu, nu[::-1])])
        nu_values += nu
    # math.log per value: np.log need not give libm's bits
    witness = (["N", "phi", "nu_minus", "neg_log_nu"],
               [np.repeat(sizes, phi_steps), np.tile(phis, len(sizes)),
                np.array(nu_values, dtype=float), np.array([-math.log(v) for v in nu_values])])

    ratio_times = np.array(_RATIO_TIMES, dtype=float)
    ratios = [enhancement_ratio(n, rt, nu_fn=nu_closed_form_bkc_ep)
              for n in sizes.tolist() for rt in ratio_times.tolist()]
    ratio = (["N", "t", "ratio"], [np.repeat(sizes, len(ratio_times)),
                                   np.tile(ratio_times, len(sizes)), np.array(ratios, dtype=float)])

    fit_ns = np.arange(2, fit_max_n + 1)
    fit_rs = np.array([enhancement_ratio(int(n), t, nu_fn=nu_closed_form_bkc_ep) for n in fit_ns])
    a, b, c, degenerate = _exponential_fit(fit_ns, fit_rs)
    extras = {
        "t": t,
        "phi_symmetry_residual": asymmetry,
        "ratio_fit": {"a": a, "b": b, "c": c, "degenerate": degenerate},
        "ratio_fit_n_range": [2, int(fit_max_n)],
    }
    return witness, ratio, extras


def fig4_grid(
    j: float = 1.0,
    t: float = 5.0,
    g_axis: SweepAxis | None = None,
    arc_steps: int = 65,
    threads: int = 1,
) -> tuple[tuple[list[str], list[Sequence]], tuple[list[str], list[np.ndarray]], dict]:
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
    t = float(t)
    if not math.isfinite(t):
        raise ConfigError(f"time must be finite, got {t}")
    g = (g_axis or SweepAxis("g", 0.0, 2.0, 81)).values()
    points = np.stack([np.repeat(g, len(g)), np.tile(g, len(g))], axis=1)
    varphis = np.linspace(-math.pi / 4, math.pi / 4, arc_steps)
    arc_hopping = np.array([_surface_hopping(varphi, j) for varphi in varphis.tolist()],
                           dtype=float).reshape(-1, 2)
    # the grid and the arc share the chain size, time and cut: one stack
    hopping = np.concatenate([points, arc_hopping])
    m = bdg_stack(hopping, float(j), 0.0)
    _, regions, _ = spectrum_stack(m[: len(points)], DEFAULT_REGION_TOL)
    [(nu, _)], _, error = _witness_map(
        generator_stack(m), np.array([t]), [Bipartition.from_label("13|2", 3)], threads,
        axes={"g1": hopping[:, 0], "g2": hopping[:, 1]},
    )
    if error is not None:
        raise error
    grid = (["g1", "g2", "region", "nu_minus_13|2"],
            [*points.T, [region.value for region in regions], nu[: len(points)]])
    closed_form = [nu_closed_form_three_mode_nonuniform(varphi, j, t) for varphi in varphis.tolist()]
    arc = (["varphi", "g1", "g2", "nu_minus_13|2", "nu_closed_form"],
           [varphis, *arc_hopping.T, nu[len(points) :], np.array(closed_form, dtype=float)])
    extras = {"j": float(j), "t": t}
    return grid, arc, extras


def es_scan_table(
    g1_axis: SweepAxis,
    g2_axis: SweepAxis,
    j1_axis: SweepAxis,
    j2_axis: SweepAxis,
    tol: float = 1e-9,
    detect_everywhere: bool = False,
) -> tuple[list[str], list[Sequence], dict]:
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
    values = np.array([(p.g1, p.g2, p.j1, p.j2, p.residual) for p in points], dtype=float)
    on_surface = np.array([p.on_surface for p in points], dtype=bool)
    columns = [
        *values.reshape(-1, 5).T, on_surface,
        np.array([p.ep_order for p in points], dtype=np.int64),
        ["+".join(str(b) for b in p.block_sizes) for p in points],
    ]
    return header, columns, {"points": len(points), "on_surface": int(np.count_nonzero(on_surface))}
