"""Output checks run on every pass, and the reference tables they compare with.

Tolerances (stated here once, used everywhere):

* reference tables, recorded from the program's outputs at the commit that
  introduced the benchmark: numbers agree when
  ``|got - ref| <= REF_ATOL + REF_RTOL * |ref|``; text must be equal; a
  reference value ``*`` accepts any value;
* sampled cells recomputed with the scalar ``chain_nu_minus`` pipeline:
  ``SCALAR_ATOL + SCALAR_RTOL * |table value|``;
* the fig4 coalescence arc against ``nu_closed_form_three_mode_nonuniform``:
  absolute ``CLOSED_FORM_ATOL``, the bound of the package's acceptance test;
* every row of every table: ``nu_minus* > 0`` and ``log_negativity* >= 0``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REF_RTOL, REF_ATOL = 1e-6, 1e-12
SCALAR_RTOL, SCALAR_ATOL = 1e-8, 1e-12
CLOSED_FORM_ATOL = 1e-6
WILDCARD = "*"
REF_ROWS, REF_COLS = 48, 24


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows, as text, of a CSV or JSON table written by the CLI."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        return list(payload["columns"]), [list(row) for row in payload["rows"]]
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def close(got: float, expected: float, rtol: float, atol: float) -> bool:
    if math.isnan(got) or math.isnan(expected):
        return math.isnan(got) and math.isnan(expected)
    return abs(got - expected) <= atol + rtol * abs(expected)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def positivity(name: str, header: list[str], rows: list[list[str]]) -> Check | None:
    """nu_- > 0 and log_negativity >= 0 on every row, or None without such columns."""
    nu_cols = [i for i, h in enumerate(header) if h.startswith("nu_minus")]
    log_cols = [i for i, h in enumerate(header) if h.startswith("log_negativity")]
    if not nu_cols and not log_cols:
        return None
    for number, row in enumerate(rows):
        for i in nu_cols + log_cols:
            value = _number(row[i]) if i < len(row) else None
            if value is None or not math.isfinite(value) or (value <= 0 if i in nu_cols else value < 0):
                return Check(f"{name} positivity", False, f"row {number} {header[i]} = {row[i:i+1]}")
    return Check(f"{name} positivity", True)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def fingerprint(inputs: dict) -> str:
    return _digest(inputs)


def _spread(count: int, limit: int) -> list[int]:
    if count <= limit:
        return list(range(count))
    return sorted({round(i * (count - 1) / (limit - 1)) for i in range(limit)})


def sample_reference(header: list[str], rows: list[list[str]], wildcard) -> dict:
    """The reference record of one table: shape plus a spread of rows and columns."""
    if len(header) <= REF_COLS:
        cols = list(range(len(header)))
    else:
        head = REF_COLS // 2
        cols = list(range(head)) + [head + i for i in _spread(len(header) - head, REF_COLS - head)]
    sampled = []
    for index in _spread(len(rows), REF_ROWS):
        row = wildcard(header, rows[index])
        sampled.append([index, [row[c] for c in cols]])
    return {"header_sha": _digest(header), "names": [header[c] for c in cols],
            "n_rows": len(rows), "cols": cols, "rows": sampled}


def compare_reference(name: str, header: list[str], rows: list[list[str]], ref: dict) -> Check:
    label = f"{name} vs reference"
    if _digest(header) != ref["header_sha"]:
        return Check(label, False, "header differs")
    if len(rows) != ref["n_rows"]:
        return Check(label, False, f"{len(rows)} rows, reference has {ref['n_rows']}")
    for index, expected in ref["rows"]:
        for col, want in zip(ref["cols"], expected):
            got = rows[index][col] if col < len(rows[index]) else ""
            if want == WILDCARD or got == want:
                continue
            a, b = _number(got), _number(want)
            if a is None or b is None or not close(a, b, REF_RTOL, REF_ATOL):
                return Check(label, False, f"row {index} {header[col]}: {got!r} vs {want!r}")
    return Check(label, True)


def load_reference(path: Path, variant: int, inputs: dict) -> dict | None:
    """Reference tables for this variant, or None if absent or made from other inputs."""
    if not path.is_file():
        return None
    entry = json.loads(path.read_text()).get(str(variant))
    if entry is None or entry["fingerprint"] != fingerprint(inputs):
        return None
    return entry["tables"]


def reference_checks(tables: dict, reference: dict | None) -> list[Check]:
    if reference is None:
        return [Check("reference", False, "no reference table for these inputs")]
    out = []
    for name, (header, rows) in tables.items():
        if name not in reference:
            out.append(Check(f"{name} vs reference", False, "table missing from reference"))
        else:
            out.append(compare_reference(name, header, rows, reference[name]))
    return out
