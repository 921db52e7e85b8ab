"""Record the reference tables the benchmark's output checks compare with.

    python3 bench/make_reference.py [workload ...]

Runs one pass of each input variant of the named workloads (default: all
that own a reference) with the package in this checkout's ``src`` and
writes ``bench/reference/<workload>.json``.  The committed tables were
recorded from the program at the commit that introduced the benchmark;
regenerate them only in a change that alters the benchmark's inputs, never
to absorb a change in the program's outputs.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

OWNERS = ("small_maps", "long_chain", "ep_scan")


def seed_for_variant(variant: int) -> int:
    """The smallest seed whose inputs use ``variant``."""
    return next(s for s in itertools.count() if random.Random(s).randrange(workloads.VARIANTS) == variant)


def make(name: str, out_dir: Path, sizes: dict | None = None, variants=range(workloads.VARIANTS)) -> Path:
    entries = {}
    for variant in variants:
        workdir = run.ROOT / ".bench_run" / "reference" / name
        wl = workloads.build(name, seed_for_variant(variant), workdir, sizes)
        run.run_pass(wl, run.Tally())
        tables = {
            table: checks.sample_reference(header, rows, lambda h, r, t=table: wl.wildcard(t, h, r))
            for table, (header, rows) in wl.tables().items()
        }
        entries[str(variant)] = {"fingerprint": checks.fingerprint(wl.inputs), "tables": tables}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(entries, indent=0, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    for name in sys.argv[1:] or OWNERS:
        print(make(name, run.REFERENCE_DIR))
