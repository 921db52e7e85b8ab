"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps every callable named in the ``__all__`` of each
layer module (``cli`` has no ``__all__``; its entry point ``main`` stands
in), wherever that object is bound across the loaded ``epchain.*`` modules,
so copies made by ``from .dynamics import evolve`` are caught as well.
Dataclasses are traced through their ``__post_init__``, and scipy's
``expm`` is traced as bound in ``epchain.dynamics``.  Each call records a
span ``(parent, name, start_ns, end_ns)``; a span's self time is its
duration minus the durations of its direct children.

Forked pool workers inherit the wrappers but switch them off, so inside a
worker nothing is recorded and the pool's cost shows up as the self time
of the calling ``sweeps`` span in the parent.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import time

LAYERS = ("cli", "sweeps", "chain", "spectral", "dynamics", "entanglement")
GRID_FUNCTIONS = (
    "sweeps.spectrum_sweep",
    "sweeps.entanglement_trajectory",
    "sweeps.fig2_grid",
    "sweeps.fig3_tables",
    "sweeps.fig4_grid",
    "sweeps.es_scan_table",
)


def _count_clusters(tracer: "Tracer", result) -> None:
    tracer.counts["spectral.detect_eps.clusters"] += len(result)


def _count_bytes(tracer: "Tracer", result) -> None:
    tracer.counts["sweeps.write_rows.bytes"] += os.path.getsize(result)


# counts taken from a span's return value, where the work is done
_RETURN_HOOKS = {
    "spectral.detect_eps": _count_clusters,
    "sweeps.write_rows": _count_bytes,
}


class Tracer:
    """Wraps the package's public callables and records nested spans."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer callables; spans are recorded while ``active``."""
        modules = {layer: importlib.import_module(f"epchain.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ("main",)):
                obj = getattr(module, attr)
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    post_init = obj.__dict__.get("__post_init__")
                    if post_init is not None:
                        self._patch(obj, "__post_init__", self._wrap(name, post_init))
                elif callable(obj) and id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "epchain" or mod_name.startswith("epchain.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        dynamics = modules["dynamics"]
        self._patch(dynamics, "expm", self._wrap("dynamics.expm", dynamics.expm))
        os.register_at_fork(after_in_child=self._stop_in_child)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _stop_in_child(self) -> None:
        self.active = False

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _RETURN_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once, at the innermost span it leaves
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.counts[f"error.{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (parent, name, start, end)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    # -- collection -------------------------------------------------------

    def take(self) -> tuple[list, collections.Counter]:
        """Return and reset the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], collections.Counter()
        return spans, counts


def self_times(spans: list) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds)."""
    child_ns = [0] * len(spans)
    for parent, _name, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: collections.Counter = collections.Counter()
    self_ns: collections.Counter = collections.Counter()
    for index, (_parent, name, start, end) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[index]
    return {name: (calls[name], self_ns[name] * 1e-9) for name in calls}


def layer_metrics(spans: list, counts: collections.Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    per_name = self_times(spans)

    def calls(name: str) -> float:
        return float(per_name.get(name, (0, 0.0))[0])

    def self_s(name: str) -> float:
        return per_name.get(name, (0, 0.0))[1]

    def layer_self(layer: str) -> float:
        return sum((s for name, (_, s) in per_name.items() if name.startswith(layer + ".")), 0.0)

    clusters = counts["spectral.detect_eps.clusters"]
    rank_ambiguity = sum(
        n for key, n in counts.items()
        if key.startswith("error.spectral.") and key.endswith(".RankAmbiguity")
    )
    return {
        "chain.self_s": layer_self("chain"),
        "chain.build_bdg_matrix.calls": calls("chain.build_bdg_matrix"),
        "chain.quadrature_generator.self_s": self_s("chain.quadrature_generator"),
        "chain.symplectic_form.calls": calls("chain.symplectic_form"),
        "chain.symplectic_form.self_s": self_s("chain.symplectic_form"),
        "dynamics.self_s": layer_self("dynamics"),
        "dynamics.evolve.calls": calls("dynamics.evolve"),
        "dynamics.propagator.self_s": self_s("dynamics.propagator"),
        "dynamics.GaussianState.calls": calls("dynamics.GaussianState"),
        "dynamics.GaussianState.self_s": self_s("dynamics.GaussianState"),
        "dynamics.expm.calls": calls("dynamics.expm"),
        "dynamics.expm.self_s": self_s("dynamics.expm"),
        "entanglement.self_s": layer_self("entanglement"),
        "entanglement.partial_transpose.self_s": self_s("entanglement.partial_transpose"),
        "entanglement.symplectic_eigenvalues.calls": calls("entanglement.symplectic_eigenvalues"),
        "entanglement.symplectic_eigenvalues.self_s": self_s("entanglement.symplectic_eigenvalues"),
        "entanglement.bkc_nu_minus.calls": calls("entanglement.bkc_nu_minus"),
        "spectral.self_s": layer_self("spectral"),
        "spectral.eigenspectrum.calls": calls("spectral.eigenspectrum"),
        "spectral.eigenspectrum.self_s": self_s("spectral.eigenspectrum"),
        "spectral.detect_eps.self_s": self_s("spectral.detect_eps"),
        "spectral.jordan_structure.calls": calls("spectral.jordan_structure"),
        "spectral.jordan_structure.self_s": self_s("spectral.jordan_structure"),
        "spectral.locate_ep_1d.self_s": self_s("spectral.locate_ep_1d"),
        # with no reported cluster the ratio is taken per one cluster
        "spectral.jordan_per_ep": calls("spectral.jordan_structure") / max(clusters, 1),
        "spectral.rank_ambiguity.count": float(rank_ambiguity),
        "sweeps.self_s": layer_self("sweeps"),
        "sweeps.grid.self_s": sum(self_s(name) for name in GRID_FUNCTIONS),
        "sweeps.write_rows.self_s": self_s("sweeps.write_rows"),
        "sweeps.write_rows.bytes": float(counts["sweeps.write_rows.bytes"]),
        "cli.self_s": layer_self("cli"),
        "cli.calls": sum((float(c) for name, (c, _) in per_name.items() if name.startswith("cli.")), 0.0),
    }


def write_spans(path, spans: list) -> None:
    """Write spans as CSV, one line per span; ``parent`` is the parent's ``id``."""
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_ns,end_ns\n")
        fh.writelines(
            f"{index},{parent},{name},{start},{end}\n"
            for index, (parent, name, start, end) in enumerate(spans)
        )
