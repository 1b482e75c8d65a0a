"""Spans around the public functions of scatterloc's layers.

``Tracer.install`` replaces every public function of the layer modules
(and the two ``OutputWriter`` methods that write files) with a wrapper
that records a span: name, start, end and the span that was open when
it was called.  Names a module imported from another module are
replaced too, so cross-layer calls are seen.  Spans stay in memory and
are written out once, after the command.

A few wrappers also read counts off the arguments or the result (basis
dimension, array sizes, events, aborts) after their span has ended.
Importing this module imports nothing outside the standard library, so
it does not change what the set-up timing of ``scatterloc`` measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("config", "lattice", "kernel", "trajectory", "analysis", "cli")
# methods wrapped besides the module-level functions
METHODS = {"cli": ("OutputWriter.write_csv", "OutputWriter.write_manifest")}


class Tracer:
    """Spans of one traced command; ``trace_id`` names the run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, hook=None):
        """fn with a span named ``name``; hook(tracer, bound_args, result)
        runs after the span ends."""
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, wherever bound."""
        package = importlib.import_module("scatterloc")
        modules = [package] + [importlib.import_module(f"scatterloc.{m}")
                               for m in LAYERS]
        replaced = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self.wrap(name, obj, _HOOKS.get(name))
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(f"{layer}.{path}",
                                             getattr(cls, meth)))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def keep_max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def spans(self) -> list[dict]:
        """All spans; ``parent`` is -1 for a root."""
        return [{"trace_id": self.trace_id, "span_id": i, "parent": p,
                 "name": n, "start_ns": s, "end_ns": e}
                for i, (n, p, s, e) in enumerate(zip(
                    self.names, self.parents, self.starts, self.ends))]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict:
        """The per-layer metrics, from the spans and the counts.

        A metric of a layer the command never calls reads 0.
        """
        spans = self.spans()
        selfs = self_times(spans)
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        cli_self = 0
        for span, own in zip(spans, selfs):
            name = span["name"]
            total[name] = total.get(name, 0) + span["end_ns"] - span["start_ns"]
            calls[name] = calls.get(name, 0) + 1
            if name.startswith("cli."):
                cli_self += own
        steps = sorted(s["end_ns"] - s["start_ns"] for s in spans
                       if s["name"] == "trajectory.step")

        def secs(name):
            return total.get(name, 0) / 1e9

        c = self.counts.get
        ens_events = c("analysis.events", 0)
        traj_events = c("trajectory.events", 0)
        ens_s = secs("analysis.run_ensemble")
        return {
            "config.parse_s": secs("config.parse_config"),
            "lattice.enumerate_basis_s": secs("lattice.enumerate_basis"),
            "lattice.build_hamiltonian_s": secs("lattice.build_hamiltonian"),
            "lattice.ground_state_s": secs("lattice.ground_state"),
            "lattice.ground_state_calls": calls.get("lattice.ground_state", 0),
            "lattice.dimension": c("lattice.dimension", 0),
            "lattice.hamiltonian_bytes": c("lattice.hamiltonian_bytes", 0),
            "lattice.residual": c("lattice.residual", 0),
            "kernel.build_pattern_table_s":
                secs("kernel.build_pattern_table"),
            "kernel.table_bytes": c("kernel.table_bytes", 0),
            "analysis.build_classes_s": secs("analysis.build_classes"),
            "analysis.classes": c("analysis.classes", 0),
            "analysis.run_ensemble_s": ens_s,
            "analysis.event_us":
                1e6 * ens_s / ens_events if ens_events else 0.0,
            "analysis.events": ens_events,
            "analysis.scatter_frac":
                c("analysis.scatter", 0) / ens_events if ens_events else 0.0,
            "analysis.converged_frac":
                (c("analysis.converged", 0) / c("analysis.traj")
                 if ens_events else 0.0),
            "analysis.aborted": c("analysis.aborted", 0),
            "analysis.sweep_rows": c("analysis.sweep_rows", 0),
            "trajectory.run_trajectory_s": secs("trajectory.run_trajectory"),
            "trajectory.step_us_p50": percentile(steps, 50) / 1e3,
            "trajectory.step_us_p99": percentile(steps, 99) / 1e3,
            "trajectory.events": traj_events,
            "trajectory.scatter_frac":
                (c("trajectory.scatter", 0) / traj_events
                 if traj_events else 0.0),
            "trajectory.aborted": c("trajectory.aborted", 0),
            "cli.self_s": cli_self / 1e9,
            "cli.write_csv_s": secs("cli.OutputWriter.write_csv"),
        }


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so children nest inside their parent and the
    difference is the time spent in the span's own code.
    """
    own = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when empty."""
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _array_bytes(matrix) -> int:
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    # scipy sparse: the stored arrays
    return sum(int(getattr(matrix, a).nbytes)
               for a in ("data", "indices", "indptr", "row", "col",
                         "offsets") if hasattr(matrix, a))


def _enumerate_basis(tracer, args, basis):
    tracer.keep_max("lattice.dimension", basis.dimension)


def _build_hamiltonian(tracer, args, H):
    tracer.keep_max("lattice.hamiltonian_bytes", _array_bytes(H))


def _ground_state(tracer, args, result):
    import numpy as np

    energy, state = result[0], result[1]
    v = np.asarray(state.coeffs).real
    residual = float(np.linalg.norm(args["H"] @ v - energy * v))
    tracer.keep_max("lattice.residual", residual)


def _build_pattern_table(tracer, args, table):
    arrays = (table.theta_grid, table.weights, table.scatter_prob,
              table.ns_prob, table.ns_amp)
    tracer.keep_max("kernel.table_bytes", sum(a.nbytes for a in arrays))


def _build_classes(tracer, args, classes):
    tracer.keep_max("analysis.classes", len(classes))


def _run_ensemble(tracer, args, stats):
    tracer.add("analysis.events", stats.n_traj * stats.n_events)
    tracer.add("analysis.traj", stats.n_traj)
    tracer.add("analysis.scatter", stats.n_scatter_total)
    tracer.add("analysis.converged", int(stats.converged_mask.sum()))
    tracer.add("analysis.aborted", stats.aborted_count)


def _sweep_uj(tracer, args, rows):
    tracer.add("analysis.sweep_rows", len(rows))


def _run_trajectory(tracer, args, record):
    tracer.add("trajectory.events", len(record.events))
    tracer.add("trajectory.scatter", record.n_scatter)
    tracer.add("trajectory.aborted", int(record.aborted))


_HOOKS = {
    "lattice.enumerate_basis": _enumerate_basis,
    "lattice.build_hamiltonian": _build_hamiltonian,
    "lattice.ground_state": _ground_state,
    "kernel.build_pattern_table": _build_pattern_table,
    "analysis.build_classes": _build_classes,
    "analysis.run_ensemble": _run_ensemble,
    "analysis.sweep_uj": _sweep_uj,
    "trajectory.run_trajectory": _run_trajectory,
}
