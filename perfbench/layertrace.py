"""Outside-in layer trace of gaussnm, recorded from the benchmark's side.

Wrappers are installed on the names each caller looks up, so the package
itself is unchanged:

    cli.main, cli.run_experiment            -> cli, experiments
    experiments.build_coefficients          -> spectral
    experiments.maximize_measure,
    experiments.first_order_*, closed_form_* -> measure
    QbmChannel.maps, DampingChannel.maps    -> channels (plus a count of
                                               QbmPropagator constructions)
    measure.fidelity_arrays                 -> states

Each call becomes a span (name, start, end, parent, run, info) kept in
memory; the spans are written out when the benchmark ends.  Only
single-process runs are traced: spans recorded in pool workers are lost.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# per-layer metric -> (unit, better)
LAYER_METRICS = {
    "spectral.tables": ("count", "lower"),
    "spectral.duplicate_tables": ("count", "lower"),
    "spectral.table_T0_s": ("s", "lower"),
    "spectral.table_Tpos_s": ("s", "lower"),
    "spectral.self_s": ("s", "lower"),
    "channels.maps_calls": ("count", "lower"),
    "channels.maps_points": ("count", "lower"),
    "channels.points_per_maps_call": ("points/call", "higher"),
    "channels.maps_self_s": ("s", "lower"),
    "channels.propagator_builds": ("count", "lower"),
    "states.fidelity_calls": ("count", "lower"),
    "states.fidelity_points": ("count", "lower"),
    "states.fidelity_self_s": ("s", "lower"),
    "states.ns_per_fidelity_point": ("ns", "lower"),
    "measure.maximize_calls": ("count", "lower"),
    "measure.maximize_p50_s": ("s", "lower"),
    "measure.maximize_self_s": ("s", "lower"),
    "measure.first_order_s": ("s", "lower"),
    "measure.objective_evals": ("count", "lower"),
    "measure.grid_evals": ("count", "lower"),
    "measure.nm_iterations": ("count", "lower"),
    "measure.maps_per_objective": ("calls/eval", "lower"),
    "measure.stagnation_frac": ("ratio", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.csv_bytes": ("B", "lower"),
    "experiments.pool_efficiency": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _points(arr, trailing: int) -> int:
    shape = getattr(arr, "shape", ())
    return math.prod(shape[:len(shape) - trailing]) if shape else 1


def _table_info(args, kwargs, result):
    env = _arg(args, kwargs, 0, "env")
    return {"T": env.temperature,
            "key": [env.omega0, env.omega_c, env.temperature,
                    float(_arg(args, kwargs, 2, "t_end")),
                    int(_arg(args, kwargs, 3, "n_steps"))]}


def _maps_info(args, kwargs, result):
    return {"points": _points(_arg(args, kwargs, 1, "ts"), 0)}


def _fidelity_info(args, kwargs, result):
    return {"points": _points(_arg(args, kwargs, 1, "covs1"), 2)}


def _maximize_info(args, kwargs, result):
    d = result.diagnostics
    return {"objective_evals": int(d["function_evaluations"]),
            "grid_evals": int(d["grid_evaluations"]),
            "nm_iterations": int(d["iterations"]),
            "stagnation": bool(d["stagnation"])}


# (module, class or None, attribute or name prefix ending in "_", span, info)
_TARGETS = (
    ("gaussnm.cli", None, "main", "cli.main", None),
    ("gaussnm.cli", None, "run_experiment", "experiments.run_experiment", None),
    ("gaussnm.experiments", None, "build_coefficients",
     "spectral.build_coefficients", _table_info),
    ("gaussnm.experiments", None, "maximize_measure",
     "measure.maximize_measure", _maximize_info),
    ("gaussnm.experiments", None, "first_order_", "measure.first_order", None),
    ("gaussnm.experiments", None, "closed_form_", "measure.closed_form", None),
    ("gaussnm.channels", "QbmChannel", "maps", "channels.maps", _maps_info),
    ("gaussnm.channels", "DampingChannel", "maps", "channels.maps", _maps_info),
    ("gaussnm.measure", None, "fidelity_arrays", "states.fidelity_arrays",
     _fidelity_info),
)
_COUNTED = (("gaussnm.channels", "QbmPropagator", "channels.propagator_builds"),)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "info")

    def __init__(self, name, parent, run):
        self.name, self.parent, self.run = name, parent, run
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``installed(run)`` patches the layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)  # (run, name) -> count
        self._stack: list[int] = []
        self._run = 0

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self._run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return traced

    def _count(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[(self._run, name)] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self, run: int):
        """Patch every layer boundary for the duration of one traced run."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        self._run = run
        try:
            for mod, cls, attr, name, info in _TARGETS:
                owner = importlib.import_module(mod)
                if cls is not None:
                    owner = getattr(owner, cls)
                attrs = ([a for a in vars(owner) if a.startswith(attr)]
                         if attr.endswith("_") else [attr])
                for a in attrs:
                    patch(owner, a, self._wrap(getattr(owner, a), name, info))
            for mod, attr, name in _COUNTED:
                owner = importlib.import_module(mod)
                patch(owner, attr, self._count(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def span_names(self, run: int) -> set[str]:
        return {s.name for s in self.spans if s.run == run}

    def layer_self_times(self, run: int) -> dict[str, float]:
        """Self time summed per layer (span time not covered by children)."""
        child = self._child_time(run)
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.run == run:
                out[s.name.split(".")[0]] += s.duration - child[i]
        return dict(out)

    def _child_time(self, run: int) -> dict[int, float]:
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.run == run and s.parent >= 0:
                child[s.parent] += s.duration
        return child

    def metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced run (those measurable in-process)."""
        child = self._child_time(run)
        by: dict[str, list] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.run == run:
                by[s.name].append((s, s.duration - child[i]))

        def total_self(name):
            return float(sum(st for _, st in by[name]))

        def median_duration(spans):
            return statistics.median(s.duration for s in spans) if spans else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        tables = [s for s, _ in by["spectral.build_coefficients"]]
        maps = [s for s, _ in by["channels.maps"]]
        fids = [s for s, _ in by["states.fidelity_arrays"]]
        maxs = [s for s, _ in by["measure.maximize_measure"]]
        maps_points = sum(s.info["points"] for s in maps)
        fid_points = sum(s.info["points"] for s in fids)
        evals = sum(s.info["objective_evals"] for s in maxs)
        fid_self = total_self("states.fidelity_arrays")
        return {
            "spectral.tables": len(tables),
            "spectral.duplicate_tables":
                len(tables) - len({tuple(s.info["key"]) for s in tables}),
            "spectral.table_T0_s":
                median_duration([s for s in tables if s.info["T"] == 0.0]),
            "spectral.table_Tpos_s":
                median_duration([s for s in tables if s.info["T"] > 0.0]),
            "spectral.self_s": total_self("spectral.build_coefficients"),
            "channels.maps_calls": len(maps),
            "channels.maps_points": maps_points,
            "channels.points_per_maps_call": ratio(maps_points, len(maps)),
            "channels.maps_self_s": total_self("channels.maps"),
            "channels.propagator_builds":
                self.counts[(run, "channels.propagator_builds")],
            "states.fidelity_calls": len(fids),
            "states.fidelity_points": fid_points,
            "states.fidelity_self_s": fid_self,
            "states.ns_per_fidelity_point": ratio(1e9 * fid_self, fid_points),
            "measure.maximize_calls": len(maxs),
            "measure.maximize_p50_s": median_duration(maxs),
            "measure.maximize_self_s": total_self("measure.maximize_measure"),
            "measure.first_order_s":
                float(sum(s.duration for s, _ in by["measure.first_order"])),
            "measure.objective_evals": evals,
            "measure.grid_evals": sum(s.info["grid_evals"] for s in maxs),
            "measure.nm_iterations": sum(s.info["nm_iterations"] for s in maxs),
            "measure.maps_per_objective": ratio(len(maps), evals),
            "measure.stagnation_frac":
                ratio(sum(s.info["stagnation"] for s in maxs), len(maxs)),
            "experiments.self_s": total_self("experiments.run_experiment"),
            "cli.self_s": total_self("cli.main"),
        }

    def write(self, path) -> None:
        """Spans as gzipped JSON lines (index = line number, parent = index)."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run": s.run, "info": s.info}) + "\n")
