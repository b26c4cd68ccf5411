"""Spans around the public functions of mkdvlab, recorded from outside the package.

Every public function of each layer module is replaced by a wrapper that
records one span (name, start, end, parent) per call.  A function imported by
name into another module (``modulation_norm`` in ``illposed``, ``probes`` and
``cli``, say) is replaced there too, so its calls do not escape.  Calls made
through a default argument bound at definition time (``window=cos2_window``)
are not seen; their time counts as self time of the caller.

Spans stay in memory until :meth:`Tracer.uninstall`; :func:`layer_metrics`
turns them into the per-layer numbers named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("spectral", "norms", "solitons", "solver", "illposed", "probes", "io", "cli")

#: functions whose spans are summed under one name
GROUPS = {
    "solver.evolve": ("solver.evolve", "solver.evolve_recorded", "solver.evolve_final"),
    "io.write": ("io.write_csv", "io.write_json", "io.write_field", "io.write_trajectory"),
    "io.read": ("io.read_config", "io.read_field", "io.read_trajectory"),
}

#: spans reported as inclusive busy time (.s) and call count (.calls)
TIMED = (
    "solver.evolve",
    "spectral.forward_transform",
    "spectral.inverse_transform",
    "norms.cube_l2_profile",
    "norms.free_evolution",
    "norms.xsb_norm",
    "norms.xsb_p_norm",
    "solitons.soliton_field",
    "solitons.modulation_norm_of_spectrum",
    "illposed.run_point",
    "probes.bilinear_ratio_cube",
    "probes.bilinear_ratio_lp",
    "probes.trilinear_ratio",
    "probes.convolution_inequality_check",
)

#: spans reported as inclusive busy time only
TIMED_ONLY = (
    "solver.invariants",
    "spectral.unit_cube_project",
    "spectral.littlewood_paley",
    "norms.modulation_norm",
    "probes.make_probe_corpus",
    "probes.corpus_hash",
    "probes.apriori_tracking",
    "io.write",
    "io.read",
)


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack, now = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever they are bound."""
        wrappers: dict[int, object] = {}  # id of the original -> its wrapper
        for layer in LAYERS:
            mod = sys.modules[f"mkdvlab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj, _COUNTERS.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mkdvlab" or mod_name.startswith("mkdvlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write the spans (times relative to the first span) as JSON."""
        base = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, t0 - base, t1 - base, p] for n, t0, t1, p in self.spans],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Counters taken from call arguments and results
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_steps(counters, args, kwargs, result) -> None:
    t_final = _arg(args, kwargs, 1, "t_final")
    cfg = _arg(args, kwargs, 2, "cfg")
    counters["solver.steps"] += round(t_final / cfg.dt)


def _count_cube_points(counters, args, kwargs, result) -> None:
    counters["norms.cube_l2_profile.points"] += _arg(args, kwargs, 0, "f").grid.points


def _count_soliton_points(counters, args, kwargs, result) -> None:
    counters["solitons.soliton_field.points"] += _arg(args, kwargs, 2, "grid").points


def _count_plan_points(counters, args, kwargs, result) -> None:
    key = "illposed.plan_grid.max_points"
    counters[key] = max(counters[key], result.points)


def _count_bytes(counters, args, kwargs, result) -> None:
    counters["io.bytes_written"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


_COUNTERS = {
    "solver.evolve": _count_steps,
    "solver.evolve_recorded": _count_steps,
    "solver.evolve_final": _count_steps,
    "norms.cube_l2_profile": _count_cube_points,
    "solitons.soliton_field": _count_soliton_points,
    "illposed.plan_grid": _count_plan_points,
    **{name: _count_bytes for name in GROUPS["io.write"]},
}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer numbers from one traced round.

    ``<name>.s`` is inclusive busy time: a span nested inside a span of the
    same name is not counted twice.  ``<layer>.self_s`` sums, over the
    layer's spans, each span's duration minus the durations of its children.
    """
    group_of = {m: g for g, members in GROUPS.items() for m in members}
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, t0, t1, parent) in enumerate(spans):
        key = group_of.get(name, name)
        calls[key] += 1
        self_s[name.split(".", 1)[0]] += (t1 - t0) - child_time[i]
        p = parent
        while p >= 0 and group_of.get(spans[p][0], spans[p][0]) != key:
            p = spans[p][3]
        if p < 0:
            busy[key] += t1 - t0

    out: dict[str, float] = {}
    for key in TIMED:
        out[f"{key}.s"] = busy[key]
        out[f"{key}.calls"] = calls[key]
    for key in TIMED_ONLY:
        out[f"{key}.s"] = busy[key]
    steps = counters.get("solver.steps", 0)
    out["solver.steps"] = steps
    out["solver.step_us"] = 1e6 * busy["solver.evolve"] / steps if steps else 0.0
    points = counters.get("norms.cube_l2_profile.points", 0)
    out["norms.cube_l2_profile.ns_per_point"] = (
        1e9 * busy["norms.cube_l2_profile"] / points if points else 0.0
    )
    out["solitons.soliton_field.points"] = counters.get("solitons.soliton_field.points", 0)
    out["illposed.plan_grid.max_points"] = counters.get("illposed.plan_grid.max_points", 0)
    out["io.bytes_written"] = counters.get("io.bytes_written", 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out
