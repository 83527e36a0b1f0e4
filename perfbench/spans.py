"""Outside-in tracing of hexaflow: span recording and per-layer aggregation.

The benchmark never edits the package.  In a traced operation the launcher
replaces the module attributes through which the package calls each layer
with wrappers that record one span per call: its name, start, end, parent
span and operation id.  Spans stay in memory and are written once, when the
operation ends.  A span is named after the layer that defines the called
function (`curve.compute_geometry`, `flow.step`, ...), whichever module the
call went through.
"""
from __future__ import annotations

import functools
import statistics
import time
from array import array
from itertools import chain

# (module, attribute) pairs the wrappers replace.  Each is the name a caller
# looks up at call time, so every call into a layer passes through one.
WRAPPED = (
    ("hexaflow.flow", "step"),
    ("hexaflow.flow", "normal_speed"),
    ("hexaflow.flow", "compute_geometry"),
    ("hexaflow.flow", "resample_uniform"),
    ("hexaflow.flow", "make_record"),
    ("hexaflow.verify", "compute_geometry"),
    ("hexaflow.verify", "check_psw"),
    ("hexaflow.cli", "parse_config"),
    ("hexaflow.cli", "_config_from_dict"),
    ("hexaflow.cli", "generate_initial"),
    ("hexaflow.cli", "compute_geometry"),
    ("hexaflow.cli", "resample_uniform"),
    ("hexaflow.cli", "run_flow"),
    ("hexaflow.cli", "emit"),
    ("hexaflow.cli", "check_dissipation"),
    ("hexaflow.cli", "check_length_identity"),
    ("hexaflow.cli", "check_k2_identity"),
    ("hexaflow.cli", "check_kss_inequality"),
    ("hexaflow.cli", "check_boundary_hierarchy"),
    ("hexaflow.cli", "psw_sample_study"),
)
# `sweep` parses each cell with the private helper that `parse_config` also
# calls, so both count as config parsing.
ALIASES = {"cli._config_from_dict": "cli.parse_config"}
ROOT = "cli.main"


class Tracer:
    """Records nested spans of one operation in memory."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.spans: list[list[int]] = []   # [op, name, parent, start_ns, end_ns]
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, op_id = self.spans, self._stack, self.op_id
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [op_id, name_id, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished top-level span, for work that cannot be wrapped."""
        self.names.append(name)
        self.spans.append([self.op_id, len(self.names) - 1, -1, start_ns, end_ns])

    def install(self, modules: dict) -> None:
        for module_name, attr in WRAPPED:
            module = modules[module_name]
            fn = getattr(module, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            setattr(module, attr, self.wrap(fn, ALIASES.get(name, name)))

    def dump(self, path: str) -> dict:
        """Write the spans to `path` as flat int64 rows; return the trace header."""
        with open(path, "wb") as fh:
            array("q", chain.from_iterable(self.spans)).tofile(fh)
        return {"op": self.op_id, "names": self.names, "spans_file": path}


def load(trace: dict) -> dict:
    """A trace header with its spans read back as [op, name, parent, start_ns, end_ns] rows."""
    flat = array("q")
    with open(trace["spans_file"], "rb") as fh:
        flat.frombytes(fh.read())
    return {**trace, "spans": [flat[i:i + 5] for i in range(0, len(flat), 5)]}


class _Calls:
    __slots__ = ("count", "total", "self_total")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0


def _parent_group(name: str) -> str:
    if name == "flow.step":
        return "step"
    if name.startswith("verify."):
        return "verify"
    return "cli"


def layer_metrics(traces: list[dict], walls: list[float]) -> dict:
    """Per-layer figures of the traced operations, as {name: (value, unit)}.

    `traces` are the loaded traces of the operations and `walls` their wall
    times in seconds.  Times are per call; counts are per operation.  A span
    directly inside one of the same name (config parsing through the private
    helper) is not counted again.  Self time is a span's duration minus
    that of its direct children.
    """
    calls: dict[str, _Calls] = {}
    layer_self: dict[str, float] = {}
    root_total = 0.0
    for trace in traces:
        names = trace["names"]
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += (end - start) * 1e-9
        for index, (_, name_id, parent, start, end) in enumerate(spans):
            name = names[name_id]
            duration = (end - start) * 1e-9
            own = duration - child[index]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            if name == ROOT:
                root_total += duration
                continue
            parent_name = names[spans[parent][1]] if parent >= 0 else ROOT
            if parent_name == name:
                continue
            keys = [name]
            if layer == "curve":
                keys.append(f"{name}.{_parent_group(parent_name)}")
            for key in keys:
                entry = calls.setdefault(key, _Calls())
                entry.count += 1
                entry.total += duration
                entry.self_total += own

    ops = max(len(traces), 1)
    wall = sum(walls)

    def share(seconds):
        return seconds / wall if wall else 0.0

    def per_call(key, scale, use_self=False):
        entry = calls.get(key)
        if entry is None:
            return 0.0
        return (entry.self_total if use_self else entry.total) / entry.count * scale

    def per_op(key):
        entry = calls.get(key)
        return entry.count / ops if entry else 0.0

    def total(key):
        entry = calls.get(key)
        return entry.total if entry else 0.0

    out = {}
    for fn in ("compute_geometry", "resample_uniform"):
        for suffix in ("", ".step", ".verify", ".cli"):
            key = f"curve.{fn}{suffix}"
            out[f"{key}.us"] = (per_call(key, 1e6), "us")
            out[f"{key}.calls"] = (per_op(key), "count")
    out["flow.step.us"] = (per_call("flow.step", 1e6), "us")
    out["flow.step.calls"] = (per_op("flow.step"), "count")
    out["flow.step.self_us"] = (per_call("flow.step", 1e6, use_self=True), "us")
    out["flow.normal_speed.us"] = (per_call("flow.normal_speed", 1e6), "us")
    out["flow.normal_speed.calls"] = (per_op("flow.normal_speed"), "count")
    out["flow.run_flow.self_s"] = (per_call("flow.run_flow", 1.0, use_self=True), "s")
    run_flow_s = total("flow.run_flow")
    out["flow.steps_per_s"] = (per_op("flow.step") * ops / run_flow_s if run_flow_s else 0.0,
                               "1/s")
    out["diagnostics.make_record.us"] = (per_call("diagnostics.make_record", 1e6), "us")
    out["diagnostics.make_record.calls"] = (per_op("diagnostics.make_record"), "count")
    for check in ("dissipation", "length_identity", "k2_identity", "kss_inequality"):
        key = f"verify.check_{check}"
        out[f"{key}.ms"] = (per_call(key, 1e3), "ms")
    out["verify.check_boundary_hierarchy.us"] = (
        per_call("verify.check_boundary_hierarchy", 1e6), "us")
    out["verify.psw_sample_study.s"] = (per_call("verify.psw_sample_study", 1.0), "s")
    out["verify.check_psw.calls"] = (per_op("verify.check_psw"), "count")
    out["verify.compute_geometry.calls"] = (per_op("curve.compute_geometry.verify"), "count")
    for fn in ("parse_config", "generate_initial", "emit"):
        out[f"cli.{fn}.ms"] = (per_call(f"cli.{fn}", 1e3), "ms")
        out[f"cli.{fn}.calls"] = (per_op(f"cli.{fn}"), "count")
    out["cli.emit.share"] = (share(total("cli.emit")), "ratio")
    out["startup.import.ms"] = (per_call("startup.import", 1e3), "ms")
    for layer in ("curve", "flow", "diagnostics", "verify", "cli", "startup"):
        out[f"layer.{layer}.share"] = (share(layer_self.get(layer, 0.0)), "ratio")
    # interpreter start, argument parsing and writing this trace
    out["layer.untraced.share"] = (
        share(wall - root_total - layer_self.get("startup", 0.0)), "ratio")
    out["trace.spans"] = (sum(len(t["spans"]) for t in traces) / ops, "count")
    out["trace.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    return out
