"""Traced run: one in-process `shelfscan.cli.main` call with spans at the layer calls.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json RUN_ID ARGS...

wraps the public functions the commands call through (TARGETS), runs
`cli.main(ARGS)` inside a root span named `cli.main`, keeps every span in
memory (name, start, end, parent, run id, counters) and writes them to
SPANS.json at exit. A target that no longer exists is listed as missing, and
a counter that fails is recorded as an error; the metrics fed by either are
reported absent, and the command itself still runs.

Spans inside the worker processes that `detect_many` forks are not
collected: on the detect workload, `detect_many` is one span.

`layer_metrics` turns the span files into the per-layer metrics. A span's
self time is its duration minus the time its direct child spans cover.
"""

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time


def _read_counts(args, result):
    return {"path": os.path.basename(str(args["path"])), "bytes": os.path.getsize(args["path"]),
            "trajectories": len(result), "samples": sum(len(t) for t in result)}


def _events(args, result):
    return {"events": sum(len(evs) for evs in result)}


def _rays(args, result):
    candidates = result[0]
    return {"rays": len(candidates), "candidates": int((candidates >= 0).sum())}


def _grid_points(args, result):
    points = 1
    for axis in args["grid"].axes():
        points *= len(axis)
    return {"grid_points": points * int(args.get("repeats", 1))}


# (module, attribute, span name, counters): the names the commands resolve at call time
TARGETS = (
    ("shelfscan.cli", "read_trajectories", "kinematics.read", _read_counts),
    ("shelfscan.cli", "build_track", "kinematics.build", None),
    ("shelfscan.labeling", "read_labels", "labeling.read", None),
    ("shelfscan.labeling", "read_label_manifest", "labeling.read", None),
    ("shelfscan.labeling", "majority_vote", "labeling.vote", None),
    ("shelfscan.cli", "detect_many", "detector.detect_many", _events),
    ("shelfscan.cli", "write_stop_events", "detector.write", None),
    ("shelfscan.calibration", "gaze_stream", "detector.gaze", _rays),
    ("shelfscan.calibration", "calibrate", "calibration.sweep", _grid_points),
    ("shelfscan.calibration", "same_store_eval", "calibration.sweep", _grid_points),
    ("shelfscan.calibration", "counts_at", "calibration.counts_at", None),
    ("shelfscan.synth", "generate", "synth.generate", None),
    ("shelfscan.cli", "save_layout", "synth.write", None),
    ("shelfscan.cli", "write_trajectories", "synth.write", None),
    ("shelfscan.synth", "write_ground_truth", "synth.write", None),
    ("shelfscan.labeling", "write_labels", "synth.write", None),
    ("shelfscan.labeling", "write_label_manifest", "synth.write", None),
    ("shelfscan.cli", "detect_stops", "synth.plant", None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, counters=None):
        kwargs = kwargs or {}
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic()
            self._stack.pop()
        if counters is not None:  # counted after the span closes, so its cost is not the layer's
            try:
                span["counts"] = counters(_bound(fn, args, kwargs), result)
            except Exception as exc:  # a changed signature or result must not fail the command
                span["counts"] = {"error": repr(exc)}
        return result

    def install(self, targets):
        """Wrap every target that exists; return the dotted names of those that do not."""
        missing = []
        for module_name, attr, name, counters in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrapper(fn, name, counters))
        return missing

    def _wrapper(self, fn, name, counters):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counters)
        return wrapper


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bound(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def main(argv):
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    missing = tracer.install(TARGETS)
    from shelfscan import cli

    code = tracer.call("cli.main", cli.main, (cli_args,))
    with open(spans_path, "w") as fh:
        json.dump({"run": run_id, "missing": missing, "exit": code, "spans": tracer.spans}, fh)
    return code


# ---- aggregation, in the benchmark process --------------------------------

def _by_name(doc):
    """Self seconds, calls and summed counters per span name of one traced process."""
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    agg = {}
    for span, child in zip(spans, covered):
        entry = agg.setdefault(span["name"], {"self": 0.0, "total": 0.0, "calls": 0})
        entry["self"] += span["end"] - span["start"] - child
        entry["total"] += span["end"] - span["start"]
        entry["calls"] += 1
        counts = span.get("counts", {})
        entry["broken"] = entry.get("broken", False) or "error" in counts
        for key, value in counts.items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return agg


def _get(agg, name, key="self"):
    """A summed field of one span name; 0 if the layer never ran, KeyError if its counters failed."""
    entry = agg.get(name)
    if entry is None:
        return 0
    if entry["broken"] and key not in ("self", "total", "calls"):
        raise KeyError(f"{name}.{key}")
    return entry[key]


def _ratio(num, den):
    return num / den if den else 0.0


# metric -> (unit, span names it is fed by, value from (command spans, setup spans, info))
LAYER_METRICS = {
    "kinematics.read_s": ("s", ("kinematics.read",), lambda a, s, i: _get(a, "kinematics.read")),
    "kinematics.build_s": ("s", ("kinematics.build",), lambda a, s, i: _get(a, "kinematics.build")),
    "kinematics.records": ("count", ("kinematics.read",),
                           lambda a, s, i: i["records"] * _get(a, "kinematics.read", "calls")),
    "kinematics.trajectories": ("count", ("kinematics.read",),
                                lambda a, s, i: _get(a, "kinematics.read", "trajectories")),
    "kinematics.samples": ("count", ("kinematics.read",),
                           lambda a, s, i: _get(a, "kinematics.read", "samples")),
    "kinematics.read_mb_per_s": ("MB/s", ("kinematics.read",), lambda a, s, i: _ratio(
        _get(a, "kinematics.read", "bytes") / 1e6, _get(a, "kinematics.read", "total"))),
    "labeling.read_s": ("s", ("labeling.read",), lambda a, s, i: _get(a, "labeling.read")),
    "labeling.vote_s": ("s", ("labeling.vote",), lambda a, s, i: _get(a, "labeling.vote")),
    "labeling.vote_calls": ("count", ("labeling.vote",),
                            lambda a, s, i: _get(a, "labeling.vote", "calls")),
    "detector.detect_many_s": ("s", ("detector.detect_many",),
                               lambda a, s, i: _get(a, "detector.detect_many")),
    "detector.events": ("count", ("detector.detect_many",),
                        lambda a, s, i: _get(a, "detector.detect_many", "events")),
    "detector.write_s": ("s", ("detector.write",), lambda a, s, i: _get(a, "detector.write")),
    "detector.gaze_s": ("s", ("detector.gaze",), lambda a, s, i: _get(a, "detector.gaze")),
    "detector.gaze_calls": ("count", ("detector.gaze",),
                            lambda a, s, i: _get(a, "detector.gaze", "calls")),
    "detector.gaze_rays": ("count", ("detector.gaze",),
                           lambda a, s, i: _get(a, "detector.gaze", "rays")),
    "detector.candidate_frac": ("ratio", ("detector.gaze",), lambda a, s, i: _ratio(
        _get(a, "detector.gaze", "candidates"), _get(a, "detector.gaze", "rays"))),
    "calibration.sweep_s": ("s", ("calibration.sweep",),
                            lambda a, s, i: _get(a, "calibration.sweep")),
    "calibration.grid_points": ("count", ("calibration.sweep",),
                                lambda a, s, i: _get(a, "calibration.sweep", "grid_points")),
    "calibration.counts_at_s": ("s", ("calibration.counts_at",),
                                lambda a, s, i: _get(a, "calibration.counts_at")),
    "calibration.counts_at_calls": ("count", ("calibration.counts_at",),
                                    lambda a, s, i: _get(a, "calibration.counts_at", "calls")),
    "cli.self_s": ("s", (), lambda a, s, i: _get(a, "cli.main")),
    "cli.startup_s": ("s", (), lambda a, s, i: i["traced_wall_s"] - _get(a, "cli.main", "total")),
    "synth.generate_s": ("s", ("synth.generate",), lambda a, s, i: _get(s, "synth.generate")),
    "synth.write_s": ("s", ("synth.write",), lambda a, s, i: _get(s, "synth.write")),
    "synth.plant_s": ("s", ("synth.plant", "kinematics.build"),
                      lambda a, s, i: _get(s, "synth.plant") + _get(s, "kinematics.build")),
    "synth.plant_calls": ("count", ("synth.plant",), lambda a, s, i: _get(s, "synth.plant", "calls")),
    "trace.overhead_s": ("s", (), lambda a, s, i: i["overhead_s"]),
}


def layer_metrics(command_docs, setup_doc, info):
    """Per-layer metrics: medians over the traced commands, plus the names reported absent.

    `info[k]` holds the traced command's wall time in `traced_wall_s`, and
    the input record count and tracing overhead, shared by all commands.
    """
    missing = set(setup_doc["missing"]).union(*(d["missing"] for d in command_docs))
    missing_spans = {name for module, attr, name, _ in TARGETS if f"{module}.{attr}" in missing}
    setup = _by_name(setup_doc)
    per_command = [(_by_name(doc), cmd_info) for doc, cmd_info in zip(command_docs, info)]
    metrics, absent = {}, []
    for metric, (unit, fed_by, value) in LAYER_METRICS.items():
        try:
            if missing_spans.intersection(fed_by):
                raise KeyError(metric)
            values = [value(agg, setup, cmd_info) for agg, cmd_info in per_command]
        except KeyError:
            absent.append(metric)
            continue
        metrics[metric] = {"value": statistics.median(values), "unit": unit}
    return metrics, absent


def accounting(doc, traced_wall_s):
    """Traced wall split into the self times of every span and the interpreter's start and exit."""
    agg = _by_name(doc)
    main_total = _get(agg, "cli.main", "total")
    return {"traced_wall_s": traced_wall_s,
            "self_s": {name: entry["self"] for name, entry in sorted(agg.items())},
            "startup_and_exit_s": traced_wall_s - main_total}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
