"""The benchmark's tracer wraps program functions by name; each name must still resolve."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# argument names the tracer's counters read from the bound call of each function they count
COUNTED_ARGS = {
    "read_trajectories": {"path"},
    "calibrate": {"grid"},
    "same_store_eval": {"grid", "repeats"},
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_trace_points_resolve():
    tracer = load_tracer()
    assert tracer.TARGETS
    for module_name, attr, _, _ in tracer.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} no longer resolves to a callable"


def test_counted_arguments_are_still_parameters():
    tracer = load_tracer()
    readers = (tracer._read_counts, tracer._grid_points)
    counted = {attr for _, attr, _, counters in tracer.TARGETS if counters in readers}
    assert counted == set(COUNTED_ARGS)
    for module_name, attr, _, counters in tracer.TARGETS:
        if counters in readers:
            fn = getattr(importlib.import_module(module_name), attr)
            params = inspect.signature(fn).parameters
            missing = COUNTED_ARGS[attr] - set(params)
            assert not missing, f"{module_name}.{attr} lost parameters {sorted(missing)}"
