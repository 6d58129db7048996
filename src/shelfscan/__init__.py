"""Shelf-visit detection and analytics for in-store shopper trajectories.

The pipeline: a 2D store layout (shelf faces with normals, obstacles) and
10 Hz tracked trajectories go in; per-timestamp shelf-stop Booleans, stop
events, calibration against human labels, and browsing/purchase analytics
come out. A synthetic scenario generator and a brute-force oracle make
the whole thing verifiable without any real store data.

Importing the package loads none of its modules, nor numpy: each public
name below is imported from its module on first access (PEP 562), so a
command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public names by the module that defines them
_EXPORTS = {
    "analytics": (
        "ConversionVector", "PurchaseRecord", "ShelfStats", "VisitVector",
        "conversion_rates", "read_purchases", "shelf_stats", "visit_vector",
    ),
    "calibration": (
        "CalibrationResult", "ConfusionCounts", "EvalReport", "MetricsReport", "ParamGrid",
        "calibrate", "confusion_counts", "confusion_counts_total", "counts_at", "cross_store_eval",
        "precision_recall_f1", "same_store_eval", "score_dataset",
    ),
    "detector": (
        "StopEvent", "StopMatrix", "StopParams", "detect_many", "detect_stops", "gaze_stream",
        "read_stop_events", "write_stop_events",
    ),
    "errors": ("ShelfScanError",),
    "kinematics": (
        "DEFAULT_WINDOW", "DT", "KinematicTrack", "Trajectory", "build_track", "low_pass_positions",
        "read_trajectories", "wrap_angle", "write_trajectories",
    ),
    "labeling": (
        "ReviewerLabel", "VisitMatrix", "labels_from_stop_events", "majority_vote", "read_labels",
        "write_labels",
    ),
    "layout": (
        "Obstacle", "Portal", "Segment2D", "Shelf", "StoreLayout", "all_segments", "load_layout",
        "save_layout",
    ),
    "oracle": ("brute_force_stops",),
    "synth": (
        "GroundTruth", "LayoutTemplate", "ScenarioSpec", "ShopperScript", "Waypoint",
        "browsing_script", "generate", "make_layout", "population_scenario", "random_scenario",
        "read_scenario", "stand_point", "write_scenario",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
