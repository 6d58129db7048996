"""Shelf-visit detection and analytics for in-store shopper trajectories.

The pipeline: a 2D store layout (shelf faces with normals, obstacles) and
10 Hz tracked trajectories go in; per-timestamp shelf-stop Booleans, stop
events, calibration against human labels, and browsing/purchase analytics
come out. A synthetic scenario generator and a brute-force oracle make
the whole thing verifiable without any real store data.
"""

from .analytics import (
    ConversionVector,
    PurchaseRecord,
    ShelfStats,
    VisitVector,
    conversion_rates,
    read_purchases,
    shelf_stats,
    visit_vector,
)
from .calibration import (
    CalibrationResult,
    ConfusionCounts,
    EvalReport,
    MetricsReport,
    ParamGrid,
    calibrate,
    confusion_counts,
    confusion_counts_total,
    counts_at,
    cross_store_eval,
    precision_recall_f1,
    same_store_eval,
    score_dataset,
)
from .detector import (
    StopEvent,
    StopMatrix,
    StopParams,
    detect_many,
    detect_stops,
    gaze_stream,
    read_stop_events,
    write_stop_events,
)
from .errors import ShelfScanError
from .kinematics import (
    DEFAULT_WINDOW,
    DT,
    KinematicTrack,
    RawSample,
    Trajectory,
    build_track,
    low_pass_positions,
    read_trajectories,
    wrap_angle,
    write_trajectories,
)
from .labeling import (
    ReviewerLabel,
    VisitMatrix,
    labels_from_stop_events,
    majority_vote,
    read_labels,
    write_labels,
)
from .layout import (
    Obstacle,
    Portal,
    Segment2D,
    Shelf,
    StoreLayout,
    all_segments,
    load_layout,
    save_layout,
)
from .oracle import brute_force_stops
from .synth import (
    GroundTruth,
    LayoutTemplate,
    ScenarioSpec,
    ShopperScript,
    Waypoint,
    browsing_script,
    generate,
    make_layout,
    population_scenario,
    random_scenario,
    read_scenario,
    stand_point,
    write_scenario,
)

__version__ = "0.1.0"
