"""Command-line pipelines: detect, calibrate, evaluate, analyze, synth.

Every command reads plain files, writes fixed-name artifacts into --out,
and embeds its fully resolved configuration in the JSON reports it
produces, so a report is enough to rerun the experiment. Identical inputs
and seeds give byte-identical outputs except for the generated_at
metadata field. Flags override config-file values; numeric defaults live
in _DEFAULTS below.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

# No command calls BLAS, yet OpenBLAS starts a thread pool when numpy is
# imported, and its threads spin for tens of milliseconds of CPU before they
# sleep. Set before the first numpy import, which reads it once; set here, not
# in the package, so that library users keep their pool. A value already in
# the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import calibration, detector, labeling
from .detector import (
    StopParams,
    detect_file,
    detect_many,
    detect_stops,
    read_stop_events,
    write_stop_events,
)
from .errors import ShelfScanError, UnknownTrajectory, non_negative
from .kinematics import (
    DEFAULT_WINDOW,
    RECORD_BYTES_PER_SAMPLE,
    batches,
    build_track,
    check_window,
    default_jobs,
    fork_map,
    map_file,
    range_count,
    trajectory_record,
)

# no command calls these two; perfbench/tracer.py wraps them by these names
from .kinematics import read_trajectories, write_trajectories  # noqa: F401
from .layout import load_layout, save_layout

_DEFAULTS = {
    "window": DEFAULT_WINDOW,
    "seed": 0,
    "repeats": 10,
    **{f"{name}_range": list(rng) for name, rng in asdict(calibration.ParamGrid()).items()},
}

# config keys by the JSON type their flags take; other keys are ignored
_INT_KEYS = {"window", "seed", "repeats", "jobs", "population", "shelves", "scenarios", "max_len",
             "cross_repeats"}
_NUMBER_KEYS = {"t_b", "delta_b", "v_b", "noise", "p"}
_RANGE_KEYS = {"t_b_range", "delta_b_range", "v_b_range"}


def _timestamp():
    return datetime.now(timezone.utc).isoformat()


def _load_config(args):
    """The --config file's JSON object, {} without one; a value its flag would refuse is a usage error."""
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        with open(path, "rb") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not UTF-8 JSON
        _usage_error(f"config {path}: {exc}")
    if not isinstance(cfg, dict):
        _usage_error(f"config {path}: must be a JSON object, got {json.dumps(cfg):.60}")

    def number(value):
        return type(value) in (int, float)  # a bool is neither

    for key, value in cfg.items():
        if key == "p" and args.command == "eval-same" and isinstance(value, list):
            kind, ok = "a JSON number or a list of them", value and all(map(number, value))
        elif key in _INT_KEYS:
            kind, ok = "a JSON integer", type(value) is int
        elif key in _NUMBER_KEYS:
            kind, ok = "a JSON number", number(value)
        elif key in _RANGE_KEYS:
            kind, ok = "three JSON numbers", (isinstance(value, list) and len(value) == 3
                                              and all(map(number, value)))
        else:
            continue
        if not ok:
            _usage_error(f"config {path}: {key} must be {kind}, got {json.dumps(value)}")
    return cfg


def _opt(args, cfg, key, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key, None)
    return val if val is not None else cfg.get(key, _DEFAULTS.get(key, default))


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _require_paths(*paths):
    for p in paths:
        if p is None:
            continue
        if not os.path.exists(p):
            _usage_error(f"path does not exist: {p}")


def _grid_from(args, cfg) -> calibration.ParamGrid:
    return calibration.ParamGrid(*(tuple(map(float, _opt(args, cfg, f"{name}_range")))
                                   for name in ("t_b", "delta_b", "v_b")))


def _params_from(args, cfg) -> StopParams:
    values = {key: _opt(args, cfg, key) for key in ("t_b", "delta_b", "v_b")}
    missing = [k for k, v in values.items() if v is None]
    if missing:
        _usage_error(f"missing detector parameters: {', '.join(missing)} "
                     f"(pass --t-b/--delta-b/--v-b or a config file)")
    return StopParams(**{key: float(value) for key, value in values.items()})


def _artifact(args, name):
    """The path of artifact `name` in --out, which is created at the first write."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_labeled(trajectories_path, labels_path, layout, window, grid, jobs, fold=False):
    """calibration.prepare_file on a trajectory file and its labels, on the grid.

    The labels manifest is expected next to the labels file with the
    .manifest.json suffix replacing .jsonl.
    """
    manifest_path = _manifest_path(labels_path)
    _require_paths(manifest_path)
    n_reviewers, _ = labeling.read_label_manifest(manifest_path)
    labels = labeling.read_labels(labels_path)
    return calibration.prepare_file(trajectories_path, labels, n_reviewers, layout, grid, window,
                                    jobs=jobs, fold=fold)


def _jobs(args, cfg):
    """Worker count: --jobs, else config `jobs`, else default_jobs()."""
    jobs = _opt(args, cfg, "jobs")
    try:
        jobs = default_jobs() if jobs is None else int(jobs)
    except ValueError as exc:
        _usage_error(exc)
    if jobs < 1:
        _usage_error(f"--jobs must be at least 1, got {jobs}")
    return jobs


def _manifest_path(labels_path):
    base = str(labels_path)
    if base.endswith(".jsonl"):
        return base[:-len(".jsonl")] + ".manifest.json"
    return base + ".manifest.json"


def cmd_detect(args):
    cfg = _load_config(args)
    _require_paths(args.layout, args.trajectories)
    layout = load_layout(args.layout)
    window = int(_opt(args, cfg, "window"))
    params = _params_from(args, cfg)
    n_tracks, events, stopped = detect_file(args.trajectories, layout, params, window, _jobs(args, cfg))

    write_stop_events(events, _artifact(args, "stops.jsonl"))
    # sparse long form: rows only where S = 1
    with open(_artifact(args, "stop_matrix.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory_id", "shelf_id", "k", "t", "S"])
        for ev, (k_s, times) in zip(events, stopped):
            writer.writerows([ev.trajectory_id, ev.shelf_id, k, repr(t), 1]
                             for k, t in enumerate(times, start=k_s))
    print(f"detect: {len(events)} stop events over {n_tracks} trajectories -> {args.out}")
    return 0


def cmd_calibrate(args):
    cfg = _load_config(args)
    _require_paths(args.layout, args.trajectories, args.labels)
    layout = load_layout(args.layout)
    window = int(_opt(args, cfg, "window"))
    grid = _grid_from(args, cfg)
    dataset = _prepare_labeled(args.trajectories, args.labels, layout, window, grid, _jobs(args, cfg),
                               fold=True)
    result = calibration.calibrate(dataset, layout, grid)
    report = {
        "best_params": asdict(result.best_params),
        "best_f1": result.best_f1,
        "precision": result.metrics.precision,
        "recall": result.metrics.recall,
        "counts": asdict(result.metrics.counts),
        "n_trajectories": len(dataset),
        "config": _resolved_config(args, cfg, ["window", "t_b_range", "delta_b_range", "v_b_range"]),
        "generated_at": _timestamp(),
    }
    _write_json(report, _artifact(args, "calibration.json"))
    if args.dump_grid:
        with open(_artifact(args, "grid.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_b", "delta_b", "v_b", "tp", "fp", "fn", "precision", "recall", "f1"])
            for row in result.score_rows():
                writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    print(f"calibrate: best F1 {result.best_f1:.4f} at "
          f"(t_b={result.best_params.t_b:.3g}, delta_b={result.best_params.delta_b:.3g}, "
          f"v_b={result.best_params.v_b:.3g})")
    return 0


def _resolved_config(args, cfg, keys):
    return {key: _opt(args, cfg, key) for key in keys}


def _write_repeats(reports, path):
    """eval_repeats.csv: one row per repeat of every report, in order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "repeat", "f1", "mean_f1", "stderr_f1"])
        for rep in reports:
            for i, score in enumerate(rep.scores):
                writer.writerow([repr(rep.p), i, repr(score), repr(rep.mean), repr(rep.stderr)])


def cmd_eval_same(args):
    cfg = _load_config(args)
    _require_paths(args.layout, args.trajectories, args.labels)
    layout = load_layout(args.layout)
    window = int(_opt(args, cfg, "window"))
    grid = _grid_from(args, cfg)
    seed = int(_opt(args, cfg, "seed"))
    repeats = int(_opt(args, cfg, "repeats"))
    fractions = _opt(args, cfg, "p", [0.5])
    if not isinstance(fractions, list):
        fractions = [fractions]
    dataset = _prepare_labeled(args.trajectories, args.labels, layout, window, grid, _jobs(args, cfg))

    reports = [
        calibration.same_store_eval(dataset, layout, grid, p=float(p), repeats=repeats, seed=seed)
        for p in fractions
    ]
    doc = {
        "reports": [r.to_dict() for r in reports],
        "config": _resolved_config(args, cfg, ["window", "seed", "repeats",
                                               "t_b_range", "delta_b_range", "v_b_range"]),
        "generated_at": _timestamp(),
    }
    _write_json(doc, _artifact(args, "eval.json"))
    _write_repeats(reports, _artifact(args, "eval_repeats.csv"))
    for rep in reports:
        print(f"eval-same: p={rep.p:g} mean F1 {rep.mean:.4f} +/- {rep.stderr:.4f} "
              f"over {rep.repeats} repeats")
    return 0


def cmd_eval_cross(args):
    cfg = _load_config(args)
    _require_paths(args.layout_a, args.trajectories_a, args.labels_a,
                   args.layout_b, args.trajectories_b, args.labels_b)
    window = int(_opt(args, cfg, "window"))
    grid = _grid_from(args, cfg)
    seed = int(_opt(args, cfg, "seed"))
    jobs = _jobs(args, cfg)
    layout_a = load_layout(args.layout_a)
    layout_b = load_layout(args.layout_b)
    dataset_a = _prepare_labeled(args.trajectories_a, args.labels_a, layout_a, window, grid, jobs)
    # cross_store_eval reads the test side only as every trip's totals
    dataset_b = _prepare_labeled(args.trajectories_b, args.labels_b, layout_b, window, grid, jobs,
                                 fold=True)
    report = calibration.cross_store_eval(
        dataset_a, layout_a, dataset_b, layout_b, grid,
        p=float(_opt(args, cfg, "p", 1.0)),
        seed=seed,
        repeats=int(_opt(args, cfg, "cross_repeats", 1)),
    )
    doc = {
        "report": report.to_dict(),
        "config": _resolved_config(args, cfg, ["window", "seed",
                                               "t_b_range", "delta_b_range", "v_b_range"]),
        "generated_at": _timestamp(),
    }
    _write_json(doc, _artifact(args, "eval.json"))
    _write_repeats([report], _artifact(args, "eval_repeats.csv"))
    print(f"eval-cross: {layout_a.store_id} -> {layout_b.store_id} mean F1 {report.mean:.4f}")
    return 0


def _trajectory_ids(trajectories):
    """analyze's map_file stage: the ids of a range's gap-split trajectories, in file order."""
    return [traj.trajectory_id for traj in trajectories]


def cmd_analyze(args):
    from . import analytics

    cfg = _load_config(args)
    _require_paths(args.layout, args.trajectories, args.stops, args.purchases)
    layout = load_layout(args.layout)
    trajectory_ids = map_file(args.trajectories, _trajectory_ids, (), _jobs(args, cfg))
    events = read_stop_events(args.stops)
    by_traj = {tid: [] for tid in trajectory_ids}
    for ev in events:
        if ev.trajectory_id not in by_traj:
            raise UnknownTrajectory(f"stop event references unknown trajectory {ev.trajectory_id!r}")
        by_traj[ev.trajectory_id].append(ev)
    vectors = [
        analytics.visit_vector(evs, layout.n_shelves, trajectory_id=tid)
        for tid, evs in by_traj.items()
    ]
    stats = analytics.shelf_stats(vectors)
    with open(_artifact(args, "shelf_stats.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shelf_id", "avg_visits_per_trip"])
        for j, avg in enumerate(stats.per_shelf, start=1):
            writer.writerow([j, repr(avg)])
    summary = {
        "n_trajectories": stats.n_trips,
        "n_shelves": layout.n_shelves,
        "overall_avg_visits_per_trip": stats.overall_avg_visits,
        "config": {
            "layout": str(args.layout),
            "trajectories": str(args.trajectories),
            "stops": str(args.stops),
            "purchases": None if args.purchases is None else str(args.purchases),
            "incidence": bool(args.incidence),
        },
        "generated_at": _timestamp(),
    }
    if args.purchases:
        purchases = analytics.read_purchases(args.purchases)
        conv = analytics.conversion_rates(stats, purchases, incidence=bool(args.incidence))
        with open(_artifact(args, "conversion.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["shelf_id", "avg_visits_per_trip", "avg_purchases_per_trip",
                             "conversion_pct"])
            for j in range(layout.n_shelves):
                rate = conv.rates[j]
                writer.writerow([
                    j + 1,
                    repr(conv.visit_avg[j]),
                    repr(conv.purchase_avg[j]),
                    "" if rate is None else repr(rate * 100.0),
                ])
        summary["n_purchase_records"] = len(purchases)
    _write_json(summary, _artifact(args, "summary.json"))
    print(f"analyze: {stats.n_trips} trips, "
          f"{stats.overall_avg_visits:.3f} average visits per trip")
    return 0


def _synth_batch(trajectories, layout, params, window):
    """synth's fork_map stage: (lines, labels) for a batch of trajectories.

    lines are the batch's trajectories.jsonl lines as bytes; labels are
    those detect_many plants at `params` on the batch's tracks, or [] when
    params is None.
    """
    lines = "".join(map(trajectory_record, trajectories)).encode()
    if params is None:
        return lines, []
    tracks = [build_track(traj, window) for traj in trajectories]
    return lines, [lab for events in detect_many(tracks, layout, params)
                   for lab in labeling.labels_from_stop_events(events, reviewer_id="auto")]


def cmd_synth(args):
    """Generate the scenario in process, then format its records and plant its labels in batches.

    Each batch of detector.GAZE_BATCH trajectories goes to a child that
    fork_map forks for it, which returns its JSONL bytes and planted
    labels; the records are written in file order as the batches come
    back. A child leaves through os._exit, so the bytes buffered in the
    open trajectories.jsonl are written once, by this process. At most one
    child runs per 1 MiB of JSONL (range_count, the rule map_file reads
    the file back by), so a store under 2 MiB is written in process. The
    artifacts do not depend on --jobs.
    """
    from . import synth

    cfg = _load_config(args)
    jobs = _jobs(args, cfg)
    params = window = None
    if args.plant:
        try:
            t_b, delta_b, v_b = (float(x) for x in args.plant.split(","))
        except ValueError:
            _usage_error(f"--plant takes three comma-separated numbers T,D,V, got {args.plant!r}")
        params = StopParams(t_b=t_b, delta_b=delta_b, v_b=v_b)  # rejects bad values before any write
        window = check_window(int(_opt(args, cfg, "window")))
    if args.spec:
        _require_paths(args.spec)
        spec = synth.read_scenario(args.spec)
    else:
        spec = synth.population_scenario(
            seed=int(_opt(args, cfg, "seed")),
            n_trajectories=int(_opt(args, cfg, "population", 50)),
            n_shelves=int(_opt(args, cfg, "shelves", 19)),
            noise=float(_opt(args, cfg, "noise", 0.0)),
        )
    trajectories, truth, layout = synth.generate(spec)
    save_layout(layout, _artifact(args, "layout.json"))
    workers = range_count(RECORD_BYTES_PER_SAMPLE * sum(map(len, trajectories)), jobs)
    tasks = ((batch, layout, params, window) for batch in batches(trajectories, detector.GAZE_BATCH))
    labels = []
    with open(_artifact(args, "trajectories.jsonl"), "wb") as fh:
        for lines, planted in fork_map(_synth_batch, tasks, workers):
            fh.write(lines)
            labels.extend(planted)
    synth.write_ground_truth(truth, _artifact(args, "ground_truth.json"))
    if args.plant:
        labels_path = _artifact(args, "labels.jsonl")
        labeling.write_labels(labels, labels_path)
        labeling.write_label_manifest(1, ["auto"], _manifest_path(labels_path))
    print(f"synth: wrote {len(trajectories)} trajectories, "
          f"{layout.n_shelves}-shelf layout -> {args.out}")
    return 0


def cmd_oracle_check(args):
    from . import synth
    from .oracle import brute_force_stops

    cfg = _load_config(args)
    seed = non_negative("seed", int(_opt(args, cfg, "seed")))
    scenarios = non_negative("scenarios", int(_opt(args, cfg, "scenarios", 100)))
    max_len = synth.check_max_len(int(_opt(args, cfg, "max_len", 2000)))
    window = int(_opt(args, cfg, "window"))
    checked = 0
    mismatch = None
    for i in range(scenarios):
        spec = synth.random_scenario(seed + i, max_len=max_len)
        trajectories, _, layout = synth.generate(spec)
        rng = np.random.default_rng(seed * 1_000_003 + i)
        params = StopParams(
            t_b=float(rng.uniform(0.3, 4.0)),
            delta_b=float(rng.uniform(0.3, 3.0)),
            v_b=float(rng.uniform(0.1, 1.5)),
        )
        for traj in trajectories:
            track = build_track(traj, window)
            _, fast = detect_stops(track, layout, params)
            slow = brute_force_stops(track, layout, params)
            checked += 1
            if not np.array_equal(fast.values, slow.values):
                diff = np.argwhere(fast.values != slow.values)
                shelf0, k = (int(x) for x in diff[0])
                mismatch = {
                    "scenario_seed": seed + i,
                    "trajectory_id": traj.trajectory_id,
                    "shelf_id": shelf0 + 1,
                    "k": k,
                    "detector": bool(fast.values[shelf0, k]),
                    "oracle": bool(slow.values[shelf0, k]),
                    "params": asdict(params),
                }
                break
        if mismatch:
            break
    report = {
        "passed": mismatch is None,
        "scenarios": scenarios,
        "trajectories_checked": checked,
        "first_counterexample": mismatch,
        "config": {"seed": seed, "max_len": max_len, "window": window},
        "generated_at": _timestamp(),
    }
    _write_json(report, _artifact(args, "oracle_check.json"))
    print(f"oracle-check: {'PASS' if mismatch is None else 'FAIL'} "
          f"({checked} trajectories over {scenarios} scenarios)")
    return 0 if mismatch is None else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shelfscan",
        description="Shelf-visit detection, calibration and analytics for shopper trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--window", type=int, help="odd smoothing window in samples (default 5)")

    p = sub.add_parser("detect", help="run the stop detector, write stops.jsonl + stop_matrix.csv")
    common(p)
    p.add_argument("--layout", required=True)
    p.add_argument("--trajectories", required=True)
    p.add_argument("--t-b", dest="t_b", type=float, help="minimum browsing time, s")
    p.add_argument("--delta-b", dest="delta_b", type=float, help="maximum shelf distance, m")
    p.add_argument("--v-b", dest="v_b", type=float, help="maximum browsing speed, m/s")
    _jobs_flag(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("calibrate", help="grid-search thresholds against labels, write calibration.json")
    common(p)
    p.add_argument("--layout", required=True)
    p.add_argument("--trajectories", required=True)
    p.add_argument("--labels", required=True, help="labels JSONL; manifest sits next to it")
    _grid_flags(p)
    _jobs_flag(p)
    p.add_argument("--dump-grid", action="store_true", help="also write per-point scores to grid.csv")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("eval-same", help="held-out evaluation within one store, write eval.json + CSV")
    common(p)
    p.add_argument("--layout", required=True)
    p.add_argument("--trajectories", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--p", type=float, nargs="+", help="calibration fraction(s) to sweep")
    p.add_argument("--repeats", type=int)
    p.add_argument("--seed", type=int)
    _grid_flags(p)
    _jobs_flag(p)
    p.set_defaults(func=cmd_eval_same)

    p = sub.add_parser("eval-cross", help="calibrate on store A, evaluate on all of store B")
    common(p)
    p.add_argument("--layout-a", required=True)
    p.add_argument("--trajectories-a", required=True)
    p.add_argument("--labels-a", required=True)
    p.add_argument("--layout-b", required=True)
    p.add_argument("--trajectories-b", required=True)
    p.add_argument("--labels-b", required=True)
    p.add_argument("--p", type=float, help="fraction of store A used to calibrate (default 1.0)")
    p.add_argument("--seed", type=int)
    _grid_flags(p)
    _jobs_flag(p)
    p.set_defaults(func=cmd_eval_cross)

    p = sub.add_parser("analyze", help="visit statistics and purchase conversion from stop events")
    common(p)
    p.add_argument("--layout", required=True)
    p.add_argument("--trajectories", required=True)
    p.add_argument("--stops", required=True, help="stops.jsonl from a detect run")
    p.add_argument("--purchases", help="CSV with trajectory_id, shelf_id, quantity")
    p.add_argument("--incidence", action="store_true",
                   help="count purchase incidence per trip instead of quantities")
    _jobs_flag(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic store, trajectories and ground truth")
    common(p)
    p.add_argument("--spec", help="scenario JSON; otherwise a random population is built")
    p.add_argument("--population", type=int, help="number of synthetic trips (no --spec)")
    p.add_argument("--shelves", type=int, help="shelf count (no --spec)")
    p.add_argument("--noise", type=float, help="position/heading jitter std (no --spec)")
    p.add_argument("--seed", type=int)
    p.add_argument("--plant", metavar="T,D,V",
                   help="also write labels produced by the detector at these thresholds")
    _jobs_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("oracle-check", help="compare detector against the brute-force oracle")
    common(p)
    p.add_argument("--scenarios", type=int, help="number of random scenarios (default 100)")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-len", dest="max_len", type=int, help="max trajectory length in samples")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def _grid_flags(p):
    p.add_argument("--t-b-range", dest="t_b_range", type=float, nargs=3,
                   metavar=("MIN", "MAX", "STEP"))
    p.add_argument("--delta-b-range", dest="delta_b_range", type=float, nargs=3,
                   metavar=("MIN", "MAX", "STEP"))
    p.add_argument("--v-b-range", dest="v_b_range", type=float, nargs=3,
                   metavar=("MIN", "MAX", "STEP"))


def _jobs_flag(p):
    p.add_argument("--jobs", type=int, help="worker processes (default: SHELFSCAN_JOBS or usable CPUs)")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            _usage_error(f"--out is not a directory: {args.out}")
        return args.func(args)
    except ShelfScanError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except OSError as exc:  # a missing, unreadable or misplaced path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse usage errors and path checks
        return exc.code if exc.code is not None else 0


if __name__ == "__main__":
    raise SystemExit(main())
