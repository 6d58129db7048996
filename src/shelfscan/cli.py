"""Command-line pipelines: detect, calibrate, evaluate, analyze, synth.

Every command reads plain files, writes fixed-name artifacts into --out,
and embeds its fully resolved configuration in the JSON reports it
produces, so a report is enough to rerun the experiment. Identical inputs
and seeds give byte-identical outputs except for the generated_at
metadata field. Flags override config-file values, which override each
flag's default.

A command imports the package modules it runs when it runs, so detect
loads only layout, kinematics and detector. main() returns the exit code
and is what library callers and tests call; run(), the `shelfscan`
console script and `python -m shelfscan.cli`, flushes stdout and stderr
after it and leaves through os._exit, skipping the interpreter's
teardown: every artifact has been closed by then, every forked worker
reaped, and the package registers no atexit hook. A summary line or help
that stdout refuses is exit 120 from main(), as a failed flush is from
run(): a command says it last, so its artifacts are complete.
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

from .detector import (
    STOP_MATRIX_HEADER,
    StopParams,
    _detect_batch,
    detect_file,
    detect_stops,
    read_stop_events,
)
from .errors import ParseError, ShelfScanError, UnknownTrajectory, non_negative
from .kinematics import (
    DEFAULT_WINDOW,
    Pieces,
    batches,
    build_track,
    build_tracks,
    check_window,
    default_jobs,
    fork_map,
    json_field,
    map_file,
    read_document,
    trajectory_record,
    write_document,
)

# no command calls these four; perfbench/tracer.py wraps them by these names
from .detector import detect_many, write_stop_events  # noqa: F401
from .kinematics import read_trajectories, write_trajectories  # noqa: F401
from .layout import load_layout, save_layout

# config keys and the annotations their values convert by (kinematics.json_field); other keys are ignored
_CONFIG_KEYS = {**dict.fromkeys(["window", "seed", "repeats", "jobs", "population", "shelves", "scenarios",
                                 "max_len", "cross_repeats"], int),
                **dict.fromkeys(["t_b", "delta_b", "v_b", "noise", "p"], float),
                **dict.fromkeys(["t_b_range", "delta_b_range", "v_b_range"], tuple[float, float, float])}


def _timestamp():
    return datetime.now(timezone.utc).isoformat()


def _load_config(args):
    """The --config file's known keys and their values, which main makes the command's defaults.

    Each value converts by its key's annotation (kinematics.json_field), as
    every JSON reader's do, and eval-same's p may be a non-empty list. A
    value json_field refuses is a usage error; other keys are ignored.
    """
    path = args.config
    try:
        cfg = read_document(path, "config")
    except (OSError, ParseError) as exc:  # a ParseError's cause names the fault, without the path
        _usage_error(f"config {path}: {exc.__cause__ or exc}")
    known = {}
    for key, value in cfg.items():
        kind = _CONFIG_KEYS.get(key)
        if key == "p" and args.command == "eval-same" and type(value) is list and value:
            kind = tuple[float, ...]  # the fractions eval-same sweeps
        if kind is not None:
            try:
                known[key] = json_field(value, kind, key)
            except (TypeError, OverflowError) as exc:
                _usage_error(f"config {path}: {exc}")
    return known


class _StdoutLost(Exception):
    """Standard output refused what a command wrote to it: exit 120, as run()'s failed flush."""


def _say(text, end="\n"):
    """Print a command's summary line, or its help, to stdout; an OSError there is _StdoutLost.

    A command says it last, once every artifact is closed, so the run is
    complete whether or not stdout takes the line.
    """
    try:
        print(text, end=end)
    except OSError as exc:
        raise _StdoutLost from exc


class _Parser(argparse.ArgumentParser):
    """argparse, but --help that stdout refuses is _StdoutLost: argparse would drop it and exit 0."""

    def print_help(self, file=None):
        if file is None:
            _say(self.format_help(), end="")
        else:
            super().print_help(file)


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _require_paths(*paths):
    for p in paths:
        if p is not None and not os.path.exists(p):
            _usage_error(f"path does not exist: {p}")


def _grid_from(args):
    """The ParamGrid of args' ranges, each that nothing set put on args as ParamGrid's.

    Only the commands that sweep a grid call this, so only they load calibration.
    """
    from .calibration import ParamGrid

    names, default = ("t_b", "delta_b", "v_b"), ParamGrid()
    for name in names:
        if getattr(args, f"{name}_range") is None:
            setattr(args, f"{name}_range", list(getattr(default, name)))
    return ParamGrid(*(tuple(getattr(args, f"{name}_range")) for name in names))


def _params_from(args) -> StopParams:
    values = {key: getattr(args, key) for key in ("t_b", "delta_b", "v_b")}
    missing = [k for k, v in values.items() if v is None]
    if missing:
        _usage_error(f"missing detector parameters: {', '.join(missing)} "
                     f"(pass --t-b/--delta-b/--v-b or a config file)")
    return StopParams(**values)


def _artifact(args, name):
    """The path of artifact `name` in --out, which is created at the first write."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _prepare_labeled(trajectories_path, labels_path, layout, window, axes, jobs, fold=False):
    """calibration.prepare_file on a trajectory file and its labels, on the checked grid's axes.

    The labels manifest is expected next to the labels file with the
    .manifest.json suffix replacing .jsonl.
    """
    from . import calibration, labeling

    manifest_path = _manifest_path(labels_path)
    _require_paths(manifest_path)
    n_reviewers = labeling.read_label_manifest(manifest_path)
    labels = labeling.read_labels(labels_path)
    return calibration.prepare_file(trajectories_path, labels, n_reviewers, layout, axes, window,
                                    jobs=jobs, fold=fold)


def _jobs(args):
    """Worker count: --jobs, else config `jobs`, else default_jobs()."""
    try:
        jobs = default_jobs() if args.jobs is None else args.jobs
    except ValueError as exc:
        _usage_error(exc)
    if jobs < 1:
        _usage_error(f"--jobs must be at least 1, got {jobs}")
    return jobs


def _manifest_path(labels_path):
    return str(labels_path).removesuffix(".jsonl") + ".manifest.json"


def cmd_detect(args):
    _require_paths(args.layout, args.trajectories)
    window = check_window(args.window)
    params = _params_from(args)
    layout = load_layout(args.layout)
    n_tracks, n_events, stops, rows = detect_file(args.trajectories, layout, params, window,
                                                  _jobs(args))
    # the range workers formatted both files; a failed run has returned before any is opened
    with open(_artifact(args, "stops.jsonl"), "wb") as fh:
        fh.writelines(stops)
    # sparse long form: rows only where S = 1
    with open(_artifact(args, "stop_matrix.csv"), "wb") as fh:
        fh.write(STOP_MATRIX_HEADER)
        fh.writelines(rows)
    _say(f"detect: {n_events} stop events over {n_tracks} trajectories -> {args.out}")
    return 0


def cmd_calibrate(args):
    from . import calibration

    _require_paths(args.layout, args.trajectories, args.labels)
    window, grid = args.window, _grid_from(args)
    axes = calibration.check_request(grid, window)
    layout = load_layout(args.layout)
    dataset = _prepare_labeled(args.trajectories, args.labels, layout, window, axes, _jobs(args),
                               fold=True)
    result = calibration.calibrate(dataset, layout, grid)
    report = {
        "best_params": asdict(result.best_params),
        "best_f1": result.best_f1,
        "precision": result.metrics.precision,
        "recall": result.metrics.recall,
        "counts": asdict(result.metrics.counts),
        "n_trajectories": len(dataset),
        "config": _resolved_config(args, ["window", "t_b_range", "delta_b_range", "v_b_range"]),
        "generated_at": _timestamp(),
    }
    write_document(report, _artifact(args, "calibration.json"))
    if args.dump_grid:
        with open(_artifact(args, "grid.csv"), "w", newline="") as fh:
            fh.writelines(result.grid_lines())
    _say(f"calibrate: best F1 {result.best_f1:.4f} at "
          f"(t_b={result.best_params.t_b:.3g}, delta_b={result.best_params.delta_b:.3g}, "
          f"v_b={result.best_params.v_b:.3g})")
    return 0


def _resolved_config(args, keys):
    return {key: getattr(args, key) for key in keys}


def _write_repeats(reports, path):
    """eval_repeats.csv: one row per repeat of every report, in order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "repeat", "f1", "mean_f1", "stderr_f1"])
        for rep in reports:
            for i, score in enumerate(rep.scores):
                writer.writerow([repr(rep.p), i, repr(score), repr(rep.mean), repr(rep.stderr)])


def cmd_eval_same(args):
    from . import calibration

    _require_paths(args.layout, args.trajectories, args.labels)
    window, grid, seed, repeats = args.window, _grid_from(args), args.seed, args.repeats
    fractions = args.p if isinstance(args.p, (list, tuple)) else [args.p]
    for p in fractions:
        axes = calibration.check_request(grid, window, "same-store", p, repeats, seed)
    layout = load_layout(args.layout)
    dataset = _prepare_labeled(args.trajectories, args.labels, layout, window, axes, _jobs(args))

    reports = [
        calibration.same_store_eval(dataset, layout, grid, p=p, repeats=repeats, seed=seed)
        for p in fractions
    ]
    doc = {
        "reports": [r.to_dict() for r in reports],
        "config": _resolved_config(args, ["window", "seed", "repeats",
                                          "t_b_range", "delta_b_range", "v_b_range"]),
        "generated_at": _timestamp(),
    }
    write_document(doc, _artifact(args, "eval.json"))
    _write_repeats(reports, _artifact(args, "eval_repeats.csv"))
    for rep in reports:
        _say(f"eval-same: p={rep.p:g} mean F1 {rep.mean:.4f} +/- {rep.stderr:.4f} "
              f"over {rep.repeats} repeats")
    return 0


def cmd_eval_cross(args):
    from . import calibration

    _require_paths(args.layout_a, args.trajectories_a, args.labels_a,
                   args.layout_b, args.trajectories_b, args.labels_b)
    window, grid, seed = args.window, _grid_from(args), args.seed
    p, repeats = args.p, args.cross_repeats
    axes = calibration.check_request(grid, window, "cross-store", p, repeats, seed)
    jobs = _jobs(args)
    layout_a = load_layout(args.layout_a)
    layout_b = load_layout(args.layout_b)
    dataset_a = _prepare_labeled(args.trajectories_a, args.labels_a, layout_a, window, axes, jobs)
    # cross_store_eval reads the test side only as every trip's totals
    dataset_b = _prepare_labeled(args.trajectories_b, args.labels_b, layout_b, window, axes, jobs,
                                 fold=True)
    report = calibration.cross_store_eval(dataset_a, layout_a, dataset_b, layout_b, grid,
                                          p=p, seed=seed, repeats=repeats)
    doc = {
        "report": report.to_dict(),
        "config": _resolved_config(args, ["window", "seed", "t_b_range", "delta_b_range", "v_b_range"]),
        "generated_at": _timestamp(),
    }
    write_document(doc, _artifact(args, "eval.json"))
    _write_repeats([report], _artifact(args, "eval_repeats.csv"))
    _say(f"eval-cross: {layout_a.store_id} -> {layout_b.store_id} mean F1 {report.mean:.4f}")
    return 0


def _trajectory_ids(read):
    """analyze's map_file stage: the ids of a range's gap-split trajectories, in file order."""
    return [trajectory_id for pieces in read() for trajectory_id in pieces.ids]


def cmd_analyze(args):
    from . import analytics

    _require_paths(args.layout, args.trajectories, args.stops, args.purchases)
    check_window(args.window)  # analyze smooths nothing, but takes --window
    layout = load_layout(args.layout)
    # the side files first; what they say of the trajectories is checked once those are read
    events = read_stop_events(args.stops)
    purchases = analytics.read_purchases(args.purchases) if args.purchases else None
    trajectory_ids = map_file(args.trajectories, _trajectory_ids, (), _jobs(args))
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
    # a purchase the trips or the layout lack is an error before any artifact is opened
    conv = None if purchases is None else analytics.conversion_rates(stats, purchases, bool(args.incidence))
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
    if conv is not None:
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
    write_document(summary, _artifact(args, "summary.json"))
    _say(f"analyze: {stats.n_trips} trips, "
          f"{stats.overall_avg_visits:.3f} average visits per trip")
    return 0


def _synth_batch(trajectories, layout, params, window):
    """synth's fork_map stage: (lines, labels) for a batch of trajectories.

    lines are the batch's trajectories.jsonl lines as bytes; labels are
    those planted at `params` on the batch, or [] when params is None, by
    the calls detector._detect_range makes on a batch of records.
    """
    lines = "".join(map(trajectory_record, trajectories)).encode()
    if params is None:
        return lines, []
    from . import labeling

    tracks = build_tracks(Pieces.join(trajectories), window)
    return lines, labeling.labels_from_stop_events(_detect_batch(tracks, layout, params)[3],
                                                   reviewer_id="auto")


def cmd_synth(args):
    """Realize the scenario in process as its batches take it, then format and plant each batch.

    Each batch (batches) goes to fork_map, at --jobs workers, which runs
    it in a child forked for it, or in process for a store of one batch;
    the batch comes back as its JSONL bytes and planted labels, and the
    records are written in file order as the batches come back. A child
    leaves through os._exit, so the bytes buffered in the open
    trajectories.jsonl are written once, by this process. The artifacts do
    not depend on --jobs.
    """
    import orjson  # noqa: F401  here, so the batch children inherit it (kinematics.trajectory_record)

    from . import synth

    jobs = _jobs(args)
    params = None
    if args.plant:
        from . import labeling  # here, so the batch children inherit it

        try:
            t_b, delta_b, v_b = (float(x) for x in args.plant.split(","))
        except ValueError:
            _usage_error(f"--plant takes three comma-separated numbers T,D,V, got {args.plant!r}")
        params = StopParams(t_b=t_b, delta_b=delta_b, v_b=v_b)  # rejects bad values before any write
    window = check_window(args.window)  # checked whether or not it plants
    if args.spec:
        _require_paths(args.spec)
        spec = synth.read_scenario(args.spec)
    else:
        spec = synth.population_scenario(
            seed=args.seed,
            n_trajectories=args.population,
            n_shelves=args.shelves,
            noise=args.noise,
        )
    layout = synth.make_layout(spec.template, store_id=spec.store_id)
    episodes = {}
    trajectories = synth.realize(spec, layout, episodes)  # checks every script before any write
    save_layout(layout, _artifact(args, "layout.json"))
    tasks = ((batch, layout, params, window) for batch in batches(trajectories, len))
    labels = []
    with open(_artifact(args, "trajectories.jsonl"), "wb") as fh:
        for lines, planted in fork_map(_synth_batch, tasks, jobs):
            fh.write(lines)
            labels.extend(planted)
    synth.write_ground_truth(synth.GroundTruth(episodes), _artifact(args, "ground_truth.json"))
    if args.plant:
        labels_path = _artifact(args, "labels.jsonl")
        labeling.write_labels(labels, labels_path)
        labeling.write_label_manifest(1, ["auto"], _manifest_path(labels_path))
    _say(f"synth: wrote {len(episodes)} trajectories, "
          f"{layout.n_shelves}-shelf layout -> {args.out}")
    return 0


def cmd_oracle_check(args):
    from . import synth
    from .oracle import brute_force_stops

    seed = non_negative("seed", args.seed)
    scenarios = non_negative("scenarios", args.scenarios)
    max_len = synth.check_max_len(args.max_len)
    window = check_window(args.window)
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
    write_document(report, _artifact(args, "oracle_check.json"))
    _say(f"oracle-check: {'PASS' if mismatch is None else 'FAIL'} "
          f"({checked} trajectories over {scenarios} scenarios)")
    return 0 if mismatch is None else 1


def build_parser():
    parser = _Parser(
        prog="shelfscan",
        description="Shelf-visit detection, calibration and analytics for shopper trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # main makes a --config file a command's defaults

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                       help="odd smoothing window in samples (default %(default)s)")

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
    p.add_argument("--p", type=float, nargs="+", default=[0.5], help="calibration fraction(s) to sweep")
    p.add_argument("--repeats", type=int, default=10)
    _seed_flag(p)
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
    p.add_argument("--p", type=float, default=1.0,
                   help="fraction of store A used to calibrate (default %(default)s)")
    _seed_flag(p)
    _grid_flags(p)
    _jobs_flag(p)
    p.set_defaults(func=cmd_eval_cross, cross_repeats=1)  # cross_repeats is a config key only

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
    p.add_argument("--population", type=int, default=50, help="number of synthetic trips (no --spec)")
    p.add_argument("--shelves", type=int, default=19, help="shelf count (no --spec)")
    p.add_argument("--noise", type=float, default=0.0, help="position/heading jitter std (no --spec)")
    _seed_flag(p)
    p.add_argument("--plant", metavar="T,D,V",
                   help="also write labels produced by the detector at these thresholds")
    _jobs_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("oracle-check", help="compare detector against the brute-force oracle")
    common(p)
    p.add_argument("--scenarios", type=int, default=100,
                   help="number of random scenarios (default %(default)s)")
    _seed_flag(p)
    p.add_argument("--max-len", dest="max_len", type=int, default=2000,
                   help="max trajectory length in samples")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def _grid_flags(p):
    p.add_argument("--t-b-range", dest="t_b_range", type=float, nargs=3,
                   metavar=("MIN", "MAX", "STEP"))
    p.add_argument("--delta-b-range", dest="delta_b_range", type=float, nargs=3,
                   metavar=("MIN", "MAX", "STEP"))
    p.add_argument("--v-b-range", dest="v_b_range", type=float, nargs=3,
                   metavar=("MIN", "MAX", "STEP"))


def _seed_flag(p):
    p.add_argument("--seed", type=int, default=0)


def _jobs_flag(p):
    p.add_argument("--jobs", type=int, help="worker processes (default: SHELFSCAN_JOBS or usable CPUs)")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            _usage_error(f"--out is not a directory: {args.out}")
        if args.config:  # flags beat the file's values, as they beat their defaults
            parser.commands[args.command].set_defaults(**_load_config(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except ShelfScanError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except OSError as exc:  # a missing, unreadable or misplaced path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _StdoutLost:
        return 120
    except SystemExit as exc:  # argparse usage errors and path checks
        return exc.code if exc.code is not None else 0


def run(argv=None):
    """main(argv), then exit with its code, without tearing the interpreter down.

    Only the standard streams can still hold output when main returns, so
    they are flushed first; if one cannot be (a reader closed the pipe),
    the exit status is 120, as the interpreter's own exit gives.
    """
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):  # a closed pipe or a closed stream
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
