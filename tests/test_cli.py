import csv
import hashlib
import json
import math
import os
import signal
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from shelfscan import (
    ParamGrid,
    Segment2D,
    Shelf,
    StopParams,
    StoreLayout,
    build_track,
    calibrate,
    detect_stops,
    labels_from_stop_events,
    load_layout,
    majority_vote,
    population_scenario,
    random_scenario,
    read_stop_events,
    read_trajectories,
    same_store_eval,
    save_layout,
    write_labels,
    write_scenario,
    write_stop_events,
)
from shelfscan import calibration, cli, detector, kinematics, synth
from shelfscan.cli import main
from shelfscan.errors import FrameMismatch
from shelfscan.labeling import read_labels, write_label_manifest


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "synth"
    code = run([
        "synth", "--population", "25", "--shelves", "9", "--seed", "5",
        "--plant", "2.0,1.2,0.55", "--out", str(out),
    ])
    assert code == 0
    return out


SMALL_GRID = [
    "--t-b-range", "1.0", "3.0", "0.5",
    "--delta-b-range", "0.6", "1.8", "0.3",
    "--v-b-range", "0.25", "0.85", "0.15",
]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def without_timestamp(doc):
    doc = dict(doc)
    doc.pop("generated_at", None)
    return doc


def test_synth_writes_all_artifacts(synth_dir):
    for name in ("layout.json", "trajectories.jsonl", "ground_truth.json",
                 "labels.jsonl", "labels.manifest.json"):
        assert (synth_dir / name).exists(), name
    manifest = read_json(synth_dir / "labels.manifest.json")
    assert manifest["n_reviewers"] == 1
    lines = (synth_dir / "trajectories.jsonl").read_text().strip().splitlines()
    assert len(lines) == 25


def test_detect_outputs_and_reproducibility(synth_dir, tmp_path):
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    for out in (out1, out2):
        code = run([
            "detect",
            "--layout", str(synth_dir / "layout.json"),
            "--trajectories", str(synth_dir / "trajectories.jsonl"),
            "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55",
            "--out", str(out),
        ])
        assert code == 0
    stops = (out1 / "stops.jsonl").read_text()
    assert stops == (out2 / "stops.jsonl").read_text()
    assert (out1 / "stop_matrix.csv").read_text() == (out2 / "stop_matrix.csv").read_text()
    first = json.loads(stops.splitlines()[0])
    assert set(first) == {"trajectory_id", "shelf_id", "t_s", "t_f",
                          "duration", "min_lambda", "mean_speed"}
    with open(out1 / "stop_matrix.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"trajectory_id", "shelf_id", "k", "t", "S"}
    assert all(r["S"] == "1" for r in rows)


def test_detect_does_not_mutate_inputs(synth_dir, tmp_path):
    before = (synth_dir / "trajectories.jsonl").read_bytes()
    layout_before = (synth_dir / "layout.json").read_bytes()
    run([
        "detect",
        "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55",
        "--out", str(tmp_path / "d"),
    ])
    assert (synth_dir / "trajectories.jsonl").read_bytes() == before
    assert (synth_dir / "layout.json").read_bytes() == layout_before


def test_calibrate_recovers_planted_parameters(synth_dir, tmp_path):
    out = tmp_path / "cal"
    code = run([
        "calibrate",
        "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--labels", str(synth_dir / "labels.jsonl"),
        *SMALL_GRID,
        "--dump-grid",
        "--out", str(out),
    ])
    assert code == 0
    report = read_json(out / "calibration.json")
    assert report["best_f1"] == 1.0
    assert report["best_params"]["t_b"] == pytest.approx(2.0)
    assert report["best_params"]["delta_b"] == pytest.approx(1.2)
    assert report["best_params"]["v_b"] == pytest.approx(0.55)
    assert report["config"]["t_b_range"] == [1.0, 3.0, 0.5]
    with open(out / "grid.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 5 * 5


def test_eval_same_sweep_csv_shape(synth_dir, tmp_path):
    out = tmp_path / "ev"
    code = run([
        "eval-same",
        "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--labels", str(synth_dir / "labels.jsonl"),
        "--p", "0.3", "0.5", "0.7",
        "--repeats", "10",
        "--seed", "3",
        *SMALL_GRID,
        "--out", str(out),
    ])
    assert code == 0
    with open(out / "eval_repeats.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 10
    assert set(rows[0]) == {"p", "repeat", "f1", "mean_f1", "stderr_f1"}
    per_p = {r["p"] for r in rows}
    assert len(per_p) == 3
    doc = read_json(out / "eval.json")
    assert len(doc["reports"]) == 3
    assert all(rep["repeats"] == 10 for rep in doc["reports"])
    assert all(len(rep["scores"]) == 10 for rep in doc["reports"])


def test_eval_same_deterministic_modulo_timestamp(synth_dir, tmp_path):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        run([
            "eval-same",
            "--layout", str(synth_dir / "layout.json"),
            "--trajectories", str(synth_dir / "trajectories.jsonl"),
            "--labels", str(synth_dir / "labels.jsonl"),
            "--p", "0.5", "--repeats", "3", "--seed", "11",
            *SMALL_GRID,
            "--out", str(out),
        ])
        outs.append(out)
    a = without_timestamp(read_json(outs[0] / "eval.json"))
    b = without_timestamp(read_json(outs[1] / "eval.json"))
    assert a == b
    assert (outs[0] / "eval_repeats.csv").read_text() == (outs[1] / "eval_repeats.csv").read_text()


def test_eval_cross_runs(synth_dir, tmp_path):
    other = tmp_path / "other_store"
    run([
        "synth", "--population", "20", "--shelves", "9", "--seed", "6",
        "--plant", "2.0,1.2,0.55", "--out", str(other),
    ])
    out = tmp_path / "cross"
    code = run([
        "eval-cross",
        "--layout-a", str(synth_dir / "layout.json"),
        "--trajectories-a", str(synth_dir / "trajectories.jsonl"),
        "--labels-a", str(synth_dir / "labels.jsonl"),
        "--layout-b", str(other / "layout.json"),
        "--trajectories-b", str(other / "trajectories.jsonl"),
        "--labels-b", str(other / "labels.jsonl"),
        *SMALL_GRID,
        "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out / "eval.json")
    assert doc["report"]["protocol"] == "cross-store"
    assert doc["report"]["scores"] == [1.0]
    with open(out / "eval_repeats.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["f1"] == "1.0"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["eval-same", "eval-cross"])
def test_eval_artifacts_match_golden(tmp_path, command):
    _assert_golden(tmp_path, command)


def test_eval_same_enumerates_once_per_range(tmp_path, monkeypatch, range_cuts):
    """Every --p reuses the runs that each gaze batch of each range enumerated once.

    The artifacts stay golden, and three --p enumerate no more than one.
    """
    calls, enumerate_runs = tmp_path / "calls", calibration._enumerate_runs

    def counted(*args):
        with open(calls, "a") as fh:  # a file, so that calls in forked workers count too
            fh.write("call\n")
        return enumerate_runs(*args)

    monkeypatch.setattr(calibration, "_enumerate_runs", counted)
    _assert_golden(tmp_path, "eval-same", "--jobs", "2")
    store = tmp_path / "a"
    records = (store / "trajectories.jsonl").read_bytes()
    # range_cuts cuts each range's records into gaze batches of 1200 samples at most
    sizes = [[len(json.loads(line)["samples"]) for line in records[lo:hi].splitlines()]
             for lo, hi in range_cuts[-1]]
    batches = sum(len(list(kinematics.batches(part, lambda n: n))) for part in sizes)
    assert len(range_cuts[-1]) == 2 and batches == 14
    assert calls.read_text().count("call") == batches
    calls.unlink()
    assert run(["eval-same", *_inputs(store), "--p", "0.5", "--repeats", "4", "--seed", "3", *SMALL_GRID,
                "--jobs", "2", "--out", str(tmp_path / "one_p")]) == 0
    assert calls.read_text().count("call") == batches


def _inputs(store, side=""):
    """The --layout, --trajectories and --labels flags (with a -a or -b side suffix) of a store."""
    return [f"--{key}{side}={store / name}" for key, name in (
        ("layout", "layout.json"), ("trajectories", "trajectories.jsonl"), ("labels", "labels.jsonl"))]


def _golden_stores(tmp_path):
    """The golden input stores a and b, planted off the grid, as {name: directory}."""
    stores = {}
    for name, population, seed in (("a", "25", "5"), ("b", "20", "6")):
        stores[name] = tmp_path / name
        assert run(["synth", "--population", population, "--shelves", "9", "--seed", seed,
                    "--plant", "2.2,1.1,0.5", "--out", str(stores[name])]) == 0
    return stores


def _assert_same_as_golden(out, golden, names):
    """Each named file in out equals its golden copy byte for byte, its generated_at line left out."""
    for name in names:
        got = "".join(line for line in (out / name).read_text().splitlines(keepends=True)
                      if '"generated_at"' not in line)
        assert got == (golden / name).read_text(), name


def _assert_golden(tmp_path, command, *flags):
    """Run command on the golden inputs and check its artifacts against tests/golden.

    eval.json (generated_at line left out) and eval_repeats.csv, byte for
    byte. The labels are planted off the grid, so the scores fall below 1
    and the chosen parameters differ between repeats.
    """
    stores = _golden_stores(tmp_path)
    if command == "eval-same":
        inputs = _inputs(stores["a"])
        extra = ["--p", "0.2", "0.5", "0.8", "--repeats", "4"]
    else:
        inputs = _inputs(stores["a"], "-a") + _inputs(stores["b"], "-b")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cross_repeats": 3}))
        extra = ["--p", "0.5", "--config", str(cfg)]
    out = tmp_path / "out"
    assert run([command, *inputs, *extra, "--seed", "3", *SMALL_GRID, *flags, "--out", str(out)]) == 0
    _assert_same_as_golden(out, GOLDEN / command, ("eval.json", "eval_repeats.csv"))


def test_record_writers_match_golden(tmp_path):
    """The labels synth plants on store a, detect's stops and calibrate's reports, byte for byte."""
    store = _golden_stores(tmp_path)["a"]
    inputs = ["--layout", str(store / "layout.json"), "--trajectories", str(store / "trajectories.jsonl")]
    assert run(["detect", *inputs, "--t-b", "2.2", "--delta-b", "1.1", "--v-b", "0.5",
                "--out", str(store)]) == 0
    assert run(["calibrate", *inputs, "--labels", str(store / "labels.jsonl"), *SMALL_GRID,
                "--dump-grid", "--out", str(store)]) == 0
    _assert_same_as_golden(store, GOLDEN / "records",
                           ("labels.jsonl", "stops.jsonl", "calibration.json", "grid.csv"))


def test_written_population_spec_matches_population_flags(tmp_path):
    """synth --spec on a written population_scenario writes what synth --population writes."""
    spec = tmp_path / "spec.json"
    write_scenario(population_scenario(4, 6, n_shelves=7, noise=0.03), spec)
    plant = ["--plant", "2.0,1.2,0.55"]
    assert run(["synth", "--spec", str(spec), *plant, "--out", str(tmp_path / "spec")]) == 0
    assert run(["synth", "--population", "6", "--shelves", "7", "--seed", "4", "--noise", "0.03",
                *plant, "--out", str(tmp_path / "flags")]) == 0
    names = sorted(path.name for path in (tmp_path / "flags").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "spec").iterdir())
    assert "labels.jsonl" in names
    for name in names:
        assert (tmp_path / "spec" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes(), name


def test_analyze_outputs(synth_dir, tmp_path):
    detect_out = tmp_path / "d"
    run([
        "detect",
        "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55",
        "--out", str(detect_out),
    ])
    purchases = tmp_path / "purchases.csv"
    first_id = json.loads(
        (synth_dir / "trajectories.jsonl").read_text().splitlines()[0]
    )["trajectory_id"]
    purchases.write_text(f"trajectory_id,shelf_id,quantity\n{first_id},1,2\n")
    out = tmp_path / "an"
    code = run([
        "analyze",
        "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--stops", str(detect_out / "stops.jsonl"),
        "--purchases", str(purchases),
        "--out", str(out),
    ])
    assert code == 0
    with open(out / "shelf_stats.csv") as fh:
        stats_rows = list(csv.DictReader(fh))
    assert len(stats_rows) == 9
    summary = read_json(out / "summary.json")
    assert summary["n_trajectories"] == 25
    total = sum(float(r["avg_visits_per_trip"]) for r in stats_rows)
    assert summary["overall_avg_visits_per_trip"] == pytest.approx(total)
    with open(out / "conversion.csv") as fh:
        conv_rows = list(csv.DictReader(fh))
    assert len(conv_rows) == 9
    # unvisited and unpurchased shelves stay blank, never 0 or inf
    for row in conv_rows:
        if float(row["avg_visits_per_trip"]) == 0.0:
            assert row["conversion_pct"] == ""


@pytest.mark.parametrize("row, error", [("nope,1,1", "InconsistentPopulation"),
                                        ("trip-00000,10,1", "ShelfOutOfRange")])
def test_analyze_that_rejects_a_purchase_writes_nothing(synth_dir, tmp_path, capsys, row, error):
    stops, purchases, out = tmp_path / "stops.jsonl", tmp_path / "purchases.csv", tmp_path / "out"
    stops.write_text("")
    purchases.write_text(f"trajectory_id,shelf_id,quantity\ntrip-00000,1,1\n{row}\n")
    code = run(["analyze", f"--layout={synth_dir / 'layout.json'}",
                f"--trajectories={synth_dir / 'trajectories.jsonl'}", f"--stops={stops}",
                f"--purchases={purchases}", "--out", str(out)])
    assert code == 1 and json.loads(capsys.readouterr().err)["error"] == error
    assert not out.exists()


def test_oracle_check_deterministic(tmp_path):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        code = run(["oracle-check", "--scenarios", "15", "--seed", "7",
                    "--max-len", "300", "--out", str(out)])
        assert code == 0
        outs.append(out)
    a = without_timestamp(read_json(outs[0] / "oracle_check.json"))
    b = without_timestamp(read_json(outs[1] / "oracle_check.json"))
    assert a == b
    assert a["passed"] is True
    assert a["first_counterexample"] is None


def test_missing_path_exits_2(tmp_path):
    code = run([
        "detect", "--layout", str(tmp_path / "nope.json"),
        "--trajectories", str(tmp_path / "nope.jsonl"),
        "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55",
        "--out", str(tmp_path),
    ])
    assert code == 2


@pytest.mark.parametrize("fault", ["trajectories is a directory", "out is a file"])
def test_os_error_on_a_path_exits_2_with_one_line(synth_dir, tmp_path, capsys, fault):
    trajectories, out = synth_dir / "trajectories.jsonl", tmp_path / "out"
    if fault == "trajectories is a directory":
        trajectories = tmp_path
        argv = ["detect", "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55"]
    else:
        out.write_text("")
        argv = ["eval-same", "--labels", str(synth_dir / "labels.jsonl"), *SMALL_GRID]
    code = run([*argv, "--layout", str(synth_dir / "layout.json"),
                "--trajectories", str(trajectories), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_unknown_flag_exits_2():
    assert run(["detect", "--nonsense"]) == 2


def test_bad_jobs_environment_exits_2(synth_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHELFSCAN_JOBS", "abc")
    code = run([
        "detect",
        "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55",
        "--out", str(tmp_path / "d"),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "SHELFSCAN_JOBS" in err[0]


def test_malformed_plant_exits_2(tmp_path, capsys):
    code = run(["synth", "--population", "2", "--plant", "1,2", "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--plant" in err[0]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("plant", ["0,1.2,0.55", "nan,1.2,0.55"])
def test_invalid_plant_exits_1_before_writing(tmp_path, capsys, plant):
    out = tmp_path / "s"
    out.mkdir()
    code = run(["synth", "--population", "2", "--plant", plant, "--out", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert list(out.iterdir()) == []


def test_plant_across_chunks_matches_per_trip_detection(tmp_path):
    out = tmp_path / "s"
    code = run([
        "synth", "--population", "257", "--shelves", "4", "--seed", "3", "--noise", "0.05",
        "--plant", "2.0,1.2,0.55", "--out", str(out),
    ])
    assert code == 0
    layout = load_layout(out / "layout.json")
    params = StopParams(2.0, 1.2, 0.55)
    want = [
        lab
        for traj in read_trajectories(out / "trajectories.jsonl")
        for lab in labels_from_stop_events(
            detect_stops(build_track(traj, 5), layout, params)[0], reviewer_id="auto")
    ]
    # the 257th trip is alone in the last gaze batch, as 256 trips fill eight of 32
    assert any(lab.trajectory_id == "trip-00256" for lab in want)
    write_labels(want, tmp_path / "want.jsonl")
    assert (out / "labels.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


def test_non_finite_grid_range_exits_1_with_record(synth_dir, tmp_path, capsys):
    code = run([
        "calibrate",
        "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--labels", str(synth_dir / "labels.jsonl"),
        *SMALL_GRID,
        "--t-b-range", "nan", "3.0", "0.5",
        "--out", str(tmp_path / "cal"),
    ])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"


def test_data_error_exits_1_with_record(tmp_path, capsys):
    bad_layout = tmp_path / "bad.json"
    bad_layout.write_text(json.dumps({
        "store_id": "bad",
        "shelves": [{"id": 1, "face": [[0, 0], [2, 0]], "normal": [1, 0]}],
    }))
    trajs = tmp_path / "t.jsonl"
    trajs.write_text(json.dumps({
        "trajectory_id": "a", "store_id": "bad",
        "samples": [[k * 0.1, 1.0, 1.0, 0.0] for k in range(5)],
    }) + "\n")
    code = run([
        "detect", "--layout", str(bad_layout), "--trajectories", str(trajs),
        "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert "shelf 1" in record["message"]


def test_malformed_sample_row_exits_1_with_record(synth_dir, tmp_path, capsys):
    layout = synth_dir / "layout.json"
    store_id = read_json(layout)["store_id"]
    samples = [[k * 0.1, 1.0, 1.0, 0.0] for k in range(5)]
    samples[3] = [0.3, 1.0, 1.0]
    trajs = tmp_path / "t.jsonl"
    rec = {"trajectory_id": "a", "store_id": store_id, "samples": samples}
    trajs.write_text(json.dumps(rec) + "\n")
    code = run([
        "detect", "--layout", str(layout), "--trajectories", str(trajs),
        "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ParseError"
    assert record["message"].startswith(f"{trajs}:1: sample 3 ")


def test_config_file_supplies_values(synth_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_b": 2.0, "delta_b": 1.2, "v_b": 0.55}))
    out = tmp_path / "dcfg"
    code = run([
        "detect", "--config", str(cfg),
        "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "stops.jsonl").exists()


@pytest.mark.parametrize("command, content, key", [
    ("detect", None, None),  # a directory
    ("detect", "nope", None),
    ("detect", "[1]", None),
    ("detect", '"t_b"', None),
    ("detect", '{"window": 5.9}', "window"),
    ("eval-same", '{"repeats": 2.7}', "repeats"),
    ("eval-same", '{"seed": true}', "seed"),
    ("detect", '{"jobs": 1.5}', "jobs"),
    ("detect", '{"jobs": "2"}', "jobs"),
    ("synth", '{"population": 2.0}', "population"),
    ("detect", '{"t_b": "2.0"}', "t_b"),
    ("detect", '{"v_b": false}', "v_b"),
    ("synth", '{"noise": null}', "noise"),
    ("eval-cross", '{"p": [0.5]}', "p"),
    ("eval-same", '{"p": []}', "p"),
    ("eval-same", '{"p": [0.5, "0.8"]}', "p"),
    ("calibrate", '{"t_b_range": [0.5, 4.0]}', "t_b_range"),
    ("calibrate", '{"t_b_range": "abc"}', "t_b_range"),
    ("calibrate", '{"v_b_range": [0.1, true, 0.01]}', "v_b_range"),
])
def test_config_value_its_flag_refuses_is_a_usage_error(synth_dir, tmp_path, capsys, command, content,
                                                        key):
    cfg = tmp_path / "cfg.json"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_text(content)
    inputs = {name: str(synth_dir / f"{name}.{ext}")
              for name, ext in (("layout", "json"), ("trajectories", "jsonl"), ("labels", "jsonl"))}
    flags = {
        "detect": ["--layout", inputs["layout"], "--trajectories", inputs["trajectories"]],
        "calibrate": [f"--{name}={path}" for name, path in inputs.items()],
        "eval-same": [f"--{name}={path}" for name, path in inputs.items()],
        "eval-cross": [f"--{name}-{side}={path}" for side in "ab" for name, path in inputs.items()],
        "synth": [],
    }[command]
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config {cfg}: ")
    if key is not None:
        assert err[0].startswith(f"error: config {cfg}: {key} must be ")
    assert not out.exists()


def test_config_list_of_fractions_and_unknown_keys_are_accepted(synth_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": [0.4, 0.6], "repeats": 2, "comment": ["any", 1]}))
    out = tmp_path / "out"
    assert run(["eval-same", "--config", str(cfg), "--layout", str(synth_dir / "layout.json"),
                "--trajectories", str(synth_dir / "trajectories.jsonl"),
                "--labels", str(synth_dir / "labels.jsonl"), *SMALL_GRID, "--out", str(out)]) == 0
    assert [rep["p"] for rep in read_json(out / "eval.json")["reports"]] == [0.4, 0.6]


@pytest.mark.parametrize("command", ["calibrate", "eval-same"])
def test_config_and_flags_write_the_same_bytes(synth_dir, tmp_path, command):
    """Integer range ends from --config are the floats the flags give, so the reports match byte for byte."""
    name = {"calibrate": "calibration.json", "eval-same": "eval.json"}[command]
    extra = ["--repeats", "2"] if command == "eval-same" else []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_b_range": [1, 3, 0.5], "delta_b_range": [0.6, 1.8, 0.3],
                               "v_b_range": [0.25, 0.85, 0.15], "window": 5}))
    outs = tmp_path / "flags", tmp_path / "config"
    assert run([command, *_inputs(synth_dir), *SMALL_GRID, *extra, "--out", str(outs[0])]) == 0
    assert run([command, *_inputs(synth_dir), "--config", str(cfg), *extra, "--out", str(outs[1])]) == 0
    flags, config = ((out / name).read_text().splitlines() for out in outs)
    assert [line for line in config if "generated_at" not in line] == [
        line for line in flags if "generated_at" not in line]
    assert read_json(outs[1] / name)["config"]["t_b_range"] == [1.0, 3.0, 0.5]


def test_detect_on_a_layout_with_a_nan_face_exits_1_before_writing(synth_dir, tmp_path, capsys):
    doc = read_json(synth_dir / "layout.json")
    doc["shelves"][0]["face"][1][0] = math.nan
    layout, out = tmp_path / "layout.json", tmp_path / "out"
    layout.write_text(json.dumps(doc))
    assert run(["detect", "--layout", str(layout), "--trajectories", str(synth_dir / "trajectories.jsonl"),
                "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "ValidationError" and record["message"].endswith("(element: shelf 1)")
    assert not out.exists()


def detect(layout, trajectories, out, *extra):
    return run([
        "detect", "--layout", str(layout), "--trajectories", str(trajectories),
        "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55", *extra, "--out", str(out),
    ])


def standing_record(trajectory_id, n_samples, store_id="unit"):
    """n samples 1 m in front of the single shelf, facing it."""
    samples = [[k * 0.1, 1.0, 1.0, -math.pi / 2] for k in range(n_samples)]
    return json.dumps({"trajectory_id": trajectory_id, "store_id": store_id, "samples": samples})


@pytest.fixture
def shelf_layout(tmp_path):
    path = tmp_path / "layout.json"
    save_layout(StoreLayout(store_id="unit", shelves=(
        Shelf(id=1, face=Segment2D((0.0, 0.0), (2.0, 0.0)), normal=(0.0, 1.0)),)), path)
    return path


@pytest.fixture
def range_cuts(monkeypatch):
    """Let map_file cut a range per byte, so small files reach forked workers.

    A range is also read in batches of 1200 samples at most
    (kinematics.BATCH_SAMPLES), one to three of the test stores' records
    each, and detection and calibration gaze each such batch whole, so a
    range fills several batches, most of them of two records or more. Returns the list of cuts made, one list
    of (start, stop) ranges per file read.
    """
    monkeypatch.setattr(kinematics, "_MIN_RANGE", 1)
    monkeypatch.setattr(kinematics, "BATCH_SAMPLES", 1200)
    cuts, byte_ranges = [], kinematics._byte_ranges

    def spy(path, jobs):
        cuts.append(byte_ranges(path, jobs))
        return cuts[-1]

    monkeypatch.setattr(kinematics, "_byte_ranges", spy)
    return cuts


def test_small_file_is_one_range(synth_dir):
    path = synth_dir / "trajectories.jsonl"
    assert path.stat().st_size < kinematics._MIN_RANGE
    assert kinematics._byte_ranges(path, 8) == [(0, path.stat().st_size)]


def test_calibrate_fine_sized_store_is_two_ranges_at_two_jobs(tmp_path):
    # the calibrate-fine benchmark's 60-trip store, about 2.86 MB: two ranges at --jobs 2 with no cut forced
    store = tmp_path / "store"
    assert run(["synth", "--population", "60", "--shelves", "19", "--noise", "0.05",
                "--plant", "2.0,1.2,0.55", "--seed", "1", "--out", str(store)]) == 0
    trajs = store / "trajectories.jsonl"
    assert len(kinematics._byte_ranges(trajs, 2)) == 2
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}"
        assert run(["calibrate", "--layout", str(store / "layout.json"), "--trajectories", str(trajs),
                    "--labels", str(store / "labels.jsonl"), "--t-b-range", "0.5", "4.0", "0.1",
                    "--delta-b-range", "0.6", "1.8", "0.3", "--v-b-range", "0.1", "1.5", "0.01",
                    "--dump-grid", "--jobs", jobs, "--out", str(out)]) == 0
        outputs.append(_artifacts(out))
    assert outputs[1] == outputs[0]
    assert set(outputs[0]) == {"calibration.json", "grid.csv"}


@pytest.mark.parametrize("jobs", ["1", "2", "8"])  # 8: more workers asked for than records
def test_fragment_shorter_than_window_is_smoothed_not_fatal(shelf_layout, tmp_path, range_cuts, jobs):
    both, alone = tmp_path / "both.jsonl", tmp_path / "alone.jsonl"
    both.write_text(standing_record("long", 40) + "\n" + standing_record("short", 4) + "\n")
    alone.write_text(standing_record("long", 40) + "\n")
    assert detect(shelf_layout, both, tmp_path / "both", "--jobs", jobs) == 0
    assert len(range_cuts[-1]) == min(int(jobs), 2)
    assert detect(shelf_layout, alone, tmp_path / "alone", "--jobs", jobs) == 0
    for name in ("stops.jsonl", "stop_matrix.csv"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
    assert len((tmp_path / "alone" / "stops.jsonl").read_text().splitlines()) == 1

    labels = tmp_path / "labels.jsonl"
    write_labels([lab for ev in read_stop_events(tmp_path / "alone" / "stops.jsonl")
                  for lab in labels_from_stop_events([ev], reviewer_id="r")], labels)
    write_label_manifest(1, ["r"], tmp_path / "labels.manifest.json")
    assert run(["calibrate", "--layout", str(shelf_layout), "--trajectories", str(both),
                "--labels", str(labels), *SMALL_GRID, "--out", str(tmp_path / "cal")]) == 0


def test_dead_worker_exits_2_with_one_line(shelf_layout, tmp_path, range_cuts, monkeypatch, capsys):
    trajs = tmp_path / "t.jsonl"
    trajs.write_text(standing_record("a", 40) + "\n" + standing_record("b", 40) + "\n")
    read_range = kinematics._read_range

    def killed_past_the_first_range(path, start, stop, stage, stage_args):
        if start > 0:  # as the OOM killer would end a worker
            os.kill(os.getpid(), signal.SIGKILL)
        return read_range(path, start, stop, stage, stage_args)

    monkeypatch.setattr(kinematics, "_read_range", killed_past_the_first_range)
    assert detect(shelf_layout, trajs, tmp_path / "d", "--jobs", "2") == 2
    assert len(range_cuts[-1]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: fork_map task 1 ended without its result")
    with pytest.raises(ChildProcessError):  # every worker reaped
        os.waitpid(-1, os.WNOHANG)


def test_zero_duration_stop_threshold_is_detected(synth_dir, tmp_path, capsys):
    # a calibration sweep may pick t_b <= DURATION_TOL; detect must run at it
    out = tmp_path / "d"
    assert run(["detect", "--layout", str(synth_dir / "layout.json"),
                "--trajectories", str(synth_dir / "trajectories.jsonl"),
                "--t-b", "1e-9", "--delta-b", "1.2", "--v-b", "0.55", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert any(ev.t_s == ev.t_f for ev in read_stop_events(out / "stops.jsonl"))


@pytest.mark.parametrize("how, error, message", [
    (["--noise", "-0.5"], "ValidationError", "position_noise must be a finite std >= 0, got -0.5"),
    (["--noise", "nan"], "ValidationError", "position_noise must be a finite std >= 0, got nan"),
    pytest.param("spec", "ValidationError", "walk_speed must be finite, got nan", id="spec-walk_speed-nan"),
])
def test_bad_noise_or_walk_speed_exits_1_before_writing(tmp_path, capsys, how, error, message):
    if how == "spec":
        spec = tmp_path / "spec.json"
        write_scenario(random_scenario(6), spec)
        doc = read_json(spec)
        doc["walk_speed"] = math.nan
        spec.write_text(json.dumps(doc))
        how = ["--spec", str(spec)]
    out = tmp_path / "s"
    assert run(["synth", "--population", "2", *how, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == error and message in record["message"]
    assert not out.exists()


def test_spec_reusing_a_trajectory_id_exits_1_before_writing(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_scenario(population_scenario(5, 3), spec)
    doc = read_json(spec)
    doc["scripts"][1]["trajectory_id"] = "trip-00000"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "s"
    assert run(["synth", "--spec", str(spec), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert "trajectory_id 'trip-00000' is used by two scripts" in record["message"]
    assert not out.exists()


def test_plant_on_fragments_shorter_than_window(tmp_path):
    spec = tmp_path / "spec.json"
    write_scenario(random_scenario(6), spec)  # two 3-sample trajectories
    out = tmp_path / "s"
    assert run(["synth", "--spec", str(spec), "--plant", "2.0,1.2,0.55", "--out", str(out)]) == 0
    assert (out / "labels.jsonl").exists()


@pytest.mark.parametrize("window", ["4", "0", "-1"])
def test_even_or_non_positive_window_exits_1(shelf_layout, tmp_path, capsys, window):
    trajs = tmp_path / "t.jsonl"
    trajs.write_text(standing_record("long", 40) + "\n")
    assert detect(shelf_layout, trajs, tmp_path / "d", "--window", window) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "InvalidWindow"
    out = tmp_path / "s"
    code = run(["synth", "--population", "2", "--plant", "2.0,1.2,0.55", "--window", window,
                "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "InvalidWindow"
    assert not out.exists()


@pytest.mark.parametrize("where", [["--jobs", "0"], ["--jobs", "-3"], "config", "environment"])
def test_jobs_below_one_exits_2(shelf_layout, tmp_path, monkeypatch, capsys, where):
    trajs = tmp_path / "t.jsonl"
    trajs.write_text(standing_record("long", 40) + "\n")
    if where == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        where = ["--config", str(cfg)]
    elif where == "environment":
        monkeypatch.setenv("SHELFSCAN_JOBS", "0")
        where = []
    assert detect(shelf_layout, trajs, tmp_path / "d", *where) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "must be at least 1, got " in err[0]


@pytest.mark.parametrize("content", ["", "\n  \n"])
@pytest.mark.parametrize("jobs", ["1", "3"])
def test_file_without_records_detects_nothing(shelf_layout, tmp_path, content, jobs):
    trajs = tmp_path / "t.jsonl"
    trajs.write_text(content)
    assert detect(shelf_layout, trajs, tmp_path / "d", "--jobs", jobs) == 0
    assert (tmp_path / "d" / "stops.jsonl").read_bytes() == b""
    assert (tmp_path / "d" / "stop_matrix.csv").read_bytes() == b"trajectory_id,shelf_id,k,t,S\r\n"


def test_detect_output_does_not_depend_on_jobs(synth_dir, tmp_path, range_cuts):
    lines = (synth_dir / "trajectories.jsonl").read_text().splitlines()
    rec = json.loads(lines[4])
    del rec["samples"][20:25]  # a dropout: the record splits into two trajectories
    lines[4] = json.dumps(rec)
    lines[7:7] = ["", "   "]
    text = "\n".join(lines)  # no trailing newline
    # pad the last line so that the cut into two ranges lands just after a newline
    newline = text.index("\n", len(text) // 2 - 1)
    text += " " * max(2 * (newline + 1) - len(text), 0)
    assert text[len(text) // 2 - 1] == "\n" and not text.endswith("\n")
    path = tmp_path / "t.jsonl"
    path.write_text(text)

    layout = load_layout(synth_dir / "layout.json")
    params = StopParams(2.0, 1.2, 0.55)
    events, rows = [], []
    for traj in read_trajectories(path):
        evs, matrix = detect_stops(build_track(traj, 5), layout, params)
        events += evs
        rows += [[traj.trajectory_id, shelf0 + 1, k, repr(float(traj.times[k])), 1]
                 for k, shelf0 in zip(*np.nonzero(matrix.values.T))]
    assert any(ev.trajectory_id == f"{rec['trajectory_id']}~1" for ev in events)
    write_stop_events(events, tmp_path / "want.jsonl")
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["trajectory_id", "shelf_id", "k", "t", "S"], *rows])

    for jobs in ("1", "2", "3", "8"):
        out = tmp_path / f"j{jobs}"
        assert detect(synth_dir / "layout.json", path, out, "--jobs", jobs) == 0
        assert len(range_cuts[-1]) == int(jobs)
        assert (out / "stops.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        assert (out / "stop_matrix.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_ids_csv_must_quote_give_the_reference_bytes_at_any_jobs(synth_dir, tmp_path, range_cuts):
    """The workers' own row formatting quotes and encodes each id as csv.writer and write_stop_events do."""
    ids = ['aisle, left', 'the "quiet" trip', "caf\u00e9"]
    lines = (synth_dir / "trajectories.jsonl").read_text().splitlines()
    for i, trajectory_id in enumerate(ids):
        rec = json.loads(lines[i])
        rec["trajectory_id"] = trajectory_id
        lines[i] = json.dumps(rec)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")

    layout = load_layout(synth_dir / "layout.json")
    params = StopParams(2.0, 1.2, 0.55)
    events, rows = [], []
    for traj in read_trajectories(path):
        evs, matrix = detect_stops(build_track(traj, 5), layout, params)
        events += evs
        rows += [[traj.trajectory_id, shelf0 + 1, k, repr(float(traj.times[k])), 1]
                 for k, shelf0 in zip(*np.nonzero(matrix.values.T))]
    assert {ev.trajectory_id for ev in events} >= set(ids)
    write_stop_events(events, tmp_path / "want.jsonl")
    with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["trajectory_id", "shelf_id", "k", "t", "S"], *rows])
    want_csv = (tmp_path / "want.csv").read_bytes()
    assert b'"aisle, left",' in want_csv and b'"the ""quiet"" trip",' in want_csv

    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}"
        assert detect(synth_dir / "layout.json", path, out, "--jobs", jobs) == 0
        assert len(range_cuts[-1]) == int(jobs)
        assert (out / "stops.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        assert (out / "stop_matrix.csv").read_bytes() == want_csv


def _reuse_line_2_id(rec, lines):
    rec["trajectory_id"] = json.loads(lines[1])["trajectory_id"]


def _wrong_store(name):
    def fault(rec, lines):
        rec["store_id"] = name
    return fault


def _malformed_row(rec, lines):
    rec["samples"][3] = [0.3, 1.0]


def _jitter(rec, lines):
    rec["samples"][5][0] += 1e-4


# faults by line (of 25 records), and the error every --jobs must report
FAULT_MIXES = [
    ({2: [_wrong_store("a")], 23: [_malformed_row]}, "ParseError", ":23: sample 3 "),
    ({20: [_reuse_line_2_id], 23: [_malformed_row]}, "ParseError", ":20: trajectory_id "),
    ({3: [_wrong_store("a")], 22: [_jitter]}, "ValidationError", "non-uniform time step"),
    ({4: [_wrong_store("a")], 20: [_wrong_store("b")]}, "FrameMismatch", "store 'a'"),
    ({20: [_reuse_line_2_id, _jitter]}, "ParseError", ":20: trajectory_id "),
]


@pytest.mark.parametrize("faults, error, message", FAULT_MIXES)
def test_error_does_not_depend_on_jobs(synth_dir, tmp_path, capsys, range_cuts, faults, error, message):
    lines = (synth_dir / "trajectories.jsonl").read_text().splitlines()
    for lineno, edits in faults.items():
        rec = json.loads(lines[lineno - 1])
        for edit in edits:
            edit(rec, lines)
        lines[lineno - 1] = json.dumps(rec)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    reports = []
    for jobs in ("1", "2", "3"):
        code = detect(synth_dir / "layout.json", path, tmp_path / "d", "--jobs", jobs)
        assert len(range_cuts[-1]) == int(jobs)
        reports.append((code, capsys.readouterr().err))
    assert reports[1:] == reports[:1] * 2
    code, err = reports[0]
    record = json.loads(err)
    assert code == 1 and record["error"] == error and message in record["message"]


def _dropout_record(trajectory_id, n_samples, gap):
    """standing_record with 5 samples removed from `gap` on, so it splits in two."""
    rec = json.loads(standing_record(trajectory_id, n_samples))
    del rec["samples"][gap:gap + 5]
    return json.dumps(rec)


# the longer record first, so --jobs 2 cuts between the two
@pytest.mark.parametrize("records", [(_dropout_record("a", 45, 15), standing_record("a~0", 35)),
                                     (standing_record("a~0", 45), _dropout_record("a", 40, 15))])
def test_gap_split_piece_taking_another_records_id_is_a_parse_error(shelf_layout, tmp_path, capsys,
                                                                   range_cuts, records):
    """Record a splits into a~0 and a~1; a record named a~0 on the other line collides, at any --jobs."""
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(records) + "\n")
    for jobs in ("1", "2"):  # the two records in one range, then in two
        assert detect(shelf_layout, path, tmp_path / "d", "--jobs", jobs) == 1
        assert len(range_cuts[-1]) == int(jobs)
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError"
        assert ":2: gap-split trajectory id 'a~0' already used on line 1" in record["message"]


# SHA-256 of synth's artifacts, taken from the serial writer that formatted every record and
# then planted every label in one process
SYNTH_DIGESTS = {
    "planted": {
        "ground_truth.json": "b5c612c8fae8362525bc3b9b49570cc5aceb615812abf99160b1d230f355a729",
        "labels.jsonl": "d4cfc35853c60cdafa60fc69f4b2b394e502f36f29bb9414e603a61f44bab1a6",
        "labels.manifest.json": "6324f227d28daebb8f0bd66117359c1aff902f96e2d71bba086a9412c5e24f18",
        "layout.json": "516be9447e7c57d76e8d9121bd2ff3d9346c4aee3240ea98a5be5d1f1d77dc48",
        "trajectories.jsonl": "ee70550f7ae744c5d22adaf424b7fc526ed523cc15e3b44acbf5da41dc6de9f6",
    },
    "spec": {
        "ground_truth.json": "e441526ac736067d729ccff02d84cc9c35df104c17c4b1566e8fbbd873135ae0",
        "labels.jsonl": "27d66ba98a7489de36d758753736b5799b65b085d8c72d086f53fc790978e667",
        "labels.manifest.json": "6324f227d28daebb8f0bd66117359c1aff902f96e2d71bba086a9412c5e24f18",
        "layout.json": "6620707a7e1255044347db1f8666590f27292312d78711c0c2f92e59d2e4372c",
        "trajectories.jsonl": "6e547a38e573d67e36c04f6466aedc53b11f715968cc5ce9451d7e95b6ad741a",
    },
}


@pytest.fixture
def synth_batches(monkeypatch):
    """Cut synth's trajectories into batches of 1500 samples at most, so a store of 4 reaches forked workers.

    Returns the list of (workers, batches) synth passed to fork_map, one pair per call.
    """
    monkeypatch.setattr(kinematics, "BATCH_SAMPLES", 1500)
    calls, fork_map = [], cli.fork_map

    def spy(fn, tasks, workers):
        tasks = list(tasks)
        calls.append((workers, len(tasks)))
        return fork_map(fn, tasks, workers)

    monkeypatch.setattr(cli, "fork_map", spy)
    return calls


@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_synth_artifacts_do_not_depend_on_jobs(tmp_path, request, cut, jobs):
    calls = request.getfixturevalue("synth_batches") if cut else None
    spec = tmp_path / "spec.json"
    write_scenario(population_scenario(8, 10, n_shelves=6, store_id="spec", noise=0.05), spec)
    stores = {"planted": ["--population", "25", "--shelves", "9", "--seed", "5", "--plant", "2.0,1.2,0.55"],
              "spec": ["--spec", str(spec), "--plant", "1.0,1.5,0.6"]}
    for name, flags in stores.items():
        out = tmp_path / name
        assert run(["synth", *flags, "--jobs", jobs, "--out", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == SYNTH_DIGESTS[name]
    if cut:  # 25 and 10 trajectories, of 12,884 and 5,020 samples, in batches of 1500 samples at most
        assert calls == [(int(jobs), 11), (int(jobs), 5)]


@pytest.mark.parametrize("population, batches", [(3, 1), (4, 2)])  # 1417 and 2051 samples
def test_synth_forks_workers_only_for_more_than_one_batch(tmp_path, monkeypatch, synth_batches,
                                                          population, batches):
    """One batch is written in process at any --jobs; two batches run --jobs workers, to the same files."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(jobs) or fork())  # the --jobs of each fork
    for jobs in ("1", "2"):
        assert run(["synth", "--population", str(population), "--shelves", "5", "--seed", "5",
                    "--plant", "2.0,1.2,0.55", "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    assert synth_batches == [(1, batches), (2, batches)]
    assert forks == ([] if batches == 1 else ["2", "2"])
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir()) and len(names) == 5
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_synth_worker_error_exits_1_with_record(tmp_path, monkeypatch, capsys, synth_batches, jobs):
    """A batch's error reaches the CLI as the exit-1 record of the first failing batch."""
    build = cli.build_tracks

    def failing(pieces, window):
        bad = [tid for tid in pieces.ids if tid in ("trip-00004", "trip-00010")]  # the second and fourth batches
        if bad:
            raise FrameMismatch(f"cannot build {bad[0]}")
        return build(pieces, window)

    monkeypatch.setattr(cli, "build_tracks", failing)
    code = run(["synth", "--population", "12", "--shelves", "5", "--seed", "5", "--plant", "2.0,1.2,0.55",
                "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert synth_batches == [(int(jobs), 4)]
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "FrameMismatch", "message": "cannot build trip-00004"}


def test_synth_realizes_scripts_as_the_batches_take_them(tmp_path, monkeypatch):
    """As each batch is planted, only the scripts of the batches taken and one look-ahead script are realized."""
    monkeypatch.setattr(kinematics, "BATCH_SAMPLES", 1500)
    realized, seen, timeline, stage = [], [], synth._build_timeline, cli._synth_batch

    def count(*args):
        realized.append(args[0].trajectory_id)
        return timeline(*args)

    def taken(*args):
        seen.append(len(realized))
        return stage(*args)

    monkeypatch.setattr(synth, "_build_timeline", count)
    monkeypatch.setattr(cli, "_synth_batch", taken)
    assert run(["synth", "--population", "12", "--shelves", "5", "--seed", "5", "--plant", "2.0,1.2,0.55",
                "--jobs", "1", "--out", str(tmp_path / "out")]) == 0
    # batches of trips 0-2, 3-4, 5-8 and 9-11; each batch is taken with the trip that closed it
    assert seen == [6, 6, 10, 12] and len(realized) == 12


@pytest.mark.parametrize("fault, error", [
    ({"target": [1e4, 1e4]}, "InfeasibleScript"), ({"dwell": 1.0, "face_shelf": 99}, "InfeasibleScript"),
    ({"speed": math.nan}, "InfeasibleScript"), ({"dwell": math.inf}, "InfeasibleScript"),
    ({"dwell": 1.0, "heading": math.nan}, "InfeasibleScript"), ({"dwell": 1.0, "face_shelf": 2.0}, "ParseError")])
def test_synth_spec_with_an_infeasible_last_script_writes_nothing(tmp_path, monkeypatch, capsys, fault, error):
    """The last script, in the fourth 1500-sample batch, fails before any file is written, at any --jobs.

    A spec file may hold NaN and Infinity, which json reads; a face_shelf must be a JSON integer.
    """
    monkeypatch.setattr(kinematics, "BATCH_SAMPLES", 1500)
    doc = asdict(population_scenario(5, 12, n_shelves=5))
    doc["scripts"][-1]["waypoints"][1].update(fault)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        assert run(["synth", "--spec", str(spec), "--plant", "2.0,1.2,0.55", "--jobs", jobs,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == error
        assert not out.exists()


@pytest.mark.parametrize("fault", [None, _malformed_row])
def test_analyze_does_not_depend_on_jobs(synth_dir, tmp_path, capsys, range_cuts, fault):
    lines = (synth_dir / "trajectories.jsonl").read_text().splitlines()
    rec = json.loads(lines[4])
    del rec["samples"][20:25]  # a dropout: the record is analyzed as two trajectories
    lines[4] = json.dumps(rec)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert detect(synth_dir / "layout.json", path, tmp_path / "d") == 0
    if fault:
        rec = json.loads(lines[22])
        fault(rec, lines)
        lines[22] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
    purchases = tmp_path / "purchases.csv"
    purchases.write_text(f"trajectory_id,shelf_id,quantity\n{json.loads(lines[0])['trajectory_id']},1,2\n")
    capsys.readouterr()
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"an{jobs}"
        code = run(["analyze", "--layout", str(synth_dir / "layout.json"), "--trajectories", str(path),
                    "--stops", str(tmp_path / "d" / "stops.jsonl"), "--purchases", str(purchases),
                    "--jobs", jobs, "--out", str(out)])
        assert len(range_cuts[-1]) == int(jobs)
        reports.append((code, capsys.readouterr(), _artifacts(out)))
    assert reports[1] == reports[0]
    code, (_, err), files = reports[0]
    if fault:
        record = json.loads(err)
        assert code == 1 and record["error"] == "ParseError" and f"{path}:23: sample 3 " in record["message"]
    else:
        assert code == 0 and json.loads("\n".join(files["summary.json"]))["n_trajectories"] == 26


def _set(key, value):
    def edit(line):
        rec = json.loads(line)
        rec[key] = value
        return json.dumps(rec).encode()
    return edit


def _drop(key):
    def edit(line):
        rec = json.loads(line)
        del rec[key]
        return json.dumps(rec).encode()
    return edit


# a bad line 2, and the error record it must give
BAD_LINES = [
    pytest.param(lambda line: b"{not json", "ParseError", id="not-json"),
    pytest.param(lambda line: b'{"shelf_id": "\xff\xfe"}', "ParseError", id="not-utf8"),
    pytest.param(_set("shelf_id", "x"), "ParseError", id="shelf-not-int"),
    pytest.param(_set("shelf_id", [1]), "ParseError", id="shelf-a-list"),
    pytest.param(_set("shelf_id", 2.7), "ParseError", id="shelf-a-float"),
    pytest.param(_set("shelf_id", True), "ParseError", id="shelf-a-bool"),
]


def _with_bad_line_2(lines, edit):
    lines = list(lines)
    lines[1] = edit(lines[1])
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("edit, error", BAD_LINES + [
    pytest.param(_drop("t_end"), "ParseError", id="no-t_end"),
    # an empty interval is the label's own check
    pytest.param(_set("t_end", 0.0), "ValidationError", id="empty-interval"),
])
def test_malformed_label_exits_1_with_record(synth_dir, tmp_path, capsys, edit, error):
    labels = tmp_path / "labels.jsonl"
    lines = (synth_dir / "labels.jsonl").read_bytes().splitlines()
    labels.write_bytes(_with_bad_line_2(lines, edit))
    (tmp_path / "labels.manifest.json").write_bytes((synth_dir / "labels.manifest.json").read_bytes())
    code = run([
        "calibrate", "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--labels", str(labels), *SMALL_GRID, "--out", str(tmp_path / "cal"),
    ])
    record = json.loads(capsys.readouterr().err)
    assert code == 1 and record["error"] == error
    if error == "ParseError":
        assert record["message"].startswith(f"{labels}:2: bad label record")


@pytest.mark.parametrize("edit, error", BAD_LINES + [
    pytest.param(_drop("t_s"), "ParseError", id="no-t_s"),
    # an event must not end before it starts
    pytest.param(_set("t_f", -1.0), "ValidationError", id="empty-span"),
])
def test_malformed_stop_event_exits_1_with_record(synth_dir, tmp_path, capsys, edit, error):
    first_id = json.loads((synth_dir / "trajectories.jsonl").read_text().splitlines()[0])["trajectory_id"]
    event = {"trajectory_id": first_id, "shelf_id": 1, "t_s": 1.0, "t_f": 3.0,
             "duration": 2.0, "min_lambda": 0.5, "mean_speed": 0.1}
    stops = tmp_path / "stops.jsonl"
    stops.write_bytes(_with_bad_line_2([json.dumps(event).encode()] * 3, edit))
    code = run([
        "analyze", "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--stops", str(stops), "--out", str(tmp_path / "an"),
    ])
    record = json.loads(capsys.readouterr().err)
    assert code == 1 and record["error"] == error
    if error == "ParseError":
        assert record["message"].startswith(f"{stops}:2: bad stop event")


DEEP_LINE = "[" * 100_000  # deeper than json can decode


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("where", ["trajectories", "labels", "stops"])
def test_a_line_nested_too_deep_exits_1_naming_its_line(synth_dir, tmp_path, capsys, range_cuts, jobs, where):
    trajs, labels, stops = tmp_path / "t.jsonl", tmp_path / "labels.jsonl", tmp_path / "stops.jsonl"
    lines = (synth_dir / "trajectories.jsonl").read_text().splitlines()
    label_lines = (synth_dir / "labels.jsonl").read_text().splitlines()
    stop_lines = []
    if where == "trajectories":
        lines[19] = DEEP_LINE  # in the second range at --jobs 2
    elif where == "labels":
        label_lines[1] = DEEP_LINE
    else:
        stop_lines = ["", DEEP_LINE]
    trajs.write_text("\n".join(lines) + "\n")
    labels.write_text("\n".join(label_lines) + "\n")
    stops.write_text("\n".join(stop_lines) + "\n")
    write_label_manifest(1, ["auto"], tmp_path / "labels.manifest.json")
    command, path, what = {
        "trajectories": (["detect", "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55"], trajs,
                         "20: bad trajectory record"),
        "labels": (["calibrate", f"--labels={labels}", *SMALL_GRID], labels, "2: bad label record"),
        "stops": (["analyze", f"--stops={stops}"], stops, "2: bad stop event"),
    }[where]
    code = run([*command, f"--layout={synth_dir / 'layout.json'}", f"--trajectories={trajs}",
                "--jobs", jobs, "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err)
    assert code == 1 and record["error"] == "ParseError"
    assert record["message"].startswith(f"{path}:{what}: RecursionError(")
    if where == "trajectories":
        assert len(range_cuts[-1]) == int(jobs)
    assert not (tmp_path / "out").exists()


def _side_file_request(synth_dir, tmp_path, where):
    """(path, argv): where a command reads its layout, labels manifest or scenario spec, and its argv."""
    side = tmp_path / {"layout": "layout.json", "manifest": "labels.manifest.json", "spec": "spec.json"}[where]
    labels = tmp_path / "labels.jsonl"
    labels.write_bytes((synth_dir / "labels.jsonl").read_bytes())
    argv = {
        "layout": ["detect", "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55"],
        "manifest": ["calibrate", f"--labels={labels}", *SMALL_GRID],
        "spec": ["synth", "--spec", str(side)],
    }[where]
    if where != "spec":
        layout = side if where == "layout" else synth_dir / "layout.json"
        argv += [f"--layout={layout}", f"--trajectories={synth_dir / 'trajectories.jsonl'}"]
    return side, [*argv, "--out", str(tmp_path / "out")]


SIDE_FILE_FAULTS = {  # (content, the start of what the ParseError says is wrong)
    "nested too deep": (DEEP_LINE.encode(), "maximum recursion depth exceeded"),
    "not UTF-8": (b'{"store_id": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 14"),
    "a JSON array": (b"[]", "must be a JSON object, got a list"),
    "a JSON string": (b'"layout"', "must be a JSON object, got a str"),
}


@pytest.mark.parametrize("fault", SIDE_FILE_FAULTS)
@pytest.mark.parametrize("where, what", [("layout", "layout file"), ("manifest", "label manifest"),
                                         ("spec", "scenario file")])
def test_a_side_file_that_is_not_a_json_object_exits_1_with_one_parse_error(synth_dir, tmp_path, capsys,
                                                                             where, what, fault):
    side, argv = _side_file_request(synth_dir, tmp_path, where)
    content, cause = SIDE_FILE_FAULTS[fault]
    side.write_bytes(content)
    code = run(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "ParseError"
    assert record["message"].startswith(f"cannot parse {what} {side}: {cause}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["layout", "manifest", "spec"])
def test_a_side_file_that_is_a_directory_exits_2_with_one_line(synth_dir, tmp_path, capsys, where):
    side, argv = _side_file_request(synth_dir, tmp_path, where)
    side.mkdir()
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [Errno 21] Is a directory")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
@pytest.mark.parametrize("where", ["layout", "manifest", "spec"])
def test_a_side_file_with_a_bom_is_read(synth_dir, tmp_path, where, encoding):
    side, argv = _side_file_request(synth_dir, tmp_path, where)
    if where == "spec":
        write_scenario(population_scenario(5, 2, n_shelves=9), side)
    else:
        side.write_bytes((synth_dir / side.name).read_bytes())
    side.write_bytes(side.read_text().encode(encoding))
    assert run(argv) == 0


def test_a_config_nested_too_deep_is_a_usage_error(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(DEEP_LINE)
    out = tmp_path / "out"
    assert run(["detect", "--config", str(cfg), "--layout", str(synth_dir / "layout.json"),
                "--trajectories", str(synth_dir / "trajectories.jsonl"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config {cfg}: maximum recursion depth")
    assert not out.exists()


def _artifacts(out):
    """Every file in out, with the generated_at line of JSON reports left out; none if out is missing."""
    return {path.name: [line for line in path.read_text().splitlines() if '"generated_at"' not in line]
            for path in sorted(out.iterdir() if out.exists() else [])}


@pytest.mark.parametrize("command, key, extra, check", [
    pytest.param("synth", "shelves", ["--population", "2"], lambda code, err, files: (
        code == 1 and json.loads(err)["error"] == "InfeasibleScript"), id="shelves"),
    pytest.param("synth", "population", [], lambda code, err, files: (
        code == 0 and files["trajectories.jsonl"] == []), id="population"),
    pytest.param("oracle-check", "scenarios", [], lambda code, err, files: (
        code == 0 and '  "scenarios": 0,' in files["oracle_check.json"]), id="scenarios"),
    pytest.param("oracle-check", "max_len", ["--scenarios", "2"], lambda code, err, files: (
        code == 1 and json.loads(err)["error"] == "ValidationError" and not files), id="max-len"),
])
def test_flag_zero_matches_config_zero(tmp_path, capsys, command, key, extra, check):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 0}))
    outcomes = []
    for name, source in (("flag", ["--" + key.replace("_", "-"), "0"]), ("config", ["--config", str(cfg)])):
        out = tmp_path / name
        code = run([command, *source, *extra, "--seed", "3", "--out", str(out)])
        outcomes.append((code, capsys.readouterr().err, _artifacts(out)))
    assert outcomes[0] == outcomes[1]
    assert check(*outcomes[0])


def _json(name, *path):
    """A function of --out that reads what JSON artifact `name` holds at path (keys and indices)."""
    def read(out):
        doc = read_json(out / name)
        for key in path:
            doc = doc[key]
        return doc
    return read


def _population_noise(out):
    """Which noise, of 0.0, 0.05 and 0.1, synth's seed-0 population of 2 trips and 4 shelves was given."""
    written = (out / "trajectories.jsonl").read_text()
    return next(noise for noise in (0.0, 0.05, 0.1) if written == "".join(map(
        kinematics.trajectory_record, synth.generate(population_scenario(0, 2, n_shelves=4, noise=noise))[0])))


PRECEDENCE = [  # command, key, other flags, what the artifacts say of the key; its default, config, flag
    ("oracle-check", "window", ["--scenarios", "0"], _json("oracle_check.json", "config", "window"), 5, 7, 9),
    ("oracle-check", "seed", ["--scenarios", "0"], _json("oracle_check.json", "config", "seed"), 0, 3, 4),
    ("oracle-check", "max_len", ["--scenarios", "0"], _json("oracle_check.json", "config", "max_len"),
     2000, 50, 60),
    ("oracle-check", "scenarios", ["--max-len", "3"], _json("oracle_check.json", "scenarios"), 100, 2, 3),
    ("eval-same", "repeats", [], _json("eval.json", "reports", 0, "repeats"), 10, 2, 3),
    ("eval-same", "p", ["--repeats", "2"], _json("eval.json", "reports", 0, "p"), 0.5, 0.3, 0.4),
    ("eval-cross", "p", [], _json("eval.json", "report", "p"), 1.0, 0.5, 0.25),
    ("eval-cross", "cross_repeats", [], _json("eval.json", "report", "repeats"), 1, 2, None),  # config only
    ("synth", "population", ["--shelves", "4"],
     lambda out: len((out / "trajectories.jsonl").read_text().splitlines()), 50, 2, 3),
    ("synth", "shelves", ["--population", "2"], lambda out: len(_json("layout.json", "shelves")(out)),
     19, 4, 5),
    ("synth", "noise", ["--population", "2", "--shelves", "4"], _population_noise, 0.0, 0.05, 0.1),
]


@pytest.mark.parametrize("command, key, extra, read, default, config, flag", PRECEDENCE,
                         ids=[f"{row[0]}-{row[1]}" for row in PRECEDENCE])
def test_flag_beats_config_which_beats_the_flags_default(synth_dir, tmp_path, command, key, extra, read,
                                                        default, config, flag):
    """The key as the artifacts say it: with neither flag nor config value, with the config value, with both."""
    inputs = {"eval-same": _inputs(synth_dir) + SMALL_GRID,
              "eval-cross": _inputs(synth_dir, "-a") + _inputs(synth_dir, "-b") + SMALL_GRID}.get(command, [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: config}))
    runs = [([], default), (["--config", str(cfg)], config)]
    if flag is not None:
        runs.append((["--config", str(cfg), "--" + key.replace("_", "-"), str(flag)], flag))
    for i, (source, want) in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert run([command, *inputs, *extra, *source, "--out", str(out)]) == 0
        assert read(out) == want, source


@pytest.mark.parametrize("command", ["synth", "eval-same", "eval-cross", "oracle-check"])
def test_negative_seed_exits_1_with_record(synth_dir, tmp_path, capsys, command):
    inputs = {"eval-same": _inputs(synth_dir) + SMALL_GRID,
              "eval-cross": _inputs(synth_dir, "-a") + _inputs(synth_dir, "-b") + SMALL_GRID}.get(command, [])
    out = tmp_path / "out"
    assert run([command, *inputs, "--seed", "-2", "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "ValidationError", "message": "seed must be >= 0, got -2"}
    assert not out.exists()


@pytest.mark.parametrize("command, flags, error, message", [
    ("eval-same", ["--p", "1.5"], "FractionOutOfRange", "p must lie strictly between 0 and 1, got 1.5"),
    ("eval-same", ["--repeats", "0"], "ValidationError", "repeats must be >= 1, got 0"),
    ("eval-cross", ["--p", "1.5"], "FractionOutOfRange", "p must lie in (0, 1], got 1.5"),
])
def test_bad_eval_argument_exits_1_and_creates_no_out(synth_dir, tmp_path, capsys, command, flags,
                                                      error, message):
    inputs = {"eval-same": _inputs(synth_dir),
              "eval-cross": _inputs(synth_dir, "-a") + _inputs(synth_dir, "-b")}[command]
    out = tmp_path / "out"
    assert run([command, *inputs, *SMALL_GRID, *flags, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}
    assert not out.exists()


@pytest.mark.parametrize("command, flag, name", [
    ("synth", "--population", "n_trajectories"),
    ("oracle-check", "--scenarios", "scenarios"),
])
def test_negative_count_exits_1_before_writing(tmp_path, capsys, command, flag, name):
    out = tmp_path / "out"
    assert run([command, flag, "-3", "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "ValidationError", "message": f"{name} must be >= 0, got -3"}
    assert not out.exists()


@pytest.mark.parametrize("scenarios", ["2", "0"])
@pytest.mark.parametrize("max_len", ["2", "-1"])
def test_oracle_check_max_len_below_three_exits_1(tmp_path, capsys, max_len, scenarios):
    out = tmp_path / "o"
    assert run(["oracle-check", "--scenarios", scenarios, "--max-len", max_len, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError" and f"got {max_len}" in record["message"]
    assert not (out / "oracle_check.json").exists()


def _split_store(synth_dir, tmp_path):
    """The synth store with record 5 gap-split in two, relabeled by the detector's own stops.

    Returns (trajectories, labels) paths; a label names the record's `~1` piece.
    """
    lines = (synth_dir / "trajectories.jsonl").read_text().splitlines()
    rec = json.loads(lines[4])
    del rec["samples"][20:25]
    lines[4] = json.dumps(rec)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    layout = load_layout(synth_dir / "layout.json")
    labels = [lab for traj in read_trajectories(path)
              for lab in labels_from_stop_events(
                  detect_stops(build_track(traj, 5), layout, StopParams(2.0, 1.2, 0.55))[0], "auto")]
    assert any(lab.trajectory_id == f"{rec['trajectory_id']}~1" for lab in labels)
    write_labels(labels, tmp_path / "labels.jsonl")
    write_label_manifest(1, ["auto"], tmp_path / "labels.manifest.json")
    return path, tmp_path / "labels.jsonl"


def test_labeled_commands_do_not_depend_on_jobs(synth_dir, tmp_path, range_cuts):
    trajs, labels = _split_store(synth_dir, tmp_path)
    layout = str(synth_dir / "layout.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cross_repeats": 2}))
    outputs = []
    for jobs in ("1", "2", "3", "8"):
        out = tmp_path / f"j{jobs}"
        assert run(["calibrate", "--layout", layout, "--trajectories", str(trajs), "--labels", str(labels),
                    *SMALL_GRID, "--dump-grid", "--jobs", jobs, "--out", str(out / "cal")]) == 0
        assert len(range_cuts[-1]) == int(jobs)
        assert run(["eval-same", "--layout", layout, "--trajectories", str(trajs), "--labels", str(labels),
                    "--p", "0.4", "0.6", "--repeats", "3", "--seed", "2", *SMALL_GRID,
                    "--jobs", jobs, "--out", str(out / "same")]) == 0
        assert run(["eval-cross", "--layout-a", layout, "--trajectories-a", str(trajs),
                    "--labels-a", str(labels), "--layout-b", layout,
                    "--trajectories-b", str(synth_dir / "trajectories.jsonl"),
                    "--labels-b", str(synth_dir / "labels.jsonl"), "--p", "0.5", "--seed", "4",
                    "--config", str(cfg), *SMALL_GRID, "--jobs", jobs, "--out", str(out / "cross")]) == 0
        outputs.append({name: _artifacts(out / name) for name in ("cal", "same", "cross")})
    assert outputs[1:] == outputs[:1] * 3
    assert set(outputs[0]["cal"]) == {"calibration.json", "grid.csv"}
    assert set(outputs[0]["same"]) == set(outputs[0]["cross"]) == {"eval.json", "eval_repeats.csv"}

    # the runs the workers enumerate score as the in-process (track, visits) pairs do
    pairs_layout = load_layout(synth_dir / "layout.json")
    by_traj = {}
    for lab in read_labels(labels):
        by_traj.setdefault(lab.trajectory_id, []).append(lab)
    pairs = [(build_track(traj, 5), majority_vote(by_traj.get(traj.trajectory_id, []), traj, pairs_layout, 1))
             for traj in read_trajectories(trajs)]
    grid = ParamGrid(t_b=(1.0, 3.0, 0.5), delta_b=(0.6, 1.8, 0.3), v_b=(0.25, 0.85, 0.15))
    want = calibrate(pairs, pairs_layout, grid)
    got = read_json(tmp_path / "j2" / "cal" / "calibration.json")
    assert got["n_trajectories"] == len(pairs)
    assert (got["best_f1"], got["counts"]) == (want.best_f1, dict(
        tp=want.metrics.counts.tp, fp=want.metrics.counts.fp, fn=want.metrics.counts.fn))
    assert read_json(tmp_path / "j2" / "same" / "eval.json")["reports"] == [
        same_store_eval(pairs, pairs_layout, grid, p=p, repeats=3, seed=2).to_dict() for p in (0.4, 0.6)]


def _label(trajectory_id, shelf_id=1, reviewer_id="auto"):
    return json.dumps({"reviewer_id": reviewer_id, "trajectory_id": trajectory_id,
                       "shelf_id": shelf_id, "t_start": 0.0, "t_end": 1.0})


def _stray_label(lineno, lines, labels):
    labels.append(_label("ghost"))


def _unknown_shelf(lineno, lines, labels):
    labels.append(_label(json.loads(lines[lineno - 1])["trajectory_id"], shelf_id=99))


def _panel_mismatch(lineno, lines, labels):
    labels.append(_label(json.loads(lines[lineno - 1])["trajectory_id"], reviewer_id="second"))


def _labeled_fault(edit):
    def fault(lineno, lines, labels):
        rec = json.loads(lines[lineno - 1])
        edit(rec, lines)
        lines[lineno - 1] = json.dumps(rec)
    return fault


# faults by line of the 25 records, and the error every --jobs must report
LABELED_FAULT_MIXES = [
    ({2: [_labeled_fault(_wrong_store("a")), _stray_label], 23: [_labeled_fault(_malformed_row)]},
     "ParseError", ":23: sample 3 "),
    ({3: [_unknown_shelf], 20: [_panel_mismatch], 24: [_stray_label]},
     "UnknownTrajectory", "['ghost']"),
    ({2: [_labeled_fault(_wrong_store("a"))], 4: [_panel_mismatch], 22: [_unknown_shelf]},
     "ReviewerCountMismatch", "2 reviewers"),
    ({3: [_labeled_fault(_wrong_store("a"))], 20: [_unknown_shelf], 21: [_panel_mismatch]},
     "UnknownShelf", "shelf 99"),
    ({4: [_labeled_fault(_wrong_store("a"))], 20: [_labeled_fault(_wrong_store("b"))]},
     "FrameMismatch", "store 'a'"),
]


@pytest.mark.parametrize("faults, error, message", LABELED_FAULT_MIXES)
@pytest.mark.parametrize("command", ["calibrate", "eval-same"])
def test_labeled_error_does_not_depend_on_jobs(synth_dir, tmp_path, capsys, range_cuts,
                                               command, faults, error, message):
    lines = (synth_dir / "trajectories.jsonl").read_text().splitlines()
    labels = (synth_dir / "labels.jsonl").read_text().splitlines()
    for lineno, edits in faults.items():
        for edit in edits:
            edit(lineno, lines, labels)
    (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
    (tmp_path / "labels.jsonl").write_text("\n".join(labels) + "\n")
    write_label_manifest(1, ["auto"], tmp_path / "labels.manifest.json")
    extra = ["--p", "0.5", "--repeats", "2"] if command == "eval-same" else []
    reports = []
    for jobs in ("1", "2", "3"):
        code = run([command, "--layout", str(synth_dir / "layout.json"),
                    "--trajectories", str(tmp_path / "t.jsonl"), "--labels", str(tmp_path / "labels.jsonl"),
                    *SMALL_GRID, *extra, "--jobs", jobs, "--out", str(tmp_path / "out")])
        assert len(range_cuts[-1]) == int(jobs)
        reports.append((code, capsys.readouterr().err))
    assert reports[1:] == reports[:1] * 2
    code, err = reports[0]
    record = json.loads(err)
    assert code == 1 and record["error"] == error and message in record["message"]


def _eval_flags(*flags):
    def fault(lineno, lines, labels):
        return list(flags)
    return fault


def _bad_label(lineno, lines, labels):
    labels.append("{not json")


# the documented order, first to last: (name, line, fault, error, message). The argument checks
# come first, in the order given, then the labels file; line 0 marks a fault reported before the
# trajectory file is read. In that file a fault that comes later sits earlier in the file.
ERROR_ORDER = [
    ("p", 0, _eval_flags("--p", "1.5"), "FractionOutOfRange", "got 1.5"),
    ("repeats", 0, _eval_flags("--repeats", "0"), "ValidationError", "repeats must be >= 1"),
    # 1e-17 is below the float spacing at 1.0, so the t_b axis repeats values
    ("grid", 0, _eval_flags("--t-b-range", "1.0", "1.0000000000000002", "1e-17"),
     "ValidationError", "t_b axis must be finite and strictly increasing"),
    ("labels", 0, _bad_label, "ParseError", "bad label record"),
    ("read", 23, _labeled_fault(_malformed_row), "ParseError", ":23: sample 3 "),
    ("unknown", 24, _stray_label, "UnknownTrajectory", "['ghost']"),
    ("vote", 10, _unknown_shelf, "UnknownShelf", "shelf 99"),
    ("store", 2, _labeled_fault(_wrong_store("a")), "FrameMismatch", "store 'a'"),
]
# each pair of faults once; a pair is named in this fixed order, not in the documented one
_PAIR_NAMES = ["read", "unknown", "vote", "p", "repeats", "grid", "store", "labels"]


@pytest.mark.parametrize("pair", [
    pytest.param((a, b), id=f"{a}-{b}") for i, a in enumerate(_PAIR_NAMES) for b in _PAIR_NAMES[i + 1:]])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_error_order_does_not_depend_on_jobs(synth_dir, tmp_path, capsys, range_cuts, jobs, pair):
    first, second = sorted((case for case in ERROR_ORDER if case[0] in pair), key=ERROR_ORDER.index)
    lines = (synth_dir / "trajectories.jsonl").read_text().splitlines()
    labels = (synth_dir / "labels.jsonl").read_text().splitlines()
    flags = ["--p", "0.5", "--repeats", "2", *SMALL_GRID]
    for _, lineno, fault, _, _ in (first, second):
        flags += fault(lineno, lines, labels) or []
    (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
    (tmp_path / "labels.jsonl").write_text("\n".join(labels) + "\n")
    write_label_manifest(1, ["auto"], tmp_path / "labels.manifest.json")
    code = run(["eval-same", "--layout", str(synth_dir / "layout.json"),
                "--trajectories", str(tmp_path / "t.jsonl"), "--labels", str(tmp_path / "labels.jsonl"),
                *flags, "--jobs", jobs, "--out", str(tmp_path / "out")])
    _, lineno, _, error, message = first
    if lineno == 0:  # reported before the trajectory file is cut into ranges
        assert range_cuts == []
    else:
        assert len(range_cuts[-1]) == int(jobs)
    record = json.loads(capsys.readouterr().err)
    assert code == 1 and record["error"] == error and message in record["message"]


@pytest.fixture
def no_ingest(monkeypatch):
    """Make map_file, wherever the commands call it, fail the test if it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trajectory file was read")

    for module in (cli, calibration, detector):
        monkeypatch.setattr(module, "map_file", refuse)


def _request(command, store):
    """A valid request's input and threshold flags for a command on a store."""
    return {
        "detect": [f"--layout={store / 'layout.json'}", f"--trajectories={store / 'trajectories.jsonl'}",
                   "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55"],
        "calibrate": _inputs(store) + SMALL_GRID,
        "eval-same": _inputs(store) + SMALL_GRID,
        "eval-cross": _inputs(store, "-a") + _inputs(store, "-b") + SMALL_GRID,
        "analyze": [f"--layout={store / 'layout.json'}", f"--trajectories={store / 'trajectories.jsonl'}"],
        "synth": ["--population", "2"],
        "oracle-check": ["--scenarios", "0"],  # takes no --jobs
    }[command]


def _flags(*flags):
    return lambda store, tmp_path: list(flags)


def _cross_repeats_zero(store, tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"cross_repeats": 0}))
    return ["--config", str(tmp_path / "cfg.json")]


def _empty_panel(store, tmp_path):
    labels = tmp_path / "labels.jsonl"
    labels.write_bytes((store / "labels.jsonl").read_bytes())
    write_label_manifest(0, [], tmp_path / "labels.manifest.json")
    return [f"--labels={labels}"]


def _stops(content):
    def fault(store, tmp_path):
        (tmp_path / "stops.jsonl").write_text(content)
        return [f"--stops={tmp_path / 'stops.jsonl'}"]
    return fault


def _purchases(content: bytes):
    def fault(store, tmp_path):
        (tmp_path / "purchases.csv").write_bytes(content)
        return [*_stops("")(store, tmp_path), f"--purchases={tmp_path / 'purchases.csv'}"]
    return fault


PURCHASES_HEADER = b"trajectory_id,shelf_id,quantity\n"


UNSTEPPED = ["--t-b-range", "1.0", "1.0000000000000002", "1e-17"]  # the t_b axis repeats 1.0
# 1000 x 1000 x 4000 points: 4.01e9 difference-table cells, past what an int32 run corner indexes
OVERSIZED = ["--t-b-range", "0.1", "100", "0.1", "--delta-b-range", "0.1", "100", "0.1",
             "--v-b-range", "0.005", "20", "0.005"]
OVERSIZED_ERROR = ("ValidationError", "parameter grid needs 4009006001 count-table cells, more than 2**31")
BAD_WINDOW = ("InvalidWindow", "window must be a positive odd sample count, got 4")
BAD_REQUESTS = [  # (name, command, fault, error, message)
    ("p", "eval-same", _flags("--p", "1.5"), "FractionOutOfRange",
     "p must lie strictly between 0 and 1, got 1.5"),
    ("repeats", "eval-same", _flags("--repeats", "0"), "ValidationError", "repeats must be >= 1, got 0"),
    ("seed", "eval-same", _flags("--seed", "-2"), "ValidationError", "seed must be >= 0, got -2"),
    ("window", "eval-same", _flags("--window", "4"), *BAD_WINDOW),
    ("grid", "eval-same", _flags(*UNSTEPPED), "ValidationError",
     "t_b axis must be finite and strictly increasing"),
    ("grid-cells", "eval-same", _flags(*OVERSIZED), *OVERSIZED_ERROR),
    ("panel", "eval-same", _empty_panel, "ValidationError",
     "reviewer panel must have at least one member, got 0"),
    ("p", "eval-cross", _flags("--p", "0"), "FractionOutOfRange", "p must lie in (0, 1], got 0.0"),
    ("repeats", "eval-cross", _cross_repeats_zero, "ValidationError", "repeats must be >= 1, got 0"),
    ("window", "calibrate", _flags("--window", "4"), *BAD_WINDOW),
    ("grid", "calibrate", _flags(*UNSTEPPED), "ValidationError",
     "t_b axis must be finite and strictly increasing"),
    ("grid-cells", "calibrate", _flags(*OVERSIZED), *OVERSIZED_ERROR),
    ("grid-axis", "calibrate", _flags("--t-b-range", "0.1", "1000000", "0.000001"), "ValidationError",
     "parameter grid needs 35999996400072 count-table cells, more than 2**31"),  # 1e12 t_b points
    ("panel", "calibrate", _empty_panel, "ValidationError",
     "reviewer panel must have at least one member, got 0"),
    ("window", "detect", _flags("--window", "4"), *BAD_WINDOW),
    ("window", "analyze", lambda store, tmp_path: [*_stops("")(store, tmp_path), "--window", "4"],
     *BAD_WINDOW),
    ("stops", "analyze", _stops("{not json\n"), "ParseError", "stops.jsonl:1: bad stop event"),
    ("purchases", "analyze", _purchases(b"trip,shelf\n"), "ParseError", "purchases CSV must have columns"),
    ("purchases-not-utf8", "analyze", _purchases(PURCHASES_HEADER + b"trip-00000,1,\xff\n"), "ParseError",
     "purchases.csv:2: bad purchase record: 'utf-8' codec can't decode byte 0xff in position 45"),
    ("purchases-oversized-field", "analyze",
     _purchases(PURCHASES_HEADER + b"trip-00000,1,1\n" + b"x" * 131_073 + b",1,1\n"), "ParseError",
     "purchases.csv:3: bad purchase record: Error('field larger than field limit (131072)')"),
    ("purchases-after-a-blank-line", "analyze",
     _purchases(PURCHASES_HEADER + b"trip-00000,1,1\n\ntrip-00000,one,1\n"), "ParseError",
     "purchases.csv:4: bad purchase record: ValueError("),
    ("window", "synth", _flags("--window", "4"), *BAD_WINDOW),
    ("window", "oracle-check", _flags("--window", "4"), *BAD_WINDOW),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command, fault, error, message", [
    pytest.param(command, *case, id=f"{command}-{name}") for name, command, *case in BAD_REQUESTS])
def test_bad_request_exits_1_before_reading_a_trajectory(synth_dir, tmp_path, capsys, no_ingest, jobs,
                                                         command, fault, error, message):
    out = tmp_path / "out"
    jobs = [] if command == "oracle-check" else ["--jobs", jobs]
    code = run([command, *_request(command, synth_dir), *fault(synth_dir, tmp_path), *jobs,
                "--out", str(out)])
    record = json.loads(capsys.readouterr().err)
    assert code == 1 and record["error"] == error and message in record["message"]
    assert not out.exists()
