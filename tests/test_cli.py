import csv
import json

import pytest

from shelfscan.cli import main


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
