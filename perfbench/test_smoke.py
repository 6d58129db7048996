"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload through the timed and the traced path on 20 trips and a
5 x 5 x 5 grid, and checks that each output check rejects a corrupted artifact.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from workloads import CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# the planted point is the grid's smallest, so ties cannot move the optimum off it
TINY_GRID = ("--t-b-range", "2.0", "3.0", "0.25", "--delta-b-range", "1.2", "1.8", "0.15",
             "--v-b-range", "0.55", "0.85", "0.075")
TINY_STORE = ("--population", "20", "--shelves", "8", "--noise", "0.05", "--plant", "2.0,1.2,0.55")
SEED = 5


def tiny(name):
    wl = workloads.WORKLOADS[name]
    command = wl.command
    if "--t-b-range" in command:
        command = command[:command.index("--t-b-range")] + TINY_GRID
    return dataclasses.replace(wl, synth=TINY_STORE, command=command)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, record = run.measure(tiny(name), SEED, 0, trace, ROOT)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["error_rate"] == 0.0
    if trace:
        assert record["absent"] == []
        for acc in record["accounting"]:
            named = sum(acc["self_s"].values())
            assert named + acc["startup_and_exit_s"] == pytest.approx(acc["traced_wall_s"])


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """(data_dir, {workload: out_dir}) from one tiny synth and each tiny command."""
    base = tmp_path_factory.mktemp("artifacts")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    data = str(base / "data")

    def cli(*args):
        subprocess.run([sys.executable, "-m", "shelfscan.cli", *args], env=env, check=True,
                       capture_output=True, timeout=120)

    cli("synth", *TINY_STORE, "--seed", str(SEED), "--out", data)
    outs = {}
    for name in workloads.WORKLOADS:
        wl = tiny(name)
        outs[name] = str(base / name)
        cli(*run._command(wl, data, outs[name]))
    return data, outs


def _corrupt(artifacts, name, tmp_path, edit):
    data, outs = artifacts
    out = str(tmp_path / name)
    shutil.copytree(outs[name], out)
    edit(out)
    wl = tiny(name)
    with pytest.raises(CheckFailed):
        wl.check(data, out, wl.command)


def test_checks_accept_the_real_artifacts(artifacts):
    data, outs = artifacts
    for name, out in outs.items():
        wl = tiny(name)
        wl.check(data, out, wl.command)


def _rewrite_lines(path, edit):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(edit(lines))


def _rewrite_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_detect_check_rejects_a_dropped_event(artifacts, tmp_path):
    _corrupt(artifacts, "detect", tmp_path, lambda out: _rewrite_lines(
        os.path.join(out, "stops.jsonl"), lambda lines: lines[:-1]))


def test_detect_check_rejects_a_dropped_matrix_row(artifacts, tmp_path):
    _corrupt(artifacts, "detect", tmp_path, lambda out: _rewrite_lines(
        os.path.join(out, "stop_matrix.csv"), lambda lines: lines[:-1]))


def test_calibrate_check_rejects_a_lower_f1(artifacts, tmp_path):
    _corrupt(artifacts, "calibrate-fine", tmp_path, lambda out: _rewrite_json(
        os.path.join(out, "calibration.json"), lambda doc: doc.update(best_f1=0.99)))


def test_calibrate_check_rejects_another_point(artifacts, tmp_path):
    _corrupt(artifacts, "calibrate-fine", tmp_path, lambda out: _rewrite_json(
        os.path.join(out, "calibration.json"), lambda doc: doc["best_params"].update(t_b=2.25)))


def test_eval_same_check_rejects_a_lower_repeat(artifacts, tmp_path):
    def edit(doc):
        doc["reports"][0]["scores"][-1] = 0.99
    _corrupt(artifacts, "eval-same", tmp_path,
             lambda out: _rewrite_json(os.path.join(out, "eval.json"), edit))


def test_missing_target_is_reported_absent():
    assert tracer.Tracer("t").install([("json", "no_such_function", "x", None)]) \
        == ["json.no_such_function"]
    span = {"name": "cli.main", "parent": None, "run": "t", "start": 0.0, "end": 1.0}
    doc = {"missing": ["shelfscan.calibration.gaze_stream"], "spans": [span]}
    info = [{"traced_wall_s": 1.5, "records": 3, "overhead_s": 0.1}]
    metrics, absent = tracer.layer_metrics([doc], {"missing": [], "spans": []}, info)
    assert set(absent) == {"detector.gaze_s", "detector.gaze_calls", "detector.gaze_rays",
                           "detector.candidate_frac"}
    assert metrics["cli.self_s"]["value"] == 1.0
    assert metrics["cli.startup_s"]["value"] == 0.5


def test_failed_counter_is_reported_absent():
    def broken(args, result):
        raise TypeError("result changed shape")
    t = tracer.Tracer("t")
    assert t.call("detector.detect_many", len, ([1, 2],), counters=broken) == 2
    root = {"name": "cli.main", "parent": None, "run": "t", "start": 0.0, "end": 5.0}
    doc = {"missing": [], "spans": [root] + [dict(s, parent=0) for s in t.spans]}
    info = [{"traced_wall_s": 5.0, "records": 3, "overhead_s": 0.1}]
    metrics, absent = tracer.layer_metrics([doc], {"missing": [], "spans": []}, info)
    assert absent == ["detector.events"]
    assert "detector.detect_many_s" in metrics


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
