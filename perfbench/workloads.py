"""The benchmark's workloads and the checks that their outputs are correct.

A workload is one `shelfscan synth` call that builds the inputs from the
benchmark seed, plus one `shelfscan` command that reads only those inputs.
The checks read the artifacts through their documented file formats and do
not import shelfscan, so a broken program cannot vouch for itself.
"""

import csv
import json
import os
from dataclasses import dataclass

DT = 0.1                 # trajectory sample step, seconds (10 Hz file format)
PLANT = (2.0, 1.2, 0.55)  # (t_b, delta_b, v_b) the labels are planted at
JOBS = 2                  # detect workers, fixed so the host cannot change the workload
_PLANT_FLAG = ",".join(repr(x) for x in PLANT)
_README_GRID = ("--t-b-range", "1.0", "3.0", "0.5", "--delta-b-range", "0.6", "1.8", "0.3",
                "--v-b-range", "0.25", "0.85", "0.15")


class CheckFailed(Exception):
    """A command's artifacts do not match the planted truth."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple     # `shelfscan synth` flags, without --seed and --out
    command: tuple   # subcommand and its threshold/grid flags, without input paths and --out
    check: object    # check(data_dir, out_dir, command) raises CheckFailed

    def inputs(self, data_dir):
        """Input-path flags for the command, all inside data_dir."""
        flags = ["--layout", os.path.join(data_dir, "layout.json"),
                 "--trajectories", os.path.join(data_dir, "trajectories.jsonl")]
        if self.command[0] != "detect":
            flags += ["--labels", os.path.join(data_dir, "labels.jsonl")]
        return flags


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_detect(data_dir, out_dir, command):
    """stops.jsonl equals the planted labels; stop_matrix.csv has one row per stopped sample."""
    events = _read_jsonl(os.path.join(out_dir, "stops.jsonl"))
    labels = _read_jsonl(os.path.join(data_dir, "labels.jsonl"))
    # labels_from_stop_events ends each half-open label interval DT/2 past the last sample
    got = [(e["trajectory_id"], e["shelf_id"], e["t_s"], e["t_f"] + DT / 2.0) for e in events]
    want = [(lab["trajectory_id"], lab["shelf_id"], lab["t_start"], lab["t_end"]) for lab in labels]
    if got != want:
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        raise CheckFailed(f"stops.jsonl has {len(got)} events, planted labels {len(want)}; "
                          f"first difference at event {bad}")
    stopped = sum(round((e["t_f"] - e["t_s"]) / DT) + 1 for e in events)
    with open(os.path.join(out_dir, "stop_matrix.csv"), newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != stopped:
        raise CheckFailed(f"stop_matrix.csv has {rows} rows, the events cover {stopped} samples")


def check_calibrate(data_dir, out_dir, command):
    """calibration.json finds F1 = 1.0 at the planted point."""
    with open(os.path.join(out_dir, "calibration.json")) as fh:
        report = json.load(fh)
    best = report["best_params"]
    found = (best["t_b"], best["delta_b"], best["v_b"])
    if report["best_f1"] != 1.0 or any(abs(a - b) > 1e-9 for a, b in zip(found, PLANT)):
        raise CheckFailed(f"best F1 {report['best_f1']!r} at {found}, planted {PLANT}")


def check_eval_same(data_dir, out_dir, command):
    """Every held-out repeat of eval.json scores exactly 1.0."""
    with open(os.path.join(out_dir, "eval.json")) as fh:
        doc = json.load(fh)
    repeats = int(command[command.index("--repeats") + 1])
    for rep in doc["reports"]:
        if len(rep["scores"]) != repeats or any(s != 1.0 for s in rep["scores"]):
            raise CheckFailed(f"p={rep['p']}: scores {rep['scores']}, want {repeats} x 1.0")


def _store(population, shelves):
    return ("--population", str(population), "--shelves", str(shelves), "--noise", "0.05",
            "--plant", _PLANT_FLAG)


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="detect",
            why="full-population detection: ingest-bound, with a 2-worker gaze/runs pool; "
                "the calibration sweep does no work here",
            synth=_store(512, 50),  # two full 256-trajectory chunks, one per worker
            command=("detect", "--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55",
                     "--jobs", str(JOBS)),
            check=check_detect,
        ),
        Workload(
            name="calibrate-fine",
            why="exhaustive calibration at the default t_b and v_b resolution: "
                "36 x 5 x 141 grid points, sweep-bound",
            synth=_store(60, 19),
            command=("calibrate", "--t-b-range", "0.5", "4.0", "0.1",
                     "--delta-b-range", "0.6", "1.8", "0.3", "--v-b-range", "0.1", "1.5", "0.01"),
            check=check_calibrate,
        ),
        Workload(
            name="eval-same",
            why="held-out evaluation: per-trajectory gaze in calibration, five small sweeps "
                "and held-out scoring, on a half-size detect store",
            synth=_store(256, 50),
            command=("eval-same", "--p", "0.5", "--repeats", "5", "--seed", "1") + _README_GRID,
            check=check_eval_same,
        ),
    )
}
