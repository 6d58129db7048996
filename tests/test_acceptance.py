"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them live) and
enforces its stated tolerance exactly; the suite doubles as the project's
release gate.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from shelfscan import (
    DT,
    ConfusionCounts,
    ParamGrid,
    PurchaseRecord,
    ReviewerLabel,
    StopParams,
    VisitMatrix,
    VisitVector,
    build_track,
    brute_force_stops,
    calibrate,
    conversion_rates,
    detect_many,
    detect_stops,
    generate,
    majority_vote,
    make_layout,
    population_scenario,
    precision_recall_f1,
    random_scenario,
    same_store_eval,
    shelf_stats,
    stand_point,
)
from shelfscan import LayoutTemplate
from shelfscan.cli import main as cli_main
from shelfscan.kinematics import Trajectory, fit_window

from conftest import standing_trajectory

PLANTED = StopParams(t_b=2.0, delta_b=1.2, v_b=0.55)
PLANTED_GRID = ParamGrid(t_b=(1.0, 3.0, 0.5), delta_b=(0.6, 1.8, 0.3), v_b=(0.25, 0.85, 0.15))


def criterion(name):
    """Tag a test as one acceptance criterion; conftest prints its PASS/FAIL line."""
    def mark(fn):
        fn._criterion = name
        return fn
    return mark


@pytest.fixture(scope="module")
def planted_100():
    trajs, _, layout = generate(population_scenario(seed=42, n_trajectories=100))
    dataset = []
    for traj in trajs:
        track = build_track(traj, 5)
        _, stops = detect_stops(track, layout, PLANTED)
        dataset.append((track, VisitMatrix(
            trajectory_id=stops.trajectory_id,
            times=stops.times,
            values=stops.values.copy(),
            n_reviewers=1,
        )))
    return dataset, layout


@criterion("oracle-equivalence (1000 scenarios, 0 mismatches)")
def test_oracle_equivalence_1000_scenarios():
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for i in range(1000):
        spec = random_scenario(20_000 + i, max_len=2000)
        trajs, _, layout = generate(spec)
        rng = np.random.default_rng(777 + i)
        params = StopParams(
            t_b=float(rng.uniform(0.3, 4.0)),
            delta_b=float(rng.uniform(0.3, 3.0)),
            v_b=float(rng.uniform(0.1, 1.5)),
        )
        for traj in trajs:
            track = build_track(traj, fit_window(5, len(traj)))
            _, fast = detect_stops(track, layout, params)
            slow = brute_force_stops(track, layout, params)
            checked += 1
            if not np.array_equal(fast.values, slow.values):
                mismatches += 1
    elapsed = time.monotonic() - start
    print(f"\n  oracle sweep: {checked} trajectories, {elapsed:.0f}s")
    assert mismatches == 0
    assert elapsed < 300.0


@criterion("planted-parameter recovery (best F1 = 1.0 at planted point)")
def test_planted_parameter_recovery(planted_100):
    dataset, layout = planted_100
    assert len(dataset) >= 100
    result = calibrate(dataset, layout, PLANTED_GRID)
    assert result.best_f1 == 1.0
    t_axis, d_axis, v_axis = result.grid_axes
    ti = int(np.argmin(np.abs(t_axis - PLANTED.t_b)))
    di = int(np.argmin(np.abs(d_axis - PLANTED.delta_b)))
    vi = int(np.argmin(np.abs(v_axis - PLANTED.v_b)))
    assert abs(t_axis[ti] - PLANTED.t_b) < 1e-9
    assert abs(d_axis[di] - PLANTED.delta_b) < 1e-9
    assert abs(v_axis[vi] - PLANTED.v_b) < 1e-9
    assert result.f1_table[ti, di, vi] == 1.0  # the planted point attains the max
    assert result.best_params == PLANTED


@criterion("monotonicity (200 scenarios x 20 parameter pairs, 0 violations)")
def test_monotonicity_suite():
    violations = 0
    rng = np.random.default_rng(31337)
    for i in range(200):
        trajs, _, layout = generate(random_scenario(50_000 + i, max_len=400))
        tracks = [build_track(t, fit_window(5, len(t))) for t in trajs]
        for _ in range(20):
            t_b = float(rng.uniform(0.4, 4.0))
            delta_b = float(rng.uniform(0.4, 2.5))
            v_b = float(rng.uniform(0.15, 1.2))
            strict = StopParams(t_b, delta_b, v_b)
            loose = StopParams(
                t_b=float(rng.uniform(0.1, t_b)),
                delta_b=delta_b + float(rng.uniform(0.0, 1.0)),
                v_b=v_b + float(rng.uniform(0.0, 0.8)),
            )
            for track in tracks:
                _, s_strict = detect_stops(track, layout, strict)
                _, s_loose = detect_stops(track, layout, loose)
                if (s_strict.values & ~s_loose.values).any():
                    violations += 1
    assert violations == 0


@criterion("metric identities (10^4 random confusion counts)")
def test_metric_identities():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        tp = int(rng.integers(0, 10_000))
        fp = int(rng.integers(0, 10_000))
        fn = int(rng.integers(0, 10_000))
        rep = precision_recall_f1(ConfusionCounts(tp, fp, fn))
        p, r = rep.precision, rep.recall
        if tp + fp == 0:
            assert p == 0.0
        if tp + fn == 0:
            assert r == 0.0
        if p + r > 0:
            assert abs(rep.f1 - 2.0 * p * r / (p + r)) < 1e-12
        else:
            assert rep.f1 == 0.0
        assert rep.f1 <= 2.0 * min(p, r) + 1e-12


@criterion("majority-vote properties (300 randomized label sets, 0 violations)")
def test_majority_vote_properties(single_shelf_layout):
    rng = np.random.default_rng(4242)
    traj = standing_trajectory((1.0, 1.0), 0.0, 24)
    reviewers = ["a", "b", "c", "d"]
    violations = 0
    for _ in range(300):
        labels = []
        for _ in range(int(rng.integers(0, 10))):
            start = int(rng.integers(0, 22))
            length = int(rng.integers(1, 10))
            labels.append(ReviewerLabel(
                reviewer_id=reviewers[int(rng.integers(0, 4))],
                trajectory_id="t", shelf_id=1,
                t_start=start * DT, t_end=(start + length) * DT,
            ))
        before = majority_vote(labels, traj, single_shelf_layout, 4)
        # adding one more label can never clear a visit
        start = int(rng.integers(0, 22))
        extra = ReviewerLabel("d", "t", 1, start * DT, (start + 2) * DT)
        after = majority_vote(labels + [extra], traj, single_shelf_layout, 4)
        if (before.values & ~after.values).any():
            violations += 1
        # splitting every interval at an interior sample changes nothing
        split = []
        for lab in labels:
            n_steps = round((lab.t_end - lab.t_start) / DT)
            if n_steps >= 2:
                cut = lab.t_start + int(rng.integers(1, n_steps)) * DT
                split.append(ReviewerLabel(lab.reviewer_id, "t", 1, lab.t_start, cut))
                split.append(ReviewerLabel(lab.reviewer_id, "t", 1, cut, lab.t_end))
            else:
                split.append(lab)
        resplit = majority_vote(split, traj, single_shelf_layout, 4)
        if not np.array_equal(before.values, resplit.values):
            violations += 1
    # strict-majority threshold at the panel size of four
    three = [ReviewerLabel(r, "t", 1, 0.0, 0.5) for r in reviewers[:3]]
    two = [ReviewerLabel(r, "t", 1, 0.0, 0.5) for r in reviewers[:2]]
    assert majority_vote(three, traj, single_shelf_layout, 4).values[0, 0]
    assert not majority_vote(two, traj, single_shelf_layout, 4).values[0, 0]
    assert violations == 0


@criterion("evaluation-protocol determinism (planted F1 = 1.0 for all p)")
def test_evaluation_protocol_determinism(planted_100):
    dataset, layout = planted_100
    first = same_store_eval(dataset, layout, PLANTED_GRID, p=0.5, repeats=10, seed=2024)
    second = same_store_eval(dataset, layout, PLANTED_GRID, p=0.5, repeats=10, seed=2024)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(second.to_dict(), sort_keys=True)
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        rep = same_store_eval(dataset, layout, PLANTED_GRID, p=p, repeats=10, seed=1234)
        assert rep.mean == 1.0, f"p={p}: {rep.scores}"
        assert rep.stderr == 0.0


@criterion("fig3-shaped eval sweep CSV (per-repeat scores, means, standard errors)")
def test_eval_sweep_emits_fig3_shaped_csv(tmp_path):
    synth_dir = tmp_path / "synth"
    assert cli_main([
        "synth", "--population", "20", "--shelves", "9", "--seed", "5",
        "--plant", "2.0,1.2,0.55", "--out", str(synth_dir),
    ]) == 0
    out = tmp_path / "eval"
    assert cli_main([
        "eval-same",
        "--layout", str(synth_dir / "layout.json"),
        "--trajectories", str(synth_dir / "trajectories.jsonl"),
        "--labels", str(synth_dir / "labels.jsonl"),
        "--p", "0.2", "0.5", "0.8",
        "--repeats", "10", "--seed", "8",
        "--t-b-range", "1.0", "3.0", "0.5",
        "--delta-b-range", "0.6", "1.8", "0.3",
        "--v-b-range", "0.25", "0.85", "0.15",
        "--out", str(out),
    ]) == 0
    with open(out / "eval_repeats.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"p", "repeat", "f1", "mean_f1", "stderr_f1"}
    by_p = {}
    for row in rows:
        by_p.setdefault(row["p"], []).append(row)
    assert len(by_p) == 3
    for p, group in by_p.items():
        assert [int(r["repeat"]) for r in group] == list(range(10))
        scores = [float(r["f1"]) for r in group]
        assert float(group[0]["mean_f1"]) == pytest.approx(np.mean(scores))
        expected_se = 0.0 if len(scores) < 2 else np.std(scores, ddof=1) / math.sqrt(len(scores))
        assert float(group[0]["stderr_f1"]) == pytest.approx(expected_se)


@criterion("analytics identities (100 random visit-vector sets)")
def test_analytics_identities():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        n_s = int(rng.integers(1, 30))
        n_trips = int(rng.integers(1, 50))
        vectors = [
            VisitVector(f"t{i}", tuple(int(b) for b in rng.integers(0, 2, n_s)))
            for i in range(n_trips)
        ]
        stats = shelf_stats(vectors)
        assert abs(stats.overall_avg_visits - sum(stats.per_shelf)) < 1e-12
    # a never-visited shelf must report an undefined conversion, not 0 or inf
    vectors = [VisitVector("a", (1, 0)), VisitVector("b", (1, 0))]
    conv = conversion_rates(shelf_stats(vectors), [PurchaseRecord("a", 1, 1)])
    assert conv.rates[1] is None
    assert conv.rates[0] == pytest.approx(0.5)
    assert all(r is None or math.isfinite(r) for r in conv.rates)


@criterion("performance budget (10k trajectories x 600 samples < 60 s)")
def test_detection_performance_budget():
    layout = make_layout(LayoutTemplate(n_shelves=50), store_id="perf")
    rng = np.random.default_rng(7)
    xmin, ymin, xmax, ymax = layout.bounds
    k = 600
    times = np.arange(k) * DT
    tracks = []
    for i in range(10_000):
        shelf = int(rng.integers(1, 51))
        sx, sy = stand_point(layout, shelf, float(rng.uniform(0.5, 2.0)))
        start = np.array([rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)])
        approach = np.minimum(np.arange(k) / float(rng.integers(100, 400)), 1.0)
        pos = start[None, :] + approach[:, None] * (np.array([sx, sy]) - start)[None, :]
        theta = rng.uniform(-np.pi, np.pi, k)
        dwell_from = int(rng.integers(200, 500))
        theta[dwell_from:] = math.atan2(
            layout.shelves[shelf - 1].face.midpoint[1] - sy,
            layout.shelves[shelf - 1].face.midpoint[0] - sx,
        )
        tracks.append(build_track(Trajectory(f"p{i}", "perf", times, pos, theta), window=5))
    start_t = time.monotonic()
    results = detect_many(tracks, layout, StopParams(2.0, 1.2, 0.55))
    elapsed = time.monotonic() - start_t
    n_events = sum(len(r) for r in results)
    print(f"\n  detect: 10,000 x {k} samples vs 50 shelves in {elapsed:.1f}s ({n_events} events)")
    assert elapsed < 60.0
