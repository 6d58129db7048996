import math
from dataclasses import asdict

import numpy as np
import pytest

from shelfscan import (
    DT,
    LayoutTemplate,
    ScenarioSpec,
    ShopperScript,
    StopParams,
    Waypoint,
    browsing_script,
    brute_force_stops,
    build_track,
    detect_stops,
    generate,
    make_layout,
    population_scenario,
    random_scenario,
    stand_point,
)
from shelfscan.errors import InfeasibleScript, ValidationError
from shelfscan.kinematics import fit_window
from shelfscan.synth import (
    GroundTruth,
    read_ground_truth,
    read_scenario,
    scenario_from_dict,
    write_ground_truth,
    write_scenario,
)

PARAMS = StopParams(t_b=2.0, delta_b=1.2, v_b=0.55)


def one_visit_spec(dwell, distance=1.0, n_shelves=19, **kwargs):
    layout = make_layout(LayoutTemplate(n_shelves=n_shelves), store_id="synthetic")
    script = browsing_script(layout, "t1", [(1, distance, dwell)])
    return ScenarioSpec(
        store_id="synthetic",
        template=LayoutTemplate(n_shelves=n_shelves),
        scripts=(script,),
        **kwargs,
    )


def test_layout_template_counts():
    layout = make_layout(LayoutTemplate(n_shelves=50), store_id="big")
    assert layout.n_shelves == 50
    assert len(layout.obstacles) == 50 + 4  # backs plus perimeter walls
    assert len(layout.portals) == 2
    assert layout.area_m2 == pytest.approx(
        (layout.bounds[2] - layout.bounds[0]) * (layout.bounds[3] - layout.bounds[1])
    )


def test_generate_is_deterministic():
    spec = population_scenario(7, 5, noise=0.2)
    a_trajs, a_truth, _ = generate(spec)
    b_trajs, b_truth, _ = generate(spec)
    assert [t.trajectory_id for t in a_trajs] == [t.trajectory_id for t in b_trajs]
    for a, b in zip(a_trajs, b_trajs):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.thetas, b.thetas)
    assert a_truth == b_truth


def test_three_second_dwell_is_one_stop():
    for window in (1, 5):
        trajs, truth, layout = generate(one_visit_spec(dwell=3.0))
        track = build_track(trajs[0], window)
        events, _ = detect_stops(track, layout, PARAMS)
        assert len(events) == 1
        assert events[0].shelf_id == 1
        (shelf_id, t0, t1) = truth.episodes["t1"][0]
        assert shelf_id == 1
        # the detected stop covers the scripted dwell up to boundary samples
        assert events[0].t_s <= t0 + 2 * DT
        assert events[0].t_f >= t1 - 2 * DT


def test_one_second_dwell_is_no_stop():
    trajs, _, layout = generate(one_visit_spec(dwell=1.0))
    for window in (1, 5):
        events, matrix = detect_stops(build_track(trajs[0], window), layout, PARAMS)
        assert events == []
        assert not matrix.values.any()


def test_ground_truth_episode_times_match_dwell():
    trajs, truth, _ = generate(one_visit_spec(dwell=3.0))
    (shelf_id, t0, t1) = truth.episodes["t1"][0]
    assert t1 - t0 == pytest.approx(3.0, abs=DT / 2)


def test_noise_levels_change_samples_not_shape():
    clean_spec = one_visit_spec(dwell=2.0)
    noisy_spec = one_visit_spec(dwell=2.0, position_noise=0.05, heading_noise=0.1, seed=3)
    clean, _, _ = generate(clean_spec)
    noisy, _, _ = generate(noisy_spec)
    assert len(clean[0]) == len(noisy[0])
    assert clean[0].trajectory_id == noisy[0].trajectory_id
    assert np.array_equal(clean[0].times, noisy[0].times)
    assert not np.array_equal(clean[0].positions, noisy[0].positions)
    assert not np.array_equal(clean[0].thetas, noisy[0].thetas)


@pytest.mark.parametrize("field, value", [
    ("position_noise", -0.5), ("position_noise", math.nan), ("position_noise", math.inf),
    ("heading_noise", -0.5), ("heading_noise", math.nan), ("heading_noise", math.inf),
    ("walk_speed", math.nan), ("walk_speed", math.inf),
])
def test_non_finite_or_negative_noise_and_speed_rejected(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        one_visit_spec(dwell=1.0, **{field: value})


def test_max_samples_truncates_and_clips_truth():
    spec = one_visit_spec(dwell=3.0)
    spec = ScenarioSpec(
        store_id=spec.store_id, template=spec.template, scripts=spec.scripts,
        max_samples=40,
    )
    trajs, truth, _ = generate(spec)
    assert len(trajs[0]) == 40
    for _, t0, t1 in truth.episodes["t1"]:
        assert t1 <= trajs[0].times[-1] + 1e-9


def test_waypoint_outside_store_rejected():
    layout = make_layout(LayoutTemplate(n_shelves=4), store_id="synthetic")
    script = ShopperScript("bad", (Waypoint(target=(1e4, 1e4)),))
    spec = ScenarioSpec("synthetic", LayoutTemplate(n_shelves=4), (script,))
    with pytest.raises(InfeasibleScript):
        generate(spec)


def test_negative_dwell_rejected():
    script = ShopperScript("bad", (Waypoint(target=(4.0, 1.0), dwell=-1.0),))
    spec = ScenarioSpec("synthetic", LayoutTemplate(n_shelves=4), (script,))
    with pytest.raises(InfeasibleScript):
        generate(spec)


def test_unknown_face_shelf_rejected():
    script = ShopperScript("bad", (Waypoint(target=(4.0, 1.0), dwell=1.0, face_shelf=99),))
    spec = ScenarioSpec("synthetic", LayoutTemplate(n_shelves=4), (script,))
    with pytest.raises(InfeasibleScript):
        generate(spec)


def test_non_positive_speed_rejected():
    spec = one_visit_spec(dwell=1.0, walk_speed=0.0)
    with pytest.raises(InfeasibleScript):
        generate(spec)


def test_overlapping_truth_episodes_rejected():
    with pytest.raises(InfeasibleScript):
        GroundTruth(episodes={"t": ((1, 0.0, 2.0), (2, 1.0, 3.0))})


def test_scenario_json_round_trip(tmp_path):
    spec = population_scenario(5, 3, noise=0.02)
    path = tmp_path / "scenario.json"
    write_scenario(spec, path)
    assert read_scenario(path) == spec
    assert scenario_from_dict(asdict(spec)) == spec


def test_scenario_keys_left_out_take_the_dataclass_defaults():
    spec = ScenarioSpec("s", LayoutTemplate(n_shelves=3),
                        (ShopperScript("t", (Waypoint((1.0, 2.0)), Waypoint((3.0, 4.0), dwell=1.5))),))
    doc = {"store_id": "s", "template": {"n_shelves": 3},
           "scripts": [{"trajectory_id": "t", "waypoints": [{"target": [1, 2]},
                                                            {"target": [3, 4], "dwell": 1.5}]}]}
    assert scenario_from_dict(doc) == spec


def test_negative_spec_seed_rejected():
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        scenario_from_dict({**asdict(random_scenario(6)), "seed": -1})


def test_ground_truth_round_trip(tmp_path):
    _, truth, _ = generate(population_scenario(6, 4))
    path = tmp_path / "truth.json"
    write_ground_truth(truth, path)
    assert read_ground_truth(path) == truth


def margin_script(layout, visits, speed_ratio=1.8, v_b=0.5):
    """Browsing script whose walk speed sits in (v_b, 2*v_b]."""
    return browsing_script(layout, "m", visits), speed_ratio * v_b


def test_dwell_margins_guarantee_detection():
    # dwells at least 2 samples over the minimum are found, 2 under never are,
    # with the unsmoothed stream (smoothing blurs edges by ~window//2 samples)
    v_b = 0.5
    params = StopParams(t_b=2.0, delta_b=1.2, v_b=v_b)
    layout = make_layout(LayoutTemplate(n_shelves=9), store_id="synthetic")
    rng = np.random.default_rng(20)
    for trial in range(25):
        long_dwell = params.t_b + 2 * DT + float(rng.uniform(0.0, 2.0))
        short_dwell = max(params.t_b - 2 * DT - float(rng.uniform(0.0, 1.5)), 3 * DT)
        shelf_long = int(rng.integers(1, 10))
        shelf_short = int(rng.integers(1, 10))
        visits = [
            (shelf_long, float(rng.uniform(0.4, params.delta_b - 0.2)), long_dwell),
            (shelf_short, float(rng.uniform(0.4, params.delta_b - 0.2)), short_dwell),
        ]
        script = browsing_script(layout, f"m{trial}", visits)
        spec = ScenarioSpec(
            store_id="synthetic", template=LayoutTemplate(n_shelves=9),
            scripts=(script,), walk_speed=float(rng.uniform(v_b + 0.05, 2 * v_b)),
        )
        trajs, _, lay = generate(spec)
        events, _ = detect_stops(build_track(trajs[0], window=1), lay, params)
        long_hits = [e for e in events if e.t_s >= 0 and e.shelf_id == shelf_long]
        assert long_hits, f"trial {trial}: long dwell missed"
        if shelf_short != shelf_long:
            assert all(e.shelf_id != shelf_short for e in events), \
                f"trial {trial}: short dwell detected"


def test_detector_equals_oracle_on_random_scenarios():
    mismatches = 0
    for seed in range(120):
        spec = random_scenario(seed, max_len=500)
        trajs, _, layout = generate(spec)
        rng = np.random.default_rng(seed + 10_000)
        params = StopParams(
            t_b=float(rng.uniform(0.3, 4.0)),
            delta_b=float(rng.uniform(0.3, 3.0)),
            v_b=float(rng.uniform(0.1, 1.5)),
        )
        for traj in trajs:
            track = build_track(traj, window=fit_window(5, len(traj)))
            _, fast = detect_stops(track, layout, params)
            slow = brute_force_stops(track, layout, params)
            if not np.array_equal(fast.values, slow.values):
                mismatches += 1
    assert mismatches == 0


def test_oracle_zero_matrix_for_fast_walker():
    layout = make_layout(LayoutTemplate(n_shelves=3), store_id="synthetic")
    xmin, ymin, xmax, _ = layout.bounds
    script = ShopperScript("runner", (
        Waypoint(target=(xmin + 1, ymin + 1)),
        Waypoint(target=(xmax - 1, ymin + 1)),
        Waypoint(target=(xmin + 1, ymin + 2)),
    ))
    spec = ScenarioSpec("synthetic", LayoutTemplate(n_shelves=3), (script,), walk_speed=2.0)
    trajs, _, lay = generate(spec)
    track = build_track(trajs[0], window=5)
    assert not brute_force_stops(track, lay, PARAMS).values.any()


def test_oracle_agrees_on_standing_example(single_shelf_layout):
    from conftest import standing_trajectory

    track = build_track(standing_trajectory((1.0, 1.0), -math.pi / 2, 25), window=5)
    _, fast = detect_stops(track, single_shelf_layout, PARAMS)
    slow = brute_force_stops(track, single_shelf_layout, PARAMS)
    assert np.array_equal(fast.values, slow.values)
    assert fast.values[0].all()


@pytest.mark.parametrize("max_len", [2, 0, -5])
def test_random_scenario_rejects_cap_below_three_samples(max_len):
    with pytest.raises(ValidationError, match="max_len must be at least 3"):
        random_scenario(0, max_len=max_len)
    assert random_scenario(0, max_len=3).max_samples == 3
