import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfscan import (
    DT,
    Trajectory,
    build_track,
    generate,
    low_pass_positions,
    population_scenario,
)
from shelfscan.errors import InvalidWindow, ParseError, TooShort, ValidationError
from shelfscan.kinematics import (
    fit_window,
    read_trajectories,
    split_on_gaps,
    wrap_angle,
    write_trajectories,
)

from conftest import make_trajectory, standing_trajectory


def brute_window_mean(xs, window):
    """Independent reference: clipped-window mean, one value per sample."""
    half = window // 2
    out = []
    for k in range(len(xs)):
        lo = max(0, k - half)
        hi = min(len(xs), k + half + 1)
        out.append(sum(xs[lo:hi]) / (hi - lo))
    return out


def test_constant_positions_unchanged():
    traj = standing_trajectory((1.0, 1.0), 0.0, 10)
    smoothed = low_pass_positions(traj.positions, window=5)
    assert np.allclose(smoothed, np.ones((10, 2)))


def test_window_one_is_identity():
    traj = make_trajectory([(k * 0.3, -k * 0.1) for k in range(8)], [0.0] * 8)
    assert np.array_equal(low_pass_positions(traj.positions, window=1), traj.positions)


def test_window_three_boundary_means():
    traj = make_trajectory([(x, 0.0) for x in [0, 1, 2, 3, 4]], [0.0] * 5)
    smoothed = low_pass_positions(traj.positions, window=3)
    assert smoothed[:, 0].tolist() == [0.5, 1, 2, 3, 3.5]
    assert smoothed[:, 0].tolist() == brute_window_mean([0, 1, 2, 3, 4], 3)


@given(
    xs=st.lists(st.floats(-100, 100), min_size=3, max_size=40),
    half=st.integers(0, 6),
)
@settings(max_examples=100, deadline=None)
def test_window_mean_matches_brute_force(xs, half):
    window = 2 * half + 1
    if window > len(xs):
        window = fit_window(window, len(xs))
    traj = make_trajectory([(x, 0.0) for x in xs], [0.0] * len(xs))
    smoothed = low_pass_positions(traj.positions, window=window)
    assert np.allclose(smoothed[:, 0], brute_window_mean(xs, window), atol=1e-9)


@pytest.mark.parametrize("window", [0, 2, 4, -1])
def test_even_or_nonpositive_window_rejected(window):
    traj = standing_trajectory((0.0, 0.0), 0.0, 10)
    with pytest.raises(InvalidWindow):
        low_pass_positions(traj.positions, window=window)


def test_window_longer_than_data_rejected():
    traj = standing_trajectory((0.0, 0.0), 0.0, 5)
    with pytest.raises(InvalidWindow):
        low_pass_positions(traj.positions, window=7)


def test_stationary_shopper_zero_speed():
    track = build_track(standing_trajectory((2.0, 3.0), 1.0, 12), window=5)
    assert np.allclose(track.speeds, 0.0)


def test_central_difference_speed_value():
    # 0.2 m over two steps around the middle sample: 1.0 m/s
    traj = make_trajectory([(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)], [0.0] * 3)
    track = build_track(traj, window=1)
    assert track.speeds[1] == pytest.approx(1.0, abs=1e-12)


def test_uniform_motion_exact_interior_speed():
    positions = [(0.05 * k, 0.0) for k in range(20)]
    track = build_track(make_trajectory(positions, [0.0] * 20), window=1)
    assert np.allclose(track.speeds[1:-1], 0.5, atol=1e-9)
    # one-sided boundary estimates agree for linear motion too
    assert track.speeds[0] == pytest.approx(0.5, abs=1e-9)
    assert track.speeds[-1] == pytest.approx(0.5, abs=1e-9)


def test_heading_normal_from_theta():
    track = build_track(standing_trajectory((0.0, 0.0), math.pi / 2, 5), window=1)
    assert np.allclose(track.normals, [(0.0, 1.0)] * 5, atol=1e-12)


def test_normals_unit_and_counts_match():
    rng = np.random.default_rng(3)
    positions = rng.uniform(0, 10, (30, 2))
    thetas = rng.uniform(-np.pi, np.pi, 30)
    track = build_track(make_trajectory(positions, thetas), window=5)
    assert len(track) == 30
    assert np.allclose(np.hypot(track.normals[:, 0], track.normals[:, 1]), 1.0, atol=1e-9)
    assert (track.speeds >= 0).all()


def test_too_short_trajectory_rejected():
    with pytest.raises(TooShort):
        Trajectory(
            trajectory_id="x", store_id="s",
            times=[0.0, 0.1], positions=[(0, 0), (0, 0)], thetas=[0, 0],
        )


def test_non_uniform_step_rejected():
    with pytest.raises(ValidationError):
        Trajectory(
            trajectory_id="x", store_id="s",
            times=[0.0, 0.1, 0.35], positions=[(0, 0)] * 3, thetas=[0, 0, 0],
        )


def test_theta_range_enforced():
    with pytest.raises(ValidationError):
        Trajectory(
            trajectory_id="x", store_id="s",
            times=[0.0, 0.1, 0.2], positions=[(0.0, 0.0)] * 3, thetas=[0.0, 4.0, 0.0],
        )


@pytest.mark.parametrize("field", ["times", "positions", "thetas"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(field, bad):
    arrays = {
        "times": np.arange(5) * DT, "positions": np.zeros((5, 2)), "thetas": np.zeros(5),
    }
    arrays[field][-1] = bad  # the last sample: a NaN time passes the step check
    with pytest.raises(ValidationError, match="finite values"):
        Trajectory(trajectory_id="x", store_id="s", **arrays)


def test_trajectory_arrays_are_read_only_copies():
    times = np.arange(4) * DT
    traj = Trajectory("x", "s", times, np.zeros((4, 2)), np.zeros(4))
    times[0] = 5.0
    assert traj.times[0] == 0.0
    with pytest.raises(ValueError):
        traj.positions[0, 0] = 1.0


@given(
    shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=50, deadline=None)
def test_translation_equivariance(shift, seed):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 5, (15, 2))
    thetas = rng.uniform(-np.pi, np.pi, 15)
    base = build_track(make_trajectory(positions, thetas), window=5)
    moved = build_track(make_trajectory(positions + np.array(shift), thetas), window=5)
    assert np.allclose(moved.positions - base.positions, np.array(shift), atol=1e-9)
    assert np.allclose(moved.speeds, base.speeds, atol=1e-9)


@given(angle=st.floats(-math.pi, math.pi), seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_rotation_leaves_speeds_invariant(angle, seed):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-5, 5, (15, 2))
    thetas = rng.uniform(-np.pi, np.pi, 15)
    c, s = math.cos(angle), math.sin(angle)
    rotated = positions @ np.array([[c, s], [-s, c]])
    base = build_track(make_trajectory(positions, thetas), window=3)
    rot = build_track(make_trajectory(rotated, thetas), window=3)
    assert np.allclose(rot.speeds, base.speeds, atol=1e-9)


def test_wrap_angle_half_open_interval():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert -math.pi < wrap_angle(123.456) <= math.pi


def remainder_wrap(theta):
    """Independent reference: IEEE remainder, then -pi moved to pi."""
    wrapped = math.remainder(theta, 2.0 * math.pi)
    return wrapped + 2.0 * math.pi if wrapped <= -math.pi else wrapped


EDGE_ANGLES = [
    math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi, -3 * math.pi,
    0.0, -0.0, 1e300, -1e300, 1.7976931348623157e308, 5e-324,
]


@given(st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_ANGLES)),
    min_size=1, max_size=30,
))
@settings(max_examples=300, deadline=None)
def test_wrap_angle_bit_identical_to_remainder(thetas):
    want = np.array([remainder_wrap(th) for th in thetas])
    got = wrap_angle(np.array(thetas))
    assert got.tobytes() == want.tobytes()
    assert np.array([wrap_angle(th) for th in thetas]).tobytes() == want.tobytes()


def test_split_on_gaps_suffixes_and_drops():
    rows = [(k * DT, 0.0, 0.0, 0.0) for k in range(5)]
    rows += [(5 * DT + 1.0 + k * DT, 0.0, 0.0, 0.0) for k in range(4)]
    rows += [(5 * DT + 3.0, 0.0, 0.0, 0.0)]  # lone sample, dropped
    pieces = split_on_gaps("trip", "s", rows)
    assert [p.trajectory_id for p in pieces] == ["trip~0", "trip~1"]
    assert [len(p) for p in pieces] == [5, 4]


def test_split_keeps_id_when_contiguous():
    rows = [(k * DT, 1.0, 2.0, 0.0) for k in range(6)]
    pieces = split_on_gaps("trip", "s", rows)
    assert [p.trajectory_id for p in pieces] == ["trip"]


def test_read_trajectories_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    rec = {
        "trajectory_id": "a",
        "store_id": "s",
        "samples": [[k * DT, 0.5 * k, 1.0, 0.2] for k in range(4)],
    }
    path.write_text(json.dumps(rec) + "\n")
    trajs = read_trajectories(path)
    assert len(trajs) == 1
    assert trajs[0].trajectory_id == "a"
    assert len(trajs[0]) == 4
    assert trajs[0].positions[2, 0] == pytest.approx(1.0)


def write_records(path, records):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))


def test_written_population_reads_back_exactly(tmp_path):
    trajs, _, _ = generate(population_scenario(11, 6, noise=0.05))
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trajectories(trajs, first)
    back = read_trajectories(first)
    assert [(t.trajectory_id, t.store_id) for t in back] == \
        [(t.trajectory_id, t.store_id) for t in trajs]
    for got, want in zip(back, trajs):
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.thetas, want.thetas)
    write_trajectories(back, second)
    assert second.read_bytes() == first.read_bytes()


GOOD_ROW = [0.0, 1.0, 2.0, 0.5]


@pytest.mark.parametrize("bad_row", [
    [0.0, 1.0, 2.0],                  # three values
    [0.0, 1.0, 2.0, 0.5, 9.0],        # five values
    "abc",                            # not a list
    ["0.0", 1.0, 2.0, 0.5],           # numeric string as t
    [0.0, "1.0", 2.0, 0.5],           # numeric string as x
    [0.0, 1.0, 2.0, "0.5"],           # numeric string as theta
    [0.0, None, 2.0, 0.5],            # null
    [0.0, [1.0], 2.0, 0.5],           # nested list
    [0.0, True, 2.0, 0.5],            # boolean
    {"t": 0.0},                       # object
])
def test_malformed_sample_row_is_parse_error(tmp_path, bad_row):
    path = tmp_path / "t.jsonl"
    samples = [[k * DT, *GOOD_ROW[1:]] for k in range(5)]
    samples[2] = bad_row
    write_records(path, [{"trajectory_id": "a", "store_id": "s", "samples": samples}])
    with pytest.raises(ParseError, match=r"t\.jsonl:1: sample 2 "):
        read_trajectories(path)


@pytest.mark.parametrize("samples", ["abc", 5, None, {"t": 0}])
def test_samples_not_a_list_is_parse_error(tmp_path, samples):
    path = tmp_path / "t.jsonl"
    write_records(path, [{"trajectory_id": "a", "store_id": "s", "samples": samples}])
    with pytest.raises(ParseError, match=r"t\.jsonl:1: samples must be a list"):
        read_trajectories(path)


def test_empty_samples_yield_no_trajectory(tmp_path):
    path = tmp_path / "t.jsonl"
    write_records(path, [{"trajectory_id": "a", "store_id": "s", "samples": []}])
    assert read_trajectories(path) == []


@pytest.mark.parametrize("column, value", [(1, math.nan), (3, math.inf), (0, math.nan)])
def test_non_finite_sample_splits_like_a_dropout(tmp_path, column, value):
    path = tmp_path / "t.jsonl"
    samples = [[k * DT, 0.01 * k, 1.0, 0.2] for k in range(50)]
    samples[10][column] = value
    write_records(path, [{"trajectory_id": "a", "store_id": "s", "samples": samples}])
    trajs = read_trajectories(path)
    assert [(t.trajectory_id, len(t)) for t in trajs] == [("a~0", 10), ("a~1", 39)]
    assert all(np.isfinite(t.positions).all() for t in trajs)
    assert trajs[1].times[0] == samples[11][0]


def test_duplicate_trajectory_id_is_parse_error(tmp_path):
    path = tmp_path / "t.jsonl"
    rec = {"trajectory_id": "a", "store_id": "s", "samples": [[k * DT, 0, 0, 0] for k in range(4)]}
    other = dict(rec, trajectory_id="b")
    write_records(path, [rec, other, rec])
    with pytest.raises(ParseError, match=r"t\.jsonl:3: trajectory_id 'a' already used on line 1"):
        read_trajectories(path)
