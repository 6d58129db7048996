import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfscan import (
    Obstacle,
    Segment2D,
    Shelf,
    StopParams,
    StoreLayout,
    all_segments,
    build_track,
    detect_many,
    detect_stops,
    gaze_stream,
)
from shelfscan import detector
from shelfscan.detector import TIE_TOL, _segment_cells, read_stop_events, write_stop_events
from shelfscan.errors import FrameMismatch, ParseError, ValidationError
from shelfscan.oracle import _scan_ray
from shelfscan.synth import generate, population_scenario, random_scenario
from shelfscan.kinematics import fit_window

from conftest import make_trajectory, rotate_point, standing_trajectory


ORIGIN = (0.0, 0.0)
EAST = (1.0, 0.0)
NORTH = (0.0, 1.0)


def gaze_one(origin, direction, layout):
    """Candidate (0-based, -1 none) and hit distance of one ray through gaze_stream."""
    candidates, lams = gaze_stream([origin], [direction], layout, cutoff=None)
    return int(candidates[0]), float(lams[0])


def ray_hit(origin, direction, seg):
    """Hit distance of one ray against a layout whose only segment is seg, or None."""
    (fx, fy), length = seg.vector, seg.length
    layout = StoreLayout(store_id="ray", shelves=(Shelf(id=1, face=seg, normal=(-fy / length, fx / length)),))
    candidate, lam = gaze_one(origin, direction, layout)
    assert (candidate == 0) == math.isfinite(lam)
    return lam if candidate == 0 else None


def test_ray_hits_vertical_segment_ahead():
    assert ray_hit(ORIGIN, EAST, Segment2D((2, -1), (2, 1))) == pytest.approx(2.0)


def test_ray_misses_segment_behind():
    assert ray_hit(ORIGIN, EAST, Segment2D((-2, -1), (-2, 1))) is None


def test_ray_hits_horizontal_segment_above():
    assert ray_hit(ORIGIN, NORTH, Segment2D((-1, 3), (1, 3))) == pytest.approx(3.0)


def test_ray_misses_offset_segment():
    assert ray_hit(ORIGIN, EAST, Segment2D((1, 1), (2, 2))) is None


def test_ray_through_endpoint_counts():
    assert ray_hit(ORIGIN, EAST, Segment2D((2, 0), (2, 1))) == pytest.approx(2.0)


def test_origin_on_segment_does_not_count():
    # lambda = 0 is excluded: standing on the face line sees no self-hit
    assert ray_hit((1.0, 0.0), NORTH, Segment2D((0, 0), (2, 0))) is None


def test_collinear_segment_fully_ahead_uses_near_end():
    assert ray_hit(ORIGIN, EAST, Segment2D((1, 0), (3, 0))) == pytest.approx(1.0)
    assert ray_hit(ORIGIN, EAST, Segment2D((3, 0), (1, 0))) == pytest.approx(1.0)


def test_collinear_segment_containing_origin_ignored():
    assert ray_hit(ORIGIN, EAST, Segment2D((-1, 0), (3, 0))) is None


def test_collinear_segment_behind_ignored():
    assert ray_hit(ORIGIN, EAST, Segment2D((-3, 0), (-1, 0))) is None


def shelf_behind_obstacle_layout():
    return StoreLayout(
        store_id="occ",
        shelves=(Shelf(id=1, face=Segment2D((2, -1), (2, 1)), normal=(-1, 0)),),
        obstacles=(Obstacle(id=2, segment=Segment2D((1, -1), (1, 1))),),
    )


def test_candidate_nearest_shelf_wins():
    layout = StoreLayout(
        store_id="near",
        shelves=(Shelf(id=1, face=Segment2D((2, -1), (2, 1)), normal=(-1, 0)),),
        obstacles=(Obstacle(id=2, segment=Segment2D((5, -1), (5, 1))),),
    )
    candidate, lam = gaze_one(ORIGIN, EAST, layout)
    assert candidate == 0
    assert lam == pytest.approx(2.0)


def test_candidate_blocked_by_obstacle():
    assert gaze_one(ORIGIN, EAST, shelf_behind_obstacle_layout())[0] == -1


def test_candidate_none_into_open_space():
    layout = shelf_behind_obstacle_layout()
    assert gaze_one(ORIGIN, (-1.0, 0.0), layout)[0] == -1


def oracle_gaze(origins, headings, layout):
    """Reference on the oracle's scalar ray cast: exact minimum, then first index within TIE_TOL.

    Returns the candidates (0-based, -1 none) and nearest-hit distances (inf for no hit).
    """
    segments = all_segments(layout)
    candidates, lams = [], []
    for (ox, oy), (dx, dy) in zip(origins, headings):
        hits = [(lam, idx) for idx, lam in enumerate(_scan_ray(ox, oy, dx, dy, segments)) if lam is not None]
        best, winner = math.inf, -1
        if hits:
            best = min(lam for lam, _ in hits)
            winner = next(idx for lam, idx in hits if lam <= best + TIE_TOL)
        candidates.append(winner if winner < layout.n_shelves else -1)
        lams.append(best)
    return candidates, lams


def test_tied_shelf_and_obstacle_goes_to_shelf():
    layout = StoreLayout(
        store_id="tie",
        shelves=(Shelf(id=1, face=Segment2D((2, -1), (2, 1)), normal=(-1, 0)),),
        obstacles=(Obstacle(id=2, segment=Segment2D((2, -1), (2, 1))),),
    )
    candidate, _ = gaze_one(ORIGIN, EAST, layout)
    assert candidate == 0
    assert [candidate] == oracle_gaze([ORIGIN], [EAST], layout)[0]


def test_candidate_matches_brute_selection_on_random_rays():
    rng = np.random.default_rng(11)
    _, _, layout = generate(random_scenario(4, max_len=10))
    xmin, ymin, xmax, ymax = layout.bounds
    origins, headings = [], []
    for _ in range(200):
        origins.append((rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)))
        th = rng.uniform(-np.pi, np.pi)
        headings.append((math.cos(th), math.sin(th)))
    candidates, lams = gaze_stream(origins, headings, layout, cutoff=None)
    want_candidates, want_lams = oracle_gaze(origins, headings, layout)
    assert candidates.tolist() == want_candidates
    assert lams.tolist() == want_lams


def park_in_front(layout, n_samples, theta=-math.pi / 2):
    """Shopper standing at (1, 1), one meter from the single shelf face."""
    return build_track(standing_trajectory((1.0, 1.0), theta, n_samples), window=5)


PARAMS = StopParams(t_b=2.0, delta_b=1.2, v_b=0.55)


def test_standing_25_samples_is_one_stop(single_shelf_layout):
    track = park_in_front(single_shelf_layout, 25)
    events, matrix = detect_stops(track, single_shelf_layout, PARAMS)
    assert len(events) == 1
    ev = events[0]
    assert ev.shelf_id == 1
    assert ev.t_s == pytest.approx(0.0)
    assert ev.t_f == pytest.approx(2.4)
    assert ev.duration == pytest.approx(2.4)
    assert ev.min_lambda == pytest.approx(1.0)
    assert ev.mean_speed == pytest.approx(0.0)
    assert matrix.values[0].all()


def test_standing_15_samples_is_no_stop(single_shelf_layout):
    track = park_in_front(single_shelf_layout, 15)
    events, matrix = detect_stops(track, single_shelf_layout, PARAMS)
    assert events == []
    assert not matrix.values.any()


def test_candidate_change_splits_run(single_shelf_layout):
    from shelfscan.oracle import brute_force_stops

    layout = StoreLayout(
        store_id="unit",
        shelves=(
            Shelf(id=1, face=Segment2D((0, 0), (2, 0)), normal=(0, 1)),
            Shelf(id=2, face=Segment2D((2, 0), (4, 0)), normal=(0, 1)),
        ),
    )
    # 1.5 s facing shelf 1, then 1.5 s turned toward shelf 2, all else held
    toward_2 = math.atan2(0.0 - 1.0, 3.0 - 1.0)
    thetas = [-math.pi / 2] * 16 + [toward_2] * 16
    traj = make_trajectory([(1.0, 1.0)] * 32, thetas)
    track = build_track(traj, window=5)
    events, matrix = detect_stops(track, layout, PARAMS)
    assert events == []
    oracle = brute_force_stops(track, layout, PARAMS)
    assert np.array_equal(matrix.values, oracle.values)
    assert not oracle.values.any()


def test_one_sample_stop_matches_oracle_and_round_trips(single_shelf_layout, tmp_path):
    from shelfscan.oracle import brute_force_stops

    # standing still, facing the shelf at sample 5 alone and at samples 12 to 14
    thetas = [math.pi / 2] * 20
    for k in (5, 12, 13, 14):
        thetas[k] = -math.pi / 2
    track = build_track(make_trajectory([(1.0, 1.0)] * 20, thetas), window=5)
    params = StopParams(t_b=1e-9, delta_b=1.2, v_b=0.55)
    events, matrix = detect_stops(track, single_shelf_layout, params)
    assert [(ev.t_s, ev.t_f) for ev in events] == [(track.times[5], track.times[5]),
                                                   (track.times[12], track.times[14])]
    assert events[0].duration == 0.0
    assert np.array_equal(matrix.values, brute_force_stops(track, single_shelf_layout, params).values)
    write_stop_events(events, tmp_path / "stops.jsonl")
    assert read_stop_events(tmp_path / "stops.jsonl") == events


def test_walking_past_is_no_stop(single_shelf_layout):
    # 1.0 m/s along the aisle, facing the shelf the whole way
    positions = [(0.1 * k, 1.0) for k in range(30)]
    track = build_track(make_trajectory(positions, [-math.pi / 2] * 30), window=5)
    events, matrix = detect_stops(track, single_shelf_layout, PARAMS)
    assert events == []
    assert not matrix.values.any()


def test_store_mismatch_rejected(single_shelf_layout):
    track = build_track(standing_trajectory((1, 1), 0.0, 5, store_id="elsewhere"), window=1)
    with pytest.raises(FrameMismatch):
        detect_stops(track, single_shelf_layout, PARAMS)


def test_detect_many_store_mismatch_rejected(single_shelf_layout):
    tracks = [
        build_track(standing_trajectory((1, 1), 0.0, 5, trajectory_id=tid, store_id=store), window=1)
        for tid, store in (("here", "unit"), ("there", "elsewhere"))
    ]
    with pytest.raises(FrameMismatch):
        detect_many(tracks, single_shelf_layout, PARAMS)


def test_params_must_be_positive():
    with pytest.raises(ValidationError):
        StopParams(t_b=0.0, delta_b=1.0, v_b=1.0)
    with pytest.raises(ValidationError):
        StopParams(t_b=1.0, delta_b=-1.0, v_b=1.0)


def test_event_fields_respect_thresholds():
    rng = np.random.default_rng(5)
    for seed in range(6):
        trajs, _, layout = generate(random_scenario(seed, max_len=500))
        params = StopParams(
            t_b=float(rng.uniform(0.5, 3.0)),
            delta_b=float(rng.uniform(0.5, 2.5)),
            v_b=float(rng.uniform(0.2, 1.2)),
        )
        for traj in trajs:
            track = build_track(traj, window=fit_window(5, len(traj)))
            events, _ = detect_stops(track, layout, params)
            last_end = -math.inf
            for ev in sorted(events, key=lambda e: e.t_s):
                assert ev.duration >= params.t_b - 1e-9
                assert ev.min_lambda <= params.delta_b
                assert ev.mean_speed <= params.v_b
                assert ev.t_s > last_end  # events never overlap, across all shelves
                last_end = ev.t_f


def test_rigid_motion_invariance():
    angle, offset = 0.7, (13.0, -4.0)
    trajs, _, layout = generate(random_scenario(2, max_len=300))
    params = StopParams(2.0, 1.2, 0.55)

    def rot_seg(seg):
        return Segment2D(rotate_point(seg.a, angle, offset), rotate_point(seg.b, angle, offset))

    rot_layout = StoreLayout(
        store_id=layout.store_id,
        shelves=tuple(
            Shelf(id=s.id, face=rot_seg(s.face), normal=rotate_point(s.normal, angle))
            for s in layout.shelves
        ),
        obstacles=tuple(Obstacle(id=o.id, segment=rot_seg(o.segment)) for o in layout.obstacles),
    )
    for traj in trajs:
        window = fit_window(5, len(traj))
        base = detect_stops(build_track(traj, window), layout, params)[1]
        moved_positions = [rotate_point(p, angle, offset) for p in traj.positions]
        moved_thetas = traj.thetas + angle
        moved = make_trajectory(
            moved_positions, moved_thetas,
            trajectory_id=traj.trajectory_id, store_id=traj.store_id,
        )
        rot = detect_stops(build_track(moved, window), rot_layout, params)[1]
        assert np.array_equal(base.values, rot.values)


def test_gaze_cutoff_agrees_below_threshold():
    trajs, _, layout = generate(random_scenario(9, max_len=400))
    cutoff = 1.5
    for traj in trajs:
        track = build_track(traj, window=fit_window(5, len(traj)))
        full_c, full_l = gaze_stream(track.positions, track.normals, layout, cutoff=None)
        cut_c, cut_l = gaze_stream(track.positions, track.normals, layout, cutoff=cutoff)
        within = full_l <= cutoff
        assert np.array_equal(full_c[within], cut_c[within])
        assert np.allclose(full_l[within], cut_l[within])
        assert (cut_c[~within] == -1).all()


@pytest.mark.parametrize("seed", [3, 9, 21])
@pytest.mark.parametrize("cutoff", [None, 1.5])
def test_gaze_mask_casts_only_its_rays(seed, cutoff):
    """A masked gaze_stream equals the unmasked one on the cast rows and gives (-1, inf) elsewhere."""
    rng = np.random.default_rng(seed)
    trajs, _, layout = generate(random_scenario(seed, max_len=400))
    for traj in trajs:
        track = build_track(traj, window=fit_window(5, len(traj)))
        full_c, full_l = gaze_stream(track.positions, track.normals, layout, cutoff=cutoff)
        for cast in (rng.random(len(track)) < rng.random(), np.zeros(len(track), dtype=bool)):
            got_c, got_l = gaze_stream(track.positions, track.normals, layout, cutoff=cutoff, cast=cast)
            assert np.array_equal(got_c[cast], full_c[cast])
            assert np.array_equal(got_l[cast], full_l[cast])
            assert (got_c[~cast] == -1).all() and np.isinf(got_l[~cast]).all()


@pytest.mark.parametrize("pairs", [1, 7])
@pytest.mark.parametrize("seed", [3, 9, 21])
def test_pair_budget_does_not_change_gaze(monkeypatch, seed, pairs):
    """One ray per _solve_pairs call (1), or rays with more pairs than the budget (7), change no output."""
    rng = np.random.default_rng(seed)
    trajs, _, layout = generate(random_scenario(seed, max_len=400))
    tracks = [build_track(traj, window=fit_window(5, len(traj))) for traj in trajs]
    positions = np.concatenate([t.positions for t in tracks])
    normals = np.concatenate([t.normals for t in tracks])
    assert len(layout.segment_points) > pairs  # without a cutoff every ray has more pairs than 7
    calls = [(cutoff, cast) for cutoff in (None, 1.5)
             for cast in (None, rng.random(len(positions)) < rng.random())]
    want = [gaze_stream(positions, normals, layout, cutoff=cutoff, cast=cast) for cutoff, cast in calls]
    monkeypatch.setattr(detector, "_PAIRS", pairs)
    for (cutoff, cast), (want_c, want_l) in zip(calls, want):
        got_c, got_l = gaze_stream(positions, normals, layout, cutoff=cutoff, cast=cast)
        assert np.array_equal(got_c, want_c) and np.array_equal(got_l, want_l)


def segment_distance(point, a, b):
    """Euclidean distance from a point to the segment a-b."""
    (px, py), (ax, ay), (bx, by) = point, a, b
    sx, sy = bx - ax, by - ay
    u = min(max(((px - ax) * sx + (py - ay) * sy) / (sx * sx + sy * sy), 0.0), 1.0)
    return math.hypot(px - ax - u * sx, py - ay - u * sy)


coordinate = st.floats(-20.0, 20.0, allow_nan=False)


@given(
    ends=st.lists(st.tuples(coordinate, coordinate, coordinate, coordinate)
                  .filter(lambda e: math.hypot(e[2] - e[0], e[3] - e[1]) > 0.01), min_size=1, max_size=12),
    cutoff=st.floats(0.05, 6.0),
    origins=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_segment_cells_list_every_segment_within_cutoff(ends, cutoff, origins):
    shelves = []
    for i, (ax, ay, bx, by) in enumerate(ends, start=1):
        length = math.hypot(bx - ax, by - ay)
        shelves.append(Shelf(id=i, face=Segment2D((ax, ay), (bx, by)),
                             normal=((ay - by) / length, (bx - ax) / length)))
    layout = StoreLayout(store_id="cells", shelves=tuple(shelves))
    pts = layout.segment_points
    cell_of, indptr, indices = _segment_cells(layout, cutoff)
    assert all((np.diff(indices[lo:hi]) > 0).all() for lo, hi in zip(indptr[:-1], indptr[1:]))
    for origin, cell in zip(origins, cell_of(np.array(origins))):
        seen = set(indices[indptr[cell]:indptr[cell + 1]].tolist())
        near = {m for m in range(len(pts)) if segment_distance(origin, pts[m, 0], pts[m, 1]) <= cutoff}
        assert near <= seen
    # beyond the segments' box by more than the cutoff, on either side, an origin sees nothing
    far = np.array([pts.min(axis=(0, 1)) - cutoff - 0.02, pts.max(axis=(0, 1)) + cutoff + 100.0])
    for cell in cell_of(far):
        assert indptr[cell] == indptr[cell + 1]
    cell_of, indptr, indices = _segment_cells(layout, None)
    assert cell_of(np.array(origins)).tolist() == [0] * len(origins)
    assert indices[indptr[0]:indptr[1]].tolist() == list(range(len(pts)))


def test_sample_at_exactly_v_b_is_cast_and_its_stop_kept(single_shelf_layout):
    # jitter around (1, 1), facing the shelf 1 m away, so the speeds vary
    rng = np.random.default_rng(5)
    n = 60
    traj = make_trajectory(np.array([1.0, 1.0]) + rng.normal(0.0, 0.005, (n, 2)), np.full(n, -math.pi / 2))
    track = build_track(traj, window=5)
    fastest = int(track.speeds.argmax())
    assert 0 < fastest < n - 1
    # the fastest sample meets speed <= v_b with equality
    params = StopParams(t_b=1.0, delta_b=1.5, v_b=float(track.speeds[fastest]))
    events, matrix = detect_stops(track, single_shelf_layout, params)
    assert matrix.values.all()  # one stop over every sample, the fastest one included
    [event] = events
    assert (event.t_s, event.t_f) == (track.times[0], track.times[-1])
    assert event.min_lambda == gaze_stream(track.positions, track.normals, single_shelf_layout)[1].min()


def test_detect_many_matches_detect_stops_and_ignores_jobs():
    trajs, _, layout = generate(random_scenario(13, max_len=300))
    params = StopParams(1.5, 1.4, 0.6)
    tracks = [build_track(t, window=fit_window(5, len(t))) for t in trajs]
    assert detect_many(tracks, layout, params) == [detect_stops(t, layout, params)[0] for t in tracks]

    spec = population_scenario(4, n_trajectories=300, n_shelves=6, noise=0.05)
    trajs, _, layout = generate(replace(spec, max_samples=150))
    params = StopParams(1.0, 1.4, 0.6)
    tracks = [build_track(t, window=5) for t in trajs]
    singles = [detect_stops(t, layout, params)[0] for t in tracks]
    # 300 tracks make ten gaze batches, the last of them 12 tracks
    assert any(singles[:288]) and any(singles[288:])
    assert detect_many(tracks, layout, params) == singles


@pytest.mark.parametrize("shelf_id", [2.7, 2.0, True, False, "2", None])
def test_stop_event_shelf_id_must_be_json_integer(tmp_path, shelf_id):
    path = tmp_path / "stops.jsonl"
    good = {"trajectory_id": "t", "shelf_id": 2, "t_s": 1.0, "t_f": 3.0, "duration": 2.0,
            "min_lambda": 0.5, "mean_speed": 0.1}
    path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, shelf_id=shelf_id)) + "\n")
    with pytest.raises(ParseError, match=f"^{path}:2: bad stop event: .*shelf_id must be a JSON integer"):
        read_stop_events(path)
    path.write_text(json.dumps(good) + "\n")
    assert read_stop_events(path)[0].shelf_id == 2
