"""The batch kernel against the per-record chain it replaced.

The reference below is that chain, copied: split_on_gaps splits one
record into checked trajectories, build_track smooths each with its own
prefix sums, and runs applies the stop rule to one track at a time.
split_records and build_tracks take a batch of records at once, and runs
takes many tracks end to end: their streams must be bit-identical, their
ids, spans and ValidationErrors the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfscan import generate, kinematics, population_scenario
from shelfscan.detector import DURATION_TOL, StopEvent, StopParams, detect_many, gaze_stream, runs
from shelfscan.errors import ParseError, ValidationError
from shelfscan.kinematics import (
    DT,
    DT_TOL,
    GAP_FACTOR,
    TrackBatch,
    build_tracks,
    read_trajectories,
    split_records,
    wrap_angle,
)


# --- the reference: the per-record chain, one record and one track at a time ---

def ref_trajectory(trajectory_id, times, positions, thetas):
    """What Trajectory checked of a gap-split piece: (id, times, positions, thetas), or its ValidationError."""
    times, positions, thetas = (np.array(a, dtype=np.float64) for a in (times, positions, thetas))
    steps = np.diff(times)
    uneven = np.flatnonzero(np.abs(steps - DT) > DT_TOL)
    if uneven.size:
        k = uneven[0]
        raise ValidationError(f"non-uniform time step {steps[k]:.6f}s at t={times[k + 1]}",
                              element=trajectory_id)
    return trajectory_id, times, positions, thetas


def ref_split_on_gaps(trajectory_id, rows):
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    rows = rows[np.isfinite(rows).all(axis=1)]
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    pieces = np.split(rows, np.flatnonzero(np.diff(rows[:, 0]) > GAP_FACTOR * DT) + 1)
    multiple = len(pieces) > 1
    return [
        ref_trajectory(f"{trajectory_id}~{i}" if multiple else trajectory_id,
                       piece[:, 0], piece[:, 1:3], wrap_angle(piece[:, 3]))
        for i, piece in enumerate(pieces)
        if len(piece) >= 3
    ]


def ref_low_pass(positions, window):
    n = len(positions)
    if window == 1:
        return positions.copy()
    half = window // 2
    cum = np.zeros((n + 1, 2))
    np.cumsum(positions, axis=0, out=cum[1:])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (cum[hi] - cum[lo]) / (hi - lo)[:, None]


def ref_speeds(positions, times):
    v = np.empty(len(positions))
    v[1:-1] = np.hypot(
        positions[2:, 0] - positions[:-2, 0], positions[2:, 1] - positions[:-2, 1]
    ) / (times[2:] - times[:-2])
    v[0] = math.hypot(*(positions[1] - positions[0])) / (times[1] - times[0])
    v[-1] = math.hypot(*(positions[-1] - positions[-2])) / (times[-1] - times[-2])
    return v


def ref_build_track(piece, window):
    """(id, times, smoothed positions, normals, speeds) of a checked piece."""
    trajectory_id, times, positions, thetas = piece
    w = min(window, len(times))
    w = max(w - 1 if w % 2 == 0 else w, 1)
    smoothed = ref_low_pass(positions, w)
    return (trajectory_id, times, smoothed, np.column_stack([np.cos(thetas), np.sin(thetas)]),
            ref_speeds(smoothed, times))


def ref_runs(times, candidates, lams, speeds, params):
    key = np.where((lams <= params.delta_b) & (speeds <= params.v_b), candidates, -1)
    edges = np.flatnonzero(np.diff(key, prepend=-2, append=-2))
    starts, ends = edges[:-1], edges[1:] - 1
    keep = (key[starts] >= 0) & (times[ends] - times[starts] + DURATION_TOL >= params.t_b)
    return starts[keep], ends[keep], key[starts[keep]]


def ref_chain(records, window):
    """The tracks of records read one at a time, up to the first failing one, and its error."""
    tracks = []
    for trajectory_id, _, rows, line in records:
        try:
            pieces = ref_split_on_gaps(trajectory_id, rows)
        except ValidationError as exc:
            return tracks, (line, str(exc), exc.element)
        tracks += [(line, ref_build_track(piece, window)) for piece in pieces]
    return tracks, None


# --- the records: clean 10 Hz walks, then damaged the ways real tracking data is ---

@st.composite
def damaged_rows(draw):
    n = draw(st.integers(0, 40))
    t0 = draw(st.sampled_from([0.0, 0.05, 3.7, 1234.5]))
    times = t0 + np.arange(n) * DT
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    positions = np.cumsum(rng.normal(0.0, 0.3, (n, 2)), axis=0) + rng.uniform(-20, 20, 2)
    thetas = rng.uniform(-12.0, 12.0, n)  # wrapped into (-pi, pi] by the split
    rows = [list(row) for row in np.column_stack([times, positions, thetas]).tolist()]
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["dropout", "nonfinite", "swap", "reverse", "duplicate",
                                     "jitter", "fragment"]))
        if kind == "dropout":
            del rows[at:at + draw(st.integers(1, 6))]
        elif kind == "nonfinite":
            rows[at][draw(st.integers(0, 3))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif kind == "swap":
            other = draw(st.integers(0, len(rows) - 1))
            rows[at], rows[other] = rows[other], rows[at]
        elif kind == "reverse":
            rows.reverse()
        elif kind == "duplicate":
            rows.insert(at, list(rows[at]))
        elif kind == "jitter":
            rows[at][0] += draw(st.sampled_from([1e-4, -1e-4, 5e-7]))  # 0.1 ms, and within DT_TOL
        else:  # a fragment of 1 to 4 samples, cut off by gaps on both sides
            size = draw(st.integers(1, 4))
            rows[at:at + size + 4] = rows[at + 2:at + 2 + size]
    return rows


@st.composite
def record_batches(draw):
    """Records (id, store, rows, line) and the sizes of the consecutive batches they are read in."""
    n = draw(st.integers(1, 6))
    records = [(f"trip-{i}", "s", np.array(draw(damaged_rows()), dtype=float).reshape(-1, 4), i + 1)
               for i in range(n)]
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n)))
    return records, sizes


def batch_chain(records, sizes, window):
    """ref_chain's result through split_records and build_tracks, a batch of records at a time."""
    tracks, start = [], 0
    for size in sizes:
        pieces, error = split_records(records[start:start + size])
        built = build_tracks(pieces, window)
        for i, line in enumerate(pieces.lines):
            track = built.track(i)
            tracks.append((line, (track.trajectory_id, track.times, track.positions, track.normals,
                                  track.speeds)))
        if error:
            line, exc = error
            return tracks, (line, str(exc), exc.element)
        start += size
    return tracks, None


@settings(max_examples=400, deadline=None)
@given(record_batches(), st.sampled_from([1, 3, 5, 7]))
def test_batch_kernel_equals_the_per_record_chain(batched, window):
    records, sizes = batched
    want_tracks, want_error = ref_chain(records, window)
    got_tracks, got_error = batch_chain(records, sizes, window)
    assert got_error == want_error
    assert [(line, track[0]) for line, track in got_tracks] == \
        [(line, track[0]) for line, track in want_tracks]
    for (_, got), (_, want) in zip(got_tracks, want_tracks):
        for g, w in zip(got[1:], want[1:]):
            assert g.dtype == w.dtype and np.array_equal(g, w)  # no NaN: equal is bit-identical but for -0.0
            assert g.tobytes() == w.tobytes()


@st.composite
def streams(draw):
    """Per-track (times, candidates, lams, speeds) streams that make runs of every kind."""
    tracks = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(3, 30))
        t0 = draw(st.sampled_from([0.0, 0.05, 3.7]))
        cand = np.array(draw(st.lists(st.sampled_from([0, 0, 1, -1]), min_size=n, max_size=n)), np.int32)
        lams = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, math.inf]), min_size=n, max_size=n)))
        speeds = np.array(draw(st.lists(st.sampled_from([0.1, 0.3, 0.6]), min_size=n, max_size=n)))
        tracks.append((t0 + np.arange(n) * DT, cand, lams, speeds))
    return tracks


@settings(max_examples=300, deadline=None)
@given(streams(), st.data())
def test_runs_over_tracks_end_to_end_equal_runs_per_track(tracks, data):
    """runs over any cut of the tracks into batches, inside a split record or across records."""
    params = StopParams(t_b=data.draw(st.sampled_from([DURATION_TOL, 0.2, 0.5])), delta_b=1.0, v_b=0.4)
    want = [list(zip(*(a.tolist() for a in ref_runs(*track, params)))) for track in tracks]
    cuts = sorted(set(data.draw(st.lists(st.integers(1, len(tracks) - 1), max_size=3)))) if len(tracks) > 1 else []
    got = []
    for lo, hi in zip([0, *cuts], [*cuts, len(tracks)]):
        part = tracks[lo:hi]
        bounds = np.concatenate([[0], np.cumsum([len(t[0]) for t in part])])
        starts, ends, shelves = runs(*(np.concatenate(column) for column in zip(*part)), params, bounds)
        which = np.searchsorted(bounds, starts, side="right") - 1
        spans = [[] for _ in part]
        for i, s, e, shelf in zip(which.tolist(), starts.tolist(), ends.tolist(), shelves.tolist()):
            spans[i].append((s - int(bounds[i]), e - int(bounds[i]), shelf))
        got += spans
    assert got == want


def ref_events(track, layout, params):
    """The stop events of one track: gaze_stream on it alone, then ref_runs."""
    candidates, lams = gaze_stream(track.positions, track.normals, layout, cutoff=params.delta_b,
                                   cast=track.speeds <= params.v_b)
    starts, ends, shelves = ref_runs(track.times, candidates, lams, track.speeds, params)
    return [StopEvent(track.trajectory_id, shelf0 + 1, t_s=float(track.times[s]), t_f=float(track.times[e]),
                      duration=float(track.times[e] - track.times[s]), min_lambda=float(lams[s:e + 1].min()),
                      mean_speed=float(track.speeds[s:e + 1].mean()))
            for s, e, shelf0 in zip(starts.tolist(), ends.tolist(), shelves.tolist())]


@pytest.mark.parametrize("budget", [1, 500, 1500, 1 << 15])  # samples per gaze batch
def test_detect_many_on_split_records_equals_per_track_events(monkeypatch, budget):
    trajs, _, layout = generate(population_scenario(3, 8, noise=0.05))
    rng = np.random.default_rng(budget)
    records = []
    for i, traj in enumerate(trajs):
        rows = np.column_stack([traj.times, traj.positions, traj.thetas])
        for at in rng.integers(5, len(rows) - 5, 3):  # dropouts and a non-finite row: split records
            rows = np.delete(rows, slice(at, at + int(rng.integers(1, 4))), axis=0)
        rows[int(rng.integers(0, len(rows)))][1] = math.nan
        records.append((traj.trajectory_id, traj.store_id, rows, i + 1))
    pieces, error = split_records(records)
    assert error is None and len(pieces.ids) > len(records)
    tracks = [build_tracks(pieces, 5).track(i) for i in range(len(pieces.ids))]
    params = StopParams(2.0, 1.2, 0.55)
    want = [ref_events(track, layout, params) for track in tracks]
    assert sum(map(len, want)) > 0
    monkeypatch.setattr(kinematics, "BATCH_SAMPLES", budget)
    assert detect_many(tracks, layout, params) == want
    joined = TrackBatch.join(tracks)
    assert [joined.track(i).trajectory_id for i in range(len(tracks))] == pieces.ids


def test_records_before_a_failing_record_register_their_ids(tmp_path):
    """A read error on line 4 loses to a gap-split id that line 3 reuses, in the same batch."""
    def line(trajectory_id, times):
        samples = ", ".join(f"[{t!r}, 1.0, 2.0, 0.5]" for t in times)
        return f'{{"trajectory_id": "{trajectory_id}", "store_id": "s", "samples": [{samples}]}}\n'

    steady = [k * DT for k in range(5)]
    path = tmp_path / "t.jsonl"
    path.write_text(line("a", steady + [3.0 + k * DT for k in range(4)])  # a~0 and a~1
                    + line("b", steady) + line("a~1", steady)
                    + line("c", steady[:2] + [0.25] + steady[3:]))  # an uneven step
    with pytest.raises(ParseError, match=r":3: gap-split trajectory id 'a~1' already used on line 1"):
        read_trajectories(path)
    path.write_text(line("a", steady) + line("c", steady[:2] + [0.25] + steady[3:]) + line("a", steady))
    with pytest.raises(ValidationError, match="non-uniform time step") as err:
        read_trajectories(path)
    assert err.value.element == "c"
