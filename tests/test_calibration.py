import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfscan import (
    DT,
    ConfusionCounts,
    ParamGrid,
    StopParams,
    VisitMatrix,
    build_track,
    calibrate,
    confusion_counts,
    confusion_counts_total,
    cross_store_eval,
    detect_stops,
    generate,
    population_scenario,
    precision_recall_f1,
    same_store_eval,
    score_dataset,
)
from shelfscan import calibration, detector
from shelfscan.calibration import (
    _best,
    _count_tables,
    _counts,
    _enumerate_runs,
    _merge,
    _Prepared,
    _runs_of,
    check_request,
    counts_at,
)
from shelfscan.detector import DURATION_TOL, StopMatrix
from conftest import make_trajectory
from shelfscan.errors import (
    AxisMismatch,
    DegenerateSplit,
    EmptyDataset,
    EmptyGrid,
    FractionOutOfRange,
    FrameMismatch,
    ValidationError,
)

PLANTED = StopParams(t_b=2.0, delta_b=1.2, v_b=0.55)
# five values per axis, each containing the planted value as an exact float
PLANTED_GRID = ParamGrid(t_b=(1.0, 3.0, 0.5), delta_b=(0.6, 1.8, 0.3), v_b=(0.25, 0.85, 0.15))


def planted_dataset(seed=0, n=25, params=PLANTED, window=5, noise=0.0):
    """(track, visits) pairs whose truth is the detector's own output."""
    trajs, _, layout = generate(population_scenario(seed, n, noise=noise))
    dataset = []
    for traj in trajs:
        track = build_track(traj, window)
        _, stops = detect_stops(track, layout, params)
        visits = VisitMatrix(
            trajectory_id=stops.trajectory_id,
            times=stops.times,
            values=stops.values.copy(),
            n_reviewers=1,
        )
        dataset.append((track, visits))
    return dataset, layout


def mat(trajectory_id, rows, times=None, kind="stop"):
    values = np.array(rows, dtype=bool)
    if times is None:
        times = np.arange(values.shape[1]) * 0.1
    if kind == "stop":
        return StopMatrix(trajectory_id=trajectory_id, times=times, values=values)
    return VisitMatrix(trajectory_id=trajectory_id, times=times, values=values, n_reviewers=1)


def test_perfect_agreement_counts():
    s = mat("t", [[1, 0, 1, 1, 0]])
    v = mat("t", [[1, 0, 1, 1, 0]], kind="visit")
    assert confusion_counts(s, v) == ConfusionCounts(tp=3, fp=0, fn=0)


def test_all_misses_are_false_negatives():
    s = mat("t", [[0, 0, 0, 0]])
    v = mat("t", [[1, 1, 0, 1]], kind="visit")
    assert confusion_counts(s, v) == ConfusionCounts(tp=0, fp=0, fn=3)


def test_mixed_counts():
    s = mat("t", [[1, 1, 0, 0]])
    v = mat("t", [[1, 0, 1, 0]], kind="visit")
    assert confusion_counts(s, v) == ConfusionCounts(tp=1, fp=1, fn=1)


def test_axis_mismatch_detected():
    s = mat("t", [[1, 0]])
    with pytest.raises(AxisMismatch):
        confusion_counts(s, mat("other", [[1, 0]], kind="visit"))
    with pytest.raises(AxisMismatch):
        confusion_counts(s, mat("t", [[1, 0, 0]], kind="visit"))
    with pytest.raises(AxisMismatch):
        confusion_counts(s, mat("t", [[1, 0], [0, 0]], kind="visit"))


def test_counts_add_over_trajectories():
    pairs = [
        (mat("a", [[1, 1, 0]]), mat("a", [[1, 0, 0]], kind="visit")),
        (mat("b", [[0, 1]]), mat("b", [[1, 1]], kind="visit")),
    ]
    total = confusion_counts_total(pairs)
    assert total == confusion_counts(*pairs[0]) + confusion_counts(*pairs[1])
    assert total == ConfusionCounts(tp=2, fp=1, fn=1)


def test_precision_recall_f1_arithmetic():
    rep = precision_recall_f1(ConfusionCounts(tp=2, fp=1, fn=1))
    assert rep.precision == pytest.approx(2 / 3)
    assert rep.recall == pytest.approx(2 / 3)
    assert rep.f1 == pytest.approx(2 / 3)


def test_perfect_detector_scores_one():
    rep = precision_recall_f1(ConfusionCounts(tp=5, fp=0, fn=0))
    assert rep.precision == rep.recall == rep.f1 == 1.0


def test_zero_denominator_conventions():
    rep = precision_recall_f1(ConfusionCounts(tp=0, fp=3, fn=2))
    assert rep.precision == rep.recall == rep.f1 == 0.0
    empty = precision_recall_f1(ConfusionCounts(0, 0, 0))
    assert empty.precision == empty.recall == empty.f1 == 0.0


@given(tp=st.integers(0, 1000), fp=st.integers(0, 1000), fn=st.integers(0, 1000))
@settings(max_examples=300, deadline=None)
def test_f1_is_harmonic_mean(tp, fp, fn):
    rep = precision_recall_f1(ConfusionCounts(tp, fp, fn))
    p, r = rep.precision, rep.recall
    if p + r > 0:
        assert abs(rep.f1 - 2 * p * r / (p + r)) < 1e-12
    else:
        assert rep.f1 == 0.0
    assert rep.f1 <= 2 * min(p, r) + 1e-12


def test_negative_counts_rejected():
    with pytest.raises(ValidationError):
        ConfusionCounts(tp=-1, fp=0, fn=0)


def test_grid_axes_inclusive():
    t_axis, d_axis, v_axis = PLANTED_GRID.axes()
    assert t_axis.tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]
    assert 1.2 in d_axis.tolist()
    assert 0.55 in v_axis.tolist()


def test_grid_rejects_bad_ranges():
    with pytest.raises(ValidationError):
        ParamGrid(t_b=(2.0, 1.0, 0.1))
    with pytest.raises(ValidationError):
        ParamGrid(v_b=(0.1, 1.0, 0.0))


# 1000 x 1000 x 4000 points: 1001 * 1001 * 4001 difference-table cells, past what an int32 run corner indexes
OVERSIZED_GRID = ParamGrid(t_b=(0.1, 100.0, 0.1), delta_b=(0.1, 100.0, 0.1), v_b=(0.005, 20.0, 0.005))


def test_grid_with_more_than_2_31_table_cells_rejected_before_any_table():
    with pytest.raises(ValidationError, match="4009006001 count-table cells"):
        check_request(OVERSIZED_GRID)


def test_grid_axis_of_a_million_million_points_rejected_before_it_is_built():
    # an axis array of 1e12 points would take 7.3 TiB: the cells are counted from the range instead
    with pytest.raises(ValidationError, match=r"needs 35999996400072 count-table cells, more than 2\*\*31"):
        check_request(ParamGrid(t_b=(0.1, 1e6, 1e-6), delta_b=(0.6, 1.8, 0.3), v_b=(0.25, 0.85, 0.15)))


@pytest.mark.parametrize("grid", [
    ParamGrid(),                                                                # the default: 36 x 55 x 141
    PLANTED_GRID,                                                               # the README's and eval-same's
    ParamGrid(t_b=(0.5, 4.0, 0.1), delta_b=(0.6, 1.8, 0.3), v_b=(0.1, 1.5, 0.01)),  # calibrate-fine's
])
def test_default_and_benchmark_grids_fit_the_table_cell_limit(grid):
    check_request(grid)


def test_single_point_grid_returned_regardless_of_score():
    dataset, layout = planted_dataset(n=5)
    grid = ParamGrid(t_b=(0.7, 0.7, 1.0), delta_b=(2.0, 2.0, 1.0), v_b=(0.3, 0.3, 1.0))
    result = calibrate(dataset, layout, grid)
    assert result.best_params == StopParams(0.7, 2.0, 0.3)


def test_planted_parameters_recovered():
    dataset, layout = planted_dataset(n=25)
    result = calibrate(dataset, layout, PLANTED_GRID)
    assert result.best_f1 == 1.0
    assert result.best_params == PLANTED
    assert result.metrics.counts.fp == 0
    assert result.metrics.counts.fn == 0


def test_grid_table_matches_independent_rescoring():
    dataset, layout = planted_dataset(n=8)
    # the longest stop at any of these points lasts 6.4 s, so the t_b = 7.0 row predicts nothing
    grid = ParamGrid(t_b=(1.0, 7.0, 0.75), delta_b=(0.8, 1.6, 0.4), v_b=(0.3, 0.7, 0.2))
    result = calibrate(dataset, layout, grid)
    best_seen = -1.0
    lines = "".join(result.grid_lines()).split("\r\n")
    assert lines[0] == "t_b,delta_b,v_b,tp,fp,fn,precision,recall,f1" and lines[-1] == ""
    kinds = (float, float, float, int, int, int, float, float, float)
    rows = [tuple(kind(field) for kind, field in zip(kinds, line.split(","), strict=True))
            for line in lines[1:-1]]
    assert len(rows) == 9 * 3 * 3
    for t_b, delta_b, v_b, tp, fp, fn, precision, recall, f1 in rows:
        rep = score_dataset(dataset, layout, StopParams(t_b, delta_b, v_b))
        assert (rep.counts.tp, rep.counts.fp, rep.counts.fn) == (tp, fp, fn)
        assert (rep.precision, rep.recall, rep.f1) == (precision, recall, f1)
        best_seen = max(best_seen, f1)
    assert result.best_f1 == best_seen
    empty = [row for row in rows if row[0] == 7.0]
    assert empty and all(row[3:5] == (0, 0) and row[5] > 0 and row[6:] == (0.0, 0.0, 0.0)
                         for row in empty)


def test_tie_break_is_lexicographic():
    # truth always empty and the detector silent: F1 = 0 at every point
    dataset, layout = planted_dataset(n=3)
    dataset = [
        (track, VisitMatrix(v.trajectory_id, v.times, np.zeros_like(v.values), 1))
        for track, v in dataset
    ]
    grid = ParamGrid(t_b=(5.0, 6.0, 0.5), delta_b=(0.05, 0.1, 0.05), v_b=(0.01, 0.02, 0.01))
    result = calibrate(dataset, layout, grid)
    assert result.best_params == StopParams(5.0, 0.05, 0.01)


def test_default_grid_calibrates_planted_dataset():
    dataset, layout = planted_dataset(n=12)
    result = calibrate(dataset, layout, ParamGrid())
    # several grid points score 1.0 here; the tie-break need not pick the planted one
    assert result.best_f1 == 1.0
    assert result.metrics.counts.fp == 0
    assert result.metrics.counts.fn == 0


# exact axis values, values between and beyond them, NaN and inf
_SPEEDS = (0.0, 0.1, 0.2, 0.3, 0.35, 0.5, 0.6, math.nan, math.inf)
_V_AXIS = (0.1, 0.2, 0.35, 0.5)
_D_AXIS = (0.5, 1.0, 1.2)
# run durations are multiples of DT, so these put t_b on, just below and just above them
_T_VALUES = (DURATION_TOL, 2 * DURATION_TOL) + tuple(
    k * DT + e * DURATION_TOL for k in range(1, 5) for e in (-1, 0, 1))


def _stream(draw, n, values):
    """n values in stretches of repeats, so blocks run long."""
    out = []
    while len(out) < n:
        out += [draw(st.sampled_from(values))] * draw(st.integers(1, 4))
    return np.array(out[:n])


@dataclasses.dataclass(frozen=True)
class Trip:
    """One trip's streams: what a _Prepared batch holds of each trip between its bounds."""

    times: np.ndarray
    candidates: np.ndarray
    lams: np.ndarray
    speeds: np.ndarray
    visit_at_candidate: np.ndarray
    visit_ones: int
    store_id: str = ""


def join(trips) -> _Prepared:
    """The _Prepared batch of trips end to end, as _gaze_batch makes one of a gaze batch."""
    def column(name, dtype):  # an empty batch too
        return np.concatenate([np.zeros(0, dtype), *(getattr(trip, name) for trip in trips)])

    return _Prepared(column("times", float), column("candidates", np.int64), column("lams", float),
                     column("speeds", float), column("visit_at_candidate", bool),
                     np.cumsum([0, *(len(trip.times) for trip in trips)]), ones(trips),
                     [trip.store_id for trip in trips])


def _trip(draw, n, t0):
    vac = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return Trip(
        times=t0 + np.arange(n) * DT,
        candidates=_stream(draw, n, (0, 0, 0, 1, -1)).astype(np.int64),
        lams=_stream(draw, n, _D_AXIS + (math.inf,)).astype(np.float64),
        speeds=np.array([draw(st.sampled_from(_SPEEDS)) for _ in range(n)], dtype=np.float64),
        visit_at_candidate=vac,
        visit_ones=int(vac.sum()) + draw(st.integers(0, 3)),
    )


@st.composite
def prepared_streams(draw):
    trips = [_trip(draw, draw(st.integers(0, 30)), draw(st.sampled_from((0.0, 0.05, 3.7))))
             for _ in range(draw(st.integers(1, 3)))]
    axis = lambda values: np.array(sorted(draw(st.sets(st.sampled_from(values), min_size=2, max_size=4))))
    return trips, axis(_T_VALUES), axis(_D_AXIS), axis(_V_AXIS)


def sweep(prepared, *axes):
    """The CalibrationResult of a batch's streams, folded as calibrate folds a range's."""
    return _best(_runs_of([prepared], axes, fold=True).count_tables(), axes)[1]


def ones(trips):
    return np.array([trip.visit_ones for trip in trips], dtype=np.int64)


@given(prepared_streams())
@settings(max_examples=100, deadline=None)
def test_sweep_tables_match_pointwise_counts(streams):
    prepared, t_axis, d_axis, v_axis = streams
    result = sweep(join(prepared), t_axis, d_axis, v_axis)
    tp, fp, fn = result.count_tables
    for ti, t_b in enumerate(t_axis):
        for di, delta_b in enumerate(d_axis):
            for vi, v_b in enumerate(v_axis):
                want = counts_at(join(prepared), StopParams(float(t_b), float(delta_b), float(v_b)))
                got = (tp[ti, di, vi], fp[ti, di, vi], fn[ti, di, vi])
                assert got == (want.tp, want.fp, want.fn)


def _trip_mask(data, prepared):
    return np.array(data.draw(st.lists(st.booleans(), min_size=len(prepared), max_size=len(prepared))),
                    dtype=bool)


@given(prepared_streams(), st.data())
@settings(max_examples=100, deadline=None)
def test_masked_tables_match_subset_sweep(streams, data):
    prepared, *axes = streams
    mask = _trip_mask(data, prepared)
    tp, s_ones, v_ones = _count_tables(_enumerate_runs(join(prepared), *axes), ones(prepared), axes, mask)
    subset = [prep for prep, keep in zip(prepared, mask) if keep]
    if subset:
        want_tp, want_fp, want_fn = sweep(join(subset), *axes).count_tables
    else:
        want_tp = want_fp = want_fn = np.zeros(tuple(len(axis) for axis in axes), dtype=np.int64)
    assert np.array_equal(tp, want_tp)
    assert np.array_equal(s_ones - tp, want_fp)
    assert np.array_equal(v_ones - tp, want_fn)


@given(prepared_streams(), st.data())
@settings(max_examples=100, deadline=None)
def test_held_out_counts_by_complement_match_pointwise_counts(streams, data):
    prepared, *axes = streams
    mask = _trip_mask(data, prepared)
    runs = _enumerate_runs(join(prepared), *axes)
    every, subset = _count_tables(runs, ones(prepared), axes), _count_tables(runs, ones(prepared), axes, mask)
    held = [prep for prep, keep in zip(prepared, mask) if not keep]
    for _ in range(5):
        index = tuple(data.draw(st.integers(0, len(axis) - 1)) for axis in axes)
        params = StopParams(*(float(axis[i]) for axis, i in zip(axes, index)))
        assert _counts(every, index) - _counts(subset, index) == counts_at(join(held), params)


@given(prepared_streams(), st.data())
@settings(max_examples=100, deadline=None)
def test_runs_of_contiguous_ranges_merge_to_one_enumeration(streams, data):
    """Ranges or gaze batches enumerated apart, some of them empty, count as one batch."""
    prepared, *axes = streams
    cuts = sorted(data.draw(st.lists(st.integers(0, len(prepared)), max_size=3)))
    ranges = [prepared[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(prepared)])]
    whole = _runs_of([join(prepared)], axes, fold=False)
    split = _merge([_runs_of([join(trips)], axes, fold=False) for trips in ranges])
    batched = _runs_of(map(join, ranges), axes, fold=False)
    mask = _trip_mask(data, prepared)
    for got, want in ((split.count_tables(), whole.count_tables()),
                      (split.count_tables(mask), whole.count_tables(mask)),
                      (batched.count_tables(), whole.count_tables()),
                      (batched.count_tables(mask), whole.count_tables(mask)),
                      (_merge([_runs_of([join(trips)], axes, fold=True) for trips in ranges]).count_tables(),
                       whole.count_tables()),
                      (_runs_of(map(join, ranges), axes, fold=True).count_tables(), whole.count_tables())):
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    for runs in (split, batched):
        assert np.array_equal(runs.visit_ones, ones(prepared))
        assert runs.store_ids == whole.store_ids


def glued(trips, d_axis, v_axis):
    """The trips, each one's times continuing the previous one's, with first and last samples on candidate 0.

    Those samples pass at the smallest delta_b and v_b, so a run would span
    two adjacent trips if their bounds were ignored.
    """
    out, end = [], None
    for trip in trips:
        n = len(trip.times)
        if n:
            times = trip.times if end is None else end + DT * np.arange(1, n + 1)
            streams = [trip.candidates.copy(), trip.lams.copy(), trip.speeds.copy()]
            for stream, value in zip(streams, (0, d_axis[0], 0.0)):
                stream[[0, -1]] = value
            trip = dataclasses.replace(trip, times=times, candidates=streams[0], lams=streams[1],
                                       speeds=streams[2])
            end = times[-1]
        out.append(trip)
    return out


@given(prepared_streams())
@settings(max_examples=100, deadline=None)
def test_batch_enumeration_equals_each_trip_enumerated_alone(streams):
    trips, *axes = streams
    trips = glued(trips, axes[1], axes[2])
    alone = []
    for i, trip in enumerate(trips):
        runs = _enumerate_runs(join([trip]), *axes)
        runs[0] = i
        alone.append(runs)
    got, want = _enumerate_runs(join(trips), *axes), np.concatenate(alone, axis=1)
    assert got.dtype == want.dtype
    assert sorted(map(tuple, got.T.tolist())) == sorted(map(tuple, want.T.tolist()))


@given(prepared_streams(), st.data())
@settings(max_examples=50, deadline=None)
def test_batch_counts_at_equal_the_sum_over_one_trip_batches(streams, data):
    trips, *axes = streams
    # glued trips, a copy of the first whose times restart, and an empty trip
    trips = glued(trips, axes[1], axes[2])
    trips.append(trips[0])
    trips.insert(data.draw(st.integers(0, len(trips))), _trip(data.draw, 0, 0.0))
    for index in np.ndindex(*(len(axis) for axis in axes)):
        params = StopParams(*(float(axis[i]) for axis, i in zip(axes, index)))
        want = sum((counts_at(join([trip]), params) for trip in trips), ConfusionCounts())
        assert counts_at(join(trips), params) == want


def test_sweep_of_a_block_longer_than_8192_samples_matches_pointwise_counts(single_shelf_layout):
    """A 10,000-sample stand facing a shelf is one block at the widest point, enumerated whole."""
    rng = np.random.default_rng(4)
    n = 10_000
    # jitter around (1, 1), facing the shelf 1 m away, so the speeds and distances vary
    traj = make_trajectory(np.array([1.0, 1.0]) + rng.normal(0.0, 0.01, (n, 2)), np.full(n, -math.pi / 2))
    visits = VisitMatrix(traj.trajectory_id, traj.times, rng.random((1, n)) < 0.5, n_reviewers=1)
    axes = (np.array([0.5, 30.0, 999.0]), np.array([0.995, 1.005, 2.0]), np.array([0.03, 0.06, 1.0]))
    [prepared] = calibration._gaze([(build_track(traj, window=5), visits)], single_shelf_layout, axes)
    tp, fp, fn = sweep(prepared, *axes).count_tables
    assert tp[-1, -1, -1] + fp[-1, -1, -1] == n  # one run of every sample
    for index in np.ndindex(tp.shape):
        want = counts_at(prepared, StopParams(*(float(axis[i]) for axis, i in zip(axes, index))))
        assert (tp[index], fp[index], fn[index]) == (want.tp, want.fp, want.fn)


def test_runs_serve_only_their_own_grid_and_use():
    dataset, layout = planted_dataset(n=4)
    runs = calibration._prepare(dataset, layout, PLANTED_GRID.axes())
    assert same_store_eval(runs, layout, PLANTED_GRID, p=0.5, repeats=2, seed=1) == \
        same_store_eval(dataset, layout, PLANTED_GRID, p=0.5, repeats=2, seed=1)
    with pytest.raises(ValidationError, match="other grid axes"):
        calibrate(runs, layout, MISSING_GRID)
    folded = calibration._prepare(dataset, layout, PLANTED_GRID.axes(), fold=True)
    got, want = calibrate(folded, layout, PLANTED_GRID), calibrate(runs, layout, PLANTED_GRID)
    assert (got.best_params, got.metrics) == (want.best_params, want.metrics)
    assert all(np.array_equal(a, b) for a, b in zip(got.count_tables, want.count_tables, strict=True))
    with pytest.raises(ValidationError, match="calibrate only"):
        same_store_eval(folded, layout, PLANTED_GRID, p=0.5, repeats=1, seed=0)


@given(prepared_streams())
@settings(max_examples=100, deadline=None)
def test_stored_runs_all_qualify_at_some_t_b(streams):
    """No stored run sits in t_b row 0, which reaches no table, and the tables stay pointwise exact."""
    prepared, *axes = streams
    n_d, n_v = len(axes[1]), len(axes[2])
    runs = _runs_of([join(prepared)], axes, fold=False)
    for cells in runs.runs[1:5]:
        assert (cells // ((n_d + 1) * (n_v + 1)) > 0).all()
    tables = runs.count_tables()
    for index in np.ndindex(tables[0].shape):
        params = StopParams(*(float(axis[i]) for axis, i in zip(axes, index)))
        assert _counts(tables, index) == counts_at(join(prepared), params)


@given(prepared_streams())
@settings(max_examples=100, deadline=None)
def test_each_run_is_stored_once(streams):
    """A run that exists at several (delta_b, v_b) pairs is stored once, and every run is stored."""
    prepared, t_axis, d_axis, v_axis = streams
    spans = {(trip, int(s), int(e))
             for delta_b in d_axis for v_b in v_axis
             for trip, prep in enumerate(prepared)
             for s, e in zip(*detector.runs(prep.times, prep.candidates, prep.lams, prep.speeds,
                                            StopParams(float(t_axis[0]), float(delta_b), float(v_b)),
                                            [0, len(prep.times)])[:2])}
    assert _runs_of([join(prepared)], (t_axis, d_axis, v_axis), fold=False).runs.shape[1] == len(spans)


def test_folded_runs_serve_the_cross_store_test_side_only():
    dataset, layout = planted_dataset(n=4)
    runs = calibration._prepare(dataset, layout, PLANTED_GRID.axes())
    folded = calibration._prepare(dataset, layout, PLANTED_GRID.axes(), fold=True)
    assert cross_store_eval(runs, layout, folded, layout, PLANTED_GRID, p=0.5, repeats=2) == \
        cross_store_eval(dataset, layout, dataset, layout, PLANTED_GRID, p=0.5, repeats=2)
    with pytest.raises(ValidationError, match="calibrate only"):
        cross_store_eval(folded, layout, runs, layout, PLANTED_GRID, p=0.5)
    with pytest.raises(ValidationError, match="cannot select trips"):
        folded.count_tables(np.ones(len(folded), dtype=bool))


@given(prepared_streams(), st.data())
@settings(max_examples=50, deadline=None)
def test_subset_without_candidates_gives_zero_tables(streams, data):
    prepared, *axes = streams
    mask = _trip_mask(data, prepared)
    # the masked trips see no shelf; the others keep theirs, so the enumeration is not empty
    prepared = [dataclasses.replace(prep, candidates=np.full(len(prep.times), -1)) if keep else prep
                for prep, keep in zip(prepared, mask)]
    tp, s_ones, v_ones = _count_tables(_enumerate_runs(join(prepared), *axes), ones(prepared), axes, mask)
    assert tp.shape == s_ones.shape == tuple(len(axis) for axis in axes)
    assert not tp.any() and not s_ones.any()
    assert v_ones == sum(prep.visit_ones for prep, keep in zip(prepared, mask) if keep)


_ANY_STORE = SimpleNamespace(store_id="")  # prepared_streams carry the empty store id


@given(prepared_streams(), prepared_streams(), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_eval_repeats_match_subset_sweeps_and_pointwise_counts(streams, others, seed):
    """Each repeat picks what a sweep of its subset picks and scores what counts_at scores."""
    prepared, *axes = streams
    test_side = others[0]
    n = len(prepared)
    n_cal = math.ceil(0.5 * n)
    # the Runs prepare_file's range stage makes of the streams
    cal_runs, test_runs = (_runs_of([join(trips)], axes, fold=False) for trips in (prepared, test_side))
    reports = [cross_store_eval(cal_runs, _ANY_STORE, test_runs, _ANY_STORE, _FixedGrid(*axes),
                                p=0.5, seed=seed, repeats=3)]
    if n_cal < n:
        reports.append(same_store_eval(cal_runs, _ANY_STORE, _FixedGrid(*axes), p=0.5, repeats=3, seed=seed))
    for report in reports:
        rng = np.random.default_rng(seed)
        for params, score in zip(report.params_per_repeat, report.scores, strict=True):
            order = rng.permutation(n) if n_cal < n else range(n)
            held = test_side if report.protocol == "cross-store" else [prepared[i] for i in order[n_cal:]]
            assert params == sweep(join([prepared[i] for i in order[:n_cal]]), *axes).best_params
            assert score == precision_recall_f1(counts_at(join(held), params)).f1


def test_empty_dataset_rejected():
    _, layout = planted_dataset(n=3)
    with pytest.raises(EmptyDataset):
        calibrate([], layout, PLANTED_GRID)


class _FixedGrid:
    def __init__(self, t_axis, d_axis, v_axis):
        self._axes = tuple(np.array(axis, dtype=float) for axis in (t_axis, d_axis, v_axis))

    def axes(self):
        return self._axes


def test_empty_grid_rejected():
    dataset, layout = planted_dataset(n=3)
    with pytest.raises(EmptyGrid):
        calibrate(dataset, layout, _FixedGrid([], [], []))


@pytest.mark.parametrize("axes", [
    ([1.0, 2.0], [1.2], [0.55, 0.5]),        # v_b decreasing
    ([2.0, 2.0], [1.2], [0.55]),             # t_b repeated
    ([2.0], [0.6, math.nan], [0.55]),        # delta_b not finite
    ([2.0], [1.2], [0.55, math.inf]),        # v_b not finite
    # ParamGrid ranges (given as dicts), rejected when the grid is built
    {"t_b": (math.nan, 3.0, 0.5)},
    {"delta_b": (0.6, math.inf, 0.3)},
    {"v_b": (0.25, 0.85, math.nan)},
    {"t_b": (1.0, 3.0, math.inf)},
    {"t_b": (1e-300, 1e300, 1e-300)},        # a point count past a float's range
    {"t_b": (1.0, 1e20, 1.0)},               # a point count past an array's size limit
])
def test_unsorted_or_non_finite_axes_rejected(axes):
    dataset, layout = planted_dataset(n=4)

    def grid():
        return ParamGrid(**axes) if isinstance(axes, dict) else _FixedGrid(*axes)

    with pytest.raises(ValidationError):
        calibrate(dataset, layout, grid())
    with pytest.raises(ValidationError):
        same_store_eval(dataset, layout, grid(), p=0.5, repeats=1, seed=0)
    with pytest.raises(ValidationError):
        cross_store_eval(dataset, layout, dataset, layout, grid())


def test_track_from_another_store_rejected():
    dataset, layout = planted_dataset(n=4)
    track, visits = dataset[2]
    dataset[2] = (dataclasses.replace(track, store_id="elsewhere"), visits)
    with pytest.raises(FrameMismatch):
        calibrate(dataset, layout, PLANTED_GRID)
    with pytest.raises(FrameMismatch):
        same_store_eval(dataset, layout, PLANTED_GRID, p=0.5, repeats=1, seed=0)


def test_same_store_eval_planted_is_perfect():
    dataset, layout = planted_dataset(n=16)
    report = same_store_eval(dataset, layout, PLANTED_GRID, p=0.5, repeats=4, seed=9)
    assert report.scores == (1.0, 1.0, 1.0, 1.0)
    assert report.mean == 1.0
    assert report.stderr == 0.0


def test_same_store_eval_deterministic():
    dataset, layout = planted_dataset(n=12, noise=0.05)
    a = same_store_eval(dataset, layout, PLANTED_GRID, p=0.4, repeats=3, seed=101)
    b = same_store_eval(dataset, layout, PLANTED_GRID, p=0.4, repeats=3, seed=101)
    assert a == b
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_same_store_eval_fraction_bounds():
    dataset, layout = planted_dataset(n=6)
    with pytest.raises(FractionOutOfRange):
        same_store_eval(dataset, layout, PLANTED_GRID, p=0.0, repeats=1, seed=0)
    with pytest.raises(FractionOutOfRange):
        same_store_eval(dataset, layout, PLANTED_GRID, p=1.0, repeats=1, seed=0)


def test_same_store_eval_degenerate_split():
    dataset, layout = planted_dataset(n=4)
    with pytest.raises(DegenerateSplit):
        same_store_eval(dataset, layout, PLANTED_GRID, p=0.9, repeats=1, seed=0)


def test_cross_store_eval_identical_stores_perfect():
    dataset_a, layout_a = planted_dataset(seed=1, n=10)
    dataset_b, layout_b = planted_dataset(seed=2, n=10)
    report = cross_store_eval(dataset_a, layout_a, dataset_b, layout_b, PLANTED_GRID)
    assert report.protocol == "cross-store"
    assert report.scores == (1.0,)
    assert report.params_per_repeat[0] == PLANTED


def test_cross_store_eval_self_transfer_perfect():
    dataset, layout = planted_dataset(seed=3, n=8)
    report = cross_store_eval(dataset, layout, dataset, layout, PLANTED_GRID, p=1.0)
    assert report.mean == 1.0


def test_cross_store_eval_fraction_bounds():
    dataset, layout = planted_dataset(n=4)
    with pytest.raises(FractionOutOfRange):
        cross_store_eval(dataset, layout, dataset, layout, PLANTED_GRID, p=1.5)
    with pytest.raises(EmptyDataset):
        cross_store_eval([], layout, dataset, layout, PLANTED_GRID)


# misses the planted point on every axis, so the chosen points score below 1
MISSING_GRID = ParamGrid(t_b=(1.0, 3.0, 0.7), delta_b=(0.6, 1.8, 0.35), v_b=(0.25, 0.85, 0.2))


def test_same_store_eval_matches_independent_reconstruction():
    dataset, layout = planted_dataset(seed=4, n=12, noise=0.05)
    report = same_store_eval(dataset, layout, MISSING_GRID, p=0.4, repeats=3, seed=17)
    n_cal = math.ceil(0.4 * len(dataset))
    rng = np.random.default_rng(17)  # one generator, one permutation per repeat
    for params, score in zip(report.params_per_repeat, report.scores, strict=True):
        perm = rng.permutation(len(dataset))
        cal = [dataset[i] for i in perm[:n_cal]]
        held = [dataset[i] for i in perm[n_cal:]]
        assert params == calibrate(cal, layout, MISSING_GRID).best_params
        assert score == score_dataset(held, layout, params).f1
    assert max(report.scores) < 1.0


def test_cross_store_eval_matches_independent_reconstruction():
    dataset_a, layout_a = planted_dataset(seed=5, n=10, noise=0.05)
    dataset_b, layout_b = planted_dataset(seed=6, n=8, noise=0.05)
    report = cross_store_eval(dataset_a, layout_a, dataset_b, layout_b, MISSING_GRID,
                              p=0.5, seed=23, repeats=3)
    n_cal = math.ceil(0.5 * len(dataset_a))
    rng = np.random.default_rng(23)
    for params, score in zip(report.params_per_repeat, report.scores, strict=True):
        cal = [dataset_a[i] for i in rng.permutation(len(dataset_a))[:n_cal]]
        assert params == calibrate(cal, layout_a, MISSING_GRID).best_params
        assert score == score_dataset(dataset_b, layout_b, params).f1
    assert max(report.scores) < 1.0
