import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfscan import (
    DT,
    ReviewerLabel,
    StopParams,
    build_track,
    detect_stops,
    labels_from_stop_events,
    majority_vote,
)
from shelfscan.errors import (
    ParseError,
    ReviewerCountMismatch,
    UnknownShelf,
    UnknownTrajectory,
    ValidationError,
)
from shelfscan.labeling import read_label_manifest, read_labels, write_label_manifest, write_labels

from conftest import standing_trajectory
from shelfscan import Segment2D, Shelf, StoreLayout

ONE_SHELF = StoreLayout(
    store_id="unit",
    shelves=(Shelf(id=1, face=Segment2D((0.0, 0.0), (2.0, 0.0)), normal=(0.0, 1.0)),),
)


def lab(reviewer, t0, t1, shelf=1, traj="t"):
    return ReviewerLabel(
        reviewer_id=reviewer, trajectory_id=traj, shelf_id=shelf, t_start=t0, t_end=t1
    )


@pytest.fixture
def traj():
    return standing_trajectory((1.0, 1.0), 0.0, 20)


def brute_counts(labels, times, shelf, n_s):
    """Per-sample distinct-reviewer count via explicit set union."""
    out = []
    for t in times:
        voters = {
            l.reviewer_id
            for l in labels
            if l.shelf_id == shelf and l.t_start <= t < l.t_end
        }
        out.append(len(voters))
    return out


def test_three_of_four_is_a_visit(traj, single_shelf_layout):
    labels = [lab(r, 0.0, 0.5) for r in ("a", "b", "c")]
    visits = majority_vote(labels, traj, single_shelf_layout, n_reviewers=4)
    assert visits.values[0, 0]
    assert visits.n_reviewers == 4


def test_two_of_four_is_not_a_visit(traj, single_shelf_layout):
    labels = [lab(r, 0.0, 0.5) for r in ("a", "b")]
    visits = majority_vote(labels, traj, single_shelf_layout, n_reviewers=4)
    assert not visits.values.any()


def test_no_labels_all_zero(traj, single_shelf_layout):
    visits = majority_vote([], traj, single_shelf_layout, n_reviewers=4)
    assert not visits.values.any()


def test_overlapping_intervals_of_one_reviewer_count_once(traj, single_shelf_layout):
    labels = [lab("a", 0.0, 1.0), lab("a", 0.5, 1.5)]
    visits = majority_vote(labels, traj, single_shelf_layout, n_reviewers=1)
    expected = brute_counts(labels, traj.times, shelf=1, n_s=1)
    assert visits.values[0].tolist() == [c > 0.5 for c in expected]
    # with a 2-person panel one reviewer is not a majority even doubled up
    visits2 = majority_vote(labels, traj, single_shelf_layout, n_reviewers=2)
    assert not visits2.values.any()


def test_interval_endpoints_half_open(traj, single_shelf_layout):
    visits = majority_vote([lab("a", 0.5, 1.0)], traj, single_shelf_layout, n_reviewers=1)
    row = visits.values[0]
    assert row[5] and row[9]      # t = 0.5 inclusive .. t = 0.9
    assert not row[4] and not row[10]  # t = 1.0 exclusive


def test_unknown_shelf_rejected(traj, single_shelf_layout):
    with pytest.raises(UnknownShelf):
        majority_vote([lab("a", 0.0, 1.0, shelf=7)], traj, single_shelf_layout, 4)


def test_unknown_trajectory_rejected(traj, single_shelf_layout):
    with pytest.raises(UnknownTrajectory):
        majority_vote([lab("a", 0.0, 1.0, traj="other")], traj, single_shelf_layout, 4)


def test_too_many_reviewers_rejected(traj, single_shelf_layout):
    labels = [lab(r, 0.0, 1.0) for r in ("a", "b", "c")]
    with pytest.raises(ReviewerCountMismatch):
        majority_vote(labels, traj, single_shelf_layout, n_reviewers=2)


def test_empty_interval_rejected():
    with pytest.raises(ValidationError):
        lab("a", 1.0, 1.0)


@st.composite
def label_sets(draw):
    n_labels = draw(st.integers(0, 12))
    labels = []
    for i in range(n_labels):
        reviewer = draw(st.sampled_from(["a", "b", "c", "d"]))
        start = draw(st.integers(0, 18)) * DT
        length = draw(st.integers(1, 10)) * DT
        labels.append(lab(reviewer, start, start + length))
    return labels


@given(labels=label_sets(), extra_start=st.integers(0, 18), extra_len=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_adding_a_label_never_clears_a_visit(labels, extra_start, extra_len):
    traj = standing_trajectory((1.0, 1.0), 0.0, 20)
    before = majority_vote(labels, traj, ONE_SHELF, n_reviewers=4)
    extra = lab("d", extra_start * DT, (extra_start + extra_len) * DT)
    after = majority_vote(labels + [extra], traj, ONE_SHELF, n_reviewers=4)
    assert (after.values | before.values == after.values).all()


@given(labels=label_sets(), cut=st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_splitting_an_interval_changes_nothing(labels, cut):
    traj = standing_trajectory((1.0, 1.0), 0.0, 20)
    base = lab("a", 0.0, 10 * DT)
    split = [lab("a", 0.0, cut * DT), lab("a", cut * DT, 10 * DT)]
    whole = majority_vote(labels + [base], traj, ONE_SHELF, n_reviewers=4)
    parts = majority_vote(labels + split, traj, ONE_SHELF, n_reviewers=4)
    assert np.array_equal(whole.values, parts.values)


@given(start=st.integers(0, 10), length=st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_unanimous_panel_equals_single_reviewer(start, length):
    traj = standing_trajectory((1.0, 1.0), 0.0, 20)
    interval = (start * DT, (start + length) * DT)
    unanimous = [lab(r, *interval) for r in ("a", "b", "c", "d")]
    panel = majority_vote(unanimous, traj, ONE_SHELF, n_reviewers=4)
    solo = majority_vote([lab("a", *interval)], traj, ONE_SHELF, n_reviewers=1)
    assert np.array_equal(panel.values, solo.values)


def test_labels_from_stop_events_reproduce_matrix(single_shelf_layout):
    import math

    traj = standing_trajectory((1.0, 1.0), -math.pi / 2, 30)
    track = build_track(traj, window=5)
    params = StopParams(2.0, 1.2, 0.55)
    events, matrix = detect_stops(track, single_shelf_layout, params)
    assert events
    labels = labels_from_stop_events(events)
    visits = majority_vote(labels, traj, single_shelf_layout, n_reviewers=1)
    assert np.array_equal(visits.values, matrix.values)


def test_label_file_round_trip(tmp_path):
    labels = [lab("a", 0.0, 1.0), lab("b", 2.0, 3.5, shelf=1, traj="u")]
    path = tmp_path / "labels.jsonl"
    write_labels(labels, path)
    assert read_labels(path) == labels


@pytest.mark.parametrize("shelf_id", [2.7, 2.0, True, False, "2", None])
def test_shelf_id_must_be_json_integer(tmp_path, shelf_id):
    path = tmp_path / "labels.jsonl"
    good = {"reviewer_id": "a", "trajectory_id": "t", "shelf_id": 2, "t_start": 0.0, "t_end": 1.0}
    path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, shelf_id=shelf_id)) + "\n")
    with pytest.raises(ParseError, match=f"^{path}:2: bad label record: .*shelf_id must be a JSON integer"):
        read_labels(path)
    path.write_text(json.dumps(good) + "\n")
    assert read_labels(path)[0].shelf_id == 2


@pytest.mark.parametrize("n_reviewers", [2.7, 2.0, True, "3", None])
def test_manifest_n_reviewers_must_be_json_integer(tmp_path, n_reviewers):
    path = tmp_path / "labels.manifest.json"
    path.write_text(json.dumps({"n_reviewers": n_reviewers, "reviewers": ["a"]}))
    with pytest.raises(ParseError, match=f"^cannot parse label manifest {path}: .*n_reviewers must be a JSON integer"):
        read_label_manifest(path)
    write_label_manifest(2, ["a"], path)
    assert read_label_manifest(path) == (2, ["a"])


def test_manifest_that_is_not_an_object_is_a_parse_error(tmp_path):
    path = tmp_path / "labels.manifest.json"
    path.write_text("[2]")
    with pytest.raises(ParseError, match=f"^cannot parse label manifest {path}"):
        read_label_manifest(path)
