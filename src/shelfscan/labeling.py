"""Reviewer labels and the majority-vote visit matrix.

Reviewers mark time intervals during which they judged the shopper to be
browsing a shelf. Intervals are half-open: a sample at time t is covered
when t_start <= t < t_end, so adjacent intervals partition cleanly. A
sample's vote count is the number of distinct reviewers covering it (a
reviewer voting twice through overlapping intervals still counts once),
and the visit Boolean is 1 only on a strict majority of the full panel,
abstentions included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParseError,
    ReviewerCountMismatch,
    UnknownShelf,
    UnknownTrajectory,
    ValidationError,
)
from .kinematics import DT, Trajectory, json_int, read_records, write_records
from .layout import StoreLayout


@dataclass(frozen=True)
class ReviewerLabel:
    reviewer_id: str
    trajectory_id: str
    shelf_id: int
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValidationError(
                f"label interval [{self.t_start}, {self.t_end}) is empty",
                element=f"{self.reviewer_id}/{self.trajectory_id}",
            )


@dataclass(frozen=True)
class VisitMatrix:
    """Per (shelf, sample) ground-truth visit Booleans for one trajectory."""

    trajectory_id: str
    times: np.ndarray    # (k,)
    values: np.ndarray   # (n_shelves, k) bool
    n_reviewers: int

    @property
    def n_shelves(self) -> int:
        return self.values.shape[0]

    def __len__(self):
        return self.values.shape[1]


def majority_vote(labels, traj: Trajectory, layout: StoreLayout, n_reviewers: int) -> VisitMatrix:
    """Fuse reviewer intervals into the per-timestamp visit matrix.

    `n_reviewers` is the panel size, which may exceed the number of
    reviewers that actually cast labels.
    """
    if n_reviewers < 1:
        raise ValidationError(f"reviewer panel must have at least one member, got {n_reviewers}")
    labels = list(labels)
    seen = {lab.reviewer_id for lab in labels}
    if len(seen) > n_reviewers:
        raise ReviewerCountMismatch(
            f"labels reference {len(seen)} reviewers but the panel has {n_reviewers}"
        )
    times = traj.times
    n_s = layout.n_shelves
    # per (reviewer, shelf) OR of interval masks, then summed across reviewers
    per_reviewer: dict[tuple[str, int], np.ndarray] = {}
    for lab in labels:
        if lab.trajectory_id != traj.trajectory_id:
            raise UnknownTrajectory(
                f"label references trajectory {lab.trajectory_id!r}, voting on {traj.trajectory_id!r}"
            )
        if not 1 <= lab.shelf_id <= n_s:
            raise UnknownShelf(f"label references shelf {lab.shelf_id}, layout has 1..{n_s}")
        mask = (times >= lab.t_start) & (times < lab.t_end)
        key = (lab.reviewer_id, lab.shelf_id)
        if key in per_reviewer:
            per_reviewer[key] |= mask
        else:
            per_reviewer[key] = mask
    counts = np.zeros((n_s, len(times)), dtype=np.int32)
    for (_, shelf_id), mask in per_reviewer.items():
        counts[shelf_id - 1] += mask
    return VisitMatrix(
        trajectory_id=traj.trajectory_id,
        times=times,
        values=counts > n_reviewers / 2.0,
        n_reviewers=n_reviewers,
    )


def labels_from_stop_events(events, reviewer_id: str = "r1"):
    """Turn detector output into reviewer labels covering the same samples.

    The interval end lands half a step past the last stopped sample so the
    half-open interval covers exactly the event's samples. Useful for
    planted-truth experiments where detector output doubles as labels.
    """
    return [
        ReviewerLabel(
            reviewer_id=reviewer_id,
            trajectory_id=ev.trajectory_id,
            shelf_id=ev.shelf_id,
            t_start=ev.t_s,
            t_end=ev.t_f + DT / 2.0,
        )
        for ev in events
    ]


def read_labels(path) -> list[ReviewerLabel]:
    """Read reviewer labels from a JSONL file, as write_labels writes them.

    kinematics.read_records reads them: a malformed line, or a shelf_id that
    is not a JSON integer, raises ParseError naming the file and line, and
    an empty interval raises ValidationError.
    """
    return read_records(path, ReviewerLabel, "label record")


def write_labels(labels, path) -> None:
    """Write reviewer labels as JSONL, one record per label (kinematics.write_records)."""
    write_records(labels, path)


def read_label_manifest(path) -> tuple[int, list[str]]:
    """Read the sidecar manifest: panel size and reviewer roster.

    An n_reviewers that is not a JSON integer (2.7, 2.0, true, "3") raises
    ParseError naming the file, as does a file that is not a JSON object.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        roster = [str(r) for r in doc.get("reviewers", [])]
        n = json_int(doc, "n_reviewers")
    except (OSError, json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"cannot parse label manifest {path}: {exc!r}") from exc
    return n, roster


def write_label_manifest(n_reviewers: int, reviewers, path) -> None:
    with open(path, "w") as fh:
        json.dump({"n_reviewers": n_reviewers, "reviewers": list(reviewers)}, fh, indent=2)
        fh.write("\n")
