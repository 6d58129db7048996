"""Trajectory ingest, position smoothing, heading normals and speeds.

A trajectory is the 10 Hz record of one shopper trip: floor position
(x, y) and body orientation angle theta per sample. Positions are
smoothed with a centered moving average before any downstream use, both
for speed estimation and for the gaze distance computed by the detector,
so the two never disagree about where the shopper is. Theta is left
untouched.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidWindow, ParseError, TooShort, ValidationError

DT = 0.1  # tracking time step, seconds
DT_TOL = 1e-6
GAP_FACTOR = 1.5  # gaps longer than GAP_FACTOR * DT split a record
DEFAULT_WINDOW = 5


def wrap_angle(theta):
    """Wrap an angle, or an array of angles, into (-pi, pi].

    fmod and the one 2*pi correction are both exact, so the result is the
    float nearest to theta modulo 2*pi, as math.remainder would give it.
    """
    wrapped = np.fmod(theta, 2.0 * math.pi)
    wrapped = np.where(wrapped > math.pi, wrapped - 2.0 * math.pi, wrapped)
    wrapped = np.where(wrapped <= -math.pi, wrapped + 2.0 * math.pi, wrapped)
    return wrapped if wrapped.ndim else float(wrapped)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One trip's samples, uniformly spaced at DT, as read-only arrays.

    Arrays do not compare with ==, so neither do trajectories.
    """

    trajectory_id: str
    store_id: str
    times: np.ndarray        # (n,) seconds
    positions: np.ndarray    # (n, 2) raw, meters
    thetas: np.ndarray       # (n,) radians in (-pi, pi]

    def __post_init__(self):
        n = len(self.times)
        if n < 3:
            raise TooShort(f"trajectory {self.trajectory_id} has {n} samples, need >= 3")
        for name, shape in (("times", (n,)), ("positions", (n, 2)), ("thetas", (n,))):
            arr = np.array(getattr(self, name), dtype=np.float64)  # a copy, then read-only
            if arr.shape != shape or not np.isfinite(arr).all():
                raise ValidationError(f"{name} must be {shape} finite values",
                                      element=self.trajectory_id)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        outside = self.thetas[(self.thetas <= -math.pi) | (self.thetas > math.pi)]
        if outside.size:
            raise ValidationError(f"theta {outside[0]} outside (-pi, pi]",
                                  element=self.trajectory_id)
        steps = np.diff(self.times)
        uneven = np.flatnonzero(np.abs(steps - DT) > DT_TOL)
        if uneven.size:
            k = uneven[0]
            raise ValidationError(
                f"non-uniform time step {steps[k]:.6f}s at t={self.times[k + 1]}",
                element=self.trajectory_id,
            )

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class KinematicTrack:
    """Per-sample smoothed positions, heading normals and speeds.

    All arrays share the source trajectory's sample axis.
    """

    trajectory_id: str
    store_id: str
    times: np.ndarray        # (k,) seconds
    positions: np.ndarray    # (k, 2) smoothed, meters
    normals: np.ndarray      # (k, 2) unit heading vectors
    speeds: np.ndarray       # (k,) m/s

    def __len__(self):
        return len(self.times)


def fit_window(window: int, n_samples: int) -> int:
    """Largest valid (odd, <= n_samples) window not exceeding `window`."""
    w = min(window, n_samples)
    if w % 2 == 0:
        w -= 1
    return max(w, 1)


def low_pass_positions(positions: np.ndarray, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Centered moving average of (n, 2) positions over `window` samples.

    Near the ends the window is clipped to the available samples, so a
    window of 3 averages two samples at each boundary. Window 1 is the
    identity. Output length equals input length.
    """
    n = len(positions)
    if window < 1 or window % 2 == 0:
        raise InvalidWindow(f"window must be a positive odd sample count, got {window}")
    if window > n:
        raise InvalidWindow(f"window {window} exceeds sample count {n}")
    if window == 1:
        return positions.copy()
    half = window // 2
    cum = np.zeros((n + 1, 2))
    np.cumsum(positions, axis=0, out=cum[1:])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (cum[hi] - cum[lo]) / (hi - lo)[:, None]


def _speeds(positions: np.ndarray, times: np.ndarray) -> np.ndarray:
    # central differences inside, one-sided at the two ends
    v = np.empty(len(positions))
    v[1:-1] = np.hypot(
        positions[2:, 0] - positions[:-2, 0], positions[2:, 1] - positions[:-2, 1]
    ) / (times[2:] - times[:-2])
    v[0] = math.hypot(*(positions[1] - positions[0])) / (times[1] - times[0])
    v[-1] = math.hypot(*(positions[-1] - positions[-2])) / (times[-1] - times[-2])
    return v


def build_track(traj: Trajectory, window: int = DEFAULT_WINDOW) -> KinematicTrack:
    """Derive the kinematic streams used by the stop detector."""
    positions = low_pass_positions(traj.positions, window)
    return KinematicTrack(
        trajectory_id=traj.trajectory_id,
        store_id=traj.store_id,
        times=traj.times,
        positions=positions,
        normals=np.column_stack([np.cos(traj.thetas), np.sin(traj.thetas)]),
        speeds=_speeds(positions, traj.times),
    )


def split_on_gaps(trajectory_id: str, store_id: str, rows) -> list[Trajectory]:
    """Split a record's [t, x, y, theta] rows at tracking dropouts.

    Rows holding a non-finite value are dropped first, so they split the
    record like a dropout. Rows are then sorted on t, and any time gap
    exceeding GAP_FACTOR * DT starts a new trajectory; pieces get a "~<i>"
    id suffix (only when splitting actually occurred) and pieces shorter
    than 3 samples are dropped.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    rows = rows[np.isfinite(rows).all(axis=1)]
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    pieces = np.split(rows, np.flatnonzero(np.diff(rows[:, 0]) > GAP_FACTOR * DT) + 1)
    multiple = len(pieces) > 1
    return [
        Trajectory(f"{trajectory_id}~{i}" if multiple else trajectory_id, store_id,
                   piece[:, 0], piece[:, 1:3], wrap_angle(piece[:, 3]))
        for i, piece in enumerate(pieces)
        if len(piece) >= 3
    ]


def _sample_rows(samples, where: str, strict: bool) -> np.ndarray:
    """A record's samples as an (n, 4) float array; each must be a list of four JSON numbers.

    np.array would read true as 1 next to floats, so `strict` (set when the
    line holds a JSON boolean) checks every value by type.
    """
    if not isinstance(samples, list):
        raise ParseError(f"{where}: samples must be a list, got {type(samples).__name__}")
    try:
        rows = np.array(samples)
        fast = not strict and rows.dtype.kind in "iuf" and rows.shape[1:] == (4,)
    except ValueError:  # ragged rows
        fast = False
    if not fast:
        for k, row in enumerate(samples):
            if type(row) is not list or len(row) != 4 or any(type(v) not in (int, float) for v in row):
                raise ParseError(f"{where}: sample {k} is not a list of four numbers: {row!r:.80}")
        rows = np.array(samples, dtype=float).reshape(-1, 4)
    return rows.astype(float, copy=False)


def read_trajectories(path) -> list[Trajectory]:
    """Read trajectories from a JSONL file, one trip per line.

    Record shape: {"trajectory_id", "store_id", "samples": [[t, x, y, theta], ...]}.
    A malformed record or sample row, or a trajectory_id that an earlier
    record used, raises ParseError. Records are gap-split (non-finite rows
    count as dropouts); sub-minimum fragments are silently discarded.
    """
    out, first_line = [], {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
                trajectory_id, store_id = str(rec["trajectory_id"]), str(rec["store_id"])
                rows = _sample_rows(rec["samples"], where, "true" in line or "false" in line)
            except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
                raise ParseError(f"{where}: bad trajectory record: {exc!r}") from exc
            if trajectory_id in first_line:
                raise ParseError(
                    f"{where}: trajectory_id {trajectory_id!r} already used on line "
                    f"{first_line[trajectory_id]}"
                )
            first_line[trajectory_id] = lineno
            out.extend(split_on_gaps(trajectory_id, store_id, rows))
    return out


def write_trajectories(trajectories, path) -> None:
    with open(path, "w") as fh:
        for traj in trajectories:
            rec = {
                "trajectory_id": traj.trajectory_id,
                "store_id": traj.store_id,
                "samples": np.column_stack([traj.times, traj.positions, traj.thetas]).tolist(),
            }
            fh.write(json.dumps(rec) + "\n")
