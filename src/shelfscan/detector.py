"""Shelf stop detection from kinematic tracks.

Per sample, the shopper's body-orientation ray is cast against every shelf
face and obstacle; the nearest hit, if it is an interactive face, names
the candidate shelf and the hit distance. A stop on shelf j is a maximal
run of consecutive samples during which the candidate stays j, the hit
distance stays within delta_b, and the speed stays within v_b, lasting at
least t_b seconds. The detector emits stop events plus the per-timestamp
Boolean matrix downstream metrics count on. Two kernels do the work, here
and in calibration: gaze_stream casts the rays of many samples at once,
and runs cuts the samples that meet the conditions into runs.

Numeric conventions (shared by the brute-force cross-check in oracle.py):
- a hit counts only if its ray parameter exceeds EPS_LAMBDA, so an origin
  sitting exactly on a segment sees no self-hit;
- a hit may miss the segment ends by up to EPS_MEMBER meters;
- among hits within TIE_TOL of the minimum distance, the lowest segment
  index wins, so shelf faces beat equidistant obstacles;
- an edge-on (collinear) segment counts only when it lies fully ahead of
  the shopper, at the distance of its near endpoint; an edge-on segment
  containing the origin is ignored, since no positive minimum distance
  exists on it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import get_context
from typing import NamedTuple

import numpy as np

from .errors import FrameMismatch, ParseError, ShelfScanError, ValidationError
from .kinematics import (
    DEFAULT_WINDOW,
    KinematicTrack,
    build_track,
    claim_id,
    json_int,
    parse_record,
    read_lines,
    split_on_gaps,
)
from .layout import StoreLayout

EPS_LAMBDA = 1e-9
EPS_MEMBER = 1e-9
TIE_TOL = 1e-9
DURATION_TOL = 1e-9

# target element count for one (samples x segments) block; bounds temp memory
_BLOCK_ELEMS = 2_000_000
# tracks per shared gaze pass; bounds the memory a pass holds
_CHUNK = 256


@dataclass(frozen=True)
class StopParams:
    """The three detector thresholds.

    t_b: minimum browsing time, seconds
    delta_b: maximum distance to the shelf, meters
    v_b: maximum browsing speed, m/s
    """

    t_b: float
    delta_b: float
    v_b: float

    def __post_init__(self):
        if not (self.t_b > 0 and self.delta_b > 0 and self.v_b > 0):
            raise ValidationError(f"stop parameters must all be positive, got {self}")


@dataclass(frozen=True)
class StopEvent:
    trajectory_id: str
    shelf_id: int
    t_s: float
    t_f: float
    duration: float
    min_lambda: float
    mean_speed: float

    def __post_init__(self):
        if not self.t_s < self.t_f:
            raise ValidationError(f"stop event must span time, got [{self.t_s}, {self.t_f}]")


@dataclass(frozen=True)
class StopMatrix:
    """Per (shelf, sample) stop Booleans for one trajectory."""

    trajectory_id: str
    times: np.ndarray    # (k,)
    values: np.ndarray   # (n_shelves, k) bool

    @property
    def n_shelves(self) -> int:
        return self.values.shape[0]

    def __len__(self):
        return self.values.shape[1]


def _solve_block(ox, oy, dx, dy, pts, seg_idx):
    """Nearest-hit distance and winning segment for a block of rays.

    pts is the (m, 2, 2) endpoint array of the candidate segments and
    seg_idx their global 0-based indices, ascending. Returns (lam_min,
    winner) where winner is -1 for rays that hit nothing.
    """
    ax = pts[:, 0, 0]
    ay = pts[:, 0, 1]
    sx = pts[:, 1, 0] - ax
    sy = pts[:, 1, 1] - ay
    eps_u = EPS_MEMBER / np.hypot(sx, sy)

    qpx = ax[None, :] - ox[:, None]
    qpy = ay[None, :] - oy[:, None]
    denom = dx[:, None] * sy[None, :] - dy[:, None] * sx[None, :]
    tnum = qpx * sy[None, :] - qpy * sx[None, :]
    unum = qpx * dy[:, None] - qpy * dx[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = tnum / denom
        u = unum / denom
    valid = (denom != 0.0) & (lam > EPS_LAMBDA) & (u >= -eps_u[None, :]) & (u <= 1.0 + eps_u[None, :])

    collinear = (denom == 0.0) & (tnum == 0.0)
    if collinear.any():
        for i, j in zip(*np.nonzero(collinear)):
            la = qpx[i, j] * dx[i] + qpy[i, j] * dy[i]
            lb = la + (sx[j] * dx[i] + sy[j] * dy[i])
            lo = min(la, lb)
            if lo > EPS_LAMBDA:
                lam[i, j] = lo
                valid[i, j] = True

    lam = np.where(valid, lam, np.inf)
    lam_min = lam.min(axis=1)
    first = (lam <= lam_min[:, None] + TIE_TOL).argmax(axis=1)
    winner = np.where(np.isfinite(lam_min), seg_idx[first], -1)
    return lam_min, winner


class _SegmentGrid:
    """Coarse spatial hash used to cull segments beyond a distance cutoff.

    Each cell lists every segment whose inflated bounding box touches it,
    so a ray origin inside the cell sees a superset of all segments within
    `cutoff` of it; origins outside the grid are farther than the cutoff
    from every segment.
    """

    def __init__(self, layout: StoreLayout, cutoff: float):
        pts = layout.segment_points
        pad = cutoff + 0.01
        self.x0 = float(pts[:, :, 0].min() - pad)
        self.y0 = float(pts[:, :, 1].min() - pad)
        x1 = float(pts[:, :, 0].max() + pad)
        y1 = float(pts[:, :, 1].max() + pad)
        span = max(x1 - self.x0, y1 - self.y0, 1e-6)
        self.cell = max(cutoff, 0.5, span / 64.0)
        self.nx = int((x1 - self.x0) / self.cell) + 1
        self.ny = int((y1 - self.y0) / self.cell) + 1
        buckets: dict[int, list[int]] = {}
        for m in range(len(pts)):
            sx0 = min(pts[m, 0, 0], pts[m, 1, 0]) - pad
            sx1 = max(pts[m, 0, 0], pts[m, 1, 0]) + pad
            sy0 = min(pts[m, 0, 1], pts[m, 1, 1]) - pad
            sy1 = max(pts[m, 0, 1], pts[m, 1, 1]) + pad
            ix0 = max(int((sx0 - self.x0) / self.cell), 0)
            ix1 = min(int((sx1 - self.x0) / self.cell), self.nx - 1)
            iy0 = max(int((sy0 - self.y0) / self.cell), 0)
            iy1 = min(int((sy1 - self.y0) / self.cell), self.ny - 1)
            for iy in range(iy0, iy1 + 1):
                for ix in range(ix0, ix1 + 1):
                    buckets.setdefault(iy * self.nx + ix, []).append(m)
        self.buckets = {key: np.array(idx, dtype=np.intp) for key, idx in buckets.items()}

    def keys_for(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        ix = np.floor((x - self.x0) / self.cell).astype(np.int64)
        iy = np.floor((y - self.y0) / self.cell).astype(np.int64)
        inside = (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny)
        return np.where(inside, iy * self.nx + ix, -1)


def gaze_stream(positions, normals, layout: StoreLayout, cutoff: float | None = None):
    """Candidate shelf and hit distance for every sample of a track.

    Returns (candidates, lams): candidates holds 0-based shelf indices
    with -1 where there is no candidate; lams holds the nearest-hit
    distance (inf where nothing was hit).

    With a finite `cutoff`, rays whose nearest hit would be farther than
    the cutoff report no candidate; callers that only ever compare the
    distance against thresholds <= cutoff get identical downstream
    results at a fraction of the cost.
    """
    positions = np.asarray(positions, dtype=float)
    normals = np.asarray(normals, dtype=float)
    n = len(positions)
    pts = layout.segment_points
    m = len(pts)
    seg_idx = np.arange(m, dtype=np.intp)
    lam_out = np.full(n, np.inf)
    win_out = np.full(n, -1, dtype=np.intp)

    if n == 0:
        return win_out.astype(np.int32), lam_out
    if cutoff is None or not np.isfinite(cutoff):
        rows = max(_BLOCK_ELEMS // max(m, 1), 1)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            lam_out[lo:hi], win_out[lo:hi] = _solve_block(
                positions[lo:hi, 0], positions[lo:hi, 1],
                normals[lo:hi, 0], normals[lo:hi, 1], pts, seg_idx,
            )
    else:
        grid = _segment_grid(layout, cutoff)
        keys = grid.keys_for(positions[:, 0], positions[:, 1])
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        group_starts = np.flatnonzero(np.diff(sorted_keys)) + 1
        group_starts = np.concatenate([[0], group_starts, [n]])
        for gi in range(len(group_starts) - 1):
            sel = order[group_starts[gi]:group_starts[gi + 1]]
            key = int(sorted_keys[group_starts[gi]])
            sub = grid.buckets.get(key)
            if key < 0 or sub is None:
                continue  # nothing within the cutoff
            rows = max(_BLOCK_ELEMS // max(len(sub), 1), 1)
            for lo in range(0, len(sel), rows):
                part = sel[lo:lo + rows]
                lam, win = _solve_block(
                    positions[part, 0], positions[part, 1],
                    normals[part, 0], normals[part, 1], pts[sub], sub,
                )
                lam_out[part] = lam
                win_out[part] = win
        beyond = lam_out > cutoff
        lam_out[beyond] = np.inf
        win_out[beyond] = -1

    candidates = np.where((win_out >= 0) & (win_out < layout.n_shelves), win_out, -1).astype(np.int32)
    return candidates, lam_out


@lru_cache(maxsize=32)
def _segment_grid(layout: StoreLayout, cutoff: float) -> _SegmentGrid:
    return _SegmentGrid(layout, cutoff)


def runs(cond: np.ndarray, candidates: np.ndarray):
    """Maximal runs of consecutive samples that meet cond with one candidate.

    Samples without a candidate (-1) belong to no run. Returns (starts,
    ends, shelf0) arrays: each run's first and last sample (inclusive)
    and its 0-based shelf.
    """
    key = np.where(cond, candidates, -1)
    # the key changes at every run boundary; the -2 pads (no key is -2) add both ends
    edges = np.flatnonzero(np.diff(key, prepend=-2, append=-2))
    starts, ends = edges[:-1], edges[1:] - 1
    keep = key[starts] >= 0
    return starts[keep], ends[keep], key[starts[keep]]


def check_store(track: KinematicTrack, layout: StoreLayout) -> None:
    """Raise FrameMismatch unless the track was recorded in the layout's store."""
    if track.store_id != layout.store_id:
        raise FrameMismatch(
            f"track belongs to store {track.store_id!r}, layout to {layout.store_id!r}"
        )


def stack_tracks(tracks):
    """The tracks' positions and normals end to end, and the indices that split them back."""
    positions = np.concatenate([t.positions for t in tracks])
    normals = np.concatenate([t.normals for t in tracks])
    return positions, normals, np.cumsum([len(t) for t in tracks])[:-1]


def detect_stops(track: KinematicTrack, layout: StoreLayout, params: StopParams):
    """Find all shelf stops in one track.

    Returns (events, matrix): the chronological StopEvents and the
    (n_shelves, n_samples) Boolean StopMatrix marking every sample of
    every qualifying run.
    """
    check_store(track, layout)
    candidates, lams = gaze_stream(track.positions, track.normals, layout, cutoff=params.delta_b)
    events, spans = _extract(track, candidates, lams, params)
    values = np.zeros((layout.n_shelves, len(track)), dtype=bool)
    for (s, e, shelf0) in spans:
        values[shelf0, s:e + 1] = True
    return events, StopMatrix(trajectory_id=track.trajectory_id, times=track.times, values=values)


def _extract(track, candidates, lams, params):
    times = track.times
    starts, ends, shelves = runs((lams <= params.delta_b) & (track.speeds <= params.v_b), candidates)
    qual = times[ends] - times[starts] + DURATION_TOL >= params.t_b
    spans = list(zip(starts[qual].tolist(), ends[qual].tolist(), shelves[qual].tolist()))
    events = [
        StopEvent(
            trajectory_id=track.trajectory_id,
            shelf_id=shelf0 + 1,
            t_s=float(times[s]),
            t_f=float(times[e]),
            duration=float(times[e] - times[s]),
            min_lambda=float(lams[s:e + 1].min()),
            mean_speed=float(track.speeds[s:e + 1].mean()),
        )
        for s, e, shelf0 in spans
    ]
    return events, spans


def _detect_chunk(args):
    """(events, spans) of every track of a chunk, from one shared gaze pass; callers check stores."""
    tracks, layout, params = args
    # one shared gaze pass over the whole chunk amortizes the numpy overhead
    positions, normals, cuts = stack_tracks(tracks)
    candidates, lams = gaze_stream(positions, normals, layout, cutoff=params.delta_b)
    return [
        _extract(track, cand, lam, params)
        for track, cand, lam in zip(tracks, np.split(candidates, cuts), np.split(lams, cuts))
    ]


def write_stop_events(events, path) -> None:
    """Write stop events as JSONL, one record per event."""
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps({
                "trajectory_id": ev.trajectory_id,
                "shelf_id": ev.shelf_id,
                "t_s": ev.t_s,
                "t_f": ev.t_f,
                "duration": ev.duration,
                "min_lambda": ev.min_lambda,
                "mean_speed": ev.mean_speed,
            }) + "\n")


def read_stop_events(path) -> list[StopEvent]:
    """Read stop events from a JSONL file, one per line, as write_stop_events writes them.

    A line that is not UTF-8 JSON, lacks a field, holds a value that does
    not convert or a shelf_id that is not a JSON integer raises ParseError
    naming the file and line.
    """
    out = []
    for lineno, line in read_lines(path):
        try:
            rec = json.loads(line)
            fields = (str(rec["trajectory_id"]), json_int(rec, "shelf_id"), float(rec["t_s"]),
                      float(rec["t_f"]), float(rec["duration"]), float(rec["min_lambda"]),
                      float(rec["mean_speed"]))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ParseError(f"{path}:{lineno}: bad stop event: {exc!r}") from exc
        out.append(StopEvent(*fields))
    return out


def default_jobs() -> int:
    env = os.environ.get("SHELFSCAN_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"SHELFSCAN_JOBS must be an integer, got {env!r}") from None
        if jobs < 1:
            raise ValueError(f"SHELFSCAN_JOBS must be at least 1, got {jobs}")
        return jobs
    return os.cpu_count() or 1


def _map(fn, tasks, jobs: int):
    """[fn(task) for task in tasks], in a pool of forked workers when jobs > 1 and tasks > 1."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with get_context("fork").Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(fn, tasks)


def detect_many(tracks, layout: StoreLayout, params: StopParams, jobs: int | None = None):
    """Detect stops on many tracks, optionally in parallel.

    Returns one event list per input track, in input order; the result
    does not depend on the worker count.
    """
    tracks = list(tracks)
    for track in tracks:
        check_store(track, layout)
    if jobs is None:
        jobs = default_jobs()
    chunks = [(tracks[i:i + _CHUNK], layout, params) for i in range(0, len(tracks), _CHUNK)]
    return [events for chunk in _map(_detect_chunk, chunks, jobs) for events, _ in chunk]


# bytes per range at least: a smaller file is read in one range, in process
_MIN_RANGE = 4 << 20


class _RangeResult(NamedTuple):
    output: object       # what the range's stage finished with; None after an error
    ids: list            # (trajectory_id, line) of every record parsed
    known: list          # trajectory_id of every trajectory gap-split from those records
    error: tuple | None  # (line, exc): the first read error, where reading stopped
    late: tuple | None   # (line, exc): the stage's first error; the range only read on past it


def _byte_ranges(path, jobs: int):
    """Up to `jobs` non-empty (start, stop) byte ranges that cover a file, cut just after newlines.

    A range is cut per _MIN_RANGE bytes at most, so a small file is one range.
    """
    size = os.path.getsize(path)
    n = min(jobs, max(size // _MIN_RANGE, 1))
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, n):
            target = i * size // n
            if target > cuts[-1]:
                fh.seek(target - 1)
                fh.readline()  # the cut lands just after the first newline at or past target - 1
                cuts.append(fh.tell())
    cuts.append(size)
    return [(start, stop) for start, stop in zip(cuts, cuts[1:]) if start < stop]


def _read_range(task):
    """Read and gap-split the records in one byte range, and pass each record's trajectories to a stage."""
    path, start, stop, stage_type, stage_args = task
    stage = stage_type(*stage_args)
    ids, known, late = [], [], None
    for lineno, line in read_lines(path, start, stop):
        try:
            trajectory_id, store_id, rows = parse_record(line, f"{path}:{lineno}")
            ids.append((trajectory_id, lineno))
            pieces = split_on_gaps(trajectory_id, store_id, rows)
        except ShelfScanError as exc:
            return _RangeResult(None, ids, known, (lineno, exc), late)
        known += [traj.trajectory_id for traj in pieces]
        if late:
            continue  # the stage stops at its first error; read on for read errors
        try:
            stage.add(pieces)
        except ShelfScanError as exc:
            late = (lineno, exc)
    return _RangeResult(None if late else stage.finish(), ids, known, None, late)


def map_file(path, stage_type, stage_args, jobs: int | None = None, check=None) -> list:
    """Feed every record of a JSONL trajectory file to stages, one per byte range.

    The file is cut into up to `jobs` byte ranges at newlines (see
    _byte_ranges). One worker per range reads and gap-splits its records
    and passes each record's trajectories, in file order, to its own
    `stage_type(*stage_args)`: `stage.add(trajectories)` builds what the
    caller needs, and `stage.finish()` returns the range's output. With
    one range this happens in process. Returns the outputs in file order.

    The error raised does not depend on `jobs`. It is the read error
    (ParseError, ValidationError, a reused trajectory_id) on the lowest
    line, else what `check` raises when given the set of trajectory ids
    read, else the first error a stage raised, in file order.
    """
    if jobs is None:
        jobs = default_jobs()
    tasks = [(path, start, stop, stage_type, stage_args) for start, stop in _byte_ranges(path, jobs)]
    results = _map(_read_range, tasks, jobs)
    errors, first_line = [], {}
    for trajectory_id, lineno in (pair for r in results for pair in r.ids):
        try:
            claim_id(first_line, trajectory_id, lineno, path)
        except ParseError as exc:
            # first in the list, so it wins a tie: it is checked before its record is split
            errors.append((lineno, exc))
            break
    errors += [r.error for r in results if r.error]
    if errors:
        raise min(errors, key=lambda err: err[0])[1]
    if check is not None:
        check({trajectory_id for r in results for trajectory_id in r.known})
    late = [r.late for r in results if r.late]
    if late:
        raise late[0][1]
    return [r.output for r in results]


class _DetectStage:
    """Builds, store-checks and detects the trajectories of one range, _CHUNK tracks at a time."""

    def __init__(self, layout: StoreLayout, params: StopParams, window: int):
        self.layout, self.params, self.window = layout, params, window
        self.n_tracks, self.events, self.stopped, self.chunk = 0, [], [], []

    def add(self, trajectories):
        tracks = [build_track(traj, self.window) for traj in trajectories]
        for track in tracks:
            check_store(track, self.layout)
        self.chunk += tracks
        self.n_tracks += len(tracks)
        if len(self.chunk) >= _CHUNK:
            self._flush()

    def _flush(self):
        found = _detect_chunk((self.chunk, self.layout, self.params))
        for track, (evs, spans) in zip(self.chunk, found):
            self.events.extend(evs)
            self.stopped.extend((s, track.times[s:e + 1].tolist()) for s, e, _ in spans)
        self.chunk = []

    def finish(self):
        if self.chunk:
            self._flush()
        return self.n_tracks, self.events, self.stopped


def detect_file(path, layout: StoreLayout, params: StopParams, window: int = DEFAULT_WINDOW,
                jobs: int | None = None):
    """Stop events of every trajectory in a JSONL trajectory file.

    map_file's range workers read, gap-split, build and detect the file,
    so the caller parses nothing. Returns (n_tracks, events, stopped): the
    number of trajectories, every stop event in file order, and per event
    the index of its first sample and the times of its samples.

    The result and the error raised do not depend on `jobs`; the error is
    the one read_trajectories, build_track and detect_many would raise in
    turn on the whole file: the read error (ParseError, ValidationError,
    a reused trajectory_id) on the lowest line, else the first later error
    (InvalidWindow, FrameMismatch) in file order.
    """
    outputs = map_file(path, _DetectStage, (layout, params, window), jobs)
    return (sum(n_tracks for n_tracks, _, _ in outputs),
            [ev for _, events, _ in outputs for ev in events],
            [st for _, _, stopped in outputs for st in stopped])
