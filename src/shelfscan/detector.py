"""Shelf stop detection from kinematic tracks.

Per sample, the shopper's body-orientation ray is cast against every shelf
face and obstacle; the nearest hit, if it is an interactive face, names
the candidate shelf and the hit distance. A stop on shelf j is a maximal
run of consecutive samples during which the candidate stays j, the hit
distance stays within delta_b, and the speed stays within v_b, lasting at
least t_b seconds. The detector emits stop events plus the per-timestamp
Boolean matrix downstream metrics count on. Two kernels do the work, here
and in calibration: gaze_stream casts the rays of many samples at once,
and runs applies the stop rule to one track's streams, the duration
condition included. gaze_stream pairs each cast ray with the segments
its cell of a coarse grid can see within the distance cutoff (every
segment without one) and solves those (ray, segment) pairs in flat
chunks of a fixed size. Both callers gaze GAZE_BATCH tracks per gaze_stream
call and cast only the rays of samples slow enough to stop: detection at
most v_b fast, calibration at most the grid's largest v_b. A sample that
is not cast reports no candidate, which the speed condition would reject
anyway.

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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FrameMismatch, ValidationError
from .kinematics import (
    DEFAULT_WINDOW,
    KinematicTrack,
    batches,
    build_track,
    map_file,
    read_records,
    write_records,
)
from .layout import StoreLayout

EPS_LAMBDA = 1e-9
EPS_MEMBER = 1e-9
TIE_TOL = 1e-9
DURATION_TOL = 1e-9

# (ray, segment) pairs per _solve_pairs call; bounds temp memory
_PAIRS = 4096
# tracks per gaze_stream call, in detection and calibration; bounds the arrays a call holds
GAZE_BATCH = 32


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
        # t_s == t_f is a one-sample stop, which a t_b <= DURATION_TOL admits
        if not self.t_s <= self.t_f:
            raise ValidationError(f"stop event ends before it starts: [{self.t_s}, {self.t_f}]")


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


def _solve_pairs(origins, directions, first, counts, indices, pts):
    """Nearest-hit distance and winning segment of rays, from their (ray, segment) pairs.

    Ray i sees the counts[i] > 0 segments indices[first[i]:first[i] + counts[i]],
    ascending; pts is the layout's (n_segments, 2, 2) endpoint array.
    Returns (lam_min, winner) where winner is -1 for rays that hit nothing.
    """
    starts = np.cumsum(counts) - counts
    seg = indices[np.arange(counts.sum()) + np.repeat(first - starts, counts)]
    a = pts[seg, 0]
    qpx, qpy = (a - np.repeat(origins, counts, axis=0)).T
    sx, sy = (pts[seg, 1] - a).T
    dx, dy = np.repeat(directions, counts, axis=0).T
    eps_u = EPS_MEMBER / np.hypot(sx, sy)

    denom = dx * sy - dy * sx
    tnum = qpx * sy - qpy * sx
    unum = qpx * dy - qpy * dx
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = tnum / denom
        u = unum / denom
    valid = (denom != 0.0) & (lam > EPS_LAMBDA) & (u >= -eps_u) & (u <= 1.0 + eps_u)

    # an edge-on segment is hit at its near endpoint, if that lies ahead
    on = np.flatnonzero((denom == 0.0) & (tnum == 0.0))
    near = qpx[on] * dx[on] + qpy[on] * dy[on]
    lam[on] = np.minimum(near, near + (sx[on] * dx[on] + sy[on] * dy[on]))
    valid[on] = lam[on] > EPS_LAMBDA

    lam = np.where(valid, lam, np.inf)
    lam_min = np.minimum.reduceat(lam, starts)
    tied = lam <= np.repeat(lam_min, counts) + TIE_TOL
    winner = seg[np.minimum.reduceat(np.where(tied, np.arange(len(seg)), len(seg)), starts)]
    return lam_min, np.where(np.isfinite(lam_min), winner, -1)


@lru_cache(maxsize=32)
def _segment_cells(layout: StoreLayout, cutoff: float | None):
    """The segments a ray origin can see within `cutoff`, by grid cell: (cell_of, indptr, indices).

    cell_of maps (k, 2) origins to cells; cell c sees the segments
    indices[indptr[c]:indptr[c + 1]], ascending. Each grid cell lists
    every segment whose bounding box, inflated by the cutoff, touches it,
    so an origin inside the cell sees a superset of all segments within
    `cutoff` of it. Origins outside the grid are farther than the cutoff
    from every segment and map to one extra, empty cell. With cutoff=None
    (or inf) every origin maps to one cell that holds every segment.
    """
    pts = layout.segment_points
    if cutoff is None or not np.isfinite(cutoff):
        return (lambda xy: np.zeros(len(xy), dtype=np.intp)), np.array([0, len(pts)]), np.arange(len(pts))
    pad = cutoff + 0.01
    lo = pts.min(axis=(0, 1)) - pad
    hi = pts.max(axis=(0, 1)) + pad
    cell = max(cutoff, 0.5, (hi - lo).max() / 64.0)
    nx, ny = ((hi - lo) / cell).astype(int) + 1
    # each segment's inflated box in cells, [ix0, iy0] to [ix1, iy1]; every box lies inside the grid
    box_lo = ((pts.min(axis=1) - pad - lo) / cell).astype(int)
    box_hi = ((pts.max(axis=1) + pad - lo) / cell).astype(int)
    cx, cy = np.arange(nx)[:, None], np.arange(ny)[:, None]
    in_x = (box_lo[:, 0] <= cx) & (cx <= box_hi[:, 0])
    in_y = (box_lo[:, 1] <= cy) & (cy <= box_hi[:, 1])
    # cell iy * nx + ix, cell by cell with segments ascending; cell nx * ny is the empty one
    cells, indices = np.nonzero((in_y[:, None, :] & in_x[None, :, :]).reshape(nx * ny, -1))

    def cell_of(xy):
        ix, iy = (np.floor((xy[:, k] - lo[k]) / cell).astype(np.int64) for k in (0, 1))
        inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        return np.where(inside, iy * nx + ix, nx * ny)

    return cell_of, np.searchsorted(cells, np.arange(nx * ny + 2)), indices


def gaze_stream(positions, normals, layout: StoreLayout, cutoff: float | None = None,
                cast=None):
    """Candidate shelf and hit distance for every sample of a track.

    Returns (candidates, lams): candidates holds 0-based shelf indices
    with -1 where there is no candidate; lams holds the nearest-hit
    distance (inf where nothing was hit).

    `cast`, a per-sample Boolean mask, names the rays to cast, every ray
    when None; a sample outside it reports -1 and inf, as a sample with no
    segment within the cutoff does.

    Each cast ray is paired with the segments its grid cell sees
    (_segment_cells) and solved _PAIRS pairs at a time. With a finite
    `cutoff`, rays whose nearest hit would be farther than the cutoff
    report no candidate; callers that only ever compare the distance
    against thresholds <= cutoff get identical downstream results at a
    fraction of the cost. With cutoff=None (or inf), every ray is paired
    with every segment.
    """
    positions = np.asarray(positions, dtype=float)
    normals = np.asarray(normals, dtype=float)
    n = len(positions)
    lam_out = np.full(n, np.inf)
    win_out = np.full(n, -1, dtype=np.intp)

    cell_of, indptr, indices = _segment_cells(layout, cutoff)
    rays = np.arange(n) if cast is None else np.flatnonzero(cast)
    cells = cell_of(positions[rays])
    counts = indptr[cells + 1] - indptr[cells]
    seen = counts > 0
    rays, first, counts = rays[seen], indptr[cells][seen], counts[seen]
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(rays):
        # the most rays whose pairs fit in _PAIRS, or one ray with more
        hi = max(int(np.searchsorted(ends, ends[lo] - counts[lo] + _PAIRS, side="right")), lo + 1)
        part = rays[lo:hi]
        lam_out[part], win_out[part] = _solve_pairs(
            positions[part], normals[part], first[lo:hi], counts[lo:hi], indices, layout.segment_points)
        lo = hi
    if cutoff is not None:
        beyond = lam_out > cutoff
        lam_out[beyond] = np.inf
        win_out[beyond] = -1

    candidates = np.where((win_out >= 0) & (win_out < layout.n_shelves), win_out, -1).astype(np.int32)
    return candidates, lam_out


def runs(times, candidates, lams, speeds, params: StopParams):
    """The stop rule on one track's streams: maximal runs of consecutive samples
    with one candidate (-1 is none), lams <= delta_b and speeds <= v_b, lasting t_b.

    Returns (starts, ends, shelf0) arrays: each stop's first and last
    sample (inclusive) and its 0-based shelf.
    """
    key = np.where((lams <= params.delta_b) & (speeds <= params.v_b), candidates, -1)
    # the key changes at every run boundary; the -2 pads (no key is -2) add both ends
    edges = np.flatnonzero(np.diff(key, prepend=-2, append=-2))
    starts, ends = edges[:-1], edges[1:] - 1
    keep = (key[starts] >= 0) & (times[ends] - times[starts] + DURATION_TOL >= params.t_b)
    return starts[keep], ends[keep], key[starts[keep]]


def check_store(track, layout: StoreLayout):
    """Return the track, or raise FrameMismatch unless it was recorded in the layout's store."""
    if track.store_id != layout.store_id:
        raise FrameMismatch(
            f"track belongs to store {track.store_id!r}, layout to {layout.store_id!r}"
        )
    return track


def stack_tracks(tracks, v_max: float):
    """The tracks' gaze_stream inputs end to end, and the indices that split them back.

    The inputs are positions, normals and the cast mask of the samples at most v_max fast.
    """
    positions = np.concatenate([t.positions for t in tracks])
    normals = np.concatenate([t.normals for t in tracks])
    cast = np.concatenate([t.speeds for t in tracks]) <= v_max
    return positions, normals, cast, np.cumsum([len(t) for t in tracks])[:-1]


def detect_stops(track: KinematicTrack, layout: StoreLayout, params: StopParams):
    """Find all shelf stops in one track.

    Returns (events, matrix): the chronological StopEvents and the
    (n_shelves, n_samples) Boolean StopMatrix marking every sample of
    every qualifying run.
    """
    [(_, events, spans)] = _detect_batches([check_store(track, layout)], layout, params)
    values = np.zeros((layout.n_shelves, len(track)), dtype=bool)
    for (s, e, shelf0) in spans:
        values[shelf0, s:e + 1] = True
    return events, StopMatrix(trajectory_id=track.trajectory_id, times=track.times, values=values)


def _detect_batches(tracks, layout: StoreLayout, params: StopParams):
    """Yield (track, events, spans) per track, one gaze_stream call per GAZE_BATCH tracks taken.

    Only the samples at most v_b fast are cast: runs rejects every other
    sample, so no run loses one. spans lists each event's first and last
    sample and 0-based shelf. Callers check stores.
    """
    for batch in batches(tracks, GAZE_BATCH):
        positions, normals, cast, cuts = stack_tracks(batch, params.v_b)
        candidates, lams = gaze_stream(positions, normals, layout, cutoff=params.delta_b, cast=cast)
        del positions, normals, cast
        for track, cand, lam in zip(batch, np.split(candidates, cuts), np.split(lams, cuts)):
            times = track.times
            starts, ends, shelves = runs(times, cand, lam, track.speeds, params)
            spans = list(zip(starts.tolist(), ends.tolist(), shelves.tolist()))
            yield track, [StopEvent(track.trajectory_id, shelf0 + 1, t_s=float(times[s]),
                                    t_f=float(times[e]), duration=float(times[e] - times[s]),
                                    min_lambda=float(lam[s:e + 1].min()),
                                    mean_speed=float(track.speeds[s:e + 1].mean()))
                          for s, e, shelf0 in spans], spans
        del batch, track, cand, lam, candidates, lams  # hold nothing of it as batches takes the next


def write_stop_events(events, path) -> None:
    """Write stop events as JSONL, one record per event (kinematics.write_records)."""
    write_records(events, path)


def read_stop_events(path) -> list[StopEvent]:
    """Read stop events from a JSONL file, as write_stop_events writes them.

    kinematics.read_records reads them: a malformed line, or a shelf_id that
    is not a JSON integer, raises ParseError naming the file and line.
    """
    return read_records(path, StopEvent, "stop event")


def detect_many(tracks, layout: StoreLayout, params: StopParams):
    """Detect stops on many tracks, one gaze_stream call per GAZE_BATCH tracks.

    Returns one event list per input track, in input order. Every track is
    store-checked before any is detected.
    """
    tracks = [check_store(track, layout) for track in tracks]
    return [events for _, events, _ in _detect_batches(tracks, layout, params)]


def _detect_range(trajectories, layout: StoreLayout, params: StopParams, window: int):
    """detect_file's stage: (events, stopped) per trajectory of one range.

    Each trajectory is built and store-checked as _detect_batches takes it,
    so the error raised is the one of the first trajectory that fails.
    """
    tracks = (check_store(build_track(traj, window), layout) for traj in trajectories)
    return [(events, [(s, track.times[s:e + 1].tolist()) for s, e, _ in spans])
            for track, events, spans in _detect_batches(tracks, layout, params)]


def detect_file(path, layout: StoreLayout, params: StopParams, window: int = DEFAULT_WINDOW,
                jobs: int | None = None):
    """Stop events of every trajectory in a JSONL trajectory file.

    kinematics.map_file's range workers read, gap-split, build and detect
    the file, so the caller parses nothing. Returns (n_tracks, events,
    stopped): the number of trajectories, every stop event in file order,
    and per event the index of its first sample and the times of its
    samples.

    The result and the error raised do not depend on `jobs`; the error is
    the one read_trajectories, build_track and detect_many would raise in
    turn on the whole file: the read error (ParseError, ValidationError,
    a reused trajectory_id) on the lowest line, else the first later error
    (InvalidWindow, FrameMismatch) in file order.
    """
    found = map_file(path, _detect_range, (layout, params, window), jobs)
    return (len(found), [ev for events, _ in found for ev in events],
            [st for _, stopped in found for st in stopped])
