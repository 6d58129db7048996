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
import os
import pickle
import struct
from dataclasses import dataclass, fields
from itertools import chain
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import InvalidWindow, ParseError, ShelfScanError, TooShort, ValidationError

DT = 0.1  # tracking time step, seconds
DT_TOL = 1e-6
GAP_FACTOR = 1.5  # gaps longer than GAP_FACTOR * DT split a record
DEFAULT_WINDOW = 5
_BLOCK = 1 << 20  # bytes a reader's buffer holds: a record line is about 65 kB
# samples a batch holds at most, unless one item alone holds more (batches): bounds the arrays
# of a range's read, of a gaze_stream call in detection and calibration, and of a synth child
BATCH_SAMPLES = 1 << 15


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
        uneven = np.flatnonzero(np.abs(np.diff(self.times) - DT) > DT_TOL)
        if uneven.size:
            raise _uneven_step(self.times, uneven[0], self.trajectory_id)

    def __len__(self):
        return len(self.times)


def _uneven_step(times, k, trajectory_id: str) -> ValidationError:
    """The error of a trajectory whose step from times[k] to times[k + 1] strays more than DT_TOL from DT."""
    return ValidationError(f"non-uniform time step {times[k + 1] - times[k]:.6f}s at t={times[k + 1]}",
                           element=trajectory_id)


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


def check_window(window: int) -> int:
    """Return `window`, or raise InvalidWindow unless it is a positive odd sample count."""
    if window < 1 or window % 2 == 0:
        raise InvalidWindow(f"window must be a positive odd sample count, got {window}")
    return window


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
    check_window(window)
    if window > n:
        raise InvalidWindow(f"window {window} exceeds sample count {n}")
    return _smooth(positions, np.array([0, n]), window)


def _smooth(positions, bounds, window: int) -> np.ndarray:
    """low_pass_positions of each piece bounds[i]:bounds[i + 1], over fit_window(window, its length).

    Each piece has its own prefix sums, so every value rounds as it would
    in the piece alone. A sample whose window lies inside its piece takes
    one slice difference over the whole array; the rest (each piece's
    clipped ends, and every sample of a piece narrower than `window`) are
    indexed.
    """
    if window == 1:
        return positions.copy()
    n, half = len(positions), window // 2
    cum = np.empty((n, 2))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        np.cumsum(positions[lo:hi], axis=0, out=cum[lo:hi])
    out = np.empty((n, 2))
    if n >= window:
        out[half + 1:n - half] = (cum[window:] - cum[:n - window]) / window
    first, size = bounds[:-1], np.diff(bounds)
    fit = np.minimum(window, size)
    fit = np.maximum(fit - (fit % 2 == 0), 1)  # fit_window of each piece
    full = fit == window
    # the samples the slice got wrong: a piece's first half + 1 and last half, or all of a narrowed one
    head, tail = np.where(full, half + 1, size), np.where(full, half, 0)
    piece = np.repeat(np.tile(np.arange(len(size)), 2), np.concatenate([head, tail]))
    at = _ranges(np.concatenate([first, first + size - tail]), np.concatenate([head, tail]))
    base, reach, length = first[piece], fit[piece] // 2, size[piece]
    lo = np.maximum(at - base - reach, 0)
    hi = np.minimum(at - base + reach + 1, length)
    # cum at base + hi - 1 less cum at base + lo - 1, the empty prefix being 0
    below = np.where((lo > 0)[:, None], cum[base + np.maximum(lo - 1, 0)], 0.0)
    out[at] = (cum[base + hi - 1] - below) / (hi - lo)[:, None]
    return out


def _ranges(starts, lengths) -> np.ndarray:
    """The integers of every [starts[i], starts[i] + lengths[i]), range after range."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def _speeds(positions: np.ndarray, times: np.ndarray, bounds) -> np.ndarray:
    """Each piece's speeds: central differences inside, one-sided at its two ends."""
    v = np.empty(len(positions))
    with np.errstate(divide="ignore", invalid="ignore"):  # across two pieces: a value set below
        v[1:-1] = np.hypot(
            positions[2:, 0] - positions[:-2, 0], positions[2:, 1] - positions[:-2, 1]
        ) / (times[2:] - times[:-2])
    first, last = bounds[:-1], bounds[1:] - 1
    for at, lo, hi in ((first, first, first + 1), (last, last - 1, last)):
        moved = positions[hi] - positions[lo]
        # math.hypot, not np.hypot: the two round some pairs differently
        v[at] = np.array([math.hypot(dx, dy) for dx, dy in moved.tolist()]) / (times[hi] - times[lo])
    return v


@dataclass(frozen=True, eq=False)
class Pieces:
    """Gap-split trajectories of consecutive records end to end, as split_records returns them.

    Piece i is rows bounds[i]:bounds[i + 1] of times, positions (raw) and
    thetas (in (-pi, pi]); ids, store_ids and lines (its record's line in
    the file, 0 outside one) hold one entry per piece.
    """

    ids: list
    store_ids: list
    lines: list
    bounds: np.ndarray       # (k + 1,) int
    times: np.ndarray        # (n,) seconds
    positions: np.ndarray    # (n, 2) raw, meters
    thetas: np.ndarray       # (n,) radians

    def trajectories(self) -> list[Trajectory]:
        """Each piece as a Trajectory."""
        return [Trajectory(self.ids[i], self.store_ids[i], *(a[lo:hi] for a in (
                    self.times, self.positions, self.thetas)))
                for i, (lo, hi) in enumerate(zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist()))]

    @classmethod
    def join(cls, trajectories) -> "Pieces":
        """A non-empty list of Trajectories end to end, each outside a record (line 0)."""
        return cls([t.trajectory_id for t in trajectories], [t.store_id for t in trajectories],
                   [0] * len(trajectories), np.concatenate([[0], np.cumsum([len(t) for t in trajectories])]),
                   *(np.concatenate([getattr(t, name) for t in trajectories])
                     for name in ("times", "positions", "thetas")))


@dataclass(frozen=True, eq=False)
class TrackBatch:
    """Kinematic streams of consecutive tracks end to end, which the detector and calibration gaze at once.

    Track i is samples bounds[i]:bounds[i + 1]; ids and store_ids hold
    one entry per track.
    """

    ids: list
    store_ids: list
    bounds: np.ndarray       # (k + 1,) int
    times: np.ndarray        # (n,) seconds
    positions: np.ndarray    # (n, 2) smoothed, meters
    normals: np.ndarray      # (n, 2) unit heading vectors
    speeds: np.ndarray       # (n,) m/s

    def __len__(self):
        return len(self.ids)

    def track(self, i: int) -> KinematicTrack:
        """Track i, its arrays views of the batch's."""
        lo, hi = self.bounds[i], self.bounds[i + 1]
        return KinematicTrack(self.ids[i], self.store_ids[i], self.times[lo:hi],
                              self.positions[lo:hi], self.normals[lo:hi], self.speeds[lo:hi])

    @classmethod
    def join(cls, tracks) -> "TrackBatch":
        """A non-empty list of KinematicTracks end to end."""
        return cls([t.trajectory_id for t in tracks], [t.store_id for t in tracks],
                   np.concatenate([[0], np.cumsum([len(t) for t in tracks])]),
                   *(np.concatenate([getattr(t, name) for t in tracks])
                     for name in ("times", "positions", "normals", "speeds")))


def build_tracks(pieces: Pieces, window: int = DEFAULT_WINDOW) -> TrackBatch:
    """The kinematic streams of every piece, each stream derived in one pass over all of them.

    A piece shorter than `window` is smoothed over fit_window(window, its
    length) samples, as build_track smooths a trajectory; an even or
    non-positive window raises InvalidWindow.
    """
    positions = _smooth(pieces.positions, pieces.bounds, check_window(window))
    return TrackBatch(pieces.ids, pieces.store_ids, pieces.bounds, pieces.times, positions,
                      np.column_stack([np.cos(pieces.thetas), np.sin(pieces.thetas)]),
                      _speeds(positions, pieces.times, pieces.bounds))


def build_track(traj: Trajectory, window: int = DEFAULT_WINDOW) -> KinematicTrack:
    """Derive the kinematic streams used by the stop detector: build_tracks of one piece.

    A trajectory shorter than `window` is smoothed over fit_window(window,
    len(traj)) samples, so every trajectory a reader returns can be built;
    an even or non-positive window raises InvalidWindow.
    """
    return build_tracks(Pieces.join([traj]), window).track(0)


def split_records(records):
    """Gap-split records, each (trajectory_id, store_id, (n, 4) [t, x, y, theta] rows, line), at once.

    Returns (pieces, error). Rows holding a non-finite value are dropped
    first, so they split a record like a dropout, and a record whose rows
    are out of order is sorted stably on t. Any time gap exceeding
    GAP_FACTOR * DT starts a new piece; the pieces of a record that split
    get a "~<i>" id suffix, i counting every piece, and pieces shorter than
    3 samples are dropped. A piece with a time step more than DT_TOL from DT
    fails as Trajectory would fail it: error is (line, ValidationError) of
    the first such record, and pieces holds only the records before it.
    Otherwise error is None.
    """
    rows = np.concatenate([np.empty((0, 4)), *(rec[2] for rec in records)])
    record = np.repeat(np.arange(len(records)), [len(rec[2]) for rec in records])
    if not np.isfinite(rows).all():
        finite = np.isfinite(rows).all(axis=1)
        rows, record = rows[finite], record[finite]
    same = record[1:] == record[:-1]
    times = rows[:, 0].copy()
    down = np.flatnonzero(times[1:] < times[:-1])
    down = down[same[down]]
    if down.size:
        for r in np.unique(record[down]).tolist():
            lo, hi = np.searchsorted(record, [r, r + 1])
            rows[lo:hi] = rows[lo:hi][np.argsort(rows[lo:hi, 0], kind="stable")]
        times = rows[:, 0].copy()
    steps = np.diff(times)
    start = np.ones(len(rows), dtype=bool)
    start[1:] = ~same | (steps > GAP_FACTOR * DT)
    first = np.flatnonzero(start)
    size = np.diff(first, append=len(rows))
    owner = record[first]
    index = np.arange(len(first)) - np.searchsorted(owner, owner)  # among its record's pieces
    split = np.bincount(owner, minlength=len(records)) > 1
    kept = size >= 3

    def name(p):
        trajectory_id = records[owner[p]][0]
        return f"{trajectory_id}~{index[p]}" if split[owner[p]] else trajectory_id

    error = None
    uneven = np.flatnonzero(np.abs(steps - DT) > DT_TOL)
    uneven = uneven[~start[1:][uneven]]  # steps inside a piece
    piece = np.searchsorted(first, uneven, side="right") - 1
    uneven, piece = uneven[kept[piece]], piece[kept[piece]]
    if uneven.size:
        p = piece[0]
        error = records[owner[p]][3], _uneven_step(times, uneven[0], name(p))
        kept &= owner < owner[p]
    if not kept.all():
        rows, times = rows[np.repeat(kept, size)], times[np.repeat(kept, size)]
    owners = owner[kept].tolist()
    pieces = Pieces([name(p) for p in np.flatnonzero(kept).tolist()],
                    [records[r][1] for r in owners], [records[r][3] for r in owners],
                    np.concatenate([[0], np.cumsum(size[kept])]), times, rows[:, 1:3],
                    wrap_angle(rows[:, 3]))
    return pieces, error


def split_on_gaps(trajectory_id: str, store_id: str, rows) -> list[Trajectory]:
    """Split a record's [t, x, y, theta] rows at tracking dropouts: split_records of one record.

    Rows holding a non-finite value are dropped first, so they split the
    record like a dropout. Rows are then sorted on t, and any time gap
    exceeding GAP_FACTOR * DT starts a new trajectory; pieces get a "~<i>"
    id suffix (only when splitting actually occurred) and pieces shorter
    than 3 samples are dropped.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    pieces, error = split_records([(trajectory_id, store_id, rows, 0)])
    if error:
        raise error[1]
    return pieces.trajectories()


def _sample_rows(samples, where: str, strict: bool) -> np.ndarray:
    """A record's samples as an (n, 4) float array; each must be a list of four JSON numbers.

    np.array would read true as 1 next to floats, so `strict` (set when the
    line may hold a JSON boolean) has _checked_rows check every value by type.
    """
    if not isinstance(samples, list):
        raise ParseError(f"{where}: samples must be a list, got {type(samples).__name__}")
    try:
        rows = np.array(samples)
        fast = not strict and rows.dtype.kind in "iuf" and rows.shape[1:] == (4,)
    except ValueError:  # ragged rows
        fast = False
    if not fast:
        rows = _checked_rows(samples, where)
    return rows.astype(float, copy=False)


def _checked_rows(samples: list, where: str) -> np.ndarray:
    """_sample_rows' per-value path: each sample checked to be a list of four JSON numbers."""
    for k, row in enumerate(samples):
        if type(row) is not list or len(row) != 4 or any(type(v) not in (int, float) for v in row):
            raise ParseError(f"{where}: sample {k} is not a list of four numbers: {row!r:.80}")
    return np.array(samples, dtype=float).reshape(-1, 4)


def read_lines(path, start: int = 0, stop: int | None = None):
    """Yield (lineno, line) for every non-blank line in bytes [start, stop) of a file.

    start and stop must each sit at 0, just after a newline or at the end of
    the file. Line numbers count from the file's first line, so the bytes
    before start are read to count their newlines. Lines are bytes, stripped
    of surrounding whitespace.
    """
    with open(path, "rb", buffering=_BLOCK) as fh:
        lineno = 0
        while fh.tell() < start:
            block = fh.read(min(start - fh.tell(), _BLOCK))
            if not block:
                break
            lineno += block.count(b"\n")
        left = math.inf if stop is None else stop - start
        for line in fh:
            if left <= 0:
                break
            left -= len(line)
            lineno += 1
            line = line.strip()
            if line:
                yield lineno, line


def json_int(value, name: str) -> int:
    """`value`, which must be a JSON integer: TypeError naming it `name` for a bool, float, string or other."""
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    return value


def read_records(path, cls, what: str) -> list:
    """Read a JSONL file of `cls` records, one per line, as write_records writes them.

    `cls` is a dataclass whose fields are each annotated str, int or float;
    any other annotation raises TypeError before the file is read. A field
    is read from the key of its name: a str or float value is converted by
    str() or float(), and an int must be a JSON integer (json_int). A line
    that is not UTF-8 JSON, lacks a field or holds a value that does not
    convert raises ParseError naming the file, the line and `what`, as does
    a line nested deeper than json can decode. An error that cls itself
    raises, such as ValidationError, passes unchanged.
    """
    types = get_type_hints(cls)
    columns = [(f.name, types[f.name]) for f in fields(cls)]
    for name, kind in columns:
        if kind not in (str, int, float):
            raise TypeError(f"{cls.__name__}.{name} is a {kind}, not a str, int or float")
    out = []
    for lineno, line in read_lines(path):
        try:
            rec = json.loads(line)
            values = [json_int(rec[name], name) if kind is int else kind(rec[name]) for name, kind in columns]
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ParseError(f"{path}:{lineno}: bad {what}: {exc!r}") from exc
        out.append(cls(*values))
    return out


def record_line(rec) -> str:
    """One flat dataclass record as a JSONL line, its keys in field order, its newline included.

    A dataclass instance holds its fields in field order, so vars(rec) is the object.
    """
    return json.dumps(vars(rec)) + "\n"


def write_records(records, path) -> None:
    """Write flat dataclass records as JSONL, one record_line each, in order."""
    with open(path, "w") as fh:
        fh.writelines(map(record_line, records))


def read_document(path, what: str) -> dict:
    """The JSON object of a side file: a layout, label manifest, scenario, ground truth or config.

    json.loads decodes its bytes, as read_records decodes each line: UTF-8,
    UTF-16 or UTF-32, with or without a BOM. An OSError passes unchanged; any
    other fault, a value that is not an object too, is ParseError("cannot
    parse {what} {path}: ...") raised from the error that says what is wrong.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
        if type(doc) is not dict:
            raise TypeError(f"must be a JSON object, got a {type(doc).__name__}")
    except (ValueError, TypeError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ParseError(f"cannot parse {what} {path}: {exc}") from exc
    return doc


def write_document(doc: dict, path) -> None:
    """Write a JSON document as read_document reads it: indented, keys sorted, one final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_record(line: bytes, where: str):
    """(trajectory_id, store_id, (n, 4) sample rows) of one JSONL trajectory record.

    Record shape: {"trajectory_id", "store_id", "samples": [[t, x, y, theta], ...]}.
    A malformed record or sample row, or one nested deeper than json can
    decode, raises ParseError; `where` ("path:line") prefixes its message.

    A record whose samples are rows of four plain numbers, as every
    trajectory_record line's are, takes one fast path (_plain_record),
    wherever its samples key sits. Let a be the index of the line's first
    '[' and e the index just past its last ']]'. A line takes it only if
    all of these hold:
    - no '[' and exactly one '{' lie outside line[a:e];
    - line[a:e] less its digits, '.-+eE' and whitespace is
      '[' + '[,,,],' * (n - 1) + '[,,,]]' for some n >= 1;
    - orjson decodes the line as an object whose trajectory_id and
      store_id are strings and whose samples is a list.
    No '"' is in line[a:e], so it lies wholly inside a string or wholly
    outside: outside, it is the one list of the line, a list of n rows of
    four numbers if it is JSON at all, so the samples can only be a list
    if they are these rows. Both decoders keep a duplicate key's last
    value. json decodes every other line, each malformed record among
    them, and json's outcome is the one both paths give.
    """
    record = _plain_record(line)
    if record is not None:
        return record
    try:
        rec = json.loads(line)
        trajectory_id, store_id = str(rec["trajectory_id"]), str(rec["store_id"])
        rows = _sample_rows(rec["samples"], where, b"true" in line or b"false" in line)
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, OverflowError,
            RecursionError) as exc:
        raise ParseError(f"{where}: bad trajectory record: {exc!r}") from exc
    return trajectory_id, store_id, rows


_NUMBER_BYTES = b"0123456789.-+eE \t\n\r"  # what a row of plain numbers holds besides '[', ',' and ']'


def _plain_record(line: bytes):
    """parse_record's result for a line that passes its three checks, else None.

    The skeleton fixes the order of the brackets and commas but not which
    side of a bracket a number sits on ('[1[,2,3,4]]' has the skeleton of
    '[[1,2,3,4]]'); orjson refuses such a line, as it refuses what JSON
    does not allow ('01', '+1', '.5', '1.', a number beyond the double
    range), which json reads its own way. With every '[' in line[a:e] and
    one '{', orjson is never given more than three levels of nesting. A
    number orjson reads rounds to the double that float() gives it, as
    np.array rounds json's. struct packs the values into one float array,
    converting each as float() does: no dtype is discovered.
    """
    a = line.find(b"[")
    e = line.rfind(b"]]") + 2
    if a < 0 or e <= a or line.find(b"[", e) >= 0 or line.count(b"{", 0, a) + line.count(b"{", e) != 1:
        return None
    skeleton = line[a:e].translate(None, _NUMBER_BYTES)
    n = (len(skeleton) - 1) // 6
    if n < 1 or skeleton != b"[" + b"[,,,]," * (n - 1) + b"[,,,]]":
        return None
    import orjson  # here, not at the top: only a process that reads a trajectory loads it

    try:
        rec = orjson.loads(line)
    except orjson.JSONDecodeError:
        return None
    if type(rec) is not dict:
        return None
    trajectory_id, store_id, samples = rec.get("trajectory_id"), rec.get("store_id"), rec.get("samples")
    if type(trajectory_id) is not str or type(store_id) is not str or type(samples) is not list:
        return None
    rows = np.empty((n, 4))
    struct.pack_into(f"{4 * n}d", rows, 0, *chain.from_iterable(samples))
    return trajectory_id, store_id, rows


def default_jobs() -> int:
    """SHELFSCAN_JOBS if set, else the number of CPUs this process may run on."""
    env = os.environ.get("SHELFSCAN_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"SHELFSCAN_JOBS must be an integer, got {env!r}") from None
        if jobs < 1:
            raise ValueError(f"SHELFSCAN_JOBS must be at least 1, got {jobs}")
        return jobs
    return len(allowed_cpus())


def allowed_cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order.

    On Linux that is its affinity set, which a taskset or cgroup cpuset can
    narrow; elsewhere, every CPU the machine has.
    """
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def batches(items, samples):
    """Lists of consecutive items, taken as they come, each of BATCH_SAMPLES samples(item) at most.

    A batch closes before the item that would take it past the budget, so
    that item is taken first; an item over the budget is a batch of its own.
    """
    batch, total = [], 0
    for item in items:
        n = samples(item)
        if batch and total + n > BATCH_SAMPLES:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += n
    if batch:
        yield batch


# bytes per range at least: a file under twice this is read in one range, in process
_MIN_RANGE = 1 << 20


def range_count(n_bytes: int, jobs: int) -> int:
    """Workers for n_bytes of trajectory JSONL: `jobs`, but at most one per _MIN_RANGE bytes, at least one.

    Two ranges pay from 2 MiB: on a 2-vCPU host, `calibrate` took about 10 %
    less wall time in two ranges than in one on a 2.1 MB store and 17 % less
    on 3.0 MB, but on 1.0 MB it saved 5 % for 10 % more CPU time.
    """
    return min(jobs, max(n_bytes // _MIN_RANGE, 1))


def fork_map(fn, tasks, workers: int):
    """Yield fn(*task) for each task of an iterable, in task order.

    Each task runs in a child forked for it, at most `workers` at a time,
    or in this process, one task per result taken, when `workers` is 1 or
    less. A child inherits fn and its task, so neither is pickled; it
    sends back its result, or its error, pickled through a pipe, and leaves
    through os._exit, so no frame of this process unwinds in it (a file
    this process holds open is not flushed twice). Tasks are taken from
    the iterable as children start, and a child's pipe is read as it
    writes, so one that finishes frees its slot at once. Each running
    child holds the lowest slot free when it was forked, and starts on
    the CPU of that slot among allowed_cpus() (_start_on). The first task
    that raises, in task order, raises its error here; a child that ends
    without sending its whole result raises ChildProcessError. Once the
    generator ends, by any path, no child is left running.
    """
    if workers <= 1:
        for task in tasks:
            yield fn(*task)
        return
    import selectors  # only a command that forks pays for these imports
    import signal

    cpus = allowed_cpus()
    tasks, running, done, index = enumerate(tasks), {}, {}, 0  # running: fd -> (task index, pid, slot, bytes)
    selector = selectors.DefaultSelector()
    try:
        while True:
            while len(running) < workers and (item := next(tasks, None)) is not None:
                task_index, task = item
                taken = {child[2] for child in running.values()}
                slot = min(set(range(workers)) - taken)  # the lowest free slot
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:  # the child
                    code = 1
                    try:
                        _start_on(cpus[slot % len(cpus)], cpus)
                        try:
                            data = pickle.dumps((True, fn(*task)), pickle.HIGHEST_PROTOCOL)
                        except BaseException as exc:  # sent, and raised in the parent
                            data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                        with open(write_fd, "wb") as pipe:
                            pipe.write(data)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write_fd)  # so the pipe ends when the child does
                running[read_fd] = task_index, pid, slot, bytearray()
                selector.register(read_fd, selectors.EVENT_READ)
            if index in done:
                status, data = done.pop(index)
                if status != 0:
                    raise ChildProcessError(
                        f"fork_map task {index} ended without its result (wait status {status})")
                ok, value = pickle.loads(data)
                del data  # the result's bytes are freed before the caller takes the result
                if not ok:
                    raise value
                yield value
                index += 1
            elif not running:
                return
            else:
                for key, _ in selector.select():
                    task_index, pid, _, data = running[key.fd]
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        data += chunk
                        continue
                    selector.unregister(key.fd)
                    os.close(key.fd)
                    del running[key.fd]
                    done[task_index] = os.waitpid(pid, 0)[1], data
    finally:
        for fd, (_, pid, _, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        selector.close()


def _start_on(cpu: int, cpus) -> None:
    """Move this process onto `cpu`, then let it run on any of `cpus` again.

    A child forked on a 2-vCPU host was seen to start on its parent's CPU
    and to wait there hundreds of milliseconds before the scheduler moved
    it; pinning moves it at once, and the process is not left pinned.
    Where affinity cannot be set, the process stays where it is.
    """
    try:
        os.sched_setaffinity(0, (cpu,))
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no sched_setaffinity on this platform, or a refused CPU
        pass


class _RangeResult(NamedTuple):
    output: list            # what the range's stage returned
    ids: list               # (trajectory_id, line) of every record parsed
    known: list             # (trajectory_id, line) of every trajectory gap-split from those records
    error: tuple | None     # (line, exc): the first read error, where reading stopped
    late: Exception | None  # the stage's error; the range only read on past it


def _byte_ranges(path, jobs: int):
    """Up to `jobs` non-empty (start, stop) byte ranges that cover a file, cut just after newlines.

    A range is cut per _MIN_RANGE bytes at most, so a file under twice
    _MIN_RANGE (2 MiB) is one range.
    """
    size = os.path.getsize(path)
    n = range_count(size, jobs)
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


def _read_range(path, start: int, stop: int, stage, stage_args):
    """Run a stage on the records of one byte range, read a batch at a time as it takes them.

    The stage is called as stage(read, *stage_args), and read(window)
    yields the range's records in batches, parsed and gap-split by
    split_records into one Pieces batch each, in file order, or with a
    window the TrackBatch that build_tracks makes of each, the Pieces
    dropped. A read error ends the reading: the records before it register
    their ids, and its own record its trajectory_id. Past a stage error,
    the range is read on for read errors.
    """
    lines = read_lines(path, start, stop)
    ids, known, errors = [], [], []

    def parsed():
        for lineno, line in lines:  # each line is dropped once parsed
            try:
                yield (*parse_record(line, f"{path}:{lineno}"), lineno)
            except ShelfScanError as exc:
                errors.append((lineno, exc))
                return

    cut = batches(parsed(), lambda rec: len(rec[2]))

    def read(window=None):
        while not errors and (records := next(cut, None)):
            pieces, error = split_records(records)
            if error:  # on a line before any that failed to parse, the record read past the batch too
                errors[:] = [error]
                records = [rec for rec in records if rec[3] <= error[0]]
            ids.extend((rec[0], rec[3]) for rec in records)
            known.extend(zip(pieces.ids, pieces.lines))
            records.clear()  # batches holds this list until it takes the next batch
            if errors:  # the look-ahead record failed to parse, or this batch to split
                return
            batch = pieces if window is None else build_tracks(pieces, window)
            del pieces
            yield batch
            del batch  # before the next batch is parsed

    try:
        output, late = stage(read, *stage_args), None
    except ShelfScanError as exc:
        output, late = None, exc
    for _ in read():  # after a stage error, read on for read errors
        pass
    return _RangeResult(output, ids, known, errors[0] if errors else None, late)


def map_file(path, stage, stage_args, jobs: int | None = None, check=None) -> list:
    """Run `stage(read, *stage_args)` on each byte range of a JSONL trajectory file.

    The file is cut into up to `jobs` ranges at newlines (_byte_ranges),
    each read by a child that fork_map forks for it, or in process if
    there is one. A range's stage output comes back pickled, so a stage
    returns picklable items; the stage itself is inherited, not pickled.
    read(window) yields a range's records in file order, a batch at a time
    as the stage takes them, each gap-split into one Pieces, or, given a
    window, built into one TrackBatch (_read_range). The stage returns a
    list. Returns the lists joined in file order.

    Callers check the stage's arguments first, so every error raised here
    comes from the file, and none depends on `jobs`. It is the read error
    (ParseError, ValidationError, a trajectory_id that an earlier record
    used, a gap-split piece id that another record's trajectory has) on
    the lowest line, else what `check` raises when given the set of
    trajectory ids read, else the first error a stage raised, in file order.
    """
    if jobs is None:
        jobs = default_jobs()
    tasks = [(path, start, stop, stage, stage_args) for start, stop in _byte_ranges(path, jobs)]
    results = list(fork_map(_read_range, tasks, len(tasks)))  # an empty file has no range
    errors = []
    # a reused record id first, so it wins a tie: it is checked before its record is split
    for what, pairs in (("trajectory_id", [pair for r in results for pair in r.ids]),
                        ("gap-split trajectory id", [pair for r in results for pair in r.known])):
        first_line = {}
        for trajectory_id, lineno in pairs:
            first = first_line.setdefault(trajectory_id, lineno)
            if first != lineno:
                errors.append((lineno, ParseError(
                    f"{path}:{lineno}: {what} {trajectory_id!r} already used on line {first}")))
                break
    errors += [r.error for r in results if r.error]
    if errors:
        raise min(errors, key=lambda err: err[0])[1]
    if check is not None:
        check({trajectory_id for r in results for trajectory_id, _ in r.known})
    late = [r.late for r in results if r.late]
    if late:
        raise late[0]
    return [item for r in results for item in r.output]


def read_trajectories(path) -> list[Trajectory]:
    """Read trajectories from a JSONL file, one trip per line (see parse_record).

    A malformed record or sample row, or a trajectory_id that an earlier
    record used, raises ParseError. Records are gap-split (non-finite rows
    count as dropouts); sub-minimum fragments are silently discarded.
    """
    return map_file(path, _trajectories, (), jobs=1)


def _trajectories(read) -> list[Trajectory]:
    """read_trajectories' map_file stage: every gap-split trajectory of a range, in file order."""
    return [traj for pieces in read() for traj in pieces.trajectories()]


def trajectory_record(traj: Trajectory) -> str:
    """One trajectory as the JSONL line parse_record reads, its newline included."""
    rec = {
        "trajectory_id": traj.trajectory_id,
        "store_id": traj.store_id,
        "samples": np.column_stack([traj.times, traj.positions, traj.thetas]).tolist(),
    }
    return json.dumps(rec) + "\n"


def write_trajectories(trajectories, path) -> None:
    """Write trajectories as JSONL, one trajectory_record line each, in order.

    `shelfscan synth` writes the same lines, formatted by batches in forked
    children (cli.cmd_synth).
    """
    with open(path, "w") as fh:
        fh.writelines(map(trajectory_record, trajectories))
