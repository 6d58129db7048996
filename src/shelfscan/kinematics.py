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
from dataclasses import dataclass, fields
from itertools import islice
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import InvalidWindow, ParseError, ShelfScanError, TooShort, ValidationError

DT = 0.1  # tracking time step, seconds
DT_TOL = 1e-6
GAP_FACTOR = 1.5  # gaps longer than GAP_FACTOR * DT split a record
DEFAULT_WINDOW = 5
_COUNT_BLOCK = 1 << 20  # bytes read at a time while counting the lines before a range


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
    """Derive the kinematic streams used by the stop detector.

    A trajectory shorter than `window` is smoothed over fit_window(window,
    len(traj)) samples, so every trajectory a reader returns can be built;
    an even or non-positive window raises InvalidWindow.
    """
    positions = low_pass_positions(traj.positions, fit_window(check_window(window), len(traj)))
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


def read_lines(path, start: int = 0, stop: int | None = None):
    """Yield (lineno, line) for every non-blank line in bytes [start, stop) of a file.

    start and stop must each sit at 0, just after a newline or at the end of
    the file. Line numbers count from the file's first line, so the bytes
    before start are read to count their newlines. Lines are bytes, stripped
    of surrounding whitespace.
    """
    with open(path, "rb") as fh:
        lineno = 0
        while fh.tell() < start:
            block = fh.read(min(start - fh.tell(), _COUNT_BLOCK))
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


def json_int(rec: dict, key: str) -> int:
    """rec[key], which must be a JSON integer: TypeError for a bool, float, string or other value."""
    value = rec[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be a JSON integer, got {value!r}")
    return value


def read_records(path, cls, what: str) -> list:
    """Read a JSONL file of `cls` records, one per line, as write_records writes them.

    `cls` is a dataclass whose fields are each annotated str, int or float;
    any other annotation raises TypeError before the file is read. A field
    is read from the key of its name: a str or float value is converted by
    str() or float(), and an int must be a JSON integer (json_int). A line
    that is not UTF-8 JSON, lacks a field or holds a value that does not
    convert raises ParseError naming the file, the line and `what`. An
    error that cls itself raises, such as ValidationError, passes unchanged.
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
            values = [json_int(rec, name) if kind is int else kind(rec[name]) for name, kind in columns]
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ParseError(f"{path}:{lineno}: bad {what}: {exc!r}") from exc
        out.append(cls(*values))
    return out


def write_records(records, path) -> None:
    """Write flat dataclass records as JSONL, one object per line, its keys in field order.

    A dataclass instance holds its fields in field order, so vars(rec) is the object.
    """
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(vars(rec)) + "\n")


def parse_record(line: bytes, where: str):
    """(trajectory_id, store_id, (n, 4) sample rows) of one JSONL trajectory record.

    Record shape: {"trajectory_id", "store_id", "samples": [[t, x, y, theta], ...]}.
    A malformed record or sample row raises ParseError; `where` ("path:line")
    prefixes its message.
    """
    try:
        rec = json.loads(line)
        trajectory_id, store_id = str(rec["trajectory_id"]), str(rec["store_id"])
        rows = _sample_rows(rec["samples"], where, b"true" in line or b"false" in line)
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, OverflowError) as exc:
        raise ParseError(f"{where}: bad trajectory record: {exc!r}") from exc
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


def batches(items, size: int):
    """Lists of `size` consecutive items of an iterable, taken as they come; the last may be shorter.

    A caller that keeps a batch while the next one is taken holds two at once.
    """
    items = iter(items)
    while batch := list(islice(items, size)):
        yield batch
        del batch


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
    """Run a stage on the trajectories read and gap-split from one byte range, as it takes them."""
    ids, known, errors = [], [], []

    def trajectories():
        for lineno, line in read_lines(path, start, stop):
            try:
                trajectory_id, store_id, rows = parse_record(line, f"{path}:{lineno}")
                ids.append((trajectory_id, lineno))
                pieces = split_on_gaps(trajectory_id, store_id, rows)
            except ShelfScanError as exc:
                errors.append((lineno, exc))
                return
            known.extend((traj.trajectory_id, lineno) for traj in pieces)
            yield from pieces

    reader = trajectories()
    try:
        output, late = stage(reader, *stage_args), None
    except ShelfScanError as exc:
        output, late = None, exc
    for _ in reader:  # after a stage error, read on for read errors
        pass
    return _RangeResult(output, ids, known, errors[0] if errors else None, late)


def map_file(path, stage, stage_args, jobs: int | None = None, check=None) -> list:
    """Run `stage(trajectories, *stage_args)` on each byte range of a JSONL trajectory file.

    The file is cut into up to `jobs` ranges at newlines (_byte_ranges),
    each read by a child that fork_map forks for it, or in process if
    there is one. A range's stage output comes back pickled, so a stage
    returns picklable items; the stage itself is inherited, not pickled.
    `trajectories` yields a range's gap-split trajectories in file order
    as the stage takes them, and the stage returns a list. Returns the
    lists joined in file order.

    The error raised does not depend on `jobs`. It is the read error
    (ParseError, ValidationError, a trajectory_id that an earlier record
    used, a gap-split piece id that another record's trajectory has) on
    the lowest line, else what `check` raises when given the set of
    trajectory ids read, else the first error a stage raised, in file
    order.
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
    return map_file(path, list, (), jobs=1)


# JSONL bytes per sample of a trajectory_record line, about: 71.6 to 72.1 on noisy synthetic stores
RECORD_BYTES_PER_SAMPLE = 72


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
