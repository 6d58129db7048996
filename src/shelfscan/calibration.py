"""Detector scoring against reviewer truth, and threshold calibration.

Stops and visits are compared per (shelf, timestamp) cell, confusion
counts are pooled over every trajectory in the dataset (micro-averaging),
and the three thresholds are chosen by exhaustive grid search on the
pooled F1.

The expensive part of evaluating a grid point is the geometry, and the
geometry does not depend on the thresholds. Each trajectory is therefore
reduced once to its per-sample candidate/distance/speed streams, in gaze
batches of detector.GAZE_BATCH trajectories. Only the rays of samples at
most the grid's largest v_b fast are cast, so the default grid, whose
largest v_b is 1.5 m/s, saves nothing by it. The sweep then makes one
vectorized pass over each batch per delta_b value, which finds each run
once, with the region of (delta_b, v_b) it exists over, and the three
axes are filled from those runs by cumulative sums. A sweep costs
O(n log n) per delta_b for n samples, whatever the sizes of the t_b and
v_b axes.

The runs that qualify at some t_b are enumerated once per dataset and
grid, each kept once as seven int32 values (28 B): trip, four
difference-table corners, length and hits. Tables come from them by
bincounts, so an evaluation repeat reweights the same runs by trip, with
no new tree pass: it tabulates the runs of its calibration subset, and
the held-out trips' counts at the chosen point are every trip's counts
less the subset's. That complement is exact, because runs never cross
trajectories and the counts are integers. A plain calibration and the
test side of a cross-store evaluation read only every trip's totals, so
they fold the runs into their tables as they are found.

The gaze batch is the one unit of work: each batch's streams are
enumerated as soon as they are gazed, its trips numbered after the earlier
batches'. For a trajectory file, prepare_file's range workers do this for
their own trajectories, or fold the runs for a calibration, and the
streams never leave the worker: the parent only renumbers the trips and
joins the runs, or sums the integer tables, which is exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from . import detector, labeling
from .detector import (
    DURATION_TOL,
    StopMatrix,
    StopParams,
    check_store,
    detect_stops,
    gaze_stream,
    runs,
    stack_tracks,
)
from .errors import (
    AxisMismatch,
    DegenerateSplit,
    EmptyDataset,
    EmptyGrid,
    FractionOutOfRange,
    ShelfScanError,
    UnknownTrajectory,
    ValidationError,
    non_negative,
)
from .kinematics import DEFAULT_WINDOW, batches, build_track, map_file
from .labeling import VisitMatrix
from .layout import StoreLayout


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if self.tp < 0 or self.fp < 0 or self.fn < 0:
            raise ValidationError(f"confusion counts must be non-negative, got {self}")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    def __sub__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp - other.tp, self.fp - other.fp, self.fn - other.fn)


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts


@dataclass(frozen=True)
class ParamGrid:
    """Inclusive (min, max, step) ranges for the three thresholds."""

    t_b: tuple[float, float, float] = (0.5, 4.0, 0.1)
    delta_b: tuple[float, float, float] = (0.3, 3.0, 0.05)
    v_b: tuple[float, float, float] = (0.1, 1.5, 0.01)

    def __post_init__(self):
        for name, (lo, hi, step) in (("t_b", self.t_b), ("delta_b", self.delta_b), ("v_b", self.v_b)):
            if not (0 < lo <= hi < math.inf and 0 < step < math.inf):  # False for NaN too
                raise ValidationError(f"bad {name} range (min {lo}, max {hi}, step {step})")

    @staticmethod
    def _axis(rng) -> np.ndarray:
        lo, hi, step = rng
        try:
            n = int(math.floor((hi - lo) / step + 1e-9)) + 1
            return lo + np.arange(n) * step
        except (OverflowError, ValueError):  # a point count past a float's or an array's limit
            raise ValidationError(
                f"range (min {lo}, max {hi}, step {step}) has too many points") from None

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._axis(self.t_b), self._axis(self.delta_b), self._axis(self.v_b)


@dataclass(frozen=True)
class CalibrationResult:
    best_params: StopParams
    best_f1: float
    metrics: MetricsReport
    grid_axes: tuple = field(repr=False, default=())
    f1_table: np.ndarray | None = field(repr=False, default=None)         # (nT, nD, nV)
    count_tables: tuple | None = field(repr=False, default=None)          # (tp, fp, fn) arrays

    def score_rows(self):
        """Yield (t_b, delta_b, v_b, tp, fp, fn, precision, recall, f1) per grid point.

        The count tables are scored by _scores one t_b row at a time, and
        each (t_b, delta_b) line becomes Python values only as it is yielded.
        """
        if self.f1_table is None:
            return
        t_axis, d_axis, v_axis = ([float(x) for x in axis] for axis in self.grid_axes)
        for ti, tv in enumerate(t_axis):
            row = tuple(table[ti] for table in self.count_tables)
            columns = (*row, *_scores(*row))
            for di, dv in enumerate(d_axis):
                for vv, *values in zip(v_axis, *(column[di].tolist() for column in columns)):
                    yield (tv, dv, vv, *values)


@dataclass(frozen=True)
class EvalReport:
    protocol: str             # "same-store" | "cross-store"
    p: float
    repeats: int
    scores: tuple[float, ...]
    mean: float
    stderr: float
    seed: int
    params_per_repeat: tuple[StopParams, ...] = ()

    def to_dict(self) -> dict:
        """The report as JSON types: its fields by name, tuples as lists."""
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in asdict(self).items()}


def confusion_counts(stops: StopMatrix, visits: VisitMatrix) -> ConfusionCounts:
    """Pool TP/FP/FN over every (shelf, timestamp) cell of one trajectory."""
    if stops.trajectory_id != visits.trajectory_id:
        raise AxisMismatch(
            f"matrices describe different trajectories: {stops.trajectory_id!r} vs {visits.trajectory_id!r}"
        )
    if stops.values.shape != visits.values.shape:
        raise AxisMismatch(
            f"matrix shapes differ: {stops.values.shape} vs {visits.values.shape}"
        )
    if not np.allclose(stops.times, visits.times, atol=1e-9):
        raise AxisMismatch("matrices have different sample times")
    s = stops.values
    v = visits.values
    tp = int(np.count_nonzero(s & v))
    return ConfusionCounts(tp=tp, fp=int(np.count_nonzero(s)) - tp, fn=int(np.count_nonzero(v)) - tp)


def confusion_counts_total(pairs) -> ConfusionCounts:
    """Sum confusion counts over (StopMatrix, VisitMatrix) pairs."""
    total = ConfusionCounts()
    for s, v in pairs:
        total = total + confusion_counts(s, v)
    return total


def _scores(tp, fp, fn):
    """Precision, recall and F1 arrays of confusion count arrays, the one F1 formula.

    Empty prediction sets give precision 0, empty truth sets give recall
    0, and F1 is 0 whenever precision + recall is.
    """
    tp, fp, fn = np.asarray(tp), np.asarray(fp), np.asarray(fn)
    p = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
    r = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
    f1 = np.where(p + r > 0, 2.0 * p * r / np.maximum(p + r, 1e-300), 0.0)
    return p, r, f1


def precision_recall_f1(counts: ConfusionCounts) -> MetricsReport:
    """Precision, recall and F1 of one set of counts: the scalar view of _scores."""
    p, r, f1 = (float(x) for x in _scores(counts.tp, counts.fp, counts.fn))
    return MetricsReport(precision=p, recall=r, f1=f1, counts=counts)


def score_dataset(dataset, layout: StoreLayout, params: StopParams) -> MetricsReport:
    """Run the detector over (track, visits) pairs and score it."""
    pairs = []
    for track, visits in dataset:
        _, stops = detect_stops(track, layout, params)
        pairs.append((stops, visits))
    return precision_recall_f1(confusion_counts_total(pairs))


@dataclass(frozen=True)
class _Prepared:
    """Threshold-independent reduction of one (track, visits) pair, for one grid.

    A sample faster than the grid's largest v_b has no candidate: no grid
    point counts it, so its ray is not cast.
    """

    times: np.ndarray
    candidates: np.ndarray      # (k,) 0-based shelf index, -1 none
    lams: np.ndarray            # (k,) nearest-hit distance
    speeds: np.ndarray          # (k,)
    visit_at_candidate: np.ndarray  # (k,) bool, visit truth at the candidate shelf
    visit_ones: int             # total truth ones across all shelves
    store_id: str = ""          # the track's store, checked against the layout it is used with


@dataclass(frozen=True)
class Runs:
    """A dataset's runs on one grid, enumerated once; what calibrate and the evaluations consume.

    `runs` holds the (7, k) columns of _enumerate_runs, its trips numbered
    in dataset order. A calibration may instead fold them into `folded`,
    its (tp, predicted ones) tables over every trip, as they are found.
    """

    axes: tuple | None          # the grid axes enumerated on; None for a grid _grid_axes rejects
    visit_ones: np.ndarray      # (n,) int64, each trip's truth ones
    store_ids: tuple            # each trip's store, checked against the layout it is used with
    runs: np.ndarray | None = None
    folded: tuple | None = None

    def __len__(self):
        return len(self.visit_ones)

    def count_tables(self, mask=None):
        """The _count_tables tables of the trips in mask, every trip when None.

        Folded runs have only every trip's totals, so they take no mask.
        """
        if self.runs is None:
            if mask is not None:
                raise ValidationError("runs folded into tables cannot select trips")
            return (*self.folded, int(self.visit_ones.sum()))
        return _count_tables(self.runs, self.visit_ones, self.axes, mask)


def _prepare(dataset, layout: StoreLayout, axes, fold: bool = False) -> Runs:
    """The dataset's Runs on the grid axes, after its checks.

    The dataset is the Runs that prepare_file returned, or (track, visits)
    pairs, enumerated here as prepare_file's range stage enumerates them.
    """
    if isinstance(dataset, Runs):
        if dataset.axes is None or not all(map(np.array_equal, dataset.axes, axes)):
            raise ValidationError("runs were enumerated on other grid axes than the grid given")
        if dataset.runs is None and not fold:
            raise ValidationError(
                "runs folded into tables serve calibrate only, and the test side of cross_store_eval")
        for store_id in dict.fromkeys(dataset.store_ids):
            check_store(SimpleNamespace(store_id=store_id), layout)
        return dataset
    for track, visits in dataset:
        check_store(track, layout)
        if track.trajectory_id != visits.trajectory_id:
            raise AxisMismatch(
                f"visit matrix is for {visits.trajectory_id!r}, track is {track.trajectory_id!r}"
            )
        if visits.n_shelves != layout.n_shelves or len(visits) != len(track):
            raise AxisMismatch(
                f"visit matrix shape {visits.values.shape} does not match "
                f"{layout.n_shelves} shelves x {len(track)} samples"
            )
    return _runs_of(_gaze(dataset, layout, float(axes[1][-1]), float(axes[2][-1])), axes, fold)


def _gaze(pairs, layout: StoreLayout, cutoff: float, v_max: float):
    """Yield a list of _Prepared streams per detector.GAZE_BATCH checked (track, visits) pairs.

    One gaze_stream call per list casts the rays of the samples at most
    v_max fast, within the distance cutoff: those _flatten keeps.
    """
    for batch in batches(pairs, detector.GAZE_BATCH):
        prepared = []
        positions, normals, cast, cuts = stack_tracks([track for track, _ in batch], v_max)
        candidates, lams = gaze_stream(positions, normals, layout, cutoff=cutoff, cast=cast)
        del positions, normals, cast
        for (track, visits), cand, lam in zip(batch, np.split(candidates, cuts), np.split(lams, cuts)):
            seen = np.flatnonzero(cand >= 0)
            vac = np.zeros(len(track), dtype=bool)
            vac[seen] = visits.values[cand[seen], seen]
            prepared.append(_Prepared(
                times=track.times,
                candidates=cand,
                lams=lam,
                speeds=track.speeds,
                visit_at_candidate=vac,
                visit_ones=int(np.count_nonzero(visits.values)),
                store_id=track.store_id,
            ))
        yield prepared
        del batch  # before batches takes the next batch


def _runs_of(gazed, axes, fold: bool) -> Runs:
    """The Runs of lists of _Prepared streams, such as _gaze yields, each enumerated as it arrives.

    A list's trips are numbered after the earlier lists', as _merge numbers
    ranges. With fold, each list's runs are added into the difference
    tables of _fold_tables as they are found, none is kept, and the tables
    are integrated once, at the end. Without axes there is nothing to
    enumerate on, and the grid is reported where the result is used.
    """
    visit_ones, store_ids = [], []

    def found():
        for prepared in gazed:
            offset = len(visit_ones)
            visit_ones.extend(prep.visit_ones for prep in prepared)
            store_ids.extend(prep.store_id for prep in prepared)
            if axes is not None and prepared:
                batch = _enumerate_runs(prepared, *axes)
                batch[0] += offset
                yield batch

    runs = folded = None
    if fold and axes is not None:  # the truth ones are summed from visit_ones where the tables are used
        folded = _fold_tables(found(), axes)  # a worker holds one batch's runs beside the tables
    else:
        runs = np.concatenate([np.zeros((7, 0), np.int32), *found()], axis=1)
    return Runs(axes, np.array(visit_ones, dtype=np.int64), tuple(store_ids), runs, folded)


def _merge(parts) -> Runs:
    """One Runs of consecutive ranges' Runs: trips renumbered in order, runs joined, tables summed."""
    if len(parts) == 1:
        return parts[0]
    first, runs, folded = parts[0], None, None
    if first.runs is not None:
        runs = np.concatenate([part.runs for part in parts], axis=1)
        offsets = np.cumsum([0] + [len(part) for part in parts[:-1]], dtype=np.int32)
        runs[0] += np.repeat(offsets, [part.runs.shape[1] for part in parts])
    if first.folded is not None:  # int64 sums of integer counts, exact
        folded = tuple(sum(tables) for tables in zip(*(part.folded for part in parts)))
    return Runs(first.axes, np.concatenate([part.visit_ones for part in parts]),
                tuple(store_id for part in parts for store_id in part.store_ids), runs, folded)


def _prepare_range(trajectories, by_traj, n_reviewers: int, layout: StoreLayout, window: int,
                   axes, fold: bool) -> list[Runs]:
    """prepare_file's stage: the Runs of the trajectories of one range, in a one-item list.

    Each trajectory is voted and built as it is taken, so the error raised
    is the one of the first trajectory that fails. Each gaze batch's
    streams are enumerated as soon as they are gazed, so the worker never
    holds the whole range's streams.
    """
    def pairs():
        for traj in trajectories:
            visits = labeling.majority_vote(by_traj.get(traj.trajectory_id, []), traj, layout,
                                            n_reviewers)
            yield build_track(traj, window), visits

    # the gaze casts within the largest delta_b and v_b; without axes no ray is needed
    cutoff, v_max = (float(axes[1][-1]), float(axes[2][-1])) if axes is not None else (0.0, -math.inf)
    return [_runs_of(_gaze(pairs(), layout, cutoff, v_max), axes, fold)]


def prepare_file(trajectories, labels, n_reviewers: int, layout: StoreLayout, grid,
                 window: int = DEFAULT_WINDOW, jobs: int | None = None, fold: bool = False) -> Runs:
    """The Runs of every trajectory of a JSONL trajectory file, with its labels, on the grid.

    kinematics.map_file's range workers read, gap-split, vote, build, gaze
    and enumerate the file, one gaze batch of detector.GAZE_BATCH
    trajectories at a time, so this process holds only the runs (28 B
    each), never a track, a visit matrix or a per-sample stream, and a
    worker the streams of a batch or two. The result serves calibrate, same_store_eval and
    cross_store_eval with the same grid and `layout`; they check its
    stores. With `fold`, each range folds its runs into its count tables
    instead and this process sums them, for calibrate and for
    cross_store_eval's test side, which read only every trip's totals.

    The error raised does not depend on `jobs`: the read error on the
    lowest line, else UnknownTrajectory for labels that name no trajectory
    of the file, else the first vote or window error in file order. A grid
    that _grid_axes rejects is reported by the function given the result,
    after its own argument checks, as for an in-memory dataset.
    """
    by_traj = {}
    for lab in labels:
        by_traj.setdefault(lab.trajectory_id, []).append(lab)

    def check(known):
        stray = set(by_traj) - known
        if stray:
            raise UnknownTrajectory(f"labels reference unknown trajectories: {sorted(stray)[:5]}")

    try:
        axes = _grid_axes(grid)
    except ShelfScanError:
        axes = None
    stage_args = (by_traj, n_reviewers, layout, window, axes, fold)
    return _merge(map_file(trajectories, _prepare_range, stage_args, jobs, check)
                  or [_runs_of([], axes, fold)])


def _enumerate_runs(prepared, t_axis, d_axis, v_axis):
    """Every run of the trajectories that counts at some grid point, each once, in a (7, k) int32 array.

    A column is a run: its trip (index into prepared), its four corners in
    the flattened (nT+1, nD+1, nV+1) difference table of _count_tables, its
    length and its hits (samples whose candidate shelf has a visit). A
    sample passes at (delta_b index d, v_axis index v) exactly when d >= D,
    its first passing delta_b index, and v >= R, the number of v_axis values
    below its speed. With Q(a, b) = [d >= a][v >= b] and | the max, a run
    of largest (D, R) whose linked neighbours (the samples just before and
    after it, with its candidate; a missing one is (nD, nV)) have (dL, rL)
    and (dR, rR) exists on Q(D, R) - Q(D|dL, R|rL) - Q(D|dR, R|rR) +
    Q(D|dL|dR, R|rL|rR), its corners in row upto, the number of t_axis
    values its duration qualifies at. A run with upto 0 is not kept.

    One vectorized pass over the trajectories per delta_b index di, whose
    memory callers bound by passing a gaze batch at a time. A block is a
    maximal stretch of consecutive samples, in one trajectory, that pass
    the candidate and distance conditions at di with one candidate; its
    runs at some v_b are the nodes of its max-Cartesian tree on rank
    (Vuillemin, CACM 1980). A run at any (d, v) is also one at (D, v),
    where all its samples pass and its neighbours still fail, so the pass
    keeps only the nodes holding a sample whose D is di: each run once.
    """
    n_t, n_d, n_v = len(t_axis), len(d_axis), len(v_axis)
    trip, rank, times, d_first, link, vac = _flatten(prepared, d_axis, v_axis)
    cum = np.concatenate([[0], np.cumsum(vac)])
    # each sample's (D, R) and those of its linked neighbours; a missing neighbour never passes
    own, missing = np.stack([d_first, rank]), np.array([[n_d], [n_v]], dtype=np.int32)
    before = np.where(link, np.roll(own, 1, axis=1), missing)
    after = np.where(np.append(link[1:], False), np.roll(own, -1, axis=1), missing)
    found = []
    for di in range(n_d):
        sel = np.flatnonzero(d_first <= di)
        new_block = (np.diff(sel, prepend=-2) != 1) | ~link[sel]
        # only a block holding a sample that first passes here can hold a run first found here
        block, fresh = np.cumsum(new_block) - 1, d_first[sel] == di
        keep = (np.bincount(block, fresh) > 0)[block]
        sel, new_block, fresh = sel[keep], new_block[keep], np.append(0, np.cumsum(fresh[keep]))
        first, last, length, r = _tree_runs(rank[sel], new_block, n_v)
        # a run qualifies at t_axis[i] exactly when t_axis[i] <= duration + tol,
        # the same float predicate the detector applies
        upto = np.searchsorted(t_axis, times[sel[last]] - times[sel[first]] + DURATION_TOL, side="right")
        keep = np.flatnonzero((upto > 0) & (fresh[last + 1] > fresh[first]))
        s, e, upto = sel[first[keep]], sel[last[keep]], upto[keep]
        low = np.stack([np.full(len(keep), di), r[keep]])
        left, right = np.maximum(low, before[:, s]), np.maximum(low, after[:, e])
        corners = [((upto * (n_d + 1) + d) * (n_v + 1) + v)
                   for d, v in (low, left, right, np.maximum(left, right))]
        found.append(np.stack([trip[s], *corners, length[keep], cum[e + 1] - cum[s]], dtype=np.int32))
    return np.concatenate(found, axis=1)


def _count_tables(runs, visit_ones, axes, mask=None):
    """Pooled (tp, predicted ones, truth ones) of the trips in mask, every trip when None.

    `runs` is an _enumerate_runs array on the grid `axes`, and `visit_ones`
    each trip's truth ones. Runs never cross trips, so the counts of a trip
    subset are those of its runs alone.
    """
    if mask is not None:
        runs = runs[:, mask[runs[0]]]
    v_ones = int(visit_ones.sum() if mask is None else visit_ones[mask].sum())
    return (*_fold_tables([runs], axes), v_ones)


def _fold_tables(batches, axes):
    """The (tp, predicted ones) tables, (nT, nD, nV) each, of the runs of _enumerate_runs arrays.

    Each batch's run corners, signed +, -, -, +, are added into two
    flattened (t_b bound, delta_b, v_b) difference tables as the batch
    arrives; a reverse cumulative sum over t_b and forward ones over
    delta_b and v_b then turn them into counts, once. The difference tables
    hold float sums of integers, exact below 2**53.
    """
    shape = tuple(len(axis) + 1 for axis in axes)
    diffs = np.zeros((2, math.prod(shape)))
    for runs in batches:
        for diff, weights in zip(diffs, (runs[6], runs[5])):
            for sign, cells in zip((1, -1, -1, 1), runs[1:5]):
                diff += sign * np.bincount(cells, weights, len(diff))
    # row i sums the runs qualifying at t_axis[i] (upto > i); a corner at nD or nV reaches no cell
    tables = diffs.reshape(2, *shape)[:, :0:-1, :-1, :-1].astype(np.int64)
    for axis in range(1, 4):
        np.cumsum(tables, axis=axis, out=tables)
    return tuple(tables[:, ::-1])


def _flatten(prepared, d_axis, v_axis):
    """The samples that meet the conditions at some grid point, of all trajectories in order.

    Returns their trip indices, speed ranks in v_axis (the first v_b index
    whose speed condition they meet), times, the first delta_b index whose
    distance condition they meet, whether each continues the previous one
    (next sample of the same trajectory, same candidate) and the visit
    truth. Filtering trip by trip keeps the unfiltered streams out of memory.
    """
    parts = []
    for i, prep in enumerate(prepared):
        keep = np.flatnonzero(
            (prep.candidates >= 0) & (prep.lams <= d_axis[-1]) & (prep.speeds <= v_axis[-1]))
        cand = prep.candidates[keep]
        link = np.zeros(len(keep), dtype=bool)
        link[1:] = (keep[1:] == keep[:-1] + 1) & (cand[1:] == cand[:-1])
        d_first = np.searchsorted(d_axis, prep.lams[keep], side="left").astype(np.int32)
        v_rank = np.searchsorted(v_axis, prep.speeds[keep], side="left").astype(np.int32)
        parts.append((np.full(len(keep), i, dtype=np.int32), v_rank, prep.times[keep], d_first,
                      link, prep.visit_at_candidate[keep]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _tree_runs(rank, new_block, n_v):
    """Runs of the blocks' max-Cartesian trees on rank that exist at some v_b.

    Node k spans the samples between its nearest left neighbour with rank
    >= r_k and its nearest right one with rank > r_k, and is a run for
    v_axis indices in [r_k, min(r_left, r_right)), block ends counting as
    nV; a node tied with its left neighbour has none. Those
    all-nearest-greater-values (Berkman, Schieber & Vishkin, J. Algorithms
    1993) come from a sparse table by binary lifting. Returns first and
    last sample, length and rank of each node with a non-empty range.
    """
    n = len(rank)
    block = np.cumsum(new_block) - 1
    starts = np.flatnonzero(new_block)
    ends = np.append(starts[1:], n) - 1
    b_first, b_last = starts[block], ends[block]
    levels = int(np.max(ends - starts, initial=0)).bit_length()
    sparse = [rank]  # sparse[j][i] = max(rank[i:i + 2**j])
    for j in range(1, levels):
        prev, half = sparse[-1], 1 << (j - 1)
        sparse.append(np.maximum(prev[:-half], prev[half:]))
    left = np.arange(n)
    right = left + 1  # node k: ranks in [left[k], k) are < rank[k], in (k, right[k]) <= rank[k]
    for j in range(levels - 1, -1, -1):
        step, top = 1 << j, len(sparse[j]) - 1
        cand = left - step
        ok = (cand >= b_first) & (sparse[j][np.maximum(cand, 0)] < rank)
        left = np.where(ok, cand, left)
        ok = (right + step - 1 <= b_last) & (sparse[j][np.minimum(right, top)] <= rank)
        right = np.where(ok, right + step, right)
    r_left = np.where(left > b_first, rank[np.maximum(left - 1, 0)], n_v)
    r_right = np.where(right <= b_last, rank[np.minimum(right, n - 1)], n_v)
    live = rank < np.minimum(r_left, r_right)
    return left[live], right[live] - 1, (right - left)[live], rank[live]


def counts_at(prepared, params: StopParams) -> ConfusionCounts:
    """Pooled confusion counts of prepared trajectories at one grid point."""
    tp = fp = fn = 0
    for prep in prepared:
        s, e, _ = runs(prep.times, prep.candidates, prep.lams, prep.speeds, params)
        hits = np.concatenate([[0], np.cumsum(prep.visit_at_candidate)])
        run_tp = int((hits[e + 1] - hits[s]).sum())
        tp += run_tp
        fp += int((e - s + 1).sum()) - run_tp
        fn += prep.visit_ones - run_tp
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


def _grid_axes(grid):
    """The grid's three axes, each checked non-empty, finite and strictly increasing."""
    axes = grid.axes()
    if min(len(axis) for axis in axes) == 0:
        raise EmptyGrid("parameter grid has no points")
    for name, axis in zip(("t_b", "delta_b", "v_b"), axes):
        axis = np.asarray(axis, dtype=np.float64)
        if not (np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0)):
            raise ValidationError(f"{name} axis must be finite and strictly increasing, got {axis}")
    return axes


def calibrate(dataset, layout: StoreLayout, grid: ParamGrid) -> CalibrationResult:
    """Exhaustive grid search for the F1-maximizing thresholds.

    Ties are broken toward the lexicographically smallest
    (t_b, delta_b, v_b).
    """
    dataset = _listed(dataset)
    if not len(dataset):
        raise EmptyDataset("calibration requires at least one trajectory")
    axes = _grid_axes(grid)
    return _best(_prepare(dataset, layout, axes, fold=True).count_tables(), axes)[1]


def _listed(dataset):
    """A Runs as it is, else the dataset's (track, visits) pairs in a list."""
    return dataset if isinstance(dataset, Runs) else list(dataset)


def _best(tables, axes):
    """The F1-maximizing grid point of _count_tables tables: (its index, the CalibrationResult)."""
    tp, s_ones, v_ones = tables
    fp, fn = s_ones - tp, v_ones - tp
    f1 = _scores(tp, fp, fn)[2]
    # C order: the first max is the lexicographically smallest point
    index = np.unravel_index(int(np.argmax(f1)), f1.shape)
    t_axis, d_axis, v_axis = axes
    ti, di, vi = index
    best = StopParams(t_b=float(t_axis[ti]), delta_b=float(d_axis[di]), v_b=float(v_axis[vi]))
    return index, CalibrationResult(
        best_params=best,
        best_f1=float(f1[index]),
        metrics=precision_recall_f1(_counts(tables, index)),
        grid_axes=axes,
        f1_table=f1,
        count_tables=(tp, fp, fn),
    )


def _counts(tables, index) -> ConfusionCounts:
    """The confusion counts of _count_tables tables at one grid index."""
    tp, s_ones, v_ones = tables
    hits = int(tp[index])
    return ConfusionCounts(hits, int(s_ones[index]) - hits, int(v_ones) - hits)


def same_store_eval(dataset, layout: StoreLayout, grid: ParamGrid, p: float,
                    repeats: int, seed: int) -> EvalReport:
    """Calibrate on a random fraction p, score on the held-out remainder.

    Each repeat draws a fresh random calibration subset of ceil(p*N)
    trajectories; reported scores are in repeat order and reproducible
    from the seed.
    """
    if not 0.0 < p < 1.0:
        raise FractionOutOfRange(f"p must lie strictly between 0 and 1, got {p}")
    return _evaluate("same-store", [(dataset, layout)], grid, p, repeats, seed)


def cross_store_eval(calib_dataset, calib_layout: StoreLayout,
                     eval_dataset, eval_layout: StoreLayout,
                     grid: ParamGrid, p: float = 1.0, seed: int = 0,
                     repeats: int = 1) -> EvalReport:
    """Calibrate on a fraction of one store, score on all of another."""
    if not 0.0 < p <= 1.0:
        raise FractionOutOfRange(f"p must lie in (0, 1], got {p}")
    return _evaluate("cross-store", [(calib_dataset, calib_layout), (eval_dataset, eval_layout)],
                     grid, p, repeats, seed)


def _evaluate(protocol, sides, grid, p, repeats, seed) -> EvalReport:
    """The split-calibrate-score loop of both protocols.

    `sides` is [(dataset, layout)] for same-store evaluation, scored on the
    held-out rest, or [calibration side, test side] for cross-store. Each
    repeat calibrates on a random ceil(p*n) of the first side's n
    trajectories; at p = 1 no permutation is drawn.
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    non_negative("seed", seed)
    sides = [(_listed(dataset), layout) for dataset, layout in sides]
    if not all(len(dataset) for dataset, _ in sides):
        raise EmptyDataset("evaluation requires at least one trajectory in every dataset")
    axes = _grid_axes(grid)
    # the test side is read only as every trip's totals, so its runs are folded as found
    cal, *test = [_prepare(dataset, layout, axes, fold=side > 0)
                  for side, (dataset, layout) in enumerate(sides)]
    n = len(cal)
    n_cal = math.ceil(p * n)
    if not test and n_cal == n:
        raise DegenerateSplit(f"p={p} with {n} trajectories leaves an empty side")
    # each repeat tabulates the runs of its calibration subset; same-store scores every
    # trip's counts less the subset's
    scored = (test[0] if test else cal).count_tables()
    rng = np.random.default_rng(seed)
    scores, chosen = [], []
    for _ in range(repeats):
        order = rng.permutation(n) if n_cal < n else range(n)
        mask = np.zeros(n, dtype=bool)
        mask[order[:n_cal]] = True
        index, result = _best(cal.count_tables(mask), axes)
        counts = _counts(scored, index)
        if not test:
            counts = counts - result.metrics.counts
        scores.append(precision_recall_f1(counts).f1)
        chosen.append(result.best_params)
    return EvalReport(
        protocol=protocol,
        p=p,
        repeats=repeats,
        scores=tuple(scores),
        mean=float(np.mean(scores)),
        stderr=float(np.std(scores, ddof=1) / math.sqrt(repeats)) if repeats > 1 else 0.0,
        seed=seed,
        params_per_repeat=tuple(chosen),
    )
