"""Detector scoring against reviewer truth, and threshold calibration.

Stops and visits are compared per (shelf, timestamp) cell, confusion
counts are pooled over every trajectory in the dataset (micro-averaging),
and the three thresholds are chosen by exhaustive grid search on the
pooled F1.

The expensive part of evaluating a grid point is the geometry, and the
geometry does not depend on the thresholds. Each trajectory is therefore
reduced once to its per-sample candidate/distance/speed streams, in gaze
batches that kinematics.batches cuts, each batch kept whole as one
_Prepared: its trips' streams end to end, with each trip's bounds. Only
the rays of samples at most the grid's largest v_b fast are cast, so the
default grid, whose largest v_b is 1.5 m/s, saves nothing by it. The
sweep then makes one vectorized pass over each batch per delta_b value,
which finds each run once, with the region of (delta_b, v_b) it exists
over, and the three axes are filled from those runs by cumulative sums. A
sweep costs O(n log n) per delta_b for n samples, whatever the sizes of
the t_b and v_b axes.

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

import numpy as np

from . import labeling
from .detector import (
    DURATION_TOL,
    StopMatrix,
    StopParams,
    check_stores,
    detect_stops,
    gaze_stream,
    runs,
)
from .errors import (
    AxisMismatch,
    DegenerateSplit,
    EmptyDataset,
    EmptyGrid,
    FractionOutOfRange,
    UnknownTrajectory,
    ValidationError,
    non_negative,
)
from .kinematics import DEFAULT_WINDOW, TrackBatch, batches, check_window, map_file
from .labeling import VisitMatrix, check_panel
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

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three axes, each lo + k * step for k = 0, 1, ... up to hi; their sizes are checked first."""
        ranges = self.t_b, self.delta_b, self.v_b
        counts = []
        for lo, hi, step in ranges:
            try:
                counts.append(int(math.floor((hi - lo) / step + 1e-9)) + 1)
            except OverflowError:  # a point count past a float's limit
                raise ValidationError(
                    f"range (min {lo}, max {hi}, step {step}) has too many points") from None
        _check_cells(counts)
        return tuple(lo + np.arange(n) * step for (lo, _, step), n in zip(ranges, counts))


@dataclass(frozen=True)
class CalibrationResult:
    best_params: StopParams
    best_f1: float
    metrics: MetricsReport
    grid_axes: tuple = field(repr=False, default=())
    f1_table: np.ndarray | None = field(repr=False, default=None)         # (nT, nD, nV)
    count_tables: tuple | None = field(repr=False, default=None)          # (tp, fp, fn) arrays

    def grid_lines(self):
        """Yield grid.csv: its header line, then one string of all v_b lines per (t_b, delta_b).

        _scores runs once per t_b row and each axis value is formatted once. Floats are
        written as their repr, which needs no quoting, and lines end in \\r\\n, as in csv.writer.
        """
        yield "t_b,delta_b,v_b,tp,fp,fn,precision,recall,f1\r\n"
        if self.f1_table is None:
            return
        t_axis, d_axis, v_axis = ([repr(float(x)) for x in axis] for axis in self.grid_axes)
        for ti, t in enumerate(t_axis):
            row = tuple(table[ti] for table in self.count_tables)
            columns = (*row, *_scores(*row))
            for di, d in enumerate(d_axis):
                yield "".join(f"{t},{d},{v},{tp},{fp},{fn},{p!r},{r!r},{f1!r}\r\n"
                              for v, tp, fp, fn, p, r, f1 in zip(v_axis, *(c[di].tolist() for c in columns)))


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
    """Threshold-independent reduction of a gaze batch of (track, visits) pairs, for one grid.

    The streams hold the batch's trips end to end: trip i is samples
    bounds[i]:bounds[i + 1]. A sample faster than the grid's largest v_b
    has no candidate: no grid point counts it, so its ray is not cast.
    """

    times: np.ndarray           # (k,)
    candidates: np.ndarray      # (k,) 0-based shelf index, -1 none
    lams: np.ndarray            # (k,) nearest-hit distance
    speeds: np.ndarray          # (k,)
    visit_at_candidate: np.ndarray  # (k,) bool, visit truth at the candidate shelf
    bounds: np.ndarray          # (m + 1,) int
    visit_ones: np.ndarray      # (m,) int64, each trip's truth ones across all shelves
    store_ids: list             # each trip's store, checked against the layout it is used with


@dataclass(frozen=True)
class Runs:
    """A dataset's runs on one grid, enumerated once; what calibrate and the evaluations consume.

    `runs` holds the (7, k) columns of _enumerate_runs, its trips numbered
    in dataset order. A calibration may instead fold them into `folded`,
    its (tp, predicted ones) tables over every trip, as they are found.
    """

    axes: tuple                 # the grid axes enumerated on
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
        if not all(map(np.array_equal, dataset.axes, axes)):
            raise ValidationError("runs were enumerated on other grid axes than the grid given")
        if dataset.runs is None and not fold:
            raise ValidationError(
                "runs folded into tables serve calibrate only, and the test side of cross_store_eval")
        check_stores(dataset.store_ids, layout)
        return dataset
    dataset = list(dataset)
    for track, visits in dataset:
        check_stores([track.store_id], layout)
        if track.trajectory_id != visits.trajectory_id:
            raise AxisMismatch(
                f"visit matrix is for {visits.trajectory_id!r}, track is {track.trajectory_id!r}"
            )
        if visits.n_shelves != layout.n_shelves or len(visits) != len(track):
            raise AxisMismatch(
                f"visit matrix shape {visits.values.shape} does not match "
                f"{layout.n_shelves} shelves x {len(track)} samples"
            )
    return _runs_of(_gaze(dataset, layout, axes), axes, fold)


def _gaze(pairs, layout: StoreLayout, axes):
    """Yield the _Prepared batch (_gaze_batch) of each batch of checked (track, visits) pairs (batches)."""
    for batch in batches(pairs, lambda pair: len(pair[0])):
        yield _gaze_batch(TrackBatch.join([track for track, _ in batch]), [visits for _, visits in batch],
                          layout, axes)


def _gaze_batch(tracks: TrackBatch, visits, layout: StoreLayout, axes) -> _Prepared:
    """The one _Prepared of a batch of tracks and their visit matrices, the tracks' bounds kept.

    One gaze_stream call casts the rays of the samples at most the grid
    axes' largest v_b fast, within their largest delta_b: those _flatten
    keeps. Each track's visit matrix is read at its own samples' candidates.
    """
    candidates, lams = gaze_stream(tracks.positions, tracks.normals, layout, cutoff=float(axes[1][-1]),
                                   cast=tracks.speeds <= float(axes[2][-1]))
    vac = np.zeros(len(candidates), dtype=bool)
    cuts = tracks.bounds.tolist()
    for lo, hi, v in zip(cuts, cuts[1:], visits):
        seen = np.flatnonzero(candidates[lo:hi] >= 0)
        vac[lo + seen] = v.values[candidates[lo + seen], seen]
    return _Prepared(tracks.times, candidates, lams, tracks.speeds, vac, tracks.bounds,
                     np.array([np.count_nonzero(v.values) for v in visits], dtype=np.int64),
                     tracks.store_ids)


def _runs_of(gazed, axes, fold: bool) -> Runs:
    """The Runs of _Prepared batches, such as _gaze yields, each enumerated as it arrives.

    A batch's trips are numbered after the earlier batches', as _merge
    numbers ranges. With fold, each batch's runs are added into the
    difference tables of _fold_tables as they are found, none is kept, and
    the tables are integrated once, at the end.
    """
    visit_ones, store_ids = [np.zeros(0, np.int64)], []

    def found():
        for prepared in gazed:
            batch = _enumerate_runs(prepared, *axes)
            batch[0] += len(store_ids)
            visit_ones.append(prepared.visit_ones)
            store_ids.extend(prepared.store_ids)
            yield batch

    runs = folded = None
    if fold:  # the truth ones are summed from visit_ones where the tables are used
        folded = _fold_tables(found(), axes)  # a worker holds one batch's runs beside the tables
    else:
        runs = np.concatenate([np.zeros((7, 0), np.int32), *found()], axis=1)
    return Runs(axes, np.concatenate(visit_ones), tuple(store_ids), runs, folded)


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


def _prepare_range(read, by_traj, n_reviewers: int, layout: StoreLayout, window: int,
                   axes, fold: bool) -> list[Runs]:
    """prepare_file's stage: the Runs of the trajectories of one range, in a one-item list.

    The range is read and built a batch of records at a time (map_file),
    and each track of a batch is voted on its own times, in file order,
    so the error raised is the first failing trajectory's, and the batch's
    streams are gazed at once (_gaze_batch) and enumerated once gazed, so
    the worker never holds the whole range's streams.
    """
    def gazed():
        for tracks in read(window):
            visits = [labeling.majority_vote(by_traj.get(tracks.ids[i], []), tracks.track(i), layout,
                                             n_reviewers) for i in range(len(tracks))]
            yield _gaze_batch(tracks, visits, layout, axes)
            del tracks, visits  # before the next batch is read

    return [_runs_of(gazed(), axes, fold)]


def prepare_file(trajectories, labels, n_reviewers: int, layout: StoreLayout, axes,
                 window: int = DEFAULT_WINDOW, jobs: int | None = None, fold: bool = False) -> Runs:
    """The Runs of every trajectory of a JSONL trajectory file, with its labels, on the grid's axes.

    kinematics.map_file's range workers read, gap-split, vote, build, gaze
    and enumerate the file a gaze batch at a time, so this process holds
    only the runs (28 B each), and a worker the streams of a batch or two.
    The result serves calibrate and the evaluations with the same grid and
    `layout`; they check its stores. With `fold`, each range folds its runs
    into count tables that this process sums, for calibrate and for
    cross_store_eval's test side, which read only every trip's totals. On
    2000 noisy trips that holds `calibrate --jobs 2` to a 52 MB peak, which
    is 72 MB if each range's runs are kept instead, even unjoined.

    The caller checks the window and the grid, whose axes check_request
    returns; the panel size is checked here, before the file is read. Then
    the error raised does not depend on `jobs`: the read error on the
    lowest line, else UnknownTrajectory for labels that name no trajectory
    of the file, else the first vote error in file order.
    """
    check_panel(n_reviewers)
    by_traj = {}
    for lab in labels:
        by_traj.setdefault(lab.trajectory_id, []).append(lab)

    def check(known):
        stray = set(by_traj) - known
        if stray:
            raise UnknownTrajectory(f"labels reference unknown trajectories: {sorted(stray)[:5]}")

    stage_args = (by_traj, n_reviewers, layout, window, axes, fold)
    return _merge(map_file(trajectories, _prepare_range, stage_args, jobs, check)
                  or [_runs_of([], axes, fold)])


def _enumerate_runs(prepared, t_axis, d_axis, v_axis):
    """Every run of a _Prepared batch that counts at some grid point, each once, in a (7, k) int32 array.

    A column is a run: its trip in the batch, its four corners in
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

    One vectorized pass over the batch per delta_b index di, whose memory
    the gaze batch bounds. A block is a
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
    """The samples of a _Prepared batch that meet the conditions at some grid point, in order.

    Returns their trip indices (from the batch's bounds), speed ranks in
    v_axis (the first v_b index whose speed condition they meet), times,
    the first delta_b index whose distance condition they meet, whether
    each continues the previous one (next sample of the same trip, same
    candidate) and the visit truth.
    """
    keep = np.flatnonzero(
        (prepared.candidates >= 0) & (prepared.lams <= d_axis[-1]) & (prepared.speeds <= v_axis[-1]))
    trip = (np.searchsorted(prepared.bounds, keep, side="right") - 1).astype(np.int32)
    cand = prepared.candidates[keep]
    link = np.zeros(len(keep), dtype=bool)
    # the next sample of the batch is the next of the trip only inside a trip
    link[1:] = (keep[1:] == keep[:-1] + 1) & (cand[1:] == cand[:-1]) & (trip[1:] == trip[:-1])
    d_first = np.searchsorted(d_axis, prepared.lams[keep], side="left").astype(np.int32)
    v_rank = np.searchsorted(v_axis, prepared.speeds[keep], side="left").astype(np.int32)
    return trip, v_rank, prepared.times[keep], d_first, link, prepared.visit_at_candidate[keep]


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
    """Pooled confusion counts of a _Prepared batch's trips at one grid point: one runs call.

    The pointwise reference the swept tables are tested against.
    """
    s, e, _ = runs(prepared.times, prepared.candidates, prepared.lams, prepared.speeds, params,
                   prepared.bounds)
    hits = np.concatenate([[0], np.cumsum(prepared.visit_at_candidate)])
    tp = int((hits[e + 1] - hits[s]).sum())
    return ConfusionCounts(tp=tp, fp=int((e - s + 1).sum()) - tp, fn=int(prepared.visit_ones.sum()) - tp)


def check_request(grid, window: int = DEFAULT_WINDOW, protocol: str = "calibrate", p: float = 1.0,
                  repeats: int = 1, seed: int = 0):
    """The grid's three axes, once a calibration's or an evaluation's whole request is checked.

    In order: the window, p (in (0, 1) for "same-store", in (0, 1] for
    "cross-store"), repeats, the seed, each axis non-empty, finite and
    strictly increasing, and at most 2**31 difference-table cells
    (_check_cells), which a ParamGrid checks before it builds an axis. None
    needs a trajectory, so commands check first.
    """
    check_window(window)
    if protocol == "same-store" and not 0.0 < p < 1.0:
        raise FractionOutOfRange(f"p must lie strictly between 0 and 1, got {p}")
    if protocol == "cross-store" and not 0.0 < p <= 1.0:
        raise FractionOutOfRange(f"p must lie in (0, 1], got {p}")
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    non_negative("seed", seed)
    axes = grid.axes()
    if min(len(axis) for axis in axes) == 0:
        raise EmptyGrid("parameter grid has no points")
    for name, axis in zip(("t_b", "delta_b", "v_b"), axes):
        axis = np.asarray(axis, dtype=np.float64)
        if not (np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0)):
            raise ValidationError(f"{name} axis must be finite and strictly increasing, got {axis}")
    _check_cells(len(axis) for axis in axes)
    return axes


def _check_cells(counts) -> None:
    """Raise ValidationError if axes of these point counts need more than 2**31 difference-table cells.

    A table has len(axis) + 1 cells along each axis, and at most 2**31 of
    them keep every run corner _enumerate_runs stores within an int32.
    """
    cells = math.prod(n + 1 for n in counts)
    if cells > 1 << 31:
        raise ValidationError(f"parameter grid needs {cells} count-table cells, more than 2**31")


def calibrate(dataset, layout: StoreLayout, grid: ParamGrid) -> CalibrationResult:
    """Exhaustive grid search for the F1-maximizing thresholds.

    Ties are broken toward the lexicographically smallest
    (t_b, delta_b, v_b).
    """
    axes = check_request(grid)
    prepared = _prepare(dataset, layout, axes, fold=True)
    if not len(prepared):
        raise EmptyDataset("calibration requires at least one trajectory")
    return _best(prepared.count_tables(), axes)[1]


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
    return _evaluate("same-store", [(dataset, layout)], grid, p, repeats, seed)


def cross_store_eval(calib_dataset, calib_layout: StoreLayout,
                     eval_dataset, eval_layout: StoreLayout,
                     grid: ParamGrid, p: float = 1.0, seed: int = 0,
                     repeats: int = 1) -> EvalReport:
    """Calibrate on a fraction of one store, score on all of another."""
    return _evaluate("cross-store", [(calib_dataset, calib_layout), (eval_dataset, eval_layout)],
                     grid, p, repeats, seed)


def _evaluate(protocol, sides, grid, p, repeats, seed) -> EvalReport:
    """The split-calibrate-score loop of both protocols.

    `sides` is [(dataset, layout)] for same-store evaluation, scored on the
    held-out rest, or [calibration side, test side] for cross-store. Each
    repeat calibrates on a random ceil(p*n) of the first side's n
    trajectories; at p = 1 no permutation is drawn.
    """
    axes = check_request(grid, protocol=protocol, p=p, repeats=repeats, seed=seed)
    # the test side is read only as every trip's totals, so its runs are folded as found
    cal, *test = [_prepare(dataset, layout, axes, fold=side > 0)
                  for side, (dataset, layout) in enumerate(sides)]
    if not all(len(side) for side in (cal, *test)):
        raise EmptyDataset("evaluation requires at least one trajectory in every dataset")
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
