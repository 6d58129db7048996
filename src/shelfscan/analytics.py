"""Browsing-pattern aggregates over detected stops.

Each trip reduces to a binary visit vector over shelves (did the shopper
stop there at least once); averaging the vectors gives per-shelf visit
rates and the overall average number of shelves visited per trip.
Matched point-of-sale records then yield per-shelf visit-to-purchase
conversion rates.
"""

from __future__ import annotations

import codecs
import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InconsistentPopulation, LengthMismatch, ParseError, ShelfOutOfRange


@dataclass(frozen=True)
class VisitVector:
    """1 per shelf the trip stopped at, regardless of how many times."""

    trajectory_id: str
    bits: tuple[int, ...]


@dataclass(frozen=True)
class ShelfStats:
    per_shelf: tuple[float, ...]       # mean of bits per shelf, over trips
    overall_avg_visits: float          # mean over trips of per-trip bit sums
    n_trips: int
    trajectory_ids: frozenset[str]


@dataclass(frozen=True)
class PurchaseRecord:
    trajectory_id: str
    shelf_id: int
    quantity: int

    def __post_init__(self):
        if self.shelf_id < 1:
            raise ShelfOutOfRange(f"shelf id must be >= 1, got {self.shelf_id}")
        if self.quantity < 0:
            raise ParseError(f"purchase quantity must be non-negative, got {self.quantity}")


@dataclass(frozen=True)
class ConversionVector:
    """Per-shelf purchase/visit ratio; None where the shelf was never visited."""

    rates: tuple[float | None, ...]
    visit_avg: tuple[float, ...]
    purchase_avg: tuple[float, ...]


def visit_vector(events, n_shelves: int, trajectory_id: str | None = None) -> VisitVector:
    """Binarize one trip's stop events into its visit vector."""
    bits = [0] * n_shelves
    tid = trajectory_id
    for ev in events:
        if not 1 <= ev.shelf_id <= n_shelves:
            raise ShelfOutOfRange(f"stop on shelf {ev.shelf_id}, layout has 1..{n_shelves}")
        bits[ev.shelf_id - 1] = 1
        if tid is None:
            tid = ev.trajectory_id
    return VisitVector(trajectory_id=tid if tid is not None else "", bits=tuple(bits))


def shelf_stats(vectors) -> ShelfStats:
    vectors = list(vectors)
    if not vectors:
        raise EmptyInput("shelf statistics need at least one trip")
    width = len(vectors[0].bits)
    for v in vectors:
        if len(v.bits) != width:
            raise LengthMismatch(
                f"visit vector for {v.trajectory_id!r} has length {len(v.bits)}, expected {width}"
            )
    matrix = np.array([v.bits for v in vectors], dtype=float)
    return ShelfStats(
        per_shelf=tuple(float(x) for x in matrix.mean(axis=0)),
        overall_avg_visits=float(matrix.sum(axis=1).mean()),
        n_trips=len(vectors),
        trajectory_ids=frozenset(v.trajectory_id for v in vectors),
    )


def conversion_rates(stats: ShelfStats, purchases, incidence: bool = False) -> ConversionVector:
    """Per-shelf average purchases per trip divided by average visits per trip.

    Quantities are summed per trip by default; with incidence=True a trip
    counts at most once per shelf no matter how much it bought. Shelves
    with a zero visit average get None, never 0 or infinity. Rates may
    exceed 1: buying without a detected visit is possible.
    """
    n_shelves = len(stats.per_shelf)
    totals = np.zeros(n_shelves)
    seen_pairs = set()
    for rec in purchases:
        if rec.trajectory_id not in stats.trajectory_ids:
            raise InconsistentPopulation(
                f"purchase references trajectory {rec.trajectory_id!r} outside the analyzed trips"
            )
        if not 1 <= rec.shelf_id <= n_shelves:
            raise ShelfOutOfRange(f"purchase on shelf {rec.shelf_id}, layout has 1..{n_shelves}")
        if incidence:
            pair = (rec.trajectory_id, rec.shelf_id)
            if pair in seen_pairs or rec.quantity == 0:
                continue
            seen_pairs.add(pair)
            totals[rec.shelf_id - 1] += 1
        else:
            totals[rec.shelf_id - 1] += rec.quantity
    purchase_avg = totals / stats.n_trips
    rates = [
        None if stats.per_shelf[j] == 0.0 else float(purchase_avg[j] / stats.per_shelf[j])
        for j in range(n_shelves)
    ]
    return ConversionVector(
        rates=tuple(rates),
        visit_avg=stats.per_shelf,
        purchase_avg=tuple(float(x) for x in purchase_avg),
    )


def read_purchases(path) -> list[PurchaseRecord]:
    """Read purchase records from a UTF-8 CSV with header trajectory_id, shelf_id, quantity.

    A leading BOM is dropped, as the JSON readers drop it. A byte that is not UTF-8, a row csv
    refuses or a row that is no PurchaseRecord is a ParseError naming the file and the line: the
    bad byte's, or the row's last line as csv counts lines.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    data = data.removeprefix(codecs.BOM_UTF8)  # not "utf-8-sig": its error offsets would not count the BOM
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: bad purchase record: {exc}") from exc  # its repr holds the file
    reader = csv.DictReader(io.StringIO(text, newline=""))
    lines = reader.reader  # its line_num counts the row an error is raised in; DictReader's does not
    required = {"trajectory_id", "shelf_id", "quantity"}
    out = []
    try:
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ParseError(f"{path}: purchases CSV must have columns {sorted(required)}")
        for row in reader:
            try:
                out.append(PurchaseRecord(row["trajectory_id"], int(row["shelf_id"]), int(row["quantity"])))
            except (ValueError, TypeError) as exc:
                raise ParseError(f"{path}:{lines.line_num}: bad purchase record: {exc!r}") from exc
    except csv.Error as exc:  # a field over csv's size limit, or a NUL byte before Python 3.11
        raise ParseError(f"{path}:{lines.line_num}: bad purchase record: {exc!r}") from exc
    return out
