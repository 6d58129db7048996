"""The 2D store model: shelf interactive faces, obstacles, portals.

The world is flat. Shelves are represented only by the floor projection of
their product-facing side, a segment with an outward unit normal; every
other sight-blocking edge (shelf backs, walls, pillars) is an obstacle
segment. Portals (entrances/exits) are carried as metadata and play no
role in detection.

Coordinates are meters in a shared world frame; angles are radians,
counterclockwise from the +x axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError, ValidationError
from .kinematics import from_json, json_field, read_document, write_document

MIN_SEGMENT_LENGTH = 1e-9
UNIT_NORM_TOL = 1e-6
PERP_TOL = 1e-6  # radians


@dataclass(frozen=True)
class Segment2D:
    """A non-degenerate line segment between points `a` and `b` (meters)."""

    a: tuple[float, float]
    b: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "a", (float(self.a[0]), float(self.a[1])))
        object.__setattr__(self, "b", (float(self.b[0]), float(self.b[1])))
        if not MIN_SEGMENT_LENGTH < self.length < math.inf:  # False for NaN too
            raise ValidationError(f"degenerate or non-finite segment {self.a}-{self.b}")

    @property
    def vector(self) -> tuple[float, float]:
        return (self.b[0] - self.a[0], self.b[1] - self.a[1])

    @property
    def length(self) -> float:
        return math.hypot(self.b[0] - self.a[0], self.b[1] - self.a[1])

    @property
    def midpoint(self) -> tuple[float, float]:
        return ((self.a[0] + self.b[0]) / 2.0, (self.a[1] + self.b[1]) / 2.0)


@dataclass(frozen=True)
class Shelf:
    """An interactive shelf face with its outward unit normal.

    The normal comes from the layout file and is authoritative; it is only
    validated (unit length, perpendicular to the face) and re-normalized
    when within tolerance, never inferred from vertex winding.
    """

    id: int
    face: Segment2D
    normal: tuple[float, float]

    def __post_init__(self):
        nx, ny = float(self.normal[0]), float(self.normal[1])
        norm = math.hypot(nx, ny)
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # True for NaN too
            raise ValidationError(f"normal {self.normal} is not unit length", element=f"shelf {self.id}")
        nx, ny = nx / norm, ny / norm
        fx, fy = self.face.vector
        flen = self.face.length
        # |sin(angle from perpendicular)| == |dot(n, face_unit)|
        if abs((nx * fx + ny * fy) / flen) > PERP_TOL:
            raise ValidationError("normal not perpendicular to face", element=f"shelf {self.id}")
        object.__setattr__(self, "normal", (nx, ny))


@dataclass(frozen=True)
class Obstacle:
    """A vision-blocking segment that is not an interactive face."""

    id: int
    segment: Segment2D


@dataclass(frozen=True)
class Portal:
    """An entrance and/or exit area; metadata only."""

    id: int
    segment: Segment2D
    entrance: bool = True
    exit: bool = True

    def __post_init__(self):
        if not (self.entrance or self.exit):
            raise ValidationError("portal is neither entrance nor exit", element=f"portal {self.id}")


@dataclass(frozen=True)
class StoreLayout:
    """Validated, immutable store model; safe to share across workers."""

    store_id: str
    shelves: tuple[Shelf, ...]
    obstacles: tuple[Obstacle, ...] = ()
    portals: tuple[Portal, ...] = ()
    area_m2: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "shelves", tuple(self.shelves))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "portals", tuple(self.portals))
        if not self.shelves:
            raise ValidationError("layout has no shelves", element=self.store_id)
        shelf_ids = [s.id for s in self.shelves]
        if shelf_ids != list(range(1, len(shelf_ids) + 1)):
            raise ValidationError(
                f"shelf ids must be exactly 1..{len(shelf_ids)} in order, got {shelf_ids}",
                element=self.store_id,
            )
        n_s = len(shelf_ids)
        obstacle_ids = [o.id for o in self.obstacles]
        if obstacle_ids != list(range(n_s + 1, n_s + 1 + len(obstacle_ids))):
            raise ValidationError(
                f"obstacle ids must be exactly {n_s + 1}..{n_s + len(obstacle_ids)} in order, got {obstacle_ids}",
                element=self.store_id,
            )
        portal_ids = [p.id for p in self.portals]
        if len(set(portal_ids)) != len(portal_ids):
            raise ValidationError(f"portal ids must be distinct, got {portal_ids}", element=self.store_id)
        if self.area_m2 is not None and not (math.isfinite(self.area_m2) and self.area_m2 > 0):
            raise ValidationError(f"area_m2 must be finite and positive, got {self.area_m2}",
                                  element=self.store_id)

    @property
    def n_shelves(self) -> int:
        return len(self.shelves)

    @cached_property
    def segment_points(self) -> np.ndarray:
        """(n_segments, 2, 2) endpoint array, shelves first then obstacles."""
        segs = [s.face for s in self.shelves] + [o.segment for o in self.obstacles]
        return np.array([[seg.a, seg.b] for seg in segs], dtype=float)

    @cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of all segments, portals included."""
        pts = self.segment_points.reshape(-1, 2).tolist()
        for p in self.portals:
            pts.extend([p.segment.a, p.segment.b])
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return (min(xs), min(ys), max(xs), max(ys))


def all_segments(layout: StoreLayout) -> list[tuple[int, Segment2D, bool]]:
    """Every sight-blocking segment as (index, segment, is_shelf_face).

    Indices run 1..n_s over the shelf faces then n_s+1.. over obstacles,
    deterministically, so index <= n_s identifies an interactive face.
    """
    out = [(shelf.id, shelf.face, True) for shelf in layout.shelves]
    out.extend((obs.id, obs.segment, False) for obs in layout.obstacles)
    return out


def load_layout(path) -> StoreLayout:
    """Load and validate a store layout from its JSON file (kinematics.read_document)."""
    return layout_from_dict(read_document(path, "layout file"))


def _segment(value, name: str) -> Segment2D:
    """A segment as a layout file holds it, [[ax, ay], [bx, by]]."""
    return Segment2D(*json_field(value, tuple[tuple[float, float], tuple[float, float]], name))


_ELEMENTS = {"shelves": (Shelf, "shelf"), "obstacles": (Obstacle, "obstacle"), "portals": (Portal, "portal")}


def _elements(items, key: str) -> tuple:
    """The elements of a layout's list `key` (from_json); a ValidationError naming no element names the item."""
    cls, name = _ELEMENTS[key]
    out = []
    for item in json_field(items, tuple[dict, ...], key):
        try:
            out.append(from_json(cls, item, face=_segment, segment=_segment))
        except ValidationError as exc:
            if exc.element is not None:
                raise
            raise ValidationError(str(exc), element=f"{name} {item.get('id')}") from exc
    # file order is not significant for shelves and obstacles, whose ids number them; portals keep it
    return tuple(out) if cls is Portal else tuple(sorted(out, key=lambda element: element.id))


def layout_from_dict(doc: dict) -> StoreLayout:
    """The StoreLayout of a layout document, each value converted by kinematics.json_field.

    A value json_field refuses, or a missing key without a default, is a
    ParseError; a value the layout types reject keeps its own error.
    """
    try:
        return from_json(StoreLayout, doc, shelves=_elements, obstacles=_elements, portals=_elements)
    except (TypeError, OverflowError) as exc:
        raise ParseError(f"malformed layout document: {exc!r}") from exc


def layout_to_dict(layout: StoreLayout) -> dict:
    doc = {
        "store_id": layout.store_id,
        "shelves": [
            {"id": s.id, "face": [list(s.face.a), list(s.face.b)], "normal": list(s.normal)}
            for s in layout.shelves
        ],
        "obstacles": [
            {"id": o.id, "segment": [list(o.segment.a), list(o.segment.b)]}
            for o in layout.obstacles
        ],
        "portals": [
            {
                "id": p.id,
                "segment": [list(p.segment.a), list(p.segment.b)],
                "entrance": p.entrance,
                "exit": p.exit,
            }
            for p in layout.portals
        ],
    }
    if layout.area_m2 is not None:
        doc["area_m2"] = layout.area_m2
    return doc


def save_layout(layout: StoreLayout, path) -> None:
    write_document(layout_to_dict(layout), path)
