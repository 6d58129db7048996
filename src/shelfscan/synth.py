"""Synthetic stores, scripted shoppers, and exact ground truth.

Everything here exists so the detector can be exercised and verified at
desk scale: layouts come from a parametric aisle template, shoppers
follow waypoint scripts (walk legs at constant speed, timed dwells facing
a chosen shelf), and the intended browsing episodes are recorded as
ground truth at the script level. Gaussian jitter can be added per sample
to position and heading, before any smoothing, so the low-pass filter has
real work to do.

Generation is deterministic given the scenario seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .errors import InfeasibleScript, ParseError, ShelfScanError, ValidationError, non_negative
from .kinematics import DT, Trajectory, wrap_angle
from .layout import Obstacle, Portal, Segment2D, Shelf, StoreLayout


@dataclass(frozen=True)
class Waypoint:
    """A target point, optionally with a timed dwell on arrival.

    While dwelling the shopper faces `face_shelf` (the midpoint of its
    face) when given, otherwise holds `heading` when given, otherwise
    keeps the direction of arrival. `speed` overrides the scenario walk
    speed for the leg leading into this waypoint.
    """

    target: tuple[float, float]
    dwell: float = 0.0
    face_shelf: int | None = None
    heading: float | None = None
    speed: float | None = None


@dataclass(frozen=True)
class ShopperScript:
    trajectory_id: str
    waypoints: tuple[Waypoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(self.waypoints))


@dataclass(frozen=True)
class LayoutTemplate:
    """Parametric aisle store: rows of contiguous shelves facing south."""

    n_shelves: int
    shelf_length: float = 2.0
    shelf_depth: float = 0.8
    aisle_width: float = 3.0
    shelves_per_row: int | None = None
    shelf_gap: float = 0.5


@dataclass(frozen=True)
class ScenarioSpec:
    store_id: str
    template: LayoutTemplate
    scripts: tuple[ShopperScript, ...]
    walk_speed: float = 1.0
    position_noise: float = 0.0   # std of per-sample jitter, meters
    heading_noise: float = 0.0    # std of per-sample jitter, radians
    seed: int = 0
    max_samples: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "scripts", tuple(self.scripts))
        non_negative("seed", self.seed)
        # a non-positive walk speed is generate's InfeasibleScript; NaN would get past that check
        if not math.isfinite(self.walk_speed):
            raise ValidationError(f"walk_speed must be finite, got {self.walk_speed}")
        for name in ("position_noise", "heading_noise"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # False for NaN too
                raise ValidationError(f"{name} must be a finite std >= 0, got {value}")


@dataclass(frozen=True)
class GroundTruth:
    """Scripted browsing episodes per trajectory: (shelf_id, t_start, t_end)."""

    episodes: dict[str, tuple[tuple[int, float, float], ...]] = field(default_factory=dict)

    def __post_init__(self):
        for tid, eps in self.episodes.items():
            last_end = -math.inf
            for shelf_id, t0, t1 in eps:
                if t0 < last_end:
                    raise InfeasibleScript(f"overlapping episodes for trajectory {tid!r}")
                last_end = t1


def make_layout(template: LayoutTemplate, store_id: str = "synthetic") -> StoreLayout:
    """Instantiate the aisle template as a validated layout.

    Shelf faces carry normal (0, -1) into the aisle below; each back edge
    and the four perimeter walls are obstacles. Two portals sit on the
    south wall.
    """
    n = template.n_shelves
    if n < 1:
        raise InfeasibleScript(f"template needs at least one shelf, got {n}")
    per_row = template.shelves_per_row or max(1, math.ceil(math.sqrt(n)))
    n_rows = math.ceil(n / per_row)
    length, depth = template.shelf_length, template.shelf_depth
    gap, aisle = template.shelf_gap, template.aisle_width
    margin = aisle
    width = 2 * margin + per_row * length + (per_row - 1) * gap
    height = margin + n_rows * (aisle + depth) + margin

    shelves = []
    backs = []
    for i in range(n):
        row, col = divmod(i, per_row)
        x0 = margin + col * (length + gap)
        y = margin + aisle + row * (aisle + depth)
        shelves.append(Shelf(
            id=i + 1,
            face=Segment2D((x0, y), (x0 + length, y)),
            normal=(0.0, -1.0),
        ))
        backs.append(Segment2D((x0, y + depth), (x0 + length, y + depth)))

    walls = [
        Segment2D((0.0, 0.0), (width, 0.0)),
        Segment2D((width, 0.0), (width, height)),
        Segment2D((width, height), (0.0, height)),
        Segment2D((0.0, height), (0.0, 0.0)),
    ]
    obstacles = tuple(
        Obstacle(id=n + 1 + k, segment=seg) for k, seg in enumerate(backs + walls)
    )
    portals = (
        Portal(id=1, segment=Segment2D((width * 0.2, 0.0), (width * 0.3, 0.0))),
        Portal(id=2, segment=Segment2D((width * 0.7, 0.0), (width * 0.8, 0.0))),
    )
    return StoreLayout(
        store_id=store_id,
        shelves=tuple(shelves),
        obstacles=obstacles,
        portals=portals,
        area_m2=width * height,
    )


def stand_point(layout: StoreLayout, shelf_id: int, distance: float) -> tuple[float, float]:
    """The point `distance` meters in front of a shelf face's midpoint."""
    shelf = layout.shelves[shelf_id - 1]
    mx, my = shelf.face.midpoint
    return (mx + shelf.normal[0] * distance, my + shelf.normal[1] * distance)


def facing_heading(layout: StoreLayout, shelf_id: int, origin) -> float:
    shelf = layout.shelves[shelf_id - 1]
    mx, my = shelf.face.midpoint
    return math.atan2(my - origin[1], mx - origin[0])


def _build_timeline(script: ShopperScript, layout: StoreLayout, speed: float,
                    bounds) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """Noise-free positions/thetas plus dwell sample spans per waypoint."""
    xmin, ymin, xmax, ymax = bounds
    pos: list[np.ndarray] = []  # one block of samples per leg or dwell
    theta: list[np.ndarray] = []
    episodes: list[tuple[int, int, int]] = []  # (shelf_id, first sample, last sample)

    for w in script.waypoints:
        tx, ty = w.target
        if not (xmin - 1.0 <= tx <= xmax + 1.0 and ymin - 1.0 <= ty <= ymax + 1.0):
            raise InfeasibleScript(
                f"waypoint {w.target} of {script.trajectory_id!r} lies outside the store"
            )
        if w.dwell < 0:
            raise InfeasibleScript(f"negative dwell in {script.trajectory_id!r}")
        if w.face_shelf is not None and not 1 <= w.face_shelf <= layout.n_shelves:
            raise InfeasibleScript(
                f"script {script.trajectory_id!r} faces unknown shelf {w.face_shelf}"
            )

        leg_speed = w.speed if w.speed is not None else speed
        if leg_speed <= 0:
            raise InfeasibleScript(f"non-positive leg speed in {script.trajectory_id!r}")
        if not pos:
            pos.append(np.array([[tx, ty]], dtype=float))
            theta.append(np.zeros(1))
        else:
            cx, cy = pos[-1][-1]
            dist = math.hypot(tx - cx, ty - cy)
            if dist > 1e-12:
                n_steps = max(1, math.ceil(dist / (leg_speed * DT)))
                f = np.arange(1, n_steps + 1) / n_steps
                pos.append(np.column_stack((cx + f * (tx - cx), cy + f * (ty - cy))))
                theta.append(np.full(n_steps, math.atan2(ty - cy, tx - cx)))

        n_dwell = int(round(w.dwell / DT)) + 1 if w.dwell > 0 else 0
        if n_dwell:
            if w.face_shelf is not None:
                h = facing_heading(layout, w.face_shelf, (tx, ty))
            elif w.heading is not None:
                h = wrap_angle(w.heading)
            else:
                h = theta[-1][-1]
            first = sum(map(len, pos))
            pos.append(np.full((n_dwell, 2), (tx, ty), dtype=float))
            theta.append(np.full(n_dwell, h))
            if w.face_shelf is not None:
                episodes.append((w.face_shelf, first, first + n_dwell - 1))

    n = sum(map(len, pos))
    if n < 3:  # keep even a degenerate script usable downstream
        pos.append(np.full((3 - n, 2), pos[-1][-1] if pos else (xmin, ymin), dtype=float))
        theta.append(np.full(3 - n, theta[-1][-1] if theta else 0.0))
    pos, theta = np.concatenate(pos), np.concatenate(theta)
    if len(script.waypoints) >= 2 and script.waypoints[0].dwell == 0:
        # the spawn sample looks toward the first leg rather than at 0 rad
        theta[0] = theta[1]
    return pos, theta, episodes


def generate(spec: ScenarioSpec):
    """Realize a scenario: (trajectories, ground truth, layout)."""
    if spec.walk_speed <= 0:
        raise InfeasibleScript(f"walk speed must be positive, got {spec.walk_speed}")
    layout = make_layout(spec.template, store_id=spec.store_id)
    bounds = layout.bounds
    rng = np.random.default_rng(spec.seed)
    trajectories = []
    truth: dict[str, tuple[tuple[int, float, float], ...]] = {}
    for script in spec.scripts:
        pos, theta, spans = _build_timeline(script, layout, spec.walk_speed, bounds)
        if spec.position_noise > 0:
            pos = pos + rng.normal(0.0, spec.position_noise, pos.shape)
        if spec.heading_noise > 0:
            theta = theta + rng.normal(0.0, spec.heading_noise, theta.shape)
        if spec.max_samples is not None and len(pos) > spec.max_samples:
            keep = max(spec.max_samples, 3)
            pos, theta = pos[:keep], theta[:keep]
            spans = [
                (sid, s, min(e, keep - 1)) for sid, s, e in spans if s <= keep - 1
            ]
        times = np.arange(len(pos)) * DT
        trajectories.append(Trajectory(
            script.trajectory_id, spec.store_id, times, pos, wrap_angle(theta)
        ))
        truth[script.trajectory_id] = tuple(
            (sid, float(times[s]), float(times[e])) for sid, s, e in spans
        )
    return trajectories, GroundTruth(episodes=truth), layout


def browsing_script(layout: StoreLayout, trajectory_id: str, visits,
                    entry: tuple[float, float] | None = None) -> ShopperScript:
    """Script a trip that browses `visits` = [(shelf_id, distance, dwell), ...].

    Before each browse the shopper detours to a staging point offset
    sideways in the aisle, so the final approach is a short lateral leg
    rather than a long walk head-on into the face.
    """
    xmin, ymin, xmax, _ = layout.bounds
    if entry is None:
        entry = ((xmin + xmax) / 2.0, ymin + 1.0)
    waypoints = [Waypoint(target=entry)]
    for shelf_id, distance, dwell in visits:
        sx, sy = stand_point(layout, shelf_id, distance)
        shelf = layout.shelves[shelf_id - 1]
        fx, fy = shelf.face.vector
        flen = shelf.face.length
        lateral = flen / 2.0 + 1.0
        waypoints.append(Waypoint(target=(sx + lateral * fx / flen, sy + lateral * fy / flen)))
        waypoints.append(Waypoint(target=(sx, sy), dwell=dwell, face_shelf=shelf_id))
    waypoints.append(Waypoint(target=entry))
    return ShopperScript(trajectory_id=trajectory_id, waypoints=tuple(waypoints))


def population_scenario(seed: int, n_trajectories: int, n_shelves: int = 19,
                        store_id: str = "synthetic", noise: float = 0.0,
                        max_visits: int = 7) -> ScenarioSpec:
    """A whole shopper population with varied browsing behavior.

    Each trip mixes standing dwells (continuous durations and distances)
    with slow creeping approaches toward a face at continuously varied
    speeds, so detector output depends sharply on all three thresholds;
    useful for planted-truth calibration experiments. A negative seed or
    n_trajectories raises ValidationError.
    """
    n_trajectories = non_negative("n_trajectories", n_trajectories)
    rng = np.random.default_rng(non_negative("seed", seed))
    template = LayoutTemplate(n_shelves=n_shelves)
    layout = make_layout(template, store_id=store_id)
    xmin, ymin, xmax, _ = layout.bounds
    entry = ((xmin + xmax) / 2.0, ymin + 1.0)
    scripts = []
    for i in range(n_trajectories):
        waypoints = [Waypoint(target=entry)]
        for _ in range(int(rng.integers(2, max_visits + 1))):
            shelf_id = int(rng.integers(1, n_shelves + 1))
            shelf = layout.shelves[shelf_id - 1]
            fx, fy = shelf.face.vector
            flen = shelf.face.length
            if rng.random() < 0.35:
                # creep straight in toward the face at a slow, varied pace
                creep_speed = float(rng.uniform(0.25, 0.9))
                d_near = float(rng.uniform(0.3, 0.9))
                d_far = min(d_near + creep_speed * float(rng.uniform(1.5, 4.5)), 2.6)
                waypoints.append(Waypoint(target=stand_point(layout, shelf_id, d_far)))
                waypoints.append(Waypoint(
                    target=stand_point(layout, shelf_id, d_near),
                    dwell=float(rng.uniform(0.0, 2.5)),
                    face_shelf=shelf_id,
                    speed=creep_speed,
                ))
            else:
                sx, sy = stand_point(layout, shelf_id, float(rng.uniform(0.3, 2.4)))
                lateral = flen / 2.0 + 1.0
                waypoints.append(Waypoint(
                    target=(sx + lateral * fx / flen, sy + lateral * fy / flen)
                ))
                waypoints.append(Waypoint(
                    target=(sx, sy),
                    dwell=float(rng.uniform(0.4, 4.5)),
                    face_shelf=shelf_id,
                ))
        waypoints.append(Waypoint(target=entry))
        scripts.append(ShopperScript(trajectory_id=f"trip-{i:05d}", waypoints=tuple(waypoints)))
    return ScenarioSpec(
        store_id=store_id,
        template=template,
        scripts=tuple(scripts),
        walk_speed=1.0,
        position_noise=noise,
        heading_noise=noise,
        seed=int(rng.integers(0, 2**31)),
    )


def check_max_len(max_len: int) -> int:
    """Return `max_len`, or raise ValidationError below the 3 samples a trajectory needs."""
    if max_len < 3:
        raise ValidationError(f"max_len must be at least 3 samples, got {max_len}")
    return max_len


def random_scenario(seed: int, max_len: int = 2000) -> ScenarioSpec:
    """A randomized scenario for detector/oracle equivalence sweeps.

    Varies shelf count (1..50), store geometry, script shape, walk speed,
    noise level and trajectory length (3..max_len samples); see check_max_len.
    """
    check_max_len(max_len)
    rng = np.random.default_rng(seed)
    n_shelves = int(rng.integers(1, 51))
    template = LayoutTemplate(
        n_shelves=n_shelves,
        shelf_length=float(rng.uniform(1.0, 2.5)),
        shelf_depth=float(rng.uniform(0.4, 1.0)),
        aisle_width=float(rng.uniform(2.0, 4.0)),
        shelf_gap=float(rng.choice([0.0, 0.5])),
    )
    layout = make_layout(template)
    xmin, ymin, xmax, ymax = layout.bounds
    noise_pos, noise_head = [(0.0, 0.0), (0.03, 0.05), (0.15, 0.3)][int(rng.integers(0, 3))]
    scripts = []
    for i in range(int(rng.integers(1, 3))):
        waypoints = []
        for _ in range(int(rng.integers(2, 7))):
            if rng.random() < 0.6:
                shelf_id = int(rng.integers(1, n_shelves + 1))
                target = stand_point(layout, shelf_id, float(rng.uniform(0.3, 2.5)))
                waypoints.append(Waypoint(
                    target=target,
                    dwell=float(rng.uniform(0.0, 4.0)),
                    face_shelf=shelf_id,
                ))
            else:
                target = (float(rng.uniform(xmin, xmax)), float(rng.uniform(ymin, ymax)))
                dwell = float(rng.choice([0.0, rng.uniform(0.0, 1.5)]))
                heading = float(rng.uniform(-math.pi, math.pi)) if rng.random() < 0.5 else None
                waypoints.append(Waypoint(target=target, dwell=dwell, heading=heading))
        scripts.append(ShopperScript(trajectory_id=f"rand-{seed}-{i}", waypoints=tuple(waypoints)))
    # cubic skew keeps the sweep fast while still reaching the long tail
    max_samples = int(3 + (max_len - 3) * rng.random() ** 3)
    return ScenarioSpec(
        store_id="synthetic",
        template=template,
        scripts=tuple(scripts),
        walk_speed=float(rng.uniform(0.4, 1.5)),
        position_noise=noise_pos,
        heading_noise=noise_head,
        seed=int(rng.integers(0, 2**31)),
        max_samples=max_samples,
    )


def _from_dict(cls, doc: dict, **nested):
    """A `cls` from the keys of doc named after its fields; a key left out takes the field's default.

    A field annotated str, int or float is converted by that type, a field
    named in `nested` by the function given for it, any other as it is.
    """
    types = get_type_hints(cls)
    convert = {f.name: nested.get(f.name, types[f.name] if types[f.name] in (str, int, float) else None)
               for f in fields(cls)}
    return cls(**{name: fn(doc[name]) if fn else doc[name]
                  for name, fn in convert.items() if name in doc})


def scenario_from_dict(doc: dict) -> ScenarioSpec:
    """The ScenarioSpec of a scenario document, as write_scenario writes it.

    A value that does not convert, or a missing key that has no default,
    raises ParseError; a value the scenario types reject keeps its own error.
    """
    def waypoint(w):
        return _from_dict(Waypoint, w, target=lambda t: (float(t[0]), float(t[1])))

    def script(s):
        return _from_dict(ShopperScript, s, waypoints=lambda ws: tuple(map(waypoint, ws)))

    try:
        return _from_dict(ScenarioSpec, doc, template=lambda t: _from_dict(LayoutTemplate, t),
                          scripts=lambda ss: tuple(map(script, ss)))
    except ShelfScanError:
        raise  # a value the scenario types reject keeps its own error
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed scenario document: {exc!r}") from exc


def read_scenario(path) -> ScenarioSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse scenario file {path}: {exc}") from exc
    return scenario_from_dict(doc)


def write_scenario(spec: ScenarioSpec, path) -> None:
    """Write a scenario as indented JSON: asdict(spec), which read_scenario reads back."""
    with open(path, "w") as fh:
        json.dump(asdict(spec), fh, indent=2)
        fh.write("\n")


def write_ground_truth(truth: GroundTruth, path) -> None:
    doc = {tid: [list(ep) for ep in eps] for tid, eps in truth.episodes.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_ground_truth(path) -> GroundTruth:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        episodes = {
            str(tid): tuple((int(s), float(t0), float(t1)) for s, t0, t1 in eps)
            for tid, eps in doc.items()
        }
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ParseError(f"cannot parse ground truth file {path}: {exc!r}") from exc
    return GroundTruth(episodes=episodes)
