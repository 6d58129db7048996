import json
import math

import pytest

from shelfscan import (
    LayoutTemplate,
    Obstacle,
    Portal,
    Segment2D,
    Shelf,
    StoreLayout,
    all_segments,
    load_layout,
    make_layout,
    save_layout,
)
from shelfscan.errors import ParseError, ValidationError


def write_layout_doc(tmp_path, doc, name="layout.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "store_id": "mini",
    "shelves": [{"id": 1, "face": [[0, 0], [2, 0]], "normal": [0, 1]}],
}


def test_load_minimal_single_shelf(tmp_path):
    layout = load_layout(write_layout_doc(tmp_path, MINIMAL))
    assert layout.n_shelves == 1
    assert layout.store_id == "mini"
    assert layout.shelves[0].face.a == (0.0, 0.0)
    assert layout.shelves[0].normal == (0.0, 1.0)
    assert layout.obstacles == ()


def test_load_nineteen_shelves_two_portals(tmp_path):
    # the s1-sized configuration: 19 shelves, 2 entrances/exits
    path = tmp_path / "s1.json"
    save_layout(make_layout(LayoutTemplate(n_shelves=19), store_id="s1"), path)
    layout = load_layout(path)
    assert layout.n_shelves == 19
    assert len(layout.portals) == 2
    assert all(p.entrance or p.exit for p in layout.portals)


def test_non_perpendicular_normal_rejected(tmp_path):
    doc = {
        "store_id": "bad",
        "shelves": [{"id": 1, "face": [[0, 0], [2, 0]], "normal": [1, 0]}],
    }
    with pytest.raises(ValidationError) as err:
        load_layout(write_layout_doc(tmp_path, doc))
    assert "shelf 1" in str(err.value)


def test_normal_renormalized_within_tolerance():
    shelf = Shelf(id=1, face=Segment2D((0, 0), (2, 0)), normal=(0.0, 1.0 + 5e-7))
    assert math.hypot(*shelf.normal) == pytest.approx(1.0, abs=1e-12)


def test_normal_far_from_unit_rejected():
    with pytest.raises(ValidationError):
        Shelf(id=1, face=Segment2D((0, 0), (2, 0)), normal=(0.0, 1.1))


def test_degenerate_segment_rejected():
    with pytest.raises(ValidationError):
        Segment2D((1.0, 1.0), (1.0, 1.0))


def test_gapped_shelf_ids_rejected():
    shelves = (
        Shelf(id=1, face=Segment2D((0, 0), (2, 0)), normal=(0, 1)),
        Shelf(id=3, face=Segment2D((0, 2), (2, 2)), normal=(0, 1)),
    )
    with pytest.raises(ValidationError):
        StoreLayout(store_id="gap", shelves=shelves)


def test_portal_needs_a_flag():
    with pytest.raises(ValidationError):
        Portal(id=1, segment=Segment2D((0, 0), (1, 0)), entrance=False, exit=False)


def test_parse_error_on_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_layout(path)


def test_parse_error_on_missing_keys(tmp_path):
    with pytest.raises(ParseError):
        load_layout(write_layout_doc(tmp_path, {"shelves": []}))


@pytest.mark.parametrize("edit", [
    {"area_m2": "big"},
    {"shelves": [{**MINIMAL["shelves"][0], "id": "one"}]},
    {"shelves": [{**MINIMAL["shelves"][0], "face": [[0, 0, 0], [2, 0]]}]},
    {"shelves": [{**MINIMAL["shelves"][0], "normal": ["up", 1]}]},
    {"shelves": ["shelf 1"]},
])
def test_a_value_that_does_not_convert_is_a_parse_error(tmp_path, edit):
    with pytest.raises(ParseError, match="^malformed layout document: "):
        load_layout(write_layout_doc(tmp_path, {**MINIMAL, **edit}))


WITH_OBSTACLE_AND_PORTAL = {
    **MINIMAL,
    "obstacles": [{"id": 2, "segment": [[0, 3], [2, 3]]}],
    "portals": [{"id": 1, "segment": [[3, 0], [3, 1]]}],
}


@pytest.mark.parametrize("key", ["shelves", "obstacles", "portals"])
@pytest.mark.parametrize("element_id", [1.9, 2.0, True, "3", None])
def test_an_element_id_that_is_not_a_json_integer_is_a_parse_error(tmp_path, key, element_id):
    layout = load_layout(write_layout_doc(tmp_path, WITH_OBSTACLE_AND_PORTAL))
    assert (layout.shelves[0].id, layout.obstacles[0].id, layout.portals[0].id) == (1, 2, 1)
    doc = {**WITH_OBSTACLE_AND_PORTAL, key: [{**WITH_OBSTACLE_AND_PORTAL[key][0], "id": element_id}]}
    with pytest.raises(ParseError, match="^malformed layout document: .*id must be a JSON integer"):
        load_layout(write_layout_doc(tmp_path, doc))


def two_shelves_one_obstacle():
    return StoreLayout(
        store_id="two",
        shelves=(
            Shelf(id=1, face=Segment2D((0, 0), (2, 0)), normal=(0, 1)),
            Shelf(id=2, face=Segment2D((3, 0), (5, 0)), normal=(0, 1)),
        ),
        obstacles=(Obstacle(id=3, segment=Segment2D((0, 5), (5, 5))),),
    )


def test_all_segments_order_and_flags():
    layout = two_shelves_one_obstacle()
    segs = all_segments(layout)
    assert [s[0] for s in segs] == [1, 2, 3]
    assert [s[2] for s in segs] == [True, True, False]


def test_all_segments_without_obstacles(single_shelf_layout):
    segs = all_segments(single_shelf_layout)
    assert [s[0] for s in segs] == [1]
    assert all(flag for _, _, flag in segs)


def test_all_segments_nineteen_shelves_lead():
    layout = make_layout(LayoutTemplate(n_shelves=19), store_id="s1")
    segs = all_segments(layout)
    assert [s[0] for s in segs[:19]] == list(range(1, 20))
    assert all(flag for _, _, flag in segs[:19])
    assert not any(flag for _, _, flag in segs[19:])


def test_all_segments_is_pure():
    layout = two_shelves_one_obstacle()
    assert all_segments(layout) == all_segments(layout)


def test_normals_perpendicular_after_load(tmp_path):
    path = tmp_path / "s.json"
    save_layout(make_layout(LayoutTemplate(n_shelves=7, shelf_gap=0.0), store_id="s"), path)
    layout = load_layout(path)
    for shelf in layout.shelves:
        fx, fy = shelf.face.vector
        assert abs(shelf.normal[0] * fx + shelf.normal[1] * fy) < 1e-9 * shelf.face.length


def test_save_load_round_trip(tmp_path):
    original = make_layout(
        LayoutTemplate(n_shelves=11, shelf_length=1.7, aisle_width=2.3), store_id="round"
    )
    path = tmp_path / "round.json"
    save_layout(original, path)
    loaded = load_layout(path)
    assert loaded == original
    # and a second trip is byte-stable
    path2 = tmp_path / "round2.json"
    save_layout(loaded, path2)
    assert path.read_text() == path2.read_text()


def test_obstacle_ids_must_continue_shelf_ids():
    with pytest.raises(ValidationError):
        StoreLayout(
            store_id="bad",
            shelves=(Shelf(id=1, face=Segment2D((0, 0), (2, 0)), normal=(0, 1)),),
            obstacles=(Obstacle(id=5, segment=Segment2D((0, 5), (5, 5))),),
        )


def test_loader_sorts_by_id(tmp_path):
    doc = {
        "store_id": "scrambled",
        "shelves": [
            {"id": 2, "face": [[0, 2], [2, 2]], "normal": [0, 1]},
            {"id": 1, "face": [[0, 0], [2, 0]], "normal": [0, 1]},
        ],
    }
    layout = load_layout(write_layout_doc(tmp_path, doc))
    assert [s.id for s in layout.shelves] == [1, 2]
    assert layout.shelves[0].face.a == (0.0, 0.0)


def test_degenerate_shelf_face_names_element(tmp_path):
    doc = {
        "store_id": "bad",
        "shelves": [{"id": 4, "face": [[1, 1], [1, 1]], "normal": [0, 1]}],
    }
    with pytest.raises(ValidationError) as err:
        load_layout(write_layout_doc(tmp_path, doc))
    assert "shelf 4" in str(err.value)


@pytest.mark.parametrize("key, edit, element", [
    ("shelves", {"face": [[0, 0], [math.nan, 0]]}, "shelf 1"),
    ("shelves", {"face": [[0, 0], [math.inf, 0]]}, "shelf 1"),
    ("shelves", {"normal": [0, math.nan]}, "shelf 1"),
    ("shelves", {"normal": [math.nan, 1]}, "shelf 1"),
    ("obstacles", {"segment": [[0, 3], [math.inf, 3]]}, "obstacle 2"),
    ("obstacles", {"segment": [[-math.inf, 3], [math.inf, 3]]}, "obstacle 2"),
    ("obstacles", {"segment": [[-1e308, 3], [1e308, 3]]}, "obstacle 2"),  # finite ends, infinite length
    ("portals", {"segment": [[3, math.nan], [3, 1]]}, "portal 1"),
])
def test_non_finite_geometry_is_a_validation_error_naming_the_element(tmp_path, key, edit, element):
    doc = {**WITH_OBSTACLE_AND_PORTAL, key: [{**WITH_OBSTACLE_AND_PORTAL[key][0], **edit}]}
    with pytest.raises(ValidationError, match=f"\\(element: {element}\\)$"):
        load_layout(write_layout_doc(tmp_path, doc))


@pytest.mark.parametrize("area", [-5.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_an_area_that_is_not_finite_and_positive_is_a_validation_error(tmp_path, area):
    assert load_layout(write_layout_doc(tmp_path, {**MINIMAL, "area_m2": 12.5})).area_m2 == 12.5
    assert load_layout(write_layout_doc(tmp_path, {**MINIMAL, "area_m2": None})).area_m2 is None
    with pytest.raises(ValidationError, match=r"^area_m2 must be finite and positive.*\(element: mini\)$"):
        load_layout(write_layout_doc(tmp_path, {**MINIMAL, "area_m2": area}))


def test_repeated_portal_ids_are_a_validation_error(tmp_path):
    portal = WITH_OBSTACLE_AND_PORTAL["portals"][0]
    two = {**WITH_OBSTACLE_AND_PORTAL, "portals": [portal, {**portal, "id": 4}]}
    assert [p.id for p in load_layout(write_layout_doc(tmp_path, two)).portals] == [1, 4]
    doc = {**WITH_OBSTACLE_AND_PORTAL, "portals": [{**portal, "id": -3}, {**portal, "id": -3}]}
    with pytest.raises(ValidationError, match=r"^portal ids must be distinct, got \[-3, -3\] \(element: mini\)$"):
        load_layout(write_layout_doc(tmp_path, doc))
