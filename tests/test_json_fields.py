"""Every JSON reader converts each field by one rule, kinematics.json_field.

Each field of each reader is replaced, in an otherwise valid file, by a
value of every JSON type the field does not take: null, a bool, a number
(2.5, which no integer field takes), a numeric string, a list and an
object. A data file must then fail with a ParseError whose message names
the field, and a --config file with a usage error that names the key.
"""

import json
from dataclasses import asdict

import pytest

from shelfscan import detector, kinematics, labeling, layout, synth
from shelfscan.cli import main
from shelfscan.errors import ParseError
from shelfscan.synth import LayoutTemplate, ScenarioSpec, ShopperScript, Waypoint

OTHERS = {"null": None, "bool": True, "number": 2.5, "numeric string": "2", "list": [1, 2], "object": {"a": 1}}

# what each field takes of OTHERS: a string field takes the numeric string, a float field the number
STR, INT, FLOAT, BOOL, LIST, OBJECT = {"numeric string"}, set(), {"number"}, {"bool"}, {"list"}, {"object"}
NULL = {"null"}

SCENARIO = json.loads(json.dumps(asdict(ScenarioSpec(
    "s", LayoutTemplate(n_shelves=3, shelves_per_row=2),
    (ShopperScript("t", (Waypoint((1.0, 2.0), dwell=1.0, face_shelf=1, heading=0.5, speed=1.0),)),),
    max_samples=100))))
WAYPOINT = ("scripts", 0, "waypoints", 0)

# reader: (a valid document, how it is written, how it is read, [(the field's path, its name, what it takes)])
READERS = {
    "label": (
        {"reviewer_id": "a", "trajectory_id": "t", "shelf_id": 1, "t_start": 0.0, "t_end": 1.0},
        "jsonl", labeling.read_labels,
        [(("reviewer_id",), "reviewer_id", STR), (("trajectory_id",), "trajectory_id", STR),
         (("shelf_id",), "shelf_id", INT), (("t_start",), "t_start", FLOAT), (("t_end",), "t_end", FLOAT)]),
    "stop event": (
        {"trajectory_id": "t", "shelf_id": 1, "t_s": 0.0, "t_f": 1.0, "duration": 1.0, "min_lambda": 0.5,
         "mean_speed": 0.1},
        "jsonl", detector.read_stop_events,
        [(("trajectory_id",), "trajectory_id", STR), (("shelf_id",), "shelf_id", INT)]
        + [((key,), key, FLOAT) for key in ("t_s", "t_f", "duration", "min_lambda", "mean_speed")]),
    "trajectory record": (
        {"trajectory_id": "t", "store_id": "s", "samples": [[0.0, 0, 0, 0], [0.1, 0, 0, 0], [0.2, 0, 0, 0]]},
        "jsonl", kinematics.read_trajectories,
        [(("trajectory_id",), "trajectory_id", STR), (("store_id",), "store_id", STR),
         (("samples",), "samples", LIST)]),
    "layout": (
        {"store_id": "mini", "area_m2": 12.0,
         "shelves": [{"id": 1, "face": [[0, 0], [2, 0]], "normal": [0, 1]}],
         "obstacles": [{"id": 2, "segment": [[0, 3], [2, 3]]}],
         "portals": [{"id": 1, "segment": [[3, 0], [3, 1]], "entrance": True, "exit": False}]},
        "json", layout.load_layout,
        [(("store_id",), "store_id", STR), (("area_m2",), "area_m2", FLOAT | NULL)]
        + [((key,), key, LIST) for key in ("shelves", "obstacles", "portals")]
        + [((key, 0), key, OBJECT) for key in ("shelves", "obstacles", "portals")]
        + [((key, 0, "id"), "id", INT) for key in ("shelves", "obstacles", "portals")]
        + [(("shelves", 0, "face"), "face", LIST), (("shelves", 0, "face", 1), "face", LIST),
           (("shelves", 0, "face", 1, 0), "face", FLOAT), (("shelves", 0, "normal"), "normal", LIST),
           (("shelves", 0, "normal", 1), "normal", FLOAT), (("obstacles", 0, "segment", 0, 1), "segment", FLOAT),
           (("portals", 0, "segment"), "segment", LIST), (("portals", 0, "entrance"), "entrance", BOOL),
           (("portals", 0, "exit"), "exit", BOOL)]),
    "label manifest": (
        {"n_reviewers": 2, "reviewers": ["a", "b"]},
        "json", labeling.read_label_manifest,
        [(("n_reviewers",), "n_reviewers", INT), (("reviewers",), "reviewers", LIST),
         (("reviewers", 1), "reviewers", STR)]),
    "scenario": (
        SCENARIO, "json", synth.read_scenario,
        [(("store_id",), "store_id", STR), (("template",), "template", OBJECT),
         (("template", "n_shelves"), "n_shelves", INT), (("template", "shelves_per_row"), "shelves_per_row", NULL)]
        + [(("template", key), key, FLOAT) for key in ("shelf_length", "shelf_depth", "aisle_width", "shelf_gap")]
        + [(("scripts",), "scripts", LIST), (("scripts", 0), "scripts", OBJECT),
           (("scripts", 0, "trajectory_id"), "trajectory_id", STR), (("scripts", 0, "waypoints"), "waypoints", LIST),
           (WAYPOINT, "waypoints", OBJECT), ((*WAYPOINT, "target"), "target", LIST),
           ((*WAYPOINT, "target", 1), "target", FLOAT), ((*WAYPOINT, "dwell"), "dwell", FLOAT),
           ((*WAYPOINT, "face_shelf"), "face_shelf", NULL), ((*WAYPOINT, "heading"), "heading", FLOAT | NULL),
           ((*WAYPOINT, "speed"), "speed", FLOAT | NULL)]
        + [((key,), key, FLOAT) for key in ("walk_speed", "position_noise", "heading_noise")]
        + [(("seed",), "seed", INT), (("max_samples",), "max_samples", NULL)]),
    "ground truth": (
        {"t": [[1, 0.0, 1.0]]}, "json", synth.read_ground_truth,
        [(("t",), "t", LIST), (("t", 0), "t", LIST), (("t", 0, 0), "shelf id", INT),
         (("t", 0, 1), "t_start", FLOAT), (("t", 0, 2), "t_end", FLOAT)]),
}

# config keys and what they take; detect reads every key, using its own
CONFIG = ([((key,), INT) for key in ("window", "seed", "repeats", "jobs", "population", "shelves", "scenarios",
                                     "max_len", "cross_repeats")]
          + [((key,), FLOAT) for key in ("t_b", "delta_b", "v_b", "noise", "p")]
          + [(path, kind) for key in ("t_b_range", "delta_b_range", "v_b_range")
             for path, kind in (((key,), LIST), ((key, 1), FLOAT))])
CONFIG_DOC = {"window": 5, "seed": 0, "repeats": 2, "jobs": 1, "population": 3, "shelves": 4, "scenarios": 1,
              "max_len": 50, "cross_repeats": 1, "t_b": 2.0, "delta_b": 1.2, "v_b": 0.55, "noise": 0.0,
              "p": 0.5, "t_b_range": [1.0, 3.0, 0.5], "delta_b_range": [0.6, 1.8, 0.3],
              "v_b_range": [0.25, 0.85, 0.15]}


def replaced(doc, path, value):
    """A copy of doc with the value at path (keys and list indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    inner = doc
    for key in outer:
        inner = inner[key]
    inner[last] = value
    return doc


def cases(fields):
    return [(path, name, kind) for path, name, takes in fields for kind in OTHERS if kind not in takes]


@pytest.mark.parametrize("reader", READERS)
def test_each_reader_reads_its_valid_document(tmp_path, reader):
    doc, form, read, _ = READERS[reader]
    path = tmp_path / f"doc.{form}"
    path.write_text(json.dumps(doc) + "\n")
    read(path)


@pytest.mark.parametrize("reader, path, name, kind", [
    (reader, *case) for reader, (_, _, _, fields) in READERS.items() for case in cases(fields)],
    ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else str(value))
def test_a_field_of_another_json_type_is_a_parse_error_naming_it(tmp_path, reader, path, name, kind):
    doc, form, read, _ = READERS[reader]
    file = tmp_path / f"doc.{form}"
    file.write_text(json.dumps(replaced(doc, path, OTHERS[kind])) + "\n")
    with pytest.raises(ParseError) as err:
        read(file)
    assert f"{name} must be " in str(err.value)


@pytest.mark.parametrize("path, kind", [(path, kind) for path, _, kind in cases(
    [(path, None, takes) for path, takes in CONFIG])],
    ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else str(value))
def test_a_config_key_of_another_json_type_is_a_usage_error_naming_it(tmp_path, capsys, path, kind):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(replaced(CONFIG_DOC, path, OTHERS[kind])))
    assert main(["detect", "--config", str(cfg), "--layout", "layout.json", "--trajectories", "t.jsonl",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config {cfg}: {path[0]} must be a JSON ")
    assert not out.exists()
