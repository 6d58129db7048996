"""parse_record decodes with orjson where it can, and with json where their outcomes could differ.

The reference below is the json-only parser: every line must give the
same (trajectory_id, store_id, rows) with bit-identical rows, or raise
the same ParseError text.
"""

import json
import math
import uuid
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfscan import cli, kinematics
from shelfscan.errors import ParseError
from shelfscan.kinematics import _sample_rows, fork_map, parse_record, read_lines, read_trajectories


def reference(line: bytes, where: str):
    """parse_record as json alone decodes a record."""
    try:
        rec = json.loads(line)
        trajectory_id, store_id = str(rec["trajectory_id"]), str(rec["store_id"])
        rows = _sample_rows(rec["samples"], where, b"true" in line or b"false" in line)
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, OverflowError,
            RecursionError) as exc:
        raise ParseError(f"{where}: bad trajectory record: {exc!r}") from exc
    return trajectory_id, store_id, rows


def outcome(parse, line):
    """What `parse` makes of a line: its ids and rows as bytes, or its ParseError text."""
    try:
        trajectory_id, store_id, rows = parse(line, "t.jsonl:7")
    except ParseError as exc:
        return "ParseError", str(exc)
    return trajectory_id, store_id, rows.dtype.str, rows.shape, rows.tobytes()


def assert_same_outcome(line):
    assert outcome(parse_record, line) == outcome(reference, line)


def no_json_loads(*args, **kwargs):
    raise AssertionError("json.loads was called")


@pytest.fixture
def no_json_decode(monkeypatch):
    """Fail the test if json.loads is called: only orjson may decode."""
    monkeypatch.setattr(json, "loads", no_json_loads)


def record_line(tokens_per_row, trajectory_id='"a"', store_id='"s"'):
    rows = ", ".join("[" + ", ".join(row) + "]" for row in tokens_per_row)
    return f'{{"trajectory_id": {trajectory_id}, "store_id": {store_id}, "samples": [{rows}]}}'.encode()


_floats = st.floats(allow_nan=False, allow_infinity=False)
PLAIN_NUMBER = st.one_of(
    _floats.map(repr),
    _floats.map(lambda x: "%.20g" % x),
    _floats.map(lambda x: "%.25e" % x),
    _floats.map(lambda x: "%.16g" % x),
    st.integers(-(2 ** 64), 2 ** 64).map(str),
    st.integers(-(10 ** 30), 10 ** 30).map(str),  # beyond 64 bits too
)
NUMBER = st.one_of(
    PLAIN_NUMBER,
    st.just("1" + "0" * 400),  # an integer beyond the double range
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0",
                     "4.9e-324", "2.4703282292062327e-324", "1.7976931348623157e308", "1E5"]),
)
# a literal, perhaps with whitespace before its delimiter
LITERAL = st.tuples(st.sampled_from(["true", "false"]), st.sampled_from(["", " ", "\t", "\r", "\n"])).map("".join)
VALUE = st.one_of(NUMBER, NUMBER, NUMBER, LITERAL,
                  st.sampled_from(["true", "false", "null", '"1.0"', "[1.0]", "{}"]))
PLAIN_STRING = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
STRING = st.one_of(
    PLAIN_STRING.map(json.dumps),
    PLAIN_STRING.map(lambda s: json.dumps(s, ensure_ascii=False)),
    st.sampled_from(['"\\ud800"', '"x\\udfff"', '"\\ud83d\\ude00"', '"\\u00e9\\n"', '"[{]}"']),
)
UUID = st.uuids().map(lambda u: json.dumps(str(u)))
ID = st.one_of(STRING, STRING, NUMBER, UUID,
               st.sampled_from(["123456789012345678901234567890", "null", "[]", "true", '"true"', '"false"',
                                '"e"', '"e,"']))


@st.composite
def lines(draw):
    """A trajectory line: a plain record half the time, else one with values, ids or bytes json reads its own way."""
    odd = draw(st.booleans())
    row = (st.lists(VALUE, min_size=0, max_size=6) if odd  # ragged rows too
           else st.lists(PLAIN_NUMBER, min_size=4, max_size=4))
    rows = draw(st.lists(row, max_size=5))
    samples = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    ids = ID if odd else st.one_of(PLAIN_STRING.map(json.dumps), UUID)
    pairs = [("trajectory_id", draw(ids)), ("store_id", draw(ids)), ("samples", samples)]
    if draw(st.booleans()):
        pairs.insert(draw(st.integers(0, 3)), draw(st.sampled_from(pairs)))  # a duplicate key
    if draw(st.booleans()):
        pairs.insert(draw(st.integers(0, 3)), ("extra", draw(st.one_of(VALUE, STRING))))
    if odd and draw(st.integers(0, 4)) == 0:
        del pairs[draw(st.integers(0, len(pairs) - 1))]  # a missing key
    text = "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"
    line = text.encode("utf-8", "surrogatepass")
    damage = draw(st.sampled_from(["none", "bom", "latin-1", "garbage", "truncated"])) if odd else "none"
    if damage == "bom":
        line = b"\xef\xbb\xbf" + line
    elif damage == "latin-1":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + b"\xe9" + line[at:]
    elif damage == "garbage":
        line += draw(st.sampled_from([b"x", b"}", b", 1", b" []"]))
    elif damage == "truncated":
        line = line[:draw(st.integers(1, len(line)))]
    return line


@settings(max_examples=1500, deadline=None)
@given(lines())
def test_orjson_and_json_give_the_same_outcome(line):
    assert_same_outcome(line)


@pytest.mark.parametrize("line", [
    record_line([["0.0", "1.0", "2.0", "0.5"]] * 3),
    record_line([["0", "1", "2", "3"]] * 3),
    record_line([["0.1", "NaN", "2.0", "0.5"], ["0.2", "1.0", "2.0", "0.5"]]),
    record_line([["0.1", "1e400", "2.0", "0.5"]]),
    record_line([["0.1", "-1e400", "2.0", "0.5"]]),
    record_line([["0.1", "Infinity", "2.0", "0.5"]]),
    record_line([["0.1", "123456789012345678901234567890", "2.0", "0.5"]]),
    record_line([["0.1", "-123456789012345678901234567890", "2.0", "0.5"]]),
    record_line([["0.1", "18446744073709551615", "2.0", "0.5"]]),
    record_line([["0.1", "123456789012345678901234567890", "2.0"]]),  # ragged, and its repr shows the integer
    record_line([["0.1", "1" + "0" * 400, "2.0", "0.5"]]),
    record_line([["0.1", "true", "2.0", "0.5"]]),
    record_line([["true", "1.0", "2.0", "0.5"]]),  # a literal at a row's start
    record_line([["0.1", "1.0", "2.0", "false"]]),  # and at its end
    record_line([["0.1", "1.0", "2.0", "0.5"], ["false", "1.0", "2.0", "true"]]),
    record_line([["0.1", "true\t", "2.0", "0.5"]]),  # whitespace before the delimiter
    record_line([["0.1", "1.0", "2.0", "false\r"]]),
    record_line([["0.1", "1.0", "2.0", "true\n"]]),
    record_line([["0.1", "1.0", "false\r\n\t ", "0.5"]]),
    record_line([["0.1", "1.0", "2.0", "0.5"]], trajectory_id='"true"', store_id='"false"'),
    record_line([["0.1", "1.0", "2.0", "0.5"]], trajectory_id='"3fa85f64-5717-4562-b3fc-2c963f66afa6"'),
    record_line([["0.1", "1.0", "2.0", "0.5"]], trajectory_id='"123e4567-e89b-12d3-a456-4266141740ee"'),
    record_line([["0.1", "1.0", "2.0", "0.5"]], trajectory_id='"a e, b"'),  # a string flagged as may-hold
    b'{"trajectory_id": "a", "store_id": "s", "samples": [[0, 1, 2, 3]]} true',
    b"true",
    b"false ",
    record_line([["0.1", "1.0", "2.0", "0.5"]], trajectory_id="123456789012345678901234567890"),
    record_line([["0.1", "1.0", "2.0", "0.5"]], store_id="-123456789012345678901234567890"),
    record_line([["0.1", "1.0", "2.0", "0.5"]], trajectory_id="12", store_id="0.1"),
    record_line([["0.1", "1.0", "2.0", "0.5"]], trajectory_id='"\\ud800"'),
    record_line([["0.1", "1.0", "2.0", "0.5"]], trajectory_id='"caf\\u00e9 \\ud83d\\ude00"'),
    b"\xef\xbb\xbf" + record_line([["0.1", "1.0", "2.0", "0.5"]]),
    record_line([["0.1", "1.0", "2.0", "0.5"]]).replace(b'"a"', b'"\xe9"'),
    record_line([["0.1", "1.0", "2.0", "0.5"]]) + b" x",
    record_line([["0.1", "1.0", "2.0", "0.5"]])[:-1],
    json.dumps({"trajectory_id": "a", "store_id": "s", "samples": [[0, 1, 2, 3]]}).encode("utf-16"),
    b'{"trajectory_id": "a", "trajectory_id": "b", "store_id": "s", "samples": [[0, 1, 2, 3]]}',
    b'{"trajectory_id": "a", "store_id": "s", "samples": "abc", "samples": [[0, 1, 2, 3]]}',
    b'{"trajectory_id": "a", "store_id": "s", "samples": [[0, 1, 2, 3]], "samples": "abc"}',
    b'{"trajectory_id":"a","store_id":"s","samples":[[0,1,2,3],[0.1,1,2,3]]}',
    b'{"trajectory_id": "a", "store_id": "s", "samples": []}',
    b'["trajectory_id", "store_id", "samples"]',
    b"null",
    b"{}",
], ids=lambda line: repr(line[:60]))
def test_edge_cases_give_json_s_outcome(line):
    assert_same_outcome(line)


def _halfway(x: float) -> list[str]:
    """The exact midpoint between x and the next double up, and decimals just below and above it."""
    with localcontext() as ctx:
        ctx.prec = 1200  # every binary fraction of a double is exact at this precision
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        nudge = abs(mid).scaleb(-40)
        return [str(mid), str(mid - nudge), str(mid + nudge)]


def test_orjson_reads_every_float_string_as_float_does(tmp_path, no_json_decode):
    rng = np.random.default_rng(20240611)
    bits = rng.integers(0, 2 ** 64, size=40_000, dtype=np.uint64).view(np.float64)
    values = [float(x) for x in bits[np.isfinite(bits)]]
    values += [float(x) for x in rng.uniform(-50.0, 50.0, size=20_000)]  # store coordinates
    strings = [repr(x) for x in values]  # shortest round-trip strings
    strings += ["%.20g" % x for x in values[::2]] + ["%.25e" % x for x in values[1::2]]
    strings += ["%.16g" % x for x in values[::3]]  # not always the double it came from
    strings += [s for x in values[:3_000] if abs(x) < 1e300 for s in _halfway(x)]
    # integers beyond 64 bits, which orjson reads as floats: 54 significant bits put some on a halfway
    for sign, m, e, delta in zip(rng.choice([-1, 1], 5_000), rng.integers(0, 2 ** 53, 5_000),
                                 rng.integers(11, 960, 5_000), rng.integers(-1, 2, 5_000)):
        strings.append(str(int(sign) * ((int(m) | 1 << 53) * 2 ** int(e) + int(delta))))
    strings += ["4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400",
                "2.2250738585072011e-308", "1.7976931348623157e308", "-0.0", "9007199254740993",
                "18446744073709553665", "-9223372036854776833"]
    strings += ["0"] * (-len(strings) % 4)
    assert len(strings) >= 100_000
    want = np.array([float(s) for s in strings]).reshape(-1, 4)
    rows = [strings[k:k + 4] for k in range(0, len(strings), 4)]
    for start in range(0, len(rows), 1000):
        _, _, got = parse_record(record_line(rows[start:start + 1000]), "f.jsonl:1")
        assert got.tobytes() == want[start:start + 1000].tobytes()


def test_a_clean_synth_store_is_decoded_by_orjson_alone(tmp_path, monkeypatch):
    store = tmp_path / "store"
    assert cli.main(["synth", "--population", "12", "--shelves", "9", "--noise", "0.05",
                     "--seed", "4", "--out", str(store)]) == 0
    lines = [line for _, line in read_lines(store / "trajectories.jsonl")]
    want = [outcome(reference, line) for line in lines]
    monkeypatch.setattr(json, "loads", no_json_loads)
    assert [outcome(parse_record, line) for line in lines] == want
    assert len(read_trajectories(store / "trajectories.jsonl")) == len(lines) == 12


def test_a_store_of_uuid_ids_never_checks_values_one_by_one(tmp_path, monkeypatch):
    """The boolean pre-check flags no UUID id, though hex ids hold an 'e' (one ends in it)."""
    store = tmp_path / "store"
    assert cli.main(["synth", "--population", "12", "--shelves", "9", "--noise", "0.05",
                     "--seed", "4", "--out", str(store)]) == 0
    ids = ["3fa85f64-5717-4562-b3fc-2c963f66afee", "123e4567-e89b-12d3-a456-426614174000"]
    ids += [str(uuid.UUID(int=int(k) << 64 | 0xE0E)) for k in range(10)]
    path = tmp_path / "uuid.jsonl"
    with open(path, "w") as fh:
        for trajectory_id, (_, line) in zip(ids, read_lines(store / "trajectories.jsonl")):
            rec = json.loads(line)
            fh.write(json.dumps({**rec, "trajectory_id": trajectory_id, "store_id": trajectory_id}) + "\n")

    def per_value(samples, where):
        raise AssertionError(f"{where}: values checked one by one")

    monkeypatch.setattr(kinematics, "_checked_rows", per_value)
    assert [traj.trajectory_id for traj in read_trajectories(path)] == ids


@pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")])
def test_a_long_record_is_decoded_by_orjson_alone(separators, monkeypatch):
    # 10,000 rows: more brackets than orjson is given unchecked, yet the record nests 3 deep
    samples = [[k * 0.1, 1.5, -2.25, 0.125 * (k % 8)] for k in range(10_000)]
    line = json.dumps({"trajectory_id": "long", "store_id": "s", "samples": samples},
                      separators=separators).encode()
    want = outcome(reference, line)
    monkeypatch.setattr(json, "loads", no_json_loads)
    assert outcome(parse_record, line) == want


DEEP = 100_000


@pytest.mark.parametrize("line", [
    b"[" * DEEP,
    b"[" * (10 * DEEP) + b"]" * (10 * DEEP),  # orjson 3.8 overflows its C stack on this one
    b"[1, " * DEEP,
    b'{"a": ' * DEEP,
    record_line([["0.1", "1.0", "2.0", "0.5"]])[:-1] + b', "x": ' + b"[" * 2000 + b"]" * 2000 + b"}",
    b'{"trajectory_id": ' + b"[" * 2000 + b"]" * 2000 + b', ' + record_line([["0.1", "1.0", "2.0", "0.5"]])[1:],
    b'{"trajectory_id": "a", "store_id": "s", "samples": ' + b"[" * 4000 + b"]" * 4000 + b"}",
], ids=["brackets", "balanced-brackets", "lists", "objects", "deep-extra-key", "deep-duplicate-key",
        "deep-samples"])
def test_a_record_nested_too_deep_is_a_parse_error(line):
    # the last three nest 2,000 or 4,000 deep: orjson would decode them, json cannot. Each line is parsed
    # in a forked child, so a decoder that overflows its stack fails this test, not the run
    with pytest.raises(ParseError, match=r"^t\.jsonl:7: bad trajectory record: RecursionError"):
        list(fork_map(parse_record, [(line, "t.jsonl:7")], 2))
    assert_same_outcome(line)
