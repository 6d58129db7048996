"""parse_record decodes a record of plain sample rows with orjson, and every other line with json.

The reference below is the json-only parser: every line must give the
same (trajectory_id, store_id, rows) with bit-identical rows, or raise
the same ParseError text.
"""

import json
import math
import re
import uuid
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfscan import cli, kinematics
from shelfscan.errors import ParseError
from shelfscan.kinematics import fork_map, parse_record, read_lines, read_trajectories


def reference(line: bytes, where: str):
    """parse_record as json alone decodes a record, each sample value checked by type.

    It shares no code with the parser, so a fault in either shows.
    """
    try:
        rec = json.loads(line)
        for key in ("trajectory_id", "store_id"):
            if type(rec[key]) is not str:
                raise TypeError(f"{key} must be a JSON string, got {rec[key]!r}")
        trajectory_id, store_id = rec["trajectory_id"], rec["store_id"]
        samples = rec["samples"]
        if not isinstance(samples, list):
            raise ParseError(f"{where}: samples must be a list, got {type(samples).__name__}")
        for k, row in enumerate(samples):
            if type(row) is not list or len(row) != 4 or any(type(v) not in (int, float) for v in row):
                raise ParseError(f"{where}: sample {k} is not a list of four numbers: {row!r:.80}")
        rows = np.array(samples, dtype=float).reshape(-1, 4)
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


def no_sample_rows(*args, **kwargs):
    raise AssertionError("_sample_rows was called")


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
# ids that hold what the fast path looks for, or a non-ASCII character raw or escaped
TRAP_ID = st.sampled_from(['"\\"samples\\":"', '"x\\"samples\\": [[1, 2, 3, 4]]"', '"]]"', '"[[0, 1, 2, 3]]"',
                           '"["', '"{"', '"samples"', '"\u00e9"', '"\\u00e9"', '"caf\u00e9 ]]"'])
# a token JSON refuses, or one it reads its own way, among plain numbers
BAD_TOKEN = st.sampled_from(["01", "+1", ".5", "1.", "-", "1e", "1e+", "--1", "1.5.2", "0x1", "1 2", "", "00",
                             "-01", "1e5.5", "1E+2", "1e-2", "-0", "e5", "1-2", "1e400", "NaN", "-Infinity",
                             "true", "false", "null", '"1.0"', "[1.0]", "[]", "{}"])
# spellings of a key that json decodes to the key itself
ESCAPED_KEY = {"trajectory_id": '"trajectory\\u005fid"', "store_id": '"\\u0073tore_id"',
               "samples": '"sampl\\u0065s"', "extra": '"\\u0065xtra"'}
# (item, key) separators: json.dumps' default, compact, and other JSON whitespace
SEPARATORS = [(", ", ": "), (",", ":"), (" ,\n", "\t: ")]


@st.composite
def bracket_moved(draw, samples: str):
    """`samples` with one or two brackets each swapped with a number beside it: '[1[,2,3,4]]'."""
    tokens = re.findall(r"[][]|,|[^][,]+", samples)
    for _ in range(draw(st.integers(1, 2))):
        number = [t not in "[]," and bool(t.strip()) for t in tokens]
        swaps = [k for k in range(len(tokens) - 1)
                 if {tokens[k], tokens[k + 1]} & {"[", "]"} and number[k] != number[k + 1]]
        if swaps:
            k = draw(st.sampled_from(swaps))
            tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
    return "".join(tokens)


@st.composite
def lines(draw):
    """A trajectory line: a plain record half the time, else one with values, ids or bytes json reads its own way.

    Either kind may have shuffled, duplicate or escaped keys, ids that hold
    what the fast path looks for, and one of three separator styles. A
    record of numbers may also have a bracket moved across a number.
    """
    odd = draw(st.booleans())
    item_sep, key_sep = draw(st.sampled_from(SEPARATORS))
    near = draw(st.booleans())  # a plain record but for a bad token or a row of 3 or 5
    row = (st.lists(VALUE, min_size=0, max_size=6) if odd  # ragged rows too
           else st.lists(st.one_of(PLAIN_NUMBER, PLAIN_NUMBER, PLAIN_NUMBER, BAD_TOKEN), min_size=3, max_size=5)
           if near else st.lists(PLAIN_NUMBER, min_size=4, max_size=4))
    rows = draw(st.lists(row, max_size=5))
    samples = "[" + item_sep.join("[" + item_sep.join(row) + "]" for row in rows) + "]"
    if not odd and draw(st.integers(0, 3)) == 0:
        samples = draw(bracket_moved(samples))
    ids = st.one_of(ID, TRAP_ID) if odd else st.one_of(PLAIN_STRING.map(json.dumps), UUID, TRAP_ID)
    pairs = [("trajectory_id", draw(ids)), ("store_id", draw(ids)), ("samples", samples)]
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        pairs.insert(draw(st.integers(0, 3)), draw(st.sampled_from(pairs)))  # a duplicate key
    if draw(st.booleans()):
        key = draw(st.sampled_from(["extra", "extra", "samples", 'x"samples']))  # the last two shadow samples
        pairs.insert(draw(st.integers(0, 3)), (key, draw(st.one_of(VALUE, STRING))))
    if odd and draw(st.integers(0, 4)) == 0:
        del pairs[draw(st.integers(0, len(pairs) - 1))]  # a missing key
    escaped = draw(st.sets(st.sampled_from(sorted(ESCAPED_KEY)))) if draw(st.integers(0, 3)) == 0 else set()
    text = "{" + item_sep.join(
        f"{ESCAPED_KEY[key] if key in escaped else json.dumps(key)}{key_sep}{value}" for key, value in pairs) + "}"
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
    # a second samples key, escaped or holding an escaped quote, that is an integer in the head
    b'{"trajectory_id": "a", "store_id": "s", "samples": [[1, 2, 3, 4]], "sampl\\u0065s": 5}',
    b'{"trajectory_id": "a", "store_id": "s", "x\\"samples": [[1, 2, 3, 4]], "samples": 7}',
    # an id "samples" before the samples of another key
    b'{"trajectory_id": "samples", "x": [[1, 2, 3, 4]], "store_id": "s", "samples": 3}',
    # a number moved across a bracket: the skeleton is a plain record's
    b'{"trajectory_id": "a", "store_id": "s", "samples": [[1,2,3,]4,[5,6,7,8]]}',
    b'{"trajectory_id": "a", "store_id": "s", "samples": [1[,2,3,4]]}',
    b'{"trajectory_id": "a", "store_id": "s", "samples": [[1,2,3,4],5[,6,7,8]]}',
    b'{"trajectory_id": "a", "store_id": "s", "samples": 1[[,2,3,4]]}',
    # the samples under an escaped key, or shadowed by a later scalar one
    b'{"trajectory_id": "a", "store_id": "s", "sampl\\u0065s": [[1, 2, 3, 4]]}',
    b'{"trajectory_id": "a", "store_id": "s", "samples": [[1, 2, 3, 4]], "samples": 5}',
    # a bracket or brace in an id before the samples, or ']]' before or after them
    b'{"trajectory_id": "{", "store_id": "s", "samples": [[1, 2, 3, 4]]}',
    b'{"trajectory_id": "[", "store_id": "s", "samples": [[1, 2, 3, 4]]}',
    b'{"trajectory_id": "]]", "store_id": "s", "samples": [[1, 2, 3, 4]]}',
    b'{"samples": [[1, 2, 3, 4]], "trajectory_id": "]]", "store_id": "s"}',
    # rows closed apart
    b'{"trajectory_id": "a", "store_id": "s", "samples": [[1, 2, 3, 4] ]}',
    b'{"trajectory_id": "a", "store_id": "s", "samples": [[1, 2, 3, 4], [5, 6, 7, 8] ]}',
    # a top-level array or string
    b'[{"trajectory_id": "a", "store_id": "s", "samples": [[1, 2, 3, 4]]}]',
    b'"{[[1, 2, 3, 4]]"',
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


def synth_lines(tmp_path):
    """The lines of a clean 12-trip synth store."""
    store = tmp_path / "store"
    assert cli.main(["synth", "--population", "12", "--shelves", "9", "--noise", "0.05",
                     "--seed", "4", "--out", str(store)]) == 0
    return [line for _, line in read_lines(store / "trajectories.jsonl")]


def test_a_clean_synth_store_is_decoded_by_orjson_alone(tmp_path, monkeypatch):
    """Its lines, and the same records written compact, all take the fast path: json and _sample_rows stay idle."""
    lines = synth_lines(tmp_path)
    lines += [json.dumps(json.loads(line), separators=(",", ":")).encode() for line in lines]
    want = [outcome(reference, line) for line in lines]
    assert want[:12] == want[12:]
    monkeypatch.setattr(json, "loads", no_json_loads)
    monkeypatch.setattr(kinematics, "_sample_rows", no_sample_rows)
    assert [outcome(parse_record, line) for line in lines] == want
    path = tmp_path / "compact.jsonl"
    path.write_bytes(b"\n".join(lines[12:]) + b"\n")
    assert len(read_trajectories(path)) == len(lines) // 2 == 12


@pytest.mark.parametrize("spell", [
    lambda rec: json.dumps(rec, sort_keys=True),  # samples first
    lambda rec: json.dumps({**rec, "device": "tag-7", "rate_hz": 10, "raw": None, "ok": True}),
    lambda rec: json.dumps(rec, separators=(", ", " : ")),
    lambda rec: json.dumps({**rec, "trajectory_id": 'say "hi"'}),
    lambda rec: json.dumps({**rec, "trajectory_id": "samples"}),
], ids=["samples-first", "extra-scalar-keys", "space-before-colon", "quote-in-id", "samples-id"])
def test_a_record_spelled_otherwise_takes_the_fast_path(spell, tmp_path, monkeypatch):
    line = synth_lines(tmp_path)[0]
    other = spell(json.loads(line)).encode()
    want = outcome(reference, other)
    assert want[1:] == outcome(reference, line)[1:]  # the same store_id and rows, whatever the id
    monkeypatch.setattr(json, "loads", no_json_loads)
    monkeypatch.setattr(kinematics, "_sample_rows", no_sample_rows)
    assert outcome(parse_record, other) == want


@pytest.mark.parametrize("spell", [
    lambda rec: json.dumps({**rec, "tags": ["a"]}),
    lambda rec: json.dumps({**rec, "meta": {"a": 1}}),
], ids=["extra-list-key", "extra-object-key"])
def test_a_record_spelled_otherwise_takes_the_json_path(spell, tmp_path, monkeypatch):
    line = synth_lines(tmp_path)[0]
    other = spell(json.loads(line)).encode()
    want = outcome(reference, other)
    assert want[1:] == outcome(reference, line)[1:]  # the same store_id and rows, whatever the id
    calls, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
    assert outcome(parse_record, other) == want
    assert calls == [other]


def test_a_store_of_uuid_ids_never_checks_values_one_by_one(tmp_path, monkeypatch):
    """UUID ids hold 'e's (one ends in it), yet such a store takes the fast path: no value is checked alone."""
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
    # in a forked child, two tasks so that fork_map forks, and a decoder that overflows its stack fails
    # this test, not the run
    with pytest.raises(ParseError, match=r"^t\.jsonl:7: bad trajectory record: RecursionError"):
        list(fork_map(parse_record, [(line, "t.jsonl:7")] * 2, 2))
    assert_same_outcome(line)
