"""The console exit path: `python -m shelfscan.cli` in a fresh interpreter.

cli.run, behind both `python -m shelfscan.cli` and the `shelfscan` console
script, flushes stdout and stderr after main() and leaves through
os._exit. These checks run it with its streams going to pipes and to
files, and compare its artifacts with those of cli.main called in this
process, which still returns its code. The interpreter inherits this
process's environment, so it finds the package the way the tests do,
less PYTHONUNBUFFERED: its standard streams are block-buffered, so output
that run() failed to flush would be lost.
"""

import json
import os
import subprocess
import sys

import pytest

from shelfscan import cli

DETECT = ["--t-b", "2.0", "--delta-b", "1.2", "--v-b", "0.55"]
GRID = ["--t-b-range", "1.0", "3.0", "0.5", "--delta-b-range", "0.6", "1.8", "0.3",
        "--v-b-range", "0.25", "0.85", "0.15"]


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    """One help width here and in the launched interpreter, whatever terminal runs the tests."""
    monkeypatch.setenv("COLUMNS", "80")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    out = tmp_path_factory.mktemp("exit") / "store"
    assert cli.main(["synth", "--population", "6", "--shelves", "8", "--seed", "3",
                     "--plant", "2.0,1.2,0.55", "--out", str(out)]) == 0
    return out


def shelfscan(args, unbuffered=False, **streams):
    """`python -m shelfscan.cli ARGS` run to its end, its streams as subprocess.run takes them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "shelfscan.cli", *args], env=env, timeout=120,
                          **streams)


def launch(args, tmp_path, streams):
    """(exit code, stdout, stderr) of `python -m shelfscan.cli ARGS`, its streams to pipes or files."""
    if streams == "pipes":
        done = shelfscan(args, capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr
    paths = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with open(paths[0], "w") as out, open(paths[1], "w") as err:
        code = shelfscan(args, stdout=out, stderr=err).returncode
    return code, paths[0].read_text(), paths[1].read_text()


def files(out):
    """Every artifact in out as bytes, with the generated_at line of JSON reports left out."""
    return {path.name: b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                                if b'"generated_at"' not in line)
            for path in sorted(out.iterdir())}


def inputs(store, *names):
    return [f"--{name}={store / (name + ('.json' if name == 'layout' else '.jsonl'))}" for name in names]


STREAMS = pytest.mark.parametrize("streams", ["pipes", "files"])


@STREAMS
@pytest.mark.parametrize("command, flags, summary", [
    ("detect", DETECT, "detect: {events} stop events over 6 trajectories -> {out}\n"),
    ("calibrate", GRID + ["--dump-grid"], None),
])
def test_success_prints_its_summary_whole_and_writes_every_artifact(store, tmp_path, capsys, streams,
                                                                    command, flags, summary):
    names = ("layout", "trajectories") + (("labels",) if command == "calibrate" else ())
    args = [command, *inputs(store, *names), *flags]
    assert cli.main([*args, "--out", str(tmp_path / "in-process")]) == 0
    want = capsys.readouterr().out.replace(str(tmp_path / "in-process"), str(tmp_path / "launched"))
    code, out, err = launch([*args, "--out", str(tmp_path / "launched")], tmp_path, streams)
    assert (code, out, err) == (0, want, "")
    if summary is not None:
        events = len((tmp_path / "launched" / "stops.jsonl").read_text().splitlines())
        assert events > 0 and out == summary.format(events=events, out=tmp_path / "launched")
    assert files(tmp_path / "launched") == files(tmp_path / "in-process")
    assert len(files(tmp_path / "launched")) == 2


@STREAMS
def test_data_error_exits_1_with_one_whole_record(store, tmp_path, capsys, streams):
    args = ["detect", *inputs(store, "layout", "trajectories"), *DETECT, "--window", "4",
            "--out", str(tmp_path / "d")]
    assert cli.main(args) == 1
    want = capsys.readouterr().err
    code, out, err = launch(args, tmp_path, streams)
    assert (code, out, err) == (1, "", want)
    assert err.endswith("\n") and json.loads(err)["error"] == "InvalidWindow"
    assert not (tmp_path / "d").exists()


@STREAMS
@pytest.mark.parametrize("fault, message", [
    (["--bogus"], "shelfscan: error: unrecognized arguments: --bogus\n"),
    (["--trajectories", "."], "error: [Errno 21] Is a directory: '.'\n"),  # an OSError in ingest
])
def test_usage_or_path_error_exits_2_with_its_error_line(store, tmp_path, capsys, streams, fault, message):
    args = ["detect", *inputs(store, "layout", "trajectories"), *DETECT, *fault, "--jobs", "1",
            "--out", str(tmp_path / "d")]
    assert cli.main(args) == 2
    want = capsys.readouterr().err
    code, out, err = launch(args, tmp_path, streams)
    assert (code, out, err) == (2, "", want)
    assert err.endswith(message)


@STREAMS
def test_help_arrives_whole(tmp_path, capsys, streams):
    assert cli.main(["--help"]) == 0
    want = capsys.readouterr().out
    assert launch(["--help"], tmp_path, streams) == (0, want, "")
    assert "oracle-check" in want and want.endswith("\n")


def test_stdout_that_cannot_be_flushed_exits_120(store, tmp_path):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is written
    try:
        done = shelfscan(["detect", *inputs(store, "layout", "trajectories"), *DETECT,
                          "--out", str(tmp_path / "d")], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (120, b"")
    assert (tmp_path / "d" / "stop_matrix.csv").exists()


@pytest.fixture(params=["closed-pipe", "dev-full"])
def refusing_stdout(request):
    """A file descriptor that refuses every write: a pipe whose reader is gone, or /dev/full."""
    if request.param == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read, fd = os.pipe()
        os.close(read)  # the reader is gone before anything is written
    yield fd
    os.close(fd)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_that_refuses_the_summary_exits_120_with_every_artifact(store, tmp_path, refusing_stdout,
                                                                        unbuffered):
    # buffered, the flush in run() fails; unbuffered, the summary line's own write does
    args = ["detect", *inputs(store, "layout", "trajectories"), *DETECT]
    assert cli.main([*args, "--out", str(tmp_path / "in-process")]) == 0
    done = shelfscan([*args, "--out", str(tmp_path / "d")], unbuffered=unbuffered, stdout=refusing_stdout,
                     stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (120, b"")
    assert files(tmp_path / "d") == files(tmp_path / "in-process")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_that_stdout_refuses_exits_120(refusing_stdout, unbuffered):
    done = shelfscan(["--help"], unbuffered=unbuffered, stdout=refusing_stdout, stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (120, b"")


def test_summary_that_stdout_refuses_in_process_returns_120(store, tmp_path, monkeypatch):
    class Refusing:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Refusing())
    args = ["detect", *inputs(store, "layout", "trajectories"), *DETECT, "--out", str(tmp_path / "d")]
    assert cli.main(args) == 120
    assert cli.main(["--help"]) == 120
    assert (tmp_path / "d" / "stop_matrix.csv").stat().st_size > 0
