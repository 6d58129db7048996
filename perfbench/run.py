"""shelfscan benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout. It builds the workload's inputs
with `shelfscan synth` from the seed, then launches the workload's command
as its own process again and again, one at a time, until `--seconds` have
passed (a closed loop of one client), and checks every command's artifacts.

With `--trace 0` the last stdout line carries the end-to-end metrics, as
medians over the launches, with times scaled to a reference host speed
(REF_S, reference_s). With `--trace 1` each iteration runs the command once
untraced and once under perfbench/tracer.py, and the last line carries the
per-layer metrics. The line before it is the full record: every launch's
times, the machine, and the load average around each launch.
See perfbench/README.md.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import tracer
from workloads import JOBS, WORKLOADS, CheckFailed

SETUP_REPEATS = 3      # synth calls per run; setup_s is their median
RUN_LIMIT_S = 170.0    # every process is killed past this point, so a run ends within 180 s
WORK_DIR = ".perfbench_work"
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
END_TO_END_UNITS = {"wall_s": "s", "samples_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
REF_S = 0.2  # reference-kernel time at the host speed the scaled metrics are quoted for
_REF_LINE = json.dumps({"trajectory_id": "ref", "store_id": "s",
                        "samples": [[k * 0.1, 1.0 + k * 1e-3, 2.0, 0.5] for k in range(400)]})


def reference_s():
    """Wall time of a fixed mix of the program's kinds of work, as a gauge of host speed.

    JSON parsing, small Python objects and many small numpy calls; about
    0.2 s on a quiet 2.0 GHz Xeon vCPU. It does not touch shelfscan.
    """
    start = time.monotonic()
    for _ in range(480):
        rows = json.loads(_REF_LINE)["samples"]
        arr = np.asarray([(t, x, y) for t, x, y, _ in rows])
        for _ in range(40):
            np.flatnonzero(arr[1:, 0] != arr[:-1, 0])
    return time.monotonic() - start


def scaled(results, key):
    """Median of `key` over launches, each scaled by the reference time around it."""
    return statistics.median(r[key] * REF_S / r["reference_s"] for r in results)


class Launcher:
    """Runs one process at a time in a fixed environment and measures it."""

    def __init__(self, root, deadline):
        self.deadline = deadline
        self._gauge = None  # reference_s() taken after the previous launch
        self.env = {k: v for k, v in os.environ.items() if k != "SHELFSCAN_JOBS"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def run(self, argv, log_path):
        """Wall, CPU and peak RSS of argv and every process it forks and waits for.

        `reference_s` is the mean of reference_s() timed right before and right
        after the launch; the after-gauge doubles as the next launch's before-gauge.
        """
        before = self._gauge if self._gauge is not None else reference_s()
        load_before = os.getloadavg()
        fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            start = time.monotonic()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=[(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                                               (os.POSIX_SPAWN_DUP2, fd, 1),
                                               (os.POSIX_SPAWN_DUP2, fd, 2)],
                                 setpgroup=0)
        finally:
            os.close(fd)
        reaped = {}

        def reap():
            _, status, usage = os.wait4(pid, 0)
            reaped.update(end=time.monotonic(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(max(self.deadline - time.monotonic(), 0.0))
        finally:
            timed_out = waiter.is_alive()
            if timed_out:
                try:
                    os.killpg(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                waiter.join()
        usage = reaped["usage"]
        load_after = os.getloadavg()
        self._gauge = reference_s()
        return {
            "wall_s": reaped["end"] - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "exit": "timeout" if timed_out else os.waitstatus_to_exitcode(reaped["status"]),
            "reference_s": (before + self._gauge) / 2.0,
            "load_before": load_before,
            "load_after": load_after,
        }

    def probe(self, root):
        """Interpreter, numpy and shelfscan seen by the commands; None if shelfscan is missing."""
        code = ("import json, sys, numpy, shelfscan; print(json.dumps({'python': sys.version.split()[0],"
                " 'numpy': numpy.__version__, 'shelfscan': shelfscan.__file__}))")
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            return None
        found = json.loads(proc.stdout)
        inside = os.path.commonpath([os.path.abspath(found["shelfscan"]), root]) == root
        return found if inside else None


def machine(root, probe):
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "python": probe["python"],
            "numpy": probe["numpy"], "git_commit": commit, "source_sha256": source_hash(root),
            "detect_jobs": JOBS, "unset_env": ["SHELFSCAN_JOBS"]}


def source_hash(root):
    """Digest of src/, which identifies the program when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def input_size(data_dir):
    """Records, samples and bytes of trajectories.jsonl.

    Each sample is one `[t, x, y, theta]` list inside a record's `samples` list.
    """
    path = os.path.join(data_dir, "trajectories.jsonl")
    records = samples = 0
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                records += 1
                samples += line.count(b"[") - 1
    return {"records": records, "samples": samples, "bytes": os.path.getsize(path)}


def _command(wl, data_dir, out_dir):
    return [wl.command[0], *wl.inputs(data_dir), *wl.command[1:], "--out", out_dir]


def _check(wl, data_dir, out_dir, result):
    if result["exit"] != 0:
        return f"exit {result['exit']}"
    try:
        wl.check(data_dir, out_dir, wl.command)
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def measure(wl, seed, seconds, trace, root):
    """Run one workload; return (result line, full record), or raise SystemExit if set-up fails."""
    launcher = Launcher(root, time.monotonic() + RUN_LIMIT_S)
    probe = launcher.probe(root)
    if probe is None:
        raise SystemExit(f"perfbench: cannot import shelfscan from {os.path.join(root, 'src')}")
    work = os.path.join(root, WORK_DIR, f"{wl.name}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    data_dir = os.path.join(work, "data")
    os.makedirs(data_dir)
    synth = ["synth", *wl.synth, "--seed", str(seed), "--out", data_dir]
    setup, setup_doc = _set_up(launcher, synth, trace, work)
    size = input_size(data_dir)
    commands, docs = _command_loop(launcher, wl, seconds, trace, work, data_dir)

    failed = sum(c["check"] != "ok" for c in commands)
    record = {
        "workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_command": synth, "command": _command(wl, "DATA", "OUT"),
        "machine": machine(root, probe), "input": size, "setup": setup, "commands": commands,
        "error_rate": failed / len(commands),
        "loop": "closed, one client: each command starts after the previous one exits",
    }
    untraced = [c for c in commands if c["kind"] == "untraced"]
    if trace:
        traced = [c for c in commands if c["kind"] == "traced" and c["exit"] == 0]
        record.update(_per_layer(untraced, traced, docs, setup_doc, size))
        metrics = record["per_layer"]
    else:
        values = {
            "wall_s": scaled(untraced, "wall_s"),
            "cpu_s": scaled(untraced, "cpu_s"),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
            "setup_s": scaled(setup, "wall_s"),
        }
        values["samples_per_s"] = size["samples"] / values["wall_s"]
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
        record.update(end_to_end=metrics, runs=len(untraced), unscaled={
            "median_wall_s": statistics.median(c["wall_s"] for c in untraced),
            "median_cpu_s": statistics.median(c["cpu_s"] for c in untraced),
            "median_setup_s": statistics.median(c["wall_s"] for c in setup),
            "median_reference_s": statistics.median(c["reference_s"] for c in untraced + setup),
        })
    for name in os.listdir(work):  # keep the logs, spans and record; drop inputs and artifacts
        if name == "data" or name.startswith("out-"):
            shutil.rmtree(os.path.join(work, name))
    with open(os.path.join(work, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    result = {"correct": failed == 0, "attempted": len(commands), "failed": failed,
              "metrics": metrics}
    return result, record


def _set_up(launcher, synth, trace, work):
    """Build the inputs: SETUP_REPEATS timed synth calls, or one traced call."""
    setup = []
    for i in range(1 if trace else SETUP_REPEATS):
        log = os.path.join(work, f"setup{i}.log")
        if trace:
            spans = os.path.join(work, "spans-setup.json")
            res = launcher.run([TRACER, spans, "setup", *synth], log)
        else:
            res = launcher.run(["-m", "shelfscan.cli", *synth], log)
        setup.append(res)
        if res["exit"] != 0:
            raise SystemExit(f"perfbench: synth failed ({res['exit']}), see {log}")
    if not trace:
        return setup, None
    with open(spans) as fh:
        return setup, json.load(fh)


def _command_loop(launcher, wl, seconds, trace, work, data_dir):
    """Run the command until `seconds` have passed; with trace, as untraced/traced pairs."""
    commands, docs = [], []
    loop_start = time.monotonic()
    for i in itertools.count():
        kinds = [("untraced", "traced")[(i + j) % 2] for j in range(2)] if trace else ["untraced"]
        for kind in kinds:
            out_dir = os.path.join(work, f"out-{kind}")
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = _command(wl, data_dir, out_dir)
            log = os.path.join(work, "cmd.log")
            if kind == "traced":
                spans = os.path.join(work, f"spans-{i}.json")
                res = launcher.run([TRACER, spans, f"cmd-{i}", *argv], log)
            else:
                res = launcher.run(["-m", "shelfscan.cli", *argv], log)
            res["kind"] = kind
            res["check"] = _check(wl, data_dir, out_dir, res)
            if kind == "traced" and res["exit"] == 0:
                with open(spans) as fh:
                    docs.append((json.load(fh), res["wall_s"]))
            commands.append(res)
        now = time.monotonic()
        last = sum(c["wall_s"] for c in commands[-len(kinds):])
        if now - loop_start >= seconds or now + 1.5 * last > launcher.deadline:
            return commands, docs


def _per_layer(untraced, traced, docs, setup_doc, size):
    untraced_wall = scaled(untraced, "wall_s")
    if not docs:
        return {"per_layer": {}, "absent": sorted(tracer.LAYER_METRICS)}
    overhead = scaled(traced, "wall_s") - untraced_wall
    info = [{"traced_wall_s": wall, "records": size["records"], "overhead_s": overhead}
            for _, wall in docs]
    metrics, absent = tracer.layer_metrics([doc for doc, _ in docs], setup_doc, info)
    return {
        "per_layer": metrics, "absent": absent, "untraced_wall_scaled_s": untraced_wall,
        "tracing_overhead_s": overhead,
        "accounting": [tracer.accounting(doc, wall) for doc, wall in docs],
        "note": "spans inside the worker processes detect_many forks are not collected; "
                "detect_many is one span",
    }


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)  # unwinds through Launcher.run, which kills the command
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shelfscan", "cli.py")):
        print(f"perfbench: no shelfscan source under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root)
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
