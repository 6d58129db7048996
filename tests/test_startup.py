"""What a launch loads: each check runs in a fresh interpreter.

The interpreter inherits this process's environment, so it finds the
package the same way the tests do (PYTHONPATH=src, or an installed package),
minus OPENBLAS_NUM_THREADS unless a test sets it.
"""

import json
import os
import subprocess
import sys

import pytest


def probe(code, **env):
    """The JSON value that `code` prints last, run by a fresh interpreter."""
    env = {**{k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}, **env}
    done = subprocess.run([sys.executable, "-c", f"import json, os, sys\n{code}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_package_loads_no_numpy_and_no_module():
    loaded = probe("import shelfscan\n"
                   "print(json.dumps(sorted(m for m in sys.modules"
                   " if m == 'numpy' or m.startswith('shelfscan'))))")
    assert loaded == ["shelfscan"]


def test_import_cli_loads_no_module_only_some_commands_run():
    loaded = probe("import shelfscan.cli\n"
                   "print(json.dumps([m for m in ('shelfscan.synth', 'shelfscan.analytics',"
                   " 'shelfscan.oracle', 'multiprocessing') if m in sys.modules]))")
    assert loaded == []


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_turns_the_blas_pool_off_unless_the_environment_sets_it(preset, expected):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert probe("import shelfscan.cli\nprint(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))",
                 **env) == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc to list threads")
def test_import_cli_starts_no_thread():
    assert probe("import shelfscan.cli\nprint(len(os.listdir('/proc/self/task')))") == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc to list threads")
def test_fork_map_loads_no_multiprocessing_and_starts_no_thread():
    assert probe("import shelfscan.cli\n"
                 "from shelfscan.kinematics import fork_map\n"
                 "results = list(fork_map(pow, [(2, 3), (3, 2)], 2))\n"
                 "print(json.dumps([results, 'multiprocessing' in sys.modules,"
                 " len(os.listdir('/proc/self/task'))]))") == [[8, 9], False, 1]


def test_public_names_resolve_to_their_modules_objects():
    broken = probe(
        "import importlib, shelfscan\n"
        "listed = set(dir(shelfscan))\n"
        "print(json.dumps([n for n in shelfscan.__all__ if n not in listed or getattr(shelfscan, n)"
        " is not getattr(importlib.import_module('shelfscan.' + shelfscan._MODULE_OF[n]), n)]))")
    assert broken == []


def test_unknown_name_is_an_attribute_error():
    import shelfscan

    with pytest.raises(AttributeError, match="no attribute 'detect'"):
        shelfscan.detect
