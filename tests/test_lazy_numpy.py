"""numpy stays off the import path.

``import qcvrp`` and the subcommands that do no numeric work (``table``,
``gaps``, ``diagram``, ``value``, ``parse``, ``--help``, and ``estimate`` and
``classify`` of an EXPLICIT instance) must not load numpy, which is most of
their start-up time.  Each check runs in a fresh interpreter, because this
test process has numpy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcvrp
from test_instances import EXPLICIT_TEXT

# The directory the package under test was imported from.
PACKAGE_ROOT = str(Path(qcvrp.__file__).resolve().parent.parent)

# argv[1] is "blocked" to make any numpy import fail, argv[2] the JSON list
# of command lines.  The last line printed says whether numpy was loaded.
SCRIPT = """\
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
import qcvrp
from qcvrp.cli import cli_main
qcvrp.default_profiles()
qcvrp.bundled_params()
for argv in json.loads(sys.argv[2]):
    print(f"exit {cli_main(argv)}", flush=True)
print(f"numpy loaded: {sys.modules.get('numpy') is not None}")
"""


def run(mode: str, commands: list[list[str]]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
    )


@pytest.fixture
def commands(tmp_path, triangle_text) -> list[list[str]]:
    euclidean = tmp_path / "triangle.vrp"
    euclidean.write_text(triangle_text, encoding="utf-8")
    explicit = tmp_path / "matrix.vrp"
    explicit.write_text(EXPLICIT_TEXT, encoding="utf-8")
    return [
        ["table"],
        ["table", "--format", "csv"],
        ["gaps"],
        ["diagram"],
        ["diagram", "--format", "csv"],
        ["value", "--km", "1000", "--delta", "0.1"],
        ["parse", str(euclidean)],
        ["parse", str(explicit)],
        ["estimate", str(explicit)],
        ["classify", str(explicit)],
        ["--help"],
    ]


def test_numpy_free_commands_do_not_load_numpy(commands):
    proc = run("normal", commands)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("exit 0") == len(commands)
    assert lines[-1] == "numpy loaded: False"


def test_numpy_free_commands_run_with_numpy_blocked(commands):
    normal = run("normal", commands)
    blocked = run("blocked", commands)
    assert blocked.returncode == 0, blocked.stderr
    assert (blocked.stdout, blocked.stderr) == (normal.stdout, normal.stderr)


def test_probe_sees_numpy_once_a_command_loads_it(triangle_text, tmp_path):
    path = tmp_path / "triangle.vrp"
    path.write_text(triangle_text, encoding="utf-8")
    proc = run("normal", [["solve", str(path)]])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["exit 0", "numpy loaded: True"]
