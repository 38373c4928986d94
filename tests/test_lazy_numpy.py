"""numpy, the solver and the parser stay off the import path.

``import qcvrp`` and the subcommands that do no numeric work (``table``,
``gaps``, ``diagram``, ``value``, ``parse``, ``--help``, and ``estimate`` and
``classify`` of an EXPLICIT instance) must not load numpy, which is most of
their start-up time.  Nor may they load ``qcvrp.qubo``, and the report
commands (``table``, ``gaps``, ``diagram``, ``value``) not ``qcvrp.instances``
either: the package imports each public name on first use.  Each check runs
in a fresh interpreter, because this test process has loaded all of them.
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


# The benchmark's setup, then the commands of the optional JSON argv[1] with
# their output dropped; prints the JSON list of loaded qcvrp modules.
MODULES_SCRIPT = """\
import contextlib, io, json, sys
import qcvrp
qcvrp.default_profiles()
qcvrp.bundled_params()
if len(sys.argv) > 1:
    from qcvrp.cli import cli_main
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli_main(argv) for argv in json.loads(sys.argv[1])]
    assert codes == [0] * len(codes), codes
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "qcvrp")))
"""

SETUP_MODULES = ["qcvrp", "qcvrp.encoding", "qcvrp.errors", "qcvrp.hardware", "qcvrp.report", "qcvrp.value"]


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports the package under test."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
    )


def run(mode: str, commands: list[list[str]]) -> subprocess.CompletedProcess:
    return fresh(SCRIPT, mode, json.dumps(commands))


def loaded_modules(commands: list[list[str]] | None = None) -> list[str]:
    proc = fresh(MODULES_SCRIPT, *([json.dumps(commands)] if commands is not None else []))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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


def test_setup_loads_only_the_estimation_modules():
    assert loaded_modules() == SETUP_MODULES


def test_numpy_free_commands_do_not_load_the_solver(commands):
    assert "qcvrp.qubo" not in loaded_modules(commands)


def test_report_commands_load_neither_solver_nor_parser():
    commands = [["table"], ["gaps"], ["diagram"], ["value", "--km", "1000", "--delta", "0.1"]]
    assert loaded_modules(commands) == sorted([*SETUP_MODULES, "qcvrp.cli"])


def test_module_probe_sees_the_solver_once_solve_loads_it(triangle_text, tmp_path):
    path = tmp_path / "triangle.vrp"
    path.write_text(triangle_text, encoding="utf-8")
    assert {"qcvrp.instances", "qcvrp.qubo"} <= set(loaded_modules([["solve", str(path)]]))


def test_submodules_resolve_as_attributes_before_import():
    proc = fresh(
        "import sys, qcvrp\n"
        "names = ('encoding', 'errors', 'hardware', 'instances', 'qubo', 'report', 'value')\n"
        "print(all(getattr(qcvrp, n) is sys.modules[f'qcvrp.{n}'] for n in names))\n"
        "print(qcvrp.instances.nint(2.5), qcvrp.value._format_number(2.0))"
    )
    assert (proc.returncode, proc.stdout) == (0, "True\n3 2\n"), proc.stderr


def test_public_names_resolve_once_and_star_import_binds_all():
    proc = fresh(
        "import json, qcvrp\n"
        "public = qcvrp.__all__\n"
        "bound_early = [n for n in public if n in vars(qcvrp)]\n"
        "resolved = [n for n in public if getattr(qcvrp, n) is vars(qcvrp)[n]]\n"
        "star = {}\n"
        "exec('from qcvrp import *', star)\n"
        "star.pop('__builtins__')\n"
        "print(json.dumps([bound_early, resolved == public, sorted(star) == public, set(public) <= set(dir(qcvrp))]))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True, True, True]


def test_public_list_is_sorted_unique_and_unchanged_in_size():
    assert qcvrp.__all__ == sorted(set(qcvrp.__all__))
    assert len(qcvrp.__all__) == 68  # a name dropped from the export table shows here
    assert "qubo" not in qcvrp.__all__ and "__version__" not in qcvrp.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'qcvrp' has no attribute 'x'$"):
        getattr(qcvrp, "x")
    assert not hasattr(qcvrp, "cli_main")
