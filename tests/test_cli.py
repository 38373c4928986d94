from __future__ import annotations

import subprocess
import sys

import pytest

from conftest import vrp_text
from qcvrp.cli import build_parser, cli_main


@pytest.fixture
def triangle_file(tmp_path, triangle_text):
    path = tmp_path / "tiny.vrp"
    path.write_text(triangle_text, encoding="utf-8")
    return str(path)


@pytest.fixture
def golden5_shape_file(tmp_path):
    """A synthetic instance with the size triple n=200, k=5, C=900."""
    coords = [(0.0, 0.0)] + [(float(i), 1.0) for i in range(1, 201)]
    demands = [0] + [1] * 200
    text = vrp_text("golden5-shape", coords, demands, capacity=900, vehicles=5)
    path = tmp_path / "golden5_shape.vrp"
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_summary(self, capsys, triangle_file):
        code, out, err = run_cli(capsys, "parse", triangle_file)
        assert code == 0
        assert err == ""
        assert "name: tiny-k1" in out
        assert "dimension: 3" in out
        assert "customers: 2" in out
        assert "capacity: 2" in out
        assert "vehicles: 1" in out
        assert "edge weights: EUC_2D" in out

    def test_demand_warning(self, capsys, tmp_path):
        text = vrp_text("hot", [(0.0, 0.0), (1.0, 0.0)], [0, 9], capacity=2)
        path = tmp_path / "hot.vrp"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "parse", str(path))
        assert code == 0
        assert "warning: demand exceeds capacity at nodes [1]" in out


class TestEstimate:
    def test_defaults_use_hobo_strict_floor(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "estimate", triangle_file)
        assert code == 0
        assert "instance: tiny-k1 (n=2, k=1, C=2)" in out
        assert "convention: strict | layers: 5 | log mode: floor" in out
        assert "encoding: hobo" in out
        assert "qubits: 3" in out
        assert "depth: 15" in out
        assert "quantum volume: 45" in out

    def test_benchmark_sized_instance_prints_published_count(self, capsys, golden5_shape_file):
        code, out, _ = run_cli(
            capsys,
            "estimate",
            golden5_shape_file,
            "--encoding",
            "hobo",
            "--convention",
            "table3",
            "--layers",
            "5",
        )
        assert code == 0
        assert "qubits: 7685" in out
        assert "depth: 38425" in out
        assert "quantum volume: 295296125" in out
        assert "error rate threshold: 3.4e-09" in out

    def test_qubo_encoding(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "estimate", triangle_file, "--encoding", "qubo")
        assert code == 0
        assert "encoding: qubo" in out
        assert "qubits: 11" in out


class TestClassify:
    def test_small_instance_fits_the_default_profile(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "classify", triangle_file)
        assert code == 0
        assert "profile: current-best" in out
        assert "qubits fit: yes" in out
        assert "depth fits: yes" in out
        assert "feasible: yes" in out

    def test_benchmark_sized_instance_misses_every_default_profile(
        self, capsys, golden5_shape_file
    ):
        code, out, _ = run_cli(
            capsys,
            "classify",
            golden5_shape_file,
            "--profile",
            "gen-next-high",
            "--convention",
            "table3",
        )
        assert code == 0
        assert "(7685 qubits, depth 38425, hobo)" in out
        assert "qubits fit: no" in out
        assert "depth fits: yes" in out
        assert "feasible: no" in out

    def test_one_customer_instance_fits_the_largest_profile(self, capsys, tmp_path):
        text = vrp_text("solo", [(0.0, 0.0), (3.0, 4.0)], [0, 1], capacity=1)
        path = tmp_path / "solo.vrp"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "classify", str(path), "--profile", "gen-next-high")
        assert code == 0
        assert "feasible: yes" in out

    def test_unknown_profile_is_a_domain_error(self, capsys, triangle_file):
        code, out, err = run_cli(capsys, "classify", triangle_file, "--profile", "warp-core")
        assert code == 1
        assert out == ""
        assert "no profile named 'warp-core'" in err

    def test_custom_profile_file(self, capsys, triangle_file, tmp_path):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(
            '{"profiles": [{"name": "desk", "n_max": 2, "d_max": 10}]}', encoding="utf-8"
        )
        code, out, _ = run_cli(
            capsys,
            "classify",
            triangle_file,
            "--profiles",
            str(profiles),
            "--profile",
            "desk",
        )
        assert code == 0
        assert "feasible: no" in out


class TestTable:
    def test_bundled_table(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# convention: compat | layers: 5 | log mode: floor"
        assert len(lines) == 3 + 23
        golden5 = next(line for line in lines if line.startswith("Golden_5"))
        assert golden5.split() == [
            "Golden_5",
            "200",
            "5",
            "900",
            "202505",
            "7685",
            "38425",
            "295296125",
            "3.4e-09",
        ]

    def test_historical_convention_spelling_is_an_alias(self, capsys):
        _, compat, _ = run_cli(capsys, "table", "--convention", "compat")
        _, alias, _ = run_cli(capsys, "table", "--convention", "table3")
        assert alias == compat

    def test_custom_params_file(self, capsys, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text("name,n,vehicles,capacity\nmini,2,1,2\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "table", str(path), "--format", "csv")
        assert code == 0
        assert "mini,2,1,2," in out


class TestGaps:
    def test_bundled_gaps(self, capsys):
        code, out, _ = run_cli(capsys, "gaps")
        assert code == 0
        assert out.splitlines()[0] == "# gap denominator: solution"
        assert "22.42" in out
        assert "Loggi-n401-k23" in out

    def test_other_denominator(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "--denominator", "lower-bound")
        assert code == 0
        assert "28.90" in out or "28.91" in out


class TestDiagram:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "label,n,d,feasible"
        assert len(out.splitlines()) == 1 + 23 + 1

    def test_svg_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "diagram.svg"
        code, out, _ = run_cli(
            capsys, "diagram", "--profile", "gen-next-high", "--out", str(out_path)
        )
        assert code == 0
        assert f"wrote {out_path}: 23 points, 0 feasible, profile gen-next-high" in out
        assert out_path.read_text(encoding="utf-8").startswith("<svg ")


ESTIMATE_DEFAULTS = ("--layers", "5", "--log-mode", "floor")
COMMANDS = ("parse", "estimate", "classify", "table", "gaps", "diagram", "qubo", "solve", "value")


class TestDefaultsAndHelp:
    def test_diagram_defaults_to_hobo_compat(self, capsys):
        plain = run_cli(capsys, "diagram", "--format", "csv")
        assert plain[0] == 0
        assert plain == run_cli(
            capsys, "diagram", "--format", "csv", "--encoding", "hobo", "--convention", "compat",
            *ESTIMATE_DEFAULTS,
        )
        # the convention only shows under the QUBO encoding
        qubo = run_cli(capsys, "diagram", "--format", "csv", "--encoding", "qubo")
        assert qubo == run_cli(capsys, "diagram", "--format", "csv", "--encoding", "qubo", "--convention", "compat")
        assert qubo != run_cli(capsys, "diagram", "--format", "csv", "--encoding", "qubo", "--convention", "strict")

    def test_classify_defaults_to_hobo_strict(self, capsys, triangle_file):
        plain = run_cli(capsys, "classify", triangle_file)
        assert plain[0] == 0
        assert plain == run_cli(
            capsys, "classify", triangle_file, "--encoding", "hobo", "--convention", "strict",
            *ESTIMATE_DEFAULTS,
        )
        qubo = run_cli(capsys, "classify", triangle_file, "--encoding", "qubo")
        assert qubo == run_cli(capsys, "classify", triangle_file, "--encoding", "qubo", "--convention", "strict")
        assert qubo != run_cli(capsys, "classify", triangle_file, "--encoding", "qubo", "--convention", "compat")

    @pytest.mark.parametrize(
        "argv, convention",
        [(["estimate", "f"], "strict"), (["classify", "f"], "strict"), (["table"], "compat"), (["diagram"], "compat")],
    )
    def test_each_subcommand_keeps_its_own_convention_default(self, argv, convention):
        # one parser holds every subcommand, so a default set on one must not leak to another
        assert build_parser().parse_args(argv).convention == convention

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: qcvrp {command} ")
        assert ("--encoding" in out) == (command in ("estimate", "classify", "diagram"))


class TestQuboAndSolve:
    def test_model_to_stdout(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "qubo", triangle_file)
        assert code == 0
        assert out.splitlines()[0] == "QUBO 8 240 30"

    def test_export_then_solve_round_trip(self, capsys, triangle_file, tmp_path):
        model_path = tmp_path / "model.txt"
        code, out, _ = run_cli(capsys, "qubo", triangle_file, "--out", str(model_path))
        assert code == 0
        assert "8 variables, 8 linear and 20 quadratic terms, penalty 30" in out

        code, out, _ = run_cli(capsys, "solve", str(model_path))
        assert code == 0
        assert "assignment: 01100100" in out
        assert "energy: 12" in out

    def test_solve_instance_decodes_routes(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "solve", triangle_file)
        assert code == 0
        assert "energy: 12" in out
        assert "route cost: 12" in out
        assert "vehicle 0: 0-2-1-0" in out
        assert "violations: none" in out

    def test_explicit_penalty(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "qubo", triangle_file, "--penalty", "30")
        assert code == 0
        assert out.splitlines()[0] == "QUBO 8 240 30"

    def test_bad_penalty_token(self, capsys, triangle_file):
        code, _, err = run_cli(capsys, "qubo", triangle_file, "--penalty", "lots")
        assert code == 1
        assert "penalty must be a number or 'auto'" in err

    @pytest.mark.parametrize("command", ["qubo", "solve"])
    @pytest.mark.parametrize("token", ["inf", "1e400", str(10**400)], ids=["inf", "1e400", "10**400"])
    def test_non_finite_penalty_refused(self, capsys, triangle_file, tmp_path, command, token):
        # the CLI reads a penalty as a float, so 10**400 written out is inf too
        argv = [command, triangle_file, "--penalty", token]
        out_path = tmp_path / "model.txt"
        if command == "qubo":
            argv += ["--out", str(out_path)]
        assert run_cli(capsys, *argv) == (1, "", "error: penalty must be finite\n")
        assert not out_path.exists()

    def test_solve_refuses_a_header_word_other_than_qubo(self, capsys, tmp_path):
        model_path = tmp_path / "model.txt"
        model_path.write_text("QUBOX 2 0 1\nL 0 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(model_path))
        assert (code, out) == (1, "")
        assert "must start with a 'QUBO' header line" in err

    def test_solve_respects_variable_ceiling(self, capsys, triangle_file):
        code, _, err = run_cli(capsys, "solve", triangle_file, "--max-vars", "4")
        assert code == 1
        assert "8" in err


class TestValue:
    def test_reference_fleet_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--km", "90e6", "--delta", "0.02")
        assert code == 0
        assert "km saved: 1.8e+06" in out
        assert "litres saved: 540000" in out
        assert "fuel cost saved: 540000" in out
        assert "co2 saved (t): 1404" in out

    def test_bad_improvement(self, capsys):
        code, _, err = run_cli(capsys, "value", "--km", "1000", "--delta", "1.5")
        assert code == 1
        assert "error:" in err


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "parse", "/nonexistent/nowhere.vrp")
        assert code == 1
        assert "error:" in err

    def test_malformed_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.vrp"
        path.write_text("DIMENSION : 3\nEOF\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "parse", str(path))
        assert code == 1
        assert "error:" in err

    def test_no_command_is_a_usage_error(self, capsys):
        assert run_cli(capsys, *[])[0] == 2

    def test_unknown_flag_is_a_usage_error(self, capsys, triangle_file):
        assert run_cli(capsys, "parse", triangle_file, "--frobnicate")[0] == 2

    def test_module_entry_point(self, triangle_file):
        proc = subprocess.run(
            [sys.executable, "-m", "qcvrp", "parse", triangle_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "name: tiny-k1" in proc.stdout
