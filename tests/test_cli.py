from __future__ import annotations

import random
import subprocess
import sys

import pytest

from conftest import family_instance, vrp_text
from routing_oracle import best_routes_cost
from qcvrp import DiagramPoint, SchemaError, default_profiles, feasibility_diagram, serialize_instance
from qcvrp.cli import build_parser, cli_main
from qcvrp.encoding import EncodingKind, LogMode, SizeConvention, encoding_qubits


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
    @pytest.mark.parametrize("token", ["inf", "1e400"], ids=["inf", "1e400"])
    def test_non_finite_penalty_refused(self, capsys, triangle_file, tmp_path, command, token):
        argv = [command, triangle_file, "--penalty", token]
        out_path = tmp_path / "model.txt"
        if command == "qubo":
            argv += ["--out", str(out_path)]
        assert run_cli(capsys, *argv) == (1, "", "error: penalty must be finite\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("token", ["100000000000000000001", str(10**400)], ids=["1e20+1", "10**400"])
    def test_integer_penalty_read_exactly(self, capsys, triangle_file, tmp_path, token):
        # an integer token is read as an int, not rounded through a float
        out_path = tmp_path / "model.txt"
        code, out, err = run_cli(capsys, "qubo", triangle_file, "--penalty", token, "--out", str(out_path))
        assert (code, err) == (0, "")
        assert out.endswith(f"penalty {token}\n")
        assert out_path.read_text(encoding="utf-8").split("\n", 1)[0] == f"QUBO 8 {8 * int(token)} {token}"

    def test_solve_refuses_a_penalty_beyond_float_range(self, capsys, triangle_file):
        expected = (1, "", "error: model coefficients and offset must be finite\n")
        assert run_cli(capsys, "solve", triangle_file, "--penalty", str(10**400)) == expected

    def test_solve_refuses_a_model_coefficient_beyond_float_range(self, capsys, tmp_path):
        model_path = tmp_path / "model.txt"
        model_path.write_text(f"QUBO 2 0 1\nL 0 {10**400}\n", encoding="utf-8")
        expected = (1, "", "error: model coefficients and offset must be finite\n")
        assert run_cli(capsys, "solve", str(model_path)) == expected

    def test_solve_refuses_a_header_word_other_than_qubo(self, capsys, tmp_path):
        model_path = tmp_path / "model.txt"
        model_path.write_text("QUBOX 2 0 1\nL 0 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(model_path))
        assert (code, out) == (1, "")
        assert "must start with a 'QUBO' header line" in err

    def test_solve_respects_variable_ceiling(self, capsys, tmp_path):
        model_path = tmp_path / "model.txt"
        model_path.write_text("QUBO 1025 0 1\n", encoding="utf-8")
        expected = (1, "", "error: 1025 variables exceed the dense bound of 1024\n")
        assert run_cli(capsys, "solve", str(model_path)) == expected

    def test_solve_takes_no_variable_cap(self, capsys, triangle_file):
        code, out, err = run_cli(capsys, "solve", triangle_file, "--max-vars", "4")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --max-vars 4" in err

    def test_solve_above_thirty_variables_matches_the_oracle(self, capsys, tmp_path):
        inst = family_instance(random.Random(0), customers=3, vehicles=2, capacity=10)  # 44 variables
        path = tmp_path / "wide.vrp"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, err) == (0, "")
        assert f"route cost: {best_routes_cost(inst)}\n" in out
        assert out.endswith("violations: none\n")


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

    def test_non_finite_input(self, capsys):
        code, out, err = run_cli(capsys, "value", "--km", "nan", "--delta", "0.1")
        assert (code, out) == (1, "")
        assert "baseline_km must be finite" in err


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


class TestOverflow:
    """Sizes beyond float range end in one ``error:`` line, never a traceback."""

    @pytest.fixture
    def params_file(self, tmp_path):
        def write(customers: int, neighbours: bool = False) -> str:
            # neighbours: a small row before the huge one and a second huge row after it
            rows = [f"huge,{customers},2,30"]
            if neighbours:
                rows = ["small,10,2,30", *rows, f"later,{customers},2,30"]
            path = tmp_path / f"huge{len(str(customers))}.csv"
            path.write_text("\n".join(["name,n,vehicles,capacity", *rows]) + "\n", encoding="utf-8")
            return str(path)

        return write

    @staticmethod
    def assert_one_error_line(code: int, out: str, err: str, row: str | None = None) -> None:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if row is not None:  # the first row beyond float range is named
            assert f"bad configuration field: {row} (" in err

    def test_table_prints_exact_rows_at_n_10_to_the_100(self, capsys, params_file):
        n = 10**100
        code, out, err = run_cli(capsys, "table", params_file(n), "--format", "csv")
        assert (code, err) == (0, "")
        qubo = encoding_qubits(EncodingKind.QUBO, n, 2, 30, SizeConvention.COMPAT, LogMode.FLOOR)
        hobo = encoding_qubits(EncodingKind.HOBO, n, 2, 30, SizeConvention.COMPAT, LogMode.FLOOR)
        depth = 5 * hobo
        volume = hobo * depth
        assert qubo == 2 * ((n - 1) ** 2 + 30)
        assert out.splitlines()[2] == f"huge,{n},2,30,{qubo},{hobo},{depth},{volume},{1.0 / volume:.1e}"

    def test_table_at_n_10_to_the_200_exits_1(self, capsys, params_file):
        # the error rate 1.0 / volume needs the volume as a float
        self.assert_one_error_line(*run_cli(capsys, "table", params_file(10**200, neighbours=True)), row="huge")

    @pytest.mark.parametrize("exponent", [100, 200])
    def test_diagram_prints_exact_rows(self, capsys, params_file, exponent):
        n = 10**exponent
        code, out, err = run_cli(capsys, "diagram", params_file(n), "--format", "csv")
        assert (code, err) == (0, "")
        hobo = encoding_qubits(EncodingKind.HOBO, n, 2, 30, SizeConvention.COMPAT, LogMode.FLOOR)
        assert out.splitlines()[1] == f"huge,{hobo},{5 * hobo},false"

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_diagram_beyond_float_range_exits_1(self, capsys, params_file, fmt):
        # FLOOR multiplies n by log2(n) in floats; the SVG places n on a float axis
        argv = ["diagram", params_file(10**400, neighbours=True), "--format", fmt]
        if fmt == "svg":
            argv += ["--log-mode", "ceil"]
        self.assert_one_error_line(*run_cli(capsys, *argv), row="huge")

    def test_svg_axes_name_the_first_point_beyond_float_range(self):
        profile = default_profiles()[0]
        points = [DiagramPoint("small", 10, 50, False), DiagramPoint("huge", 10**400, 5 * 10**400, False)]
        with pytest.raises(SchemaError, match=r"field: huge \("):
            feasibility_diagram([*points, DiagramPoint("later", 10**401, 1, False)], profile)

    @pytest.mark.parametrize("command", ["estimate", "classify"])
    def test_qubo_estimate_with_a_201_digit_capacity_exits_1(self, capsys, tmp_path, command):
        path = tmp_path / "wide.vrp"
        text = vrp_text("wide", [(0.0, 0.0), (3.0, 4.0)], [0, 1], capacity=10**200)
        path.write_text(text, encoding="utf-8")
        self.assert_one_error_line(*run_cli(capsys, command, str(path), "--encoding", "qubo"))
