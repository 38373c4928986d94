from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmark_data import GAP_ROWS, RESOURCE_ROWS
from qcvrp import (
    DiagramPoint,
    EmptyInput,
    EncodingKind,
    GapDenominator,
    GapRecord,
    HardwareProfile,
    InstanceParams,
    LogMode,
    SchemaError,
    SizeConvention,
    bundled_gap_csv,
    bundled_params,
    classify,
    diagram_points,
    feasibility_diagram,
    default_profiles,
    gap_records_from_csv,
    get_profile,
    hobo_qubits,
    load_params_csv,
    params_estimate,
    qubo_qubits,
    render_gap_table,
    render_resource_table,
)
from qcvrp.encoding import encoding_qubits
from qcvrp.report import RESOURCE_COLUMNS, _render_columns

GOLDEN_5 = InstanceParams("Golden_5", customers=200, vehicles=5, capacity=900)


def mantissa_close(shown: str, published: float) -> bool:
    """Same exponent and mantissa within one unit in the last shown digit."""
    m1, e1 = shown.split("e")
    m2, e2 = f"{published:.1e}".split("e")
    return int(e1) == int(e2) and abs(float(m1) - float(m2)) < 0.11


def named_profile(name: str):
    return get_profile(default_profiles(), name)


class TestParamsCsv:
    def test_small_file(self):
        text = "name,n,vehicles,capacity\nalpha,10,2,30\nbeta,7,1,5\n"
        rows = load_params_csv(text)
        assert rows == [
            InstanceParams("alpha", 10, 2, 30),
            InstanceParams("beta", 7, 1, 5),
        ]

    def test_extra_columns_are_ignored(self):
        text = "name,n,vehicles,capacity,comment\na,3,1,2,hello\n"
        assert load_params_csv(text)[0].customers == 3

    def test_missing_column(self):
        with pytest.raises(SchemaError, match="vehicles"):
            load_params_csv("name,n,capacity\na,3,2\n")

    def test_non_integer_size(self):
        with pytest.raises(SchemaError):
            load_params_csv("name,n,vehicles,capacity\na,3.5,1,2\n")

    def test_nonpositive_size(self):
        with pytest.raises(SchemaError):
            load_params_csv("name,n,vehicles,capacity\na,0,1,2\n")

    def test_bundled_set_matches_frozen_rows(self):
        rows = bundled_params()
        assert len(rows) == len(RESOURCE_ROWS) == 23
        for row in rows:
            n, k, cap = RESOURCE_ROWS[row.name][:3]
            assert (row.customers, row.vehicles, row.capacity) == (n, k, cap)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            InstanceParams("", 1, 1, 1)
        with pytest.raises(ValueError):
            InstanceParams("x", 1, 0, 1)


class TestParamsEstimate:
    def test_reference_instance(self):
        est = params_estimate(GOLDEN_5, EncodingKind.HOBO, SizeConvention.COMPAT)
        assert est.qubits == 7685
        assert est.depth == 38425
        assert est.quantum_volume == 295296125

    def test_unit_weight_measurements(self):
        est = params_estimate(GOLDEN_5, EncodingKind.QUBO, SizeConvention.COMPAT)
        assert est.qubits == 202505
        assert est.measurements == float(202505) ** 3


class TestResourceTable:
    def test_banner_names_the_conventions(self):
        text = render_resource_table([GOLDEN_5])
        assert text.splitlines()[0] == "# convention: compat | layers: 5 | log mode: floor"
        as_csv = render_resource_table([GOLDEN_5], fmt="csv")
        assert as_csv.splitlines()[0] == "# convention: compat | layers: 5 | log mode: floor"

    def test_reference_row_in_text_format(self):
        lines = render_resource_table([GOLDEN_5]).splitlines()
        row = lines[3].split()
        assert row == [
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

    def test_csv_format_parses(self):
        text = render_resource_table([GOLDEN_5], fmt="csv")
        body = text.split("\n", 1)[1]
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0][0] == "Problem Instance"
        assert rows[1][0] == "Golden_5"
        assert rows[1][4] == "202505"

    def test_every_bundled_row_matches_published_numbers(self):
        text = render_resource_table(bundled_params(), fmt="csv")
        body = text.split("\n", 1)[1]
        for row in csv.DictReader(io.StringIO(body)):
            name = row["Problem Instance"]
            _, _, _, qubo, hobo, depth, qv, err = RESOURCE_ROWS[name]
            assert int(row["QUBO"]) == qubo, name
            assert int(row["HOBO"]) == hobo, name
            assert int(row["Depth(N)"]) == depth, name
            assert int(row["Quantum Vol."]) == qv, name
            assert mantissa_close(row["Error Rate"], err), name

    def test_convention_switch_changes_qubo_column(self):
        strict = render_resource_table([GOLDEN_5], SizeConvention.STRICT, fmt="csv")
        row = list(csv.reader(io.StringIO(strict.split("\n", 1)[1])))[1]
        assert row[4] == str(5 * (201 * 201 + 900))
        assert row[5] == "7685"

    def test_log_mode_switch_changes_hobo_column(self):
        ceil = render_resource_table([GOLDEN_5], log_mode=LogMode.CEIL, fmt="csv")
        row = list(csv.reader(io.StringIO(ceil.split("\n", 1)[1])))[1]
        assert row[5] == "8050"

    def test_byte_determinism(self):
        params = bundled_params()
        assert render_resource_table(params) == render_resource_table(params)
        assert render_resource_table(params, fmt="csv") == render_resource_table(params, fmt="csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown table format"):
            render_resource_table([GOLDEN_5], fmt="html")

    def test_empty_list_renders_header_only(self):
        lines = render_resource_table([]).splitlines()
        assert len(lines) == 3  # banner, header, rule
        assert lines[1].split() == [c for col in RESOURCE_COLUMNS for c in col.split()]
        as_csv = render_resource_table([], fmt="csv").splitlines()
        assert len(as_csv) == 2

    def test_synthetic_row_keeps_derived_columns_consistent(self):
        text = render_resource_table(
            [InstanceParams("probe", 10, 1, 4)], fmt="csv"
        )
        row = list(csv.reader(io.StringIO(text.split("\n", 1)[1])))[1]
        qubits, depth, qv = int(row[5]), int(row[6]), int(row[7])
        assert depth == 5 * qubits
        assert qv == qubits * depth


class TestGapTable:
    def test_reference_gap_appears(self):
        records = gap_records_from_csv(bundled_gap_csv())
        text = render_gap_table(records)
        assert "22.42" in text
        assert "Loggi-n401-k23" in text

    def test_integers_print_without_decimal_point(self):
        records = [
            GapRecord("a", bks=336903, lower_bound=261353.7, gap_percent=22.42),
            GapRecord("b", bks=1234.0, lower_bound=1233.9, gap_percent=0.01),
            GapRecord("c", bks=10**400, lower_bound=1, gap_percent=100.0),
        ]
        lines = render_gap_table(records).splitlines()
        assert lines[3].split() == ["a", "336903", "261353.7", "22.42"]
        assert lines[4].split() == ["b", "1234", repr(1233.9), "0.01"]
        # integers print exactly, even beyond the float range
        assert lines[5].split() == ["c", str(10**400), "1", "100.00"]

    def test_gap_rounds_to_two_decimals(self):
        records = [GapRecord("b", bks=3, lower_bound=2, gap_percent=100 / 3)]
        assert "33.33" in render_gap_table(records)

    def test_csv_round_trip_keeps_all_rows(self):
        records = gap_records_from_csv(bundled_gap_csv())
        body = render_gap_table(records, fmt="csv").split("\n", 1)[1]
        rows = list(csv.DictReader(io.StringIO(body)))
        assert len(rows) == len(GAP_ROWS) == 12
        for row in rows:
            assert abs(float(row["Gap (%)"]) - GAP_ROWS[row["Instance"]][2]) < 0.01

    def test_empty_list_renders_header_only(self):
        assert len(render_gap_table([]).splitlines()) == 3

    def test_tight_bound_prints_zero_gap(self):
        record = GapRecord("even", bks=100, lower_bound=100.0, gap_percent=0.0)
        assert render_gap_table([record]).splitlines()[-1].split()[-1] == "0.00"


class TestEncodingQubits:
    """The qubit rule behind both table columns and every diagram point."""

    def test_real_counts_round_to_the_nearest_qubit(self):
        # 3 log2 3 + 1 = 5.75 rounds up; 10 log2 10 + 1 = 34.22 rounds down
        for n, real, whole in ((3, 5.75, 6), (10, 34.22, 34)):
            assert hobo_qubits(n, 1, 1, LogMode.REAL) == pytest.approx(real, abs=0.01)
            assert encoding_qubits(EncodingKind.HOBO, n, 1, 1, SizeConvention.STRICT, LogMode.REAL) == whole

    def test_each_encoding_reads_only_its_own_setting(self):
        for log_mode in LogMode:
            assert encoding_qubits(EncodingKind.QUBO, 200, 5, 900, SizeConvention.COMPAT, log_mode) == 202505
        for convention in SizeConvention:
            assert encoding_qubits(EncodingKind.HOBO, 200, 5, 900, convention, LogMode.FLOOR) == 7685


class TestDiagramPoints:
    def test_points_carry_classify_verdicts(self):
        small = [
            InstanceParams(f"s{n}-{k}-{c}", n, k, c) for n in (1, 2, 5, 9, 40) for k in (1, 3) for c in (1, 9, 100)
        ]
        # both sit exactly on the current-best qubit budget of 156
        edges = [InstanceParams("qubo-edge", 13, 1, 12), InstanceParams("hobo-edge", 18, 2, 7)]
        params = bundled_params() + small + edges
        for profile in default_profiles():
            for encoding in EncodingKind:
                points = diagram_points(params, profile, encoding)
                assert len(points) == 23 + 32
                assert any(p.feasible for p in points) and not all(p.feasible for p in points)
                for point, p in zip(points, params):
                    est = params_estimate(p, encoding, SizeConvention.COMPAT)
                    verdict = classify(est, profile)
                    assert point.label == p.name
                    assert point.n == est.qubits
                    assert point.d == est.depth
                    assert point.feasible == verdict.feasible
        current_best = named_profile("current-best")
        for p, encoding in zip(edges, (EncodingKind.QUBO, EncodingKind.HOBO)):
            point = diagram_points([p], current_best, encoding)[0]
            assert (point.n, point.feasible) == (156, True)

    def test_no_bundled_instance_fits_the_largest_default_profile(self):
        points = diagram_points(bundled_params(), named_profile("gen-next-high"))
        assert not any(p.feasible for p in points)

    def test_qubo_points_use_the_other_encoding(self):
        point = diagram_points([GOLDEN_5], named_profile("gen-next-high"), EncodingKind.QUBO)[0]
        assert point.n == 202505

    def test_point_validation(self):
        with pytest.raises(ValueError):
            DiagramPoint("x", n=0, d=1, feasible=True)
        with pytest.raises(ValueError):
            DiagramPoint("x", n=1, d=-1, feasible=True)


class TestFeasibilityDiagram:
    def test_svg_marks_every_point_with_its_verdict(self):
        profile = named_profile("gen-next-high")
        points = diagram_points(bundled_params(), profile)
        svg = feasibility_diagram(points, profile)
        assert svg.startswith("<svg ")
        assert svg.count('class="pt infeasible"') == 23
        assert svg.count('class="pt feasible"') == 0
        for point in points:
            assert f'data-label="{point.label}"' in svg

    def test_svg_draws_the_feasibility_star_and_guides(self):
        profile = named_profile("gen-next-high")
        svg = feasibility_diagram(diagram_points([GOLDEN_5], profile), profile)
        assert "<polygon points=" in svg
        assert svg.count('stroke-dasharray="6 4"') == 2
        assert "feasibility point (1200, 10000000)" in svg

    def test_feasible_points_render_green(self):
        from qcvrp import DiagramPoint, HardwareProfile

        profile = HardwareProfile("room", n_max=100, d_max=1000)
        points = [
            DiagramPoint("in", n=50, d=500, feasible=True),
            DiagramPoint("out", n=200, d=500, feasible=False),
        ]
        svg = feasibility_diagram(points, profile)
        assert svg.count('class="pt feasible"') == 1
        assert svg.count('class="pt infeasible"') == 1
        assert "#2e8b57" in svg and "#c0392b" in svg

    def test_csv_lists_rows_and_the_feasibility_point(self):
        profile = named_profile("gen-next-high")
        points = diagram_points(bundled_params(), profile)
        text = feasibility_diagram(points, profile, fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["label", "n", "d", "feasible"]
        assert len(rows) == 1 + 23 + 1
        assert rows[1] == ["Loggi-n401-k23", "79649", "398245", "false"]
        assert rows[-1] == ["feasibility-point", "1200", "10000000", ""]

    def test_byte_determinism(self):
        profile = named_profile("current-best")
        points = diagram_points(bundled_params(), profile)
        assert feasibility_diagram(points, profile) == feasibility_diagram(points, profile)
        assert feasibility_diagram(points, profile, fmt="csv") == feasibility_diagram(
            points, profile, fmt="csv"
        )

    def test_two_point_csv_shape(self):
        from qcvrp import DiagramPoint

        profile = named_profile("current-best")
        points = [
            DiagramPoint("a", n=10, d=50, feasible=True),
            DiagramPoint("b", n=10**4, d=5 * 10**4, feasible=False),
        ]
        lines = feasibility_diagram(points, profile, fmt="csv").splitlines()
        assert len(lines) == 4  # header, two points, feasibility-point trailer

    def test_feasible_labels_agree_across_formats(self):
        profile = named_profile("gen-next-high")
        points = diagram_points(bundled_params(), profile)
        svg = feasibility_diagram(points, profile, fmt="svg")
        rows = list(csv.reader(io.StringIO(feasibility_diagram(points, profile, fmt="csv"))))
        from_csv = {row[0] for row in rows[1:-1] if row[3] == "true"}
        from_svg = set()
        for line in svg.splitlines():
            if 'class="pt feasible"' in line:
                from_svg.add(line.split('data-label="')[1].split('"')[0])
        assert from_svg == from_csv

    def test_markup_in_labels_and_profile_names_is_escaped(self):
        from xml.dom import minidom

        from qcvrp import HardwareProfile

        label = 'a<b & "c" >d'
        profile = HardwareProfile('dev<&>"x"', n_max=100, d_max=1000)
        svg = feasibility_diagram(diagram_points([InstanceParams(label, 10, 2, 50)], profile), profile)
        doc = minidom.parseString(svg)

        def text_of(node):
            return "".join(child.data for child in node.childNodes if child.nodeType == child.TEXT_NODE)

        (circle,) = doc.getElementsByTagName("circle")
        assert circle.getAttribute("data-label") == label
        assert text_of(circle.getElementsByTagName("title")[0]).startswith(f"{label}: N=")
        assert text_of(doc.getElementsByTagName("text")[0]).startswith(f"Hardware feasibility: {profile.name} (")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            feasibility_diagram([], named_profile("current-best"))

    def test_unknown_format(self):
        profile = named_profile("current-best")
        points = diagram_points([GOLDEN_5], profile)
        with pytest.raises(ValueError, match="unknown diagram format"):
            feasibility_diagram(points, profile, fmt="png")


class TestGapDenominatorThreading:
    def test_bundled_gaps_use_the_solution_denominator(self):
        sol = gap_records_from_csv(bundled_gap_csv(), GapDenominator.SOLUTION)
        for rec in sol:
            assert abs(rec.gap_percent - GAP_ROWS[rec.instance_name][2]) < 0.01


def _render_columns_by_cell(header, rows, banner):
    """The text layout as a per-cell ljust/rjust loop, frozen here as the
    reference for the template-based renderer."""
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = [f"# {banner}"]
    lines.append("  ".join(h.ljust(w) if i == 0 else h.rjust(w) for i, (h, w) in enumerate(zip(header, widths))))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(w) if i == 0 else cell.rjust(w) for i, (cell, w) in enumerate(zip(row, widths)))
        )
    return "\n".join(lines) + "\n"


_cells = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=14)


@settings(max_examples=300, deadline=None)
@given(
    table=st.integers(1, 8).flatmap(
        lambda width: st.tuples(
            st.tuples(*[_cells] * width),
            st.one_of(
                st.just([]),
                st.lists(st.tuples(*[_cells] * width), min_size=1, max_size=1),
                st.lists(st.tuples(*[_cells] * width), min_size=2, max_size=40),
            ),
        )
    ),
    banner=_cells,
)
def test_text_layout_matches_the_per_cell_loop(table, banner):
    header, rows = table
    assert _render_columns(header, rows, banner, "text") == _render_columns_by_cell(header, rows, banner)


_sizes = st.tuples(st.integers(1, 10**12), st.integers(1, 200), st.integers(1, 10**15))


@settings(deadline=None)
@given(
    sizes=st.lists(_sizes, min_size=1, max_size=4),
    layers=st.integers(1, 9),
    budgets=st.tuples(st.integers(0, 28), st.integers(0, 30)).map(lambda e: (10 ** e[0], 10 ** e[1])),
)
def test_sweeps_match_the_estimate_path(sizes, layers, budgets):
    """Table rows and diagram points equal what full estimates and ``classify`` give."""
    params = [InstanceParams(f"i{i}", *size) for i, size in enumerate(sizes)]
    drawn = HardwareProfile("drawn", *budgets)
    for convention in SizeConvention:
        for log_mode in LogMode:
            expected = []
            for p in params:
                est = params_estimate(p, EncodingKind.HOBO, convention, layers, log_mode)
                qubo = qubo_qubits(p.customers, p.vehicles, p.capacity, convention)
                counts = (p.customers, p.vehicles, p.capacity, qubo)
                counts += (est.qubits, est.depth, est.quantum_volume)
                expected.append([p.name, *map(str, counts), f"{est.error_rate_threshold:.1e}"])
            text = render_resource_table(params, convention, layers, "text", log_mode)
            assert [line.split() for line in text.splitlines()[3:]] == expected
            table_csv = render_resource_table(params, convention, layers, "csv", log_mode)
            assert list(csv.reader(io.StringIO(table_csv)))[2:] == expected
            for encoding in EncodingKind:
                first = params_estimate(params[0], encoding, convention, layers, log_mode)
                # a profile whose corner is the first point checks the closed boundary
                for profile in (drawn, HardwareProfile("corner", first.qubits, first.depth)):
                    points = diagram_points(params, profile, encoding, convention, layers, log_mode)
                    assert len(points) == len(params)
                    for point, p in zip(points, params):
                        est = params_estimate(p, encoding, convention, layers, log_mode)
                        verdict = classify(est, profile)
                        assert point == DiagramPoint(p.name, est.qubits, est.depth, verdict.feasible)
