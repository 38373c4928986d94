from __future__ import annotations

import dataclasses
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vrp_text
from qcvrp import (
    CvrpError,
    CvrpInstance,
    DimensionMismatch,
    EncodingKind,
    IndexOutOfRange,
    InvalidInstance,
    MalformedLine,
    MissingSection,
    UnsupportedEdgeWeightType,
    WeightKind,
    build_qubo,
    estimate_instance,
    infer_vehicle_count,
    parse_instance,
    serialize_instance,
)
from qcvrp import instances
from qcvrp.instances import edge_weight, max_edge_weight, nint, weight_matrix

EXPLICIT_TEXT = """NAME : tiny-matrix
TYPE : CVRP
DIMENSION : 3
CAPACITY : 10
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : FULL_MATRIX
EDGE_WEIGHT_SECTION
0 7 2
7 0 4
2 4 0
DEMAND_SECTION
1 0
2 3
3 4
EOF
"""


class TestNint:
    def test_rounds_halves_up(self):
        assert nint(2.5) == 3
        assert nint(2.4999) == 2
        assert nint(0.5) == 1
        assert nint(3.0) == 3


class TestParsing:
    def test_triangle_fields(self, triangle):
        assert triangle.name == "tiny-k1"
        assert triangle.dimension == 3
        assert triangle.customers == 2
        assert triangle.capacity == 2
        assert triangle.vehicles == 1
        assert triangle.weight_kind is WeightKind.EUC_2D
        assert triangle.demands == (0, 1, 1)
        assert triangle.coords == ((0.0, 0.0), (0.0, 3.0), (4.0, 0.0))

    def test_triangle_weights(self, triangle):
        assert edge_weight(triangle, 0, 1) == 3
        assert edge_weight(triangle, 0, 2) == 4
        assert edge_weight(triangle, 1, 2) == 5
        assert edge_weight(triangle, 1, 1) == 0
        assert max_edge_weight(triangle) == 5

    def test_euclidean_rounding_is_nearest_with_halves_up(self):
        text = vrp_text("round", [(0, 0), (1.5, 2.0)], [0, 1], 5)
        inst = parse_instance(text)
        # the true distance is exactly 2.5
        assert edge_weight(inst, 0, 1) == 3

    def test_weight_matrix_matches_pairwise_weights(self, triangle):
        mat = weight_matrix(triangle)
        for i in range(3):
            for j in range(3):
                assert mat[i, j] == edge_weight(triangle, i, j)

    def test_explicit_full_matrix(self):
        inst = parse_instance(EXPLICIT_TEXT)
        assert inst.weight_kind is WeightKind.EXPLICIT
        assert edge_weight(inst, 0, 1) == 7
        assert edge_weight(inst, 2, 0) == 2
        assert inst.vehicles == 1  # ceil(7 / 10)

    def test_explicit_matrix_may_be_asymmetric(self):
        text = EXPLICIT_TEXT.replace("0 7 2\n7 0 4\n2 4 0", "0 7 2\n9 0 4\n2 4 0")
        inst = parse_instance(text)
        assert edge_weight(inst, 0, 1) == 7
        assert edge_weight(inst, 1, 0) == 9

    def test_indices_are_one_based_on_disk(self):
        text = vrp_text("order", [(0, 0), (1, 0), (2, 0)], [0, 5, 7], 12)
        inst = parse_instance(text)
        assert inst.demands == (0, 5, 7)

    def test_blank_lines_and_padding_tolerated(self, triangle_text):
        padded = "\n".join("  " + ln + "  " for ln in triangle_text.splitlines())
        padded = padded.replace("DEMAND_SECTION", "\n\nDEMAND_SECTION")
        assert parse_instance(padded) == parse_instance(triangle_text)

    def test_content_after_eof_is_ignored(self, triangle_text):
        assert parse_instance(triangle_text + "\nGARBAGE ???\n") == parse_instance(
            triangle_text
        )

    def test_edge_weight_index_out_of_range(self, triangle):
        with pytest.raises(IndexOutOfRange):
            edge_weight(triangle, 0, 3)
        with pytest.raises(IndexError):
            edge_weight(triangle, -1, 0)


FINITE = {"allow_nan": False, "allow_infinity": False}
# Points on the x axis at half-integer positions put distances exactly on
# the .5 rounding boundary; wide floats stay below 1e15 so every distance
# fits the matrix's int64.
WIDE = st.floats(-1e15, 1e15, **FINITE)
POINTS = st.one_of(
    st.tuples(st.integers(-1000, 1000).map(float), st.integers(-1000, 1000).map(float)),
    st.tuples(st.integers(-2000, 2000).map(lambda v: v / 2), st.just(0.0)),
    st.tuples(WIDE, WIDE),
)


# Small weights often put the row maximum on the diagonal.
SMALL_MATRICES = st.integers(2, 10).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 20), min_size=n, max_size=n), min_size=n, max_size=n)
)


def euclidean(coords, name="p", capacity=1, vehicles=1, demands=None) -> CvrpInstance:
    return CvrpInstance(
        name=name,
        dimension=len(coords),
        capacity=capacity,
        vehicles=vehicles,
        demands=tuple(demands) if demands is not None else (0,) * len(coords),
        weight_kind=WeightKind.EUC_2D,
        coords=tuple(coords),
    )


def explicit(rows, name="m", capacity=1, vehicles=1, demands=None) -> CvrpInstance:
    return CvrpInstance(
        name=name,
        dimension=len(rows),
        capacity=capacity,
        vehicles=vehicles,
        demands=tuple(demands) if demands is not None else (0,) * len(rows),
        weight_kind=WeightKind.EXPLICIT,
        explicit_weights=tuple(map(tuple, rows)),
    )


class TestLongestEdge:
    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(POINTS, min_size=2, max_size=30), block=st.integers(1, 40))
    def test_euclidean_matches_the_matrix(self, points, block):
        # a small block bound splits the rows into several blocks and a
        # short last one
        inst = euclidean(points)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(instances, "_BLOCK_PAIRS", block)
            assert max_edge_weight(inst) == int(weight_matrix(inst).max())

    @settings(max_examples=200, deadline=None)
    @given(rows=SMALL_MATRICES)
    def test_explicit_matches_the_matrix_whatever_the_diagonal(self, rows):
        inst = explicit(rows)
        assert max_edge_weight(inst) == int(weight_matrix(inst).max())

    def test_euclidean_never_holds_the_matrix(self):
        rng = random.Random(3000)
        inst = euclidean([(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(3000)])
        tracemalloc.start()
        try:
            max_edge_weight(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 3000 x 3000 matrix path peaks near 350 MB
        assert peak < 16 * 2**20


class TestOneLongestEdgeScan:
    @pytest.fixture
    def scans(self, monkeypatch):
        """Instances whose longest edge was scanned, one entry per scan."""
        scanned = []
        scan = instances._scan_max_edge_weight

        def counting_scan(inst):
            scanned.append(inst)
            return scan(inst)

        monkeypatch.setattr(instances, "_scan_max_edge_weight", counting_scan)
        return scanned

    @pytest.mark.parametrize("text_name", ["triangle_text", "explicit"])
    def test_both_estimates_and_the_auto_penalty_share_one_scan(self, scans, text_name, request):
        text = EXPLICIT_TEXT if text_name == "explicit" else request.getfixturevalue(text_name)
        unscanned = parse_instance(text)
        inst = parse_instance(text)
        qubo = estimate_instance(inst, EncodingKind.QUBO)
        hobo = estimate_instance(inst, EncodingKind.HOBO)
        model = build_qubo(inst)
        assert len(scans) == 1
        assert qubo == estimate_instance(unscanned, EncodingKind.QUBO)
        assert hobo == estimate_instance(unscanned, EncodingKind.HOBO)
        assert model.penalty == build_qubo(unscanned).penalty
        # the stored value stays outside the instance's identity
        assert inst == unscanned
        assert hash(inst) == hash(unscanned)
        assert repr(inst) == repr(unscanned)
        assert pickle.loads(pickle.dumps(inst)) == inst
        # a copy made by replace starts without it and scans again
        copy = dataclasses.replace(inst)
        assert max_edge_weight(copy) == max_edge_weight(inst)
        assert len(scans) == 3  # inst, unscanned, copy


class TestOneEuclideanRule:
    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.tuples(WIDE, WIDE), min_size=2, max_size=8))
    def test_pairwise_matrix_and_longest_edge_agree(self, points):
        # wide coordinates are where a different float formula (hypot)
        # lands on the other side of a rounding boundary
        inst = euclidean(points)
        mat = weight_matrix(inst)
        n = len(points)
        assert [[edge_weight(inst, i, j) for j in range(n)] for i in range(n)] == mat.tolist()
        assert max_edge_weight(inst) == mat.max()


class TestDepotNormalization:
    def test_depot_moved_to_node_zero(self):
        text = vrp_text("depot-late", [(5, 5), (0, 0), (9, 9)], [2, 0, 3], 9)
        text = text.replace("DEPOT_SECTION\n1\n-1", "DEPOT_SECTION\n2\n-1")
        inst = parse_instance(text)
        assert inst.demands[0] == 0
        assert inst.coords[0] == (0.0, 0.0)
        # the swapped customer keeps its own coordinate and demand
        assert inst.coords[1] == (5.0, 5.0)
        assert inst.demands[1] == 2

    def test_depot_swap_preserves_explicit_weights(self):
        text = EXPLICIT_TEXT.replace("DEMAND_SECTION\n1 0\n2 3", "DEPOT_SECTION\n2\n-1\nDEMAND_SECTION\n1 3\n2 0")
        inst = parse_instance(text)
        # disk node 2 became node 0: disk w(2,1)=7 is now w(0,1), and the
        # swapped pair keeps every distance consistent with the original
        assert inst.demands == (0, 3, 4)
        assert edge_weight(inst, 0, 1) == 7
        assert edge_weight(inst, 0, 2) == 4
        assert edge_weight(inst, 1, 2) == 2

    def test_depot_swap_permutes_asymmetric_rows_and_columns(self):
        # disk weight w(a, b) = 10a + b, so every entry names its disk pair
        text = "\n".join([
            "NAME : late-depot", "DIMENSION : 4", "CAPACITY : 9", "EDGE_WEIGHT_TYPE : EXPLICIT",
            "EDGE_WEIGHT_SECTION",
            *(" ".join(str(0 if a == b else 10 * a + b) for b in range(1, 5)) for a in range(1, 5)),
            "DEMAND_SECTION", "1 1", "2 2", "3 0", "4 4",
            "DEPOT_SECTION", "3", "-1", "EOF",
        ])
        inst = parse_instance(text)
        disk = [3, 2, 1, 4]  # the disk node now at each 0-based position
        assert inst.demands == (0, 2, 1, 4)
        assert inst.explicit_weights == tuple(
            tuple(0 if a == b else 10 * a + b for b in disk) for a in disk
        )

    def test_two_depots_rejected(self, triangle_text):
        text = triangle_text.replace("DEPOT_SECTION\n 1\n -1", "DEPOT_SECTION\n1\n2\n-1")
        with pytest.raises(MalformedLine, match="more than one depot"):
            parse_instance(text)

    def test_depot_out_of_range_rejected(self, triangle_text):
        text = triangle_text.replace("DEPOT_SECTION\n 1\n -1", "DEPOT_SECTION\n9\n-1")
        with pytest.raises(MalformedLine, match="depot index 9"):
            parse_instance(text)


class TestVehicleInference:
    def test_explicit_header_wins_over_name_suffix(self):
        text = vrp_text("foo-k7", [(0, 0), (1, 1)], [0, 1], 1, vehicles=2)
        assert parse_instance(text).vehicles == 2

    def test_name_suffix_wins_over_demand_bound(self):
        text = vrp_text("foo-k7", [(0, 0), (1, 1)], [0, 1], 1)
        assert parse_instance(text).vehicles == 7
        assert infer_vehicle_count("X-n401_k23", [0], 5) == 23

    def test_demand_bound_fallback(self):
        assert infer_vehicle_count("plain", [0, 5, 5, 1], 4) == 3  # ceil(11/4)
        assert infer_vehicle_count("plain", [0, 0], 4) == 1
        # a bare numeric suffix is not a fleet marker; the demand bound rules
        assert infer_vehicle_count("Golden_5", [0] + [41] * 100, 900) == 5
        assert infer_vehicle_count("toy", [0, 4, 6], 10) == 1
        assert infer_vehicle_count("toy", [0, 5, 6], 10) == 2

    def test_suffix_must_be_at_end(self):
        assert infer_vehicle_count("k9-suffix-elsewhere", [0, 9], 2) == 5


class TestParseErrors:
    @pytest.mark.parametrize("keyword", ["NAME", "DIMENSION", "CAPACITY", "EDGE_WEIGHT_TYPE"])
    def test_missing_required_keyword(self, triangle_text, keyword):
        lines = [
            ln
            for ln in triangle_text.splitlines()
            if not ln.startswith(keyword + " :")
        ]
        with pytest.raises(MissingSection, match=keyword):
            parse_instance("\n".join(lines))

    def test_missing_demand_section(self):
        text = "\n".join(
            ln
            for ln in TRIANGLE_LINES
            if not (ln.startswith("DEMAND") or (len(ln.split()) == 2 and ln[0].isdigit()))
        )
        with pytest.raises(MissingSection, match="DEMAND_SECTION"):
            parse_instance(text)

    def test_unknown_section_reports_line_number(self, triangle_text):
        text = triangle_text.replace("DEMAND_SECTION", "WEIRD_SECTION")
        with pytest.raises(MalformedLine, match="unknown section 'WEIRD_SECTION'") as err:
            parse_instance(text)
        assert err.value.line_number == 11

    def test_unsupported_weight_type(self, triangle_text):
        text = triangle_text.replace("EUC_2D", "GEO")
        with pytest.raises(UnsupportedEdgeWeightType, match="GEO"):
            parse_instance(text)

    def test_unsupported_matrix_layout(self):
        text = EXPLICIT_TEXT.replace("FULL_MATRIX", "UPPER_ROW")
        with pytest.raises(UnsupportedEdgeWeightType, match="UPPER_ROW"):
            parse_instance(text)

    def test_weight_section_under_euclidean_type(self, triangle_text):
        text = triangle_text.replace(
            "DEPOT_SECTION", "EDGE_WEIGHT_SECTION\n0 1 2\n1 0 3\n2 3 0\nDEPOT_SECTION"
        )
        with pytest.raises(MalformedLine, match="invalid for EUC_2D"):
            parse_instance(text)

    def test_coordinate_count_mismatch(self, triangle_text):
        text = triangle_text.replace(" 3 4 0\n", "")
        with pytest.raises(DimensionMismatch, match="coordinate"):
            parse_instance(text)

    def test_demand_count_mismatch(self, triangle_text):
        text = triangle_text.replace("3 1\n", "")
        with pytest.raises(DimensionMismatch, match="demand"):
            parse_instance(text)

    def test_matrix_entry_count_mismatch(self):
        text = EXPLICIT_TEXT.replace("2 4 0", "2 4")
        with pytest.raises(DimensionMismatch, match="edge weights"):
            parse_instance(text)

    def test_duplicate_coordinate_row(self, triangle_text):
        text = triangle_text.replace(" 2 0 3\n", " 2 0 3\n 2 0 3\n").replace(
            " 3 4 0\n", ""
        )
        with pytest.raises(MalformedLine, match="duplicate coordinate"):
            parse_instance(text)

    def test_duplicate_demand_row(self, triangle_text):
        text = triangle_text.replace("2 1\n", "2 1\n2 1\n").replace("3 1\n", "")
        with pytest.raises(MalformedLine, match="duplicate demand"):
            parse_instance(text)

    def test_node_index_outside_dimension(self, triangle_text):
        text = triangle_text.replace("3 1\n", "4 1\n")
        with pytest.raises(MalformedLine, match="outside 1..3"):
            parse_instance(text)

    def test_non_numeric_demand(self, triangle_text):
        text = triangle_text.replace("2 1\n", "2 x\n")
        with pytest.raises(MalformedLine, match="demand must be an integer"):
            parse_instance(text)

    def test_data_line_outside_section(self):
        with pytest.raises(MalformedLine, match="outside any section"):
            parse_instance("NAME : x\n1 2 3\n")

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("7 0 4", "7 x y", 9, "edge weight must be an integer, got 'x'"),
            ("7 0 4", "X1 0 4", 9, "edge weight must be an integer, got 'X1'"),
            ("7 0 4", "7 0 4\nWEIRD_SECTION", 10, "unknown section 'WEIRD_SECTION'"),
            ("NAME : tiny-matrix", "name : tiny-matrix", 1, "data line outside any section"),
            ("3 4\nEOF", "3 4\neof", 15, "demand rows are 'index demand'"),
        ],
        ids=["bad-weight-token", "upper-case-data", "unknown-section", "lower-keyword", "lower-eof"],
    )
    def test_error_names_the_line(self, old, new, line, message):
        with pytest.raises(MalformedLine, match=message) as err:
            parse_instance(EXPLICIT_TEXT.replace(old, new))
        assert err.value.line_number == line


class TestInstanceValidation:
    def test_dimension_lower_bound(self):
        with pytest.raises(InvalidInstance):
            CvrpInstance(
                name="x",
                dimension=1,
                capacity=1,
                vehicles=1,
                demands=(0,),
                weight_kind=WeightKind.EUC_2D,
                coords=((0.0, 0.0),),
            )

    def test_negative_demand_rejected(self):
        with pytest.raises(InvalidInstance, match="nonnegative"):
            CvrpInstance(
                name="x",
                dimension=2,
                capacity=1,
                vehicles=1,
                demands=(0, -1),
                weight_kind=WeightKind.EUC_2D,
                coords=((0.0, 0.0), (1.0, 1.0)),
            )

    @pytest.mark.parametrize(
        "row, bad_row, node",
        [(" 2 0 3\n", " 2 nan 3\n", 1), (" 3 4 0\n", " 3 4 inf\n", 2)],
        ids=["nan", "inf"],
    )
    def test_non_finite_coordinates_rejected(self, triangle_text, row, bad_row, node):
        # nodes are 0-based once parsed: file node 2 is node 1
        with pytest.raises(InvalidInstance, match=f"node {node} must be finite"):
            parse_instance(triangle_text.replace(row, bad_row))

    @pytest.mark.parametrize(
        "far", [(1e19, 0.0), (0.0, -math.nextafter(2.0**61, math.inf))], ids=["1e19", "past-bound"]
    )
    def test_coordinates_beyond_two_to_the_61_rejected(self, far):
        # a distance of 2**63 or more would wrap in the int64 weights
        with pytest.raises(InvalidInstance, match=r"node 1 must be finite and within 2\*\*61"):
            euclidean([(0.0, 0.0), far, (1.0, 0.0)])

    def test_widest_coordinates_keep_exact_weights(self):
        widest = euclidean([(-(2.0**61), -(2.0**61)), (2.0**61, 2.0**61)])
        assert max_edge_weight(widest) == int(weight_matrix(widest).max()) == nint(2.0**62.5)

    def test_depot_demand_must_be_zero(self, triangle_text):
        with pytest.raises(InvalidInstance, match="depot"):
            parse_instance(triangle_text.replace("1 0\n", "1 9\n"))

    def test_capacity_violations_listed_not_fatal(self):
        text = vrp_text("heavy", [(0, 0), (1, 0), (2, 0)], [0, 9, 1], 4)
        inst = parse_instance(text)
        assert inst.capacity_violations == (1,)

    @pytest.mark.parametrize("bad", [2.7, math.nan, math.inf, -math.inf])
    def test_non_integral_edge_weight_refused(self, bad):
        with pytest.raises(InvalidInstance, match=r"edge weight of node pair \(1, 0\) must be an integer"):
            explicit([[0, 1], [bad, 0]])

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
    def test_non_integral_demand_refused(self, bad):
        with pytest.raises(InvalidInstance, match="demand of node 2 must be an integer"):
            euclidean([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], capacity=5, demands=[0, 1, bad])

    def test_matrix_must_be_square(self):
        with pytest.raises(InvalidInstance, match="dimension x dimension"):
            CvrpInstance(
                name="x",
                dimension=2,
                capacity=1,
                vehicles=1,
                demands=(0, 1),
                weight_kind=WeightKind.EXPLICIT,
                explicit_weights=((0, 1, 2), (1, 0, 2)),
            )


class TestIntNormalisation:
    """Weights and demands given as anything ``int()`` takes exactly are
    stored as tuples of plain ints."""

    WEIGHTS = ((0, 1, 2), (1, 0, 3), (2, 3, 0))

    @staticmethod
    def build(rows, demands=(0, 1, 1)):
        return CvrpInstance(
            name="m",
            dimension=3,
            capacity=2,
            vehicles=1,
            demands=demands,
            weight_kind=WeightKind.EXPLICIT,
            explicit_weights=rows,
        )

    @pytest.mark.parametrize(
        "form",
        ["list rows", "tuple rows", "numpy int64", "numpy array", "bools", "digit strings", "whole floats"],
    )
    def test_every_form_stores_plain_int_tuples(self, form):
        import numpy as np

        rows = {
            "list rows": [list(r) for r in self.WEIGHTS],
            "tuple rows": self.WEIGHTS,
            "numpy int64": [[np.int64(w) for w in r] for r in self.WEIGHTS],
            "numpy array": np.array(self.WEIGHTS, dtype=np.int64),
            "bools": [[False, True, 2], [True, False, 3], [2, 3, False]],
            "digit strings": [[str(w) for w in r] for r in self.WEIGHTS],
            "whole floats": [[float(w) for w in r] for r in self.WEIGHTS],
        }[form]
        inst = self.build(rows)
        assert inst.explicit_weights == self.WEIGHTS
        assert {type(r) for r in inst.explicit_weights} == {tuple}
        assert {type(w) for r in inst.explicit_weights for w in r} == {int}

    @pytest.mark.parametrize("form", ["list", "numpy int64", "bools", "digit strings", "whole floats"])
    def test_demands_store_plain_ints(self, form):
        import numpy as np

        demands = {
            "list": [0, 1, 1],
            "numpy int64": np.array([0, 1, 1], dtype=np.int64),
            "bools": (False, True, True),
            "digit strings": ("0", "1", "1"),
            "whole floats": (0.0, 1.0, 1.0),
        }[form]
        inst = self.build(self.WEIGHTS, demands)
        assert inst.demands == (0, 1, 1)
        assert {type(q) for q in inst.demands} == {int}

    def test_int_rows_are_kept_not_rebuilt(self):
        inst = self.build(self.WEIGHTS)
        assert all(kept is given for kept, given in zip(inst.explicit_weights, self.WEIGHTS))


class TestSerialization:
    def test_round_trip_triangle(self, triangle):
        assert parse_instance(serialize_instance(triangle)) == triangle

    def test_round_trip_explicit(self):
        inst = parse_instance(EXPLICIT_TEXT)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_round_trip_preserves_inferred_fleet(self):
        # serialization writes VEHICLES, so the name convention need not
        # survive the trip for the fleet size to
        inst = parse_instance(vrp_text("foo-k7", [(0, 0), (1, 1)], [0, 1], 1))
        again = parse_instance(serialize_instance(inst).replace("foo-k7", "renamed"))
        assert again.vehicles == 7

    def test_round_trip_random_instances(self):
        rng = random.Random(20260821)
        for trial in range(100):
            dim = rng.randint(2, 8)
            cap = rng.randint(1, 50)
            name = rng.choice(["plain", f"set-k{rng.randint(1, 9)}", "a_b-k3"])
            demands = [0] + [rng.randint(0, cap) for _ in range(dim - 1)]
            if rng.random() < 0.5:
                coords = [
                    (round(rng.uniform(-50, 50), 2), float(rng.randint(-50, 50)))
                    for _ in range(dim)
                ]
                text = vrp_text(name, coords, demands, cap,
                                vehicles=rng.choice([None, rng.randint(1, 5)]))
            else:
                rows = [
                    [0 if i == j else rng.randint(0, 99) for j in range(dim)]
                    for i in range(dim)
                ]
                lines = [
                    f"NAME : {name}",
                    "TYPE : CVRP",
                    f"DIMENSION : {dim}",
                    f"CAPACITY : {cap}",
                    "EDGE_WEIGHT_TYPE : EXPLICIT",
                    "EDGE_WEIGHT_FORMAT : FULL_MATRIX",
                    "EDGE_WEIGHT_SECTION",
                    *(" ".join(str(w) for w in row) for row in rows),
                    "DEMAND_SECTION",
                    *(f"{i} {q}" for i, q in enumerate(demands, start=1)),
                    "EOF",
                ]
                text = "\n".join(lines) + "\n"
            first = parse_instance(text)
            second = parse_instance(serialize_instance(first))
            assert second == first, f"trial {trial} failed the round trip"


@st.composite
def any_instance(draw) -> CvrpInstance:
    dim = draw(st.integers(2, 8))
    fields = {
        "name": draw(st.text(alphabet="abXY09-_", min_size=1, max_size=8)),
        "capacity": draw(st.integers(1, 100)),
        "vehicles": draw(st.integers(1, 9)),
        "demands": [0] + draw(st.lists(st.integers(0, 100), min_size=dim - 1, max_size=dim - 1)),
    }
    if draw(st.booleans()):
        coord = st.floats(-(2.0**61), 2.0**61, **FINITE)
        point = st.tuples(coord, coord)
        return euclidean(draw(st.lists(point, min_size=dim, max_size=dim)), **fields)
    row = st.lists(st.integers(0, 10**6), min_size=dim, max_size=dim)
    return explicit(draw(st.lists(row, min_size=dim, max_size=dim)), **fields)


@settings(max_examples=200, deadline=None)
@given(any_instance())
def test_serialized_instances_parse_back_equal(inst):
    assert parse_instance(serialize_instance(inst)) == inst


TRIANGLE_LINES = [
    "NAME : tiny-k1",
    "TYPE : CVRP",
    "DIMENSION : 3",
    "EDGE_WEIGHT_TYPE : EUC_2D",
    "CAPACITY : 2",
    "NODE_COORD_SECTION",
    " 1 0 0",
    " 2 0 3",
    " 3 4 0",
    "DEMAND_SECTION",
    "1 0",
    "2 1",
    "3 1",
    "DEPOT_SECTION",
    " 1",
    " -1",
    "EOF",
]

# Replacement tokens for the fuzz below: numbers just inside and outside
# what the parser takes, non-finite and non-numeric words, and keywords.
FUZZ_TOKENS = st.sampled_from(
    ["0", "1", "-1", "2.5", "1e400", "nan", "inf", "-inf", "9" * 30, "0x10", "x", ":", "",
     "EOF", "NAME", "DIMENSION", "CAPACITY", "VEHICLES", "EDGE_WEIGHT_TYPE", "EUC_2D",
     "EXPLICIT", "FULL_MATRIX", "NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION", "DEMAND_SECTION",
     "DEPOT_SECTION"]
)


@st.composite
def mutated_instance_text(draw) -> str:
    """A valid EUC_2D or EXPLICIT instance with a few lines or tokens changed."""
    lines = list(draw(st.sampled_from([TRIANGLE_LINES, EXPLICIT_TEXT.splitlines()])))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(lines)))
        how = draw(st.sampled_from(["drop", "repeat", "swap", "insert", "token", "text"]))
        if how == "insert" or pos == len(lines):
            lines.insert(pos, " ".join(draw(st.lists(FUZZ_TOKENS, max_size=4))))
        elif how == "drop":
            del lines[pos]
        elif how == "repeat":
            lines.insert(pos, lines[pos])
        elif how == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[pos], lines[other] = lines[other], lines[pos]
        else:
            tokens = lines[pos].split() or [""]
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(FUZZ_TOKENS if how == "token" else st.text(max_size=6))
            lines[pos] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(mutated_instance_text())
def test_mutated_text_parses_or_raises_cvrp_or_value_error(text):
    # anything else, such as a TypeError or a numpy error, is a parser bug
    try:
        inst = parse_instance(text)
    except (CvrpError, ValueError):
        return
    assert parse_instance(serialize_instance(inst)) == inst
