from __future__ import annotations

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_instance
from qcvrp import (
    QuboModel,
    AUTO,
    CvrpInstance,
    LengthMismatch,
    TooLarge,
    VariableMap,
    WeightKind,
    brute_force_solve,
    build_qubo,
    count_terms,
    decode_routes,
    energy,
    export_model,
    parse_instance,
    parse_model,
)
from qcvrp.instances import max_edge_weight, weight_matrix
from qcvrp.qubo import (
    CAPACITY,
    DEPOT_DEPARTURE,
    DEPOT_RETURN,
    FLOW_BALANCE,
    SUBTOUR,
    VISIT_COUNT,
    VarIndex,
    _canonical_terms,
)
from routing_oracle import best_routes_cost
from test_acceptance import small_family

OPT_TOUR_BITS = "01100100"  # triangle optimum: depot -> 2 -> 1 -> depot, empty slack
ALT_TOUR_BITS = "10011000"  # the mirror tour, same cost, lexicographically later


def two_customer_instance(demands=(0, 2, 2), capacity=3) -> CvrpInstance:
    return CvrpInstance(
        name="pair",
        dimension=3,
        capacity=capacity,
        vehicles=1,
        demands=demands,
        weight_kind=WeightKind.EUC_2D,
        coords=((0.0, 0.0), (0.0, 3.0), (4.0, 0.0)),
    )


class TestVariableMap:
    def test_sizes(self):
        vmap = VariableMap(nodes=3, vehicles=2, capacity=4)
        assert vmap.num_route_vars == 2 * 3 * 2
        assert vmap.num_vars == 12 + 8
        assert [vmap.describe(s) for s in (12, 15, 16, 19)] == [
            "slack[v0, 0]",
            "slack[v0, 3]",
            "slack[v1, 0]",
            "slack[v1, 3]",
        ]

    def test_route_index_is_a_bijection(self):
        vmap = VariableMap(nodes=4, vehicles=3, capacity=2)
        seen = set()
        for v in range(3):
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    flat = vmap.route_index(VarIndex(i=i, j=j, v=v))
                    assert vmap.route_var(flat) == VarIndex(i=i, j=j, v=v)
                    seen.add(flat)
        assert seen == set(range(vmap.num_route_vars))

    def test_self_loops_have_no_variable(self):
        vmap = VariableMap(nodes=3, vehicles=1, capacity=1)
        with pytest.raises(IndexError):
            vmap.route_index(VarIndex(i=1, j=1, v=0))

    def test_describe(self):
        vmap = VariableMap(nodes=3, vehicles=1, capacity=2)
        assert vmap.describe(0) == "x[v0, 0->1]"
        assert vmap.describe(6) == "slack[v0, 0]"


class TestBuildQubo:
    def test_triangle_model_shape(self, triangle):
        model = build_qubo(triangle)
        assert model.num_vars == 8
        assert model.penalty == 30  # twice the node count times the longest edge
        assert model.offset == 240
        assert count_terms(model) == (8, 20)

    def test_single_customer_model_matches_hand_count(self):
        # Variables: x[0,0->1], x[0,1->0], two slack bits.  Objective puts
        # distance on both arcs; the squared constraints touch all four
        # variables linearly and couple (arcs), (arc, slack), (slack, slack).
        solo = CvrpInstance(
            name="solo",
            dimension=2,
            capacity=2,
            vehicles=1,
            demands=(0, 1),
            weight_kind=WeightKind.EUC_2D,
            coords=((0.0, 0.0), (3.0, 4.0)),
        )
        model = build_qubo(solo)
        assert model.num_vars == 4
        assert count_terms(model) == (4, 4)

    def test_count_terms_on_an_empty_model(self):
        empty = QuboModel(num_vars=0, linear={}, quadratic={}, offset=3, penalty=1)
        assert count_terms(empty) == (0, 0)

    def test_objective_coefficients_on_depot_arcs(self, triangle):
        # depot arcs gain no net penalty: their linear terms are pure distance
        model = build_qubo(triangle)
        vmap = model.var_map
        assert model.linear[vmap.route_index(VarIndex(i=0, j=1, v=0))] == 3
        assert model.linear[vmap.route_index(VarIndex(i=0, j=2, v=0))] == 4

    def test_explicit_penalty_matches_auto_here(self, triangle):
        auto = build_qubo(triangle, AUTO)
        manual = build_qubo(triangle, 30)
        assert (auto.linear, auto.quadratic, auto.offset) == (
            manual.linear,
            manual.quadratic,
            manual.offset,
        )

    def test_auto_penalty_never_zero(self):
        flat = CvrpInstance(
            name="flat",
            dimension=2,
            capacity=1,
            vehicles=1,
            demands=(0, 1),
            weight_kind=WeightKind.EUC_2D,
            coords=((0.0, 0.0), (0.0, 0.0)),
        )
        model = build_qubo(flat)
        assert model.penalty > 0
        bits, best = brute_force_solve(model)
        assert best == 0
        assert decode_routes(model, bits, flat).violations == []

    @pytest.mark.parametrize("bad", [0, -1, "big", True])
    def test_penalty_validation(self, triangle, bad):
        with pytest.raises(ValueError):
            build_qubo(triangle, bad)

    @pytest.mark.parametrize("bad", [math.inf, 1e400], ids=["inf", "1e400"])
    def test_non_finite_float_penalty_refused(self, triangle, bad):
        with pytest.raises(ValueError, match="penalty must be finite"):
            build_qubo(triangle, bad)

    def test_int_penalty_of_any_size_accepted(self, triangle):
        model = build_qubo(triangle, 10**400)
        assert model.penalty == 10**400
        back = parse_model(export_model(model))
        assert (back.linear, back.quadratic, back.offset) == (model.linear, model.quadratic, model.offset)


def closure_build(inst: CvrpInstance, penalty=AUTO, forbid_two_cycles: bool = True) -> QuboModel:
    """The term-by-term builder that ``build_qubo`` replaced, kept as its reference."""
    if penalty == AUTO:
        scale = 2 * inst.dimension * max(1, max_edge_weight(inst))
    else:
        scale = penalty
    nodes, k, cap = inst.dimension, inst.vehicles, inst.capacity
    vmap = VariableMap(nodes, k, cap)
    weights = weight_matrix(inst)
    linear, quadratic = {}, {}
    offset = 0

    def add_linear(a, coeff):
        linear[a] = linear.get(a, 0) + coeff

    def add_quadratic(a, b, coeff):
        key = (a, b) if a < b else (b, a)
        quadratic[key] = quadratic.get(key, 0) + coeff

    def add_square(terms, constant):
        nonlocal offset
        offset += scale * constant * constant
        for pos, (a, ca) in enumerate(terms):
            add_linear(a, scale * (ca * ca + 2 * constant * ca))
            for b, cb in terms[pos + 1 :]:
                add_quadratic(a, b, 2 * scale * ca * cb)

    def arc(v, i, j):
        return vmap.route_index(VarIndex(i=i, j=j, v=v))

    for v in range(k):
        for i in range(nodes):
            for j in range(nodes):
                if i != j and weights[i, j]:
                    add_linear(arc(v, i, j), int(weights[i, j]))
    for i in range(1, nodes):
        add_square([(arc(v, i, j), 1) for v in range(k) for j in range(nodes) if j != i], -1)
    for v in range(k):
        add_square([(arc(v, 0, j), 1) for j in range(1, nodes)], -1)
        add_square([(arc(v, i, 0), 1) for i in range(1, nodes)], -1)
        for i in range(1, nodes):
            balance = [(arc(v, i, j), 1) for j in range(nodes) if j != i]
            balance += [(arc(v, j, i), -1) for j in range(nodes) if j != i]
            add_square(balance, 0)
        load = [
            (arc(v, i, j), inst.demands[i])
            for i in range(1, nodes)
            for j in range(nodes)
            if j != i and inst.demands[i]
        ]
        load += [(vmap.num_route_vars + v * cap + t, 1) for t in range(cap)]
        add_square(load, -cap)
    if forbid_two_cycles:
        for v in range(k):
            for i in range(1, nodes):
                for j in range(i + 1, nodes):
                    add_quadratic(arc(v, i, j), arc(v, j, i), scale)
    linear = {a: c for a, c in linear.items() if c != 0}
    quadratic = {ab: c for ab, c in quadratic.items() if c != 0}
    return QuboModel(vmap.num_vars, linear, quadratic, offset, scale, vmap)


@st.composite
def small_instances(draw) -> CvrpInstance:
    """EUC_2D or EXPLICIT instances up to 6 nodes, 3 vehicles and capacity 8;
    coordinates may sit near the 2**61 bound, weights near 2**62."""
    nodes = draw(st.integers(2, 6))
    cap = draw(st.integers(1, 8))
    demands = (0, *draw(st.lists(st.integers(0, cap), min_size=nodes - 1, max_size=nodes - 1)))
    common = dict(name="h", dimension=nodes, capacity=cap, vehicles=draw(st.integers(1, 3)), demands=demands)
    reach = draw(st.sampled_from([20, 2**61]))
    if draw(st.booleans()):
        point = st.tuples(st.integers(-reach, reach), st.integers(-reach, reach))
        coords = draw(st.lists(point, min_size=nodes, max_size=nodes))
        return CvrpInstance(weight_kind=WeightKind.EUC_2D, coords=coords, **common)
    row = st.lists(st.integers(0, 2 * reach), min_size=nodes, max_size=nodes)
    matrix = draw(st.lists(row, min_size=nodes, max_size=nodes))
    return CvrpInstance(weight_kind=WeightKind.EXPLICIT, explicit_weights=matrix, **common)


class TestBuilderEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(small_instances(), st.sampled_from([AUTO, 7, 2.5, 0.1]), st.booleans())
    def test_matches_the_closure_builder(self, inst, penalty, forbid):
        model = build_qubo(inst, penalty, forbid_two_cycles=forbid)
        reference = closure_build(inst, penalty, forbid)
        assert model.num_vars == reference.num_vars
        for got, want in ((model.linear, reference.linear), (model.quadratic, reference.quadratic)):
            assert got == want
            assert {key: type(c) for key, c in got.items()} == {key: type(c) for key, c in want.items()}
            assert list(got) == sorted(got)
        assert model.offset == reference.offset and type(model.offset) is type(reference.offset)
        assert export_model(model) == export_model(reference)


class TestEnergy:
    def test_hand_computed_energies(self, triangle):
        model = build_qubo(triangle)
        assert energy(model, OPT_TOUR_BITS) == 12
        assert energy(model, ALT_TOUR_BITS) == 12
        assert energy(model, "00000000") == model.offset
        # dropping the return arc of the optimum costs one squared penalty
        # step on three constraints but saves the arc weight
        assert energy(model, "01000100") > 12

    def test_assignment_validation(self, triangle):
        model = build_qubo(triangle)
        with pytest.raises(LengthMismatch):
            energy(model, "0101")
        with pytest.raises(ValueError, match="'0' and '1'"):
            energy(model, "0110010x")

    def test_synthetic_single_term_models(self):
        one = QuboModel(num_vars=1, linear={0: 3}, quadratic={}, offset=5, penalty=1)
        assert energy(one, "0") == 5
        assert energy(one, "1") == 8
        pair = QuboModel(num_vars=2, linear={}, quadratic={(0, 1): 2}, offset=1, penalty=1)
        assert energy(pair, "11") == 3
        assert energy(pair, "10") == 1
        assert energy(pair, "01") == 1


class TestBruteForce:
    def test_one_variable_models(self):
        down = QuboModel(num_vars=1, linear={0: -1}, quadratic={}, offset=7, penalty=1)
        assert brute_force_solve(down) == ("1", 6)
        up = QuboModel(num_vars=1, linear={0: 1}, quadratic={}, offset=7, penalty=1)
        assert brute_force_solve(up) == ("0", 7)

    def test_triangle_optimum_and_tie_break(self, triangle):
        bits, best = brute_force_solve(build_qubo(triangle))
        assert best == 12
        assert bits == OPT_TOUR_BITS  # ties go to the lexicographically smallest

    def test_determinism_across_chunk_sizes(self, triangle):
        model = build_qubo(triangle)
        results = {brute_force_solve(model, chunk_bits=b) for b in (1, 3, 7, 18)}
        assert results == {(OPT_TOUR_BITS, 12)}

    def test_reduced_and_plain_enumeration_agree(self, triangle):
        model = build_qubo(triangle)
        plain = parse_model(export_model(model))  # no var map: groups from coefficients
        assert plain.var_map is None
        assert brute_force_solve(plain) == brute_force_solve(model)

    def test_non_uniform_slack_falls_back_to_enumeration(self, triangle):
        model = build_qubo(triangle)
        model.linear[6] = model.linear.get(6, 0) + 1  # perturb one slack bit
        plain = parse_model(export_model(model))
        assert brute_force_solve(model) == brute_force_solve(plain)

    def test_two_vehicles_split_the_customers(self):
        inst = CvrpInstance(
            name="split",
            dimension=3,
            capacity=1,
            vehicles=2,
            demands=(0, 1, 1),
            weight_kind=WeightKind.EUC_2D,
            coords=((0.0, 0.0), (0.0, 3.0), (4.0, 0.0)),
        )
        model = build_qubo(inst)
        bits, best = brute_force_solve(model)
        decoding = decode_routes(model, bits, inst)
        assert decoding.violations == []
        assert decoding.total_cost == 14  # two out-and-back runs
        assert best == 14
        served = sorted(node for route in decoding.routes for node in route if node)
        assert served == [1, 2]

    def test_energy_equals_route_cost_at_wide_coordinates(self):
        # w(0, 1) = 2532970243386393 under sqrt(dx*dx + dy*dy); hypot gives
        # ...392, so a second rounding rule would split energy from cost
        inst = CvrpInstance(
            name="wide",
            dimension=3,
            capacity=2,
            vehicles=1,
            demands=(0, 1, 1),
            weight_kind=WeightKind.EUC_2D,
            coords=(
                (890541391107844.5, 802854915222967.2),
                (-938820033932892.9, -949108278013078.4),
                (0.0, 0.0),
            ),
        )
        model = build_qubo(inst)
        bits, best = brute_force_solve(model)
        decoding = decode_routes(model, bits, inst)
        assert decoding.violations == []
        assert best == decoding.total_cost == 5066973234061196

    def test_size_cap(self, triangle):
        with pytest.raises(TooLarge):
            brute_force_solve(build_qubo(triangle), max_vars=5)

    def test_matches_oracle_on_a_random_instance(self):
        inst = family_instance(random.Random(3), customers=3, vehicles=1, capacity=2)
        model = build_qubo(inst)
        bits, best = brute_force_solve(model)
        decoding = decode_routes(model, bits, inst)
        assert decoding.violations == []
        assert decoding.total_cost == best_routes_cost(inst)
        assert best == decoding.total_cost


def reference_solve(model: QuboModel) -> tuple[str, object]:
    """Plain exhaustive search in index order; the first strict minimum wins."""
    best = None
    for bits in itertools.product("01", repeat=model.num_vars):
        assignment = "".join(bits)
        value = energy(model, assignment)
        if best is None or value < best[1]:
            best = (assignment, value)
    return best


@st.composite
def planted_models(draw) -> QuboModel:
    """Small integer models with planted groups of interchangeable variables.

    Variables share a kind; the coefficients depend only on kinds, so equal
    kinds are interchangeable.  Kinds start as contiguous runs (like slack
    registers), indices may then be permuted so that groups interleave, and
    one linear term may be nudged to break a group.  Many zero couplings let
    trailing groups decouple, and tiny coefficients make ties common.
    """
    m = draw(st.integers(1, 12))
    kinds = sorted(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))
    if draw(st.booleans()):
        kinds = draw(st.permutations(kinds))
    coeff = st.integers(-2, 2)
    sparse = st.sampled_from([0, 0, 0, -2, -1, 1, 2])
    lin_of = {k: draw(coeff) for k in sorted(set(kinds))}
    pair_of = {}
    linear = {i: lin_of[k] for i, k in enumerate(kinds) if lin_of[k]}
    quadratic = {}
    for i, j in itertools.combinations(range(m), 2):
        key = tuple(sorted((kinds[i], kinds[j])))
        if key not in pair_of:
            pair_of[key] = draw(sparse)
        if pair_of[key]:
            quadratic[(i, j)] = pair_of[key]
    if draw(st.booleans()):
        nudged = draw(st.integers(0, m - 1))
        linear[nudged] = linear.get(nudged, 0) + 1
    return QuboModel(m, linear, quadratic, offset=draw(coeff), penalty=1)


class TestSolverKernel:
    @settings(max_examples=150, deadline=None)
    @given(planted_models())
    def test_matches_plain_exhaustive_search(self, model):
        expected = reference_solve(model)
        for chunk_bits in (1, 3, 18):
            assert brute_force_solve(model, chunk_bits=chunk_bits) == expected

    def test_interleaved_groups_keep_the_tie_break(self):
        # Bit 0 is enumerated; groups {1, 3} and {2, 4} are reduced.  With
        # bit 0 clear each group ties between one and two set bits, and
        # setting bit 0 ties with clearing it.  The smallest optimal count
        # goes on each group's highest-index member.
        model = QuboModel(
            num_vars=5,
            linear={0: 2, 1: -1, 3: -1, 2: -2, 4: -2},
            quadratic={(1, 3): 1, (2, 4): 2, (0, 1): -1, (0, 3): -1},
            offset=0,
            penalty=1,
        )
        assert reference_solve(model) == ("00011", -3)
        for chunk_bits in (0, 1, 18):
            assert brute_force_solve(model, chunk_bits=chunk_bits) == ("00011", -3)

    def test_model_read_back_from_text_solves_alike(self):
        for inst in small_family():
            model = build_qubo(inst)
            assert brute_force_solve(parse_model(export_model(model))) == brute_force_solve(
                model
            ), inst.name

    @pytest.mark.parametrize(
        "linear, offset",
        [({0: math.nan}, 0), ({0: math.inf}, 0), ({0: 1}, -math.inf), ({0: 1e308, 1: 1e308}, 0)],
    )
    def test_non_finite_coefficients_are_rejected(self, linear, offset):
        model = QuboModel(num_vars=2, linear=linear, quadratic={}, offset=offset, penalty=1)
        with pytest.raises(ValueError, match="finite"):
            brute_force_solve(model)

    @pytest.mark.parametrize(
        "linear, quadratic, message",
        [
            ({-1: -5}, {}, "linear index -1 outside 0..1"),
            ({5: 1}, {}, "linear index 5 outside 0..1"),
            ({}, {(0, 2): 1}, r"index pair \(0, 2\) outside 0..1"),
            ({}, {(-1, 0): 1}, r"index pair \(-1, 0\) outside 0..1"),
        ],
    )
    def test_indices_outside_the_model_are_rejected(self, linear, quadratic, message):
        # numpy, or a list, would read index -1 as the last variable
        model = QuboModel(num_vars=2, linear=linear, quadratic=quadratic, offset=0, penalty=1)
        with pytest.raises(ValueError, match=message):
            brute_force_solve(model)
        with pytest.raises(ValueError, match=message):
            energy(model, "01")


class TestTwoCycleRule:
    @staticmethod
    def far_pair_instance() -> CvrpInstance:
        return CvrpInstance(
            name="far-pair",
            dimension=4,
            capacity=3,
            vehicles=1,
            demands=(0, 1, 1, 1),
            weight_kind=WeightKind.EUC_2D,
            coords=((0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (100.0, 1.0)),
        )

    def test_degree_rules_alone_admit_an_isolated_pair(self):
        inst = self.far_pair_instance()
        relaxed = build_qubo(inst, forbid_two_cycles=False)
        bits, best = brute_force_solve(relaxed)
        decoding = decode_routes(relaxed, bits, inst)
        # the cheap optimum keeps the far pair on a private loop
        assert any(v.kind == SUBTOUR for v in decoding.violations)
        assert best < best_routes_cost(inst)

    def test_pair_rule_restores_the_true_optimum(self):
        inst = self.far_pair_instance()
        model = build_qubo(inst)
        bits, best = brute_force_solve(model)
        decoding = decode_routes(model, bits, inst)
        assert decoding.violations == []
        assert best == decoding.total_cost == best_routes_cost(inst)

    def test_pair_rule_is_free_for_valid_tours(self, triangle):
        with_rule = build_qubo(triangle)
        without = build_qubo(triangle, forbid_two_cycles=False)
        for bits in (OPT_TOUR_BITS, ALT_TOUR_BITS):
            assert energy(with_rule, bits) == energy(without, bits)


class TestDecodeRoutes:
    def test_valid_tour(self, triangle):
        model = build_qubo(triangle)
        decoding = decode_routes(model, ALT_TOUR_BITS, triangle)
        assert decoding.routes == [[0, 1, 2, 0]]
        assert decoding.violations == []
        assert decoding.total_cost == 12
        assert decoding.is_valid

    def test_empty_assignment_reports_missing_everything(self, triangle):
        model = build_qubo(triangle)
        decoding = decode_routes(model, "00000000", triangle)
        kinds = sorted(v.kind for v in decoding.violations)
        assert kinds == [DEPOT_DEPARTURE, DEPOT_RETURN, VISIT_COUNT, VISIT_COUNT]
        assert decoding.routes == [[0]]
        assert not decoding.is_valid

    def test_capacity_violation(self):
        inst = two_customer_instance(demands=(0, 2, 2), capacity=3)
        model = build_qubo(inst)
        # full tour 0 -> 1 -> 2 -> 0 carries demand 4 over capacity 3
        bits = "100110" + "000"
        decoding = decode_routes(model, bits, inst)
        assert [v.kind for v in decoding.violations] == [CAPACITY]
        assert decoding.violations[0].vehicle == 0

    def test_flow_imbalance_and_visit_count(self, triangle):
        model = build_qubo(triangle)
        vmap = model.var_map
        bits = ["0"] * 8
        bits[vmap.route_index(VarIndex(i=0, j=1, v=0))] = "1"
        bits[vmap.route_index(VarIndex(i=2, j=0, v=0))] = "1"
        decoding = decode_routes(model, "".join(bits), triangle)
        kinds = {v.kind for v in decoding.violations}
        assert kinds == {VISIT_COUNT, FLOW_BALANCE}
        flow_nodes = sorted(v.node for v in decoding.violations if v.kind == FLOW_BALANCE)
        assert flow_nodes == [1, 2]

    def test_two_vehicles_converging_on_one_customer(self):
        duo = CvrpInstance(
            name="duo",
            dimension=2,
            capacity=1,
            vehicles=2,
            demands=(0, 1),
            weight_kind=WeightKind.EUC_2D,
            coords=((0.0, 0.0), (3.0, 4.0)),
        )
        model = build_qubo(duo)
        # both vehicles drive depot -> customer, nobody drives back
        decoding = decode_routes(model, "101000", duo)
        kinds = {(v.kind, v.node) for v in decoding.violations}
        assert (VISIT_COUNT, 1) in kinds

    def test_double_depot_run(self, triangle):
        model = build_qubo(triangle)
        vmap = model.var_map
        bits = ["0"] * 8
        for i, j in ((0, 1), (1, 0), (0, 2), (2, 0)):
            bits[vmap.route_index(VarIndex(i=i, j=j, v=0))] = "1"
        decoding = decode_routes(model, "".join(bits), triangle)
        kinds = sorted(v.kind for v in decoding.violations)
        assert kinds == [DEPOT_DEPARTURE, DEPOT_RETURN]

    def test_decode_needs_a_variable_map(self, triangle):
        model = parse_model(export_model(build_qubo(triangle)))
        with pytest.raises(ValueError, match="variable map"):
            decode_routes(model, "0" * 8, triangle)


class TestModelText:
    def test_round_trip(self, triangle):
        built = build_qubo(triangle)
        # an integer past 2**53 prints exactly, a fraction as its repr
        wide = dataclasses.replace(built, linear={**built.linear, 0: 2**60 + 1, 1: 0.5})
        assert "\nL 0 1152921504606846977\nL 1 0.5\n" in export_model(wide)
        for model in (built, wide):
            again = parse_model(export_model(model))
            assert again.num_vars == model.num_vars
            assert again.offset == model.offset
            assert again.penalty == model.penalty
            assert again.linear == model.linear
            assert dict(again.quadratic) == dict(model.quadratic)

    def test_header_shape(self, triangle):
        text = export_model(build_qubo(triangle))
        assert text.splitlines()[0] == "QUBO 8 240 30"

    def test_duplicate_lines_merge(self):
        model = parse_model("QUBO 2 0 1\nL 0 2\nL 0 3\nQ 0 1 1\nQ 1 0 2\n")
        assert model.linear == {0: 5}
        assert model.quadratic == {(0, 1): 3}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "header"),
            ("QUBO 2 0\n", "header"),
            ("QUBO 0 0 1\n", "positive"),
            ("QUBO 2 0 1\nL 5 1\n", "out of range"),
            ("QUBO 2 0 1\nQ 0 0 1\n", "bad index pair"),
            ("QUBO 2 0 1\nZ 0 1\n", "expected"),
            ("QUBO 2 0 1\nL 0 abc\n", "not a number"),
            ("QUBO x 0 1\n", "line 1: num_vars 'x' is not an integer"),
            ("QUBO 2 0 1\nL 0 1\nL y 1\n", "line 3: index 'y' is not an integer"),
            ("QUBO 2 0 1\nQ 0 z 1\n", "line 2: index 'z' is not an integer"),
            ("QUBO 2 0 1\nL 0 nan\n", "line 2: 'nan' is not a finite number"),
            ("QUBO 2 0 1\nQ 0 1 -inf\n", "line 2: '-inf' is not a finite number"),
            ("QUBO 2 inf 1\n", "line 1: 'inf' is not a finite number"),
            ("QUBO 2 0 1\n\n\nL 0 x", "line 4: 'x' is not a number"),
            ("\nQUBO x 0 1\n", "line 2: num_vars 'x' is not an integer"),
            ("QUBO 2 0 -5\n", "line 1: penalty must be positive"),
            ("QUBO 2 0 0\n", "line 1: penalty must be positive"),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_model(text)

    def test_header_word_is_exactly_qubo(self):
        with pytest.raises(ValueError, match="must start with a 'QUBO' header line"):
            parse_model("QUBOX 2 0 1\n")

    def test_float_coefficients_survive(self):
        model = parse_model("QUBO 2 0.5 2.25\nL 0 -1.5\nQ 0 1 0.125\n")
        assert energy(model, "11") == 0.5 - 1.5 + 0.125


coefficients = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-50, 50),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def text_models(draw, values=coefficients) -> QuboModel:
    m = draw(st.integers(1, 12))
    index = st.integers(0, m - 1)
    linear = draw(st.dictionaries(index, values, max_size=m))
    pairs = st.tuples(index, index).filter(lambda ab: ab[0] < ab[1])
    quadratic = draw(st.dictionaries(pairs, values, max_size=20)) if m > 1 else {}
    offset = draw(st.one_of(st.integers(-(2**70), 2**70), st.floats(-1e9, 1e9)))
    penalty = draw(st.one_of(st.integers(1, 2**70), st.floats(0.001, 1e9)))
    return QuboModel(m, linear, quadratic, offset, penalty)


def as_list(terms: dict) -> list:
    return [(key, c, type(c)) for key, c in terms.items()]


class TestModelTextProperties:
    @settings(max_examples=200, deadline=None)
    @given(text_models())
    def test_round_trip(self, model):
        back = parse_model(export_model(model))
        assert back.linear == {a: c for a, c in model.linear.items() if c != 0}
        assert back.quadratic == {ab: c for ab, c in model.quadratic.items() if c != 0}
        assert (back.num_vars, back.offset, back.penalty) == (model.num_vars, model.offset, model.penalty)
        assert list(back.linear) == sorted(back.linear)
        assert list(back.quadratic) == sorted(back.quadratic)

    @settings(max_examples=200, deadline=None)
    @given(text_models(values=st.integers(-(10**15) + 1, 10**15 - 1)), st.data())
    def test_perturbed_text_reads_alike(self, model, data):
        text = export_model(model)
        head, *lines = text.splitlines()
        assert _canonical_terms(text.partition("\n")[2], model.num_vars) is not None
        if not lines:
            return
        pos = data.draw(st.integers(0, len(lines) - 1))
        kind, *tokens = lines[pos].split()
        how = data.draw(st.sampled_from(["blank", "tab", "l-after-q", "repeat", "16 digits"]))
        if how == "blank":
            lines.insert(pos, "")
        elif how == "tab":
            lines[pos] = lines[pos].replace(" ", "\t", 1)
        elif how == "l-after-q":  # the last L line, so the order of the terms holds
            n_lin = sum(line.startswith("L") for line in lines)
            if not 0 < n_lin < len(lines):
                return
            lines.append(lines.pop(n_lin - 1))
        elif how == "repeat":
            coeff = int(tokens[-1])
            lines[pos : pos + 1] = [" ".join([kind, *tokens[:-1], str(part)]) for part in (coeff - 1, 1)]
        else:
            sign, digits = tokens[-1][:-1].rstrip("0123456789"), tokens[-1].lstrip("-")
            lines[pos] = " ".join([kind, *tokens[:-1], sign + digits.zfill(16)])
        perturbed = "\n".join([head, *lines]) + "\n"
        assert _canonical_terms(perturbed.partition("\n")[2], model.num_vars) is None
        fast, slow = parse_model(text), parse_model(perturbed)
        assert as_list(slow.linear) == as_list(fast.linear)
        assert as_list(slow.quadratic) == as_list(fast.quadratic)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text(alphabet="LQ0123456789- \n\t\r\x0c").map(lambda body: "QUBO 4 0 1\n" + body),
        )
    )
    def test_any_text_parses_or_raises_value_error(self, text):
        try:
            parse_model(text)
        except ValueError:
            pass


def test_energy_values_are_integers_for_integer_instances(triangle):
    model = build_qubo(triangle)
    bits, best = brute_force_solve(model)
    assert isinstance(best, int)
    assert isinstance(energy(model, bits), int)
