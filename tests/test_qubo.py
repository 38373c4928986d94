from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcvrp.qubo as qubo_module
from conftest import family_instance
from qcvrp import (
    QuboModel,
    AUTO,
    CvrpInstance,
    LengthMismatch,
    SizeConvention,
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
    qubo_qubits,
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
    _index_codes,
    _Terms,
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
        empty = QuboModel(num_vars=1, linear={}, quadratic={}, offset=3, penalty=1)
        assert count_terms(empty) == (0, 0)

    def test_objective_coefficients_on_depot_arcs(self, triangle):
        # depot arcs gain no net penalty: their linear terms are pure distance
        model = build_qubo(triangle)
        vmap = VariableMap(triangle.dimension, triangle.vehicles, triangle.capacity)
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
    """The term-by-term builder that ``build_qubo`` replaced, kept as its
    reference; ``forbid_two_cycles=False`` gives the plain degree-rule model."""
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
    return QuboModel(vmap.num_vars, linear, quadratic, offset, scale)


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
    @given(small_instances(), st.sampled_from([AUTO, 7, 2.5, 0.1]))
    def test_matches_the_closure_builder(self, inst, penalty):
        model = build_qubo(inst, penalty)
        reference = closure_build(inst, penalty)
        assert model.num_vars == reference.num_vars
        for got, want in ((model.linear, reference.linear), (model.quadratic, reference.quadratic)):
            assert got == want
            assert {key: type(c) for key, c in got.items()} == {key: type(c) for key, c in want.items()}
            assert list(got) == sorted(got)
        assert model.offset == reference.offset and type(model.offset) is type(reference.offset)
        assert export_model(model) == export_model(reference)
        # the two-cycle rule only touches the pairs x[v, i -> j] * x[v, j -> i]
        relaxed = closure_build(inst, penalty, forbid_two_cycles=False)
        vmap = VariableMap(inst.dimension, inst.vehicles, inst.capacity)
        pairs = {
            (vmap.route_index(VarIndex(i, j, v)), vmap.route_index(VarIndex(j, i, v)))
            for v in range(inst.vehicles)
            for i, j in itertools.combinations(range(1, inst.dimension), 2)
        }
        assert (model.linear, model.offset) == (relaxed.linear, relaxed.offset)

        def without_pairs(terms):
            return {key: c for key, c in terms.items() if key not in pairs}

        assert without_pairs(model.quadratic) == without_pairs(relaxed.quadratic)

    @settings(max_examples=60, deadline=None)
    @given(small_instances())
    def test_variable_count_is_the_strict_qubit_count_less_self_loops(self, inst):
        # the closed form counts k * (n + 1) self-loop bits that have no variable
        n, k = inst.customers, inst.vehicles
        assert build_qubo(inst).num_vars == qubo_qubits(n, k, inst.capacity, SizeConvention.STRICT) - k * (n + 1)


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
        results = set()
        for chunk_bits in (1, 3, 7, 18):
            with mock.patch.object(qubo_module, "_CHUNK_BITS", chunk_bits):
                results.add(brute_force_solve(model))
        assert results == {(OPT_TOUR_BITS, 12)}

    def test_reduced_and_plain_enumeration_agree(self, triangle):
        model = build_qubo(triangle)
        plain = parse_model(export_model(model))  # groups are read from the coefficients
        assert plain == model
        assert brute_force_solve(plain) == brute_force_solve(model)

    def test_non_uniform_slack_falls_back_to_enumeration(self, triangle):
        built = build_qubo(triangle)
        model = dataclasses.replace(built, linear={**built.linear, 6: built.linear.get(6, 0) + 1})  # perturb one slack bit
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

    def test_size_cap(self):
        # the dense bound is checked before any term is read
        with pytest.raises(TooLarge, match="1025 variables exceed the dense bound of 1024"):
            brute_force_solve(parse_model("QUBO 1025 0 1\n"))
        # fully coupled with no two bits alike: only the last bit is reduced
        quadratic = {(a, b): a + b for a, b in itertools.combinations(range(31), 2)}
        with pytest.raises(TooLarge, match=r"enumeration work 2\*\*30 \* \(1 \+ 1\) exceeds the bound of 2\*\*30"):
            brute_force_solve(QuboModel(31, {}, quadratic, 0, 1))

    def test_matches_oracle_on_a_random_instance(self):
        inst = family_instance(random.Random(3), customers=3, vehicles=1, capacity=2)
        model = build_qubo(inst)
        bits, best = brute_force_solve(model)
        decoding = decode_routes(model, bits, inst)
        assert decoding.violations == []
        assert decoding.total_cost == best_routes_cost(inst)
        assert best == decoding.total_cost

    # Above the former 30-variable cap: the slack registers are reduced, so
    # 24 (n=3, k=2) and 20 (n=4, k=1) route bits are enumerated.  Seed 3 is
    # an n=4 instance whose optimum is a tour; see the next test.
    @pytest.mark.parametrize("customers, vehicles, capacity, seed", [(3, 2, 10, 0), (3, 2, 16, 1), (4, 1, 200, 3)])
    def test_matches_oracle_above_thirty_variables(self, customers, vehicles, capacity, seed):
        inst = family_instance(random.Random(seed), customers, vehicles, capacity)
        model = build_qubo(inst)
        assert model.num_vars > 30
        bits, best = brute_force_solve(model)
        decoding = decode_routes(model, bits, inst)
        assert decoding.violations == []
        assert best == decoding.total_cost == best_routes_cost(inst)

    def test_four_customers_admit_a_depot_avoiding_loop(self):
        # With four customers the rules admit one out-and-back run plus a
        # loop over the other three; the decoder reports it.  Seeds 0-2 of
        # the n=4, k=1 family solve to such a loop at C = 3..8 and C = 200.
        inst = family_instance(random.Random(0), customers=4, vehicles=1, capacity=3)
        model = build_qubo(inst)
        bits, best = brute_force_solve(model)
        decoding = decode_routes(model, bits, inst)
        assert [v.kind for v in decoding.violations] == [SUBTOUR]
        assert best == decoding.total_cost < best_routes_cost(inst)


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
            with mock.patch.object(qubo_module, "_CHUNK_BITS", chunk_bits):
                assert brute_force_solve(model) == expected

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
            with mock.patch.object(qubo_module, "_CHUNK_BITS", chunk_bits):
                assert brute_force_solve(model) == ("00011", -3)

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
        def make():
            return QuboModel(num_vars=2, linear=linear, quadratic={}, offset=offset, penalty=1)

        if all(map(math.isfinite, [*linear.values(), offset])):
            # finite terms whose float sum overflows: a valid model that only the solver refuses
            with pytest.raises(ValueError, match="model coefficients and offset must be finite"):
                brute_force_solve(make())
        else:
            with pytest.raises(ValueError, match="finite"):
                make()

    @pytest.mark.parametrize(
        "linear, quadratic, offset",
        [({0: 10**400}, {}, 0), ({}, {(0, 1): -(10**400)}, 0), ({0: 1}, {}, 10**400)],
        ids=["linear", "quadratic", "offset"],
    )
    def test_ints_beyond_float_range_are_rejected(self, linear, quadratic, offset):
        model = QuboModel(num_vars=2, linear=linear, quadratic=quadratic, offset=offset, penalty=1)
        with pytest.raises(ValueError, match="model coefficients and offset must be finite"):
            brute_force_solve(model)

    @pytest.mark.parametrize(
        "linear, quadratic, message",
        [
            ({-1: -5}, {}, "linear index -1 outside 0..1"),
            ({5: 1}, {}, "linear index 5 outside 0..1"),
            ({}, {(0, 2): 1}, r"index pair \(0, 2\) outside 0..1"),
            ({}, {(-1, 0): 1}, r"index pair \(-1, 0\) outside 0..1"),
            ({0: 1, 2**70: 1}, {}, f"linear index {2**70} outside 0..1"),
            ({0: 1}, {(0, 1): 1, (1, -(2**64)): 1}, rf"index pair \(1, {-(2**64)}\) outside 0..1"),
        ],
    )
    def test_indices_outside_the_model_are_rejected(self, linear, quadratic, message):
        # numpy, or a list, would read index -1 as the last variable
        with pytest.raises(ValueError, match=message):
            QuboModel(num_vars=2, linear=linear, quadratic=quadratic, offset=0, penalty=1)


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
        relaxed = closure_build(inst, forbid_two_cycles=False)
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
        without = closure_build(triangle, forbid_two_cycles=False)
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
        vmap = VariableMap(triangle.dimension, triangle.vehicles, triangle.capacity)
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
        vmap = VariableMap(triangle.dimension, triangle.vehicles, triangle.capacity)
        bits = ["0"] * 8
        for i, j in ((0, 1), (1, 0), (0, 2), (2, 0)):
            bits[vmap.route_index(VarIndex(i=i, j=j, v=0))] = "1"
        decoding = decode_routes(model, "".join(bits), triangle)
        kinds = sorted(v.kind for v in decoding.violations)
        assert kinds == [DEPOT_DEPARTURE, DEPOT_RETURN]

    def test_read_back_model_decodes_like_the_built_one(self, triangle):
        built = build_qubo(triangle)
        read_back = parse_model(export_model(built))
        for bits in (OPT_TOUR_BITS, ALT_TOUR_BITS, "0" * 8, "1" * 8, "01000100"):
            assert decode_routes(read_back, bits, triangle) == decode_routes(built, bits, triangle)
        other = two_customer_instance(capacity=3)  # the triangle's nodes, one more slack bit
        with pytest.raises(ValueError, match="the model has 8 variables, the instance's layout 9"):
            decode_routes(read_back, "0" * 8, other)


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

    def test_built_model_equals_its_read_back(self, triangle):
        for inst in (triangle, *small_family()):
            model = build_qubo(inst)
            assert parse_model(export_model(model)) == model, inst.name

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



# The dict-walking code that array-backed models replaced, kept as the
# reference that their results must match in value and type.


def frozen_energy(model: QuboModel, assignment: str):
    bits = dict(enumerate(1 if c == "1" else 0 for c in assignment))
    last = model.num_vars - 1
    total = model.offset
    try:
        for a, coeff in model.linear.items():
            if bits[a]:
                total += coeff
    except KeyError:
        raise ValueError(f"linear index {a} outside 0..{last}") from None
    try:
        for (a, b), coeff in model.quadratic.items():
            if bits[a] & bits[b]:
                total += coeff
    except KeyError:
        raise ValueError(f"quadratic index pair ({a}, {b}) outside 0..{last}") from None
    return total


def frozen_count_terms(model: QuboModel) -> tuple[int, int]:
    return (sum(1 for c in model.linear.values() if c != 0), sum(1 for c in model.quadratic.values() if c != 0))


def frozen_dense(model: QuboModel):
    """The solver's float form of a model, with its finiteness check."""
    m = model.num_vars
    lin = np.zeros(m)
    quad = np.zeros((m, m))
    try:  # an int beyond float range cannot be added
        for a, coeff in model.linear.items():
            if not 0 <= a < m:
                raise ValueError(f"linear index {a} outside 0..{m - 1}")
            lin[a] += coeff
        for (a, b), coeff in model.quadratic.items():
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"quadratic index pair ({a}, {b}) outside 0..{m - 1}")
            if a == b:
                lin[a] += coeff
            else:
                quad[a, b] += coeff
                quad[b, a] += coeff
        offset = float(model.offset)
    except OverflowError:
        raise ValueError("model coefficients and offset must be finite") from None
    with np.errstate(over="ignore"):
        magnitude = abs(offset) + np.abs(lin).sum() + np.abs(quad).sum()
    if not math.isfinite(magnitude):
        raise ValueError("model coefficients and offset must be finite")
    return lin, quad, offset


def frozen_format_number(value) -> str:
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def frozen_export(model: QuboModel) -> str:
    lines = [f"QUBO {model.num_vars} {frozen_format_number(model.offset)} {frozen_format_number(model.penalty)}"]
    lines += [f"L {a} {frozen_format_number(model.linear[a])}" for a in sorted(model.linear) if model.linear[a] != 0]
    lines += [
        f"Q {a} {b} {frozen_format_number(model.quadratic[a, b])}"
        for a, b in sorted(model.quadratic)
        if model.quadratic[a, b] != 0
    ]
    return "\n".join(lines) + "\n"


def frozen_solve(model: QuboModel):
    # the enumeration kernel is unchanged; only its float form and the
    # final energy read the terms
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qubo_module, "_dense", frozen_dense)
        patch.setattr(qubo_module, "energy", frozen_energy)
        return brute_force_solve(model)


def typed(value):
    return tuple(map(typed, value)) if isinstance(value, tuple) else (value, type(value))


def outcomes(model: QuboModel, assignments: list[str], frozen: bool) -> list:
    """What each model function returns or raises, with the types of the values."""
    calls = [(frozen_energy if frozen else energy, a) for a in assignments]
    calls += [(frozen_count_terms if frozen else count_terms,), (frozen_export if frozen else export_model,)]
    if model.num_vars <= 14:
        calls.append((frozen_solve if frozen else brute_force_solve,))
    results = []
    for f, *args in calls:
        try:
            results.append(typed(f(model, *args)))
        except (ValueError, TooLarge, OverflowError) as exc:  # a float plus an int beyond float range overflows
            results.append((type(exc), str(exc)))
    return results


def index_pairs(m: int):
    """Index pairs ``(a, b)`` with ``0 <= a < b < m``; ``m`` is at least 2."""
    return st.tuples(st.integers(0, m - 2), st.integers(1, m - 1)).filter(lambda ab: ab[0] < ab[1])


NUMPY_SCALARS = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(-1e6, 1e6).map(np.float64),
    st.booleans().map(np.bool_),
)


@st.composite
def hand_models(draw) -> QuboModel:
    """Models built in code: keys in any order, zero coefficients, and ints,
    big ints, a 400-digit int, bools, floats and numpy scalars mixed."""
    m = draw(st.integers(1, 10))
    index = st.integers(0, m - 1)
    values = st.one_of(
        st.just(0),
        st.integers(-50, 50),
        st.integers(-(2**70), 2**70),
        st.floats(-1e6, 1e6),
        st.booleans(),
        st.just(-(10**399) - 7),
        NUMPY_SCALARS,
    )
    linear = draw(st.dictionaries(index, values, max_size=m))
    quadratic = draw(st.dictionaries(index_pairs(m), values, max_size=20)) if m > 1 else {}
    offset = draw(st.one_of(st.integers(-(2**70), 2**70), st.floats(-1e6, 1e6), NUMPY_SCALARS))
    penalty = draw(
        st.one_of(st.integers(1, 2**70), st.floats(1e-3, 1e9), st.just(np.int64(3)), st.just(np.float64(0.5)))
    )
    return QuboModel(draw(st.sampled_from([m, np.int64(m)])), linear, quadratic, offset, penalty)


@st.composite
def model_makers(draw, kinds=("built", "read back", "line parser", "hand-built")):
    """A function that makes a fresh model, and its variable count: built
    (int64, wide object arrays, float penalties), read back through the
    fast path or the line parser, or built in code."""
    kind = draw(st.sampled_from(kinds))
    if kind == "hand-built":
        model = draw(hand_models())
        return (lambda: dataclasses.replace(model)), model.num_vars
    if kind == "line parser":  # reversed lines are out of canonical order
        head, *lines = export_model(draw(text_models())).splitlines()
        text = "\n".join([head, *reversed(lines)]) + "\n"
        return (lambda: parse_model(text)), parse_model(text).num_vars
    inst = draw(small_instances())
    penalty = draw(st.sampled_from([AUTO, 7, 2.5, 0.1]))
    if kind == "built":
        return (lambda: build_qubo(inst, penalty)), build_qubo(inst, penalty).num_vars
    text = export_model(build_qubo(inst, penalty))
    return (lambda: parse_model(text)), parse_model(text).num_vars


# Reads that a term mapping and a plain dict must answer alike.
TERM_ACTIONS = {
    "len": lambda terms, key: len(terms),
    "[]": lambda terms, key: terms[key] if key in terms else None,
    "items": lambda terms, key: list(terms.items()),
}


class TestArrayBackedModels:
    @settings(max_examples=120, deadline=None)
    @given(model_makers(), st.data())
    def test_matches_the_dict_walking_code(self, maker, data):
        make, m = maker
        bits = st.text(alphabet="01", min_size=m, max_size=m)
        assignments = ["0" * m, "1" * m, data.draw(bits), data.draw(bits)]
        model = make()
        fresh = outcomes(model, assignments, frozen=False)  # before any dict is read
        frozen = outcomes(model, assignments, frozen=True)
        assert fresh == frozen
        assert outcomes(model, assignments, frozen=False) == frozen  # once the terms have been read

    def test_fifteen_digit_coefficients_summing_past_int64(self):
        # 11 175 selected terms of 999999999999999 sum to ~1.1e19 > 2**63
        m = 150
        lines = [f"QUBO {m} -7 1"] + [f"L {a} -{10**15 - 1 - a}" for a in range(m)]
        lines += [f"Q {a} {b} {10**15 - 1}" for a, b in itertools.combinations(range(m), 2)]
        text = "\n".join(lines) + "\n"
        assert _canonical_terms(text.partition("\n")[2], m) is not None
        for assignment in ("1" * m, "01" * (m // 2)):
            got = energy(parse_model(text), assignment)
            want = frozen_energy(parse_model(text), assignment)
            assert type(got) is int and got == want
        assert energy(parse_model(text), "1" * m) > 2**63

    def test_assigning_one_dict_keeps_the_other(self, triangle):
        built = build_qubo(triangle)
        quadratic = dict(build_qubo(triangle).quadratic)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.linear = {0: 1}
        model = dataclasses.replace(built, linear={0: 1})
        assert model.quadratic == quadratic and model.quadratic is built.quadratic
        assert energy(model, "1" * 8) == model.offset + 1 + sum(quadratic.values())

    def test_dataclass_behaviour_is_unchanged(self, triangle):
        text = export_model(build_qubo(triangle))
        plain = parse_model(text)
        plain = QuboModel(plain.num_vars, plain.linear, plain.quadratic, plain.offset, plain.penalty)
        assert repr(parse_model(text)) == repr(plain)
        assert parse_model(text) == plain
        assert dataclasses.replace(parse_model(text), penalty=7) == dataclasses.replace(plain, penalty=7)
        assert dataclasses.replace(parse_model(text), linear={}).quadratic == plain.quadratic
        assert build_qubo(triangle) != dataclasses.replace(build_qubo(triangle), offset=0)
        with pytest.raises(AttributeError, match="has no attribute 'lienar'"):
            parse_model(text).lienar
        built = build_qubo(triangle)
        assert build_qubo(triangle) == built == copy.deepcopy(built) == pickle.loads(pickle.dumps(built))
        assert " at 0x" not in repr(built) and repr(built) == repr(parse_model(text)) and built == parse_model(text)

    def test_reading_and_solving_build_no_dicts(self, triangle, monkeypatch):
        dicts, arrays = [], []  # one entry per term kind converted
        real_dict, real_values = qubo_module._array_dict, qubo_module._coefficients
        monkeypatch.setattr(qubo_module, "_array_dict", lambda *a: dicts.append(1) or real_dict(*a))
        monkeypatch.setattr(qubo_module, "_coefficients", lambda *a: arrays.append(1) or real_values(*a))
        text = export_model(build_qubo(triangle))
        model = parse_model(text)
        assert count_terms(model) == (8, 20)
        assert energy(model, OPT_TOUR_BITS) == 12
        assert brute_force_solve(model) == (OPT_TOUR_BITS, 12)
        assert len(model.linear) == 8 and len(model.quadratic) == 20
        assert model == parse_model(text)  # equal arrays of one dtype need no dict
        assert dicts == []
        assert model.quadratic[0, 1] == 60  # a read builds that kind's dict and keeps its arrays
        assert dicts == [1]
        assert export_model(model) == text
        assert arrays == []
        given = dataclasses.replace(model, linear=dict(model.linear))  # a mapping is converted once, here
        assert (dicts, arrays) == ([1, 1], [1])
        assert export_model(given) == text and energy(given, OPT_TOUR_BITS) == 12
        assert count_terms(given) == (8, 20) and brute_force_solve(given) == (OPT_TOUR_BITS, 12)
        assert (dicts, arrays) == ([1, 1], [1])
        line_read = parse_model(text.replace("\n", "\n\n"))  # the line parser's dicts too
        assert export_model(line_read) == text and count_terms(line_read) == (8, 20)
        assert arrays == [1, 1, 1]

    @settings(max_examples=80, deadline=None)
    @given(model_makers(kinds=("built", "read back", "line parser")), st.data())
    def test_reads_and_edits_match_a_plain_dict_copy(self, maker, data):
        # the twin is made from plain dict copies, so it takes the conversion
        # at construction that a built or parsed model skips
        make, m = maker
        other = make()
        plain = {"linear": dict(other.linear), "quadratic": dict(other.quadratic)}
        model, twin = make(), dataclasses.replace(other, **plain)
        assignments = ["1" * m, data.draw(st.text(alphabet="01", min_size=m, max_size=m))]
        values = st.one_of(st.just(0), st.integers(-50, 50), st.floats(-1e3, 1e3))
        for _ in range(data.draw(st.integers(1, 8))):
            field = data.draw(st.sampled_from(["linear", "quadratic"] if m > 1 else ["linear"]))
            new_key = st.integers(0, m - 1) if field == "linear" else index_pairs(m)
            key = data.draw(st.sampled_from(list(plain[field])) | new_key if plain[field] else new_key)
            value = data.draw(values)
            action = data.draw(st.sampled_from([*TERM_ACTIONS, "reassign", "evaluate"]))
            if action == "reassign":
                plain[field] = {**plain[field], key: value}
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(model, field, plain[field])
                model = dataclasses.replace(model, **{field: plain[field]})
                twin = dataclasses.replace(twin, **{field: plain[field]})
            elif action == "evaluate":
                assert outcomes(model, assignments, frozen=False) == outcomes(twin, assignments, frozen=False)
            else:
                act = TERM_ACTIONS[action]
                assert act(getattr(model, field), key) == act(plain[field], key)
        assert outcomes(model, assignments, frozen=False) == outcomes(twin, assignments, frozen=False)
        for field in ("linear", "quadratic"):
            terms, twin_terms = getattr(model, field), getattr(twin, field)
            assert terms == plain[field] and plain[field] == terms and terms == twin_terms
            assert list(terms.items()) == list(plain[field].items()) and repr(terms) == repr(plain[field])

    def test_equality_follows_the_dicts(self, triangle):
        built = build_qubo(triangle)
        same = parse_model(export_model(built))
        assert built.quadratic == same.quadratic and dict(built.quadratic) == same.quadratic
        assert same.quadratic == dict(built.quadratic) and built.linear != same.quadratic
        reordered = dict(reversed(list(built.linear.items())))
        assert same.linear == reordered and reordered == same.linear
        reordered[0] += 1
        assert same.linear != reordered and reordered != same.linear
        assert same.linear != list(same.linear) and same.linear != None  # noqa: E711

        def terms(*values, dtype=None):
            return _Terms((np.arange(len(values)), np.array(values, dtype=dtype)))

        # numpy calls int64 2**53 + 1 equal to float64 2**53, Python does not
        assert terms(2**53 + 1) != terms(2.0**53) and terms(2.0**53) != terms(2**53 + 1)
        assert terms(2**53 + 1) == terms(2**53 + 1) and terms(2**53 + 1) != terms(2**53)
        assert terms(2**53 + 1) != {0: 2.0**53} and {0: 2.0**53} != terms(2**53 + 1)
        assert terms(3, 0.5) == terms(3.0, 0.5) == {0: 3, 1: 0.5}
        nan = float("nan")  # dicts compare values by identity first, numpy does not
        assert terms(nan, dtype=object) == terms(nan, dtype=object) == {0: nan}
        assert terms(nan) != terms(nan)
        assert terms(True, 10**30, dtype=object) == terms(1, 10**30, dtype=object)
        assert _Terms((np.array([1, 0]), np.array([4, 3]))) == terms(3, 4)

    def test_copies_and_replacements(self, triangle):
        built = build_qubo(triangle)
        text = export_model(built)
        for model in (built, parse_model(text), parse_model(text.replace(" ", "  "))):
            plain = dict(model.quadratic)
            assert type(plain) is dict and list(plain) == sorted(plain) and len(plain) == len(model.quadratic)
            with pytest.raises(TypeError):
                model.linear[0] = 1
            for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
                assert (twin.linear, twin.quadratic) == (model.linear, model.quadratic)
                assert export_model(twin) == text
                with pytest.raises(dataclasses.FrozenInstanceError):
                    twin.linear = {}
                twin = dataclasses.replace(twin, linear={**twin.linear, 0: twin.linear[0] + 1})
                assert export_model(twin) != text and export_model(model) == text
            replaced = dataclasses.replace(model, penalty=7)
            assert replaced.quadratic is model.quadratic and export_model(replaced).startswith("QUBO 8 240 7\n")
            assert dataclasses.replace(model, linear={}).quadratic == plain
        read_back = parse_model(text)
        assert copy.deepcopy(read_back) == read_back == pickle.loads(pickle.dumps(read_back))
        assert repr(copy.deepcopy(read_back)) == repr(read_back)

    def test_sparse_indices_get_no_name_table(self):
        # one name per possible index would cost O(num_vars) for two terms
        columns = (np.array([10**6 - 1]), np.array([3]))
        table, codes = _index_codes(columns)
        assert table.tolist() == [3, 10**6 - 1]
        assert [table[c].tolist() for c in codes] == [[10**6 - 1], [3]]
        model = parse_model(f"QUBO {10**6} 0 1\nL {10**6 - 1} 5\nQ 3 {10**6 - 1} -1\n")
        assert export_model(model) == f"QUBO {10**6} 0 1\nL {10**6 - 1} 5\nQ 3 {10**6 - 1} -1\n"
        assert (model.linear, model.quadratic) == ({10**6 - 1: 5}, {(3, 10**6 - 1): -1})


class TestModelConstruction:
    @pytest.mark.parametrize(
        "linear, quadratic, message",
        [
            ({0.5: 1}, {}, r"linear key 0\.5 is not an index"),
            ({"0": 1}, {}, "linear key '0' is not an index"),
            ({(0,): 1}, {}, r"linear key \(0,\) is not an index"),
            ({}, {(0, 1, 1): 1}, r"quadratic key \(0, 1, 1\) is not an index pair"),
            ({}, {(0,): 1}, r"quadratic key \(0,\) is not an index pair"),
            ({}, {0: 1}, "quadratic key 0 is not an index pair"),
            ({}, {(0.0, 1): 1}, r"quadratic key \(0\.0, 1\) is not an index pair"),
            ({}, {(1, 1): 3}, r"quadratic index pair \(1, 1\) is not ordered a < b"),
            ({}, {(2, 0): 1, (0, 2): 2}, r"quadratic index pair \(2, 0\) is not ordered a < b"),
            ({}, {(0, 1): 1, (5, 5): 7}, r"quadratic index pair \(5, 5\) is not ordered a < b"),
            ({}, {(70_000, 12): 2**70}, r"quadratic index pair \(70000, 12\) is not ordered a < b"),
        ],
    )
    def test_malformed_keys_are_refused(self, linear, quadratic, message):
        with pytest.raises(ValueError, match=message):
            QuboModel(10**5, linear, quadratic, 0, 1)

    @pytest.mark.parametrize(
        "linear, quadratic, offset, penalty, message",
        [
            ({0: math.nan}, {}, 0, 1, "linear index 0: nan is not a finite number"),
            ({}, {(0, 1): -math.inf}, 0, 1, r"quadratic index pair \(0, 1\): -inf is not a finite number"),
            ({0: "1"}, {}, 0, 1, "linear index 0: '1' is not a finite number"),
            ({}, {}, np.float64("nan"), 1, "offset nan is not a finite number"),
            ({}, {}, 0, math.inf, "penalty inf is not a finite number"),
            ({}, {}, 0, -1, "penalty must be positive"),
            ({}, {}, 0, 0.0, "penalty must be positive"),
            ({}, {}, 0, np.int64(0), "penalty must be positive"),
        ],
    )
    def test_values_that_do_not_read_back_are_refused(self, linear, quadratic, offset, penalty, message):
        with pytest.raises(ValueError, match=message):
            QuboModel(2, linear, quadratic, offset, penalty)

    @pytest.mark.parametrize(
        "num_vars, message",
        [(0, "num_vars must be positive"), (-3, "num_vars must be positive"), (2.5, "num_vars 2.5 is not an integer")],
    )
    def test_variable_counts_that_do_not_read_back_are_refused(self, num_vars, message):
        with pytest.raises(ValueError, match=message):
            QuboModel(num_vars, {}, {}, 0, 1)

    def test_built_float_terms_past_float_range_are_refused(self, triangle):
        # a finite penalty whose products overflow would leave inf terms, which no text reads back
        with pytest.raises(ValueError, match=r"penalty 1e\+308 is too large"):
            build_qubo(triangle, 1e308)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        model = QuboModel(
            np.int64(2),
            {np.int64(0): np.float64(0.5), 1: np.int64(5)},
            {(np.int32(0), np.int64(1)): np.bool_(True)},
            np.float64(0.5),
            np.int64(3),
        )
        assert export_model(model) == "QUBO 2 0.5 3\nL 0 0.5\nL 1 5\nQ 0 1 1\n"
        assert [typed(item) for item in model.linear.items()] == [((0, int), (0.5, float)), ((1, int), (5, int))]
        assert typed(next(iter(model.quadratic.items()))) == (((0, int), (1, int)), (True, bool))
        assert typed((model.num_vars, model.offset, model.penalty)) == ((2, int), (0.5, float), (3, int))
        assert repr(model).startswith("QuboModel(num_vars=2, ")
        one = QuboModel(1, {0: np.int64(5)}, {}, np.int64(2), 1)
        assert typed(energy(one, "1")) == (7, int) and typed(energy(one, "0")) == (2, int)

    @settings(max_examples=200, deadline=None)
    @given(hand_models())
    def test_every_model_reads_back(self, model):
        text = export_model(model)
        back = parse_model(text)
        nonzero = {kind: {k: c for k, c in getattr(model, kind).items() if c != 0} for kind in ("linear", "quadratic")}
        assert back == dataclasses.replace(model, **nonzero)
        assert export_model(back) == text


def exports_alike(make) -> None:
    """``export_model`` matches the per-term writer on a fresh model (arrays
    kept, if it keeps any) and again once its dicts have been read."""
    model = make()
    fresh = export_model(model)
    assert fresh == frozen_export(model)  # frozen_export reads the dicts
    assert export_model(model) == fresh


class TestExportText:
    def test_sparse_indices_far_above_the_term_count(self):
        m = 10**9
        linear = {m - 1: 5, 3: True, 70_000: 0.25}
        quadratic = {(3, m - 1): -1, (12, 70_000): 0}
        exports_alike(lambda: QuboModel(m, dict(linear), dict(quadratic), 0, 1))
        text = f"QUBO {m} 0 1\nL 3 1\nL 70000 4\nL {m - 1} 5\nQ 3 {m - 1} -1\nQ 12 70000 9\n"
        exports_alike(lambda: parse_model(text))
        assert export_model(parse_model(text)) == text

    @pytest.mark.parametrize(
        "linear, quadratic",
        [({}, {(0, 2): -3, (1, 2): 4}), ({0: 1, 2: -2.5}, {}), ({}, {}), ({1: 0}, {(0, 1): 0})],
    )
    def test_empty_term_kinds(self, linear, quadratic):
        exports_alike(lambda: QuboModel(3, dict(linear), dict(quadratic), -4, 2))
        text = frozen_export(QuboModel(3, linear, quadratic, -4, 2))
        exports_alike(lambda: parse_model(text))
        assert export_model(parse_model(text)) == text

    @pytest.mark.parametrize("penalty", [AUTO, 0.1, 10**400], ids=["auto", "0.1", "10**400"])
    @pytest.mark.parametrize("size", [(12, 3, 25), (15, 4, 40)])
    def test_built_family_models(self, size, penalty):
        inst = family_instance(random.Random(sum(size)), *size)
        exports_alike(lambda: build_qubo(inst, penalty))


def test_energy_values_are_integers_for_integer_instances(triangle):
    model = build_qubo(triangle)
    bits, best = brute_force_solve(model)
    assert isinstance(best, int)
    assert isinstance(energy(model, bits), int)
