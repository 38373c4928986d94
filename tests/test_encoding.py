from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmark_data import RESOURCE_ROWS
from conftest import vrp_text
from qcvrp import (
    DEFAULT_LAYERS,
    CvrpInstance,
    EncodingKind,
    InstanceParams,
    LogMode,
    ResourceEstimate,
    SizeConvention,
    WeightKind,
    circuit_volume,
    depth_estimate,
    error_rate_threshold,
    estimate_instance,
    hamiltonian_terms,
    hobo_qubits,
    measurement_estimate,
    params_estimate,
    parse_instance,
    quantum_volume,
    qubo_qubits,
)
from qcvrp.instances import max_edge_weight

sizes = st.integers(min_value=1, max_value=2000)


class TestQuboQubits:
    def test_smallest_case_strict(self):
        assert qubo_qubits(1, 1, 1, SizeConvention.STRICT) == 5

    def test_reference_instance_both_conventions(self):
        assert qubo_qubits(200, 5, 900, SizeConvention.COMPAT) == 202505
        assert qubo_qubits(200, 5, 900, SizeConvention.STRICT) == 206505

    def test_strict_is_default(self):
        assert qubo_qubits(200, 5, 900) == 206505

    @given(n=sizes, k=st.integers(1, 60), cap=sizes)
    def test_convention_difference_is_4nk(self, n, k, cap):
        strict = qubo_qubits(n, k, cap, SizeConvention.STRICT)
        compat = qubo_qubits(n, k, cap, SizeConvention.COMPAT)
        assert strict - compat == 4 * n * k

    @given(n=sizes, k=st.integers(1, 60), cap=sizes)
    def test_monotone_in_every_argument(self, n, k, cap):
        base = qubo_qubits(n, k, cap)
        assert qubo_qubits(n + 1, k, cap) > base
        assert qubo_qubits(n, k + 1, cap) > base
        assert qubo_qubits(n, k, cap + 1) > base

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_rejects_non_positive_and_non_integer(self, bad):
        with pytest.raises(ValueError):
            qubo_qubits(bad, 1, 1)


class TestHoboQubits:
    def test_smallest_case_real(self):
        assert hobo_qubits(1, 3, 1, LogMode.REAL) == 3.0

    def test_reference_instance_all_modes(self):
        real = hobo_qubits(200, 5, 900, LogMode.REAL)
        assert abs(real - 7692.95) < 0.05
        assert hobo_qubits(200, 5, 900, LogMode.FLOOR) == 7685
        assert hobo_qubits(200, 5, 900, LogMode.CEIL) == 8050

    @given(n=sizes, k=st.integers(1, 60), cap=sizes)
    def test_floor_below_real_below_ceil(self, n, k, cap):
        floor = hobo_qubits(n, k, cap, LogMode.FLOOR)
        real = hobo_qubits(n, k, cap, LogMode.REAL)
        ceil = hobo_qubits(n, k, cap, LogMode.CEIL)
        assert floor == int(floor) and ceil == int(ceil)
        assert floor <= real + 1e-9
        assert real <= ceil + 1e-9

    @given(n=sizes, k=st.integers(1, 60), cap=sizes)
    def test_rounded_modes_within_one_bit_per_register(self, n, k, cap):
        real = hobo_qubits(n, k, cap, LogMode.REAL)
        assert real - hobo_qubits(n, k, cap, LogMode.FLOOR) < 2 * k
        assert hobo_qubits(n, k, cap, LogMode.CEIL) - real < (n + 1) * k


class TestScalings:
    def test_term_counts(self):
        assert hamiltonian_terms(EncodingKind.QUBO, 10) == 2000
        assert hamiltonian_terms(EncodingKind.HOBO, 10) == 5000
        assert hamiltonian_terms(EncodingKind.QUBO, 1) == 2

    def test_circuit_volume(self):
        assert circuit_volume(EncodingKind.HOBO, 2) == 32
        assert circuit_volume(EncodingKind.QUBO, 10) == 12000
        assert abs(circuit_volume(EncodingKind.HOBO, 10) - 66438.5619) < 5e-5

    def test_measurements_scale_with_max_weight(self):
        assert measurement_estimate(EncodingKind.QUBO, 10, 7) == 7000
        assert measurement_estimate(EncodingKind.HOBO, 10, 7) == 700
        assert measurement_estimate(EncodingKind.QUBO, 10, 7, constant=2.5) == 17500

    @given(size=st.integers(2, 10_000), weight=st.integers(1, 10_000))
    def test_measurement_ratio_is_exactly_one_over_n(self, size, weight):
        hobo = measurement_estimate(EncodingKind.HOBO, size, weight)
        qubo = measurement_estimate(EncodingKind.QUBO, size, weight)
        assert hobo / qubo == 1.0 / size

    def test_measurements_stay_exact_beyond_float_precision(self):
        # 9777**3 * 9779 exceeds 2**53, where a float count would round
        qubo = measurement_estimate(EncodingKind.QUBO, 9777, 9779)
        hobo = measurement_estimate(EncodingKind.HOBO, 9777, 9779)
        assert qubo == 9777**3 * 9779
        assert hobo / qubo == 1.0 / 9777

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            hamiltonian_terms(EncodingKind.QUBO, 0)
        with pytest.raises(ValueError):
            circuit_volume(EncodingKind.HOBO, -1)
        with pytest.raises(ValueError):
            measurement_estimate(EncodingKind.HOBO, 10, 0)


class TestDepthAndVolume:
    def test_reference_depth(self):
        assert depth_estimate(7685, 5) == 38425
        assert depth_estimate(7685) == 38425
        assert depth_estimate(1, 1) == 1
        assert DEFAULT_LAYERS == 5

    def test_reference_volumes(self):
        assert quantum_volume(7685, 38425) == 295296125
        assert quantum_volume(38641, 193205) == 7465634405
        assert quantum_volume(1, 1) == 1

    def test_volume_is_exact_beyond_float_precision(self):
        qubits = 10**9 + 1
        depth = 5 * qubits
        volume = quantum_volume(qubits, depth)
        assert volume == qubits * depth
        assert volume != int(float(qubits) * float(depth))

    def test_error_threshold_is_reciprocal_volume(self):
        assert error_rate_threshold(295296125) == 1.0 / 295296125
        assert error_rate_threshold(1) == 1.0
        assert f"{error_rate_threshold(295296125):.1e}" == "3.4e-09"


class TestResourceEstimate:
    def test_cross_field_invariants_enforced(self):
        with pytest.raises(ValueError, match="quantum_volume"):
            ResourceEstimate(
                encoding=EncodingKind.HOBO,
                qubits=10,
                terms=5000.0,
                depth=50,
                circuit_volume=1.0,
                measurements=1.0,
                quantum_volume=499,
                error_rate_threshold=1.0 / 499,
            )

    def test_estimate_for_parsed_instance(self, triangle_text):
        inst = parse_instance(triangle_text)
        est = estimate_instance(inst, EncodingKind.QUBO)
        assert est.qubits == 1 * (3 * 3 + 2)
        assert est.terms == 2 * est.qubits**3
        assert est.depth == 5 * est.qubits
        assert est.quantum_volume == est.qubits * est.depth
        assert est.circuit_volume == 12 * est.qubits**3
        # the largest edge of the 3-4-5 triangle drives the shot count
        assert est.measurements == est.qubits**3 * 5

    def test_hobo_default_mode_reproduces_published_counts(self, triangle_text):
        inst = parse_instance(triangle_text)
        est = estimate_instance(inst, EncodingKind.HOBO)
        n, k, cap = inst.customers, inst.vehicles, inst.capacity
        assert est.qubits == hobo_qubits(n, k, cap, LogMode.FLOOR)

    def test_single_customer_needs_one_hobo_qubit(self):
        text = vrp_text("unit", [(0.0, 0.0), (3.0, 4.0)], [0, 1], capacity=1)
        inst = parse_instance(text)
        est = estimate_instance(inst, EncodingKind.HOBO, log_mode=LogMode.REAL)
        assert est.qubits == 1
        assert est.depth == DEFAULT_LAYERS
        assert est.quantum_volume == DEFAULT_LAYERS

    def test_published_hobo_column_all_rows(self):
        for name, (n, k, cap, _, hobo, *_rest) in RESOURCE_ROWS.items():
            assert hobo_qubits(n, k, cap, LogMode.FLOOR) == hobo, name

    def test_published_qubo_column_all_rows(self):
        for name, (n, k, cap, qubo, *_rest) in RESOURCE_ROWS.items():
            assert qubo_qubits(n, k, cap, SizeConvention.COMPAT) == qubo, name


@settings(max_examples=30)
@given(n=st.integers(1, 400), k=st.integers(1, 40), cap=st.integers(1, 1000))
def test_estimate_internal_consistency(n, k, cap):
    from qcvrp import InstanceParams
    from qcvrp.report import params_estimate

    est = params_estimate(InstanceParams("x", n, k, cap), EncodingKind.HOBO)
    assert est.quantum_volume == est.qubits * est.depth
    assert est.depth == DEFAULT_LAYERS * est.qubits
    assert math.isclose(est.error_rate_threshold * est.quantum_volume, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    k=st.integers(1, 9),
    cap=st.integers(1, 500),
    encoding=st.sampled_from(EncodingKind),
    convention=st.sampled_from(SizeConvention),
    log_mode=st.sampled_from(LogMode),
    layers=st.integers(1, 9),
    data=st.data(),
)
def test_instance_and_params_estimates_agree(n, k, cap, encoding, convention, log_mode, layers, data):
    point = st.tuples(st.integers(-60, 60), st.integers(-60, 60))
    inst = CvrpInstance(
        name="x",
        dimension=n + 1,
        capacity=cap,
        vehicles=k,
        demands=(0,) + (1,) * n,
        weight_kind=WeightKind.EUC_2D,
        coords=tuple(data.draw(st.lists(point, min_size=n + 1, max_size=n + 1))),
    )
    from_inst = estimate_instance(inst, encoding, convention, layers, log_mode)
    from_params = params_estimate(InstanceParams("x", n, k, cap), encoding, convention, layers, log_mode)
    assert from_inst.measurements == from_params.measurements * max(1, max_edge_weight(inst))
    assert from_inst == dataclasses.replace(from_params, measurements=from_inst.measurements)
