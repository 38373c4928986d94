"""Acceptance gate.

Each test here pins one shipped claim at its stated tolerance and prints a
single pass or fail line, so a plain pytest run doubles as a checklist of
what this package guarantees:

 1. the published QUBO qubit column is reproduced exactly,
 2. the published HOBO qubit column is reproduced (rounded-register mode
    exactly, real-valued mode within 1%),
 3. the published depth, quantum volume, and error rate columns follow,
 4. the published optimality gaps follow from the solution denominator,
 5. hardware classification separates the published workloads from small
    ones and behaves monotonically with closed boundaries,
 6. the exact solver agrees with an independent exhaustive route search,
 7. penalties strictly dominate: every constraint-violating assignment
    costs more than the violation-free optimum,
 8. term counts scale at the documented cubic order and the measurement
    ratio between encodings is exactly one over the qubit count,
 9. parsing and serialization round-trip and all renders are deterministic,
10. the fleet-impact arithmetic reproduces the headline savings figures.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from benchmark_data import GAP_ROWS, RESOURCE_ROWS
from conftest import family_instance, vrp_text
from qcvrp import (
    EncodingKind,
    GapDenominator,
    HardwareProfile,
    InstanceParams,
    LogMode,
    SizeConvention,
    VariableMap,
    build_qubo,
    bundled_gap_csv,
    bundled_params,
    classify,
    count_terms,
    brute_force_solve,
    decode_routes,
    depth_estimate,
    diagram_points,
    error_rate_threshold,
    feasibility_diagram,
    gap_records_from_csv,
    hobo_qubits,
    impact_estimate,
    measurement_estimate,
    optimality_gap,
    params_estimate,
    parse_instance,
    quantum_volume,
    qubo_qubits,
    render_gap_table,
    render_resource_table,
    serialize_instance,
)
from qcvrp.instances import weight_matrix
from routing_oracle import best_routes_cost


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    print(f"criterion {number}: PASS - {label}")


@lru_cache(maxsize=1)
def small_family() -> tuple:
    """Randomized solvable instances over every size triple the exact
    solver is meant for: n in 1..3 customers, k in 1..2 vehicles (never more
    vehicles than customers, each must serve someone), C in 1..3."""
    rng = random.Random(6021023)
    instances = []
    for n in (1, 2, 3):
        for k in (1, 2):
            if k > n:
                continue
            for cap in (1, 2, 3):
                draws = 1 if (n, k) == (3, 2) else 2
                for _ in range(draws):
                    instances.append(family_instance(rng, n, k, cap))
    return tuple(instances)


def enumerate_energies(model) -> tuple[np.ndarray, np.ndarray]:
    """Energy of every assignment, exhaustively; bit i of row r is (r >> i) & 1."""
    nv = model.num_vars
    count = 1 << nv
    shifts = np.arange(nv, dtype=np.uint32)
    bits = ((np.arange(count, dtype=np.uint32)[:, None] >> shifts[None, :]) & 1).astype(
        np.float64
    )
    energies = np.full(count, float(model.offset))
    for i, coeff in model.linear.items():
        energies += coeff * bits[:, i]
    for (a, b), coeff in model.quadratic.items():
        energies += coeff * bits[:, a] * bits[:, b]
    return bits, energies


def route_cost_vector(model, inst) -> np.ndarray:
    """Per-variable travel cost, zero on slack bits, so that the penalty part
    of any assignment's energy is its total energy minus this dot product."""
    weights = weight_matrix(inst)
    vm = VariableMap(inst.dimension, inst.vehicles, inst.capacity)
    vec = np.zeros(vm.num_vars)
    for flat in range(vm.num_route_vars):
        var = vm.route_var(flat)
        vec[flat] = weights[var.i, var.j]
    return vec


class TestAcceptance:
    def test_criterion_01_qubo_qubit_column_exact(self):
        with criterion(1, "published QUBO qubit column exact on all 23 rows"):
            for name, (n, k, cap, qubo, *_rest) in RESOURCE_ROWS.items():
                assert qubo_qubits(n, k, cap, SizeConvention.COMPAT) == qubo, name
            assert qubo_qubits(200, 5, 900, SizeConvention.COMPAT) == 202505
            assert qubo_qubits(400, 23, 100, SizeConvention.COMPAT) == 3663923
            assert qubo_qubits(241, 12, 125, SizeConvention.COMPAT) == 692700

    def test_criterion_02_hobo_qubit_column(self):
        with criterion(2, "published HOBO qubit column: floor mode exact, real mode within 1%"):
            for name, (n, k, cap, _qubo, hobo, *_rest) in RESOURCE_ROWS.items():
                real = hobo_qubits(n, k, cap, LogMode.REAL)
                assert abs(real - hobo) / hobo < 0.01, name
                assert hobo_qubits(n, k, cap, LogMode.FLOOR) == hobo, name

    def test_criterion_03_derived_resource_columns(self):
        with criterion(3, "published depth, quantum volume, and error rate columns"):
            for name, (_n, _k, _c, _q, hobo, depth, qv, err) in RESOURCE_ROWS.items():
                assert depth_estimate(hobo, layers=5) == depth, name
                assert quantum_volume(hobo, depth) == qv, name
                shown_m, shown_e = f"{error_rate_threshold(qv):.1e}".split("e")
                printed_m, printed_e = f"{err:.1e}".split("e")
                assert int(shown_e) == int(printed_e), name
                assert abs(float(shown_m) - float(printed_m)) < 0.11, name
            # spot value behind the slack: 1/(7685 * 38425) rounds to 3.4e-09
            # while the published table prints the truncation 3.3e-09
            assert f"{error_rate_threshold(295296125):.1e}" == "3.4e-09"

    def test_criterion_04_optimality_gap_table(self):
        with criterion(4, "published gaps via the solution denominator, 12/12 within 0.01"):
            for name, (bks, lower, published) in GAP_ROWS.items():
                gap = optimality_gap(bks, lower, GapDenominator.SOLUTION)
                assert abs(gap - published) < 0.01, name
            bks, lower, published = GAP_ROWS["Loggi-n401-k23"]
            other = optimality_gap(bks, lower, GapDenominator.LOWER_BOUND)
            assert abs(other - 28.91) < 0.01
            assert abs(other - published) > 5  # the other convention does not reproduce it

    def test_criterion_05_feasibility_classification(self):
        with criterion(5, "hardware feasibility verdicts and classification invariants"):
            tight = HardwareProfile("probe-tight", n_max=1200, d_max=10**7)
            roomy = HardwareProfile("probe-roomy", n_max=10**5, d_max=10**7)
            for params in bundled_params():
                est = params_estimate(params, EncodingKind.HOBO, SizeConvention.COMPAT)
                verdict = classify(est, tight)
                assert verdict.feasible is False, params.name
                assert verdict.qubit_ok is False, params.name
            golden5 = InstanceParams("Golden_5", 200, 5, 900)
            est = params_estimate(golden5, EncodingKind.HOBO, SizeConvention.COMPAT)
            assert classify(est, roomy).feasible is True

            def synthetic(qubits: int):
                probe = params_estimate(golden5, EncodingKind.HOBO, SizeConvention.COMPAT)
                from dataclasses import replace

                depth = 5 * qubits
                return replace(
                    probe,
                    qubits=qubits,
                    depth=depth,
                    quantum_volume=qubits * depth,
                    error_rate_threshold=1.0 / (qubits * depth),
                )

            rng = random.Random(20260821)
            for _ in range(1000):
                small_q = rng.randint(2, 10**5)
                big_q = rng.randint(small_q, 2 * 10**5)
                profile = HardwareProfile(
                    "probe", n_max=rng.randint(1, 2 * 10**5), d_max=rng.randint(1, 10**7)
                )
                small, big = synthetic(small_q), synthetic(big_q)
                # monotone dominance: a workload below a feasible one fits too
                if classify(big, profile).feasible:
                    assert classify(small, profile).feasible
                # the boundary belongs to the feasible region, one step out does not
                corner = HardwareProfile("corner", n_max=big_q, d_max=5 * big_q)
                assert classify(big, corner).feasible is True
                assert classify(big, HardwareProfile("c1", big_q - 1, 5 * big_q)).feasible is False
                assert classify(big, HardwareProfile("c2", big_q, 5 * big_q - 1)).feasible is False

    def test_criterion_06_exact_solver_matches_exhaustive_route_search(self):
        with criterion(6, "solver optimum equals independent route search on 27 instances"):
            start = time.monotonic()
            instances = small_family()
            assert len(instances) >= 20
            for inst in instances:
                model = build_qubo(inst)
                assignment, best = brute_force_solve(model)
                decoding = decode_routes(model, assignment, inst)
                assert decoding.violations == [], inst.name
                oracle = best_routes_cost(inst)
                assert oracle is not None, inst.name
                assert decoding.total_cost == oracle, inst.name
                assert best == oracle, inst.name
            elapsed = time.monotonic() - start
            assert elapsed < 60.0, f"took {elapsed:.1f}s"

    def test_criterion_07_penalties_strictly_dominate(self):
        with criterion(7, "violating assignments always cost more than the clean optimum"):
            checked = 0
            for inst in small_family():
                model = build_qubo(inst)
                if model.num_vars > 20:
                    continue
                bits, energies = enumerate_energies(model)
                penalties = energies - bits @ route_cost_vector(model, inst)
                clean = penalties == 0
                assert clean.any(), inst.name
                assert (~clean).any(), inst.name
                assert penalties.min() >= 0, inst.name
                clean_best = energies[clean].min()
                assert energies[~clean].min() > clean_best, inst.name
                assert energies.min() == clean_best, inst.name
                if model.num_vars <= 10:
                    # Per route pattern, the best slack completion has zero
                    # penalty exactly when the decoder sees no violations.
                    # (A clean route with the wrong slack bits still pays.)
                    vm = VariableMap(inst.dimension, inst.vehicles, inst.capacity)
                    slack_bits = vm.num_vars - vm.num_route_vars
                    per_pattern = penalties.reshape(
                        1 << slack_bits, 1 << vm.num_route_vars
                    ).min(axis=0)
                    for pattern in range(1 << vm.num_route_vars):
                        text = "".join(
                            "1" if (pattern >> i) & 1 else "0" for i in range(vm.num_route_vars)
                        ) + "0" * slack_bits
                        decoded = decode_routes(model, text, inst)
                        assert (not decoded.violations) == (per_pattern[pattern] == 0)
                checked += 1
            assert checked >= 15

    def test_criterion_08_term_scaling_and_measurement_ratio(self):
        with criterion(8, "cubic term growth (c <= 2) and exact 1/N measurement ratio"):
            fitted = 0.0
            for n in (2, 3, 4):
                coords = [(0.0, 0.0)] + [(float(i), 1.0) for i in range(1, n + 1)]
                text = vrp_text(f"scale-{n}", coords, [0] + [1] * n, capacity=2, vehicles=1)
                model = build_qubo(parse_instance(text))
                _, quad = count_terms(model)
                fitted = max(fitted, quad / model.num_vars**3)
            assert 0 < fitted <= 2.0
            sizes = sorted({row[4] for row in RESOURCE_ROWS.values()} | {2, 10, 100})
            # exact while every product stays inside the 2**53 integer range
            for size in sizes:
                for weight in (1.0, 330.0):
                    if size**3 * weight > 2**53:
                        continue
                    hobo = measurement_estimate(EncodingKind.HOBO, size, weight)
                    qubo = measurement_estimate(EncodingKind.QUBO, size, weight)
                    assert hobo / qubo == 1.0 / size, (size, weight)

    def test_criterion_09_round_trip_and_determinism(self):
        with criterion(9, "100 parse/serialize round trips and byte-identical renders"):
            rng = random.Random(9090)
            for trial in range(100):
                dim = rng.randint(2, 9)
                cap = rng.randint(1, 60)
                demands = [0] + [rng.randint(0, cap) for _ in range(dim - 1)]
                if rng.random() < 0.5:
                    coords = [
                        (round(rng.uniform(-40, 40), 2), float(rng.randint(-40, 40)))
                        for _ in range(dim)
                    ]
                    text = vrp_text(
                        f"roundtrip-{trial}",
                        coords,
                        demands,
                        cap,
                        vehicles=rng.choice([None, rng.randint(1, 4)]),
                    )
                else:
                    rows = [
                        [0 if i == j else rng.randint(0, 99) for j in range(dim)]
                        for i in range(dim)
                    ]
                    text = "\n".join(
                        [
                            f"NAME : roundtrip-{trial}",
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
                    ) + "\n"
                first = parse_instance(text)
                assert parse_instance(serialize_instance(first)) == first, trial

            params = bundled_params()
            assert render_resource_table(params) == render_resource_table(params)
            records = gap_records_from_csv(bundled_gap_csv())
            assert render_gap_table(records) == render_gap_table(records)
            profile = HardwareProfile("probe", n_max=1200, d_max=10**7)
            points = diagram_points(params, profile)
            for fmt in ("svg", "csv"):
                assert feasibility_diagram(points, profile, fmt=fmt) == feasibility_diagram(
                    points, profile, fmt=fmt
                )

    def test_criterion_10_fleet_impact_arithmetic(self):
        with criterion(10, "headline fleet savings reproduced exactly"):
            impact = impact_estimate(
                baseline_km=90e6,
                improvement=0.02,
                fuel_l_per_100km=30,
                fuel_price_per_l=1.0,
                co2_kg_per_l=2.6,
            )
            assert impact.km_saved == 1.8e6
            assert impact.litres_saved == 540_000.0
            assert impact.co2_saved_tonnes == 1404.0
            # the larger headline tonnage does not follow from these factors
            assert abs(impact.co2_saved_tonnes - 4600.0) > 1000.0
