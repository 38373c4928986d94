from __future__ import annotations

import json
import random
import sys

import pytest

from benchmark_data import RESOURCE_ROWS
from qcvrp import (
    DuplicateName,
    EncodingKind,
    FeasibilityVerdict,
    HardwareProfile,
    InstanceParams,
    SchemaError,
    SizeConvention,
    classify,
    default_profiles,
    feasibility_point,
    get_profile,
    load_profiles,
)
from qcvrp.report import params_estimate


def hobo_estimate(customers: int, vehicles: int, capacity: int):
    params = InstanceParams("probe", customers, vehicles, capacity)
    return params_estimate(params, EncodingKind.HOBO, SizeConvention.COMPAT)


def synthetic_estimate(qubits: int, layers: int = 5):
    params = InstanceParams("probe", 1, 1, 1)
    est = params_estimate(params, EncodingKind.QUBO)
    # rebuild with chosen sizes, keeping the cross-field invariants intact
    from dataclasses import replace

    depth = layers * qubits
    return replace(
        est,
        qubits=qubits,
        depth=depth,
        quantum_volume=qubits * depth,
        error_rate_threshold=1.0 / (qubits * depth),
    )


class TestClassify:
    def test_reference_instance_infeasible_on_small_budget(self):
        est = hobo_estimate(200, 5, 900)
        assert (est.qubits, est.depth) == (7685, 38425)
        verdict = classify(est, HardwareProfile("probe", 1200, 10**7))
        assert verdict.qubit_ok is False
        assert verdict.depth_ok is True
        assert verdict.feasible is False

    def test_reference_instance_feasible_on_large_budget(self):
        verdict = classify(hobo_estimate(200, 5, 900), HardwareProfile("big", 10**5, 10**7))
        assert verdict == FeasibilityVerdict(
            qubit_ok=True,
            depth_ok=True,
            feasible=True,
            qubit_margin=10**5 / 7685,
            depth_margin=10**7 / 38425,
        )
        roomier = HardwareProfile("mid", 8000, 10**7)
        assert classify(hobo_estimate(200, 5, 900), roomier).feasible is True

    def test_minimal_estimate_fits_any_budget(self):
        est = synthetic_estimate(1, layers=1)
        assert (est.qubits, est.depth) == (1, 1)
        for profile in (HardwareProfile("floor", 1, 1), *default_profiles()):
            assert classify(est, profile).feasible is True

    def test_budgets_are_inclusive(self):
        est = synthetic_estimate(1200)
        on_the_point = HardwareProfile("edge", 1200, 6000)
        verdict = classify(est, on_the_point)
        assert verdict.feasible is True
        assert verdict.qubit_margin == 1.0
        assert verdict.depth_margin == 1.0
        assert classify(est, HardwareProfile("under", 1199, 6000)).feasible is False
        assert classify(est, HardwareProfile("shallow", 1200, 5999)).feasible is False

    def test_every_published_row_misses_next_generation_budget(self):
        profile = HardwareProfile("gen-next", 1200, 10**7)
        for name, (n, k, cap, *_rest) in RESOURCE_ROWS.items():
            verdict = classify(hobo_estimate(n, k, cap), profile)
            assert verdict.qubit_ok is False, name
            assert verdict.feasible is False, name

    def test_randomized_dominance_and_closedness(self):
        rng = random.Random(42)
        for _ in range(1000):
            budget_n = rng.randint(1, 10**6)
            budget_d = rng.randint(1, 10**8)
            profile = HardwareProfile("rnd", budget_n, budget_d)
            small = synthetic_estimate(rng.randint(1, 10**6))
            grow = rng.randint(0, 10**4)
            large = synthetic_estimate(small.qubits + grow)
            v_small = classify(small, profile)
            v_large = classify(large, profile)
            # closedness: the verdict is exactly the pair of inclusive comparisons
            assert v_small.feasible == (
                small.qubits <= budget_n and small.depth <= budget_d
            )
            # dominance: any estimate below a feasible one is feasible
            if v_large.feasible:
                assert v_small.feasible

    def test_feasibility_point(self):
        assert feasibility_point(HardwareProfile("p", 156, 10**7)) == (156, 10**7)
        assert feasibility_point(HardwareProfile("q", 1, 1)) == (1, 1)


class TestProfileConfig:
    def test_empty_list_gives_empty_registry(self):
        assert load_profiles(json.dumps({"profiles": []})) == []

    def test_load_profiles_round_trip(self):
        doc = json.dumps(
            {
                "profiles": [
                    {"name": "a", "n_max": 10, "d_max": 100},
                    {"name": "b", "n_max": 20, "d_max": 200, "note": "projected"},
                ]
            }
        )
        profiles = load_profiles(doc)
        assert profiles == [
            HardwareProfile("a", 10, 100),
            HardwareProfile("b", 20, 200, "projected"),
        ]

    def test_unknown_field_named_in_error(self):
        doc = json.dumps({"profiles": [{"name": "a", "n_max": 1, "d_max": 1, "qubits": 5}]})
        with pytest.raises(SchemaError, match="qubits"):
            load_profiles(doc)

    def test_missing_required_field(self):
        doc = json.dumps({"profiles": [{"name": "a", "n_max": 1}]})
        with pytest.raises(SchemaError, match="d_max"):
            load_profiles(doc)

    def test_duplicate_name(self):
        doc = json.dumps(
            {
                "profiles": [
                    {"name": "a", "n_max": 1, "d_max": 1},
                    {"name": "a", "n_max": 2, "d_max": 2},
                ]
            }
        )
        with pytest.raises(DuplicateName, match="a"):
            load_profiles(doc)

    def test_bool_is_not_an_integer_budget(self):
        doc = json.dumps({"profiles": [{"name": "a", "n_max": True, "d_max": 1}]})
        with pytest.raises(SchemaError, match="n_max"):
            load_profiles(doc)

    def test_wrong_top_level_shape(self):
        with pytest.raises(SchemaError):
            load_profiles(json.dumps([1, 2]))
        with pytest.raises(SchemaError):
            load_profiles(json.dumps({"profiles": {"name": "a"}}))
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_profiles("{")

    def test_non_object_entry_rejected(self):
        with pytest.raises(SchemaError, match="each profile must be an object"):
            load_profiles(json.dumps({"profiles": [{"name": "a", "n_max": 1, "d_max": 1}, ["b", 2, 3]]}))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="profile name must be nonempty"):
            HardwareProfile("", 1, 1)

    def test_nonpositive_budget_rejected(self):
        doc = json.dumps({"profiles": [{"name": "a", "n_max": 0, "d_max": 1}]})
        with pytest.raises(SchemaError):
            load_profiles(doc)

    @pytest.mark.parametrize(
        "n_max, d_max, message",
        [
            (True, 5, "n_max must be a positive integer"),
            (5, True, "d_max must be a positive integer"),
            (10**400, 5, "n_max must be a positive integer within float range"),
            (5, 2**1024, "d_max must be a positive integer within float range"),
        ],
        ids=["bool n_max", "bool d_max", "10**400", "2**1024"],
    )
    def test_bool_and_oversized_budgets_refused(self, n_max, d_max, message):
        with pytest.raises(ValueError) as exc:
            HardwareProfile("x", n_max, d_max)
        assert str(exc.value) == message

    def test_budget_past_float_range_names_the_profile(self):
        doc = json.dumps({"profiles": [{"name": "big", "n_max": 10**400, "d_max": 5}]})
        with pytest.raises(SchemaError) as exc:
            load_profiles(doc)
        assert str(exc.value) == "bad configuration field: big (n_max must be a positive integer within float range)"

    def test_largest_float_budget_is_accepted(self):
        largest = int(sys.float_info.max)
        verdict = classify(synthetic_estimate(10), HardwareProfile("x", largest, largest))
        assert verdict.feasible and verdict.qubit_margin == largest / 10


class TestDefaultProfiles:
    def test_shipped_set(self):
        profiles = default_profiles()
        by_name = {p.name: p for p in profiles}
        assert set(by_name) == {"current-best", "gen-next-low", "gen-next-high"}
        assert by_name["current-best"].n_max == 156
        assert by_name["gen-next-low"].n_max == 400
        assert by_name["gen-next-high"].n_max == 1200
        assert all(p.d_max == 10**7 for p in profiles)

    def test_get_profile_lists_known_names_on_miss(self):
        profiles = default_profiles()
        assert get_profile(profiles, "gen-next-low").n_max == 400
        with pytest.raises(KeyError, match="current-best"):
            get_profile(profiles, "missing")
