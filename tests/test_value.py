from __future__ import annotations

import math

import pytest

from benchmark_data import GAP_ROWS
from qcvrp import (
    GapDenominator,
    GapRecord,
    SchemaError,
    bundled_gap_csv,
    gap_records_from_csv,
    impact_estimate,
    optimality_gap,
)


class TestOptimalityGap:
    def test_reference_row_solution_denominator(self):
        gap = optimality_gap(336903, 261353.7, GapDenominator.SOLUTION)
        assert abs(gap - 22.42) < 0.01

    def test_reference_row_lower_bound_denominator(self):
        gap = optimality_gap(336903, 261353.7, GapDenominator.LOWER_BOUND)
        assert abs(gap - 28.91) < 0.01

    def test_solution_denominator_is_default(self):
        assert optimality_gap(200, 100) == 50.0
        assert optimality_gap(200, 100, GapDenominator.LOWER_BOUND) == 100.0

    def test_every_published_gap_reproduces(self):
        for name, (bks, lower, published) in GAP_ROWS.items():
            gap = optimality_gap(bks, lower, GapDenominator.SOLUTION)
            assert abs(gap - published) < 0.01, name

    def test_published_gaps_rule_out_the_other_denominator(self):
        # the shipped gap for this row only follows from the SOLUTION form
        bks, lower, published = GAP_ROWS["Loggi-n401-k23"]
        other = optimality_gap(bks, lower, GapDenominator.LOWER_BOUND)
        assert abs(other - published) > 5

    def test_tight_bound_means_zero_gap(self):
        assert optimality_gap(100, 100) == 0.0

    @pytest.mark.parametrize(
        "solution, lower",
        [(0, 1), (-5, 1), (1, 0), (1, -2), (math.inf, 5), (math.nan, 5), (5, math.inf), (5, -math.nan)],
    )
    def test_rejects_nonpositive_values(self, solution, lower):
        with pytest.raises(ValueError):
            optimality_gap(solution, lower)

    @pytest.mark.parametrize("denominator", list(GapDenominator))
    @pytest.mark.parametrize("solution, lower, gap", [(1e308, 1e-308, "inf"), (1e-308, 1e308, "-inf")])
    def test_gap_past_float_range_is_refused_by_name(self, solution, lower, gap, denominator):
        # finite, positive inputs: 100 * (solution - lower) leaves float range
        with pytest.raises(ValueError, match=rf"^the gap {gap} is past float range; a gap must be finite$"):
            optimality_gap(solution, lower, denominator)


    @pytest.mark.parametrize(
        "solution, lower, name",
        [(10**400, 10**399, "solution value"), (2, 10**400, "lower bound"), (10**400, 10**400, "solution value")],
    )
    def test_int_past_float_range_is_refused_by_name(self, solution, lower, name):
        # 100.0 * (solution - lower) cannot convert such an int to a float
        with pytest.raises(ValueError, match=f"^{name} must be within float range$"):
            optimality_gap(solution, lower)

    def test_ints_within_float_range_keep_the_float_gap(self):
        assert optimality_gap(10**300, 10**299) == 100.0 * (10**300 - 10**299) / 10**300


class TestGapRecords:
    def test_bundled_records_match_frozen_rows(self):
        records = gap_records_from_csv(bundled_gap_csv())
        assert len(records) == 12
        for rec in records:
            bks, lower, published = GAP_ROWS[rec.instance_name]
            assert rec.bks == bks
            assert rec.lower_bound == lower
            assert abs(rec.gap_percent - published) < 0.01

    def test_denominator_choice_changes_the_records(self):
        text = "instance,bks,lower_bound\na,200,100\n"
        sol = gap_records_from_csv(text)[0]
        bound = gap_records_from_csv(text, GapDenominator.LOWER_BOUND)[0]
        assert sol.gap_percent == 50.0
        assert bound.gap_percent == 100.0

    def test_missing_column(self):
        with pytest.raises(SchemaError, match="lower_bound"):
            gap_records_from_csv("instance,bks\na,1\n")

    def test_non_numeric_value(self):
        with pytest.raises(SchemaError, match="must be numbers"):
            gap_records_from_csv("instance,bks,lower_bound\na,xyz,1\n")
        # numbers that are not finite and positive name their row too
        for row, reason in [("A,inf,5", "finite"), ("A,nan,5", "finite"), ("A,0,5", "positive"), ("A,5,-inf", "finite")]:
            with pytest.raises(SchemaError, match=rf"field: A \(.* must be {reason}\)"):
                gap_records_from_csv(f"instance,bks,lower_bound\nB,2,1\n{row}\n")

    @pytest.mark.parametrize("denominator", list(GapDenominator))
    def test_gap_past_float_range_names_its_row(self, denominator):
        # finite inputs whose gap, 100 * 1e308 / 1e308, leaves float range
        with pytest.raises(SchemaError, match=r"field: x \(.* must be finite\)"):
            gap_records_from_csv("instance,bks,lower_bound\nB,2,1\nx,1e308,1e-308\n", denominator)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            GapRecord("x", bks=-1, lower_bound=1, gap_percent=0)

    @pytest.mark.parametrize("field", ["bks", "lower_bound", "gap_percent"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_record_refuses_non_finite_values(self, field, bad):
        values = {"bks": 2.0, "lower_bound": 1.0, "gap_percent": 50.0, field: bad}
        with pytest.raises(ValueError, match="must be finite"):
            GapRecord("x", **values)


class TestImpactEstimate:
    def test_reference_fleet_numbers_are_exact(self):
        impact = impact_estimate(
            baseline_km=90e6,
            improvement=0.02,
            fuel_l_per_100km=30,
            fuel_price_per_l=1.0,
            co2_kg_per_l=2.6,
        )
        assert impact.km_saved == 1_800_000.0
        assert impact.litres_saved == 540_000.0
        assert impact.co2_saved_tonnes == 1404.0

    def test_fuel_cost_scales_with_price(self):
        cheap = impact_estimate(90e6, 0.02, 30, 1.0, 2.6)
        costly = impact_estimate(90e6, 0.02, 30, 2.0, 2.6)
        assert cheap.fuel_cost_saved == 540_000.0
        assert costly.fuel_cost_saved == 1_080_000.0

    def test_single_van_scale(self):
        impact = impact_estimate(100_000, 0.02, 30, 1.0, 2.6)
        assert impact.km_saved == 2000.0

    def test_zero_improvement_saves_nothing(self):
        impact = impact_estimate(90e6, 0.0, 30, 1.5, 2.6)
        assert impact.km_saved == 0.0
        assert impact.litres_saved == 0.0
        assert impact.fuel_cost_saved == 0.0
        assert impact.co2_saved_tonnes == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"baseline_km": -1},
            {"improvement": -0.1},
            {"improvement": 1.5},
            {"fuel_l_per_100km": -3},
            {"fuel_price_per_l": "x"},
            {"co2_kg_per_l": True},
            {"baseline_km": math.nan},
            {"improvement": math.nan},
            {"fuel_l_per_100km": math.inf},
            {"fuel_price_per_l": math.inf},
            {"co2_kg_per_l": -math.inf},
        ],
    )
    def test_input_validation(self, kwargs):
        good = dict(
            baseline_km=1000.0,
            improvement=0.1,
            fuel_l_per_100km=30,
            fuel_price_per_l=1.0,
            co2_kg_per_l=2.6,
        )
        good.update(kwargs)
        with pytest.raises(ValueError):
            impact_estimate(**good)

    @pytest.mark.parametrize(
        "args, figure",
        [
            ((1e308, 1, 1e308, 1.0, 2.6), "litres_saved"),
            ((1e308, 1, 1, 1e308, 2.6), "fuel_cost_saved"),
            ((1e308, 1, 1, 1.0, 1e308), "co2_saved_tonnes"),
        ],
    )
    def test_saving_past_float_range_is_named(self, args, figure):
        with pytest.raises(ValueError, match=f"^{figure} is past float range$"):
            impact_estimate(*args)
