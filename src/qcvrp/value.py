"""Optimality gaps and fleet-level savings arithmetic.

The gap between a best-known solution and a lower bound can be quoted
against either quantity; both conventions appear in the routing literature,
so the denominator is always an explicit choice here.  The savings model
turns a relative route-length improvement into kilometres, fuel litres,
fuel cost, and CO2 tonnes for a fleet with a known annual mileage.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import SchemaError


def _format_number(value: float) -> str:
    """A number as the gap table and the model text write it: integral values as ints."""
    if isinstance(value, int) or isinstance(value, float) and value.is_integer():
        return str(int(value))  # True is written 1, 2.0 is written 2
    return repr(value)


class GapDenominator(Enum):
    """What the solution/bound difference is divided by."""

    SOLUTION = "solution"
    LOWER_BOUND = "lower-bound"


def optimality_gap(
    solution: float,
    lower_bound: float,
    denominator: GapDenominator = GapDenominator.SOLUTION,
) -> float:
    """Percentage gap between a solution value and a lower bound.

    ``100 * (solution - lower_bound) / solution`` by default;
    ``GapDenominator.LOWER_BOUND`` divides by the bound instead.  Both
    values must be positive and within float range; ``ValueError`` names a
    value past it, such as ``10**400``, and a gap that leaves it, such as
    ``optimality_gap(1e308, 1e-308)``.
    """
    for name, number in (("solution value", solution), ("lower bound", lower_bound)):
        if isinstance(number, float) and not math.isfinite(number):
            raise ValueError(f"{name} must be finite")
        if not number > 0:
            raise ValueError(f"{name} must be positive")
        if number > sys.float_info.max:  # an int the float gap below cannot take
            raise ValueError(f"{name} must be within float range")
    diff = solution - lower_bound
    gap = 100.0 * diff / (solution if denominator is GapDenominator.SOLUTION else lower_bound)
    if not math.isfinite(gap):
        raise ValueError(f"the gap {gap} is past float range; a gap must be finite")
    return gap


@dataclass(frozen=True)
class GapRecord:
    """One benchmark instance's best-known solution, bound, and gap."""

    instance_name: str
    bks: float
    lower_bound: float
    gap_percent: float

    def __post_init__(self) -> None:
        if any(isinstance(x, float) and not math.isfinite(x) for x in (self.bks, self.lower_bound, self.gap_percent)):
            raise ValueError("solution values, bounds and gaps must be finite")
        if not self.bks > 0 or not self.lower_bound > 0:
            raise ValueError("solution values and bounds must be positive")


def gap_records_from_csv(
    text: str,
    denominator: GapDenominator = GapDenominator.SOLUTION,
) -> list[GapRecord]:
    """Read gap records from CSV with columns ``instance,bks,lower_bound``.

    The gap itself is computed, not read, so one file serves both
    denominator conventions.  A row whose values are not numbers, or not
    finite and positive, or whose gap leaves float range, raises
    ``SchemaError`` naming its instance.
    """
    reader = csv.DictReader(io.StringIO(text))
    fields = reader.fieldnames or []
    for column in ("instance", "bks", "lower_bound"):
        if column not in fields:
            raise SchemaError(column, "required CSV column missing")
    records: list[GapRecord] = []
    for row in reader:
        name = row.get("instance") or "?"
        try:
            bks = float(row["bks"])
            lower = float(row["lower_bound"])
        except (TypeError, ValueError):
            raise SchemaError(name, "bks and lower_bound must be numbers") from None
        try:
            gap = optimality_gap(bks, lower, denominator)
            record = GapRecord(
                instance_name=(row["instance"] or "").strip(), bks=bks, lower_bound=lower, gap_percent=gap
            )
        except ValueError as exc:
            raise SchemaError(name, str(exc)) from None
        records.append(record)
    return records


@dataclass(frozen=True)
class ImpactEstimate:
    """Fleet savings from a relative reduction in driven kilometres."""

    baseline_km: float
    improvement: float
    km_saved: float
    litres_saved: float
    fuel_cost_saved: float
    co2_saved_tonnes: float


def impact_estimate(
    baseline_km: float,
    improvement: float,
    fuel_l_per_100km: float,
    fuel_price_per_l: float,
    co2_kg_per_l: float,
) -> ImpactEstimate:
    """Savings for a fleet driving ``baseline_km`` a year.

    ``improvement`` is the relative route-length reduction in [0, 1].  Fuel
    follows from consumption per 100 km, cost from the litre price, and CO2
    from kilograms emitted per litre (reported in tonnes).  Every value
    must be a nonnegative number, finite if a float; ``ValueError`` names
    the first saving whose product leaves float range.
    """
    values = {
        "baseline_km": baseline_km,
        "improvement": improvement,
        "fuel_l_per_100km": fuel_l_per_100km,
        "fuel_price_per_l": fuel_price_per_l,
        "co2_kg_per_l": co2_kg_per_l,
    }
    for name, value in values.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{name} must be a number")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
    if improvement > 1:
        raise ValueError("improvement is a fraction and cannot exceed 1")
    km_saved = baseline_km * improvement
    litres = km_saved * fuel_l_per_100km / 100.0
    savings = {
        "km_saved": km_saved,
        "litres_saved": litres,
        "fuel_cost_saved": litres * fuel_price_per_l,
        "co2_saved_tonnes": litres * co2_kg_per_l / 1000.0,
    }
    for name, saved in savings.items():
        if isinstance(saved, float) and not math.isfinite(saved):
            raise ValueError(f"{name} is past float range")
    return ImpactEstimate(baseline_km=baseline_km, improvement=improvement, **savings)
