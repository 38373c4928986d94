"""Device budgets and go/no-go classification of resource estimates.

A hardware profile is the pair of budgets that decides whether an instance
fits on a device: the qubit budget ``n_max`` and the two-qubit-gate depth
budget ``d_max``.  Together they form the profile's feasibility point; an
estimate is feasible exactly when it sits inside the closed axis-aligned
region below and left of that point.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources

from .encoding import ResourceEstimate
from .errors import DuplicateName, SchemaError


@dataclass(frozen=True)
class HardwareProfile:
    """Named qubit and depth budgets for one device or projection."""

    name: str
    n_max: int
    d_max: int
    note: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("profile name must be nonempty")
        for field in ("n_max", "d_max"):
            budget = getattr(self, field)
            if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
                raise ValueError(f"{field} must be a positive integer")
            if budget > sys.float_info.max:  # margins and diagram axes divide it as a float
                raise ValueError(f"{field} must be a positive integer within float range")


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of checking one estimate against one profile.

    Margins are budget/requirement ratios: at least 1.0 means the axis fits,
    and the flags are computed from the exact integer comparison.
    """

    qubit_ok: bool
    depth_ok: bool
    feasible: bool
    qubit_margin: float
    depth_margin: float


def classify(estimate: ResourceEstimate, profile: HardwareProfile) -> FeasibilityVerdict:
    """Check an estimate against a profile.

    Only the qubit count and depth take part; budgets are inclusive, so an
    estimate sitting exactly on the feasibility point is feasible.
    """
    qubit_ok = estimate.qubits <= profile.n_max
    depth_ok = estimate.depth <= profile.d_max
    return FeasibilityVerdict(
        qubit_ok=qubit_ok,
        depth_ok=depth_ok,
        feasible=qubit_ok and depth_ok,
        qubit_margin=profile.n_max / estimate.qubits,
        depth_margin=profile.d_max / estimate.depth,
    )


def feasibility_point(profile: HardwareProfile) -> tuple[int, int]:
    """The (qubit budget, depth budget) corner of the feasible region."""
    return (profile.n_max, profile.d_max)


_PROFILE_FIELDS = {"name": str, "n_max": int, "d_max": int, "note": str}
_REQUIRED_FIELDS = ("name", "n_max", "d_max")


def load_profiles(config: str) -> list[HardwareProfile]:
    """Parse a JSON document with a top-level ``profiles`` list.

    Each entry carries ``name``, ``n_max``, ``d_max``, and an optional
    ``note``.  Unknown fields, wrong types, and repeated names are rejected.
    """
    try:
        doc = json.loads(config)
    except json.JSONDecodeError as exc:
        raise SchemaError("profiles", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "profiles" not in doc:
        raise SchemaError("profiles", "expected a top-level object with a 'profiles' list")
    entries = doc["profiles"]
    if not isinstance(entries, list):
        raise SchemaError("profiles", "'profiles' must be a list")
    out: list[HardwareProfile] = []
    seen: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError("profiles", "each profile must be an object")
        for key, value in entry.items():
            expected = _PROFILE_FIELDS.get(key)
            if expected is None:
                raise SchemaError(key, "unknown profile field")
            if not isinstance(value, expected) or isinstance(value, bool):
                raise SchemaError(key, f"expected {expected.__name__}")
        for key in _REQUIRED_FIELDS:
            if key not in entry:
                raise SchemaError(key, "required profile field missing")
        if entry["name"] in seen:
            raise DuplicateName(entry["name"])
        seen.add(entry["name"])
        try:
            out.append(HardwareProfile(**entry))
        except ValueError as exc:
            raise SchemaError(entry["name"], str(exc)) from None
    return out


def default_profiles() -> list[HardwareProfile]:
    """The profile set shipped with the package.

    These are editable reference budgets, not measured device data: a
    placeholder for today's hardware and a low/high pair for the projected
    next generation, all with the same depth budget.
    """
    text = resources.files("qcvrp").joinpath("data/profiles.json").read_text("utf-8")
    return load_profiles(text)


def get_profile(profiles: list[HardwareProfile], name: str) -> HardwareProfile:
    """Look up a profile by name."""
    for profile in profiles:
        if profile.name == name:
            return profile
    known = ", ".join(p.name for p in profiles) or "none"
    raise KeyError(f"no profile named {name!r} (known: {known})")
