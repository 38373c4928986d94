"""Quantum resource estimation and desk-scale exact solving for CVRP.

The package parses capacitated vehicle routing instances, sizes the qubit
registers, Hamiltonian terms, circuit volume, and measurement budgets of
two standard quantum encodings, classifies instances against hardware
profiles, renders the benchmark tables and feasibility diagrams, and builds
small exact penalty models that a brute-force solver can certify.

Each public name is imported from its submodule on first use, so
``import qcvrp`` and the estimation and report paths never compile the
instance parser or the penalty-model solver.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The public names of each submodule; ``__all__`` and ``dir()`` come from here.
_EXPORTS = {
    "encoding": (
        "DEFAULT_LAYERS", "EncodingKind", "LogMode", "ResourceEstimate", "SizeConvention",
        "circuit_volume", "depth_estimate", "error_rate_threshold", "estimate_instance",
        "hamiltonian_terms", "hobo_qubits", "measurement_estimate", "quantum_volume", "qubo_qubits",
    ),
    "errors": (
        "CvrpError", "DimensionMismatch", "DuplicateName", "EmptyInput", "IndexOutOfRange",
        "InvalidInstance", "LengthMismatch", "MalformedLine", "MissingSection", "SchemaError",
        "TooLarge", "UnsupportedEdgeWeightType",
    ),
    "hardware": (
        "FeasibilityVerdict", "HardwareProfile", "classify", "default_profiles",
        "feasibility_point", "get_profile", "load_profiles",
    ),
    "instances": ("CvrpInstance", "WeightKind", "infer_vehicle_count", "parse_instance", "serialize_instance"),
    "qubo": (
        "AUTO", "InstanceSolution", "QuboModel", "RouteDecoding", "VariableMap", "Violation",
        "brute_force_solve", "build_qubo", "count_terms", "decode_routes", "energy",
        "export_model", "parse_model", "solve_instance",
    ),
    "report": (
        "DiagramPoint", "InstanceParams", "bundled_gap_csv", "bundled_params", "diagram_points",
        "feasibility_diagram", "load_params_csv", "params_estimate", "render_gap_table",
        "render_resource_table",
    ),
    "value": (
        "GapDenominator", "GapRecord", "ImpactEstimate", "gap_records_from_csv",
        "impact_estimate", "optimality_gap",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in this package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    attribute = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = attribute  # later lookups skip this hook
    return attribute


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
