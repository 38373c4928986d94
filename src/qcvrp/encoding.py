"""Closed-form quantum resource estimates for two CVRP encodings.

Two ways of writing a routing instance as a binary optimization problem are
covered.  The edge-based QUBO encoding spends one qubit per ordered node pair
and vehicle plus a unary capacity register, so a fleet of ``k`` vehicles over
``n`` customers needs ``k * ((n + 1)**2 + C)`` qubits.  The compact
higher-order (HOBO) encoding stores tour positions and loads in binary
registers and needs only ``k * (n * log2(n) + log2(C + 1))`` qubits.  The
remaining quantities (term counts, circuit volume, measurement shots, depth,
quantum volume, tolerable error rate) are leading-order scaling estimates in
the qubit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .instances import CvrpInstance, max_edge_weight, nint

DEFAULT_LAYERS = 5


class EncodingKind(Enum):
    """Which binary encoding a figure refers to."""

    QUBO = "qubo"
    HOBO = "hobo"


class SizeConvention(Enum):
    """How the customer count enters the quadratic qubit formula.

    STRICT squares ``customers + 1`` (every node, depot included).  COMPAT
    squares ``customers - 1`` and reproduces the published resource tables
    for the classical benchmark sets this library ships; reports always say
    which convention they used.
    """

    STRICT = "strict"
    COMPAT = "compat"


class LogMode(Enum):
    """How fractional register widths become whole qubit counts.

    REAL keeps ``log2`` terms exact and may return a fractional count.
    FLOOR rounds the position block and the load register down separately
    and reproduces the published per-instance counts for the benchmark sets
    this library ships.  CEIL widens each register up to whole qubits,
    which is what a physical register allocation needs.
    """

    REAL = "real"
    FLOOR = "floor"
    CEIL = "ceil"


def _require_positive_int(value: int, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def qubo_qubits(
    customers: int,
    vehicles: int,
    capacity: int,
    convention: SizeConvention = SizeConvention.STRICT,
) -> int:
    """Qubit count of the edge-based QUBO encoding.

    ``vehicles * ((customers + 1)**2 + capacity)`` under STRICT;
    COMPAT squares ``customers - 1`` instead.
    """
    _require_positive_int(customers, "customers")
    _require_positive_int(vehicles, "vehicles")
    _require_positive_int(capacity, "capacity")
    base = customers + 1 if convention is SizeConvention.STRICT else customers - 1
    return vehicles * (base * base + capacity)


def hobo_qubits(
    customers: int,
    vehicles: int,
    capacity: int,
    log_mode: LogMode = LogMode.REAL,
) -> float:
    """Qubit count of the compact binary encoding.

    ``vehicles * (customers * log2(customers) + log2(capacity + 1))``.  REAL
    returns the exact (possibly fractional) value.  FLOOR rounds the position
    block ``customers * log2(customers)`` and the load register
    ``log2(capacity + 1)`` down separately before summing; CEIL widens each
    register up instead.  Both return integers.
    """
    _require_positive_int(customers, "customers")
    _require_positive_int(vehicles, "vehicles")
    _require_positive_int(capacity, "capacity")
    if log_mode is LogMode.CEIL:
        position_bits = (customers - 1).bit_length()
        load_bits = capacity.bit_length()
        return vehicles * (customers * position_bits + load_bits)
    position = customers * math.log2(customers)
    load = math.log2(capacity + 1)
    if log_mode is LogMode.FLOOR:
        return vehicles * (math.floor(position) + math.floor(load))
    return vehicles * (position + load)


def _require_positive_number(value: float, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a positive number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{what} must be a positive finite number, got {value!r}")


def hamiltonian_terms(encoding: EncodingKind, size: float) -> float:
    """Leading-order Hamiltonian term count at problem size ``size``.

    ``2 * size**3`` for QUBO, ``size**4 / 2`` for HOBO.
    """
    _require_positive_number(size, "size")
    if encoding is EncodingKind.QUBO:
        return 2 * size**3
    return size**4 / 2


def circuit_volume(encoding: EncodingKind, size: float) -> float:
    """Leading-order circuit volume (gates x depth) at problem size ``size``.

    ``12 * size**3`` for QUBO, ``2 * size**4 * log2(size)`` for HOBO.
    """
    _require_positive_number(size, "size")
    if encoding is EncodingKind.QUBO:
        return 12 * size**3
    return 2 * size**4 * math.log2(size)


def measurement_estimate(
    encoding: EncodingKind,
    size: float,
    max_weight: float,
    constant: float = 1.0,
) -> float:
    """Measurement-shot estimate at problem size ``size``.

    Scales with the largest edge weight: ``size**3 * max_weight`` for QUBO
    and ``size**2 * max_weight`` for HOBO, times a configurable leading
    constant (default 1).  Integral arguments give an exact integer, so the
    HOBO/QUBO ratio is exactly ``1 / size`` even beyond 2**53.
    """
    _require_positive_number(size, "size")
    _require_positive_number(max_weight, "max_weight")
    _require_positive_number(constant, "constant")
    power = 3 if encoding is EncodingKind.QUBO else 2
    if all(float(x).is_integer() for x in (size, max_weight, constant)):
        return int(constant) * int(size) ** power * int(max_weight)
    return constant * size**power * max_weight


def depth_estimate(qubit_count: int, layers: int = DEFAULT_LAYERS) -> int:
    """Two-qubit-gate depth: ``layers`` mixing rounds, each sweeping the register."""
    _require_positive_int(qubit_count, "qubit_count")
    _require_positive_int(layers, "layers")
    return layers * qubit_count


def quantum_volume(qubits: int, depth: int) -> int:
    """Exact product ``qubits * depth``.

    Computed in arbitrary-precision integers, so values far beyond 2**32
    stay exact and overflow cannot occur silently.
    """
    _require_positive_int(qubits, "qubits")
    _require_positive_int(depth, "depth")
    return qubits * depth


def error_rate_threshold(volume: int) -> float:
    """Worst tolerable per-gate error rate: one error per quantum volume."""
    _require_positive_int(volume, "volume")
    return 1.0 / volume


@dataclass(frozen=True)
class ResourceEstimate:
    """Every resource figure for one instance under one encoding."""

    encoding: EncodingKind
    qubits: int
    terms: float
    depth: int
    circuit_volume: float
    measurements: float
    quantum_volume: int
    error_rate_threshold: float

    def __post_init__(self) -> None:
        for field_name in (
            "qubits",
            "terms",
            "depth",
            "circuit_volume",
            "measurements",
            "quantum_volume",
            "error_rate_threshold",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be nonnegative")
        if self.quantum_volume != self.qubits * self.depth:
            raise ValueError("quantum_volume must equal qubits * depth exactly")
        if abs(self.error_rate_threshold * self.quantum_volume - 1.0) > 1e-12:
            raise ValueError("error_rate_threshold must be the reciprocal quantum volume")


def estimate_resources(
    customers: int,
    vehicles: int,
    capacity: int,
    max_weight: float,
    encoding: EncodingKind,
    convention: SizeConvention = SizeConvention.STRICT,
    layers: int = DEFAULT_LAYERS,
    log_mode: LogMode = LogMode.FLOOR,
) -> ResourceEstimate:
    """Full resource estimate from a size triple and the longest edge weight.

    The qubit count of the chosen encoding doubles as the size parameter for
    the term, volume, and measurement scalings; ``max_weight`` scales only
    the measurement estimate.  Fractional HOBO counts under REAL are rounded
    to the nearest whole qubit; ``convention`` only affects the QUBO
    encoding, and ``log_mode`` only the HOBO one.
    """
    if encoding is EncodingKind.QUBO:
        qubits = qubo_qubits(customers, vehicles, capacity, convention)
    else:
        hobo = hobo_qubits(customers, vehicles, capacity, log_mode)
        # Only REAL is fractional; FLOOR and CEIL counts stay exact ints.
        qubits = nint(hobo) if isinstance(hobo, float) else hobo
    depth = depth_estimate(qubits, layers)
    volume = quantum_volume(qubits, depth)
    return ResourceEstimate(
        encoding=encoding,
        qubits=qubits,
        terms=hamiltonian_terms(encoding, qubits),
        depth=depth,
        circuit_volume=circuit_volume(encoding, qubits),
        measurements=measurement_estimate(encoding, qubits, max_weight),
        quantum_volume=volume,
        error_rate_threshold=error_rate_threshold(volume),
    )


def estimate_instance(
    inst: CvrpInstance,
    encoding: EncodingKind,
    convention: SizeConvention = SizeConvention.STRICT,
    layers: int = DEFAULT_LAYERS,
    log_mode: LogMode = LogMode.FLOOR,
) -> ResourceEstimate:
    """``estimate_resources`` for a parsed instance and its longest edge (at least 1)."""
    return estimate_resources(
        inst.customers, inst.vehicles, inst.capacity, max(1, max_edge_weight(inst)),
        encoding, convention, layers, log_mode,
    )
