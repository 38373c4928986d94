"""Parsing, validation, and serialization of CVRP benchmark instances.

Reads the line-oriented TSPLIB dialect used by the common vehicle-routing
benchmark collections: keyword lines such as ``DIMENSION : 201`` followed by
data sections (``NODE_COORD_SECTION``, ``DEMAND_SECTION``, ...).  Node
indices are 1-based on disk and normalized to 0-based here, with the depot
always at node 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInstance,
    MalformedLine,
    MissingSection,
    UnsupportedEdgeWeightType,
)


class WeightKind(Enum):
    """How pairwise travel costs are defined."""

    EUC_2D = "EUC_2D"
    EXPLICIT = "EXPLICIT"


def nint(x: float) -> int:
    """Round to the nearest integer with halves rounding up (TSPLIB rule)."""
    return int(math.floor(x + 0.5))


_VEHICLE_SUFFIX = re.compile(r"[-_]k(\d+)$")


def infer_vehicle_count(name: str, demands: Sequence[int], capacity: int) -> int:
    """Fleet size for an instance.

    A trailing ``-k<digits>`` or ``_k<digits>`` in the instance name wins;
    otherwise fall back to the demand lower bound
    ``ceil(total demand / capacity)``.  The result is always at least 1.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    match = _VEHICLE_SUFFIX.search(name)
    if match:
        return max(1, int(match.group(1)))
    total = sum(demands)
    return max(1, -(-total // capacity))


@dataclass(frozen=True)
class CvrpInstance:
    """One capacitated vehicle-routing instance.

    Nodes are numbered 0..dimension-1 with the depot at node 0.  ``demands``
    and (when present) ``coords`` carry one entry per node.  Instances are
    immutable, hashable by field content, and safe to share across threads.
    """

    name: str
    dimension: int
    capacity: int
    vehicles: int
    demands: tuple[int, ...]
    weight_kind: WeightKind
    coords: tuple[tuple[float, float], ...] | None = None
    explicit_weights: tuple[tuple[int, ...], ...] | None = None
    depot: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "demands", tuple(int(q) for q in self.demands))
        if self.coords is not None:
            object.__setattr__(
                self, "coords", tuple((float(x), float(y)) for x, y in self.coords)
            )
            # NaN and inf fail the bound too; within it every distance stays below 2**63
            for node, (x, y) in enumerate(self.coords):
                if not (abs(x) <= 2.0**61 and abs(y) <= 2.0**61):
                    raise InvalidInstance(
                        f"coordinates of node {node} must be finite and within 2**61, got ({x}, {y})"
                    )
        if self.explicit_weights is not None:
            object.__setattr__(
                self,
                "explicit_weights",
                tuple(tuple(map(int, row)) for row in self.explicit_weights),
            )
        if not isinstance(self.weight_kind, WeightKind):
            raise InvalidInstance(f"weight_kind must be a WeightKind, got {self.weight_kind!r}")
        if self.dimension < 2:
            raise InvalidInstance("an instance needs a depot and at least one customer")
        if self.capacity < 1:
            raise InvalidInstance("capacity must be positive")
        if self.vehicles < 1:
            raise InvalidInstance("vehicle count must be at least 1")
        if self.depot != 0:
            raise InvalidInstance("the depot must sit at node 0 (parse normalizes this)")
        if len(self.demands) != self.dimension:
            raise InvalidInstance("demands must list one value per node")
        if any(q < 0 for q in self.demands):
            raise InvalidInstance("demands must be nonnegative")
        if self.demands[self.depot] != 0:
            raise InvalidInstance("the depot must have zero demand")
        if self.weight_kind is WeightKind.EUC_2D:
            if self.coords is None or len(self.coords) != self.dimension:
                raise InvalidInstance("EUC_2D instances need one coordinate pair per node")
        if self.weight_kind is WeightKind.EXPLICIT:
            if self.explicit_weights is None:
                raise InvalidInstance("EXPLICIT instances need a full weight matrix")
            if len(self.explicit_weights) != self.dimension or any(
                len(row) != self.dimension for row in self.explicit_weights
            ):
                raise InvalidInstance("the weight matrix must be dimension x dimension")
            if min(map(min, self.explicit_weights)) < 0:
                raise InvalidInstance("edge weights must be nonnegative")
        elif self.explicit_weights is not None:
            raise InvalidInstance("only EXPLICIT instances carry a weight matrix")

    @property
    def customers(self) -> int:
        """Number of customers, i.e. every node except the depot."""
        return self.dimension - 1

    @property
    def capacity_violations(self) -> tuple[int, ...]:
        """Nodes whose demand exceeds the vehicle capacity.

        Such an instance has no classical solution but still parses, so that
        resource estimation keeps working; callers decide how loudly to warn.
        """
        return tuple(i for i, q in enumerate(self.demands) if q > self.capacity)


def edge_weight(inst: CvrpInstance, i: int, j: int) -> int:
    """Integer travel cost from node ``i`` to node ``j``.

    Euclidean instances round ``sqrt(dx*dx + dy*dy)`` half up, by the same
    float steps as :func:`weight_matrix`; explicit instances return the
    stored matrix entry.  ``edge_weight(inst, i, i)`` is 0 by definition.
    """
    dim = inst.dimension
    if not (0 <= i < dim and 0 <= j < dim):
        raise IndexOutOfRange(f"node pair ({i}, {j}) outside 0..{dim - 1}")
    if i == j:
        return 0
    if inst.weight_kind is WeightKind.EUC_2D:
        assert inst.coords is not None
        xi, yi = inst.coords[i]
        xj, yj = inst.coords[j]
        dx, dy = xi - xj, yi - yj
        return nint(math.sqrt(dx * dx + dy * dy))
    assert inst.explicit_weights is not None
    return inst.explicit_weights[i][j]


def weight_matrix(inst: CvrpInstance) -> np.ndarray:
    """Full integer distance matrix with a zero diagonal."""
    import numpy as np
    if inst.weight_kind is WeightKind.EUC_2D:
        assert inst.coords is not None
        pts = np.asarray(inst.coords, dtype=np.float64)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        mat = np.floor(dist + 0.5).astype(np.int64)
    else:
        assert inst.explicit_weights is not None
        mat = np.asarray(inst.explicit_weights, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    return mat


# Bound on the node pairs compared per numpy block in max_edge_weight.  A
# block's arrays (128 KB each) stay in cache; 2**16 pairs ran ~1.7x slower
# at 1000 nodes.
_BLOCK_PAIRS = 1 << 14


def max_edge_weight(inst: CvrpInstance) -> int:
    """Largest pairwise travel cost in the instance.

    Equals ``int(weight_matrix(inst).max())`` but never holds the full
    matrix: Euclidean instances take the largest squared distance over
    blocks of at most ``_BLOCK_PAIRS`` node pairs and round it once, which
    gives the same integer because the square root and the rounding are
    monotone; explicit instances skip the diagonal, as the matrix does.
    """
    if inst.weight_kind is WeightKind.EXPLICIT:
        assert inst.explicit_weights is not None
        return max(max(row[:i] + row[i + 1 :]) for i, row in enumerate(inst.explicit_weights))
    import numpy as np
    assert inst.coords is not None
    x, y = np.asarray(inst.coords, dtype=np.float64).T
    n = len(x)
    best = 0.0
    start = 0
    while start < n:
        # Distances are symmetric, so each row block meets columns from its
        # own first row onward only.
        stop = min(n, start + max(1, _BLOCK_PAIRS // (n - start)))
        dx = x[start:stop, None] - x[None, start:]
        dy = y[start:stop, None] - y[None, start:]
        dx *= dx
        dy *= dy
        dx += dy
        best = max(best, float(dx.max()))
        start = stop
    return nint(math.sqrt(best))


_KEYWORD_LINE = re.compile(r"^([A-Z][A-Z0-9_]*)\s*:\s*(.*)$")
_SECTIONS = {
    "NODE_COORD_SECTION",
    "DEMAND_SECTION",
    "DEPOT_SECTION",
    "EDGE_WEIGHT_SECTION",
}


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedLine(lineno, f"{what} must be an integer, got {token!r}") from None


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise MalformedLine(lineno, f"{what} must be a number, got {token!r}") from None


def _place_rows(rows: list[tuple[int, object, int]], dimension: int, what: str) -> list:
    """Values of 1-based ``(index, value, line)`` rows, listed by node."""
    if len(rows) != dimension:
        raise DimensionMismatch(f"expected {dimension} {what} rows, found {len(rows)}")
    slots: list[object] = [None] * dimension
    for idx, value, lineno in rows:
        if not (1 <= idx <= dimension):
            raise MalformedLine(lineno, f"node index {idx} outside 1..{dimension}")
        if slots[idx - 1] is not None:
            raise MalformedLine(lineno, f"duplicate {what} row for node {idx}")
        slots[idx - 1] = value
    return slots  # full: as many rows as nodes, each node placed once


def parse_instance(text: str) -> CvrpInstance:
    """Parse instance text in the TSPLIB dialect.

    Requires NAME, DIMENSION, CAPACITY, EDGE_WEIGHT_TYPE (EUC_2D or
    EXPLICIT), a DEMAND_SECTION, and coordinates or a full weight matrix to
    match the weight type.  DEPOT_SECTION and VEHICLES are optional; when the
    file names no fleet size it is inferred from the instance name or the
    demand total.  Nodes come out 0-based with the depot moved to node 0.
    """
    headers: dict[str, tuple[str, int]] = {}
    coord_rows: list[tuple[int, tuple[float, float], int]] = []
    demand_rows: list[tuple[int, int, int]] = []
    depot_entries: list[tuple[int, int]] = []
    weight_tokens: list[int] = []
    section: str | None = None
    weight_section_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        # EOF, section names, keywords and unknown sections all start with
        # an upper-case letter; numeric data lines never do.
        if "A" <= line[0] <= "Z":
            word = line.rstrip(":").strip()
            if word == "EOF":
                break
            if word in _SECTIONS:
                section = word
                if word == "EDGE_WEIGHT_SECTION":
                    weight_section_line = lineno
                continue
            key_match = _KEYWORD_LINE.match(line)
            if key_match:
                section = None
                headers[key_match.group(1)] = (key_match.group(2).strip(), lineno)
                continue
            if re.fullmatch(r"[A-Z][A-Z0-9_]*", word):
                raise MalformedLine(lineno, f"unknown section {word!r}")
        tokens = line.split()
        if section == "NODE_COORD_SECTION":
            if len(tokens) != 3:
                raise MalformedLine(lineno, "coordinate rows are 'index x y'")
            coord_rows.append(
                (
                    _parse_int(tokens[0], lineno, "node index"),
                    (
                        _parse_float(tokens[1], lineno, "x coordinate"),
                        _parse_float(tokens[2], lineno, "y coordinate"),
                    ),
                    lineno,
                )
            )
        elif section == "DEMAND_SECTION":
            if len(tokens) != 2:
                raise MalformedLine(lineno, "demand rows are 'index demand'")
            demand_rows.append(
                (
                    _parse_int(tokens[0], lineno, "node index"),
                    _parse_int(tokens[1], lineno, "demand"),
                    lineno,
                )
            )
        elif section == "DEPOT_SECTION":
            if len(tokens) != 1:
                raise MalformedLine(lineno, "depot rows hold a single node index")
            value = _parse_int(tokens[0], lineno, "depot index")
            if value == -1:
                section = None
            else:
                depot_entries.append((value, lineno))
        elif section == "EDGE_WEIGHT_SECTION":
            try:
                weight_tokens.extend(map(int, tokens))
            except ValueError:
                for tok in tokens:
                    _parse_int(tok, lineno, "edge weight")  # raises, naming the token
        else:
            raise MalformedLine(lineno, "data line outside any section")

    for required in ("NAME", "DIMENSION", "CAPACITY", "EDGE_WEIGHT_TYPE"):
        if required not in headers:
            raise MissingSection(required)

    name = headers["NAME"][0]
    dimension = _parse_int(*headers["DIMENSION"], "DIMENSION")
    capacity = _parse_int(*headers["CAPACITY"], "CAPACITY")
    kind_token, kind_line = headers["EDGE_WEIGHT_TYPE"]
    try:
        weight_kind = WeightKind(kind_token.upper())
    except ValueError:
        raise UnsupportedEdgeWeightType(
            f"EDGE_WEIGHT_TYPE {kind_token!r} is not supported (use EUC_2D or EXPLICIT)"
        ) from None
    if "EDGE_WEIGHT_FORMAT" in headers:
        fmt, _ = headers["EDGE_WEIGHT_FORMAT"]
        if weight_kind is WeightKind.EXPLICIT and fmt.upper() != "FULL_MATRIX":
            raise UnsupportedEdgeWeightType(
                f"EDGE_WEIGHT_FORMAT {fmt!r} is not supported (use FULL_MATRIX)"
            )

    if weight_kind is WeightKind.EUC_2D and weight_tokens:
        raise MalformedLine(weight_section_line, "EDGE_WEIGHT_SECTION is invalid for EUC_2D")
    if not demand_rows:
        raise MissingSection("DEMAND_SECTION")
    if weight_kind is WeightKind.EUC_2D and not coord_rows:
        raise MissingSection("NODE_COORD_SECTION")
    if weight_kind is WeightKind.EXPLICIT and not weight_tokens:
        raise MissingSection("EDGE_WEIGHT_SECTION")

    coords = _place_rows(coord_rows, dimension, "coordinate") if coord_rows else None
    demands = _place_rows(demand_rows, dimension, "demand")

    matrix: list[list[int]] | None = None
    if weight_tokens:
        if len(weight_tokens) != dimension * dimension:
            raise DimensionMismatch(
                f"expected {dimension * dimension} edge weights, found {len(weight_tokens)}"
            )
        matrix = [
            weight_tokens[r * dimension : (r + 1) * dimension] for r in range(dimension)
        ]

    if len(depot_entries) > 1:
        raise MalformedLine(depot_entries[1][1], "more than one depot is not supported")
    depot = depot_entries[0][0] - 1 if depot_entries else 0
    if depot_entries and not (0 <= depot < dimension):
        raise MalformedLine(
            depot_entries[0][1], f"depot index {depot + 1} outside 1..{dimension}"
        )
    if depot != 0:
        # Normalize by swapping the depot with node 0 in every node-indexed list.
        for nodes in (demands, coords, matrix, *(matrix or ())):
            if nodes is not None:
                nodes[0], nodes[depot] = nodes[depot], nodes[0]

    if "VEHICLES" in headers:
        vehicles = _parse_int(*headers["VEHICLES"], "VEHICLES")
    else:
        vehicles = infer_vehicle_count(name, demands, capacity) if capacity > 0 else 0

    return CvrpInstance(
        name=name,
        dimension=dimension,
        capacity=capacity,
        vehicles=vehicles,
        demands=demands,
        weight_kind=weight_kind,
        coords=coords,
        explicit_weights=matrix,
    )


def serialize_instance(inst: CvrpInstance) -> str:
    """Render an instance back to the TSPLIB dialect.

    The output parses back to a field-identical instance; the fleet size is
    written as a VEHICLES keyword so round-trips do not depend on name
    conventions or demand totals.
    """
    lines = [
        f"NAME : {inst.name}",
        "TYPE : CVRP",
        f"DIMENSION : {inst.dimension}",
        f"CAPACITY : {inst.capacity}",
        f"VEHICLES : {inst.vehicles}",
        f"EDGE_WEIGHT_TYPE : {inst.weight_kind.value}",
    ]
    if inst.weight_kind is WeightKind.EXPLICIT:
        lines.append("EDGE_WEIGHT_FORMAT : FULL_MATRIX")
    if inst.coords is not None:
        lines.append("NODE_COORD_SECTION")
        for i, (x, y) in enumerate(inst.coords, start=1):
            lines.append(f"{i} {x!r} {y!r}")
    lines.append("DEMAND_SECTION")
    for i, q in enumerate(inst.demands, start=1):
        lines.append(f"{i} {q}")
    if inst.explicit_weights is not None:
        lines.append("EDGE_WEIGHT_SECTION")
        for row in inst.explicit_weights:
            lines.append(" ".join(str(w) for w in row))
    lines.append("DEPOT_SECTION")
    lines.append("1")
    lines.append("-1")
    lines.append("EOF")
    return "\n".join(lines) + "\n"
