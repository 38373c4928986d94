from __future__ import annotations

import random

import pytest

from qcvrp import CvrpInstance, WeightKind, parse_instance

TRIANGLE_TEXT = """NAME : tiny-k1
COMMENT : two customers on a 3-4-5 triangle
TYPE : CVRP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
CAPACITY : 2
NODE_COORD_SECTION
 1 0 0
 2 0 3
 3 4 0
DEMAND_SECTION
1 0
2 1
3 1
DEPOT_SECTION
 1
 -1
EOF
"""


@pytest.fixture
def triangle_text() -> str:
    return TRIANGLE_TEXT


@pytest.fixture
def triangle() -> CvrpInstance:
    return parse_instance(TRIANGLE_TEXT)


def route_bits(nodes: int, vehicles: int) -> list[tuple[int, int, int]]:
    """``(v, i, j)`` of each route bit ``x[v, i -> j]`` in flat order: by
    vehicle, then tail node, then head node, skipping self-loops.

    Written from that rule alone, so that tests check the layout of
    ``VariableMap.arcs`` against it rather than against itself.
    """
    return [(v, i, j) for v in range(vehicles) for i in range(nodes) for j in range(nodes) if i != j]


def vrp_text(
    name: str,
    coords: list[tuple[float, float]],
    demands: list[int],
    capacity: int,
    vehicles: int | None = None,
) -> str:
    """Assemble a EUC_2D instance file from its pieces."""
    lines = [
        f"NAME : {name}",
        "TYPE : CVRP",
        f"DIMENSION : {len(coords)}",
        f"CAPACITY : {capacity}",
    ]
    if vehicles is not None:
        lines.append(f"VEHICLES : {vehicles}")
    lines.append("EDGE_WEIGHT_TYPE : EUC_2D")
    lines.append("NODE_COORD_SECTION")
    for i, (x, y) in enumerate(coords, start=1):
        lines.append(f"{i} {x} {y}")
    lines.append("DEMAND_SECTION")
    for i, q in enumerate(demands, start=1):
        lines.append(f"{i} {q}")
    lines.append("DEPOT_SECTION")
    lines.append("1")
    lines.append("-1")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def family_instance(
    rng: random.Random, customers: int, vehicles: int, capacity: int
) -> CvrpInstance:
    """A random small instance that is solvable by construction.

    Coordinates are distinct integer grid points.  Demands are drawn
    group-first: customers are split over the vehicles (each vehicle gets at
    least one) and each group's demands are resampled until they fit the
    capacity, so a valid set of routes always exists.
    """
    if customers < vehicles:
        raise ValueError("needs at least one customer per vehicle")
    grid = [(float(x), float(y)) for x in range(21) for y in range(21)]
    coords = rng.sample(grid, customers + 1)

    order = list(range(1, customers + 1))
    rng.shuffle(order)
    groups = [[order[v]] for v in range(vehicles)]
    for node in order[vehicles:]:
        groups[rng.randrange(vehicles)].append(node)

    demands = [0] * (customers + 1)
    for group in groups:
        while True:
            trial = [rng.randint(0, capacity) for _ in group]
            if sum(trial) <= capacity:
                break
        for node, q in zip(group, trial):
            demands[node] = q

    return CvrpInstance(
        name=f"family-n{customers}-c{capacity}-k{vehicles}",
        dimension=customers + 1,
        capacity=capacity,
        vehicles=vehicles,
        demands=tuple(demands),
        weight_kind=WeightKind.EUC_2D,
        coords=tuple(coords),
    )
