"""Independent answers the benchmark checks the package against.

Nothing here imports the package: distances come straight from the
generated coordinates, routes are searched exhaustively over the instance,
and flat bit positions follow the documented variable order of the model
(route bits by vehicle, tail node, head node without self-loops; then one
unary slack register of ``capacity`` bits per vehicle).
"""

from __future__ import annotations

import math
from itertools import permutations, product


def euc_weight(a: tuple[float, float], b: tuple[float, float]) -> int:
    """TSPLIB EUC_2D distance: Euclidean length rounded half up."""
    return int(math.floor(math.hypot(a[0] - b[0], a[1] - b[1]) + 0.5))


def euc_matrix(coords: list[tuple[float, float]]) -> list[list[int]]:
    return [[0 if i == j else euc_weight(a, b) for j, b in enumerate(coords)] for i, a in enumerate(coords)]


def tour_cost(weights: list[list[int]], route: list[int]) -> int:
    """Cost of a closed walk ``route`` that starts and ends at the depot."""
    return sum(weights[a][b] for a, b in zip(route, route[1:]))


def best_routes_cost(weights: list[list[int]], demands: list[int], vehicles: int, capacity: int) -> int | None:
    """Cheapest valid set of routes, by trying every split and every order.

    Valid: each customer served once, each vehicle serves at least one
    customer, and no vehicle carries more than ``capacity``.
    """
    customers = range(1, len(demands))
    best: int | None = None
    for owner in product(range(vehicles), repeat=len(customers)):
        groups: list[list[int]] = [[] for _ in range(vehicles)]
        for node, v in zip(customers, owner):
            groups[v].append(node)
        if any(not g or sum(demands[c] for c in g) > capacity for g in groups):
            continue
        total = sum(
            min(tour_cost(weights, [0, *order, 0]) for order in permutations(group))
            for group in groups
        )
        if best is None or total < best:
            best = total
    return best


def route_bit(nodes: int, v: int, i: int, j: int) -> int:
    """Flat position of the bit "vehicle ``v`` drives ``i -> j``"."""
    return (v * nodes + i) * (nodes - 1) + (j if j < i else j - 1)


def route_assignment(nodes: int, capacity: int, demands: list[int], routes: list[list[int]]) -> str:
    """Bitstring that drives ``routes`` (one closed walk per vehicle) with
    every slack register filled to make its vehicle's load equal capacity."""
    vehicles = len(routes)
    n_route = vehicles * nodes * (nodes - 1)
    bits = ["0"] * (n_route + vehicles * capacity)
    for v, route in enumerate(routes):
        for a, b in zip(route, route[1:]):
            bits[route_bit(nodes, v, a, b)] = "1"
        slack = capacity - sum(demands[c] for c in route[1:-1])
        start = n_route + v * capacity
        for t in range(slack):
            bits[start + t] = "1"
    return "".join(bits)


def set_arcs_cost(nodes: int, vehicles: int, weights: list[list[int]], assignment: str) -> int:
    """Summed weight of every set route bit, whatever shape the arcs form."""
    return sum(
        weights[i][j]
        for v in range(vehicles)
        for i in range(nodes)
        for j in range(nodes)
        if i != j and assignment[route_bit(nodes, v, i, j)] == "1"
    )


def resource_qubits(customers: int, vehicles: int, capacity: int) -> tuple[int, int]:
    """Qubit counts of the two encodings: QUBO under the strict size
    convention, ``k((n+1)^2 + C)``, and HOBO with floored registers,
    ``k(floor(n log2 n) + floor(log2(C+1)))``."""
    qubo = vehicles * ((customers + 1) ** 2 + capacity)
    hobo = vehicles * (math.floor(customers * math.log2(customers)) + math.floor(math.log2(capacity + 1)))
    return qubo, hobo
