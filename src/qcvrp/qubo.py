"""Penalty-method QUBO construction and exact solving for desk-scale CVRP.

The model works over edge variables ``x[v, i, j]`` (vehicle ``v`` drives the
arc ``i -> j``; self-loops do not exist) plus one unary slack register per
vehicle that turns the capacity bound into an equality.  Constraints become
squared penalties scaled by a single factor ``A``:

* every customer is left exactly once (across all vehicles),
* every vehicle leaves the depot exactly once and returns exactly once,
* per vehicle, each customer has as many incoming as outgoing arcs,
* per vehicle, carried demand plus slack equals the capacity,
* no pair of customers forms an isolated two-node loop.

The last rule costs no extra variables and never charges a valid solution;
it closes the cheapest family of depot-avoiding loops that the degree rules
alone admit.  Longer depot-avoiding loops can still slip through with four
or more customers; ``decode_routes`` reports them as violations.

Everything here is meant for instances small enough to enumerate, where the
exact optimum doubles as ground truth for the closed-form estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import LengthMismatch, TooLarge
from .instances import CvrpInstance, edge_weight, max_edge_weight, weight_matrix

AUTO = "auto"

DEFAULT_MAX_VARS = 30
_CHUNK_BITS = 18

VISIT_COUNT = "visit-count"
DEPOT_DEPARTURE = "depot-departure"
DEPOT_RETURN = "depot-return"
FLOW_BALANCE = "flow-balance"
CAPACITY = "capacity"
SUBTOUR = "subtour"


@dataclass(frozen=True)
class VarIndex:
    """Structured name of one route variable: vehicle ``v`` drives ``i -> j``."""

    i: int
    j: int
    v: int


@dataclass(frozen=True)
class SlackRegister:
    """One vehicle's unary capacity register: ``length`` bits of weight 1."""

    vehicle: int
    start: int
    length: int


class VariableMap:
    """Bijection between structured variables and flat bit positions.

    Route variables come first, ordered by vehicle, then tail node, then
    head node, skipping self-loops; the slack registers follow, one block
    per vehicle.
    """

    def __init__(self, nodes: int, vehicles: int, capacity: int) -> None:
        self.nodes = nodes
        self.vehicles = vehicles
        self.capacity = capacity
        self.num_route_vars = vehicles * nodes * (nodes - 1)
        self.num_vars = self.num_route_vars + vehicles * capacity
        self.slack_registers = tuple(
            SlackRegister(v, self.num_route_vars + v * capacity, capacity)
            for v in range(vehicles)
        )

    def route_index(self, var: VarIndex) -> int:
        n = self.nodes
        if not (0 <= var.v < self.vehicles and 0 <= var.i < n and 0 <= var.j < n):
            raise IndexError(f"{var} outside the model")
        if var.i == var.j:
            raise IndexError("self-loops have no variable")
        j_rank = var.j if var.j < var.i else var.j - 1
        return (var.v * n + var.i) * (n - 1) + j_rank

    def route_var(self, flat: int) -> VarIndex:
        if not (0 <= flat < self.num_route_vars):
            raise IndexError(f"flat index {flat} is not a route variable")
        v, rest = divmod(flat, self.nodes * (self.nodes - 1))
        i, j_rank = divmod(rest, self.nodes - 1)
        j = j_rank if j_rank < i else j_rank + 1
        return VarIndex(i=i, j=j, v=v)

    def slack_index(self, vehicle: int, bit: int) -> int:
        reg = self.slack_registers[vehicle]
        if not (0 <= bit < reg.length):
            raise IndexError(f"slack bit {bit} outside register of length {reg.length}")
        return reg.start + bit

    def describe(self, flat: int) -> str:
        if flat < self.num_route_vars:
            var = self.route_var(flat)
            return f"x[v{var.v}, {var.i}->{var.j}]"
        rest = flat - self.num_route_vars
        v, bit = divmod(rest, self.capacity)
        return f"slack[v{v}, {bit}]"


Number = Union[int, float]


@dataclass
class QuboModel:
    """An explicit quadratic pseudo-Boolean model.

    ``linear`` maps flat indices to coefficients and ``quadratic`` maps
    index pairs ``(a, b)`` with ``a < b``; ``offset`` is the constant term
    and ``penalty`` the scale applied to every constraint.  Models built
    from an instance carry a ``var_map``, which only ``decode_routes``
    needs; models read back from text do not, and evaluate and solve the
    same way.
    """

    num_vars: int
    linear: dict[int, Number]
    quadratic: dict[tuple[int, int], Number]
    offset: Number
    penalty: Number
    var_map: VariableMap | None = None


def _auto_penalty(inst: CvrpInstance) -> int:
    # Twice the node count times the longest edge strictly dominates the
    # cost of any violation-free assignment at desk scale.  The floor of 1
    # keeps constraints alive when every edge has zero weight.
    return 2 * inst.dimension * max(1, max_edge_weight(inst))


def build_qubo(
    inst: CvrpInstance,
    penalty: Number | str = AUTO,
    *,
    forbid_two_cycles: bool = True,
) -> QuboModel:
    """Assemble the penalty model for an instance.

    Variable count is ``vehicles * dimension * (dimension - 1)`` route bits
    plus ``vehicles * capacity`` slack bits.  ``penalty`` is a positive
    number or ``"auto"``, which picks twice the node count times the longest
    edge.  ``forbid_two_cycles`` keeps the isolated-pair penalty on; it only
    exists so tests can study the plain degree-constraint model.
    """
    if penalty == AUTO:
        scale: Number = _auto_penalty(inst)
    else:
        if not isinstance(penalty, (int, float)) or isinstance(penalty, bool):
            raise ValueError(f"penalty must be a number or 'auto', got {penalty!r}")
        if not penalty > 0:
            raise ValueError("penalty must be positive")
        scale = penalty

    nodes = inst.dimension
    k = inst.vehicles
    cap = inst.capacity
    vmap = VariableMap(nodes, k, cap)
    weights = weight_matrix(inst)

    linear: dict[int, Number] = {}
    quadratic: dict[tuple[int, int], Number] = {}
    offset: Number = 0

    def add_linear(a: int, coeff: Number) -> None:
        linear[a] = linear.get(a, 0) + coeff

    def add_quadratic(a: int, b: int, coeff: Number) -> None:
        key = (a, b) if a < b else (b, a)
        quadratic[key] = quadratic.get(key, 0) + coeff

    def add_square(terms: list[tuple[int, Number]], constant: Number) -> None:
        # scale * (sum coeff_a * x_a + constant)**2, using x**2 == x.
        nonlocal offset
        offset += scale * constant * constant
        for pos, (a, ca) in enumerate(terms):
            add_linear(a, scale * (ca * ca + 2 * constant * ca))
            for b, cb in terms[pos + 1 :]:
                add_quadratic(a, b, 2 * scale * ca * cb)

    def arc(v: int, i: int, j: int) -> int:
        return vmap.route_index(VarIndex(i=i, j=j, v=v))

    for v in range(k):
        for i in range(nodes):
            for j in range(nodes):
                if i != j and weights[i, j]:
                    add_linear(arc(v, i, j), int(weights[i, j]))

    for i in range(1, nodes):
        outgoing = [
            (arc(v, i, j), 1) for v in range(k) for j in range(nodes) if j != i
        ]
        add_square(outgoing, -1)

    for v in range(k):
        add_square([(arc(v, 0, j), 1) for j in range(1, nodes)], -1)
        add_square([(arc(v, i, 0), 1) for i in range(1, nodes)], -1)
        for i in range(1, nodes):
            balance = [(arc(v, i, j), 1) for j in range(nodes) if j != i]
            balance += [(arc(v, j, i), -1) for j in range(nodes) if j != i]
            add_square(balance, 0)
        load = [
            (arc(v, i, j), inst.demands[i])
            for i in range(1, nodes)
            for j in range(nodes)
            if j != i and inst.demands[i]
        ]
        load += [(vmap.slack_index(v, t), 1) for t in range(cap)]
        add_square(load, -cap)

    if forbid_two_cycles:
        for v in range(k):
            for i in range(1, nodes):
                for j in range(i + 1, nodes):
                    add_quadratic(arc(v, i, j), arc(v, j, i), scale)

    linear = {a: c for a, c in linear.items() if c != 0}
    quadratic = {ab: c for ab, c in quadratic.items() if c != 0}
    return QuboModel(
        num_vars=vmap.num_vars,
        linear=linear,
        quadratic=quadratic,
        offset=offset,
        penalty=scale,
        var_map=vmap,
    )


def _check_assignment(model: QuboModel, assignment: str) -> list[int]:
    if len(assignment) != model.num_vars:
        raise LengthMismatch(
            f"assignment has {len(assignment)} bits, model has {model.num_vars} variables"
        )
    if set(assignment) - {"0", "1"}:
        raise ValueError("assignment must be a string over '0' and '1'")
    return [1 if c == "1" else 0 for c in assignment]


def energy(model: QuboModel, assignment: str) -> Number:
    """Evaluate the model on a bitstring (index 0 is the leftmost bit)."""
    bits = _check_assignment(model, assignment)
    total = model.offset
    for a, coeff in model.linear.items():
        if bits[a]:
            total += coeff
    for (a, b), coeff in model.quadratic.items():
        if bits[a] and bits[b]:
            total += coeff
    return total


def count_terms(model: QuboModel) -> tuple[int, int]:
    """Number of nonzero linear and quadratic coefficients."""
    n_lin = sum(1 for c in model.linear.values() if c != 0)
    n_quad = sum(1 for c in model.quadratic.values() if c != 0)
    return (n_lin, n_quad)


def _dense(model: QuboModel) -> tuple[np.ndarray, np.ndarray]:
    """Linear vector and symmetric, zero-diagonal coupling matrix.

    Indices outside ``0..num_vars-1`` raise ``ValueError``; numpy would let
    a negative one alias a variable from the end.
    """
    m = model.num_vars
    lin = np.zeros(m)
    quad = np.zeros((m, m))
    for a, coeff in model.linear.items():
        if not 0 <= a < m:
            raise ValueError(f"linear index {a} outside 0..{m - 1}")
        lin[a] += coeff
    for (a, b), coeff in model.quadratic.items():
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"quadratic index pair ({a}, {b}) outside 0..{m - 1}")
        if a == b:
            lin[a] += coeff  # x * x == x
        else:
            quad[a, b] += coeff
            quad[b, a] += coeff
    return lin, quad


def _interchangeable(lin: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """Label each variable with the first member of its group.

    Two variables are interchangeable when their linear terms are equal and
    they couple identically to every other variable, so permuting them
    leaves every energy unchanged.  The relation is an equivalence, and it
    forces one common coupling inside each group.
    """
    owner = np.full(len(lin), -1)
    for i in range(len(lin)):
        if owner[i] < 0:
            same = quad == quad[i]
            same[:, i] = True
            np.fill_diagonal(same, True)
            owner[same.all(axis=1) & (lin == lin[i])] = i
    return owner


def _enumerated_prefix(owner: np.ndarray, quad: np.ndarray) -> int:
    """Smallest ``n`` such that bits ``n..`` are whole, mutually uncoupled groups.

    Those trailing groups are minimized over their count of set bits; the
    bits before them are enumerated, so lexicographic order is preserved.
    """
    n = len(owner)
    for s in range(n - 1, -1, -1):
        tail = owner[s:]
        if np.isin(tail, owner[:s]).any():
            continue  # a group straddles s
        if quad[s:, s:][tail[:, None] != tail[None, :]].any():
            break
        n = s
    return n


def _bits_of(indices: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.float64)


def brute_force_solve(
    model: QuboModel,
    max_vars: int = DEFAULT_MAX_VARS,
    chunk_bits: int = _CHUNK_BITS,
) -> tuple[str, Number]:
    """Exact global minimum of the model.

    Variables with equal linear terms and identical coupling to every other
    variable are interchangeable; these groups are read off the
    coefficients, so a model parsed from text solves as fast as a built one.
    Trailing groups that do not couple to each other (the slack registers
    of ``build_qubo`` models) are minimized analytically over their count
    of set bits.  The remaining bits split into a high and a low half, and
    every (high, low) pair is evaluated, ``2**chunk_bits`` pairs per numpy
    block.  Ties go to the lexicographically smallest bitstring, independent
    of chunking.  Raises ``TooLarge`` beyond ``max_vars`` variables and
    ``ValueError`` on an index outside the model or a non-finite
    coefficient.
    """
    m = model.num_vars
    if m < 1:
        raise ValueError("the model has no variables")
    if m > max_vars:
        raise TooLarge(f"{m} variables exceed the cap of {max_vars}")
    lin, quad = _dense(model)
    offset = float(model.offset)
    # A finite sum of magnitudes also bounds every partial sum below.
    with np.errstate(over="ignore"):
        magnitude = abs(offset) + np.abs(lin).sum() + np.abs(quad).sum()
    if not math.isfinite(magnitude):
        raise ValueError("model coefficients and offset must be finite")

    owner = _interchangeable(lin, quad)
    n = _enumerated_prefix(owner, quad)
    n_lo = min((n + 1) // 2, chunk_bits)
    n_hi = n - n_lo
    hi, lo = slice(0, n_hi), slice(n_hi, n)
    upper = np.triu(quad)

    def half_energy(bits: np.ndarray, half: slice) -> np.ndarray:
        return bits @ lin[half] + ((bits @ upper[half, half]) * bits).sum(axis=1)

    # E(h, l) = [h | 1 | E_hi(h)] @ [Q_hl l ; E_lo(l) + offset ; 1]
    lo_bits = _bits_of(np.arange(1 << n_lo), n_lo)
    right = np.vstack(
        [quad[hi, lo] @ lo_bits.T, half_energy(lo_bits, lo) + offset, np.ones(1 << n_lo)]
    )
    # A trailing group with t set bits adds lin*t + pair*t(t-1)/2 + t*(c @ x),
    # and c @ x separates into h @ c_hi + l @ c_lo.  Keep t >= 1 per row;
    # t = 0 adds nothing.
    tails = []
    for members in (np.flatnonzero(owner == first) for first in np.unique(owner[n:])):
        t = np.arange(1, len(members) + 1, dtype=np.float64)[:, None]
        pair = quad[members[0], members[1]] if len(members) > 1 else 0.0
        c = quad[members[0]]
        lo_terms = lin[members[0]] * t + pair * t * (t - 1) / 2.0 + t * (lo_bits @ c[lo])
        tails.append((members, t, c[hi], lo_terms))

    rows = 1 << min(chunk_bits - n_lo, n_hi)
    term = np.empty((rows, 1 << n_lo))
    least = np.empty_like(term)
    best_energy, best_index = math.inf, -1
    for h0 in range(0, 1 << n_hi, rows):
        hi_bits = _bits_of(np.arange(h0, h0 + rows), n_hi)
        left = np.column_stack([hi_bits, np.ones(rows), half_energy(hi_bits, hi)])
        energies = left @ right
        for _, t, c_hi, lo_terms in tails:
            hi_terms = t * (hi_bits @ c_hi)
            least.fill(0.0)
            for hi_t, lo_t in zip(hi_terms, lo_terms):
                np.add(hi_t[:, None], lo_t, out=term)
                np.minimum(least, term, out=least)
            energies += least
        pos = int(energies.argmin())
        if energies.flat[pos] < best_energy:
            best_energy = float(energies.flat[pos])
            best_index = (h0 << n_lo) + pos

    bits = np.zeros(m, dtype=np.int64)
    bits[:n] = _bits_of(np.array([best_index]), n)[0]
    for members, t, c_hi, lo_terms in tails:
        terms = t[:, 0] * (bits[hi] @ c_hi) + lo_terms[:, best_index % (1 << n_lo)]
        count = int(np.argmin(np.concatenate([[0.0], terms])))
        bits[members[len(members) - count :]] = 1  # highest-index members first
    solution = "".join("1" if b else "0" for b in bits)
    return solution, energy(model, solution)


@dataclass(frozen=True)
class Violation:
    """One way an assignment fails to be a valid set of routes."""

    kind: str
    vehicle: int | None = None
    node: int | None = None
    detail: str = ""


@dataclass
class RouteDecoding:
    """Routes reconstructed from an assignment, plus everything wrong with it."""

    routes: list[list[int]]
    violations: list[Violation]
    total_cost: int

    @property
    def is_valid(self) -> bool:
        return not self.violations


def decode_routes(model: QuboModel, assignment: str, inst: CvrpInstance) -> RouteDecoding:
    """Turn an assignment into one route per vehicle.

    Each route is the walk that starts at the depot and follows set arcs.
    Violations name the broken rule and where it broke: customers left a
    number of times other than once, missing depot departures or returns,
    per-vehicle in/out imbalances, capacity excess, and set arcs forming
    loops that avoid the depot.  The cost sums every set arc, whether or
    not it made it into a walk.
    """
    bits = _check_assignment(model, assignment)
    vmap = model.var_map
    if vmap is None:
        raise ValueError("this model carries no variable map; decode needs one")
    nodes, k = vmap.nodes, vmap.vehicles

    arcs: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for flat in range(vmap.num_route_vars):
        if bits[flat]:
            var = vmap.route_var(flat)
            arcs[var.v].append((var.i, var.j))

    total_cost = 0
    violations: list[Violation] = []
    routes: list[list[int]] = []

    out_deg = [[0] * nodes for _ in range(k)]
    in_deg = [[0] * nodes for _ in range(k)]
    for v in range(k):
        for i, j in arcs[v]:
            out_deg[v][i] += 1
            in_deg[v][j] += 1
            total_cost += edge_weight(inst, i, j)

    for i in range(1, nodes):
        departures = sum(out_deg[v][i] for v in range(k))
        if departures != 1:
            violations.append(
                Violation(VISIT_COUNT, node=i, detail=f"left {departures} times, expected 1")
            )

    for v in range(k):
        if out_deg[v][0] != 1:
            violations.append(
                Violation(DEPOT_DEPARTURE, vehicle=v, detail=f"{out_deg[v][0]} departures")
            )
        if in_deg[v][0] != 1:
            violations.append(
                Violation(DEPOT_RETURN, vehicle=v, detail=f"{in_deg[v][0]} returns")
            )
        for i in range(1, nodes):
            if out_deg[v][i] != in_deg[v][i]:
                violations.append(
                    Violation(
                        FLOW_BALANCE,
                        vehicle=v,
                        node=i,
                        detail=f"in {in_deg[v][i]}, out {out_deg[v][i]}",
                    )
                )
        load = sum(inst.demands[i] * out_deg[v][i] for i in range(1, nodes))
        if load > inst.capacity:
            violations.append(
                Violation(CAPACITY, vehicle=v, detail=f"load {load} over capacity {inst.capacity}")
            )

        successors: dict[int, list[int]] = {}
        for i, j in arcs[v]:
            successors.setdefault(i, []).append(j)
        route = [0]
        used: set[tuple[int, int]] = set()
        here = 0
        while True:
            nexts = successors.get(here, [])
            if len(nexts) != 1:
                break
            step = (here, nexts[0])
            if step in used:
                break
            used.add(step)
            here = nexts[0]
            route.append(here)
            if here == 0:
                break
        routes.append(route)
        # Arcs the walk never reached form a subtour only if they close a
        # cycle that avoids the depot; dangling arcs are artifacts of degree
        # violations reported above.  Peel arcs that cannot lie on a cycle.
        loop_arcs = {(i, j) for i, j in set(arcs[v]) - used if i != 0 and j != 0}
        while loop_arcs:
            tails = {i for i, _ in loop_arcs}
            heads = {j for _, j in loop_arcs}
            peeled = {(i, j) for i, j in loop_arcs if j in tails and i in heads}
            if peeled == loop_arcs:
                break
            loop_arcs = peeled
        if loop_arcs:
            loop_nodes = sorted({i for i, _ in loop_arcs} | {j for _, j in loop_arcs})
            violations.append(
                Violation(
                    SUBTOUR,
                    vehicle=v,
                    detail=f"closed arcs avoiding the depot over nodes {loop_nodes}",
                )
            )

    return RouteDecoding(routes=routes, violations=violations, total_cost=total_cost)


def _format_number(value: Number) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def export_model(model: QuboModel) -> str:
    """Serialize a model to text.

    Header ``QUBO <num_vars> <offset> <penalty>``, then one ``L <index>
    <coeff>`` line per linear term and one ``Q <i> <j> <coeff>`` line per
    quadratic term, in index order.
    """
    lines = [f"QUBO {model.num_vars} {_format_number(model.offset)} {_format_number(model.penalty)}"]
    for a in sorted(model.linear):
        if model.linear[a] != 0:
            lines.append(f"L {a} {_format_number(model.linear[a])}")
    for a, b in sorted(model.quadratic):
        if model.quadratic[(a, b)] != 0:
            lines.append(f"Q {a} {b} {_format_number(model.quadratic[(a, b)])}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"model line {lineno}: {what} {token!r} is not an integer") from None


def _parse_number(token: str, lineno: int) -> Number:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"model line {lineno}: {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"model line {lineno}: {token!r} is not a finite number")
    return value


def parse_model(text: str) -> QuboModel:
    """Read a model back from the text format of :func:`export_model`.

    The result has no variable map, so it can be evaluated and solved but
    not decoded into routes.
    """
    lines = enumerate(text.splitlines(), start=1)
    head_no, head = next(((no, ln.split()) for no, ln in lines if ln.split()), (1, []))
    if not head or not head[0].startswith("QUBO"):
        raise ValueError("model text must start with a 'QUBO' header line")
    if len(head) != 4:
        raise ValueError("the header is 'QUBO <num_vars> <offset> <penalty>'")
    num_vars = _parse_int(head[1], head_no, "num_vars")
    if num_vars < 1:
        raise ValueError("num_vars must be positive")
    offset = _parse_number(head[2], head_no)
    penalty = _parse_number(head[3], head_no)
    if not penalty > 0:
        raise ValueError(f"model line {head_no}: penalty must be positive")
    linear: dict[int, Number] = {}
    quadratic: dict[tuple[int, int], Number] = {}
    for lineno, line in lines:  # the rest of the text, numbered as in the file
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "L" and len(parts) == 3:
            try:
                a = int(parts[1])
            except ValueError:
                a = _parse_int(parts[1], lineno, "index")  # raises, naming the line
            if not 0 <= a < num_vars:
                raise ValueError(f"model line {lineno}: index {a} out of range")
            linear[a] = linear.get(a, 0) + _parse_number(parts[2], lineno)
        elif parts[0] == "Q" and len(parts) == 4:
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:  # _parse_int raises, naming the line and the token
                a, b = (_parse_int(tok, lineno, "index") for tok in parts[1:3])
            if a == b or not (0 <= a < num_vars and 0 <= b < num_vars):
                raise ValueError(f"model line {lineno}: bad index pair ({a}, {b})")
            key = (a, b) if a < b else (b, a)
            quadratic[key] = quadratic.get(key, 0) + _parse_number(parts[3], lineno)
        else:
            raise ValueError(f"model line {lineno}: expected 'L i c' or 'Q i j c'")
    return QuboModel(
        num_vars=num_vars,
        linear=linear,
        quadratic=quadratic,
        offset=offset,
        penalty=penalty,
        var_map=None,
    )
