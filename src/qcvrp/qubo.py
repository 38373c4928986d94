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
import operator
from collections.abc import Collection, Mapping
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import LengthMismatch, TooLarge
from .instances import CvrpInstance, max_edge_weight, weight_matrix
from .value import _format_number

AUTO = "auto"

_DENSE_VARS = 1024
_WORK_BITS = 30
_CHUNK_BITS = 18

VISIT_COUNT = "visit-count"
DEPOT_DEPARTURE = "depot-departure"
DEPOT_RETURN = "depot-return"
FLOW_BALANCE = "flow-balance"
CAPACITY = "capacity"
SUBTOUR = "subtour"


@dataclass(frozen=True)
class VariableMap:
    """The flat bit layout of an instance's model.

    Route variables come first, ordered by vehicle, then tail node, then
    head node, skipping self-loops; :attr:`arcs` states that numbering.
    The slack registers follow, one block per vehicle.
    """

    nodes: int
    vehicles: int
    capacity: int

    @property
    def num_route_vars(self) -> int:
        return self.vehicles * self.nodes * (self.nodes - 1)

    @property
    def num_vars(self) -> int:
        return self.num_route_vars + self.vehicles * self.capacity

    @property
    def arcs(self) -> np.ndarray:
        """A fresh ``(vehicles, nodes, nodes)`` int64 array: ``arcs[v, i, j]``
        is the flat index of ``x[v, i -> j]``, and the diagonal is -1."""
        import numpy as np
        k, n = self.vehicles, self.nodes
        arc = np.full((k, n, n), -1, dtype=np.int64)
        # the boolean mask walks (i, j) row by row, skipping the diagonal
        arc[:, ~np.eye(n, dtype=bool)] = np.arange(self.num_route_vars).reshape(k, -1)
        return arc


Number = Union[int, float]


class _Terms(Mapping):
    """One kind of a model's terms, read-only: index (linear) or index pair
    (quadratic) -> coefficient.

    The terms are key columns plus a value column of numpy arrays, which
    are never written.  ``len`` reads the array length; the first item read
    builds a dict from the arrays, which answers every later read.  Reads
    and ``==`` answer as that dict would; for dict-only methods such as
    ``copy`` or ``|``, take ``dict(terms)``.
    """

    def __init__(self, arrays: tuple[np.ndarray, ...]) -> None:
        self._arrays = arrays
        self._dict: dict | None = None

    def _items(self) -> dict:
        if self._dict is None:
            *columns, values = (a.tolist() for a in self._arrays)
            keys = columns[0] if len(columns) == 1 else zip(*columns)
            self._dict = dict(zip(keys, values))
        return self._dict

    def __len__(self) -> int:
        return len(self._arrays[-1])

    def __getitem__(self, key):
        return self._items()[key]

    def __iter__(self):
        return iter(self._items())

    def keys(self):
        return self._items().keys()

    def items(self):
        return self._items().items()

    def values(self):
        return self._items().values()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Terms):
            if _same_arrays(self._arrays, other._arrays):
                return True
            other = other._items()
        return self._items() == other

    def __repr__(self) -> str:
        return repr(self._items())


def _same_arrays(mine: tuple[np.ndarray, ...], theirs: tuple[np.ndarray, ...]) -> bool:
    """True if two term arrays hold equal keys in the same order and values
    that are equal in a dtype they share.  Values of different dtypes are
    not compared here: int64 ``2**53 + 1`` equals float64 ``2**53`` in numpy
    but not in Python, and object arrays compare without the identity check
    that dicts make."""
    import numpy as np
    return (
        len(mine) == len(theirs)
        and mine[-1].dtype == theirs[-1].dtype != object
        and all(np.array_equal(a, b) for a, b in zip(mine, theirs))
    )


@dataclass(frozen=True)
class QuboModel:
    """An explicit quadratic pseudo-Boolean model.

    ``linear`` maps flat indices to coefficients and ``quadratic`` maps
    index pairs ``(a, b)`` with ``a < b``; ``offset`` is the constant term
    and ``penalty`` the scale applied to every constraint.  Construction
    turns each term mapping into a read-only one backed by arrays, once,
    in the mapping's order, and checks the model once: ``ValueError``
    names the first key or value, or the variable count, that the text
    format cannot hold.  Models
    are frozen; ``dataclasses.replace(model, linear={**model.linear, 6: c})``
    makes a changed copy, and ``dict(model.linear)`` a plain dict.  Built
    models, and models read back from text that ``export_model`` wrote,
    list their terms in ascending index order, and a built model equals
    its read-back.
    """

    num_vars: int
    linear: Mapping[int, Number]
    quadratic: Mapping[tuple[int, int], Number]
    offset: Number
    penalty: Number

    def __post_init__(self) -> None:
        import numpy as np
        try:
            m = int(operator.index(self.num_vars))
        except TypeError:
            raise ValueError(f"num_vars {self.num_vars!r} is not an integer") from None
        if m < 1:
            raise ValueError("num_vars must be positive")
        object.__setattr__(self, "num_vars", m)
        for field, width, what in (("linear", 1, "linear index {}"), ("quadratic", 2, "quadratic index pair ({}, {})")):
            terms = getattr(self, field)
            converted = not isinstance(terms, _Terms)
            if converted:
                terms = _Terms(_kind_arrays(terms, width))
                object.__setattr__(self, field, terms)
            *keys, values = terms._arrays
            # numpy would read a negative index as one counted from the end
            if any(k.size and (k.min() < 0 or k.max() >= m) for k in keys):
                first = np.argmax(np.logical_or.reduce([(k < 0) | (k >= m) for k in keys]))
                raise ValueError(f"{what.format(*(k[first] for k in keys))} outside 0..{m - 1}")
            if converted and width == 2 and not (keys[0] < keys[1]).all():
                first = np.argmax(keys[0] >= keys[1])
                raise ValueError(f"{what.format(*(k[first] for k in keys))} is not ordered a < b")
            if not _all_finite(values):
                first, value = next((i, v) for i, v in enumerate(values.tolist()) if not _finite(v))
                raise ValueError(f"{what.format(*(k[first] for k in keys))}: {value!r} is not a finite number")
        for field in ("offset", "penalty"):
            value = getattr(self, field)
            value = value.item() if isinstance(value, np.generic) else value
            if not _finite(value):
                raise ValueError(f"{field} {value!r} is not a finite number")
            object.__setattr__(self, field, value)
        if not self.penalty > 0:
            raise ValueError("penalty must be positive")


def _auto_penalty(inst: CvrpInstance) -> int:
    # Twice the node count times the longest edge strictly dominates the
    # cost of any violation-free assignment at desk scale.  The floor of 1
    # keeps constraints alive when every edge has zero weight.
    return 2 * inst.dimension * max(1, max_edge_weight(inst))


def build_qubo(inst: CvrpInstance, penalty: Number | str = AUTO) -> QuboModel:
    """Assemble the penalty model for an instance.

    Variable count is ``vehicles * dimension * (dimension - 1)`` route bits
    plus ``vehicles * capacity`` slack bits.  ``penalty`` is a positive
    number, or ``"auto"``, which picks twice the node count times the
    longest edge; a float penalty must leave every coefficient a finite
    float.  Terms are listed in ascending index order.
    """
    import numpy as np
    if penalty == AUTO:
        scale: Number = _auto_penalty(inst)
    else:
        if not isinstance(penalty, (int, float)) or isinstance(penalty, bool):
            raise ValueError(f"penalty must be a number or 'auto', got {penalty!r}")
        if not penalty > 0:
            raise ValueError("penalty must be positive")
        if isinstance(penalty, float) and not math.isfinite(penalty):
            raise ValueError("penalty must be finite")
        scale = penalty

    nodes = inst.dimension
    k = inst.vehicles
    cap = inst.capacity
    vmap = VariableMap(nodes, k, cap)
    m = vmap.num_vars
    weights = weight_matrix(inst)
    off_diag = ~np.eye(nodes, dtype=bool)
    arc = vmap.arcs
    # Coefficients stay in int64 while no integer sum can reach 2**63, and
    # become Python ints otherwise.  An entry sums at most one objective
    # weight, one term of each square below and one pair rule; a float
    # penalty leaves only the products of the integer coefficients.
    biggest = max(1, cap, *inst.demands)
    int_scale = scale if isinstance(scale, int) else 1
    n_squares = nodes - 1 + k * (nodes + 2)
    wide = (n_squares + 2) * max(max_edge_weight(inst), 3 * int_scale * biggest * biggest) >= 2**63
    coeff_type = object if wide else np.int64
    load = np.repeat(np.array(inst.demands[1:], dtype=coeff_type), nodes - 1)
    # out_arcs[v, i] lists x[v, i -> j] and in_arcs[v, i] lists x[v, j -> i],
    # both over j != i ascending.
    out_arcs = arc[:, off_diag].reshape(k, nodes, nodes - 1)
    in_arcs = arc.transpose(0, 2, 1)[:, off_diag].reshape(k, nodes, nodes - 1)
    slack = vmap.num_route_vars + np.arange(k * cap).reshape(k, cap)

    # Squared penalties scale * (sum c_a * x_a + constant)**2, one family at
    # a time as (one row of indices per square, coefficients per column,
    # constant).  Only the visit-count squares, listed first, mix vehicles,
    # so every key's terms come in the order of the per-vehicle squares.
    families = [
        (out_arcs[:, 1:].transpose(1, 0, 2).reshape(nodes - 1, -1), 1, -1),
        (out_arcs[:, 0], 1, -1),
        (in_arcs[:, 0], 1, -1),
        (np.concatenate([out_arcs[:, 1:], in_arcs[:, 1:]], axis=2).reshape(k * (nodes - 1), -1),
         np.repeat([1, -1], nodes - 1), 0),
        (np.concatenate([out_arcs[:, 1:].reshape(k, -1)[:, load != 0], slack], axis=1),
         np.append(load[load != 0], [1] * cap), -cap),
    ]

    try:  # a float penalty can take a product or a sum past float range
        with np.errstate(over="raise", invalid="raise"):
            offset: Number = 0
            # the float sum adds the squares' constants vehicle by vehicle
            for constant in [-1] * (nodes - 1) + ([-1, -1] + [0] * (nodes - 1) + [-cap]) * k:
                offset += scale * constant * constant
            lin_keys = [out_arcs.ravel()]
            lin_vals = [np.tile(weights[off_diag], k).astype(coeff_type)]
            quad_keys, quad_vals = [], []
            for idx, coeffs, constant in families:
                rows, width = idx.shape
                c = np.broadcast_to(coeffs, width).astype(coeff_type)
                p, q = np.triu_indices(width, 1)
                a, b = idx[:, p], idx[:, q]
                lin_keys.append(idx.ravel())
                lin_vals.append(np.tile(scale * (c * c + 2 * constant * c), rows))
                quad_keys.append((np.minimum(a, b) * m + np.maximum(a, b)).ravel())
                quad_vals.append(np.tile(2 * scale * c[p] * c[q], rows))
            i, j = np.triu_indices(nodes - 1, 1)  # i < j, so x[v, i -> j] has the smaller index
            inner = arc[:, 1:, 1:]
            quad_keys.append((inner[:, i, j] * m + inner[:, j, i]).ravel())
            quad_vals.append(scale * np.ones(k * len(i), dtype=coeff_type))

            lin_at, lin_sum = _accumulate(lin_keys, lin_vals)
            quad_at, quad_sum = _accumulate(quad_keys, quad_vals)
    except FloatingPointError:
        offset = math.nan
    if not _finite(offset):
        raise ValueError(f"penalty {penalty!r} is too large: the model's terms would not be finite")
    return QuboModel(m, _Terms((lin_at, lin_sum)), _Terms((quad_at // m, quad_at % m, quad_sum)), offset, scale)


def _accumulate(keys: list[np.ndarray], values: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sum values per key into sorted keys, dropping zero sums.

    The stable sort keeps each key's values in the order given and
    ``np.add.at`` adds them in that order, so float sums follow the order
    of their terms.
    """
    import numpy as np
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate([[True], keys[1:] != keys[:-1]])
    values = np.concatenate(values)[order]
    sums = np.zeros(np.count_nonzero(first), dtype=values.dtype)
    np.add.at(sums, np.cumsum(first) - 1, values)
    nonzero = sums != 0
    return keys[first][nonzero], sums[nonzero]


def _index_codes(columns: tuple[np.ndarray, ...]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A table of index values and each column's positions in it, so that
    :func:`export_model` formats every index once: ``0..max``, or only the
    indices that occur when they are sparser than the terms."""
    import numpy as np
    size = max(int(c.max(initial=-1)) for c in columns) + 1
    if size <= sum(map(len, columns)):
        return np.arange(size), list(columns)
    table, codes = _distinct(np.concatenate(columns))
    return table, np.split(codes, np.cumsum([len(c) for c in columns[:-1]]))


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values, ascending, and each value's position among them."""
    import numpy as np
    ordered = np.sort(values)
    distinct = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
    return distinct, np.searchsorted(distinct, values)


def _kind_arrays(terms: Mapping, width: int) -> tuple[np.ndarray, ...]:
    """The ``width`` key columns and the value column of a term mapping, in
    its order, with numpy scalars read as the Python numbers they equal."""
    import numpy as np
    flat = [i for key in terms for i in _index_key(key, width)]
    try:
        flat = np.fromiter(flat, np.int64, len(flat))
    except OverflowError:  # an index past int64, so outside the model: kept exact to name it
        flat = np.array(flat, dtype=object)
    values = [v.item() if isinstance(v, np.generic) else v for v in terms.values()]
    return (*(flat[i::width] for i in range(width)), _coefficients(values))


def _index_key(key, width: int) -> tuple[int, ...]:
    """A term key as ``width`` ints; numpy integers are read as the ints they
    equal, and ``ValueError`` names any other key."""
    try:
        if width == 1:
            return (operator.index(key),)
        if isinstance(key, tuple) and len(key) == 2:
            return tuple(map(operator.index, key))
    except TypeError:
        pass
    what = "linear key {!r} is not an index" if width == 1 else "quadratic key {!r} is not an index pair"
    raise ValueError(what.format(key))


def _coefficients(values: Collection) -> np.ndarray:
    # int64 if every value is an int that fits, float64 if every one is a float, else the values
    import numpy as np
    types = set(map(type, values))
    dtype = np.float64 if types == {float} else np.int64 if types <= {int} else object
    try:
        return np.fromiter(values, dtype, len(values))
    except OverflowError:  # an int past int64
        return np.fromiter(values, object, len(values))


def _finite(value: object) -> bool:
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


def _all_finite(values: np.ndarray) -> bool:
    """True if every coefficient is an int or a finite float; a float64
    column is read through its bounds, which nan and inf reach."""
    if values.dtype.kind == "f":
        return math.isfinite(values.min(initial=0)) and math.isfinite(values.max(initial=0))
    return values.dtype.kind == "i" or all(map(_finite, values.tolist()))


def _check_assignment(model: QuboModel, assignment: str) -> None:
    """Raise unless ``assignment`` holds one '0' or '1' per model variable."""
    if len(assignment) != model.num_vars:
        raise LengthMismatch(f"assignment has {len(assignment)} bits, model has {model.num_vars} variables")
    if set(assignment) - {"0", "1"}:
        raise ValueError("assignment must be a string over '0' and '1'")


def energy(model: QuboModel, assignment: str) -> Number:
    """Evaluate the model on a bitstring (index 0 is the leftmost bit).

    The offset, the linear terms, then the quadratic terms are added one at
    a time in listed order.
    """
    import numpy as np
    _check_assignment(model, assignment)
    (lin_idx, lin_val), (q_a, q_b, q_val) = model.linear._arrays, model.quadratic._arrays
    bits = np.frombuffer(assignment.encode(), dtype=np.uint8) == ord("1")
    total = model.offset
    for chosen in (lin_val[bits[lin_idx]], q_val[bits[q_a] & bits[q_b]]):
        bound = max(-int(chosen.min(initial=0)), int(chosen.max(initial=0))) if chosen.dtype.kind == "i" else 2**63
        if type(total) is int and bound * len(chosen) < 2**63:  # no int64 partial sum can wrap
            total += int(chosen.sum())
        else:  # one at a time, as the built-in sum() compensates floats from Python 3.12
            for value in chosen.tolist():
                total += value
    return total


def count_terms(model: QuboModel) -> tuple[int, int]:
    """Number of nonzero linear and quadratic coefficients."""
    return (int((model.linear._arrays[-1] != 0).sum()), int((model.quadratic._arrays[-1] != 0).sum()))


def _dense(model: QuboModel) -> tuple[np.ndarray, np.ndarray, float]:
    """Linear vector, symmetric zero-diagonal coupling matrix and offset, as
    floats; ``ValueError`` if a value or a sum is not finite as a float,
    such as an int beyond float range or ``1e308 + 1e308``."""
    import numpy as np
    (lin_idx, lin_val), (q_a, q_b, q_val) = model.linear._arrays, model.quadratic._arrays
    m = model.num_vars
    try:
        offset = float(model.offset)
        lin_val, q_val = lin_val.astype(np.float64), q_val.astype(np.float64)
    except OverflowError:
        raise ValueError("model coefficients and offset must be finite") from None
    lin = np.zeros(m)
    lin[lin_idx] = lin_val  # keys are distinct and pairs have a < b: each entry is set once
    quad = np.zeros((m, m))
    quad[q_a, q_b] = quad[q_b, q_a] = q_val
    # A finite sum of magnitudes also bounds every partial sum below.
    with np.errstate(over="ignore"):
        magnitude = abs(offset) + np.abs(lin).sum() + np.abs(quad).sum()
    if not math.isfinite(magnitude):
        raise ValueError("model coefficients and offset must be finite")
    return lin, quad, offset


def _reduced_tail(lin: np.ndarray, quad: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """The enumerated prefix length ``n`` and the groups of bits ``n..``.

    Variables are interchangeable when their linear terms are equal and they
    couple identically to every other variable: an equivalence, with one
    common coupling inside each group.  Walking back from the last bit, a
    bit's group is found when the walk first meets it, and the walk stops
    at the first bit coupled to a later bit of another group; ``n`` is the
    lowest boundary reached that no tail group straddles.  The tail groups
    (members ascending, listed by first member) are minimized over their
    count of set bits and the bits before them enumerated, so lexicographic
    order is preserved.
    """
    import numpy as np
    group = np.full(len(lin), -1)
    groups: list[np.ndarray] = []
    n = low = len(lin)
    for s in range(len(lin) - 1, -1, -1):
        if group[s] < 0:
            cand = np.flatnonzero(lin == lin[s])
            same = quad[cand] == quad[s]
            same[:, s] = True
            same[np.arange(len(cand)), cand] = True
            members = cand[same.all(axis=1)]
            group[members] = len(groups)
            groups.append(members)
            low = min(low, members[0])
        if quad[s, s + 1 :][group[s + 1 :] != group[s]].any():
            break
        if low == s:
            n = s
    return n, sorted((g for g in groups if g[0] >= n), key=lambda g: g[0])


def _check_dense_bound(num_vars: int) -> None:
    """Raise ``TooLarge`` past the solver's ``_DENSE_VARS`` variables."""
    if num_vars > _DENSE_VARS:
        raise TooLarge(f"{num_vars} variables exceed the dense bound of {_DENSE_VARS}")


def _bits_of(indices: np.ndarray, width: int) -> np.ndarray:
    import numpy as np
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.float64)


def brute_force_solve(model: QuboModel) -> tuple[str, Number]:
    """Exact global minimum of the model.

    Trailing groups of interchangeable variables (the slack registers of
    ``build_qubo`` models) are read off the coefficients by
    :func:`_reduced_tail`, so a model parsed from text solves as fast as a
    built one, and minimized analytically over their count of set bits.
    The remaining bits split into a high and a low half, and every (high,
    low) pair is evaluated, ``2**_CHUNK_BITS`` pairs per numpy block.  Ties
    go to the lexicographically smallest bitstring, independent of
    chunking.  Raises ``TooLarge`` beyond ``_DENSE_VARS`` variables, or when
    ``n`` enumerated and ``r`` reduced bits cost ``2**n * (1 + r)`` beyond
    ``2**_WORK_BITS``; raises ``ValueError`` when the float matrices cannot
    hold the model: an int beyond float range, or a float sum past it.  The
    float64 ranking is exact while the absolute coefficients and offset sum
    below ``2**53``; past that a non-minimal bitstring can come first,
    returned with its exact :func:`energy`.
    """
    import numpy as np
    m = model.num_vars
    _check_dense_bound(m)
    lin, quad, offset = _dense(model)
    n, groups = _reduced_tail(lin, quad)
    if (1 + m - n) << n > 1 << _WORK_BITS:
        raise TooLarge(f"enumeration work 2**{n} * (1 + {m - n}) exceeds the bound of 2**{_WORK_BITS}")
    n_lo = min((n + 1) // 2, _CHUNK_BITS)
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
    for members in groups:
        t = np.arange(1, len(members) + 1, dtype=np.float64)[:, None]
        pair = quad[members[0], members[1]] if len(members) > 1 else 0.0
        c = quad[members[0]]
        lo_terms = lin[members[0]] * t + pair * t * (t - 1) / 2.0 + t * (lo_bits @ c[lo])
        tails.append((members, t, c[hi], lo_terms))

    rows = 1 << min(_CHUNK_BITS - n_lo, n_hi)
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

    The set route bits are read through :attr:`VariableMap.arcs` as one
    boolean array ``chosen[v, i, j]``, whose row and column sums are the
    out- and in-degrees.  Each route is the walk that starts at the depot
    and follows set arcs.  Violations name the broken rule and where it
    broke: customers left a number of times other than once, missing depot
    departures or returns, per-vehicle in/out imbalances, capacity excess,
    and set arcs forming loops that avoid the depot.  The cost sums every
    set arc, whether or not it made it into a walk, in exact ints from
    :func:`weight_matrix`, which prices the arcs of :func:`build_qubo` too.
    A model of another size than the instance's layout raises ``ValueError``.
    """
    import numpy as np
    vmap = VariableMap(inst.dimension, inst.vehicles, inst.capacity)
    if model.num_vars != vmap.num_vars:
        raise ValueError(f"the model has {model.num_vars} variables, the instance's layout {vmap.num_vars}")
    _check_assignment(model, assignment)
    nodes, k = vmap.nodes, vmap.vehicles

    arc = vmap.arcs
    bits = np.frombuffer(assignment.encode(), dtype=np.uint8) == ord("1")
    chosen = (arc >= 0) & bits[arc]
    _, tail, head = np.nonzero(chosen)  # in flat bit order
    total_cost = sum(weight_matrix(inst)[tail, head].tolist())
    out_deg, in_deg = chosen.sum(axis=2).tolist(), chosen.sum(axis=1).tolist()

    # Each walk follows a node's one set arc out, clearing it from ``loops``;
    # it stops at a node with no or several arcs out, at a cleared arc, or
    # back at the depot.
    successor = chosen.argmax(axis=2).tolist()
    loops = chosen.copy()
    routes: list[list[int]] = []
    for v in range(k):
        here, route = 0, [0]
        while out_deg[v][here] == 1 and loops[v, here, successor[v][here]]:
            loops[v, here, successor[v][here]] = False
            here = successor[v][here]
            route.append(here)
            if here == 0:
                break
        routes.append(route)
    # Arcs no walk took form a subtour only if they close a cycle that
    # avoids the depot; dangling arcs are artifacts of degree violations.
    # Peel arcs whose tail has no arc in or whose head has no arc out, until
    # none is left to peel.
    loops[:, 0, :] = loops[:, :, 0] = False
    while True:
        keep = loops & loops.any(axis=1)[:, :, None] & loops.any(axis=2)[:, None, :]
        if np.array_equal(keep, loops):
            break
        loops = keep
    on_loop = (loops.any(axis=1) | loops.any(axis=2)).tolist()

    violations: list[Violation] = []
    for i in range(1, nodes):
        departures = sum(out_deg[v][i] for v in range(k))
        if departures != 1:
            violations.append(Violation(VISIT_COUNT, node=i, detail=f"left {departures} times, expected 1"))

    for v in range(k):
        if out_deg[v][0] != 1:
            violations.append(Violation(DEPOT_DEPARTURE, vehicle=v, detail=f"{out_deg[v][0]} departures"))
        if in_deg[v][0] != 1:
            violations.append(Violation(DEPOT_RETURN, vehicle=v, detail=f"{in_deg[v][0]} returns"))
        for i in range(1, nodes):
            if out_deg[v][i] != in_deg[v][i]:
                violations.append(
                    Violation(FLOW_BALANCE, vehicle=v, node=i, detail=f"in {in_deg[v][i]}, out {out_deg[v][i]}")
                )
        load = sum(inst.demands[i] * out_deg[v][i] for i in range(1, nodes))
        if load > inst.capacity:
            violations.append(
                Violation(CAPACITY, vehicle=v, detail=f"load {load} over capacity {inst.capacity}")
            )
        loop_nodes = [i for i, on in enumerate(on_loop[v]) if on]
        if loop_nodes:
            violations.append(
                Violation(SUBTOUR, vehicle=v, detail=f"closed arcs avoiding the depot over nodes {loop_nodes}")
            )

    return RouteDecoding(routes=routes, violations=violations, total_cost=total_cost)


@dataclass(frozen=True)
class InstanceSolution:
    """An instance's penalty model, its exact optimum and that optimum's routes."""

    model: QuboModel
    assignment: str
    energy: Number
    decoding: RouteDecoding


def solve_instance(inst: CvrpInstance, penalty: Number | str = AUTO) -> InstanceSolution:
    """Build, exactly solve and decode an instance's penalty model.

    The variable count of the instance's layout is checked against the
    solver's dense bound first, so an instance past it raises ``TooLarge``
    before any term is built; ``penalty`` is read as :func:`build_qubo`
    reads it, and the optimum is :func:`brute_force_solve`'s.
    """
    _check_dense_bound(VariableMap(inst.dimension, inst.vehicles, inst.capacity).num_vars)
    model = build_qubo(inst, penalty)
    assignment, best = brute_force_solve(model)
    return InstanceSolution(model, assignment, best, decode_routes(model, assignment, inst))


def export_model(model: QuboModel) -> str:
    """Serialize a model to text.

    Header ``QUBO <num_vars> <offset> <penalty>``, then the :func:`_body`
    of the nonzero terms in index order: one ``L <index> <coeff>`` line per
    linear term and one ``Q <i> <j> <coeff>`` line per quadratic term.
    """
    import numpy as np
    (lin_idx, lin_val), (q_a, q_b, q_val) = model.linear._arrays, model.quadratic._arrays
    lin = np.flatnonzero(lin_val != 0)
    if not (np.diff(lin_idx[lin]) > 0).all():
        lin = lin[np.argsort(lin_idx[lin], kind="stable")]
    pairs = np.flatnonzero(q_val != 0)
    step_a, step_b = np.diff(q_a[pairs]), np.diff(q_b[pairs])
    if not ((step_a > 0) | (step_a == 0) & (step_b > 0)).all():
        pairs = pairs[np.lexsort((q_b[pairs], q_a[pairs]))]
    head = f"QUBO {model.num_vars} {_format_number(model.offset)} {_format_number(model.penalty)}\n"
    return head + _body(lin_idx[lin], lin_val[lin], q_a[pairs], q_b[pairs], q_val[pairs]).decode()


def _body(lin_idx: np.ndarray, lin_val: np.ndarray, q_a: np.ndarray, q_b: np.ndarray, q_val: np.ndarray) -> bytes:
    """The term lines of a model text, the one statement of their layout:
    ``L <index> <coeff>\\n`` per linear term, then ``Q <i> <j> <coeff>\\n``
    per quadratic term, in the order given, single spaces, numbers as
    :func:`_format_number` writes them.  Each distinct index and int64 or
    float64 coefficient is formatted once, with its separator, and each line
    is one record whose NUL padding ``bytes.translate`` drops."""
    table, (lin_codes, a_codes, b_codes) = _index_codes((lin_idx, q_a, q_b))
    names = _texts(table, b" ")[0]
    lin_lines = _lines(b"L ", [(names, lin_codes), _texts(lin_val, b"\n")])
    return lin_lines + _lines(b"Q ", [(names, a_codes), (names, b_codes), _texts(q_val, b"\n")])


def _texts(values: np.ndarray, end: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The ``_format_number`` text of each distinct value followed by ``end``,
    as NUL-padded byte strings, and each value's position among them.  Object
    arrays (wide ints, mixed or bool values) are formatted value by value."""
    import numpy as np
    distinct, codes = (values, np.arange(len(values))) if values.dtype == object else _distinct(values)
    return np.array([_format_number(v).encode() + end for v in distinct.tolist()], dtype=bytes), codes


def _lines(head: bytes, columns: list[tuple[np.ndarray, np.ndarray]]) -> bytes:
    """One line per row: ``head``, then each column's text at the row's code,
    as records NUL-padded to each column's widest text (rows x record bytes)."""
    import numpy as np
    record = np.empty(len(columns[0][1]), dtype=",".join([f"S{len(head)}"] + [t.dtype.str for t, _ in columns]))
    record["f0"] = head
    for field, (texts, codes) in enumerate(columns, start=1):
        record[f"f{field}"] = texts[codes]
    return record.tobytes().translate(None, b"\0")


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


_HEADS_TO_SPACES = bytes.maketrans(b"LQ", b"  ")


def _canonical_terms(body: str, num_vars: int) -> tuple[np.ndarray, ...] | None:
    """Terms of a model body that :func:`export_model` writes from int64
    columns, as ``(lin_idx, lin_val, q_a, q_b, q_val)``; None for any other
    text, which the line parser then reads.

    One translate spaces the ``L`` and ``Q`` heads for one ``np.fromstring``,
    and the newlines before the first ``Q`` count the ``L`` lines.  The keys
    must be distinct, ascending and in range, and :func:`_body` must write
    the terms back as exactly ``body``: then every token is ``str`` of its
    int64 value, and the line parser would read the same terms in the same
    order.  An integer past int64 saturates and fails that comparison.
    """
    import numpy as np
    if not body.isascii():
        return None
    raw = body.encode()
    first_q = raw.find(b"Q")
    n_lin = raw.count(b"\n", 0, len(raw) if first_q < 0 else first_q)
    try:
        values = np.fromstring(raw.translate(_HEADS_TO_SPACES), dtype=np.int64, sep=" ")
        lin = values[: 2 * n_lin].reshape(-1, 2)
        quad = values[2 * n_lin :].reshape(-1, 3)
    # numpy 2 raises on a token it cannot read; numpy 1 warns, which the
    # test settings turn into an error, and otherwise returns a partial read
    except (ValueError, DeprecationWarning):
        return None
    rows, cols = quad[:, 0], quad[:, 1]
    if not (
        (np.diff(lin[:, 0]) > 0).all()
        and (rows < cols).all()
        and (np.diff(rows) >= 0).all()
        and (np.diff(cols)[np.diff(rows) == 0] > 0).all()
        and min(lin[:, 0].min(initial=0), rows.min(initial=0)) >= 0
        and int(max(lin[:, 0].max(initial=0), cols.max(initial=0))) < num_vars
    ):
        return None
    terms = lin[:, 0], lin[:, 1], rows, cols, quad[:, 2]
    return terms if _body(*terms) == raw else None


def _parse_lines(lines: Iterator[tuple[int, str]], num_vars: int) -> tuple[dict, dict]:
    """Terms from numbered body lines, in any order and spacing; repeats add up."""
    linear: dict[int, Number] = {}
    quadratic: dict[tuple[int, int], Number] = {}
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "L" and len(parts) == 3:
            a = _parse_int(parts[1], lineno, "index")
            if not 0 <= a < num_vars:
                raise ValueError(f"model line {lineno}: index {a} out of range")
            linear[a] = linear.get(a, 0) + _parse_number(parts[2], lineno)
        elif parts[0] == "Q" and len(parts) == 4:
            a, b = (_parse_int(tok, lineno, "index") for tok in parts[1:3])
            if a == b or not (0 <= a < num_vars and 0 <= b < num_vars):
                raise ValueError(f"model line {lineno}: bad index pair ({a}, {b})")
            key = (a, b) if a < b else (b, a)
            quadratic[key] = quadratic.get(key, 0) + _parse_number(parts[3], lineno)
        else:
            raise ValueError(f"model line {lineno}: expected 'L i c' or 'Q i j c'")
    return linear, quadratic


def parse_model(text: str) -> QuboModel:
    """Read a model back from the text format of :func:`export_model`.

    A body that the writer gives back byte for byte from int64 terms is
    read in numpy blocks (:func:`_canonical_terms`), any other body line
    by line.  Any other spacing, blank lines, term order or repeated terms
    (which add up) are accepted too; the terms are listed in the order of
    the text, so a model written by :func:`export_model` reads back in
    ascending index order.  A read-back model evaluates, solves and
    decodes like the model that was written.
    """
    first, _, body = text.partition("\n")
    head_no, head, lines = 1, first.split(), None
    if not head or first.splitlines() != [first]:  # the header is not all of line 1
        lines = enumerate(text.splitlines(), start=1)
        head_no, head = next(((no, ln.split()) for no, ln in lines if ln.split()), (1, []))
    if not head or head[0] != "QUBO":
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
    arrays = _canonical_terms(body, num_vars) if lines is None else None
    if arrays is not None:
        return QuboModel(num_vars, _Terms(arrays[:2]), _Terms(arrays[2:]), offset, penalty)
    lines = enumerate(body.splitlines(), start=2) if lines is None else lines
    return QuboModel(num_vars, *_parse_lines(lines, num_vars), offset, penalty)
