#!/usr/bin/env python3
"""Build, exactly solve, and decode the penalty model of a toy instance.

Walks the full desk-scale pipeline: parse a two-vehicle, three-customer
instance, then one ``solve_instance`` call assembles its penalty model,
minimizes over every assignment and decodes the optimal bitstring back into
routes; the demo checks the energy against the plain route cost.  Also shows what a constraint violation looks like by
decoding a deliberately broken assignment.
"""

from __future__ import annotations

from qcvrp import (
    count_terms,
    decode_routes,
    energy,
    export_model,
    parse_instance,
    solve_instance,
)

TOY = """NAME : corner-k2
TYPE : CVRP
DIMENSION : 4
CAPACITY : 2
VEHICLES : 2
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 4 0
3 4 3
4 0 3
DEMAND_SECTION
1 0
2 1
3 1
4 2
DEPOT_SECTION
1
-1
EOF
"""


def main() -> None:
    inst = parse_instance(TOY)
    print(f"instance {inst.name}: {inst.customers} customers, "
          f"{inst.vehicles} vehicles, capacity {inst.capacity}")

    solution = solve_instance(inst)
    model = solution.model
    n_lin, n_quad = count_terms(model)
    print(f"penalty model: {model.num_vars} binary variables, "
          f"{n_lin} linear + {n_quad} quadratic terms, penalty weight {model.penalty}")
    print(f"export preview: {export_model(model).splitlines()[0]!r}")
    print()

    best, decoding = solution.energy, solution.decoding
    print(f"optimal assignment: {solution.assignment}")
    print(f"optimal energy:     {best}")
    print(f"decoded route cost: {decoding.total_cost}")
    for v, route in enumerate(decoding.routes):
        load = sum(inst.demands[node] for node in route)
        print(f"  vehicle {v}: {'-'.join(str(n) for n in route)} (load {load})")
    assert not decoding.violations
    assert best == decoding.total_cost
    print("energy equals route cost: every constraint penalty is zero")
    print()

    broken = "0" * model.num_vars
    verdict = decode_routes(model, broken, inst)
    print(f"all-zero assignment decodes with {len(verdict.violations)} violations:")
    for violation in verdict.violations:
        print(f"  {violation.kind}: {violation.detail}")
    print(f"and pays for them: energy {energy(model, broken)} vs optimum {best}")


if __name__ == "__main__":
    main()
