"""The benchmark's four workloads: seeded inputs, the op each one runs, and
the check that every op's output must pass.

Each workload is a closed loop with one caller: it issues one op, waits for
it, checks it, and issues the next.  A pass runs every op of the batch once
(plus, for ``estimate-report``, a fixed list of report steps).  The batch's
sizes are fixed per workload; the seed draws coordinates, demands, weights
and assignments, so different seeds cost the same to run.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from qcvrp import (
    EncodingKind,
    brute_force_solve,
    build_qubo,
    bundled_gap_csv,
    bundled_params,
    classify,
    count_terms,
    decode_routes,
    default_profiles,
    diagram_points,
    energy,
    estimate_instance,
    export_model,
    feasibility_diagram,
    gap_records_from_csv,
    get_profile,
    parse_instance,
    parse_model,
    render_gap_table,
    render_resource_table,
)
from qcvrp.cli import cli_main
from qcvrp.report import InstanceParams

import oracle
from tracing import Tracer

GOLDEN = Path(__file__).resolve().parent / "golden"


class WrongAnswer(Exception):
    """An op returned, but its output failed the benchmark's check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


@dataclass
class Op:
    """One unit of work: ``run`` calls the package, ``check`` verifies what
    it returned.  ``space`` is the number of assignments (2**num_vars) whose
    optimum a solve in this op certifies, or 0."""

    label: str
    run: Callable[[Tracer], Any]
    check: Callable[[Tracer, Any], None]
    space: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    steps: list[Op] = field(default_factory=list)  # once per pass, outside op latency


# --- input generation -------------------------------------------------------


@dataclass
class Family:
    """A small EUC_2D instance that is solvable by construction, with one
    valid set of routes already known."""

    text: str
    coords: list[tuple[int, int]]
    demands: list[int]
    vehicles: int
    capacity: int
    routes: list[list[int]]

    @property
    def nodes(self) -> int:
        return len(self.coords)

    @property
    def num_vars(self) -> int:
        return self.vehicles * self.nodes * (self.nodes - 1) + self.vehicles * self.capacity


def instance_text(
    name: str,
    capacity: int,
    vehicles: int,
    demands: list[int],
    coords: list[tuple[int, int]] | None = None,
    matrix: list[list[int]] | None = None,
) -> str:
    kind = "EUC_2D" if coords is not None else "EXPLICIT"
    lines = [
        f"NAME : {name}",
        "TYPE : CVRP",
        f"DIMENSION : {len(demands)}",
        f"CAPACITY : {capacity}",
        f"VEHICLES : {vehicles}",
        f"EDGE_WEIGHT_TYPE : {kind}",
    ]
    if coords is not None:
        lines.append("NODE_COORD_SECTION")
        lines += [f"{i} {x} {y}" for i, (x, y) in enumerate(coords, start=1)]
    else:
        lines.append("EDGE_WEIGHT_FORMAT : FULL_MATRIX")
    lines.append("DEMAND_SECTION")
    lines += [f"{i} {q}" for i, q in enumerate(demands, start=1)]
    if matrix is not None:
        lines.append("EDGE_WEIGHT_SECTION")
        lines += [" ".join(map(str, row)) for row in matrix]
    lines += ["DEPOT_SECTION", "1", "-1", "EOF"]
    return "\n".join(lines) + "\n"


def family(rng: random.Random, customers: int, vehicles: int, capacity: int, min_demand: int = 0) -> Family:
    """Distinct grid points on 0..20 x 0..20, so every edge weighs at least
    1; shuffled customers dealt round-robin to the vehicles; each group's
    demands (``min_demand``..capacity) redrawn until they fit the capacity,
    so its route is valid."""
    grid = [(x, y) for x in range(21) for y in range(21)]
    coords = rng.sample(grid, customers + 1)
    order = list(range(1, customers + 1))
    rng.shuffle(order)
    groups = [order[v::vehicles] for v in range(vehicles)]
    demands = [0] * (customers + 1)
    for group in groups:
        while True:
            trial = [rng.randint(min_demand, capacity) for _ in group]
            if sum(trial) <= capacity:
                break
        for node, q in zip(group, trial):
            demands[node] = q
    name = f"fam-n{customers}-k{vehicles}-c{capacity}"
    text = instance_text(name, capacity, vehicles, demands, coords=coords)
    routes = [[0, *group, 0] for group in groups]
    return Family(text, coords, demands, vehicles, capacity, routes)


# --- solve-built ------------------------------------------------------------


def solve_built(rng: random.Random, smoke: bool) -> Workload:
    """Instance text -> parse -> build -> exact solve -> decode, checked
    against an exhaustive route search over the instance itself."""
    sizes = [(2, 2, 1), (2, 2, 2)] if smoke else [(3, 2, 1), (3, 2, 3)]
    ops = []
    for n, k, cap in sizes:
        fam = family(rng, n, k, cap)
        best = oracle.best_routes_cost(oracle.euc_matrix(fam.coords), fam.demands, k, cap)
        if best is None:
            raise RuntimeError(f"generated instance n={n} k={k} C={cap} has no valid routes")

        def run(tr: Tracer, fam: Family = fam) -> Any:
            tr.count("instances.parse_instance.bytes", len(fam.text))
            inst = tr.call("instances.parse_instance", parse_instance, fam.text)
            model = tr.call("qubo.build_qubo", build_qubo, inst)
            tr.count("qubo.build_qubo.vars", model.num_vars)
            tr.count("qubo.build_qubo.quad_terms", len(model.quadratic))
            bits, value = tr.call("qubo.brute_force_solve", brute_force_solve, model)
            decoding = tr.call("qubo.decode_routes", decode_routes, model, bits, inst)
            tr.count("qubo.decode_routes.valid", decoding.is_valid)
            return model, bits, value, decoding

        def check(tr: Tracer, out: Any, fam: Family = fam, best: int = best) -> None:
            model, bits, value, decoding = out
            expect(model.num_vars == fam.num_vars, f"{model.num_vars} variables, expected {fam.num_vars}")
            expect(len(bits) == fam.num_vars, "assignment length differs from the variable count")
            expect(not decoding.violations, f"optimum decodes with violations {decoding.violations}")
            expect(decoding.total_cost == best, f"route cost {decoding.total_cost}, route search says {best}")
            expect(value == best, f"energy {value}, route search says {best}")

        ops.append(Op(f"n{n}-k{k}-c{cap}", run, check, space=1 << fam.num_vars))
    return Workload("solve-built", ops)


# --- solve-exported ---------------------------------------------------------


EXPORTED_SIZES = [(3, 1, c) for c in range(6, 11)] + [(2, 2, c) for c in range(3, 6)]


def solve_exported(rng: random.Random, smoke: bool, sizes: list[tuple[int, int, int]] = EXPORTED_SIZES) -> Workload:
    """Exported model text -> parse_model -> exact solve, one op per
    (n, k, C) in ``sizes``.  The parsed model has no variable map, so the
    solver enumerates every bit."""
    if smoke:
        sizes = [(2, 1, 2), (2, 1, 3)]
    ops = []
    for n, k, cap in sizes:
        fam = family(rng, n, k, cap)
        built = build_qubo(parse_instance(fam.text))
        text = export_model(built)
        ref_bits, ref_value = brute_force_solve(built)
        best = oracle.best_routes_cost(oracle.euc_matrix(fam.coords), fam.demands, k, cap)

        def run(tr: Tracer, text: str = text) -> Any:
            tr.count("qubo.parse_model.bytes", len(text))
            model = tr.call("qubo.parse_model", parse_model, text)
            bits, value = tr.call("qubo.brute_force_solve", brute_force_solve, model)
            return model, bits, value

        def check(tr: Tracer, out: Any, ref_bits: str = ref_bits, ref_value: int = ref_value, best: int = best) -> None:
            model, bits, value = out
            expect(bits == ref_bits, f"assignment {bits}, direct solve gives {ref_bits}")
            expect(value == ref_value, f"energy {value}, direct solve gives {ref_value}")
            expect(value == best, f"energy {value}, route search says {best}")
            again = tr.call("qubo.energy", energy, model, bits)
            expect(again == value, f"energy() re-evaluates to {again}, solver said {value}")

        ops.append(Op(f"n{n}-k{k}-c{cap}", run, check, space=1 << fam.num_vars))
    return Workload("solve-exported", ops)


# --- estimate-report --------------------------------------------------------


def geometric_sizes(lo: int, hi: int, count: int) -> list[int]:
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def capture(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def estimate_report(rng: random.Random, smoke: bool) -> Workload:
    """Instance text -> parse -> estimate under both encodings -> classify
    against every bundled profile; each pass also renders the tables and
    diagrams, in-process and through the CLI entry point."""
    profiles = default_profiles()
    euc = [10, 20] if smoke else geometric_sizes(100, 1000, 8)
    explicit = [5, 8] if smoke else geometric_sizes(50, 300, 7)

    ops = []
    for kind, n in [("euc", n) for n in euc] + [("explicit", n) for n in explicit]:
        k = rng.randint(2, 30)
        cap = rng.randint(50, 500)
        demands = [0] + [rng.randint(1, 50) for _ in range(n)]
        if kind == "euc":
            coords = [(rng.randint(0, 1000), rng.randint(0, 1000)) for _ in range(n + 1)]
            text = instance_text(f"euc-{n}", cap, k, demands, coords=coords)
        else:
            matrix = [[0] * (n + 1) for _ in range(n + 1)]
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    matrix[i][j] = matrix[j][i] = rng.randint(1, 999)
            text = instance_text(f"explicit-{n}", cap, k, demands, matrix=matrix)
        want = oracle.resource_qubits(n, k, cap)

        def run(tr: Tracer, text: str = text) -> Any:
            tr.count("instances.parse_instance.bytes", len(text))
            inst = tr.call("instances.parse_instance", parse_instance, text)
            ests = [
                tr.call("encoding.estimate_instance", estimate_instance, inst, encoding)
                for encoding in (EncodingKind.QUBO, EncodingKind.HOBO)
            ]
            verdicts = [[tr.call("hardware.classify", classify, est, p) for p in profiles] for est in ests]
            return inst, ests, verdicts

        def check(tr: Tracer, out: Any, n: int = n, k: int = k, cap: int = cap, want: tuple = want) -> None:
            inst, ests, verdicts = out
            expect((inst.customers, inst.vehicles, inst.capacity) == (n, k, cap), "parsed size triple differs")
            got = tuple(est.qubits for est in ests)
            expect(got == want, f"qubits (QUBO, HOBO) = {got}, formulas give {want}")
            for est, row in zip(ests, verdicts):
                for p, verdict in zip(profiles, row):
                    fits = est.qubits <= p.n_max and est.depth <= p.d_max
                    expect(verdict.feasible == fits, f"{p.name}: feasible={verdict.feasible}, budgets say {fits}")

        ops.append(Op(f"{kind}-{n}", run, check))

    return Workload("estimate-report", ops, report_steps(rng, profiles, 50 if smoke else 2000))


def report_steps(rng: random.Random, profiles: list, sweep_size: int) -> list[Op]:
    golden_table = (GOLDEN / "resource_table.txt").read_text(encoding="utf-8")
    golden_gaps = (GOLDEN / "gap_table.txt").read_text(encoding="utf-8")
    profile = get_profile(profiles, "current-best")
    sweep = [
        InstanceParams(f"s{i}", rng.randint(10, 1000), rng.randint(1, 50), rng.randint(10, 1000))
        for i in range(sweep_size)
    ]
    km, delta = rng.randint(10**5, 10**7), rng.randint(1, 200) / 1000

    def out(tr: Tracer, text: str) -> str:
        tr.count("report.bytes_out", len(text))
        return text

    def published_table(tr: Tracer) -> Any:
        params = tr.call("report.bundled_params", bundled_params)
        return out(tr, tr.call("report.render_resource_table", render_resource_table, params))

    def check_published_table(tr: Tracer, text: str) -> None:
        expect(text == golden_table, "resource table differs from the 23 published rows")

    def size_sweep(tr: Tracer) -> Any:
        table = out(tr, tr.call("report.render_resource_table", render_resource_table, sweep))
        points = tr.call("report.diagram_points", diagram_points, sweep, profile)
        svg = out(tr, tr.call("report.feasibility_diagram", feasibility_diagram, points, profile))
        return table, points, svg

    def check_size_sweep(tr: Tracer, result: Any) -> None:
        table, points, svg = result
        expect(table.count("\n") == len(sweep) + 3, "sweep table has the wrong number of lines")
        expect(len(points) == len(sweep), "diagram_points dropped or added points")
        for point in points:
            fits = point.n <= profile.n_max and point.d <= profile.d_max
            expect(point.feasible == fits, f"{point.label}: feasible={point.feasible}, budgets say {fits}")
        expect(svg.count("<circle ") == len(sweep), "diagram does not draw one circle per point")

    def gap_table(tr: Tracer) -> Any:
        records = tr.call("value.gap_records_from_csv", gap_records_from_csv, bundled_gap_csv())
        return out(tr, tr.call("report.render_gap_table", render_gap_table, records))

    def check_gap_table(tr: Tracer, text: str) -> None:
        expect(text == golden_gaps, "gap table differs from the published rows")

    def cli(argv: list[str]) -> Callable[[Tracer], Any]:
        def run(tr: Tracer) -> Any:
            code, text = tr.call("cli.cli_main", capture, argv)
            return code, out(tr, text)

        return run

    def check_cli(expected: Callable[[str], bool], what: str) -> Callable[[Tracer, Any], None]:
        def check(tr: Tracer, result: Any) -> None:
            code, text = result
            expect(code == 0, f"exit code {code}")
            expect(expected(text), what)

        return check

    saved = km * delta
    litres = saved * 30.0 / 100.0
    value_lines = [
        f"km saved: {saved:.6g}",
        f"litres saved: {litres:.6g}",
        f"fuel cost saved: {litres * 1.0:.6g}",
        f"co2 saved (t): {litres * 2.6 / 1000.0:.6g}",
    ]
    return [
        Op("published-table", published_table, check_published_table),
        Op("size-sweep", size_sweep, check_size_sweep),
        Op("gap-table", gap_table, check_gap_table),
        Op("cli-table", cli(["table"]), check_cli(lambda t: t == golden_table, "`table` output differs")),
        Op(
            "cli-gaps",
            cli(["gaps"]),
            check_cli(lambda t: t == "# gap denominator: solution\n" + golden_gaps, "`gaps` output differs"),
        ),
        Op(
            "cli-diagram",
            cli(["diagram"]),
            check_cli(lambda t: t.startswith("<svg") and t.count("<circle ") == 23, "`diagram` is not 23 points"),
        ),
        Op(
            "cli-value",
            cli(["value", "--km", str(km), "--delta", str(delta)]),
            check_cli(lambda t: all(line in t.splitlines() for line in value_lines), "`value` arithmetic differs"),
        ),
    ]


# --- model-io ---------------------------------------------------------------


# Three draws at the middle size, so the median op rests on three samples a
# pass instead of one.
MODEL_IO_SIZES = [(8, 2, 10), (10, 3, 17), (12, 3, 25), (12, 3, 25), (12, 3, 25), (13, 4, 32), (15, 4, 40)]


def model_io(rng: random.Random, smoke: bool, sizes: list[tuple[int, int, int]] = MODEL_IO_SIZES) -> Workload:
    """build_qubo -> export_model -> parse_model -> count_terms -> energy on
    seeded assignments -> decode_routes, one op per (n, k, C) in ``sizes``.
    One assignment drives the known valid routes, so its energy must equal
    their cost; the others are random bits."""
    if smoke:
        sizes = [(3, 1, 3), (4, 2, 5)]
    ops = []
    for n, k, cap in sizes:
        fam = family(rng, n, k, cap, min_demand=1)  # every load term present: term counts fixed by size
        inst = parse_instance(fam.text)
        weights = oracle.euc_matrix(fam.coords)
        valid = oracle.route_assignment(fam.nodes, cap, fam.demands, fam.routes)
        noise = ["".join(rng.choice("01") for _ in range(fam.num_vars)) for _ in range(2)]
        assignments = [valid, *noise]
        costs = [oracle.set_arcs_cost(fam.nodes, k, weights, a) for a in assignments]
        reference = build_qubo(inst)
        energies = [energy(reference, a) for a in assignments]
        route_cost = sum(oracle.tour_cost(weights, r) for r in fam.routes)

        def run(tr: Tracer, inst: Any = inst, assignments: list[str] = assignments) -> Any:
            model = tr.call("qubo.build_qubo", build_qubo, inst)
            tr.count("qubo.build_qubo.vars", model.num_vars)
            tr.count("qubo.build_qubo.quad_terms", len(model.quadratic))
            text = tr.call("qubo.export_model", export_model, model)
            tr.count("qubo.export_model.bytes", len(text))
            tr.count("qubo.parse_model.bytes", len(text))
            back = tr.call("qubo.parse_model", parse_model, text)
            terms = tr.call("qubo.count_terms", count_terms, back)
            values = [tr.call("qubo.energy", energy, back, a) for a in assignments]
            decodings = [tr.call("qubo.decode_routes", decode_routes, model, a, inst) for a in assignments]
            for d in decodings:
                tr.count("qubo.decode_routes.valid", d.is_valid)
            return model, back, terms, values, decodings

        def check(
            tr: Tracer,
            out: Any,
            fam: Family = fam,
            energies: list = energies,
            costs: list[int] = costs,
            route_cost: int = route_cost,
        ) -> None:
            model, back, terms, values, decodings = out
            expect(back.num_vars == model.num_vars == fam.num_vars, "variable count changed")
            expect(back.linear == model.linear, "linear terms changed through export/parse")
            expect(back.quadratic == model.quadratic, "quadratic terms changed through export/parse")
            expect(back.offset == model.offset, "offset changed through export/parse")
            expect(terms == (len(model.linear), len(model.quadratic)), f"count_terms says {terms}")
            expect(values == energies, f"energies {values}, the built model gives {energies}")
            expect(values[0] == route_cost, f"valid routes have energy {values[0]}, cost {route_cost}")
            expect(decodings[0].is_valid, f"valid routes decode with {decodings[0].violations}")
            expect(decodings[0].routes == fam.routes, "decoded routes differ from the driven ones")
            got = [d.total_cost for d in decodings]
            expect(got == costs, f"decoded costs {got}, set arcs cost {costs}")

        ops.append(Op(f"n{n}-k{k}-c{cap}", run, check))
    return Workload("model-io", ops)


# --- qubo -------------------------------------------------------------------


def qubo(rng: random.Random, smoke: bool) -> Workload:
    """The smaller ``model-io`` ops (up to n=12) and ``solve-exported`` ops
    (up to 19 variables) in one batch, so that one workload covers every
    ``qubo`` layer.  A run's figures are each op's fastest repeat.  On a
    shared host that is steadiest when every op is short, so it fits
    inside a brief quiet spell, and a pass is short, so each op comes round
    often; here every op takes under 0.2 s and a pass about 1 s."""
    io_sizes = [(8, 2, 10), (10, 3, 17), (12, 3, 25), (12, 3, 25), (12, 3, 25)]
    solve_sizes = [(3, 1, 6), (3, 1, 7), (2, 2, 3)]
    return Workload("qubo", model_io(rng, smoke, io_sizes).ops + solve_exported(rng, smoke, solve_sizes).ops)


BUILDERS: dict[str, Callable[[random.Random, bool], Workload]] = {
    "solve-built": solve_built,
    "solve-exported": solve_exported,
    "estimate-report": estimate_report,
    "model-io": model_io,
    "qubo": qubo,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload's batch, drawn from ``seed`` alone."""
    return BUILDERS[name](random.Random(f"{name}/{seed}"), smoke)
