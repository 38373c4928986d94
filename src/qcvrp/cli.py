"""Command-line interface.

One subcommand per capability: inspect an instance file, estimate its
quantum resources, classify it against a hardware profile, reproduce the
benchmark resource and gap tables, draw the feasibility diagram, and build,
export, or exactly solve the desk-scale penalty model.  Each subcommand's
parser names its handler function, which ``cli_main`` calls.

Exit codes: 0 on success, 1 when the input is understood but invalid
(domain errors, a model too large to allocate), 2 for usage errors.  A
command whose stdout reader has gone (``qcvrp qubo big.vrp | head -c 1``)
ends quietly with 0.  Input files are UTF-8, with or without a BOM.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import encoding as enc
from . import hardware, report, value
from .errors import CvrpError

_CONVENTIONS = {
    "strict": enc.SizeConvention.STRICT,
    "compat": enc.SizeConvention.COMPAT,
    # historical spelling, kept so existing invocations keep working
    "table3": enc.SizeConvention.COMPAT,
}


def _add_estimate_options(parser: argparse.ArgumentParser, convention: str, encoding: bool = True) -> None:
    if encoding:
        parser.add_argument("--encoding", choices=sorted(e.value for e in enc.EncodingKind), default="hobo")
    parser.add_argument("--convention", choices=list(_CONVENTIONS), default=convention)
    parser.add_argument("--layers", type=int, default=enc.DEFAULT_LAYERS)
    parser.add_argument("--log-mode", choices=sorted(m.value for m in enc.LogMode), default="floor")


def _add_profile_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default="current-best")
    parser.add_argument("--profiles", help="JSON file with a custom profile list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcvrp",
        description="Quantum resource estimation and desk-scale exact solving for CVRP instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[[argparse.Namespace], None], summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("parse", _parse, "validate an instance file and print a summary")
    p.add_argument("file")

    p = command("estimate", _estimate, "print the full resource estimate for an instance")
    p.add_argument("file")
    _add_estimate_options(p, "strict")

    p = command("classify", _classify, "check an instance against a hardware profile")
    p.add_argument("file")
    _add_profile_options(p)
    _add_estimate_options(p, "strict")

    p = command("table", _table, "render the benchmark resource table")
    p.add_argument("params", nargs="?", help="CSV of name,n,vehicles,capacity (default: bundled set)")
    _add_estimate_options(p, "compat", encoding=False)
    p.add_argument("--format", choices=[report.TEXT, report.CSV], default=report.TEXT)

    p = command("gaps", _gaps, "render the best-known-solution gap table")
    p.add_argument("records", nargs="?", help="CSV of instance,bks,lower_bound (default: bundled set)")
    p.add_argument("--denominator", choices=sorted(d.value for d in value.GapDenominator), default="solution")
    p.add_argument("--format", choices=[report.TEXT, report.CSV], default=report.TEXT)

    p = command("diagram", _diagram, "draw the hardware feasibility diagram")
    p.add_argument("params", nargs="?", help="CSV of name,n,vehicles,capacity (default: bundled set)")
    _add_profile_options(p)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=[report.SVG, report.CSV], default=report.SVG)
    _add_estimate_options(p, "compat")

    p = command("qubo", _qubo, "build the penalty model for an instance and export it")
    p.add_argument("file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--penalty", default="auto", help="positive number, or 'auto'")

    p = command("solve", _solve, "exactly solve a small instance or exported model")
    p.add_argument("file", help="instance file, or a model exported by 'qubo'")
    p.add_argument("--penalty", default="auto", help="positive number, or 'auto' (instances only)")

    p = command("value", _value, "fleet savings from a relative route-length improvement")
    p.add_argument("--km", type=float, required=True, help="baseline kilometres driven per year")
    p.add_argument("--delta", type=float, required=True, help="relative improvement, 0..1")
    p.add_argument("--l100", type=float, default=30.0, help="fuel use, litres per 100 km")
    p.add_argument("--price", type=float, default=1.0, help="fuel price per litre")
    p.add_argument("--co2kg", type=float, default=2.6, help="kg of CO2 per litre burned")

    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped


def _parse_instance(text: str):
    """``parse_instance``, imported here so commands that read no instance never load the parser."""
    from .instances import parse_instance
    return parse_instance(text)


def _parse_penalty(token: str):
    from . import qubo
    if token == qubo.AUTO:
        return qubo.AUTO
    try:
        return int(token)  # exact at any size; a float would round it
    except ValueError:
        pass
    try:
        number = float(token)
    except ValueError:
        raise ValueError(f"penalty must be a number or 'auto', got {token!r}") from None
    return int(number) if number.is_integer() else number


def _load_profile(args: argparse.Namespace) -> hardware.HardwareProfile:
    if args.profiles:
        profiles = hardware.load_profiles(_read(args.profiles))
    else:
        profiles = hardware.default_profiles()
    try:
        return hardware.get_profile(profiles, args.profile)
    except KeyError as exc:
        raise CvrpError(str(exc.args[0])) from None


def _estimate_args(args: argparse.Namespace) -> tuple:
    """The ``(encoding, convention, layers, log_mode)`` that every estimator takes."""
    return (
        enc.EncodingKind(args.encoding),
        _CONVENTIONS[args.convention],
        args.layers,
        enc.LogMode(args.log_mode),
    )


def _load_params(args: argparse.Namespace) -> list[report.InstanceParams]:
    return report.load_params_csv(_read(args.params)) if args.params else report.bundled_params()


def _parse(args: argparse.Namespace) -> None:
    inst = _parse_instance(_read(args.file))
    print(f"name: {inst.name}")
    print(f"dimension: {inst.dimension}")
    print(f"customers: {inst.customers}")
    print(f"capacity: {inst.capacity}")
    print(f"vehicles: {inst.vehicles}")
    print(f"edge weights: {inst.weight_kind.value}")
    violations = inst.capacity_violations
    if violations:
        print(f"warning: demand exceeds capacity at nodes {list(violations)}")


def _estimate(args: argparse.Namespace) -> None:
    inst = _parse_instance(_read(args.file))
    est = enc.estimate_instance(inst, *_estimate_args(args))
    print(f"instance: {inst.name} (n={inst.customers}, k={inst.vehicles}, C={inst.capacity})")
    print(f"convention: {_CONVENTIONS[args.convention].value} | layers: {args.layers} | log mode: {args.log_mode}")
    print(f"encoding: {est.encoding.value}")
    print(f"qubits: {est.qubits}")
    print(f"terms: {est.terms:.6g}")
    print(f"depth: {est.depth}")
    print(f"circuit volume: {est.circuit_volume:.6g}")
    print(f"measurements: {est.measurements:.6g}")
    print(f"quantum volume: {est.quantum_volume}")
    print(f"error rate threshold: {est.error_rate_threshold:.1e}")


def _classify(args: argparse.Namespace) -> None:
    inst = _parse_instance(_read(args.file))
    profile = _load_profile(args)
    est = enc.estimate_instance(inst, *_estimate_args(args))
    verdict = hardware.classify(est, profile)
    print(f"instance: {inst.name} ({est.qubits} qubits, depth {est.depth}, {args.encoding})")
    print(f"profile: {profile.name} (qubits <= {profile.n_max}, depth <= {profile.d_max})")
    print(f"qubits fit: {'yes' if verdict.qubit_ok else 'no'} (margin {verdict.qubit_margin:.3g})")
    print(f"depth fits: {'yes' if verdict.depth_ok else 'no'} (margin {verdict.depth_margin:.3g})")
    print(f"feasible: {'yes' if verdict.feasible else 'no'}")


def _table(args: argparse.Namespace) -> None:
    table = report.render_resource_table(
        _load_params(args),
        _CONVENTIONS[args.convention],
        args.layers,
        fmt=args.format,
        log_mode=enc.LogMode(args.log_mode),
    )
    print(table, end="")


def _gaps(args: argparse.Namespace) -> None:
    text = _read(args.records) if args.records else report.bundled_gap_csv()
    records = value.gap_records_from_csv(text, value.GapDenominator(args.denominator))
    print(f"# gap denominator: {args.denominator}")
    print(report.render_gap_table(records, fmt=args.format), end="")


def _diagram(args: argparse.Namespace) -> None:
    params = _load_params(args)
    profile = _load_profile(args)
    points = report.diagram_points(params, profile, *_estimate_args(args))
    document = report.feasibility_diagram(points, profile, fmt=args.format)
    if args.out:
        Path(args.out).write_text(document, encoding="utf-8")
        feasible = sum(1 for p in points if p.feasible)
        print(f"wrote {args.out}: {len(points)} points, {feasible} feasible, profile {profile.name}")
    else:
        print(document, end="")


def _qubo(args: argparse.Namespace) -> None:
    from . import qubo
    inst = _parse_instance(_read(args.file))
    model = qubo.build_qubo(inst, _parse_penalty(args.penalty))
    text = qubo.export_model(model)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        n_lin, n_quad = qubo.count_terms(model)
        print(
            f"wrote {args.out}: {model.num_vars} variables, {n_lin} linear and "
            f"{n_quad} quadratic terms, penalty {model.penalty}"
        )
    else:
        print(text, end="")


def _solve(args: argparse.Namespace) -> None:
    from . import qubo
    text = _read(args.file)
    decoding = None
    if text.lstrip().startswith("QUBO"):
        bits, best = qubo.brute_force_solve(qubo.parse_model(text))
    else:
        solution = qubo.solve_instance(_parse_instance(text), _parse_penalty(args.penalty))
        bits, best, decoding = solution.assignment, solution.energy, solution.decoding
    print(f"assignment: {bits}")
    print(f"energy: {best}")
    if decoding is None:
        return
    print(f"route cost: {decoding.total_cost}")
    for v, route in enumerate(decoding.routes):
        print(f"vehicle {v}: {'-'.join(str(n) for n in route)}")
    if decoding.violations:
        print(f"violations: {len(decoding.violations)}")
        for violation in decoding.violations:
            where = f" vehicle {violation.vehicle}" if violation.vehicle is not None else ""
            at = f" node {violation.node}" if violation.node is not None else ""
            print(f"  {violation.kind}{where}{at}: {violation.detail}")
    else:
        print("violations: none")


def _value(args: argparse.Namespace) -> None:
    impact = value.impact_estimate(args.km, args.delta, args.l100, args.price, args.co2kg)
    print(f"baseline km: {impact.baseline_km:.6g}")
    print(f"improvement: {impact.improvement:.6g}")
    print(f"km saved: {impact.km_saved:.6g}")
    print(f"litres saved: {impact.litres_saved:.6g}")
    print(f"fuel cost saved: {impact.fuel_cost_saved:.6g}")
    print(f"co2 saved (t): {impact.co2_saved_tonnes:.6g}")


def _run(argv: Sequence[str] | None) -> int:
    """Parse ``argv`` and run its handler; a closed stdout raises ``BrokenPipeError``."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
    except BrokenPipeError:
        raise
    except (CvrpError, ValueError, OverflowError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cli_main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = _run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone, which ends the command, not an error.
        # Point stdout at devnull so the exit-time flush of what is still
        # buffered cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
