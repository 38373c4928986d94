#!/usr/bin/env python3
"""Run one benchmark workload against the package in ``src/`` and report.

    python3 benchmarks/run.py --workload solve-built --seed 1 --seconds 15 --trace 0

The run repeats full passes over the workload's seeded batch while another
pass still fits in ``--seconds`` (at least one pass), checking every output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, writes the spans to ``.bench_out/`` and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--smoke`` swaps in a few tiny ops per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import SpanTotals, Tracer, totals_by_name

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve-built", "solve-exported", "estimate-report", "model-io", "qubo")
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
# Tail percentiles tried from the top, in tenths of a percent; below 100
# samples none has ten samples beyond it and the maximum is reported.
TAIL_LADDER = (999, 990, 950, 900)

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import qcvrp
qcvrp.default_profiles()
qcvrp.bundled_params()
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Public calls the benchmark makes, as <module>.<function>.
LAYERS = (
    "instances.parse_instance",
    "encoding.estimate_instance",
    "hardware.classify",
    "report.bundled_params",
    "report.render_resource_table",
    "report.diagram_points",
    "report.feasibility_diagram",
    "report.render_gap_table",
    "value.gap_records_from_csv",
    "cli.cli_main",
    "qubo.build_qubo",
    "qubo.export_model",
    "qubo.parse_model",
    "qubo.count_terms",
    "qubo.energy",
    "qubo.brute_force_solve",
    "qubo.decode_routes",
)
LAYER_COUNTS = {
    "instances.parse_instance.bytes": "bytes",
    "qubo.build_qubo.vars": "count",
    "qubo.build_qubo.quad_terms": "count",
    "qubo.export_model.bytes": "bytes",
    "qubo.parse_model.bytes": "bytes",
    "report.bytes_out": "bytes",
}
PER_LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.busy_s": "s" for layer in LAYERS},
    **LAYER_COUNTS,
    "qubo.decode_routes.valid_ratio": "ratio",
    "qubo.brute_force_solve.op_share": "ratio",
    "qubo.brute_force_solve.space_per_s": "1/s",
    "bench.glue_s": "s",
    "trace_overhead_s": "s",
}


@dataclass
class Tally:
    """What a set of passes did: pass times, per-unit times, checked units."""

    pass_s: list[float] = field(default_factory=list)
    # By position in the batch: run time of each op that returned, and run
    # plus check time of every op and step.
    op_s: dict[int, list[float]] = field(default_factory=dict)
    unit_s: dict[int, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    space: int = 0  # 2**num_vars summed over solves that passed their check
    errors: list[str] = field(default_factory=list)


def run_unit(tr, span: str, op, tally: Tally) -> tuple[float | None, float]:
    """Run and check one op or step.  Return its run time (None if it
    raised) and its time including the check.  A raise or a failed check
    counts as a failure."""
    # Every unit starts from an empty young generation, as in a fresh
    # process; otherwise where the collector's full passes land depends on
    # the ops before, which shifted one op's time by 20% between seeds.
    gc.collect()
    tally.attempted += 1
    start = perf_counter()
    ran = None
    try:
        with tr.span(span):
            out = op.run(tr)
        ran = perf_counter() - start
        with tr.span("bench.check"):
            op.check(tr, out)
    except Exception as exc:  # a failed op or check is counted and the run goes on
        tally.failed += 1
        tally.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
    else:
        tally.space += op.space
    return ran, perf_counter() - start


def run_pass(workload, tr, tally: Tally) -> None:
    """One pass over the batch; its time sums the units' run and check times."""
    pass_s = 0.0
    with tr.span("bench.pass"):
        for pos, op in enumerate(workload.ops):
            ran, total = run_unit(tr, "bench.op", op, tally)
            pass_s += total
            tally.unit_s.setdefault(pos, []).append(total)
            if ran is not None:
                tally.op_s.setdefault(pos, []).append(ran)
        for pos, step in enumerate(workload.steps, start=len(workload.ops)):
            total = run_unit(tr, "bench.step", step, tally)[1]
            pass_s += total
            tally.unit_s.setdefault(pos, []).append(total)
    tally.pass_s.append(pass_s)


def percentile(samples: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, else the maximum."""
    n = len(samples)
    for tenths in TAIL_LADDER:
        if n * (1000 - tenths) >= 10_000:
            return tenths / 10, percentile(samples, tenths / 10)
    return 100.0, max(samples)


def time_left(start: float, next_s: float, seconds: float) -> bool:
    """Whether another pass of about ``next_s`` still ends within the run.

    The first pass always runs, so a run takes ``seconds`` or one pass,
    whichever is longer."""
    return perf_counter() - start + next_s <= seconds


def measure_setup() -> float:
    """Median over fresh interpreters of importing the package and loading
    its bundled profiles and params."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas_info() -> tuple[str, int | None]:
    """BLAS library name and version, and the thread count it reports."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                threads = int(getter())
                break
        if threads is not None:
            break
    return name, threads


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    blas, threads = blas_info()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def metric_line(name: str, value: float, unit: str, note: str | None = None) -> str:
    return f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else "")


def run_plain(workload, seconds: float) -> tuple[dict[str, float], Tally, list[str]]:
    """End-to-end metrics with tracing off, and the lines that print them."""
    tr = Tracer(enabled=False)
    tally = Tally()
    start = perf_counter()
    while True:
        run_pass(workload, tr, tally)
        if not time_left(start, statistics.median(tally.pass_s), seconds):
            break
    if not tally.op_s:
        raise RuntimeError("every op raised; nothing to time")
    # Each unit's time is the fastest of its repeats: on a shared host,
    # neighbours slow the CPU by up to 2x in spells of seconds to minutes,
    # and the fastest repeat of the same work is what tracks the code.
    ops = [min(times) for times in tally.op_s.values()]
    passes = len(tally.pass_s)
    pct, tail_value = tail(ops)
    metrics = {
        "setup_s": measure_setup(),
        "wall_s": sum(min(times) for times in tally.unit_s.values()),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    best_of = f"fastest of {passes} passes"
    notes = {
        "wall_s": f"sum over {len(tally.unit_s)} ops and steps, each the {best_of}",
        "ops_per_s": f"{len(ops)} ops over their summed time, each the {best_of}",
        "op_p50_ms": f"median over {len(ops)} ops, each the {best_of}",
        "op_tail_ms": f"p{pct:g} of {len(ops)} ops, {len(ops) - int(len(ops) * pct / 100)} beyond, each the {best_of}",
    }
    lines = [metric_line(name, value, END_TO_END_UNITS[name], notes.get(name)) for name, value in metrics.items()]
    lines.append(metric_line("failed_ops_ratio", tally.failed / tally.attempted, "ratio"))
    if tally.space:
        per_s = tally.space / passes / sum(ops)
        lines.append(metric_line("space_per_s", per_s, "1/s", "sum of 2**num_vars over op time"))
    return metrics, tally, lines


def run_traced(workload, seconds: float, trace_file: Path) -> tuple[dict[str, float], Tally, list[str]]:
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    tr = Tracer(enabled=False)
    plain, traced = Tally(), Tally()
    start = perf_counter()
    while True:
        tr.enabled = False
        run_pass(workload, tr, plain)
        tr.enabled = True
        run_pass(workload, tr, traced)
        pair_s = statistics.median(plain.pass_s) + statistics.median(traced.pass_s)
        if not time_left(start, pair_s, seconds):
            break
    tr.enabled = False
    tr.write(trace_file)

    passes = len(traced.pass_s)
    totals = totals_by_name(tr.spans)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        tot = totals.get(layer, SpanTotals())
        metrics[f"{layer}.calls"] = tot.calls / passes
        metrics[f"{layer}.busy_s"] = tot.self_s / passes
    for name in LAYER_COUNTS:
        metrics[name] = tr.counts.get(name, 0) / passes
    decodes = totals.get("qubo.decode_routes", SpanTotals()).calls
    solve_s = totals.get("qubo.brute_force_solve", SpanTotals()).self_s
    op_s = totals.get("bench.op", SpanTotals()).busy_s
    metrics["qubo.decode_routes.valid_ratio"] = tr.counts.get("qubo.decode_routes.valid", 0) / decodes if decodes else 0.0
    metrics["qubo.brute_force_solve.op_share"] = solve_s / op_s if op_s else 0.0
    metrics["qubo.brute_force_solve.space_per_s"] = traced.space / solve_s if solve_s else 0.0
    metrics["bench.glue_s"] = sum(t.self_s for name, t in totals.items() if name.startswith("bench.")) / passes
    metrics["trace_overhead_s"] = statistics.median(traced.pass_s) - statistics.median(plain.pass_s)

    tally = Tally(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        errors=plain.errors + traced.errors,
    )
    lines = [metric_line(name, value, PER_LAYER_UNITS[name]) for name, value in metrics.items()]
    lines.append(f"note per traced pass; {passes} traced and {len(plain.pass_s)} untraced passes")
    lines.append(f"note {len(tr.spans)} spans written to {trace_file.relative_to(ROOT)}")
    return metrics, tally, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few tiny ops per workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcvrp" / "__init__.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'qcvrp'}", file=sys.stderr)
        return 2
    # Fix the BLAS pool before numpy loads; the setup children inherit it.
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    print("env " + json.dumps(environment(args)))
    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    if args.trace:
        trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics, tally, lines = run_traced(workload, args.seconds, trace_file)
        units = PER_LAYER_UNITS
    else:
        metrics, tally, lines = run_plain(workload, args.seconds)
        units = END_TO_END_UNITS

    for error in tally.errors[:5]:
        print(f"failed op {error}", file=sys.stderr)
    print("\n".join(lines))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
