"""Resource tables, gap tables, and feasibility diagrams.

Everything here renders to plain strings (aligned text, CSV, or SVG) and is
byte-deterministic: rendering the same inputs twice gives identical output,
so diagrams and tables can be diffed and checked into version control.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources

from .encoding import (
    DEFAULT_LAYERS,
    EncodingKind,
    LogMode,
    ResourceEstimate,
    SizeConvention,
    depth_estimate,
    encoding_qubits,
    error_rate_threshold,
    estimate_resources,
    quantum_volume,
)
from .errors import EmptyInput, SchemaError
from .hardware import HardwareProfile, feasibility_point
from .qubo import _format_number
from .value import GapRecord

TEXT = "text"
CSV = "csv"
SVG = "svg"

RESOURCE_COLUMNS = (
    "Problem Instance",
    "n",
    "Vehicles",
    "Cap.",
    "QUBO",
    "HOBO",
    "Depth(N)",
    "Quantum Vol.",
    "Error Rate",
)

GAP_COLUMNS = ("Instance", "BKS", "Lower Bound", "Gap (%)")


@dataclass(frozen=True)
class InstanceParams:
    """Size triple of a benchmark instance, as carried by a params file."""

    name: str
    customers: int
    vehicles: int
    capacity: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("instance name must be nonempty")
        for field_name in ("customers", "vehicles", "capacity"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be at least 1")


@dataclass(frozen=True)
class DiagramPoint:
    """One instance placed on the qubit/depth plane."""

    label: str
    n: int
    d: int
    feasible: bool

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.d < 0:
            raise ValueError("d must be nonnegative")


def load_params_csv(text: str) -> list[InstanceParams]:
    """Read instance parameters from CSV columns ``name,n,vehicles,capacity``."""
    reader = csv.DictReader(io.StringIO(text))
    fields = reader.fieldnames or []
    for column in ("name", "n", "vehicles", "capacity"):
        if column not in fields:
            raise SchemaError(column, "required CSV column missing")
    out: list[InstanceParams] = []
    for row in reader:
        try:
            out.append(
                InstanceParams(
                    name=(row["name"] or "").strip(),
                    customers=int(row["n"]),
                    vehicles=int(row["vehicles"]),
                    capacity=int(row["capacity"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(row.get("name") or "?", str(exc)) from None
    return out


def bundled_params() -> list[InstanceParams]:
    """Size parameters of the challenging benchmark set shipped with the package."""
    text = resources.files("qcvrp").joinpath("data/challenging_instances.csv").read_text("utf-8")
    return load_params_csv(text)


def bundled_gap_csv() -> str:
    """Raw CSV of shipped best-known solutions and lower bounds."""
    return resources.files("qcvrp").joinpath("data/gap_records.csv").read_text("utf-8")


def params_estimate(
    params: InstanceParams,
    encoding: EncodingKind,
    convention: SizeConvention = SizeConvention.STRICT,
    layers: int = DEFAULT_LAYERS,
    log_mode: LogMode = LogMode.FLOOR,
) -> ResourceEstimate:
    """Resource estimate from size parameters alone.

    Works without coordinates or demands, so the measurement estimate uses a
    unit maximum edge weight; multiply by the real weight to specialize.
    """
    return estimate_resources(
        params.customers, params.vehicles, params.capacity, 1, encoding, convention, layers, log_mode
    )


def _render_columns(header: tuple[str, ...], rows: list[tuple[str, ...]], banner: str, fmt: str) -> str:
    if fmt == CSV:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return f"# {banner}\n" + buf.getvalue()
    if fmt != TEXT:
        raise ValueError(f"unknown table format {fmt!r} (use 'text' or 'csv')")
    widths = [max(map(len, col)) for col in zip(header, *rows)]
    # The first column aligns left, the others right.
    line = "  ".join(f"{{:{'<' if i == 0 else '>'}{w}}}" for i, w in enumerate(widths)).format
    lines = [f"# {banner}", line(*header), "  ".join("-" * w for w in widths)]
    lines.extend(line(*row) for row in rows)
    return "\n".join(lines) + "\n"


def render_resource_table(
    instances: list[InstanceParams],
    convention: SizeConvention = SizeConvention.COMPAT,
    layers: int = DEFAULT_LAYERS,
    fmt: str = TEXT,
    log_mode: LogMode = LogMode.FLOOR,
) -> str:
    """Per-instance resource table across both encodings.

    One row per instance: the size triple, the QUBO and HOBO qubit counts,
    then depth, quantum volume, and tolerable error rate for the HOBO
    encoding.  Counts print exactly; error rates print at two significant
    figures.  The banner line names the conventions used.  Only these
    figures are computed, not a full ``ResourceEstimate``.
    """
    rows: list[tuple[str, ...]] = []
    try:
        for params in instances:
            size = (params.customers, params.vehicles, params.capacity)
            qubo = encoding_qubits(EncodingKind.QUBO, *size, convention, log_mode)
            hobo = encoding_qubits(EncodingKind.HOBO, *size, convention, log_mode)
            depth = depth_estimate(hobo, layers)
            volume = quantum_volume(hobo, depth)
            cells = map(str, (*size, qubo, hobo, depth, volume))
            rows.append((params.name, *cells, f"{error_rate_threshold(volume):.1e}"))
    except OverflowError as exc:  # a figure beyond float range
        raise SchemaError(params.name, str(exc)) from None
    banner = f"convention: {convention.value} | layers: {layers} | log mode: {log_mode.value}"
    return _render_columns(RESOURCE_COLUMNS, rows, banner, fmt)


def render_gap_table(records: list[GapRecord], fmt: str = TEXT) -> str:
    """Best-known solution vs lower bound table with gaps at two decimals."""
    rows = [
        (
            rec.instance_name,
            _format_number(rec.bks),
            _format_number(rec.lower_bound),
            f"{rec.gap_percent:.2f}",
        )
        for rec in records
    ]
    banner = "gap = 100 * (BKS - bound) / denominator, at two decimals"
    return _render_columns(GAP_COLUMNS, rows, banner, fmt)


def diagram_points(
    instances: list[InstanceParams],
    profile: HardwareProfile,
    encoding: EncodingKind = EncodingKind.HOBO,
    convention: SizeConvention = SizeConvention.COMPAT,
    layers: int = DEFAULT_LAYERS,
    log_mode: LogMode = LogMode.FLOOR,
) -> list[DiagramPoint]:
    """Place each instance on the qubit/depth plane and classify it.

    Feasible means inside the closed region of ``feasibility_point``, as in ``classify``.
    """
    n_max, d_max = feasibility_point(profile)
    points = []
    try:
        for p in instances:
            n = encoding_qubits(encoding, p.customers, p.vehicles, p.capacity, convention, log_mode)
            d = depth_estimate(n, layers)
            points.append(DiagramPoint(label=p.name, n=n, d=d, feasible=n <= n_max and d <= d_max))
    except OverflowError as exc:  # a figure beyond float range
        raise SchemaError(p.name, str(exc)) from None
    return points


_SVG_W, _SVG_H = 720, 520
_ML, _MR, _MT, _MB = 84, 36, 44, 64
_FEASIBLE_COLOR = "#2e8b57"
_INFEASIBLE_COLOR = "#c0392b"
_GUIDE_COLOR = "#444444"


def _decade_range(values: list[float]) -> tuple[int, int]:
    lo = math.floor(math.log10(min(values)))
    hi = math.ceil(math.log10(max(values)))
    return lo, max(hi, lo + 1)


def _star_points(cx: float, cy: float, outer: float, inner: float) -> str:
    pts = []
    for step in range(10):
        radius = outer if step % 2 == 0 else inner
        angle = math.radians(-90 + step * 36)
        pts.append(f"{cx + radius * math.cos(angle):.2f},{cy + radius * math.sin(angle):.2f}")
    return " ".join(pts)


def _escape(text: str) -> str:
    """``text`` safe inside SVG character data and double-quoted attributes."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _diagram_svg(points: list[DiagramPoint], profile: HardwareProfile) -> str:
    n_max, d_max = feasibility_point(profile)
    try:
        xs = [max(1.0, float(p.n)) for p in points] + [float(n_max)]
        ys = [max(1.0, float(p.d)) for p in points] + [float(d_max)]
    except OverflowError as exc:  # name the first point the float axes cannot place
        for p in points:
            try:
                float(p.n), float(p.d)
            except OverflowError:
                raise SchemaError(p.label, str(exc)) from None
        raise
    x_lo, x_hi = _decade_range(xs)
    y_lo, y_hi = _decade_range(ys)
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB

    def px(value: float) -> float:
        return _ML + (math.log10(value) - x_lo) / (x_hi - x_lo) * plot_w

    def py(value: float) -> float:
        return _MT + plot_h - (math.log10(value) - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
        f'<text x="{_ML}" y="24" font-size="15" fill="#111111">'
        f"Hardware feasibility: {_escape(profile.name)} (qubits &#8804; {n_max}, depth &#8804; {d_max})</text>",
    ]
    for exp in range(x_lo, x_hi + 1):
        x = px(10.0**exp)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_MT + plot_h}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + plot_h + 20}" font-size="12" text-anchor="middle" '
            f'fill="#333333">10<tspan baseline-shift="super" font-size="9">{exp}</tspan></text>'
        )
    for exp in range(y_lo, y_hi + 1):
        y = py(10.0**exp)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + plot_w}" y2="{y:.2f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" font-size="12" text-anchor="end" '
            f'fill="#333333">10<tspan baseline-shift="super" font-size="9">{exp}</tspan></text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#333333"/>'
    )
    x_line = px(float(n_max))
    y_line = py(float(d_max))
    parts.append(
        f'<line x1="{x_line:.2f}" y1="{_MT}" x2="{x_line:.2f}" y2="{_MT + plot_h}" '
        f'stroke="{_GUIDE_COLOR}" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<line x1="{_ML}" y1="{y_line:.2f}" x2="{_ML + plot_w}" y2="{y_line:.2f}" '
        f'stroke="{_GUIDE_COLOR}" stroke-dasharray="6 4"/>'
    )
    for point in points:
        color = _FEASIBLE_COLOR if point.feasible else _INFEASIBLE_COLOR
        css = "feasible" if point.feasible else "infeasible"
        label = _escape(point.label)
        parts.append(
            f'<circle class="pt {css}" data-label="{label}" cx="{px(max(1.0, float(point.n))):.2f}" '
            f'cy="{py(max(1.0, float(point.d))):.2f}" r="5" fill="{color}" fill-opacity="0.85">'
            f"<title>{label}: N={point.n}, D={point.d}</title></circle>"
        )
    parts.append(
        f'<polygon points="{_star_points(x_line, y_line, 10.0, 4.2)}" fill="#111111">'
        f"<title>feasibility point ({n_max}, {d_max})</title></polygon>"
    )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_SVG_H - 16}" font-size="13" '
        f'text-anchor="middle" fill="#111111">qubits N</text>'
    )
    parts.append(
        f'<text x="22" y="{_MT + plot_h / 2:.2f}" font-size="13" text-anchor="middle" '
        f'fill="#111111" transform="rotate(-90 22 {_MT + plot_h / 2:.2f})">circuit depth D</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _diagram_csv(points: list[DiagramPoint], profile: HardwareProfile) -> str:
    n_max, d_max = feasibility_point(profile)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("label", "n", "d", "feasible"))
    for point in points:
        writer.writerow((point.label, point.n, point.d, "true" if point.feasible else "false"))
    writer.writerow(("feasibility-point", n_max, d_max, ""))
    return buf.getvalue()


def feasibility_diagram(
    points: list[DiagramPoint],
    profile: HardwareProfile,
    fmt: str = SVG,
) -> str:
    """Log-log scatter of instances against a profile's budgets.

    SVG output draws dashed guides at the qubit and depth budgets with a
    star at their corner, green points inside the closed feasible region and
    red outside.  CSV output lists ``label,n,d,feasible`` rows plus a
    trailing ``feasibility-point`` row.  Both carry the same verdicts.
    """
    if not points:
        raise EmptyInput("a feasibility diagram needs at least one point")
    if fmt == SVG:
        return _diagram_svg(points, profile)
    if fmt == CSV:
        return _diagram_csv(points, profile)
    raise ValueError(f"unknown diagram format {fmt!r} (use 'svg' or 'csv')")
