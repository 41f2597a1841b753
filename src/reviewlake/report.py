"""Table and chart emission: CSV, JSON, and dependency-free SVG bar charts.

Everything here is a pure function of its inputs. Emitted bytes contain no
timestamps, locale text, or iteration over unordered collections, so a
rerun over the same table is byte-identical; the chart tests hash outputs
to hold that line. Floats are always written with six decimals, integers
bare. ``CHARTS`` alone says how each view is drawn, down to which rows.
"""

from __future__ import annotations

import csv
import io
import json
from math import isfinite
from typing import Callable, NamedTuple

from reviewlake.errors import ConfigurationError, naming
from reviewlake.model import AggTable

#: Series colors, assigned by first appearance order, cycled past eight.
PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc949",
    "#b07aa1",
    "#9c755f",
)


def _cell(v) -> str:
    if v.__class__ is float:
        return f"{v:.6f}"
    return str(v)


def table_to_csv_bytes(table: AggTable) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(table.columns)
    for row in table.rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def _json_value(v) -> str:
    if v.__class__ is int or v.__class__ is float:
        return _cell(v)
    return json.dumps(v)


def table_to_json_bytes(table: AggTable) -> bytes:
    if not table.rows:
        return b"[]\n"
    keys = [json.dumps(c) for c in table.columns]
    lines = []
    for row in table.rows:
        body = ",".join(f"{k}:{_json_value(v)}" for k, v in zip(keys, row))
        lines.append("  {" + body + "}")
    return ("[\n" + ",\n".join(lines) + "\n]\n").encode("utf-8")


#: Table format -> serializer.
_TABLE_WRITERS = {"csv": table_to_csv_bytes, "json": table_to_json_bytes}

#: The formats ``--format`` and the ``format`` key take.
TABLE_FORMATS = tuple(_TABLE_WRITERS)


def emit_table(table: AggTable, fmt: str, path: str) -> str:
    """Write the table to path in ``fmt``, one of TABLE_FORMATS; returns the path."""
    blob = _TABLE_WRITERS[fmt](table)
    with naming(path), open(path, "wb") as fh:
        fh.write(blob)
    return path


class ChartSpec(NamedTuple):
    """What to draw: one bar group per x value, one bar per series value.

    ``where``, given each row as a {column: value} dict, picks the rows to
    draw; None draws them all.
    """

    x: str
    y: str
    series: str | None = None
    title: str = ""
    where: Callable[[dict], bool] | None = None


#: Every chart's size in pixels.
WIDTH, HEIGHT = 800, 420


def _esc(s) -> str:
    """Escape text for SVG content and double-quoted attributes."""
    return (
        str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def chart_svg(spec: ChartSpec, table: AggTable) -> str:
    """Render the table as a grouped bar chart, returned as SVG text.

    The y axis spans from min(0, smallest value) to max(largest value, 1)
    with five gridlines; bars anchor at zero so negative values hang
    downward. A table with no row to draw yields a valid chart that says
    "no data". Bars are the only rect elements in the output.
    """
    cols = table.columns
    xi = cols.index(spec.x)
    yi = cols.index(spec.y)
    si = cols.index(spec.series) if spec.series is not None else None
    rows = table.rows
    if spec.where is not None:
        rows = [r for r in rows if spec.where(dict(zip(cols, r)))]

    cells: dict[tuple, float | int] = {}  # (x, series) -> y, the last row's for a repeated pair
    for row in rows:
        v = row[yi]
        if v.__class__ is not int and (v.__class__ is not float or not isfinite(v)):
            raise ConfigurationError(f"chart y column {spec.y!r} has non-numeric value {v!r}")
        cells[(row[xi], row[si] if si is not None else None)] = v
    xvals = dict.fromkeys(x for x, _ in cells)  # in first-appearance order, as the keys keep it
    svals = dict.fromkeys(s for _, s in cells)

    w, h = WIDTH, HEIGHT
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif">'
    ]
    if spec.title:
        out.append(
            f'<text x="{w / 2:.2f}" y="24" text-anchor="middle" font-size="16">'
            f"{_esc(spec.title)}</text>"
        )
    if not rows:
        out.append(
            f'<text x="{w / 2:.2f}" y="{h / 2:.2f}" text-anchor="middle" '
            f'font-size="14" fill="#777">no data</text>'
        )
        out.append("</svg>")
        return "\n".join(out) + "\n"

    left, top, bottom = 62, 40, 46
    right = 140 if si is not None else 24
    pw, ph = w - left - right, h - top - bottom
    lo = min(0.0, min(cells.values()))
    hi = max(1.0, max(cells.values()))
    span = hi - lo

    for i in range(1, 6):
        gy = top + ph - ph * i / 5
        gv = lo + span / 5 * i
        out.append(
            f'<line x1="{left}" y1="{gy:.2f}" x2="{left + pw}" y2="{gy:.2f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{gy + 4:.2f}" text-anchor="end" font-size="11">{gv:g}</text>'
        )
    out.append(
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" '
        f'stroke="#333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{left - 8}" y="{top + ph + 4}" text-anchor="end" font-size="11">{lo:g}</text>'
    )

    gw = pw / len(xvals)
    bw = gw * 0.7 / len(svals)
    zero_y = top + ph * (hi / span)
    for gi, x in enumerate(xvals):
        gx = left + gi * gw
        for sj, s in enumerate(svals):
            v = cells.get((x, s))
            if v is None:
                continue
            bh = ph * (abs(v) / span)
            by = zero_y - bh if v >= 0 else zero_y
            out.append(
                f'<rect x="{gx + gw * 0.15 + sj * bw:.2f}" y="{by:.2f}" '
                f'width="{bw:.2f}" height="{bh:.2f}" fill="{PALETTE[sj % len(PALETTE)]}"/>'
            )
        out.append(
            f'<text x="{gx + gw / 2:.2f}" y="{top + ph + 16}" text-anchor="middle" '
            f'font-size="11">{_esc(x)}</text>'
        )
    if si is not None:
        for sj, s in enumerate(svals):
            out.append(
                f'<text x="{left + pw + 12}" y="{top + 14 + sj * 18}" font-size="12" '
                f'fill="{PALETTE[sj % len(PALETTE)]}">{_esc(s)}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_bar_chart(spec: ChartSpec, table: AggTable, path: str) -> str:
    """Render and write one chart; returns the path."""
    with naming(path), open(path, "wb") as fh:
        fh.write(chart_svg(spec, table).encode("utf-8"))
    return path


#: Query id -> how its table is drawn; ``report`` draws one chart per view.
CHARTS = {
    "per_year": ChartSpec("year", "count", "source", "Reviews per year"),
    "yoy": ChartSpec(
        "year", "pct_change", "source", "YoY change in review count, percent (overall)",
        where=lambda row: row["sentiment_split"] == "overall" and row["year"] != "median",
    ),
    "per_weekday": ChartSpec("weekday_name", "count", "source", "Reviews per weekday"),
    "per_month": ChartSpec("month", "count", "source", "Reviews per month"),
    "length_upvotes": ChartSpec("bucket", "mean_upvotes", title="Mean upvotes by review length bucket"),
    "sentiment_profile": ChartSpec(
        "source", "mean_length", "sentiment", "Mean review length by source and sentiment"
    ),
}
