"""Byte-exact table emission and deterministic SVG chart rendering."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from reviewlake import analytics, report
from reviewlake.errors import ConfigurationError
from reviewlake.model import UPVOTE_MAX, AggTable

SVG = "{http://www.w3.org/2000/svg}"


def svg_elems(svg_text, tag):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG}{tag}")


def rect_boxes(svg_text):
    out = []
    for r in svg_elems(svg_text, "rect"):
        out.append({k: float(r.get(k)) for k in ("x", "y", "width", "height")} | {"fill": r.get("fill")})
    return out


T = AggTable(("year", "source", "count"), [(2019, "yelp", 1), (2020, "steam", 2), (2020, "yelp", 1)])


def test_csv_bytes_exact():
    t = AggTable(("k", "pct", "label"), [(3, -20.0, "a,b"), (4, 0.5, 'say "hi"')])
    assert report.table_to_csv_bytes(t) == (
        b'k,pct,label\n3,-20.000000,"a,b"\n4,0.500000,"say ""hi"""\n'
    )


def test_json_bytes_exact():
    t = AggTable(("k", "pct", "label"), [(3, -20.0, "a,b")])
    assert report.table_to_json_bytes(t) == (
        b'[\n  {"k":3,"pct":-20.000000,"label":"a,b"}\n]\n'
    )
    assert json.loads(report.table_to_json_bytes(t)) == [
        {"k": 3, "pct": -20.0, "label": "a,b"}
    ]


def test_json_floats_round_to_six_places():
    t = AggTable(("v",), [(0.1234567891,)])
    assert json.loads(report.table_to_json_bytes(t)) == [{"v": 0.123457}]


def test_json_empty_table():
    assert report.table_to_json_bytes(AggTable(("v",), [])) == b"[]\n"


def test_table_compares_by_value():
    assert AggTable(("a",), [(1,)]) == AggTable(("a",), [(1,)])
    assert AggTable(("a",), [(1,)]) != AggTable(("a",), [(1,)], ("a note",))


def test_emit_table_formats(tmp_path):
    p = report.emit_table(T, "csv", str(tmp_path / "t.csv"))
    assert Path(p).read_bytes().startswith(b"year,source,count\n2019,yelp,1\n")
    p = report.emit_table(T, "json", str(tmp_path / "t.json"))
    assert json.loads(Path(p).read_bytes())[0] == {"year": 2019, "source": "yelp", "count": 1}


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def spec_for(**kw):
    base = dict(x="year", y="count", series="source", title="Demo")
    base.update(kw)
    return report.ChartSpec(**base)


def test_chart_is_deterministic_and_wellformed():
    svg1 = report.chart_svg(spec_for(), T)
    svg2 = report.chart_svg(
        spec_for(),
        AggTable(T.columns, list(T.rows)),
    )
    assert svg1 == svg2
    ET.fromstring(svg1)  # must parse as XML
    assert svg1.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg1.endswith("</svg>\n")


def test_bars_are_the_only_rects_and_sparse_cells_draw_none():
    # 3 populated (year, source) cells out of a 2x2 grid: exactly 3 bars
    svg = report.chart_svg(spec_for(), T)
    assert len(rect_boxes(svg)) == 3
    assert svg.count("<rect") == 3


def test_bar_heights_proportional_to_values():
    t = AggTable(("k", "v"), [("a", 10), ("b", 5), ("c", 1)])
    svg = report.chart_svg(report.ChartSpec(x="k", y="v"), t)
    boxes = rect_boxes(svg)
    assert len(boxes) == 3
    h10, h5, h1 = (b["height"] for b in boxes)
    assert abs(h10 - 2 * h5) <= 0.5
    assert abs(h10 - 10 * h1) <= 0.5
    # all bars share a baseline when every value is positive
    bottoms = {round(b["y"] + b["height"], 2) for b in boxes}
    assert len(bottoms) == 1


def test_negative_bars_hang_below_zero():
    t = AggTable(("k", "v"), [("up", 30.0), ("down", -15.0)])
    svg = report.chart_svg(report.ChartSpec(x="k", y="v"), t)
    up, down = rect_boxes(svg)
    zero_y = up["y"] + up["height"]
    assert abs(down["y"] - zero_y) <= 0.02
    assert abs(up["height"] - 2 * down["height"]) <= 0.5


def test_gridlines_and_axis():
    svg = report.chart_svg(spec_for(), T)
    lines = svg_elems(svg, "line")
    assert len(lines) == 6  # five gridlines plus the baseline
    assert sum(1 for ln in lines if ln.get("stroke") == "#ddd") == 5
    assert sum(1 for ln in lines if ln.get("stroke") == "#333") == 1


def test_series_legend_and_palette():
    svg = report.chart_svg(spec_for(), T)
    fills = [t.get("fill") for t in svg_elems(svg, "text") if t.get("fill")]
    assert fills == [report.PALETTE[0], report.PALETTE[1]]
    legend = [t.text for t in svg_elems(svg, "text") if t.get("fill")]
    assert legend == ["yelp", "steam"]  # first-seen order, not sorted
    bar_fills = {b["fill"] for b in rect_boxes(svg)}
    assert bar_fills == {report.PALETTE[0], report.PALETTE[1]}


def test_a_repeated_pair_draws_its_last_value_in_first_appearance_order():
    # x "a" and series "s1" appear first and again after "b" and "s2"; the pair
    # ("a", "s1") repeats, and its last row wins
    repeated = AggTable(T.columns, [("a", "s1", 2), ("b", "s2", 1), ("b", "s1", 3), ("a", "s1", 9)])
    once = AggTable(T.columns, [("a", "s1", 9), ("b", "s2", 1), ("b", "s1", 3)])
    svg = report.chart_svg(spec_for(), repeated)
    assert svg == report.chart_svg(spec_for(), once)
    labels = [t.text for t in svg_elems(svg, "text") if t.get("font-size") == "11" and t.get("text-anchor") == "middle"]
    assert labels == ["a", "b"]
    assert [t.text for t in svg_elems(svg, "text") if t.get("fill")] == ["s1", "s2"]
    heights = sorted(b["height"] for b in rect_boxes(svg))
    assert len(heights) == 3 and abs(heights[-1] - 3 * heights[-2]) <= 0.5  # 9 drawn, not 2


def test_no_series_chart_has_no_legend():
    t = AggTable(("k", "v"), [("a", 2)])
    svg = report.chart_svg(report.ChartSpec(x="k", y="v"), t)
    assert [x.get("fill") for x in svg_elems(svg, "text") if x.get("fill")] == []


def test_chart_of_a_value_near_the_float_max_stays_finite():
    t = AggTable(("k", "v"), [("a", float(UPVOTE_MAX)), ("b", 1.0)])
    svg = report.chart_svg(report.ChartSpec(x="k", y="v"), t)
    assert "inf" not in svg and "nan" not in svg
    tall, short = rect_boxes(svg)
    assert 0 < tall["y"] and tall["y"] + tall["height"] <= report.HEIGHT
    assert short["height"] == 0.0
    labels = [x.text for x in svg_elems(svg, "text")]
    assert labels == [f"{float(UPVOTE_MAX) / 5 * i:g}" for i in range(1, 6)] + ["0", "a", "b"]


def test_empty_table_renders_no_data():
    svg = report.chart_svg(spec_for(), AggTable(T.columns, []))
    assert "no data" in svg
    assert "<rect" not in svg
    ET.fromstring(svg)


def test_title_and_labels_escaped():
    t = AggTable(("k", "v"), [('A<B & "C"', 1)])
    svg = report.chart_svg(report.ChartSpec(x="k", y="v", title='T<&>"q"'), t)
    ET.fromstring(svg)
    texts = [x.text for x in svg_elems(svg, "text")]
    assert 'T<&>"q"' in texts
    assert 'A<B & "C"' in texts


def test_chart_rejects_non_numeric_y():
    bad = AggTable(("k", "v"), [("a", "tall")])
    with pytest.raises(ConfigurationError):
        report.chart_svg(report.ChartSpec(x="k", y="v"), bad)
    with pytest.raises(ConfigurationError):
        report.chart_svg(
            report.ChartSpec(x="k", y="v"), AggTable(("k", "v"), [("a", True)])
        )
    with pytest.raises(ConfigurationError):
        report.chart_svg(
            report.ChartSpec(x="k", y="v"),
            AggTable(("k", "v"), [("a", float("nan"))]),
        )


def test_emit_bar_chart_writes_utf8(tmp_path):
    p = report.emit_bar_chart(spec_for(title="café"), T, str(tmp_path / "c.svg"))
    blob = Path(p).read_bytes()
    assert blob.decode("utf-8").startswith("<svg ")
    assert "café" in blob.decode("utf-8")


def test_charts_cover_catalog():
    assert tuple(report.CHARTS) == analytics.QUERY_IDS
    assert all(spec.title for spec in report.CHARTS.values())


def test_yoy_chart_draws_the_overall_rows_without_the_median():
    rows = [
        ("steam", "2020", 10.0, "negative"),
        ("steam", "2020", 20.0, "overall"),
        ("steam", "2021", -5.0, "overall"),
        ("steam", "median", 7.5, "overall"),
    ]
    t = AggTable(("source", "year", "pct_change", "sentiment_split"), rows)
    svg = report.chart_svg(report.CHARTS["yoy"], t)
    assert len(rect_boxes(svg)) == 2
    labels = {x.text for x in svg_elems(svg, "text")}
    assert {"2020", "2021"} <= labels and "median" not in labels
