"""Streaming CSV and JSON lines parsing, mappings, and adaptation."""

import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlake import ingest
from reviewlake.errors import CsvParseError, MappingFileError
from reviewlake.ingest import (
    FIELD_CAP,
    SourceMapping,
    adapt,
    default_mapping,
    load_mapping,
    parse_csv,
    parse_jsonl,
)
from reviewlake.model import RawRecord, RejectRecord


def rows_of(data: bytes, source="steam", delimiter=",", stats=None):
    return list(parse_csv(io.BytesIO(data), delimiter=delimiter, source=source, stats=stats))


def test_plain_csv():
    out = rows_of(b"a,b\n1,2\n3,4\n")
    assert out == [
        RawRecord("steam", 1, {"a": "1", "b": "2"}),
        RawRecord("steam", 2, {"a": "3", "b": "4"}),
    ]


def test_quoted_fields_with_everything():
    data = b'a,b\n"x,y","say ""hi"""\n"line\nbreak",z\n'
    out = rows_of(data)
    assert out[0].fields == {"a": "x,y", "b": 'say "hi"'}
    assert out[1].fields == {"a": "line\nbreak", "b": "z"}


def test_crlf_and_bom():
    out = rows_of(b"\xef\xbb\xbfa,b\r\n1,2\r\n")
    assert out == [RawRecord("steam", 1, {"a": "1", "b": "2"})]


def test_blank_lines_counted_not_numbered():
    stats = {}
    out = rows_of(b"a,b\n\n1,2\n\r\n3,4\n", stats=stats)
    assert [r.row_number for r in out] == [1, 2]
    assert stats["blank_lines"] == 2


def test_mid_field_quote_is_literal():
    # a quote not at a field start never opens quoting
    out = rows_of(b'a,b\nit"s,fine\n')
    assert out[0].fields == {"a": 'it"s', "b": "fine"}


def test_ragged_rows_reject():
    out = rows_of(b"a,b\n1\n1,2,3\n9,9\n")
    assert [type(r).__name__ for r in out] == ["RejectRecord", "RejectRecord", "RawRecord"]
    assert out[0].reason == "ragged_row"
    assert "1 fields, expected 2" in out[0].detail
    assert out[2].row_number == 3


def test_bad_encoding_rejects_row_only():
    out = rows_of(b"a,b\nok,\xff\xfe\ngood,row\n")
    assert out[0].reason == "bad_encoding"
    assert out[1].fields == {"a": "good", "b": "row"}


def test_unterminated_quote_reports_byte_offset():
    data = b'a,b\nx,"never closed\nmore\n'
    with pytest.raises(CsvParseError) as ei:
        rows_of(data)
    assert ei.value.byte_offset == 6  # the opening quote

def test_header_errors():
    with pytest.raises(CsvParseError):
        rows_of(b"")
    with pytest.raises(CsvParseError):
        rows_of(b"a,a\n1,2\n")
    with pytest.raises(CsvParseError):
        rows_of(b"a,\xff\n1,2\n")


def test_delimiter_validation():
    out = rows_of(b"a;b\n1;2\n", delimiter=";")
    assert out[0].fields == {"a": "1", "b": "2"}


def test_oversize_record_discarded_not_fatal():
    big = b"x" * (12 * FIELD_CAP)
    out = rows_of(b"a,b\n" + big + b",2\nok,2\n")
    assert out[0].reason == "oversize_field"
    assert out[1].fields == {"a": "ok", "b": "2"}


def test_oversize_single_field_rejected():
    field = b"y" * (FIELD_CAP + 1)
    out = rows_of(b"a,b\n" + field + b",2\n")
    assert out[0].reason == "oversize_field"


def test_round_trip_against_stdlib_writer():
    """Anything csv.writer can serialize, the scanner must read back."""
    import csv as stdcsv

    rng = random.Random(31337)
    alphabet = 'ab,"\n\r\t é;x'
    for _ in range(300):
        ncols = rng.randrange(1, 5)
        table = []
        for _ in range(rng.randrange(0, 8)):
            table.append(
                ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12))) for _ in range(ncols)]
            )
        buf = io.StringIO()
        w = stdcsv.writer(buf, lineterminator="\r\n")
        w.writerow([f"c{i}" for i in range(ncols)])
        for row in table:
            w.writerow(row)
        parsed = rows_of(buf.getvalue().encode("utf-8"))
        got = [[r.fields[f"c{i}"] for i in range(ncols)] for r in parsed if r.__class__ is RawRecord]
        # csv.writer quotes a lone empty field, so even those round-trip
        assert got == table, (table, got)


def _reference_split_fields(rec, dl):
    """_split_fields as written before it split quote-free runs of fields at once."""
    if rec.find(b'"') < 0:
        return rec.split(dl)
    out = []
    i = 0
    length = len(rec)
    while True:
        if i < length and rec[i] == 0x22:
            j = i + 1
            parts = []
            while True:
                k = rec.find(b'"', j)
                if k < 0:
                    return None
                if rec[k + 1 : k + 2] == b'"':
                    parts.append(rec[j : k + 1])
                    j = k + 2
                else:
                    parts.append(rec[j:k])
                    i = k + 1
                    break
            d = rec.find(dl, i)
            if d < 0:
                parts.append(rec[i:])
                out.append(b"".join(parts))
                return out
            parts.append(rec[i:d])
            out.append(b"".join(parts))
            i = d + 1
        else:
            d = rec.find(dl, i)
            if d < 0:
                out.append(rec[i:])
                return out
            out.append(rec[i:d])
            i = d + 1


_RECORD_PIECE = st.sampled_from([b",", b";", b'"', b'""', b"a", b"bc", b" ", b"\n"])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_RECORD_PIECE, max_size=16), st.sampled_from([b",", b";"]))
def test_split_fields_matches_the_field_by_field_reference(pieces, dl):
    rec = b"".join(pieces)
    assert ingest._split_fields(rec, dl) == _reference_split_fields(rec, dl)


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------


def jl(data: bytes, stats=None):
    return list(parse_jsonl(io.BytesIO(data), source="imdb", stats=stats))


def test_jsonl_happy_path_and_scalar_conversion():
    line = b'{"movie": "M", "n": 3, "f": 1.50, "t": true, "x": false, "z": null}\n'
    out = jl(line)
    assert out[0].fields == {"movie": "M", "n": "3", "f": "1.50", "t": "true", "x": "false", "z": ""}


def test_jsonl_numbers_keep_source_spelling():
    out = jl(b'{"a": 007, "b": 1e3}\n')  # 007 is not legal JSON
    assert out[0].reason == "bad_json"
    out = jl(b'{"a": 10000000000000000000000000, "b": 0.1234567890123456789}\n')
    assert out[0].fields == {"a": "10000000000000000000000000", "b": "0.1234567890123456789"}


def test_jsonl_rejects():
    out = jl(b'{broken\n[1,2]\n{"a": {"b": 1}}\n{"a": [1]}\n\xff\xff\n{"ok": "yes"}\n')
    assert [r.reason for r in out[:5]] == [
        "bad_json", "unsupported_shape", "unsupported_shape", "unsupported_shape", "bad_encoding",
    ]
    assert out[5] == RawRecord("imdb", 6, {"ok": "yes"})


def test_jsonl_bom_line_keeps_the_json_loads_detail():
    out = jl(b'\xef\xbb\xbf{"a": "1"}\n{"a": "2"}\n')
    with pytest.raises(json.JSONDecodeError) as ei:
        json.loads('\ufeff{"a": "1"}')
    assert out[0] == RejectRecord("imdb", 1, "bad_json", str(ei.value)[:120])
    assert out[0].detail.startswith("Unexpected UTF-8 BOM (decode using utf-8-sig)")
    assert out[1] == RawRecord("imdb", 2, {"a": "2"})


def test_jsonl_field_cap_holds_on_the_all_string_path_and_the_other():
    cap = "y" * FIELD_CAP
    escaped = "\\n" * FIELD_CAP  # a FIELD_CAP-char value spelled with twice the chars
    lines = [
        json.dumps({"a": cap, "b": "x"}),
        json.dumps({"a": cap + "y", "b": "x"}),
        '{"a": "' + escaped + '", "b": "x"}',
        '{"a": "' + escaped + 'y", "b": true}',
        json.dumps({"a": cap + "y", "b": True}),
    ]
    out = jl("\n".join(lines).encode("ascii") + b"\n")
    assert out[0] == RawRecord("imdb", 1, {"a": cap, "b": "x"}) and out[0].__class__ is RawRecord
    assert out[1] == RejectRecord("imdb", 2, "oversize_field", "field 'a' over cap")
    assert out[2] == RawRecord("imdb", 3, {"a": "\n" * FIELD_CAP, "b": "x"})
    assert out[3] == RejectRecord("imdb", 4, "oversize_field", "field 'a' over cap")
    assert out[4] == RejectRecord("imdb", 5, "oversize_field", "field 'a' over cap")


def test_jsonl_blank_lines():
    stats = {}
    out = jl(b'{"a": "1"}\n\n  \n{"a": "2"}\n', stats=stats)
    assert [r.row_number for r in out] == [1, 2]
    assert stats["blank_lines"] == 2


# ---------------------------------------------------------------------------
# mappings and adaptation
# ---------------------------------------------------------------------------


def test_default_mappings_cover_all_sources():
    for src, scheme in (
        ("amazon", "star_rating"),
        ("yelp", "five_class_label"),
        ("steam", "binary_label"),
        ("imdb", "five_class_label"),
    ):
        m = default_mapping(src)
        assert m.source == src
        assert m.sentiment_scheme == scheme
        assert set(m.column_map) == {"name", "date", "sentiment", "upvotes", "text"}
        assert len(m.date_formats) >= 1


def test_load_mapping_validation(tmp_path):
    good = {
        "source": "steam",
        "column_map": {"name": "n", "date": "d", "sentiment": "s", "upvotes": "u", "text": "t"},
        "sentiment_scheme": "binary_label",
        "date_formats": ["iso"],
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(good), encoding="utf-8")
    m = load_mapping(str(p))
    assert m.delimiter == ","

    for mutate in (
        lambda d: d.pop("source"),
        lambda d: d.update(source="ebay"),
        lambda d: d.update(extra=1),
        lambda d: d["column_map"].pop("text"),
        lambda d: d["column_map"].update(badfield="x"),
        lambda d: d.update(sentiment_scheme="stars"),
        lambda d: d.update(date_formats=[]),
        lambda d: d.update(date_formats=["iso", "maya_long_count"]),
        lambda d: d.update(date_formats=[["iso"]]),
        lambda d: d.update(delimiter="ab"),
        lambda d: d.update(delimiter=";;"),
        lambda d: d.update(delimiter=""),
        lambda d: d.update(delimiter=9),
        lambda d: d.update(delimiter='"'),
        lambda d: d.update(delimiter="\r"),
        lambda d: d.update(delimiter="\n"),
        lambda d: d.update(delimiter="\x7f"),
        lambda d: d.update(delimiter="\u00e9"),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(MappingFileError, match=re.escape(str(p))):
            load_mapping(str(p))
    # the rule is any one ASCII character but a double quote, CR and LF
    for delim in ("\t", "\x00", ";", "~"):
        p.write_text(json.dumps(dict(good, delimiter=delim)), encoding="utf-8")
        assert load_mapping(str(p)).delimiter == delim


def test_adapt_maps_columns():
    m = default_mapping("steam")
    rec = RawRecord("steam", 9, {
        "app_name": "G", "timestamp_created": "86400", "voted_up": "true",
        "votes_up": "5", "review": "Nice",
    })
    d = adapt(rec, m)
    assert (d.name_raw, d.date_raw, d.sentiment_raw, d.upvotes_raw, d.text_raw) == (
        "G", "86400", "true", "5", "Nice",
    )
    assert d.source == "steam" and d.row_number == 9


def test_adapt_missing_column():
    m = default_mapping("steam")
    out = adapt(RawRecord("steam", 1, {"app_name": "G"}), m)
    assert out.reason == "missing_column"
    assert out.detail == "timestamp_created"


def test_adapt_null_required_fields():
    m = default_mapping("steam")
    base = {"app_name": "G", "timestamp_created": "1", "voted_up": "1", "votes_up": "", "review": "ok"}
    d = adapt(RawRecord("steam", 1, dict(base)), m)
    assert d.upvotes_raw == ""  # empty upvotes is allowed, means zero
    for col, unified in (("app_name", "name"), ("timestamp_created", "date"),
                         ("voted_up", "sentiment"), ("review", "text")):
        fields = dict(base)
        fields[col] = ""
        out = adapt(RawRecord("steam", 1, fields), m)
        assert out.reason == "null_field"
        assert out.detail == unified
