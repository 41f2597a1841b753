"""Streaming source-export parsers, the per-source column adapters, and
:func:`iter_source`, the one loop that turns a source file into cleaned
reviews and rejects.

Every parser yields one item per data record or blank line: a RawRecord,
a RejectRecord, or None for a blank line. The header yields nothing. So
each physical row of a source has exactly one item, and the lake writer
tallies all of them in one place.

The CSV reader works on raw bytes in bounded memory. One quote-aware scan
finds each record's end and each quoted field's quotes (quoted fields may
hold delimiters, doubled-quote escapes, and embedded newlines); the split
cuts fields at those positions without looking for quotes again. Each
record is split and UTF-8 decoded on its own, and a malformed row costs
exactly one reject instead of the file. Records that outgrow the size cap
are dropped in a resynchronizing discard mode, so a runaway quote cannot
buffer the rest of the file.

Leniencies, chosen to match what common exporters emit: LF and CRLF line
endings both end records, a last line without one ends the same way, a
UTF-8 BOM before the header is ignored, quotes opened mid-field are literal
characters, and bytes between a closing quote and the next delimiter are
kept as-is.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from reviewlake import clean
from reviewlake.clean import DATE_FORMAT_IDS, SENTIMENT_SCHEMES
from reviewlake.errors import CsvParseError, MappingFileError, naming
from reviewlake.model import RawRecord, RejectRecord, SOURCES, UnifiedDraft, new_record

FIELD_CAP = 1 << 20  # one field may not exceed 1 MiB
_CHUNK = 1 << 18
_MAX_JSON_LINE = 1 << 24
_QUOTE = 0x22
_CR = 0x0D
_BOM = b"\xef\xbb\xbf"
# one decoder for every line: json.loads with parse hooks builds a new one per call
_decode_json = json.JSONDecoder(parse_int=str, parse_float=str, parse_constant=str).decode


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _scan_records(stream, dl: int, caps: list[int]):
    """Yield ("rec", record_bytes, quotes) per CSV record, ("blank", None,
    None) per blank line, and ("big", None, None) per record longer than the
    size cap (caps[0], readable each check so the caller can widen it once
    the header fixes the column count). A record's length, its bytes before
    its LF with a CR included, is judged where the record ends; a record
    that outgrows the cap before then is discarded as it is read.

    This is the one place that knows RFC-4180 quoting and where a record
    ends. A quote opens a field only at a field start (record start or right
    after a delimiter); elsewhere it is content. ``quotes`` is a fresh list
    of each quoted field's (opening quote, closing quote) positions in the
    record, for :func:`_fields`. LF ends a record, and a CR before it is
    dropped; the last line ends the same way, as if an LF followed it. An
    unterminated quote at end of input aborts with the opening quote's byte
    offset. A UTF-8 BOM that starts the stream is skipped here, so a quote
    right after it opens the header's first field; offsets still count from
    the stream's first byte.
    """
    read = stream.read
    buf = read(len(_BOM))
    base = 0  # file offset of buf[0]
    if buf == _BOM:
        buf, base = b"", len(_BOM)
    rstart = 0  # record start within buf
    spos = 0  # scan resume position
    inq = False
    qopen = -1  # file offset of the open quote
    quotes: list[tuple[int, int]] = []
    discard = False
    eof = False
    while True:
        blen = len(buf)
        while spos < blen:
            if inq:
                k = buf.find(b'"', spos)
                if k < 0:
                    spos = blen
                elif k + 1 == blen:
                    break  # quote is the last byte: escape or close? read on
                elif buf[k + 1] == _QUOTE:
                    spos = k + 2  # doubled quote, stay inside
                else:
                    inq = False
                    if not discard:  # a discarded record's quotes would pile up unbounded
                        quotes.append((qopen - base - rstart, k - rstart))  # compaction keeps these
                    spos = k + 1
            else:
                n = buf.find(b"\n", spos)
                limit = n if n >= 0 else blen
                q = buf.find(b'"', spos, limit)
                while q >= 0 and q != rstart and buf[q - 1] != dl:
                    q = buf.find(b'"', q + 1, limit)  # literal mid-field quote
                if q >= 0:
                    inq = True
                    qopen = base + q
                    spos = q + 1
                elif n >= 0:
                    end = n
                    if end > rstart and buf[end - 1] == _CR:
                        end -= 1
                    if discard or n - rstart > caps[0]:
                        discard = False
                        yield ("big", None, None)
                    elif end > rstart:
                        yield ("rec", buf[rstart:end], quotes)
                    else:
                        yield ("blank", None, None)
                    quotes = []
                    rstart = spos = n + 1
                else:
                    spos = blen
        if eof:
            if inq:
                raise CsvParseError("unterminated quoted field", byte_offset=qopen)
            return
        if not discard and len(buf) - rstart > caps[0]:  # no LF ends this record yet
            discard = True
        if discard:
            # keep one byte of context so the field-start test stays valid
            keep = spos - 1 if spos > 0 else 0
            base += keep
            buf = buf[keep:]
            spos -= keep
            rstart = 0
        elif rstart > 0:
            base += rstart
            buf = buf[rstart:]
            spos -= rstart
            rstart = 0
        chunk = read(_CHUNK)
        if chunk:
            buf += chunk
        else:
            eof = True
            if buf:  # bytes after the last LF: their line ends like every other
                buf += b"\n"


def _fields(rec: bytes, quotes: list[tuple[int, int]], dl: bytes) -> list[bytes]:
    """Split one record into raw field bytes, given its quoted fields'
    (opening quote, closing quote) positions from :func:`_scan_records`.

    A quoted field is its content with doubled quotes undoubled, plus the
    bytes after the closing quote up to the next delimiter.
    """
    out = []
    i = 0  # start of the next field
    for qo, qc in quotes:
        if qo > i:  # the fields before this one hold no quoted field
            out += rec[i : qo - 1].split(dl)
        d = rec.find(dl, qc + 1)
        if d < 0:
            d = len(rec)
        out.append(rec[qo + 1 : qc].replace(b'""', b'"') + rec[qc + 1 : d])
        i = d + 1
    if i <= len(rec):
        out += rec[i:].split(dl)
    return out


def parse_csv(stream, delimiter: str = ",", *, source: str):
    """Parse a CSV byte stream into RawRecords, yielding RejectRecords for
    rows that fail structurally (ragged_row, oversize_field, bad_encoding)
    and None for each blank line.

    The first record is the header and sets the expected field count. Row
    numbers are 1-based over non-blank data records: a blank line takes no
    row number. File-level damage (no header, duplicate header names,
    unterminated quote) raises CsvParseError instead of rejecting.
    ``source`` and ``delimiter`` are a mapping's, which loading it has checked.
    """
    dlb = delimiter.encode("ascii")
    caps = [2 * FIELD_CAP + 65536]
    header: tuple[str, ...] | None = None
    ncols = 0
    row = 0
    for kind, rec, quotes in _scan_records(stream, dlb[0], caps):
        if kind == "blank":
            yield None
            continue
        if header is None:
            if kind == "big":
                raise CsvParseError(f"header record exceeds {caps[0]} bytes")
            fields = _fields(rec, quotes, dlb)
            try:
                header = tuple(f.decode("utf-8") for f in fields)
            except UnicodeDecodeError as exc:
                raise CsvParseError(f"header is not valid UTF-8: {exc}") from None
            if len(set(header)) != len(header):
                raise CsvParseError("duplicate column names in header")
            ncols = len(header)
            caps[0] = ncols * (2 * FIELD_CAP + 3) + 65536  # worst case: all-quote fields
            continue
        row += 1
        if kind == "big":
            yield RejectRecord(source, row, "oversize_field", "record exceeds size cap")
            continue
        fields = _fields(rec, quotes, dlb)
        if len(fields) != ncols:
            yield RejectRecord(source, row, "ragged_row", f"{len(fields)} fields, expected {ncols}")
            continue
        # no field is longer than its record, so most rows skip the field scan
        if len(rec) > FIELD_CAP and max(map(len, fields)) > FIELD_CAP:
            yield RejectRecord(source, row, "oversize_field", f"field over {FIELD_CAP} bytes")
            continue
        try:
            values = dict(zip(header, map(bytes.decode, fields)))
        except UnicodeDecodeError as exc:
            yield RejectRecord(source, row, "bad_encoding", str(exc)[:120])
            continue
        yield new_record(RawRecord, (source, row, values))
    if header is None:
        raise CsvParseError("empty input: a header row is required")


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------


def parse_jsonl(stream, *, source: str):
    """Parse one flat JSON object per line into RawRecords.

    Numbers keep their source spelling (parse hooks return the literal
    text), booleans become "true"/"false", null becomes the empty string.
    Nested objects or arrays reject the line as unsupported_shape; malformed
    JSON is bad_json; a blank line yields None and takes no row number.
    ``source`` is a mapping's, which loading it has checked.
    """
    readline = stream.readline
    row = 0
    while True:
        line = readline(_MAX_JSON_LINE + 1)
        if not line:
            return
        if len(line) > _MAX_JSON_LINE and not line.endswith(b"\n"):
            row += 1
            while True:  # swallow the rest of the physical line
                more = readline(_MAX_JSON_LINE)
                if not more or more.endswith(b"\n"):
                    break
            yield RejectRecord(source, row, "oversize_field", "line exceeds size cap")
            continue
        stripped = line.strip()
        if not stripped:
            yield None
            continue
        row += 1
        try:
            text = stripped.decode("utf-8")
        except UnicodeDecodeError as exc:
            yield RejectRecord(source, row, "bad_encoding", str(exc)[:120])
            continue
        try:
            if text.startswith("\ufeff"):  # as json.loads does before it decodes
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
            obj = _decode_json(text)
        except ValueError as exc:
            yield RejectRecord(source, row, "bad_json", str(exc)[:120])
            continue
        except RecursionError:  # nested deeper than the decoder goes: not flat either way
            yield RejectRecord(source, row, "unsupported_shape", "nested too deep to decode")
            continue
        if obj.__class__ is not dict:
            yield RejectRecord(source, row, "unsupported_shape", "top-level value is not an object")
            continue
        # a str decoded from a line no longer than the cap is within it too
        capped = len(text) > FIELD_CAP
        bad: RejectRecord | None = None
        for key, val in obj.items():  # the decoded map becomes the field map
            if val.__class__ is str:
                if capped and len(val) > FIELD_CAP:
                    bad = RejectRecord(source, row, "oversize_field", f"field {key!r} over cap")
                    break
            elif val is True:
                obj[key] = "true"
            elif val is False:
                obj[key] = "false"
            elif val is None:
                obj[key] = ""
            else:
                bad = RejectRecord(source, row, "unsupported_shape", f"nested value under {key!r}")
                break
        yield bad if bad is not None else new_record(RawRecord, (source, row, obj))


# ---------------------------------------------------------------------------
# source mappings and the adapter
# ---------------------------------------------------------------------------

UNIFIED_FIELDS = ("name", "date", "sentiment", "upvotes", "text")

#: Unified fields that must be non-empty at adaptation time. Upvotes is
#: exempt: an empty count later parses as zero engagement.
_REQUIRED = ("name", "date", "sentiment", "text")


class SourceMapping(NamedTuple):
    """How one source's columns project onto the unified draft schema."""

    source: str
    column_map: dict[str, str]
    sentiment_scheme: str
    date_formats: tuple[str, ...]
    delimiter: str = ","


def _mapping_from_obj(obj, origin: str) -> SourceMapping:
    if not isinstance(obj, dict):
        raise MappingFileError(f"{origin}: mapping must be a JSON object")
    allowed = {"source", "column_map", "sentiment_scheme", "date_formats", "delimiter"}
    unknown = set(obj) - allowed
    if unknown:
        raise MappingFileError(f"{origin}: unknown keys {sorted(unknown)}")
    missing = {"source", "column_map", "sentiment_scheme", "date_formats"} - set(obj)
    if missing:
        raise MappingFileError(f"{origin}: missing keys {sorted(missing)}")
    source = obj["source"]
    if source not in SOURCES:
        raise MappingFileError(f"{origin}: source must be one of {SOURCES}, got {source!r}")
    cmap = obj["column_map"]
    if not isinstance(cmap, dict) or set(cmap) != set(UNIFIED_FIELDS):
        raise MappingFileError(f"{origin}: column_map must map exactly {UNIFIED_FIELDS}")
    for k, v in cmap.items():
        if not isinstance(v, str) or not v:
            raise MappingFileError(f"{origin}: column_map[{k!r}] must be a non-empty string")
    scheme = obj["sentiment_scheme"]
    if scheme not in SENTIMENT_SCHEMES:
        raise MappingFileError(f"{origin}: sentiment_scheme must be one of {SENTIMENT_SCHEMES}")
    fmts = obj["date_formats"]
    if (
        not isinstance(fmts, list)
        or not fmts
        or not all(isinstance(f, str) for f in fmts)
        or len(set(fmts)) != len(fmts)
        or any(f not in DATE_FORMAT_IDS for f in fmts)
    ):
        raise MappingFileError(
            f"{origin}: date_formats must be a non-empty list without repeats, ids from {DATE_FORMAT_IDS}"
        )
    delim = obj.get("delimiter", ",")
    if not isinstance(delim, str) or len(delim) != 1 or delim in '"\r\n' or ord(delim) > 126:
        raise MappingFileError(
            f"{origin}: delimiter must be one ASCII character other than a double quote, CR or LF, got {delim!r}"
        )
    return SourceMapping(source, dict(cmap), scheme, tuple(fmts), delim)


def load_mapping(path: str) -> SourceMapping:
    """Read and validate a mapping file; bad shape or values raise MappingFileError."""
    try:
        with naming(path), open(path, "rb") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise MappingFileError(f"{path}: not valid JSON: {exc}") from None
    return _mapping_from_obj(obj, path)


def default_mapping(source: str) -> SourceMapping:
    """The bundled mapping for a source; user mapping files override it."""
    blob = resources.files("reviewlake").joinpath(f"data/mappings/{source}.json").read_text("utf-8")
    return _mapping_from_obj(json.loads(blob), f"builtin mapping {source!r}")


def adapt(record: RawRecord, mapping: SourceMapping) -> UnifiedDraft | RejectRecord:
    """Project one raw record onto the unified draft fields.

    Columns the mapping does not mention are dropped. A mapped column absent
    from the record is missing_column; an empty value in a required field is
    null_field already at this stage.
    """
    source, row_number, fields = record
    cmap = mapping.column_map
    try:
        name = fields[cmap["name"]]
        date = fields[cmap["date"]]
        sentiment = fields[cmap["sentiment"]]
        upvotes = fields[cmap["upvotes"]]
        text = fields[cmap["text"]]
    except KeyError:
        col = next(cmap[u] for u in UNIFIED_FIELDS if cmap[u] not in fields)
        return RejectRecord(source, row_number, "missing_column", col)
    if not (name and date and sentiment and text):
        unified = next(u for u, v in zip(_REQUIRED, (name, date, sentiment, text)) if not v)
        return RejectRecord(source, row_number, "null_field", unified)
    return new_record(UnifiedDraft, (name, date, sentiment, upvotes, text, source, row_number))


# ---------------------------------------------------------------------------
# one source file, row by row
# ---------------------------------------------------------------------------


def iter_source(path: str, mapping: SourceMapping, stops):
    """Parse, adapt and clean one source file; one item per data record or
    blank line.

    Yields, in file order, a UnifiedReview for each accepted row, a
    RejectRecord for each rejected one and None for each blank line. A
    ``.jsonl`` or ``.ndjson`` file is JSON lines; anything else is CSV with
    the mapping's delimiter. A fatal CsvParseError names the file, and the
    byte offset (from 0) where it is known.
    """
    source = mapping.source
    adapt_ = adapt
    cleaner = clean.clean_review
    with naming(path), open(path, "rb") as fh:  # a failed read names the source, not the lake file
        if path.endswith((".jsonl", ".ndjson")):
            items = parse_jsonl(fh, source=source)
        else:
            items = parse_csv(fh, delimiter=mapping.delimiter, source=source)
        try:
            for item in items:
                if item.__class__ is RawRecord:
                    item = adapt_(item, mapping)
                    if item.__class__ is not RejectRecord:
                        item = cleaner(item, stops, mapping)
                yield item
        except CsvParseError as exc:
            where = "" if exc.byte_offset is None else f" at byte {exc.byte_offset}"
            raise CsvParseError(f"{path}: {exc}{where}", byte_offset=exc.byte_offset) from None
