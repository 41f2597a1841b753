"""The local review lake: JSON-lines staging with a manifest, replacing a
distributed store at desk scale.

Layout inside a lake directory: ``manifest.json``, one ``<source>.jsonl``
per source that contributed accepted records, and ``rejects.jsonl``.
:class:`LakeWriter` is the only writer: it builds the whole lake in a
hidden temp directory next to the target, fsyncs it, and renames it into
place, so readers never observe a partial lake, even after a crash.

A valid lake holds what :class:`LakeWriter` writes and nothing else.
:func:`read_lake` requires the manifest to be byte for byte the one the
writer makes of its counts, the directory to hold exactly the files those
counts name, every record line to be exactly what :func:`review_to_json`
writes followed by ``\n``, and each reject line to be what the writer
writes with tallies per source and reason equal to the manifest's. A
record line therefore has one spelling: added whitespace, another escape
of the same character, a raw non-ASCII byte, a CRLF ending or a missing
final newline is refused as loudly as a wrong value.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import re
import shutil
import tempfile
from itertools import zip_longest
from typing import NamedTuple

from reviewlake.errors import ConfigurationError, CorruptLakeError
from reviewlake.model import (
    DATE_WINDOW_HI,
    DATE_WINDOW_LO,
    REJECT_REASONS,
    SOURCES,
    UPVOTE_MAX,
    UPVOTE_MAX_DIGITS,
    RejectRecord,
    UnifiedReview,
    new_record,
)

MANIFEST_NAME = "manifest.json"
REJECTS_NAME = "rejects.jsonl"

# the C encoder json.dumps ends in for a str, with its default ensure_ascii
_encode_str = json.encoder.encode_basestring_ascii
# the C decoder json.loads uses for a str: _decode_str(s, 1) decodes the JSON
# string that opens at s[0] and returns (value, end)
_decode_str = json.decoder.scanstring
# lines LakeWriter.stage gathers before one write
_BATCH = 128


class SourceStats(NamedTuple):
    """One source's tallies; ingest fills ``blank_lines`` in after staging."""

    accepted: int
    blank_lines: int
    rejected_by_reason: dict[str, int]


class LakeManifest(NamedTuple):
    created_at: str
    per_source: dict[str, SourceStats]
    record_files: tuple[str, ...]
    stoplist_checksum: str


def record_files(per_source: dict[str, SourceStats]) -> tuple[str, ...]:
    """The record files of a lake with these tallies: one ``<source>.jsonl``
    per source with accepted records, in source order."""
    return tuple(f"{s}.jsonl" for s in sorted(per_source) if per_source[s].accepted)


def lake_timestamp() -> str:
    """Manifest timestamp; SOURCE_DATE_EPOCH pins it for reproducible runs.

    The variable must be unset, empty, or ASCII digits naming a second that
    ``datetime`` can represent (year 9999 at most); anything else is a
    ConfigurationError. Ingest calls this before it reads a row.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    now = None
    if epoch.isascii() and epoch.isdecimal():
        try:
            now = _dt.datetime.fromtimestamp(int(epoch), _dt.timezone.utc)
        except (ValueError, OverflowError, OSError):
            pass
    if now is None:
        raise ConfigurationError(
            "SOURCE_DATE_EPOCH must be empty or decimal seconds since 1970 up to year 9999, "
            f"got {epoch[:40]!r}"
        )
    return now.strftime("%Y-%m-%dT%H:%M:%SZ")


def review_to_json(r: UnifiedReview) -> str:
    """One lake line, keys in fixed order, no extra whitespace.

    ``review_text`` is cleaned text (letters and single spaces, the
    UnifiedReview invariant), so its JSON string is the text in quotes.
    """
    name, date, sentiment, upvotes, text, source = r
    return (
        f'{{"name":{_encode_str(name)},"creation_date":"{date.isoformat()}"'
        f',"sentiment":{sentiment},"upvotes":{upvotes}'
        f',"review_text":"{text}","source":"{source}"}}'
    )


# A whole line as review_to_json writes it, then "\n". The groups are: the
# name in its quotes, as _encode_str spells it (printable ASCII other than a
# quote or a backslash, or the escapes it writes, in lowercase hex); the date
# in ASCII digits; sentiment; upvotes with no leading zero; the cleaned text;
# the source. read_lake checks by value what a pattern cannot: an escaped
# name must re-encode to itself, the date must be a day in the window and
# upvotes at most UPVOTE_MAX. Possessive quantifiers never backtrack, which
# keeps the match close to the C JSON decoder's speed.
_record_line = re.compile(
    r'\{"name":("(?!")[ !#-\[\]-~]*+(?:\\(?:["\\bfnrt]|u[0-9a-f]{4})[ !#-\[\]-~]*+)*+")'
    r',"creation_date":"([0-9]{4}-[0-9]{2}-[0-9]{2})","sentiment":([01]),"upvotes":(0|[1-9][0-9]*+)'
    r',"review_text":"([A-Za-z]++(?: [A-Za-z]++)*+)","source":"([a-z]++)"\}\n'
).fullmatch


def reject_to_json(r: RejectRecord) -> str:
    return (
        f'{{"source":"{r.source}","row_number":{r.row_number}'
        f',"reason":"{r.reason}","detail":{_encode_str(r.detail)}}}'
    )


def manifest_to_json(m: LakeManifest) -> str:
    doc = {
        "created_at": m.created_at,
        "per_source": {
            src: {
                "accepted": st.accepted,
                "blank_lines": st.blank_lines,
                "rejected_by_reason": dict(sorted(st.rejected_by_reason.items())),
            }
            for src, st in sorted(m.per_source.items())
        },
        "record_files": list(m.record_files),
        "stoplist_checksum": m.stoplist_checksum,
    }
    return json.dumps(doc, indent=2) + "\n"


class LakeWriter:
    """Builds a lake in a hidden staging directory next to the target.

    The only code that knows the lake layout. ``stage`` writes one source's
    accepted records to ``<source>.jsonl`` and its rejects to a per-source
    part file; it changes no writer state, so forked workers can stage
    sources side by side. ``commit`` merges the reject parts in source
    order, writes the manifest, fsyncs every file and the staging
    directory, renames the directory over the target and fsyncs the parent.
    """

    def __init__(self, target_dir: str):
        self.target = os.path.abspath(target_dir)
        _check_target(self.target)  # refuse before a row is read, not only at commit
        self.parent = os.path.dirname(self.target)
        os.makedirs(self.parent, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=".lake-tmp-", dir=self.parent)
        self._done = False

    def _reject_part(self, source: str) -> str:
        return os.path.join(self.tmp, f"rejects-{source}.part")

    def stage(self, source: str, items) -> SourceStats:
        """Write one source's UnifiedReviews and RejectRecords, in order.

        Each file gets its lines in batches of up to _BATCH per write.
        Returns the source's tallies; blank_lines is left for the caller.
        """
        accepted = 0
        reasons: dict[str, int] = {}
        to_json = review_to_json
        rj_json = reject_to_json
        lines: list[str] = []
        rejects: list[str] = []
        rec_path = os.path.join(self.tmp, f"{source}.jsonl")
        with open(rec_path, "w", encoding="utf-8", newline="\n") as out, open(
            self._reject_part(source), "w", encoding="utf-8", newline="\n"
        ) as rej:
            for item in items:
                if item.__class__ is RejectRecord:
                    reasons[item.reason] = reasons.get(item.reason, 0) + 1
                    rejects.append(rj_json(item))
                    if len(rejects) == _BATCH:
                        _write_lines(rej, rejects)
                else:
                    lines.append(to_json(item))
                    if len(lines) == _BATCH:
                        accepted += _write_lines(out, lines)
            accepted += _write_lines(out, lines)
            _write_lines(rej, rejects)
        if accepted == 0:
            os.remove(rec_path)
        return SourceStats(accepted, 0, reasons)

    def commit(
        self, per_source: dict[str, SourceStats], created_at: str, stoplist_checksum: str
    ) -> LakeManifest:
        """Finish the lake from every staged source's stats and rename it into place."""
        tmp = self.tmp
        with open(os.path.join(tmp, REJECTS_NAME), "wb") as merged:
            for source in sorted(per_source):
                part = self._reject_part(source)
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, merged)
                os.remove(part)
        manifest = LakeManifest(created_at, per_source, record_files(per_source), stoplist_checksum)
        with open(os.path.join(tmp, MANIFEST_NAME), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest_to_json(manifest))
        for name in sorted(os.listdir(tmp)):
            _fsync(os.path.join(tmp, name))
        _fsync(tmp)
        target = self.target
        if _check_target(target):
            os.rename(target, target + f".old-{os.getpid()}")
        os.rename(tmp, target)
        self._done = True
        _fsync(self.parent)
        _remove_old_lakes(target)
        return manifest

    def abort(self) -> None:
        if not self._done:
            shutil.rmtree(self.tmp, ignore_errors=True)


def _write_lines(fh, lines: list[str]) -> int:
    """Write ``lines`` as newline-ended lines in one call, empty the list
    and return how many there were."""
    n = len(lines)
    if n:
        lines.append("")
        fh.write("\n".join(lines))
        lines.clear()
    return n


def _remove_old_lakes(target: str) -> None:
    """Remove every ``<lake>.old-<pid>`` sibling of a committed lake.

    That is this commit's old lake, and any that a commit which crashed
    between its two renames left behind.
    """
    parent, base = os.path.split(target)
    prefix = base + ".old-"
    for name in os.listdir(parent):
        pid = name[len(prefix):]
        if name.startswith(prefix) and pid.isascii() and pid.isdecimal():
            shutil.rmtree(os.path.join(parent, name))


def _check_target(target: str) -> bool:
    """Refuse a lake target that a commit must not replace; return whether it exists.

    A file, or a non-empty directory without a manifest, is a ConfigurationError.
    """
    if not os.path.exists(target):
        return False
    if not os.path.isdir(target):
        raise ConfigurationError(f"{target}: exists and is not a directory")
    if os.listdir(target) and not os.path.exists(os.path.join(target, MANIFEST_NAME)):
        raise ConfigurationError(f"{target}: refusing to replace a non-empty directory that is not a lake")
    return True


def _fsync(path: str) -> None:
    """Flush a file's or a directory's data and metadata to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_manifest(lake_dir: str) -> LakeManifest:
    """The lake's manifest; its bytes must be the ones the writer makes of its counts."""
    path = os.path.join(lake_dir, MANIFEST_NAME)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CorruptLakeError(f"{lake_dir}: no readable manifest: {exc}") from None
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CorruptLakeError(f"{path}: not valid JSON: {exc}") from None
    try:
        per_source = {}
        for src, st in doc["per_source"].items():
            if src not in SOURCES:
                raise CorruptLakeError(f"{path}: unknown source {src!r}")
            rejected = st["rejected_by_reason"]
            bad = set(rejected) - REJECT_REASONS
            if bad:
                raise CorruptLakeError(f"{path}: unknown reject reasons {sorted(bad)}")
            per_source[src] = SourceStats(
                accepted=_count(st["accepted"], f"{src} accepted", path),
                blank_lines=_count(st["blank_lines"], f"{src} blank_lines", path),
                rejected_by_reason={k: _count(v, f"{src} {k}", path) for k, v in rejected.items()},
            )
        manifest = LakeManifest(
            created_at=_typed(doc["created_at"], str, "created_at", path),
            per_source=per_source,
            record_files=record_files(per_source),
            stoplist_checksum=_typed(doc["stoplist_checksum"], str, "stoplist_checksum", path),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptLakeError(f"{path}: malformed manifest: {exc!r}") from None
    lines = zip_longest(raw.split(b"\n"), manifest_to_json(manifest).encode().split(b"\n"))
    for lineno, (got, want) in enumerate(lines, start=1):
        if got != want:
            expected = "the end of the file" if want is None else repr(want.decode())
            raise CorruptLakeError(
                f"{path}:{lineno}: not what the writer writes for these counts: expected {expected}"
            )
    return manifest


def _typed(v, cls: type, what: str, path: str):
    """A manifest value that must decode to ``cls``; nothing is coerced."""
    if v.__class__ is not cls:
        raise CorruptLakeError(f"{path}: {what} must be a {cls.__name__}, got {v!r}")
    return v


def _count(v, what: str, path: str) -> int:
    """A manifest tally: a JSON integer, not a bool, float or string, and never negative."""
    if v.__class__ is not int or v < 0:
        raise CorruptLakeError(f"{path}: {what} must be a non-negative integer, got {v!r}")
    return v


def read_lake(lake_dir: str) -> list[UnifiedReview]:
    """Load a lake's records, in record-file order, checking as it goes.

    Every line of a record file must be exactly what review_to_json writes
    for a record of that file's source, ``"\\n"`` included, with a real
    date inside the window and at most UPVOTE_MAX upvotes. Whether the text
    is stopword-free under some list is only knowable through the manifest
    checksum, so it is not re-judged here. The directory must hold exactly
    the files the manifest's counts name, and every count must match.
    """
    manifest = load_manifest(lake_dir)
    files = set(manifest.record_files) | {MANIFEST_NAME, REJECTS_NAME}
    listed = set(os.listdir(lake_dir))
    if listed != files:
        raise CorruptLakeError(
            f"{lake_dir}: a lake with these counts holds exactly {sorted(files)!r}, not {sorted(listed)!r}"
        )
    records: list[UnifiedReview] = []
    append = records.append
    match = _record_line
    dates: dict[str, _dt.date] = {}  # at most one entry per day of the window
    for fname in manifest.record_files:
        source = fname[: -len(".jsonl")]
        path = os.path.join(lake_dir, fname)
        expected = manifest.per_source[source].accepted
        start = len(records)
        try:
            # latin-1 makes each byte one character, so a byte outside ASCII
            # reaches the pattern, which refuses it with its line number
            fh = open(path, encoding="latin-1", newline="\n")
        except OSError as exc:
            raise CorruptLakeError(f"{path}: listed in manifest but unreadable: {exc}") from None
        with fh:
            for lineno, line in enumerate(fh, start=1):
                m = match(line)
                if m is None or m[6] != source:
                    raise CorruptLakeError(f"{path}:{lineno}: not a record line as the writer writes it")
                spelled, day, sentiment, upvotes, text, _ = m.groups()
                if "\\" not in spelled:
                    name = spelled[1:-1]
                else:
                    name = _decode_str(spelled, 1)[0]
                    # an escaped name must be the writer's one spelling of its value
                    if _encode_str(name) != spelled:
                        raise CorruptLakeError(f"{path}:{lineno}: not a record line as the writer writes it")
                date = dates.get(day)
                if date is None:
                    try:
                        date = _dt.date.fromisoformat(day)
                        if not DATE_WINDOW_LO <= date <= DATE_WINDOW_HI:
                            raise ValueError
                    except ValueError:
                        raise CorruptLakeError(f"{path}:{lineno}: bad creation_date {day!r}") from None
                    dates[day] = date
                # the digit count first, so int() never meets a count past its limit
                count = int(upvotes) if len(upvotes) <= UPVOTE_MAX_DIGITS else -1
                if not 0 <= count <= UPVOTE_MAX:
                    raise CorruptLakeError(f"{path}:{lineno}: upvotes must be an integer from 0 to UPVOTE_MAX")
                append(new_record(UnifiedReview, (name, date, int(sentiment), count, text, source)))
        n = len(records) - start
        if n != expected:
            raise CorruptLakeError(f"{path}: manifest claims {expected} records, file has {n}")
    _check_rejects(lake_dir, manifest)
    return records


def _check_rejects(lake_dir: str, manifest: LakeManifest) -> None:
    """Each reject line must be what the writer writes, with a positive
    row number, and the tally per (source, reason) must equal the manifest's."""
    path = os.path.join(lake_dir, REJECTS_NAME)
    expected = {
        (src, reason): n
        for src, st in manifest.per_source.items()
        for reason, n in st.rejected_by_reason.items()
        if n
    }
    tally: dict[tuple[str, str], int] = {}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CorruptLakeError(f"{path}: unreadable: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                doc = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise CorruptLakeError(f"{path}:{lineno}: bad JSON: {exc}") from None
            try:
                r = RejectRecord(doc["source"], doc["row_number"], doc["reason"], doc["detail"])
                exact = reject_to_json(r) + "\n" == line.decode("utf-8")
            except (KeyError, TypeError, ValueError):
                exact = False
            if not exact or r.row_number.__class__ is not int or r.row_number < 1:
                raise CorruptLakeError(f"{path}:{lineno}: not a reject line as the writer writes it")
            tally[r.source, r.reason] = tally.get((r.source, r.reason), 0) + 1
    if tally != expected:
        src, reason = min(k for k in tally.keys() | expected.keys() if tally.get(k) != expected.get(k))
        raise CorruptLakeError(
            f"{path}: {src} {reason}: manifest counts {expected.get((src, reason), 0)}, "
            f"file has {tally.get((src, reason), 0)}"
        )
