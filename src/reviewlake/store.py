"""The local review lake: JSON-lines staging with a manifest, replacing a
distributed store at desk scale.

Layout inside a lake directory: ``manifest.json``, one ``<source>.jsonl``
per source that contributed accepted records, and ``rejects.jsonl``.
:class:`LakeWriter` is the only writer: it builds the whole lake in a
hidden temp directory next to the target, fsyncs it, and renames it into
place, so readers never observe a partial lake, even after a crash. Reads
revalidate every record against the unified-schema invariants and
cross-check counts against the manifest, refusing corrupted lakes loudly.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass

from reviewlake import engine
from reviewlake.engine import PartitionedDataset
from reviewlake.errors import ConfigurationError, CorruptLakeError
from reviewlake.model import (
    DATE_WINDOW_HI,
    DATE_WINDOW_LO,
    REJECT_REASONS,
    SOURCES,
    RejectRecord,
    UnifiedReview,
)

MANIFEST_NAME = "manifest.json"
REJECTS_NAME = "rejects.jsonl"

_dumps = json.dumps
# raw_decode skips decode()'s two whitespace scans; read_lake checks the tail
_raw_decode = json.JSONDecoder().raw_decode
# cleaned text, [A-Za-z]+(?: [A-Za-z]+)*, is these characters with no space
# at either end and none doubled; the one-class match is the cheaper test
_TEXT_CHARS = re.compile(r"[A-Za-z ]+")
_RECORD_KEYS = ["name", "creation_date", "sentiment", "upvotes", "review_text", "source"]


@dataclass
class SourceStats:
    accepted: int = 0
    blank_lines: int = 0
    rejected_by_reason: dict[str, int] | None = None

    def __post_init__(self):
        if self.rejected_by_reason is None:
            self.rejected_by_reason = {}


@dataclass
class LakeManifest:
    created_at: str
    per_source: dict[str, SourceStats]
    record_files: tuple[str, ...]
    stoplist_checksum: str


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
    return (
        f'{{"name":{_dumps(r.name)},"creation_date":"{r.creation_date.isoformat()}"'
        f',"sentiment":{r.sentiment},"upvotes":{r.upvotes}'
        f',"review_text":"{r.review_text}","source":"{r.source}"}}'
    )


def reject_to_json(r: RejectRecord) -> str:
    return (
        f'{{"source":"{r.source}","row_number":{r.row_number}'
        f',"reason":"{r.reason}","detail":{_dumps(r.detail)}}}'
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
        self.parent = os.path.dirname(self.target)
        os.makedirs(self.parent, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=".lake-tmp-", dir=self.parent)
        self._done = False

    def _reject_part(self, source: str) -> str:
        return os.path.join(self.tmp, f"rejects-{source}.part")

    def stage(self, source: str, items) -> SourceStats:
        """Write one source's UnifiedReviews and RejectRecords, in order.

        Returns the source's tallies; blank_lines is left for the caller.
        """
        accepted = 0
        reasons: dict[str, int] = {}
        to_json = review_to_json
        rj_json = reject_to_json
        rec_path = os.path.join(self.tmp, f"{source}.jsonl")
        with open(rec_path, "w", encoding="utf-8", newline="\n") as out, open(
            self._reject_part(source), "w", encoding="utf-8", newline="\n"
        ) as rej:
            for item in items:
                if item.__class__ is RejectRecord:
                    reasons[item.reason] = reasons.get(item.reason, 0) + 1
                    rej.write(rj_json(item))
                    rej.write("\n")
                else:
                    accepted += 1
                    out.write(to_json(item))
                    out.write("\n")
        if accepted == 0:
            os.remove(rec_path)
        return SourceStats(accepted, 0, reasons)

    def commit(
        self, per_source: dict[str, SourceStats], created_at: str, stoplist_checksum: str
    ) -> LakeManifest:
        """Finish the lake from every staged source's stats and rename it into place."""
        tmp = self.tmp
        sources = sorted(per_source)
        with open(os.path.join(tmp, REJECTS_NAME), "wb") as merged:
            for source in sources:
                part = self._reject_part(source)
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, merged)
                os.remove(part)
        record_files = tuple(f"{s}.jsonl" for s in sources if per_source[s].accepted)
        manifest = LakeManifest(created_at, per_source, record_files, stoplist_checksum)
        with open(os.path.join(tmp, MANIFEST_NAME), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest_to_json(manifest))
        for name in sorted(os.listdir(tmp)):
            _fsync(os.path.join(tmp, name))
        _fsync(tmp)
        target = self.target
        if os.path.exists(target):
            if not os.path.isdir(target):
                raise ConfigurationError(f"{target}: exists and is not a directory")
            if os.listdir(target) and not os.path.exists(os.path.join(target, MANIFEST_NAME)):
                raise ConfigurationError(
                    f"{target}: refusing to replace a non-empty directory that is not a lake"
                )
            graveyard = target + f".old-{os.getpid()}"
            os.rename(target, graveyard)
            os.rename(tmp, target)
            shutil.rmtree(graveyard)
        else:
            os.rename(tmp, target)
        self._done = True
        _fsync(self.parent)
        return manifest

    def abort(self) -> None:
        if not self._done:
            shutil.rmtree(self.tmp, ignore_errors=True)


def _fsync(path: str) -> None:
    """Flush a file's or a directory's data and metadata to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_manifest(lake_dir: str) -> LakeManifest:
    path = os.path.join(lake_dir, MANIFEST_NAME)
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CorruptLakeError(f"{lake_dir}: no readable manifest: {exc}") from None
    except ValueError as exc:
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
                accepted=int(st["accepted"]),
                blank_lines=int(st.get("blank_lines", 0)),
                rejected_by_reason={k: int(v) for k, v in rejected.items()},
            )
        return LakeManifest(
            created_at=str(doc["created_at"]),
            per_source=per_source,
            record_files=tuple(doc["record_files"]),
            stoplist_checksum=str(doc["stoplist_checksum"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptLakeError(f"{path}: malformed manifest: {exc!r}") from None


def _lake_date(raw) -> _dt.date | None:
    """The date a lake spells as ``date.isoformat()``, inside the date window.

    Anything else is None: another spelling of a real date (non-ASCII
    digits included), an impossible day, or a date outside the window.
    """
    try:
        date = _dt.date.fromisoformat(raw)
    except (TypeError, ValueError):
        return None
    if date.isoformat() != raw or not DATE_WINDOW_LO <= date <= DATE_WINDOW_HI:
        return None
    return date


def _validate_line(doc, source: str, path: str, lineno: int, dates: dict) -> UnifiedReview:
    """Check one decoded lake line; ``dates`` memoizes the validated dates."""
    if doc.__class__ is not dict or list(doc) != _RECORD_KEYS:
        raise CorruptLakeError(f"{path}:{lineno}: wrong record shape")
    name = doc["name"]
    text = doc["review_text"]
    sentiment = doc["sentiment"]
    upvotes = doc["upvotes"]
    if doc["source"] != source:
        raise CorruptLakeError(f"{path}:{lineno}: source mismatch: {doc['source']!r}")
    if name.__class__ is not str or not name:
        raise CorruptLakeError(f"{path}:{lineno}: name must be a non-empty string")
    if sentiment.__class__ is not int or sentiment not in (0, 1):
        raise CorruptLakeError(f"{path}:{lineno}: sentiment must be 0 or 1, got {sentiment!r}")
    if upvotes.__class__ is not int or upvotes < 0:
        raise CorruptLakeError(f"{path}:{lineno}: upvotes must be a non-negative integer")
    if (
        text.__class__ is not str
        or not _TEXT_CHARS.fullmatch(text)
        or "  " in text
        or text[0] == " "
        or text[-1] == " "
    ):
        raise CorruptLakeError(f"{path}:{lineno}: review_text is not cleaned text")
    raw_date = doc["creation_date"]
    date = dates.get(raw_date) if raw_date.__class__ is str else None
    if date is None:
        date = _lake_date(raw_date)
        if date is None:
            raise CorruptLakeError(f"{path}:{lineno}: bad creation_date {raw_date!r}")
        dates[raw_date] = date
    return UnifiedReview(name, date, sentiment, upvotes, text, source)


def read_lake(lake_dir: str, partitions: int = 1) -> PartitionedDataset:
    """Load a lake back into a partitioned dataset, checking as it goes.

    Structural invariants are enforced per record (shape, sentiment domain,
    date window, cleaned-text alphabet); whether the text is stopword-free
    under some list is only knowable through the manifest checksum, so it is
    not re-judged here. Counts must match the manifest exactly.
    """
    manifest = load_manifest(lake_dir)
    records: list[UnifiedReview] = []
    dates: dict[str, _dt.date] = {}  # at most one entry per day of the window
    for fname in manifest.record_files:
        source = fname[: -len(".jsonl")]
        if not fname.endswith(".jsonl") or source not in SOURCES:
            raise CorruptLakeError(f"{lake_dir}: unexpected record file {fname!r}")
        path = os.path.join(lake_dir, fname)
        expected = manifest.per_source.get(source, SourceStats()).accepted
        n = 0
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise CorruptLakeError(f"{path}: listed in manifest but unreadable: {exc}") from None
        with fh, engine.gc_paused():
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    raise CorruptLakeError(f"{path}:{lineno}: blank line inside lake file")
                try:
                    decoded = line.decode("utf-8")
                    doc, end = _raw_decode(decoded)
                except ValueError as exc:
                    raise CorruptLakeError(f"{path}:{lineno}: bad JSON: {exc}") from None
                if decoded[end:].strip():
                    raise CorruptLakeError(f"{path}:{lineno}: bad JSON: extra data after the record")
                records.append(_validate_line(doc, source, path, lineno, dates))
                n += 1
        if n != expected:
            raise CorruptLakeError(f"{path}: manifest claims {expected} records, file has {n}")
    for src, st in manifest.per_source.items():
        if st.accepted and src + ".jsonl" not in manifest.record_files:
            raise CorruptLakeError(f"{lake_dir}: {src} has accepted records but no listed file")
    _check_rejects(lake_dir, manifest)
    return PartitionedDataset.from_records(records, partitions)


def _check_rejects(lake_dir: str, manifest: LakeManifest) -> None:
    path = os.path.join(lake_dir, REJECTS_NAME)
    expected = sum(
        n for st in manifest.per_source.values() for n in st.rejected_by_reason.values()
    )
    if not os.path.exists(path):
        if expected:
            raise CorruptLakeError(f"{path}: missing but manifest counts {expected} rejects")
        return
    n = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:
                raise CorruptLakeError(f"{path}:{lineno}: bad JSON: {exc}") from None
            if doc.get("reason") not in REJECT_REASONS:
                raise CorruptLakeError(f"{path}:{lineno}: unknown reject reason {doc.get('reason')!r}")
            n += 1
    if n != expected:
        raise CorruptLakeError(f"{path}: manifest counts {expected} rejects, file has {n}")
