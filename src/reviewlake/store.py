"""The local review lake: JSON-lines staging with a manifest, replacing a
distributed store at desk scale.

Layout inside a lake directory: ``manifest.json``, one ``<source>.jsonl``
per source that contributed accepted records, and ``rejects.jsonl``;
:func:`load_manifest` holds that rule. :class:`LakeWriter` is the only
writer and owns its staging directory: it builds the whole lake there,
fsyncs it and renames it into place, so a reader never sees part of a lake.

A valid lake holds what :class:`LakeWriter` writes and nothing else.
:func:`read_lake` also requires every record line to be exactly what
:func:`review_to_json` writes followed by ``\n``, and every reject line to
be what :func:`reject_to_json` writes, with tallies per source and reason
equal to the manifest's. Each is checked by a pattern kept beside its
writer, so a line has one spelling: added whitespace, another escape of
the same character, a raw non-ASCII byte, a CRLF ending or a missing final
newline is refused as loudly as a wrong value.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import re
import shutil
import signal
from itertools import zip_longest
from typing import NamedTuple

from reviewlake.errors import ConfigurationError, CorruptLakeError, ReviewLakeError, naming
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

_GUARDED = (signal.SIGTERM, signal.SIGINT)  # the signals a LakeWriter turns into an error
MANIFEST_NAME = "manifest.json"
REJECTS_NAME = "rejects.jsonl"

# the C encoder json.dumps ends in for a str, with its default ensure_ascii
_encode_str = json.encoder.encode_basestring_ascii


class SourceStats(NamedTuple):
    """One source's tallies, all counted by :meth:`LakeWriter.stage`: each
    item, one per data record or blank line, lands in exactly one of them."""

    accepted: int
    blank_lines: int
    rejected_by_reason: dict[str, int]


class LakeManifest(NamedTuple):
    created_at: str
    per_source: dict[str, SourceStats]
    stoplist_checksum: str

    @property
    def record_files(self) -> tuple[str, ...]:
        """One ``<source>.jsonl`` per source with accepted records, in source order."""
        return tuple(f"{s}.jsonl" for s in sorted(self.per_source) if self.per_source[s].accepted)


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


# A JSON string as _encode_str spells it: printable ASCII other than a quote
# or a backslash, or the escapes it writes, in lowercase hex. Possessive
# quantifiers never backtrack, which keeps a line match close to the C JSON
# decoder's speed.
_STRING = r'"[ !#-\[\]-~]*+(?:\\(?:["\\bfnrt]|u[0-9a-f]{4})[ !#-\[\]-~]*+)*+"'

# A whole line as review_to_json writes it, then "\n". The groups are: the
# non-empty name; the date in ASCII digits; sentiment; upvotes with no
# leading zero; the cleaned text; the source. read_lake checks by value what
# a pattern cannot: an escaped name must be its value's one spelling, the
# date must be a day in the window and upvotes at most UPVOTE_MAX.
_record_line = re.compile(
    r'\{"name":((?!"")' + _STRING + r')'
    r',"creation_date":"([0-9]{4}-[0-9]{2}-[0-9]{2})","sentiment":([01]),"upvotes":(0|[1-9][0-9]*+)'
    r',"review_text":"([A-Za-z]++(?: [A-Za-z]++)*+)","source":"([a-z]++)"\}\n'
).fullmatch


def _one_spelling(spelled: str) -> str | None:
    """The value of a string _STRING matched, or None where _encode_str spells it otherwise."""
    value = json.decoder.scanstring(spelled, 1)[0]  # the C decoder json.loads uses for a str
    return value if _encode_str(value) == spelled else None


def reject_to_json(r: RejectRecord) -> str:
    return (
        f'{{"source":"{r.source}","row_number":{r.row_number}'
        f',"reason":"{r.reason}","detail":{_encode_str(r.detail)}}}'
    )


# A whole line as reject_to_json writes it, then "\n", with a positive row
# number and no leading zero. The groups are the source, the reason and the
# detail. _check_rejects checks by value an escaped detail's spelling and the
# tally per (source, reason).
_reject_line = re.compile(
    r'\{"source":"([a-z]++)","row_number":[1-9][0-9]*+,"reason":"([a-z_]++)","detail":(' + _STRING + r')\}\n'
).fullmatch


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

    The target is resolved once, so a linked lake is replaced where it
    lives; it and its reserved aside ``.<lake>.old`` are checked before a
    row is read. Entered, it guards SIGTERM and SIGINT, then makes the
    staging directory; on exit it removes that after an exception and
    restores the handlers. ``stage`` writes one source's records and reject
    part and changes no writer state, so forked workers can stage sources
    side by side. ``commit`` finishes and fsyncs the staging directory,
    renames an old lake onto the aside and the staging directory into place
    (the commit point: a signal raises ``ReviewLakeError`` before it and is
    ignored from it on), fsyncs the parent and removes the aside. A crash
    leaves at most the aside, which the next commit removes (between the
    renames, in place of the lake), and stranded ``.lake-tmp-*`` directories.
    """

    def __init__(self, target_dir: str):
        self.target = os.path.realpath(target_dir)
        self.parent, name = os.path.split(self.target)
        self.aside = os.path.join(self.parent, f".{name}.old")
        _check_target(self.target)  # refuse before a row is read, not only at commit
        _check_target(self.aside)
        os.makedirs(self.parent, exist_ok=True)
        self.tmp = os.path.join(self.parent, ".lake-tmp-" + os.urandom(8).hex())

    def __enter__(self) -> LakeWriter:
        self._previous = [(sig, signal.signal(sig, self._on_signal)) for sig in _GUARDED]
        try:
            os.mkdir(self.tmp)  # 0o777 less the umask, as for any directory mkdir makes
        except BaseException as exc:
            self.__exit__(type(exc), exc, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is not None:  # after the commit point there is no staging directory
                shutil.rmtree(self.tmp, ignore_errors=True)
        finally:
            for sig, previous in self._previous:
                signal.signal(sig, previous)

    def _on_signal(self, signum: int, frame) -> None:
        if os.path.lexists(self.tmp):  # read from the file system, so it holds from inside the rename on
            raise ReviewLakeError(f"ingest interrupted by {signal.Signals(signum).name}")

    def __getstate__(self) -> dict:  # a pool task pickles the writer, but not the handlers it saved
        return {k: v for k, v in self.__dict__.items() if k != "_previous"}

    def fork_pool(self, workers: int):
        """A fork pool whose threads leave SIGTERM and SIGINT to this thread, which waits in ``Pool.map``."""
        import multiprocessing  # only an ingest that fans out pays for the import

        # a thread that forked a worker could take the signal; threads and workers inherit the mask
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _GUARDED)
        try:
            return multiprocessing.get_context("fork").Pool(workers, _start_worker, (mask,))
        except OSError as exc:  # a semaphore or a fork failed; the pool stopped what it started
            reason = "the OS gave no reason" if exc.errno == 0 else exc.strerror or exc
            raise ReviewLakeError(f"cannot start {workers} ingest worker processes: {reason}") from None
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _reject_part(self, source: str) -> str:
        return os.path.join(self.tmp, f"rejects-{source}.part")

    def stage(self, source: str, items) -> SourceStats:
        """Write and tally one source's items, one per data record or blank line.

        A UnifiedReview is written as a record line, a RejectRecord as a
        reject line, each as its item arrives; None is a blank line, which
        is only counted. Returns the source's complete tallies.
        """
        accepted = blank_lines = 0
        reasons: dict[str, int] = {}
        to_json = review_to_json
        rj_json = reject_to_json
        rec_path, rej_path = os.path.join(self.tmp, f"{source}.jsonl"), self._reject_part(source)
        # a failed write, or flush at close, names the file it was for
        with naming(rej_path), open(rej_path, "w", encoding="utf-8", newline="\n") as rej:
            with naming(rec_path), open(rec_path, "w", encoding="utf-8", newline="\n") as out:
                write, write_reject = out.write, rej.write
                for item in items:
                    if item is None:
                        blank_lines += 1
                    elif item.__class__ is RejectRecord:
                        reasons[item.reason] = reasons.get(item.reason, 0) + 1
                        with naming(rej_path):
                            write_reject(rj_json(item) + "\n")
                    else:
                        write(to_json(item) + "\n")
                        accepted += 1
        if accepted == 0:
            os.remove(rec_path)
        return SourceStats(accepted, blank_lines, reasons)

    def commit(
        self, per_source: dict[str, SourceStats], created_at: str, stoplist_checksum: str
    ) -> LakeManifest:
        """Finish the lake from every staged source's stats and rename it into place."""
        tmp = self.tmp
        merged_path, manifest_path = os.path.join(tmp, REJECTS_NAME), os.path.join(tmp, MANIFEST_NAME)
        with naming(merged_path), open(merged_path, "wb") as merged:
            for source in sorted(per_source):
                part = self._reject_part(source)
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, merged)
                os.remove(part)
        manifest = LakeManifest(created_at, per_source, stoplist_checksum)
        with naming(manifest_path), open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest_to_json(manifest))
        for name in sorted(os.listdir(tmp)):
            _fsync(os.path.join(tmp, name))
        _fsync(tmp)
        aside = _check_target(self.aside)  # a crashed commit's
        if _check_target(self.target):
            if aside:
                self._discard_aside()
            os.rename(self.target, self.aside)
            aside = True
        os.rename(tmp, self.target)  # the commit point
        _fsync(self.parent)
        if aside:
            self._discard_aside()
        return manifest

    def _discard_aside(self) -> None:
        """Remove the aside by way of a staging name, so a cut-short removal never leaves part of it."""
        os.rename(self.aside, self.tmp + "-old")
        shutil.rmtree(self.tmp + "-old")


def _start_worker(mask) -> None:
    """A worker dies of ``Pool.terminate``'s SIGTERM at once (a handler can miss one that lands as it
    waits again for the task queue's lock) and leaves a Ctrl-C to the ingest (dying of it while it
    holds that lock would leave ``Pool.terminate`` waiting); then it takes both signals again."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _check_target(path: str) -> bool:
    """Refuse what a commit must not replace or remove: anything but an empty
    directory or a lake as :func:`load_manifest` defines it. Return whether it exists."""
    if not os.path.lexists(path):
        return False
    if os.path.islink(path) or not os.path.isdir(path):
        raise ConfigurationError(f"{path}: exists and is not a directory")
    if os.listdir(path):
        try:
            load_manifest(path)
        except CorruptLakeError as exc:
            raise ConfigurationError(f"refusing to replace what is not a lake: {exc}") from None
    return True


def _fsync(path: str) -> None:
    """Flush a file's or a directory's data and metadata to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        with naming(path):
            os.fsync(fd)
    finally:
        os.close(fd)


def load_manifest(lake_dir: str) -> LakeManifest:
    """The lake's manifest, and the one definition of a lake directory: the
    bytes the writer makes of its counts, beside exactly the files they name."""
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
    files = set(manifest.record_files) | {MANIFEST_NAME, REJECTS_NAME}
    listed = set(os.listdir(lake_dir))
    if listed != files:
        raise CorruptLakeError(
            f"{lake_dir}: a lake with these counts holds exactly {sorted(files)!r}, not {sorted(listed)!r}"
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


def _lines(path: str):
    """Number a lake line file's lines. latin-1 makes each byte one character,
    so a byte outside ASCII reaches the line pattern, which refuses it with its line number."""
    with naming(path), open(path, encoding="latin-1", newline="\n") as fh:
        yield from enumerate(fh, start=1)


def read_lake(lake_dir: str) -> list[UnifiedReview]:
    """Load a lake's records, in record-file order, checking as it goes.

    Every line of a record file must be exactly what review_to_json writes
    for a record of that file's source, ``"\\n"`` included, with a real
    date inside the window and at most UPVOTE_MAX upvotes. Whether the text
    is stopword-free under some list is only knowable through the manifest
    checksum, so it is not re-judged here. Every count must match.
    """
    manifest = load_manifest(lake_dir)
    records: list[UnifiedReview] = []
    append = records.append
    match = _record_line
    dates: dict[str, _dt.date] = {}  # at most one entry per day of the window
    for fname in manifest.record_files:
        source = fname[: -len(".jsonl")]
        path = os.path.join(lake_dir, fname)
        expected = manifest.per_source[source].accepted
        start = len(records)
        for lineno, line in _lines(path):
            m = match(line)
            if m is None or m[6] != source:
                raise CorruptLakeError(f"{path}:{lineno}: not a record line as the writer writes it")
            spelled, day, sentiment, upvotes, text, _ = m.groups()
            name = spelled[1:-1] if "\\" not in spelled else _one_spelling(spelled)
            if name is None:
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
    """Each reject line must be what reject_to_json writes, and the tally
    per (source, reason) must equal the manifest's."""
    path = os.path.join(lake_dir, REJECTS_NAME)
    expected = {(s, k): n for s, st in manifest.per_source.items() for k, n in st.rejected_by_reason.items() if n}
    tally: dict[tuple[str, str], int] = {}
    for lineno, line in _lines(path):
        m = _reject_line(line)
        if m is None or ("\\" in m[3] and _one_spelling(m[3]) is None):
            raise CorruptLakeError(f"{path}:{lineno}: not a reject line as the writer writes it")
        key = m.group(1, 2)
        tally[key] = tally.get(key, 0) + 1
    if tally != expected:
        src, reason = min(k for k in tally.keys() | expected.keys() if tally.get(k) != expected.get(k))
        raise CorruptLakeError(
            f"{path}: {src} {reason}: manifest counts {expected.get((src, reason), 0)}, "
            f"file has {tally.get((src, reason), 0)}"
        )
