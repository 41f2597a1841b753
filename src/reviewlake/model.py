"""Shared domain records: raw rows, unified reviews, rejects, result tables.

Every record, result tables included, is a NamedTuple: immutable, cheap to
construct, and compared by value. Records stay in the process that made
them: ingest workers write their records to the lake themselves, and query
and report fold the views in one process. No class here is a dataclass:
importing ``dataclasses`` pulls in ``inspect`` and its tokenizer, a fixed
cost that every command would pay at start-up.

Every worker pool, ingest's and the fixture generator's, forks, with no
other start method, so reviewlake is POSIX-only. The one platform without
``fork``, Windows, also refuses to open a directory for the fsync that a
lake commit needs, so ingest could not finish there anyway.
"""

from __future__ import annotations

import datetime as _dt
import sys
from typing import NamedTuple

#: ``new_record(Cls, fields)`` builds a NamedTuple record from the tuple of
#: its fields in C, without the class's Python-level ``__new__``. The row
#: path builds its records this way; ``fields`` must hold every field.
new_record = tuple.__new__


#: Supported review sources, in canonical order.
SOURCES = ("amazon", "imdb", "steam", "yelp")

#: Closed set of machine-readable reasons a row can be dropped for.
REJECT_REASONS = frozenset(
    {
        "ragged_row",
        "bad_json",
        "unsupported_shape",
        "missing_column",
        "null_field",
        "oversize_field",
        "bad_encoding",
        "neutral_dropped",
        "bad_label",
        "bad_date",
        "date_out_of_range",
        "bad_upvotes",
        "empty_after_clean",
    }
)


class RawRecord(NamedTuple):
    """One parsed source row, before any mapping or cleaning.

    ``row_number`` is 1-based and counts physical data lines (the CSV header
    is not counted). ``fields`` maps column name to the raw string value, in
    header order.
    """

    source: str
    row_number: int
    fields: dict[str, str]


class UnifiedDraft(NamedTuple):
    """The six unified fields as raw strings, plus provenance."""

    name_raw: str
    date_raw: str
    sentiment_raw: str
    upvotes_raw: str
    text_raw: str
    source: str
    row_number: int


class UnifiedReview(NamedTuple):
    """A fully cleaned review record.

    Invariants (enforced by the cleaning pipeline and revalidated on lake
    load): non-empty name; date within 1970-01-01..2029-12-31; sentiment in
    {0, 1}; 0 <= upvotes <= UPVOTE_MAX; review_text is letters and single
    interior spaces.
    """

    name: str
    creation_date: _dt.date
    sentiment: int
    upvotes: int
    review_text: str
    source: str


class RejectRecord(NamedTuple):
    """A dropped input row and why it was dropped."""

    source: str
    row_number: int
    reason: str
    detail: str = ""


#: Earliest and latest creation dates considered sane.
DATE_WINDOW_LO = _dt.date(1970, 1, 1)
DATE_WINDOW_HI = _dt.date(2029, 12, 31)

#: The largest upvote count a record may hold: a mean of counts never
#: exceeds the largest of them, so no view's mean can leave the float range.
#: Its 309 digits are under the lowest digit limit an interpreter can set for
#: int/str conversion (640), so an accepted count parses, and is written to
#: and read back from the lake, whatever PYTHONINTMAXSTRDIGITS says.
UPVOTE_MAX = int(sys.float_info.max)

#: Digits in UPVOTE_MAX: a longer count is out of bounds before any int().
UPVOTE_MAX_DIGITS = len(str(UPVOTE_MAX))


class AggTable(NamedTuple):
    """Result of a group-by query: a header plus ordered, sorted rows.

    Rows are tuples whose leading entries are the group-key fields; they are
    sorted ascending by those fields so serialized output is deterministic.
    ``notes`` carries non-tabular side information (e.g. omitted undefined
    cells) and is never serialized into the table itself.
    """

    name: str
    columns: tuple[str, ...]
    rows: list[tuple]
    notes: tuple[str, ...] = ()
