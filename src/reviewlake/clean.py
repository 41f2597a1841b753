"""Cleaning rules: raw unified drafts in, validated review records out.

Every step is a pure function. Fallible steps raise :class:`CleanRejection`
carrying one reason from the closed reject enum; :func:`clean_review` turns
that into a :class:`RejectRecord`, so callers never see exceptions for
ordinary dirty data.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import itertools
import math
import os
import string
from functools import cached_property, lru_cache
from importlib import resources

from reviewlake.errors import ConfigurationError
from reviewlake.model import (
    DATE_WINDOW_HI,
    DATE_WINDOW_LO,
    UPVOTE_MAX,
    UPVOTE_MAX_DIGITS,
    RejectRecord,
    UnifiedDraft,
    UnifiedReview,
    new_record,
)

#: Recognized date format identifiers, in the notation mappings use.
DATE_FORMAT_IDS = ("iso", "iso_datetime", "us_slash", "long_month", "epoch_seconds")

SENTIMENT_SCHEMES = ("binary_label", "five_class_label", "star_rating")

MONTH_NAMES = (
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
)


class CleanRejection(Exception):
    """Control-flow signal: the row cannot be cleaned, with a closed reason."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


# ---------------------------------------------------------------------------
# scalar cleaning steps
# ---------------------------------------------------------------------------

_TRIM_CHARS = string.whitespace + '"'
# every byte except A-Z and a-z becomes a space
_ALPHA_ONLY = bytes(c if chr(c) in string.ascii_letters else 0x20 for c in range(256))


def trim_outer(s: str) -> str:
    """Remove leading/trailing whitespace and straight double quotes.

    Interior characters are untouched: ``'"a "b" c"'`` keeps its inner quotes.
    """
    return s.strip(_TRIM_CHARS)


def strip_non_alpha(s: str) -> str:
    """Replace every non-ASCII-alphabetic character run with a single space.

    Digits are non-alphabetic and vanish with the rest; the result is trimmed,
    so it is either empty or letters separated by single spaces. Equivalent
    to ``re.sub(r"[^A-Za-z]+", " ", s).strip()``: encoding turns each
    non-ASCII character (lone surrogates included) into ``?``, a non-letter.
    """
    return b" ".join(s.encode("ascii", "replace").translate(_ALPHA_ONLY).split()).decode("ascii")


def remove_stopwords(s: str, stops: "Stoplist") -> str:
    """Drop tokens whose lowercase form is a stopword; keep original casing.

    Expects ``s`` already alphabetic-with-single-spaces (pipeline order).
    A token is tested against the stoplist's spellings as it stands; only
    the words left out of them cost a ``lower()`` per token.
    """
    if not s:
        return ""
    spellings, unexpanded = stops.expansion
    kept = [t for t in s.split(" ") if t not in spellings]
    if unexpanded:
        kept = [t for t in kept if t.lower() not in unexpanded]
    return " ".join(kept)


_FIVE_CLASS = {"very negative": 0, "negative": 0, "positive": 1, "very positive": 1}
_BINARY = {"negative": 0, "false": 0, "0": 0, "positive": 1, "true": 1, "1": 1}
_STARS = {"1": 0, "2": 0, "4": 1, "5": 1}


def map_sentiment(raw: str, scheme: str) -> int:
    """Collapse a source sentiment label onto {0, 1}.

    Matching is case-insensitive for every scheme. Neutral labels (the middle
    five-class label, 3 stars) have no side and are rejected as
    ``neutral_dropped``; anything unrecognized is ``bad_label``.
    """
    label = raw.lower()
    if scheme == "five_class_label":
        got = _FIVE_CLASS.get(label)
        if got is not None:
            return got
        if label == "neutral":
            raise CleanRejection("neutral_dropped", raw)
    elif scheme == "binary_label":
        got = _BINARY.get(label)
        if got is not None:
            return got
    elif scheme == "star_rating":
        got = _STARS.get(label)
        if got is not None:
            return got
        if label == "3":
            raise CleanRejection("neutral_dropped", raw)
    else:
        raise ConfigurationError(f"unknown sentiment scheme: {scheme!r}")
    raise CleanRejection("bad_label", raw)


def _match_iso(s: str) -> tuple[int, int, int] | None:
    if len(s) == 10 and s[4] == "-" and s[7] == "-":
        y, m, d = s[0:4], s[5:7], s[8:10]
        if y.isdecimal() and m.isdecimal() and d.isdecimal():
            return int(y), int(m), int(d)
    return None


def _match_iso_datetime(s: str) -> tuple[int, int, int] | None:
    if len(s) == 19 and s[10] == " " and s[13] == ":" and s[16] == ":":
        ymd = _match_iso(s[:10])
        hh, mm, ss = s[11:13], s[14:16], s[17:19]
        if ymd and hh.isdecimal() and mm.isdecimal() and ss.isdecimal():
            if int(hh) <= 23 and int(mm) <= 59 and int(ss) <= 59:
                return ymd
            raise CleanRejection("bad_date", s)  # shape matched, time impossible
    return None


def _match_us_slash(s: str) -> tuple[int, int, int] | None:
    if len(s) == 10 and s[2] == "/" and s[5] == "/":
        m, d, y = s[0:2], s[3:5], s[6:10]
        if m.isdecimal() and d.isdecimal() and y.isdecimal():
            return int(y), int(m), int(d)
    return None


_MONTH_BY_NAME = {name.lower(): i + 1 for i, name in enumerate(MONTH_NAMES)}


def _match_long_month(s: str) -> tuple[int, int, int] | None:
    # "July 4, 2019" / "December 25, 2020"
    sp = s.find(" ")
    if sp < 0:
        return None
    month = _MONTH_BY_NAME.get(s[:sp].lower())
    if month is None:
        return None
    rest = s[sp + 1 :]
    comma = rest.find(", ")
    if comma < 1:
        return None
    day_s, year_s = rest[:comma], rest[comma + 2 :]
    if len(day_s) <= 2 and day_s.isdecimal() and len(year_s) == 4 and year_s.isdecimal():
        return int(year_s), month, int(day_s)
    return None


_EPOCH = _dt.date(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
# the window's last second has this many digits; a count with more lies
# 10**10 s (over 300 years) or further from the epoch, outside the window
_EPOCH_MAX_DIGITS = len(str((DATE_WINDOW_HI - _EPOCH).days * 86400 + 86399))


def _match_epoch_seconds(s: str) -> tuple[int, int, int] | None:
    negative = s[:1] == "-"
    body = s[1:] if negative else s
    if not body or not body.isdecimal():
        return None
    # decided from the digits before int(), so a long count costs no
    # conversion and int()'s digit limit changes no verdict
    head, tail = body[:-_EPOCH_MAX_DIGITS], body[-_EPOCH_MAX_DIGITS:]
    if head and any(map(int, head)):
        raise CleanRejection("date_out_of_range", s)
    seconds = int(tail)
    day = _dt.date.fromordinal(_EPOCH_ORDINAL + (-seconds if negative else seconds) // 86400)
    return day.year, day.month, day.day


_FORMAT_MATCHERS = {
    "iso": _match_iso,
    "iso_datetime": _match_iso_datetime,
    "us_slash": _match_us_slash,
    "long_month": _match_long_month,
    "epoch_seconds": _match_epoch_seconds,
}

_WINDOW_LO = (DATE_WINDOW_LO.year, DATE_WINDOW_LO.month, DATE_WINDOW_LO.day)
_WINDOW_HI = (DATE_WINDOW_HI.year, DATE_WINDOW_HI.month, DATE_WINDOW_HI.day)


# unbounded but small: a mapping's formats are distinct ids out of five
@lru_cache(maxsize=None)
def _matchers(formats: tuple[str, ...]) -> tuple:
    return tuple(_FORMAT_MATCHERS[fmt] for fmt in formats)


def normalize_date(raw: str, formats: tuple[str, ...]) -> _dt.date:
    """Parse with the first lexically matching format, then validate.

    A lexical match is final: a string shaped like a known format but naming
    an impossible day (Feb 30) is ``bad_date``, not a fall-through to later
    formats. Valid dates outside 1970-01-01..2029-12-31 are
    ``date_out_of_range``.
    """
    for match in _matchers(formats):
        ymd = match(raw)
        if ymd is None:
            continue
        if _WINDOW_LO <= ymd <= _WINDOW_HI:
            try:
                return _dt.date(*ymd)
            except ValueError:  # inside the window, date() accepts exactly the real days
                raise CleanRejection("bad_date", raw) from None
        y, m, d = ymd
        try:
            # the calendar repeats every 400 years, so this names a real day
            # exactly when (y, m, d) does; year 0 maps to 2000 and stays real
            _dt.date(2000 + y % 400, m, d)
        except ValueError:
            raise CleanRejection("bad_date", raw) from None
        raise CleanRejection("date_out_of_range", raw)
    raise CleanRejection("bad_date", raw)


def parse_upvotes(raw: str) -> int:
    """Decimal upvote count; an empty string means zero engagement.

    Strictly ASCII digits naming at most UPVOTE_MAX: int() alone would wave
    through signs, surrounding whitespace, underscores, and non-ASCII
    digits. The length check runs before int(), so a long count costs no
    conversion.
    """
    if raw == "":
        return 0
    if not (raw.isascii() and raw.isdecimal()) or len(raw) > UPVOTE_MAX_DIGITS:
        raise CleanRejection("bad_upvotes", raw)
    n = int(raw, 10)
    if n > UPVOTE_MAX:
        raise CleanRejection("bad_upvotes", raw)
    return n


# ---------------------------------------------------------------------------
# stoplist
# ---------------------------------------------------------------------------


# the most spellings a Stoplist expands its words into, over all its words
_SPELLING_BUDGET = 1 << 16
# U+212A KELVIN SIGN is the one character outside A-Z whose lower() is an
# ASCII letter; every other character that lowers to one is that letter's
# upper case. (U+0130 lowers to two characters, one of them not ASCII.)
_CASES = {c: (c, c.upper()) for c in string.ascii_lowercase}
_CASES["k"] = ("k", "K", "\u212a")


def _spellings(word: str):
    """Every string whose lower() is ``word``, a lowercase ASCII word."""
    return map("".join, itertools.product(*[_CASES[c] for c in word]))


class Stoplist:
    """Lowercase stopword set plus provenance for the lake manifest.

    ``expansion`` is (spellings, unexpanded), built on first use, so code
    that only reads ``words`` never pays for it. ``spellings`` holds every
    string whose lower() is an expanded word, so a token needs no lower()
    to be tested. A word of n letters has at least 2**n spellings, so the
    words are expanded cheapest first while the total stays within
    _SPELLING_BUDGET; the rest are ``unexpanded`` and tested through lower().
    The bundled list expands whole, into 5,624 spellings.
    """

    def __init__(self, words: frozenset[str], source_path: str, checksum: str):
        self.words = words
        self.source_path = source_path
        self.checksum = checksum

    @cached_property
    def expansion(self) -> tuple[frozenset[str], frozenset[str]]:
        spellings: set[str] = set()
        unexpanded = set()
        budget = _SPELLING_BUDGET
        for cost, word in sorted((math.prod(len(_CASES[c]) for c in w), w) for w in self.words):
            if cost <= budget:
                spellings.update(_spellings(word))
                budget -= cost
            else:
                unexpanded.add(word)
        return frozenset(spellings), frozenset(unexpanded)


def load_stoplist(path: str) -> Stoplist:
    """Load a one-word-per-line stoplist; ``#`` starts a comment line."""
    with open(path, "rb") as fh:
        blob = fh.read()
    words = set()
    for lineno, line in enumerate(blob.decode("utf-8").splitlines(), start=1):
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        if not token.isascii() or not token.isalpha() or token != token.lower():
            raise ConfigurationError(
                f"{path}:{lineno}: stoplist entries must be lowercase alphabetic, got {token!r}"
            )
        words.add(token)
    return Stoplist(frozenset(words), path, hashlib.sha256(blob).hexdigest())


@lru_cache(maxsize=1)
def default_stoplist() -> Stoplist:
    """The bundled list of 127 common English function words."""
    res = resources.files("reviewlake").joinpath("data/stopwords.txt")
    with resources.as_file(res) as path:
        return load_stoplist(str(path))


def resolve_stoplist(configured_path: str | None = None) -> Stoplist:
    """Pick the active stoplist: REVIEWLAKE_STOPLIST env, then config, then bundled."""
    env = os.environ.get("REVIEWLAKE_STOPLIST")
    if env:
        return load_stoplist(env)
    if configured_path:
        return load_stoplist(configured_path)
    return default_stoplist()


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def clean_review(draft: UnifiedDraft, stops: Stoplist, mapping) -> UnifiedReview | RejectRecord:
    """Apply the full cleaning pipeline to one draft.

    Order: outer trim on every field, empty name/text check, date, sentiment,
    upvotes, then the text pipeline (alphabetic strip, stopword removal,
    empty check). The first failure wins and names its reason.
    """
    name_raw, date_raw, sentiment_raw, upvotes_raw, text_raw, source, row_number = draft
    name = trim_outer(name_raw)
    text = trim_outer(text_raw)
    try:
        if not name or not text:
            raise CleanRejection("null_field", "name" if not name else "text")
        date = normalize_date(trim_outer(date_raw), mapping.date_formats)
        sentiment = map_sentiment(trim_outer(sentiment_raw), mapping.sentiment_scheme)
        upvotes = parse_upvotes(trim_outer(upvotes_raw))
        cleaned = remove_stopwords(strip_non_alpha(text), stops)
        if not cleaned:
            raise CleanRejection("empty_after_clean", text[:40])
    except CleanRejection as rej:
        return RejectRecord(source, row_number, rej.reason, rej.detail)
    return new_record(UnifiedReview, (name, date, sentiment, upvotes, cleaned, source))
