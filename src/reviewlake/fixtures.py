"""Deterministic synthetic source files with exact ground truth.

Given a seed, this writes one export per source (three CSVs and one JSON
lines file) plus ground_truth.json and a ready-to-use config.json. Every
row's fate is decided while writing, so the ground truth is an exact
tally, not an estimate: accepted counts, per-reason reject counts, blank
lines, and per-class totals all come from the same pass that produced the
bytes.

The "paper_shaped" profile plants the structure the analytic views are
expected to surface: weekend-heavy posting for yelp and imdb with an
amazon weekend dip, a Nov/Dec surge for amazon and imdb, geometric decay
of review length with negative reviews running longer (imdb swapped), and
upvotes that grow with length and lean negative. The "uniform" profile
keeps everything except the calendar flat.

Each source's rows come from its own stream, ``random.Random(f"{seed}:{source}")``,
so the four files are independent tasks: forked worker processes write
them, one per usable core up to four, and the bytes do not depend on how
many workers there are. The ground truth is assembled in source order
once every worker has finished. Where the platform cannot fork, the same
per-source function runs in-process.

Review text is assembled from a stopword-free vocabulary so that its
cleaned length equals a planted target exactly, then dressed with noise
that the cleaner provably removes: punctuation runs, digits, non-ASCII
separators, and injected stopwords in scrambled casing.

Integer draws call ``rng.getrandbits`` directly. ``randrange``,
``randint`` and ``choices`` spend most of their time in ``random.py``'s
argument handling, and at 1.35 million ``randrange`` calls per 20k rows
(575k of them through ``randint``) they were most of the generator's
cost. Each spelled-out draw is CPython's own algorithm, call for call:
``randrange(n)`` takes ``k = n.bit_length()`` and repeats
``getrandbits(k)`` while the result is ``>= n``; ``randint(a, b)`` is
``a + randrange(b - a + 1)``; a one-item ``choices`` over cumulative
weights is ``bisect_right(cum, random() * total, 0, hi)``. So they consume
the same random state, and every seed keeps the bytes it had before. The
tests pin per-file digests and compare ``_build_text`` with the
``random`` calls it replaced, so a Python whose ``randrange`` draws
differently fails there by name.
"""

from __future__ import annotations

import csv
import datetime
import functools
import itertools
import json
import os
import random
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from reviewlake.clean import MONTH_NAMES
from reviewlake.errors import ConfigurationError, ReviewLakeError
from reviewlake.model import SOURCES, fork_context

PROFILES = ("uniform", "paper_shaped")

FIRST_YEAR = 2018
LAST_YEAR = 2022

#: Words by length, none of them stopwords; tests check them against the
#: bundled stoplist, so a stoplist edit cannot silently rot this.
_VOCAB = {
    2: ("ox", "go", "hi", "ah", "eh"),
    3: ("fox", "dog", "cat", "sun", "map", "joy", "air", "sky", "sea", "arm"),
    4: ("game", "plot", "cast", "song", "hero", "maze", "tale", "glow", "peak", "wave"),
    5: ("charm", "blaze", "crisp", "vivid", "grand", "eerie", "plush", "swift", "tough", "bland"),
    6: ("superb", "gloomy", "punchy", "mellow", "rugged", "serene", "crispy", "golden", "velvet", "marble"),
    7: ("amazing", "classic", "curious", "drastic", "element", "footage", "gallery", "harmony"),
    8: ("majestic", "pleasant", "slippery", "tangible", "vigorous", "wretched", "charming", "dazzling"),
    9: ("wonderful", "brilliant", "fantastic", "marvelous", "startling", "memorable", "authentic", "excellent"),
}

_STOP_INSERTS = (
    "the", "and", "of", "to", "with", "very", "just", "again",
    "about", "under", "over", "during", "because",
)

_SEPARATORS = (", ", "!! ", " 123 ", " -- ", " é ", "... ")

_NAMES = {
    "amazon": (
        "Widget Pro, Deluxe Edition", 'The "Ultimate" Grinder', "Café Press 9000",
        "Steel Mixing Bowl", "Garden Hose & Reel", "Night Lamp, USB",
        "Trail Shoes 42", "Pocket Knife v2",
    ),
    "yelp": (
        "Mama's Diner", 'Bistro "Lumière"', "Noodle Bar, Downtown", "Cafe Verde",
        "The Rusty Anchor", "Sunrise Bakery & Deli", "Pho Corner", "Old Town Tavern",
    ),
    "steam": (
        "Dungeon Sprint", "Star Freight 2", 'Pixel "Rogue" Saga', "Farm & Forge",
        "Galaxy Drift, Redux", "Mech Arena Zero", "Haunted Depths", "Turbo Kart XL",
    ),
    "imdb": (
        "The Long Night", 'A Town Called "Dust"', "Winter's Echo, Part II", "Neon Harbor",
        "Le Cinéma Perdu", "Iron Meridian", "The Gilded Cage", "Paper Satellites",
    ),
}

#: Negative share of accepted reviews, per source.
_P_NEG = {"amazon": 0.30, "yelp": 0.35, "steam": 0.40, "imdb": 0.50}

#: Geometric decay of the length-bucket quota. Slower decay means longer
#: reviews on average; negatives run longer everywhere except imdb.
_DECAY = {0: 0.82, 1: 0.74}
_DECAY_IMDB = {0: 0.74, 1: 0.82}
_N_BUCKETS = 31  # lengths up to 1549, so the open 2000+ bucket stays empty

_YEAR_W = {
    "amazon": (0.6, 0.8, 1.0, 1.25, 1.5),
    "yelp": (1.0, 1.1, 0.7, 1.2, 1.3),
    "steam": (0.5, 0.9, 1.4, 1.1, 1.6),
    "imdb": (0.8, 0.9, 1.0, 1.1, 1.2),
}

_CSV_REASONS = (
    "ragged_row", "bad_date", "bad_label", "bad_upvotes",
    "null_field", "empty_after_clean", "date_out_of_range", "bad_encoding",
)
_JSONL_REASONS = (
    "bad_json", "bad_date", "bad_label", "unsupported_shape", "bad_upvotes",
    "null_field", "missing_column", "empty_after_clean", "date_out_of_range",
    "bad_encoding",
)

_BAD_DATE = {"amazon": "02/30/2019", "yelp": "2019-02-30 11:30:00", "steam": "notanepoch", "imdb": "February 30, 2019"}
_RANGE_DATE = {"amazon": "01/01/1965", "yelp": "1969-12-31 23:59:59", "steam": "4102444800", "imdb": "March 3, 2035"}
_BAD_LABEL = {"amazon": "6", "yelp": "meh", "steam": "maybe", "imdb": "mixed"}

_HEADERS = {
    "amazon": ("product_title", "review_date", "star_rating", "helpful_votes", "review_body"),
    "yelp": ("business_name", "date", "sentiment", "useful", "text"),
    "steam": ("app_name", "timestamp_created", "voted_up", "votes_up", "review"),
    "imdb": ("movie", "review_date", "sentiment", "helpful", "review_text"),
}

_FILES = {"amazon": "amazon.csv", "yelp": "yelp.csv", "steam": "steam.csv", "imdb": "imdb.jsonl"}
_EOL = {"amazon": "\r\n", "yelp": "\n", "steam": "\n"}
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def _day_population(source: str, profile: str):
    """All days in the covered years with this source's sampling weight."""
    shaped = profile == "paper_shaped"
    days = []
    weights = []
    d = datetime.date(FIRST_YEAR, 1, 1)
    one = datetime.timedelta(days=1)
    while d.year <= LAST_YEAR:
        w = _YEAR_W[source][d.year - FIRST_YEAR] if shaped else 1.0
        if shaped:
            wd = d.isoweekday()
            if source in ("yelp", "imdb") and wd in (6, 7, 1):
                w *= 3.0
            elif source == "amazon" and wd in (6, 7):
                w *= 0.5
            if source in ("amazon", "imdb") and d.month in (11, 12):
                w *= 2.0
        days.append(d)
        weights.append(w)
        d += one
    return days, list(itertools.accumulate(weights))


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) as CPython draws it (see the module docstring)."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _length_pool(rng: random.Random, n: int, q: float) -> list[int]:
    """n planted cleaned lengths with non-increasing bucket counts.

    Bucket b gets a quota proportional to q**b; floors plus a +1 prefix for
    the rounding remainder keep the integer counts non-increasing, which
    the bucket-profile view is expected to reproduce.
    """
    if n == 0:
        return []
    raw = [q**b for b in range(_N_BUCKETS)]
    scale = n / sum(raw)
    counts = [int(v * scale) for v in raw]
    for b in range(n - sum(counts)):
        counts[b] += 1
    pool = []
    for b, c in enumerate(counts):
        lo = 3 if b == 0 else 50 * b
        for _ in range(c):
            pool.append(lo + _below(rng, 50 * b + 50 - lo))
    rng.shuffle(pool)
    return pool


#: Keyed by c, a word's length plus its separator: len(words) and its bit
#: length, which rng.randrange(len(words)) draws with, and each word in its
#: three casings: as is, upper, capitalized.
_WORD_DRAWS = {
    length + 1: (len(ws), len(ws).bit_length(), tuple((w, w.upper(), w.capitalize()) for w in ws))
    for length, ws in _VOCAB.items()
}
_GAP_STOPS = tuple(" " + w.upper() + " " for w in _STOP_INSERTS)
_N_STOP, _K_STOP = len(_GAP_STOPS), len(_GAP_STOPS).bit_length()
_N_SEP, _K_SEP = len(_SEPARATORS), len(_SEPARATORS).bit_length()


def _build_text(rng: random.Random, target: int) -> str:
    """Text whose cleaned form has exactly target characters (target >= 3).

    Kept words come from the stopword-free vocabulary; gaps carry either a
    plain space or noise that cleans away without shifting the length.
    Each ``while r >= n`` loop is rng.randrange(n) as CPython draws it (see
    the module docstring).
    """
    getrandbits = rng.getrandbits
    rand = rng.random
    parts = []
    append = parts.append
    t = target + 1  # each word accounts for its length plus one separator
    first = True
    while t > 0:
        # c = t if t <= 10 else rng.randint(3, min(10, t - 3))
        if t <= 10:
            c = t
        elif t > 12:
            r = getrandbits(4)
            while r >= 8:
                r = getrandbits(4)
            c = 3 + r
        else:
            n = t - 5
            r = getrandbits(3)
            while r >= n:
                r = getrandbits(3)
            c = 3 + r
        t -= c
        n, k, casings = _WORD_DRAWS[c]
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        u = rand()
        w = casings[r][1 if u < 0.15 else 2 if u < 0.4 else 0]
        if first:
            first = False
        else:
            u = rand()
            if u < 0.10:
                r = getrandbits(_K_STOP)
                while r >= _N_STOP:
                    r = getrandbits(_K_STOP)
                append(_GAP_STOPS[r])
            elif u < 0.22:
                r = getrandbits(_K_SEP)
                while r >= _N_SEP:
                    r = getrandbits(_K_SEP)
                append(_SEPARATORS[r])
            else:
                append(" ")
        append(w)
    text = "".join(parts)
    if rand() < 0.06:
        text += "!!!"
    if rand() < 0.05:
        text = '"' + text + '"'
    return text


def _format_date(source: str, d: datetime.date, fallback: bool, rng: random.Random) -> str:
    y, m, dd = d.year, d.month, d.day
    if source == "amazon":
        return f"{y:04d}-{m:02d}-{dd:02d}" if fallback else f"{m:02d}/{dd:02d}/{y:04d}"
    if source == "yelp":
        if fallback:
            return f"{y:04d}-{m:02d}-{dd:02d}"
        return f"{y:04d}-{m:02d}-{dd:02d} {_below(rng, 24):02d}:{_below(rng, 60):02d}:{_below(rng, 60):02d}"
    if source == "steam":
        secs = (d.toordinal() - _EPOCH_ORDINAL) * 86400 + _below(rng, 86400)
        if fallback:
            return f"{y:04d}-{m:02d}-{dd:02d} {_below(rng, 24):02d}:{_below(rng, 60):02d}:{_below(rng, 60):02d}"
        return str(secs)
    if fallback:
        return f"{y:04d}-{m:02d}-{dd:02d}"
    return f"{MONTH_NAMES[m - 1]} {dd}, {y:04d}"


def _sentiment_label(source: str, cls: int, rng: random.Random) -> str:
    if source == "amazon":
        return ("1", "2")[_below(rng, 2)] if cls == 0 else ("4", "5")[_below(rng, 2)]
    if source == "steam":
        neg = ("negative", "false", "0")
        pos = ("positive", "true", "1")
        return neg[_below(rng, 3)] if cls == 0 else pos[_below(rng, 3)]
    if cls == 0:
        return ("negative", "very negative")[_below(rng, 2)]
    return ("positive", "very positive")[_below(rng, 2)]


_NEUTRAL_LABEL = {"amazon": "3", "yelp": "neutral", "imdb": "neutral"}


#: "\udcff" is a lone surrogate: a source file's surrogateescape encoding
#: writes it as the byte 0xff, which is not valid UTF-8.
_BROKEN_BYTE = "\udcff"


def _generate_source(source: str, rng: random.Random, n: int, profile: str, out) -> dict:
    """Write one source's rows to the text file out; returns its ground truth."""
    is_jsonl = source == "imdb"
    reasons = _JSONL_REASONS if is_jsonl else _CSV_REASONS
    has_neutral = source in _NEUTRAL_LABEL
    p_neg = _P_NEG[source]

    # phase 1: decide every row's fate so the class totals are known
    plan: list[tuple] = []
    n_by_class = [0, 0]
    for i in range(1, n + 1):
        if i % 53 == 0:
            plan.append(("bad", reasons[(i // 53 - 1) % len(reasons)]))
        elif has_neutral and rng.random() < 0.045:
            plan.append(("neutral",))
        else:
            cls = 0 if rng.random() < p_neg else 1
            n_by_class[cls] += 1
            plan.append(("norm", cls))

    decay = _DECAY_IMDB if source == "imdb" else _DECAY
    pools = [_length_pool(rng, n_by_class[0], decay[0]), _length_pool(rng, n_by_class[1], decay[1])]

    days, cum = _day_population(source, profile)
    total, hi = cum[-1] + 0.0, len(days) - 1
    rand = rng.random
    names = _NAMES[source]
    header = _HEADERS[source]
    eol = _EOL.get(source, "\n")

    write = out.write
    writerow = csv.writer(out, lineterminator=eol).writerow
    if not is_jsonl:
        writerow(header)

    tallies: dict[str, int] = {}
    by_sent = [0, 0]
    accepted = 0
    blanks = 0
    norm_seen = 0

    for i, entry in enumerate(plan, start=1):
        day = days[bisect_right(cum, rand() * total, 0, hi)]  # rng.choices(days, cum_weights=cum)[0]
        date_s = _format_date(source, day, i % 7 == 3, rng)
        name = names[_below(rng, len(names))]
        kind = entry[0]

        if kind == "bad":
            reason = entry[1]
            label = _sentiment_label(source, 1, rng)
            vals = {"name": name, "date": date_s, "label": label, "up": "2", "text": "fox dog amazing tale"}
            if reason == "bad_date":
                vals["date"] = _BAD_DATE[source]
            elif reason == "date_out_of_range":
                vals["date"] = _RANGE_DATE[source]
            elif reason == "bad_label":
                vals["label"] = _BAD_LABEL[source]
            elif reason == "bad_upvotes":
                vals["up"] = ("-3", "many")[i % 2]
            elif reason == "null_field":
                vals["text"] = ""
            elif reason == "empty_after_clean":
                vals["text"] = "The AND of!!! 123 under OVER"
            ordered = [vals["name"], vals["date"], vals["label"], vals["up"], vals["text"]]
            if is_jsonl:
                if reason == "bad_json":
                    write('{"movie": "Broken Record", "review_date": ' + eol)
                elif reason == "unsupported_shape":
                    obj = dict(zip(header, ordered))
                    obj["helpful"] = {"up": 2}
                    write(json.dumps(obj, ensure_ascii=False) + eol)
                elif reason == "missing_column":
                    obj = dict(zip(header, ordered))
                    del obj["helpful"]
                    write(json.dumps(obj, ensure_ascii=False) + eol)
                elif reason == "bad_encoding":
                    write('{"movie": "M' + _BROKEN_BYTE + '"}' + eol)
                else:
                    write(json.dumps(dict(zip(header, ordered)), ensure_ascii=False) + eol)
            elif reason == "ragged_row":
                writerow(ordered[:-1])
            elif reason == "bad_encoding":
                write(f"Mystery Item,{date_s},{label},2,br{_BROKEN_BYTE}oken text{eol}")
            else:
                writerow(ordered)
            tallies[reason] = tallies.get(reason, 0) + 1
        elif kind == "neutral":
            row = [name, date_s, _NEUTRAL_LABEL[source], "1", "fine middling stuff overall"]
            if is_jsonl:
                write(json.dumps(dict(zip(header, row)), ensure_ascii=False) + eol)
            else:
                writerow(row)
            tallies["neutral_dropped"] = tallies.get("neutral_dropped", 0) + 1
        else:
            cls = entry[1]
            norm_seen += 1
            length = pools[cls].pop()
            text = _build_text(rng, length)
            up = length // 10 + (15 if cls == 0 else 0) + _below(rng, 2)
            label = _sentiment_label(source, cls, rng)
            if not is_jsonl and norm_seen % 97 == 0:
                name = name + "\nsecond line"
            row = [name, date_s, label, str(up), text]
            if is_jsonl:
                obj = dict(zip(header, row))
                if rand() < 0.5:
                    obj["helpful"] = up  # exercise the numeric JSON path
                write(json.dumps(obj, ensure_ascii=False) + eol)
            else:
                writerow(row)
            accepted += 1
            by_sent[cls] += 1
        if i % 211 == 0:
            write(eol)
            blanks += 1

    truth = {
        "file": _FILES[source],
        "format": "jsonl" if is_jsonl else "csv",
        "rows": n,
        "blank_lines": blanks,
        "accepted": accepted,
        "accepted_by_sentiment": {"negative": by_sent[0], "positive": by_sent[1]},
        "rejected_by_reason": dict(sorted(tallies.items())),
    }
    return truth


def _write_source(out_dir: str, seed: int, profile: str, rows: int, source: str) -> dict:
    """Write one source's file from its own seeded stream; returns its ground truth.

    The one unit of work of ``generate``, in a worker process or in-process.
    """
    rng = random.Random(f"{seed}:{source}")
    path = os.path.join(out_dir, _FILES[source])
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return _generate_source(source, rng, rows, profile, fh)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def generate(out_dir: str, seed: int = 1, profile: str = "paper_shaped", rows_per_source: int = 1000) -> dict:
    """Write the four source files plus ground truth; returns the truth dict.

    Each source is written by a forked worker, up to one per usable core,
    and every worker is joined before this returns or raises. A worker's
    exception re-raises here with its own type; a worker that dies is a
    ``ReviewLakeError``.
    """
    if profile not in PROFILES:
        raise ConfigurationError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    if rows_per_source < 1:
        raise ConfigurationError("rows_per_source must be at least 1")

    os.makedirs(out_dir, exist_ok=True)
    work = functools.partial(_write_source, out_dir, seed, profile, rows_per_source)
    ctx = fork_context()
    if ctx is None:
        results = list(map(work, SOURCES))
    else:
        try:
            with ProcessPoolExecutor(min(len(SOURCES), _usable_cores()), mp_context=ctx) as pool:
                results = list(pool.map(work, SOURCES))
        except BrokenProcessPool:
            raise ReviewLakeError(f"a worker process writing the fixtures in {out_dir} died") from None
    per_source = dict(zip(SOURCES, results))

    truth = {
        "seed": seed,
        "profile": profile,
        "rows_per_source": rows_per_source,
        "per_source": per_source,
        "planted": {
            "p_negative": _P_NEG,
            "length_decay": {"negative": _DECAY[0], "positive": _DECAY[1], "imdb_swapped": True},
            "upvote_rule": "length // 10 + 15 * is_negative + jitter(0..1)",
            "weekday_boost": "yelp and imdb 3x on Sat/Sun/Mon; amazon 0.5x on Sat/Sun",
            "month_boost": "amazon and imdb 2x in Nov/Dec",
            "years": [FIRST_YEAR, LAST_YEAR],
        },
    }
    with open(os.path.join(out_dir, "ground_truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")

    config = {
        "sources": [{"source": s, "path": _FILES[s]} for s in SOURCES],
        "lake_dir": "lake",
        "out_dir": "out",
    }
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return truth
