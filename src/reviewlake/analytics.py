"""The six analytic views over the unified review dataset.

Every view is a roll-up of two small tables that :func:`rollup` builds
through the engine, in the manner of a data cube's roll-up or a map-side
combine before a shuffle:

* calendar counts, keyed by (source, creation_date, sentiment), give
  per_year, yoy, per_weekday and per_month;
* a length profile, keyed by (source, sentiment, bucket of ``BUCKET_WIDTH``
  characters, open from ``BUCKET_CAP``) with the count and the sums of
  text lengths and upvotes, gives length_upvotes and sentiment_profile.

Each table is one engine fold over the records, named by the key columns
above and its metrics, so a query of all six views folds over every
record twice, not six times. Every count and sum is an int, so
re-grouping them is exact, and a mean is one correctly rounded
int/int division, the same value a fold over the records gives. No mean
can leave the float range: a mean never exceeds the largest value it
averages, and the lake holds no upvote count above ``UPVOTE_MAX``. Results
are independent of partition layout. Calendar fields come from
``datetime.date`` arithmetic and the day names from ``WEEKDAY_NAMES``,
never from the platform's locale.

Query ids, in canonical order: per_year, yoy, per_weekday, per_month,
length_upvotes, sentiment_profile.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from reviewlake.engine import Metric, PartitionedDataset, _median, group_aggregate
from reviewlake.model import BUCKET_CAP, BUCKET_WIDTH, AggTable, new_record

WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


class ProfileRow(NamedTuple):
    source: str
    sentiment: int
    bucket: int
    length: int
    upvotes: int


class Rollup(NamedTuple):
    """The two tables every view is derived from."""

    calendar: AggTable  # source, creation_date, sentiment, count
    lengths: AggTable  # source, sentiment, bucket, count, sum_length, sum_upvotes


def _to_profile_row(r) -> ProfileRow:
    length = len(r.review_text)
    bucket = BUCKET_CAP if length >= BUCKET_CAP else (length // BUCKET_WIDTH) * BUCKET_WIDTH
    return new_record(ProfileRow, (r.source, r.sentiment, bucket, length, r.upvotes))


def rollup(ds: PartitionedDataset) -> Rollup:
    """The calendar counts and the length profile of a dataset of UnifiedReviews."""
    calendar = group_aggregate(ds, ("source", "creation_date", "sentiment"), (Metric("count"),))
    lengths = group_aggregate(
        ds.map(_to_profile_row),
        ("source", "sentiment", "bucket"),
        (Metric("count"), Metric("sum", "length"), Metric("sum", "upvotes")),
    )
    return Rollup(calendar, lengths)


def _summed(pairs) -> list[tuple]:
    """Sum the counts of (key tuple, count) pairs; rows sorted by key."""
    totals: dict[tuple, int] = {}
    for key, n in pairs:
        totals[key] = totals.get(key, 0) + n
    return [key + (n,) for key, n in sorted(totals.items())]


def reviews_per_year(cube: Rollup) -> AggTable:
    """Review counts grouped by (year, source)."""
    rows = _summed(((day.year, src), n) for src, day, _sent, n in cube.calendar.rows)
    return AggTable(("year", "source", "count"), rows)


def reviews_per_weekday(cube: Rollup) -> AggTable:
    """Counts by ISO weekday (Monday=1) and source, with the day name."""
    base = _summed(((day.isoweekday(), src), n) for src, day, _sent, n in cube.calendar.rows)
    rows = [(wd, WEEKDAY_NAMES[wd - 1], src, n) for wd, src, n in base]
    return AggTable(("weekday", "weekday_name", "source", "count"), rows)


def reviews_per_month(cube: Rollup) -> AggTable:
    """Counts by calendar month (1-12) and source."""
    rows = _summed(((day.month, src), n) for src, day, _sent, n in cube.calendar.rows)
    return AggTable(("month", "source", "count"), rows)


def _summed_tuples(pairs) -> list[tuple]:
    """Sum the tuples of (key, tuple) pairs position by position; (key, sums) pairs sorted by key."""
    groups: dict = {}
    for key, values in pairs:
        groups.setdefault(key, []).append(values)
    return [(key, tuple(map(sum, zip(*tuples)))) for key, tuples in sorted(groups.items())]


def length_upvote_profile(cube: Rollup) -> AggTable:
    """Review count and mean upvotes per 50-character length bucket.

    The bucket column holds the bin's inclusive lower bound; lengths of
    2000+ characters share the final open bucket.
    """
    pairs = ((bucket, (n, upvotes)) for _src, _sent, bucket, n, _length, upvotes in cube.lengths.rows)
    rows = [(bucket, n, upvotes / n) for bucket, (n, upvotes) in _summed_tuples(pairs)]
    return AggTable(("bucket", "review_count", "mean_upvotes"), rows)


def sentiment_profile(cube: Rollup) -> AggTable:
    """Mean cleaned-text length, mean upvotes, and count per (source, sentiment)."""
    pairs = (((src, sent), (n, length, upvotes)) for src, sent, _bucket, n, length, upvotes in cube.lengths.rows)
    rows = [key + (length / n, upvotes / n, n) for key, (n, length, upvotes) in _summed_tuples(pairs)]
    return AggTable(("source", "sentiment", "mean_length", "mean_upvotes", "count"), rows)


def yoy_percent_change(cube: Rollup) -> AggTable:
    """Year-over-year percent change in review counts per source.

    For every pair of numerically consecutive years a source appears in,
    emits 100*(current-prior)/prior attributed to the later year, once
    overall and once per sentiment class. A class with a zero prior-year
    count gets no row; the omission is listed in the table's notes. Each
    (source, split) series additionally gets a summary row with year
    "median" holding the engine's median of its yearly percentages. The
    year column is a string so data years and the summary label share it;
    "median" sorts after all 4-digit years.
    """
    base = _summed(((src, day.year, sent), n) for src, day, sent, n in cube.calendar.rows)
    # (source, year) -> (overall, negative, positive) counts, in key order, which the notes follow
    series = dict(_summed_tuples(((src, year), (n, 0, n) if sent else (n, n, 0)) for src, year, sent, n in base))
    rows: list[tuple] = []
    notes: list[str] = []
    pcts: dict[tuple[str, str], list[float]] = {}
    for (src, year), counts in series.items():
        priors = series.get((src, year - 1))
        if priors is None:
            continue
        for split, cur, prior in zip(("overall", "negative", "positive"), counts, priors):
            if prior == 0:
                notes.append(f"{src} {year} {split}: prior-year count 0, pct undefined")
                continue
            pct = 100.0 * (cur - prior) / prior
            rows.append((src, str(year), pct, split))
            pcts.setdefault((src, split), []).append(pct)
    rows += [(src, "median", _median(p, False), split) for (src, split), p in pcts.items()]
    rows.sort(key=lambda r: (r[0], r[1], r[3]))
    return AggTable(("source", "year", "pct_change", "sentiment_split"), rows, tuple(notes))


#: Query id -> view, in canonical order; the only catalog of views. The CLI
#: looks views up here at call time.
QUERIES: dict[str, Callable[[Rollup], AggTable]] = {
    "per_year": reviews_per_year,
    "yoy": yoy_percent_change,
    "per_weekday": reviews_per_weekday,
    "per_month": reviews_per_month,
    "length_upvotes": length_upvote_profile,
    "sentiment_profile": sentiment_profile,
}

QUERY_IDS = tuple(QUERIES)
