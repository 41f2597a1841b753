"""The six analytic views over the unified review dataset.

Each query is a pure function of the record multiset: grouping and metric
arithmetic go through the engine, so results are independent of partition
layout. Calendar fields come from the package's own civil calendar, not the
platform's locale machinery.

Query ids, in canonical order: per_year, yoy, per_weekday, per_month,
length_upvotes, sentiment_profile.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from reviewlake import civil
from reviewlake.engine import AggSpec, Metric, PartitionedDataset, group_aggregate
from reviewlake.model import AggTable

BUCKET_WIDTH = 50
BUCKET_CAP = 2000


class ProfileRow(NamedTuple):
    source: str
    sentiment: int
    length: int
    upvotes: int


# Key extractors are module-level named functions, so profiles and
# tracebacks name the view they belong to.


def _key_year_source(r):
    return (r.creation_date.year, r.source)


def _key_weekday_source(r):
    d = r.creation_date
    return (civil.weekday_iso(d.year, d.month, d.day), r.source)


def _key_month_source(r):
    return (r.creation_date.month, r.source)


def _key_bucket(r):
    length = len(r.review_text)
    return BUCKET_CAP if length >= BUCKET_CAP else (length // BUCKET_WIDTH) * BUCKET_WIDTH


def _key_source_sentiment(r):
    return (r.source, r.sentiment)


def _key_source_year_sentiment(r):
    return (r.source, r.creation_date.year, r.sentiment)


def _to_profile_row(r):
    return ProfileRow(r.source, r.sentiment, len(r.review_text), r.upvotes)


def reviews_per_year(ds: PartitionedDataset) -> AggTable:
    """Review counts grouped by (year, source)."""
    spec = AggSpec("per_year", ("year", "source"), _key_year_source, (Metric("count"),))
    return group_aggregate(ds, spec)


def reviews_per_weekday(ds: PartitionedDataset) -> AggTable:
    """Counts by ISO weekday (Monday=1) and source, with the day name."""
    spec = AggSpec("per_weekday", ("weekday", "source"), _key_weekday_source, (Metric("count"),))
    base = group_aggregate(ds, spec)
    rows = [(wd, civil.WEEKDAY_NAMES[wd - 1], src, n) for wd, src, n in base.rows]
    return AggTable("per_weekday", ("weekday", "weekday_name", "source", "count"), rows)


def reviews_per_month(ds: PartitionedDataset) -> AggTable:
    """Counts by calendar month (1-12) and source."""
    spec = AggSpec("per_month", ("month", "source"), _key_month_source, (Metric("count"),))
    return group_aggregate(ds, spec)


def length_upvote_profile(ds: PartitionedDataset) -> AggTable:
    """Review count and mean upvotes per 50-character length bucket.

    The bucket column holds the bin's inclusive lower bound; lengths of
    2000+ characters share the final open bucket.
    """
    spec = AggSpec(
        "length_upvotes", ("bucket",), _key_bucket, (Metric("count"), Metric("mean", "upvotes"))
    )
    base = group_aggregate(ds, spec)
    return AggTable("length_upvotes", ("bucket", "review_count", "mean_upvotes"), base.rows)


def sentiment_profile(ds: PartitionedDataset) -> AggTable:
    """Mean cleaned-text length, mean upvotes, and count per (source, sentiment)."""
    projected = ds.map(_to_profile_row)
    spec = AggSpec(
        "sentiment_profile",
        ("source", "sentiment"),
        _key_source_sentiment,
        (Metric("mean", "length"), Metric("mean", "upvotes"), Metric("count")),
    )
    return group_aggregate(projected, spec)


def yoy_percent_change(ds: PartitionedDataset) -> AggTable:
    """Year-over-year percent change in review counts per source.

    For every pair of numerically consecutive years a source appears in,
    emits 100*(current-prior)/prior attributed to the later year, once
    overall and once per sentiment class. A class with a zero prior-year
    count gets no row; the omission is listed in the table's notes. Each
    (source, split) series additionally gets a summary row with year
    "median" holding the median of its yearly percentages. The year column
    is a string so data years and the summary label share it; "median"
    sorts after all 4-digit years.
    """
    spec = AggSpec(
        "yoy_base", ("source", "year", "sentiment"), _key_source_year_sentiment, (Metric("count"),)
    )
    base = group_aggregate(ds, spec)
    by_class: dict[tuple[str, int, int], int] = {}
    totals: dict[tuple[str, int], int] = {}
    years: dict[str, set[int]] = {}
    for src, year, sent, n in base.rows:
        by_class[(src, year, sent)] = n
        totals[(src, year)] = totals.get((src, year), 0) + n
        years.setdefault(src, set()).add(year)

    rows: list[tuple] = []
    notes: list[str] = []
    for src in sorted(years):
        series: dict[str, list[float]] = {"negative": [], "overall": [], "positive": []}
        for cur in sorted(years[src]):
            prior = cur - 1
            if prior not in years[src]:
                continue
            pct = 100.0 * (totals[(src, cur)] - totals[(src, prior)]) / totals[(src, prior)]
            rows.append((src, str(cur), pct, "overall"))
            series["overall"].append(pct)
            for sent, split in ((0, "negative"), (1, "positive")):
                cp = by_class.get((src, prior, sent), 0)
                cc = by_class.get((src, cur, sent), 0)
                if cp == 0:
                    notes.append(f"{src} {cur} {split}: prior-year count 0, pct undefined")
                    continue
                pct = 100.0 * (cc - cp) / cp
                rows.append((src, str(cur), pct, split))
                series[split].append(pct)
        for split, pcts in series.items():
            if pcts:
                rows.append((src, "median", _median(pcts), split))
    rows.sort(key=lambda r: (r[0], r[1], r[3]))
    return AggTable(
        "yoy", ("source", "year", "pct_change", "sentiment_split"), rows, tuple(notes)
    )


def _median(xs: list[float]) -> float:
    ordered = sorted(xs)
    h = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[h]
    return (ordered[h - 1] + ordered[h]) / 2


#: Query id -> view, in canonical order; the only catalog of views. The CLI
#: looks views up here at call time.
QUERIES: dict[str, Callable[[PartitionedDataset], AggTable]] = {
    "per_year": reviews_per_year,
    "yoy": yoy_percent_change,
    "per_weekday": reviews_per_weekday,
    "per_month": reviews_per_month,
    "length_upvotes": length_upvote_profile,
    "sentiment_profile": sentiment_profile,
}

QUERY_IDS = tuple(QUERIES)


def run_all(ds: PartitionedDataset) -> dict[str, AggTable]:
    """All six views, keyed by query id, in canonical order."""
    return {qid: view(ds) for qid, view in QUERIES.items()}
