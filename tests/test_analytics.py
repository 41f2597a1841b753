"""The six analytic views, pinned on small handcrafted datasets."""

import datetime

import pytest

from conftest import run_all
from reviewlake import analytics
from reviewlake.engine import PartitionedDataset
from reviewlake.model import UnifiedReview


def R(y, m, d, sent, up, text, src, name="N"):
    return UnifiedReview(name, datetime.date(y, m, d), sent, up, text, src)


def ds_of(*recs, parts=3):
    return analytics.rollup(PartitionedDataset.from_records(list(recs), parts))


def test_query_ids_catalog():
    assert analytics.QUERY_IDS == (
        "per_year", "yoy", "per_weekday", "per_month", "length_upvotes", "sentiment_profile",
    )


def test_run_all_covers_catalog_in_order(corpus10k):
    ds = PartitionedDataset.from_records(corpus10k["reviews"][:500], 4)
    assert tuple(run_all(ds)) == analytics.QUERY_IDS


def test_per_year():
    t = analytics.reviews_per_year(ds_of(
        R(2020, 1, 1, 1, 0, "Aa", "steam"),
        R(2020, 5, 1, 0, 0, "Bb", "steam"),
        R(2019, 1, 1, 1, 0, "Cc", "yelp"),
        R(2020, 2, 2, 1, 0, "Dd", "yelp"),
    ))
    assert t.columns == ("year", "source", "count")
    assert t.rows == [(2019, "yelp", 1), (2020, "steam", 2), (2020, "yelp", 1)]


def test_per_month_aggregates_across_years():
    t = analytics.reviews_per_month(ds_of(
        R(2019, 3, 1, 1, 0, "Aa", "imdb"),
        R(2020, 3, 9, 0, 0, "Bb", "imdb"),
        R(2020, 11, 2, 1, 0, "Cc", "imdb"),
    ))
    assert t.columns == ("month", "source", "count")
    assert t.rows == [(3, "imdb", 2), (11, "imdb", 1)]


def test_per_weekday_names_and_order():
    # 2024-01-01 was a Monday; the iso weekday index orders the rows
    t = analytics.reviews_per_weekday(ds_of(
        R(2024, 1, 7, 1, 0, "Su", "steam"),   # Sunday
        R(2024, 1, 1, 1, 0, "Mo", "steam"),   # Monday
        R(2024, 1, 6, 1, 0, "Sa", "yelp"),    # Saturday
        R(2024, 1, 8, 1, 0, "Mo", "steam"),   # Monday again
    ))
    assert t.columns == ("weekday", "weekday_name", "source", "count")
    assert t.rows == [
        (1, "Monday", "steam", 2),
        (6, "Saturday", "yelp", 1),
        (7, "Sunday", "steam", 1),
    ]


def test_length_buckets_width_and_cap():
    t = analytics.length_upvote_profile(ds_of(
        R(2020, 1, 1, 1, 2, "a" * 10, "steam"),
        R(2020, 1, 2, 1, 4, "a" * 49, "steam"),
        R(2020, 1, 3, 1, 6, "a" * 50, "steam"),
        R(2020, 1, 4, 1, 8, "a" * 1999, "steam"),
        R(2020, 1, 5, 1, 10, "a" * 2000, "steam"),
        R(2020, 1, 6, 1, 20, "a" * 5000, "steam"),
    ))
    assert t.columns == ("bucket", "review_count", "mean_upvotes")
    assert t.rows == [(0, 2, 3.0), (50, 1, 6.0), (1950, 1, 8.0), (2000, 2, 15.0)]


def test_sentiment_profile_exact_means():
    t = analytics.sentiment_profile(ds_of(
        R(2020, 1, 1, 0, 10, "aaaa", "yelp"),
        R(2020, 1, 2, 0, 20, "aaaaaa", "yelp"),
        R(2020, 1, 3, 1, 1, "aa", "yelp"),
        R(2020, 1, 4, 0, 5, "aaa", "steam"),
    ))
    assert t.columns == ("source", "sentiment", "mean_length", "mean_upvotes", "count")
    assert t.rows == [
        ("steam", 0, 3.0, 5.0, 1),
        ("yelp", 0, 5.0, 15.0, 2),
        ("yelp", 1, 2.0, 1.0, 1),
    ]


# ---------------------------------------------------------------------------
# year over year
# ---------------------------------------------------------------------------


def years(src, counts_by_year_sent):
    recs = []
    day = 1
    for (year, sent), n in counts_by_year_sent.items():
        for _ in range(n):
            recs.append(R(year, 6, (day % 27) + 1, sent, 0, "Tt", src))
            day += 1
    return recs


def test_yoy_reference_series():
    # overall 100 -> 150 -> 120 -> 180 gives +50, -20, +50 and median +50
    recs = years("steam", {
        (2018, 1): 60, (2018, 0): 40,
        (2019, 1): 90, (2019, 0): 60,
        (2020, 1): 72, (2020, 0): 48,
        (2021, 1): 108, (2021, 0): 72,
    })
    t = analytics.yoy_percent_change(analytics.rollup(PartitionedDataset.from_records(recs, 5)))
    assert t.columns == ("source", "year", "pct_change", "sentiment_split")
    by = {(r[1], r[3]): r[2] for r in t.rows if r[0] == "steam"}
    assert abs(by[("2019", "overall")] - 50.0) < 1e-9
    assert abs(by[("2020", "overall")] - -20.0) < 1e-9
    assert abs(by[("2021", "overall")] - 50.0) < 1e-9
    assert abs(by[("median", "overall")] - 50.0) < 1e-9
    assert abs(by[("2019", "positive")] - 50.0) < 1e-9
    assert abs(by[("2020", "negative")] - -20.0) < 1e-9


def test_yoy_skips_gap_years():
    recs = years("imdb", {(2018, 1): 5, (2021, 1): 10, (2022, 1): 20})
    t = analytics.yoy_percent_change(analytics.rollup(PartitionedDataset.from_records(recs, 2)))
    pairs = {(r[1], r[3]) for r in t.rows}
    assert ("2021", "overall") not in pairs  # 2020 absent, no defined change
    assert ("2022", "overall") in pairs


def test_yoy_zero_prior_sentiment_is_noted_not_invented():
    recs = years("yelp", {(2019, 1): 5, (2020, 1): 8, (2020, 0): 3})
    t = analytics.yoy_percent_change(analytics.rollup(PartitionedDataset.from_records(recs, 2)))
    cells = {(r[1], r[3]) for r in t.rows}
    assert ("2020", "negative") not in cells
    assert any("negative" in n and "2020" in n for n in t.notes)
    by = {(r[1], r[3]): r[2] for r in t.rows}
    assert abs(by[("2020", "overall")] - 120.0) < 1e-9


def test_yoy_zero_current_is_minus_hundred():
    recs = years("yelp", {(2019, 0): 4, (2019, 1): 4, (2020, 1): 8})
    t = analytics.yoy_percent_change(analytics.rollup(PartitionedDataset.from_records(recs, 1)))
    by = {(r[1], r[3]): r[2] for r in t.rows}
    assert abs(by[("2020", "negative")] - -100.0) < 1e-9


def test_yoy_median_even_series():
    # overall changes +100, +50: median 75
    recs = years("steam", {(2018, 1): 10, (2019, 1): 20, (2020, 1): 30})
    t = analytics.yoy_percent_change(analytics.rollup(PartitionedDataset.from_records(recs, 3)))
    by = {(r[1], r[3]): r[2] for r in t.rows}
    assert abs(by[("median", "overall")] - 75.0) < 1e-9


def test_empty_dataset_all_views():
    ds = PartitionedDataset.from_records([], 2)
    for qid, table in run_all(ds).items():
        assert table.rows == [], qid


# ---------------------------------------------------------------------------
# invariance on the shaped corpus
# ---------------------------------------------------------------------------


def test_partition_and_worker_invariance_on_corpus(corpus10k):
    reviews = corpus10k["reviews"][:3000]
    base = run_all(PartitionedDataset.from_records(reviews, 1))
    alt = run_all(PartitionedDataset.from_records(reviews, 13))
    par = run_all(PartitionedDataset.from_records(reviews, 4))
    for qid in analytics.QUERY_IDS:
        assert base[qid].rows == alt[qid].rows, qid
        assert base[qid].rows == par[qid].rows, qid
        assert base[qid].notes == alt[qid].notes == par[qid].notes, qid
