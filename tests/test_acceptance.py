"""Acceptance checks for the finished pipeline.

Each criterion runs as one test (the throughput criterion is split into
its single-run and parallel-speedup halves) and registers a PASS, FAIL,
or SKIP line with the summary hook in conftest, which prints one line
per criterion after the run. A criterion that cannot run on this host
skips loudly instead of quietly passing.
"""

import collections
import csv
import datetime
import hashlib
import json
import os
import random
import re
import time
from contextlib import contextmanager

import pytest

import conftest
from reviewlake import analytics, clean, cli, fixtures, ingest, report
from reviewlake.engine import AggSpec, Metric, PartitionedDataset, group_aggregate
from reviewlake.model import UnifiedReview
from oracles import oracle_aggregate
from test_dates import DAY_NAMES, WEEKDAY_ANCHORS, weekday_view_row

SOURCES = ("amazon", "imdb", "steam", "yelp")


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except pytest.skip.Exception as exc:
        conftest.acceptance_results.append((num, "SKIP", f"{desc} [{exc}]"))
        raise
    except BaseException:
        conftest.acceptance_results.append((num, "FAIL", desc))
        raise
    conftest.acceptance_results.append((num, "PASS", desc))


# ---------------------------------------------------------------------------
# shared corpora
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lake10k(corpus10k, tmp_path_factory):
    lake = tmp_path_factory.mktemp("acc-lake") / "lake"
    cfg = os.path.join(corpus10k["dir"], "config.json")
    assert cli.run(["ingest", "--config", cfg, "--lake", str(lake)]) == 0
    return lake


@pytest.fixture(scope="module")
def tables10k(corpus10k):
    return conftest.run_all(PartitionedDataset.from_records(corpus10k["reviews"], 8))


def sha_tree(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# 1: engine versus brute-force oracle
# ---------------------------------------------------------------------------

Rec = collections.namedtuple("Rec", "g h a b")

_METRIC_POOL = (
    Metric("count"),
    Metric("sum", "a"), Metric("sum", "b"),
    Metric("mean", "a"), Metric("mean", "b"),
    Metric("median", "a"), Metric("median", "b"),
    Metric("min", "a"), Metric("min", "b"),
    Metric("max", "a"), Metric("max", "b"),
)

_FLOATS = (0.1, -0.25, 3.5e-3, 1e6, -0.0, 2.5, 1 / 3, 1e-9)


def _key_g(r):
    return r.g


def _key_gh(r):
    return (r.g, r.h)


def _random_records(rng):
    n = rng.randrange(0, 1001) if rng.random() < 0.25 else rng.randrange(0, 161)
    recs = []
    for _ in range(n):
        a = rng.randrange(-10**18, 10**18) if rng.random() < 0.2 else rng.randrange(-10**6, 10**6)
        if rng.random() < 0.5:
            b = rng.randrange(-1000, 1000)
        else:
            b = rng.choice(_FLOATS) * rng.randrange(1, 50)
        recs.append(Rec(rng.randrange(6), rng.choice("xyz"), a, b))
    return recs


def _type_sig(rows):
    return [tuple(v.__class__ for v in r) for r in rows]


def test_criterion_1_oracle_equivalence():
    with criterion(1, "grouped aggregation equals the brute-force oracle on 1000 random datasets"):
        rng = random.Random(20260822)
        t0 = time.perf_counter()
        for i in range(1000):
            recs = _random_records(rng)
            scalar_key = rng.random() < 0.4
            key_fn = _key_g if scalar_key else _key_gh
            key_cols = ("g",) if scalar_key else ("g", "h")
            metrics = tuple(
                rng.sample(_METRIC_POOL, rng.randrange(1, 5))
            )
            spec = AggSpec("rand", key_cols, key_fn, metrics)
            ds = PartitionedDataset.from_records(recs, rng.randrange(1, 17))
            got = group_aggregate(ds, spec)
            want = oracle_aggregate(recs, key_fn, metrics)
            assert got.rows == want, f"dataset {i}"
            assert _type_sig(got.rows) == _type_sig(want), f"dataset {i} types"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2: partition invariance
# ---------------------------------------------------------------------------


def test_criterion_2_partition_invariance(corpus10k):
    with criterion(2, "all six query outputs byte-identical across partitions 1/2/7/64"):
        reviews = corpus10k["reviews"]
        blobs = []
        for parts in (1, 2, 7, 64):
            tables = conftest.run_all(PartitionedDataset.from_records(reviews, parts))
            blob = {}
            for qid, table in tables.items():
                blob[qid] = (
                    report.table_to_csv_bytes(table),
                    report.table_to_json_bytes(table),
                    table.notes,
                )
            blobs.append(blob)
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3]


# ---------------------------------------------------------------------------
# 3: cleaning idempotence and output alphabet
# ---------------------------------------------------------------------------

_PIECES = (
    "word", "The", "AND", "oF", "a", "I", "stop",
    "café", "naïve", "λόγος", "中文", "😀", "ß",
    "123", "4.5", "!!", "?", ";", "--", "...", '"', "'",
    " ", "  ", "\t", "\n", "\r\n", ",", "é",
)


def test_criterion_3_idempotent_cleaning():
    with criterion(3, "text pipeline idempotent with letters-and-single-spaces output (10000 strings)"):
        stops = clean.default_stoplist()
        shape = re.compile(r"[A-Za-z]+(?: [A-Za-z]+)*")
        rng = random.Random(3)

        def pipeline(s):
            return clean.remove_stopwords(clean.strip_non_alpha(s), stops)

        for _ in range(10000):
            s = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(0, 40)))
            out = pipeline(s)
            assert out == "" or shape.fullmatch(out), repr(s)
            assert pipeline(out) == out, repr(s)


# ---------------------------------------------------------------------------
# 4: row conservation through ingest
# ---------------------------------------------------------------------------


def _physical_rows(path, fmt, delimiter):
    """Counts records and blank lines straight off the file, bypassing the
    package's own parser. CSV counts exclude the header row."""
    if fmt == "jsonl":
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        blanks = sum(1 for ln in lines if not ln.strip())
        return len(lines), blanks
    with open(path, "r", encoding="utf-8-sig", errors="replace", newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    blanks = sum(1 for r in rows if r == [])
    return len(rows) - 1, blanks


def test_criterion_4_conservation(corpus10k, lake10k):
    with criterion(4, "accepted + rejected + blank lines account for every physical input row"):
        manifest = json.loads((lake10k / "manifest.json").read_text(encoding="utf-8"))
        for src in SOURCES:
            t = corpus10k["truth"]["per_source"][src]
            path = os.path.join(corpus10k["dir"], t["file"])
            delim = ingest.default_mapping(src).delimiter
            physical, blanks_on_disk = _physical_rows(path, t["format"], delim)
            st = manifest["per_source"][src]
            accounted = st["accepted"] + sum(st["rejected_by_reason"].values()) + st["blank_lines"]
            assert accounted == physical, src
            assert st["blank_lines"] == blanks_on_disk, src


# ---------------------------------------------------------------------------
# 5 and 6: planted posting-time patterns
# ---------------------------------------------------------------------------


def test_criterion_5_weekday_pattern(tables10k):
    with criterion(5, "weekend pattern: Sat/Sun/Mon top-3 for yelp and imdb, amazon dips on weekends"):
        counts = {src: {} for src in SOURCES}
        for wd, _name, src, n in tables10k["per_weekday"].rows:
            counts[src][wd] = n
        for src in ("yelp", "imdb"):
            top3 = sorted(counts[src], key=counts[src].get, reverse=True)[:3]
            assert set(top3) == {6, 7, 1}, (src, counts[src])
        am = counts["amazon"]
        weekday_mean = sum(am[d] for d in range(1, 6)) / 5
        assert am[6] < weekday_mean and am[7] < weekday_mean, am


def test_criterion_6_seasonal_pattern(tables10k):
    with criterion(6, "November and December are the top-2 months for amazon and imdb"):
        counts = {src: {} for src in SOURCES}
        for month, src, n in tables10k["per_month"].rows:
            counts[src][month] = n
        for src in ("amazon", "imdb"):
            top2 = sorted(counts[src], key=counts[src].get, reverse=True)[:2]
            assert set(top2) == {11, 12}, (src, counts[src])


# ---------------------------------------------------------------------------
# 7: length bucket shape
# ---------------------------------------------------------------------------


def test_criterion_7_length_profile(tables10k):
    with criterion(7, "bucket counts non-increasing; mean upvotes non-decreasing over first 10"):
        rows = tables10k["length_upvotes"].rows
        counts = [r[1] for r in rows]
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts
        means = [r[2] for r in rows[:10]]
        assert len(means) == 10
        assert all(a <= b for a, b in zip(means, means[1:])), means


# ---------------------------------------------------------------------------
# 8: sentiment length and engagement contrasts
# ---------------------------------------------------------------------------


def test_criterion_8_sentiment_contrasts(tables10k):
    with criterion(8, "negative reviews longer (imdb reversed); negative always more upvoted"):
        cell = {(r[0], r[1]): (r[2], r[3]) for r in tables10k["sentiment_profile"].rows}
        for src in ("amazon", "yelp", "steam"):
            assert cell[(src, 0)][0] > cell[(src, 1)][0], src
        assert cell[("imdb", 1)][0] > cell[("imdb", 0)][0]
        for src in SOURCES:
            assert cell[(src, 0)][1] > cell[(src, 1)][1], src


# ---------------------------------------------------------------------------
# 9: year-over-year arithmetic
# ---------------------------------------------------------------------------


def test_criterion_9_yoy_arithmetic():
    with criterion(9, "planted counts 100/150/120/180 give +50/-20/+50 with median +50 (1e-9)"):
        recs = []
        for year, n in ((2018, 100), (2019, 150), (2020, 120), (2021, 180)):
            for i in range(n):
                recs.append(UnifiedReview(
                    "N", datetime.date(year, 1 + i % 12, 1 + i % 28), i % 2, 0, "Tt", "steam",
                ))
        table = analytics.yoy_percent_change(analytics.rollup(PartitionedDataset.from_records(recs, 7)))
        by = {(r[1], r[3]): r[2] for r in table.rows}
        for year, want in (("2019", 50.0), ("2020", -20.0), ("2021", 50.0), ("median", 50.0)):
            assert abs(by[(year, "overall")] - want) <= 1e-9, year


def test_criterion_10_calendar():
    with criterion(10, "20 hand-checked dates map to the right weekday"):
        assert len(WEEKDAY_ANCHORS) == 20
        assert ("2000-02-29", 2) in WEEKDAY_ANCHORS
        assert ("2024-02-29", 4) in WEEKDAY_ANCHORS
        for iso, want in WEEKDAY_ANCHORS:
            assert weekday_view_row(iso) == (want, DAY_NAMES[want - 1], "steam", 1), iso


# ---------------------------------------------------------------------------
# 11: throughput on one million rows
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus1m(tmp_path_factory):
    d = tmp_path_factory.mktemp("acc-1m")
    fixtures.generate(str(d), seed=1, rows_per_source=250000)
    return d


def test_criterion_11_throughput(corpus1m):
    with criterion(11, "one million rows through ingest and all queries in under 60 s"):
        cfg = os.path.join(str(corpus1m), "config.json")
        lake = os.path.join(str(corpus1m), "lake")
        out = os.path.join(str(corpus1m), "out")
        t0 = time.perf_counter()
        assert cli.run(["ingest", "--config", cfg, "--lake", lake, "--threads", "1"]) == 0
        assert cli.run(["query", "--lake", lake, "--out", out, "--threads", "1"]) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_11_parallel_speedup(corpus1m):
    with criterion(11, "four worker processes at least 1.5x faster than one"):
        cores = os.cpu_count() or 1
        if cores < 4:
            pytest.skip(f"needs 4 cores to measure the 4-worker run, this host has {cores}")
        cfg = os.path.join(str(corpus1m), "config.json")
        t1 = time.perf_counter()
        assert cli.run(["ingest", "--config", cfg, "--lake", os.path.join(str(corpus1m), "l1"), "--threads", "1"]) == 0
        t1 = time.perf_counter() - t1
        t4 = time.perf_counter()
        assert cli.run(["ingest", "--config", cfg, "--lake", os.path.join(str(corpus1m), "l4"), "--threads", "4"]) == 0
        t4 = time.perf_counter() - t4
        assert t4 * 1.5 <= t1, f"1 worker {t1:.1f}s, 4 workers {t4:.1f}s"


# ---------------------------------------------------------------------------
# 12: end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path, monkeypatch):
    with criterion(12, "same seed and config twice: byte-identical lake, tables, and charts"):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        trees = []
        for run in ("a", "b"):
            base = tmp_path / run
            data, lake, out = str(base / "data"), str(base / "lake"), str(base / "out")
            assert cli.run(["gen-fixtures", "--out", data, "--rows", "3000", "--seed", "11"]) == 0
            assert cli.run(["ingest", "--config", os.path.join(data, "config.json"), "--lake", lake]) == 0
            assert cli.run(["report", "--lake", lake, "--out", out]) == 0
            trees.append((sha_tree(data), sha_tree(lake), sha_tree(out)))
        assert trees[0] == trees[1]
