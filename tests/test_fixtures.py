"""Synthetic corpus generator: determinism, ground truth, input validation."""

import hashlib
import json
import os
import re

import pytest

from reviewlake import clean, fixtures, ingest
from reviewlake.errors import ConfigurationError
from reviewlake.model import RejectRecord

SOURCES = ("amazon", "imdb", "steam", "yelp")


def file_hashes(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_same_seed_same_bytes(tmp_path):
    t1 = fixtures.generate(str(tmp_path / "a"), seed=9, rows_per_source=400)
    t2 = fixtures.generate(str(tmp_path / "b"), seed=9, rows_per_source=400)
    assert t1 == t2
    assert file_hashes(tmp_path / "a") == file_hashes(tmp_path / "b")


def test_different_seed_different_bytes(tmp_path):
    fixtures.generate(str(tmp_path / "a"), seed=1, rows_per_source=300)
    fixtures.generate(str(tmp_path / "b"), seed=2, rows_per_source=300)
    h1, h2 = file_hashes(tmp_path / "a"), file_hashes(tmp_path / "b")
    assert set(h1) == set(h2)
    assert any(h1[k] != h2[k] for k in h1 if k != "config.json")


def test_truth_layout(tmp_path):
    truth = fixtures.generate(str(tmp_path), seed=3, rows_per_source=200)
    assert set(truth["per_source"]) == set(SOURCES)
    on_disk = json.loads((tmp_path / "ground_truth.json").read_text(encoding="utf-8"))
    assert on_disk == truth
    cfg = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    assert {s["source"] for s in cfg["sources"]} == set(SOURCES)
    for s in cfg["sources"]:
        assert (tmp_path / s["path"]).exists()
    for src in SOURCES:
        t = truth["per_source"][src]
        total_rejected = sum(t["rejected_by_reason"].values())
        assert t["rows"] == t["accepted"] + total_rejected
        assert t["accepted"] == sum(t["accepted_by_sentiment"].values())


def full_pipeline_tally(dirpath, truth, src):
    """Replays ingest+clean for one source, tallying every outcome."""
    t = truth["per_source"][src]
    mapping = ingest.default_mapping(src)
    stops = clean.default_stoplist()
    stats: dict = {}
    accepted = []
    reasons: dict = {}

    def reject(r):
        reasons[r.reason] = reasons.get(r.reason, 0) + 1

    with open(os.path.join(dirpath, t["file"]), "rb") as fh:
        if t["format"] == "jsonl":
            it = ingest.parse_jsonl(fh, source=src, stats=stats)
        else:
            it = ingest.parse_csv(fh, delimiter=mapping.delimiter, source=src, stats=stats)
        for item in it:
            if item.__class__ is RejectRecord:
                reject(item)
                continue
            a = ingest.adapt(item, mapping)
            if a.__class__ is RejectRecord:
                reject(a)
                continue
            r = clean.clean_review(a, stops, mapping)
            if r.__class__ is RejectRecord:
                reject(r)
            else:
                accepted.append(r)
    return accepted, reasons, stats.get("blank_lines", 0)


@pytest.mark.parametrize("src", SOURCES)
def test_ground_truth_matches_pipeline(tmp_path, src):
    truth = fixtures.generate(str(tmp_path), seed=5, rows_per_source=600)
    t = truth["per_source"][src]
    accepted, reasons, blanks = full_pipeline_tally(str(tmp_path), truth, src)
    assert len(accepted) == t["accepted"]
    assert reasons == t["rejected_by_reason"]
    assert blanks == t["blank_lines"]
    by_sent = {"negative": 0, "positive": 0}
    for r in accepted:
        by_sent["positive" if r.sentiment else "negative"] += 1
    assert by_sent == t["accepted_by_sentiment"]


def test_accepted_records_are_clean_fixed_points(tmp_path):
    truth = fixtures.generate(str(tmp_path), seed=7, rows_per_source=300)
    pat = re.compile(r"[A-Za-z]+(?: [A-Za-z]+)*")
    for src in SOURCES:
        accepted, _, _ = full_pipeline_tally(str(tmp_path), truth, src)
        assert accepted, src
        for r in accepted:
            assert pat.fullmatch(r.review_text), (src, r.review_text)
            assert fixtures.FIRST_YEAR <= r.creation_date.year <= fixtures.LAST_YEAR
            assert r.upvotes >= 0
            assert r.name == r.name.strip() != ""


def test_vocab_avoids_stopwords():
    stops = clean.default_stoplist().words
    for words in fixtures._VOCAB.values():
        for w in words:
            assert w.lower() not in stops, w


def test_rejects_bad_arguments(tmp_path):
    with pytest.raises(ConfigurationError):
        fixtures.generate(str(tmp_path), profile="weird")
    with pytest.raises(ConfigurationError):
        fixtures.generate(str(tmp_path), rows_per_source=0)


def test_uniform_profile_generates(tmp_path):
    truth = fixtures.generate(str(tmp_path), seed=2, profile="uniform", rows_per_source=300)
    for src in SOURCES:
        assert truth["per_source"][src]["accepted"] > 200
