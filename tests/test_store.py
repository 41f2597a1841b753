"""Lake writing, read-back validation, atomicity, and corruption detection."""

import datetime
import json
import os

import pytest

from reviewlake import cli, store
from reviewlake.errors import ConfigurationError, CorruptLakeError
from reviewlake.model import RejectRecord, UnifiedReview


def R(src, y=2020, m=5, d=4, sent=1, up=3, text="Great fun", name="N"):
    return UnifiedReview(name, datetime.date(y, m, d), sent, up, text, src)


def sample_reviews():
    return [
        R("steam", text="Solid game"),
        R("yelp", sent=0, up=0, text="Bland food"),
        R("steam", y=2021, text="Great patch"),
        R("imdb", name='Weird "Name", Incé', text="Slow plot"),
    ]


def sample_rejects():
    return [
        RejectRecord("steam", 4, "bad_date", "notanepoch"),
        RejectRecord("yelp", 9, "neutral_dropped", "neutral"),
    ]


def build_lake(path, items, blanks=None, checksum=""):
    """Stage each source's items and commit, as ingest does."""
    by_source = {}
    for item in items:
        by_source.setdefault(item.source, []).append(item)
    writer = store.LakeWriter(str(path))
    try:
        per_source = {src: writer.stage(src, its) for src, its in by_source.items()}
        for src, n in (blanks or {}).items():
            per_source[src].blank_lines = n
        return writer.commit(per_source, store.lake_timestamp(), checksum)
    except BaseException:
        writer.abort()
        raise


def write_sample(path):
    return build_lake(path, sample_reviews() + sample_rejects(), {"steam": 1}, "c" * 64)


def test_round_trip(tmp_path):
    lake = tmp_path / "lake"
    manifest = write_sample(lake)
    assert manifest.record_files == ("imdb.jsonl", "steam.jsonl", "yelp.jsonl")
    assert manifest.per_source["steam"].accepted == 2
    assert manifest.per_source["steam"].blank_lines == 1
    assert manifest.per_source["yelp"].rejected_by_reason == {"neutral_dropped": 1}

    ds = store.read_lake(str(lake), partitions=3)
    got = sorted(ds.to_list(), key=lambda r: (r.source, r.creation_date))
    want = sorted(sample_reviews(), key=lambda r: (r.source, r.creation_date))
    assert got == want
    assert ds.partition_count == 3


def test_lake_layout_and_line_format(tmp_path):
    lake = tmp_path / "lake"
    write_sample(lake)
    names = sorted(os.listdir(lake))
    assert names == ["imdb.jsonl", "manifest.json", "rejects.jsonl", "steam.jsonl", "yelp.jsonl"]
    first = (lake / "steam.jsonl").read_text(encoding="utf-8").splitlines()[0]
    doc = json.loads(first)
    assert list(doc) == ["name", "creation_date", "sentiment", "upvotes", "review_text", "source"]
    rej = (lake / "rejects.jsonl").read_text(encoding="utf-8").splitlines()[0]
    assert list(json.loads(rej)) == ["source", "row_number", "reason", "detail"]


def test_timestamp_honors_source_date_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    m = write_sample(tmp_path / "lake")
    assert m.created_at == "2023-11-14T22:13:20Z"


def test_overwrite_existing_lake(tmp_path):
    lake = tmp_path / "lake"
    write_sample(lake)
    build_lake(lake, [R("steam", text="Only one")])
    back = store.read_lake(str(lake))
    assert [r.review_text for r in back.to_list()] == ["Only one"]
    assert [p.name for p in tmp_path.iterdir()] == ["lake"]  # graveyard cleaned up


def test_refuses_to_replace_non_lake_directory(tmp_path):
    target = tmp_path / "precious"
    target.mkdir()
    (target / "thesis.txt").write_text("do not lose", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        write_sample(target)
    assert (target / "thesis.txt").read_text(encoding="utf-8") == "do not lose"


def test_interrupted_write_leaves_no_lake(tmp_path, capsys):
    # steam stages cleanly, then yelp's unterminated quote aborts the ingest
    (tmp_path / "steam.csv").write_text(
        "app_name,timestamp_created,voted_up,votes_up,review\nGame,1600000000,true,3,great fun\n"
    )
    (tmp_path / "yelp.csv").write_text('business_name,date,sentiment,useful,text\nCafe,2020-01-02,5,1,"good\n')
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [
        {"source": "steam", "path": "steam.csv"}, {"source": "yelp", "path": "yelp.csv"},
    ]}))
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(lake)]) == 1
    assert "unterminated quoted field" in capsys.readouterr().err
    assert not lake.exists()
    # no stray temp dirs either
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "steam.csv", "yelp.csv"]


def test_read_rejects_tampered_lines(tmp_path):
    lake = tmp_path / "lake"
    write_sample(lake)
    path = lake / "steam.jsonl"
    good = path.read_text(encoding="utf-8")

    def corrupt(line0):
        lines = good.splitlines()
        lines[0] = line0
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptLakeError):
            store.read_lake(str(lake))

    doc = json.loads(good.splitlines()[0])
    reordered = {k: doc[k] for k in ["creation_date", "name", "sentiment", "upvotes", "review_text", "source"]}
    corrupt(json.dumps(reordered))
    corrupt(good.splitlines()[0].replace('"sentiment":1', '"sentiment":2'))
    corrupt(good.splitlines()[0].replace('"sentiment":1', '"sentiment":true'))
    corrupt(good.splitlines()[0].replace('"creation_date":"2020-05-04"', '"creation_date":"1969-01-01"'))
    corrupt(good.splitlines()[0].replace('"review_text":"Solid game"', '"review_text":"dirty  spaces"'))
    corrupt(good.splitlines()[0].replace('"review_text":"Solid game"', '"review_text":"num3ric"'))
    corrupt(good.splitlines()[0].replace('"upvotes":3', '"upvotes":-1'))
    corrupt(good.splitlines()[0].replace('"source":"steam"', '"source":"yelp"'))
    corrupt("not json at all")
    corrupt("")  # blank line inside a record file


def test_read_refuses_other_date_spellings_and_trailing_data(tmp_path):
    lake = tmp_path / "lake"
    write_sample(lake)
    path = lake / "steam.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = lines[0]
    assert '"creation_date":"2020-05-04"' in first
    for bad in (
        first.replace("2020-05-04", "\u0662\u0660\u0662\u0660-05-04"),  # Arabic-Indic digits
        first.replace("2020-05-04", "2020-5-04"),
        first.replace("2020-05-04", "20200504"),
        first.replace("2020-05-04", "2020-02-30"),
        first + " {}",
        " " + first,
    ):
        path.write_text("\n".join([bad] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(CorruptLakeError):
            store.read_lake(str(lake))
    # the same date on many lines, and no final newline, still read back
    path.write_text("\n".join([first, first]), encoding="utf-8")
    back = [r for r in store.read_lake(str(lake)).to_list() if r.source == "steam"]
    assert [r.creation_date for r in back] == [datetime.date(2020, 5, 4)] * 2


def test_read_detects_count_mismatch(tmp_path):
    lake = tmp_path / "lake"
    write_sample(lake)
    path = lake / "steam.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text(lines[0] + "\n", encoding="utf-8")  # drop one record
    with pytest.raises(CorruptLakeError) as ei:
        store.read_lake(str(lake))
    assert "claims 2" in str(ei.value)


def test_read_detects_missing_record_file(tmp_path):
    lake = tmp_path / "lake"
    write_sample(lake)
    os.remove(lake / "steam.jsonl")
    with pytest.raises(CorruptLakeError):
        store.read_lake(str(lake))


def test_read_detects_reject_count_mismatch(tmp_path):
    lake = tmp_path / "lake"
    write_sample(lake)
    (lake / "rejects.jsonl").write_text("", encoding="utf-8")
    with pytest.raises(CorruptLakeError):
        store.read_lake(str(lake))


def test_read_detects_unknown_reject_reason(tmp_path):
    lake = tmp_path / "lake"
    write_sample(lake)
    path = lake / "rejects.jsonl"
    content = path.read_text(encoding="utf-8").replace("bad_date", "cosmic_rays")
    path.write_text(content, encoding="utf-8")
    with pytest.raises(CorruptLakeError):
        store.read_lake(str(lake))


def test_manifest_errors(tmp_path):
    with pytest.raises(CorruptLakeError):
        store.load_manifest(str(tmp_path / "nothere"))
    lake = tmp_path / "lake"
    write_sample(lake)
    mp = lake / "manifest.json"
    mp.write_text("{broken", encoding="utf-8")
    with pytest.raises(CorruptLakeError):
        store.load_manifest(str(lake))
    mp.write_text(json.dumps({"created_at": "x"}), encoding="utf-8")
    with pytest.raises(CorruptLakeError):
        store.load_manifest(str(lake))


def test_empty_lake_round_trip(tmp_path):
    lake = tmp_path / "empty"
    build_lake(lake, [])
    ds = store.read_lake(str(lake), partitions=2)
    assert len(ds) == 0
