"""Command line behavior: exit codes, config resolution, and the full
gen-fixtures -> ingest -> query -> report chain on a small corpus."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from reviewlake import clean, cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

def sha_tree(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("clidata")
    assert cli.run(["gen-fixtures", "--out", str(d), "--rows", "300", "--seed", "4"]) == 0
    return d


@pytest.fixture(scope="module")
def lake_dir(data_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("clilake") / "lake"
    assert cli.run(["ingest", "--config", str(data_dir / "config.json"), "--lake", str(d)]) == 0
    return d


def test_gen_fixtures_writes_corpus(data_dir):
    truth = json.loads((data_dir / "ground_truth.json").read_text(encoding="utf-8"))
    assert (data_dir / "config.json").exists()
    for src, t in truth["per_source"].items():
        assert (data_dir / t["file"]).exists(), src


def test_ingest_reports_manifest_and_matches_truth(data_dir, tmp_path, capsys):
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", str(data_dir / "config.json"), "--lake", str(lake)]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((lake / "manifest.json").read_text(encoding="utf-8"))
    assert printed == on_disk
    assert (lake / "rejects.jsonl").exists()
    for name in on_disk["record_files"]:
        assert (lake / name).exists()
    truth = json.loads((data_dir / "ground_truth.json").read_text(encoding="utf-8"))
    for src, t in truth["per_source"].items():
        st = on_disk["per_source"][src]
        assert st["accepted"] == t["accepted"]
        assert st["blank_lines"] == t["blank_lines"]
        assert st["rejected_by_reason"] == t["rejected_by_reason"]


def test_query_single_id(lake_dir, tmp_path):
    assert cli.run(["query", "per_year", "--lake", str(lake_dir), "--out", str(tmp_path)]) == 0
    blob = (tmp_path / "per_year.csv").read_bytes()
    assert blob.startswith(b"year,source,count\n")
    assert sorted(os.listdir(tmp_path)) == ["per_year.csv"]


def test_query_defaults_to_all_views(lake_dir, tmp_path):
    assert cli.run(["query", "--lake", str(lake_dir), "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(f"{q}.csv" for q in cli.analytics.QUERY_IDS)


def test_query_json_format(lake_dir, tmp_path):
    rc = cli.run(["query", "per_month", "--format", "json", "--lake", str(lake_dir), "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "per_month.json").read_text(encoding="utf-8"))
    assert rows and set(rows[0]) == {"month", "source", "count"}


def test_report_emits_tables_and_charts(lake_dir, tmp_path):
    assert cli.run(["report", "--lake", str(lake_dir), "--out", str(tmp_path)]) == 0
    names = sorted(os.listdir(tmp_path))
    want = sorted([f"{q}.csv" for q in cli.analytics.QUERY_IDS] + [f"{q}.svg" for q in cli.analytics.QUERY_IDS])
    assert names == want
    for q in cli.analytics.QUERY_IDS:
        svg = (tmp_path / f"{q}.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg ") and svg.endswith("</svg>\n")


def test_exit_codes(lake_dir, tmp_path, capsys):
    assert cli.run(["ingest", "--lake", str(tmp_path / "l")]) == 2  # no sources
    assert cli.run(["query", "bogus", "--lake", str(lake_dir), "--out", str(tmp_path)]) == 2
    assert cli.run(["query", "--lake", str(tmp_path / "missing"), "--out", str(tmp_path)]) == 1
    assert cli.run(["query", "--lake", str(lake_dir), "--out", str(tmp_path), "--partitions", "0"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as ei:
        cli.run(["query", "--format", "tsv"])
    assert ei.value.code == 2


def test_seed_belongs_to_gen_fixtures_only(lake_dir, tmp_path):
    for command in (["query", "per_year"], ["report"], ["ingest"]):
        with pytest.raises(SystemExit) as ei:
            cli.run(command + ["--seed", "5", "--lake", str(lake_dir), "--out", str(tmp_path)])
        assert ei.value.code == 2, command


@pytest.mark.parametrize(
    "doc",
    [
        '{"sources": []',  # not valid JSON
        '{"lake": "x"}',  # unknown key
        '{"neutral_policy": "keep"}',
        '{"neutral_policy": "drop", "sources": [{"source": "yelp", "path": "a.csv"}]}',  # key removed
        '{"sources": [{"source": "mars", "path": "x.csv"}]}',
        '{"sources": [{"source": "yelp", "path": "a.csv"}, {"source": "yelp", "path": "b.csv"}]}',
        '{"threads": 0}',
        '{"format": "tsv"}',
    ],
)
def test_bad_config_is_exit_2(tmp_path, capsys, doc):
    p = tmp_path / "cfg.json"
    p.write_text(doc)
    assert cli.run(["ingest", "--config", str(p), "--lake", str(tmp_path / "l")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_is_exit_1(tmp_path, capsys):
    assert cli.run(["ingest", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_paths_resolve_against_config_dir(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert cli.run(["gen-fixtures", "--out", str(data), "--rows", "120", "--seed", "6"]) == 0
    monkeypatch.chdir(tmp_path)  # cwd differs from the config's directory
    assert cli.run(["ingest", "--config", str(data / "config.json")]) == 0
    assert (data / "lake" / "manifest.json").exists()
    assert not (tmp_path / "lake").exists()


def test_mapping_source_mismatch_is_exit_1(data_dir, tmp_path, capsys):
    truth = json.loads((data_dir / "ground_truth.json").read_text(encoding="utf-8"))
    amazon_file = str(data_dir / truth["per_source"]["amazon"]["file"])
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({
        "source": "yelp",
        "column_map": {"name": "a", "date": "b", "sentiment": "c", "upvotes": "d", "text": "e"},
        "sentiment_scheme": "five_class_label",
        "date_formats": ["iso"],
    }))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"sources": [{"source": "amazon", "path": amazon_file, "mapping": str(mp)}]}
    ))
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(tmp_path / "lake")]) == 1
    assert "is for 'yelp'" in capsys.readouterr().err


def test_stoplist_env_override(data_dir, tmp_path, monkeypatch):
    sp = tmp_path / "stops.txt"
    sp.write_text("the\nzebra\n")
    monkeypatch.setenv("REVIEWLAKE_STOPLIST", str(sp))
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", str(data_dir / "config.json"), "--lake", str(lake)]) == 0
    manifest = json.loads((lake / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stoplist_checksum"] == clean.load_stoplist(str(sp)).checksum
    assert manifest["stoplist_checksum"] != clean.default_stoplist().checksum


def test_threads_do_not_change_lake_bytes(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = str(data_dir / "config.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.run(["ingest", "--config", cfg, "--lake", str(a), "--threads", "1"]) == 0
    assert cli.run(["ingest", "--config", cfg, "--lake", str(b), "--threads", "3"]) == 0
    assert sha_tree(a) == sha_tree(b)


def test_ingest_fsyncs_every_lake_file_and_both_directories(data_dir, tmp_path, monkeypatch):
    synced = set()
    fsync = os.fsync

    def recording_fsync(fd):
        st = os.fstat(fd)
        synced.add((st.st_dev, st.st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", str(data_dir / "config.json"), "--lake", str(lake)]) == 0
    wanted = [tmp_path, lake, *sorted(lake.iterdir())]
    assert len(wanted) == 8  # four record files, the rejects and the manifest
    unsynced = [p.name for p in wanted if (p.stat().st_dev, p.stat().st_ino) not in synced]
    assert unsynced == []


def test_partitions_do_not_change_tables(lake_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.run(["query", "--lake", str(lake_dir), "--out", str(a), "--partitions", "2"]) == 0
    assert cli.run(["query", "--lake", str(lake_dir), "--out", str(b), "--partitions", "5", "--threads", "2"]) == 0
    assert sha_tree(a) == sha_tree(b)


def test_mean_upvotes_outside_float_range_is_exit_1(tmp_path, capsys):
    src = tmp_path / "steam.csv"
    src.write_text(
        "app_name,timestamp_created,voted_up,votes_up,review\n"
        f"Game,1600000000,true,{'9' * 400},great fun game\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "steam", "path": str(src)}]}))
    lake = str(tmp_path / "lake")
    assert cli.run(["ingest", "--config", str(cfg), "--lake", lake]) == 0
    capsys.readouterr()
    assert cli.run(["query", "length_upvotes", "--lake", lake, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "mean_upvotes of group" in err and "outside the float range" in err


def test_upvote_count_past_int_conversion_limit_is_a_reject(tmp_path, capsys):
    src = tmp_path / "steam.csv"
    src.write_text(
        "app_name,timestamp_created,voted_up,votes_up,review\n"
        f"Game,1600000000,true,{'9' * 5000},great fun game\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "steam", "path": str(src)}]}))
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(lake)]) == 0
    manifest = json.loads((lake / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["per_source"]["steam"]["accepted"] == 0
    assert manifest["per_source"]["steam"]["rejected_by_reason"] == {"bad_upvotes": 1}


@pytest.mark.parametrize("epoch", ["abc", "-1", "99999999999999999999"])
def test_bad_source_date_epoch_is_exit_2_before_any_lake(data_dir, tmp_path, monkeypatch, capsys, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)

    def no_rows_read(job):
        raise AssertionError("a source was read before the environment was checked")

    monkeypatch.setattr(cli, "_ingest_source", no_rows_read)
    out = tmp_path / "lakes"
    out.mkdir()
    rc = cli.run(["ingest", "--config", str(data_dir / "config.json"), "--lake", str(out / "lake")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SOURCE_DATE_EPOCH") and err.count("\n") == 1
    assert os.listdir(out) == []  # neither the lake nor a .lake-tmp-* staging directory


def test_unknown_fixture_profile_is_exit_2(tmp_path, capsys):
    assert cli.run(["gen-fixtures", "--out", str(tmp_path / "d"), "--profile", "weird"]) == 2
    assert "error: unknown profile 'weird'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


_STARTUP_CHECK = """
import sys
from reviewlake import cli
heavy = ("xml.sax", "urllib.request", "email", "ssl", "multiprocessing", "reviewlake.fixtures")
assert not [m for m in heavy if m in sys.modules], [m for m in heavy if m in sys.modules]
for threads in ("1", "2"):  # query and report never fan out
    rc = cli.run(["report", "--lake", sys.argv[1], "--out", sys.argv[2], "--threads", threads])
    assert rc == 0, rc
    assert "multiprocessing" not in sys.modules, threads
print("ok")
"""


def test_startup_skips_heavy_imports(lake_dir, tmp_path):
    # a fresh interpreter, since this one has imported everything already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_CHECK, str(lake_dir), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")
