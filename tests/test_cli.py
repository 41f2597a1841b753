"""Command line behavior: exit codes, config resolution, and the full
gen-fixtures -> ingest -> query -> report chain on a small corpus."""

import errno
import hashlib
import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import time

import pytest

from reviewlake import analytics, clean, cli, fixtures, ingest
from reviewlake.engine import PartitionedDataset
from reviewlake.errors import QueryTypeError
from reviewlake.model import SOURCES

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
    assert cli.run(["query", "--lake", str(lake_dir), "--out", str(tmp_path), "--partitions", "0"]) == 0  # ignored
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
    "flags",
    [
        ["--lake", "x"], ["--format", "json"], ["--partitions", "7"], ["--threads", "9"], ["--config", "c.json"],
        ["--profile", "uniform"],
    ],
)
def test_gen_fixtures_refuses_the_flags_it_does_not_read(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as ei:
        cli.run(["gen-fixtures", "--out", str(tmp_path / "d"), "--rows", "5", *flags])
    assert ei.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


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
        '{"sources": 5}',
        '{"lake_dir": 5}',
        '{"out_dir": 5}',
        '{"stoplist": 5}',
        '{"sources": [{"source": "yelp", "path": 5}]}',
        '{"sources": [{"source": "yelp", "path": "a.csv", "mapping": 5}]}',
        '{"sources": [{"source": "yelp", "path": "a.csv", "mappng": "m.json"}]}',
        '{"sources": [{"source": "yelp", "path": "a.csv", "mapping": 0}]}',
        '{"sources": [{"source": "yelp", "path": "a.csv", "mapping": false}]}',
        '{"sources": [{"source": "yelp", "path": "a.csv", "mapping": ""}]}',
        '{"sources": [{"source": "yelp", "path": "a.csv", "mapping": null}]}',
    ],
)
def test_bad_config_is_exit_2(tmp_path, capsys, doc):
    p = tmp_path / "cfg.json"
    p.write_text(doc)
    assert cli.run(["ingest", "--config", str(p), "--lake", str(tmp_path / "l")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if "mapp" in doc:
        assert "sources[0]" in err


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


@pytest.mark.parametrize(
    "doc, flags, setting",
    [
        ({"lake_dir": ""}, [], "lake_dir"),
        ({"out_dir": ""}, [], "out_dir"),
        ({"stoplist": ""}, [], "stoplist"),
        ({"sources": [{"source": "yelp", "path": ""}]}, [], "sources[0].path"),
        ({"sources": [{"source": "yelp", "path": "a.csv", "mapping": ""}]}, [], "sources[0].mapping"),
        ({}, ["--lake", ""], "lake_dir"),
        ({}, ["--out", ""], "out_dir"),
    ],
)
def test_empty_path_is_exit_2_before_any_file(lake_dir, tmp_path, monkeypatch, capsys, doc, flags, setting):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lake_dir": str(lake_dir), **doc}))
    monkeypatch.chdir(tmp_path)
    assert cli.run(["query", "per_year", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{setting} must be a non-empty path string" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("bad", ["a\0b", "\ud800"], ids=["nul", "lone_surrogate"])
@pytest.mark.parametrize(
    "command, setting",
    [
        ("ingest", "sources[0].path"),
        ("ingest", "sources[0].mapping"),
        ("ingest", "lake_dir"),
        ("ingest", "stoplist"),
        ("query", "lake_dir"),
        ("query", "out_dir"),
    ],
)
def test_a_path_the_os_cannot_take_is_exit_2(tmp_path, monkeypatch, capsys, command, setting, bad):
    # both are valid JSON strings, yet no file name: refused where the config is read
    source = {"source": "yelp", "path": "y.csv"}
    doc = {"sources": [source], "lake_dir": "lake", "out_dir": "out"}
    if setting.startswith("sources[0]."):
        source[setting.removeprefix("sources[0].")] = bad
    else:
        doc[setting] = bad
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert cli.run([command, *(["per_year"] if command == "query" else []), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and f"{setting} is not a path the OS can take" in err
    assert os.listdir(tmp_path) == ["cfg.json"]  # no lake, no .lake-tmp-* staging directory, no output


FILE_SETTINGS = {
    "sources": [{"source": "yelp", "path": "y.csv", "mapping": "m.json"}],
    "lake_dir": "l",
    "out_dir": "o",
    "threads": 4,
    "format": "csv",
    "stoplist": "s.txt",
}


@pytest.mark.parametrize(
    "flag, value, setting, expected",
    [
        ("--lake", "flag_lake", "lake_dir", "flag_lake"),
        ("--out", "flag_out", "out_dir", "flag_out"),
        ("--format", "json", "format", "json"),
        ("--threads", "5", "threads", 5),
    ],
)
def test_a_flag_overrides_its_config_key_and_nothing_else(tmp_path, flag, value, setting, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FILE_SETTINGS))
    from_file = cli.load_config_file(str(cfg))
    args = cli._build_parser().parse_args(["query", "--config", str(cfg), flag, value])
    assert cli.resolve_config(args) == from_file._replace(**{setting: expected})
    assert getattr(from_file, setting) != expected


def test_the_readme_config_example_loads_as_documented(tmp_path):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```json\n", text.index("## Configuration")) + len("```json\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text[start : text.index("```\n", start)])
    d = str(tmp_path)
    assert cli.load_config_file(str(cfg)) == cli.RunConfig(
        sources=(
            cli.SourceSpec("yelp", os.path.join(d, "yelp_reviews.csv")),
            cli.SourceSpec("imdb", os.path.join(d, "imdb_reviews.jsonl"), os.path.join(d, "my_imdb.json")),
        ),
        lake_dir=os.path.join(d, "lake"),
        out_dir=os.path.join(d, "out"),
        threads=4,
        format="csv",
        stoplist=os.path.join(d, "stopwords.txt"),
    )


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


def test_mapping_with_a_quote_delimiter_is_exit_1(data_dir, tmp_path, capsys):
    truth = json.loads((data_dir / "ground_truth.json").read_text(encoding="utf-8"))
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({
        "source": "amazon",
        "column_map": {"name": "a", "date": "b", "sentiment": "c", "upvotes": "d", "text": "e"},
        "sentiment_scheme": "star_rating",
        "date_formats": ["iso"],
        "delimiter": '"',
    }))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [
        {"source": "amazon", "path": str(data_dir / truth["per_source"]["amazon"]["file"]), "mapping": str(mp)},
        {"source": "steam", "path": str(data_dir / truth["per_source"]["steam"]["file"])},
    ]}))
    for threads in ("1", "2"):
        lake = tmp_path / "lake"
        assert cli.run(["ingest", "--config", str(cfg), "--lake", str(lake), "--threads", threads]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mp}: delimiter must be ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "map.json"]


@pytest.mark.parametrize(
    "mapping, why",
    [('{"source": "yelp"', "not valid JSON"), (json.dumps(ingest.default_mapping("steam")._asdict()), "is for 'steam'")],
    ids=["not_json", "other_source"],
)
def test_every_mapping_is_checked_before_a_row_is_read(data_dir, tmp_path, monkeypatch, capsys, mapping, why):
    # yelp sorts last, so a check made per source as it is read would parse the other three first
    (tmp_path / "yelp_map.json").write_text(mapping, encoding="utf-8")
    doc = json.loads((data_dir / "config.json").read_text(encoding="utf-8"))
    for entry in doc["sources"]:
        entry["path"] = str(data_dir / entry["path"])
        if entry["source"] == "yelp":
            entry["mapping"] = "yelp_map.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    read = []
    real_iter_source = ingest.iter_source

    def spy(path, *args):
        read.append(os.path.basename(path))
        return real_iter_source(path, *args)

    monkeypatch.setattr(ingest, "iter_source", spy)
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(tmp_path / "lake"), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert why in err and err.count("\n") == 1
    assert read == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "yelp_map.json"]  # no .lake-tmp-*


def _config_with_stoplist(data_dir, tmp_path, stoplist):
    """A copy of the corpus config in tmp_path, with ``stoplist`` set unless it is None."""
    doc = json.loads((data_dir / "config.json").read_text(encoding="utf-8"))
    for entry in doc["sources"]:
        entry["path"] = str(data_dir / entry["path"])
    if stoplist is not None:
        doc["stoplist"] = stoplist
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    return cfg


def test_stoplist_comes_from_the_config_key_or_else_the_bundled_list(data_dir, tmp_path):
    sp = tmp_path / "stops.txt"
    sp.write_text("the\nzebra\n")
    for stoplist, stops in (("stops.txt", clean.load_stoplist(str(sp))), (None, clean.default_stoplist())):
        lake = tmp_path / "lake"
        cfg = _config_with_stoplist(data_dir, tmp_path, stoplist)
        assert cli.run(["ingest", "--config", str(cfg), "--lake", str(lake)]) == 0
        manifest = json.loads((lake / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["stoplist_checksum"] == stops.checksum
    assert clean.load_stoplist(str(sp)).checksum != clean.default_stoplist().checksum


def test_a_stoplist_that_is_not_utf8_is_exit_2(data_dir, tmp_path, capsys):
    sp = tmp_path / "stops.txt"
    sp.write_bytes(b"the\n\xff\xfe\n")
    cfg = _config_with_stoplist(data_dir, tmp_path, sp.name)
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(tmp_path / "lake")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sp}: stoplist is not UTF-8: ") and err.count("\n") == 1
    assert not (tmp_path / "lake").exists()


def test_a_missing_stoplist_is_exit_1(data_dir, tmp_path, capsys):
    cfg = _config_with_stoplist(data_dir, tmp_path, "gone.txt")
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(tmp_path / "lake")]) == 1
    assert capsys.readouterr().err == f"error: No such file or directory ({tmp_path / 'gone.txt'})\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]  # no lake, no staging directory


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("where", ["config", "mapping", "manifest", "source row"])
def test_json_nested_past_the_decoder_depth_is_refused_like_bad_json(lake_dir, tmp_path, capsys, where):
    """RFC 8259 lets a reader limit nesting. The decoder's limit is each
    reader's error for bad JSON, or a row's reject, never a RecursionError.
    (rejects.jsonl decodes no JSON: its deep line is one of the tamper cases
    in test_store.py.)"""
    cfg, mapping, lake = tmp_path / "cfg.json", tmp_path / "map.json", tmp_path / "lake"
    row = {"app_name": "A", "timestamp_created": "1600000000", "voted_up": True, "votes_up": 1, "review": "fine game"}
    (tmp_path / "steam.jsonl").write_text(json.dumps(row) + '\n{"a": ' + _DEEP + "}\n", encoding="utf-8")
    mapping.write_text(_DEEP, encoding="utf-8")
    source = {"source": "steam", "path": "steam.jsonl"} | ({"mapping": mapping.name} if where == "mapping" else {})
    cfg.write_text('{"sources": ' + _DEEP + "}" if where == "config" else json.dumps({"sources": [source]}))
    if where == "manifest":
        shutil.copytree(lake_dir, lake)
        (lake / "manifest.json").write_text(_DEEP + "\n", encoding="utf-8")
        code = cli.run(["query", "--lake", str(lake), "--out", str(tmp_path / "out")])
    else:
        code = cli.run(["ingest", "--config", str(cfg), "--lake", str(lake)])
    expected = {
        "config": (2, f"error: config {cfg}: not valid JSON: "),
        "mapping": (1, f"error: {mapping}: not valid JSON: "),
        "manifest": (1, f"error: {lake / 'manifest.json'}: not valid JSON: "),
        "source row": (0, ""),
    }[where]
    err = capsys.readouterr().err
    assert (code, err[: len(expected[1])]) == expected
    if code:
        assert "maximum recursion depth" in err and err.count("\n") == 1
    else:
        assert json.loads((lake / "rejects.jsonl").read_text(encoding="utf-8")) == {
            "source": "steam", "row_number": 2, "reason": "unsupported_shape", "detail": "nested too deep to decode"
        }
        assert json.loads((lake / "manifest.json").read_text(encoding="utf-8"))["per_source"]["steam"]["accepted"] == 1


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
    # query and report accept --partitions and ignore it, whatever its value
    for command in ("query", "report"):
        plain = tmp_path / command
        assert cli.run([command, "--lake", str(lake_dir), "--out", str(plain)]) == 0
        for parts in ("-1", "0", "2", "1000000000"):
            out = tmp_path / f"{command}{parts}"
            argv = [command, "--lake", str(lake_dir), "--out", str(out), "--partitions", parts, "--threads", "2"]
            assert cli.run(argv) == 0
            assert sha_tree(out) == sha_tree(plain), (command, parts)
    # report writes the same tables as query
    tables = {name: digest for name, digest in sha_tree(tmp_path / "report").items() if name.endswith(".csv")}
    assert tables == sha_tree(tmp_path / "query")


@pytest.mark.parametrize("command", ["ingest", "query", "report"])
def test_the_partitions_key_is_refused_like_any_unknown_key(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "yelp", "path": "y.csv"}], "partitions": 2}))
    assert cli.run([command, "--config", str(cfg), "--lake", str(tmp_path / "l"), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: config {cfg}: unknown keys ['partitions']\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_query_and_report_look_views_up_at_call_time(lake_dir, tmp_path, monkeypatch):
    # bench/tracing.py rebinds the catalog's entries to time each view
    calls = []
    view = cli._QUERY_FNS["per_year"]

    def wrapped(ds):
        calls.append(command)
        return view(ds)

    monkeypatch.setitem(cli._QUERY_FNS, "per_year", wrapped)
    for command in ("query", "report"):
        assert cli.run([command, "--lake", str(lake_dir), "--out", str(tmp_path / command)]) == 0
    assert calls == ["query", "report"]


def test_report_prints_table_notes(tmp_path, capsys):
    src = tmp_path / "steam.csv"
    src.write_text(
        "app_name,timestamp_created,voted_up,votes_up,review\n"
        "Game,1560000000,true,1,great fun game\n"
        "Game,1560100000,true,2,lovely art style\n"
        "Game,1590000000,true,3,great sequel\n"
        "Game,1590100000,false,0,boring slow game\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "steam", "path": str(src)}]}))
    lake = str(tmp_path / "lake")
    assert cli.run(["ingest", "--config", str(cfg), "--lake", lake]) == 0
    capsys.readouterr()
    assert cli.run(["report", "--lake", lake, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "  note: steam 2020 negative: prior-year count 0, pct undefined\n" in out


def _lake_with_huge_upvotes(tmp_path) -> str:
    """A one-record steam lake whose upvote count is 400 nines.

    Ingest rejects such a count, so the lake is edited by hand after a
    clean ingest.
    """
    src = tmp_path / "steam.csv"
    src.write_text(
        "app_name,timestamp_created,voted_up,votes_up,review\n"
        "Game,1600000000,true,7,great fun game\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "steam", "path": str(src)}]}))
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(lake)]) == 0
    records = lake / "steam.jsonl"
    line = records.read_text(encoding="utf-8")
    assert line.count('"upvotes":7,') == 1
    records.write_text(line.replace('"upvotes":7,', f'"upvotes":{"9" * 400},'), encoding="utf-8")
    return str(lake)


def test_mean_upvotes_outside_float_range_is_exit_1(tmp_path, capsys):
    # the count that would push a mean past the float range fails the read
    lake = _lake_with_huge_upvotes(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    assert cli.run(["query", "length_upvotes", "--lake", lake, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "steam.jsonl:1: upvotes must be an integer from 0 to UPVOTE_MAX" in err
    assert list(out.iterdir()) == []


def test_upvote_count_above_the_float_range_is_a_reject_and_the_lake_reports(tmp_path, capsys):
    src = tmp_path / "steam.csv"
    src.write_text(
        "app_name,timestamp_created,voted_up,votes_up,review\n"
        "Game,1600000000,true,3,great fun game\n"
        f"Game,1600100000,true,{'9' * 400},lovely art style\n"
        f"Game,1600200000,false,{clean.UPVOTE_MAX},boring slow game\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "steam", "path": str(src)}]}))
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(lake)]) == 0
    manifest = json.loads((lake / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["per_source"]["steam"]["accepted"] == 2
    assert manifest["per_source"]["steam"]["rejected_by_reason"] == {"bad_upvotes": 1}
    capsys.readouterr()
    assert cli.run(["report", "--lake", str(lake), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    for chart in (tmp_path / "out").glob("*.svg"):
        svg = chart.read_text(encoding="utf-8")
        assert "inf" not in svg and "nan" not in svg, chart.name


def test_fatal_csv_error_names_the_file_and_the_byte(tmp_path):
    src = tmp_path / "steam.csv"
    src.write_text(
        "app_name,timestamp_created,voted_up,votes_up,review\n"
        "Game,1600000000,true,3,great fun game\n"
        'Game,1600100000,true,4,"never closed\n'
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "steam", "path": str(src)}]}))
    proc = _run_cli(["ingest", "--config", str(cfg), "--lake", str(tmp_path / "lake")])
    assert proc.returncode == 1
    offset = src.read_bytes().index(b'"never')
    assert proc.stderr == f"error: {src}: unterminated quoted field at byte {offset}\n"


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


def test_epoch_past_int_conversion_limit_is_a_reject(tmp_path):
    src = tmp_path / "steam.csv"
    src.write_text(
        "app_name,timestamp_created,voted_up,votes_up,review\n"
        f"Game,{'9' * 5000},true,3,great fun game\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "steam", "path": str(src)}]}))
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(lake)]) == 0
    manifest = json.loads((lake / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["per_source"]["steam"]["accepted"] == 0
    assert manifest["per_source"]["steam"]["rejected_by_reason"] == {"date_out_of_range": 1}


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


def test_ingest_refuses_a_non_lake_target_before_reading_a_row(data_dir, lake_dir, tmp_path, monkeypatch, capsys):
    def no_rows_read(*args):
        raise AssertionError("a source was read before the lake target was checked")

    monkeypatch.setattr(cli, "_ingest_source", no_rows_read)
    thesis = tmp_path / "thesis"
    thesis.mkdir()
    (thesis / "thesis.txt").write_text("do not lose", encoding="utf-8")
    web_app = tmp_path / "precious"  # a manifest.json that is not the writer's
    web_app.mkdir()
    (web_app / "manifest.json").write_text('{"name": "app"}', encoding="utf-8")
    (web_app / "thesis.txt").write_text("do not lose", encoding="utf-8")
    lake_and_backup = tmp_path / "lake"  # a lake, plus a file no lake holds
    shutil.copytree(lake_dir, lake_and_backup)
    (lake_and_backup / "amazon.jsonl.bak").write_bytes((lake_dir / "amazon.jsonl").read_bytes())
    targets = {target: sha_tree(target) for target in (thesis, web_app, lake_and_backup)}
    for target, before in targets.items():
        assert cli.run(["ingest", "--config", str(data_dir / "config.json"), "--lake", str(target)]) == 2
        err = capsys.readouterr().err
        assert "not a lake" in err and err.count("\n") == 1, err
        assert sha_tree(target) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lake", "precious", "thesis"]  # no staging directory


@pytest.mark.parametrize("inside", ["", "sub"], ids=["the_lake", "a_directory_in_it"])
def test_query_and_report_refuse_an_out_inside_the_lake(lake_dir, tmp_path, capsys, inside):
    lake = tmp_path / "lake"
    shutil.copytree(lake_dir, lake)
    before = sha_tree(lake)
    for command in (["query"], ["report"]):
        assert cli.run(command + ["--lake", str(lake), "--out", str(lake / inside)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out_dir") and err.count("\n") == 1, err
        assert sha_tree(lake) == before
    assert cli.run(["query", "--lake", str(lake), "--out", str(tmp_path / "out")]) == 0


def test_gen_fixtures_refuses_an_out_that_holds_a_file_it_does_not_write(lake_dir, tmp_path, capsys):
    lake = tmp_path / "lake"
    shutil.copytree(lake_dir, lake)
    before = sha_tree(lake)
    assert cli.run(["gen-fixtures", "--out", str(lake), "--rows", "20"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: out_dir {str(lake)!r} holds 'amazon.jsonl', a file gen-fixtures does not write\n"
    assert sha_tree(lake) == before
    assert cli.run(["query", "--lake", str(lake), "--out", str(tmp_path / "out")]) == 0


def test_gen_fixtures_writes_again_into_a_corpus_that_holds_its_lake(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli.run(["gen-fixtures", "--out", str(corpus), "--rows", "20"]) == 0
    first = sha_tree(corpus)
    assert cli.run(["ingest", "--config", str(corpus / "config.json")]) == 0
    assert cli.run(["report", "--config", str(corpus / "config.json")]) == 0
    lake, out = sha_tree(corpus / "lake"), sha_tree(corpus / "out")
    assert cli.run(["gen-fixtures", "--out", str(corpus), "--rows", "20"]) == 0
    assert sorted(os.listdir(corpus)) == sorted([*first, "lake", "out"])
    assert {name: hashlib.sha256((corpus / name).read_bytes()).hexdigest() for name in first} == first
    assert (sha_tree(corpus / "lake"), sha_tree(corpus / "out")) == (lake, out)


@pytest.mark.parametrize("flags", [["--format", "json"], ["--partitions", "2"]])
def test_ingest_refuses_the_table_flags(data_dir, tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as ei:
        cli.run(["ingest", "--config", str(data_dir / "config.json"), "--lake", str(tmp_path / "lake"), *flags])
    assert ei.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []  # neither the lake nor a .lake-tmp-* staging directory


@pytest.mark.parametrize("name", ["a\nb.csv", "a\rb.csv", "a\x1bb.csv", "a\x85b.csv", "a\u2028b.csv", "café.csv"])
def test_a_path_is_printed_on_the_one_error_line(tmp_path, capsys, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "yelp", "path": name}]}), encoding="utf-8")
    assert cli.run(["ingest", "--config", str(cfg), "--lake", str(tmp_path / "lake")]) == 1
    err = capsys.readouterr().err
    shown = repr(name)[1:-1]  # control characters escaped, printable non-ASCII as it is
    assert err.splitlines() == [f"error: No such file or directory ({tmp_path / shown})"]


def test_a_worker_oserror_keeps_its_type_and_is_exit_1(tmp_path, capsys):
    out = tmp_path / "d"
    (out / "imdb.jsonl").mkdir(parents=True)  # the imdb worker cannot open its file
    assert cli.run(["gen-fixtures", "--out", str(out), "--rows", "20"]) == 1
    assert capsys.readouterr().err == f"error: Is a directory ({out / 'imdb.jsonl'})\n"


def _run_cli(args, env=None):
    """One CLI command in a fresh interpreter, so stderr is all it printed."""
    env = dict(env or os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "reviewlake.cli", *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )


def _exit_code_cases(data_dir, tmp_path, lake_dir):
    """(name, CLI args, extra environment, documented exit code, exact error line or None) per case."""
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"sources": [')
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"sources": [{"source": "yelp", "path": "nowhere.csv"}]}))
    (tmp_path / "open.csv").write_text(
        'business_name,date,sentiment,useful,text\nCafe,2020-01-01,positive,1,"open\n'
    )
    open_quote = tmp_path / "open.json"
    open_quote.write_text(json.dumps({"sources": [{"source": "yelp", "path": "open.csv"}]}))
    corrupt = tmp_path / "corrupt"
    shutil.copytree(lake_dir, corrupt)
    (corrupt / "manifest.json").write_text("{not json")
    a_file = tmp_path / "a_file"
    a_file.write_text("not a lake")
    foreign = tmp_path / "foreign"
    foreign.mkdir()
    (foreign / "manifest.json").write_text('{"name": "app"}')
    extra = tmp_path / "extra"
    shutil.copytree(lake_dir, extra)
    (extra / "amazon.jsonl.bak").write_text("")
    dir_file = tmp_path / "dir_file"
    shutil.copytree(lake_dir, dir_file)
    (dir_file / "amazon.jsonl").unlink()
    (dir_file / "amazon.jsonl").mkdir()
    nope = tmp_path / "nope.json"
    no_mapping = tmp_path / "no_mapping.json"
    no_mapping.write_text(json.dumps({"sources": [{"source": "yelp", "path": "y.csv", "mapping": str(nope)}]}))
    config = str(data_dir / "config.json")
    out = str(tmp_path / "out")
    return [
        ("bad config JSON", ["ingest", "--config", str(bad_json)], {}, 2, None),
        ("unknown query id", ["query", "bogus", "--lake", str(lake_dir), "--out", out], {}, 2, None),
        ("malformed SOURCE_DATE_EPOCH", ["ingest", "--config", config, "--lake", str(tmp_path / "l1")],
         {"SOURCE_DATE_EPOCH": "abc"}, 2, None),
        ("missing mapping file", ["ingest", "--config", str(no_mapping), "--lake", str(tmp_path / "l4")], {}, 1,
         f"error: No such file or directory ({nope})"),
        ("missing source file", ["ingest", "--config", str(missing), "--lake", str(tmp_path / "l2")], {}, 1, None),
        ("unterminated quote", ["ingest", "--config", str(open_quote), "--lake", str(tmp_path / "l3")], {}, 1, None),
        ("corrupt manifest", ["query", "--lake", str(corrupt), "--out", out], {}, 1, None),
        ("a record file that is a directory", ["query", "--lake", str(dir_file), "--out", out], {}, 1,
         f"error: Is a directory ({dir_file / 'amazon.jsonl'})"),
        ("ingest into a --lake that is a file", ["ingest", "--config", config, "--lake", str(a_file)], {}, 2, None),
        ("query a --lake that is a file", ["query", "--lake", str(a_file), "--out", out], {}, 1, None),
        ("ingest into a foreign manifest.json", ["ingest", "--config", config, "--lake", str(foreign)], {}, 2, None),
        ("ingest into a lake with an extra file", ["ingest", "--config", config, "--lake", str(extra)], {}, 2, None),
        ("report --out inside the lake", ["report", "--lake", str(lake_dir), "--out", str(lake_dir / "o")], {}, 2,
         None),
    ]


def test_exit_code_table(data_dir, lake_dir, tmp_path):
    for name, args, extra, code, line in _exit_code_cases(data_dir, tmp_path, lake_dir):
        proc = _run_cli(args, dict(os.environ, **extra))
        assert proc.returncode == code, (name, proc.stderr)
        assert "Traceback" not in proc.stderr, name
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (name, proc.stderr)
        assert line is None or lines == [line], (name, proc.stderr)


# Digests of the seed-1 500-rows-per-source lake, recorded before the row
# path was rebuilt for speed; both worker counts must keep these bytes.
PINNED_LAKE = {
    "amazon.jsonl": "4d02e91b4348fd4265b37d2f7007adad826c4feaf3e4fbc7358874b1a38c647b",
    "imdb.jsonl": "fae1bc697efb45da972903439a979ef0f7a1517f010edacf3e81691a85adbca5",
    "manifest.json": "ce255d56a222ff731be178de61fa1c68e3c935fe8af425cf6c9bd2452745a93e",
    "rejects.jsonl": "6900c6162376ef27e7a0597b7ee93ce7a39a7d95f9e5b40b0f38c85d0752061f",
    "steam.jsonl": "7e844ef07168bf1ff8b8c86486b083e84e1c5b4d7d925dc4cb04c40a34de4f47",
    "yelp.jsonl": "e0e2b890c17ffa0f22dcddbef5e8358f0c71a49254faf4ce33126401acc03b04",
}


@pytest.fixture(scope="module")
def seed1_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("seed1")
    fixtures.generate(str(d), seed=1, rows_per_source=500)
    return d


@pytest.mark.parametrize("threads", ["1", "2"])
def test_lake_keeps_its_bytes(seed1_corpus, tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    lake = tmp_path / "lake"
    argv = ["ingest", "--config", str(seed1_corpus / "config.json"), "--lake", str(lake), "--threads", threads]
    assert cli.run(argv) == 0
    assert sha_tree(lake) == PINNED_LAKE


# Digests of what report and query --format json write from that lake,
# recorded before the aggregation engine was rewritten.
PINNED_OUTPUT = {
    "report": {
        "length_upvotes.csv": "4f1ab4d7a2c08e4e34f94853ff44af958542a7f268f37a42166c9903b183671d",
        "length_upvotes.svg": "df2e06a7b46cdf053dd17420004a9858f348b3cfeab45a7d73679569e64e47b6",
        "per_month.csv": "105fa4bbd98f9b98f6a1198f17c170725895c7af6a983455f28a2b33ad25c0c4",
        "per_month.svg": "fc6832ddd12b865e8d0a2339ece0e9a2e453709f2321735fb9e36f45235a9fd8",
        "per_weekday.csv": "b00ab3bba99be42d68da974f5ba7bdad985780f3307b4e76a1d9249ee1ff9006",
        "per_weekday.svg": "a170434b83d1b421787f7a03081aaa9dd24b472a7de508108275f525e559ad5d",
        "per_year.csv": "306f3f8420d15a0853ec17fdea2794576b894df0b38b89c617909697ad2d828b",
        "per_year.svg": "fba3cb8c5bf17a6ce38bea58010f5cba02d7cd416a927a16866f13378136c967",
        "sentiment_profile.csv": "24002fb374078abfc973ae98c50a8bdff2cbb2dd2511ec4cd96402c8596d97cb",
        "sentiment_profile.svg": "7c7956c41cf325ff131a4010d2dd2def23bdac91fcee785d234f89fde0fc19b5",
        "yoy.csv": "6a5a4e0b0c71a0579b9579884331105ecc01e61e75df2210339e8cbe88cec591",
        "yoy.svg": "f5e24fec98a680bace8cee8c2560767176f598145065ec6e6b3fc8c539ca58fa",
    },
    "query": {
        "length_upvotes.json": "eb07c4d62f264b7330f19542ebc112d571037591a1f47a6c05db9ef748c9fe0d",
        "per_month.json": "680bd3df76172192bfb161252063ebf2ab9a8ad4d5ab7cc92b745ce9428e2e3f",
        "per_weekday.json": "61dc1af18cca2a7b56cb053ca1eaf3b8acb4fea2556b73e61351706f65a04ad4",
        "per_year.json": "34620af0db6c484e0c7694e121e1fd59fb9618fcbb8f41b303393d559404d960",
        "sentiment_profile.json": "bc0315e623a6db1bc82d4071f4d2b8a5c35276dbd449d8b1454b037fa4ac27ae",
        "yoy.json": "9491f54fbe1ebc181fa3f6a585016b074b203161b4996cd3856462acb790b44f",
    },
}


@pytest.mark.parametrize("command", [["report"], ["query", "--format", "json"]], ids=["report", "query_json"])
def test_tables_and_charts_keep_their_bytes(seed1_corpus, tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    lake, out = tmp_path / "lake", tmp_path / "out"
    assert cli.run(["ingest", "--config", str(seed1_corpus / "config.json"), "--lake", str(lake)]) == 0
    assert cli.run(command + ["--lake", str(lake), "--out", str(out)]) == 0
    assert sha_tree(out) == PINNED_OUTPUT[command[0]]


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


_IMPORTS_AFTER_STARTUP = """
import sys
before = set(sys.modules)
from reviewlake import cli
for command in ("query", "report"):
    assert cli.run([command, "--lake", sys.argv[1], "--out", sys.argv[2]]) == 0, command
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_query_and_report_load_no_ingest_code(lake_dir, tmp_path):
    # a fresh interpreter; the set difference leaves out what the site preloads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_AFTER_STARTUP, str(lake_dir), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "reviewlake.analytics" in loaded
    unwanted = {"reviewlake.clean", "reviewlake.ingest", "reviewlake.fixtures", "hashlib", "dataclasses"}
    assert loaded & unwanted == set()


_IMPORTS_OF_A_FULL_RUN = """
import sys
before = set(sys.modules)
from reviewlake import cli
data, out = sys.argv[1], sys.argv[2]
lake = out + "/lake"
for argv in (
    ["gen-fixtures", "--out", data, "--rows", "50", "--seed", "3"],
    ["ingest", "--config", data + "/config.json", "--lake", lake, "--threads", "2"],
    ["query", "--lake", lake, "--out", out + "/query"],
    ["report", "--lake", lake, "--out", out + "/report"],
):
    assert cli.run(argv) == 0, argv
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_a_full_run_loads_only_the_package_and_the_standard_library(tmp_path):
    # the README promises no runtime dependencies; numpy or orjson being
    # installed must not let one creep in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_OF_A_FULL_RUN, str(tmp_path / "data"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.partition(".")[0] for name in proc.stdout.splitlines()[-1].split()}
    assert "reviewlake" in loaded
    # multiprocessing registers the main module a second time as __mp_main__
    ours = {"reviewlake", "__mp_main__"}
    assert {m for m in loaded - ours if m not in sys.stdlib_module_names} == set()


def test_the_lake_code_loads_neither_the_engine_nor_the_views():
    # nor tempfile or random; -S, so that no site hook preloads them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, reviewlake.store; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "reviewlake.store" in loaded
    assert loaded & {"reviewlake.engine", "reviewlake.analytics", "tempfile", "random"} == set()


def test_all_six_views_cost_two_folds_and_one_map(lake_dir, tmp_path, monkeypatch):
    calls = {"group_aggregate": 0, "map": 0}
    group_aggregate = cli.analytics.group_aggregate
    ds_map = PartitionedDataset.map

    def counting_aggregate(ds, key_columns, metrics):
        calls["group_aggregate"] += 1
        return group_aggregate(ds, key_columns, metrics)

    def counting_map(ds, f):
        calls["map"] += 1
        return ds_map(ds, f)

    monkeypatch.setattr(cli.analytics, "group_aggregate", counting_aggregate)
    monkeypatch.setattr(PartitionedDataset, "map", counting_map)
    assert cli.run(["query", "--lake", str(lake_dir), "--out", str(tmp_path)]) == 0
    assert len(os.listdir(tmp_path)) == 6
    assert calls == {"group_aggregate": 2, "map": 1}


def test_query_folds_one_partition(lake_dir, tmp_path, monkeypatch):
    from_records = PartitionedDataset.__dict__["from_records"].__func__
    counts = []

    def bounded(cls, records, partition_count):
        if partition_count > 1:  # fail before a billion partition lists are built
            raise AssertionError(f"{partition_count} partitions for {len(records)} records")
        counts.append(partition_count)
        return from_records(cls, records, partition_count)

    monkeypatch.setattr(PartitionedDataset, "from_records", classmethod(bounded))
    assert cli.run(["query", "--lake", str(lake_dir), "--out", str(tmp_path), "--partitions", "1000000000"]) == 0
    assert counts == [1]


def test_overflow_through_the_rollup_names_the_group_and_writes_nothing(tmp_path, capsys):
    lake = _lake_with_huge_upvotes(tmp_path)
    capsys.readouterr()
    for command in (["query", "sentiment_profile"], ["report"]):
        out = tmp_path / command[0]
        out.mkdir()
        assert cli.run(command + ["--lake", lake, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "steam.jsonl:1: upvotes" in err
        assert list(out.iterdir()) == []


def test_a_failing_view_leaves_the_output_directory_empty(lake_dir, tmp_path, monkeypatch, capsys):
    def failing_view(cube):
        raise QueryTypeError("length_upvotes failed")

    # per_year, yoy, per_weekday and per_month succeed; no table is written
    # before length_upvotes fails
    monkeypatch.setitem(analytics.QUERIES, "length_upvotes", failing_view)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.run(["report", "--lake", str(lake_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: length_upvotes failed\n"
    assert list(out.iterdir()) == []


def test_a_failed_write_leaves_every_output_file_as_it_was(lake_dir, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    names = [f"{q}.{ext}" for q in analytics.QUERY_IDS for ext in ("csv", "svg")]
    for name in names:
        (out / name).write_bytes(b"old\n")
    emit_bar_chart = cli.report.emit_bar_chart
    calls = []

    def full_disk_on_the_fourth_chart(spec, table, path):
        calls.append(path)
        if len(calls) == 4:
            raise OSError(errno.ENOSPC, "No space left on device")
        return emit_bar_chart(spec, table, path)

    # four tables and three charts are written in full before the fourth chart fails
    monkeypatch.setattr(cli.report, "emit_bar_chart", full_disk_on_the_fourth_chart)
    capsys.readouterr()
    assert cli.run(["report", "--lake", str(lake_dir), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: No space left on device\n" and captured.out == ""
    assert len(calls) == 4
    assert sorted(os.listdir(out)) == sorted(names)
    assert all((out / name).read_bytes() == b"old\n" for name in names)


def test_sigterm_during_ingest_removes_staging_and_keeps_the_lake(data_dir, tmp_path, monkeypatch, capsys):
    # SIGINT follows the same rule
    cfg = str(data_dir / "config.json")
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", cfg, "--lake", str(lake)]) == 0
    before = sha_tree(lake)

    def outer_handler(signum, frame):  # stands in for the default, which would end pytest
        pass

    for signum in (signal.SIGTERM, signal.SIGINT):

        def interrupted(*args):
            os.kill(os.getpid(), signum)
            raise AssertionError(f"{signum!r} did not interrupt the ingest")

        monkeypatch.setattr(cli, "_ingest_source", interrupted)
        previous = {sig: signal.signal(sig, outer_handler) for sig in (signal.SIGTERM, signal.SIGINT)}
        try:
            capsys.readouterr()
            assert cli.run(["ingest", "--config", cfg, "--lake", str(lake)]) == 1
            assert {sig: signal.getsignal(sig) for sig in previous} == dict.fromkeys(previous, outer_handler)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        err = capsys.readouterr().err
        assert err == f"error: ingest interrupted by {signum.name}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["lake"]  # no .lake-tmp-* staging directory
        assert sha_tree(lake) == before


_SLOW_INGEST = """
import sys, time
from reviewlake import cli
ingest_source, slow_sources = cli._ingest_source, sys.argv[1].split(",")

def slow(writer, stops, job):
    if job[1].source in slow_sources:
        time.sleep(60)
    return ingest_source(writer, stops, job)

cli._ingest_source = slow
sys.exit(cli.run(sys.argv[2:]))
"""


def test_a_signal_to_a_two_worker_ingest_and_its_workers_is_one_error_line(data_dir, tmp_path):
    # a session of its own, so the signal reaches the workers too, as a Ctrl-C at a terminal does
    cfg = str(data_dir / "config.json")
    lake = tmp_path / "lake"
    assert cli.run(["ingest", "--config", cfg, "--lake", str(lake)]) == 0
    before = sha_tree(lake)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = ["ingest", "--config", cfg, "--lake", str(lake), "--threads", "2"]
    # a Ctrl-C while one worker is busy and the other idle; a SIGTERM while both are busy
    for signum, slow_sources in ((signal.SIGINT, "amazon"), (signal.SIGTERM, ",".join(SOURCES))):
        with subprocess.Popen([sys.executable, "-c", _SLOW_INGEST, slow_sources, *argv], env=env,
                              start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            try:
                deadline = time.monotonic() + 10
                while not list(tmp_path.glob(".lake-tmp-*")) and time.monotonic() < deadline:
                    time.sleep(0.05)
                time.sleep(1)  # the workers are forked and asleep, or done with the fast sources
                os.killpg(proc.pid, signum)
                out, err = proc.communicate(timeout=10)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert (proc.returncode, out, err) == (1, "", f"error: ingest interrupted by {signum.name}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["lake"]  # no .lake-tmp-* staging directory
        assert sha_tree(lake) == before


@pytest.mark.parametrize("umask, mode", [(0o022, 0o755), (0o077, 0o700)], ids=["umask022", "umask077"])
def test_a_lake_gets_the_mode_mkdir_gives(data_dir, tmp_path, umask, mode):
    lake = tmp_path / "lake"
    previous = os.umask(umask)
    try:
        assert cli.run(["ingest", "--config", str(data_dir / "config.json"), "--lake", str(lake)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(lake.stat().st_mode) == mode
