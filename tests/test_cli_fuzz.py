"""Exit codes under fuzzing: whatever the flags, config document,
environment and file bytes, ``cli.run`` returns 0, 1 or 2 or leaves through
argparse's usage exit (``SystemExit(2)``), a failure prints exactly one
``error:`` line, and no other exception escapes."""

import contextlib
import io
import json
import os
import tempfile
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reviewlake import cli

_DEEP = b"[" * 100_000 + b"]" * 100_000
_WHOLE = 1 << 30  # an edit that cuts this much replaces the whole file

#: The undamaged inputs, by file name in the run's directory.
_BASE = {
    "yelp.csv": (
        b"business_name,date,sentiment,useful,text\n"
        b"Cafe,2020-01-01,positive,1,great coffee\n"
        b'"Bar, Inc",2021-06-30 12:00:00,very negative,,"stale ""beer"""\n'
    ),
    "steam.jsonl": (
        b'{"app_name": "A", "timestamp_created": "1600000000", "voted_up": true, "votes_up": 1, "review": "fine"}\n'
        b'{"app_name": "B", "timestamp_created": 1600000001, "voted_up": false, "votes_up": null, "review": "dull"}\n'
    ),
    "map.json": resources.files("reviewlake").joinpath("data/mappings/yelp.json").read_bytes(),
    "stop.txt": b"the\nand\n",
}
_VALID_CONFIG = {
    "sources": [
        {"source": "yelp", "path": "yelp.csv", "mapping": "map.json"},
        {"source": "steam", "path": "steam.jsonl"},
    ],
    "stoplist": "stop.txt",
}

# every path, a junk string included (no "/" or "."), stays in the run's directory;
# "a\nb" is a name an error line must print without breaking it, and "a\0b" and
# "\ud800" are valid JSON strings that no file system takes
_PATHS = st.sampled_from(
    ["yelp.csv", "steam.jsonl", "map.json", "stop.txt", "lake", "out", "nowhere", "a\nb", "", "a\0b", "\ud800"]
)
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2) | st.floats() | st.text("aé", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("aé", max_size=3), inner, max_size=3),
    max_leaves=4,
)
_SOURCE_ENTRY = st.fixed_dictionaries(
    {"source": st.sampled_from(["yelp", "steam", "imdb", "nope"]), "path": _PATHS}, optional={"mapping": _PATHS}
)
_SETTINGS = {
    "sources": st.lists(_SOURCE_ENTRY, max_size=3),
    "lake_dir": _PATHS,
    "out_dir": _PATHS,
    "threads": st.integers(0, 2),
    "format": st.sampled_from(["csv", "json", "tsv"]),
    "stoplist": _PATHS,
}
# "partitions" is a retired key, refused as unknown like "junk"
_JUNK_SETTINGS = {key: values | _JUNK for key, values in _SETTINGS.items()} | {
    "junk": _JUNK, "partitions": st.integers(-1, 8)
}
_CONFIGS = (
    st.none()
    | st.just(json.dumps(_VALID_CONFIG).encode())
    | st.just(json.dumps(_VALID_CONFIG).encode())  # twice: half the drawn configs reach the rows
    | st.fixed_dictionaries({}, optional=_SETTINGS).map(lambda doc: json.dumps({**_VALID_CONFIG, **doc}).encode())
    | st.fixed_dictionaries({}, optional=_JUNK_SETTINGS).map(lambda doc: json.dumps(doc).encode())
    | st.binary(max_size=16)
)
_FLAGS = st.lists(
    st.sampled_from(
        [
            ["--lake", "lake"], ["--lake", "fresh"], ["--lake", "yelp.csv"], ["--lake", ""],
            ["--out", "out"], ["--out", ""],
            ["--format", "csv"], ["--format", "json"], ["--format", "tsv"],
            ["--partitions", "-1"], ["--partitions", "0"], ["--partitions", "2"], ["--partitions", "8"],
            ["--partitions", "x"], ["--threads", "0"], ["--threads", "1"], ["--threads", "2"],
            ["--config", "cfg.json"], ["--config", "nowhere.json"], ["--seed", "3"], ["--rows", "0"], ["--rows", "20"],
            ["--profile", "uniform"], ["--profile", "weird"], ["per_year"], ["bogus"],
        ]
    ),
    max_size=3,
)
_ENV_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=12)
_ENVS = st.fixed_dictionaries(
    {},
    optional={
        "SOURCE_DATE_EPOCH": st.sampled_from(["", "0", "1700000000", "-1", "253402300800", "١٢"]) | _ENV_TEXT,
    },
)
# (offset, bytes cut, bytes inserted): offsets past the end append
_EDITS = st.lists(
    st.tuples(
        st.integers(0, 400),
        st.integers(0, 6),
        st.binary(max_size=6) | st.sampled_from([b'"', b"\n", b"\r", b",", b"\xef\xbb\xbf", b"\xff", b"{", b"["]),
    ),
    min_size=1,
    max_size=2,
)
_DAMAGEABLE = [*_BASE, *(f"lake/{name}" for name in ("manifest.json", "rejects.jsonl", "steam.jsonl", "yelp.jsonl"))]
# one file damaged at most, so the others let the run reach it; "lake/extra" is a file no lake holds
_DAMAGE = st.none() | st.tuples(st.sampled_from([*_DAMAGEABLE, "lake/extra"]), _EDITS)


def _damaged(blob: bytes, edits) -> bytes:
    for at, cut, insert in edits:
        blob = blob[:at] + insert + blob[at + cut :]
    return blob


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Relative path -> bytes: the undamaged inputs and the lake they make."""
    d = tmp_path_factory.mktemp("fuzzbase")
    for name, blob in _BASE.items():
        (d / name).write_bytes(blob)
    (d / "cfg.json").write_text(json.dumps(_VALID_CONFIG), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["ingest", "--config", str(d / "cfg.json"), "--lake", str(d / "lake")]) == 0
    return {**_BASE, **{f"lake/{p.name}": p.read_bytes() for p in (d / "lake").iterdir()}}


_VALID = json.dumps(_VALID_CONFIG).encode()
_YELP_ONLY = json.dumps({"sources": [{"source": "yelp", "path": "yelp.csv", "mapping": "map.json"}]}).encode()
_NOT_UTF8 = [(0, _WHOLE, b"the\n\xff\xfe\n")]


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["ingest", "query", "report", "gen-fixtures"]),
    rows=st.integers(-1, 20),
    flags=_FLAGS,
    config=_CONFIGS,
    env=_ENVS,
    damage=_DAMAGE,
)
# JSON nested past the decoder's depth, in each reader that takes JSON
@example(command="ingest", rows=0, flags=[], config=_DEEP, env={}, damage=None)
@example(command="ingest", rows=0, flags=[], config=_YELP_ONLY, env={}, damage=("map.json", [(0, _WHOLE, _DEEP)]))
@example(command="query", rows=0, flags=[], config=None, env={}, damage=("lake/manifest.json", [(0, _WHOLE, _DEEP)]))
@example(
    command="query", rows=0, flags=[], config=None, env={}, damage=("lake/rejects.jsonl", [(_WHOLE, 0, _DEEP + b"\n")])
)
@example(
    command="ingest", rows=0, flags=[], config=_VALID, env={},
    damage=("steam.jsonl", [(_WHOLE, 0, b'{"a": ' + _DEEP + b"}\n")]),
)
# a stoplist that is not UTF-8, from the config
@example(command="ingest", rows=0, flags=[], config=_VALID, env={}, damage=("stop.txt", _NOT_UTF8))
# a lake with a file no lake holds is not replaced; no output goes into the lake
@example(command="ingest", rows=0, flags=[], config=_VALID, env={}, damage=("lake/extra", [(0, 0, b"x")]))
@example(command="query", rows=0, flags=[["--out", "lake"]], config=None, env={}, damage=None)
@example(command="report", rows=0, flags=[["--out", "lake"]], config=None, env={}, damage=None)
# gen-fixtures writes no source file into a lake; ingest takes no table flag
@example(command="gen-fixtures", rows=20, flags=[["--out", "lake"]], config=None, env={}, damage=None)
@example(command="ingest", rows=0, flags=[["--partitions", "2"]], config=_VALID, env={}, damage=None)
def test_every_run_exits_0_1_or_2_with_at_most_one_error_line(inputs, command, rows, flags, config, env, damage):
    files = dict(inputs)
    if damage is not None:
        name, edits = damage
        files[name] = _damaged(files.get(name, b""), edits)
    argv = [command] + (["--rows", str(rows)] if command == "gen-fixtures" else [])
    argv += [arg for flag in flags for arg in flag]
    if config is not None:
        files["cfg.json"] = config
        if command != "gen-fixtures":  # which reads no config; a flag may still pass one
            argv += ["--config", "cfg.json"]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.mkdir(os.path.join(tmp, "lake"))
        for name, blob in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(blob)
        os.environ.pop("SOURCE_DATE_EPOCH", None)
        os.environ.update(env)
        err = io.StringIO()
        os.chdir(tmp)  # relative paths, the default lake and out included, stay in tmp
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(argv)
                except SystemExit as exc:  # argparse refused the flags
                    assert exc.code == 2 and "error:" in err.getvalue(), (argv, err.getvalue())
                    return
        finally:
            os.chdir(here)
    assert code in (0, 1, 2), argv
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
