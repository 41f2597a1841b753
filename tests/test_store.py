"""Lake writing, read-back validation, atomicity, and corruption detection."""

import collections
import contextlib
import datetime
import errno
import io
import json
import os
import re
import resource
import shutil
import signal
import string
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlake import cli, store
from reviewlake.errors import ConfigurationError, CorruptLakeError
from reviewlake.model import (
    DATE_WINDOW_HI,
    DATE_WINDOW_LO,
    REJECT_REASONS,
    SOURCES,
    UPVOTE_MAX,
    RejectRecord,
    UnifiedReview,
)


def R(src, y=2020, m=5, d=4, sent=1, up=3, text="Great fun", name="N"):
    return UnifiedReview(name, datetime.date(y, m, d), sent, up, text, src)


def sample_reviews():
    return [
        R("steam", text="Solid game"),
        R("yelp", sent=0, up=0, text="Bland food"),
        R("steam", y=2021, text="Great patch"),
        R("imdb", name='Weird "Name", Incé', up=UPVOTE_MAX, text="Slow plot"),
    ]


def sample_rejects():
    return [
        RejectRecord("steam", 4, "bad_date", "notanepoch"),
        RejectRecord("yelp", 9, "neutral_dropped", "neutral"),
    ]


def build_lake(path, items, blanks=None, checksum=""):
    """Stage each source's items, with a None item per blank line, and
    commit, as ingest does."""
    by_source = {}
    for item in items:
        by_source.setdefault(item.source, []).append(item)
    for src, n in (blanks or {}).items():
        by_source.setdefault(src, []).extend([None] * n)
    writer = store.LakeWriter(str(path))
    try:
        per_source = {src: writer.stage(src, its) for src, its in by_source.items()}
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

    got = store.read_lake(str(lake))
    want = sorted(sample_reviews(), key=lambda r: (r.source, r.creation_date))
    assert got == want  # in record-file order, each file in staging order


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
    assert [r.review_text for r in store.read_lake(str(lake))] == ["Only one"]
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


def steam_ingest(tmp_path, lake):
    """The argv of an ingest of one steam row into ``lake``."""
    (tmp_path / "steam.csv").write_text(
        "app_name,timestamp_created,voted_up,votes_up,review\nGame,1600000000,true,3,great fun\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sources": [{"source": "steam", "path": "steam.csv"}]}))
    return ["ingest", "--config", str(cfg), "--lake", str(lake)]


def tree(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def test_ingest_removes_old_lakes_a_crashed_commit_left(tmp_path, monkeypatch, capsys):
    lake, aside = tmp_path / "lake", tmp_path / ".lake.old"
    ingest = steam_ingest(tmp_path, lake)
    # siblings that only look like old lakes are the user's
    write_sample(tmp_path / "lake.old-4242")
    write_sample(tmp_path / "lake.old-77")
    (tmp_path / "lake.old-backup").mkdir()
    (tmp_path / "lake.old-20240101").mkdir()
    (tmp_path / "lake.old-20240101" / "notes.txt").write_text("keep", encoding="utf-8")
    # a crash between the two renames leaves the old lake aside and no lake
    write_sample(aside)
    assert cli.run(ingest) == 0
    # a crash after them leaves the old lake aside beside the new one
    write_sample(aside)
    assert cli.run(ingest) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "lake", "lake.old-20240101", "lake.old-4242", "lake.old-77", "lake.old-backup", "steam.csv",
    ]
    assert (tmp_path / "lake.old-20240101" / "notes.txt").read_text(encoding="utf-8") == "keep"
    assert [r.review_text for r in store.read_lake(str(lake))] == ["great fun"]
    # an aside that is not a lake is refused before a row is read
    shutil.rmtree(lake)
    aside.mkdir()
    (aside / "notes.txt").write_text("keep", encoding="utf-8")

    def no_rows_read(*args):
        raise AssertionError("a source was read before the aside was checked")

    monkeypatch.setattr(cli, "_ingest_source", no_rows_read)
    capsys.readouterr()
    assert cli.run(ingest) == 2
    assert "not a lake" in capsys.readouterr().err
    assert tree(aside) == {"notes.txt": b"keep"}
    assert not lake.exists() and not list(tmp_path.glob(".lake-tmp-*"))


def test_a_linked_lake_is_replaced_where_it_lives(tmp_path):
    lake, real = tmp_path / "lake", tmp_path / "real"
    write_sample(real)
    lake.symlink_to("real")
    ingest = steam_ingest(tmp_path, lake)
    assert cli.run(ingest) == 0
    assert cli.run(ingest) == 0
    assert os.readlink(lake) == "real"
    assert [r.review_text for r in store.read_lake(str(lake))] == ["great fun"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "lake", "real", "steam.csv"]


KILLED = 99


def _ingest_cut_short(argv, op, k, after, sigterm):
    """Run ``argv`` in a forked child whose k-th ``os.<op>`` inside commit
    is cut short just before or just after the call: by ``os._exit``, or by
    a SIGTERM, which ingest turns into an error before the commit point.
    Return the exit code (KILLED if the child died there) and where the cut
    fell: None if commit made fewer than k such calls, else whether the
    staging directory had already been renamed onto the lake."""
    cut_read, cut_write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the test run
        code = 3
        try:
            os.close(cut_read)
            real_rename, real_commit, calls, renamed_in = os.rename, store.LakeWriter.commit, [], []

            def end():
                os.write(cut_write, b"1" if renamed_in else b"0")
                if sigterm:
                    os.kill(os.getpid(), signal.SIGTERM)  # ingest's handler runs here
                else:
                    os._exit(KILLED)

            def commit(self, *args):
                def rename(src, dst):
                    real_rename(src, dst)
                    if dst == self.target:
                        renamed_in.append(src)

                os.rename = rename
                real_op = getattr(os, op)

                def cut(*args, **kwargs):
                    calls.append(args)
                    if len(calls) == k and not after:
                        end()
                    real_op(*args, **kwargs)
                    if len(calls) == k and after:
                        end()

                setattr(os, op, cut)
                return real_commit(self, *args)

            store.LakeWriter.commit = commit
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
        finally:
            os._exit(code)
    os.close(cut_write)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    with os.fdopen(cut_read, "rb") as fh:
        told = fh.read()
    return code, (told == b"1" if told else None)


@pytest.mark.parametrize("sigterm", [False, True])
@pytest.mark.parametrize("op", ["rename", "unlink", "rmdir"])
@pytest.mark.parametrize("stale_aside", [False, True])
def test_a_commit_cut_short_anywhere_leaves_the_old_or_the_new_lake(
    tmp_path, monkeypatch, capsys, stale_aside, op, sigterm
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    lake, aside = tmp_path / "lake", tmp_path / ".lake.old"
    ingest = steam_ingest(tmp_path, lake)
    assert cli.run(ingest) == 0
    new = tree(lake)
    build_lake(aside, [R("imdb", text="Stale")])
    stale = tree(aside)
    for k in range(1, 20):
        for after in (False, True):
            for path in list(tmp_path.glob("*lake*")):
                shutil.rmtree(path)
            write_sample(lake)
            old = tree(lake)
            if stale_aside:
                build_lake(aside, [R("imdb", text="Stale")])
            code, committed = _ingest_cut_short(ingest, op, k, after, sigterm)
            if committed is None:  # commit made fewer than k such calls
                assert code == 0 and k > 1 and not aside.exists() and tree(lake) == new
                # renames: the stale aside away, the old lake aside, the new lake in, the aside away
                assert op != "rename" or k == 4 + stale_aside
                return
            # renaming the new lake in is the commit point: a SIGTERM from there on lets the run finish
            assert op != "rename" or committed == ((k, after) >= (2 + stale_aside, True)), (k, after)
            if sigterm and committed:
                assert code == 0 and not aside.exists() and tree(lake) == new, (k, after)
                continue
            assert code == (1 if sigterm else KILLED), (k, after)
            if lake.exists():
                assert tree(lake) in ((old,) if sigterm else (old, new)), (k, after)
                store.read_lake(str(lake))
            else:
                assert tree(aside) == old, (k, after)
            # whatever the cut left aside is a whole lake, never part of one
            assert not aside.exists() or tree(aside) in (old, stale), (k, after)
            assert cli.run(ingest) == 0, capsys.readouterr().err
            assert not aside.exists() and tree(lake) == new
    raise AssertionError(f"commit called os.{op} more than 19 times")


def _run_child(argv, setup):
    """Run ``cli.run(argv)`` in a forked child after ``setup()``; return its
    exit code and what it printed on stderr."""
    err_read, err_write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the test run
        code, err = 3, io.StringIO()
        try:
            os.close(err_read)
            signal.alarm(60)  # a child that hangs dies instead of holding up the suite
            setup()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        finally:
            os.write(err_write, err.getvalue().encode())
            os._exit(code)
    os.close(err_write)
    with os.fdopen(err_read, "rb") as fh:
        err = fh.read().decode()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), err


def _file_size_limit(n):
    """A child set-up under which a write past ``n`` bytes of a file fails with EFBIG."""

    def setup():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (n, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    return setup


def test_a_failed_write_names_its_file_and_leaves_the_lake_and_out_as_they_were(tmp_path):
    assert cli.run(["gen-fixtures", "--out", str(tmp_path), "--seed", "5", "--rows", "200"]) == 0
    lake, out = tmp_path / "lake", tmp_path / "out"
    ingest = ["ingest", "--config", str(tmp_path / "config.json"), "--lake", str(lake)]
    report = ["report", "--lake", str(lake), "--out", str(out)]
    assert cli.run(ingest) == 0 and cli.run(report) == 0
    (out / "notes.txt").write_text("keep", encoding="utf-8")
    old_lake, old_out = tree(lake), tree(out)
    limits = sorted({0, 100, 4096, *(len(data) - 1 for data in old_lake.values())})
    runs = [(ingest + ["--threads", "1"], n) for n in limits]
    # below 11 bytes a pool cannot make its semaphore, which fails before any lake write
    runs += [(ingest + ["--threads", "2"], n) for n in limits if n > 10]
    runs += [(report, n) for n in limits if n < max(map(len, old_out.values()))]
    staging = os.path.join(os.path.realpath(tmp_path), ".lake-tmp-")
    for argv, n in runs:
        code, err = _run_child(argv, _file_size_limit(n))
        named = re.fullmatch(r"error: File too large \((.+)\)\n", err)
        assert code == 1 and named, (argv, n, err)
        if argv is report:
            assert os.path.dirname(named[1]) == str(out) and os.path.basename(named[1]).startswith("."), err
        else:
            assert named[1].startswith(staging), err
        assert tree(lake) == old_lake and tree(out) == old_out, (argv, n)
        assert not list(tmp_path.glob(".lake-tmp-*")), (argv, n)


def _failing_fsync(k):
    """A child set-up whose k-th ``os.fsync`` fails with EIO."""

    def setup():
        real_fsync, calls = os.fsync, []

        def fsync(fd):
            calls.append(fd)
            if len(calls) == k:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_fsync(fd)

        os.fsync = fsync

    return setup


def test_a_failed_fsync_exits_1_and_past_the_commit_point_leaves_the_new_lake(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    lake, aside, parent = tmp_path / "lake", tmp_path / ".lake.old", os.path.realpath(tmp_path)
    ingest = steam_ingest(tmp_path, lake)  # one steam row: not the sample lake's records
    assert cli.run(ingest) == 0
    new = tree(lake)
    # the three lake files, the staging directory, then the parent after the rename
    fsyncs = 5
    for k in range(1, fsyncs + 2):
        for path in list(tmp_path.glob("*lake*")):
            shutil.rmtree(path)
        write_sample(lake)
        old = tree(lake)
        code, err = _run_child(ingest, _failing_fsync(k))
        if k > fsyncs:
            assert code == 0 and tree(lake) == new and not aside.exists(), err
            break
        named = re.fullmatch(rf"error: {os.strerror(errno.EIO)} \((.+)\)\n", err)
        assert code == 1 and named, (k, err)
        assert not list(tmp_path.glob(".lake-tmp-*")), k
        if k < fsyncs:  # before the commit point: the old lake, nothing aside
            assert named[1].startswith(os.path.join(parent, ".lake-tmp-")), (k, err)
            assert tree(lake) == old and not aside.exists(), k
            continue
        # the new lake is in place, but not known to be durable: exit 1, the old lake still aside
        assert named[1] == parent, err
        assert tree(lake) == new and tree(aside) == old
        store.read_lake(str(lake))
        assert cli.run(ingest) == 0
        assert tree(lake) == new and not aside.exists()


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
    # the same date on many lines reads back; a missing final newline does not
    path.write_text("\n".join([first, first]) + "\n", encoding="utf-8")
    back = [r for r in store.read_lake(str(lake)) if r.source == "steam"]
    assert [r.creation_date for r in back] == [datetime.date(2020, 5, 4)] * 2
    path.write_text("\n".join([first, first]), encoding="utf-8")
    with pytest.raises(CorruptLakeError, match=r"steam\.jsonl:2: not a record line as the writer writes it"):
        store.read_lake(str(lake))


_NAME_CHAR = st.one_of(
    st.characters(exclude_categories=()), st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t \u00e9\U0001f600')
)
_REVIEW = st.builds(
    UnifiedReview,
    name=st.text(_NAME_CHAR, min_size=1, max_size=12),
    creation_date=st.dates(DATE_WINDOW_LO, DATE_WINDOW_HI),
    sentiment=st.integers(0, 1),
    upvotes=st.one_of(st.integers(0, 1000), st.integers(0, UPVOTE_MAX)),
    review_text=st.lists(st.text(string.ascii_letters, min_size=1, max_size=8), min_size=1, max_size=5).map(
        " ".join
    ),
    source=st.sampled_from(SOURCES),
)


def _record_file_bytes(records, source):
    return "".join(store.review_to_json(r) + "\n" for r in records if r.source == source).encode()


def _one_byte_edited(path, data):
    """Replace, delete or insert one byte of the file at path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # most edits land on or just after a byte where JSON allows another
    # spelling, or on the final newline
    marks = [i for i, b in enumerate(raw) if b in b"{},:\\\n"]
    at = data.draw(
        st.one_of(
            st.integers(0, len(raw) - 1),
            st.sampled_from(marks),
            st.sampled_from(marks).map(lambda i: i + 1),
            st.just(len(raw) - 1),
        )
    )
    new_byte = st.one_of(st.sampled_from(b' \t\r\n"\\/0aeuW\xc3'), st.integers(0, 255))
    op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    if op == "insert":
        raw = raw[:at] + bytes([data.draw(new_byte)]) + raw[at:]
    elif at < len(raw):
        new = b""
        if op == "replace":
            new = bytes([data.draw(new_byte.filter(lambda b: b != raw[at]))])
        raw = raw[:at] + new + raw[at + 1:]
    with open(path, "wb") as fh:
        fh.write(raw)
    return raw


@settings(max_examples=300, deadline=None)
@given(st.lists(_REVIEW, min_size=1, max_size=8), st.data())
def test_a_lake_reads_back_exactly_and_one_edited_byte_is_refused_or_reread_exactly(reviews, data):
    """What the writer writes reads back unchanged. After one byte of a record
    file is replaced, deleted or inserted, the lake is refused, or its records
    are the ones whose lines are the edited file's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        lake = os.path.join(tmp, "lake")
        manifest = build_lake(lake, reviews)
        assert store.read_lake(lake) == sorted(reviews, key=lambda r: r.source)

        _one_byte_edited(os.path.join(lake, data.draw(st.sampled_from(manifest.record_files))), data)
        try:
            back = store.read_lake(lake)
        except CorruptLakeError:
            return
        for f in manifest.record_files:
            with open(os.path.join(lake, f), "rb") as fh:
                assert _record_file_bytes(back, f[: -len(".jsonl")]) == fh.read()


_REJECT = st.builds(
    RejectRecord,
    source=st.sampled_from(SOURCES),
    row_number=st.integers(1, 10**6),
    reason=st.sampled_from(sorted(REJECT_REASONS)),
    detail=st.text(_NAME_CHAR, max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_REJECT, min_size=1, max_size=8), st.data())
def test_a_reject_file_reads_back_and_one_edited_byte_is_refused_or_still_the_writers(rejects, data):
    """What the writer writes reads back. After one byte of rejects.jsonl is
    replaced, deleted or inserted, the lake is refused, unless every line is
    still one that reject_to_json writes and the tally still equals the manifest's."""
    with tempfile.TemporaryDirectory() as tmp:
        lake = os.path.join(tmp, "lake")
        manifest = build_lake(lake, rejects)
        assert store.read_lake(lake) == []

        raw = _one_byte_edited(os.path.join(lake, store.REJECTS_NAME), data)
        try:
            store.read_lake(lake)
        except CorruptLakeError:
            return
        *lines, last = raw.split(b"\n")
        assert last == b""
        tally = collections.Counter()
        for line in lines:
            r = RejectRecord(**json.loads(line))
            assert r.row_number.__class__ is int and r.row_number > 0
            assert store.reject_to_json(r).encode() == line
            tally[r.source, r.reason] += 1
        assert tally == {(src, k): n for src, s in manifest.per_source.items() for k, n in s.rejected_by_reason.items()}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_a_long_upvote_count_is_refused_by_name_under_any_digit_limit(tmp_path):
    lake = tmp_path / "lake"
    write_sample(lake)
    path = lake / "steam.jsonl"
    path.write_text(_replace_once('"upvotes":3,', f'"upvotes":{"9" * 5000},')(path.read_text(encoding="utf-8")))
    old = sys.get_int_max_str_digits()
    try:
        for limit in (0, 640, 4300):  # 0 turns int()'s digit limit off, 640 is the lowest it can be set to
            sys.set_int_max_str_digits(limit)
            with pytest.raises(CorruptLakeError) as ei:
                store.read_lake(str(lake))
            assert "steam.jsonl:1: upvotes must be an integer from 0 to UPVOTE_MAX" in str(ei.value)
    finally:
        sys.set_int_max_str_digits(old)


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


def _edit_manifest(edit):
    def tamper(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    return tamper


def _replace_first_line(line):
    return lambda text: line + "\n" + text.split("\n", 1)[1]


def _replace_once(old, new):
    def tamper(text):
        assert old in text
        return text.replace(old, new, 1)

    return tamper


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "name, tamper, line",
    [(name, tamper, None) for name, tamper in [
        ("manifest.json", _edit_manifest(lambda d: d["per_source"]["steam"].update(rejected_by_reason=[]))),
        ("manifest.json", _edit_manifest(lambda d: d.update(record_files=[5]))),
        # steam.jsonl holds the 2 records its count claims, so each read checks out
        ("manifest.json", _edit_manifest(lambda d: d["record_files"].append("steam.jsonl"))),
        ("rejects.jsonl", _replace_first_line("[1]")),
        ("rejects.jsonl", _replace_first_line('{"reason": []}')),
        # each of these loaded through int(): the edited counts still add up
        ("manifest.json", _edit_manifest(lambda d: d["per_source"]["steam"].update(accepted=2.7))),
        ("manifest.json", _edit_manifest(lambda d: d["per_source"]["steam"].update(accepted="2"))),
        ("manifest.json", _edit_manifest(lambda d: d["per_source"]["steam"].update(blank_lines=True))),
        (
            "manifest.json",
            _edit_manifest(
                lambda d: d["per_source"]["steam"].update(rejected_by_reason={"bad_date": 2, "bad_label": -1})
            ),
        ),
        # each of these keeps every count consistent with the files
        ("manifest.json", _edit_manifest(lambda d: d.update(created_at=5))),
        ("manifest.json", _edit_manifest(lambda d: d.update(stoplist_checksum=None))),
        ("steam.jsonl", _replace_once('"upvotes":3,', f'"upvotes":{UPVOTE_MAX + 1},')),
        ("rejects.jsonl", _replace_once('"source":"steam"', '"source":"yelp"')),
        ("rejects.jsonl", _replace_once('"reason":"bad_date"', '"reason":"bad_label"')),
        ("manifest.json", _edit_manifest(lambda d: d["record_files"].reverse())),
        # each of these keeps the writer's layout everywhere else
        ("rejects.jsonl", _replace_first_line('{"source":"steam","reason":"bad_date"}')),
        ("amazon.jsonl.bak", lambda text: text),
        ("manifest.json", _replace_once('  "created_at"', '  "junk": 1,\n  "created_at"')),
        # each of these spells the same record, or a near one, other than the writer does
        ("imdb.jsonl", _replace_once(',"creation_date"', ', "creation_date"')),
        ("imdb.jsonl", _replace_once('{"name"', '{ "name"')),
        ("imdb.jsonl", _replace_once("}\n", "}  \n")),
        ("imdb.jsonl", _replace_once('"source":"imdb"}', '"source":"imdb","source":"imdb"}')),
        ("imdb.jsonl", _replace_once('"name":"Weird', '"name":"\\u0057eird')),
        ("imdb.jsonl", _replace_once('"review_text":"Slow', '"review_text":"\\u0053low')),
        ("imdb.jsonl", _replace_once("}\n", "}\r\n")),
        ("imdb.jsonl", _replace_once("}\n", "}")),
        ("imdb.jsonl", _replace_once("Inc\\u00e9", "Inc\u00e9")),
    ]]
    # each of these is a reject line the writer never writes; the error names its line
    + [("rejects.jsonl", tamper, line) for tamper, line in [
        (_replace_once('"row_number":4,', '"row_number":0,'), 1),
        (_replace_once('"row_number":4,', '"row_number":01,'), 1),
        (_replace_once('"row_number":4,', '"row_number":2.0,'), 1),
        (_replace_once('"row_number":4,', '"row_number":true,'), 1),
        (_replace_once('"detail":"notanepoch"', '"detail":"\\u0041notanepoch"'), 1),
        (_replace_once('"detail":"notanepoch"', '"detail":"not\u00e9poch"'), 1),
        (_replace_once("}\n", "}\r\n"), 1),
        (lambda text: text.removesuffix("\n"), 2),
        (lambda text: text + _DEEP + "\n", 3),  # json.loads would raise RecursionError here
    ]],
    ids=[
        "reasons_not_an_object", "record_file_not_a_name", "record_file_listed_twice",
        "reject_not_an_object", "reject_reason_unhashable",
        "accepted_float", "accepted_string", "blank_lines_bool", "reject_count_negative",
        "created_at_number", "stoplist_checksum_null", "upvotes_above_max",
        "reject_moved_to_another_source", "reject_moved_to_another_reason", "record_files_reordered",
        "reject_cut_to_source_and_reason", "stray_file", "manifest_unknown_key",
        "record_space_after_comma", "record_space_after_brace", "record_trailing_spaces",
        "record_duplicate_key", "record_name_letter_escaped", "record_text_letter_escaped",
        "record_crlf", "record_no_final_newline", "record_raw_utf8",
        "reject_row_number_zero", "reject_row_number_leading_zero", "reject_row_number_float",
        "reject_row_number_bool", "reject_detail_letter_escaped", "reject_detail_raw_utf8",
        "reject_crlf", "reject_no_final_newline", "reject_nested_past_the_decoder_depth",
    ],
)
def test_tampered_lake_is_exit_1_not_a_traceback(tmp_path, capsys, name, tamper, line):
    lake = tmp_path / "lake"
    write_sample(lake)
    path = lake / name
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    path.write_text(tamper(text), encoding="utf-8")
    assert cli.run(["query", "per_year", "--lake", str(lake), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if line:
        assert err == f"error: {path}:{line}: not a reject line as the writer writes it\n"


def _edit_manifest_in_layout(edit):
    """Like _edit_manifest, but kept in the writer's layout, so the byte check
    alone cannot refuse the edit: a value that the writer would write back
    unchanged gets past it."""

    def tamper(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, indent=2) + "\n"

    return tamper


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["per_source"]["steam"].update(accepted=2.0), "steam accepted"),
        (lambda d: d["per_source"]["steam"].update(blank_lines=True), "steam blank_lines"),
        (lambda d: d["per_source"]["steam"].update(blank_lines=-1), "steam blank_lines"),
        (lambda d: d.update(created_at=5), "created_at"),
        (lambda d: d.update(stoplist_checksum=None), "stoplist_checksum"),
    ],
    ids=["accepted_float", "blank_lines_bool", "blank_lines_negative", "created_at_number", "stoplist_checksum_null"],
)
def test_a_manifest_value_of_the_wrong_type_is_refused_by_name(tmp_path, capsys, edit, field):
    lake = tmp_path / "lake"
    write_sample(lake)
    mp = lake / "manifest.json"
    text = mp.read_text(encoding="utf-8")
    assert _edit_manifest_in_layout(lambda d: None)(text) == text
    mp.write_text(_edit_manifest_in_layout(edit)(text), encoding="utf-8")
    assert cli.run(["query", "per_year", "--lake", str(lake), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f": {field} must be " in err


def test_a_record_file_for_a_source_with_no_accepted_records_is_refused(tmp_path, capsys):
    lake = tmp_path / "lake"
    build_lake(lake, sample_reviews() + [RejectRecord("amazon", 1, "bad_json", "x")])
    assert store.read_lake(str(lake))
    # an empty amazon.jsonl matches amazon's count of 0, but the writer lists no such file
    (lake / "amazon.jsonl").write_text("", encoding="utf-8")
    mp = lake / "manifest.json"
    list_amazon = _edit_manifest(lambda d: d["record_files"].insert(0, "amazon.jsonl"))
    mp.write_text(list_amazon(mp.read_text(encoding="utf-8")), encoding="utf-8")
    assert cli.run(["query", "per_year", "--lake", str(lake), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "manifest.json:1: " in err


def test_empty_lake_round_trip(tmp_path):
    lake = tmp_path / "empty"
    build_lake(lake, [])
    assert store.read_lake(str(lake)) == []
