"""Synthetic corpus generator: determinism, ground truth, input validation."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys

import pytest

from reviewlake import clean, fixtures, ingest
from reviewlake.errors import ConfigurationError
from reviewlake.model import RejectRecord

SOURCES = ("amazon", "imdb", "steam", "yelp")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fixtures.__file__)))


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
    """Runs ingest's own loop over one source, tallying every item's fate."""
    path = os.path.join(dirpath, truth["per_source"][src]["file"])
    accepted = []
    reasons: dict = {}
    blanks = 0
    for item in ingest.iter_source(path, ingest.default_mapping(src), clean.default_stoplist()):
        if item is None:
            blanks += 1
        elif item.__class__ is RejectRecord:
            reasons[item.reason] = reasons.get(item.reason, 0) + 1
        else:
            accepted.append(item)
    return accepted, reasons, blanks


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
    with pytest.raises(TypeError):
        fixtures.generate(str(tmp_path), profile="paper_shaped")  # the one corpus shape takes no option
    with pytest.raises(ConfigurationError):
        fixtures.generate(str(tmp_path), rows_per_source=0)


# Digests of generate()'s files, recorded before the draws were spelled out
# with getrandbits. The benchmark's corpora and every ground truth depend on
# these bytes, so a change to the generator's output must show up here.
PINNED_DIGESTS = {
    (1, 500): {
        "amazon.csv": "31ffb02edcec03fdd68429f3a208668bc7ca571e195c21d9533752b295499822",
        "config.json": "5c636f770eacba2f17467de5f2f5df34036833681b45e0ae7cfb16de6260dd91",
        "ground_truth.json": "ead4378386cc66ea25b2060ed85c731111800873123815f5b2ac4bf8a551f25c",
        "imdb.jsonl": "64a894cf135036aaec03d49f738b12861592ac919373862512c4b24b22584ba4",
        "steam.csv": "978d3ca472a5c5267c7c21cf388d248743e7f82f65d679a03c4b79c08839f31b",
        "yelp.csv": "05c127f48477747077770d4170679d49d57814974317054c90738de5e01f69c0",
    },
}


@pytest.mark.parametrize("seed, rows", sorted(PINNED_DIGESTS))
def test_seed_keeps_its_bytes(tmp_path, seed, rows):
    fixtures.generate(str(tmp_path), seed=seed, rows_per_source=rows)
    assert file_hashes(tmp_path) == PINNED_DIGESTS[seed, rows]


def _python(script, *args, **kwargs):
    """A fresh interpreter running script; its stdout and stderr as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=False, **kwargs
    )


_GEN_FIXTURES = """
import os, sys
from reviewlake import cli
print(len(os.sched_getaffinity(0)))
sys.exit(cli.run(["gen-fixtures", "--out", sys.argv[1], "--seed", "1", "--rows", "500"]))
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs settable CPU affinity"
)
def test_bytes_do_not_depend_on_the_core_count(tmp_path):
    one_cpu = {min(os.sched_getaffinity(0))}

    def pin():
        os.sched_setaffinity(0, one_cpu)

    try:
        one = _python(_GEN_FIXTURES, str(tmp_path / "one"), timeout=120, preexec_fn=pin)
    except subprocess.SubprocessError:  # the preexec_fn raised
        pytest.skip("CPU affinity cannot be set here")
    every = _python(_GEN_FIXTURES, str(tmp_path / "every"), timeout=120)
    assert one.returncode == every.returncode == 0, one.stderr + every.stderr
    assert one.stdout.split("\n")[0] == "1" != every.stdout.split("\n")[0]  # one worker, then several
    assert file_hashes(tmp_path / "one") == file_hashes(tmp_path / "every") == PINNED_DIGESTS[1, 500]


_DEAD_WORKER = """
import os, sys
from reviewlake import cli, fixtures

write = fixtures._write_source

def dies_on_imdb(out_dir, seed, rows, source):
    if source == "imdb":
        os._exit(3)
    return write(out_dir, seed, rows, source)

fixtures._write_source = dies_on_imdb
code = cli.run(["gen-fixtures", "--out", sys.argv[1], "--rows", "50"])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
sys.exit(code)
"""


def test_a_dead_worker_is_one_error_line_and_leaves_no_child(tmp_path):
    proc = _python(_DEAD_WORKER, str(tmp_path / "d"), timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [f"error: a worker process writing the fixtures in {tmp_path / 'd'} died"]
    assert proc.stdout == "no child left\n"


def _reference_mangle(rng, word):
    r = rng.random()
    if r < 0.15:
        return word.upper()
    if r < 0.4:
        return word.capitalize()
    return word


def _reference_build_text(rng, target):
    """_build_text as written with randint/randrange, before the draws were inlined."""
    parts = []
    t = target + 1
    first = True
    while t > 0:
        if t <= 10:
            c = t
        else:
            c = rng.randint(3, min(10, t - 3))
        t -= c
        words = fixtures._VOCAB[c - 1]
        w = _reference_mangle(rng, words[rng.randrange(len(words))])
        if first:
            first = False
        else:
            r = rng.random()
            if r < 0.10:
                w = fixtures._STOP_INSERTS[rng.randrange(len(fixtures._STOP_INSERTS))].upper() + " " + w
                parts.append(" ")
            elif r < 0.22:
                parts.append(fixtures._SEPARATORS[rng.randrange(len(fixtures._SEPARATORS))])
            else:
                parts.append(" ")
        parts.append(w)
    text = "".join(parts)
    if rng.random() < 0.06:
        text += "!!!"
    if rng.random() < 0.05:
        text = '"' + text + '"'
    return text


@pytest.mark.parametrize("seed", ["1:amazon", "2:imdb", 97])
def test_build_text_draws_as_random_does(seed):
    # one stream per side, so every target starts from a different state
    ref, new = random.Random(seed), random.Random(seed)
    for target in range(3, 50 * fixtures._N_BUCKETS):
        assert fixtures._build_text(new, target) == _reference_build_text(ref, target), target
        assert new.getstate() == ref.getstate(), target
