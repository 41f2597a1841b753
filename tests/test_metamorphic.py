"""Metamorphic relations of the whole pipeline, through ``cli.run``: a
corpus changed in a known way changes every view in a known way.

* Each source's data rows repeated k times: every count is k times the
  corpus's, and every key, mean and percent change stays equal, since a
  mean and a percent change are quotients whose terms all scale by k.
* Each source's data rows of two corpora in one file: every count is the
  sum of the two corpora's counts for its key.
"""

import json
import os
import tempfile
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlake import analytics, cli

COUNT_COLUMNS = ("count", "review_count")


def _corpus(d: str, seed: int, rows: int) -> dict[str, tuple[bytes, bytes]]:
    """Generate a corpus; each source file's (header, data rows) by file name."""
    assert cli.run(["gen-fixtures", "--out", d, "--seed", str(seed), "--rows", str(rows)]) == 0
    with open(os.path.join(d, "config.json"), encoding="utf-8") as fh:
        names = [s["path"] for s in json.load(fh)["sources"]]
    files = {}
    for name in names:
        with open(os.path.join(d, name), "rb") as fh:
            data = fh.read()
        # a CSV file's header is its first line; JSON lines have none
        split = 0 if name.endswith(".jsonl") else data.index(b"\n") + 1
        files[name] = (data[:split], data[split:])
    return files


def _views(d: str, files: dict[str, bytes]) -> dict[str, list[dict]]:
    """Ingest the source files into a lake in d; every view's JSON table by query id."""
    os.makedirs(d)
    for name, data in files.items():
        with open(os.path.join(d, name), "wb") as fh:
            fh.write(data)
    config = os.path.join(d, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"sources": [{"source": name.split(".")[0], "path": name} for name in files]}, fh)
    lake, out = os.path.join(d, "lake"), os.path.join(d, "out")
    assert cli.run(["ingest", "--config", config, "--lake", lake]) == 0
    assert cli.run(["query", "--format", "json", "--lake", lake, "--out", out]) == 0
    views = {}
    for qid in analytics.QUERY_IDS:
        with open(os.path.join(out, f"{qid}.json"), encoding="utf-8") as fh:
            views[qid] = json.load(fh)
    return views


def _counts(rows: list[dict]) -> Counter:
    """Each row's counts, keyed by its key columns and the count's name."""
    counts = Counter()
    for row in rows:
        key = tuple(v for c, v in row.items() if c not in COUNT_COLUMNS and not c.startswith("mean_"))
        counts.update({(key, c): row[c] for c in COUNT_COLUMNS if c in row})
    return counts


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=50, max_value=300),
    st.integers(min_value=2, max_value=3),
)
def test_duplicated_rows_scale_the_counts_and_two_corpora_add_them(seed, other_seed, rows, k):
    with tempfile.TemporaryDirectory() as d:
        a = _corpus(os.path.join(d, "a"), seed, rows)
        b = _corpus(os.path.join(d, "b"), other_seed, rows)
        views = _views(os.path.join(d, "va"), {name: head + body for name, (head, body) in a.items()})

        repeated = _views(os.path.join(d, "vk"), {name: head + body * k for name, (head, body) in a.items()})
        for qid, rows_a in views.items():
            scaled = [{c: v * k if c in COUNT_COLUMNS else v for c, v in row.items()} for row in rows_a]
            assert repeated[qid] == scaled, qid

        other = _views(os.path.join(d, "vb"), {name: head + body for name, (head, body) in b.items()})
        union = _views(os.path.join(d, "vu"), {name: head + body + b[name][1] for name, (head, body) in a.items()})
        for qid in analytics.QUERY_IDS:
            assert _counts(union[qid]) == _counts(views[qid]) + _counts(other[qid]), qid
