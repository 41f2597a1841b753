"""Traced entry point for one reviewlake CLI command.

Usage: python3 bench/tracing.py SPANS_OUT PARENT_ID -- <reviewlake cli args>

Before calling ``reviewlake.cli.run`` it replaces, from outside the
program, the module and class attributes the CLI resolves at call time:

* per-row functions (parsers, adapt, clean_review and its six steps, the
  two lake encoders) feed counters of seconds, calls and RejectRecord
  results;
* coarse functions (one source file, pool map, lake commit and read, the
  dataset constructors, each view, each group_aggregate, each table and
  chart write) become spans with a parent id.

Spans and counters stay in memory and are written to SPANS_OUT as JSON
when the command returns. Only this process writes them: forked ingest or
engine workers run the same wrappers on their own copies, which are lost
when they exit, so a multi-worker command reports parent-process spans
only.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.pool
import os
import sys
from time import perf_counter


class Recorder:
    """Spans and per-row counters of one traced process."""

    def __init__(self, parent_id: str):
        self.prefix = f"p{os.getpid()}-"
        self.spans: list[list] = []  # [id, name, parent, start, end]
        self.stack = [parent_id]
        self.counters: dict[str, list] = {}  # name -> [seconds, calls, rejects]

    def span(self, name: str, fn):
        spans, stack, prefix = self.spans, self.stack, self.prefix

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [prefix + str(len(spans)), name, stack[-1], perf_counter(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn, reject_type):
        c = self.counters.setdefault(name, [0.0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                c[0] += perf_counter() - t0
                c[1] += 1
            if out.__class__ is reject_type:
                c[2] += 1
            return out

        return wrapper

    def counted_iter(self, name: str, fn, reject_type):
        """Wrap a generator function, timing every ``next()`` on its result."""
        c = self.counters.setdefault(name, [0.0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nxt = fn(*args, **kwargs).__next__
            while True:
                t0 = perf_counter()
                try:
                    item = nxt()
                except StopIteration:
                    c[0] += perf_counter() - t0
                    return
                c[0] += perf_counter() - t0
                c[1] += 1
                if item.__class__ is reject_type:
                    c[2] += 1
                yield item

        return wrapper

    def dump(self, path: str) -> None:
        doc = {
            "spans": [
                {"id": i, "name": n, "parent": p, "start": s, "end": e}
                for i, n, p, s, e in self.spans
            ],
            "counters": {k: {"seconds": v[0], "calls": v[1], "rejects": v[2]} for k, v in self.counters.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


VIEWS = {
    "per_year": "reviews_per_year",
    "yoy": "yoy_percent_change",
    "per_weekday": "reviews_per_weekday",
    "per_month": "reviews_per_month",
    "length_upvotes": "length_upvote_profile",
    "sentiment_profile": "sentiment_profile",
}

CLEAN_STEPS = (
    "strip_non_alpha", "remove_stopwords", "normalize_date",
    "trim_outer", "map_sentiment", "parse_upvotes",
)


def install(rec: Recorder) -> None:
    """Replace the attributes the CLI looks up at call time with wrappers."""
    from reviewlake import analytics, cli, clean, ingest, report, store
    from reviewlake.engine import PartitionedDataset
    from reviewlake.model import RejectRecord

    ingest.parse_csv = rec.counted_iter("ingest.parse_csv", ingest.parse_csv, RejectRecord)
    ingest.parse_jsonl = rec.counted_iter("ingest.parse_jsonl", ingest.parse_jsonl, RejectRecord)
    ingest.adapt = rec.counted("ingest.adapt", ingest.adapt, RejectRecord)
    clean.clean_review = rec.counted("clean.clean_review", clean.clean_review, RejectRecord)
    for step in CLEAN_STEPS:
        setattr(clean, step, rec.counted(f"clean.{step}", getattr(clean, step), RejectRecord))
    store.review_to_json = rec.counted("store.review_to_json", store.review_to_json, RejectRecord)
    store.reject_to_json = rec.counted("store.reject_to_json", store.reject_to_json, RejectRecord)

    # functools.wraps keeps the qualified name, so the pool still pickles
    # the wrapped _ingest_source by reference
    cli._ingest_source = rec.span("cli.file", cli._ingest_source)
    multiprocessing.pool.Pool.map = rec.span("pool.map", multiprocessing.pool.Pool.map)
    store.LakeWriter.commit = rec.span("store.commit", store.LakeWriter.commit)
    store.read_lake = rec.span("store.read_lake", store.read_lake)
    from_records = PartitionedDataset.__dict__["from_records"].__func__
    PartitionedDataset.from_records = classmethod(rec.span("engine.from_records", from_records))
    PartitionedDataset.map = rec.span("engine.map", PartitionedDataset.map)
    analytics.group_aggregate = rec.span("engine.group_aggregate", analytics.group_aggregate)
    for qid, attr in VIEWS.items():
        wrapped = rec.span(f"analytics.{qid}", getattr(analytics, attr))
        setattr(analytics, attr, wrapped)
        cli._QUERY_FNS[qid] = wrapped
    report.emit_table = rec.span("report.emit_table", report.emit_table)
    report.emit_bar_chart = rec.span("report.emit_bar_chart", report.emit_bar_chart)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS_OUT PARENT_ID -- <reviewlake cli args>", file=sys.stderr)
        return 2
    out_path, parent_id, cli_args = argv[0], argv[1], argv[3:]
    rec = Recorder(parent_id)
    install(rec)
    from reviewlake import cli

    rc = cli.run(cli_args)
    rec.dump(out_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
