"""Shared fixtures: a session-scoped synthetic corpus and the acceptance
criteria summary printed after the run (outside pytest's capture, so the
per-criterion lines always reach the terminal).
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from reviewlake import analytics, clean, fixtures, ingest
from reviewlake.model import UnifiedReview

#: (criterion number, "PASS"/"FAIL"/"SKIP", description) in run order.
acceptance_results: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num, status, desc in sorted(acceptance_results):
        terminalreporter.write_line(f"criterion {num:2d} {status}: {desc}")


def run_all(ds):
    """All six views of a dataset of UnifiedReviews, keyed by query id, in
    canonical order, from one roll-up, as ``query`` computes them."""
    cube = analytics.rollup(ds)
    return {qid: view(cube) for qid, view in analytics.QUERIES.items()}


def run_pipeline(dirpath: str, truth: dict):
    """Parse, adapt, and clean every generated file; returns accepted reviews."""
    stops = clean.default_stoplist()
    reviews = []
    for src in ("amazon", "imdb", "steam", "yelp"):
        path = os.path.join(dirpath, truth["per_source"][src]["file"])
        items = ingest.iter_source(path, ingest.default_mapping(src), stops)
        reviews += [r for r in items if r.__class__ is UnifiedReview]
    return reviews


@pytest.fixture(scope="session")
def corpus10k(tmp_path_factory):
    """Seed-1 shaped corpus at 10k rows per source, cleaned once per session."""
    d = tmp_path_factory.mktemp("corpus10k")
    truth = fixtures.generate(str(d), seed=1, rows_per_source=10000)
    reviews = run_pipeline(str(d), truth)
    return {"dir": str(d), "truth": truth, "reviews": reviews}
