"""Correctness gate for benchmark outputs.

Every check returns a list of failure messages; an empty list passes.
The expected values come from the fixture generator's ground_truth.json,
which tallies every row's fate while writing the corpus.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

SENTIMENT_NAMES = {"0": "negative", "1": "positive"}


def tree_digest(path: str, suffix: str = "") -> str:
    """sha256 over the names and bytes of the files under path ending in suffix."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(suffix):
                continue
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                data = fh.read()
            h.update(len(data).to_bytes(8, "big"))
            h.update(data)
    return h.hexdigest()


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def check_manifest(lake_dir: str, truth: dict) -> list[str]:
    """Per-source accepted, blank-line and reject tallies must equal the truth."""
    try:
        with open(os.path.join(lake_dir, "manifest.json"), "rb") as fh:
            per_source = json.load(fh)["per_source"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{lake_dir}: unreadable manifest: {exc!r}"]
    failures = []
    expected = truth["per_source"]
    if sorted(per_source) != sorted(expected):
        failures.append(f"manifest sources {sorted(per_source)} != {sorted(expected)}")
    for src in sorted(set(per_source) & set(expected)):
        got, want = per_source[src], expected[src]
        for key in ("accepted", "blank_lines"):
            if got.get(key) != want[key]:
                failures.append(f"manifest {src} {key}: {got.get(key)} != {want[key]}")
        if _nonzero(got.get("rejected_by_reason", {})) != _nonzero(want["rejected_by_reason"]):
            failures.append(f"manifest {src} rejected_by_reason differs from ground truth")
    return failures


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_tables(out_dir: str, truth: dict) -> list[str]:
    """per_year must sum to accepted per source; sentiment_profile counts
    must equal accepted_by_sentiment."""
    failures = []
    expected = truth["per_source"]
    try:
        per_year = _read_csv(os.path.join(out_dir, "per_year.csv"))
        profile = _read_csv(os.path.join(out_dir, "sentiment_profile.csv"))
        year_sums: dict[str, int] = {}
        for row in per_year:
            year_sums[row["source"]] = year_sums.get(row["source"], 0) + int(row["count"])
        classes = {
            (row["source"], SENTIMENT_NAMES[row["sentiment"]]): int(row["count"]) for row in profile
        }
    except (OSError, KeyError, ValueError) as exc:
        return [f"{out_dir}: unreadable tables: {exc!r}"]
    want_sums = {src: t["accepted"] for src, t in expected.items() if t["accepted"]}
    if year_sums != want_sums:
        failures.append(f"per_year sums {year_sums} != accepted {want_sums}")
    want_classes = {
        (src, cls): n
        for src, t in expected.items()
        for cls, n in t["accepted_by_sentiment"].items()
        if n
    }
    if classes != want_classes:
        failures.append("sentiment_profile counts differ from accepted_by_sentiment")
    return failures
