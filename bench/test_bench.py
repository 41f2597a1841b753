"""Tests of the benchmark itself, in smoke mode (500 rows per source).

Run from the root of a checkout: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics, by name prefix, that must read above 0 because the
# workload runs that layer. A wrapper that stops intercepting its function
# reads 0, which would otherwise look like a layer the workload bypasses.
EXERCISED = {
    "ingest_20k": ("ingest.parse", "ingest.adapt", "ingest.csv", "ingest.records", "ingest.rejects",
                   "clean.", "store.encode", "store.commit"),
    "report_20k": ("store.read", "engine.", "analytics.", "report."),
    "pipeline2w_20k": ("ingest.workers", "store.commit", "store.read", "engine.", "analytics.",
                       "report.emit_table"),
}
EXERCISED_EVERYWHERE = ("store.lake_bytes", "cli.", "fixtures.")


def _copy_bench(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """A copy of what a checkout holds: BENCHMARK.json, bench/ and src/."""
    dest = tmp_path_factory.mktemp("checkout")
    _copy_bench(dest)
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(checkout, workload, trace):
    done = _bench(checkout, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--rows-per-source", "500")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        exercised = EXERCISED[workload] + EXERCISED_EVERYWHERE
        for name, m in result["metrics"].items():
            if name.startswith(exercised):
                assert m["value"] > 0, name


def test_refuses_without_program_sources(tmp_path):
    _copy_bench(tmp_path)
    done = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_gate_fires_on_tampered_copy(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from reviewlake import fixtures

    truth = fixtures.generate(str(tmp_path / "corpus"), seed=5, rows_per_source=200)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SOURCE_DATE_EPOCH="1700000000")
    for sub in ("ingest", "report"):
        subprocess.run(
            [sys.executable, "-m", "reviewlake.cli", sub, "--config", str(tmp_path / "corpus" / "config.json"),
             "--lake", str(tmp_path / "lake"), "--out", str(tmp_path / "out")],
            env=env, check=True, capture_output=True, timeout=120,
        )
    lake, out = tmp_path / "lake", tmp_path / "out"
    assert gate.check_manifest(str(lake), truth) == []
    assert gate.check_tables(str(out), truth) == []

    def tampered(src: Path, name: str, old: str, new: str) -> Path:
        copy = tmp_path / f"tampered-{name}"
        shutil.copytree(src, copy)
        text = (copy / name).read_text(encoding="utf-8")
        assert old in text
        (copy / name).write_text(text.replace(old, new, 1), encoding="utf-8")
        return copy

    accepted = truth["per_source"]["amazon"]["accepted"]
    bad_lake = tampered(lake, "manifest.json", f'"accepted": {accepted}', f'"accepted": {accepted + 1}')
    assert gate.check_manifest(str(bad_lake), truth)

    first_row = (out / "per_year.csv").read_text(encoding="utf-8").splitlines()[1]
    bad_out = tampered(out, "per_year.csv", first_row, first_row + "0")
    assert gate.check_tables(str(bad_out), truth)

    profile_row = (out / "sentiment_profile.csv").read_text(encoding="utf-8").splitlines()[1]
    bad_profile = tampered(out, "sentiment_profile.csv", profile_row, profile_row + "1")
    assert gate.check_tables(str(bad_profile), truth)

    # a changed letter passes every count check; only the byte comparison sees it
    record = (lake / "amazon.jsonl").read_text(encoding="utf-8").splitlines()[0]
    text = json.loads(record)["review_text"]
    flipped = record.replace(text, text[:-1] + ("a" if text[-1] != "a" else "b"), 1)
    bad_bytes = tampered(lake, "amazon.jsonl", record, flipped)
    assert gate.check_manifest(str(bad_bytes), truth) == []
    assert gate.tree_digest(str(bad_bytes)) != gate.tree_digest(str(lake))
