"""End-to-end benchmark for the reviewlake CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME [--seed N] --seconds S [--trace 0|1]
                         [--rows-per-source N]

A run is five rounds. Each round sets up afresh: it builds the
``paper_shaped`` corpus of ``--seed`` with ``reviewlake.fixtures.generate``
(the report workload also ingests it into a lake). It then repeats the
workload's CLI commands, one subprocess each, for a fifth of ``--seconds``.
``setup_s`` is the median of the five set-ups; spreading them over the run
lets them meet the same host conditions as the repetitions do. Wall time
runs from spawn to reap; CPU time and peak RSS come from ``os.wait4`` on
that child, which includes the workers it forked and reaped.

Every repetition goes through the correctness gate (gate.py): exit codes,
manifest tallies and table totals against ground_truth.json, and output
bytes equal to the first repetition's under a pinned SOURCE_DATE_EPOCH.
The two-worker pipeline is also compared byte for byte with a serial
ingest and report of the same corpus.

With ``--trace 0`` the last output line carries the end-to-end metrics, the
median over repetitions. With ``--trace 1`` untraced and traced repetitions
alternate (tracing.py wraps the CLI from outside) and the line carries the
per-layer metrics, the median over traced repetitions, plus
``trace.overhead_frac``. The spans of the last traced repetition are
written to ``.bench_work/trace-<workload>-seed<N>.json``.

Seed 1 is the default. Seed 97 is held out: use it only to confirm a claim
made on other seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from typing import NamedTuple

import gate
from tracing import CLEAN_STEPS, VIEWS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracing.py")

DEFAULT_ROWS_PER_SOURCE = 5000
SETUP_REPEATS = 5  # rounds of set-up and repetitions in one run
HELD_OUT_SEED = 97
SOURCE_DATE_EPOCH = "1700000000"


class Workload(NamedTuple):
    commands: tuple  # (subcommand, *flags) per CLI call of one repetition
    lake_from_setup: bool  # reads a lake built in set-up instead of writing one
    parallel: bool  # outputs are also compared with a serial ingest and report


SERIAL_INGEST = ("ingest", "--threads", "1")
SERIAL_REPORT = ("report", "--threads", "1", "--partitions", "1")

# Why each workload exists and which layers it bypasses is recorded in
# BENCHMARK.json.
WORKLOADS = {
    "ingest_20k": Workload((SERIAL_INGEST,), False, False),
    "report_20k": Workload((SERIAL_REPORT,), True, False),
    "pipeline2w_20k": Workload(
        (("ingest", "--threads", "2"), ("query", "--threads", "2", "--partitions", "2")), False, True
    ),
}

END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "ingest.parse_csv_s": "s",
    "ingest.parse_jsonl_s": "s",
    "ingest.adapt_s": "s",
    "ingest.csv_mb_per_s": "MB/s",
    "ingest.records_out": "count",
    "ingest.rejects": "count",
    "ingest.workers_s": "s",
    "clean.clean_review_s": "s",
    **{f"clean.{step}_s": "s" for step in CLEAN_STEPS},
    "clean.accept_ratio": "ratio",
    "store.encode_s": "s",
    "store.commit_s": "s",
    "store.read_lake_s": "s",
    "store.read_mb_per_s": "MB/s",
    "store.lake_bytes_per_record": "B/record",
    "engine.group_aggregate_s": "s",
    "engine.group_aggregate_calls": "count",
    "engine.map_s": "s",
    "engine.from_records_s": "s",
    **{f"analytics.{v}_s": "s" for v in VIEWS},
    "analytics.self_s": "s",
    "report.emit_table_s": "s",
    "report.emit_bar_chart_s": "s",
    "report.out_bytes": "B",
    "cli.other_s": "s",
    "fixtures.generate_s": "s",
    "trace.overhead_frac": "ratio",
}


class Proc(NamedTuple):
    rc: int
    start: float
    wall: float
    cpu: float
    rss_kib: int


def spawn(argv: list[str], log_path: str, env: dict) -> Proc:
    """Run one child to completion and account for it with os.wait4."""
    with open(log_path, "ab") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, start, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


def cli_argv(command: tuple, corpus: str, lake: str, out: str, trace_to: tuple | None) -> list[str]:
    sub, *flags = command
    prefix = [sys.executable, "-m", "reviewlake.cli"]
    if trace_to is not None:
        prefix = [sys.executable, TRACER, *trace_to, "--"]
    config = os.path.join(corpus, "config.json")
    return prefix + [sub, "--config", config, "--lake", lake, "--out", out, *flags]


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class Run:
    """State of one benchmark invocation: its corpus, lake and repetitions."""

    def __init__(self, name: str, seed: int, rows: int, work: str):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.rows = rows
        self.work = work
        self.env = dict(os.environ, SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self.log = os.path.join(work, "commands.log")
        self.failures: list[str] = []  # run-level failures fail every repetition
        self.reference: dict[str, str] = {}
        self.setup_times: list[float] = []
        self.generate_times: list[float] = []

    def set_up(self, round_: int) -> None:
        """Build the corpus, and the lake if the workload reads one, into a
        fresh directory, and drop the previous round's."""
        from reviewlake import fixtures

        base = os.path.join(self.work, f"setup{round_}")
        corpus, lake = os.path.join(base, "corpus"), os.path.join(base, "lake")
        t0 = perf_counter()
        self.truth = fixtures.generate(corpus, seed=self.seed, rows_per_source=self.rows)
        self.generate_times.append(perf_counter() - t0)
        if self.workload.lake_from_setup:
            argv = cli_argv(SERIAL_INGEST, corpus, lake, os.path.join(base, "out"), None)
            rc = spawn(argv, self.log, self.env).rc
            if rc:
                self.failures.append(f"set-up ingest exited {rc}")
        self.setup_times.append(perf_counter() - t0)
        if round_:
            shutil.rmtree(os.path.join(self.work, f"setup{round_ - 1}"))
        self.corpus, self.setup_lake = corpus, lake
        if self.workload.lake_from_setup:
            self.failures += gate.check_manifest(lake, self.truth)
        per_source = self.truth["per_source"].values()
        self.records = sum(t["accepted"] for t in per_source)
        self.data_rows = sum(t["rows"] for t in per_source)
        self.csv_bytes = sum(
            os.path.getsize(os.path.join(corpus, t["file"])) for t in per_source if t["format"] == "csv"
        )

    def repetition(self, index: int, traced: bool) -> dict:
        rep_dir = os.path.join(self.work, "rep")
        shutil.rmtree(rep_dir, ignore_errors=True)
        os.makedirs(rep_dir)
        lake = self.setup_lake if self.workload.lake_from_setup else os.path.join(rep_dir, "lake")
        out = os.path.join(rep_dir, "out")
        procs, failures, spans, counters = [], [], [], {}
        for i, command in enumerate(self.workload.commands):
            cmd_id = f"cmd{i}"
            spans_path = os.path.join(rep_dir, f"spans{i}.json")
            trace_to = (spans_path, cmd_id) if traced else None
            p = spawn(cli_argv(command, self.corpus, lake, out, trace_to), self.log, self.env)
            procs.append(p)
            if p.rc:
                failures.append(f"repetition {index}: {command[0]} exited {p.rc}")
                continue
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                spans.append({"id": cmd_id, "name": f"cli.{command[0]}", "parent": None,
                              "start": p.start, "end": p.start + p.wall})
                spans += doc["spans"]
                for name, c in doc["counters"].items():
                    acc = counters.setdefault(name, {"seconds": 0.0, "calls": 0, "rejects": 0})
                    for k in acc:
                        acc[k] += c[k]

        digests = {}
        subs = {c[0] for c in self.workload.commands}
        if "ingest" in subs:
            failures += gate.check_manifest(lake, self.truth)
            digests["lake"] = gate.tree_digest(lake)
        if subs & {"query", "report"}:
            failures += gate.check_tables(out, self.truth)
            digests["out"] = gate.tree_digest(out)
        if not self.reference:
            self.reference = digests
        for key, value in digests.items():
            if value != self.reference[key]:
                failures.append(f"repetition {index}: {key} bytes differ from repetition 0")

        rep = {
            "traced": traced,
            "wall": sum(p.wall for p in procs),
            "cpu": sum(p.cpu for p in procs),
            "rss_mib": max(p.rss_kib for p in procs) / 1024,
            "failures": failures,
        }
        if traced:
            sizes = {"lake": dir_bytes(lake), "out": dir_bytes(out) if os.path.isdir(out) else 0}
            rep["layers"] = self.layer_metrics(spans, counters, sizes)
            rep["spans"] = spans
            rep["counters"] = counters
        return rep

    def cross_check(self) -> None:
        """The 2-worker lake and tables must equal a serial ingest and report's."""
        ref = os.path.join(self.work, "serial")
        lake, out = os.path.join(ref, "lake"), os.path.join(ref, "out")
        for command in (SERIAL_INGEST, SERIAL_REPORT):
            rc = spawn(cli_argv(command, self.corpus, lake, out, None), self.log, self.env).rc
            if rc:
                self.failures.append(f"serial reference {command[0]} exited {rc}")
                return
        if gate.tree_digest(lake) != self.reference.get("lake"):
            self.failures.append("2-worker lake differs from the serial ingest's lake")
        # query writes only CSV tables, so its whole output is compared
        # with the CSV part of the serial report's
        if gate.tree_digest(out, ".csv") != self.reference.get("out"):
            self.failures.append("2-worker query tables differ from the serial report's tables")

    def layer_metrics(self, spans: list[dict], counters: dict, sizes: dict) -> dict:
        covered: dict[str, float] = {}
        for s in spans:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        for s in spans:
            s["self_s"] = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        commands = {s["id"] for s in spans if s["parent"] is None}

        def total(name):
            return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

        def secs(name):
            return counters.get(name, {}).get("seconds", 0.0)

        def count(name, key="calls"):
            return counters.get(name, {}).get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "ingest.parse_csv_s": secs("ingest.parse_csv"),
            "ingest.parse_jsonl_s": secs("ingest.parse_jsonl"),
            "ingest.adapt_s": secs("ingest.adapt"),
            "ingest.csv_mb_per_s": ratio(self.csv_bytes / 1e6, secs("ingest.parse_csv")),
            "ingest.records_out": count("ingest.adapt") - count("ingest.adapt", "rejects"),
            "ingest.rejects": sum(
                count(n, "rejects") for n in ("ingest.parse_csv", "ingest.parse_jsonl", "ingest.adapt")
            ),
            "ingest.workers_s": sum(
                s["end"] - s["start"] for s in spans if s["name"] == "pool.map" and s["parent"] in commands
            ),
            "clean.clean_review_s": secs("clean.clean_review"),
            **{f"clean.{step}_s": secs(f"clean.{step}") for step in CLEAN_STEPS},
            "clean.accept_ratio": ratio(
                count("clean.clean_review") - count("clean.clean_review", "rejects"),
                count("clean.clean_review"),
            ),
            "store.encode_s": secs("store.review_to_json") + secs("store.reject_to_json"),
            "store.commit_s": total("store.commit"),
            "store.read_lake_s": total("store.read_lake"),
            "store.read_mb_per_s": ratio(sizes["lake"] / 1e6, total("store.read_lake")),
            "store.lake_bytes_per_record": ratio(sizes["lake"], self.records),
            "engine.group_aggregate_s": total("engine.group_aggregate"),
            "engine.group_aggregate_calls": sum(s["name"] == "engine.group_aggregate" for s in spans),
            "engine.map_s": total("engine.map"),
            "engine.from_records_s": total("engine.from_records"),
            **{f"analytics.{v}_s": total(f"analytics.{v}") for v in VIEWS},
            "analytics.self_s": sum(s["self_s"] for s in spans if s["name"].startswith("analytics.")),
            "report.emit_table_s": total("report.emit_table"),
            "report.emit_bar_chart_s": total("report.emit_bar_chart"),
            "report.out_bytes": sizes["out"],
            "cli.other_s": sum(s["self_s"] for s in spans if s["id"] in commands),
        }
        return m


def measure(run: Run, seconds: float, trace: bool) -> list[dict]:
    """Run SETUP_REPEATS rounds: set up, then repeat the workload for an
    equal share of the time. With trace, untraced and traced repetitions
    alternate; every round makes at least one repetition, so a run has
    both kinds."""
    reps = []
    for round_ in range(SETUP_REPEATS):
        run.set_up(round_)
        deadline = perf_counter() + seconds / SETUP_REPEATS
        while True:
            traced = trace and len(reps) % 2 == 1
            reps.append(run.repetition(len(reps), traced))
            if perf_counter() >= deadline:
                break
    return reps


def summarise(run: Run, reps: list[dict], trace: bool) -> dict:
    failed = len(reps) if run.failures else sum(bool(r["failures"]) for r in reps)
    plain = [r for r in reps if not r["traced"]]
    median = statistics.median
    wall = median([r["wall"] for r in plain])
    if trace:
        traced = [r for r in reps if r["traced"]]
        values = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        values["fixtures.generate_s"] = median(run.generate_times)
        values["trace.overhead_frac"] = median([r["wall"] for r in traced]) / wall - 1
        units = PER_LAYER
    else:
        rows = run.records if run.workload.lake_from_setup else run.data_rows
        values = {
            "wall_s": wall,
            "rows_per_s": rows / wall,
            "cpu_s": median([r["cpu"] for r in plain]),
            "peak_rss_mib": median([r["rss_mib"] for r in plain]),
            "setup_s": median(run.setup_times),
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def write_trace(run: Run, reps: list[dict]) -> str:
    last = [r for r in reps if r["traced"]][-1]
    path = os.path.join(WORK_ROOT, f"trace-{run.name}-seed{run.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": run.name, "seed": run.seed, "spans": last["spans"],
                   "counters": last["counters"]}, fh, indent=1)
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows-per-source", type=int, default=DEFAULT_ROWS_PER_SOURCE,
                    help="corpus size; 500 gives a smoke run of a few seconds")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reviewlake", "cli.py")):
        print(f"error: no reviewlake sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    run = Run(args.workload, args.seed, args.rows_per_source, work)
    try:
        reps = measure(run, args.seconds, bool(args.trace))
        if run.workload.parallel:
            run.cross_check()
        result = summarise(run, reps, bool(args.trace))
        trace_path = write_trace(run, reps) if args.trace else None
        if not result["correct"]:
            with open(run.log, encoding="utf-8", errors="replace") as fh:
                sys.stderr.writelines(fh.readlines()[-20:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {run.data_rows} rows, "
          f"{result['attempted']} repetitions")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for msg in (run.failures + [f for r in reps for f in r["failures"]])[:10]:
        print(f"  FAIL: {msg}")
    if trace_path:
        print(f"  spans -> {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
