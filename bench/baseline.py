"""Run every workload over ten seeds and record medians and spreads.

Usage, from the root of a checkout:

    python3 bench/baseline.py

Each of seeds 1-10 is one ``bench/run.py --trace 0`` run of ``run_seconds``
from BENCHMARK.json, for every workload listed there; one further
``--trace 1`` run on seed 1 gives the per-layer numbers. For each end-to-end
metric the record holds the ten values, their median and quartiles, and the
spread (q3 - q1) / median next to the metric's bound. Host facts go with it:
core count, Python version, load average before and after, and the commit
measured.

The record is written to bench/baseline.json. A record already there moves
to the front of ``earlier_sets``, so repeated sets of the same code can be
compared.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import HELD_OUT_SEED, SETUP_REPEATS

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "baseline.json")
SEEDS = list(range(1, 11))

NOTES = [
    "Host noise on the 2-core host this was first measured on: contention phases lasting seconds "
    "to minutes slow whole repetitions by 1.3-1.7x, and CPU time inflates with them.",
    "Quoted from 250k-row profiles taken before this benchmark existed, not re-measured here: "
    "first-run outliers of 14.5 s against 11.7-12.1 s for the 250k ingest and 6.8 s against 5.9 s "
    "for the 250k report; the 2-worker query varied by 20% over 3 runs.",
    "Per-layer values are from one --trace 1 run on the first seed; layers a workload bypasses "
    "read 0, and pipeline2w_20k records parent-process spans only.",
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {
        "commit": commit(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "loadavg_1min_before": os.getloadavg()[0],
        },
        "run_seconds": spec["run_seconds"],
        "setup_repeats": SETUP_REPEATS,
        "seeds": SEEDS,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}", file=sys.stderr)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med,
                "bound": bound,
                "values": values,
            }
            print(f"  {workload} {name}: median {med:.6g}, spread {(q3 - q1) / med:.4f} "
                  f"(bound {bound})", file=sys.stderr)
        traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": metrics,
            "per_layer_first_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    record["host"]["loadavg_1min_after"] = os.getloadavg()[0]
    record["notes"] = NOTES
    record["earlier_sets"] = []
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            previous = json.load(fh)
        record["earlier_sets"] = [previous, *previous.pop("earlier_sets", [])]
        previous.pop("notes", None)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
