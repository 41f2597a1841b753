"""Command line front end: ingest, query, report, gen-fixtures.

Configuration comes from an optional JSON file plus flags, with flags
winning field by field. Relative paths inside the config file resolve
against the file's own directory, so a config can travel with its data.

Exit codes: 0 on success, 1 on unreadable input or a corrupt mapping or
lake, 2 on configuration errors (argparse uses 2 for bad flags already).
Rejected rows are never fatal; they are tallied and land in the lake's
reject file. A SIGTERM during ingest removes the staging directory, leaves
any earlier lake as it was, and exits 1.

Only ``ingest`` imports the parsing and cleaning modules, so ``query`` and
``report`` start without compiling them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NamedTuple

from reviewlake import analytics, engine, report, store
from reviewlake.errors import ConfigurationError, MappingFileError, ReviewLakeError
from reviewlake.model import SOURCES


class SourceSpec(NamedTuple):
    source: str
    path: str
    mapping_path: str | None = None


class RunConfig(NamedTuple):
    """Fully resolved run settings; every command reads from this."""

    sources: tuple[SourceSpec, ...] = ()
    lake_dir: str = "lake"
    out_dir: str = "out"
    partitions: int = 1
    threads: int = 1
    fmt: str = "csv"
    stoplist_path: str | None = None


_CONFIG_KEYS = {
    "sources", "lake_dir", "out_dir", "partitions", "threads",
    "format", "stoplist",
}


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"config {path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path}: top level must be an object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"config {path}: unknown keys {sorted(unknown)}")
    base = os.path.dirname(os.path.abspath(path))

    def rel(p, name: str) -> str:
        if p.__class__ is not str:
            raise ConfigurationError(f"config {path}: {name} must be a path string, got {p!r}")
        return p if os.path.isabs(p) else os.path.join(base, p)

    fields: dict = {}
    specs = []
    seen = set()
    sources = doc.get("sources", [])
    if sources.__class__ is not list:
        raise ConfigurationError(f"config {path}: sources must be a list, got {sources!r}")
    for i, entry in enumerate(sources):
        if not isinstance(entry, dict) or "source" not in entry or "path" not in entry:
            raise ConfigurationError(f"config {path}: sources[{i}] needs source and path")
        src = entry["source"]
        if src not in SOURCES:
            raise ConfigurationError(f"config {path}: unknown source {src!r}, expected one of {SOURCES}")
        if src in seen:
            raise ConfigurationError(f"config {path}: duplicate source {src!r}")
        seen.add(src)
        mp = entry.get("mapping")
        mapping = rel(mp, f"sources[{i}].mapping") if mp else None
        specs.append(SourceSpec(src, rel(entry["path"], f"sources[{i}].path"), mapping))
    fields["sources"] = tuple(specs)
    if "lake_dir" in doc:
        fields["lake_dir"] = rel(doc["lake_dir"], "lake_dir")
    if "out_dir" in doc:
        fields["out_dir"] = rel(doc["out_dir"], "out_dir")
    if "partitions" in doc:
        fields["partitions"] = _positive_int(doc["partitions"], "partitions")
    if "threads" in doc:
        fields["threads"] = _positive_int(doc["threads"], "threads")
    if "format" in doc:
        fields["fmt"] = _check_format(doc["format"])
    if "stoplist" in doc:
        fields["stoplist_path"] = rel(doc["stoplist"], "stoplist")
    return RunConfig(**fields)


def _positive_int(v, name: str) -> int:
    if v.__class__ is not int or v < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
    return v


def _check_format(v) -> str:
    if v not in report.TABLE_FORMATS:
        raise ConfigurationError(f"format must be one of {report.TABLE_FORMATS}, got {v!r}")
    return v


def resolve_config(args) -> RunConfig:
    cfg = load_config_file(args.config) if args.config else RunConfig()
    flags: dict = {}
    if args.lake:
        flags["lake_dir"] = args.lake
    if args.out:
        flags["out_dir"] = args.out
    if args.format:
        flags["fmt"] = _check_format(args.format)
    if args.partitions is not None:
        flags["partitions"] = _positive_int(args.partitions, "partitions")
    if args.threads is not None:
        flags["threads"] = _positive_int(args.threads, "threads")
    return cfg._replace(**flags)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _ingest_source(
    writer: store.LakeWriter, stops, job: tuple[str, str, str | None]
) -> tuple[str, store.SourceStats]:
    """Parse, adapt, and clean one source file into the staging directory.

    Runs in the parent or in a forked worker.
    """
    from reviewlake import ingest  # already loaded by cmd_ingest

    source, path, mapping_path = job
    mapping = ingest.load_mapping(mapping_path) if mapping_path else ingest.default_mapping(source)
    if mapping.source != source:
        raise MappingFileError(f"mapping {mapping_path} is for {mapping.source!r}, not {source!r}")
    counts: dict = {}
    stats = writer.stage(source, ingest.iter_source(path, mapping, stops, counts))
    return source, stats._replace(blank_lines=counts.get("blank_lines", 0))


def _raise_on_sigterm(signum, frame):
    raise ReviewLakeError("ingest interrupted by SIGTERM")


def cmd_ingest(cfg: RunConfig) -> int:
    import signal

    # loaded here, before any fork, so pool workers inherit them compiled;
    # _ingest_source imports ingest again from sys.modules
    from reviewlake import clean, ingest  # noqa: F401

    if not cfg.sources:
        raise ConfigurationError("no sources configured; provide a config file with a sources list")
    created_at = store.lake_timestamp()
    stops = clean.resolve_stoplist(cfg.stoplist_path)
    jobs = [(s.source, s.path, s.mapping_path) for s in sorted(cfg.sources, key=lambda s: s.source)]
    previous = signal.signal(signal.SIGTERM, _raise_on_sigterm)
    try:
        writer = store.LakeWriter(cfg.lake_dir)
        try:
            work = functools.partial(_ingest_source, writer, stops)
            results = None
            if cfg.threads > 1 and len(jobs) > 1:
                ctx = _fork_context()
                if ctx is not None:
                    # workers die on Pool.terminate's SIGTERM instead of raising
                    reset = functools.partial(signal.signal, signal.SIGTERM, signal.SIG_DFL)
                    with ctx.Pool(min(cfg.threads, len(jobs)), initializer=reset) as pool:
                        results = pool.map(work, jobs)
            if results is None:
                results = [work(j) for j in jobs]
            manifest = writer.commit(dict(results), created_at, stops.checksum)
        except BaseException:
            writer.abort()
            raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(store.manifest_to_json(manifest), end="")
    return 0


def _fork_context():
    import multiprocessing  # only a multi-worker ingest pays for the import

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# query and report
# ---------------------------------------------------------------------------

_QUERY_FNS = analytics.QUERIES


def cmd_query(cfg: RunConfig, ids: list[str], charts: bool = False) -> int:
    """Write each view's table, and with ``charts`` its bar chart; no ids means all.

    Every table is computed before the first file is written, so a view
    that fails leaves ``out/`` as it was.
    """
    for qid in ids:
        if qid not in _QUERY_FNS:
            raise ConfigurationError(f"unknown query {qid!r}, expected one of {analytics.QUERY_IDS}")
    # records and group states are acyclic: the collector would only rescan
    # them. Nothing names the records, so they are freed inside the pause;
    # left alive, they would be scanned once the collector resumes.
    with engine.gc_paused():
        cube = analytics.rollup(
            engine.PartitionedDataset.from_records(store.read_lake(cfg.lake_dir), cfg.partitions)
        )
    tables = {qid: _QUERY_FNS[qid](cube) for qid in ids or analytics.QUERY_IDS}
    os.makedirs(cfg.out_dir, exist_ok=True)
    specs = report.default_chart_specs()
    for qid, table in tables.items():
        paths = [report.emit_table(table, cfg.fmt, os.path.join(cfg.out_dir, f"{qid}.{cfg.fmt}"))]
        if charts:
            chart_table = table
            if qid == "yoy":
                chart_table = report.filter_rows(table, "sentiment_split", "overall")
                chart_table = report.filter_rows(chart_table, "year", "median", invert=True)
            svg = os.path.join(cfg.out_dir, f"{qid}.svg")
            paths.append(report.emit_bar_chart(specs[qid], chart_table, svg))
        print(f"{qid}: {len(table.rows)} rows -> {', '.join(paths)}")
        for note in table.notes:
            print(f"  note: {note}")
    return 0


def cmd_gen_fixtures(cfg: RunConfig, seed: int, profile: str, rows: int) -> int:
    from reviewlake import fixtures  # the generator is not loaded by the other commands

    truth = fixtures.generate(cfg.out_dir, seed=seed, profile=profile, rows_per_source=rows)
    for source in sorted(truth["per_source"]):
        t = truth["per_source"][source]
        print(f"{source}: {t['rows']} rows, {t['accepted']} clean -> {t['file']}")
    print(f"ground truth -> {os.path.join(cfg.out_dir, 'ground_truth.json')}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--lake", help="lake directory (overrides config)")
    shared.add_argument("--out", help="output directory (overrides config)")
    shared.add_argument("--format", choices=report.TABLE_FORMATS, help="table format")
    shared.add_argument("--partitions", type=int, help="dataset partition count")
    shared.add_argument("--threads", type=int, help="ingest worker process count")

    p = argparse.ArgumentParser(prog="reviewlake", description="review ETL and analytics")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[shared], help="parse, clean, and stage all configured sources")
    q = sub.add_parser("query", parents=[shared], help="run analytic views over the lake")
    q.add_argument("ids", nargs="*", metavar="query", help=f"one of {', '.join(analytics.QUERY_IDS)} (default: all)")
    sub.add_parser("report", parents=[shared], help="emit all tables plus charts")
    g = sub.add_parser("gen-fixtures", parents=[shared], help="write synthetic source files with ground truth")
    g.add_argument("--seed", type=int, default=1, help="fixture generator seed")
    g.add_argument("--rows", type=int, default=1000, help="rows per source")
    g.add_argument("--profile", default="paper_shaped", help="fixture profile, checked by the generator")
    return p


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "query":
            return cmd_query(cfg, args.ids)
        if args.command == "report":
            return cmd_query(cfg, [], charts=True)
        return cmd_gen_fixtures(cfg, args.seed, args.profile, args.rows)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReviewLakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run())
