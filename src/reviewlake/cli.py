"""Command line front end: ingest, query, report, gen-fixtures.

Settings come from an optional JSON file plus flags, flags winning field
by field. ``_SETTINGS`` holds one check per setting, for a config key and
its flag alike. Relative paths in the file resolve against the file's own
directory, so a config can travel with its data; an empty path is refused.
``gen-fixtures`` reads no settings: it takes ``--out``, ``--seed`` and
``--rows`` and nothing else.

Exit codes: 0 on success, 1 on unreadable input or a corrupt mapping or
lake, 2 on configuration errors (argparse uses 2 for bad flags already).
Rejected rows are never fatal; they are tallied and land in the lake's
reject file. ``store.LakeWriter`` holds the rule for a SIGTERM or SIGINT
during ingest: exit 1 with any earlier lake as it was, or, once the new
lake is renamed into place, ignore it and finish with exit 0.

``ingest --threads N`` forks its workers; there is no other start method.
So the tool is POSIX-only: the one platform without ``fork``, Windows,
also refuses to open a directory for the fsync that a lake commit needs.

``query`` and ``report`` name no view: ``report.CHARTS`` says how each is
drawn. Only ``ingest`` imports the parsing and cleaning modules, so
``query`` and ``report`` start without compiling them.
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
    mapping: str | None = None


class RunConfig(NamedTuple):
    """Fully resolved run settings; every command reads from this."""

    sources: tuple[SourceSpec, ...] = ()
    lake_dir: str = "lake"
    out_dir: str = "out"
    threads: int = 1
    format: str = "csv"
    stoplist: str | None = None


def _path(v, name: str, base: str = "") -> str:
    if v.__class__ is not str or not v:
        raise ConfigurationError(f"{name} must be a non-empty path string, got {v!r}")
    try:
        if b"\0" not in os.fsencode(v):  # a NUL or a lone surrogate is no file name
            return os.path.join(base, v)  # keeps an absolute v as it is
    except UnicodeEncodeError:
        pass
    raise ConfigurationError(f"{name} is not a path the OS can take, got {v!r}")


def _positive_int(v, name: str, base: str = "") -> int:
    if v.__class__ is not int or v < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
    return v


def _format(v, name: str, base: str = "") -> str:
    if v not in report.TABLE_FORMATS:
        raise ConfigurationError(f"{name} must be one of {report.TABLE_FORMATS}, got {v!r}")
    return v


def _sources(v, name: str, base: str = "") -> tuple[SourceSpec, ...]:
    if v.__class__ is not list:
        raise ConfigurationError(f"{name} must be a list, got {v!r}")
    specs: dict[str, SourceSpec] = {}
    for i, entry in enumerate(v):
        where = f"{name}[{i}]"
        if not isinstance(entry, dict) or "source" not in entry or "path" not in entry:
            raise ConfigurationError(f"{where} needs source and path")
        unknown = set(entry) - set(SourceSpec._fields)
        if unknown:
            raise ConfigurationError(f"{where} has unknown keys {sorted(unknown)}")
        src = entry["source"]
        if src not in SOURCES:
            raise ConfigurationError(f"unknown source {src!r}, expected one of {SOURCES}")
        if src in specs:
            raise ConfigurationError(f"duplicate source {src!r}")
        mapping = _path(entry["mapping"], f"{where}.mapping", base) if "mapping" in entry else None
        specs[src] = SourceSpec(src, _path(entry["path"], f"{where}.path", base), mapping)
    return tuple(specs.values())


#: Setting -> check(value, name, base), for a config key and a flag alike.
#: A check returns the value to use or raises a ConfigurationError naming
#: the setting; base is the config file's directory, "" for a flag.
_SETTINGS = {
    "sources": _sources,
    "lake_dir": _path,
    "out_dir": _path,
    "threads": _positive_int,
    "format": _format,
    "stoplist": _path,
}


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config {path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path}: top level must be an object")
    unknown = set(doc) - set(_SETTINGS)
    if unknown:
        raise ConfigurationError(f"config {path}: unknown keys {sorted(unknown)}")
    base = os.path.dirname(os.path.abspath(path))
    try:
        return RunConfig(**{key: _SETTINGS[key](v, key, base) for key, v in doc.items()})
    except ConfigurationError as exc:
        raise ConfigurationError(f"config {path}: {exc}") from None


def resolve_config(args) -> RunConfig:
    cfg = load_config_file(args.config) if args.config else RunConfig()
    flags = {key: getattr(args, key, None) for key in _SETTINGS}
    return cfg._replace(**{key: _SETTINGS[key](v, key) for key, v in flags.items() if v is not None})


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _ingest_source(writer: store.LakeWriter, stops, job) -> tuple[str, store.SourceStats]:
    """Parse, adapt, and clean one (path, mapping) job into the staging directory, in the parent or a worker."""
    from reviewlake import ingest  # already loaded by cmd_ingest

    path, mapping = job
    return mapping.source, writer.stage(mapping.source, ingest.iter_source(path, mapping, stops))


def cmd_ingest(cfg: RunConfig) -> int:
    # loaded here, before any fork, so pool workers inherit them compiled;
    # _ingest_source imports ingest again from sys.modules
    from reviewlake import clean, ingest

    if not cfg.sources:
        raise ConfigurationError("no sources configured; provide a config file with a sources list")
    created_at = store.lake_timestamp()
    stops = clean.load_stoplist(cfg.stoplist) if cfg.stoplist else clean.default_stoplist()
    jobs = []  # (path, mapping) per source: every mapping is checked before a row is read
    for spec in sorted(cfg.sources):
        mapping = ingest.load_mapping(spec.mapping) if spec.mapping else ingest.default_mapping(spec.source)
        if mapping.source != spec.source:
            raise MappingFileError(f"mapping {spec.mapping} is for {mapping.source!r}, not {spec.source!r}")
        jobs.append((spec.path, mapping))
    with store.LakeWriter(cfg.lake_dir) as writer:
        work = functools.partial(_ingest_source, writer, stops)
        if cfg.threads > 1 and len(jobs) > 1:
            with writer.fork_pool(min(cfg.threads, len(jobs))) as pool:
                results = pool.map(work, jobs)
        else:
            results = [work(j) for j in jobs]
        manifest = writer.commit(dict(results), created_at, stops.checksum)
    print(store.manifest_to_json(manifest), end="")
    return 0


# ---------------------------------------------------------------------------
# query and report
# ---------------------------------------------------------------------------

_QUERY_FNS = analytics.QUERIES


def cmd_query(cfg: RunConfig, ids: list[str], charts: bool = False) -> int:
    """Write each view's table, and with ``charts`` its bar chart; no ids means all.

    Every table is computed before the first file is written, and every
    file is written under a hidden temporary name before any is renamed to
    its own, so a view or a write that fails leaves ``out/`` as it was.
    ``out/`` itself is never replaced: it may hold other files, but it may
    not be the lake or lie inside it, since a lake holds nothing else.
    """
    for qid in ids:
        if qid not in _QUERY_FNS:
            raise ConfigurationError(f"unknown query {qid!r}, expected one of {analytics.QUERY_IDS}")
    lake = os.path.realpath(cfg.lake_dir)
    if os.path.commonpath([lake, os.path.realpath(cfg.out_dir)]) == lake:
        raise ConfigurationError(f"out_dir {cfg.out_dir!r} is the lake {cfg.lake_dir!r} or a directory in it")
    # records and group states are acyclic: the collector would only rescan
    # them. They are freed inside the pause; left alive, they would be
    # scanned once the collector resumes.
    with engine.gc_paused():
        records = store.read_lake(cfg.lake_dir)
        ds = engine.PartitionedDataset.from_records(records, 1)
        del records
        cube = analytics.rollup(ds)
        del ds
    tables = {qid: _QUERY_FNS[qid](cube) for qid in ids or analytics.QUERY_IDS}
    out_dir = cfg.out_dir
    exts = (cfg.format, "svg") if charts else (cfg.format,)
    staged: list[tuple[str, str]] = []  # (temporary path, final path), in write order

    def temporary(name: str) -> str:
        tmp = os.path.join(out_dir, f".{name}.tmp-{os.getpid()}")
        staged.append((tmp, os.path.join(out_dir, name)))
        return tmp

    os.makedirs(out_dir, exist_ok=True)
    try:
        for qid, table in tables.items():
            report.emit_table(table, cfg.format, temporary(f"{qid}.{cfg.format}"))
            if charts:
                report.emit_bar_chart(report.CHARTS[qid], table, temporary(f"{qid}.svg"))
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            if os.path.lexists(tmp):
                os.remove(tmp)
        raise
    for qid, table in tables.items():
        paths = (os.path.join(out_dir, f"{qid}.{ext}") for ext in exts)
        print(f"{qid}: {len(table.rows)} rows -> {', '.join(paths)}")
        for note in table.notes:
            print(f"  note: {note}")
    return 0


def cmd_gen_fixtures(out_dir: str, seed: int, rows: int) -> int:
    from reviewlake import fixtures  # the generator is not loaded by the other commands

    truth = fixtures.generate(out_dir, seed=seed, rows_per_source=rows)
    for source in sorted(truth["per_source"]):
        t = truth["per_source"][source]
        print(f"{source}: {t['rows']} rows, {t['accepted']} clean -> {t['file']}")
    print(f"ground truth -> {os.path.join(out_dir, 'ground_truth.json')}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--lake", dest="lake_dir", help="lake directory (overrides config)")
    shared.add_argument("--out", dest="out_dir", help="output directory (overrides config)")
    shared.add_argument("--threads", type=int, help="ingest worker count; query and report accept and ignore it")
    tables = argparse.ArgumentParser(add_help=False)
    tables.add_argument("--format", choices=report.TABLE_FORMATS, help="table format")
    tables.add_argument("--partitions", type=int, help="query and report accept and ignore it, as they do --threads")

    p = argparse.ArgumentParser(prog="reviewlake", description="review ETL and analytics")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[shared], help="parse, clean, and stage all configured sources")
    q = sub.add_parser("query", parents=[shared, tables], help="run analytic views over the lake")
    q.add_argument("ids", nargs="*", metavar="query", help=f"one of {', '.join(analytics.QUERY_IDS)} (default: all)")
    sub.add_parser("report", parents=[shared, tables], help="emit all tables plus charts")
    g = sub.add_parser("gen-fixtures", help="write synthetic source files with ground truth")
    g.add_argument("--out", dest="out_dir", default=RunConfig().out_dir, help="output directory")
    g.add_argument("--seed", type=int, default=1, help="fixture generator seed")
    g.add_argument("--rows", type=int, default=1000, help="rows per source")
    return p


#: C0, DEL, C1 and the two Unicode line separators, as repr spells them:
#: a path holding one must not split the one ``error:`` line.
_UNPRINTABLE = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-fixtures":
            return cmd_gen_fixtures(_path(args.out_dir, "out_dir"), args.seed, args.rows)
        cfg = resolve_config(args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "query":
            return cmd_query(cfg, args.ids)
        return cmd_query(cfg, [], charts=True)  # report
    except ConfigurationError as exc:
        message, code = str(exc), 2
    except ReviewLakeError as exc:
        message, code = str(exc), 1
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        message, code = f"{exc.strerror or exc}{where}", 1
    print(f"error: {message.translate(_UNPRINTABLE)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(run())
