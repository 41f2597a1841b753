"""Partitioned in-memory datasets with exact, scheduling-independent queries.

Records live in N round-robin partitions. Transformations are pure and
element-wise; aggregation folds each partition separately and merges the
partials single-threaded, so results are byte-identical for any partition
count. Exactness rules that make the merge truly order-independent:

* integer sums stay integers; float contributions accumulate as
  :class:`fractions.Fraction`, which is associative, and collapse to a
  correctly rounded float only at finalization
* mean is sum/count at finalization, never a merged running average
* median gathers the group's values and sorts them under a canonical key
  (ints before equal floats), so the middle element does not depend on
  which partition contributed it; an even count takes the exact midpoint
  of the middle pair, correctly rounded
* a sum, mean or median whose float value lies outside the float range
  raises :class:`QueryTypeError` naming the group, never ``inf`` or a bare
  ``OverflowError``
* NaN and infinities are refused (they would poison ordering), -0.0 is
  normalized to 0.0, and bool is not a number here

Every aggregation folds its partitions in the calling process, in
partition order, so an error is always the lowest failing partition's. A
fan-out of forked folds per view measured slower than this fold on 20k rows.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from fractions import Fraction
from math import isfinite
from operator import attrgetter, itemgetter
from typing import Any, Callable, NamedTuple

from reviewlake.errors import ConfigurationError, QueryTypeError
from reviewlake.model import AggTable

METRIC_KINDS = ("count", "sum", "min", "max", "mean", "median")


class Metric(NamedTuple):
    """One aggregate to compute: ``Metric("count")`` or ``Metric("mean", "upvotes")``."""

    kind: str
    field: str | None = None


class AggSpec(NamedTuple):
    """A group-by query: key columns, a key function, and the metrics per group.

    ``key_extractor`` should return a tuple matching ``key_columns``; a bare
    scalar is accepted for single-column keys.
    """

    name: str
    key_columns: tuple[str, ...]
    key_extractor: Callable[[Any], Any]
    metrics: tuple[Metric, ...]


@contextmanager
def gc_paused():
    """Suspend cyclic garbage collection while a bulk of records is built.

    Records are acyclic, so reference counting frees them all the same; the
    full collections that a million new records trigger only rescan them.
    The previous state is restored on exit.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class PartitionedDataset:
    """Records split round-robin into a fixed number of partitions."""

    __slots__ = ("partitions", "partition_count", "total_len")

    def __init__(self, partitions):
        partitions = tuple(partitions)
        if not partitions:
            raise ConfigurationError("a dataset needs at least one partition")
        self.partitions = partitions
        self.partition_count = len(partitions)
        self.total_len = sum(len(p) for p in partitions)

    @classmethod
    def from_records(cls, records, partition_count: int) -> "PartitionedDataset":
        """Distribute records round-robin: partition p gets indices p, p+N, p+2N, ..."""
        if partition_count.__class__ is not int or partition_count < 1:
            raise ConfigurationError(
                f"partition_count must be a positive integer, got {partition_count!r}"
            )
        records = list(records)
        return cls(records[i::partition_count] for i in range(partition_count))

    def __len__(self) -> int:
        return self.total_len

    def __repr__(self) -> str:
        return f"PartitionedDataset({self.partition_count} partitions, {self.total_len} records)"

    def map(self, f) -> "PartitionedDataset":
        """Element-wise image under a pure total function; structure preserved."""
        with gc_paused():
            return PartitionedDataset([f(r) for r in part] for part in self.partitions)

    def to_list(self) -> list:
        """Insertion order, undone round-robin: row j of partition p was index j*N+p."""
        parts = self.partitions
        if len(parts) == 1:
            return list(parts[0])
        out = []
        append = out.append
        for j in range(max(map(len, parts))):
            for part in parts:
                if j < len(part):
                    append(part[j])
        return out


def from_records(records, partition_count: int) -> PartitionedDataset:
    return PartitionedDataset.from_records(records, partition_count)


# ---------------------------------------------------------------------------
# implementation
# ---------------------------------------------------------------------------

_K_COUNT, _K_SUM, _K_MIN, _K_MAX, _K_MEAN, _K_MEDIAN = range(6)
_KCODE = {
    "count": _K_COUNT,
    "sum": _K_SUM,
    "min": _K_MIN,
    "max": _K_MAX,
    "mean": _K_MEAN,
    "median": _K_MEDIAN,
}
# slots per metric in a group's flat state list
_WIDTH = {_K_COUNT: 1, _K_SUM: 2, _K_MIN: 1, _K_MAX: 1, _K_MEAN: 3, _K_MEDIAN: 1}

_NOVAL = object()


def _compile_metrics(metrics) -> tuple[tuple[int, str | None, int], ...]:
    compiled = []
    offset = 0
    for m in metrics:
        code = _KCODE.get(m.kind)
        if code is None:
            raise ConfigurationError(f"unknown metric kind {m.kind!r}, expected one of {METRIC_KINDS}")
        if code == _K_COUNT:
            if m.field is not None:
                raise ConfigurationError("count takes no field")
        elif not m.field:
            raise ConfigurationError(f"{m.kind} needs a field name")
        compiled.append((code, m.field, offset))
        offset += _WIDTH[code]
    if not compiled:
        raise ConfigurationError("an aggregation needs at least one metric")
    return tuple(compiled)


def _metric_label(m: Metric) -> str:
    return "count" if m.kind == "count" else f"{m.kind}_{m.field}"


def _fresh_state(compiled) -> list:
    st: list = []
    for code, _field, _off in compiled:
        if code == _K_COUNT:
            st.append(0)
        elif code == _K_SUM:
            st += [0, 0]  # int sum, float sum (int 0 until a float arrives)
        elif code == _K_MEAN:
            st += [0, 0, 0]
        elif code == _K_MEDIAN:
            st.append([])
        else:
            st.append(_NOVAL)
    return st


def _fold_partition(records, keyf, compiled, pindex: int) -> dict:
    """Fold one partition into {group key: flat metric state}."""
    groups: dict = {}
    if not records:
        return groups

    if len(compiled) == 1 and compiled[0][0] == _K_COUNT:
        # pure counting, the common case for the calendar views
        get_count = groups.get
        for rec in records:
            k = keyf(rec)
            st = get_count(k)
            if st is None:
                groups[k] = [1]
            else:
                st[0] += 1
        return groups

    first = records[0]
    runtime = []
    for code, field, off in compiled:
        if field is None:
            get = None
        elif hasattr(first, field):
            get = attrgetter(field)
        else:
            get = itemgetter(field)
        runtime.append((code, get, off, field))

    for pos, rec in enumerate(records):
        key = keyf(rec)
        st = groups.get(key)
        if st is None:
            groups[key] = st = _fresh_state(compiled)
        try:
            for code, get, off, field in runtime:
                if code == _K_COUNT:
                    st[off] += 1
                    continue
                v = get(rec)
                cls = v.__class__
                if cls is int:
                    is_int = True
                elif cls is float:
                    if not isfinite(v):
                        raise QueryTypeError(
                            f"metric field {field!r} is non-finite ({v!r})",
                            partition=pindex,
                            position=pos,
                        )
                    if v == 0.0:
                        v = 0.0  # collapse -0.0 so min/max ties cannot flip sign
                    is_int = False
                else:
                    raise QueryTypeError(
                        f"metric field {field!r} is not a number: {v!r} ({cls.__name__})",
                        partition=pindex,
                        position=pos,
                    )
                if code == _K_SUM:
                    if is_int:
                        st[off] += v
                    else:
                        st[off + 1] = st[off + 1] + Fraction(v)
                elif code == _K_MEAN:
                    st[off] += 1
                    if is_int:
                        st[off + 1] += v
                    else:
                        st[off + 2] = st[off + 2] + Fraction(v)
                elif code == _K_MEDIAN:
                    st[off].append(v)
                elif code == _K_MIN:
                    cur = st[off]
                    if cur is _NOVAL or v < cur or (v == cur and is_int and cur.__class__ is float):
                        st[off] = v
                else:
                    cur = st[off]
                    if cur is _NOVAL or v > cur or (v == cur and is_int and cur.__class__ is float):
                        st[off] = v
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            raise QueryTypeError(
                f"metric field unreadable: {exc}", partition=pindex, position=pos
            ) from exc
    return groups


def _merge_into(target: dict, part: dict, compiled) -> None:
    for key, st in part.items():
        cur = target.get(key)
        if cur is None:
            target[key] = st
            continue
        for code, _field, off in compiled:
            if code == _K_COUNT:
                cur[off] += st[off]
            elif code == _K_SUM:
                cur[off] += st[off]
                cur[off + 1] = cur[off + 1] + st[off + 1]
            elif code == _K_MEAN:
                cur[off] += st[off]
                cur[off + 1] += st[off + 1]
                cur[off + 2] = cur[off + 2] + st[off + 2]
            elif code == _K_MEDIAN:
                cur[off].extend(st[off])
            else:
                v, have = st[off], cur[off]
                if v is _NOVAL:
                    continue
                if have is _NOVAL:
                    cur[off] = v
                    continue
                better = v < have if code == _K_MIN else v > have
                if better or (v == have and v.__class__ is int and have.__class__ is float):
                    cur[off] = v


def _median_key(v):
    # ints sort before numerically equal floats: deterministic middle element
    return (v, 0 if v.__class__ is int else 1)


def _finalize(groups: dict, spec: AggSpec, compiled) -> AggTable:
    rows = []
    for key in sorted(groups):
        st = groups[key]
        vals = []
        for (code, _field, off), metric in zip(compiled, spec.metrics):
            if code == _K_COUNT:
                vals.append(st[off])
                continue
            try:
                if code == _K_SUM:
                    fsum = st[off + 1]
                    vals.append(st[off] if fsum.__class__ is int else float(st[off] + fsum))
                elif code == _K_MEAN:
                    n, isum, fsum = st[off], st[off + 1], st[off + 2]
                    vals.append(isum / n if fsum.__class__ is int else float((isum + fsum) / n))
                elif code == _K_MEDIAN:
                    xs = sorted(st[off], key=_median_key)
                    h = len(xs) // 2
                    if len(xs) % 2:
                        vals.append(xs[h])
                    else:  # exact midpoint: a + b of two large floats would be inf
                        vals.append(float((Fraction(xs[h - 1]) + Fraction(xs[h])) / 2))
                else:
                    vals.append(st[off])
            except OverflowError:
                raise QueryTypeError(
                    f"{_metric_label(metric)} of group {key!r} is outside the float range"
                ) from None
        krow = key if isinstance(key, tuple) else (key,)
        rows.append(krow + tuple(vals))
    columns = tuple(spec.key_columns) + tuple(_metric_label(m) for m in spec.metrics)
    return AggTable(spec.name, columns, rows)


def group_aggregate(ds: PartitionedDataset, spec: AggSpec) -> AggTable:
    """Group records by key and compute the spec's metrics exactly.

    Output rows are sorted ascending by group key.
    """
    compiled = _compile_metrics(spec.metrics)
    keyf = spec.key_extractor
    merged: dict = {}
    for i, part in enumerate(ds.partitions):
        _merge_into(merged, _fold_partition(part, keyf, compiled, i), compiled)
    return _finalize(merged, spec, compiled)
