"""Partitioned in-memory datasets with exact, order-independent group-bys.

Records live in N round-robin partitions. Transformations are pure and
element-wise. An aggregation is its key columns and its metrics, as in a
``groupBy(*cols)``: a record's group key is read from those columns, so
a table's header always says what its rows hold. It takes two steps in
the calling process: it walks the partitions in order and appends each
record to its group's list, then, group by group in ascending key order,
computes each metric over the group's values. A metric depends only on
which values a group holds, never on their order, so results are
byte-identical for any partition count:

* ``count`` is the group's size
* all-int values use the builtin sum, min, max and sort; a sum stays an int
  and a mean is one correctly rounded int/int division
* once a float is present, sums, means and the even-count median midpoint
  are exact through :class:`fractions.Fraction`, rounded to float once
* the median sorts under a canonical key (ints before equal floats), so the
  middle element does not depend on record order
* min and max keep an int over a numerically equal float
* NaN and infinities are refused (they would poison ordering), -0.0 is
  normalized to 0.0, and bool is not a number here
* a sum, mean or median whose value lies outside the float range raises
  :class:`QueryTypeError` naming the group, never ``inf`` or a bare
  ``OverflowError``

Every :class:`QueryTypeError` names the metric and the lowest failing group
in key order, so an error does not depend on the partition count either.
A query makes two aggregations in all: the analytics module builds its two
roll-up tables here and derives the six views from them.

Records are read by attribute, as the NamedTuples the analytics module
folds. Only record values come from outside, so only they are checked
here. The key columns and metrics are the analytics module's own, and the
partition count is the caller's: ``query`` and ``report`` fold one.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from math import isfinite
from operator import attrgetter
from typing import NamedTuple

from reviewlake.errors import QueryTypeError
from reviewlake.model import AggTable


class Metric(NamedTuple):
    """One aggregate to compute: ``Metric("count")`` or ``Metric("mean", "upvotes")``."""

    kind: str
    field: str | None = None


@contextmanager
def gc_paused():
    """Suspend cyclic garbage collection while a bulk of records is built.

    Records and group states are acyclic, so reference counting frees them
    all the same; the collections that a million new records trigger only
    rescan them. Pauses nest: the previous state is restored on exit.
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

    __slots__ = ("partitions",)

    def __init__(self, partitions):
        self.partitions = tuple(partitions)

    @classmethod
    def from_records(cls, records, partition_count: int) -> "PartitionedDataset":
        """Distribute a list of records round-robin: partition p gets indices p, p+N, p+2N, ..."""
        return cls(records[i::partition_count] for i in range(partition_count))

    def map(self, f) -> "PartitionedDataset":
        """Element-wise image under a pure total function; structure preserved."""
        return PartitionedDataset([f(r) for r in part] for part in self.partitions)


# ---------------------------------------------------------------------------
# implementation
# ---------------------------------------------------------------------------


def _metric_label(m: Metric) -> str:
    return "count" if m.kind == "count" else f"{m.kind}_{m.field}"


def _median_key(v):
    # ints sort before numerically equal floats: deterministic middle element
    return (v, 0 if v.__class__ is int else 1)


def _max_key(v):
    # the int of a tie sorts last, so max keeps it
    return (v, 1 if v.__class__ is int else 0)


def _median(xs: list, ints: bool):
    xs = sorted(xs) if ints else sorted(xs, key=_median_key)
    h = len(xs) // 2
    if len(xs) % 2:
        return xs[h]
    if ints:
        return (xs[h - 1] + xs[h]) / 2  # int/int division is correctly rounded
    # exact midpoint: a + b of two large floats would be inf
    return float((Fraction(xs[h - 1]) + Fraction(xs[h])) / 2)


# kind -> (group values, whether all are ints) -> value
_COMBINE = {
    "sum": lambda xs, ints: sum(xs) if ints else float(sum(map(Fraction, xs))),
    "min": lambda xs, ints: min(xs) if ints else min(xs, key=_median_key),
    "max": lambda xs, ints: max(xs) if ints else max(xs, key=_max_key),
    "mean": lambda xs, ints: sum(xs) / len(xs) if ints else float(sum(map(Fraction, xs)) / len(xs)),
    "median": _median,
}


def _numbers(recs: list, get, field: str, key) -> tuple[list, bool]:
    """A group's values of ``field`` and whether they are all ints.

    -0.0 becomes 0.0. A value that is not a finite int or float is refused;
    of several, the error names the least by repr, so it does not depend on
    the order of the group's records.
    """
    try:
        xs = list(map(get, recs))
    except AttributeError as exc:
        raise QueryTypeError(f"metric field {field!r} of group {key!r} is unreadable: {exc!r}") from None
    if set(map(type, xs)) == {int}:
        return xs, True
    bad = [v for v in xs if not (v.__class__ is int or v.__class__ is float and isfinite(v))]
    if bad:
        least = min(f"{v!r} ({type(v).__name__})" for v in bad)
        raise QueryTypeError(f"metric field {field!r} of group {key!r} is not a finite number: {least}")
    return [v if v.__class__ is int else v + 0.0 for v in xs], False  # -0.0 + 0.0 is 0.0


def _field_reducer(m: Metric):
    combine, field, label = _COMBINE[m.kind], m.field, _metric_label(m)
    get = attrgetter(field)

    def reduce(key, recs: list):
        xs, ints = _numbers(recs, get, field, key)
        try:
            return combine(xs, ints)
        except OverflowError:
            raise QueryTypeError(f"{label} of group {key!r} is outside the float range") from None

    return reduce


def _reducers(metrics) -> list:
    """One ``(group key, group records) -> value`` function per metric."""
    return [(lambda key, recs: len(recs)) if m.kind == "count" else _field_reducer(m) for m in metrics]


def group_aggregate(ds: PartitionedDataset, key_columns: tuple[str, ...], metrics) -> AggTable:
    """Group records by their ``key_columns`` and compute each metric exactly.

    The table's columns are the key columns, then one label per metric
    (``count``, ``sum_upvotes``, ...). Rows are sorted ascending by group key.
    """
    reducers = _reducers(metrics)
    keyf = attrgetter(*key_columns)  # one column gives a bare value, several a tuple
    groups = defaultdict(list)
    for part in ds.partitions:
        for rec in part:
            groups[keyf(rec)].append(rec)
    keys = sorted(groups)
    # group by group, metric by metric: the first error is the lowest failing group's
    values = [reduce(key, groups[key]) for key in keys for reduce in reducers]
    per_row = zip(*[iter(values)] * len(reducers))  # consecutive runs of one row's values
    leads = [(key,) for key in keys] if len(key_columns) == 1 else keys
    rows = [lead + row for lead, row in zip(leads, per_row)]
    return AggTable(tuple(key_columns) + tuple(map(_metric_label, metrics)), rows)
