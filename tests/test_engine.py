"""Partitioned dataset and aggregation engine tests.

The load-bearing idea: every aggregate the engine produces must match the
brute-force oracle bit for bit, for any grouping, any metric mix, and
any partition count. Randomized sweeps here stay small; the acceptance
suite runs the thousand-dataset version.
"""

import collections
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_aggregate
from reviewlake.engine import Metric, PartitionedDataset, group_aggregate
from reviewlake.errors import QueryTypeError

Rec = collections.namedtuple("Rec", "k v w")
KV = collections.namedtuple("KV", "k v")
K = collections.namedtuple("K", "k")  # a record without the metric field


def _key_k(r):
    return r.k


def assert_rows_identical(got, want):
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert g == w, (g, w)
        for gv, wv in zip(g, w):
            assert gv.__class__ is wv.__class__, (g, w)


# ---------------------------------------------------------------------------
# partitioning mechanics
# ---------------------------------------------------------------------------


def test_round_robin_layout_and_inverse():
    ds = PartitionedDataset.from_records(list(range(10)), 3)
    assert list(ds.partitions) == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]


def test_more_partitions_than_records():
    ds = PartitionedDataset.from_records([1, 2], 5)
    assert list(ds.partitions) == [[1], [2], [], [], []]


def test_map_preserves_layout():
    ds = PartitionedDataset.from_records(list(range(7)), 2).map(lambda x: x * 10)
    assert list(ds.partitions) == [[0, 20, 40, 60], [10, 30, 50]]


# ---------------------------------------------------------------------------
# aggregation exactness
# ---------------------------------------------------------------------------


def test_count_groups():
    ds = PartitionedDataset.from_records([K("a"), K("b"), K("a")], 2)
    t = group_aggregate(ds, ("k",), [Metric("count")])
    assert t.columns == ("k", "count")
    assert_rows_identical(t.rows, [("a", 2), ("b", 1)])


def test_all_metrics_small_case():
    recs = [Rec("a", 1, 2.5), Rec("a", 4, 0.5), Rec("b", 7, 1.0)]
    ds = PartitionedDataset.from_records(recs, 2)
    metrics = [Metric("count"), Metric("sum", "v"), Metric("mean", "w"), Metric("median", "v"),
               Metric("min", "w"), Metric("max", "v")]
    t = group_aggregate(ds, ("k",), metrics)
    assert t.columns == ("k", "count", "sum_v", "mean_w", "median_v", "min_w", "max_v")
    assert_rows_identical(t.rows, [("a", 2, 5, 1.5, 2.5, 0.5, 4), ("b", 1, 7, 1.0, 7, 1.0, 7)])


def test_int_sum_stays_exact_past_float_precision():
    big = 2**60 + 1
    ds = PartitionedDataset.from_records([KV(0, big), KV(0, big)], 2)
    t = group_aggregate(ds, ("k",), [Metric("sum", "v")])
    assert t.rows == [(0, 2 * big)]
    assert t.rows[0][1].__class__ is int


def test_float_sum_uses_exact_accumulation():
    # 0.1 added ten times in float drifts; exact accumulation must not
    vals = [0.1] * 10
    ds = PartitionedDataset.from_records([KV(0, v) for v in vals], 3)
    t = group_aggregate(ds, ("k",), [Metric("sum", "v")])
    from fractions import Fraction

    assert t.rows[0][1] == float(sum(Fraction(v) for v in vals))


def test_mean_of_ints_is_float():
    ds = PartitionedDataset.from_records([KV(0, 1), KV(0, 2)], 1)
    t = group_aggregate(ds, ("k",), [Metric("mean", "v")])
    assert t.rows == [(0, 1.5)]


def test_median_odd_keeps_int_class():
    ds = PartitionedDataset.from_records([KV(0, 3), KV(0, 1), KV(0, 2)], 2)
    t = group_aggregate(ds, ("k",), [Metric("median", "v")])
    assert t.rows == [(0, 2)]
    assert t.rows[0][1].__class__ is int


def test_median_even_averages_middle_pair():
    ds = PartitionedDataset.from_records([KV(0, v) for v in (4, 1, 3, 2)], 3)
    t = group_aggregate(ds, ("k",), [Metric("median", "v")])
    assert t.rows == [(0, 2.5)]


def test_median_tie_between_int_and_float_is_order_independent():
    rows = []
    for perm in ([2, 2.0, 1], [2.0, 2, 1], [1, 2.0, 2]):
        for parts in (1, 2, 3):
            ds = PartitionedDataset.from_records([KV(0, v) for v in perm], parts)
            t = group_aggregate(ds, ("k",), [Metric("median", "v")])
            rows.append((t.rows[0][1], t.rows[0][1].__class__))
    assert len(set(rows)) == 1


def test_min_max_tie_prefers_int():
    ds = PartitionedDataset.from_records([KV(0, 2.0), KV(0, 2)], 2)
    t = group_aggregate(ds, ("k",), [Metric("min", "v"), Metric("max", "v")])
    assert t.rows[0][1].__class__ is int
    assert t.rows[0][2].__class__ is int


def test_negative_zero_normalizes():
    ds = PartitionedDataset.from_records([KV(0, -0.0)], 1)
    t = group_aggregate(ds, ("k",), [Metric("min", "v"), Metric("sum", "v")])
    assert math.copysign(1.0, t.rows[0][1]) == 1.0
    assert math.copysign(1.0, t.rows[0][2]) == 1.0


def test_bool_is_not_numeric():
    ds = PartitionedDataset.from_records([KV(0, True)], 1)
    with pytest.raises(QueryTypeError):
        group_aggregate(ds, ("k",), [Metric("sum", "v")])


def test_inf_rejected():
    ds = PartitionedDataset.from_records([KV(0, math.inf)], 1)
    with pytest.raises(QueryTypeError):
        group_aggregate(ds, ("k",), [Metric("mean", "v")])


def test_missing_field_is_a_query_type_error():
    ds = PartitionedDataset.from_records([K(0)], 1)
    with pytest.raises(QueryTypeError):
        group_aggregate(ds, ("k",), [Metric("sum", "v")])


def test_scalar_key_and_tuple_key():
    ds = PartitionedDataset.from_records([Rec("a", 1, 1.0), Rec("a", 2, 2.0)], 1)
    t1 = group_aggregate(ds, ("k",), [Metric("count")])
    assert t1.rows == [("a", 2)]
    t2 = group_aggregate(ds, ("k", "v"), [Metric("count")])
    assert t2.columns == ("k", "v", "count")
    assert t2.rows == [("a", 1, 1), ("a", 2, 1)]


def test_empty_dataset_yields_empty_table():
    t = group_aggregate(PartitionedDataset.from_records([], 4), ("k",), [Metric("count")])
    assert t.rows == []


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

_METRIC_KINDS = ("count", "sum", "mean", "median", "min", "max")


def random_dataset(rng):
    """A small dataset plus a random spec, exercising every code path."""
    n = rng.randrange(0, 60)
    recs = []
    for _ in range(n):
        k = rng.choice("abcd")
        v = _random_number(rng)
        w = _random_number(rng)
        recs.append(Rec(k, v, w))
    metrics = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(_METRIC_KINDS)
        metrics.append(Metric(kind) if kind == "count" else Metric(kind, rng.choice("vw")))
    parts = rng.randrange(1, 10)
    return recs, metrics, parts


def _random_number(rng):
    r = rng.random()
    if r < 0.45:
        return rng.randrange(-10**ranked(rng), 10**ranked(rng))
    if r < 0.5:
        return -0.0 if rng.random() < 0.3 else 0.0
    if r < 0.55:
        return float(rng.randrange(-5, 6))
    return rng.uniform(-1000, 1000) * 10 ** rng.randrange(-3, 4)


def ranked(rng):
    return rng.choice((1, 3, 9, 19))


def test_oracle_equivalence_randomized_sweep():
    rng = random.Random(20260822)
    for case in range(150):
        recs, metrics, parts = random_dataset(rng)
        ds = PartitionedDataset.from_records(recs, parts)
        got = group_aggregate(ds, ("k",), metrics)
        want = oracle_aggregate(recs, _key_k, [(m.kind, m.field) for m in metrics])
        assert_rows_identical(got.rows, want)


def test_partition_and_worker_invariance():
    rng = random.Random(7)
    recs, metrics, _ = random_dataset(rng)
    while not recs:
        recs, metrics, _ = random_dataset(rng)
    baseline = group_aggregate(PartitionedDataset.from_records(recs, 1), ("k",), metrics)
    for parts in (2, 3, 7, 16):
        t = group_aggregate(PartitionedDataset.from_records(recs, parts), ("k",), metrics)
        assert_rows_identical(t.rows, baseline.rows)


_MISSING = object()


@pytest.mark.parametrize(
    "bad, why",
    [
        (math.nan, "is not a finite number: nan (float)"),
        (-math.inf, "is not a finite number: -inf (float)"),
        (True, "is not a finite number: True (bool)"),
        ("x", "is not a finite number: 'x' (str)"),
        (_MISSING, """is unreadable: AttributeError("'K' object has no attribute 'v'")"""),
    ],
    ids=["nan", "inf", "bool", "str", "missing"],
)
def test_error_names_the_field_and_lowest_failing_group_for_any_partition_count(bad, why):
    # group 2's bad records come first in insertion order, but group 1 fails
    # first; group 1 also holds a NaN, which each expected message outranks
    recs = [KV(i % 3, float(i)) for i in range(60)]
    recs[2] = recs[47] = K(2) if bad is _MISSING else KV(2, bad)
    recs[31] = K(1) if bad is _MISSING else KV(1, bad)
    recs[4] = KV(1, math.nan)
    for parts in (1, 2, 5, 16):
        with pytest.raises(QueryTypeError) as ei:
            group_aggregate(PartitionedDataset.from_records(recs, parts), ("k",), [Metric("count"), Metric("sum", "v")])
        assert str(ei.value) == f"metric field 'v' of group 1 {why}", parts


_HUGE_PAIR = [("a", 8.988465674311579e307), ("a", 8.98846567431158e307)]  # sum > float max


@settings(max_examples=60, deadline=None)
@example(_HUGE_PAIR, 1, "sum")
@example(_HUGE_PAIR, 2, "median")
@given(
    st.lists(
        st.tuples(
            st.sampled_from("ab"),
            st.one_of(
                st.integers(min_value=-(10**20), max_value=10**20),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
            ),
        ),
        max_size=40,
    ),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(_METRIC_KINDS),
)
def test_oracle_equivalence_property(pairs, parts, kind):
    # both sides return identical rows, or both refuse a result outside the float range
    recs = [KV(k, v) for k, v in pairs]
    metric = Metric(kind) if kind == "count" else Metric(kind, "v")
    try:
        want = oracle_aggregate(recs, _key_k, [(metric.kind, metric.field)])
    except QueryTypeError:
        with pytest.raises(QueryTypeError):
            group_aggregate(PartitionedDataset.from_records(recs, parts), ("k",), [metric])
        return
    got = group_aggregate(PartitionedDataset.from_records(recs, parts), ("k",), [metric])
    assert_rows_identical(got.rows, want)


def test_oracle_median_of_large_floats_is_finite():
    # the midpoint of two finite floats is finite; (a + b) / 2 made it inf
    (lo, hi) = (v for _, v in _HUGE_PAIR)
    [(_, mid)] = oracle_aggregate([KV(k, v) for k, v in _HUGE_PAIR], _key_k, [("median", "v")])
    assert math.isfinite(mid) and lo <= mid <= hi


@pytest.mark.parametrize(
    "values, kind",
    [
        ([v for _, v in _HUGE_PAIR], "sum"),
        ([10**400, 3], "mean"),
        ([10**400, 3], "median"),
    ],
)
def test_result_outside_float_range_names_the_group(values, kind):
    recs = [KV("a", v) for v in values]
    with pytest.raises(QueryTypeError, match=f"{kind}_v of group 'a' is outside the float range"):
        group_aggregate(PartitionedDataset.from_records(recs, 2), ("k",), [Metric(kind, "v")])
