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
from reviewlake.engine import AggSpec, Metric, from_records, group_aggregate
from reviewlake.errors import ConfigurationError, QueryTypeError

Rec = collections.namedtuple("Rec", "k v w")


def _key_k(r):
    return r["k"] if isinstance(r, dict) else r.k


def _spec(metrics, key_columns=("k",)):
    return AggSpec("t", key_columns, _key_k, metrics)


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
    ds = from_records(list(range(10)), 3)
    assert list(ds.partitions) == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]
    assert ds.to_list() == list(range(10))
    assert len(ds) == 10


def test_more_partitions_than_records():
    ds = from_records([1, 2], 5)
    assert ds.partition_count == 5
    assert ds.to_list() == [1, 2]
    assert [len(p) for p in ds.partitions] == [1, 1, 0, 0, 0]


def test_partition_count_validation():
    for bad in (0, -1, "3", 2.0, True):
        with pytest.raises(ConfigurationError):
            from_records([1], bad)


def test_map_preserves_layout():
    ds = from_records(list(range(7)), 2).map(lambda x: x * 10)
    assert ds.to_list() == [0, 10, 20, 30, 40, 50, 60]
    assert ds.partition_count == 2


# ---------------------------------------------------------------------------
# aggregation exactness
# ---------------------------------------------------------------------------


def test_count_groups():
    ds = from_records([{"k": "a"}, {"k": "b"}, {"k": "a"}], 2)
    t = group_aggregate(ds, _spec([Metric("count")]))
    assert t.columns == ("k", "count")
    assert_rows_identical(t.rows, [("a", 2), ("b", 1)])


def test_all_metrics_small_case():
    recs = [Rec("a", 1, 2.5), Rec("a", 4, 0.5), Rec("b", 7, 1.0)]
    ds = from_records(recs, 2)
    spec = AggSpec(
        "t",
        ("k",),
        lambda r: r.k,
        [Metric("count"), Metric("sum", "v"), Metric("mean", "w"), Metric("median", "v"),
         Metric("min", "w"), Metric("max", "v")],
    )
    t = group_aggregate(ds, spec)
    assert t.columns == ("k", "count", "sum_v", "mean_w", "median_v", "min_w", "max_v")
    assert_rows_identical(t.rows, [("a", 2, 5, 1.5, 2.5, 0.5, 4), ("b", 1, 7, 1.0, 7, 1.0, 7)])


def test_int_sum_stays_exact_past_float_precision():
    big = 2**60 + 1
    ds = from_records([{"k": 0, "v": big}, {"k": 0, "v": big}], 2)
    t = group_aggregate(ds, _spec([Metric("sum", "v")]))
    assert t.rows == [(0, 2 * big)]
    assert t.rows[0][1].__class__ is int


def test_float_sum_uses_exact_accumulation():
    # 0.1 added ten times in float drifts; exact accumulation must not
    vals = [0.1] * 10
    ds = from_records([{"k": 0, "v": v} for v in vals], 3)
    t = group_aggregate(ds, _spec([Metric("sum", "v")]))
    from fractions import Fraction

    assert t.rows[0][1] == float(sum(Fraction(v) for v in vals))


def test_mean_of_ints_is_float():
    ds = from_records([{"k": 0, "v": 1}, {"k": 0, "v": 2}], 1)
    t = group_aggregate(ds, _spec([Metric("mean", "v")]))
    assert t.rows == [(0, 1.5)]


def test_median_odd_keeps_int_class():
    ds = from_records([{"k": 0, "v": 3}, {"k": 0, "v": 1}, {"k": 0, "v": 2}], 2)
    t = group_aggregate(ds, _spec([Metric("median", "v")]))
    assert t.rows == [(0, 2)]
    assert t.rows[0][1].__class__ is int


def test_median_even_averages_middle_pair():
    ds = from_records([{"k": 0, "v": v} for v in (4, 1, 3, 2)], 3)
    t = group_aggregate(ds, _spec([Metric("median", "v")]))
    assert t.rows == [(0, 2.5)]


def test_median_tie_between_int_and_float_is_order_independent():
    rows = []
    for perm in ([2, 2.0, 1], [2.0, 2, 1], [1, 2.0, 2]):
        for parts in (1, 2, 3):
            ds = from_records([{"k": 0, "v": v} for v in perm], parts)
            t = group_aggregate(ds, _spec([Metric("median", "v")]))
            rows.append((t.rows[0][1], t.rows[0][1].__class__))
    assert len(set(rows)) == 1


def test_min_max_tie_prefers_int():
    ds = from_records([{"k": 0, "v": 2.0}, {"k": 0, "v": 2}], 2)
    t = group_aggregate(ds, _spec([Metric("min", "v"), Metric("max", "v")]))
    assert t.rows[0][1].__class__ is int
    assert t.rows[0][2].__class__ is int


def test_negative_zero_normalizes():
    ds = from_records([{"k": 0, "v": -0.0}], 1)
    t = group_aggregate(ds, _spec([Metric("min", "v"), Metric("sum", "v")]))
    assert math.copysign(1.0, t.rows[0][1]) == 1.0
    assert math.copysign(1.0, t.rows[0][2]) == 1.0


def test_bool_is_not_numeric():
    ds = from_records([{"k": 0, "v": True}], 1)
    with pytest.raises(QueryTypeError):
        group_aggregate(ds, _spec([Metric("sum", "v")]))


def test_nan_rejected_with_partition_and_position():
    recs = [{"k": 0, "v": 1.0}] * 5 + [{"k": 0, "v": math.nan}] + [{"k": 0, "v": 2.0}]
    ds = from_records(recs, 2)  # nan is record 5 -> partition 1, position 2
    with pytest.raises(QueryTypeError) as ei:
        group_aggregate(ds, _spec([Metric("sum", "v")]))
    assert ei.value.partition == 1
    assert ei.value.position == 2


def test_inf_rejected():
    ds = from_records([{"k": 0, "v": math.inf}], 1)
    with pytest.raises(QueryTypeError):
        group_aggregate(ds, _spec([Metric("mean", "v")]))


def test_missing_field_is_a_query_type_error():
    ds = from_records([{"k": 0}], 1)
    with pytest.raises(QueryTypeError):
        group_aggregate(ds, _spec([Metric("sum", "v")]))


def test_scalar_key_and_tuple_key():
    ds = from_records([Rec("a", 1, 1.0), Rec("a", 2, 2.0)], 1)
    t1 = group_aggregate(ds, AggSpec("t", ("k",), lambda r: r.k, [Metric("count")]))
    assert t1.rows == [("a", 2)]
    t2 = group_aggregate(ds, AggSpec("t", ("k", "v"), lambda r: (r.k, r.v), [Metric("count")]))
    assert t2.rows == [("a", 1, 1), ("a", 2, 1)]


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        group_aggregate(from_records([], 1), _spec([]))
    with pytest.raises(ConfigurationError):
        group_aggregate(from_records([], 1), _spec([Metric("count", "v")]))
    with pytest.raises(ConfigurationError):
        group_aggregate(from_records([], 1), _spec([Metric("sum")]))
    with pytest.raises(ConfigurationError):
        group_aggregate(from_records([], 1), _spec([Metric("variance", "v")]))


def test_empty_dataset_yields_empty_table():
    t = group_aggregate(from_records([], 4), _spec([Metric("count")]))
    assert t.rows == []


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

_METRIC_KINDS = ("count", "sum", "mean", "median", "min", "max")


def random_dataset(rng):
    """A small dataset plus a random spec, exercising every code path."""
    n = rng.randrange(0, 60)
    use_nt = rng.random() < 0.5
    recs = []
    for _ in range(n):
        k = rng.choice("abcd")
        v = _random_number(rng)
        w = _random_number(rng)
        recs.append(Rec(k, v, w) if use_nt else {"k": k, "v": v, "w": w})
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
        ds = from_records(recs, parts)
        spec = _spec(metrics)
        got = group_aggregate(ds, spec)
        want = oracle_aggregate(recs, _key_k, [(m.kind, m.field) for m in metrics])
        assert_rows_identical(got.rows, want)


def test_partition_and_worker_invariance():
    rng = random.Random(7)
    recs, metrics, _ = random_dataset(rng)
    while not recs:
        recs, metrics, _ = random_dataset(rng)
    spec = _spec(metrics)
    baseline = group_aggregate(from_records(recs, 1), spec)
    for parts in (2, 3, 7, 16):
        t = group_aggregate(from_records(recs, parts), spec)
        assert_rows_identical(t.rows, baseline.rows)


@pytest.mark.parametrize("lowest", [1, 2, 3])
def test_error_of_lowest_failing_partition_for_any_worker_count(lowest):
    # The fold runs inline on one worker; the parameter is the lowest failing
    # partition. Five partitions, two failing: the fold stops at `lowest`
    # even though the other bad record comes first in insertion order.
    recs = [{"k": i % 3, "v": float(i)} for i in range(60)]
    recs[5 + lowest + 1] = {"k": 1, "v": "x"}  # partition lowest+1, position 1
    recs[20 + lowest] = {"k": 1, "v": math.nan}  # partition lowest, position 4
    with pytest.raises(QueryTypeError) as ei:
        group_aggregate(from_records(recs, 5), _spec([Metric("sum", "v")]))
    assert str(ei.value) == "metric field 'v' is non-finite (nan)"
    assert (ei.value.partition, ei.value.position) == (lowest, 4)


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
    recs = [{"k": k, "v": v} for k, v in pairs]
    metric = Metric(kind) if kind == "count" else Metric(kind, "v")
    try:
        want = oracle_aggregate(recs, _key_k, [(metric.kind, metric.field)])
    except QueryTypeError:
        with pytest.raises(QueryTypeError):
            group_aggregate(from_records(recs, parts), _spec([metric]))
        return
    got = group_aggregate(from_records(recs, parts), _spec([metric]))
    assert_rows_identical(got.rows, want)


def test_oracle_median_of_large_floats_is_finite():
    # the midpoint of two finite floats is finite; (a + b) / 2 made it inf
    (lo, hi) = (v for _, v in _HUGE_PAIR)
    [(_, mid)] = oracle_aggregate([{"k": k, "v": v} for k, v in _HUGE_PAIR], _key_k, [("median", "v")])
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
    recs = [{"k": "a", "v": v} for v in values]
    with pytest.raises(QueryTypeError, match=f"{kind}_v of group 'a' is outside the float range"):
        group_aggregate(from_records(recs, 2), _spec([Metric(kind, "v")]))
