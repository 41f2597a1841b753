"""Date normalization and the weekday view.

The weekday anchors below were verified by hand against known events and
printed calendars. Production code takes every calendar fact from
datetime.date, so the anchors are checked through the weekday view as well
as against datetime directly.
"""

import datetime
import sys

import pytest

from reviewlake import analytics
from reviewlake.clean import CleanRejection, normalize_date
from reviewlake.engine import PartitionedDataset
from reviewlake.model import UnifiedReview

# (iso date, ISO weekday 1=Monday..7=Sunday), verified by hand
WEEKDAY_ANCHORS = [
    ("1970-01-01", 4),
    ("1970-01-04", 7),
    ("1972-02-29", 2),
    ("1980-05-18", 7),
    ("1989-11-09", 4),
    ("1995-07-14", 5),
    ("1999-12-31", 5),
    ("2000-01-01", 6),
    ("2000-02-28", 1),
    ("2000-02-29", 2),
    ("2000-03-01", 3),
    ("2001-09-11", 2),
    ("2012-12-21", 5),
    ("2016-11-08", 2),
    ("2020-01-01", 3),
    ("2022-12-25", 7),
    ("2024-02-29", 4),
    ("2024-12-31", 2),
    ("2028-02-29", 2),
    ("2029-12-31", 1),
]


DAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


def weekday_view_row(iso):
    """The per_weekday row of a dataset holding one review dated ``iso``."""
    rec = UnifiedReview("N", datetime.date.fromisoformat(iso), 1, 0, "Tt", "steam")
    (row,) = analytics.reviews_per_weekday(analytics.rollup(PartitionedDataset.from_records([rec], 1))).rows
    return row


def test_weekday_anchors_by_hand_and_against_datetime():
    assert len(WEEKDAY_ANCHORS) == 20
    for iso, want in WEEKDAY_ANCHORS:
        assert weekday_view_row(iso) == (want, DAY_NAMES[want - 1], "steam", 1), iso
        assert datetime.date.fromisoformat(iso).isoweekday() == want, f"anchor table wrong at {iso}"


# ---------------------------------------------------------------------------
# normalize_date
# ---------------------------------------------------------------------------


def _reason(raw, formats):
    with pytest.raises(CleanRejection) as ei:
        normalize_date(raw, formats)
    return ei.value.reason


def test_iso_accepts_and_rejects():
    assert normalize_date("2020-01-31", ("iso",)).isoformat() == "2020-01-31"
    assert _reason("2020-1-31", ("iso",)) == "bad_date"  # not zero padded
    assert _reason("20200131", ("iso",)) == "bad_date"
    assert _reason("2020-02-30", ("iso",)) == "bad_date"
    # month lengths and leap days inside the window
    assert normalize_date("2024-02-29", ("iso",)).isoformat() == "2024-02-29"
    assert _reason("2023-02-29", ("iso",)) == "bad_date"
    assert normalize_date("2021-04-30", ("iso",)).isoformat() == "2021-04-30"
    assert _reason("2021-04-31", ("iso",)) == "bad_date"
    assert normalize_date("2021-12-31", ("iso",)).isoformat() == "2021-12-31"
    assert _reason("2020-06-00", ("iso",)) == "bad_date"
    assert _reason("2020-00-05", ("iso",)) == "bad_date"


def test_iso_datetime_shape_and_impossible_time():
    assert normalize_date("2020-06-05 23:59:59", ("iso_datetime",)).isoformat() == "2020-06-05"
    assert _reason("2020-06-05 24:00:00", ("iso_datetime",)) == "bad_date"
    assert _reason("2020-06-05 10:60:00", ("iso_datetime",)) == "bad_date"
    assert _reason("2020-06-05T10:00:00", ("iso_datetime",)) == "bad_date"


def test_us_slash_strict_two_digit():
    assert normalize_date("02/29/2020", ("us_slash",)).isoformat() == "2020-02-29"
    assert _reason("02/29/2021", ("us_slash",)) == "bad_date"
    assert _reason("2/09/2020", ("us_slash",)) == "bad_date"
    assert _reason("13/01/2020", ("us_slash",)) == "bad_date"  # month 13 never valid


def test_long_month_names():
    assert normalize_date("July 4, 2019", ("long_month",)).isoformat() == "2019-07-04"
    assert normalize_date("december 25, 2020", ("long_month",)).isoformat() == "2020-12-25"
    assert normalize_date("March 03, 2021", ("long_month",)).isoformat() == "2021-03-03"
    assert _reason("Jul 4, 2019", ("long_month",)) == "bad_date"  # abbreviations not a format
    assert _reason("July 4 2019", ("long_month",)) == "bad_date"
    assert _reason("February 30, 2019", ("long_month",)) == "bad_date"


def test_epoch_seconds():
    assert normalize_date("0", ("epoch_seconds",)).isoformat() == "1970-01-01"
    assert normalize_date("-0", ("epoch_seconds",)).isoformat() == "1970-01-01"
    assert normalize_date("86399", ("epoch_seconds",)).isoformat() == "1970-01-01"
    assert normalize_date("86400", ("epoch_seconds",)).isoformat() == "1970-01-02"
    assert normalize_date("1600000000", ("epoch_seconds",)).isoformat() == "2020-09-13"
    assert normalize_date("951782399", ("epoch_seconds",)).isoformat() == "2000-02-28"
    assert normalize_date("951782400", ("epoch_seconds",)).isoformat() == "2000-02-29"  # 2000 is a leap year
    assert normalize_date("951868800", ("epoch_seconds",)).isoformat() == "2000-03-01"
    assert normalize_date("1893455999", ("epoch_seconds",)).isoformat() == "2029-12-31"
    assert normalize_date("0" * 30 + "1600000000", ("epoch_seconds",)).isoformat() == "2020-09-13"
    assert _reason("1893456000", ("epoch_seconds",)) == "date_out_of_range"
    assert _reason("-1", ("epoch_seconds",)) == "date_out_of_range"
    assert _reason("4102444800", ("epoch_seconds",)) == "date_out_of_range"  # year 2100
    assert _reason("12.5", ("epoch_seconds",)) == "bad_date"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_huge_epoch_cannot_overflow():
    old = sys.get_int_max_str_digits()
    try:
        for limit in (0, 640, 4300):  # 0 turns int()'s digit limit off, 640 is the lowest it can be set to
            sys.set_int_max_str_digits(limit)
            for huge in ("9" * 30, "9" * 641, "9" * 5000, "-" + "9" * 5000):
                assert _reason(huge, ("epoch_seconds",)) == "date_out_of_range", (limit, len(huge))
            # leading zeros keep their meaning, however many there are
            assert normalize_date("0" * 5000 + "86400", ("epoch_seconds",)).isoformat() == "1970-01-02"
    finally:
        sys.set_int_max_str_digits(old)


def test_window_boundaries():
    assert normalize_date("1970-01-01", ("iso",)).isoformat() == "1970-01-01"
    assert normalize_date("2029-12-31", ("iso",)).isoformat() == "2029-12-31"
    assert _reason("1969-12-31", ("iso",)) == "date_out_of_range"
    assert _reason("2030-01-01", ("iso",)) == "date_out_of_range"


@pytest.mark.parametrize(
    "raw, formats, reason",
    [
        ("1969-02-30", ("iso",), "bad_date"),  # impossible and before the window
        ("2030-02-30", ("iso",), "bad_date"),  # impossible and after it
        ("1970-01-00", ("iso",), "bad_date"),
        ("2029-12-32", ("iso",), "bad_date"),
        ("2020-13-01", ("iso",), "bad_date"),
        ("9999-13-01", ("iso",), "bad_date"),
        ("02/30/1969", ("us_slash",), "bad_date"),
        ("February 29, 2031", ("long_month",), "bad_date"),
        ("0000-01-01", ("iso",), "date_out_of_range"),  # a real day no datetime.date can hold
        ("9999-12-31", ("iso",), "date_out_of_range"),
        ("February 29, 1968", ("long_month",), "date_out_of_range"),
        ("1900-02-29", ("iso",), "bad_date"),  # 1900 is not a leap year
        ("1900-02-28", ("iso",), "date_out_of_range"),
        ("2100-02-29", ("iso",), "bad_date"),
        ("0000-02-29", ("iso",), "date_out_of_range"),  # year 0 is a leap year
        ("0001-02-29", ("iso",), "bad_date"),
    ],
)
def test_reason_outside_the_window(raw, formats, reason):
    assert _reason(raw, formats) == reason


def test_first_lexical_match_wins():
    # eight decimal digits are a legal epoch, so format order decides
    assert normalize_date("20200101", ("epoch_seconds", "iso")).isoformat() == "1970-08-22"
    assert normalize_date("2020-01-01", ("epoch_seconds", "iso")).isoformat() == "2020-01-01"


def test_lexical_match_is_final_no_fall_through():
    # shaped like iso with an impossible day; the epoch format never gets a look
    assert _reason("2020-02-30", ("iso", "epoch_seconds")) == "bad_date"


def test_no_format_matches():
    assert _reason("yesterday", ("iso", "us_slash", "long_month")) == "bad_date"
    assert _reason("", ("iso",)) == "bad_date"


@pytest.mark.parametrize(
    "raw, formats",
    [
        ("١٦٠٠٠٠٠٠٠٠", ("epoch_seconds",)),  # Arabic-Indic digits
        ("٢٠٢٠-٠١-٠٢", ("iso",)),
        ("July ４, ２０１９", ("long_month",)),  # fullwidth digits
    ],
)
def test_dates_take_ascii_digits_only(raw, formats):
    assert _reason(raw, formats) == "bad_date"
