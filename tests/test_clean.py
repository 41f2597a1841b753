"""Text cleaning, sentiment mapping, upvotes, and the full clean step."""

import random
import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlake import clean
from reviewlake.clean import (
    CleanRejection,
    clean_review,
    default_stoplist,
    load_stoplist,
    map_sentiment,
    parse_upvotes,
    remove_stopwords,
    strip_non_alpha,
    trim_outer,
)
from reviewlake.errors import ConfigurationError
from reviewlake.ingest import default_mapping
from reviewlake.model import RejectRecord, UnifiedDraft


def full_clean(s, stops):
    return remove_stopwords(strip_non_alpha(s), stops)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_trim_outer_strips_whitespace_and_quotes():
    assert trim_outer('  "hello there"  ') == "hello there"
    assert trim_outer('""') == ""
    assert trim_outer("\t\nx\r ") == "x"
    assert trim_outer('say "hi" now') == 'say "hi" now'


def test_strip_non_alpha_collapses_runs():
    assert strip_non_alpha("ab3cd -- ef!") == "ab cd ef"
    assert strip_non_alpha("123 456") == ""
    assert strip_non_alpha("café bar") == "caf bar"
    assert strip_non_alpha("") == ""


def test_remove_stopwords_case_insensitive_match_keeps_casing():
    stops = default_stoplist()
    assert remove_stopwords("The Fox AND THE Dog", stops) == "Fox Dog"
    assert remove_stopwords("the and of", stops) == ""
    assert remove_stopwords("", stops) == ""


# any code point, lone surrogates included, with ASCII letters and runs of
# non-letters made common
_ANY_CHAR = st.one_of(st.characters(exclude_categories=()), st.sampled_from("aZq 9-!é"))


@settings(max_examples=500, deadline=None)
@given(st.text(_ANY_CHAR, max_size=200))
def test_strip_non_alpha_matches_its_definition(s):
    assert strip_non_alpha(s) == re.sub(r"[^A-Za-z]+", " ", s).strip()


def _any_casing(word):
    return st.tuples(*[st.sampled_from((c, c.upper())) for c in word]).map("".join)


_STOPWORD = st.sampled_from(sorted(default_stoplist().words)).flatmap(_any_casing)
_TOKEN = st.one_of(
    _STOPWORD,
    st.text(string.ascii_letters, min_size=1, max_size=10),
    st.text(st.characters(exclude_characters=" ", exclude_categories=()), min_size=1, max_size=4),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_TOKEN, max_size=30))
def test_remove_stopwords_keeps_exactly_the_non_stopwords(tokens):
    stops = default_stoplist()
    kept = [t for t in tokens if t.lower() not in stops.words]
    assert remove_stopwords(" ".join(tokens), stops) == " ".join(kept)


def _stoplist(*words):
    return clean.Stoplist(frozenset(words), "0" * 64)


def test_every_character_that_lowers_to_a_letter_is_a_spelling():
    stops = _stoplist(*string.ascii_lowercase)
    assert stops.unexpanded == frozenset()
    for start in range(0, sys.maxunicode + 1, 1 << 16):  # every code point, a plane at a time
        chars = [chr(c) for c in range(start, start + (1 << 16)) if c != 0x20]
        kept = [c for c in chars if c.lower() not in stops.words]
        got = remove_stopwords(" ".join(chars), stops).split(" ")
        same = got == kept  # compared apart from the assert: a diff of a plane is slow to print
        assert same, [f"U+{ord(c):04X}" for c in set(got) ^ set(kept)]
    assert remove_stopwords("\u212a \u0130", stops) == "\u0130"  # KELVIN SIGN; I WITH DOT lowers to two


def test_bundled_stoplist_expands_whole():
    stops = default_stoplist()
    assert stops.unexpanded == frozenset()
    assert len(stops.spellings) == 5624
    assert {t.lower() for t in stops.spellings} == stops.words


_KICK = "kick"  # k has three spellings: k, K and U+212A KELVIN SIGN
_LONG = "bookkeepersknack"  # 2**16 * 1.5**4 spellings, over the budget
_CUSTOM = _stoplist(_KICK, _LONG, "a")


def _any_spelling(word):
    return st.tuples(*[st.sampled_from(clean._CASES[c]) for c in word]).map("".join)


_CUSTOM_TOKEN = st.one_of(
    _any_spelling(_KICK),
    _any_spelling(_LONG),
    _any_spelling("a"),
    st.text(st.sampled_from("kKaA\u212a\u0130ci"), min_size=1, max_size=5),
    st.text(st.characters(exclude_characters=" ", exclude_categories=()), min_size=1, max_size=4),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_CUSTOM_TOKEN, max_size=30))
def test_custom_stoplist_removes_exactly_the_stopwords(tokens):
    assert _CUSTOM.unexpanded == frozenset({_LONG})
    assert len(_CUSTOM.spellings) == 36 + 2
    kept = [t for t in tokens if t.lower() not in _CUSTOM.words]
    assert remove_stopwords(" ".join(tokens), _CUSTOM) == " ".join(kept)


def test_cleaned_text_alphabet():
    stops = default_stoplist()
    out = full_clean('Wow!! "Great" product 10/10, very nice...', stops)
    assert out == "Wow Great product nice"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_clean_is_idempotent_and_alphabet_bound(s):
    stops = default_stoplist()
    once = full_clean(s, stops)
    assert full_clean(once, stops) == once
    assert set(once) <= set(string.ascii_letters + " ")
    assert "  " not in once
    assert once == once.strip()


def test_clean_idempotence_randomized_bytes():
    # adversarial raw strings: control chars, unicode, quotes, digits
    rng = random.Random(99)
    pool = string.printable + "éü中﻿\x00"
    stops = default_stoplist()
    for _ in range(2000):
        s = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 80)))
        once = full_clean(s, stops)
        assert full_clean(once, stops) == once


# ---------------------------------------------------------------------------
# sentiment
# ---------------------------------------------------------------------------


def test_binary_labels():
    for raw, want in (("negative", 0), ("false", 0), ("0", 0), ("positive", 1), ("true", 1), ("1", 1)):
        assert map_sentiment(raw, "binary_label") == want


def test_five_class_labels():
    assert map_sentiment("very negative", "five_class_label") == 0
    assert map_sentiment("negative", "five_class_label") == 0
    assert map_sentiment("positive", "five_class_label") == 1
    assert map_sentiment("very positive", "five_class_label") == 1


def test_five_class_neutral_drops():
    with pytest.raises(CleanRejection) as ei:
        map_sentiment("neutral", "five_class_label")
    assert ei.value.reason == "neutral_dropped"


def test_star_ratings():
    assert map_sentiment("1", "star_rating") == 0
    assert map_sentiment("2", "star_rating") == 0
    assert map_sentiment("4", "star_rating") == 1
    assert map_sentiment("5", "star_rating") == 1
    with pytest.raises(CleanRejection) as ei:
        map_sentiment("3", "star_rating")
    assert ei.value.reason == "neutral_dropped"


def test_unknown_labels_reject():
    for raw, scheme in (("6", "star_rating"), ("meh", "five_class_label"), ("maybe", "binary_label")):
        with pytest.raises(CleanRejection) as ei:
            map_sentiment(raw, scheme)
        assert ei.value.reason == "bad_label"


# ---------------------------------------------------------------------------
# upvotes
# ---------------------------------------------------------------------------


def test_upvotes_paths():
    assert parse_upvotes("0") == 0
    assert parse_upvotes("42") == 42
    assert parse_upvotes("") == 0
    for bad in ("-1", "many", "3.5", "1e3", " 7"):
        with pytest.raises(CleanRejection) as ei:
            parse_upvotes(bad)
        assert ei.value.reason == "bad_upvotes"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_upvote_digit_cap_ignores_the_interpreter_limit(limit):
    # 0 turns int()'s digit limit off, 640 is the lowest it can be set to
    assert clean.UPVOTE_MAX == sys.float_info.max and len(str(clean.UPVOTE_MAX)) == 309
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert parse_upvotes(str(clean.UPVOTE_MAX)) == clean.UPVOTE_MAX
        assert parse_upvotes("9" * 308) == 10**308 - 1
        # the value is judged, not the spelling: leading zeros do not count
        assert parse_upvotes("007") == 7
        assert parse_upvotes("0" * 309 + "1") == 1
        assert parse_upvotes("0" * 5000) == 0
        assert parse_upvotes("0" * 400 + str(clean.UPVOTE_MAX)) == clean.UPVOTE_MAX
        over_max = str(clean.UPVOTE_MAX + 1)
        for over in (over_max, "0" * 400 + over_max, "9" * 309, "1" + "0" * 309, "9" * 641):
            with pytest.raises(CleanRejection) as ei:
                parse_upvotes(over)
            assert ei.value.reason == "bad_upvotes"
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# stoplist loading
# ---------------------------------------------------------------------------


def test_default_stoplist_shape():
    stops = default_stoplist()
    assert len(stops.words) == 127
    assert "the" in stops.words and "now" in stops.words
    assert len(stops.checksum) == 64


def test_load_stoplist_rejects_bad_entries(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("# ok\nthe\nBad\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_stoplist(str(p))
    p.write_text("the\nwith space\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_stoplist(str(p))


# ---------------------------------------------------------------------------
# the full clean step
# ---------------------------------------------------------------------------


def _draft(name="Thing", date="2020-05-04", sentiment="positive", upvotes="3",
           text="Great fun product", source="yelp", row=7):
    return UnifiedDraft(name, date, sentiment, upvotes, text, source, row)


def _clean(draft, mapping_source="yelp"):
    return clean_review(draft, default_stoplist(), default_mapping(mapping_source))


def test_clean_review_happy_path():
    r = _clean(_draft(name='  "Cafe Nine"  ', text='  "Great spot, very cozy!!"  '))
    assert r.name == "Cafe Nine"
    assert r.creation_date.isoformat() == "2020-05-04"
    assert r.sentiment == 1
    assert r.upvotes == 3
    assert r.review_text == "Great spot cozy"
    assert r.source == "yelp"


def test_clean_review_rejections_carry_reason_and_row():
    cases = [
        (_draft(name="   "), "null_field"),
        (_draft(text=" "), "null_field"),
        (_draft(date="2020-02-30"), "bad_date"),
        (_draft(date="1969-12-31"), "date_out_of_range"),
        (_draft(sentiment="meh"), "bad_label"),
        (_draft(sentiment="neutral"), "neutral_dropped"),
        (_draft(upvotes="-2"), "bad_upvotes"),
        (_draft(text="the and of 123"), "empty_after_clean"),
    ]
    for draft, reason in cases:
        out = _clean(draft)
        assert out.__class__ is RejectRecord, (draft, out)
        assert out.reason == reason
        assert out.row_number == 7
        assert out.source == "yelp"


def test_clean_review_rejection_order_null_before_date():
    out = _clean(_draft(name="", date="garbage"))
    assert out.reason == "null_field"


def test_clean_review_rejection_order_date_before_label():
    out = _clean(_draft(date="garbage", sentiment="meh"))
    assert out.reason == "bad_date"


def test_clean_review_rejection_order_label_before_upvotes():
    out = _clean(_draft(sentiment="meh", upvotes="-1"))
    assert out.reason == "bad_label"


def test_clean_review_trims_before_date_parse():
    r = _clean(_draft(date=' "2020-05-04" '))
    assert r.creation_date.isoformat() == "2020-05-04"


def test_clean_review_uses_mapping_formats():
    out = _clean(_draft(date="05/04/2020"))  # yelp accepts iso forms only
    assert out.__class__ is RejectRecord and out.reason == "bad_date"
    r = clean_review(
        _draft(date="05/04/2020", sentiment="4", source="amazon"),
        default_stoplist(),
        default_mapping("amazon"),
    )
    assert r.creation_date.isoformat() == "2020-05-04"
