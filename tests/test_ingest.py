import json
import re
import tracemalloc
from datetime import date

import pytest
from hypothesis import given, strategies as st

from aspectsent import ingest
from aspectsent.hashing import FNV64_OFFSET, FNV64_PRIME
from aspectsent.ingest import (
    CorpusFileError,
    FilterSpec,
    KeywordSet,
    ParseError,
    SchemaError,
    apply_filters,
    matches_keywords,
    parse_record,
    sample_daily,
)

from conftest import corpus_line, make_tweet


def merge_shards(shards):
    """Shard outputs merged in the canonical (created_at, id) order."""
    return sorted((t for shard in shards for t in shard), key=lambda t: (t.created_at, t.id))


class TestParseRecord:
    def test_minimal_record(self):
        t = parse_record(corpus_line(tweet_id="1", when="2020-03-01T00:00:00Z", text="x"))
        assert t.id == "1"
        assert t.day == date(2020, 3, 1)
        assert t.text == "x"
        assert t.lang == "en"
        assert t.user_id == "u1"
        assert t.user_name == "alice"
        assert t.group_tags == frozenset()
        assert t.bot_flag is None

    def test_missing_text_names_field(self):
        obj = json.loads(corpus_line())
        del obj["text"]
        with pytest.raises(SchemaError) as exc:
            parse_record(json.dumps(obj))
        assert exc.value.field == "text"

    def test_bot_flag_passthrough(self):
        t = parse_record(corpus_line(bot_flag=True))
        assert t.bot_flag is True

    def test_group_tags_passthrough(self):
        t = parse_record(corpus_line(group_tags=["us_media", "dem_senate"]))
        assert t.group_tags == frozenset({"us_media", "dem_senate"})

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_record('{"id": "1", "created_at}')
        assert exc.value.byte_offset >= 0
        assert "byte offset" in str(exc.value)

    def test_deep_nesting_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_record("[" * 200_000 + "]" * 200_000)

    def test_non_utc_timestamp_normalized(self):
        t = parse_record(corpus_line(when="2020-03-01T01:30:00+02:00"))
        # 01:30+02:00 is 23:30 UTC the previous day
        assert t.day == date(2020, 2, 29)

    def test_bad_timestamp_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_record(corpus_line(when="not-a-date"))

    def test_missing_user_subfield(self):
        line = json.dumps({
            "id": "1", "created_at": "2020-03-01T00:00:00Z", "text": "x",
            "lang": "en", "user": {"id": "u"},
        })
        with pytest.raises(SchemaError) as exc:
            parse_record(line)
        assert "user.screen_name" in str(exc.value)

    def test_file_reader_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(corpus_line() + "\n{broken\n", encoding="utf-8")
        with pytest.raises(CorpusFileError) as exc:
            list(ingest.iter_corpus(path))
        assert ":2:" in str(exc.value)


class TestKeywords:
    def test_exact_token_match(self):
        assert matches_keywords("Wuhan lockdown begins", KeywordSet(frozenset({"wuhan"})))

    def test_no_substring_match(self):
        assert not matches_keywords("visiting chinatown today", KeywordSet(frozenset({"china"})))

    def test_hashtag_stripped(self):
        assert matches_keywords("#China is trending", KeywordSet(frozenset({"china"})))

    def test_keywords_that_are_not_one_token_never_match(self):
        ks = KeywordSet(frozenset({"covid-19", "#china"}))
        assert not matches_keywords("covid-19 #china", ks)
        assert matches_keywords("covid-19 in china", KeywordSet(frozenset({"covid-19", "china"})))

    def test_non_ascii_tokens(self):
        ks = KeywordSet(frozenset({"中国", "straße"}))
        assert matches_keywords("#中国 news", ks)
        assert matches_keywords("STRASSE closed, Straße open", ks)
        assert not matches_keywords("中国人 news", ks)  # one longer token

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError):
            KeywordSet(frozenset())
        with pytest.raises(ValueError):
            KeywordSet(frozenset({"  "}))

    def test_loader(self, tmp_path):
        path = tmp_path / "kw.txt"
        path.write_text("china\nWUHAN\n\n", encoding="utf-8")
        ks = ingest.load_keywords(path)
        assert ks.keywords == frozenset({"china", "wuhan"})


def token_set_rule(text, keywords):
    """The keyword rule as first written: split into tokens, test set membership."""
    return any(tok in keywords.keywords for tok in re.findall(r"[^\W_]+", text.lower()))


_WORDS = ["china", "China", "chinatown", "wuhan", "covid", "19", "covid-19", "#china",
          "中国", "中国人", "café", "ÇA", "straße", "x_y", "_", "İstanbul", "ǅ", "١٢", "²"]
# ASCII and Unicode whitespace (NBSP, em space, the \x1c separator) and non-space joiners
_SEPS = [" ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "#", "-", "_", ".", "", "\u200b"]


@given(
    words=st.lists(st.sampled_from(_WORDS) | st.text(max_size=6), max_size=8),
    seps=st.lists(st.sampled_from(_SEPS), max_size=8),
    keywords=st.sets(st.sampled_from(_WORDS) | st.text(min_size=1, max_size=4)
                     .filter(lambda k: k.strip()), min_size=1, max_size=4),
)
def test_matches_keywords_equals_token_set_rule(words, seps, keywords):
    text = "".join(w + s for w, s in zip(words, seps + [" "] * len(words)))
    ks = KeywordSet(frozenset(keywords))
    assert matches_keywords(text, ks) == token_set_rule(text, ks)


def _same_day_tweets(n, day="2020-03-01"):
    return [make_tweet(tweet_id=f"t{i}", when=f"{day}T0{i % 10}:00:00Z") for i in range(n)]


class TestSampleDaily:
    def test_rate_one_is_identity(self):
        tweets = _same_day_tweets(7)
        assert sample_daily(tweets, 1.0, seed=3) == tweets

    def test_rate_zero_is_empty(self):
        assert sample_daily(_same_day_tweets(5), 0.0, seed=3) == []

    def test_seeded_selection_matches_independent_oracle(self):
        # Re-derive the selection with a from-scratch FNV-1a ranking.
        tweets = _same_day_tweets(10)
        got = sample_daily(tweets, 0.4, seed=7)
        assert len(got) == 4

        def fnv(seed, payload):
            h = FNV64_OFFSET
            for b in (seed & (2**64 - 1)).to_bytes(8, "little") + payload.encode():
                h = ((h ^ b) * FNV64_PRIME) & (2**64 - 1)
            return h

        keys = sorted(
            (fnv(7, f"sample|2020-03-01|{t.id}"), t.id) for t in tweets
        )
        expected_ids = {tid for _, tid in keys[:4]}
        assert {t.id for t in got} == expected_ids
        # stable across reruns
        again = sample_daily(tweets, 0.4, seed=7)
        assert [t.id for t in again] == [t.id for t in got]

    def test_rounding_rule(self):
        # floor(rate*n + 0.5): 3 tweets at 0.5 -> 2; 1 tweet at 0.4 -> 0
        assert len(sample_daily(_same_day_tweets(3), 0.5, seed=0)) == 2
        assert len(sample_daily(_same_day_tweets(1), 0.4, seed=0)) == 0
        assert len(sample_daily(_same_day_tweets(1), 0.6, seed=0)) == 1

    def test_output_preserves_input_order(self):
        tweets = _same_day_tweets(10)
        got = sample_daily(tweets, 0.5, seed=11)
        positions = [tweets.index(t) for t in got]
        assert positions == sorted(positions)

    def test_per_day_independence(self):
        # the same ids on different days may be selected differently,
        # but each day keeps exactly floor(rate*n + 0.5)
        tweets = _same_day_tweets(10, day="2020-03-01") + _same_day_tweets(10, day="2020-03-02")
        # fix duplicate ids across days
        tweets = [
            make_tweet(tweet_id=f"d{i//10}_{i%10}", when=t.created_at.isoformat())
            for i, t in enumerate(tweets)
        ]
        got = sample_daily(tweets, 0.4, seed=5)
        by_day = {}
        for t in got:
            by_day.setdefault(t.day, []).append(t)
        assert {len(v) for v in by_day.values()} == {4}


    def test_duplicate_ids_across_days_keep_each_day_quota(self):
        # the same ten ids on two days: a sampled id on one day must not drag
        # its twin on the other day into the output
        tweets = _same_day_tweets(10, day="2020-03-01") + _same_day_tweets(10, day="2020-03-02")
        for seed in range(6):
            per_day = {}
            for t in sample_daily(tweets, 0.4, seed):
                per_day[t.day] = per_day.get(t.day, 0) + 1
            assert per_day == {date(2020, 3, 1): 4, date(2020, 3, 2): 4}

    def test_duplicate_ids_within_a_day_are_deterministic(self):
        tweets = [make_tweet(tweet_id=f"t{i % 3}", when=f"2020-03-01T0{i}:00:00Z")
                  for i in range(10)]
        first = sample_daily(tweets, 0.5, seed=2)
        assert len(first) == 5
        for _ in range(3):
            again = sample_daily(list(tweets), 0.5, seed=2)
            assert [tweets.index(t) for t in again] == [tweets.index(t) for t in first]

    def test_survivor_entries_sample_like_tweets(self):
        tweets = _same_day_tweets(10, day="2020-03-01") + _same_day_tweets(7, day="2020-03-02")
        entries = [ingest.Survivor(i, t.day, t.id) for i, t in enumerate(tweets)]
        got = sample_daily(entries, 0.4, seed=13)
        assert [e.record for e in got] == [tweets.index(t) for t in sample_daily(tweets, 0.4, 13)]


def _spec(rate=1.0, seed=0, accounts=None, lang="en"):
    return FilterSpec(
        lang=lang,
        keywords=KeywordSet(frozenset({"china", "wuhan"})),
        date_start=date(2020, 1, 22),
        date_end=date(2020, 5, 21),
        accounts=accounts,
        sample_rate=rate,
        seed=seed,
    )


class TestApplyFilters:
    def test_empty_input(self):
        assert apply_filters([], _spec()) == []

    def test_single_match(self):
        t = make_tweet(text="china news")
        tweets = [t]
        assert [tweets[s.record] for s in apply_filters(tweets, _spec())] == [t]

    def test_language_stage_by_enumeration(self):
        tweets = [
            make_tweet(tweet_id="1", lang="en"),
            make_tweet(tweet_id="2", lang="es"),
            make_tweet(tweet_id="3", lang="en"),
            make_tweet(tweet_id="4", lang="fr"),
            make_tweet(tweet_id="5", lang="en"),
            make_tweet(tweet_id="6", lang="de"),
        ]
        got = apply_filters(tweets, _spec())
        assert [t.id for t in got] == ["1", "3", "5"]

    def test_date_bounds_inclusive(self):
        inside_start = make_tweet(tweet_id="a", when="2020-01-22T00:00:00Z")
        inside_end = make_tweet(tweet_id="b", when="2020-05-21T23:59:59Z")
        outside = make_tweet(tweet_id="c", when="2020-05-22T00:00:00Z")
        got = apply_filters([inside_start, inside_end, outside], _spec())
        assert [t.id for t in got] == ["a", "b"]

    def test_account_filter(self):
        t1 = make_tweet(tweet_id="1", user_name="NYTimes")
        t2 = make_tweet(tweet_id="2", user_name="someone")
        got = apply_filters([t1, t2], _spec(accounts=frozenset({"nytimes"})))
        assert [t.id for t in got] == ["1"]

    def test_idempotent_at_rate_one(self):
        tweets = [make_tweet(tweet_id=str(i), lang=("en" if i % 2 else "es")) for i in range(8)]
        once = [tweets[s.record] for s in apply_filters(tweets, _spec())]
        twice = [once[s.record] for s in apply_filters(once, _spec())]
        assert once == twice

    def test_every_survivor_satisfies_predicates(self):
        spec = _spec(rate=0.6, seed=9)
        tweets = [
            make_tweet(tweet_id=str(i), lang=("en" if i % 3 else "es"),
                       text=("china talk" if i % 2 else "offtopic"))
            for i in range(40)
        ]
        for t in (tweets[s.record] for s in apply_filters(tweets, spec)):
            assert ingest.lang_matches(t.lang, spec.lang)
            assert spec.date_start <= t.day <= spec.date_end
            assert matches_keywords(t.text, spec.keywords)

    def test_shard_merge_is_deterministic(self):
        tweets = [
            make_tweet(tweet_id=f"t{i:02d}", when=f"2020-03-{(i % 5) + 1:02d}T0{i % 10}:00:00Z")
            for i in range(20)
        ]
        canonical = merge_shards([tweets])
        spec = _spec(rate=0.5, seed=4)
        whole = [canonical[s.record] for s in apply_filters(canonical, spec)]
        shard_a = [t for i, t in enumerate(tweets) if i % 2 == 0]
        shard_b = [t for i, t in enumerate(tweets) if i % 2 == 1]
        sharded = merge_shards([[shard[s.record] for s in apply_filters(shard, spec)]
                                for shard in (shard_a, shard_b)])
        assert merge_shards([whole]) == sharded

    def test_memory_per_survivor(self, tmp_path):
        # Holding each survivor as a RawTweet grows the peak by about 740 B a
        # survivor here; its `Survivor` entry and the sampling take about 235.
        spec = _spec(rate=0.4)

        def peak(n):
            path = tmp_path / f"corpus{n}.jsonl"
            path.write_text("".join(
                corpus_line(tweet_id=f"{1220000000000000000 + i}",
                            when=f"2020-02-{1 + i % 28:02d}T10:00:00Z",
                            text=f"china lockdown policy update number {i}",
                            user_name=f"user_{i % 97}") + "\n"
                for i in range(n)), encoding="utf-8")
            counts = {}
            tracemalloc.start()
            try:
                apply_filters(ingest.iter_corpus(path), spec, counts=counts)
                assert counts["kept"] + counts["sampled_out"] == n  # every record survives
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 2000
        peak(n)  # warm lazy imports and caches
        assert (peak(4 * n) - peak(n)) / (3 * n) <= 320


@given(
    rate=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_sample_daily_is_pure_and_sized(rate, n, seed):
    tweets = _same_day_tweets(n)
    first = sample_daily(tweets, rate, seed)
    second = sample_daily(tweets, rate, seed)
    assert [t.id for t in first] == [t.id for t in second]
    if n:
        import math

        assert len(first) == math.floor(rate * n + 0.5)


def test_filterspec_validation():
    with pytest.raises(ValueError):
        FilterSpec(
            lang="en",
            keywords=KeywordSet(frozenset({"x"})),
            date_start=date(2020, 2, 1),
            date_end=date(2020, 1, 1),
        )
    with pytest.raises(ValueError):
        _spec(rate=1.5)
    for seed in (-1, 2**64):  # the sampling hash would fold either onto another seed
        with pytest.raises(ValueError):
            _spec(seed=seed)
    assert _spec(seed=2**64 - 1).seed == 2**64 - 1


def test_write_then_reread_roundtrip(tmp_path):
    tweets = [
        make_tweet(tweet_id="1", group_tags=("us_media",), bot_flag=False),
        make_tweet(tweet_id="2"),
    ]
    path = tmp_path / "out.jsonl"
    ingest.write_corpus(path, tweets)
    again = ingest.read_corpus(path)
    assert again == tweets


def test_unicode_text_survives_roundtrip_and_matching(tmp_path):
    text = "ça va? 中国 news \U0001F637 china"
    t = parse_record(corpus_line(text=text))
    assert t.text == text
    assert matches_keywords(t.text, KeywordSet(frozenset({"china"})))
    assert matches_keywords(t.text, KeywordSet(frozenset({"中国"})))
    path = tmp_path / "out.jsonl"
    ingest.write_corpus(path, [t])
    assert ingest.read_corpus(path)[0].text == text
