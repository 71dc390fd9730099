import json
import re

import bench_path  # noqa: F401  (must precede the benchmark imports)

import gen


def test_dump_is_a_pure_function_of_the_seed(tmp_path):
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    truth_a = gen.make_dump(a, 400, seed=3)
    truth_b = gen.make_dump(b, 400, seed=3)
    truth_c = gen.make_dump(c, 400, seed=4)
    assert a.read_bytes() == b.read_bytes()
    assert truth_a == truth_b
    assert a.read_bytes() != c.read_bytes()


def test_texts_have_a_long_tail_vocabulary_and_tweet_length(tmp_path):
    truth = gen.make_dump(tmp_path / "dump.jsonl", 3000, seed=1)
    # aspectsent.synth texts use 54 distinct tokens and about 6.5 per tweet
    assert truth["distinct_tokens"] > 10_000
    assert 15 <= truth["tokens_per_tweet"] <= 30
    texts = [json.loads(line)["text"] for line in open(tmp_path / "dump.jsonl", encoding="utf-8")]
    assert max(len(t) for t in texts) <= 400
    assert sum("https://t.co/" in t for t in texts) > 0.2 * len(texts)
    assert sum("@" in t for t in texts) > 0.2 * len(texts)


def test_dump_filters_drop_a_real_share(tmp_path):
    truth = gen.make_dump(tmp_path / "dump.jsonl", 3000, seed=2)
    assert 0.3 * truth["records"] < truth["eligible"] < 0.7 * truth["records"]
    assert truth["expected_kept"] == sum(truth["expected_per_day"].values())
    assert abs(truth["expected_kept"] - gen.SAMPLE_RATE * truth["eligible"]) < 40


def test_non_keyword_texts_never_contain_a_keyword_token():
    texts = gen.TweetTexts(seed=5)
    tokens = set()
    for _ in range(2000):
        text, labels, overall = texts.draw(keyword=False)
        assert labels == {} and overall is None
        tokens.update(re.findall(r"[^\W_]+", text.lower()))
    assert not tokens & set(gen.KEYWORDS)


def test_labelled_texts_carry_their_signal_words():
    texts = gen.TweetTexts(seed=6)
    for _ in range(500):
        text, labels, _ = texts.draw(keyword=True)
        words = set(text.lower().split())
        for aspect in labels:
            assert len(words & set(gen.ASPECT_TOKENS[aspect])) >= 2


def test_annotations_resolve_as_counted():
    _, rows = gen.make_labelled(300, seed=7, id_prefix="t")
    annotations, counts = gen.make_annotations(rows, seed=8)
    assert counts["accepted"] + counts["discarded"] == 300
    assert counts["discarded"] > 0
    per_tweet = {}
    for a in annotations:
        per_tweet.setdefault(a["tweet_id"], []).append(a)
    assert all(len(v) in (2, 3) for v in per_tweet.values())
