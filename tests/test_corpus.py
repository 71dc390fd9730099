import csv
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aspectsent import cli, corpus, model
from aspectsent.errors import PipelineError
from aspectsent.corpus import (
    A_USED,
    AdjudicatedExample,
    Annotation,
    Aspect,
    Sentiment,
    adjudicate,
    dataset_stats,
    merge_sentiment,
    labeled_set,
    split,
)

from conftest import init_params, make_tweet

NEG, NEU, POS = Sentiment.NEGATIVE, Sentiment.NEUTRAL, Sentiment.POSITIVE


def ann(annotator, labels=None, overall=None, tweet_id="t1"):
    return Annotation(tweet_id=tweet_id, annotator_id=annotator,
                      labels=labels or {}, overall=overall)


class TestAdjudicate:
    def test_unanimous_phase1(self):
        a1 = ann("a", {Aspect.POLITICS: NEG}, NEG)
        a2 = ann("b", {Aspect.POLITICS: NEG}, NEG)
        got = adjudicate(a1, a2)
        assert got is not None
        assert got.provenance == "phase-1"
        assert got.labels == {Aspect.POLITICS: NEG}
        assert got.overall == NEG

    def test_majority_on_aspect_and_overall(self):
        a1 = ann("a", {Aspect.POLITICS: NEG}, NEG)
        a2 = ann("b", {Aspect.POLITICS: NEU}, NEG)
        a3 = ann("c", {Aspect.POLITICS: NEG}, NEU)
        got = adjudicate(a1, a2, a3)
        assert got is not None
        assert got.provenance == "phase-2"
        assert got.labels == {Aspect.POLITICS: NEG}
        assert got.overall == NEG

    def test_three_distinct_overalls_discarded(self):
        a1 = ann("a", overall=NEG)
        a2 = ann("b", overall=NEU)
        a3 = ann("c", overall=POS)
        assert adjudicate(a1, a2, a3) is None

    def test_majority_absent_overall_is_irrelevant(self):
        a1 = ann("a", overall=None)
        a2 = ann("b", overall=None)
        a3 = ann("c", overall=NEG)
        got = adjudicate(a1, a2, a3)
        assert got is not None and got.overall is None

    def test_aspect_with_three_distinct_sentiments_dropped(self):
        a1 = ann("a", {Aspect.RACISM: NEG}, NEG)
        a2 = ann("b", {Aspect.RACISM: NEU}, NEG)
        a3 = ann("c", {Aspect.RACISM: POS}, NEG)
        got = adjudicate(a1, a2, a3)
        assert got is not None
        assert Aspect.RACISM not in got.labels

    def test_aspect_mentioned_twice_without_sentiment_majority_dropped(self):
        a1 = ann("a", {Aspect.FOREIGN: NEG}, NEG)
        a2 = ann("b", {Aspect.FOREIGN: NEU}, NEG)
        a3 = ann("c", {}, NEG)
        got = adjudicate(a1, a2, a3)
        assert got is not None
        assert got.labels == {}

    def test_missing_third_annotation_is_protocol_error(self):
        a1 = ann("a", {Aspect.POLITICS: NEG}, NEG)
        a2 = ann("b", {Aspect.POLITICS: NEU}, NEG)
        with pytest.raises(PipelineError, match="^tweet t1: annotators disagree and no third "
                                                 "annotation was supplied$"):
            adjudicate(a1, a2)

    def test_duplicate_annotator_rejected(self):
        a1 = ann("a", overall=NEG)
        a2 = ann("a", overall=NEG)
        with pytest.raises(PipelineError,
                           match=re.escape("duplicate annotator_id among ['a', 'a']")):
            adjudicate(a1, a2)

    def test_mixed_tweet_ids_rejected(self):
        with pytest.raises(PipelineError, match="^annotations refer to different tweets$"):
            adjudicate(ann("a", overall=NEG), ann("b", overall=NEG, tweet_id="other"))

    def test_overall_key_banned_inside_labels(self):
        with pytest.raises(PipelineError, match="^Overall must be annotated via the overall "
                                                 "field, not labels$"):
            ann("a", {Aspect.OVERALL: NEG}, NEG)


aspect_strategy = st.sampled_from([a for a in Aspect if a is not Aspect.OVERALL])
sentiment_strategy = st.sampled_from(list(Sentiment))
labels_strategy = st.dictionaries(aspect_strategy, sentiment_strategy, max_size=3)
overall_strategy = st.one_of(st.none(), sentiment_strategy)


@given(
    l1=labels_strategy, l2=labels_strategy, l3=labels_strategy,
    o1=overall_strategy, o2=overall_strategy, o3=overall_strategy,
)
def test_adjudicate_permutation_symmetric(l1, l2, l3, o1, o2, o3):
    anns = [ann("a", l1, o1), ann("b", l2, o2), ann("c", l3, o3)]
    results = []
    for p in itertools.permutations(anns):
        got = adjudicate(*p)
        results.append(None if got is None else (got.labels, got.overall))
    assert all(r == results[0] for r in results)


@given(
    l1=labels_strategy, l2=labels_strategy, l3=labels_strategy,
    o1=overall_strategy, o2=overall_strategy, o3=overall_strategy,
)
def test_every_retained_pair_has_two_votes(l1, l2, l3, o1, o2, o3):
    anns = [ann("a", l1, o1), ann("b", l2, o2), ann("c", l3, o3)]
    got = adjudicate(*anns)
    if got is None:
        return
    for aspect, sentiment in got.labels.items():
        votes = sum(1 for a in anns if a.labels.get(aspect) == sentiment)
        assert votes >= 2
    overall_votes = sum(1 for a in anns if a.overall == got.overall)
    assert overall_votes >= 2


def one_row(example):
    """The `labeled_set` row of one example: (text, aspects, negative)."""
    got = labeled_set([example])
    assert len(got) == 1
    return got.texts[0], got.aspects[0], got.negative[0]


class TestToModelExample:
    """`labeled_set` rows: the model-facing preprocessing of one example."""

    def _example(self, labels, overall):
        return AdjudicatedExample(
            tweet_id="t1", labels=labels, overall=overall,
            provenance="phase-1", tweet=make_tweet(),
        )

    def test_dropped_aspect_leaves_only_overall(self):
        _, aspects, negative = one_row(self._example({Aspect.ECONOMY: NEU}, NEU))
        assert aspects.tolist() == [0, 0, 0, 0, 0, 1]
        assert negative.tolist() == [0, 0, 0, 0, 0, 0]

    def test_positive_merges_to_nonnegative(self):
        _, aspects, negative = one_row(self._example({Aspect.RACISM: POS}, POS))
        racism = corpus.ASPECT_INDEX[Aspect.RACISM]
        assert aspects[racism] == 1
        assert negative[racism] == 0

    def test_direct_mapping(self):
        _, aspects, negative = one_row(
            self._example({Aspect.POLITICS: NEG, Aspect.SITUATION: NEU}, NEG)
        )
        idx = corpus.ASPECT_INDEX
        assert aspects.tolist() == [1, 0, 1, 0, 0, 1]
        assert negative[idx[Aspect.POLITICS]] == 1
        assert negative[idx[Aspect.SITUATION]] == 0
        assert negative[idx[Aspect.OVERALL]] == 1

    def test_mask_equals_targets_and_bounds(self):
        # `aspects` is also the sentiment mask, so a negative slot lies inside it
        _, aspects, negative = one_row(self._example({Aspect.FOREIGN: NEG}, None))
        assert aspects.tolist() == [0, 1, 0, 0, 0, 0]
        assert np.all(negative <= aspects)

    def test_requires_attached_tweet(self):
        bad = AdjudicatedExample("t1", {}, None, "phase-1", tweet=None)
        with pytest.raises(PipelineError, match="^example t1 has no attached tweet text$"):
            labeled_set([bad])


@given(labels=labels_strategy, overall=overall_strategy)
def test_aspect_count_preserved(labels, overall):
    example = AdjudicatedExample("t1", labels, overall, "phase-1", make_tweet())
    _, aspects, _ = one_row(example)
    kept = sum(1 for a in labels if a not in corpus.DROPPED_ASPECTS)
    assert int(aspects.sum()) == kept + (overall is not None)


def reference_row(example):
    """One example's (aspects, negative) rows, one label at a time: Economy and
    Culture dropped, Overall folded in, Neutral and Positive NonNegative."""
    aspects, negative = [0.0] * len(corpus.A_USED), [0.0] * len(corpus.A_USED)
    labels = dict(example.labels)
    if example.overall is not None:
        labels[Aspect.OVERALL] = example.overall
    for aspect, sentiment in labels.items():
        if aspect in (Aspect.ECONOMY, Aspect.CULTURE):
            continue
        i = list(corpus.A_USED).index(aspect)
        aspects[i] = 1.0
        negative[i] = 1.0 if sentiment is Sentiment.NEGATIVE else 0.0
    return aspects, negative


@given(st.lists(st.tuples(labels_strategy, overall_strategy), max_size=6))
def test_labeled_set_rows_equal_the_per_example_reference(examples):
    examples = [AdjudicatedExample(f"t{i}", labels, overall, "phase-1",
                                   make_tweet(tweet_id=f"t{i}", text=f"text {i}"))
                for i, (labels, overall) in enumerate(examples)]
    got = labeled_set(examples)
    assert got.texts == [f"text {i}" for i in range(len(examples))]
    assert got.aspects.shape == got.negative.shape == (len(examples), len(corpus.A_USED))
    assert got.aspects.dtype == got.negative.dtype == np.float64
    for i, example in enumerate(examples):
        assert (got.aspects[i].tolist(), got.negative[i].tolist()) == reference_row(example)


def merge_table():
    assert merge_sentiment(NEG).value == "Negative"
    assert merge_sentiment(NEU).value == "NonNegative"
    assert merge_sentiment(POS).value == "NonNegative"


class TestSplit:
    def test_exact_ratio_on_ten(self):
        parts = split(list(range(10)), seed=1)
        assert tuple(len(p) for p in parts) == (8, 1, 1)

    def test_8019_sizes(self):
        parts = split(list(range(8019)), seed=3)
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 8019
        assert abs(sizes[0] - 8019 * 0.8) <= 1
        assert abs(sizes[1] - 8019 * 0.1) <= 1
        assert abs(sizes[2] - 8019 * 0.1) <= 1

    def test_deterministic(self):
        data = list(range(100))
        assert split(data, seed=5) == split(data, seed=5)
        assert split(data, seed=5) != split(data, seed=6)

    def test_too_small(self):
        with pytest.raises(PipelineError, match="^dataset too small to split: 9 < 10$"):
            split(list(range(9)), seed=0)

    def test_negative_seed_rejected(self):
        # random.Random(-7) shuffles as random.Random(7) does
        with pytest.raises(PipelineError, match="^split seed must be >= 0, got -7$"):
            split(list(range(100)), seed=-7)

    @given(n=st.integers(min_value=10, max_value=500), seed=st.integers(0, 2**32))
    def test_disjoint_and_exhaustive(self, n, seed):
        data = list(range(n))
        parts = split(data, seed=seed)
        merged = sorted(x for p in parts for x in p)
        assert merged == data
        for r, p in zip((0.8, 0.1, 0.1), parts):
            assert abs(len(p) - n * r) <= 1


def _stats_fixture():
    """40 hand-countable examples.

    Politics: 6 tweets (4 Neg / 1 Neu / 1 Pos); Foreign: 4 (4 Neg);
    Measures: 10 (2 Neg / 5 Neu / 3 Pos); Overall present on 30 of 40
    (15 Neg / 10 Neu / 5 Pos). Everything else zero.
    """
    examples = []

    def add(n, labels, overall):
        for _ in range(n):
            examples.append(
                AdjudicatedExample(
                    tweet_id=f"x{len(examples)}", labels=dict(labels),
                    overall=overall, provenance="phase-1",
                    tweet=make_tweet(tweet_id=f"x{len(examples)}"),
                )
            )

    add(4, {Aspect.POLITICS: NEG}, NEG)
    add(1, {Aspect.POLITICS: NEU}, NEU)
    add(1, {Aspect.POLITICS: POS}, POS)
    add(4, {Aspect.FOREIGN: NEG}, NEG)
    add(2, {Aspect.MEASURES: NEG}, NEG)
    add(5, {Aspect.MEASURES: NEU}, NEU)
    add(3, {Aspect.MEASURES: POS}, POS)
    add(5, {}, NEG)   # relevant, no content aspect
    add(2, {}, NEU)
    add(1, {}, POS)
    add(2, {}, NEU)
    add(10, {}, None)  # irrelevant
    assert len(examples) == 40
    return examples


def _table1(examples, tmp_path):
    """The rows of `stats-dataset`'s CSV for `examples`, keyed by (aspect, sentiment)."""
    dataset, table = tmp_path / "dataset.jsonl", tmp_path / "table1.csv"
    corpus.write_dataset(dataset, examples)
    assert cli.main(["stats-dataset", "--dataset", str(dataset), "--out", str(table)]) == 0
    with open(table, newline="", encoding="utf-8") as f:
        return {(r["aspect"], r["sentiment"]): r for r in csv.DictReader(f)}


class TestDatasetStats:
    def test_hand_counts(self):
        table = dataset_stats(_stats_fixture())
        assert table.dtype == np.int64
        assert table.shape == (len(corpus.TABLE_ASPECTS), len(Sentiment))
        rows = dict(zip((a.value for a in corpus.TABLE_ASPECTS), table.tolist()))
        # columns in `Sentiment` order: Negative, Neutral, Positive
        assert rows["Politics"] == [4, 1, 1]
        assert rows["Foreign"] == [4, 0, 0]
        assert rows["Measures"] == [2, 5, 3]
        assert rows["Overall"] == [15, 10, 5]
        for aspect in ("Economy", "Culture", "Situation", "Racism"):
            assert rows[aspect] == [0, 0, 0]

    def test_empty_dataset_is_all_zero(self, tmp_path):
        table = dataset_stats([])
        assert table.shape == (len(corpus.TABLE_ASPECTS), len(Sentiment))
        assert not table.any()
        for row in _table1([], tmp_path).values():
            assert row["count_aspect_sentiment"] == row["count_aspect"] == "0"
            assert row["percent_within_aspect"] == row["percent_of_corpus"] == "0.0"

    def test_sentiment_percentages_sum_to_100(self, tmp_path):
        rows = _table1(_stats_fixture(), tmp_path)
        for aspect in corpus.TABLE_ASPECTS:
            cells = [rows[aspect.value, s.value] for s in Sentiment]
            if cells[0]["count_aspect"] == "0":
                continue
            total = sum(float(r["percent_within_aspect"]) for r in cells)
            assert abs(total - 100.0) <= 0.1 + 1e-9

    def test_table1_csv_percents(self, tmp_path):
        rows = _table1(_stats_fixture(), tmp_path)
        assert len(rows) == len(corpus.TABLE_ASPECTS) * len(Sentiment)
        politics = rows["Politics", "Negative"]
        assert (politics["count_aspect"], politics["percent_of_corpus"]) == ("6", "15.0")
        assert (politics["count_aspect_sentiment"], politics["percent_within_aspect"]) == (
            "4", "66.7")  # 4 / 6, rounded half-up
        overall = rows["Overall", "Positive"]
        assert (overall["count_aspect"], overall["percent_of_corpus"]) == ("30", "75.0")
        assert (overall["count_aspect_sentiment"], overall["percent_within_aspect"]) == (
            "5", "16.7")
        economy = rows["Economy", "Neutral"]
        assert (economy["count_aspect"], economy["percent_of_corpus"]) == ("0", "0.0")
        assert economy["percent_within_aspect"] == "0.0"


class TestSelectConfident:
    def test_empty_pool(self):
        from aspectsent.features import HashedProvider

        provider = HashedProvider()
        assert model.select_confident([], provider, init_params(provider.dim, 0), 0.9, 300) == {}

    def test_probability_fixture(self):
        # Zero weights, biases chosen so only Racism clears the threshold.
        import math

        from aspectsent.features import HashedProvider
        from aspectsent.model import HeadParams

        provider = HashedProvider()
        k, d = len(A_USED), provider.dim
        b_a = np.full(k, math.log(0.2 / 0.8))  # p = 0.2 everywhere
        b_a[corpus.ASPECT_INDEX[Aspect.RACISM]] = math.log(0.95 / 0.05)
        params = HeadParams(np.zeros((k, d)), b_a, np.zeros((k, d)), np.zeros(k))
        pool = [("id2", "second text"), ("id1", "first text")]
        got = model.select_confident(pool, provider, params, threshold=0.9, cap=300)
        assert set(got) == {Aspect.RACISM}
        assert [c.tweet_id for c in got[Aspect.RACISM]] == ["id1", "id2"]  # tie -> id order
        for c in got[Aspect.RACISM]:
            assert c.probability == pytest.approx(0.95, abs=1e-9)

    def test_cap_rule(self):
        import math

        from aspectsent.features import HashedProvider
        from aspectsent.model import HeadParams

        provider = HashedProvider()
        k, d = len(A_USED), provider.dim
        b_a = np.full(k, math.log(0.95 / 0.05))
        params = HeadParams(np.zeros((k, d)), b_a, np.zeros((k, d)), np.zeros(k))
        pool = [(f"id{i:04d}", f"text {i}") for i in range(500)]
        got = model.select_confident(pool, provider, params, threshold=0.9, cap=300)
        assert all(len(cands) == 300 for cands in got.values())

    def test_threshold_validation(self):
        from aspectsent.features import HashedProvider

        provider = HashedProvider()
        for threshold, cap in ((1.0, 300), (0.0, 300), (0.9, 0)):
            with pytest.raises(PipelineError,
                               match=r"^augment-candidates needs 0 < threshold < 1 and cap >= 1$"):
                model.select_confident([("a", "t")], provider, init_params(provider.dim, 0),
                                       threshold=threshold, cap=cap)


def test_dataset_roundtrip(tmp_path):
    examples = _stats_fixture()[:5]
    path = tmp_path / "dataset.jsonl"
    corpus.write_dataset(path, examples)
    again = corpus.read_dataset(path)
    assert len(again) == 5
    assert again[0].labels == examples[0].labels
    assert again[0].overall == examples[0].overall
    assert again[0].tweet == examples[0].tweet


@pytest.mark.parametrize("record, want", [
    ({}, "phase-1"), ({"provenance": None}, "phase-1"),
    ({"provenance": "phase-1"}, "phase-1"), ({"provenance": "phase-2"}, "phase-2"),
])
def test_dataset_provenance_defaults_to_phase_1(tmp_path, record, want):
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps({"tweet_id": "t1", **record}) + "\n", encoding="utf-8")
    [example] = corpus.read_dataset(path)
    assert example.provenance == want


@pytest.mark.parametrize("value, shown", [
    (5, "5"), (["x", {"y": 1}], "['x', {'y': 1}]"), ("phase-3", "'phase-3'"), ("", "''"),
    (True, "True"),
])
def test_dataset_reader_rejects_a_bad_provenance(tmp_path, value, shown):
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps({"tweet_id": "t1", "provenance": value}) + "\n", encoding="utf-8")
    with pytest.raises(PipelineError, match=re.escape(
            f"{path}:1: bad dataset record: provenance: expected one of phase-1, phase-2, "
            f"got {shown}") + "$"):
        corpus.read_dataset(path)


def test_annotation_reader(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text(
        '{"tweet_id": "t1", "annotator_id": "a", "labels": {"Politics": "Negative"}, "overall": "Negative"}\n'
        '{"tweet_id": "t1", "annotator_id": "b", "labels": {"Politics": "Negative"}, "overall": "Negative"}\n',
        encoding="utf-8",
    )
    anns = corpus.read_annotations(path)
    assert len(anns) == 2
    assert anns[0].labels == {Aspect.POLITICS: NEG}
    examples, discarded = corpus.adjudicate_corpus(anns)
    assert discarded == 0
    assert examples[0].provenance == "phase-1"


def test_adjudicate_corpus_counts_discards():
    anns = [
        ann("a", overall=NEG, tweet_id="keep"),
        ann("b", overall=NEG, tweet_id="keep"),
        ann("a", overall=NEG, tweet_id="drop"),
        ann("b", overall=NEU, tweet_id="drop"),
        ann("c", overall=POS, tweet_id="drop"),
    ]
    examples, discarded = corpus.adjudicate_corpus(anns)
    assert [e.tweet_id for e in examples] == ["keep"]
    assert discarded == 1


def test_adjudicate_corpus_attaches_tweets():
    tweet = make_tweet(tweet_id="t9")
    anns = [ann("a", overall=NEG, tweet_id="t9"), ann("b", overall=NEG, tweet_id="t9")]
    examples, _ = corpus.adjudicate_corpus(anns, {"t9": tweet})
    assert examples[0].tweet == tweet


def test_annotation_reader_rejects_unknown_aspect(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text(
        '{"tweet_id": "t1", "annotator_id": "a", "labels": {"Bogus": "Negative"}, "overall": null}\n',
        encoding="utf-8",
    )
    with pytest.raises(PipelineError, match=re.escape(
            f"{path}:1: bad annotation record: labels: expected one of Politics, Economy, "
            "Foreign, Culture, Situation, Measures, Racism, Overall, got 'Bogus'")):
        corpus.read_annotations(path)
