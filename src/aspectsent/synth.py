"""Deterministic synthetic corpora for demos, determinism runs, and benchmarks.

Texts are assembled from per-aspect signature vocabularies plus sentiment
cue words, so the generated labels are learnable by construction. All
generation is a pure function of the seed.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

from .corpus import Aspect, CONTENT_ASPECTS, Sentiment
from .files import write_jsonl  # noqa: F401  (re-exported: writes the records made here)

ASPECT_TOKENS: dict[Aspect, list[str]] = {
    Aspect.POLITICS: ["government", "policy", "leadership", "censorship", "officials"],
    Aspect.FOREIGN: ["diplomacy", "embassy", "sanctions", "alliance", "negotiations"],
    Aspect.SITUATION: ["cases", "outbreak", "hospitals", "recovery", "statistics"],
    Aspect.MEASURES: ["lockdown", "quarantine", "masks", "testing", "restrictions"],
    Aspect.RACISM: ["blame", "stigma", "slander", "xenophobia", "naming"],
}

NEGATIVE_TOKENS = ["awful", "terrible", "failure", "disaster", "crisis"]
NEUTRAL_TOKENS = ["reported", "ongoing", "update", "daily", "summary"]
POSITIVE_TOKENS = ["improving", "hopeful", "praised", "effective", "recovering"]

FILLER_TOKENS = ["today", "people", "world", "news", "watching", "thread", "story"]

OFFTOPIC_TOKENS = ["weather", "football", "music", "recipes", "holiday", "gaming"]

GROUP_TAGS = ["dem_senate", "rep_senate", "dem_house", "rep_house", "us_media", "uk_media"]

DEFAULT_KEYWORD = "china"


def _sentiment_tokens(sentiment: Sentiment) -> list[str]:
    if sentiment is Sentiment.NEGATIVE:
        return NEGATIVE_TOKENS
    if sentiment is Sentiment.POSITIVE:
        return POSITIVE_TOKENS
    return NEUTRAL_TOKENS


def _draw_example(rng: random.Random) -> tuple[str, dict[Aspect, Sentiment], Sentiment | None]:
    """One synthetic tweet text plus its ground-truth labels."""
    n_aspects = rng.choices([0, 1, 2], weights=[2, 6, 2])[0]
    aspects = rng.sample(CONTENT_ASPECTS, k=n_aspects)
    labels: dict[Aspect, Sentiment] = {}
    words: list[str] = [DEFAULT_KEYWORD]
    for aspect in aspects:
        sentiment = rng.choices(
            [Sentiment.NEGATIVE, Sentiment.NEUTRAL, Sentiment.POSITIVE],
            weights=[5, 4, 1],
        )[0]
        labels[aspect] = sentiment
        words += rng.sample(ASPECT_TOKENS[aspect], k=2)
        words.append(rng.choice(_sentiment_tokens(sentiment)))
    relevant = bool(labels) or rng.random() < 0.6
    overall: Sentiment | None = None
    if relevant:
        if any(s is Sentiment.NEGATIVE for s in labels.values()):
            overall = Sentiment.NEGATIVE
        elif labels:
            overall = rng.choice([Sentiment.NEUTRAL, Sentiment.POSITIVE])
        else:
            overall = rng.choices(
                [Sentiment.NEGATIVE, Sentiment.NEUTRAL, Sentiment.POSITIVE],
                weights=[3, 5, 2],
            )[0]
        words.append(rng.choice(_sentiment_tokens(overall)))
    words += rng.sample(FILLER_TOKENS, k=2)
    rng.shuffle(words)
    return " ".join(words), labels, overall


def make_corpus_records(
    n: int,
    seed: int,
    start: date = date(2020, 1, 22),
    days: int = 60,
    offtopic_fraction: float = 0.2,
    non_english_fraction: float = 0.1,
) -> list[dict]:
    """Synthetic corpus records in the ingest JSONL schema."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        day = start + timedelta(days=rng.randrange(days))
        hour, minute, second = rng.randrange(24), rng.randrange(60), rng.randrange(60)
        if rng.random() < offtopic_fraction:
            text = " ".join(rng.sample(OFFTOPIC_TOKENS, k=3) + rng.sample(FILLER_TOKENS, k=2))
        else:
            text, _, _ = _draw_example(rng)
        lang = "en" if rng.random() >= non_english_fraction else rng.choice(["es", "fr", "de"])
        user_idx = rng.randrange(max(2, n // 4))
        tags = [rng.choice(GROUP_TAGS)] if rng.random() < 0.15 else []
        roll = rng.random()
        bot_flag = True if roll < 0.05 else (False if roll < 0.85 else None)
        record = {
            "id": f"t{i:07d}",
            "created_at": f"{day.isoformat()}T{hour:02d}:{minute:02d}:{second:02d}Z",
            "text": text,
            "lang": lang,
            "user": {"id": f"u{user_idx}", "screen_name": f"user{user_idx}"},
        }
        if tags:
            record["group_tags"] = tags
        if bot_flag is not None:
            record["bot_flag"] = bot_flag
        records.append(record)
    return records


def make_dataset_records(
    n: int,
    seed: int,
    start: date = date(2020, 1, 22),
    days: int = 60,
) -> list[dict]:
    """Synthetic adjudicated-dataset records (ground-truth labels attached)."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        text, labels, overall = _draw_example(rng)
        day = start + timedelta(days=rng.randrange(days))
        records.append(
            {
                "tweet_id": f"s{i:06d}",
                "tweet": {
                    "id": f"s{i:06d}",
                    "created_at": f"{day.isoformat()}T12:00:00Z",
                    "text": text,
                    "lang": "en",
                    "user": {"id": f"u{i % 50}", "screen_name": f"labeler{i % 50}"},
                },
                "labels": {a.value: s.value for a, s in labels.items()},
                "overall": None if overall is None else overall.value,
                "provenance": "phase-1",
            }
        )
    return records


def make_annotation_records(n: int, seed: int, disagree_fraction: float = 0.3) -> list[dict]:
    """Synthetic two/three-annotator exports exercising both phases."""
    rng = random.Random(seed)
    base = make_dataset_records(n, seed)
    records = []
    for row in base:
        tid = row["tweet_id"]
        labels = row["labels"]
        overall = row["overall"]
        records.append(
            {"tweet_id": tid, "annotator_id": "a1", "labels": labels, "overall": overall}
        )
        if rng.random() < disagree_fraction and labels:
            flipped = dict(labels)
            aspect = rng.choice(sorted(flipped))
            flipped[aspect] = (
                Sentiment.NEUTRAL if flipped[aspect] != Sentiment.NEUTRAL.value else Sentiment.NEGATIVE
            ).value
            records.append(
                {"tweet_id": tid, "annotator_id": "a2", "labels": flipped, "overall": overall}
            )
            records.append(
                {"tweet_id": tid, "annotator_id": "a3", "labels": labels, "overall": overall}
            )
        else:
            records.append(
                {"tweet_id": tid, "annotator_id": "a2", "labels": labels, "overall": overall}
            )
    return records

