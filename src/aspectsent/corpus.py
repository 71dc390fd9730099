"""Label schema, 2-of-3 adjudication, preprocessing, splits, and dataset stats.

Eight aspects are annotated (seven content aspects plus Overall relevance);
after preprocessing the modeling subset drops Economy and Culture and the
three-way sentiment collapses to Negative vs NonNegative. Overall relevance
is folded in as a sixth detectable label with its own sentiment slot, so all
model-facing vectors are indexed over `A_USED` in a fixed order.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import files
from .errors import PipelineError
from .ingest import RawTweet, tweet_from_obj, tweet_to_obj


class Aspect(str, Enum):
    POLITICS = "Politics"
    ECONOMY = "Economy"
    FOREIGN = "Foreign"
    CULTURE = "Culture"
    SITUATION = "Situation"
    MEASURES = "Measures"
    RACISM = "Racism"
    OVERALL = "Overall"


class Sentiment(str, Enum):
    NEGATIVE = "Negative"
    NEUTRAL = "Neutral"
    POSITIVE = "Positive"


class BinarySentiment(str, Enum):
    NEGATIVE = "Negative"
    NON_NEGATIVE = "NonNegative"


# Fixed modeling subset and vector order; changing it invalidates trained heads.
A_USED: tuple[Aspect, ...] = (
    Aspect.POLITICS,
    Aspect.FOREIGN,
    Aspect.SITUATION,
    Aspect.MEASURES,
    Aspect.RACISM,
    Aspect.OVERALL,
)
CONTENT_ASPECTS: tuple[Aspect, ...] = A_USED[:-1]
DROPPED_ASPECTS: tuple[Aspect, ...] = (Aspect.ECONOMY, Aspect.CULTURE)
ASPECT_INDEX: dict[Aspect, int] = {a: i for i, a in enumerate(A_USED)}

# Presentation order of the dataset-statistics table: the order `Aspect` declares.
TABLE_ASPECTS: tuple[Aspect, ...] = tuple(Aspect)


def merge_sentiment(s: Sentiment) -> BinarySentiment:
    """Neutral and Positive merge to NonNegative; Negative stays Negative."""
    if s is Sentiment.NEGATIVE:
        return BinarySentiment.NEGATIVE
    return BinarySentiment.NON_NEGATIVE


class _Labeled:
    """Holds `labels` and `overall`; Overall relevance is never inside `labels`."""

    def __post_init__(self):
        if Aspect.OVERALL in self.labels:
            raise PipelineError("Overall must be annotated via the overall field, not labels")


@dataclass(frozen=True)
class Annotation(_Labeled):
    """One annotator's labels for one tweet.

    `labels` maps content aspects to sentiments (an absent aspect means "not
    mentioned"); `overall` is present iff the annotator judged the tweet
    relevant. The Overall aspect never appears inside `labels`.
    """

    tweet_id: str
    annotator_id: str
    labels: Mapping[Aspect, Sentiment] = field(default_factory=dict)
    overall: Sentiment | None = None


@dataclass
class AdjudicatedExample(_Labeled):
    """Final labels after 2-of-3 agreement. `tweet` may be attached later."""

    tweet_id: str
    labels: dict[Aspect, Sentiment]
    overall: Sentiment | None
    provenance: str  # "phase-1" | "phase-2"
    tweet: RawTweet | None = None


def adjudicate(
    a1: Annotation,
    a2: Annotation,
    a3: Annotation | None = None,
    tweet: RawTweet | None = None,
) -> AdjudicatedExample | None:
    """Resolve two or three annotations into final labels, or discard.

    With two identical annotations the result is accepted as phase-1. With a
    third annotation, each (aspect, sentiment) pair is kept iff at least two
    annotators assigned exactly that pair; an aspect mentioned by two or more
    annotators without a majority sentiment is dropped from the example. The
    whole example is discarded (None) iff the overall judgment, where absence
    counts as "irrelevant", has no 2-of-3 majority.
    """
    anns = [a1, a2] if a3 is None else [a1, a2, a3]
    ids = [a.annotator_id for a in anns]
    if len(set(ids)) != len(ids):
        raise PipelineError(f"duplicate annotator_id among {ids}")
    if len({a.tweet_id for a in anns}) != 1:
        raise PipelineError("annotations refer to different tweets")
    tweet_id = a1.tweet_id

    if a3 is None:
        if dict(a1.labels) == dict(a2.labels) and a1.overall == a2.overall:
            return AdjudicatedExample(tweet_id, dict(a1.labels), a1.overall, "phase-1", tweet)
        raise PipelineError(
            f"tweet {tweet_id}: annotators disagree and no third annotation was supplied"
        )

    pair_votes = Counter((a, s) for ann in anns for a, s in ann.labels.items())
    labels = {a: s for (a, s), votes in pair_votes.items() if votes >= 2}

    overall_votes = Counter(ann.overall for ann in anns)
    overall, votes = overall_votes.most_common(1)[0]
    if votes < 2:
        return None
    return AdjudicatedExample(tweet_id, labels, overall, "phase-2", tweet)


def adjudicate_corpus(
    annotations: Iterable[Annotation],
    tweets_by_id: Mapping[str, RawTweet] | None = None,
) -> tuple[list[AdjudicatedExample], int]:
    """Adjudicate per tweet; returns (accepted examples, discard count)."""
    grouped: dict[str, list[Annotation]] = {}
    for ann in annotations:
        grouped.setdefault(ann.tweet_id, []).append(ann)
    accepted: list[AdjudicatedExample] = []
    discarded = 0
    for tweet_id, anns in grouped.items():
        if not 2 <= len(anns) <= 3:
            raise PipelineError(f"tweet {tweet_id}: expected 2 or 3 annotations, got {len(anns)}")
        tweet = tweets_by_id.get(tweet_id) if tweets_by_id else None
        result = adjudicate(*anns, tweet=tweet)
        if result is None:
            discarded += 1
        else:
            accepted.append(result)
    return accepted, discarded


@dataclass(frozen=True)
class LabeledSet:
    """Labeled examples as model-facing arrays over `A_USED`, one row each.

    `aspects[i, j]` marks aspect j on example i and is also the mask of the
    sentiment slots; `negative[i, j]` marks a Negative sentiment there.
    """

    texts: list[str]
    aspects: np.ndarray  # float64, n x |A_USED|
    negative: np.ndarray  # float64, n x |A_USED|, 0 wherever `aspects` is 0

    def __len__(self) -> int:
        return len(self.texts)


def labeled_set(examples: Sequence[AdjudicatedExample]) -> LabeledSet:
    """Apply preprocessing: drop Economy/Culture, binarize, fold Overall in."""
    aspects = np.zeros((len(examples), len(A_USED)))
    negative = np.zeros_like(aspects)
    texts = []
    for i, example in enumerate(examples):
        if example.tweet is None:
            raise PipelineError(f"example {example.tweet_id} has no attached tweet text")
        texts.append(example.tweet.text)
        labels = example.labels.items()
        if example.overall is not None:
            labels = [*labels, (Aspect.OVERALL, example.overall)]
        for aspect, sentiment in labels:
            if aspect not in DROPPED_ASPECTS:
                aspects[i, ASPECT_INDEX[aspect]] = 1.0
                if merge_sentiment(sentiment) is BinarySentiment.NEGATIVE:
                    negative[i, ASPECT_INDEX[aspect]] = 1.0
    return LabeledSet(texts, aspects, negative)


SPLIT_RATIOS = (8, 1, 1)  # train : dev : test


def split(dataset: Sequence, seed: int) -> tuple[list, ...]:
    """Disjoint, exhaustive train/dev/test split, sizes within +/-1 of `SPLIT_RATIOS`.

    The partition is a pure function of (len(dataset), seed); members keep
    their original relative order inside each part.
    """
    n = len(dataset)
    if n < 10:
        raise PipelineError(f"dataset too small to split: {n} < 10")
    if seed < 0:  # random.Random(-s) is random.Random(s)
        raise PipelineError(f"split seed must be >= 0, got {seed}")
    total = sum(SPLIT_RATIOS)
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    sizes = [math.floor(n * r / total + 0.5) for r in SPLIT_RATIOS[1:]]
    sizes.insert(0, n - sum(sizes))
    parts: list[list] = []
    pos = 0
    for size in sizes:
        chosen = sorted(order[pos : pos + size])
        parts.append([dataset[i] for i in chosen])
        pos += size
    return tuple(parts)


def dataset_stats(dataset: Sequence[AdjudicatedExample]) -> np.ndarray:
    """Table 1's counts, int64: a row per `TABLE_ASPECTS` and a column per
    `Sentiment`, of the examples that give the aspect that sentiment; the
    Overall row counts the `overall` field."""
    pairs = Counter((a, s) for e in dataset for a, s in e.labels.items())
    pairs.update((Aspect.OVERALL, e.overall) for e in dataset if e.overall is not None)
    return np.array([[pairs[a, s] for s in Sentiment] for a in TABLE_ASPECTS], dtype=np.int64)


def _labels_from_obj(obj: dict) -> tuple[dict[Aspect, Sentiment], Sentiment | None]:
    """The `labels` and `overall` fields of an annotation or dataset record."""
    return (files.field(obj, "labels", {Aspect: Sentiment}, optional=True) or {},
            files.field(obj, "overall", Sentiment, optional=True))


def _annotation_from_obj(obj: dict) -> Annotation:
    return Annotation(files.field(obj, "tweet_id", str), files.field(obj, "annotator_id", str),
                      *_labels_from_obj(obj))


def read_annotations(path) -> list[Annotation]:
    """Annotation export: JSONL with tweet_id, annotator_id, labels, overall."""
    return list(files.read_jsonl(path, _annotation_from_obj, "annotation"))


def example_to_obj(example: AdjudicatedExample) -> dict:
    labels = {
        a.value: example.labels[a].value for a in TABLE_ASPECTS if a in example.labels
    }
    return {
        "tweet_id": example.tweet_id,
        "tweet": None if example.tweet is None else tweet_to_obj(example.tweet),
        "labels": labels,
        "overall": None if example.overall is None else example.overall.value,
        "provenance": example.provenance,
    }


def example_from_obj(obj: dict) -> AdjudicatedExample:
    labels, overall = _labels_from_obj(obj)
    tweet = files.field(obj, "tweet", dict, optional=True)
    provenance = files.field(obj, "provenance", ("phase-1", "phase-2"), optional=True)
    return AdjudicatedExample(
        tweet_id=files.field(obj, "tweet_id", str),
        labels=labels,
        overall=overall,
        provenance=provenance or "phase-1",
        tweet=None if tweet is None else tweet_from_obj(tweet),
    )


def read_dataset(path) -> list[AdjudicatedExample]:
    return list(files.read_jsonl(path, example_from_obj, "dataset"))


def write_dataset(path, examples: Iterable[AdjudicatedExample]) -> None:
    files.write_jsonl(path, map(example_to_obj, examples))
