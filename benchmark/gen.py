"""Seeded input generator for the pipeline benchmark.

Every file is a pure function of (seed, workload). Texts keep the aspect and
sentiment signal words of `aspectsent.synth`, so the two-stage model still
learns, but wrap them in tweet-like noise: a Zipf-distributed vocabulary far
larger than any plausible token cache, tweet-length texts, and per-tweet
unique tokens (numbers, URLs, @mentions, hashtags). The generator never
imports the package under test; it writes the documented input formats and
the ground truth the output checks compare against.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

ASPECTS = ("Politics", "Foreign", "Situation", "Measures", "Racism")
ASPECT_TOKENS = {
    "Politics": ["government", "policy", "leadership", "censorship", "officials"],
    "Foreign": ["diplomacy", "embassy", "sanctions", "alliance", "negotiations"],
    "Situation": ["cases", "outbreak", "hospitals", "recovery", "statistics"],
    "Measures": ["lockdown", "quarantine", "masks", "testing", "restrictions"],
    "Racism": ["blame", "stigma", "slander", "xenophobia", "naming"],
}
SENTIMENT_TOKENS = {
    "Negative": ["awful", "terrible", "failure", "disaster", "crisis"],
    "Neutral": ["reported", "ongoing", "update", "daily", "summary"],
    "Positive": ["improving", "hopeful", "praised", "effective", "recovering"],
}
KEYWORDS = ("china", "wuhan")
# Whole-token near misses: they contain a keyword but must not match it.
NEAR_MISSES = ("chinatown", "chinese", "wuhans", "indochina", "chinas")
GROUP_TAGS = ("dem_senate", "rep_senate", "dem_house", "rep_house")
MEDIA_TAGS = ("us_media", "uk_media")

# The ingest filter the ground truth assumes; worker.INGEST_FLAGS passes it.
FILTER_START = date(2020, 1, 22)
FILTER_END = date(2020, 3, 21)
SAMPLE_RATE = 0.4

VOCAB_SIZE = 200_000
ZIPF_EXPONENT = 1.05
COMMON_WORDS = (
    "the to and of a in is for on that it you this with be are was at have not "
    "we they just all so but if about what from will can more out like now my "
    "your one how up new people there our no has do time who us why when would "
    "get been their still know today than need its going them want world news "
    "back these only over think could day should also said right even say last "
    "see make much good first week because very any here country many where those "
    "via amp go years really way while being life every well never home state"
).split()
_SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo ga ge go ka ke ki ko ku la le li "
    "lo lu ma me mi mo mu na ne ni no nu pa pe pi po ra re ri ro ru sa se si so "
    "ta te ti to tu va ve vi vo za zo"
).split()
_RESERVED = (
    set(KEYWORDS)
    | set(NEAR_MISSES)
    | {w for ws in ASPECT_TOKENS.values() for w in ws}
    | {w for ws in SENTIMENT_TOKENS.values() for w in ws}
)
_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
_SOURCES = ("Twitter for iPhone", "Twitter for Android", "Twitter Web App")
_EXTRAS = ("café", "naïve", "😷", "🇨🇳", "—", "¿qué", "señal")


def _pseudo_word(rank: int) -> str:
    base = len(_SYLLABLES)
    parts = []
    r = rank
    while True:
        parts.append(_SYLLABLES[r % base])
        r //= base
        if r == 0:
            break
    word = "".join(parts)
    return word + "q" if word in _RESERVED else word


def vocabulary() -> list[str]:
    words = list(COMMON_WORDS)
    rank = 0
    seen = set(words)
    while len(words) < VOCAB_SIZE:
        w = _pseudo_word(rank)
        rank += 1
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


@functools.cache
def _vocab_and_cdf() -> tuple[list[str], np.ndarray]:
    weights = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
    return vocabulary(), np.cumsum(weights / weights.sum())


class TweetTexts:
    """Draws tweet texts with known aspect/sentiment labels."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.vocab, self.cdf = _vocab_and_cdf()
        self._pool: list[str] = []

    def _filler(self, k: int) -> list[str]:
        if len(self._pool) < k:
            idx = np.searchsorted(self.cdf, self.np_rng.random(65536), side="right")
            np.minimum(idx, VOCAB_SIZE - 1, out=idx)
            vocab = self.vocab
            self._pool.extend(vocab[i] for i in idx.tolist())
        out = self._pool[-k:]
        del self._pool[-k:]
        return out

    def _labels(self):
        rng = self.rng
        n_aspects = rng.choices((0, 1, 2), weights=(2, 6, 2))[0]
        labels = {}
        words = []
        for aspect in rng.sample(ASPECTS, k=n_aspects):
            sentiment = rng.choices(("Negative", "Neutral", "Positive"), weights=(5, 4, 1))[0]
            labels[aspect] = sentiment
            words += rng.sample(ASPECT_TOKENS[aspect], k=2)
            words.append(rng.choice(SENTIMENT_TOKENS[sentiment]))
        overall = None
        if labels or rng.random() < 0.6:
            if "Negative" in labels.values():
                overall = "Negative"
            elif labels:
                overall = rng.choice(("Neutral", "Positive"))
            else:
                overall = rng.choices(("Negative", "Neutral", "Positive"), weights=(3, 5, 2))[0]
            words.append(rng.choice(SENTIMENT_TOKENS[overall]))
        return labels, overall, words

    def draw(self, keyword: bool = True):
        """(text, labels, overall). Without `keyword`, no keyword token appears."""
        rng = self.rng
        r = rng.random
        if keyword:
            labels, overall, signal = self._labels()
            kw = KEYWORDS[int(r() * len(KEYWORDS))]
            forms = (kw, kw.capitalize(), kw.upper(), "#" + kw, "#" + kw.capitalize())
            signal.append(forms[int(r() * len(forms))])
        else:
            labels, overall, signal = {}, None, []
            if r() < 0.2:
                signal.append(NEAR_MISSES[int(r() * len(NEAR_MISSES))])
        if r() < 0.45:
            handle = "".join(rng.choices(_ALNUM, k=5 + int(r() * 8)))
            signal.append(f"@{handle}_{int(r() * 1000)}")
        if r() < 0.3:
            signal.append("#" + self._filler(1)[0].capitalize() + str(int(r() * 100)))
        if r() < 0.3:
            signal.append(str(1 + int(r() * 10 ** (2 + int(r() * 6)))))
        if r() < 0.1:
            signal.append(_EXTRAS[int(r() * len(_EXTRAS))])
        words = self._filler(6 + int(r() * 21))
        for w in signal:
            words.insert(int(r() * (len(words) + 1)), w)
        if r() < 0.4:
            words.append("https://t.co/" + "".join(rng.choices(_ALNUM, k=10)))
        return " ".join(words), labels, overall


def _instant(rng: random.Random, day: date) -> str:
    """A timestamp on UTC `day`, sometimes written with a non-UTC offset."""
    r = rng.random
    h, m, sec = int(r() * 24), int(r() * 60), int(r() * 60)
    if r() < 0.25:
        hours = (-8, -5, 1, 8, 9)[int(r() * 5)]
        dt = datetime(day.year, day.month, day.day, h, m, sec, tzinfo=timezone.utc)
        return dt.astimezone(timezone(timedelta(hours=hours))).isoformat()
    return f"{day.isoformat()}T{h:02d}:{m:02d}:{sec:02d}Z"


def _tweet_record(rng: random.Random, tid: str, created_at: str, text: str, lang: str,
                  n_users: int, tags=(), bot_flag=None) -> dict:
    r = rng.random
    uid = int(r() * n_users)
    record = {
        "id": tid,
        "created_at": created_at,
        "text": text,
        "lang": lang,
        "user": {
            "id": f"u{uid}",
            "screen_name": f"user_{uid}",
            "name": f"User {uid}",
            "followers_count": int(r() * 50_000),
            "verified": r() < 0.02,
        },
        "retweet_count": int(r() * 200),
        "favorite_count": int(r() * 1000),
        "source": _SOURCES[int(r() * len(_SOURCES))],
    }
    if tags:
        record["group_tags"] = list(tags)
    if bot_flag is not None:
        record["bot_flag"] = bot_flag
    return record


def _bot_flag(rng: random.Random):
    roll = rng.random()
    return True if roll < 0.06 else (False if roll < 0.86 else None)


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


_TOKEN = re.compile(r"\S+")


def text_stats(texts) -> dict:
    """Distinct lowercased whitespace tokens and mean tokens per text."""
    counts: Counter = Counter()
    n = 0
    for text in texts:
        counts.update(_TOKEN.findall(text.lower()))
        n += 1
    total = sum(counts.values())
    return {"texts": n, "distinct_tokens": len(counts),
            "tokens_per_tweet": total / n if n else 0.0}


# --- ingest-dump ---

def make_dump(path: Path, n: int, seed: int) -> dict:
    """Raw dump plus its ground truth: the expected per-day kept counts."""
    rng = random.Random(seed)
    texts = TweetTexts(seed + 1)
    first = FILTER_START - timedelta(days=7)
    n_days = (FILTER_END - FILTER_START).days + 15
    eligible: Counter = Counter()
    all_texts = []

    def records():
        for i in range(n):
            day = first + timedelta(days=int(rng.random() * n_days))
            roll = rng.random()
            if roll < 0.88:
                lang = "en" if roll < 0.84 else "en-GB"
            else:
                lang = rng.choice(("es", "fr", "de", "ja", "und"))
            has_kw = rng.random() < 0.65
            text, _, _ = texts.draw(keyword=has_kw)
            all_texts.append(text)
            tags = (rng.choice(GROUP_TAGS),) if rng.random() < 0.1 else ()
            if lang.startswith("en") and FILTER_START <= day <= FILTER_END and has_kw:
                eligible[day.isoformat()] += 1
            yield _tweet_record(rng, f"{1220000000000000000 + i * 7919}", _instant(rng, day),
                                text, lang, max(2, n // 5), tags, _bot_flag(rng))

    write_jsonl(path, records())
    per_day = {d: math.floor(SAMPLE_RATE * c + 0.5) for d, c in sorted(eligible.items())}
    return {"records": n, "eligible": sum(eligible.values()),
            "expected_kept": sum(per_day.values()), "expected_per_day": per_day,
            **text_stats(all_texts)}


# --- labelled data ---

def make_labelled(n: int, seed: int, id_prefix: str):
    """(tweet records, label rows) for `n` relevant tweets with known labels."""
    rng = random.Random(seed)
    texts = TweetTexts(seed + 1)
    tweets, rows = [], []
    for i in range(n):
        tid = f"{id_prefix}{i:06d}"
        text, labels, overall = texts.draw(keyword=True)
        day = FILTER_START + timedelta(days=int(rng.random() * 60))
        tweets.append(_tweet_record(rng, tid, _instant(rng, day), text, "en", 400))
        rows.append((tid, labels, overall))
    return tweets, rows


def _annotation(tid, annotator, labels, overall):
    return {"tweet_id": tid, "annotator_id": annotator, "labels": labels, "overall": overall}


def make_annotations(rows, seed: int) -> tuple[list[dict], dict]:
    """Two or three annotations per tweet; some tweets cannot be adjudicated."""
    rng = random.Random(seed)
    out = []
    accepted = discarded = 0
    for tid, labels, overall in rows:
        out.append(_annotation(tid, "a1", labels, overall))
        roll = rng.random()
        if roll < 0.06:
            others = [s for s in (None, "Negative", "Neutral", "Positive") if s != overall]
            o2, o3 = rng.sample(others, k=2)
            out.append(_annotation(tid, "a2", labels, o2))
            out.append(_annotation(tid, "a3", labels, o3))
            discarded += 1
            continue
        if roll < 0.36 and labels:
            flipped = dict(labels)
            aspect = rng.choice(sorted(flipped))
            flipped[aspect] = "Neutral" if flipped[aspect] != "Neutral" else "Negative"
            out.append(_annotation(tid, "a2", flipped, overall))
            out.append(_annotation(tid, "a3", labels, overall))
        else:
            out.append(_annotation(tid, "a2", labels, overall))
        accepted += 1
    return out, {"accepted": accepted, "discarded": discarded}


def dataset_records(tweets, rows) -> list[dict]:
    """Adjudicated-dataset records (the `adjudicate` output format)."""
    return [
        {"tweet_id": tid, "tweet": tweet, "labels": labels, "overall": overall,
         "provenance": "phase-1"}
        for tweet, (tid, labels, overall) in zip(tweets, rows)
    ]


def make_corpus(path: Path, n: int, seed: int, media: bool = False) -> dict:
    """An infer corpus of in-range English tweets with bot flags and group tags."""
    rng = random.Random(seed)
    texts = TweetTexts(seed + 1)
    days = set()
    all_texts = []

    def records():
        for i in range(n):
            day = FILTER_START + timedelta(days=int(rng.random() * 60))
            days.add(day)
            text, _, _ = texts.draw(keyword=rng.random() < 0.9)
            all_texts.append(text)
            if media:
                tags, bot = (rng.choice(MEDIA_TAGS),), False
            else:
                tags = (rng.choice(GROUP_TAGS),) if rng.random() < 0.15 else ()
                bot = _bot_flag(rng)
            prefix = "m" if media else "p"
            yield _tweet_record(rng, f"{prefix}{i:07d}", _instant(rng, day), text, "en",
                                max(2, n // 4), tags, bot)

    write_jsonl(path, records())
    return {"records": n, "days": (max(days) - min(days)).days + 1, **text_stats(all_texts)}

