"""Corpus ingestion: JSONL parsing, predicate filtering, deterministic sampling.

Input records are one JSON object per line with fields `id`, `created_at`
(ISO-8601), `text`, `lang`, `user.id`, `user.screen_name`, and optional
`group_tags` (array of strings) and `bot_flag` (boolean). Timestamps are
normalized to UTC and all date bucketing uses the UTC calendar day.

Parsing and filtering are pure; shards processed in parallel elsewhere can
be combined with `merge_shards`, which restores the canonical
(created_at, id) order.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from typing import Iterable, Iterator, Sequence

from .errors import PipelineError
from .hashing import stable_hash64


class ParseError(PipelineError):
    """A line that is not valid JSON."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class SchemaError(PipelineError):
    """Valid JSON that violates the corpus record schema."""

    def __init__(self, field: str, detail: str = "missing required field"):
        super().__init__(f"{detail}: {field!r}")
        self.field = field


class CorpusFileError(PipelineError):
    """A parse or schema failure while reading a corpus file, with location."""


@dataclass(slots=True)
class RawTweet:
    """One ingested post. `created_at` is always timezone-aware UTC."""

    id: str
    created_at: datetime
    text: str
    lang: str
    user_id: str
    user_name: str
    group_tags: frozenset[str] = frozenset()
    bot_flag: bool | None = None

    @property
    def day(self) -> date:
        dt = self.created_at
        if dt.tzinfo is not timezone.utc:
            dt = dt.astimezone(timezone.utc)
        return dt.date()


@dataclass(frozen=True)
class KeywordSet:
    """Lowercase whole-token keywords; the concrete list is a runtime input."""

    keywords: frozenset[str]

    def __post_init__(self):
        if not self.keywords:
            raise ValueError("keyword set must be non-empty")
        lowered = frozenset(k.lower() for k in self.keywords)
        if any((not k) or k.isspace() for k in lowered):
            raise ValueError("keyword set contains an empty or whitespace-only entry")
        object.__setattr__(self, "keywords", lowered)


@dataclass(frozen=True)
class FilterSpec:
    lang: str
    keywords: KeywordSet
    date_start: date
    date_end: date
    accounts: frozenset[str] | None = None
    sample_rate: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.date_start > self.date_end:
            raise ValueError("date_start must be <= date_end")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")


_STR_FIELDS = ("id", "created_at", "text", "lang")


def _parse_instant(value) -> datetime:
    if not isinstance(value, str):
        raise SchemaError("created_at", "expected ISO-8601 string for")
    text = value[:-1] + "+00:00" if value.endswith("Z") else value
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError("created_at", f"unparsable timestamp {value!r} in") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def tweet_from_obj(obj: dict) -> RawTweet:
    """Build a RawTweet from a decoded JSON object, validating the schema."""
    for name in _STR_FIELDS:
        if name not in obj:
            raise SchemaError(name)
        if not isinstance(obj[name], str):
            raise SchemaError(name, "expected string for")
    user = obj.get("user")
    if user is None:
        raise SchemaError("user")
    if not isinstance(user, dict):
        raise SchemaError("user", "expected object for")
    for name in ("id", "screen_name"):
        if name not in user or not isinstance(user[name], str):
            raise SchemaError(f"user.{name}")
    tags = obj.get("group_tags") or ()
    if not isinstance(tags, (list, tuple)) or any(not isinstance(t, str) for t in tags):
        raise SchemaError("group_tags", "expected array of strings for")
    bot = obj.get("bot_flag")
    if bot is not None and not isinstance(bot, bool):
        raise SchemaError("bot_flag", "expected boolean for")
    return RawTweet(
        id=obj["id"],
        created_at=_parse_instant(obj["created_at"]),
        text=obj["text"],
        lang=obj["lang"],
        user_id=user["id"],
        user_name=user["screen_name"],
        group_tags=frozenset(tags),
        bot_flag=bot,
    )


def tweet_to_obj(tweet: RawTweet) -> dict:
    """Inverse of `tweet_from_obj`; sorts set fields for stable output."""
    obj = {
        "id": tweet.id,
        "created_at": tweet.created_at.astimezone(timezone.utc).isoformat().replace("+00:00", "Z"),
        "text": tweet.text,
        "lang": tweet.lang,
        "user": {"id": tweet.user_id, "screen_name": tweet.user_name},
    }
    if tweet.group_tags:
        obj["group_tags"] = sorted(tweet.group_tags)
    if tweet.bot_flag is not None:
        obj["bot_flag"] = tweet.bot_flag
    return obj


def parse_record(line: str) -> RawTweet:
    """Parse one JSONL corpus line.

    Raises ParseError (with the byte offset of the failure) for malformed
    JSON and SchemaError (naming the field) for structural violations.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        offset = len(line[: exc.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON: {exc.msg}", offset) from exc
    if not isinstance(obj, dict):
        raise SchemaError("record", "expected a JSON object, not")
    return tweet_from_obj(obj)


def iter_corpus(path) -> Iterator[RawTweet]:
    """Stream-parse a JSONL corpus file, skipping blank lines."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                yield parse_record(line)
            except PipelineError as exc:
                raise CorpusFileError(f"{path}:{lineno}: {exc}") from exc


def read_corpus(path) -> list[RawTweet]:
    return list(iter_corpus(path))


def load_keywords(path) -> KeywordSet:
    """One lowercase keyword per line; blank lines ignored."""
    with open(path, encoding="utf-8") as fh:
        words = frozenset(line.strip().lower() for line in fh if line.strip())
    if not words:
        raise PipelineError(f"keyword file {path} contains no keywords")
    return KeywordSet(words)


def load_accounts(path) -> frozenset[str]:
    """One screen_name per line; blank lines ignored."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


_TOKEN_RE = re.compile(r"[^\W_]+")


def matches_keywords(text: str, keywords: KeywordSet) -> bool:
    """True iff any keyword equals a whole token of the lowercased text.

    Tokens are maximal alphanumeric runs, so a leading '#' never reaches the
    comparison and substrings ("china" in "chinatown") never match.
    """
    kws = keywords.keywords
    for token in _TOKEN_RE.findall(text.lower()):
        if token in kws:
            return True
    return False


def lang_matches(tag: str, want: str) -> bool:
    """Case-insensitive tag match; a bare primary subtag matches its variants."""
    tag = tag.lower()
    want = want.lower()
    if tag == want:
        return True
    return "-" not in want and tag.split("-", 1)[0] == want


def _sample_key(seed: int, day: date, tweet_id: str) -> int:
    return stable_hash64(seed, f"sample|{day.isoformat()}|{tweet_id}")


def sample_daily(tweets: Iterable[RawTweet], rate: float, seed: int) -> list[RawTweet]:
    """Keep floor(rate*n + 0.5) tweets per UTC day, deterministically.

    Selection ranks each day's tweets by a keyed hash of (seed, day, id) and
    keeps the smallest keys, so reruns and re-shardings select the same set
    without any RNG state. Input order is preserved in the output.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    tweets = list(tweets)
    by_day: dict[date, list[RawTweet]] = {}
    for t in tweets:
        by_day.setdefault(t.day, []).append(t)
    keep: set[str] = set()
    for day, group in by_day.items():
        k = math.floor(rate * len(group) + 0.5)
        if k >= len(group):
            keep.update(t.id for t in group)
        elif k > 0:
            ranked = sorted(group, key=lambda t: (_sample_key(seed, day, t.id), t.id))
            keep.update(t.id for t in ranked[:k])
    return [t for t in tweets if t.id in keep]


def apply_filters(tweets: Iterable[RawTweet], spec: FilterSpec) -> list[RawTweet]:
    """Language, date-range, keyword, and account filters, then daily sampling."""
    accounts = None if spec.accounts is None else {a.lower() for a in spec.accounts}
    survivors = []
    for t in tweets:
        if not lang_matches(t.lang, spec.lang):
            continue
        day = t.day
        if day < spec.date_start or day > spec.date_end:
            continue
        if not matches_keywords(t.text, spec.keywords):
            continue
        if accounts is not None and t.user_name.lower() not in accounts:
            continue
        survivors.append(t)
    return sample_daily(survivors, spec.sample_rate, spec.seed)


def merge_shards(shards: Sequence[Sequence[RawTweet]]) -> list[RawTweet]:
    """Deterministic merge of shard outputs in (created_at, id) order."""
    merged = [t for shard in shards for t in shard]
    merged.sort(key=lambda t: (t.created_at, t.id))
    return merged


def write_corpus(path, tweets: Iterable[RawTweet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in tweets:
            fh.write(json.dumps(tweet_to_obj(t), ensure_ascii=False) + "\n")
