"""Corpus ingestion: JSONL parsing, predicate filtering, deterministic sampling.

Input records are one JSON object per line with fields `id`, `created_at`
(ISO-8601), `text`, `lang`, `user.id`, `user.screen_name`, and optional
`group_tags` (array of strings) and `bot_flag` (boolean). Timestamps are
normalized to UTC and all date bucketing uses the UTC calendar day.

`apply_filters` parses and schema-checks every record and keeps, for each
one that passes the lang/date/keyword/account filters, only a `Survivor`
entry (record number, UTC day, id), never the tweet; `sample_daily` then
picks among the entries. `ingest_file` writes a corpus file's kept records
in two passes: pass 1 is `apply_filters` over `iter_corpus`, and pass 2
re-reads the file, rebuilds just the kept records and streams them to the
output. Pass 1 and sampling together hold about 230 bytes per survivor.
The corpus must therefore be a regular file that does not change between
the passes. Pass 2 checks only the id and UTC day of each kept record: a
record that is missing or differs in either raises `PipelineError`, while
other edits to it go unnoticed. The output is byte-identical to writing
`tweets[s.record]` for each entry `s` of `apply_filters(tweets, spec)`,
where `tweets = list(iter_corpus(path))`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import PipelineError
from .files import json_object, text_lines, write_jsonl
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
        if not isinstance(self.lang, str):
            raise TypeError("lang must be a string")
        if self.date_start > self.date_end:
            raise ValueError("date_start must be <= date_end")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if not 0 <= self.seed < 2**64:  # the hash folds a seed mod 2**64
            raise ValueError("seed must be in 0..2**64-1")


_STR_FIELDS = ("id", "created_at", "text", "lang")


def _parse_instant(value) -> datetime:
    if not isinstance(value, str):
        raise SchemaError("created_at", "expected ISO-8601 string for")
    text = value[:-1] + "+00:00" if value.endswith("Z") else value
    try:
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:  # OverflowError: off the UTC calendar
        raise SchemaError("created_at", f"unparsable timestamp {value!r} in") from exc


def tweet_from_obj(obj: dict) -> RawTweet:
    """Build a RawTweet from a decoded JSON object, validating the schema."""
    # every record of a corpus passes through here, some twice: keep it lean
    for name in _STR_FIELDS:
        if not isinstance(obj.get(name), str):
            if name not in obj:
                raise SchemaError(name)
            raise SchemaError(name, "expected string for")
    user = obj.get("user")
    if user is None:
        raise SchemaError("user")
    if not isinstance(user, dict):
        raise SchemaError("user", "expected object for")
    for name in ("id", "screen_name"):
        if not isinstance(user.get(name), str):
            raise SchemaError(f"user.{name}")
    tags = obj.get("group_tags") or ()
    if tags and (not isinstance(tags, (list, tuple))
                 or not all(isinstance(t, str) for t in tags)):
        raise SchemaError("group_tags", "expected array of strings for")
    bot = obj.get("bot_flag")
    if bot is not None and not isinstance(bot, bool):
        raise SchemaError("bot_flag", "expected boolean for")
    # positional, in field order: keyword arguments cost about 1 µs a record
    return RawTweet(obj["id"], _parse_instant(obj["created_at"]), obj["text"], obj["lang"],
                    user["id"], user["screen_name"], frozenset(tags), bot)


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
        obj = json_object(line)
    except json.JSONDecodeError as exc:
        offset = len(line[: exc.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON: {exc.msg}", offset) from exc
    except ValueError as exc:  # valid JSON, but not an object
        raise SchemaError("record", str(exc)) from None
    return tweet_from_obj(obj)


def iter_corpus(path, name=None) -> Iterator[RawTweet]:
    """Stream-parse a JSONL corpus file, skipping blank lines.

    Errors name the line, and call the file `name` (default: `path`).
    """
    name = path if name is None else name
    for lineno, line in text_lines(path, name):
        try:
            yield parse_record(line)
        except PipelineError as exc:
            raise CorpusFileError(f"{name}:{lineno}: {exc}") from exc


def read_corpus(path) -> list[RawTweet]:
    return list(iter_corpus(path))


def load_keywords(path) -> KeywordSet:
    """One lowercase keyword per line; blank lines ignored."""
    words = frozenset(line.strip().lower() for _, line in text_lines(path))
    if not words:
        raise PipelineError(f"keyword file {path} contains no keywords")
    return KeywordSet(words)


def load_accounts(path) -> frozenset[str]:
    """One screen_name per line; blank lines ignored."""
    return frozenset(line.strip() for _, line in text_lines(path))


_TOKEN_RE = re.compile(r"[^\W_]+")


def matches_keywords(text: str, keywords: KeywordSet) -> bool:
    """True iff any keyword equals a whole token of the lowercased text.

    Tokens are maximal alphanumeric runs, so a leading '#' never reaches the
    comparison and substrings ("china" in "chinatown") never match.
    """
    kws = keywords.keywords
    # No whitespace character is alphanumeric, so no token spans a split
    # point, and a chunk that is all alphanumeric is one whole token; only
    # the other chunks need the regex (half the cost on typical tweets).
    for chunk in text.lower().split():
        if chunk.isalnum():
            if chunk in kws:
                return True
        elif not kws.isdisjoint(_TOKEN_RE.findall(chunk)):
            return True
    return False


def lang_matches(tag: str, want: str) -> bool:
    """Case-insensitive tag match; a bare primary subtag matches its variants."""
    tag = tag.lower()
    want = want.lower()
    if tag == want:
        return True
    return "-" not in want and tag.split("-", 1)[0] == want


T = TypeVar("T")


def _sample_key(seed: int, day: date, tweet_id: str) -> int:
    return stable_hash64(seed, f"sample|{day.isoformat()}|{tweet_id}")


def sample_daily(items: Iterable[T], rate: float, seed: int) -> list[T]:
    """Keep floor(rate*n + 0.5) of each UTC day's n items, deterministically.

    Items are anything with `.day` and `.id`: tweets, or `Survivor` entries.
    Selection ranks each day's items by a keyed hash of (seed, day, id), then
    by id, then by position, and keeps the smallest, so reruns and
    re-shardings select the same set without any RNG state. Items are kept by
    position, so an id that also appears elsewhere is not kept along with its
    twin, and every day keeps exactly its quota. Input order is preserved.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    items = list(items)
    by_day: dict[date, list[int]] = {}
    for pos, item in enumerate(items):
        by_day.setdefault(item.day, []).append(pos)
    keep = [False] * len(items)
    for day, positions in by_day.items():
        k = math.floor(rate * len(positions) + 0.5)
        if k == 0:
            continue
        if k < len(positions):
            # sorted() is stable, so equal (key, id) pairs stay in position order
            ranked = sorted(positions, key=lambda p: (_sample_key(seed, day, items[p].id),
                                                      items[p].id))
            positions = ranked[:k]
        for pos in positions:
            keep[pos] = True
    return [item for item, kept in zip(items, keep) if kept]


def _rejection(spec: FilterSpec) -> Callable[[RawTweet], str | None]:
    """The filters of `spec` as one function: it names the first filter a
    tweet fails ("lang", "date", "keyword" or "account"), or returns None."""
    accounts = None if spec.accounts is None else {a.lower() for a in spec.accounts}

    def rejection(t: RawTweet) -> str | None:
        if not lang_matches(t.lang, spec.lang):
            return "lang"
        day = t.day
        if day < spec.date_start or day > spec.date_end:
            return "date"
        if not matches_keywords(t.text, spec.keywords):
            return "keyword"
        if accounts is not None and t.user_name.lower() not in accounts:
            return "account"
        return None

    return rejection


INGEST_COUNTS = ("records_read", "rejected_lang", "rejected_date", "rejected_keyword",
                 "rejected_account", "sampled_out", "kept")


class Survivor(NamedTuple):
    """What `apply_filters` holds of a tweet that passed the filters."""

    record: int  # position in the input: for a file, index among its non-blank lines
    day: date
    id: str


def apply_filters(tweets: Iterable[RawTweet], spec: FilterSpec,
                  counts: dict[str, int] | None = None) -> list[Survivor]:
    """Language, date-range, keyword, and account filters, then daily sampling.

    Each tweet that passes is held, sampled and returned as a `Survivor`
    entry, not as the tweet itself; the entries of one day share one `date`.
    `counts`, when given, is filled with the INGEST_COUNTS: each record read
    counts once among the other six, under the first filter it fails.
    """
    rejection = _rejection(spec)
    tally = dict.fromkeys(INGEST_COUNTS, 0)
    days: dict[date, date] = {}
    survivors = []
    for pos, t in enumerate(tweets):
        failed = rejection(t)
        if failed is None:
            day = t.day
            survivors.append(Survivor(pos, days.setdefault(day, day), t.id))
        else:
            tally[f"rejected_{failed}"] += 1
    kept = sample_daily(survivors, spec.sample_rate, spec.seed)
    if counts is not None:
        counts.update(tally, records_read=sum(tally.values()) + len(survivors),
                      sampled_out=len(survivors) - len(kept), kept=len(kept))
    return kept


def _reparse(line: str) -> RawTweet | None:
    try:
        return tweet_from_obj(json_object(line))
    except (ValueError, PipelineError):
        return None


def _rebuild(path, kept: Sequence[Survivor], name) -> Iterator[RawTweet]:
    """Pass 2: re-read `path` and yield the tweet of each kept entry, in file
    order. A kept record that no longer parses or has another id or day
    raises PipelineError; a record edited in any other way goes unnoticed."""
    records = text_lines(path, name)  # numbered as pass 1 numbered them
    done = 0
    for want in kept:
        lineno, line = next(islice(records, want.record - done, None), (None, None))
        done = want.record + 1
        tweet = None if line is None else _reparse(line)
        if tweet is None or tweet.id != want.id or tweet.day != want.day:
            where = name if lineno is None else f"{name}:{lineno}"
            raise PipelineError(f"{where}: corpus changed during ingest")
        yield tweet


def ingest_file(path, spec: FilterSpec, out_path, name=None) -> dict[str, int]:
    """Filter and sample the corpus file `path` into `out_path` in two passes.

    Holds only the `Survivor` entries of `apply_filters`, then writes the
    tweet of each from a second read. `path` must be a regular file that
    stays unchanged until this returns; errors call it `name` (default:
    `path`). Returns the INGEST_COUNTS of `apply_filters`.
    """
    name = path if name is None else name
    counts: dict[str, int] = {}
    kept = apply_filters(iter_corpus(path, name), spec, counts)
    write_corpus(out_path, _rebuild(path, kept, name))
    return counts


def write_corpus(path, tweets: Iterable[RawTweet]) -> None:
    write_jsonl(path, map(tweet_to_obj, tweets))
