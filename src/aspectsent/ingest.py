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
output. Pass 1 and sampling together hold about 240 bytes per survivor.
The corpus must therefore be a regular file that does not change between
the passes. Pass 2 checks only the id and UTC day of each kept record: a
record that is missing or differs in either raises `PipelineError`, while
other edits to it go unnoticed. The output is byte-identical to writing
`tweets[s.record]` for each entry `s` of `apply_filters(tweets, spec)`,
where `tweets = list(iter_corpus(path))`. On a corpus of more than one range,
pass 1 runs on `workers.map_ranges`, whose entries this process merges in file
order and samples as `apply_filters` does.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import closing
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import partial
from itertools import compress, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from . import workers
from .errors import PipelineError
from .files import LineError, LoneSurrogateError, json_object, text_lines, write_jsonl
from .hashing import stable_hash64, stable_hash64_lines


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
    tags = obj.get("group_tags")  # absent or null is no tags; false, 0, "" and {} are errors
    if tags is None:
        tags = ()
    elif not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
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
    JSON and SchemaError (naming the field) for structural violations and for
    a string that holds a lone UTF-16 surrogate (such as `"\\ud800"`).
    """
    try:
        obj = json_object(line)
    except json.JSONDecodeError as exc:
        offset = len(line[: exc.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON: {exc.msg}", offset) from exc
    except ValueError as exc:  # valid JSON, but not an object
        raise SchemaError("record", str(exc)) from None
    except LoneSurrogateError as exc:
        raise SchemaError(exc.path, "lone UTF-16 surrogate in") from None
    return tweet_from_obj(obj)


def iter_corpus(path, name=None) -> Iterator[RawTweet]:
    """Stream-parse a JSONL corpus file, skipping blank lines.

    Errors name the line, and call the file `name` (default: `path`).
    """
    name = path if name is None else name
    return parse_lines(text_lines(path, name), name)


def parse_lines(lines: Iterable[tuple[int, str]], name) -> Iterator[RawTweet]:
    """`parse_record` of each numbered line; a bad one is a LineError naming it."""
    for lineno, line in lines:
        try:
            yield parse_record(line)
        except PipelineError as exc:
            raise LineError(name, lineno, str(exc)) from exc


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
    names = frozenset(line.strip() for _, line in text_lines(path))
    if not names:
        raise PipelineError(f"account file {path} contains no accounts")
    return names


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


# One `stable_hash64_lines` call makes a numpy pass per byte of the longest
# payload, as `stable_hash64` makes a Python step per byte of each, so one call
# costs about as much as this many scalar keys (120 µs against 4.6 µs a key for
# 37-byte payloads on a 2-core Xeon); smaller days are hashed one key at a time.
_BATCH_MIN_KEYS = 26


def _sample_ranking(seed: int, day: date, ids: list[str]) -> np.ndarray:
    """The indices of `ids` ordered by sample key, then id, then index."""
    prefix = f"sample|{day.isoformat()}|"
    blob = (prefix + ("\n" + prefix).join(ids)).encode("utf-8")
    # in UTF-8 only "\n" holds the byte 0x0A, so any 0x0A beyond the n - 1
    # separators comes from an id that holds "\n" and would split its line
    if len(ids) >= _BATCH_MIN_KEYS and blob.count(b"\n") == len(ids) - 1:
        keys = stable_hash64_lines(seed, blob)
    else:
        keys = np.array([stable_hash64(seed, prefix + i) for i in ids], dtype=np.uint64)
    order = np.argsort(keys, kind="stable")  # equal keys stay in index order
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():  # a repeated id, or a collision: rank by id too
        keys = keys.tolist()
        order = np.array(sorted(range(len(ids)), key=lambda i: (keys[i], ids[i])))
    return order


def sample_daily(items: Iterable[T], rate: float, seed: int) -> list[T]:
    """Keep floor(rate*n + 0.5) of each UTC day's n items, deterministically.

    Items are anything with `.day` and `.id`: tweets, or `Survivor` entries.
    Selection ranks each day's items by a keyed hash of (seed, day, id), then
    by id, then by position, and keeps the smallest, so reruns and
    re-shardings select the same set without any RNG state. Items are kept by
    position, so an id that also appears elsewhere is not kept along with its
    twin, and every day keeps exactly its quota. Input order is preserved.

    The key of an id is `stable_hash64(seed, f"sample|{day}|{id}")`. As the
    hashed encoder does with a chunk's n-grams, the keys of a day come from
    one `stable_hash64_lines` call over its "\\n"-joined payloads. A day with
    an id that holds "\\n", or with fewer than `_BATCH_MIN_KEYS` items, is
    hashed with `stable_hash64`, one key at a time, to the same keys.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    items = list(items)
    by_day: dict[date, list[int]] = {}
    for pos, item in enumerate(items):
        by_day.setdefault(item.day, []).append(pos)
    keep = np.zeros(len(items), dtype=bool)
    for day, positions in by_day.items():
        k = math.floor(rate * len(positions) + 0.5)
        if k == 0:
            continue
        if k < len(positions):
            order = _sample_ranking(seed, day, [items[p].id for p in positions])
            positions = np.array(positions)[order[:k]]
        keep[positions] = True
    return list(compress(items, keep.tolist()))


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
    tally = dict.fromkeys(INGEST_COUNTS, 0)
    return _sampled(_survivors(tweets, _rejection(spec), tally), tally, spec, counts)


def _survivors(tweets: Iterable[RawTweet], rejection, tally: dict[str, int]) -> list[Survivor]:
    """The `Survivor` entry of each tweet that `rejection` passes, numbered by
    position in `tweets`; each other tweet counts in `tally` under its filter."""
    days: dict[date, date] = {}
    survivors = []
    for pos, t in enumerate(tweets):
        failed = rejection(t)
        if failed is None:
            day = t.day
            survivors.append(Survivor(pos, days.setdefault(day, day), t.id))
        else:
            tally[f"rejected_{failed}"] += 1
    return survivors


def _sampled(survivors: list[Survivor], tally: dict[str, int], spec: FilterSpec,
             counts: dict[str, int] | None) -> list[Survivor]:
    """The daily sample of `survivors`, with the INGEST_COUNTS filled into `counts`."""
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


class _Part(NamedTuple):
    """What a worker sends back of pass 1 over one range: its survivors as
    columns, numbered within the range, and its counts."""

    tally: dict[str, int]  # each record of the range not among the survivors, once
    records: list[int]
    days: list[int]  # date ordinals
    ids: list[str]


def _filter_range(lines: workers.Lines, rejection, name) -> _Part:
    """Pass 1 over the numbered lines of one range."""
    tally = dict.fromkeys(INGEST_COUNTS, 0)
    survivors = _survivors(parse_lines(lines, name), rejection, tally)
    return _Part(tally, [s.record for s in survivors], [s.day.toordinal() for s in survivors],
                 [s.id for s in survivors])


def _merged(parts: Iterable[_Part], spec: FilterSpec, counts: dict[str, int]) -> list[Survivor]:
    """`apply_filters` of a corpus from the `_Part` of each of its ranges, in file order."""
    tally = dict.fromkeys(INGEST_COUNTS, 0)
    survivors: list[Survivor] = []
    days: dict[int, date] = {}
    records = 0
    for part in parts:
        for key, n in part.tally.items():
            tally[key] += n
        for ordinal in set(part.days).difference(days):
            days[ordinal] = date.fromordinal(ordinal)
        survivors += map(Survivor, [records + r for r in part.records],
                         map(days.__getitem__, part.days), part.ids)
        records += sum(part.tally.values()) + len(part.ids)
    return _sampled(survivors, tally, spec, counts)


def ingest_file(path, spec: FilterSpec, out_path, name=None) -> dict[str, int]:
    """Filter and sample the corpus file `path` into `out_path` in two passes.

    Holds only the `Survivor` entries of `apply_filters`, then writes the
    tweet of each from a second read. Pass 1 runs through `workers.map_ranges`,
    one range of whole lines at a time (in forked workers where it forks),
    whose entries this process merges in file order and samples once. For a
    corpus of one range, pass 1 is `apply_filters(iter_corpus(path, name),
    spec, counts)`. Output, counts and errors are the same either way: the
    first bad line of the file is the error. `path` must be a regular file
    that stays unchanged until this returns; errors call it `name` (default:
    `path`). Returns the INGEST_COUNTS of `apply_filters`.
    """
    name = path if name is None else name
    counts: dict[str, int] = {}
    parts = workers.map_ranges(path, name, partial(_filter_range, rejection=_rejection(spec),
                                                   name=name), "ingest")
    if parts is None:
        kept = apply_filters(iter_corpus(path, name), spec, counts)
    else:
        with closing(parts):
            kept = _merged(parts, spec, counts)
    write_corpus(out_path, _rebuild(path, kept, name))
    return counts


def write_corpus(path, tweets: Iterable[RawTweet]) -> None:
    write_jsonl(path, map(tweet_to_obj, tweets))
