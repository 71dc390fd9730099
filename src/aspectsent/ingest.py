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
where `tweets = list(iter_corpus(path))`. On a corpus longer than
CHUNK_BYTES, pass 1 runs in forked workers, up to one per CPU, each holding
one range of whole lines at a time; the parent merges their entries in file
order and samples them as `apply_filters` does. `map_ranges` is that fork
helper, and hashed `infer` is its other caller; `map_tasks`, on the same fork
core (`_forked`), runs remote-provider `infer`.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import re
import signal
import stat
from contextlib import closing, suppress
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import partial
from itertools import compress, islice
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence, TypeVar

import numpy as np

from .errors import PipelineError
from .files import (LineError, LoneSurrogateError, json_object, split_lines, text_lines,
                    write_jsonl)
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


# A corpus of more than one range runs in forked workers (`map_ranges`). On a
# 2-core Xeon, 256 KiB ranges cut the benchmark's 2.6 MB infer corpus into 10
# ranges, where 1 MiB ones gave 3 and left one worker 1.6 MB of it; ingest's
# pass 1 over a 26 MB dump took about 5% less time at 256 KiB than at 1 MiB.
CHUNK_BYTES = 1 << 18


def _ranges(path) -> list[tuple[int, int]]:
    """`path` cut into (start, end) byte ranges of at least CHUNK_BYTES, the
    last excepted, each ending just after a b"\\n" or at the end of the file."""
    ranges = []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = 0
        while start < size or not ranges:
            fh.seek(min(start + CHUNK_BYTES - 1, size))
            while (piece := fh.readline(1 << 16)) and not piece.endswith(b"\n"):
                pass  # a line read in pieces, so a run without b"\n" is never held whole
            ranges.append((start, fh.tell()))
            start = fh.tell()
    return ranges


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


R = TypeVar("R")
Lines = list[tuple[int, str]]  # the non-blank lines of a range, numbered within it from 1

# The ranges a worker may have queued or in hand: a range goes to its worker as a
# few dozen bytes, so this many always fit in its pipe.
_RANGES_AHEAD = 8


class _Fault(NamedTuple):
    """A worker's report of the first bad line of a range, numbered within the range."""

    line: int
    detail: str


class _Failed(NamedTuple):
    """A worker's report of the PipelineError that its job raised on a task."""

    message: str


def map_ranges(path, name, job: Callable[[Lines], R], what: str) -> Iterator[R] | None:
    """`job` of each range of whole lines of the file `path`, run in forked
    workers and yielded in file order; None where this process should read
    `path` itself.

    `path` is cut into ranges of at least CHUNK_BYTES, and `_forked` deals
    them to `min(CPUs this process may run on, ranges)` workers. A worker reads
    and decodes a range at once, as `files.split_lines` does, and gives `job`
    its numbered lines. A `LineError` of a range (from the decode or from
    `job`) is raised here at its line of the file, so the first bad line of
    the file is the one reported. None for a file that is not regular (a
    pipe), of one range, on a host of one CPU or without `os.fork`.
    """
    if not hasattr(os, "fork") or not stat.S_ISREG(os.stat(path).st_mode):
        return None
    ranges = _ranges(path)
    workers = min(_cpus(), len(ranges))
    if workers < 2:
        return None
    return _in_file_order(path, name, job, what, ranges, workers)


def _in_file_order(path, name, job: Callable[[Lines], R], what: str,
                   ranges: list[tuple[int, int]], workers: int) -> Iterator[R]:
    """The iterator of `map_ranges`."""
    with open(path, "rb") as corpus:
        replies = _forked(([r] for r in ranges), partial(_range_job, corpus.fileno(), job, name),
                          name, what, workers, _RANGES_AHEAD)
        with closing(replies):
            lines = 0  # of the ranges before this one, blank ones included
            for reply in replies:
                if isinstance(reply, _Fault):
                    raise LineError(name, lines + reply.line, reply.detail)
                line_count, result = reply
                lines += line_count
                yield result


def _range_job(corpus: int, job: Callable[[Lines], R], name, pieces: Iterator
               ) -> tuple[int, R] | _Fault:
    """In a worker: the line count and `job` result of the range that is the one
    piece of its task, in the file open as descriptor `corpus`, or the `_Fault`
    of its first bad line."""
    start, end = next(pieces)
    try:
        lines, line_count = split_lines(os.pread(corpus, end - start, start), name)
        return line_count, job(lines)
    except LineError as exc:
        return _Fault(exc.line, exc.detail)


def map_tasks(tasks: Iterable[Iterable], job: Callable[[Iterator], R], name, what: str
              ) -> Iterator[R] | None:
    """`job` of each of `tasks`, run in forked workers with one task each in
    flight, and yielded in order; None on a host of one CPU or without
    `os.fork`, where this process should run the tasks itself.

    A task is an iterable of pieces, which `_forked` takes one at a time as it
    writes them to the task's worker: a task may be far larger than what this
    process holds of it. `name` and `what` name a worker that dies.
    """
    workers = _cpus() if hasattr(os, "fork") else 1
    if workers < 2:
        return None
    return _forked(tasks, job, name, what, workers, 1)


def _forked(tasks: Iterable[Iterable], job: Callable[[Iterator], R], name, what: str,
            workers: int, ahead: int) -> Iterator[R]:
    """`job` of each task, run in forked workers and yielded in task order: the
    fork core of `map_ranges` (ingest's pass 1 and hashed `infer`) and of
    `map_tasks` (remote-provider `infer`).

    Task `j` goes to worker `j % workers`, which is forked when its first task
    comes. This process writes each piece of a task to the worker's pipe as it
    takes it from the task, then None; the worker reads a whole task before it
    runs `job` over an iterator of its pieces, so a slow job never holds up the
    writing. Task `j` is written only once the result of task
    `j - ahead * workers` has been read, and a worker writes its results in
    order, so no worker blocks writing a result while this process blocks
    writing that worker a task, if `ahead` tasks fit in a pipe; at `ahead` 1,
    tasks may have any size.

    Results come back through one pipe per worker. A PipelineError raised by
    `job` is raised here in its task's place; a worker that dies is `<name>: an
    <what> worker stopped before its result (exit status <n>)`. A PipelineError
    met taking a task from `tasks` is raised after the result of every earlier
    task. One met taking a piece is raised as well, and it also goes to the
    worker in that piece's place, so that `job` reaches the pieces before it
    first. Close the iterator (`contextlib.closing`) to stop early: every
    worker is killed and reaped on every path. Forking is safe only while no
    other thread of the caller holds a lock; the CLI runs none.
    """
    pids: list[int] = []
    sends: list[BinaryIO] = []  # this process's end of each worker's task pipe
    replies: list[BinaryIO] = []
    sent = done = 0  # tasks written, results read

    def result():
        nonlocal done
        pid = pids[done % workers]
        try:
            reply = pickle.load(replies[done % workers])
        except (EOFError, pickle.UnpicklingError):
            pids.remove(pid)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise PipelineError(f"{name}: an {what} worker stopped before its result "
                                f"(exit status {status})") from None
        done += 1
        if isinstance(reply, _Failed):
            raise PipelineError(reply.message)
        return reply

    failure = None
    tasks = iter(tasks)
    try:
        while failure is None:
            try:
                task = next(tasks)
            except StopIteration:
                break
            except PipelineError as exc:  # a bad corpus line, say
                failure = exc
                break
            while done <= sent - ahead * workers:
                yield result()
            k = sent % workers
            if k == len(pids):  # its first task: fork the worker
                (task_r, task_w), (reply_r, reply_w) = os.pipe(), os.pipe()
                sends.append(open(task_w, "wb"))
                replies.append(open(reply_r, "rb"))
                with open(task_r, "rb") as tasks_in, open(reply_w, "wb") as out:  # the child's ends
                    pid = os.fork()
                    if pid == 0:
                        _worker(tasks_in, out, job, sends + replies)
                    pids.append(pid)
            sent += 1
            try:
                failure = _send(task, sends[k])
            except BrokenPipeError:  # the worker has died: reading its result says so
                break
        while done < sent:
            yield result()
        if failure is not None:
            raise failure
    finally:  # on every path, so no worker outlives this call
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pipe in sends + replies:
            with suppress(BrokenPipeError):  # a task cut short leaves bytes to flush
                pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _send(task: Iterable, out: BinaryIO) -> PipelineError | None:
    """Write each piece of `task` to `out`, holding one at a time, then None. A
    PipelineError met taking a piece is written in its place and returned."""
    error = None
    try:
        for piece in task:
            pickle.dump(piece, out, pickle.HIGHEST_PROTOCOL)
            del piece  # before the next is taken: it may be as large
    except PipelineError as exc:
        error = exc
        pickle.dump(PipelineError(str(exc)), out, pickle.HIGHEST_PROTOCOL)
    pickle.dump(None, out)
    out.flush()
    return error


def _worker(tasks_in: BinaryIO, out: BinaryIO, job: Callable[[Iterator], R],
            inherited: list[BinaryIO]) -> NoReturn:
    """A forked worker: for each task read from `tasks_in`, its `job` result or
    `_Failed`, pickled to `out` in order, until `tasks_in` ends. It leaves only
    through `os._exit`, so it never unwinds into its caller's code (which would,
    say, remove the outputs staged by an open `files.committed()` block)."""
    code = 1
    try:
        for pipe in inherited:  # the parent's ends: so a write fails once the parent has gone
            os.close(pipe.fileno())  # not `close()`, which would flush the parent's buffer here
        while True:
            try:
                pieces = list(iter(partial(pickle.load, tasks_in), None))
            except EOFError:  # no more tasks
                break
            try:
                reply = job(raising(pieces))
            except PipelineError as exc:
                reply = _Failed(str(exc))
            pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
            out.flush()
            del pieces, reply  # before the next task is read
        code = 0
    except Exception:  # a bug: show it here; the parent reports the lost worker
        import traceback

        traceback.print_exc()
    finally:  # KeyboardInterrupt too
        os._exit(code)


def raising(items: Iterable) -> Iterator:
    """`items` in order; a PipelineError among them is raised in its place."""
    for item in items:
        if isinstance(item, PipelineError):
            raise item
        yield item


class _Part(NamedTuple):
    """What a worker sends back of pass 1 over one range: its survivors as
    columns, numbered within the range, and its counts."""

    tally: dict[str, int]  # each record of the range not among the survivors, once
    records: list[int]
    days: list[int]  # date ordinals
    ids: list[str]


def _filter_range(lines: Lines, rejection, name) -> _Part:
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
    tweet of each from a second read. Pass 1 runs through `map_ranges`: in
    forked workers, each holding one range of whole lines at a time, whose
    entries this process merges in file order and samples once. Where
    `map_ranges` forks nothing (one range, one CPU, no `os.fork`), pass 1 is
    `apply_filters(iter_corpus(path, name), spec, counts)` in this process.
    Output, counts and errors are the same either way, but for one case: a
    worker decodes a whole range first, so a byte that is not UTF-8 is
    reported ahead of an earlier bad line of its range. `path` must be a
    regular file that stays unchanged until this returns; errors call it
    `name` (default: `path`). Returns the INGEST_COUNTS of `apply_filters`.
    """
    name = path if name is None else name
    counts: dict[str, int] = {}
    parts = map_ranges(path, name, partial(_filter_range, rejection=_rejection(spec), name=name),
                       "ingest")
    if parts is None:
        kept = apply_filters(iter_corpus(path, name), spec, counts)
    else:
        with closing(parts):
            kept = _merged(parts, spec, counts)
    write_corpus(out_path, _rebuild(path, kept, name))
    return counts


def write_corpus(path, tweets: Iterable[RawTweet]) -> None:
    write_jsonl(path, map(tweet_to_obj, tweets))
