"""The fork core: a job run over each task, in order, in forked workers or here.

`map_ranges` runs a job over each range of whole lines of a file longer than
CHUNK_BYTES, and `map_tasks` over each task of an iterable. Ingest's pass 1 and
hashed `infer` run on `map_ranges`, and remote `infer` on `map_tasks`;
`_forked`, their one core, alone decides whether a task's job runs in a forked
worker (up to one per CPU) or in this process. Nothing here knows what a line
or a task holds: the package modules it imports are `errors` and `files`.
"""

from __future__ import annotations

import os
import pickle
import signal
import stat
from contextlib import closing, suppress
from functools import partial
from itertools import chain, islice
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, NoReturn, TypeVar

from .errors import PipelineError
from .files import LineError, line_count, text_lines


# A corpus of more than one range runs a range at a time (`map_ranges`). On a
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
Lines = Iterator[tuple[int, str]]  # an iterator of a range's non-blank lines, numbered from 1

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
    """`job` of each range of whole lines of the file `path`, yielded in file
    order through `_forked`; None for a file that is not regular (a pipe) or
    is one range, which this process should read itself.

    `path` is cut into ranges of at least CHUNK_BYTES. Whichever process runs
    a range's job reads the range and gives `job` its `files.text_lines`, which
    `job` reads to the end. The first `LineError` of a range (from the reader
    or from `job`) is raised here at its line of the file, so the first bad
    line of the file is the one reported. None also on a platform without
    `os.pread`, which reads a range.
    """
    if not hasattr(os, "pread") or not stat.S_ISREG(os.stat(path).st_mode):
        return None
    ranges = _ranges(path)
    return _in_file_order(path, name, job, what, ranges) if len(ranges) > 1 else None


def _in_file_order(path, name, job: Callable[[Lines], R], what: str,
                   ranges: list[tuple[int, int]]) -> Iterator[R]:
    """The iterator of `map_ranges`."""
    with open(path, "rb") as corpus:
        replies = _forked(([r] for r in ranges), partial(_range_job, corpus.fileno(), job, name),
                          name, what, _RANGES_AHEAD)
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
    """The line count and `job` result of the range that is the one piece of
    its task, in the file open as descriptor `corpus`, or the `_Fault` of its
    first bad line."""
    start, end = next(pieces)
    data = os.pread(corpus, end - start, start)
    try:
        return line_count(data), job(text_lines(data, name))
    except LineError as exc:
        return _Fault(exc.line, exc.detail)


def map_tasks(tasks: Iterable[Iterable], job: Callable[[Iterator], R], name, what: str
              ) -> Iterator[R]:
    """`job` of each of `tasks`, yielded in order through `_forked`, with one
    task each in flight to a worker.

    A task is an iterable of pieces, which `_forked` takes one at a time as it
    writes them to the task's worker: a task may be far larger than what this
    process holds of it. `name` and `what` name a worker that dies.
    """
    return _forked(tasks, job, name, what, 1)


def _forked(tasks: Iterable[Iterable], job: Callable[[Iterator], R], name, what: str,
            ahead: int) -> Iterator[R]:
    """`job` of each task, yielded in task order: the core of `map_ranges` and
    `map_tasks`, and the one place that decides whether to fork. It forks once
    a second task comes, given `os.fork` and two CPUs or more for this process;
    else it runs `job(iter(task))` here, task by task, as they are taken.

    Task `j` goes to worker `j % n`, for `n` the CPUs this process may run on,
    which is forked when its first task comes. This process writes each piece
    of a task to the worker's pipe as it takes it from the task, then None; the
    worker reads a whole task before it runs `job` over an iterator of its
    pieces, so a slow job never holds up the writing. Task `j` is written only
    once the result of task `j - ahead * n` has been read, and a worker writes
    its results in order, so no worker blocks writing a result while this
    process blocks writing that worker a task, if `ahead` tasks fit in a pipe;
    at `ahead` 1, tasks may have any size.

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
    workers = _cpus() if hasattr(os, "fork") else 1
    tasks = _taken(tasks)
    head = list(islice(tasks, min(workers, 2)))
    tasks = chain(head, tasks)
    if len(head) < 2 or isinstance(head[1], PipelineError):  # no second task, or no workers
        for task in _raising(tasks):
            yield job(iter(task))
        return
    pids: list[int] = []
    sends: list[BinaryIO] = []  # this process's end of each worker's task pipe
    replies: list[BinaryIO] = []
    sent = done = 0  # tasks written, results read
    failure = None

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

    try:
        for task in tasks:
            if isinstance(task, PipelineError):  # a bad corpus line, say
                failure = task
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
            if failure is not None:
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


def _taken(tasks: Iterable) -> Iterator:
    """`tasks` in order, then the PipelineError met taking one, if any."""
    try:
        yield from tasks
    except PipelineError as exc:
        yield exc


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
                reply = job(_raising(pieces))
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


def _raising(items: Iterable) -> Iterator:
    """`items` in order; a PipelineError among them is raised in its place."""
    for item in items:
        if isinstance(item, PipelineError):
            raise item
        yield item
