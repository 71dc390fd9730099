"""Pipeline files: the one place that decides how stage files are read and written.

Readers see the non-blank lines of a UTF-8 file, numbered as text mode splits
them, and report the first line they cannot read (not UTF-8, not a JSON
object, a missing or wrong-typed field) as a `PipelineError` saying
`<path>:<line>: …`. `text_lines`, the one line reader, reads a file or the
bytes of a run of its lines by the same rule.
`json_object` is the one JSON decode of a pipeline file, and `field` the one
typed check of a record's field. `read_json` (a params or config file) takes
standard JSON only: no `NaN`, no infinity.
Writers fill a temp file beside each output, and `committed()` renames them
all into place, metas first, when its block ends: a failure in the block leaves
every previous output as it was and no partial file. CSV files use the excel
dialect (`\r\n` line ends).
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import re
import reprlib
import stat
import sys
from contextlib import contextmanager
from enum import EnumMeta
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import PipelineError

T = TypeVar("T")


class LineError(PipelineError):
    """A fault on a line of a file: `<name>:<line>: <detail>`."""

    def __init__(self, name, line: int, detail: str):
        super().__init__(f"{name}:{line}: {detail}")
        self.line = line
        self.detail = detail


def text_lines(source, name=None) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of UTF-8 text, split as text
    mode splits it: the file at the path `source`, or `source` itself if it is
    the bytes of a run of whole lines.

    A line that is not UTF-8 is a LineError, raised only after every line
    before it has been yielded. Errors call the text `name` (default: `source`).
    A regular file or bytes is decoded strictly, and read a second time, with
    undecodable bytes escaped, only to find the line of a byte that fails. Any
    other file (a pipe) can be read only once: it is read with undecodable
    bytes escaped, and a line that holds one is the error.
    """
    name = source if name is None else name
    if not isinstance(source, bytes) and not stat.S_ISREG(os.stat(source).st_mode):
        yield from _checked_lines(source, name)
        return
    read = 0  # lines read, blank ones included
    try:
        with _opened(source, "strict") as fh:
            for read, line in enumerate(fh, 1):
                if line.strip():
                    yield read, line
        return
    except UnicodeDecodeError as exc:  # the lines of the block that failed were not read
        reason = exc.reason
    with _opened(source, "surrogateescape") as fh:  # a lone surrogate is an undecodable byte
        for lineno, line in islice(enumerate(fh, 1), read, None):
            if _ESCAPED_BYTE.search(line):
                raise LineError(name, lineno, f"not valid UTF-8 ({reason})")
            if line.strip():
                yield lineno, line
    raise PipelineError(f"{name}: not valid UTF-8 ({reason})")  # changed since the first read


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _checked_lines(path, name) -> Iterator[tuple[int, str]]:
    """`text_lines` of a file that can be read only once, such as a pipe."""
    with _opened(path, "surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii() and _ESCAPED_BYTE.search(line):
                try:  # the reason a strict decode gives, for this line alone
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise LineError(name, lineno, f"not valid UTF-8 ({exc.reason})") from None
            if line.strip():
                yield lineno, line


def _opened(source, errors: str) -> io.TextIOWrapper:
    """`source` (a path, or bytes) open as UTF-8 text with universal newlines."""
    if isinstance(source, bytes):
        return io.TextIOWrapper(io.BytesIO(source), encoding="utf-8", errors=errors)
    return open(source, encoding="utf-8", errors=errors)


def line_count(data: bytes) -> int:
    """How many lines `text_lines(data)` reads, blank ones included: each ends
    at "\\n", "\\r" or "\\r\\n", or at the end of `data`."""
    ends = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
    return ends + (data[-1:] not in (b"\n", b"\r", b""))


class LoneSurrogateError(PipelineError):
    """A JSON string (a key or a value) holding a lone UTF-16 surrogate, such as
    `"\\ud800"`, which neither UTF-8 output nor a hash of UTF-8 bytes can encode.
    `path` is its key path: keys joined by dots, a list item named as its list."""

    def __init__(self, path: str):
        super().__init__(f"lone UTF-16 surrogate in: {path!r}")
        self.path = path


def json_object(text: str, decode: Callable[[str], object] = json.loads) -> dict:
    """The JSON object that is `text`; a JSONDecodeError if it does not decode, else
    a ValueError if it is not an object, else a LoneSurrogateError for its first
    string that holds a lone UTF-16 surrogate."""
    try:
        obj = decode(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    if "\\u" in text:  # text read as UTF-8 holds a lone surrogate only by a \u escape
        _reject_lone_surrogates(obj)
    return obj


_SURROGATE = re.compile("[\ud800-\udfff]")


def _reject_lone_surrogates(obj: dict) -> None:
    """Raise LoneSurrogateError for the first string of `obj`, in document order,
    that holds a lone surrogate (a valid pair decodes to one code point)."""
    stack: list[tuple[str, object]] = [("", obj)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, str):
            if _SURROGATE.search(value):
                raise LoneSurrogateError(path)
        elif isinstance(value, dict):
            for key, item in reversed(value.items()):
                sub = f"{path}.{key}" if path else key
                stack += ((sub, item), (sub, key))
        elif isinstance(value, list):
            stack += ((path, item) for item in reversed(value))


def _nonstandard(token: str):
    raise ValueError(f"{token} is not standard JSON")


def _finite(number: str) -> float:
    value = float(number)
    if not math.isfinite(value):
        raise ValueError(f"{number} is too large for a float")
    return value


# no value that `write_json` cannot write: no NaN or Infinity, nor a number that
# decodes to an infinite float
_STANDARD_JSON = json.JSONDecoder(parse_constant=_nonstandard, parse_float=_finite)


def read_json(path) -> dict:
    """The standard-JSON object that is the UTF-8 file `path`; ValueError if it is
    anything else."""
    with open(path, encoding="utf-8") as fh:
        return json_object(fh.read(), _STANDARD_JSON.decode)


def field(obj: dict, name: str, kind, optional: bool = False):
    """`obj[name]` checked against `kind`, or a PipelineError naming `name`.

    `kind` is a type, an Enum (its member is returned), a tuple of allowed
    values, `[kind]` (a list) or `{key kind: value kind}` (an object). With
    `optional`, a missing or null field is None. JSON has one number type:
    `float` takes an integer too (returned as a float), and `true` or `false`
    is not a number, for `int`, `float` or a tuple of numbers.
    """
    value = obj.get(name)
    if type(value) is kind:  # most fields of most records: no further call
        return value
    if value is None:
        if optional:
            return None
        raise PipelineError(f"{name}: {'null' if name in obj else 'missing'}, expected a value")
    try:
        return _checked(value, kind)
    except ValueError as exc:
        raise PipelineError(f"{name}: {exc}") from None


_MAX_FLOAT_INT = int(sys.float_info.max)  # the largest integer a float kind takes


def _checked(value, kind):
    if type(value) is kind:
        return value
    if isinstance(kind, EnumMeta):  # first: label fields are Enum-valued
        try:  # the lookup `kind(value)` makes first, without its call overhead
            return kind._value2member_map_[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            pass
        try:
            return kind(value)
        except ValueError:
            expected = "one of " + ", ".join(m.value for m in kind)
    elif isinstance(kind, tuple):
        if value in kind and not isinstance(value, bool):  # True == 1
            return value
        expected = "one of " + ", ".join(map(str, kind))
    elif isinstance(kind, list):
        if isinstance(value, list):
            return [_checked(v, kind[0]) for v in value]
        expected = "a list"
    elif isinstance(kind, dict):
        if isinstance(value, dict):
            [(key_kind, value_kind)] = kind.items()
            return {_checked(k, key_kind): _checked(v, value_kind) for k, v in value.items()}
        expected = "an object"
    elif kind is float and type(value) is int and abs(value) <= _MAX_FLOAT_INT:
        return float(value)
    elif isinstance(value, kind) and not isinstance(value, bool):  # a bool is an int
        return value
    else:
        expected = kind.__name__
    raise ValueError(f"expected {expected}, got {reprlib.repr(value)}")


def settings(obj: dict, declared: dict, section: str) -> dict:
    """Every setting of `declared` (key -> (kind, default)), from `obj` or its default.

    A key of `obj` that is not declared, or a value not of its key's kind, is
    a PipelineError saying `<section>.<key>: …`. A setting whose default is
    None may be null.
    """
    for key in obj:
        if key not in declared:
            raise PipelineError(f"{section}.{key}: unknown setting, expected one of "
                                f"{', '.join(declared)}")
    try:
        return {key: field(obj, key, kind, optional=default is None) if key in obj else default
                for key, (kind, default) in declared.items()}
    except PipelineError as exc:  # `field` names the key
        raise PipelineError(f"{section}.{exc}") from None


def read_jsonl(path, convert: Callable[[dict], T], what: str) -> Iterator[T]:
    """`convert(obj)` for the JSON object on each non-blank line of `path`.

    A line that is not a JSON object, or that `convert` rejects with a
    PipelineError or ValueError, raises PipelineError("<path>:<line>: bad
    <what> record: ..."). Any other exception propagates: converters report
    bad input through `field`, so it is a bug, not a bad record.
    """
    for lineno, line in text_lines(path):
        try:
            yield convert(json_object(line))
        except (PipelineError, ValueError) as exc:
            raise PipelineError(f"{path}:{lineno}: bad {what} record: {exc}") from exc


def csv_rows(path) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) for each non-blank line of a one-line-per-row CSV file."""
    for lineno, line in text_lines(path):
        try:
            yield lineno, next(csv.reader((line,)))
        except csv.Error as exc:  # a cell over the csv module's size limit
            raise PipelineError(f"{path}:{lineno}: {exc}") from None


_staging: dict[str, str] | None = None  # the open `committed()` block: temp file -> output


@contextmanager
def committed():
    """A block whose outputs land together when it ends: each writer in it fills
    a `staged` temp file, and on exit every `.meta.json` is renamed into place,
    then every other output. Any error, KeyboardInterrupt included, renames no
    more and removes every temp file. A block opened inside another joins it."""
    global _staging
    if _staging is not None:
        yield
        return
    _staging = staging = {}
    try:
        yield
        for tmp in sorted(staging, key=lambda t: not staging[t].endswith(".meta.json")):
            os.replace(tmp, staging[tmp])
    except OSError as exc:  # name the output, not its temp file
        exc.filename = staging.get(exc.filename, exc.filename)
        raise
    finally:
        _staging = None
        for tmp in staging:
            Path(tmp).unlink(missing_ok=True)


def staged(path) -> Path:
    """The temp file beside `path` that the open `committed()` block renames over
    `path`; a directory at `path` is an IsADirectoryError, before any write."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    _staging[str(tmp)] = str(path)
    return tmp


@contextmanager
def open_output(path, newline=None):
    """A UTF-8 text file to write `path` through: its `staged` temp file, or `path`
    if it is one, committed by the open block or else by a block of its own."""
    with committed():
        tmp = path if str(path) in _staging else staged(path)
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh


def write_json(path, doc, indent=None) -> None:
    """One JSON document with sorted keys, then a newline; a float that is NaN or
    infinite, which standard JSON cannot hold, is a ValueError before any write."""
    with open_output(path) as fh:
        fh.write(json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False) + "\n")


# `json.dumps` with a keyword other than its defaults builds an encoder per call
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False)


def jsonl_text(objs: Iterable[dict]) -> str:
    """The lines that `write_jsonl` writes for `objs`, as one string."""
    return "".join([_JSONL_ENCODER.encode(obj) + "\n" for obj in objs])


def write_jsonl(path, objs: Iterable[dict]) -> int:
    """One compact JSON object per line, non-ASCII kept as is; returns the line count."""
    count = 0
    with open_output(path) as fh:
        for obj in objs:
            fh.write(_JSONL_ENCODER.encode(obj) + "\n")
            count += 1
    return count


def write_csv(path, header: list, rows: Iterable[list]) -> None:
    """A header row, then `rows`, in the excel dialect."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
