"""Pipeline files: the one place that decides how stage files are read and written.

Readers see the non-blank lines of a UTF-8 file, numbered as text mode splits
them, and report a line they cannot read (not UTF-8, not a JSON object, a
missing or wrong-typed field) as a `PipelineError` saying `<path>:<line>: …`.
`split_lines` splits a run of whole lines read as bytes by the same rule.
`json_object` is the one JSON decode of a pipeline file, and `field` the one
typed check of a record's field.
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
import os
import re
import reprlib
import sys
from contextlib import contextmanager
from enum import EnumMeta
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


def text_lines(path, name=None) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of a UTF-8 text file.

    Errors call the file `name` (default: `path`).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise _bad_utf8_error(path, path if name is None else name, exc) from None


def split_lines(data: bytes, name) -> tuple[list[tuple[int, str]], int]:
    """`text_lines` of `data`, a run of whole lines of a UTF-8 file, numbered from 1,
    and how many lines `data` holds, blank ones included.

    `data` is decoded at once: a byte that is not UTF-8 anywhere in it is the
    error, even when an earlier line of it is bad in another way.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        escaped = io.StringIO(data.decode("utf-8", "surrogateescape"), newline=None)
        raise LineError(name, _first_escaped_line(escaped), f"not valid UTF-8 ({exc.reason})")
    lines = io.StringIO(text, newline=None).readlines()  # split and translated as text mode does
    return [(lineno, line) for lineno, line in enumerate(lines, 1) if line.strip()], len(lines)


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _first_escaped_line(lines: Iterable[str]) -> int | None:
    """The number of the first line that holds a byte escaped by surrogateescape."""
    return next((n for n, line in enumerate(lines, 1) if _ESCAPED_BYTE.search(line)), None)


def _bad_utf8_error(path, name, exc: UnicodeDecodeError) -> PipelineError:
    """The error for a file that is not UTF-8, naming the first bad line.

    Text mode decodes in blocks, so the failing line is found by a second
    read that turns each undecodable byte into a lone surrogate.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lineno = _first_escaped_line(fh)
    if lineno is None:
        return PipelineError(f"{name}: not valid UTF-8 ({exc.reason})")
    return LineError(name, lineno, f"not valid UTF-8 ({exc.reason})")


class LoneSurrogateError(PipelineError):
    """A JSON string (a key or a value) holding a lone UTF-16 surrogate, such as
    `"\\ud800"`, which neither UTF-8 output nor a hash of UTF-8 bytes can encode.
    `path` is its key path: keys joined by dots, a list item named as its list."""

    def __init__(self, path: str):
        super().__init__(f"lone UTF-16 surrogate in: {path!r}")
        self.path = path


def json_object(text: str) -> dict:
    """The JSON object that is `text`; a JSONDecodeError if it does not decode, else
    a ValueError if it is not an object, else a LoneSurrogateError for its first
    string that holds a lone UTF-16 surrogate."""
    try:
        obj = json.loads(text)
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


def read_json(path) -> dict:
    """The JSON object that is the UTF-8 file `path`; ValueError if it is anything else."""
    with open(path, encoding="utf-8") as fh:
        return json_object(fh.read())


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
    """One JSON document with sorted keys, then a newline."""
    with open_output(path) as fh:
        fh.write(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


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
