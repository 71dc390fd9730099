"""`ingest.ingest_file` with pass 1 in forked workers: the same output, counts and
errors for every cut of the corpus into ranges and every worker count, and no
worker left behind."""

import dataclasses
import io
import json
import os
import tempfile
from contextlib import contextmanager, redirect_stderr
from datetime import date
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from aspectsent import ingest, workers
from aspectsent.cli import main

from conftest import corpus_line

UNLIMITED = 2**62


@contextmanager
def cut(chunk_bytes, cpus):
    """The fork core with ranges of `chunk_bytes` and `cpus` CPUs; yields the pids forked."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with mock.patch.object(workers, "CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(workers, "_cpus", return_value=cpus), \
            mock.patch.object(os, "fork", counting_fork):
        yield forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPEC = ingest.FilterSpec(
    lang="en", keywords=ingest.KeywordSet(frozenset({"china", "wuhan", "中国"})),
    date_start=date(2020, 1, 22), date_end=date(2020, 5, 21), sample_rate=0.5, seed=7)

_RECORD = st.builds(
    lambda i, when, text, lang: json.dumps({
        "id": f"t{i}", "created_at": when, "text": text, "lang": lang,
        "user": {"id": "u1", "screen_name": "alice"}}, ensure_ascii=False),
    i=st.integers(0, 12),  # ids repeat
    when=st.sampled_from(["2020-01-21T23:30:00Z", "2020-02-10T12:00:00Z",
                          "2020-02-10T01:00:00+03:00", "2020-03-03T08:00:00"]),
    # raw non-ASCII, U+2028 and U+0085 included: text mode does not end a line at either
    text=st.sampled_from(["china news", "#Wuhan ünïcode", "COVID-19 in 中国", "offtopic",
                          "china\u2028wuhan", "wuhan\x85update", "chinatown"]),
    lang=st.sampled_from(["en", "es"]),
)
_LINE = st.one_of(_RECORD, st.sampled_from(["", " ", "\t  ", "\x0c", "\u3000"]))


@settings(max_examples=30)
@given(lines=st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=25),
       final_newline=st.booleans(), rate=st.sampled_from([0.3, 0.5, 1.0]))
def test_every_cut_and_worker_count_gives_the_same_output(lines, final_newline, rate):
    data = "".join(line + end for line, end in lines)
    if not final_newline:
        data = data.rstrip("\r\n")
    spec = dataclasses.replace(SPEC, sample_rate=rate)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(data.encode("utf-8"))
        runs = {}
        for chunk_bytes in (UNLIMITED, 3, 300):
            for cpus in (1, 2, 3):
                out = Path(tmp) / f"kept-{chunk_bytes}-{cpus}.jsonl"
                with cut(chunk_bytes, cpus) as forked:
                    counts = ingest.ingest_file(corpus, spec, out)
                assert len(forked) <= cpus
                assert_no_child_left()
                runs[chunk_bytes, cpus] = out.read_bytes(), counts
        reference = runs[UNLIMITED, 1]  # one range, in this process
        assert all(run == reference for run in runs.values())
        assert reference[1]["records_read"] == sum(bool(line.strip()) for line in
                                                   data.replace("\r\n", "\n").replace("\r", "\n")
                                                   .split("\n"))


def test_a_corpus_of_many_ranges_runs_in_workers(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(corpus_line(tweet_id=str(i)) + "\n" for i in range(40)))
    with cut(300, 2) as forked:
        counts = ingest.ingest_file(corpus, SPEC, tmp_path / "kept.jsonl")
    assert len(forked) == 2
    assert counts["records_read"] == 40
    with cut(UNLIMITED, 2) as forked:
        ingest.ingest_file(corpus, SPEC, tmp_path / "kept.jsonl")
    assert forked == []  # one range: in this process


# --- errors: the same `error: <corpus>:<line>: …` whichever way the corpus is cut ---

LINE_BYTES = 160  # each good line below is this long, so CHUNK_BYTES sets lines per range
LINES_PER_RANGE = 5
N_LINES = 30  # six ranges of five lines

BAD = {
    "malformed": b'{"id": "bad", "text": \n',
    "schema": json.dumps({"id": "bad", "text": "china"}).encode() + b"\n",
    "surrogate": b'{"id": "bad", "text": "china \\ud800"}\n',
    "not-utf8": b'{"id": "bad", "text": "caf\xe9 china"}\n',
}


def good_line(i):
    line = corpus_line(tweet_id=f"g{i}", text="china update").encode() if i % 10 != 5 else b""
    return line + b" " * (LINE_BYTES - len(line) - 1) + b"\n"


def write_corpus(path, bad_at):
    """N_LINES lines, lines 5, 15 and 25 blank, the lines numbered in `bad_at`
    (from 1) replaced by bad ones."""
    path.write_bytes(b"".join(BAD[bad_at[n]] if n in bad_at else good_line(n)
                              for n in range(1, N_LINES + 1)))


def run_ingest(tmp_path, corpus, chunk_bytes, cpus, capsys):
    keywords = tmp_path / "kw.txt"
    keywords.write_text("china\n", encoding="utf-8")
    with cut(chunk_bytes, cpus):
        code = main(["ingest", "--corpus", str(corpus), "--keywords", str(keywords),
                     "--out", str(tmp_path / "out" / "kept.jsonl"), "--date-start",
                     "2020-01-22", "--date-end", "2020-05-21"])
    assert_no_child_left()
    return code, capsys.readouterr().err


@pytest.mark.parametrize("kind", list(BAD))
@pytest.mark.parametrize("line", [2, 14, 29], ids=["first-range", "middle-range", "last-range"])
def test_a_bad_line_is_reported_as_in_one_range(tmp_path, capsys, kind, line):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {line: kind})
    (tmp_path / "out").mkdir()
    one_range = run_ingest(tmp_path, corpus, UNLIMITED, 1, capsys)
    assert one_range[0] == 1
    assert one_range[1].startswith(f"error: {corpus}:{line}: ")
    for cpus in (2, 3):
        assert run_ingest(tmp_path, corpus, LINE_BYTES * LINES_PER_RANGE, cpus, capsys) == one_range


@pytest.mark.parametrize("first, second", [("malformed", "not-utf8"), ("not-utf8", "schema"),
                                           ("surrogate", "malformed")])
def test_of_bad_lines_in_two_ranges_the_earlier_is_reported(tmp_path, capsys, first, second):
    (tmp_path / "out").mkdir()
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {8: first})
    _, want = run_ingest(tmp_path, corpus, UNLIMITED, 1, capsys)
    write_corpus(corpus, {8: first, 22: second})
    code, err = run_ingest(tmp_path, corpus, LINE_BYTES * LINES_PER_RANGE, 2, capsys)
    assert (code, err) == (1, want)
    assert err.startswith(f"error: {corpus}:8: ")


# the start of the detail of each kind of BAD line's error
DETAIL = {"malformed": "malformed JSON", "schema": "missing required field",
          "surrogate": "lone UTF-16 surrogate", "not-utf8": "not valid UTF-8"}


@st.composite
def bad_corpora(draw, line):
    """A corpus of `line`s (strings) with one or two BAD lines at random places,
    each line ended by "\\n", "\\r\\n" or "\\r", as bytes; the number of its first
    bad line in file order; and that line's BAD kind."""
    lines = [(text.encode(), None) for text in draw(st.lists(line, max_size=20))]
    for kind in draw(st.lists(st.sampled_from(list(BAD)), min_size=1, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), (BAD[kind].rstrip(b"\n"), kind))
    ended = [text + draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for text, _ in lines]
    data = b"".join(ended)
    if not draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    first = next(i for i, (_, kind) in enumerate(lines) if kind)
    before = b"".join(ended[:first]).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data, before.count(b"\n") + 1, lines[first][1]


# a bad line, then a byte that is not UTF-8 on the next line of its range and block
BAD_THEN_NOT_UTF8 = (BAD["malformed"].replace(b"\n", b"\r\n") + BAD["not-utf8"], 1, "malformed")


def stderr_at_every_cut(argv) -> dict:
    """The exit code and stderr of `main(argv)` at each cut and CPU count."""
    runs = {}
    for chunk_bytes in (UNLIMITED, 3, 300):
        for cpus in (1, 2, 3):
            with cut(chunk_bytes, cpus), redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert_no_child_left()
            runs[chunk_bytes, cpus] = code, err.getvalue()
    return runs


@settings(max_examples=25)
@given(corpus=bad_corpora(_LINE))
@example(corpus=BAD_THEN_NOT_UTF8)
def test_every_cut_and_worker_count_reports_the_first_bad_line(corpus):
    data, first, kind = corpus
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(data)
        keywords = Path(tmp) / "kw.txt"
        keywords.write_text("china\n", encoding="utf-8")
        runs = stderr_at_every_cut(["ingest", "--corpus", str(path), "--keywords", str(keywords),
                                    "--out", str(Path(tmp) / "kept.jsonl"), "--date-start",
                                    "2020-01-22", "--date-end", "2020-05-21"])
    code, err = reference = runs[UNLIMITED, 1]  # one range, in this process
    assert code == 1 and err.startswith(f"error: {path}:{first}: {DETAIL[kind]}")
    assert all(run == reference for run in runs.values())


# --- process hygiene: no worker outlives ingest, and a failure leaves --out as it was ---

def _fail_late(corpus, monkeypatch):
    write_corpus(corpus, {27: "malformed"})
    return f"error: {corpus}:27: malformed JSON: Expecting value (byte offset 23)"


def _worker_dies(corpus, monkeypatch):
    write_corpus(corpus, {})
    parse_record, parent = ingest.parse_record, os.getpid()

    def dying_parse_record(line):
        if os.getpid() != parent and '"g19"' in line:
            os._exit(3)
        return parse_record(line)

    monkeypatch.setattr(ingest, "parse_record", dying_parse_record)
    return f"error: {corpus}: an ingest worker stopped before its result (exit status 3)"


@pytest.mark.parametrize("make", [_fail_late, _worker_dies], ids=["bad-late-line", "worker-dies"])
def test_a_failed_run_leaves_no_worker_and_the_previous_output(tmp_path, capsys, monkeypatch,
                                                               make):
    corpus = tmp_path / "corpus.jsonl"
    want = make(corpus, monkeypatch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "kept.jsonl").write_bytes(b"previous\n")
    code, err = run_ingest(tmp_path, corpus, LINE_BYTES * LINES_PER_RANGE, 2, capsys)
    assert (code, err) == (1, want + "\n")  # one line: no traceback
    assert [p.name for p in out_dir.iterdir()] == ["kept.jsonl"]  # no .*.tmp file
    assert (out_dir / "kept.jsonl").read_bytes() == b"previous\n"


def test_a_successful_run_leaves_no_worker(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {})
    (tmp_path / "out").mkdir()
    assert run_ingest(tmp_path, corpus, LINE_BYTES * LINES_PER_RANGE, 2, capsys) == (0, "")
    kept = (tmp_path / "out" / "kept.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(kept) == N_LINES - 3


# --- a platform without `os.fork`: the ranges run in this process ---

def test_without_os_fork_each_range_runs_here(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {})
    with cut(LINE_BYTES * LINES_PER_RANGE, 2) as forked:
        want = ingest.ingest_file(corpus, SPEC, tmp_path / "forked.jsonl")
    assert len(forked) == 2
    filter_range, ranges = ingest._filter_range, []
    monkeypatch.setattr(ingest, "_filter_range", lambda lines, **kw: ranges.append(lines)
                        or filter_range(lines, **kw))
    monkeypatch.setattr(workers, "CHUNK_BYTES", LINE_BYTES * LINES_PER_RANGE)
    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    counts = ingest.ingest_file(corpus, SPEC, tmp_path / "here.jsonl")
    assert_no_child_left()
    assert len(ranges) == N_LINES // LINES_PER_RANGE
    assert counts == want
    assert (tmp_path / "here.jsonl").read_bytes() == (tmp_path / "forked.jsonl").read_bytes()
