"""`infer` over byte ranges in forked workers: the same `--out` and counts for every
cut of the corpus into ranges and every worker count, the same errors, no worker
left behind, and no fork where the corpus rules it out. Remote-provider `infer`
is in `test_remote_infer_workers.py`."""

import json
import os
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aspectsent import ingest, synth
from aspectsent.cli import main

from test_ingest_workers import (BAD, LINE_BYTES, LINES_PER_RANGE, N_LINES, UNLIMITED,
                                 assert_no_child_left, cut, write_corpus)

RANGE_BYTES = LINE_BYTES * LINES_PER_RANGE  # six ranges of `write_corpus`'s thirty lines


@pytest.fixture(scope="module")
def params(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("params")
    dataset = tmp / "labels.jsonl"
    synth.write_jsonl(dataset, synth.make_dataset_records(120, seed=11))
    path = tmp / "params.json"
    assert main(["train", "--train", str(dataset), "--params-out", str(path), "--epochs", "4",
                 "--dim", "1024", "--train-seed", "4"]) == 0
    return path


def infer(params, corpus, out, chunk_bytes, cpus, *flags):
    """Exit code, forked pids, and `--out` with its meta's counts, of one `infer`."""
    with cut(chunk_bytes, cpus) as forked:
        code = main(["infer", "--params", str(params), "--corpus", str(corpus),
                     "--out", str(out), *flags])
    assert_no_child_left()
    if code != 0:
        return code, forked, None
    counts = json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))["counts"]
    return code, forked, (Path(out).read_bytes(), counts)


_RECORDS = [json.dumps(r, ensure_ascii=False) for r in synth.make_corpus_records(12, seed=5)]
_RECORDS += [  # raw non-ASCII, U+2028 and U+0085 in text (neither ends a line in text mode)
    json.dumps({**json.loads(_RECORDS[0]), "id": "x1", "text": "china wuhan 中国"},
               ensure_ascii=False),
    json.dumps({**json.loads(_RECORDS[1]), "id": "x2", "text": "wuhan\x85masks ünïcode"},
               ensure_ascii=False),
    json.dumps({**json.loads(_RECORDS[2]), "id": "x3", "text": ""}),  # a row with no features
]
_LINE = st.one_of(st.sampled_from(_RECORDS), st.sampled_from(["", " ", "\t  ", "\x0c", "\u3000"]))


@settings(max_examples=15)
@given(lines=st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=25),
       final_newline=st.booleans())
def test_every_cut_and_worker_count_gives_the_same_output(params, lines, final_newline):
    data = "".join(line + end for line, end in lines)
    if not final_newline:
        data = data.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(data.encode("utf-8"))
        runs = {}
        for chunk_bytes in (UNLIMITED, 3, 300):
            for cpus in (1, 2, 3):
                code, forked, runs[chunk_bytes, cpus] = infer(
                    params, corpus, Path(tmp) / f"pred-{chunk_bytes}-{cpus}.jsonl",
                    chunk_bytes, cpus)
                assert code == 0
                assert len(forked) <= cpus
        reference = runs[UNLIMITED, 1]  # one range, in this process
        assert all(run == reference for run in runs.values())
        assert reference[1]["rows"] == sum(line in _RECORDS for line, _ in lines)


def test_a_corpus_of_many_ranges_runs_in_workers(tmp_path, params):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {})
    _, forked, many = infer(params, corpus, tmp_path / "many.jsonl", RANGE_BYTES, 2)
    assert len(forked) == 2
    _, forked, one = infer(params, corpus, tmp_path / "one.jsonl", UNLIMITED, 2)
    assert forked == []  # one range: in this process
    assert many == one
    assert one[1]["rows"] == N_LINES - 3


# --- errors: the same `error: <corpus>:<line>: …` whichever way the corpus is cut ---

def run_infer(tmp_path, params, corpus, chunk_bytes, cpus, capsys):
    code, _, _ = infer(params, corpus, tmp_path / "out" / "pred.jsonl", chunk_bytes, cpus)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("kind", list(BAD))
@pytest.mark.parametrize("line", [2, 14, 29], ids=["first-range", "middle-range", "last-range"])
def test_a_bad_line_is_reported_as_in_one_range(tmp_path, capsys, params, kind, line):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {line: kind})
    (tmp_path / "out").mkdir()
    one_range = run_infer(tmp_path, params, corpus, UNLIMITED, 1, capsys)
    assert one_range[0] == 1
    assert one_range[1].startswith(f"error: {corpus}:{line}: ")
    for cpus in (2, 3):
        assert run_infer(tmp_path, params, corpus, RANGE_BYTES, cpus, capsys) == one_range


def test_in_one_range_a_non_utf8_byte_wins_over_an_earlier_bad_line(tmp_path, capsys, params):
    (tmp_path / "out").mkdir()
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {12: "malformed", 14: "not-utf8"})  # both in the third range
    code, err = run_infer(tmp_path, params, corpus, RANGE_BYTES, 2, capsys)
    assert code == 1
    assert err.startswith(f"error: {corpus}:14: not valid UTF-8 (")


# --- process hygiene: no worker outlives infer, and a failure leaves --out as it was ---

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
    return f"error: {corpus}: an infer worker stopped before its result (exit status 3)"


@pytest.mark.parametrize("make", [_fail_late, _worker_dies], ids=["bad-late-line", "worker-dies"])
def test_a_failed_run_leaves_no_worker_and_the_previous_output(tmp_path, capsys, monkeypatch,
                                                               params, make):
    corpus = tmp_path / "corpus.jsonl"
    want = make(corpus, monkeypatch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "pred.jsonl").write_bytes(b"previous\n")
    code, err = run_infer(tmp_path, params, corpus, RANGE_BYTES, 2, capsys)
    assert (code, err) == (1, want + "\n")  # one line: no traceback
    assert [p.name for p in out_dir.iterdir()] == ["pred.jsonl"]  # no .*.tmp file, no meta
    assert (out_dir / "pred.jsonl").read_bytes() == b"previous\n"


def test_a_successful_run_leaves_no_worker(tmp_path, capsys, params):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {})
    (tmp_path / "out").mkdir()
    assert run_infer(tmp_path, params, corpus, RANGE_BYTES, 2, capsys) == (0, "")
    pred = (tmp_path / "out" / "pred.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(pred) == N_LINES - 3


# --- what never forks: a corpus that is not a regular file ---

def test_a_fifo_corpus_never_forks(tmp_path, params):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {})
    _, _, want = infer(params, corpus, tmp_path / "want.jsonl", UNLIMITED, 1)
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(corpus.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    code, forked, run = infer(params, fifo, tmp_path / "pred.jsonl", 3, 2)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (code, forked) == (0, [])
    assert run == want
