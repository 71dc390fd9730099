"""The fork core on its own: ingest holds none of it, importing it loads no record
logic, and a platform without `os.pread` or `os.sched_getaffinity` takes the
fallbacks that `workers` documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

import aspectsent
from aspectsent import ingest, workers
from aspectsent.cli import main

from test_infer_workers import RANGE_BYTES, infer, params  # noqa: F401 (`params` is a fixture)
from test_ingest_workers import assert_no_child_left, cut, write_corpus

MOVED = ("CHUNK_BYTES", "_ranges", "_cpus", "R", "Lines", "_RANGES_AHEAD", "_Fault", "_Failed",
         "map_ranges", "_in_file_order", "_range_job", "map_tasks", "_forked", "_taken", "_send",
         "_worker", "_raising")


def test_ingest_holds_none_of_the_core():
    # a name left in ingest could be patched there and cut no range
    assert [name for name in MOVED if hasattr(ingest, name)] == []
    assert all(hasattr(workers, name) for name in MOVED)


def test_importing_workers_loads_no_record_logic():
    code = ("import sys, aspectsent.workers; print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('aspectsent', 'numpy'))))")
    env = {**os.environ, "PYTHONPATH": str(Path(aspectsent.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout.split() == ["aspectsent", "aspectsent.errors", "aspectsent.files",
                                  "aspectsent.workers"]


def test_without_sched_getaffinity_cpus_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert workers._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert workers._cpus() == 1


def ingest_run(tmp_path, corpus, out):
    """Forked pids, and `--out` with its meta's counts, of one `ingest` in ranges of
    `RANGE_BYTES` on two CPUs."""
    keywords = tmp_path / "kw.txt"
    keywords.write_text("china\n", encoding="utf-8")
    with cut(RANGE_BYTES, 2) as forked:
        assert main(["ingest", "--corpus", str(corpus), "--keywords", str(keywords), "--out",
                     str(out), "--date-start", "2020-01-22", "--date-end", "2020-05-21"]) == 0
    assert_no_child_left()
    counts = json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))["counts"]
    return forked, (out.read_bytes(), counts)


def test_without_os_pread_a_corpus_of_many_ranges_runs_here(tmp_path, monkeypatch, params):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, {})
    forked, want_kept = ingest_run(tmp_path, corpus, tmp_path / "forked-kept.jsonl")
    assert len(forked) == 2
    _, forked, want_pred = infer(params, corpus, tmp_path / "forked-pred.jsonl", RANGE_BYTES, 2)
    assert len(forked) == 2
    monkeypatch.delattr(os, "pread")
    with cut(RANGE_BYTES, 2):
        assert workers.map_ranges(corpus, corpus, len, "test") is None
    forked, kept = ingest_run(tmp_path, corpus, tmp_path / "kept.jsonl")
    assert (forked, kept) == ([], want_kept)
    _, forked, pred = infer(params, corpus, tmp_path / "pred.jsonl", RANGE_BYTES, 2)
    assert (forked, pred) == ([], want_pred)
