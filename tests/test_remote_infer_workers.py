"""Remote-provider `infer` in forked workers: this process reads the corpus and sends
every request itself, one at a time in input order, and the workers decode the
response bodies and predict. `--out`, its counts, the requests the service sees and
the first error are those of the one-process run.

The service runs in a thread of this process. A forked worker touches nothing that
the thread owns: this process alone talks to the service, and a worker only reads
its pipe, decodes, predicts and writes its pipe."""

import hashlib
import json
import os
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from aspectsent import features, ingest, synth, workers
from aspectsent.cli import main

from test_ingest_workers import BAD, UNLIMITED, assert_no_child_left, cut

DIM = 16
ROWS = 8  # EMBED_CHUNK_ROWS here: a block of eight tweets
N_RECORDS = 30  # four blocks: 8, 8, 8 and 6 tweets


def _vector(path: str, text: str) -> list[float]:
    """A text's vector, the same in every process, and another at each endpoint."""
    seed = hashlib.sha256(f"{path}\n{text}".encode()).digest()
    return np.random.default_rng(list(seed)).uniform(-1, 1, DIM).tolist()


class _Service(ThreadingHTTPServer):
    """An embedding service that logs each request body and how many requests it
    held at once, and fails the requests numbered in `faults` (from 0): "bad"
    answers a wrong dim, "down" closes the connection without a response."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.reset()

    def reset(self, faults=None):
        self.log, self.faults, self.open, self.most_open = [], faults or {}, 0, 0


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        service = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with service.lock:
            number = len(service.log)
            service.log.append((self.path, body))
            service.open += 1
            service.most_open = max(service.most_open, service.open)
        time.sleep(0.002)  # requests sent at once overlap here
        with service.lock:
            service.open -= 1
        fault = service.faults.get(number)
        if fault == "down":
            return
        vectors = [_vector(self.path, text) for text in json.loads(body)["texts"]]
        data = json.dumps({"dim": DIM + (fault == "bad"), "embeddings": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def service():
    server = _Service()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture(scope="module", params=["one-endpoint", "sentiment-endpoint"])
def params(request, service, tmp_path_factory):
    """A params file of the remote provider; the second also has a sentiment endpoint."""
    tmp = tmp_path_factory.mktemp("params")
    dataset = tmp / "labels.jsonl"
    synth.write_jsonl(dataset, synth.make_dataset_records(60, seed=17))
    url = f"http://127.0.0.1:{service.server_address[1]}"
    endpoints = ["--endpoint", f"{url}/a"]
    if request.param == "sentiment-endpoint":
        endpoints += ["--sentiment-endpoint", f"{url}/s"]
    path = tmp / "params.json"
    assert main(["train", "--train", str(dataset), "--params-out", str(path), "--provider",
                 "remote", *endpoints, "--dim", str(DIM), "--epochs", "3", "--lr", "2.0"]) == 0
    return path


def endpoints(params) -> int:
    return 1 + ("sentiment_endpoint" in json.loads(Path(params).read_text())["provider"])


def write_corpus(path, n=N_RECORDS, bad_at=()):
    """`n` records, one a line; the lines numbered in `bad_at` (from 1) malformed."""
    lines = [json.dumps(r, ensure_ascii=False).encode() + b"\n"
             for r in synth.make_corpus_records(n, seed=5)]
    for line in bad_at:
        lines[line - 1] = BAD["malformed"]
    path.write_bytes(b"".join(lines))


def infer(service, params, corpus, out, cpus, *flags, faults=None):
    """Exit code, forked pids, `--out` with its meta's counts (None on a failure),
    and the bodies of the requests, of one `infer` at `cpus` CPUs."""
    service.reset(faults)
    with cut(UNLIMITED, cpus) as forked, mock.patch.object(features, "EMBED_CHUNK_ROWS", ROWS):
        code = main(["infer", "--params", str(params), "--corpus", str(corpus),
                     "--out", str(out), *flags])
    assert_no_child_left()
    assert service.most_open == 1  # one request at a time
    run = None
    if code == 0:
        counts = json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))["counts"]
        run = Path(out).read_bytes(), counts
    return code, forked, run, service.log


# --- the same output and the same requests at every CPU count and batch size ---

@pytest.mark.parametrize("batch_size", [1, 3, 64])
def test_forked_runs_equal_the_one_process_run(tmp_path, service, params, batch_size):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    runs = {}
    for cpus in (1, 2, 3):
        code, forked, run, log = infer(service, params, corpus, tmp_path / f"pred{cpus}.jsonl",
                                       cpus, "--embed-batch-size", str(batch_size))
        assert code == 0
        assert len(forked) == (0 if cpus == 1 else cpus)  # four blocks: a worker per CPU
        runs[cpus] = run, log
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]
    (_, counts), log = runs[1]
    assert counts["rows"] == N_RECORDS
    assert sum(counts["detected"].values()) > 0
    batches = -(-ROWS // batch_size) * 3 + -(-(N_RECORDS - 3 * ROWS) // batch_size)
    assert len(log) == batches * endpoints(params)


def test_a_corpus_of_one_block_runs_in_this_process(tmp_path, service, params):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, ROWS)
    code, forked, one, _ = infer(service, params, corpus, tmp_path / "one.jsonl", 2)
    assert (code, forked) == (0, [])
    assert one[1]["rows"] == ROWS
    write_corpus(corpus, ROWS + 1)
    code, forked, two, _ = infer(service, params, corpus, tmp_path / "two.jsonl", 2)
    assert (code, len(forked)) == (0, 2)
    assert two[0].startswith(one[0])


def test_a_fifo_corpus_forks(tmp_path, service, params):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    _, _, want, want_log = infer(service, params, corpus, tmp_path / "want.jsonl", 1)
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(corpus.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    code, forked, run, log = infer(service, params, fifo, tmp_path / "pred.jsonl", 2)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (code, len(forked)) == (0, 2)
    assert (run, log) == (want, want_log)


def test_without_os_fork_each_block_runs_here(tmp_path, service, params, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    _, forked, want, want_log = infer(service, params, corpus, tmp_path / "forked.jsonl", 2)
    assert len(forked) == 2
    monkeypatch.setattr(features, "EMBED_CHUNK_ROWS", ROWS)
    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    service.reset()
    out = tmp_path / "here.jsonl"
    assert main(["infer", "--params", str(params), "--corpus", str(corpus), "--out", str(out)]) == 0
    assert_no_child_left()
    counts = json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))["counts"]
    assert ((out.read_bytes(), counts), service.log) == (want, want_log)
    assert service.most_open == 1


# --- errors: the first in input order, as in one process ---

def request(params, block, batch) -> int:
    """The number (from 0) of a request, at batch size 1, of a full block (from 1)."""
    return (block - 1) * ROWS * endpoints(params) + batch - 1


_CASES = {  # name: (faults as (block, batch, kind), bad corpus lines, what the error says)
    "bad-response-then-down-in-one-block": ([(2, 2, "bad"), (2, 5, "down")], [],
                                            "service reported dim 17"),
    "down-then-bad-response-in-one-block": ([(2, 2, "down"), (2, 5, "bad")], [],
                                            "embedding service unreachable"),
    "bad-response-then-down-a-block-later": ([(2, 8, "bad"), (3, 1, "down")], [],
                                             "service reported dim 17"),
    "bad-response-in-block-1-bad-line-in-block-3": ([(1, 3, "bad")], [2 * ROWS + 3],
                                                    "service reported dim 17"),
    "bad-line-in-block-2-bad-response-in-block-3": ([(3, 1, "bad")], [ROWS + 3],
                                                    f":{ROWS + 3}: malformed JSON"),
    "down-in-block-1-bad-line-in-block-2": ([(1, 4, "down")], [ROWS + 1],
                                            "embedding service unreachable"),
    "bad-line-in-block-3-down-in-block-4": ([(4, 1, "down")], [2 * ROWS + 5],
                                            f":{2 * ROWS + 5}: malformed JSON"),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_the_first_error_is_the_one_process_error(tmp_path, capsys, service, params, case):
    faults, bad_at, says = _CASES[case]
    faults = {request(params, block, batch): kind for block, batch, kind in faults}
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, bad_at=bad_at)
    out = tmp_path / "out" / "pred.jsonl"
    out.parent.mkdir()
    out.write_bytes(b"previous\n")
    errors = []
    for cpus in (1, 2, 3):
        code, _, _, _ = infer(service, params, corpus, out, cpus, "--embed-batch-size", "1",
                              faults=faults)
        errors.append((code, capsys.readouterr().err))
        assert [p.name for p in out.parent.iterdir()] == ["pred.jsonl"]  # no meta, no .*.tmp
        assert out.read_bytes() == b"previous\n"
    assert errors[0][0] == 1
    assert says in errors[0][1]
    assert errors[0][1].count("\n") == 1  # one line: no traceback
    assert errors[1] == errors[0]
    assert errors[2] == errors[0]


def test_a_worker_that_dies_is_reported(tmp_path, capsys, service, params, monkeypatch):
    parent, decoded = os.getpid(), features._decoded

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return decoded(*args)

    monkeypatch.setattr(features, "_decoded", dying)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    out = tmp_path / "out" / "pred.jsonl"
    out.parent.mkdir()
    out.write_bytes(b"previous\n")
    code, forked, _, _ = infer(service, params, corpus, out, 2)
    assert (code, len(forked)) == (1, 2)
    assert capsys.readouterr().err == (f"error: {corpus}: an infer worker stopped before its result "
                            "(exit status 3)\n")
    assert out.read_bytes() == b"previous\n"


# --- memory: this process holds one response body at a time ---

def test_parent_memory_flat_in_corpus_size(tmp_path, monkeypatch):
    # Blocks of 128 tweets in two 64-row batches of dim 256, about 330 KB of body
    # each. Holding the bodies of a block would add about 660 KB; holding every
    # block's, that much more per block.
    dim, rows = 256, 128
    bodies = {}

    def post_embed(endpoint, texts, timeout):  # a new body per request, as from a socket
        if len(texts) not in bodies:
            bodies[len(texts)] = json.dumps({"dim": dim, "embeddings": [
                [i + j / dim for j in range(dim)] for i in range(len(texts))]}).encode()
        return bytes(bodies[len(texts)])

    monkeypatch.setattr(features, "_post_embed", post_embed)
    monkeypatch.setattr(features, "EMBED_CHUNK_ROWS", rows)
    params = tmp_path / "params.json"
    dataset = tmp_path / "labels.jsonl"
    synth.write_jsonl(dataset, synth.make_dataset_records(64, seed=17))
    assert main(["train", "--train", str(dataset), "--params-out", str(params), "--provider",
                 "remote", "--endpoint", "http://unused", "--dim", str(dim), "--epochs", "1"]) == 0

    def peak(blocks):
        corpus = tmp_path / f"corpus{blocks}.jsonl"
        synth.write_jsonl(corpus, synth.make_corpus_records(blocks * rows, seed=5))
        with cut(UNLIMITED, 2) as forked:
            tracemalloc.start()
            try:
                assert main(["infer", "--params", str(params), "--corpus", str(corpus),
                             "--out", str(tmp_path / "pred.jsonl")]) == 0
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(forked) == 2
        return top

    body = len(post_embed("", ["t"] * 64, 1.0))
    peak(4)  # warm lazy imports and caches
    small, large = peak(4), peak(16)
    assert large - small < body // 2
