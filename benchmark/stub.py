"""Stub embedding service for the `infer-remote` workload.

Speaks the remote provider contract of `aspectsent.features`: `POST /embed`
with `{"texts": [...]}` answers `{"dim": N, "embeddings": [[...], ...]}`.
`GET /stats` reports the request count, the response bytes sent and the
service's own handling time. It is single-process and single-threaded and
binds to 127.0.0.1 only.

Vectors are a fixed random projection of hashed tokens, so they are
deterministic per text, dense like a sentence encoder's, and linearly
separable on the generator's signal words. `encode_file` pre-encodes every
text the workload will send, so a request costs a dictionary lookup per
text plus the response write; a text it has not seen is encoded on demand.

    python3 benchmark/stub.py --vectors FILE    # prints "port N" when ready
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import signal
import sys
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np

DIM = 768
BUCKETS = 4096
_TOKEN = re.compile(r"[^\W_]+")


@functools.cache
def _projection() -> np.ndarray:
    rng = np.random.default_rng(20200122)
    return rng.standard_normal((BUCKETS, DIM)) / np.sqrt(DIM)


def _bucket(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little") % BUCKETS


def embed_fragment(text: str) -> str:
    """The JSON array of `text`'s vector, at six decimals."""
    idx = [_bucket(t) for t in _TOKEN.findall(text.lower())]
    vec = _projection()[idx].sum(axis=0) if idx else np.zeros(DIM)
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec = vec / norm
    return "[" + ",".join(["%.6f" % x for x in vec.tolist()]) + "]"


def encode_file(texts, path: Path) -> None:
    """Pre-encode `texts`: one `fragment<TAB>json-text` line per distinct text."""
    seen = set()
    with open(path, "w", encoding="utf-8") as fh:
        for text in texts:
            if text not in seen:
                seen.add(text)
                fh.write(embed_fragment(text) + "\t" + json.dumps(text) + "\n")


def load_vectors(path: Path) -> dict[str, str]:
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fragment, text = line.rstrip("\n").split("\t", 1)
            table[json.loads(text)] = fragment
    return table


class StubServer(HTTPServer):
    def __init__(self, vectors: dict[str, str]):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.vectors = vectors
        self.requests = 0
        self.bytes_out = 0
        self.handle_s = 0.0
        self._parent = os.getppid()

    def service_actions(self):
        # Stop serving when the benchmark that started the stub is gone.
        if os.getppid() != self._parent:
            raise SystemExit(0)

    def fragment(self, text: str) -> str:
        frag = self.vectors.get(text)
        if frag is None:
            frag = self.vectors[text] = embed_fragment(text)
        return frag


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"
    server: StubServer

    def _send(self, code: int, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        t0 = time.perf_counter()
        if self.path.rstrip("/") != "/embed":
            self._send(404, b'{"error": "not found"}')
            return
        try:
            texts = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))["texts"]
            if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                raise ValueError("texts must be a list of strings")
        except (ValueError, KeyError, TypeError) as exc:
            self._send(400, json.dumps({"error": str(exc)}).encode("utf-8"))
            return
        body = ('{"dim": %d, "embeddings": [%s]}'
                % (DIM, ",".join([self.server.fragment(t) for t in texts]))).encode("utf-8")
        self._send(200, body)
        srv = self.server
        srv.requests += 1
        srv.bytes_out += len(body)
        srv.handle_s += time.perf_counter() - t0

    def do_GET(self):
        if self.path.rstrip("/") != "/stats":
            self._send(404, b'{"error": "not found"}')
            return
        srv = self.server
        self._send(200, json.dumps({"requests": srv.requests, "bytes_out": srv.bytes_out,
                                    "handle_s": srv.handle_s}).encode("utf-8"))

    def log_message(self, format, *args):
        pass


def _stop(signum, frame):
    raise SystemExit(0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vectors", required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    server = StubServer(load_vectors(Path(args.vectors)))
    try:
        print(f"port {server.server_address[1]}", flush=True)
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
