"""BLAS runs one thread wherever the package loads before numpy, so dense
(remote-provider) outputs do not depend on the thread count the caller set."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from aspectsent import synth

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(args, threads: int, **kwargs):
    """`python args` with every BLAS thread variable set to `threads`."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **dict.fromkeys(BLAS_THREADS, str(threads))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300, **kwargs)


def threads_after_a_product(first: str) -> int:
    """This process's thread count after a BLAS product, in a child that imports `first`."""
    script = (f"import {first}\nimport os\nimport numpy as np\n"
              "a = np.ones((300, 300))\na @ a\nprint(len(os.listdir('/proc/self/task')))")
    done = run_python(["-c", script], 2)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_the_package_imported_before_numpy_runs_blas_in_one_thread():
    if threads_after_a_product("numpy") < 2:
        pytest.skip("BLAS starts no second thread here")
    assert threads_after_a_product("aspectsent") == 1


DIM = 768


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        vectors = [np.random.default_rng(list(hashlib.sha256(t.encode()).digest()))
                   .uniform(-1, 1, DIM).round(6).tolist() for t in texts]
        data = json.dumps({"dim": DIM, "embeddings": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_dense_training_is_the_same_under_one_and_two_blas_threads(tmp_path):
    # Dense weight gradients over 600-row batches differed in their last bits
    # between one and two OpenBLAS threads before the package pinned one.
    dataset = tmp_path / "labels.jsonl"
    synth.write_jsonl(dataset, synth.make_dataset_records(1200, seed=3))
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        params = {}
        for threads in (1, 2):
            params[threads] = tmp_path / f"params{threads}.json"
            done = run_python(["-m", "aspectsent", "train", "--train", str(dataset),
                               "--params-out", str(params[threads]), "--provider", "remote",
                               "--endpoint", f"http://127.0.0.1:{server.server_address[1]}",
                               "--dim", str(DIM), "--batch-size", "600", "--epochs", "5",
                               "--lr", "0.5"], threads)
            assert done.returncode == 0, done.stderr
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert params[1].read_bytes() == params[2].read_bytes()
