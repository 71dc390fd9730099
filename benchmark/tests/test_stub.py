import json
import socket
import threading
import urllib.request

import bench_path  # noqa: F401  (must precede the benchmark imports)

import numpy as np
import pytest

import stub
from aspectsent.features import EmbeddingProviderSpec, embed_remote


@pytest.fixture
def server(tmp_path):
    path = tmp_path / "vectors.txt"
    stub.encode_file(["known text", "China cases rising https://t.co/x"], path)
    srv = stub.StubServer(stub.load_vectors(path))
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _endpoint(srv):
    return f"http://127.0.0.1:{srv.server_address[1]}"


def test_stub_honours_the_remote_provider_contract(server):
    texts = ["known text", "an unseen text", "known text", "China cases rising https://t.co/x", ""]
    spec = EmbeddingProviderSpec(kind="remote", dim=stub.DIM, endpoint=_endpoint(server), batch_size=2)
    out = embed_remote(texts, spec)
    assert out.shape == (5, stub.DIM)
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out[0], out[2])
    assert not np.allclose(out[0], out[1])
    assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-5)
    assert server.requests == 3

    with urllib.request.urlopen(_endpoint(server) + "/stats", timeout=10) as resp:
        stats = json.loads(resp.read())
    assert stats["requests"] == 3 and stats["bytes_out"] > 0 and stats["handle_s"] > 0


def test_pre_encoded_and_on_demand_vectors_agree(tmp_path):
    path = tmp_path / "v.txt"
    stub.encode_file(["a b c", "a b c"], path)
    table = stub.load_vectors(path)
    assert list(table) == ["a b c"]
    assert table["a b c"] == stub.embed_fragment("a b c")
    assert len(json.loads(table["a b c"])) == stub.DIM


def test_stub_rejects_bad_requests(server):
    req = urllib.request.Request(_endpoint(server) + "/embed", data=b'{"texts": "x"}',
                                 headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(req, timeout=10)
    assert exc.value.code == 400


def test_stub_port_is_closed_after_shutdown(tmp_path):
    srv = stub.StubServer({})
    port = srv.server_address[1]
    srv.server_close()
    with socket.socket() as s:
        assert s.connect_ex(("127.0.0.1", port)) != 0
