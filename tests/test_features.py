import json
import math
import random
import re
import string
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aspectsent import features
from aspectsent.errors import PipelineError
from aspectsent.features import (
    EMBED_CHUNK_ROWS,
    EmbeddingProviderSpec,
    HashedProvider,
    MAX_DIM,
    RemoteProvider,
    SparseRows,
    _buckets,
    embed_remote,
    providers,
    tokenize,
)
from aspectsent.hashing import FNV64_OFFSET, FNV64_PRIME


def embed_hashed(tokens, config: HashedProvider) -> np.ndarray:
    """Dense reference encoder: count each n-gram into its bucket.

    With normalize=True the vector is scaled to unit Euclidean norm (the zero
    vector stays zero). `HashedProvider.embed` stores the same values sparsely.
    """
    vec = np.zeros(config.dim)
    for b in _buckets(tokens, config):
        vec[b] += 1.0
    if config.normalize:
        norm = math.sqrt(float(vec @ vec))
        if norm > 0.0:
            vec /= norm
    return vec


_NAMED_GROUP_PATTERN = re.compile(
    r"(?P<url>(?:https?://|www\.)\S+)|(?P<user>@\w+)|(?P<word>[^\W_]+)"
)


def _named_group_tokenize(text):
    """Reference tokenizer: each match's group names its kind."""
    out = []
    for m in _NAMED_GROUP_PATTERN.finditer(text.lower()):
        kind = m.lastgroup
        if kind == "url":
            out.append("<url>")
        elif kind == "user":
            out.append("<user>")
        else:
            out.append(m.group())
    return out


# fragments that build URL, mention and word edge cases when concatenated
_TOKEN_PARTS = ["http", "https", "://", ":/", "www", ".", "/", "@", "#", "_", "x", "Y1",
                " ", "\n", "\x85", "İ", "数据", "é"]


class TestTokenize:
    def test_url_user_hashtag(self):
        assert tokenize("Check https://t.co/x @WHO #China!") == [
            "check", "<url>", "<user>", "china",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_boundary_split(self):
        assert tokenize("COVID-19") == ["covid", "19"]

    def test_underscore_is_a_boundary(self):
        assert tokenize("covid_19") == ["covid", "19"]

    def test_www_url(self):
        assert tokenize("see www.example.com/page now") == ["see", "<url>", "now"]

    @given(text=st.text() | st.lists(st.sampled_from(_TOKEN_PARTS)).map("".join))
    @example(text="İstanbul")
    @example(text="WWW.x.com")
    @example(text="http:/x")
    @example(text="@@x")
    @example(text="x_y")
    @example(text="#tag_1")
    @example(text="china\nnews\x85@who\nhttps://t.co/x\x85www.x")
    def test_matches_named_group_tokenizer(self, text):
        assert tokenize(text) == _named_group_tokenize(text)


class TestEmbedHashed:
    def test_empty_tokens_zero_vector(self):
        cfg = HashedProvider(dim=1024)
        assert not embed_hashed([], cfg).any()

    def test_deterministic(self):
        cfg = HashedProvider(dim=1024, hash_seed=42)
        a = embed_hashed(["china", "news"], cfg)
        b = embed_hashed(["china", "news"], cfg)
        assert np.array_equal(a, b)

    def test_buckets_match_independent_hash(self):
        # dim=4 is below the config minimum, so hash the buckets directly.
        cfg = HashedProvider(dim=1024, hash_seed=9, ngram_max=2, normalize=False)
        tokens = ["a", "b"]
        vec = embed_hashed(tokens, cfg)

        def fnv(seed, payload):
            h = FNV64_OFFSET
            for byte in (seed & (2**64 - 1)).to_bytes(8, "little") + payload.encode():
                h = ((h ^ byte) * FNV64_PRIME) & (2**64 - 1)
            return h

        expected = np.zeros(1024)
        for gram in ["a", "b", "a b"]:
            expected[fnv(9, gram) % 1024] += 1.0
        assert np.array_equal(vec, expected)

    def test_seed_changes_buckets(self):
        a = embed_hashed(["china"], HashedProvider(dim=1024, hash_seed=1, normalize=False))
        b = embed_hashed(["china"], HashedProvider(dim=1024, hash_seed=2, normalize=False))
        assert not np.array_equal(a, b)

    def test_normalized_unit_norm(self):
        cfg = HashedProvider(dim=1024, normalize=True)
        vec = embed_hashed(["several", "distinct", "tokens"], cfg)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9

    @given(tokens=st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), max_size=8))
    def test_unigram_permutation_invariance(self, tokens):
        cfg = HashedProvider(ngram_max=1, dim=1024)
        base = embed_hashed(tokens, cfg)
        flipped = embed_hashed(list(reversed(tokens)), cfg)
        assert np.array_equal(base, flipped)

    def test_bigrams_are_order_sensitive(self):
        cfg = HashedProvider(ngram_max=2, dim=1024, normalize=False)
        a = embed_hashed(["x", "y", "z"], cfg)
        b = embed_hashed(["z", "y", "x"], cfg)
        assert not np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HashedProvider(dim=1000)  # not a power of two
        with pytest.raises(ValueError):
            HashedProvider(dim=512)  # below 2**10
        with pytest.raises(ValueError):
            HashedProvider(dim=2 * MAX_DIM)
        with pytest.raises(ValueError):
            HashedProvider(ngram_max=4)
        for seed in (-1, 2**64):  # the hash would fold either onto another seed
            with pytest.raises(ValueError):
                HashedProvider(hash_seed=seed)
        assert HashedProvider(hash_seed=2**64 - 1).hash_seed == 2**64 - 1


class _StubHandler(BaseHTTPRequestHandler):
    """Echoes index-tagged vectors: text i in the batch -> [offset+i, 0, ...]."""

    dim = 8
    fail_mode = None
    calls = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        texts = body["texts"]
        type(self).calls.append(list(texts))
        if self.fail_mode == "wrong-dim":
            payload = {"dim": self.dim + 1, "embeddings": [[0.0] * (self.dim + 1) for _ in texts]}
        elif self.fail_mode == "nan":
            vecs = [[float("nan")] + [0.0] * (self.dim - 1) for _ in texts]
            payload = {"dim": self.dim, "embeddings": vecs}
        elif self.fail_mode == "short":
            payload = {"dim": self.dim, "embeddings": []}
        elif self.fail_mode == "ragged":
            payload = {"dim": self.dim, "embeddings": [[0.0] * (self.dim - 1) for _ in texts]}
        elif self.fail_mode == "not-numbers":
            payload = {"dim": self.dim, "embeddings": [["x"] * self.dim for _ in texts]}
        elif self.fail_mode == "not-object":
            payload = [[0.0] * self.dim for _ in texts]
        elif self.fail_mode == "huge-int":  # a JSON integer too large for a float
            vecs = [[10**400] + [0] * (self.dim - 1) for _ in texts]
            payload = {"dim": self.dim, "embeddings": vecs}
        else:
            offset = sum(len(c) for c in type(self).calls[:-1])
            vecs = [
                [float(offset + i)] + [0.0] * (self.dim - 1) for i, _ in enumerate(texts)
            ]
            payload = {"dim": self.dim, "embeddings": vecs}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.fail_mode = None
    _StubHandler.calls = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    thread.join(timeout=5)


def _spec(endpoint, dim=8, batch_size=64):
    return EmbeddingProviderSpec(kind="remote", dim=dim, endpoint=endpoint,
                                 timeout=5.0, batch_size=batch_size)


class TestEmbedRemote:
    def test_empty_batch(self, stub_server):
        out = embed_remote([], _spec(stub_server))
        assert out.shape == (0, 8)

    def test_order_preserved(self, stub_server):
        out = embed_remote(["a", "b", "c"], _spec(stub_server))
        assert out.shape == (3, 8)
        assert out[:, 0].tolist() == [0.0, 1.0, 2.0]

    def test_batching_preserves_order(self, stub_server):
        out = embed_remote([f"t{i}" for i in range(5)], _spec(stub_server, batch_size=2))
        assert out[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert [len(c) for c in _StubHandler.calls] == [2, 2, 1]

    def test_dim_mismatch_is_contract_error(self, stub_server):
        _StubHandler.fail_mode = "wrong-dim"
        with pytest.raises(PipelineError,
                           match="^service reported dim 9, provider spec declares 8$"):
            embed_remote(["a"], _spec(stub_server))

    def test_non_finite_is_contract_error(self, stub_server):
        _StubHandler.fail_mode = "nan"
        with pytest.raises(PipelineError, match="^service returned non-finite embedding values$"):
            embed_remote(["a"], _spec(stub_server))

    def test_wrong_count_is_contract_error(self, stub_server):
        _StubHandler.fail_mode = "short"
        with pytest.raises(PipelineError,
                           match="^service returned 0 embeddings for a batch of 2$"):
            embed_remote(["a", "b"], _spec(stub_server))

    @pytest.mark.parametrize("mode", ["ragged", "not-numbers", "not-object", "huge-int"])
    def test_malformed_batch_is_contract_error(self, stub_server, mode):
        _StubHandler.fail_mode = mode
        message = {
            "ragged": r"embedding batch has shape \(2, 7\)$",
            "not-numbers": "service returned non-numeric embeddings: could not convert string "
                           "to float: 'x'$",
            "not-object": "service response is not a JSON object$",
            "huge-int": "service returned non-numeric embeddings: ",
        }[mode]
        with pytest.raises(PipelineError, match="^" + message):
            embed_remote(["a", "b"], _spec(stub_server))

    def test_bad_later_batch_is_contract_error(self, stub_server):
        # each batch is checked as it arrives, not only the assembled matrix
        _StubHandler.fail_mode = None
        out = embed_remote(["a", "b", "c"], _spec(stub_server, batch_size=2))
        assert out.dtype == np.float64 and out.shape == (3, 8)
        _StubHandler.calls = []
        _StubHandler.fail_mode = "nan"
        with pytest.raises(PipelineError, match="^service returned non-finite embedding values$"):
            embed_remote(["a", "b", "c"], _spec(stub_server, batch_size=2))
        assert len(_StubHandler.calls) == 1

    def test_one_decoded_batch_alive_at_a_time(self, monkeypatch):
        # a decoded response holds a Python float per value, several times its array's size
        dim, batch_size = 256, 64
        monkeypatch.setattr(features, "_post_embed", lambda endpoint, texts, timeout: json.dumps({
            "dim": dim, "embeddings": [[i + j / dim for j in range(dim)] for i in range(len(texts))]
        }).encode())
        spec = _spec("http://unused", dim, batch_size)
        tracemalloc.start()
        try:  # one batch: its raw body, then its decoded JSON and its rows
            features._decoded(features._post_embed("", ["t"] * batch_size, 1.0), batch_size, spec)
            one_batch = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = embed_remote(["t"] * (8 * batch_size), spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 1.5 * one_batch

    def test_unreachable_service_is_retryable_error(self):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        spec = _spec(f"http://127.0.0.1:{port}", dim=8)
        with pytest.raises(PipelineError, match=re.escape(
                f"embedding service unreachable at http://127.0.0.1:{port}/embed: ")):
            embed_remote(["a"], spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EmbeddingProviderSpec(kind="remote", dim=8)  # no endpoint
        with pytest.raises(ValueError):
            EmbeddingProviderSpec(kind="remote", dim=MAX_DIM + 1, endpoint="http://e")
        with pytest.raises(ValueError):
            EmbeddingProviderSpec(kind="mystery", dim=8)


class TestProviders:
    def test_hashed_provider_shape(self):
        provider = HashedProvider(dim=1024)
        out = provider.embed(["china news", "other text"])
        assert out.shape == (2, 1024)
        assert provider.embed([]).shape == (0, 1024)

    def test_remote_config_builds_the_declared_spec(self, stub_server):
        _, provider, provider_y = providers({
            "kind": "remote", "dim": 8, "endpoint": stub_server, "timeout": 5.0,
            "batch_size": 64,
        })
        assert isinstance(provider, RemoteProvider)
        assert provider.spec == _spec(stub_server)
        assert provider_y is None

    def test_hashed_config_builds_the_declared_config(self):
        _, provider, provider_y = providers({
            "kind": "native-hashed", "ngram_max": 2, "dim": 2048, "hash_seed": 5,
            "normalize": False,
        })
        assert isinstance(provider, HashedProvider)
        assert provider == HashedProvider(ngram_max=2, dim=2048, hash_seed=5, normalize=False)
        assert provider_y is None


_GRAMS = ["china", "news", "#china", "@who", "http://t.co/x", "a", "b", "covid-19", "数据", "é"]
_texts = st.lists(
    st.lists(st.sampled_from(_GRAMS), max_size=25).map(" ".join) | st.text(max_size=40),
    max_size=6,
)


def _dense(texts, cfg):
    return np.array([embed_hashed(tokenize(t), cfg) for t in texts]).reshape(len(texts), cfg.dim)


class TestSparseRows:
    @given(texts=_texts, ngram_max=st.integers(1, 3), normalize=st.booleans(),
           dim=st.sampled_from([1024, 4096]), seed=st.integers(0, 3) | st.just(2**64 - 1))
    @example(texts=["china\nnews today", "a\r\nb c", "x\x85y z", " ", "@who\nhttps://t.co/x"],
             ngram_max=3, normalize=True, dim=1024, seed=0)
    @example(texts=["china " + "w" * 5000 + " news"], ngram_max=3, normalize=False, dim=4096,
             seed=1)
    @example(texts=["", "!!!", "#", "", "_ ... @"], ngram_max=2, normalize=True, dim=1024, seed=0)
    @example(texts=[], ngram_max=1, normalize=True, dim=1024, seed=0)
    @example(texts=["china news", "", "數據 china"], ngram_max=3, normalize=False, dim=1024,
             seed=2**64 - 1)
    def test_rows_equal_dense_reference(self, texts, ngram_max, normalize, dim, seed):
        cfg = HashedProvider(ngram_max=ngram_max, dim=dim, hash_seed=seed,
                                  normalize=normalize)
        rows = cfg.embed(texts)
        dense = _dense(texts, cfg)
        assert isinstance(rows, SparseRows)
        assert rows.shape == dense.shape
        assert np.array_equal(rows.toarray(), dense)  # bit-identical values
        assert np.count_nonzero(rows) == np.count_nonzero(dense)

    @given(texts=_texts, data=st.data())
    def test_row_selection(self, texts, data):
        cfg = HashedProvider(ngram_max=2, dim=1024)
        rows = cfg.embed(texts)
        dense = _dense(texts, cfg)
        n = len(texts)
        idx = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=8)
                                 if n else st.just([])), dtype=np.intp)
        assert np.array_equal(rows[idx].toarray(), dense[idx])
        # contiguous slices take a path of their own: views, with no index gather
        for key in (slice(1, None), slice(None, 2), slice(-2, None), slice(3, 1), slice(1, 99),
                    slice(1, 1), slice(0, None, 1)):
            assert np.array_equal(rows[key].toarray(), dense[key]), key
        assert np.array_equal(rows[::-1].toarray(), dense[::-1])

    @given(texts=_texts, seed=st.integers(0, 2**32 - 1))
    def test_products_match_dense(self, texts, seed):
        # gather-sum and scatter-add sum in another order than BLAS, so the
        # tolerance is a few float64 ulps of values of order one
        cfg = HashedProvider(ngram_max=2, dim=1024)
        rows = cfg.embed(texts)
        dense = _dense(texts, cfg)
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(6, cfg.dim))
        D = rng.normal(size=(len(texts), 6))
        np.testing.assert_allclose(rows @ W.T, dense @ W.T, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(D.T @ rows, D.T @ dense, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("texts", [
        ["china news", "", "china china virus", "news today", ""],  # empty rows, a shared column
        ["china news today"],  # one row
        ["", ""],  # no column touched
        ["virus"] * 4,  # one column in every row
        [f"china news {i % 3}" for i in range(20)],
    ])
    def test_scatter_add_sums_each_column_in_storage_order(self, texts):
        rows = HashedProvider(ngram_max=2, dim=1024).embed(texts)
        D = np.random.default_rng(len(texts)).normal(size=(12, len(texts)))
        D[0, 0] = -0.0  # a signed-zero product, which a sum from +0.0 turns into +0.0
        expected = np.zeros((12, 1024))
        for i in range(len(texts)):
            for e in range(rows.indptr[i], rows.indptr[i + 1]):
                expected[:, rows.indices[e]] += D[:, i] * rows.data[e]
        cols, out = rows.rmatmul_touched(D)
        assert np.array_equal(cols, np.unique(rows.indices))
        assert out.shape == (12, cols.size) and out.T.flags.c_contiguous
        assert out.tobytes("F") == expected[:, cols].tobytes("F")
        assert (D @ rows).tobytes() == expected.tobytes()
        assert rows.rmatmul_touched(D.T.copy().T)[1].tobytes("F") == out.tobytes("F")
        with pytest.raises(ValueError):
            rows.rmatmul_touched(np.zeros((12, len(texts) + 1)))

    def test_row_products_depend_on_the_row_alone(self):
        provider = HashedProvider(ngram_max=2, dim=1024)
        texts = [f"china news {i} " * (i % 5) for i in range(40)]
        W = np.random.default_rng(3).normal(size=(1024, 6))
        together = provider.embed(texts) @ W
        for i, text in enumerate(texts):
            assert np.array_equal(provider.embed([text]) @ W, together[i:i + 1])

    def test_implicit_densification_raises(self):
        rows = HashedProvider(dim=1024).embed(["china news", ""])
        for densify in (np.asarray, np.atleast_2d, lambda r: np.stack([r]),
                        lambda r: np.vstack([r, r]), lambda r: r + 1.0):
            with pytest.raises(TypeError):
                densify(rows)
        with pytest.raises(ValueError):
            rows @ np.zeros((512, 6))

    def test_storage_is_proportional_to_nonzeros(self):
        texts = ["china news update today"] * 100
        rows = HashedProvider(dim=4096).embed(texts)
        assert rows.nbytes <= 100 * 4 * 16 + 101 * 8  # 4 nonzeros per row, 8-byte values and indices


def _synthetic_tweets(n, seed=0):
    """Tweet-like texts: 6 to 26 words of 2 to 10 letters from a 20,000-word
    vocabulary, some with a mention, a hashtag or a URL."""
    rng = random.Random(seed)
    vocab = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 10)))
             for _ in range(20_000)]
    handle = string.ascii_lowercase + string.digits
    tweets = []
    for _ in range(n):
        words = rng.choices(vocab, k=rng.randint(6, 26))
        if rng.random() < 0.45:
            words.append("@" + "".join(rng.choices(handle, k=8)))
        if rng.random() < 0.3:
            words.append("#" + rng.choice(vocab).capitalize() + str(rng.randrange(100)))
        if rng.random() < 0.4:
            words.append("https://t.co/" + "".join(rng.choices(handle, k=10)))
        rng.shuffle(words)
        tweets.append(" ".join(words))
    return tweets


# tracemalloc peak of the per-gram encoder (a Python list of every bucket) on
# the texts below, measured with CPython 3.11.7 and numpy 2.4.6
PER_GRAM_ENCODER_PEAK_BYTES = 1_520_801


def test_embed_peak_memory_of_one_chunk():
    # On these texts, holding the chunk's token lists while its n-grams are
    # hashed peaks at about 2.06 MB; one joined line per text, at 0.88 MB.
    texts = _synthetic_tweets(EMBED_CHUNK_ROWS)
    provider = HashedProvider()
    provider.embed(texts[:8])  # warm up the regex and the seed's cached state
    tracemalloc.start()
    try:
        provider.embed(texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_GRAM_ENCODER_PEAK_BYTES


class TestDualRepresentation:
    def test_single_provider_by_default(self):
        _, provider, provider_y = providers(
            {"kind": "native-hashed", "dim": 1024}
        )
        assert provider_y is None

    def test_two_remote_providers(self, stub_server):
        _, provider, provider_y = providers({
            "kind": "remote", "dim": 8, "endpoint": stub_server,
            "sentiment_endpoint": stub_server, "timeout": 5.0, "batch_size": 64,
        })
        assert isinstance(provider, RemoteProvider)
        assert isinstance(provider_y, RemoteProvider)
        assert provider_y.spec.endpoint == stub_server

    def test_sentiment_endpoint_requires_remote(self):
        with pytest.raises(ValueError):
            providers({
                "kind": "native-hashed", "dim": 1024, "sentiment_endpoint": "http://x",
            })

    def test_distinct_stage_embeddings_reach_the_heads(self, stub_server):
        # gradients() must consume h for the aspect head and h_y for the
        # sentiment head; verified by feeding different matrices
        import numpy as np

        from aspectsent import model
        from aspectsent.corpus import A_USED

        k = len(A_USED)
        rng = np.random.default_rng(0)
        params = model.HeadParams(
            rng.normal(size=(k, 4)), np.zeros(k), rng.normal(size=(k, 4)), np.zeros(k)
        )
        h = rng.normal(size=(3, 4))
        h_y = rng.normal(size=(3, 4))
        t_a = np.ones((3, k))
        t_y = np.zeros((3, k))
        mask = np.ones((3, k))
        g = model.gradients(h, t_a, t_y, mask, params, h_y=h_y)
        p_y = model.probabilities(h, params, h_y)[:, k:]
        assert np.allclose(g.W_y, ((p_y - t_y) * mask).T @ h_y, atol=1e-12)
        p_y_of_h = model.probabilities(h, params)[:, k:]
        assert not np.allclose(g.W_y, ((p_y_of_h - t_y) * mask).T @ h)
