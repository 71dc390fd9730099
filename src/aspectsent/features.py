"""Text representations: a native hashed n-gram encoder and a remote provider.

Both providers expose the same surface — `dim` plus `embed(texts)` returning
n rows of width `dim` — so the model trains against either without code
changes. The rows differ in storage only:

* hashed rows are sparse: a tweet fills about 20 of 4,096 buckets, so
  `HashedProvider.embed` returns `SparseRows`, a numpy-only CSR matrix that
  supports exactly the products and row selection the model uses;
* remote rows are dense `(n, dim)` float64 arrays.

Callers that stream a corpus embed it in `iter_chunks` blocks of
`EMBED_CHUNK_ROWS` texts, so memory stays flat as the corpus grows.

The remote provider stands in for a transformer-style sentence encoder and
speaks a fixed HTTP contract: POST `<endpoint>/embed` with
`{"texts": [...]}`, response `{"dim": N, "embeddings": [[...], ...]}`.
Fetching and decoding are two steps: `request_bodies` sends the requests
and yields the raw response bodies, and `embed_bodies` decodes and checks
them into rows. `embed_remote` runs both in one process, one batch at a
time; remote-provider `infer` sends the requests in the parent and decodes
each block's bodies in a forked worker (`cli._cmd_infer`).
"""

from __future__ import annotations

import json
import math
import re
import urllib.error
import urllib.request
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import files
from .errors import PipelineError
from .hashing import stable_hash64, stable_hash64_lines


T = TypeVar("T")

MAX_DIM = 2**20  # the widest embedding a provider may declare: the two heads then take 96 MiB

# Texts embedded per call when a corpus is streamed. A multiple of the default
# remote batch size (64), so streaming issues the same HTTP batches as one call.
EMBED_CHUNK_ROWS = 1024


def iter_chunks(items: Iterable[T]) -> Iterator[list[T]]:
    """Consecutive lists of `EMBED_CHUNK_ROWS` items (the last may be shorter)."""
    it = iter(items)
    while chunk := list(islice(it, EMBED_CHUNK_ROWS)):
        yield chunk


class SparseRows:
    """A float64 matrix of shape (n, dim) stored row-compressed, numpy only.

    Row i holds `data[indptr[i]:indptr[i+1]]` at the columns
    `indices[indptr[i]:indptr[i+1]]`, ascending. The model needs three
    operations, each computed without a dense copy:

    * `rows @ M` for a dense (dim, k) M, as a gather-sum: each output row is
      summed from that row's own entries alone;
    * `D @ rows` for a dense (k, n) D, as a scatter-add; `rows.rmatmul_touched(D)`
      gives its touched columns alone, and `D @ rows` places them in a (k, dim)
      array of zeros;
    * `rows[idx]` for a slice or an index array, selecting rows. A contiguous
      slice is a view: it shares the arrays, which nothing writes into.

    Implicit densification (`np.asarray`, `np.stack`, any other numpy
    function but `np.count_nonzero`) raises TypeError; `toarray()` is the
    explicit way.
    """

    __array_ufunc__ = None  # numpy hands `D @ rows` to __rmatmul__

    def __init__(self, indptr, indices, data, dim: int):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=float)
        self.dim = int(dim)
        if (self.indptr.ndim != 1 or self.indptr.size == 0 or self.indptr[0] != 0
                or self.indptr[-1] != self.indices.size or self.indices.shape != self.data.shape):
            raise ValueError("inconsistent CSR arrays")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.indptr.size - 1, self.dim)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return out

    def __getitem__(self, key) -> "SparseRows":
        if isinstance(key, slice) and key.step in (None, 1):
            start, stop, _ = key.indices(self.shape[0])
            lo, hi = self.indptr[start], self.indptr[max(start, stop)]
            return SparseRows(self.indptr[start : max(start, stop) + 1] - lo,
                              self.indices[lo:hi], self.data[lo:hi], self.dim)
        rows = np.arange(self.shape[0])[key]
        if rows.ndim != 1:
            raise TypeError("SparseRows selects rows by slice or index array only")
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        pos = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return SparseRows(indptr, self.indices[pos], self.data[pos], self.dim)

    def __matmul__(self, other) -> np.ndarray:
        if not isinstance(other, np.ndarray):
            return NotImplemented
        if other.ndim != 2 or other.shape[0] != self.dim:
            raise ValueError(f"cannot multiply {self.shape} rows by {other.shape}")
        out = np.zeros((self.shape[0], other.shape[1]))
        starts = self.indptr[:-1]
        nonempty = self.indptr[1:] > starts
        if self.data.size:
            # `take` gathers the same rows in half the time, but copies a strided `other` first
            terms = (other.take(self.indices, axis=0) if other.flags.c_contiguous
                     else other[self.indices])
            terms *= self.data[:, None]  # in place: the gather is the one (nnz, k) temporary
            out[nonempty] = np.add.reduceat(terms, starts[nonempty], axis=0)
        return out

    def __rmatmul__(self, other) -> np.ndarray:
        if not isinstance(other, np.ndarray):
            return NotImplemented
        cols, touched = self.rmatmul_touched(other)
        out = np.zeros((other.shape[0], self.dim))
        out[:, cols] = touched
        return out

    def rmatmul_touched(self, other) -> tuple[np.ndarray, np.ndarray]:
        """`other @ self` over the columns these rows touch, as `(cols, out)`.

        `cols` holds the touched columns, ascending, found with a dim-sized mark
        array rather than a sort. `out` (k, len(cols)) holds those columns of the
        product: each entry sums its column's stored entries times `other`, from
        +0.0 and in storage order, in one `bincount` of k * len(cols) bins.
        `out.T` is C-contiguous: feature-major, one row per column.
        """
        if other.ndim != 2 or other.shape[1] != self.shape[0]:
            raise ValueError(f"cannot multiply {other.shape} by {self.shape} rows")
        k = other.shape[0]
        mark = np.zeros(self.dim, dtype=bool)
        mark[self.indices] = True
        cols = np.flatnonzero(mark)
        slot = np.empty(self.dim, dtype=np.intp)
        slot[cols] = np.arange(cols.size)
        bins = slot[self.indices] * k + np.arange(k)[:, None]
        weights = np.repeat(other, np.diff(self.indptr), axis=1) * self.data
        out = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=cols.size * k)
        return cols, out.reshape(cols.size, k).astype(float, copy=False).T  # int64 if nnz is 0

    def __array__(self, dtype=None, copy=None):
        raise TypeError("SparseRows does not densify implicitly; call .toarray()")

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return int(np.count_nonzero(self.data))
        return NotImplemented


_TOKEN_PATTERN = re.compile(r"(?:https?://|www\.)\S+|@\w+|[^\W_]+")
_URL_PREFIXES = ("http://", "https://", "www.")


def tokenize(text: str) -> list[str]:
    """Lowercase; URLs -> `<url>`, @-mentions -> `<user>`, '#' stripped,
    remaining text split into maximal alphanumeric runs.

    A word token holds none of `@ : / .`, so a token's prefix tells its kind.
    """
    return ["<user>" if tok[0] == "@" else "<url>" if tok.startswith(_URL_PREFIXES) else tok
            for tok in _TOKEN_PATTERN.findall(text.lower())]


def _buckets(tokens: Sequence[str], provider: HashedProvider) -> list[int]:
    """The bucket hash(seed, gram) mod dim of each n-gram (n <= ngram_max).

    N-grams are the tokens joined with a single space.
    """
    mask = provider.dim - 1  # dim is a power of two
    out = []
    for n in range(1, provider.ngram_max + 1):
        for i in range(len(tokens) - n + 1):
            gram = tokens[i] if n == 1 else " ".join(tokens[i : i + n])
            out.append(stable_hash64(provider.hash_seed, gram) & mask)
    return out


def _gram_lines(texts: Sequence[str], ngram_max: int) -> tuple[bytes, list[int]]:
    """Every n-gram (n <= ngram_max) of every text, one per line in UTF-8, and
    each text's n-gram count; `_buckets` makes the same n-grams one at a time.

    A text keeps only its joined line, not its token list: a chunk's lines
    take far less memory than its lists of token strings. No token holds a
    "\n", and UTF-8 encodes one as byte 0x0A alone, so the lines split back.
    """
    lines = []
    counts = []
    for text in texts:
        tokens = tokenize(text)
        grams = prev = tokens
        for n in range(1, ngram_max):
            prev = [p + " " + t for p, t in zip(prev, tokens[n:])]  # the (n+1)-grams
            grams = grams + prev  # a new list: `tokens` stays the unigrams
        if grams:
            lines.append("\n".join(grams))
        counts.append(len(grams))
    return "\n".join(lines).encode("utf-8"), counts


@dataclass(frozen=True)
class EmbeddingProviderSpec:
    """A remote embedding service; `kind` is always `remote`."""

    kind: str
    dim: int
    endpoint: str | None = None
    timeout: float = 10.0
    batch_size: int = 64

    def __post_init__(self):
        if self.kind != "remote":
            raise ValueError(f"unknown provider kind {self.kind!r}, expected 'remote'")
        if not (self.endpoint and isinstance(self.endpoint, str)):
            raise ValueError("remote provider requires an endpoint")
        if not 0 < self.dim <= MAX_DIM or self.batch_size <= 0:
            raise ValueError(f"dim must be in 1..{MAX_DIM} and batch_size positive")
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be a positive number of seconds")


def _post_embed(endpoint: str, texts: list[str], timeout: float) -> bytes:
    """The raw response body to one batch's request."""
    url = endpoint if endpoint.rstrip("/").endswith("/embed") else endpoint.rstrip("/") + "/embed"
    payload = json.dumps({"texts": texts}).encode("utf-8")
    req = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.read()
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise PipelineError(f"embedding service unreachable at {url}: {exc}") from exc


def request_bodies(texts: list[str], spec: EmbeddingProviderSpec) -> Iterator[bytes]:
    """The raw response body of each batch of `texts`, in input order; a batch is
    requested only once the body before it has been taken."""
    for start in range(0, len(texts), spec.batch_size):
        yield _post_embed(spec.endpoint, texts[start : start + spec.batch_size], spec.timeout)


def embed_bodies(bodies: Iterator[bytes], n: int, spec: EmbeddingProviderSpec) -> np.ndarray:
    """The (n, dim) rows of `n` texts from `bodies`, the response bodies of their
    batches in order, each decoded and checked as it is taken."""
    out = np.empty((n, spec.dim))
    for start in range(0, n, spec.batch_size):
        size = min(spec.batch_size, n - start)
        out[start : start + size] = _decoded(next(bodies), size, spec)
    return out


def _decoded(body: bytes, size: int, spec: EmbeddingProviderSpec) -> np.ndarray:
    """The rows of a batch of `size` texts from its response body; a body that
    breaks the contract is a PipelineError."""
    try:
        obj = json.loads(body)
    except json.JSONDecodeError as exc:
        raise PipelineError(f"service returned non-JSON response: {exc}") from exc
    del body  # free the raw body before the array is built
    if not isinstance(obj, dict):
        raise PipelineError("service response is not a JSON object")
    dim = obj.get("dim")
    embs = obj.get("embeddings")
    if dim != spec.dim:
        raise PipelineError(f"service reported dim {dim}, provider spec declares {spec.dim}")
    if not isinstance(embs, list) or len(embs) != size:
        got = len(embs) if isinstance(embs, list) else "no"
        raise PipelineError(f"service returned {got} embeddings for a batch of {size}")
    try:
        block = np.asarray(embs, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int beyond float
        raise PipelineError(f"service returned non-numeric embeddings: {exc}") from None
    if block.shape != (size, spec.dim):
        raise PipelineError(f"embedding batch has shape {block.shape}")
    if not np.isfinite(block).all():
        raise PipelineError("service returned non-finite embedding values")
    return block


def embed_remote(texts: Sequence[str], spec: EmbeddingProviderSpec) -> np.ndarray:
    """Fetch one vector per text, order-preserving, dim-checked, finite-checked.

    Batches are issued sequentially in input order (`request_bodies`), and each
    response is decoded and checked (`embed_bodies`) before the next request,
    so one decoded batch is alive at a time. A transport failure or a response
    that breaks the contract is a PipelineError; nothing retries a transport
    failure, so it ends the run with exit code 1.
    """
    texts = list(texts)
    return embed_bodies(request_bodies(texts, spec), len(texts), spec)


@dataclass(frozen=True)
class HashedProvider:
    """Native provider: tokenize + hashed n-gram counts. Pure and parallel-safe.

    Its four fields are the encoder's config; any change invalidates trained heads.
    """

    ngram_max: int = 1
    dim: int = 4096
    hash_seed: int = 0
    normalize: bool = True

    def __post_init__(self):
        if not 1 <= self.ngram_max <= 3:
            raise ValueError("ngram_max must be in 1..3")
        if not 1024 <= self.dim <= MAX_DIM or self.dim & (self.dim - 1):
            raise ValueError(f"dim must be a power of two in 1024..{MAX_DIM}")
        if not 0 <= self.hash_seed < 2**64:  # the hash folds a seed mod 2**64
            raise ValueError("hash_seed must be in 0..2**64-1")

    def embed(self, texts: Sequence[str]) -> SparseRows:
        """Each text's n-gram counts per bucket, as sparse rows.

        With normalize=True each row is scaled to unit Euclidean norm (an
        empty row stays empty). All n-grams of `texts` are hashed in one
        vectorized pass, bit-identical to `stable_hash64` on each.
        """
        blob, lengths = _gram_lines(texts, self.ngram_max)
        buckets = stable_hash64_lines(self.hash_seed, blob)
        del blob  # each `del` frees a buffer before the next one is allocated
        buckets &= np.uint64(self.dim - 1)  # dim is a power of two
        n = len(lengths)
        keys = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keys *= self.dim
        keys += buckets.view(np.int64)  # a bucket < dim reads the same as int64
        del buckets
        # sorted unique (row, bucket) keys give CSR order; their counts are the values
        keys, counts = np.unique(keys, return_counts=True)
        row_of, indices = np.divmod(keys, self.dim)
        data = counts.astype(float)
        if self.normalize:
            # integer sums of squares are exact, so this matches dividing a dense
            # count vector by its norm, bit for bit
            data /= np.sqrt(np.bincount(row_of, weights=data * data, minlength=n))[row_of]
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(row_of, minlength=n), out=indptr[1:])
        return SparseRows(indptr, indices, data, self.dim)


class RemoteProvider:
    def __init__(self, spec: EmbeddingProviderSpec):
        self.spec = spec
        self.dim = spec.dim

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        return embed_remote(texts, self.spec)


# the settings of a provider config (a config file's or a params file's
# `provider` object): key -> (kind, default)
PROVIDER_SETTINGS = {
    "kind": (("native-hashed", "remote"), "native-hashed"),
    "ngram_max": (int, 1),
    "dim": (int, 4096),
    "hash_seed": (int, 0),
    "normalize": (bool, True),
    "endpoint": (str, None),
    "sentiment_endpoint": (str, None),
    "timeout": (float, 10.0),
    "batch_size": (int, 64),
}


def providers(settings: dict):
    """Provider `settings` (flags and a config file, or a params file's object
    and endpoint flags) resolved once, checked against `PROVIDER_SETTINGS`:
    `(cfg, provider, sentiment_provider_or_None)`, where `cfg` is the provider
    object a params file records.

    A hashed provider takes no endpoint and `cfg` drops the remote-only
    settings; a remote one requires an endpoint and `cfg` keeps
    `sentiment_endpoint` only when it is set. Resolving `cfg` again gives
    `cfg`. A second provider exists only when `sentiment_endpoint` is
    configured on a remote provider: that is the switch for learning distinct
    aspect-stage and sentiment-stage representations. With a single provider
    both stages share one embedding.
    """
    cfg = files.settings(settings, PROVIDER_SETTINGS, "provider")
    if cfg["kind"] == "native-hashed":
        for key in ("endpoint", "sentiment_endpoint"):
            if cfg[key]:
                raise ValueError(f"{key} requires a remote provider")
        cfg = {key: value for key, value in cfg.items()
               if key not in ("endpoint", "sentiment_endpoint", "timeout", "batch_size")}
        return cfg, HashedProvider(ngram_max=cfg["ngram_max"], dim=cfg["dim"],
                                   hash_seed=cfg["hash_seed"], normalize=cfg["normalize"]), None
    if not cfg["sentiment_endpoint"]:
        del cfg["sentiment_endpoint"]

    def remote(endpoint):
        return RemoteProvider(EmbeddingProviderSpec(
            kind="remote", dim=cfg["dim"], endpoint=endpoint, timeout=cfg["timeout"],
            batch_size=cfg["batch_size"]))

    sentiment_endpoint = cfg.get("sentiment_endpoint")
    return cfg, remote(cfg["endpoint"]), remote(sentiment_endpoint) if sentiment_endpoint else None
