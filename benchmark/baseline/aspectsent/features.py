"""Text representations: a native hashed n-gram encoder and a remote provider.

Both providers expose the same surface — `dim` plus `embed(texts) -> (n, dim)
float64 array` — so the model trains against either without code changes.
The remote provider stands in for a transformer-style sentence encoder and
speaks a fixed HTTP contract: POST `<endpoint>/embed` with
`{"texts": [...]}`, response `{"dim": N, "embeddings": [[...], ...]}`.
"""

from __future__ import annotations

import json
import math
import re
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PipelineError
from .hashing import stable_hash64


class EmbeddingServiceError(PipelineError):
    """Transport-level failure talking to the embedding service; retryable."""


class EmbeddingContractError(PipelineError):
    """The service answered but violated the declared contract."""


_TOKEN_PATTERN = re.compile(
    r"(?P<url>(?:https?://|www\.)\S+)|(?P<user>@\w+)|(?P<word>[^\W_]+)"
)


def tokenize(text: str) -> list[str]:
    """Lowercase; URLs -> `<url>`, @-mentions -> `<user>`, '#' stripped,
    remaining text split into maximal alphanumeric runs."""
    out = []
    for m in _TOKEN_PATTERN.finditer(text.lower()):
        kind = m.lastgroup
        if kind == "url":
            out.append("<url>")
        elif kind == "user":
            out.append("<user>")
        else:
            out.append(m.group())
    return out


@dataclass(frozen=True)
class HashedFeatureConfig:
    """Hashed bag-of-n-grams encoder config; any change invalidates trained heads."""

    ngram_max: int = 1
    dim: int = 4096
    hash_seed: int = 0
    normalize: bool = True

    def __post_init__(self):
        if not 1 <= self.ngram_max <= 3:
            raise ValueError("ngram_max must be in 1..3")
        if self.dim < 1024 or self.dim & (self.dim - 1):
            raise ValueError("dim must be a power of two >= 1024")


def embed_hashed(tokens: Sequence[str], config: HashedFeatureConfig) -> np.ndarray:
    """Count each n-gram (n <= ngram_max) into bucket hash(seed, gram) mod dim.

    N-grams are the tokens joined with a single space. With normalize=True the
    vector is scaled to unit Euclidean norm (the zero vector stays zero).
    """
    vec = np.zeros(config.dim)
    mask = config.dim - 1  # dim is a power of two
    for n in range(1, config.ngram_max + 1):
        for i in range(len(tokens) - n + 1):
            gram = tokens[i] if n == 1 else " ".join(tokens[i : i + n])
            vec[stable_hash64(config.hash_seed, gram) & mask] += 1.0
    if config.normalize:
        norm = math.sqrt(float(vec @ vec))
        if norm > 0.0:
            vec /= norm
    return vec


@dataclass(frozen=True)
class EmbeddingProviderSpec:
    """Where embeddings come from: `native-hashed` or a `remote` service."""

    kind: str
    dim: int
    endpoint: str | None = None
    timeout: float = 10.0
    batch_size: int = 64

    def __post_init__(self):
        if self.kind not in ("native-hashed", "remote"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote provider requires an endpoint")
        if self.dim <= 0 or self.batch_size <= 0:
            raise ValueError("dim and batch_size must be positive")


def _post_embed(endpoint: str, texts: list[str], timeout: float) -> dict:
    url = endpoint if endpoint.rstrip("/").endswith("/embed") else endpoint.rstrip("/") + "/embed"
    payload = json.dumps({"texts": texts}).encode("utf-8")
    req = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            body = resp.read()
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise EmbeddingServiceError(f"embedding service unreachable at {url}: {exc}") from exc
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise EmbeddingContractError(f"service returned non-JSON response: {exc}") from exc


def embed_remote(texts: Sequence[str], spec: EmbeddingProviderSpec) -> np.ndarray:
    """Fetch one vector per text, order-preserving, dim-checked, finite-checked.

    Batches are issued sequentially in input order; callers wanting
    concurrency must preserve request order when reassembling.
    """
    if spec.kind != "remote":
        raise ValueError("embed_remote requires a remote provider spec")
    texts = list(texts)
    if not texts:
        return np.zeros((0, spec.dim))
    rows: list[list[float]] = []
    for start in range(0, len(texts), spec.batch_size):
        batch = texts[start : start + spec.batch_size]
        body = _post_embed(spec.endpoint, batch, spec.timeout)
        dim = body.get("dim")
        embs = body.get("embeddings")
        if dim != spec.dim:
            raise EmbeddingContractError(
                f"service reported dim {dim}, provider spec declares {spec.dim}"
            )
        if not isinstance(embs, list) or len(embs) != len(batch):
            got = len(embs) if isinstance(embs, list) else "no"
            raise EmbeddingContractError(
                f"service returned {got} embeddings for a batch of {len(batch)}"
            )
        rows.extend(embs)
    out = np.asarray(rows, dtype=float)
    if out.shape != (len(texts), spec.dim):
        raise EmbeddingContractError(f"embedding matrix has shape {out.shape}")
    if not np.isfinite(out).all():
        raise EmbeddingContractError("service returned non-finite embedding values")
    return out


class HashedProvider:
    """Native provider: tokenize + hashed n-gram counts. Pure and parallel-safe."""

    def __init__(self, config: HashedFeatureConfig | None = None):
        self.config = config or HashedFeatureConfig()
        self.dim = self.config.dim

    @property
    def fingerprint(self) -> str:
        c = self.config
        return f"hashed:ngram{c.ngram_max}:dim{c.dim}:seed{c.hash_seed}:norm{int(c.normalize)}"

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dim))
        return np.stack([embed_hashed(tokenize(t), self.config) for t in texts])


class RemoteProvider:
    def __init__(self, spec: EmbeddingProviderSpec):
        if spec.kind != "remote":
            raise ValueError("RemoteProvider requires kind='remote'")
        self.spec = spec
        self.dim = spec.dim

    @property
    def fingerprint(self) -> str:
        return f"remote:{self.spec.endpoint}:dim{self.spec.dim}"

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        return embed_remote(texts, self.spec)


def providers_from_config(cfg: dict):
    """Build (provider, sentiment_provider_or_None) from a plain config dict.

    A second provider exists only when `sentiment_endpoint` is configured on
    a remote provider: that is the switch for learning distinct aspect-stage
    and sentiment-stage representations. With a single provider both stages
    share one embedding.
    """
    provider = provider_from_config(cfg)
    sentiment_endpoint = cfg.get("sentiment_endpoint")
    if not sentiment_endpoint:
        return provider, None
    if cfg.get("kind") != "remote":
        raise ValueError("sentiment_endpoint requires a remote provider")
    second = dict(cfg, endpoint=sentiment_endpoint)
    second.pop("sentiment_endpoint", None)
    return provider, provider_from_config(second)


def provider_from_config(cfg: dict):
    """Build a provider from a plain config dict (the params-file format)."""
    kind = cfg.get("kind", "native-hashed")
    if kind == "native-hashed":
        return HashedProvider(
            HashedFeatureConfig(
                ngram_max=int(cfg.get("ngram_max", 1)),
                dim=int(cfg.get("dim", 4096)),
                hash_seed=int(cfg.get("hash_seed", 0)),
                normalize=bool(cfg.get("normalize", True)),
            )
        )
    if kind == "remote":
        return RemoteProvider(
            EmbeddingProviderSpec(
                kind="remote",
                dim=int(cfg["dim"]),
                endpoint=cfg["endpoint"],
                timeout=float(cfg.get("timeout", 10.0)),
                batch_size=int(cfg.get("batch_size", 64)),
            )
        )
    raise ValueError(f"unknown provider kind {kind!r}")


def provider_to_config(provider) -> dict:
    if isinstance(provider, HashedProvider):
        c = provider.config
        return {
            "kind": "native-hashed",
            "ngram_max": c.ngram_max,
            "dim": c.dim,
            "hash_seed": c.hash_seed,
            "normalize": c.normalize,
        }
    if isinstance(provider, RemoteProvider):
        s = provider.spec
        return {
            "kind": "remote",
            "dim": s.dim,
            "endpoint": s.endpoint,
            "timeout": s.timeout,
            "batch_size": s.batch_size,
        }
    raise ValueError(f"unknown provider type {type(provider).__name__}")
