"""Stable 64-bit hashing shared by feature bucketing and daily sampling.

The hash is FNV-1a over bytes with the seed folded in first, so a given
(seed, payload) pair hashes identically on any platform or runtime:

    h = 14695981039346656037                     # FNV-1a 64-bit offset basis
    for byte in seed_as_8_bytes_le + payload_utf8:
        h = ((h XOR byte) * 1099511628211) mod 2**64

`stable_hash64` hashes one payload. `stable_hash64_lines` hashes many in one
vectorized numpy pass, bit-identical to `stable_hash64` on each. It has two
batched callers, each joining its payloads into one `"\\n"`-separated blob:
the hashed encoder hashes every n-gram of a chunk of texts with one call
(n-grams never hold a newline), and `ingest.sample_daily` every
`sample|<day>|<id>` key of a UTC day. A payload that holds `"\\n"` would
split in two, so the sampler hashes a day whose ids hold one with
`stable_hash64`, one payload at a time, as it does a day too small to gain
from a batch.
"""

from functools import lru_cache

import numpy as np

FNV64_OFFSET = 14695981039346656037
FNV64_PRIME = 1099511628211

_MASK64 = (1 << 64) - 1


@lru_cache(maxsize=64)
def _seeded_state(seed: int) -> int:
    """The FNV-1a state after the 8 seed bytes; a run uses one or two seeds."""
    h = FNV64_OFFSET
    for b in (seed & _MASK64).to_bytes(8, "little"):
        h = ((h ^ b) * FNV64_PRIME) & _MASK64
    return h


def stable_hash64(seed: int, payload: str | bytes) -> int:
    """Seeded FNV-1a hash of `payload`, returned as an unsigned 64-bit int."""
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    h = _seeded_state(seed)
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _MASK64
    return h


def stable_hash64_lines(seed: int, blob: bytes) -> np.ndarray:
    """`stable_hash64(seed, line)` of each line of `blob`, as a uint64 array.

    Lines end at b"\\n" as when reading a file: the last line may lack it, so
    b"" holds no line and b"\\n" one empty line. The lines are ordered
    longest first, then each byte position is XOR-ed and multiplied in over
    the prefix of lines still that long; uint64 products wrap mod 2**64.
    """
    data = np.frombuffer(blob, dtype=np.uint8)
    ends = np.flatnonzero(data == 10)
    if data.size and data[-1] != 10:
        ends = np.append(ends, data.size)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    del ends  # each `del` frees a buffer before the next one is allocated
    order = np.argsort(-lengths, kind="stable")
    pos = starts[order]
    del starts
    lengths = lengths[order]
    h = np.full(order.size, _seeded_state(seed), dtype=np.uint64)
    prime = np.uint64(FNV64_PRIME)
    # active[j]: how many lines (a prefix in `order`) are longer than j bytes
    active = np.searchsorted(-lengths, -np.arange(lengths[0] if lengths.size else 0))
    for k in active.tolist():
        head = h[:k]
        head ^= data[pos[:k]]
        head *= prime
        pos[:k] += 1
    del pos, lengths
    out = np.empty_like(h)
    out[order] = h
    return out
