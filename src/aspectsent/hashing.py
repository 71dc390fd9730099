"""Stable 64-bit hashing shared by feature bucketing and daily sampling.

The hash is FNV-1a over bytes with the seed folded in first, so a given
(seed, payload) pair hashes identically on any platform or runtime:

    h = 14695981039346656037                     # FNV-1a 64-bit offset basis
    for byte in seed_as_8_bytes_le + payload_utf8:
        h = ((h XOR byte) * 1099511628211) mod 2**64
"""

from functools import lru_cache

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
