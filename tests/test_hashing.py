from hypothesis import given, strategies as st

from aspectsent.hashing import FNV64_OFFSET, FNV64_PRIME, stable_hash64


def fnv1a_reference(seed, payload):
    """The loop in the hashing module docstring, over seed bytes then payload."""
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    h = FNV64_OFFSET
    for byte in (seed % 2**64).to_bytes(8, "little") + data:
        h = ((h ^ byte) * FNV64_PRIME) % 2**64
    return h


@given(seed=st.integers(-(2**70), 2**70), payload=st.text() | st.binary())
def test_matches_docstring_loop(seed, payload):
    assert stable_hash64(seed, payload) == fnv1a_reference(seed, payload)


def test_interleaved_seeds_stay_independent():
    # the per-seed prefix cache must never hand one seed's state to another
    seeds = [0, 1, 2**64 - 1, -1, 7, 0, 2**64, 1]
    got = [stable_hash64(s, "china") for s in seeds]
    assert got == [fnv1a_reference(s, "china") for s in seeds]
    assert got[0] == got[5] == got[6]  # 2**64 folds to 0
    assert got[2] == got[3]  # -1 folds to 2**64 - 1
