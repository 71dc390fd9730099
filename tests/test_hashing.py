import numpy as np
from hypothesis import example, given, strategies as st

from aspectsent.hashing import FNV64_OFFSET, FNV64_PRIME, stable_hash64, stable_hash64_lines


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


_LONG_LINE = (bytes(range(11, 256)) * 41)[:10_000]  # every byte value but 0..10, so no b"\n"
_payloads = st.lists(
    st.binary().map(lambda b: b.replace(b"\n", b""))
    | st.text().map(lambda t: t.replace("\n", "").encode("utf-8")),
    max_size=12,
)


@given(seed=st.integers(-(2**70), 2**70), payloads=_payloads)
@example(seed=0, payloads=[])
@example(seed=-1, payloads=[b""])
@example(seed=2**64, payloads=[b"", "数据 é".encode("utf-8"), _LONG_LINE, b"", b"<url>"])
def test_lines_match_docstring_loop(seed, payloads):
    expected = [fnv1a_reference(seed, p) for p in payloads]
    got = stable_hash64_lines(seed, b"".join(p + b"\n" for p in payloads))
    assert got.dtype == np.uint64
    assert got.tolist() == expected
    # as in a file, the last line may lack its b"\n"
    if payloads and payloads[-1]:
        assert stable_hash64_lines(seed, b"\n".join(payloads)).tolist() == expected
