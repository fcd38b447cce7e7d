"""Erasure coding: MDS subset decoding, checksums, fragment wire layout."""

import hashlib
import random
from itertools import combinations

import pytest

from powerstore import erasure
from powerstore.crypto import digest
from powerstore.erasure import (
    Fragment,
    FRAGMENT_HEADER_BYTES,
    ErasureError,
    cross_checksum,
    decode,
    encode,
    fragment_from_bytes,
    fragment_to_bytes,
)


def test_small_value_every_pair_decodes():
    frags = encode(b"abc", k=2, s=4)
    assert len(frags) == 4
    for pair in combinations(frags, 2):
        assert decode(pair, k=2, s=4) == b"abc"


def test_one_mib_every_four_subset_decodes():
    rng = random.Random(100)
    value = rng.randbytes(1 << 20)
    frags = encode(value, k=4, s=10)
    for subset in combinations(range(10), 4):
        assert decode([frags[i] for i in subset], k=4, s=10) == value


def test_checksum_detects_fragment_corruption():
    frags = encode(b"abcdef", k=2, s=4)
    cc = cross_checksum(frags)
    bad = Fragment(frags[1].index, frags[1].orig_len,
                   bytes([frags[1].payload[0] ^ 1]) + frags[1].payload[1:])
    assert digest(fragment_to_bytes(bad)) != cc[1]
    assert digest(fragment_to_bytes(frags[1])) == cc[1]


def test_systematic_prefix_is_the_value():
    frags = encode(b"abcd", k=2, s=4)
    assert frags[0].payload + frags[1].payload == b"abcd"
    assert decode(frags[:2], k=2, s=4) == b"abcd"


def test_insufficient_and_bad_index_errors():
    frags = encode(b"abc", k=2, s=4)
    with pytest.raises(ErasureError, match=r"^1 distinct fragments, need 2$"):
        decode(frags[:1], k=2, s=4)
    with pytest.raises(ErasureError, match=r"^1 distinct fragments, need 2$"):
        decode([frags[0], frags[0]], k=2, s=4)  # duplicates don't count
    with pytest.raises(ErasureError, match=r"^fragment index 5 outside 1\.\.4$"):
        decode([Fragment(5, 3, frags[0].payload), frags[1]], k=2, s=4)
    with pytest.raises(ErasureError, match=r"^fragment index 0 outside 1\.\.4$"):
        decode([Fragment(0, 3, frags[0].payload), frags[1]], k=2, s=4)


def test_encode_validates_arguments():
    with pytest.raises(ValueError):
        encode(b"", k=2, s=4)
    with pytest.raises(ValueError):
        encode(b"x", k=5, s=4)
    with pytest.raises(ValueError):
        encode(b"x", k=0, s=4)


def test_mismatched_lengths_rejected():
    frags = encode(b"abcdefgh", k=2, s=4)
    wrong = Fragment(frags[2].index, 5, frags[2].payload)
    with pytest.raises(ErasureError):
        decode([frags[0], wrong], k=2, s=4)
    short = Fragment(frags[2].index, frags[2].orig_len, frags[2].payload[:-1])
    with pytest.raises(ErasureError):
        decode([frags[0], short], k=2, s=4)


def test_random_values_random_subsets_round_trip():
    rng = random.Random(101)
    for _ in range(60):
        t = rng.randrange(1, 4)
        k, s = t + 1, 3 * t + 1
        size = rng.choice([1, 2, k - 1 or 1, k, k + 1, 37, 1000, 4096])
        value = rng.randbytes(size)
        frags = encode(value, k, s)
        assert all(fr.orig_len == size for fr in frags)
        subset = rng.sample(frags, k)
        assert decode(subset, k, s) == value
        oversupply = rng.sample(frags, min(s, k + 2))
        assert decode(oversupply, k, s) == value


def test_padding_boundaries():
    for size in (1, 2, 3, 4, 5, 6, 7, 8, 9):
        value = bytes(range(size))
        frags = encode(value, k=3, s=7)
        for subset in combinations(frags, 3):
            assert decode(subset, k=3, s=7) == value


def test_blowup_factor_within_one_percent_at_64k():
    for t in (1, 2, 3):
        k, s = t + 1, 3 * t + 1
        value = random.Random(102).randbytes(64 * 1024)
        frags = encode(value, k, s)
        total = sum(len(fragment_to_bytes(fr)) for fr in frags)
        ideal = s / k * len(value)
        assert abs(total - ideal) / ideal < 0.01


def test_fragment_wire_round_trip_and_errors():
    fr = Fragment(3, 11, b"payloadbyte")
    wire = fragment_to_bytes(fr)
    assert len(wire) == FRAGMENT_HEADER_BYTES + len(fr.payload)
    assert fragment_from_bytes(wire) == fr
    assert wire[:2] == b"\x00\x03"
    assert int.from_bytes(wire[2:10], "big") == 11
    with pytest.raises(ErasureError):
        fragment_from_bytes(wire[:9])


# SHA-256 over the wire bytes of every fragment below, in order. Round trips
# alone would pass any valid MDS code; this pins the code itself (the
# generator [I ; Cauchy] over GF(2^8) mod 0x11D), which the logs cannot show
# because they record only fragment sizes.
KNOWN_ANSWER_SHA256 = (
    "801fb8f766400a62cb337d8f73eb14825b693963e3651f9f4cf0606783508d56")


def test_known_answer_fragments_and_every_subset_decode():
    h = hashlib.sha256()
    for t in (1, 2, 3, 10):
        k, s = t + 1, 3 * t + 1
        for size in (1, 23, 24, 64, 224, 4097, 65536):
            value = random.Random(1000 * t + size).randbytes(size)
            frags = encode(value, k, s)
            for fr in frags:
                h.update(fragment_to_bytes(fr))
            if t <= 3:
                for subset in combinations(frags, k):
                    assert decode(subset, k, s) == value
    assert h.hexdigest() == KNOWN_ANSWER_SHA256
