"""Wire codec: round trips, strictness, and a randomized corpus."""

import random

import pytest

from powerstore import codec
from powerstore.codec import (
    Clock,
    ClockAck,
    Collect,
    CollectAck,
    Complete,
    CompleteAck,
    Filter,
    FilterAck,
    MalformedMessage,
    Repair,
    RepairAck,
    Store,
    StoreAck,
    decode,
    encode,
)
from powerstore.core import Candidate, Timestamp
from powerstore.crypto import MERSENNE_61, Polynomial, ShamirShare, digest
from powerstore.erasure import Fragment


def _samples():
    ts = Timestamp(3, 1, b"\xaa\xbb")
    fr = Fragment(2, 11, b"payload-bytes")
    cc = tuple(digest(b"%d" % i) for i in range(4))
    nonce = b"\x42" * 32
    poly = Polynomial((3, 2), 13)
    share = ShamirShare(1, 5, 13)
    vec = (b"m1", b"m2", b"m3", b"m4")
    cands = (Candidate(Timestamp(1), nonce), Candidate(ts, poly, vec))
    return [
        Store(ts, fr, cc, digest(nonce), None),
        Store(ts, fr, cc, share, vec),
        StoreAck(ts),
        Complete(ts, nonce, vec),
        Complete(Timestamp(9), poly, None),
        CompleteAck(ts),
        Collect(7),
        CollectAck(7, cands),
        CollectAck(8, ()),
        Filter(7, cands),
        FilterAck(7, ts, fr, cc, vec),
        FilterAck(7, Timestamp(0), None, None, None),
        Clock(ts),
        ClockAck(ts, Timestamp(5, 2, b"t")),
        Repair(3, Candidate(ts, nonce, vec)),
        RepairAck(3),
    ]


def test_roundtrip_every_kind():
    for msg in _samples():
        data = encode(msg)
        back = decode(data)
        assert back == msg
        assert encode(back) == data


def test_empty_and_unknown_kinds_rejected():
    for bad in (b"", bytes([0]), bytes([13]) + b"\x00" * 8, bytes([200])):
        with pytest.raises(MalformedMessage):
            decode(bad)


def test_every_strict_prefix_and_trailing_byte_rejected():
    for msg in _samples():
        data = encode(msg)
        for cut in range(len(data)):
            with pytest.raises(MalformedMessage):
                decode(data[:cut])
        with pytest.raises(MalformedMessage):
            decode(data + b"\x00")


def test_bad_flag_and_field_bytes_rejected():
    base = codec._enc_ts(Timestamp(1))
    # presence flag other than 0/1
    with pytest.raises(MalformedMessage):
        decode(bytes([codec.COMPLETE]) + base + b"\x01\x07\x00\x02" + b"\x02")
    # token kind 3
    with pytest.raises(MalformedMessage):
        decode(bytes([codec.COMPLETE]) + base + b"\x03" + b"\x00")
    # polynomial with field size below 2
    bad_poly = b"\x02" + (1).to_bytes(8, "big") + (0).to_bytes(2, "big")
    with pytest.raises(MalformedMessage):
        decode(bytes([codec.COMPLETE]) + base + bad_poly + b"\x00")


def test_store_requires_fragment_and_cross_checksum():
    ts = codec._enc_ts(Timestamp(1))
    no_fr = bytes([codec.STORE]) + ts + b"\x00" + b"\x01\x00\x00" + b"\x00" + b"\x00"
    with pytest.raises(MalformedMessage):
        decode(no_fr)
    fr = codec._enc_fragment(Fragment(1, 1, b"x"))
    no_cc = bytes([codec.STORE]) + ts + fr + b"\x00" + b"\x00" + b"\x00"
    with pytest.raises(MalformedMessage):
        decode(no_cc)


def _rand_ts(rng):
    return Timestamp(rng.randrange(1 << 20), rng.randrange(1 << 10),
                     rng.randbytes(rng.randrange(0, 40)))


def _rand_token(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return None
    if pick == 1:
        return rng.randbytes(rng.randrange(1, 48))
    q = rng.choice([13, 101, MERSENNE_61])
    return Polynomial(tuple(rng.randrange(q) for _ in range(rng.randrange(5))), q)


def _rand_list(rng):
    if rng.randrange(4) == 0:
        return None
    return tuple(rng.randbytes(rng.randrange(0, 36))
                 for _ in range(rng.randrange(5)))


def _rand_fragment(rng):
    if rng.randrange(4) == 0:
        return None
    return Fragment(rng.randrange(1 << 16), rng.randrange(1 << 40),
                    rng.randbytes(rng.randrange(0, 64)))


def _rand_cand(rng):
    return Candidate(_rand_ts(rng), _rand_token(rng), _rand_list(rng))


def _rand_message(rng):
    kind = rng.randrange(1, 13)
    ts = _rand_ts(rng)
    if kind == codec.STORE:
        fr = _rand_fragment(rng) or Fragment(1, 1, b"x")
        cc = _rand_list(rng) or ()
        com = rng.choice([rng.randbytes(32),
                          ShamirShare(rng.randrange(1, 99), rng.randrange(99), 101)])
        return Store(ts, fr, cc, com, _rand_list(rng))
    if kind == codec.STORE_ACK:
        return StoreAck(ts)
    if kind == codec.COMPLETE:
        return Complete(ts, _rand_token(rng), _rand_list(rng))
    if kind == codec.COMPLETE_ACK:
        return CompleteAck(ts)
    if kind == codec.COLLECT:
        return Collect(rng.randrange(1 << 32))
    if kind == codec.COLLECT_ACK:
        return CollectAck(rng.randrange(1 << 32),
                          tuple(_rand_cand(rng) for _ in range(rng.randrange(4))))
    if kind == codec.FILTER:
        return Filter(rng.randrange(1 << 32),
                      tuple(_rand_cand(rng) for _ in range(rng.randrange(4))))
    if kind == codec.FILTER_ACK:
        return FilterAck(rng.randrange(1 << 32), ts, _rand_fragment(rng),
                         _rand_list(rng), _rand_list(rng))
    if kind == codec.CLOCK:
        return Clock(ts)
    if kind == codec.CLOCK_ACK:
        return ClockAck(ts, _rand_ts(rng))
    if kind == codec.REPAIR:
        return Repair(rng.randrange(1 << 32), _rand_cand(rng))
    return RepairAck(rng.randrange(1 << 32))


def test_fuzz_structured_roundtrip():
    rng = random.Random(20240917)
    for _ in range(20000):
        msg = _rand_message(rng)
        data = encode(msg)
        back = decode(data)
        assert back == msg
        assert encode(back) == data


def test_fuzz_random_bytes_never_crash():
    rng = random.Random(0xFEED)
    accepted = 0
    for _ in range(100_000):
        blob = rng.randbytes(rng.randrange(0, 40))
        try:
            msg = decode(blob)
        except MalformedMessage:
            continue
        accepted += 1
        # strict decoding makes the wire form canonical
        assert encode(msg) == blob
    # short random blobs do occasionally parse (acks are 19 bytes of zeros)
    assert accepted < 1000
