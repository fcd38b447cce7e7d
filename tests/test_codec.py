"""Wire codec: round trips, strictness, and a randomized corpus."""

import operator
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
from powerstore.erasure import (
    ErasureError, Fragment, fragment_from_bytes, fragment_to_bytes)


# ---------------------------------------------------------------------------
# Reference codec: byte-at-a-time, one method call per field. Slow, but each
# length check is spelled out; the struct codec must agree with it.
# ---------------------------------------------------------------------------

def _ref_blob16(data):
    if len(data) > 0xFFFF:
        raise MalformedMessage("field exceeds 16-bit length prefix")
    return len(data).to_bytes(2, "big") + data


def _ref_enc_ts(ts):
    return ts.num.to_bytes(8, "big") + ts.pid.to_bytes(8, "big") + _ref_blob16(ts.tag)


def _ref_enc_token(token):
    if token is None:
        return b"\x00"
    if isinstance(token, Polynomial):
        head = b"\x02" + token.q.to_bytes(8, "big") + len(token.coeffs).to_bytes(2, "big")
        return head + b"".join(c.to_bytes(8, "big") for c in token.coeffs)
    return b"\x01" + _ref_blob16(token)


def _ref_enc_commitment(com):
    if com is None:
        return b"\x00"
    if isinstance(com, ShamirShare):
        return (b"\x02" + com.x.to_bytes(8, "big") + com.y.to_bytes(8, "big")
                + com.q.to_bytes(8, "big"))
    return b"\x01" + _ref_blob16(com)


def _ref_enc_opt_list(entries):
    if entries is None:
        return b"\x00"
    return (b"\x01" + len(entries).to_bytes(2, "big")
            + b"".join(_ref_blob16(e) for e in entries))


def _ref_enc_fragment(fr):
    if fr is None:
        return b"\x00"
    body = fragment_to_bytes(fr)
    return b"\x01" + len(body).to_bytes(4, "big") + body


def _ref_enc_cand(c):
    return _ref_enc_ts(c.ts) + _ref_enc_token(c.token) + _ref_enc_opt_list(c.vec)


def _reference_encode(msg):
    k = msg.kind
    if k == codec.STORE:
        body = (_ref_enc_ts(msg.ts) + _ref_enc_fragment(msg.fr)
                + _ref_enc_opt_list(msg.cc) + _ref_enc_commitment(msg.commitment)
                + _ref_enc_opt_list(msg.vec))
    elif k in (codec.STORE_ACK, codec.COMPLETE_ACK, codec.CLOCK):
        body = _ref_enc_ts(msg.ts)
    elif k == codec.COMPLETE:
        body = (_ref_enc_ts(msg.ts) + _ref_enc_token(msg.token)
                + _ref_enc_opt_list(msg.vec))
    elif k in (codec.COLLECT, codec.REPAIR_ACK):
        body = msg.tsr.to_bytes(8, "big")
    elif k in (codec.COLLECT_ACK, codec.FILTER):
        body = (msg.tsr.to_bytes(8, "big") + len(msg.cands).to_bytes(2, "big")
                + b"".join(_ref_enc_cand(c) for c in msg.cands))
    elif k == codec.FILTER_ACK:
        body = (msg.tsr.to_bytes(8, "big") + _ref_enc_ts(msg.ts)
                + _ref_enc_fragment(msg.fr) + _ref_enc_opt_list(msg.cc)
                + _ref_enc_opt_list(msg.vec))
    elif k == codec.CLOCK_ACK:
        body = _ref_enc_ts(msg.echo) + _ref_enc_ts(msg.ts)
    else:
        assert k == codec.REPAIR
        body = msg.tsr.to_bytes(8, "big") + _ref_enc_cand(msg.cand)
    return bytes([k]) + body


class _Cursor:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise MalformedMessage("truncated message")
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return int.from_bytes(self.take(2), "big")

    def u64(self):
        return int.from_bytes(self.take(8), "big")

    def blob16(self):
        return self.take(self.u16())

    def flag(self):
        v = self.u8()
        if v > 1:
            raise MalformedMessage("bad presence flag %d" % v)
        return v == 1

    def ts(self):
        return Timestamp(self.u64(), self.u64(), self.blob16())

    def token(self):
        kind = self.u8()
        if kind == 0:
            return None
        if kind == 1:
            return self.blob16()
        if kind == 2:
            q = self.u64()
            if q < 2:
                raise MalformedMessage("polynomial field too small")
            count = self.u16()
            return Polynomial(tuple(self.u64() for _ in range(count)), q)
        raise MalformedMessage("bad token kind %d" % kind)

    def commitment(self):
        kind = self.u8()
        if kind == 0:
            return None
        if kind == 1:
            return self.blob16()
        if kind == 2:
            x, y, q = self.u64(), self.u64(), self.u64()
            if q < 2:
                raise MalformedMessage("share field too small")
            return ShamirShare(x, y, q)
        raise MalformedMessage("bad commitment kind %d" % kind)

    def opt_list(self):
        if not self.flag():
            return None
        return tuple(self.blob16() for _ in range(self.u16()))

    def fragment(self):
        if not self.flag():
            return None
        try:
            return fragment_from_bytes(self.take(int.from_bytes(self.take(4), "big")))
        except ErasureError as exc:
            raise MalformedMessage(str(exc)) from exc

    def cand(self):
        return Candidate(self.ts(), self.token(), self.opt_list())

    def cands(self):
        return tuple(self.cand() for _ in range(self.u16()))


def _reference_decode(data):
    if not data:
        raise MalformedMessage("empty message")
    cur = _Cursor(data)
    k = cur.u8()
    if k == codec.STORE:
        msg = Store(cur.ts(), cur.fragment(), cur.opt_list(), cur.commitment(),
                    cur.opt_list())
        if msg.fr is None or msg.cc is None:
            raise MalformedMessage("store requires fragment and cross-checksum")
    elif k == codec.STORE_ACK:
        msg = StoreAck(cur.ts())
    elif k == codec.COMPLETE:
        msg = Complete(cur.ts(), cur.token(), cur.opt_list())
    elif k == codec.COMPLETE_ACK:
        msg = CompleteAck(cur.ts())
    elif k == codec.COLLECT:
        msg = Collect(cur.u64())
    elif k == codec.COLLECT_ACK:
        msg = CollectAck(cur.u64(), cur.cands())
    elif k == codec.FILTER:
        msg = Filter(cur.u64(), cur.cands())
    elif k == codec.FILTER_ACK:
        msg = FilterAck(cur.u64(), cur.ts(), cur.fragment(), cur.opt_list(),
                        cur.opt_list())
    elif k == codec.CLOCK:
        msg = Clock(cur.ts())
    elif k == codec.CLOCK_ACK:
        msg = ClockAck(cur.ts(), cur.ts())
    elif k == codec.REPAIR:
        msg = Repair(cur.u64(), cur.cand())
    elif k == codec.REPAIR_ACK:
        msg = RepairAck(cur.u64())
    else:
        raise MalformedMessage("unknown message kind %d" % k)
    if cur.pos != len(data):
        raise MalformedMessage("%d trailing bytes" % (len(data) - cur.pos))
    return msg


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


def _leaves(obj):
    if isinstance(obj, tuple):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def test_roundtrip_every_kind():
    for msg in _samples():
        data = encode(msg)
        back = decode(data)
        assert back == msg
        assert encode(back) == data
        # tags, tokens, digests and MAC entries are hashed and type-checked
        assert not any(isinstance(x, (memoryview, bytearray)) for x in _leaves(back))


# messages with equal fields, one of each kind that carries just a timestamp
# or just a request number
_TWINS = [(StoreAck(Timestamp(4)), CompleteAck(Timestamp(4)), Clock(Timestamp(4))),
          (Collect(7), RepairAck(7))]


@pytest.mark.parametrize("twins", _TWINS, ids=["ts", "tsr"])
def test_kinds_with_equal_fields_are_unequal_and_encode_apart(twins):
    assert len(set(twins)) == len(twins)
    assert len({encode(m) for m in twins}) == len(twins)
    for a in twins:
        assert [a == b for b in twins] == [a is b for b in twins]
        assert decode(encode(a)).kind == a.kind


def test_messages_have_no_order():
    for a, b in [(Collect(1), Collect(2)), (StoreAck(Timestamp(1)),) * 2]:
        for cmp in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                cmp(a, b)
        with pytest.raises(TypeError):
            sorted([a, b])


def test_replace_keeps_the_kind_and_the_other_fields():
    ts = Timestamp(3, 1, b"t")
    msg = FilterAck(7, ts, Fragment(1, 3, b"abc"), (b"c",) * 4, None)
    new = msg._replace(vec=(b"v",) * 4)
    assert type(new) is FilterAck and new.kind == codec.FILTER_ACK
    assert (new.tsr, new.ts, new.fr, new.cc) == (msg.tsr, msg.ts, msg.fr, msg.cc)
    assert decode(encode(new)) == new != msg


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
    base = _ref_enc_ts(Timestamp(1))
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
    ts = _ref_enc_ts(Timestamp(1))
    no_fr = bytes([codec.STORE]) + ts + b"\x00" + b"\x01\x00\x00" + b"\x00" + b"\x00"
    with pytest.raises(MalformedMessage):
        decode(no_fr)
    fr = _ref_enc_fragment(Fragment(1, 1, b"x"))
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


def _structured_corpus(count):
    rng = random.Random(20240917)
    for _ in range(count):
        yield _rand_message(rng)


def test_fuzz_structured_roundtrip():
    for msg in _structured_corpus(20000):
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


def _mutate(rng, data):
    """One damaged copy of a valid encoding: cut short, a flipped bit, extra
    bytes, a byte set to a flag or kind value, or 0xFFFF over two bytes
    (which lands on a length or count field in most messages)."""
    pick = rng.randrange(5)
    if pick == 0:
        return data[:rng.randrange(len(data))]
    if pick == 2:
        return data + rng.randbytes(rng.randrange(1, 5))
    out = bytearray(data)
    at = rng.randrange(len(out))
    if pick == 1:
        out[at] ^= 1 << rng.randrange(8)
    elif pick == 3:
        out[at] = rng.choice((0, 1, 2, 3, 0xFF))
    else:
        out[at:at + 2] = b"\xff\xff"
    return bytes(out)


def _mutation_corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield _mutate(rng, encode(_rand_message(rng)))


def test_fuzz_mutations_rejected_cleanly_or_canonical():
    accepted = 0
    for blob in _mutation_corpus(0xC0DEC, 30_000):
        try:
            msg = decode(blob)
        except MalformedMessage:
            continue
        accepted += 1
        assert encode(msg) == blob
    # flips inside tags, payloads and integers still parse; cuts never do
    assert 0 < accepted < 30_000


def test_encodings_match_the_reference_codec():
    for msg in _structured_corpus(20000):
        assert encode(msg) == _reference_encode(msg), msg


def _verdict(fn, blob):
    try:
        return fn(blob)
    except MalformedMessage:
        return MalformedMessage


def test_decoding_matches_the_reference_codec_on_mutations():
    for blob in _mutation_corpus(0xDEC0DE, 20_000):
        assert _verdict(decode, blob) == _verdict(_reference_decode, blob), blob


@pytest.mark.parametrize("msg", [
    Collect(-1),
    Collect(1 << 64),
    Filter(1, (Candidate(Timestamp(1)),) * 0x10000),
    Clock(Timestamp(1, 0, b"\x00" * 0x10000)),
], ids=["negative", "over-64-bit", "65536-candidates", "65536-byte-tag"])
def test_encode_rejects_fields_wider_than_the_wire(msg):
    with pytest.raises(MalformedMessage):
        encode(msg)


# ---------------------------------------------------------------------------
# Candidate lists: the codec inlines the common shapes and falls back to the
# field codecs for the rest; both paths must agree with the reference.
# ---------------------------------------------------------------------------

def _list_cands():
    """Every token kind (absent, bytes, polynomial), the vector absent, empty
    and present, and empty and 16-byte tags."""
    tokens = [None, b"", b"\x42" * 32, Polynomial((3, 2, 7), MERSENNE_61)]
    vecs = [None, (), (b"m1", b"m2" * 8)]
    tags = [b"", b"\x10" * 16]
    return tuple(Candidate(Timestamp(i + 1, i % 3, tag), token, vec)
                 for i, (token, vec, tag) in enumerate(
                     (tk, v, tg) for tk in tokens for v in vecs for tg in tags))


def _list_messages():
    cands = _list_cands()
    msgs = [CollectAck(5, cands), Filter(6, cands), Filter(7, cands[::-1])]
    msgs += [Filter(8, (c,)) for c in cands]
    return msgs


def test_candidate_lists_match_the_reference_codec():
    for msg in _list_messages():
        data = encode(msg)
        assert data == _reference_encode(msg), msg
        assert decode(data) == _reference_decode(data) == msg


def test_decoded_candidates_are_the_constructed_types():
    for got, want in zip(decode(encode(Filter(1, _list_cands()))).cands,
                         _list_cands()):
        assert type(got) is Candidate and type(got.ts) is Timestamp
        assert got == want and hash(got) == hash(want)
        assert got.ts == want.ts and hash(got.ts) == hash(want.ts)
        assert got.ts.key() == want.ts.key() and got.sort_key() == want.sort_key()
        assert type(got.ts.tag) is bytes
        assert got.token is None or type(got.token) in (bytes, Polynomial)


def _variant_cands():
    """Each candidate shape (the common sw record, a tagged mw candidate
    with a vector, a None token, a polynomial token, an empty vector and an
    absent one), each beside variants at its timestamp that differ from it
    only in vector, tag or token."""
    nonce, vec = b"\x42" * 32, (b"m1", b"m2" * 8)
    sw, mw = Timestamp(4), Timestamp(4, 2, b"\x10" * 16)
    poly = Polynomial((3, 2, 7), MERSENNE_61)
    return (
        Candidate(sw, nonce),  # the common sw record
        Candidate(sw, nonce, ()), Candidate(sw, nonce, vec),  # vector
        Candidate(Timestamp(4, 0, b"\x10" * 16), nonce),  # tag
        Candidate(sw, b"\x43" * 32), Candidate(sw, nonce[:31]),  # token
        Candidate(sw, None), Candidate(sw, poly),
        Candidate(sw, Polynomial((3, 2, 8), MERSENNE_61)),
        Candidate(mw, nonce, vec),  # a tagged mw candidate with a vector
        Candidate(mw, nonce, (b"m1", b"m3" * 8)), Candidate(mw, nonce, ()),
        Candidate(mw, nonce), Candidate(mw, b"\x43" * 32, vec),
        Candidate(Timestamp(4, 2, b"\x11" * 16), nonce, vec),
        Candidate(mw, None, vec), Candidate(mw, poly, vec),
    )


def _variant_messages():
    """The variants in lists of every length and order, and alone."""
    cands = _variant_cands()
    msgs = [CollectAck(1, cands), Filter(2, cands[::-1]),
            Filter(3, cands[::2]), CollectAck(4, cands[1::2] * 2)]
    for i, cand in enumerate(cands):
        msgs += [Repair(10 + i, cand), Filter(40 + i, (cand,)),
                 CollectAck(70 + i, cands[i:] + cands[:i]),
                 Filter(100 + i, cands[:i + 1][::-1])]
    return msgs


def test_candidates_met_again_in_one_table_encode_as_the_reference():
    msgs = _variant_messages()
    for order in (msgs, msgs[::-1], msgs[1::2] + msgs[::2]):
        table = {}
        for msg in order:
            data = encode(msg, table)
            assert data == _reference_encode(msg) == encode(msg), msg
            assert decode(data) == msg


def _filter_wire(*cand_bytes):
    return (bytes([codec.FILTER]) + (1).to_bytes(8, "big")
            + len(cand_bytes).to_bytes(2, "big") + b"".join(cand_bytes))


# the 54-byte record of the common sw candidate (empty tag, 32-byte bytes
# token), here with vector flag 2
_FIXED_VEC_FLAG_2 = _ref_enc_ts(Timestamp(2)) + b"\x01\x00\x20" + b"\x42" * 32 + b"\x02"


@pytest.mark.parametrize("bad", [
    _ref_enc_ts(Timestamp(2)) + b"\x00" + b"\x02",  # vector flag 2, no token
    _ref_enc_ts(Timestamp(2)) + b"\x01\x00\x01n" + b"\x02",  # after a token
    _ref_enc_ts(Timestamp(2)) + b"\x03" + b"\x00",  # token kind 3
    _ref_enc_ts(Timestamp(2, 0, b"tag")) + b"\x03" + b"\x00",
    _FIXED_VEC_FLAG_2,
] + [_FIXED_VEC_FLAG_2[:cut] for cut in range(54)],
    ids=["vec-flag-2", "vec-flag-2-after-bytes", "token-kind-3",
         "token-kind-3-after-tag", "fixed-vec-flag-2"]
    + ["fixed-cut-at-%d" % cut for cut in range(54)])
def test_bad_bytes_inside_a_candidate_list_raise(bad):
    good = _ref_enc_cand(Candidate(Timestamp(1), b"n"))
    assert decode(_filter_wire(good, good))  # the frame itself is well formed
    for wire in (_filter_wire(bad), _filter_wire(good, bad)):
        with pytest.raises(MalformedMessage):
            decode(wire)
        with pytest.raises(MalformedMessage):
            _reference_decode(wire)


@pytest.mark.parametrize("cand", [
    Candidate(Timestamp(1, 0, b"\x00" * 0x10000), b"n"),
    Candidate(Timestamp(1), b"\x00" * 0x10000),
    Candidate(Timestamp(1), b"n", (b"\x00" * 0x10000,)),
    Candidate(Timestamp(-1), b"n"),
    Candidate(Timestamp(2 ** 64), b"\x42" * 32),  # the 54-byte record
    Candidate(Timestamp(1, -1), b"\x42" * 32),
], ids=["65536-byte-tag", "65536-byte-token", "65536-byte-vec-entry",
        "negative-num", "fixed-over-64-bit-num", "fixed-negative-pid"])
def test_encode_rejects_wide_fields_inside_a_list(cand):
    good = Candidate(Timestamp(1), b"n")
    for msg in (Filter(1, (good, cand)), CollectAck(1, (cand,))):
        with pytest.raises(MalformedMessage):
            encode(msg)
