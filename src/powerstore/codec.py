"""Protocol messages and the canonical wire codec.

Layout: one kind byte, then kind-specific fields. Integers are big-endian;
variable-length fields carry a 16-bit (tags, digests, nonces) or 32-bit
(fragments) length prefix. Decoding is strict: unknown kind bytes, truncated
fields, bad presence flags, and trailing bytes all raise MalformedMessage.
docs/wire-format.md holds the byte-level reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Candidate, Timestamp
from .crypto import Polynomial, ShamirShare
from .erasure import ErasureError, Fragment, fragment_from_bytes, fragment_to_bytes


class MalformedMessage(Exception):
    """Bytes that do not parse as a protocol message."""


# kind bytes
STORE, STORE_ACK = 1, 2
COMPLETE, COMPLETE_ACK = 3, 4
COLLECT, COLLECT_ACK = 5, 6
FILTER, FILTER_ACK = 7, 8
CLOCK, CLOCK_ACK = 9, 10
REPAIR, REPAIR_ACK = 11, 12

KIND_NAMES = {
    STORE: "STORE", STORE_ACK: "STORE_ACK",
    COMPLETE: "COMPLETE", COMPLETE_ACK: "COMPLETE_ACK",
    COLLECT: "COLLECT", COLLECT_ACK: "COLLECT_ACK",
    FILTER: "FILTER", FILTER_ACK: "FILTER_ACK",
    CLOCK: "CLOCK", CLOCK_ACK: "CLOCK_ACK",
    REPAIR: "REPAIR", REPAIR_ACK: "REPAIR_ACK",
}


@dataclass(frozen=True)
class Store:
    ts: Timestamp
    fr: Fragment
    cc: tuple
    commitment: object  # bytes digest or ShamirShare
    vec: Optional[tuple] = None
    kind = STORE


@dataclass(frozen=True)
class StoreAck:
    ts: Timestamp
    kind = STORE_ACK


@dataclass(frozen=True)
class Complete:
    ts: Timestamp
    token: object
    vec: Optional[tuple] = None
    kind = COMPLETE


@dataclass(frozen=True)
class CompleteAck:
    ts: Timestamp
    kind = COMPLETE_ACK


@dataclass(frozen=True)
class Collect:
    tsr: int
    kind = COLLECT


@dataclass(frozen=True)
class CollectAck:
    tsr: int
    cands: tuple
    kind = COLLECT_ACK


@dataclass(frozen=True)
class Filter:
    tsr: int
    cands: tuple
    kind = FILTER


@dataclass(frozen=True)
class FilterAck:
    tsr: int
    ts: Timestamp
    fr: Optional[Fragment]
    cc: Optional[tuple]
    vec: Optional[tuple] = None
    kind = FILTER_ACK


@dataclass(frozen=True)
class Clock:
    ts: Timestamp
    kind = CLOCK


@dataclass(frozen=True)
class ClockAck:
    echo: Timestamp
    ts: Timestamp
    kind = CLOCK_ACK


@dataclass(frozen=True)
class Repair:
    tsr: int
    cand: Candidate
    kind = REPAIR


@dataclass(frozen=True)
class RepairAck:
    tsr: int
    kind = REPAIR_ACK


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _blob16(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise MalformedMessage("field exceeds 16-bit length prefix")
    return len(data).to_bytes(2, "big") + data


def _blob32(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _enc_ts(ts: Timestamp) -> bytes:
    return ts.num.to_bytes(8, "big") + ts.pid.to_bytes(8, "big") + _blob16(ts.tag)


def _enc_token(token) -> bytes:
    if token is None:
        return b"\x00"
    if isinstance(token, Polynomial):
        head = b"\x02" + token.q.to_bytes(8, "big") + len(token.coeffs).to_bytes(2, "big")
        return head + b"".join(c.to_bytes(8, "big") for c in token.coeffs)
    return b"\x01" + _blob16(token)


def _enc_commitment(com) -> bytes:
    if com is None:
        return b"\x00"
    if isinstance(com, ShamirShare):
        return (b"\x02" + com.x.to_bytes(8, "big") + com.y.to_bytes(8, "big")
                + com.q.to_bytes(8, "big"))
    return b"\x01" + _blob16(com)


def _enc_opt_list(entries: Optional[tuple]) -> bytes:
    if entries is None:
        return b"\x00"
    out = [b"\x01", len(entries).to_bytes(2, "big")]
    out.extend(_blob16(e) for e in entries)
    return b"".join(out)


def _enc_fragment(fr: Optional[Fragment]) -> bytes:
    if fr is None:
        return b"\x00"
    return b"\x01" + _blob32(fragment_to_bytes(fr))


def _enc_cand(c: Candidate) -> bytes:
    return _enc_ts(c.ts) + _enc_token(c.token) + _enc_opt_list(c.vec)


def _enc_cands(cands: tuple) -> bytes:
    out = [len(cands).to_bytes(2, "big")]
    out.extend(_enc_cand(c) for c in cands)
    return b"".join(out)


def encode(msg) -> bytes:
    k = msg.kind
    if k == STORE:
        body = (_enc_ts(msg.ts) + _enc_fragment(msg.fr) + _enc_opt_list(msg.cc)
                + _enc_commitment(msg.commitment) + _enc_opt_list(msg.vec))
    elif k in (STORE_ACK, COMPLETE_ACK):
        body = _enc_ts(msg.ts)
    elif k == COMPLETE:
        body = _enc_ts(msg.ts) + _enc_token(msg.token) + _enc_opt_list(msg.vec)
    elif k == COLLECT:
        body = msg.tsr.to_bytes(8, "big")
    elif k in (COLLECT_ACK, FILTER):
        body = msg.tsr.to_bytes(8, "big") + _enc_cands(msg.cands)
    elif k == FILTER_ACK:
        body = (msg.tsr.to_bytes(8, "big") + _enc_ts(msg.ts) + _enc_fragment(msg.fr)
                + _enc_opt_list(msg.cc) + _enc_opt_list(msg.vec))
    elif k == CLOCK:
        body = _enc_ts(msg.ts)
    elif k == CLOCK_ACK:
        body = _enc_ts(msg.echo) + _enc_ts(msg.ts)
    elif k == REPAIR:
        body = msg.tsr.to_bytes(8, "big") + _enc_cand(msg.cand)
    elif k == REPAIR_ACK:
        body = msg.tsr.to_bytes(8, "big")
    else:
        raise MalformedMessage("unknown message kind %r" % (k,))
    return bytes([k]) + body


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

class _Cursor:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise MalformedMessage("truncated message")
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def blob16(self) -> bytes:
        return self.take(self.u16())

    def blob32(self) -> bytes:
        return self.take(int.from_bytes(self.take(4), "big"))

    def flag(self) -> bool:
        v = self.u8()
        if v > 1:
            raise MalformedMessage("bad presence flag %d" % v)
        return v == 1

    def done(self):
        if self.pos != len(self.data):
            raise MalformedMessage("%d trailing bytes" % (len(self.data) - self.pos))


def _dec_ts(cur: _Cursor) -> Timestamp:
    return Timestamp(cur.u64(), cur.u64(), cur.blob16())


def _dec_token(cur: _Cursor):
    kind = cur.u8()
    if kind == 0:
        return None
    if kind == 1:
        return cur.blob16()
    if kind == 2:
        q = cur.u64()
        if q < 2:
            raise MalformedMessage("polynomial field too small")
        count = cur.u16()
        return Polynomial(tuple(cur.u64() for _ in range(count)), q)
    raise MalformedMessage("bad token kind %d" % kind)


def _dec_commitment(cur: _Cursor):
    kind = cur.u8()
    if kind == 0:
        return None
    if kind == 1:
        return cur.blob16()
    if kind == 2:
        x, y, q = cur.u64(), cur.u64(), cur.u64()
        if q < 2:
            raise MalformedMessage("share field too small")
        return ShamirShare(x, y, q)
    raise MalformedMessage("bad commitment kind %d" % kind)


def _dec_opt_list(cur: _Cursor) -> Optional[tuple]:
    if not cur.flag():
        return None
    return tuple(cur.blob16() for _ in range(cur.u16()))


def _dec_fragment(cur: _Cursor) -> Optional[Fragment]:
    if not cur.flag():
        return None
    try:
        return fragment_from_bytes(cur.blob32())
    except ErasureError as exc:
        raise MalformedMessage(str(exc)) from exc


def _dec_cand(cur: _Cursor) -> Candidate:
    return Candidate(_dec_ts(cur), _dec_token(cur), _dec_opt_list(cur))


def _dec_cands(cur: _Cursor) -> tuple:
    return tuple(_dec_cand(cur) for _ in range(cur.u16()))


def decode(data: bytes):
    if not data:
        raise MalformedMessage("empty message")
    cur = _Cursor(data)
    k = cur.u8()
    if k == STORE:
        msg = Store(_dec_ts(cur), _dec_fragment(cur), _dec_opt_list(cur),
                    _dec_commitment(cur), _dec_opt_list(cur))
        if msg.fr is None or msg.cc is None:
            raise MalformedMessage("store requires fragment and cross-checksum")
    elif k == STORE_ACK:
        msg = StoreAck(_dec_ts(cur))
    elif k == COMPLETE:
        msg = Complete(_dec_ts(cur), _dec_token(cur), _dec_opt_list(cur))
    elif k == COMPLETE_ACK:
        msg = CompleteAck(_dec_ts(cur))
    elif k == COLLECT:
        msg = Collect(cur.u64())
    elif k == COLLECT_ACK:
        msg = CollectAck(cur.u64(), _dec_cands(cur))
    elif k == FILTER:
        msg = Filter(cur.u64(), _dec_cands(cur))
    elif k == FILTER_ACK:
        msg = FilterAck(cur.u64(), _dec_ts(cur), _dec_fragment(cur),
                        _dec_opt_list(cur), _dec_opt_list(cur))
    elif k == CLOCK:
        msg = Clock(_dec_ts(cur))
    elif k == CLOCK_ACK:
        msg = ClockAck(_dec_ts(cur), _dec_ts(cur))
    elif k == REPAIR:
        msg = Repair(cur.u64(), _dec_cand(cur))
    elif k == REPAIR_ACK:
        msg = RepairAck(cur.u64())
    else:
        raise MalformedMessage("unknown message kind %d" % k)
    cur.done()
    return msg
