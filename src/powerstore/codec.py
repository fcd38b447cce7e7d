"""Protocol messages and the canonical wire codec.

Layout: one kind byte, then kind-specific fields. Integers are big-endian;
variable-length fields carry a 16-bit (tags, digests, nonces) or 32-bit
(fragments) length prefix. Decoding is strict: unknown kind bytes, truncated
fields, bad presence flags, and trailing bytes all raise MalformedMessage.
So does encoding a field wider than its wire width. docs/wire-format.md holds
the byte-level reference.
"""

from __future__ import annotations

import struct
from collections import namedtuple
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

# ---------------------------------------------------------------------------
# Field codecs
#
# Each field type is an (encode, decode) pair. Encoders take (out, value,
# table) and append wire pieces to the list out that encode() joins once;
# decoders take (data, pos) and return (value, pos). The table is encode's
# (see encode): of the field codecs, only the optional-list and
# candidate-list encoders read and fill it. Decoders never check lengths:
# struct raises on a short read, indexing raises IndexError, and a blob
# slice that runs past the end leaves pos beyond len(data), which decode()
# rejects after the last field.
# ---------------------------------------------------------------------------

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_TS = struct.Struct(">QQH")  # num, pid, tag length
_FLAG_U16 = struct.Struct(">BH")  # presence or kind byte, then a 16-bit count
_FLAG_U32 = struct.Struct(">BI")
_POLY = struct.Struct(">BQH")  # kind 2, q, coefficient count
# the common sw candidate: num, pid, empty tag, a 32-byte bytes token, no vector
_REC = struct.Struct(">QQHBH32sB")
_SHARE = struct.Struct(">BQQQ")  # kind 2, x, y, q


def _enc_u64(out, v, table):
    out.append(_U64.pack(v))


def _dec_u64(data, pos):
    return _U64.unpack_from(data, pos)[0], pos + 8


def _enc_ts(out, ts: Timestamp, table):
    out += (_TS.pack(ts.num, ts.pid, len(ts.tag)), ts.tag)


def _dec_ts(data, pos):
    num, pid, n = _TS.unpack_from(data, pos)
    pos += 18  # _TS.size
    return tuple.__new__(Timestamp, (num, pid, data[pos:pos + n])), pos + n


def _dec_blob16(data, pos):
    end = pos + 2 + _U16.unpack_from(data, pos)[0]
    return data[pos + 2:end], end


def _enc_token(out, token, table):
    if token is None:
        out.append(b"\x00")
    elif isinstance(token, Polynomial):
        n = len(token.coeffs)
        out += (_POLY.pack(2, token.q, n), struct.pack(">%dQ" % n, *token.coeffs))
    else:
        out += (_FLAG_U16.pack(1, len(token)), token)


def _dec_token(data, pos):
    kind = data[pos]
    if kind == 0:
        return None, pos + 1
    if kind == 1:
        return _dec_blob16(data, pos + 1)
    if kind == 2:
        _, q, n = _POLY.unpack_from(data, pos)
        if q < 2:
            raise MalformedMessage("polynomial field too small")
        pos += _POLY.size
        return Polynomial(struct.unpack_from(">%dQ" % n, data, pos), q), pos + 8 * n
    raise MalformedMessage("bad token kind %d" % kind)


def _enc_commitment(out, com, table):
    if com is None:
        out.append(b"\x00")
    elif isinstance(com, ShamirShare):
        out.append(_SHARE.pack(2, com.x, com.y, com.q))
    else:
        out += (_FLAG_U16.pack(1, len(com)), com)


def _dec_commitment(data, pos):
    kind = data[pos]
    if kind == 0:
        return None, pos + 1
    if kind == 1:
        return _dec_blob16(data, pos + 1)
    if kind == 2:
        _, x, y, q = _SHARE.unpack_from(data, pos)
        if q < 2:
            raise MalformedMessage("share field too small")
        return ShamirShare(x, y, q), pos + _SHARE.size
    raise MalformedMessage("bad commitment kind %d" % kind)


def _present(data, pos) -> bool:
    flag = data[pos]
    if flag > 1:
        raise MalformedMessage("bad presence flag %d" % flag)
    return flag == 1


# Cross-checksums and MAC vectors repeat from message to message, even
# inside STOREs, which the table keeps only until their one delivery, so
# the encoder keeps each list it meets in the table, its tuple mapped to
# its wire piece.
def _enc_opt_list(out, entries: Optional[tuple], table):
    if entries is None:
        out.append(b"\x00")
        return
    piece = table.get(entries)
    if piece is None:
        parts = [_FLAG_U16.pack(1, len(entries))]
        for e in entries:
            parts += (_U16.pack(len(e)), e)
        piece = table[entries] = b"".join(parts)
    out.append(piece)


def _dec_opt_list(data, pos):
    if not _present(data, pos):
        return None, pos + 1
    count = _U16.unpack_from(data, pos + 1)[0]
    pos += 3
    out = []
    for _ in range(count):
        entry, pos = _dec_blob16(data, pos)
        out.append(entry)
    return tuple(out), pos


def _enc_fragment(out, fr: Optional[Fragment], table):
    if fr is None:
        out.append(b"\x00")
        return
    body = fragment_to_bytes(fr)
    out += (_FLAG_U32.pack(1, len(body)), body)


def _dec_fragment(data, pos):
    if not _present(data, pos):
        return None, pos + 1
    end = _U32.unpack_from(data, pos + 1)[0] + pos + 5
    try:
        return fragment_from_bytes(data[pos + 5:end]), end
    except ErasureError as exc:
        raise MalformedMessage(str(exc)) from exc


def _enc_cand(out, c: Candidate, table):
    _enc_ts(out, c.ts, table)
    _enc_token(out, c.token, table)
    _enc_opt_list(out, c.vec, table)


def _dec_cand(data, pos):
    ts, pos = _dec_ts(data, pos)
    token, pos = _dec_token(data, pos)
    vec, pos = _dec_opt_list(data, pos)
    return tuple.__new__(Candidate, (ts, token, vec)), pos


# Candidate lists are the longest wire field, and the same candidates come
# back in list after list: LC is returned on every COLLECT and written back
# on every FILTER. So the encoder builds each candidate's record once a
# table and keeps it there, the whole Candidate mapping to its record
# bytes. It packs the common sw record (empty tag, 32-byte bytes token, no
# vector) in one _REC call; any other shape takes _enc_cand. A run parses
# candidate lists only from an adversary's raw bytes (see decode), so the
# decoder is a plain loop over _dec_cand.
def _enc_cands(out, cands: tuple, table):
    out.append(_U16.pack(len(cands)))
    rec_pack, get = _REC.pack, table.get
    for c in cands:
        rec = get(c)
        if rec is None:
            (num, pid, tag), token, vec = c
            if (vec is None and tag == b"" and type(token) is bytes
                    and len(token) == 32):
                rec = rec_pack(num, pid, 0, 1, 32, token, 0)
            else:
                parts = []
                _enc_cand(parts, c, table)
                rec = b"".join(parts)
            table[c] = rec
        out.append(rec)


def _dec_cands(data, pos):
    count = _U16.unpack_from(data, pos)[0]
    pos += 2
    out = []
    for _ in range(count):
        cand, pos = _dec_cand(data, pos)
        out.append(cand)
    return tuple(out), pos


_u64 = (_enc_u64, _dec_u64)
_ts = (_enc_ts, _dec_ts)
_token = (_enc_token, _dec_token)
_commitment = (_enc_commitment, _dec_commitment)
_opt_list = (_enc_opt_list, _dec_opt_list)
_fragment = (_enc_fragment, _dec_fragment)
_cand = (_enc_cand, _dec_cand)
_cands = (_enc_cands, _dec_cands)

KIND_NAMES = {}  # kind byte -> name, e.g. STORE_ACK -> "STORE_ACK"
HANDLER_NAMES = {}  # kind byte -> handler method name, e.g. "_on_store_ack"
_LAYOUT = {}  # kind byte -> (class, field types in wire order)


def _unordered(self, other):
    raise TypeError("messages are unordered")


def _message(kind, name, **fields):
    """The immutable class of one message kind: a tuple of its fields, each
    keyword naming one and giving its field type in wire order, then the kind
    byte, so messages of different kinds never compare equal. A MAC vector
    (`vec`) is absent in single-writer mode, so it defaults to None."""
    names = tuple(fields) + ("kind",)
    cls = namedtuple(name.title().replace("_", ""), names, module=__name__,
                     defaults=(None, kind) if "vec" in fields else (kind,))
    cls.__lt__ = cls.__le__ = cls.__gt__ = cls.__ge__ = _unordered
    KIND_NAMES[kind] = name
    HANDLER_NAMES[kind] = "_on_" + name.lower()
    _LAYOUT[kind] = (cls, tuple(fields.values()))
    return cls


Store = _message(STORE, "STORE", ts=_ts, fr=_fragment, cc=_opt_list,
                 commitment=_commitment, vec=_opt_list)
StoreAck = _message(STORE_ACK, "STORE_ACK", ts=_ts)
Complete = _message(COMPLETE, "COMPLETE", ts=_ts, token=_token, vec=_opt_list)
CompleteAck = _message(COMPLETE_ACK, "COMPLETE_ACK", ts=_ts)
Collect = _message(COLLECT, "COLLECT", tsr=_u64)
CollectAck = _message(COLLECT_ACK, "COLLECT_ACK", tsr=_u64, cands=_cands)
Filter = _message(FILTER, "FILTER", tsr=_u64, cands=_cands)
FilterAck = _message(FILTER_ACK, "FILTER_ACK", tsr=_u64, ts=_ts, fr=_fragment,
                     cc=_opt_list, vec=_opt_list)
Clock = _message(CLOCK, "CLOCK", ts=_ts)
ClockAck = _message(CLOCK_ACK, "CLOCK_ACK", echo=_ts, ts=_ts)
Repair = _message(REPAIR, "REPAIR", tsr=_u64, cand=_cand)
RepairAck = _message(REPAIR_ACK, "REPAIR_ACK", tsr=_u64)


def encode(msg, table: Optional[dict] = None) -> bytes:
    """The wire bytes of msg; a field too wide for its wire width (a negative
    or over-wide integer, or a list, count or blob past its length prefix)
    raises MalformedMessage. table is the one decode reads: a run passes
    one to every call, so each distinct message is encoded once and its wire
    kept both ways, message to wire and wire to message. Each candidate a
    list carries is packed once too, its record bytes kept by the Candidate,
    so a list met in a new message costs a lookup per member. A STORE is
    built for one server and delivered once, so only its wire to it is
    kept, for decode to take back, and only if it has a fragment and a
    cross-checksum: one without must still parse and be dropped as
    malformed. None gives this call a table of its own."""
    k = msg.kind
    if k not in _LAYOUT:
        raise MalformedMessage("unknown message kind %r" % (k,))
    if table is None:
        table = {}
    elif k != STORE:
        wire = table.get(msg)
        if wire is not None:
            return wire
    out = [bytes((k,))]
    try:
        # the kind byte trails the fields, so zip stops before it
        for (enc, _), value in zip(_LAYOUT[k][1], msg):
            enc(out, value, table)
    except struct.error as exc:
        raise MalformedMessage("field does not fit the wire: %s" % exc) from None
    wire = b"".join(out)
    if k != STORE:
        table[msg] = wire
        table[wire] = msg
    elif msg.fr is not None and msg.cc is not None:
        table[wire] = msg
    return wire


def decode(data: bytes, table: Optional[dict] = None):
    """The message data encodes; bytes that do not parse as one raise
    MalformedMessage. table is the one encode fills, and decode adds
    nothing to it: a wire encoded through it decodes to the message it was
    encoded from, which parsing would give too, since every message the
    program builds round-trips with exact types. A STORE's entry is taken
    out as it is used. Any other bytes, such as an adversary's raw bytes or
    a STORE sent again, are parsed strictly, as they are with no table."""
    if table is not None:
        msg = table.get(data)  # encode keys bytes by whole wires only
        if msg is not None:
            if type(msg) is Store:
                del table[data]
            return msg
    try:
        k = data[0]
        if k not in _LAYOUT:
            raise MalformedMessage("unknown message kind %d" % k)
        cls, fields = _LAYOUT[k]
        values, pos = [], 1
        for _, dec in fields:
            value, pos = dec(data, pos)
            values.append(value)
    except (struct.error, IndexError):
        raise MalformedMessage("truncated message") from None
    if pos > len(data):
        raise MalformedMessage("truncated message")
    if pos < len(data):
        raise MalformedMessage("%d trailing bytes" % (len(data) - pos))
    values.append(k)
    msg = tuple.__new__(cls, values)
    if k == STORE and (msg.fr is None or msg.cc is None):
        raise MalformedMessage("store requires fragment and cross-checksum")
    return msg
