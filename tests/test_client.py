"""Writer and reader state machines driven against real replicas in FIFO
order, plus the restore helpers' failure modes."""

import itertools
import random
from collections import deque
from types import SimpleNamespace

import pytest

from powerstore import codec
from powerstore.client import BOTTOM, ProtocolInvariantError, restore_value
from powerstore.core import (C0, Candidate, TS0, Timestamp, checked_reply,
                             safe_witness)
from powerstore.crypto import KeyRing, digest, pow_scheme
from powerstore.erasure import Fragment, cross_checksum, encode
from powerstore.mutants import classes_for
from test_core import _invalid_by_count

S, T = 4, 1


class Loop:
    """Synchronous network: every send is served in FIFO order."""

    def __init__(self, mode, s=S, t=T, pow_name="hash"):
        self.mode, self.s, self.t = mode, s, t
        self.scheme = pow_scheme(pow_name)
        self.ring = KeyRing.generate(s, random.Random(9)) if mode == "mw" else None
        self.classes = classes_for(mode)
        self.servers = {sid: self.classes["server"](
                            sid, s, t, scheme=self.scheme, keyring=self.ring)
                        for sid in range(1, s + 1)}
        self.queue = deque()
        self.muted = set()

    def client(self, role, cid):
        cl = self.classes[role](cid, s=self.s, t=self.t, scheme=self.scheme,
                                keyring=self.ring,
                                rng=random.Random(cid * 7 + 1))
        cl.send = lambda sid, msg, cl=cl: self.queue.append((cl, sid, msg))
        return cl

    def pump(self):
        while self.queue:
            cl, sid, msg = self.queue.popleft()
            if sid in self.muted:
                continue
            reply = self.servers[sid].handle(msg, cl.role)
            if reply is not None:
                cl.on_message(sid, reply)

    def write(self, writer, value):
        out = {}
        writer.write(value, lambda **kw: out.update(kw))
        self.pump()
        return out

    def read(self, reader):
        out = {}
        reader.read(lambda **kw: out.update(kw))
        self.pump()
        return out


def test_sw_write_takes_two_rounds_and_reveals():
    loop = Loop("sw")
    writer = loop.client("writer", 101)
    out = loop.write(writer, b"alpha")
    assert out == {"rounds": 2}
    assert writer.ts.num == 1 and not writer.busy
    for srv in loop.servers.values():
        assert srv.lc.ts == writer.ts
        assert writer.ts.key() in srv.hist


def test_sw_writes_bump_the_timestamp():
    loop = Loop("sw")
    writer = loop.client("writer", 101)
    loop.write(writer, b"a")
    loop.write(writer, b"b")
    assert writer.ts.num == 2


def test_write_refuses_concurrent_invocation():
    loop = Loop("sw")
    writer = loop.client("writer", 101)
    writer.write(b"a", lambda **kw: None)
    with pytest.raises(AssertionError):
        writer.write(b"b", lambda **kw: None)


def test_crash_mid_store_reaches_exactly_k_servers():
    loop = Loop("sw")
    writer = loop.client("writer", 101)
    writer.crash_plan = ("store", 2)
    out = loop.write(writer, b"alpha")
    assert out == {} and writer.crashed
    stored = [sid for sid, srv in loop.servers.items() if srv.hist]
    assert stored == [1, 2]
    assert all(srv.lc == C0 for srv in loop.servers.values())


def test_crash_before_reveal_leaves_history_unrevealed():
    loop = Loop("sw")
    writer = loop.client("writer", 101)
    writer.crash_plan = ("complete", 0)
    out = loop.write(writer, b"alpha")
    assert out == {} and writer.crashed
    assert all(srv.hist for srv in loop.servers.values())
    assert all(srv.lc == C0 for srv in loop.servers.values())


def test_stale_acks_are_ignored_once_idle():
    loop = Loop("sw")
    writer = loop.client("writer", 101)
    loop.write(writer, b"a")
    writer.on_message(1, codec.StoreAck(writer.ts))  # not busy: no effect
    assert not writer.busy and writer.phase is None


def test_mw_write_takes_three_rounds_and_tags_its_id():
    loop = Loop("mw")
    writer = loop.client("writer", 102)
    out = loop.write(writer, b"alpha")
    assert out == {"rounds": 3}
    assert writer.ts.num == 1 and writer.ts.pid == 102


def test_mw_clock_round_orders_concurrent_writers():
    loop = Loop("mw")
    w1, w2 = loop.client("writer", 102), loop.client("writer", 103)
    loop.write(w1, b"a")
    loop.write(w2, b"b")
    assert (w2.ts.num, w2.ts.pid) > (w1.ts.num, w1.ts.pid)
    assert w2.ts.num == 2


def test_mw_clock_ignores_forged_timestamps():
    loop = Loop("mw")
    writer = loop.client("writer", 102)
    writer.write(b"a", lambda **kw: None)
    forged = Timestamp(99, 103, digest(b"no-key")[:16])
    writer.on_message(1, codec.ClockAck(TS0, forged))
    loop.pump()
    assert writer.ts.num == 1  # the forged clock ack did not advance it


def test_read_of_empty_register_returns_bottom():
    for mode in ("sw", "mw"):
        loop = Loop(mode)
        reader = loop.client("reader", 201)
        out = loop.read(reader)
        assert out == {"value": BOTTOM, "rounds": 2, "repaired": False}


def test_read_returns_last_completed_write():
    for mode in ("sw", "mw"):
        loop = Loop(mode)
        writer = loop.client("writer", 101)
        reader = loop.client("reader", 201)
        loop.write(writer, b"alpha")
        loop.write(writer, b"beta")
        out = loop.read(reader)
        assert out == {"value": b"beta", "rounds": 2, "repaired": False}


def test_reader_prunes_unverifiable_high_candidate():
    loop = Loop("sw")
    writer = loop.client("writer", 101)
    reader = loop.client("reader", 201)
    loop.write(writer, b"alpha")
    bogus = Candidate(Timestamp(9, 0, b""), digest(b"guess"), None)
    loop.servers[1].handle(codec.Filter(1, (bogus,)), "reader")
    out = loop.read(reader)
    assert out["value"] == b"alpha" and out["rounds"] == 2


def test_mw_reader_repairs_garbled_vector():
    loop = Loop("mw")
    writer = loop.client("writer", 102)
    reader = loop.client("reader", 201)
    loop.write(writer, b"alpha")
    for srv in loop.servers.values():
        garbled = tuple(digest(b"x" + e) for e in srv.lc.vec)
        srv.lc = srv.lc._replace(vec=garbled)
    out = loop.read(reader)
    assert out == {"value": b"alpha", "rounds": 3, "repaired": True}


def test_mw_repair_skipped_when_vectors_agree():
    loop = Loop("mw")
    writer = loop.client("writer", 102)
    reader = loop.client("reader", 201)
    loop.write(writer, b"alpha")
    out = loop.read(reader)
    assert out["rounds"] == 2 and not out["repaired"]


def test_read_finishes_with_quorum_and_a_mute_server():
    loop = Loop("sw")
    writer = loop.client("writer", 101)
    reader = loop.client("reader", 201)
    loop.write(writer, b"alpha")
    loop.muted.add(4)
    out = loop.read(reader)
    assert out["value"] == b"alpha" and out["rounds"] == 2


@pytest.mark.parametrize("byz_ts", [(9, 0), (0, 9)],
                         ids=["high-then-low", "low-then-high"])
def test_reader_prunes_per_ack_when_a_server_answers_twice(byz_ts):
    # honest servers 1, 2 and 4 answer ts 2; server 3 answers the same tsr
    # twice, once the table holds s-t replies; after every ack, C is what the
    # per-candidate rule leaves of it
    loop = Loop("sw")
    reader = loop.client("reader", 201)
    reader.read(lambda **kw: None)
    loop.queue.clear()
    reader.phase = "filter"
    reader.C = {Candidate(Timestamp(n), b"v%d" % n) for n in range(1, 6)}
    acks = [(1, 2), (2, 2), (3, byz_ts[0]), (3, byz_ts[1]), (4, 2)]
    for sid, num in acks:
        before = set(reader.C)
        reader.on_message(sid, codec.FilterAck(reader.tsr, Timestamp(num),
                                               None, None, None))
        assert reader.R[sid].ts == Timestamp(num)
        assert reader.C == {c for c in before
                            if not _invalid_by_count(c, reader.R, S, T)}
        assert reader.busy and reader.phase == "filter"
    # the late low answer pruned 3..5 for good; the high one restores nothing
    assert {c.ts.num for c in reader.C} == {1, 2}


def _replies_for(value, ts, s=S, t=T):
    frs = encode(value, t + 1, s)
    cc = cross_checksum(frs)
    return {sid: checked_reply(sid, codec.FilterAck(1, ts, frs[sid - 1], cc,
                                                    None))
            for sid in range(1, s + 1)}


def test_restore_value_decodes_from_any_witness():
    ts = Timestamp(1, 0, b"")
    replies = _replies_for(b"payload", ts)
    cc = replies[1].cc
    for ids in itertools.combinations(range(1, S + 1), T + 1):
        assert restore_value((ids, cc, None), replies, T, S) == b"payload"


def test_restore_value_requires_a_checksum_witness():
    ts = Timestamp(1, 0, b"")
    replies = _replies_for(b"payload", ts)
    with pytest.raises(ProtocolInvariantError, match="cross-checksum witness"):
        restore_value(((1,) * T, replies[1].cc, None), replies, T, S)


def test_restore_value_drops_fragments_failing_their_slot():
    ts = Timestamp(1, 0, b"")
    replies = _replies_for(b"payload", ts)
    bad_fr = replies[1].fr._replace(payload=b"\x00" * len(replies[1].fr.payload))
    replies[1] = checked_reply(1, replies[1]._replace(fr=bad_fr))
    witness = safe_witness(Candidate(ts), replies, T)
    assert witness[0] == (2, 3)
    assert restore_value(witness, replies, T, S) == b"payload"


def test_mw_repair_carries_the_witnesses_vector():
    # servers 3 and 4 agree on a vector below the witnesses' one, but their
    # fragments fail their own checksum slot, so they witness nothing
    loop = Loop("mw")
    reader = loop.client("reader", 201)
    out = {}
    reader.read(lambda **kw: out.update(kw))
    loop.queue.clear()
    ts = Timestamp(1, 102, b"tag")
    low, good, garbled = ((bytes([b]) * 32,) * S for b in (1, 2, 3))
    reader.phase = "filter"
    reader.C = {Candidate(ts, b"token", garbled)}
    frs = encode(b"payload", T + 1, S)
    cc = cross_checksum(frs)
    for sid, vec in ((3, low), (4, low), (1, good), (2, good)):
        fr = frs[sid - 1]
        if vec == low:
            fr = Fragment(fr.index, fr.orig_len, b"\x00" * len(fr.payload))
        reader.on_message(sid, codec.FilterAck(reader.tsr, ts, fr, cc, vec))
    assert reader.phase == "repair"
    repairs = {msg for _, _, msg in loop.queue}
    assert repairs == {codec.Repair(reader.tsr, Candidate(ts, b"token", good))}
    loop.queue.clear()
    for sid in (1, 2, 3):
        reader.on_message(sid, codec.RepairAck(reader.tsr))
    assert out["value"] == b"payload" and out["repaired"]


HANDLED = {  # (mode, role) -> the kinds its client class has a handler for
    ("sw", "writer"): {codec.STORE_ACK, codec.COMPLETE_ACK},
    ("mw", "writer"): {codec.STORE_ACK, codec.COMPLETE_ACK, codec.CLOCK_ACK},
    ("sw", "reader"): {codec.COLLECT_ACK, codec.FILTER_ACK},
    ("mw", "reader"): {codec.COLLECT_ACK, codec.FILTER_ACK, codec.REPAIR_ACK},
}


@pytest.mark.parametrize("mode,role", sorted(HANDLED))
def test_each_kind_reaches_exactly_its_client_handler(mode, role):
    """A busy client hands each kind to its own _on_<kind> and ignores a
    kind it has no handler for; an idle or crashed one ignores every kind."""
    base = classes_for(mode)[role]
    got = []
    names = {kind: name for kind, name in codec.HANDLER_NAMES.items()
             if hasattr(base, name)}
    assert set(names) == HANDLED[mode, role]
    recording = type("Recording" + base.__name__, (base,), {
        name: (lambda self, sid, msg, name=name: got.append((name, sid, msg)))
        for name in names.values()})
    cl = recording(101, s=S, t=T)
    msgs = [SimpleNamespace(kind=kind) for kind in codec.HANDLER_NAMES]

    def deliver_all():
        got.clear()
        for sid, msg in enumerate(msgs, 1):
            cl.on_message(sid, msg)
        return got[:]

    assert deliver_all() == []  # idle
    cl._begin(lambda **kw: None)
    assert deliver_all() == [(names[msg.kind], sid, msg)
                             for sid, msg in enumerate(msgs, 1)
                             if msg.kind in names]
    cl.crashed = True
    assert deliver_all() == []
