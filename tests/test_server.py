"""Replica handler semantics, one message at a time."""

import hashlib
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from powerstore import behaviors, codec, mutants, scenarios, server, simnet
from powerstore.core import (
    C0, Candidate, TS0, Timestamp, valid_by_hist, valid_mw)
from powerstore.crypto import KeyRing, digest, make_vec, pow_scheme, tag_timestamp
from powerstore.erasure import cross_checksum, encode
from powerstore.mutants import classes_for, layer
from powerstore.server import MwServer, ServerBase

S, T = 4, 1


def keyring():
    return KeyRing.generate(S, random.Random(9))


def build_write(scheme, num, pid=0, value=b"payload", ring=None, seed=5):
    """Everything a writer would send for one value at one timestamp."""
    token, commitments = scheme.mint(random.Random(seed), T, S)
    frs = encode(value, T + 1, S)
    cc = cross_checksum(frs)
    if ring is None:
        ts, vec = Timestamp(num, 0, b""), None
    else:
        ts = Timestamp(num, pid, tag_timestamp(ring.writer_key, num, pid))
        vec = make_vec(ring, num, pid, scheme.token_digest(token))
    return ts, token, frs, cc, commitments, vec


def store_at(server, parts, sid=None):
    ts, token, frs, cc, commitments, vec = parts
    sid = sid or server.sid
    ack = server.handle(
        codec.Store(ts, frs[sid - 1], cc, commitments[sid - 1], vec), "writer")
    assert isinstance(ack, codec.StoreAck) and ack.ts == ts
    return ts, token, vec


def server_for(mode, sid, **kwargs):
    return classes_for(mode)["server"](sid, S, T, **kwargs)


def sw_server(tracer=None):
    return server_for("sw", 1, scheme=pow_scheme("hash"), tracer=tracer)


def mw_server(ring, tracer=None, sid=1):
    return server_for("mw", sid, scheme=pow_scheme("hash"), keyring=ring,
                       tracer=tracer)


def test_role_mismatch_is_dropped():
    srv = sw_server()
    parts = build_write(srv.scheme, 1)
    ts, _, frs, cc, commitments, vec = parts
    msg = codec.Store(ts, frs[0], cc, commitments[0], vec)
    assert srv.handle(msg, "reader") is None
    assert srv.handle(codec.Collect(1), "writer") is None
    assert not srv.hist


def test_kind_not_served_by_mode_is_dropped():
    srv = sw_server()
    assert srv.handle(codec.Clock(TS0), "writer") is None


def test_store_populates_history():
    srv = sw_server()
    ts, _, _ = store_at(srv, build_write(srv.scheme, 1))
    assert ts.key() in srv.hist
    assert srv.snapshot()["hist_bytes"] > 0
    assert srv.lc == C0  # store alone never moves the accepted candidate


def test_complete_adopts_only_strictly_higher():
    srv = sw_server()
    ts1, token1, _ = store_at(srv, build_write(srv.scheme, 1))
    ts2, token2, _ = store_at(srv, build_write(srv.scheme, 2))
    assert isinstance(srv.handle(codec.Complete(ts2, token2, None), "writer"),
                      codec.CompleteAck)
    assert srv.lc.ts == ts2
    srv.handle(codec.Complete(ts1, token1, None), "writer")
    assert srv.lc.ts == ts2  # stale reveal does not regress
    srv.handle(codec.Complete(ts2, token2, None), "writer")
    assert srv.lc.ts == ts2


def test_sw_gc_promotes_highest_valid_and_prunes():
    srv = sw_server()
    p1 = build_write(srv.scheme, 1, seed=11)
    p2 = build_write(srv.scheme, 2, seed=12)
    ts1, token1, _ = store_at(srv, p1)
    ts2, token2, _ = store_at(srv, p2)
    garbage = Candidate(Timestamp(5, 0, b""), digest(b"bogus"), None)
    srv.handle(codec.Filter(1, (Candidate(ts1, token1, None),
                                Candidate(ts2, token2, None), garbage)),
               "reader")
    assert srv.lc == C0  # the write-back alone moves nothing
    srv.gc()
    assert srv.lc.ts == ts2
    # promoted and historical candidates go; the unverifiable one stays
    assert srv.lc_set == {garbage}


def test_sw_collect_serves_gc_result_sorted():
    srv = sw_server()
    ts, token, _ = store_at(srv, build_write(srv.scheme, 1))
    srv.handle(codec.Filter(2, (Candidate(ts, token, None),)), "reader")
    ack = srv.handle(codec.Collect(3), "reader")
    assert ack.tsr == 3
    assert [c.ts for c in ack.cands] == [ts]
    assert srv.lc.ts == ts  # collect ran gc


def test_sw_filter_writes_back_then_serves_history():
    srv = sw_server()
    ts, token, _ = store_at(srv, build_write(srv.scheme, 1))
    srv.handle(codec.Complete(ts, token, None), "writer")
    good = Candidate(ts, token, None)
    fake = Candidate(Timestamp(7, 0, b""), digest(b"fake"), None)
    ack = srv.handle(codec.Filter(1, (fake, good)), "reader")
    assert ack.ts == ts and ack.vec is None
    assert ack.fr is not None and ack.cc is not None
    assert fake in srv.lc_set  # metadata write-back happens unconditionally
    assert srv.lc.ts == ts  # but filter never moves lc


def test_sw_filter_without_valid_candidate_serves_bottom():
    srv = sw_server()
    fake = Candidate(Timestamp(7, 0, b""), digest(b"fake"), None)
    ack = srv.handle(codec.Filter(2, (fake,)), "reader")
    assert ack.ts == TS0 and ack.fr is None and ack.cc is None


def test_mw_collect_serves_only_the_accepted_candidate():
    ring = keyring()
    srv = mw_server(ring)
    parts = build_write(srv.scheme, 1, pid=101, ring=ring)
    ts, token, vec = store_at(srv, parts)
    srv.handle(codec.Complete(ts, token, vec), "writer")
    ack = srv.handle(codec.Collect(1), "reader")
    assert [c.ts for c in ack.cands] == [ts]
    assert len(srv.lc_set) == 0  # no candidate set in this mode


def test_mw_clock_echoes_request_and_serves_lc():
    ring = keyring()
    srv = mw_server(ring)
    parts = build_write(srv.scheme, 3, pid=101, ring=ring)
    ts, token, vec = store_at(srv, parts)
    srv.handle(codec.Complete(ts, token, vec), "writer")
    probe = Timestamp(0, 102, b"")
    ack = srv.handle(codec.Clock(probe), "writer")
    assert ack.echo == probe and ack.ts == ts


def test_mw_filter_splits_writeback_and_return():
    ring = keyring()
    srv = mw_server(ring)
    parts = build_write(srv.scheme, 1, pid=101, ring=ring)
    ts, token, vec = store_at(srv, parts)
    garbled = Candidate(ts, token, tuple(digest(b"x" + e) for e in vec))
    ack = srv.handle(codec.Filter(1, (garbled,)), "reader")
    # history validates the token, so the garbled vector is adopted as lc
    assert srv.lc.ts == ts and srv.lc.vec == garbled.vec
    # but the reply is served from history with the stored genuine vector
    assert ack.ts == ts and ack.vec == vec


def test_mw_filter_mac_branch_accepts_unstored_candidate():
    ring = keyring()
    srv = mw_server(ring)
    parts = build_write(srv.scheme, 2, pid=101, ring=ring)
    ts, token, _, _, _, vec = parts
    cand = Candidate(ts, token, vec)  # never stored at this server
    ack = srv.handle(codec.Filter(1, (cand,)), "reader")
    assert srv.lc.ts == ts  # own-slot MAC vouches for the write-back
    assert ack.ts == TS0 and ack.fr is None  # nothing to serve from history


def test_mw_filter_rejects_forged_candidate():
    ring = keyring()
    srv = mw_server(ring)
    bogus = Candidate(Timestamp(9, 103, b"tag"), digest(b"t"),
                      tuple(digest(b"%d" % i) for i in range(S)))
    ack = srv.handle(codec.Filter(1, (bogus,)), "reader")
    assert srv.lc == C0 and ack.ts == TS0


def test_mw_repair_guard_and_unconditional_ack():
    ring = keyring()
    srv = mw_server(ring, sid=2)
    parts = build_write(srv.scheme, 2, pid=101, ring=ring)
    ts, token, _, _, _, vec = parts
    good = Candidate(ts, token, vec)
    ack = srv.handle(codec.Repair(1, good), "reader")
    assert isinstance(ack, codec.RepairAck) and srv.lc.ts == ts
    # lower-or-equal and unverifiable repairs are acked but not adopted
    ack = srv.handle(codec.Repair(2, good), "reader")
    assert isinstance(ack, codec.RepairAck) and srv.lc == Candidate(ts, token, vec)
    bogus = Candidate(Timestamp(8, 103, b"tag"), digest(b"z"), vec)
    ack = srv.handle(codec.Repair(3, bogus), "reader")
    assert isinstance(ack, codec.RepairAck) and srv.lc.ts == ts


def byz_server(name, mode, ring=None):
    """A replica of mode with byzantine behavior name layered over it."""
    cls = layer(behaviors.SERVERS[name], classes_for(mode)["server"])
    return cls(1, S, T, scheme=pow_scheme("hash"), keyring=ring)


def test_stale_lc_acks_a_repair_and_keeps_lc():
    ring = keyring()
    srv = byz_server("stale_lc", "mw", ring)
    parts = build_write(srv.scheme, 2, pid=101, ring=ring)
    ts, token, _ = store_at(srv, parts)
    before = srv.lc
    ack = srv.handle(codec.Repair(7, Candidate(ts, token, parts[5])), "reader")
    assert ack == codec.RepairAck(7)
    assert srv.lc is before


def test_accept_paths_are_traced():
    events = []
    srv = sw_server(tracer=lambda etype, **f: events.append((etype, f)))
    ts, token, _ = store_at(srv, build_write(srv.scheme, 1))
    srv.handle(codec.Complete(ts, token, None), "writer")
    vias = [f["via"] for etype, f in events if etype == "accept"]
    assert vias == ["complete"]


def test_snapshot_reports_state_sizes():
    srv = sw_server()
    ts, token, _ = store_at(srv, build_write(srv.scheme, 1))
    srv.handle(codec.Filter(1, (Candidate(ts, token, None),)), "reader")
    snap = srv.snapshot()
    assert snap["hist_len"] == 1 and snap["lc_set_size"] == 1
    assert snap["lc_ts"] == TS0.key()


@pytest.mark.parametrize("mode", ["sw", "mw"])
def test_reader_kinds_reject_writer_role(mode):
    ring = keyring() if mode == "mw" else None
    srv = server_for(mode, 1, keyring=ring)
    assert srv.handle(codec.Filter(1, ()), "writer") is None


def test_sw_collect_sorts_only_what_changed(monkeypatch):
    srv = sw_server()
    ts, token, _ = store_at(srv, build_write(srv.scheme, 1))
    srv.handle(codec.Complete(ts, token, None), "writer")
    flood = tuple(Candidate(Timestamp(100 + i), digest(b"f%d" % i))
                  for i in range(20))
    srv.handle(codec.Filter(1, flood), "reader")
    srv.handle(codec.Collect(2), "reader")
    calls = []
    real = Candidate.sort_key
    monkeypatch.setattr(Candidate, "sort_key",
                        lambda c: calls.append(c) or real(c))
    new = tuple(Candidate(Timestamp(200 + i), digest(b"n%d" % i))
                for i in range(3))
    srv.handle(codec.Filter(3, flood[:5] + new), "reader")
    ack = srv.handle(codec.Collect(4), "reader")
    assert len(calls) <= len(new)  # for the FILTER and the COLLECT together
    assert ack.cands == (srv.lc, *sorted(flood + new, key=real))
    calls.clear()
    again = srv.handle(codec.Collect(5), "reader")
    assert calls == [] and again.cands == ack.cands


# ---------------------------------------------------------------------------
# A server judges each candidate once, and its verdict stands only while
# the history entry it read does: a reset, the candidate's STORE arriving
# late and another STORE at its key each change the verdict a FILTER gets.
# ---------------------------------------------------------------------------

def server_of(mode, behavior=None):
    ring = keyring() if mode == "mw" else None
    cls = classes_for(mode)["server"]
    if behavior is not None:
        cls = layer(behaviors.SERVERS[behavior], cls)
    return cls(1, S, T, scheme=pow_scheme("hash"), keyring=ring), ring


def write_for(srv, ring, seed=5):
    return build_write(srv.scheme, 3, pid=101 if ring else 0, ring=ring,
                       seed=seed)


def served(srv, cand):
    """The timestamp srv's FILTER_ACK serves for a lone candidate."""
    return srv.handle(codec.Filter(1, (cand,)), "reader").ts


@pytest.mark.parametrize("mode", ["sw", "mw"])
def test_a_reverted_server_judges_its_candidates_again(mode):
    srv, ring = server_of(mode, "revert_state")
    cand = Candidate(*store_at(srv, write_for(srv, ring)))
    assert served(srv, cand) == cand.ts
    srv.on_timer(SimpleNamespace(ops_pending=lambda: False))
    assert not srv.hist
    assert served(srv, cand) == TS0
    store_at(srv, write_for(srv, ring))
    assert served(srv, cand) == cand.ts


@pytest.mark.parametrize("mode", ["sw", "mw"])
def test_a_candidate_judged_before_its_store_is_judged_again(mode):
    srv, ring = server_of(mode)
    parts = write_for(srv, ring)
    ts, token, *_, vec = parts
    cand = Candidate(ts, token, vec)
    assert served(srv, cand) == TS0
    store_at(srv, parts)
    assert served(srv, cand) == ts


@pytest.mark.parametrize("mode", ["sw", "mw"])
def test_a_second_store_at_a_held_key_is_judged_by_its_commitment(mode):
    srv, ring = server_of(mode)
    first, second = write_for(srv, ring), write_for(srv, ring, seed=6)
    assert first[0] == second[0] and first[4] != second[4]
    old = Candidate(*store_at(srv, first))
    assert served(srv, old) == old.ts
    new = Candidate(*store_at(srv, second))
    assert served(srv, old) == TS0 and served(srv, new) == new.ts


def recompute_verdicts(patch):
    """Make every server judge each candidate afresh on every call: the
    reference that the servers' verdict memos must match."""
    patch.setattr(ServerBase, "_hist_valid",
                  lambda self, c: valid_by_hist(c, self.hist, self.scheme))
    patch.setattr(MwServer, "_vec_certified", lambda self, c: valid_mw(
        c, {}, self.sid, self.keyring.key_for(self.sid), self.scheme))


def count_verdicts(patch):
    """Counters of the history and MAC verdicts servers compute, by
    candidate."""
    hist, macs = Counter(), Counter()
    real_hist, real_mw = server.valid_by_hist, server.valid_mw
    patch.setattr(server, "valid_by_hist",
                  lambda c, *rest: hist.update([c]) or real_hist(c, *rest))
    patch.setattr(server, "valid_mw",
                  lambda c, *rest: macs.update([c]) or real_mw(c, *rest))
    return hist, macs


def test_an_mw_server_judges_each_candidate_once(monkeypatch):
    ring = keyring()
    srv = mw_server(ring)
    ts, token, vec = store_at(srv, build_write(srv.scheme, 3, pid=101,
                                               ring=ring))
    genuine, garbled = Candidate(ts, token, vec), Candidate(ts, token,
                                                            garble(vec))
    forged = Candidate(Timestamp(9, 103, b"tag"), digest(b"t"), vec)
    hist, macs = count_verdicts(monkeypatch)
    for tsr in (1, 2):
        ack = srv.handle(codec.Filter(tsr, (garbled, forged, genuine)),
                         "reader")
        assert ack.ts == ts and srv.lc == genuine
    # an unheld key's verdict is cheap and not kept: its STORE may come
    assert hist == {genuine: 1, garbled: 1, forged: 4}
    assert macs == {genuine: 1, garbled: 1, forged: 1}


def test_an_sw_server_judges_each_candidate_once(monkeypatch):
    srv = sw_server()
    ts, token, _ = store_at(srv, build_write(srv.scheme, 1))
    good = Candidate(ts, token, None)
    fake = Candidate(ts, digest(b"fake"), None)
    hist, _ = count_verdicts(monkeypatch)
    for tsr in (1, 2):
        srv.handle(codec.Filter(tsr, (fake, good)), "reader")
        srv.handle(codec.Collect(tsr), "reader")
    assert srv.lc == good
    assert hist == {good: 1, fake: 1}


# ---------------------------------------------------------------------------
# mw write-back choice. The log's accept event omits the vector, so the
# candidate each filter write-back adopts is pinned here, vector included.
# ---------------------------------------------------------------------------

def garble(vec, slots=None):
    """vec with the entries at the 1-based slots (all if None) garbled."""
    return tuple(digest(b"x" + e) if slots is None or i in slots else e
                 for i, e in enumerate(vec, 1))


def filter_wb(srv, cands):
    """The candidate srv adopts from a FILTER of cands, or None."""
    before = srv.lc
    srv.handle(codec.Filter(1, cands), "reader")
    return None if srv.lc is before else srv.lc


def test_mw_write_back_prefers_the_stored_vector_among_variants():
    ring = keyring()
    ts, token, vec = store_at(mw_server(ring), build_write(
        pow_scheme("hash"), 3, pid=101, ring=ring))
    genuine, garbled = Candidate(ts, token, vec), Candidate(ts, token,
                                                            garble(vec))
    for cands in ((garbled, genuine), (genuine, garbled)):
        srv = mw_server(ring)
        store_at(srv, build_write(srv.scheme, 3, pid=101, ring=ring))
        assert filter_wb(srv, cands) == genuine


def test_mw_write_back_prefers_a_variant_carrying_its_own_entry():
    ring = keyring()
    for sid in (1, 3):
        srv = mw_server(ring, sid=sid)
        ts, token, vec = store_at(srv, build_write(srv.scheme, 3, pid=101,
                                                   ring=ring))
        others = set(range(1, S + 1)) - {sid}
        own = Candidate(ts, token, garble(vec, others))  # only sid's entry
        none = Candidate(ts, token, garble(vec))
        for cands in ((none, own), (own, none)):
            srv.lc = C0
            assert filter_wb(srv, cands) == own


def test_mw_write_back_takes_a_lone_top_candidate_as_sent(monkeypatch):
    ring = keyring()
    srv = mw_server(ring)
    low = build_write(srv.scheme, 2, pid=101, ring=ring)
    lts, ltoken, lvec = store_at(srv, low)
    ts, token, vec = store_at(srv, build_write(srv.scheme, 4, pid=102,
                                               ring=ring, seed=6))
    top = Candidate(ts, token, garble(vec))  # history-valid, vector garbled
    rivals = (Candidate(lts, ltoken, lvec), Candidate(lts, ltoken,
                                                       garble(lvec)))
    certified = []
    real = MwServer._vec_certified
    monkeypatch.setattr(MwServer, "_vec_certified",
                        lambda self, c: certified.append(c) or real(self, c))
    assert filter_wb(srv, rivals + (top,)) == top
    assert certified == []  # no MAC is checked with no variant to weigh


def filter_write_backs(configs, monkeypatch):
    """(count, digest) of every filter write-back the runs make: the server
    and the whole candidate adopted, vector included, in run order."""
    h, n = hashlib.sha256(), 0
    real = ServerBase._accept

    def accept(self, cand, via):
        nonlocal n
        if via == "filter_wb":
            n += 1
            h.update(codec.encode(codec.Repair(self.sid, cand)))
        return real(self, cand, via)

    with monkeypatch.context() as patch:
        patch.setattr(ServerBase, "_accept", accept)
        for config in configs:
            simnet.run(config)
    return n, h.hexdigest()


def write_back_configs():
    for seed in range(300):
        yield scenarios.pair_for("mw-catalog", seed)[1]
    for name in ("mw-bigmac", "mw-byz-fabricate"):  # corrupt_vec, fabricate
        for t in (2, 3):
            for seed in range(10):
                yield scenarios.pair_for(name, seed, t=t)[1]


def test_mw_filter_write_backs_are_pinned(monkeypatch):
    assert filter_write_backs(write_back_configs(), monkeypatch) == (
        176, "7b208af04dd1ce7b7c8e07b8978094e951a98704a39e2d4af4421938d7a8055f")


# ---------------------------------------------------------------------------
# dispatch: which handler each (kind, role) reaches
# ---------------------------------------------------------------------------

SERVED = {"sw": {codec.STORE, codec.COMPLETE, codec.COLLECT, codec.FILTER},
          "mw": set(server.ROLE_FOR_KIND)}
ROLES = ("writer", "reader")
# every handler a message kind names, each answering with its own name
Recording = type("Recording", (), {
    name: (lambda self, msg, name=name: name)
    for name in codec.HANDLER_NAMES.values()})


def answers(srv):
    """(kind, role) -> what srv.handle answers a message of kind from role."""
    return {(kind, role): srv.handle(SimpleNamespace(kind=kind), role)
            for kind in codec.HANDLER_NAMES for role in ROLES}


def dispatch_of(mode):
    """What answers() must give for a Recording replica of mode: a kind the
    mode serves reaches its handler from the role ROLE_FOR_KIND gives it,
    and nothing else reaches any handler."""
    return {(kind, role): codec.HANDLER_NAMES[kind]
            if kind in SERVED[mode] and server.ROLE_FOR_KIND[kind] == role
            else None
            for kind in codec.HANDLER_NAMES for role in ROLES}


def recording_server(mode):
    cls = layer(Recording, classes_for(mode)["server"])
    return cls(1, S, T, keyring=keyring() if mode == "mw" else None)


@pytest.mark.parametrize("mode", ["sw", "mw"])
def test_a_server_answers_only_its_modes_kinds_and_only_from_their_role(mode):
    assert answers(recording_server(mode)) == dispatch_of(mode)


def every_kind(srv, ring):
    """One real message of each kind, as a write at timestamp 3 and a read
    of it would carry them."""
    ts, token, frs, cc, commitments, vec = write_for(srv, ring)
    cand = Candidate(ts, token, vec)
    msgs = [codec.Store(ts, frs[0], cc, commitments[0], vec),
            codec.StoreAck(ts), codec.Complete(ts, token, vec),
            codec.CompleteAck(ts), codec.Clock(ts), codec.ClockAck(ts, ts),
            codec.Collect(1), codec.CollectAck(1, (cand,)),
            codec.Filter(1, (cand,)), codec.FilterAck(1, ts, frs[0], cc, vec),
            codec.Repair(1, cand), codec.RepairAck(1)]
    assert {msg.kind for msg in msgs} == set(codec.HANDLER_NAMES)
    return msgs


def answered(srv, ring):
    """The (kind, role) pairs srv answers when sent a real message of every
    kind from both roles, in turn."""
    return {(msg.kind, role) for role in ROLES for msg in every_kind(srv, ring)
            if srv.handle(msg, role) is not None}


@pytest.mark.parametrize("behavior", sorted(behaviors.SERVERS))
@pytest.mark.parametrize("mode", ["sw", "mw"])
def test_a_behavior_layered_server_dispatches_as_its_replica_does(mode,
                                                                  behavior):
    """A byzantine server answers exactly what its replica answers, a kind
    its mode serves from the role that kind comes from, also after a reset;
    Mute serves no kind, so it answers nothing. No real message raises, of
    a kind or from a role the replica drops included."""
    replica, ring = server_of(mode)
    want = answered(replica, ring)
    assert want == {(kind, server.ROLE_FOR_KIND[kind]) for kind in SERVED[mode]}
    if behavior == "mute":
        want = set()
    srv, ring = server_of(mode, behavior)
    assert answered(srv, ring) == want
    srv.reset()
    assert answered(srv, ring) == want


@pytest.mark.parametrize("behavior", [None, "revert_state", "stale_lc"])
@pytest.mark.parametrize("mode", ["sw", "mw"])
def test_a_mutants_handler_is_the_one_dispatched(mode, behavior):
    """lc_non_monotone's _on_complete adopts a lower timestamp, which the
    replica's never does; a behavior layered over it, as a run layers a
    faulty server's, still reaches it."""
    cls = mutants.classes_for(mode, "lc_non_monotone")["server"]
    if behavior is not None:
        cls = layer(behaviors.SERVERS[behavior], cls)
    srv = cls(1, S, T, keyring=keyring() if mode == "mw" else None)
    for num in (5, 2):
        ack = srv.handle(codec.Complete(Timestamp(num), b"n" * 32), "writer")
        assert ack == codec.CompleteAck(Timestamp(num))
    assert srv.lc.ts == Timestamp(2)
    replica = server_for(mode, 1, keyring=srv.keyring)
    for num in (5, 2):
        replica.handle(codec.Complete(Timestamp(num), b"n" * 32), "writer")
    assert replica.lc.ts == Timestamp(5)
