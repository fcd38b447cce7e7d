"""The run's codec table, which encode alone fills. Each distinct message
but a STORE is encoded once a run and kept both ways, so a message sent
again reuses its wire and a wire the run encoded decodes to the message it
came from. Each optional list's (cross-checksums and MAC vectors) wire
piece is kept by its tuple, and each list member's record bytes by the
Candidate. A STORE, built for one server, is encoded on every copy; its
wire maps to it from its send to its one delivery. An adversary's raw
bytes are parsed on every copy, and decoding adds nothing to the table.
The table must change no verdict, no decoded value or type and no output,
and lives exactly as long as its run.

One checked run per config taps the codec. It counts the messages the table
misses, by kind, and the wires it parses, which must all be raw bytes an
adversary sent. It checks every decode, with exact types, against a decode
with no table, a decode through a table that only decoding meets, which
must stay empty, and the byte-at-a-time reference codec. It keeps the
delivered (wire, message) pairs, and checks every copy left in flight when
the run ends. The same config then runs against _Forgetful, which encodes
every send and parses every copy, and must give the same outputs. The
`runs` fixture makes both runs once per config, and six tests judge them:
decoding, encoding, the table's contents, the candidate records built, the
delivered messages, and the outputs of servers that keep no verdict
memo."""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

from powerstore import behaviors, codec, scenarios, simnet
from powerstore.codec import MalformedMessage
from powerstore.core import Candidate, Timestamp
from powerstore.crypto import Polynomial
from powerstore.erasure import FRAGMENT_HEADER_BYTES, Fragment
from powerstore.erasure import encode as ec_encode
from test_codec import (
    _filter_wire, _list_messages, _mutate, _mutation_corpus, _ref_enc_cand,
    _ref_enc_opt_list, _ref_enc_ts, _reference_decode, _reference_encode,
    _verdict)
from test_literal_lc import DIGESTED, FLOOD
from test_literal_reader import CONTENDED
from test_server import recompute_verdicts
from test_simnet import small

GARBAGE = ("byz_reader:202:garbage_filter_sets",)  # sends raw bytes
# mw-catalog members: 2, 14, 158 and 194 garble vectors (corrupt_vec; 14
# and 194 at t=2, 158 and 194 with repair rounds), 3 and 27 fabricate
# candidates, 7 and 19 send garbage filter sets (19 at t=2), 0 is fault
# free and 11 writes under the proof-sharing scheme
MW_SEEDS = (0, 2, 3, 7, 11, 14, 19, 27, 158, 194)
# sw-catalog members: 9, 12, 23 and 26 send 100-200 distinct candidates,
# 69 and 139 share proofs at t=2 (polynomial tokens)
SW_SEEDS = (9, 12, 23, 26, 69, 139)
RECORD_RICH = {"flood/0"} | {"sw-catalog/%d" % seed for seed in SW_SEEDS[:4]}
BYZANTINE = (["byz_server:1:" + name for name in sorted(behaviors.SERVERS)]
             + ["byz_reader:202:" + name
                for name in sorted(behaviors.READERS)])


_CLASSES = frozenset(cls for cls, _ in codec._LAYOUT.values())


def run_configs():
    configs = {"flood/0": scenarios.pair_for("sw-flood", 0, **FLOOD)[1],
               "garbage": small(faults=GARBAGE)}
    for sweep, seeds in (("sw-catalog", (*range(5), *SW_SEEDS)),
                         ("mw-catalog", (*range(5), *MW_SEEDS))):
        for seed in seeds:
            configs["%s/%d" % (sweep, seed)] = scenarios.pair_for(sweep,
                                                                  seed)[1]
    for mode in ("sw", "mw"):  # every byzantine behavior
        for fault in BYZANTINE:
            configs["%s-%s" % (fault, mode)] = small(
                mode=mode, writers=1 if mode == "sw" else 2, faults=(fault,),
                seed=4)
    return configs


CONFIGS = run_configs()


class _Forgetful(dict):
    """A codec table that never finds an entry: every send is encoded and
    every copy parsed, the reference the run's table must match."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def assert_same(got, want):
    """got equals want, and every part of it has the exact type of want's."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert got == want


def complete_wire(list_bytes):
    """A COMPLETE whose vector field, its last, is list_bytes."""
    return (bytes((codec.COMPLETE,)) + _ref_enc_ts(Timestamp(1))
            + b"\x01\x00\x20" + b"\x42" * 32 + list_bytes)


def assert_table_is_sound(table):
    """Judge each entry by its type: a message key maps to its wire, and
    that wire back to the message; a Candidate key maps to its record bytes;
    a tuple key is a list and maps to its wire piece; a bytes key is a wire
    and maps to exactly the message the reference decodes from it."""
    for key, value in table.items():
        if type(key) in _CLASSES:
            assert type(value) is bytes and value == _reference_encode(key)
            assert table[value] is key
        elif type(key) is Candidate:
            assert type(value) is bytes and value == _ref_enc_cand(key)
        elif type(key) is tuple:
            assert type(value) is bytes and value == _ref_enc_opt_list(key)
        else:
            assert type(key) is bytes and type(value) in _CLASSES
            assert_same(_reference_decode(key), value)


class Tap:
    """What a run's codec work did: by kind, the messages sent, the distinct
    ones (every STORE counts) and the ones the table missed; the raw
    payloads sent, the wires parsed, the delivered (wire, message) pairs,
    each wire encoded with the message it was first encoded from, each list
    member's count of record builds (a _REC pack or an _enc_cand call), and
    the run's Simulation. With check, every decode is checked as the module
    docstring says."""

    def __init__(self, monkeypatch, check=False):
        self.sends, self.distinct = Counter(), Counter()
        self.misses, self.raw = Counter(), []
        self.parses, self.delivered = [], []
        self.parsed = {}  # a table only decoding meets
        self.encoded, self.sim = {}, None
        self.sent, reference = set(), {}
        self.built = Counter()
        real_send, real_decode = simnet.Simulation.send, codec.decode
        real_encode, real_rec = codec.encode, codec._REC
        real_enc_cand = codec._enc_cand

        def rec_pack(num, pid, *marks_and_token):
            self.built[Candidate(Timestamp(num, pid), marks_and_token[3])] += 1
            return real_rec.pack(num, pid, *marks_and_token)

        # a Repair's field pair holds the real _enc_cand: not a list member
        def enc_cand(out, cand, table):
            self.built[cand] += 1
            real_enc_cand(out, cand, table)

        def encode(msg, *rest):
            wire = real_encode(msg, *rest)
            self.encoded.setdefault(wire, msg)
            return wire

        def send(sim, src, dst, payload):
            self.sim = sim
            if isinstance(payload, bytes):
                self.raw.append(payload)
            else:
                kind = payload.kind
                self.sends[kind] += 1
                self.distinct[kind] += (kind == codec.STORE
                                        or payload not in self.sent)
                self.misses[kind] += payload not in sim._table
                self.sent.add(payload)
            real_send(sim, src, dst, payload)

        def decode(wire, table):
            hit = table.get(wire)
            if hit is None:
                self.parses.append(wire)
            got = _verdict(lambda w: real_decode(w, table), wire)
            assert hit is None or got is hit  # the message the wire came from
            if check:
                if wire not in reference:
                    reference[wire] = _verdict(_reference_decode, wire)
                for value in (got, _verdict(real_decode, wire), _verdict(
                        lambda w: real_decode(w, self.parsed), wire)):
                    assert_same(value, reference[wire])
            if got is MalformedMessage:
                raise MalformedMessage("as the reference")
            self.delivered.append((wire, got))
            return got

        monkeypatch.setattr(simnet.Simulation, "send", send)
        monkeypatch.setattr(codec, "encode", encode)
        monkeypatch.setattr(codec, "decode", decode)
        monkeypatch.setattr(codec, "_REC", SimpleNamespace(
            pack=rec_pack, size=real_rec.size))
        monkeypatch.setattr(codec, "_enc_cand", enc_cand)

    def check_in_flight(self):
        """The copies still in the heap when the run ended were never
        decoded: each wire the run encoded must decode, with no table, to
        the message it came from, and the table may keep a STORE's wire
        only while a copy of it is in the heap."""
        sim = self.sim
        flying = [args[2] for *_, fn, args in sim.heap if fn == sim._deliver]
        for wire in flying:
            if wire in self.encoded:
                assert_same(codec.decode(wire), self.encoded[wire])
        assert {wire for wire, msg in sim._table.items()
                if type(msg) is codec.Store} <= set(flying)


def tokens_of(msg):
    for cand in getattr(msg, "cands", ()):
        yield cand.token
    if msg.kind == codec.REPAIR:
        yield msg.cand.token


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def runs(request, outputs):
    """The config's checked run through a fresh table, with the copies it
    left in flight checked, and its run against _Forgetful: each one's Tap
    and outputs, DIGESTED wires included."""
    config, table = CONFIGS[request.param], {}
    with pytest.MonkeyPatch.context() as patch:
        run = Tap(patch, check=True)
        shared = outputs(config, table, digest_kinds=DIGESTED)
    run.check_in_flight()
    with pytest.MonkeyPatch.context() as patch:
        every = Tap(patch)
        reference = outputs(config, _Forgetful(), digest_kinds=DIGESTED)
    return SimpleNamespace(key=request.param, config=config, table=table,
                           run=run, shared=shared, every=every,
                           reference=reference)


def test_shared_decode_gives_the_outputs_of_decoding_every_copy(runs):
    run, config, metrics = runs.run, runs.config, runs.shared[2]
    assert runs.reference == runs.shared
    # the reference parses every copy, the table fewer
    assert len(runs.every.parses) == metrics["msgs_delivered"]
    assert run.delivered and len(run.parses) < metrics["msgs_delivered"]
    # a run parses only the raw bytes an adversary sends
    assert set(run.parses) <= set(run.raw)
    assert run.parsed == {}  # decoding adds nothing to a table
    decoded = [msg for _, msg in run.delivered]
    polys = sum(type(token) is Polynomial
                for msg in decoded for token in tokens_of(msg))
    assert (polys > 0) == (config.pow_name == "shamir")
    if config.mode == "mw":
        assert {wire[0] for wire, _ in run.delivered} >= {
            codec.STORE, codec.COMPLETE, codec.FILTER_ACK, codec.COLLECT_ACK}
    if runs.key in RECORD_RICH:
        assert 100 <= len({cand for msg in decoded if msg.kind in (
            codec.COLLECT_ACK, codec.FILTER) for cand in msg.cands}) <= 205
    if GARBAGE[0] in config.faults:
        assert metrics["dropped_malformed"] > 0


def test_shared_encode_gives_the_outputs_of_encoding_every_reply(runs):
    run, every = runs.run, runs.every
    assert runs.reference == runs.shared
    # the reference encodes every send but raw bytes
    assert every.misses == every.sends == run.sends
    assert sum(run.sends.values()) == runs.shared[2]["msgs_sent"] - len(
        every.raw)
    # the table encodes every kind but STORE less often; the garbage run
    # never repeats a COLLECT_ACK
    unshared = {codec.STORE,
                codec.COLLECT_ACK if runs.key == "garbage" else None}
    assert {k for k in run.sends if run.misses[k] < every.misses[k]} == (
        set(run.sends) - unshared)


def test_each_distinct_message_is_encoded_once_a_run(runs):
    run, table = runs.run, runs.table
    assert run.misses == run.distinct
    assert {k for k in table if type(k) in _CLASSES} == {
        msg for msg in run.sent if msg.kind != codec.STORE}
    assert_table_is_sound(table)
    assert {tuple, bytes} <= {type(k) for k in table}
    if runs.config.pow_name == "shamir":  # shared by their wire bytes
        assert any(type(token) is Polynomial for k, value in table.items()
                   if type(k) is bytes for token in tokens_of(value))


def test_each_distinct_candidate_record_is_built_once_a_run(runs):
    members = {cand for msg in runs.run.sent
               if msg.kind in (codec.COLLECT_ACK, codec.FILTER)
               for cand in msg.cands}
    assert runs.run.built == Counter(members)
    if runs.key in RECORD_RICH:  # the reference builds them again and again
        assert len(members) >= 100
        assert sum(runs.every.built.values()) > 5 * len(members)


def test_runs_match_without_verdict_memos(runs, monkeypatch, outputs):
    recompute_verdicts(monkeypatch)
    assert outputs(runs.config, digest_kinds=DIGESTED) == runs.shared


def test_no_handler_changes_a_delivered_message(runs):
    # no handler changed a message its sender or another copy still holds
    assert runs.run.delivered
    assert all(codec.decode(wire) == msg for wire, msg in runs.run.delivered)


def record_of(cand):
    return codec.encode(codec.Filter(0, (cand,)))[11:]  # kind, tsr, count


RECORD = record_of(Candidate(Timestamp(7, 0), b"\x42" * 32))
# the record's marks: tag length, token kind, token length, vector flag
MARK_OFFSETS = (16, 17, 18, 19, 20, 53)
# a 54-byte sw candidate whose bytes also parse as a one-entry list's wire
# (its num begins with the flag, count and width 49): two more hostile blobs
SHAPED = record_of(Candidate(
    Timestamp(int.from_bytes(b"\x01\x00\x01\x00\x31abc", "big"), 5),
    b"\x42" * 32))


def _marks_flipped():
    """RECORD with one mark byte changed, every way that byte can change to
    a small value, an all-ones byte or one flipped bit."""
    for at in MARK_OFFSETS:
        values = {0, 1, 2, 3, 0x20, 0xFF}
        values |= {RECORD[at] ^ 1 << bit for bit in range(8)}
        for value in sorted(values - {RECORD[at]}):
            yield RECORD[:at] + bytes((value,)) + RECORD[at + 1:]


def _widths_and_counts_flipped():
    """Two- and three-entry lists of equal and unequal widths, each with
    one count or width byte changed to a nearby, small or all-ones value."""
    lists = [(b"a" * 32, b"b" * 32), (b"a" * 32, b"b" * 31),
             (b"a" * 3, b"b" * 5, b"c" * 3), (b"", b"x")]
    for entries in lists:
        wire = _ref_enc_opt_list(entries)
        yield wire
        marks = [1, 2] + [3 + sum(2 + len(e) for e in entries[:i]) + j
                          for i in range(len(entries)) for j in (0, 1)]
        for at in marks:
            for value in {0, 1, 2, 0xFF, wire[at] ^ 1, wire[at] ^ 0x20}:
                if value != wire[at]:
                    yield wire[:at] + bytes((value,)) + wire[at + 1:]


def hostile_corpus(table):
    """Both fuzz corpora, the list messages encoded with and without table
    and mutated, and damaged candidate records and lists."""
    blobs = [codec.encode(msg, table) for msg in _list_messages()]
    rng = random.Random(0x7AB1E)
    blobs += [_mutate(rng, blob) for blob in blobs for _ in range(40)]
    blobs += [codec.encode(msg) for msg in _list_messages()]
    for seed in (0x5EED, 0x11575):
        blobs += _mutation_corpus(seed, 5000)
    tail = record_of(Candidate(Timestamp(8)))  # a 20-byte record, no token
    for rec in _marks_flipped():
        blobs += [_filter_wire(rec), _filter_wire(RECORD, rec),
                  _filter_wire(rec, RECORD), _filter_wire(rec, tail)]
    blobs += [_filter_wire(RECORD, RECORD[:cut]) for cut in range(54)]
    blobs += [_filter_wire(RECORD[:cut]) for cut in range(54)]
    # a 54-byte candidate ending in a vector entry: cut inside that entry,
    # its slice runs past the end of data instead of raising at once
    rec = record_of(Candidate(Timestamp(1), None, (b"v" * 30,)))
    blobs += [_filter_wire(rec[:cut]) for cut in range(len(rec) + 1)]
    for lst in _widths_and_counts_flipped():
        blobs += [complete_wire(lst), complete_wire(lst + b"\x00"),
                  complete_wire(lst[:-1])]
    # bare list wires, which begin with their presence flag, the STORE kind
    blobs += [_ref_enc_opt_list(entries)
              for entries in [(b"x",), (b"a" * 32, b"b" * 32)]]
    return blobs + [_filter_wire(SHAPED), complete_wire(SHAPED)]


def test_the_table_never_changes_a_verdict_on_hostile_bytes():
    table = {}
    blobs, accepted = hostile_corpus(table), 0
    fed = dict(table)
    for blob in blobs:
        want = _verdict(_reference_decode, blob)
        for table_of_call in (None, table):  # the second may hit
            assert_same(_verdict(lambda b: codec.decode(b, table_of_call),
                                 blob), want)
        accepted += want is not MalformedMessage
    assert 0 < accepted < len(blobs)
    assert table == fed  # decoding adds nothing to a table
    assert_table_is_sound(table)


def test_a_candidate_cut_short_by_the_end_of_data_is_not_kept():
    # a 54-byte candidate ending in a vector entry: cut inside that entry,
    # its slice runs past the end of data instead of raising at once
    rec = record_of(Candidate(Timestamp(1), None, (b"v" * 30,)))
    assert len(rec) == codec._REC.size
    table = {}
    for cut in range(len(rec)):
        for _ in range(2):
            with pytest.raises(MalformedMessage):
                codec.decode(_filter_wire(rec[:cut]), table)
    assert_same(codec.decode(_filter_wire(rec), table),
                _reference_decode(_filter_wire(rec)))
    assert table == {}


def test_a_list_kept_by_its_bytes_never_decodes_as_a_message():
    # a list's bytes begin with its presence flag, the STORE kind byte;
    # encoding keeps them as the list's wire piece, keyed by its tuple
    for entries in [(b"x",), (b"a" * 32, b"b" * 32)]:
        table = {}
        lst = _ref_enc_opt_list(entries)
        msg = codec.Complete(Timestamp(1), b"\x42" * 32, entries)
        assert codec.encode(msg, table) == complete_wire(lst)
        assert table[entries] == lst
        fed = dict(table)
        for _ in range(2):
            assert _verdict(lambda w: codec.decode(w, table), lst) is (
                _verdict(_reference_decode, lst)) is MalformedMessage
        assert codec.decode(complete_wire(lst), table) is msg
        assert table == fed


@pytest.mark.parametrize("msg", [
    codec.Complete(Timestamp(1), b"n", (b"x" * 0x10000,)),
    codec.Complete(Timestamp(1), b"n", (b"x",) * 0x10000),
], ids=["65536-byte-entry", "65536-entries"])
def test_a_list_too_wide_for_the_wire_raises_and_is_not_kept(msg):
    table = {}
    for _ in range(2):
        with pytest.raises(MalformedMessage):
            codec.encode(msg, table)
        assert table == {}


def test_a_table_shares_messages_and_lists_and_no_table_keeps_nothing():
    vec, cc = (b"v" * 32,) * 4, (b"c" * 32, b"d" * 32)
    ts, token = Timestamp(2, 101, b"tag"), b"n" * 32
    a = Candidate(Timestamp(1), b"\x01" * 32)
    b = Candidate(Timestamp(2), b"\x02" * 32)
    odd = Candidate(Timestamp(3, 0, b"tag"), b"\x03" * 32)  # not common
    msgs = [codec.FilterAck(1, ts, None, cc, vec),
            codec.Repair(2, Candidate(ts, token, vec)),
            codec.CollectAck(4, (a, odd, b)), codec.Filter(5, (b, odd, a))]
    table = {}
    wires = [codec.encode(msg, table) for msg in msgs]
    assert wires == [codec.encode(msg) for msg in msgs]
    assert {key for key in table if type(key) is tuple} == {vec, cc}
    # list members keep their records, the repaired candidate does not
    assert {key for key in table if type(key) is Candidate} == {a, b, odd}
    assert not any(type(value) is Candidate for value in table.values())
    records = {table[c] for c in (a, b, odd)}
    assert not any(table[key] in records for key in table
                   if type(key) is bytes)
    assert_table_is_sound(table)
    assert all(codec.decode(w, table) is msg for w, msg in zip(wires, msgs))
    unfed = {}  # as for wires the run did not encode: each one is parsed
    for table_of_call in (unfed, None):
        got = [codec.decode(wire, table_of_call) for wire in wires]
        assert got == msgs and unfed == {}
        assert not any(g is msg for g, msg in zip(got, msgs))
        assert got[0].vec is not got[1].cand.vec
        assert got[2].cands[0] is not got[3].cands[2]


def _broadcast(sim, cid, make):
    for sid in range(1, sim.s + 1):
        sim.send(cid, sid, make(sid))


def _deliver_all(sim):
    """Deliver every copy in flight, in send order, each party's handler
    replaced by a recorder: the message each copy delivered, or None for a
    copy dropped as malformed."""
    got = []
    for server in sim.servers.values():
        server.handle = lambda msg, role: got.append(msg)
    for client in sim.clients.values():
        client.on_message = lambda src, msg: got.append(msg)
    arrivals = sorted(sim.heap, key=lambda event: event[1])
    sim.heap.clear()
    for *_, deliver, args in arrivals:
        before = len(got)
        deliver(*args)
        got += [None] * (len(got) == before)
    return got


def test_equal_requests_from_two_readers_share_one_wire_and_one_decode(
        monkeypatch):
    tap = Tap(monkeypatch)
    sim = simnet.Simulation(small(faults=GARBAGE))
    cands = (Candidate(Timestamp(2), b"n" * 32), Candidate(Timestamp(1), b"m"))
    first = codec.Filter(1, cands)
    wire = codec.encode(first)
    _broadcast(sim, 201, lambda sid: first)
    _broadcast(sim, 201, lambda sid: codec.Filter(1, cands))  # equal ones
    _broadcast(sim, 202, lambda sid: wire)  # the same bytes, sent raw
    assert tap.misses == {codec.FILTER: 1} and tap.raw == [wire] * 4
    sent = [args[2] for *_, args in sorted(sim.heap, key=lambda e: e[1])]
    assert sent == [wire] * 12 and all(w is sent[0] for w in sent[:8])
    assert sim.bytes_sent == 12 * len(wire)
    got = _deliver_all(sim)
    assert tap.parses == []  # every copy decodes to the message first sent
    assert len(got) == 12 and all(msg is first for msg in got)


def test_each_store_is_its_own_entry(monkeypatch):
    """A STORE's wire maps to it from its send to its one delivery, which
    returns the very STORE sent, and no STORE maps to its wire. A copy sent
    again finds no entry and parses; a STORE with no fragment is never kept
    and is dropped as malformed."""
    tap = Tap(monkeypatch)
    sim = simnet.Simulation(small())
    stores = [codec.Store(Timestamp(1), Fragment(sid, 3, b"abc"), (), b"d" * 32)
              for sid in range(1, sim.s + 1)]
    bad = stores[1]._replace(fr=None)
    wires = [codec.encode(msg) for msg in stores + [bad]]
    writer = simnet.WRITER_ID_BASE + 1
    for sid, store in enumerate(stores, 1):
        sim.send(writer, sid, store)
    sim.send(writer, 1, stores[0])  # the same STORE again
    sim.send(writer, 2, bad)

    def kept():
        return {w: m for w, m in sim._table.items() if type(m) is codec.Store}

    assert tap.misses == {codec.STORE: 6}
    assert not any(type(key) is codec.Store for key in sim._table)
    assert list(kept().items()) == list(zip(wires, stores))
    assert all(kept()[w] is store for w, store in zip(wires, stores))
    got, held = [], []
    for server in sim.servers.values():
        server.handle = lambda msg, role: got.append(msg)
    for *_, deliver, args in sorted(sim.heap, key=lambda event: event[1]):
        deliver(*args)
        held.append(set(kept()))
    assert held == [set(wires[i:4]) for i in range(1, 5)] + [set()] * 2
    assert [m is store for m, store in zip(got, stores)] == [True] * 4
    assert len(got) == 5 and got[4] == stores[0] and got[4] is not stores[0]
    assert tap.parses == [wires[0], wires[4]]
    assert sim.dropped_malformed == 1


def test_store_fragments_are_counted_for_correct_clients_only():
    """Sending a STORE tallies nothing, whoever sends it: data_bytes grows
    only when a correct writer completes a write, by the fragments it
    encoded, and never by the STOREs a byzantine reader injects."""
    config = small(faults=GARBAGE)
    sim = simnet.Simulation(config)
    store = codec.Store(Timestamp(1), Fragment(1, 3, b"abc"), (), b"d" * 32)
    for cid in (simnet.WRITER_ID_BASE + 1, 201, 202):
        sim.send(cid, 1, store)
    assert sim.data_bytes == 0
    res = simnet.Simulation(config).run()
    per_write = sum(FRAGMENT_HEADER_BYTES + len(fr.payload) for fr in
                    ec_encode(b"v" * config.value_size, sim.t + 1, sim.s))
    assert res.metrics["completed_writes"] == config.writes
    assert res.metrics["data_bytes"] == per_write * config.writes


def test_malformed_copies_raise_each_time_and_are_not_kept(monkeypatch):
    tap = Tap(monkeypatch)
    sim = simnet.Simulation(small(log_wire=True, faults=GARBAGE))
    raw = bytes((codec.COLLECT, 0))
    _broadcast(sim, 202, lambda sid: raw)
    _broadcast(sim, 202, lambda sid: b"")  # empty: sent, logged, dropped
    assert _deliver_all(sim) == [None] * 8
    assert tap.parses == [raw] * 4 + [b""] * 4
    assert sim.dropped_malformed == 8
    assert sim._table == {}
    assert [(ev["type"], ev["kind"], ev["nbytes"], ev["raw"])
            for ev in sim.events] == ([("send", codec.COLLECT, 2, raw)] * 4
                                      + [("send", 0, 0, b"")] * 4)


def test_replies_of_different_kinds_never_share_a_wire():
    sim = simnet.Simulation(small())
    ts = Timestamp(4)
    replies = (codec.StoreAck(ts), codec.CompleteAck(ts), codec.StoreAck(ts))
    for sid, msg in enumerate(replies, 1):
        sim.send(sid, simnet.WRITER_ID_BASE + 1, msg)
    store_ack, complete_ack = codec.encode(replies[0]), codec.encode(replies[1])
    assert store_ack != complete_ack
    assert (sim._table[replies[0]], sim._table[replies[1]]) == (store_ack,
                                                                complete_ack)
    arrivals = sorted(sim.heap, key=lambda event: event[1])  # in send order
    assert [args[2] for *_, args in arrivals] == [store_ack, complete_ack,
                                                  store_ack]
    assert _deliver_all(sim) == list(replies)


ROUND_TRIP_GROUPS = ("sw-catalog/hash", "mw-catalog/hash", "sw-catalog/shamir",
                     "mw-catalog/shamir", "contended")


def round_trip_configs(group):
    """The group's configs but those in CONFIGS, whose checked run already
    decodes each wire it encodes, delivered or left in the heap, with no
    table and checks it against the message it came from."""
    if group == "contended":
        configs = [scenarios.pair_for("mw-pareto", 0, **CONTENDED)[1]]
    else:
        sweep, pow_name = group.split("/")
        seeds = (10 if pow_name == "shamir" else 28 if sweep == "sw-catalog"
                 else 24)
        configs = [scenarios.pair_for(sweep, seed, pow_name=pow_name)[1]
                   for seed in range(seeds)]
    return [config for config in configs if config not in CONFIGS.values()]


@pytest.mark.parametrize("group", ROUND_TRIP_GROUPS)
def test_every_wire_a_run_encodes_decodes_to_its_message(group, monkeypatch):
    real, checked = codec.encode, set()

    def checking(msg, *rest):
        wire = real(msg, *rest)
        if wire not in checked:
            checked.add(wire)
            assert_same(codec.decode(wire), msg)
        return wire

    monkeypatch.setattr(codec, "encode", checking)
    for config in round_trip_configs(group):
        simnet.run(config)
    assert checked
