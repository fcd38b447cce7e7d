"""The run's codec table shares the wire work: each distinct message but a
STORE is encoded once a run, and a wire the run encoded decodes to the
message it was encoded from; a STORE and an adversary's raw bytes are
parsed on every copy. That must give the same outputs as encoding every
send and parsing every copy, and no handler may change a message its sender
or another copy still holds."""

from collections import Counter

import pytest

from powerstore import behaviors, codec, scenarios, simnet
from powerstore.core import Timestamp
from powerstore.erasure import FRAGMENT_HEADER_BYTES, Fragment
from powerstore.erasure import encode as ec_encode
from powerstore.simnet import SimConfig


GARBAGE = ("byz_reader:202:garbage_filter_sets",)  # sends raw bytes


def small(**over):
    kw = dict(mode="sw", writers=1, readers=2, writes=3, reads=3,
              value_size=48, seed=3)
    kw.update(over)
    return SimConfig(**kw)


def counting_parses(monkeypatch):
    """Patch codec.decode to record every wire it parses: each one its table
    maps to no message."""
    wires = []
    real = codec.decode

    def decode(wire, table=None):
        if table is None or type(table.get(wire)) not in codec._CLASSES:
            wires.append(wire)
        return real(wire, table)

    monkeypatch.setattr(codec, "decode", decode)
    return wires


def counting_encodes(monkeypatch):
    """Patch codec.encode to count, by kind, the messages it really encodes:
    each one its table misses."""
    kinds = Counter()
    real = codec.encode

    def encode(msg, table=None):
        if table is None or msg not in table:
            kinds[msg.kind] += 1
        return real(msg, table)

    monkeypatch.setattr(codec, "encode", encode)
    return kinds


class _Forgetful(dict):
    """A codec table that never finds an entry: every send is encoded and
    every copy parsed, the reference the run's table must match."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def outputs(config, table=None):
    sim = simnet.Simulation(config)
    if table is not None:
        sim._table = table
    res = sim.run()
    return res.log_digest(), res.history_signature(), dict(res.metrics)


def equivalence_configs():
    configs = {}
    for sweep in ("sw-catalog", "mw-catalog"):
        for seed in range(5):
            configs["%s/%d" % (sweep, seed)] = scenarios.pair_for(sweep, seed)[1]
    configs["flood/0"] = scenarios.pair_for(
        "sw-flood", 0, readers=4, writes=5, reads=5, adversary_budget=50,
        faults=("byz_reader:201:flood_writebacks",))[1]
    configs["garbage"] = small(faults=GARBAGE)
    return configs


@pytest.mark.parametrize("key", sorted(equivalence_configs()))
def test_shared_decode_gives_the_outputs_of_decoding_every_copy(
        key, monkeypatch):
    config = equivalence_configs()[key]
    wires = counting_parses(monkeypatch)
    shared = outputs(config)
    shared_parses = len(wires)
    wires.clear()
    assert outputs(config, _Forgetful()) == shared
    delivered = shared[2]["msgs_delivered"]
    assert len(wires) == delivered
    assert shared_parses < delivered
    if key == "garbage":
        assert shared[2]["dropped_malformed"] > 0


REPLY_KINDS = {k for k, name in codec.KIND_NAMES.items() if name.endswith("_ACK")}


@pytest.mark.parametrize("key", sorted(equivalence_configs()))
def test_shared_encode_gives_the_outputs_of_encoding_every_reply(
        key, monkeypatch):
    config = equivalence_configs()[key]
    raw = []
    real_send = simnet.Simulation.send

    def send(self, src, dst, payload):
        if isinstance(payload, bytes):
            raw.append(payload)
        real_send(self, src, dst, payload)

    kinds = counting_encodes(monkeypatch)
    shared = outputs(config)
    shared_encodes = Counter(kinds)
    kinds.clear()
    monkeypatch.setattr(simnet.Simulation, "send", send)
    assert outputs(config, _Forgetful()) == shared
    # the reference encodes every send whose payload is not raw bytes
    assert sum(kinds.values()) == shared[2]["msgs_sent"] - len(raw)
    assert set(kinds) == set(shared_encodes)
    assert sum(shared_encodes.values()) < sum(kinds.values())
    for kind, every in kinds.items():
        assert shared_encodes[kind] <= every, codec.KIND_NAMES[kind]
        # the garbage run never repeats a COLLECT_ACK
        if kind in REPLY_KINDS and not (key == "garbage"
                                        and kind == codec.COLLECT_ACK):
            assert shared_encodes[kind] < every, codec.KIND_NAMES[kind]


@pytest.mark.parametrize("key", ["flood/0", "mw-catalog/2", "garbage"])
def test_each_distinct_message_is_encoded_once_a_run(key, monkeypatch):
    kinds = counting_encodes(monkeypatch)
    sends, distinct, seen = Counter(), Counter(), set()
    send = simnet.Simulation.send

    def counting_send(self, src, dst, payload):
        if not isinstance(payload, bytes):
            sends[payload.kind] += 1
            distinct[payload.kind] += (payload.kind == codec.STORE
                                       or payload not in seen)
            seen.add(payload)
        send(self, src, dst, payload)

    monkeypatch.setattr(simnet.Simulation, "send", counting_send)
    simnet.run(equivalence_configs()[key])
    assert kinds == distinct
    # every kind but STORE, which is never shared, repeats a message, but
    # the garbage run never repeats a COLLECT_ACK
    unshared = {codec.STORE, codec.COLLECT_ACK if key == "garbage" else None}
    assert {k for k in sends if distinct[k] < sends[k]} == set(sends) - unshared


BYZANTINE = ([("byz_server:1:%s" % name,) for name in sorted(behaviors.SERVERS)]
             + [("byz_reader:202:%s" % name,) for name in sorted(behaviors.READERS)])


@pytest.mark.parametrize("mode", ["sw", "mw"])
@pytest.mark.parametrize("faults", BYZANTINE, ids=lambda f: f[0])
def test_no_handler_changes_a_delivered_message(mode, faults, monkeypatch):
    seen = []
    real = codec.decode

    def recording(wire, *rest):  # called by Simulation._deliver
        msg = real(wire, *rest)
        seen.append((wire, msg))
        return msg

    monkeypatch.setattr(codec, "decode", recording)
    simnet.run(small(mode=mode, writers=1 if mode == "sw" else 2,
                     faults=faults, seed=4))
    assert seen
    assert all(real(wire) == msg for wire, msg in seen)


def _broadcast(sim, cid, payload):
    for sid in range(1, sim.s + 1):
        sim.send(cid, sid, payload)


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
    wire = codec.encode(codec.Collect(1))
    kinds = counting_encodes(monkeypatch)
    wires = counting_parses(monkeypatch)
    sim = simnet.Simulation(small())
    first = codec.Collect(1)
    _broadcast(sim, 201, first)
    _broadcast(sim, 202, codec.Collect(1))  # equal, not the same object
    assert kinds == {codec.COLLECT: 1}
    sent = [args[2] for *_, args in sim.heap]
    assert sent == [wire] * 8 and all(w is sent[0] for w in sent)
    got = _deliver_all(sim)
    assert wires == []  # every copy decodes to the message first sent
    assert len(got) == 8 and all(m is first for m in got)
    assert sim.metrics["bytes_sent"] == 8 * len(wire)


def test_malformed_copies_raise_each_time_and_are_not_kept(monkeypatch):
    wires = counting_parses(monkeypatch)
    sim = simnet.Simulation(small(faults=GARBAGE))
    raw = bytes((codec.COLLECT, 0))
    _broadcast(sim, 202, raw)
    assert _deliver_all(sim) == [None] * 4
    assert wires == [raw] * 4
    assert sim.metrics["dropped_malformed"] == 4
    assert sim._table == {}


def test_empty_raw_bytes_are_sent_logged_and_dropped():
    sim = simnet.Simulation(small(log_wire=True, faults=GARBAGE))
    _broadcast(sim, 202, b"")
    assert _deliver_all(sim) == [None] * 4
    assert sim.metrics["dropped_malformed"] == 4
    assert [(ev["type"], ev["kind"], ev["nbytes"]) for ev in sim.events] == [
        ("send", 0, 0)] * 4
    assert [(ev["kind"], ev["raw"]) for ev in sim.events] == [(0, b"")] * 4


def test_store_fragments_are_counted_for_correct_clients_only():
    """Sending a STORE tallies nothing, whoever sends it: data_bytes grows
    only when a correct writer completes a write, by the fragments it
    encoded, and never by the STOREs a byzantine reader injects."""
    config = small(faults=GARBAGE)
    sim = simnet.Simulation(config)
    store = codec.Store(Timestamp(1), Fragment(1, 3, b"abc"), (), b"d" * 32)
    for cid in (simnet.WRITER_ID_BASE + 1, 201, 202):
        sim.send(cid, 1, store)
    assert sim.metrics["data_bytes"] == 0
    res = simnet.Simulation(config).run()
    per_write = sum(FRAGMENT_HEADER_BYTES + len(fr.payload) for fr in
                    ec_encode(b"v" * config.value_size, sim.t + 1, sim.s))
    assert res.metrics["completed_writes"] == config.writes
    assert res.metrics["data_bytes"] == per_write * config.writes


def test_each_store_is_its_own_entry(monkeypatch):
    kinds = counting_encodes(monkeypatch)
    wires = counting_parses(monkeypatch)
    sim = simnet.Simulation(small())
    stores = [codec.Store(Timestamp(1), Fragment(sid, 3, b"abc"), (), b"d" * 32)
              for sid in range(1, sim.s + 1)]
    for sid, store in enumerate(stores, 1):
        sim.send(simnet.WRITER_ID_BASE + 1, sid, store)
    sim.send(simnet.WRITER_ID_BASE + 1, 1, stores[0])  # the same STORE again
    assert kinds == {codec.STORE: 5}
    assert not any(type(key) is codec.Store for key in sim._table)
    got = _deliver_all(sim)
    assert got == stores + stores[:1]
    assert not any(m is store for m, store in zip(got, stores + stores[:1]))
    assert len(wires) == 5
