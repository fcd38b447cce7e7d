"""One in-flight table shares the wire work: a payload (a message, or an
adversary's raw bytes) equal to one in flight reuses its wire and its decode.
That must give the same outputs as encoding every send and decoding every
copy, and no handler may change a message another copy still carries."""

from collections import Counter

import pytest

from powerstore import behaviors, codec, scenarios, simnet
from powerstore.core import Candidate, Timestamp
from powerstore.erasure import FRAGMENT_HEADER_BYTES, Fragment
from powerstore.erasure import encode as ec_encode
from powerstore.simnet import SimConfig


GARBAGE = ("byz_reader:202:garbage_filter_sets",)  # sends raw bytes


def small(**over):
    kw = dict(mode="sw", writers=1, readers=2, writes=3, reads=3,
              value_size=48, seed=3)
    kw.update(over)
    return SimConfig(**kw)


def counting_decode(monkeypatch):
    """Patch codec.decode to record every wire it parses."""
    wires = []
    real = codec.decode
    monkeypatch.setattr(codec, "decode",
                        lambda w, *rest: wires.append(w) or real(w, *rest))
    return wires


def counting_encode(monkeypatch):
    """Patch codec.encode to count the messages it encodes by kind."""
    kinds = Counter()
    real = codec.encode
    monkeypatch.setattr(codec, "encode", lambda m, *rest: kinds.update(
        (m.kind,)) or real(m, *rest))
    return kinds


class _Forgetful(dict):
    """An in-flight table that never finds an entry: every send is encoded
    and every copy decoded, the reference the shared table must match."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass

    def __delitem__(self, key):
        pass


def outputs(config, table=None):
    sim = simnet.Simulation(config)
    if table is not None:
        sim._in_flight = table
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
    wires = counting_decode(monkeypatch)
    shared = outputs(config)
    shared_decodes = len(wires)
    wires.clear()
    assert outputs(config, _Forgetful()) == shared
    delivered = shared[2]["msgs_delivered"]
    assert len(wires) == delivered
    assert shared_decodes < delivered
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

    kinds = counting_encode(monkeypatch)
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
        # the garbage run never has two equal COLLECT_ACKs in flight at once
        if kind in REPLY_KINDS and not (key == "garbage"
                                        and kind == codec.COLLECT_ACK):
            assert shared_encodes[kind] < every, codec.KIND_NAMES[kind]


@pytest.mark.parametrize("key", ["flood/0", "mw-catalog/2", "garbage"])
def test_each_distinct_payload_is_encoded_once_while_in_flight(
        key, monkeypatch):
    kinds = counting_encode(monkeypatch)
    in_flight, sends, distinct = Counter(), Counter(), Counter()
    send, receive = simnet.Simulation.send, simnet.Simulation._receive

    def counting_send(self, src, dst, payload):
        if not isinstance(payload, bytes):
            sends[payload.kind] += 1
            distinct[payload.kind] += in_flight[payload] == 0
        in_flight[payload] += 1
        send(self, src, dst, payload)

    def counting_receive(self, src, dst, payload, entry):
        in_flight[payload] -= 1
        return receive(self, src, dst, payload, entry)

    monkeypatch.setattr(simnet.Simulation, "send", counting_send)
    monkeypatch.setattr(simnet.Simulation, "_receive", counting_receive)
    simnet.run(equivalence_configs()[key])
    assert kinds == distinct
    # every kind but STORE has equal payloads in flight at some point, but
    # the garbage run never has two equal COLLECT_ACKs in flight at once
    unshared = {codec.STORE, codec.COLLECT_ACK if key == "garbage" else None}
    assert {k for k in sends if distinct[k] < sends[k]} == set(sends) - unshared
    assert all(n == 0 for n in in_flight.values())


BYZANTINE = ([("byz_server:1:%s" % name,) for name in sorted(behaviors.SERVERS)]
             + [("byz_reader:202:%s" % name,) for name in sorted(behaviors.READERS)])


@pytest.mark.parametrize("mode", ["sw", "mw"])
@pytest.mark.parametrize("faults", BYZANTINE, ids=lambda f: f[0])
def test_no_handler_changes_a_delivered_message(mode, faults, monkeypatch):
    seen = []
    real = simnet.Simulation._receive

    def recording(self, src, dst, payload, entry):
        msg = real(self, src, dst, payload, entry)
        if msg is not None:
            seen.append((entry[1], msg))
        return msg

    monkeypatch.setattr(simnet.Simulation, "_receive", recording)
    simnet.run(small(mode=mode, writers=1 if mode == "sw" else 2,
                     faults=faults, seed=4))
    assert seen
    assert all(codec.decode(wire) == msg for wire, msg in seen)


@pytest.mark.parametrize("config", [
    small(),
    small(mode="mw", writers=2),
    small(faults=GARBAGE),
    small(faults=("byz_reader:202:flood_writebacks",)),
    small(faults=("byz_server:2:mute", "byz_server:3:mute")),  # deadlocks
    small(faults=("crash_writer:101:after_store:1",)),
], ids=["sw", "mw", "garbage", "flood", "deadlock", "crash"])
def test_the_in_flight_table_is_empty_once_the_heap_drains(config):
    sim = simnet.Simulation(config)
    sim.run()
    assert sim.heap == []
    assert sim._in_flight == {}


def _broadcast(sim, cid, payload):
    for sid in range(1, sim.s + 1):
        sim.send(cid, sid, payload)


def _receive_all(sim):
    """Receive every copy in flight, in send order, without handling it."""
    arrivals = sorted(sim.heap, key=lambda event: event[1])
    sim.heap.clear()
    return [sim._receive(*args) for *_, args in arrivals]


def test_copies_of_one_wire_are_decoded_once_and_share_the_message(
        monkeypatch):
    wires = counting_decode(monkeypatch)
    sim = simnet.Simulation(small())
    msg = codec.Filter(1, (Candidate(Timestamp(2), b"n" * 32),))
    _broadcast(sim, 201, msg)
    wire = codec.encode(msg)
    assert sim._in_flight == {msg: [4, wire, None]}
    got = _receive_all(sim)
    assert wires == [wire]
    assert got[0] == msg and all(m is got[0] for m in got)
    assert sim._in_flight == {}


def test_equal_requests_from_two_readers_share_one_wire_and_one_decode(
        monkeypatch):
    wire = codec.encode(codec.Collect(1))
    kinds = counting_encode(monkeypatch)
    wires = counting_decode(monkeypatch)
    sim = simnet.Simulation(small())
    for cid in (201, 202):
        _broadcast(sim, cid, codec.Collect(1))  # equal, not the same object
    assert kinds == {codec.COLLECT: 1}
    assert sim._in_flight == {codec.Collect(1): [8, wire, None]}
    got = _receive_all(sim)
    assert wires == [wire]
    assert got[0] == codec.Collect(1) and all(m is got[0] for m in got)
    assert sim.metrics["bytes_sent"] == 8 * len(wire)
    assert sim._in_flight == {}


def test_malformed_copies_raise_each_time_and_are_not_kept(monkeypatch):
    wires = counting_decode(monkeypatch)
    sim = simnet.Simulation(small(faults=GARBAGE))
    raw = bytes((codec.COLLECT, 0))
    _broadcast(sim, 202, raw)
    assert sim._in_flight == {raw: [4, raw, None]}
    assert _receive_all(sim) == [None] * 4
    assert wires == [raw] * 4
    assert sim.metrics["dropped_malformed"] == 4
    assert sim._in_flight == {}


def test_empty_raw_bytes_are_sent_logged_and_dropped():
    sim = simnet.Simulation(small(log_wire=True, faults=GARBAGE))
    _broadcast(sim, 202, b"")
    assert _receive_all(sim) == [None] * 4
    assert sim.metrics["dropped_malformed"] == 4
    assert [(ev["type"], ev["kind"], ev["nbytes"]) for ev in sim.events] == [
        ("send", 0, 0)] * 4
    assert [(ev["kind"], ev["raw"]) for ev in sim.events] == [(0, b"")] * 4
    assert sim._in_flight == {}


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
    wires = counting_decode(monkeypatch)
    sim = simnet.Simulation(small())
    stores = [codec.Store(Timestamp(1), Fragment(sid, 3, b"abc"), (), b"d" * 32)
              for sid in range(1, sim.s + 1)]
    for sid, store in enumerate(stores, 1):
        sim.send(simnet.WRITER_ID_BASE + 1, sid, store)
    assert {m: e[0] for m, e in sim._in_flight.items()} == {
        store: 1 for store in stores}
    assert _receive_all(sim) == stores
    assert len(wires) == 4
    assert sim._in_flight == {}
