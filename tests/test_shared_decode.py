"""Each distinct in-flight wire is decoded once and its copies share the
message: the same outputs as decoding every copy, and no handler may change a
message another copy still carries. A reply equal to one in flight, of any
kind, shares its wire: the same outputs as encoding every reply."""

from collections import Counter

import pytest

from powerstore import behaviors, codec, scenarios, simnet
from powerstore.codec import MalformedMessage
from powerstore.core import Candidate, Timestamp
from powerstore.erasure import Fragment
from powerstore.simnet import SimConfig


def small(**over):
    kw = dict(mode="sw", writers=1, readers=2, writes=3, reads=3,
              value_size=48, seed=3)
    kw.update(over)
    return SimConfig(**kw)


def counting_decode(monkeypatch):
    """Patch codec.decode to record every wire it parses."""
    wires = []
    real = codec.decode
    monkeypatch.setattr(codec, "decode", lambda w: wires.append(w) or real(w))
    return wires


def outputs(config):
    res = simnet.run(config)
    return res.log_digest(), res.history_signature(), dict(res.metrics)


def equivalence_configs():
    configs = {}
    for sweep in ("sw-catalog", "mw-catalog"):
        for seed in range(5):
            configs["%s/%d" % (sweep, seed)] = scenarios.pair_for(sweep, seed)[1]
    configs["flood/0"] = scenarios.pair_for(
        "sw-flood", 0, readers=4, writes=5, reads=5, adversary_budget=50,
        faults=("byz_reader:201:flood_writebacks",))[1]
    configs["garbage"] = small(faults=("byz_reader:202:garbage_filter_sets",))
    return configs


@pytest.mark.parametrize("key", sorted(equivalence_configs()))
def test_shared_decode_gives_the_outputs_of_decoding_every_copy(
        key, monkeypatch):
    config = equivalence_configs()[key]
    wires = counting_decode(monkeypatch)
    shared = outputs(config)
    shared_decodes = len(wires)
    monkeypatch.setattr(simnet.Simulation, "_decode",
                        lambda self, wire: codec.decode(wire))
    wires.clear()
    assert outputs(config) == shared
    delivered = shared[2]["msgs_delivered"]
    assert len(wires) == delivered
    assert shared_decodes < delivered
    if key == "garbage":
        assert shared[2]["dropped_malformed"] > 0


class _Forgetful(dict):
    """A reply table that never finds a reply: every reply is encoded."""

    def get(self, key, default=None):
        return default


def counting_encode(monkeypatch):
    """Patch codec.encode to count the messages it encodes by kind."""
    kinds = Counter()
    real = codec.encode
    monkeypatch.setattr(codec, "encode",
                        lambda m: kinds.update((m.kind,)) or real(m))
    return kinds


REPLY_KINDS = {k for k, name in codec.KIND_NAMES.items() if name.endswith("_ACK")}


@pytest.mark.parametrize("key", sorted(equivalence_configs()))
def test_shared_encode_gives_the_outputs_of_encoding_every_reply(
        key, monkeypatch):
    config = equivalence_configs()[key]
    kinds = counting_encode(monkeypatch)
    shared = outputs(config)
    shared_encodes = Counter(kinds)
    kinds.clear()
    sim = simnet.Simulation(config)
    sim._replies = _Forgetful()
    res = sim.run()
    assert (res.log_digest(), res.history_signature(), res.metrics) == shared
    assert set(kinds) == set(shared_encodes)
    for kind, every in kinds.items():
        if kind not in REPLY_KINDS:
            assert shared_encodes[kind] == every  # requests are not shared
        # the garbage run never has two equal COLLECT_ACKs in flight at once
        elif key == "garbage" and kind == codec.COLLECT_ACK:
            assert shared_encodes[kind] == every
        else:
            assert shared_encodes[kind] < every, codec.KIND_NAMES[kind]


@pytest.mark.parametrize("key", ["flood/0", "mw-catalog/2"])
def test_each_reply_wire_is_encoded_once_while_in_flight(key, monkeypatch):
    kinds = counting_encode(monkeypatch)
    in_flight, sends, distinct = Counter(), Counter(), Counter()
    send, deliver = (simnet.Simulation._send,
                     simnet.Simulation._deliver_to_client)

    def counting_send(self, src, dst, wire, deliver):
        if dst in self.clients:
            sends[wire[0]] += 1
            distinct[wire[0]] += in_flight[wire] == 0
            in_flight[wire] += 1
        return send(self, src, dst, wire, deliver)

    def counting_deliver(self, sid, cid, wire):
        in_flight[wire] -= 1
        deliver(self, sid, cid, wire)

    monkeypatch.setattr(simnet.Simulation, "_send", counting_send)
    monkeypatch.setattr(simnet.Simulation, "_deliver_to_client",
                        counting_deliver)
    simnet.run(equivalence_configs()[key])
    assert set(sends) <= REPLY_KINDS
    # every reply kind sent has equal replies in flight at some point
    assert {k for k in sends if distinct[k] < sends[k]} == set(sends)
    assert {k: kinds[k] for k in sends} == distinct
    assert all(n == 0 for n in in_flight.values())


BYZANTINE = ([("byz_server:1:%s" % name,) for name in sorted(behaviors.SERVERS)]
             + [("byz_reader:202:%s" % name,) for name in sorted(behaviors.READERS)])


@pytest.mark.parametrize("mode", ["sw", "mw"])
@pytest.mark.parametrize("faults", BYZANTINE, ids=lambda f: f[0])
def test_no_handler_changes_a_delivered_message(mode, faults, monkeypatch):
    seen = []
    real = simnet.Simulation._decode

    def recording(self, wire):
        msg = real(self, wire)
        seen.append((wire, msg))
        return msg

    monkeypatch.setattr(simnet.Simulation, "_decode", recording)
    simnet.run(small(mode=mode, writers=1 if mode == "sw" else 2,
                     faults=faults, seed=4))
    assert seen
    assert all(codec.decode(wire) == msg for wire, msg in seen)


@pytest.mark.parametrize("config", [
    small(),
    small(mode="mw", writers=2),
    small(faults=("byz_reader:202:garbage_filter_sets",)),
    small(faults=("byz_reader:202:flood_writebacks",)),
    small(faults=("byz_server:2:mute", "byz_server:3:mute")),  # deadlocks
    small(faults=("crash_writer:101:after_store:1",)),
], ids=["sw", "mw", "garbage", "flood", "deadlock", "crash"])
def test_the_in_flight_table_is_empty_once_the_heap_drains(config):
    sim = simnet.Simulation(config)
    sim.run()
    assert sim.heap == []
    assert sim._in_flight == {}
    assert sim._replies == {}


def _broadcast(sim, payload):
    for sid in range(1, sim.s + 1):
        sim.send_to_server(sim.reader_ids[0], sid, payload)


def test_copies_of_one_wire_are_decoded_once_and_share_the_message(
        monkeypatch):
    wires = counting_decode(monkeypatch)
    sim = simnet.Simulation(small())
    msg = codec.Filter(1, (Candidate(Timestamp(2), b"n" * 32),))
    _broadcast(sim, msg)
    wire = codec.encode(msg)
    assert sim._in_flight == {wire: [4, None, None]}
    got = [sim._decode(wire) for _ in range(4)]
    assert wires == [wire]
    assert got[0] == msg and all(m is got[0] for m in got)
    assert sim._in_flight == {}


def test_malformed_copies_raise_each_time_and_are_not_kept(monkeypatch):
    wires = counting_decode(monkeypatch)
    sim = simnet.Simulation(small())
    _broadcast(sim, bytes((codec.COLLECT, 0)))
    for _ in range(4):
        with pytest.raises(MalformedMessage):
            sim._decode(bytes((codec.COLLECT, 0)))
    assert len(wires) == 4
    assert sim._in_flight == {}


def test_stores_are_never_held(monkeypatch):
    wires = counting_decode(monkeypatch)
    sim = simnet.Simulation(small())
    store = codec.Store(Timestamp(1), Fragment(1, 3, b"abc"), (), b"d" * 32)
    _broadcast(sim, store)
    assert sim._in_flight == {}
    assert sim._decode(codec.encode(store)) == store
    assert len(wires) == 1
