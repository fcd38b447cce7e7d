"""Candidate-list decoding on the lists runs really send: long sw lists whose
records repeat from message to message. Every COLLECT_ACK and FILTER wire of
a flood run and of four sw-catalog runs with 100-200 distinct records must
decode to what the byte-at-a-time reference codec decodes, with the exact
types a constructed message has.

A run shares candidate lists inside whole messages: its one table keeps
each message it encodes, so a wire it sent decodes to that message, and
decoding any other bytes keeps no candidate. The table must never change a
verdict or an output, and it lives exactly as long as its run."""

import random

import pytest

from powerstore import codec, scenarios, simnet
from powerstore.codec import CollectAck, Filter, MalformedMessage
from powerstore.core import Candidate, Timestamp
from test_codec import (
    _filter_wire, _list_messages, _mutate, _mutation_corpus, _reference_decode,
    _verdict)
from test_literal_lc import FLOOD
from test_shared_decode import _Forgetful, equivalence_configs
from test_shared_table import assert_table_is_sound

LIST_KINDS = (codec.COLLECT_ACK, codec.FILTER)


def guard_configs():
    configs = {"flood/0": scenarios.pair_for("sw-flood", 0, **FLOOD)[1]}
    for seed in (9, 12, 23, 26):
        configs["sw-catalog/%d" % seed] = scenarios.pair_for("sw-catalog",
                                                             seed)[1]
    return configs


def list_wires(config, monkeypatch):
    """Every candidate-list wire the run encodes, in send order."""
    wires = []
    real = codec.encode

    def recording(msg, *rest):
        wire = real(msg, *rest)
        if msg.kind in LIST_KINDS:
            wires.append(wire)
        return wire

    with monkeypatch.context() as patch:
        patch.setattr(codec, "encode", recording)
        simnet.run(config)
    return wires


def assert_constructed_types(msg):
    for cand in msg.cands:
        assert type(cand) is Candidate and type(cand.ts) is Timestamp
        assert type(cand.ts.tag) is bytes
        assert cand.token is None or type(cand.token) is bytes
        assert cand.vec is None


@pytest.mark.parametrize("key", sorted(guard_configs()))
def test_run_lists_decode_as_the_reference_decodes_them(key, monkeypatch):
    wires = list_wires(guard_configs()[key], monkeypatch)
    assert wires
    records = set()
    for wire in wires:
        msg = codec.decode(wire)
        assert msg == _reference_decode(wire)
        assert_constructed_types(msg)
        records.update(msg.cands)
    assert 100 <= len(records) <= 205
    # decoded in send order through one table, as hostile bytes would be
    shared = {}
    for wire in wires:
        msg = codec.decode(wire, shared)
        assert msg == _reference_decode(wire)
        assert_constructed_types(msg)
    assert shared == {}  # decoding keeps only lists, and sw candidates have none


def record_of(cand):
    return codec.encode(Filter(0, (cand,)))[11:]  # kind, tsr, count: 11 bytes


RECORD = record_of(Candidate(Timestamp(7, 0), b"\x42" * 32))
# the record's marks: tag length, token kind, token length, vector flag
MARK_OFFSETS = (16, 17, 18, 19, 20, 53)


def _marks_flipped():
    """RECORD with one mark byte changed, every way that byte can change to
    a small value, an all-ones byte or one flipped bit."""
    for at in MARK_OFFSETS:
        values = {0, 1, 2, 3, 0x20, 0xFF}
        values |= {RECORD[at] ^ 1 << bit for bit in range(8)}
        for value in sorted(values - {RECORD[at]}):
            yield RECORD[:at] + bytes((value,)) + RECORD[at + 1:]


def test_the_table_never_changes_a_verdict():
    records = {}
    blobs = [codec.encode(msg, records) for msg in _list_messages()]
    rng = random.Random(0x7AB1E)
    blobs += [_mutate(rng, blob) for blob in blobs for _ in range(40)]
    blobs += _mutation_corpus(0x5EED, 5000)
    tail = record_of(Candidate(Timestamp(8)))  # a 20-byte record, no token
    for rec in _marks_flipped():
        blobs += [_filter_wire(rec), _filter_wire(RECORD, rec),
                  _filter_wire(rec, RECORD), _filter_wire(rec, tail)]
    blobs += [_filter_wire(RECORD, RECORD[:cut]) for cut in range(54)]
    blobs += [_filter_wire(RECORD[:cut]) for cut in range(54)]
    accepted = 0
    for blob in blobs:
        want = _verdict(_reference_decode, blob)
        assert _verdict(lambda b: codec.decode(b, records), blob) == want, blob
        accepted += want is not MalformedMessage
    assert 0 < accepted < len(blobs)
    assert_table_is_sound(records)


def test_a_shared_table_shares_each_record_and_no_table_keeps_nothing():
    a = Candidate(Timestamp(1), b"\x01" * 32)
    b = Candidate(Timestamp(2), b"\x02" * 32)
    odd = Candidate(Timestamp(3, 0, b"tag"), b"\x03" * 32)  # not common
    first, second = CollectAck(4, (a, odd, b)), Filter(5, (b, odd, a))
    records = {}
    wires = [codec.encode(msg, records) for msg in (first, second)]
    one, two = (codec.decode(wire, records) for wire in wires)
    assert one is first and two is second
    assert one.cands[0] is two.cands[2] and one.cands[2] is two.cands[0]
    assert not any(type(value) is Candidate for value in records.values())
    assert_table_is_sound(records)
    one, two = (codec.decode(wire) for wire in wires)
    assert one == first and two == second
    assert one.cands[0] == two.cands[2] and one.cands[0] is not two.cands[2]


def outputs(config, records=None):
    sim = simnet.Simulation(config)
    assert sim._table == {}
    if records is not None:
        sim._table = records
    res = sim.run()
    return res.log_digest(), res.history_signature(), dict(res.metrics)


@pytest.mark.parametrize("key", sorted(equivalence_configs()))
def test_the_table_gives_the_outputs_of_decoding_every_record(key):
    config = equivalence_configs()[key]
    assert outputs(config, _Forgetful()) == outputs(config)


def test_the_table_lives_for_one_run_and_holds_its_common_records(
        monkeypatch):
    # each distinct candidate list the run sends, inside its message
    config = equivalence_configs()["flood/0"]
    distinct = set(map(_reference_decode, list_wires(config, monkeypatch)))
    sim = simnet.Simulation(config)
    sim.run()
    assert distinct
    assert {key for key in sim._table
            if type(key) in (CollectAck, Filter)} == distinct
    assert_table_is_sound(sim._table)
    assert simnet.Simulation(config)._table == {}
