"""Whole runs decode through the run's table exactly as without it. Every
codec.decode call a run makes, with whatever table it passes, must get the
verdict and the value of a call with no table and of the byte-at-a-time
reference codec, with the exact types a constructed message has: a
Polynomial token stays a Polynomial, and a list a tuple of bytes.

The runs cover both candidate shapes that repeat: sw-catalog seeds 69 and
139 (proof sharing at t=2, 54-byte polynomial-token candidates), the flood
run's long lists of common sw records, and mw-catalog seeds 2 and 3
(garbled MAC vectors, fabricated candidates).

Every distinct wire a run encodes must also decode, with no table, to the
message it was encoded from, with exact types: the catalog sweeps under
both proof schemes and one seed of the flood and contended workloads."""

import pytest

from powerstore import codec, scenarios, simnet
from powerstore.codec import MalformedMessage
from powerstore.core import Candidate, Timestamp
from powerstore.crypto import Polynomial
from test_codec import (
    _filter_wire, _ref_enc_opt_list, _ref_enc_ts, _reference_decode,
    _reference_encode, _verdict)
from test_literal_lc import FLOOD

CONFIGS = {
    "sw-catalog/69": scenarios.pair_for("sw-catalog", 69)[1],
    "sw-catalog/139": scenarios.pair_for("sw-catalog", 139)[1],
    "flood/0": scenarios.pair_for("sw-flood", 0, **FLOOD)[1],
    "mw-catalog/2": scenarios.pair_for("mw-catalog", 2)[1],
    "mw-catalog/3": scenarios.pair_for("mw-catalog", 3)[1],
}
# the benchmark's contended workload: mw-pareto with eight of each client
CONTENDED = dict(writers=8, readers=8, writes=4, reads=4)
ROUND_TRIP_GROUPS = ("sw-catalog/hash", "mw-catalog/hash", "sw-catalog/shamir",
                     "mw-catalog/shamir", "flood", "contended")


def round_trip_configs(group):
    if group == "flood":
        return [scenarios.pair_for("sw-flood", 0, **FLOOD)[1]]
    if group == "contended":
        return [scenarios.pair_for("mw-pareto", 0, **CONTENDED)[1]]
    sweep, pow_name = group.split("/")
    seeds = 10 if pow_name == "shamir" else 28 if sweep == "sw-catalog" else 24
    return [scenarios.pair_for(sweep, seed, pow_name=pow_name)[1]
            for seed in range(seeds)]


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
    that wire back to the message; a tuple key is a list and maps to its
    wire piece; a bytes key decodes, as a whole message or as a list field,
    to exactly its value: a wire to its message, the wire of a non-empty
    list to its tuple of bytes."""
    for key, value in table.items():
        if type(key) in codec._CLASSES:
            assert type(value) is bytes and value == _reference_encode(key)
            assert table[value] is key
        elif type(key) is tuple:
            assert type(value) is bytes and value == _ref_enc_opt_list(key)
        else:
            assert type(key) is bytes
            if type(value) in codec._CLASSES:
                assert_same(_reference_decode(key), value)
            else:
                assert type(value) is tuple and value
                assert_same(_reference_decode(complete_wire(key)).vec, value)


def tokens_of(msg):
    for cand in getattr(msg, "cands", ()):
        yield cand.token
    if msg.kind == codec.REPAIR:
        yield msg.cand.token


def checked_run(config, monkeypatch):
    """Run config with every decode checked; the run's Simulation and the
    messages it decoded."""
    real, decoded = codec.decode, []

    def checking(wire, *rest):
        got = _verdict(lambda w: real(w, *rest), wire)
        assert_same(got, _verdict(real, wire))
        assert_same(got, _verdict(_reference_decode, wire))
        if got is MalformedMessage:
            raise MalformedMessage("as the reference")
        decoded.append(got)
        return got

    sim = simnet.Simulation(config)
    with monkeypatch.context() as patch:
        patch.setattr(codec, "decode", checking)
        sim.run()
    return sim, decoded


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_every_decode_of_a_run_is_the_reference_decode(key, monkeypatch):
    sim, decoded = checked_run(CONFIGS[key], monkeypatch)
    assert decoded
    polys = sum(type(token) is Polynomial
                for msg in decoded for token in tokens_of(msg))
    assert (polys > 0) == key.startswith("sw-catalog")
    assert_table_is_sound(sim._table)


def test_polynomial_token_candidates_share_by_their_bytes():
    # they share inside whole messages, by the message's wire bytes
    sim = simnet.Simulation(CONFIGS["sw-catalog/69"])
    sim.run()
    assert any(type(value) in codec._CLASSES
               and any(type(token) is Polynomial for token in tokens_of(value))
               for key, value in sim._table.items() if type(key) is bytes)


def test_a_candidate_cut_short_by_the_end_of_data_is_not_kept():
    # a 54-byte candidate ending in a vector entry: cut inside that entry,
    # its slice runs past the end of data instead of raising at once
    rec = codec.encode(codec.Filter(0, (Candidate(
        Timestamp(1), None, (b"v" * 30,)),)))[11:]
    assert len(rec) == codec._REC.size
    table = {}
    for cut in range(len(rec)):
        with pytest.raises(MalformedMessage):
            codec.decode(_filter_wire(rec[:cut]), table)
    assert table == {}
    assert_same(codec.decode(_filter_wire(rec), table),
                _reference_decode(_filter_wire(rec)))
    assert [type(value) for value in table.values()] == [tuple]


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
