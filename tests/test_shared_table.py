"""Whole runs decode through the run's table exactly as without it. Every
codec.decode call a run makes, with whatever table it passes, must get the
verdict and the value of a call with no table and of the byte-at-a-time
reference codec, with the exact types a constructed message has: a
Polynomial token stays a Polynomial, and a list a tuple of bytes.

The runs cover both candidate shapes that repeat: sw-catalog seeds 69 and
139 (proof sharing at t=2, 54-byte polynomial-token candidates), the flood
run's long lists of common sw records, and mw-catalog seeds 2 and 3
(garbled MAC vectors, fabricated candidates)."""

import pytest

from powerstore import codec, scenarios, simnet
from powerstore.codec import MalformedMessage
from powerstore.core import Candidate, Timestamp
from powerstore.crypto import Polynomial
from test_codec import (
    _filter_wire, _ref_enc_opt_list, _ref_enc_ts, _reference_decode, _verdict)
from test_literal_lc import FLOOD

CONFIGS = {
    "sw-catalog/69": scenarios.pair_for("sw-catalog", 69)[1],
    "sw-catalog/139": scenarios.pair_for("sw-catalog", 139)[1],
    "flood/0": scenarios.pair_for("sw-flood", 0, **FLOOD)[1],
    "mw-catalog/2": scenarios.pair_for("mw-catalog", 2)[1],
    "mw-catalog/3": scenarios.pair_for("mw-catalog", 3)[1],
}


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
    """Judge each entry by its type: a tuple key is a list and maps to its
    wire piece; a bytes key decodes, as a field of its value's type, to
    exactly that value: a 54-byte candidate to its Candidate, the wire of a
    non-empty list to its tuple of bytes."""
    for key, value in table.items():
        if type(key) is tuple:
            assert type(value) is bytes and value == _ref_enc_opt_list(key)
            continue
        assert type(key) is bytes
        if type(value) is Candidate:
            assert len(key) == codec._REC.size
            assert_same(_reference_decode(_filter_wire(key)).cands, (value,))
        else:
            assert value
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
    sim = simnet.Simulation(CONFIGS["sw-catalog/69"])
    sim.run()
    assert any(len(key) == codec._REC.size and type(value) is Candidate
               and type(value.token) is Polynomial
               for key, value in sim._table.items())


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
    assert [type(value) for value in table.values()] == [tuple, Candidate]
