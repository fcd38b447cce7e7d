"""Optional-list decoding on the lists runs really send: the cross-checksums
and MAC vectors of multi-writer STORE, COMPLETE, FILTER_ACK and REPAIR
messages and of every mw candidate. Every such wire a run decodes, hostile
ones included, must get the verdict the byte-at-a-time reference codec
gives, and an accepted one the exact types a constructed message has: a
tuple list of bytes entries.

A run encodes and decodes through one table, so a list met before reuses
its wire piece or its decoded tuple, and a wire the run encoded decodes to
its message. The table must never change a verdict or an output, must
never return a list's bytes as a message or a message's as a list, and
lives exactly as long as its run."""

import pytest

from powerstore import codec, scenarios, simnet
from powerstore.codec import MalformedMessage
from powerstore.core import Candidate, Timestamp
from test_codec import (
    _filter_wire, _list_messages, _mutation_corpus, _ref_enc_opt_list,
    _reference_decode, _verdict)
from test_shared_decode import _Forgetful
from test_shared_records import record_of
from test_shared_table import assert_same, assert_table_is_sound, complete_wire

LIST_KINDS = frozenset((codec.STORE, codec.COMPLETE, codec.FILTER_ACK,
                        codec.REPAIR, codec.COLLECT_ACK, codec.FILTER))
# mw-catalog members: 2, 14, 158 and 194 garble vectors (corrupt_vec; 14
# and 194 at t=2, 158 and 194 with repair rounds), 3 and 27 fabricate
# candidates, 7 and 19 send garbage filter sets (19 at t=2), 0 is fault
# free and 11 writes under the proof-sharing scheme
GUARD_SEEDS = (0, 2, 3, 7, 11, 14, 19, 27, 158, 194)


def list_wires(seed, monkeypatch):
    """Every wire of a list-carrying kind that mw-catalog run `seed`
    decodes, raw adversary bytes included, in delivery order."""
    wires = []
    real = codec.decode

    def recording(wire, *rest):
        if wire[:1] and wire[0] in LIST_KINDS:
            wires.append(wire)
        return real(wire, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(codec, "decode", recording)
        simnet.run(scenarios.pair_for("mw-catalog", seed)[1])
    return wires


def lists_of(msg):
    """Every optional-list field of msg, candidates' vectors included."""
    for name in ("cc", "vec"):
        if name in msg._fields:
            yield getattr(msg, name)
    for cand in getattr(msg, "cands", ()):
        yield cand.vec
    if msg.kind == codec.REPAIR:
        yield msg.cand.vec


def assert_constructed_lists(msg):
    for entries in lists_of(msg):
        assert entries is None or type(entries) is tuple
        assert all(type(e) is bytes for e in entries or ())


@pytest.mark.parametrize("seed", GUARD_SEEDS)
def test_run_lists_decode_as_the_reference_decodes_them(seed, monkeypatch):
    wires = list_wires(seed, monkeypatch)
    assert {wire[0] for wire in wires} >= {
        codec.STORE, codec.COMPLETE, codec.FILTER_ACK, codec.COLLECT_ACK}
    for wire in wires:
        want = _verdict(_reference_decode, wire)
        got = _verdict(codec.decode, wire)
        assert got == want, wire
        if got is not MalformedMessage:
            assert_constructed_lists(got)
    # a run decodes its wires in order through one table
    table = {}
    for wire in wires:
        got = _verdict(lambda w: codec.decode(w, table), wire)
        assert got == _verdict(_reference_decode, wire), wire
        if got is not MalformedMessage:
            assert_constructed_lists(got)
    assert sum(type(key) is bytes for key in table) > 0
    assert_table_is_sound(table)


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


def test_damaged_lists_get_the_reference_verdict():
    blobs = [codec.encode(msg) for msg in _list_messages()]
    blobs += _mutation_corpus(0x11575, 5000)
    for lst in _widths_and_counts_flipped():
        blobs += [complete_wire(lst), complete_wire(lst + b"\x00"),
                  complete_wire(lst[:-1])]
    accepted, lists = 0, {}

    def shared(blob):
        return codec.decode(blob, lists)

    for blob in blobs:
        want = _verdict(_reference_decode, blob)
        for decode in (codec.decode, shared, shared):  # the last one hits
            got = _verdict(decode, blob)
            assert got == want, blob
            if got is not MalformedMessage:
                assert_constructed_lists(got)
        accepted += want is not MalformedMessage
    assert 0 < accepted < len(blobs)
    assert_table_is_sound(lists)


# a common sw record whose num begins with a one-entry list's flag, count
# and width (49), so its 54 bytes are also the wire of that list
SHAPED = record_of(Candidate(
    Timestamp(int.from_bytes(b"\x01\x00\x01\x00\x31abc", "big"), 5),
    b"\x42" * 32))


@pytest.mark.parametrize("list_first", [False, True])
def test_a_list_shaped_like_a_record_decodes_as_a_list(list_first):
    table = {}
    wires = [_filter_wire(SHAPED), complete_wire(SHAPED)]
    for wire in wires[::-1] if list_first else wires:
        codec.decode(wire, table)
    for _ in range(2):
        record = codec.decode(_filter_wire(SHAPED), table)
        assert_same(record, _reference_decode(_filter_wire(SHAPED)))
        msg = codec.decode(complete_wire(SHAPED), table)
        assert_same(msg, _reference_decode(complete_wire(SHAPED)))
        assert msg.vec == (SHAPED[5:],) and type(msg.vec[0]) is bytes


def test_a_list_kept_by_its_bytes_never_decodes_as_a_message():
    # a list's bytes begin with its presence flag, the STORE kind byte
    table = {}
    for entries in [(b"x",), (b"a" * 32, b"b" * 32)]:
        lst = _ref_enc_opt_list(entries)
        assert codec.decode(complete_wire(lst), table).vec == entries
        assert table[lst] == entries
        for _ in range(2):
            assert _verdict(lambda w: codec.decode(w, table), lst) is (
                _verdict(_reference_decode, lst)) is MalformedMessage


def test_a_shared_table_shares_each_list_and_no_table_keeps_nothing():
    vec, cc = (b"v" * 32,) * 4, (b"c" * 32, b"d" * 32)
    ts, token = Timestamp(2, 101, b"tag"), b"n" * 32
    first = codec.FilterAck(1, ts, None, cc, vec)
    second = codec.Repair(2, Candidate(ts, token, vec))
    lists = {}
    wires = [codec.encode(m, lists) for m in (first, second)]
    assert wires == [codec.encode(m) for m in (first, second)]
    assert {key for key in lists if type(key) is tuple} == {vec, cc}
    assert_table_is_sound(lists)
    lists = {}  # as for wires the run did not encode
    one, two = (codec.decode(w, lists) for w in wires)
    assert (one, two) == (first, second)
    assert one.vec is two.cand.vec
    assert set(lists.values()) == {vec, cc}
    assert_table_is_sound(lists)
    one, two = (codec.decode(w) for w in wires)
    assert one.vec == two.cand.vec and one.vec is not two.cand.vec


@pytest.mark.parametrize("msg", [
    codec.Complete(Timestamp(1), b"n", (b"x" * 0x10000,)),
    codec.Complete(Timestamp(1), b"n", (b"x",) * 0x10000),
], ids=["65536-byte-entry", "65536-entries"])
def test_a_list_too_wide_for_the_wire_raises_and_is_not_kept(msg):
    lists = {}
    for _ in range(2):
        with pytest.raises(MalformedMessage):
            codec.encode(msg, lists)
        assert lists == {}


def outputs(config, lists=None):
    sim = simnet.Simulation(config)
    assert sim._table == {}
    if lists is not None:
        sim._table = lists
    res = sim.run()
    return res.log_digest(), res.history_signature(), dict(res.metrics)


@pytest.mark.parametrize("seed", GUARD_SEEDS)
def test_the_table_gives_the_outputs_of_coding_every_list(seed):
    config = scenarios.pair_for("mw-catalog", seed)[1]
    assert outputs(config, _Forgetful()) == outputs(config)


def test_the_table_lives_for_one_run():
    config = scenarios.pair_for("mw-catalog", 2)[1]
    sim = simnet.Simulation(config)
    sim.run()
    assert {tuple, bytes} <= {type(key) for key in sim._table}
    assert_table_is_sound(sim._table)
    assert simnet.Simulation(config)._table == {}
