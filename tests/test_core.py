"""Candidate predicate tests: validity, safety, invalid, highcand."""

import itertools
import json
import random

import pytest

from powerstore import codec
from powerstore.core import (
    C0,
    TS0,
    Candidate,
    Timestamp,
    checked_reply,
    highcand,
    invalid,
    invalid_bound,
    safe_witness,
    token_canonical,
    valid_by_hist,
    valid_mw,
)
from powerstore.crypto import (
    HASH_POW,
    KeyRing,
    Polynomial,
    digest,
    make_vec,
    pow_scheme,
)
from powerstore.erasure import cross_checksum, encode, fragment_to_bytes
from powerstore.simnet import event_to_json

T = 1
S = 3 * T + 1


def test_timestamp_order_is_lexicographic_on_num_pid():
    pts = [Timestamp(n, p, tag) for n in range(3) for p in range(3)
           for tag in (b"", b"x")]
    for a, b in itertools.product(pts, repeat=2):
        assert (a < b) == (a.key() < b.key())
        assert (a <= b) == (a.key() <= b.key())
        assert (a > b) == (a.key() > b.key())


def test_tag_never_breaks_ties():
    a = Timestamp(4, 2, b"mac-one")
    b = Timestamp(4, 2, b"mac-two")
    assert not a < b and not b < a
    assert a.key() == b.key()


def test_ts0_is_minimum():
    assert all(TS0 <= Timestamp(n, p) for n in range(3) for p in range(3))
    assert C0.ts.key() == TS0.key() and C0.token is None


def test_candidate_sort_key_orders_equal_ts_deterministically():
    ts = Timestamp(7, 1, b"t")
    cands = [Candidate(ts, bytes([i]) * 4) for i in (3, 1, 2)]
    cands.append(Candidate(Timestamp(6, 9), b"low"))
    by_key = sorted(cands, key=lambda c: c.sort_key())
    assert by_key[0].ts.num == 6
    assert [c.token for c in by_key[1:]] == [b"\x01" * 4, b"\x02" * 4, b"\x03" * 4]
    # distinct-token candidates at one timestamp coexist in a set
    assert len({Candidate(ts, b"a"), Candidate(ts, b"b")}) == 2


def _nested_sort_key(c):
    """The candidate order before the key was flattened, kept as a reference:
    it ties on candidates that differ only in their tag, or in an absent
    against an empty vector."""
    return (c.ts.key(), token_canonical(c.token),
            c.vec if c.vec is not None else ())


def _random_candidates(rng, n):
    tokens = (None, b"", b"a", b"ab", b"b", Polynomial((1, 2), 7),
              Polynomial((1,), 7), Polynomial((2, 1), 11))
    vecs = (None, (), (b"v1",), (b"v1", b"v2"), (b"v2",))
    tags = (b"", b"\x00", b"\x01", b"tag")
    return [Candidate(Timestamp(rng.randrange(3), rng.randrange(2),
                                rng.choice(tags)),
                      rng.choice(tokens), rng.choice(vecs))
            for _ in range(n)]


def test_sort_key_keeps_the_nested_order_and_is_total():
    rng = random.Random(7)
    cands = sorted(set(_random_candidates(rng, 600)), key=repr)
    keys = [(c.sort_key(), _nested_sort_key(c)) for c in cands]
    for (new_a, old_a), (new_b, old_b) in itertools.combinations(keys, 2):
        assert new_a != new_b  # distinct candidates never tie
        if old_a != old_b:
            assert (new_a < new_b) == (old_a < old_b)
    for _ in range(50):
        sample = rng.sample(cands, 12)
        if len({_nested_sort_key(c) for c in sample}) == len(sample):
            assert (sorted(sample, key=Candidate.sort_key)
                    == sorted(sample, key=_nested_sort_key))


@pytest.mark.parametrize("twins", [
    [Candidate(Timestamp(3, 1, bytes([i])), b"tok") for i in (2, 0, 3, 1)],
    [Candidate(Timestamp(3, 1), b"tok", vec) for vec in (None, ())],
], ids=["tag", "vec"])
def test_twins_sort_to_one_order_whatever_order_they_come_in(twins):
    assert len({_nested_sort_key(c) for c in twins}) == 1  # the old key tied
    perms = list(itertools.permutations(twins))
    assert len({tuple(sorted(p, key=Candidate.sort_key)) for p in perms}) == 1
    assert len({max(p, key=Candidate.sort_key) for p in perms}) == 1


def test_candidates_have_no_order():
    a, b = Candidate(Timestamp(1), b"a"), Candidate(Timestamp(2), b"b")
    for compare in (lambda: a < b, lambda: a <= b, lambda: a > b,
                    lambda: a >= b, lambda: (0,) < a, lambda: max([a, b])):
        with pytest.raises(TypeError):
            compare()


def test_hashes_are_those_of_the_field_tuples():
    # set iteration order, and with it every schedule, rests on these values
    ts = Timestamp(7, 3, b"tag")
    assert hash(ts) == hash((7, 3, b"tag"))
    cand = Candidate(ts, b"tok", (b"v1", b"v2"))
    assert hash(cand) == hash((ts, b"tok", (b"v1", b"v2")))
    assert hash(Candidate(ts)) == hash((ts, None, None))


def test_logs_render_timestamps_as_objects():
    ts = Timestamp(7, 3, b"\x01")
    ev = json.loads(event_to_json({"ts": ts, "stamps": (ts,)}))
    assert ev["ts"] == {"num": 7, "pid": 3, "tag": "0x01"}
    assert ev["stamps"] == [ev["ts"]]


def test_valid_sw_accepts_committed_token():
    nonce = b"\x11" * 32
    ts = Timestamp(3)
    hist = {ts.key(): codec.Store(ts, b"fr", (b"c",), digest(nonce))}
    assert valid_by_hist(Candidate(ts, nonce), hist)
    assert not valid_by_hist(Candidate(ts, b"\x22" * 32), hist)
    assert not valid_by_hist(Candidate(Timestamp(4), nonce), hist)
    assert not valid_by_hist(Candidate(ts, None), hist)


def test_valid_sw_shamir_share_commitment():
    scheme = pow_scheme("shamir")
    poly, shares = scheme.mint(random.Random(5), t=2, s=7)
    hist = {Timestamp(1).key(): codec.Store(Timestamp(1), b"fr", (b"c",),
                                            shares[3])}
    assert valid_by_hist(Candidate(Timestamp(1), poly), hist, scheme)
    bad_poly, _ = scheme.mint(random.Random(6), t=2, s=7)
    assert not valid_by_hist(Candidate(Timestamp(1), bad_poly), hist, scheme)
    # a nonce token against a share commitment is simply rejected
    assert not valid_by_hist(Candidate(Timestamp(1), b"\x00" * 32), hist, scheme)


def test_valid_mw_history_branch_and_mac_branch():
    ring = KeyRing.generate(S, random.Random(9))
    nonce = b"\x07" * 32
    ts = Timestamp(2, 5, b"tag")
    vec = make_vec(ring, ts.num, ts.pid, digest(nonce))
    cand = Candidate(ts, nonce, vec)
    hist = {ts.key(): codec.Store(ts, b"fr", (b"c",), digest(nonce))}

    for sid in range(1, S + 1):
        assert valid_mw(cand, hist, sid, ring.key_for(sid))
        assert valid_mw(cand, {}, sid, ring.key_for(sid))  # MAC branch alone

    # vec entries are bound to the server slot
    assert not valid_mw(cand, {}, 2, ring.key_for(1))
    swapped = Candidate(ts, nonce, (vec[1], vec[0]) + vec[2:])
    assert not valid_mw(swapped, {}, 1, ring.key_for(1))
    assert valid_mw(swapped, hist, 1, ring.key_for(1))  # history still vouches


def test_valid_mw_rejects_short_or_garbage_vec():
    ring = KeyRing.generate(S, random.Random(10))
    nonce = b"\x08" * 32
    ts = Timestamp(6, 1, b"")
    good = make_vec(ring, ts.num, ts.pid, digest(nonce))
    assert not valid_mw(Candidate(ts, nonce, None), {}, 1, ring.key_for(1))
    assert not valid_mw(Candidate(ts, nonce, good[:2]), {}, 4, ring.key_for(4))
    garbage = (None,) * S
    assert not valid_mw(Candidate(ts, nonce, garbage), {}, 1, ring.key_for(1))
    assert not valid_mw(Candidate(ts, None, good), {}, 1, ring.key_for(1))


def _coded(value, s=S):
    """A value's fragments for s servers and their cross-checksum."""
    frs = encode(value, (s - 1) // 3 + 1, s)
    return frs, cross_checksum(frs)


def _reply(ts, coded, sid, vec=None, ok=True):
    """Server sid's checked FILTER_ACK at ts under coded's cross-checksum,
    with its own fragment or (ok=False) a fragment that fails its slot."""
    frs, cc = coded
    fr = frs[sid - 1] if ok else frs[sid % len(frs)]
    return checked_reply(sid, codec.FilterAck(1, ts, fr, cc, vec))


def _at(ts):
    """A FILTER_ACK that carries only a timestamp."""
    return codec.FilterAck(1, ts, None, None, None)


def test_checked_reply_keeps_a_fragment_that_matches_its_slot():
    coded = _coded(b"value")
    ack = codec.FilterAck(1, Timestamp(3), coded[0][1], coded[1], None)
    assert checked_reply(2, ack) is ack


@pytest.mark.parametrize("sid, cc", [(3, "full"), (2, "short"), (2, None)],
                         ids=["wrong-slot", "short-cc", "no-cc"])
def test_checked_reply_drops_a_fragment_it_cannot_check(sid, cc):
    frs, full = _coded(b"value")
    cc = {"full": full, "short": full[:1]}.get(cc)
    ack = codec.FilterAck(1, Timestamp(3), frs[1], cc, (b"v",) * S)
    assert checked_reply(sid, ack) == ack._replace(fr=None)


def test_checked_reply_leaves_a_reply_without_fragment_unchanged():
    ack = codec.FilterAck(1, Timestamp(3), None, _coded(b"value")[1], None)
    assert checked_reply(1, ack) is ack


def _safe(candidate, replies, t):
    """The reader's safe predicate: t+1 servers witness the candidate."""
    return safe_witness(candidate, replies, t) is not None


def test_safe_quorum_example():
    ts5, ts3 = Timestamp(5), Timestamp(3)
    coded, other = _coded(b"f"), _coded(b"g")
    replies = {
        1: _reply(ts5, coded, 1),
        2: _reply(ts5, coded, 2),
        3: _reply(ts3, other, 3),
        4: _reply(ts3, other, 4),
    }
    cand = Candidate(ts5, b"n")
    assert _safe(cand, replies, t=1)
    ids, got_cc, got_vec = safe_witness(cand, replies, t=1)
    assert ids == (1, 2) and got_cc == coded[1] and got_vec is None
    # the lower candidate is also safe for its own pair of responders
    assert _safe(Candidate(ts3, b"m"), replies, t=1)


def test_safe_needs_t_plus_one_and_own_slot_hash():
    ts = Timestamp(5)
    coded = _coded(b"f")
    replies = {1: _reply(ts, coded, 1), 2: _reply(ts, coded, 2, ok=False)}
    assert not _safe(Candidate(ts, b"n"), replies, t=1)
    replies[3] = _reply(ts, coded, 3)
    assert _safe(Candidate(ts, b"n"), replies, t=1)
    assert safe_witness(Candidate(ts, b"n"), replies, t=1)[0] == (1, 3)


def test_safe_groups_split_on_cc_and_vec_disagreement():
    ts = Timestamp(4, 2)
    coded_a, coded_b = _coded(b"a"), _coded(b"b")
    replies = {1: _reply(ts, coded_a, 1), 2: _reply(ts, coded_b, 2)}
    assert not _safe(Candidate(ts), replies, t=1)
    vec_x, vec_y = (b"x",) * S, (b"y",) * S
    replies = {1: _reply(ts, coded_a, 1, vec=vec_x),
               2: _reply(ts, coded_a, 2, vec=vec_y)}
    assert not _safe(Candidate(ts), replies, t=1)
    replies[3] = _reply(ts, coded_a, 3, vec=vec_x)
    assert safe_witness(Candidate(ts), replies, t=1) == (
        (1, 3), coded_a[1], vec_x)


def test_safe_ignores_missing_fragment_or_short_cc():
    ts = Timestamp(2)
    frs, cc = coded = _coded(b"f")
    replies = {
        1: checked_reply(1, codec.FilterAck(1, ts, None, cc, None)),
        2: checked_reply(2, codec.FilterAck(1, ts, frs[1], cc[:1], None)),
        3: _reply(ts, coded, 3),
    }
    assert not _safe(Candidate(ts), replies, t=1)


def _brute_safe(cand, replies, t):
    ids = sorted(replies)
    for r in range(t + 1, len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            reps = [replies[i] for i in sub]
            if any(rep.ts.key() != cand.ts.key() for rep in reps):
                continue
            if any(rep.fr is None or rep.cc is None for rep in reps):
                continue
            if len({rep.cc for rep in reps}) != 1:
                continue
            if len({rep.vec for rep in reps}) != 1:
                continue
            if any(len(rep.cc) < i or
                   digest(fragment_to_bytes(rep.fr)) != rep.cc[i - 1]
                   for i, rep in zip(sub, reps)):
                continue
            return True
    return False


def test_safe_matches_subset_enumeration_oracle():
    rng = random.Random(0xC0FFEE)
    coded_pool = [_coded(b"value %d" % j, 7) for j in range(2)]
    # draws lean towards one write, so both outcomes are common
    ts_pool = [Timestamp(1)] * 3 + [Timestamp(1, 1)]
    vec_pool = [None] * 3 + [(b"v1",) * 7]
    outcomes = set()
    for trial in range(400):
        t = rng.choice([1, 2])
        s = 3 * t + 1
        replies = {}
        for sid in range(1, s + 1):
            if rng.random() < 0.15:
                continue  # silent server
            ts = rng.choice(ts_pool)
            j = rng.choice([0, 0, 0, 1])
            cc = rng.choice([coded_pool[j][1]] * 5 + [None])
            vec = rng.choice(vec_pool)
            # a fragment of another value fails its slot of this cc
            own = j if rng.random() < 0.8 else (j + 1) % len(coded_pool)
            fr = None if rng.random() < 0.1 else coded_pool[own][0][sid - 1]
            if cc is not None and rng.random() < 0.1:
                cc = cc[: rng.randrange(len(cc))]
            replies[sid] = checked_reply(sid, codec.FilterAck(1, ts, fr, cc, vec))
        cand = Candidate(rng.choice([Timestamp(1), Timestamp(1, 1)]), b"n")
        expect = _brute_safe(cand, replies, t)
        assert _safe(cand, replies, t) == expect, "trial %d diverged" % trial
        outcomes.add(expect)
    assert outcomes == {False, True}


def test_invalid_counts_strictly_lower_timestamps():
    cand = Candidate(Timestamp(5), b"n")
    low, high = _at(Timestamp(1)), _at(Timestamp(9))
    eq = _at(Timestamp(5))
    replies = {1: low, 2: low, 3: low, 4: high}
    assert invalid(cand, replies, s=S, t=T)  # 3 >= S - t
    replies[3] = eq
    assert not invalid(cand, replies, s=S, t=T)


def _invalid_by_count(candidate, replies, s, t):
    """The paper's invalid predicate, counted reply by reply."""
    low = sum(1 for rep in replies.values() if rep.ts < candidate.ts)
    return low >= s - t


def _random_replies(rng, s, fill):
    """A reply table over s servers with each present with probability fill;
    timestamps come from a small range, so ties (and equal keys with other
    tags) are common."""
    return {sid: _at(Timestamp(rng.randrange(4), rng.randrange(2),
                               rng.choice([b"", b"x"])))
            for sid in range(1, s + 1) if rng.random() < fill}


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_invalid_and_its_bound_agree_with_counting(t):
    rng = random.Random(0xB0D + t)
    s = 3 * t + 1
    cands = [Candidate(Timestamp(num, pid, tag), b"n")
             for num in range(5) for pid in range(2) for tag in (b"", b"y")]
    seen_short = seen_full = 0
    for _ in range(300):
        replies = _random_replies(rng, s, rng.choice([0.3, 0.7, 1.0]))
        bound = invalid_bound(replies, s, t)
        short = len(replies) < s - t
        seen_short += short
        seen_full += not short
        assert (bound is None) == short
        if bound is not None:
            assert bound == sorted(r.ts.key() for r in replies.values())[s - t - 1]
        for c in cands:
            expect = _invalid_by_count(c, replies, s, t)
            assert invalid(c, replies, s, t) == expect
            assert (bound is not None and c.ts.key() > bound) == expect
    assert seen_short and seen_full


def test_invalid_bound_with_tied_timestamps():
    tied = {sid: _at(Timestamp(3, 0, b"t%d" % sid))
            for sid in range(1, S + 1)}
    assert invalid_bound(tied, S, T) == (3, 0)
    assert not invalid(Candidate(Timestamp(3, 0, b"other")), tied, S, T)
    assert invalid(Candidate(Timestamp(3, 1)), tied, S, T)
    assert invalid_bound({1: tied[1], 2: tied[2]}, S, T) is None


def test_top_key_selection_equals_highcand_filtering():
    rng = random.Random(0x70C)
    for _ in range(300):
        cset = {Candidate(Timestamp(rng.randrange(5), rng.randrange(3),
                                    rng.choice([b"", b"z"])),
                          rng.choice([b"a", b"b"]))
                for _ in range(rng.randrange(1, 12))}
        top = max(c.ts.key() for c in cset)
        assert ({c for c in cset if c.ts.key() == top}
                == {c for c in cset if highcand(c, cset)})


def test_highcand_is_maximal_timestamp():
    cset = [Candidate(Timestamp(3), b"a"), Candidate(Timestamp(5), b"b"),
            Candidate(Timestamp(5, 0, b"other"), b"c")]
    assert highcand(cset[1], cset)
    assert highcand(cset[2], cset)  # equal keys tie
    assert not highcand(cset[0], cset)
    assert highcand(C0, [])
