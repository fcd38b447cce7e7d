"""Checker tests: the zone check agrees with brute force and with a reference
search on long histories, and doctored logs fail."""

import random
from itertools import permutations

import pytest

from powerstore.checker import (
    HistoryMalformed,
    Verdict,
    _validate_history,
    account_rounds,
    check_linearizable,
    check_non_skipping,
    check_pow_soundness,
)
from powerstore.core import OperationRecord, Timestamp
from powerstore.crypto import digest


def rec(client, kind, value, inv, res, rounds=None, repair=False, ts=None):
    return OperationRecord(client=client, kind=kind, value=value, inv_seq=inv,
                           inv_tick=inv, res_seq=res, res_tick=res,
                           rounds=rounds, repair_sent=repair, ts=ts)


# ---------------------------------------------------------------------------
# reference oracle
# ---------------------------------------------------------------------------

def _brute_force_linearizable(history) -> Verdict:
    """Reference oracle: try every permutation. Only sane for tiny runs."""
    _validate_history(history)
    ops = [rec for rec in history
           if rec.kind == "write" or rec.res_seq is not None]
    must = [i for i, rec in enumerate(ops) if rec.res_seq is not None]
    optional = [i for i, rec in enumerate(ops) if rec.res_seq is None]
    if len(ops) > 8:
        raise ValueError("brute force capped at 8 operations")

    def legal(order):
        value = None
        for pos, i in enumerate(order):
            for j in order[pos + 1:]:
                if (ops[j].res_seq is not None
                        and ops[j].res_seq < ops[i].inv_seq):
                    return False
            if ops[i].kind == "write":
                value = ops[i].value
            elif ops[i].value != value:
                return False
        return True

    for bits in range(1 << len(optional)):
        chosen = must + [optional[k] for k in range(len(optional))
                         if bits >> k & 1]
        for order in permutations(chosen):
            if legal(order):
                return Verdict(True)
    return Verdict(False, "no linearization of %d operations" % len(ops))


# ---------------------------------------------------------------------------
# linearizability: hand cases
# ---------------------------------------------------------------------------

def test_sequential_history_linearizable():
    h = [rec(1, "write", b"a", 1, 2), rec(2, "read", b"a", 3, 4),
         rec(1, "write", b"b", 5, 6), rec(2, "read", b"b", 7, 8)]
    assert check_linearizable(h).ok


def test_empty_read_before_any_write():
    h = [rec(2, "read", None, 1, 2), rec(1, "write", b"a", 3, 4)]
    assert check_linearizable(h).ok


def test_stale_read_after_write_completes_rejected():
    # write b finished before the read started, yet the read saw a
    h = [rec(1, "write", b"a", 1, 2), rec(1, "write", b"b", 3, 4),
         rec(2, "read", b"a", 5, 6)]
    assert not check_linearizable(h).ok


def test_concurrent_read_may_see_either_side():
    h = [rec(1, "write", b"a", 1, 2), rec(1, "write", b"b", 4, 7),
         rec(2, "read", b"a", 5, 6)]
    assert check_linearizable(h).ok
    h[2].value = b"b"
    assert check_linearizable(h).ok


def test_empty_after_value_rejected():
    h = [rec(1, "write", b"a", 1, 2), rec(2, "read", None, 3, 4)]
    assert not check_linearizable(h).ok


def test_never_written_value_rejected():
    h = [rec(1, "write", b"a", 1, 2), rec(2, "read", b"zzz", 3, 4)]
    v = check_linearizable(h)
    assert not v.ok and "never-written" in v.detail


def test_pending_write_may_or_may_not_apply():
    h = [rec(1, "write", b"a", 1, None), rec(2, "read", b"a", 2, 3),
         rec(3, "read", None, 4, 5)]
    # read a then read bottom: impossible in either apply choice
    assert not check_linearizable(h).ok
    h2 = [rec(1, "write", b"a", 1, None), rec(2, "read", None, 2, 3),
          rec(3, "read", b"a", 4, 5)]
    assert check_linearizable(h2).ok


def test_reads_must_not_flip_between_old_and_new():
    h = [rec(1, "write", b"a", 1, 2), rec(1, "write", b"b", 3, 10),
         rec(2, "read", b"b", 4, 5), rec(3, "read", b"a", 6, 7)]
    assert not check_linearizable(h).ok


def test_malformed_overlap_same_client():
    h = [rec(1, "write", b"a", 1, 5), rec(1, "write", b"b", 3, 8)]
    with pytest.raises(HistoryMalformed):
        check_linearizable(h)


def test_malformed_duplicate_write_values():
    h = [rec(1, "write", b"a", 1, 2), rec(2, "write", b"a", 3, 4)]
    with pytest.raises(HistoryMalformed):
        check_linearizable(h)


def test_malformed_write_of_empty_value():
    h = [rec(1, "write", None, 1, 2)]
    with pytest.raises(HistoryMalformed):
        check_linearizable(h)


def test_malformed_invoke_past_pending():
    h = [rec(1, "write", b"a", 1, None), rec(1, "write", b"b", 2, 3)]
    with pytest.raises(HistoryMalformed):
        check_linearizable(h)


# one hand case per zone rule; brute force must agree with each verdict

def _zone_verdict(h):
    fast = check_linearizable(h)
    assert fast.ok == _brute_force_linearizable(h).ok, fast
    return fast


def test_overlapping_forward_zones_rejected():
    # a must stay current over seqs 4..6 and b over 5..8
    h = [rec(1, "write", b"a", 1, 4), rec(2, "write", b"b", 2, 5),
         rec(3, "read", b"a", 6, 7), rec(4, "read", b"b", 8, 9)]
    v = _zone_verdict(h)
    assert not v.ok and "must both be current" in v.detail
    # zones that only meet at seq 5 do not overlap: ops meeting at one seq
    # are concurrent
    h = [rec(1, "write", b"a", 1, 2), rec(2, "write", b"b", 3, 5),
         rec(3, "read", b"a", 5, 6), rec(4, "read", b"b", 7, 8)]
    assert _zone_verdict(h).ok


def test_backward_zone_inside_forward_zone_rejected():
    # b is written and read entirely while a must stay current (seqs 2..10)
    h = [rec(1, "write", b"a", 1, 2), rec(2, "write", b"b", 4, 7),
         rec(3, "read", b"b", 5, 6), rec(3, "read", b"a", 10, 11)]
    v = _zone_verdict(h)
    assert not v.ok and "must stay current" in v.detail
    h[3].value = b"b"  # now b's zone is forward and follows a's
    assert _zone_verdict(h).ok
    # a backward zone that only meets the forward zone's end or start
    meets_end = [rec(1, "write", b"a", 1, 2), rec(2, "write", b"b", 3, 6),
                 rec(3, "read", b"a", 6, 7)]
    meets_start = [rec(1, "write", b"a", 1, 3), rec(2, "write", b"b", 3, 5),
                   rec(3, "read", b"a", 6, 7)]
    assert _zone_verdict(meets_end).ok and _zone_verdict(meets_start).ok


def test_read_ending_before_its_write_begins_rejected():
    h = [rec(2, "read", b"a", 1, 2), rec(1, "write", b"a", 3, 4)]
    v = _zone_verdict(h)
    assert not v.ok and "ended before the write by 1" in v.detail
    h[0].res_seq = 3  # meeting at one seq is still concurrent
    assert _zone_verdict(h).ok


def test_read_pending_write_counts_as_completed():
    # a is read, so it took effect and must stay current over seqs 3..6,
    # where b is written
    h = [rec(1, "write", b"a", 1, None), rec(2, "read", b"a", 2, 3),
         rec(3, "write", b"b", 4, 5), rec(2, "read", b"a", 6, 7)]
    assert not _zone_verdict(h).ok
    assert _zone_verdict(h[:3]).ok


def test_unread_pending_write_is_dropped():
    h = [rec(1, "write", b"a", 1, 2), rec(2, "write", b"b", 3, None),
         rec(3, "read", b"a", 5, 6), rec(3, "read", None, 7, None)]
    assert _zone_verdict(h).ok


# ---------------------------------------------------------------------------
# linearizability: randomized agreement with brute force
# ---------------------------------------------------------------------------

def _gen_history(rng, coherent):
    """Random small multi-client history; coherent ones sample an actual
    register at random points, doctored ones invent read values."""
    clients = rng.randint(1, 3)
    total = rng.randint(2, 6)
    seq = 0
    queues = {}
    for _ in range(total):
        cid = rng.randint(1, clients)
        kind = "write" if rng.random() < 0.5 else "read"
        queues.setdefault(cid, []).append(kind)
    history, running, committed = [], {}, {}
    value = None
    pool = [None]
    nvals = 0
    while queues or running:
        if not queues and rng.random() < 0.2:
            break  # leave the rest pending
        choices = [("start", cid) for cid in sorted(queues)
                   if cid not in running]
        choices += [("step", cid) for cid in sorted(running)]
        act, cid = choices[rng.randrange(len(choices))]
        seq += 1
        if act == "start":
            kind = queues[cid].pop(0)
            if not queues[cid]:
                del queues[cid]
            if kind == "write":
                nvals += 1
                v = b"v%d" % nvals
                pool.append(v)
            else:
                v = None
            r = rec(cid, kind, v, seq, None)
            running[cid] = r
            committed[id(r)] = False
            history.append(r)
        else:
            r = running[cid]
            if (r.kind == "write" and not committed[id(r)]
                    and rng.random() < 0.5):
                committed[id(r)] = True
                value = r.value
            elif rng.random() < 0.6:
                if r.kind == "write" and not committed[id(r)]:
                    committed[id(r)] = True
                    value = r.value
                if r.kind == "read":
                    r.value = value if coherent else rng.choice(pool)
                r.res_seq = r.res_tick = seq
                del running[cid]
    return history


def test_search_agrees_with_brute_force():
    rng = random.Random(0xC0FFEE)
    checked = 0
    for trial in range(1500):
        h = _gen_history(rng, coherent=trial % 2 == 0)
        fast = check_linearizable(h)
        slow = _brute_force_linearizable(h)
        assert fast.ok == slow.ok, (trial, fast, slow,
                                    [(r.client, r.kind, r.value, r.inv_seq,
                                      r.res_seq) for r in h])
        if trial % 2 == 0:
            assert fast.ok, "coherent history must linearize"
        checked += 1
    assert checked == 1500


# ---------------------------------------------------------------------------
# linearizability: agreement with a reference search on long histories
# ---------------------------------------------------------------------------

def _search_linearizable(history):
    """Reference: depth-first search for a linearization, memoised on (ops
    applied, last write). Exponential in the number of concurrent writers,
    but exact, and fast enough on histories of a few clients."""
    ops = [rec for rec in history
           if rec.kind == "write" or rec.res_seq is not None]
    written = {rec.value for rec in ops if rec.kind == "write"}
    if any(rec.kind == "read" and rec.value is not None
           and rec.value not in written for rec in ops):
        return False
    n = len(ops)
    need = 0
    preds = [0] * n
    for i in range(n):
        if ops[i].res_seq is not None:
            need |= 1 << i
        for j in range(n):
            if (ops[j].res_seq is not None
                    and ops[j].res_seq < ops[i].inv_seq):
                preds[i] |= 1 << j
    reads = [i for i in range(n) if ops[i].kind == "read"]
    writes = [i for i in range(n) if ops[i].kind == "write"]
    memo = set()

    def dfs(applied, last):
        cur = ops[last].value if last >= 0 else None
        grew = True
        while grew:  # reads that match the register now can never hurt
            grew = False
            for i in reads:
                if (not applied >> i & 1 and preds[i] & ~applied == 0
                        and ops[i].value == cur):
                    applied |= 1 << i
                    grew = True
        if applied & need == need:
            return True
        if (applied, last) in memo:
            return False
        memo.add((applied, last))
        for i in writes:
            if not applied >> i & 1 and preds[i] & ~applied == 0:
                if dfs(applied | 1 << i, i):
                    return True
        return False

    return dfs(0, -1)


def _gen_long_history(rng, coherent, ops=100):
    """`ops` operations from 2-5 clients against a real register: each
    op takes effect at one step between its invocation and its response.
    Some runs end with ops still pending, so a pending write may or may not
    have taken effect. A doctored history changes one completed read to
    another value written shortly before that read ended, to the next value
    written after it, or to empty."""
    clients = rng.randint(2, 5)
    seq, nvals, value = 0, 0, None
    history, running, done = [], {}, set()
    while len(history) < ops or running:
        if len(history) >= ops and rng.random() < 0.05:
            break  # crash: leave the rest pending
        seq += 1
        idle = [c for c in range(1, clients + 1) if c not in running]
        if idle and len(history) < ops and (not running or rng.random() < 0.4):
            cid = rng.choice(idle)
            if rng.random() < 0.5:
                nvals += 1
                r = rec(cid, "write", b"v%d" % nvals, seq, None)
            else:
                r = rec(cid, "read", None, seq, None)
            running[cid] = r
            history.append(r)
            continue
        cid = rng.choice(sorted(running))
        r = running[cid]
        if id(r) not in done:  # the op takes effect
            done.add(id(r))
            if r.kind == "write":
                value = r.value
            else:
                r.value = value
        else:
            r.res_seq = r.res_tick = seq
            del running[cid]
    if not coherent:
        first = min(w.inv_seq for w in history if w.kind == "write")
        r = rng.choice([r for r in history if r.kind == "read"
                        and r.res_seq is not None and r.res_seq > first])
        writes = [w for w in history if w.kind == "write"]
        k = sum(1 for w in writes if w.inv_seq < r.res_seq)
        recent = [None] + [w.value for w in writes[max(0, k - 4):k + 1]]
        r.value = rng.choice([v for v in recent if v != r.value])
    return history


def test_zone_check_agrees_with_search_on_long_histories():
    rng = random.Random(0x5EED)
    verdicts = {True: [0, 0], False: [0, 0]}
    for trial in range(300):
        coherent = trial % 2 == 0
        h = _gen_long_history(rng, coherent)
        fast = check_linearizable(h)
        assert fast.ok == _search_linearizable(h), (
            trial, fast, [(r.client, r.kind, r.value, r.inv_seq, r.res_seq)
                          for r in h])
        verdicts[coherent][fast.ok] += 1
    assert verdicts[True] == [0, 150]
    # the doctored half must exercise both verdicts
    assert min(verdicts[False]) >= 30, verdicts


# ---------------------------------------------------------------------------
# proof soundness over doctored logs
# ---------------------------------------------------------------------------

def _meta(t=1):
    return {"pow": "hash", "t": t, "correct_servers": (1, 2, 3),
            "correct_readers": (201,), "writers": (101,)}


def _store_events(ts, nonce, servers, start_seq=1):
    com = digest(nonce)
    return [{"seq": start_seq + i, "type": "store", "server": sid,
             "ts": ts, "commitment": com}
            for i, sid in enumerate(servers)]


def test_sound_accept_passes():
    ts = Timestamp(1, 0, b"")
    nonce = b"N" * 32
    events = _store_events(ts, nonce, (1, 2, 3))
    events.append({"seq": 9, "type": "accept", "server": 1, "via": "complete",
                   "ts": ts, "token": nonce})
    assert check_pow_soundness(events, _meta()).ok


def test_forged_token_accept_flagged():
    ts = Timestamp(1, 0, b"")
    events = _store_events(ts, b"N" * 32, (1, 2, 3))
    events.append({"seq": 9, "type": "accept", "server": 1, "via": "gc",
                   "ts": ts, "token": b"garbage"})
    v = check_pow_soundness(events, _meta())
    assert not v.ok and "via gc" in v.detail


def test_accept_before_stores_flagged():
    ts = Timestamp(1, 0, b"")
    nonce = b"N" * 32
    events = [{"seq": 1, "type": "accept", "server": 2, "via": "complete",
               "ts": ts, "token": nonce}]
    events += _store_events(ts, nonce, (1, 2, 3), start_seq=2)
    assert not check_pow_soundness(events, _meta()).ok


def test_too_few_correct_stores_flagged():
    ts = Timestamp(1, 0, b"")
    nonce = b"N" * 32
    events = _store_events(ts, nonce, (1,))  # one correct store, t=1
    events.append({"seq": 9, "type": "accept", "server": 3, "via": "complete",
                   "ts": ts, "token": nonce})
    assert not check_pow_soundness(events, _meta()).ok


def test_byzantine_stores_do_not_vouch():
    ts = Timestamp(1, 0, b"")
    nonce = b"N" * 32
    events = _store_events(ts, nonce, (4, 4))  # server 4 is not correct
    events += _store_events(ts, nonce, (1,), start_seq=5)
    events.append({"seq": 9, "type": "accept", "server": 1, "via": "complete",
                   "ts": ts, "token": nonce})
    assert not check_pow_soundness(events, _meta()).ok


def test_select_audited_on_store_count_not_token():
    ts = Timestamp(1, 0, b"")
    events = _store_events(ts, b"N" * 32, (1, 2))
    # a reader may select an equal-timestamp candidate with different token
    # bytes, so its token is not audited, only the backing store count
    events.append({"seq": 9, "type": "select", "client": 201,
                   "ts": ts, "token": b"other"})
    assert check_pow_soundness(events, _meta()).ok
    events[-1] = {"seq": 9, "type": "select", "client": 201,
                  "ts": Timestamp(7, 0, b""), "token": b"other"}
    assert not check_pow_soundness(events, _meta()).ok


def test_accepts_at_one_ts_are_each_judged_by_their_own_token_and_stores():
    """Two accepts at one timestamp with different tokens, against stores
    with different commitments: only the one whose token the stores commit
    to is sound, so no verdict may be reused across tokens or timestamps."""
    ts = Timestamp(1, 0, b"")
    good, other = b"N" * 32, b"M" * 32
    events = _store_events(ts, good, (1, 2))
    events += _store_events(ts, other, (3,), start_seq=3)
    for seq, server, token in ((7, 1, good), (8, 2, other), (9, 3, good)):
        events.append({"seq": seq, "type": "accept", "server": server,
                       "via": "complete", "ts": ts, "token": token})
    v = check_pow_soundness(events, _meta())
    assert v.detail == "server 2 adopted ts (1, 0) via complete on 1 proofs"
    # the same tokens at a second timestamp, whose stores commit to other
    later = Timestamp(2, 0, b"")
    events += _store_events(later, other, (1, 2), start_seq=10)
    events.append({"seq": 20, "type": "accept", "server": 1, "via": "gc",
                   "ts": later, "token": good})
    events.append({"seq": 21, "type": "accept", "server": 3, "via": "gc",
                   "ts": later, "token": other})
    v = check_pow_soundness(events, _meta())
    assert v.detail == ("server 2 adopted ts (1, 0) via complete on 1 proofs; "
                        "server 1 adopted ts (2, 0) via gc on 0 proofs")


def test_byzantine_reader_selects_ignored():
    events = [{"seq": 1, "type": "select", "client": 999,
               "ts": Timestamp(5, 0, b""), "token": b"x"}]
    assert check_pow_soundness(events, _meta()).ok


# ---------------------------------------------------------------------------
# rounds and timestamp accounting
# ---------------------------------------------------------------------------

def test_round_budgets_by_mode():
    ok_sw = [rec(101, "write", b"a", 1, 2, rounds=2),
             rec(201, "read", b"a", 3, 4, rounds=2)]
    assert account_rounds(ok_sw, "sw").ok
    assert not account_rounds(ok_sw, "mw").ok  # mw writes take three
    ok_mw = [rec(101, "write", b"a", 1, 2, rounds=3),
             rec(201, "read", b"a", 3, 4, rounds=2),
             rec(202, "read", b"a", 5, 6, rounds=3, repair=True)]
    assert account_rounds(ok_mw, "mw").ok


def test_unrepaired_three_round_read_flagged():
    h = [rec(201, "read", None, 1, 2, rounds=3)]
    assert not account_rounds(h, "mw").ok


def test_repair_in_single_writer_mode_flagged():
    h = [rec(201, "read", None, 1, 2, rounds=3, repair=True)]
    assert not account_rounds(h, "sw").ok


def test_pending_ops_exempt_from_round_budget():
    h = [rec(101, "write", b"a", 1, None, rounds=1)]
    assert account_rounds(h, "sw").ok


def test_non_skipping_bounds_completed_writes():
    good = [rec(101, "write", b"a", 1, 2, ts=Timestamp(1, 101, b"")),
            rec(102, "write", b"b", 3, 4, ts=Timestamp(2, 102, b""))]
    assert check_non_skipping(good).ok
    bad = good + [rec(101, "write", b"c", 5, 6, ts=Timestamp(1 << 40, 101, b""))]
    assert not check_non_skipping(bad).ok


def test_verdict_truthiness():
    assert Verdict(True) and not Verdict(False, "x")
