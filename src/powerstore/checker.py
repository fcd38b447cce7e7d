"""Post-run verdicts: linearizability, proof soundness, round accounting.

All checks work from a finished run's operation history and event log; none
of them peek at live protocol state. Write values are unique and nothing
writes the empty value back, so each read names the write it read from, and
linearizability takes O(n log n) by the zone rule of Gibbons and Korach
(Testing Shared Memories, 1997). A write and the reads of its value form a
cluster, the empty value being a write done at -inf. With f the cluster's
earliest response and s its latest invocation, f < s makes [f, s] a forward
zone, over which the value must stay current; otherwise [s, f] is a backward
zone. A history linearizes iff no read ends before its write begins, no two
forward zones overlap, and no backward zone lies inside a forward one.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import NamedTuple

from .crypto import pow_scheme


class HistoryMalformed(Exception):
    """The history breaks the rules the checker relies on."""


class Verdict(NamedTuple):
    """A check's outcome: false when it failed, as a bare tuple is not."""

    ok: bool
    detail: str = ""

    def __bool__(self):
        return self.ok


def _validate_history(history):
    by_client = {}
    for rec in history:
        by_client.setdefault(rec.client, []).append(rec)
    for cid, recs in by_client.items():
        recs.sort(key=lambda r: r.inv_seq)
        for prev, cur in zip(recs, recs[1:]):
            if prev.res_seq is None:
                raise HistoryMalformed(
                    "client %d invoked past a pending op" % cid)
            if prev.res_seq >= cur.inv_seq:
                raise HistoryMalformed("client %d overlaps itself" % cid)
    values = [rec.value for rec in history if rec.kind == "write"]
    if any(v is None for v in values):
        raise HistoryMalformed("write of the empty value")
    if len(set(values)) != len(values):
        raise HistoryMalformed("duplicate write values break the oracle")


def check_linearizable(history) -> Verdict:
    """Is there an order of the operations that respects real time and has
    every read return the latest written value? Completed operations must
    all take effect; a pending write may take effect at any point after its
    invocation or not at all; a pending read obliges nothing."""
    _validate_history(history)
    writes = {rec.value: rec for rec in history if rec.kind == "write"}
    # value -> [f, s]; a pending write is done at +inf. Comparisons are strict,
    # so ops that meet at one seq stay concurrent.
    zone = {v: [inf if w.res_seq is None else w.res_seq, w.inv_seq]
            for v, w in writes.items()}
    zone[None] = [-inf, -inf]
    for rec in history:
        if rec.kind != "read" or rec.res_seq is None:
            continue
        if rec.value not in zone:
            return Verdict(False, "read by %d returned a never-written value"
                           % rec.client)
        w = writes.get(rec.value)
        if w is not None and rec.res_seq < w.inv_seq:
            return Verdict(False, "read by %d ended before the write by %d "
                           "of its value began" % (rec.client, w.client))
        z = zone[rec.value]
        z[0] = min(z[0], rec.res_seq)
        z[1] = max(z[1], rec.inv_seq)

    def name(v):
        return "the initial value" if v is None else "the write by %d at " \
            "seq %d" % (writes[v].client, writes[v].inv_seq)

    forward = sorted(z + [v] for v, z in zone.items() if z[0] < z[1])
    for (_, s1, v1), (f2, _, v2) in zip(forward, forward[1:]):
        if f2 < s1:
            return Verdict(False, "%s and %s must both be current at seq %d"
                           % (name(v1), name(v2), f2))
    for v, (f, s) in zone.items():
        i = bisect_left(forward, [s]) - 1  # the only zone that can hold s
        if s <= f and i >= 0 and f < forward[i][1]:
            f1, s1, v1 = forward[i]
            return Verdict(False, "%s and its reads fit in seqs %d..%d, where "
                           "%s must stay current" % (name(v), max(f1, 0), s1,
                                                     name(v1)))
    return Verdict(True)


def check_pow_soundness(events, meta) -> Verdict:
    """Every adoption and selection must trace back to t+1 correct stores.

    A server adopting a candidate (any accept event) vouches for its token,
    so the token must verify against t+1 earlier store commitments held by
    distinct correct servers. A reader selection only fixes the timestamp
    (two candidates at one timestamp may differ in token bytes and either
    may win the tiebreak), so it is audited on store count alone.

    Each distinct (token, commitment) pair is verified once per call.
    """
    scheme = pow_scheme(meta["pow"])
    verdicts = {}  # (token, commitment) -> scheme.verify's verdict

    def proves(token, commitment):
        pair = token, commitment
        verdict = verdicts.get(pair)
        if verdict is None:
            verdict = verdicts[pair] = scheme.verify(*pair)
        return verdict

    correct_servers = set(meta["correct_servers"])
    correct_readers = set(meta["correct_readers"])
    t = meta["t"]
    stores = {}  # ts.key() -> [(seq, server, commitment)]
    bad = []
    for ev in events:
        etype = ev["type"]
        if etype == "store" and ev["server"] in correct_servers:
            stores.setdefault(ev["ts"].key(), []).append(
                (ev["seq"], ev["server"], ev["commitment"]))
        elif etype == "accept" and ev.get("server") in correct_servers:
            vouchers = {srv for seq, srv, com in stores.get(ev["ts"].key(), ())
                        if seq < ev["seq"] and proves(ev["token"], com)}
            if len(vouchers) < t + 1:
                bad.append("server %d adopted ts %r via %s on %d proofs"
                           % (ev["server"], ev["ts"].key(), ev["via"],
                              len(vouchers)))
        elif etype == "select" and ev.get("client") in correct_readers:
            vouchers = {srv for seq, srv, _ in stores.get(ev["ts"].key(), ())
                        if seq < ev["seq"]}
            if len(vouchers) < t + 1:
                bad.append("reader %d selected ts %r stored at %d servers"
                           % (ev["client"], ev["ts"].key(), len(vouchers)))
    if bad:
        return Verdict(False, "; ".join(bad[:3]))
    return Verdict(True)


def check_non_skipping(history) -> Verdict:
    """Completed write timestamps stay within the invocation count."""
    invoked = sum(1 for rec in history if rec.kind == "write")
    for rec in history:
        if rec.kind == "write" and rec.res_seq is not None and rec.ts is not None:
            if rec.ts.num > invoked:
                return Verdict(False, "write by %d landed at num %d after "
                               "%d invocations" % (rec.client, rec.ts.num,
                                                   invoked))
    return Verdict(True)


_WRITE_ROUNDS = {"sw": 2, "mw": 3}


def account_rounds(history, mode) -> Verdict:
    """Completed ops must hit their round budget exactly: writes take two
    rounds (three with the clock round), reads two plus one per repair."""
    bad = []
    for rec in history:
        if rec.res_seq is None:
            continue
        if rec.kind == "write":
            want = _WRITE_ROUNDS[mode]
            if rec.rounds != want:
                bad.append("write by %d took %r rounds, wanted %d"
                           % (rec.client, rec.rounds, want))
        else:
            want = 2 + (1 if rec.repair_sent else 0)
            if mode == "sw" and rec.repair_sent:
                bad.append("read by %d repaired in single-writer mode"
                           % rec.client)
            elif rec.rounds != want:
                bad.append("read by %d took %r rounds, wanted %d"
                           % (rec.client, rec.rounds, want))
    if bad:
        return Verdict(False, "; ".join(bad[:3]))
    return Verdict(True)


def verify_run(result) -> dict:
    """All checks against one finished run, keyed by check name."""
    return {
        "linearizable": check_linearizable(result.history),
        "pow_sound": check_pow_soundness(result.events, result.meta),
        "rounds": account_rounds(result.history, result.config.mode),
        "non_skipping": check_non_skipping(result.history),
    }
