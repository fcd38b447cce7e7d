"""Post-run verdicts: linearizability, proof soundness, round accounting.

All checks work from a finished run's operation history and event log; none
of them peek at live protocol state. The linearizability search exploits two
register facts: write values are unique, and nothing ever writes the empty
value back, so matching reads can be applied greedily without branching.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .crypto import pow_scheme


class HistoryMalformed(Exception):
    """The history breaks the rules the checker relies on."""


@dataclass(frozen=True)
class Verdict:
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
    """Search for a linearization: an order of the operations respecting
    real time in which every read returns the latest written value.

    Completed operations must all take effect; a pending write may take
    effect at any point after its invocation or not at all; a pending read
    obliges nothing.
    """
    _validate_history(history)
    ops = [rec for rec in history
           if rec.kind == "write" or rec.res_seq is not None]
    written = {rec.value for rec in ops if rec.kind == "write"}
    for rec in ops:
        if (rec.kind == "read" and rec.value is not None
                and rec.value not in written):
            return Verdict(False, "read by %d returned a never-written value"
                           % rec.client)

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

    if dfs(0, -1):
        return Verdict(True)
    return Verdict(False, "no linearization of %d operations" % n)


def brute_force_linearizable(history) -> Verdict:
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


def check_pow_soundness(events, meta) -> Verdict:
    """Every adoption and selection must trace back to t+1 correct stores.

    A server adopting a candidate (any accept event) vouches for its token,
    so the token must verify against t+1 earlier store commitments held by
    distinct correct servers. A reader selection only fixes the timestamp
    (two candidates at one timestamp may differ in token bytes and either
    may win the tiebreak), so it is audited on store count alone.
    """
    scheme = pow_scheme(meta["pow"])
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
                        if seq < ev["seq"] and scheme.verify(ev["token"], com)}
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
