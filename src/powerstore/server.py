"""Server replicas: strictly reactive handlers over (lc, LC, Hist).

A server never contacts another server and never originates a message; every
handler returns at most one reply for the requesting client. Byzantine
servers are behaviors.py's mixins, layered over these classes.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from . import codec
from .core import C0, Candidate, valid_by_hist, valid_mw
from .crypto import HASH_POW

# role a correct server demands for each request kind
ROLE_FOR_KIND = {
    codec.STORE: "writer",
    codec.COMPLETE: "writer",
    codec.CLOCK: "writer",
    codec.COLLECT: "reader",
    codec.FILTER: "reader",
    codec.REPAIR: "reader",
}


class ServerBase:
    """State and the store/complete handlers shared by both modes."""

    mode = None
    kinds = ()  # the request kinds this mode serves

    def __init__(self, sid, s, t, scheme=HASH_POW, keyring=None, tracer=None):
        self.sid = sid
        self.s = s
        self.t = t
        self.scheme = scheme
        self.keyring = keyring
        self.tracer = tracer
        # kind -> (the role it must come from, its handler), bound here so a
        # mixin's handler, layered over this class, is the one dispatched
        self._handlers = {kind: (ROLE_FOR_KIND[kind],
                                 getattr(self, codec.HANDLER_NAMES[kind]))
                          for kind in self.kinds}
        self.reset()

    def reset(self):
        """Forget lc, LC and the history, as a restarted replica would."""
        self.lc = C0
        self.lc_set = set()  # LC, sw only: SwServer's handlers alone change it
        self.hist = {}  # ts.key() -> the STORE that wrote it
        self._verdicts = {}  # candidate -> valid_by_hist, once its key is held

    def trace(self, etype, **fields):
        if self.tracer is not None:
            self.tracer(etype, server=self.sid, **fields)

    def handle(self, msg, role):
        """Answer one request through the handler table built at
        construction; None means the message was dropped, being of a kind
        this mode does not serve or from a role its kind does not come from.
        Mutants and byzantine behaviors override handlers, never this
        method, so it gates every server."""
        entry = self._handlers.get(msg.kind)
        if entry is None or entry[0] != role:
            return None
        return entry[1](msg)

    def _accept(self, cand, via):
        self.lc = cand
        self.trace("accept", via=via, ts=cand.ts, token=cand.token)

    def _hist_valid(self, cand):
        """valid_by_hist against this server's history, judged once per
        candidate. A verdict is kept only once the candidate's key is held,
        since until then its STORE can still arrive; a STORE that replaces
        a held entry drops every verdict kept."""
        verdict = self._verdicts.get(cand)
        if verdict is None:
            verdict = valid_by_hist(cand, self.hist, self.scheme)
            if cand.ts.key() in self.hist:
                self._verdicts[cand] = verdict
        return verdict

    def _on_store(self, msg):
        key = msg.ts.key()
        if key in self.hist:
            self._verdicts = {}
        self.hist[key] = msg
        self.trace("store", ts=msg.ts, commitment=msg.commitment)
        return codec.StoreAck(msg.ts)

    def _on_complete(self, msg):
        # a single-writer COMPLETE carries no vector, so vec is None there
        if msg.ts > self.lc.ts:
            self._accept(Candidate(msg.ts, msg.token, msg.vec), "complete")
        return codec.CompleteAck(msg.ts)

    def _filter_ack(self, msg, valids):
        """The FILTER_ACK for the highest valid candidate (C0 if none), with
        what this server stored for its timestamp."""
        c_hv = max(valids, key=Candidate.sort_key) if valids else C0
        entry = self.hist.get(c_hv.ts.key())
        if entry is None:
            return codec.FilterAck(msg.tsr, c_hv.ts, None, None, None)
        return codec.FilterAck(msg.tsr, c_hv.ts, entry.fr, entry.cc, entry.vec)

    def snapshot(self):
        return {
            "lc_ts": self.lc.ts.key(),
            "lc_set_size": len(self.lc_set),
            "hist_len": len(self.hist),
            "hist_bytes": sum(len(codec.encode(entry))
                              for entry in self.hist.values()),
        }


class SwServer(ServerBase):
    """Single-writer replica: collect serves LC united with lc, filter serves
    the highest history-valid candidate of the submitted set, each judged
    once however many filters and collects meet it (_hist_valid).

    A collect sorts and scans only what changed since the last one. Beside
    lc_set, LC's members are kept as sorted (sort_key, cand) pairs. Sort keys
    begin with (num, pid) and never tie, so the members at one timestamp,
    and those at or below lc, are contiguous. After a gc no member is stored
    or at or below lc, so the next gc need only look at the members at
    history keys that gained a member or an entry since, and at the low
    prefix of the pairs."""

    mode = "sw"
    kinds = (codec.STORE, codec.COMPLETE, codec.COLLECT, codec.FILTER)

    def reset(self):
        super().reset()
        self._pairs = []  # LC's members, sorted
        self._new_keys = set()  # stored keys that gained a member or entry

    def _valid(self, cand):
        return self._hist_valid(cand)

    def _valids(self, cands):
        # no hist entry, no valid_by_hist: most of a flooded LC was never
        # stored; c.ts[:2] is c.ts.key() inlined
        return [c for c in cands if c.ts[:2] in self.hist and self._valid(c)]

    def _on_store(self, msg):
        self._new_keys.add(msg.ts.key())
        return super()._on_store(msg)

    def gc(self):
        """Accept the highest valid stored member if it beats lc, then drop
        every stored member and every member at or below lc."""
        pairs, stored = self._pairs, []
        for num, pid in self._new_keys:  # no other key holds a stored member
            lo = bisect_left(pairs, ((num, pid),))
            hi = bisect_left(pairs, ((num, pid + 1),), lo)
            stored += pairs[lo:hi]
            del pairs[lo:hi]
        self._new_keys = set()
        valids = [p for p in stored if self._valid(p[1])]
        if valids:
            c_hv = max(valids)[1]
            if c_hv.ts > self.lc.ts:
                self._accept(c_hv, "gc")
        num, pid = self.lc.ts.key()
        low = bisect_left(pairs, ((num, pid + 1),))
        stored += pairs[:low]
        del pairs[:low]
        self.lc_set.difference_update([c for _, c in stored])

    def _on_collect(self, msg):
        self.gc()  # leaves no member at or below lc, so lc sorts first
        members = [c for _, c in self._pairs]
        return codec.CollectAck(msg.tsr, (self.lc, *members))

    def _on_filter(self, msg):
        cands, lc_set, hist = msg.cands, self.lc_set, self.hist
        if not lc_set.issuperset(cands):  # metadata write-back
            for c in cands:
                if c not in lc_set:
                    lc_set.add(c)
                    insort(self._pairs, (c.sort_key(), c))
                    key = c.ts[:2]  # c.ts.key() inlined
                    if key in hist:
                        self._new_keys.add(key)
        return self._filter_ack(msg, self._valids(cands))


class MwServer(ServerBase):
    """Multi-writer replica: candidates carry MAC vectors, collect serves lc
    alone, filter splits the written-back and the returned candidate, and a
    repair round can re-certify a candidate whose vector was garbled. A
    write-back weighs vector evidence only between same-timestamp variants:
    a lone highest valid candidate is written back with no MAC check of its
    vector. Each candidate is judged once: _hist_valid keeps its history
    verdict, which the filter's reply reads again, and _vec_certified its
    MAC verdict, which reads only the candidate and this server's key."""

    mode = "mw"
    kinds = (codec.STORE, codec.COMPLETE, codec.CLOCK, codec.COLLECT,
             codec.FILTER, codec.REPAIR)

    def reset(self):
        super().reset()
        self._certified = {}  # candidate -> its MAC-branch verdict

    def _valid(self, cand):
        return self._hist_valid(cand) or self._vec_certified(cand)

    def _vec_certified(self, cand):
        verdict = self._certified.get(cand)
        if verdict is None:
            verdict = self._certified[cand] = valid_mw(
                cand, {}, self.sid, self.keyring.key_for(self.sid), self.scheme)
        return verdict

    def _on_clock(self, msg):
        return codec.ClockAck(msg.ts, self.lc.ts)

    def _on_collect(self, msg):
        return codec.CollectAck(msg.tsr, (self.lc,))

    def _wb_rank(self, cand):
        # ranks same-timestamp variants, which tie on raw bytes, by
        # evidence: the vector this server stored itself, then its own
        # verifiable entry; a history-valid variant with a garbled vector
        # must not shadow the genuine one
        entry = self.hist.get(cand.ts.key())
        return (entry is not None and entry.vec == cand.vec,
                self._vec_certified(cand))

    def _on_filter(self, msg):
        valids = [c for c in msg.cands if self._valid(c)]
        if valids:
            top = max(c.ts.key() for c in valids)
            variants = [c for c in valids if c.ts.key() == top]
            # max keeps the first of equal ranks: msg.cands' order breaks ties
            c_wb = (max(variants, key=self._wb_rank) if len(variants) > 1
                    else variants[0])
            if c_wb.ts > self.lc.ts:
                self._accept(c_wb, "filter_wb")
        return self._filter_ack(msg, [
            c for c in msg.cands if self._hist_valid(c)])

    def _on_repair(self, msg):
        cand = msg.cand
        if cand.ts > self.lc.ts and self._valid(cand):
            self._accept(cand, "repair")
        return codec.RepairAck(msg.tsr)
