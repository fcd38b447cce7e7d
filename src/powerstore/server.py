"""Server replicas: strictly reactive handlers over (lc, LC, Hist).

A server never contacts another server and never originates a message; every
handler returns at most one reply for the requesting client. Byzantine
variants wrap or subclass these classes in behaviors.py.
"""

from __future__ import annotations

from . import codec
from .core import C0, Candidate, HistEntry, valid_by_hist, valid_mw
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


def _entry_bytes(entry: HistEntry) -> int:
    n = 0
    if entry.fr is not None:
        n += len(entry.fr.payload) + 10
    if entry.cc:
        n += sum(len(c) for c in entry.cc)
    n += 32  # commitment, give or take the share encoding
    if entry.vec:
        n += sum(len(v) for v in entry.vec)
    return n


class ServerBase:
    """State and the store/complete handlers shared by both modes."""

    mode = None
    kinds = ()

    def __init__(self, sid, s, t, scheme=HASH_POW, keyring=None, tracer=None):
        self.sid = sid
        self.s = s
        self.t = t
        self.scheme = scheme
        self.keyring = keyring
        self.tracer = tracer
        self.lc = C0
        self.lc_set = set()  # LC; every read of it goes through sorted()
        self.hist = {}  # ts.key() -> HistEntry
        self.hist_bytes = 0
        self.dropped = 0

    # behaviors override trace indirection, not the tracer itself
    def trace(self, etype, **fields):
        if self.tracer is not None:
            self.tracer(etype, server=self.sid, **fields)

    def handle(self, msg, role):
        """Dispatch one request; None means the message was dropped."""
        kind = getattr(msg, "kind", None)
        if kind not in self.kinds or ROLE_FOR_KIND.get(kind) != role:
            self.dropped += 1
            return None
        return getattr(self, codec.HANDLER_NAMES[kind])(msg)

    def _accept(self, cand, via):
        self.lc = cand
        self.trace("accept", via=via, ts=cand.ts, token=cand.token)

    def _on_store(self, msg):
        entry = HistEntry(msg.fr, msg.cc, msg.commitment, msg.vec)
        self.hist[msg.ts.key()] = entry
        self.hist_bytes += _entry_bytes(entry)
        self.trace("store", ts=msg.ts, commitment=msg.commitment)
        return codec.StoreAck(msg.ts)

    def _on_complete(self, msg):
        if msg.ts > self.lc.ts:
            self._accept(self._completed_candidate(msg), "complete")
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
            "hist_bytes": self.hist_bytes,
        }


class SwServer(ServerBase):
    """Single-writer replica: collect serves LC united with lc, filter serves
    the highest history-valid candidate of the submitted set."""

    mode = "sw"
    kinds = (codec.STORE, codec.COMPLETE, codec.COLLECT, codec.FILTER)

    def _completed_candidate(self, msg):
        return Candidate(msg.ts, msg.token, None)

    def _valid(self, cand):
        return valid_by_hist(cand, self.hist, self.scheme)

    def _valids(self, cands):
        # no hist entry, no valid_by_hist: most of a flooded LC was never stored
        return [c for c in cands if c.ts.key() in self.hist and self._valid(c)]

    def gc(self):
        # only stored candidates can be valid, and all of them leave LC
        lc_set, hist = self.lc_set, self.hist
        stored = [c for c in lc_set if c.ts.key() in hist]
        valids = [c for c in stored if self._valid(c)]
        if valids:
            c_hv = max(valids, key=Candidate.sort_key)
            if c_hv.ts > self.lc.ts:
                self._accept(c_hv, "gc")
        lc_key = self.lc.ts.key()
        low = [c for c in lc_set if c.ts.key() <= lc_key]
        if stored or low:
            self.lc_set = lc_set.difference(stored, low)

    def _on_collect(self, msg):
        self.gc()  # leaves no candidate at or below lc in LC
        cands = sorted((self.lc, *self.lc_set), key=Candidate.sort_key)
        return codec.CollectAck(msg.tsr, tuple(cands))

    def _on_filter(self, msg):
        self.lc_set.update(msg.cands)  # metadata write-back
        return self._filter_ack(msg, self._valids(msg.cands))


class MwServer(ServerBase):
    """Multi-writer replica: candidates carry MAC vectors, collect serves lc
    alone, filter splits the written-back and the returned candidate, and a
    repair round can re-certify a candidate whose vector was garbled."""

    mode = "mw"
    kinds = (codec.STORE, codec.COMPLETE, codec.CLOCK, codec.COLLECT,
             codec.FILTER, codec.REPAIR)

    def _completed_candidate(self, msg):
        return Candidate(msg.ts, msg.token, msg.vec)

    def _valid(self, cand):
        return valid_mw(cand, self.hist, self.sid,
                        self.keyring.key_for(self.sid), self.scheme)

    def _vec_certified(self, cand):
        return valid_mw(cand, {}, self.sid, self.keyring.key_for(self.sid),
                        self.scheme)

    def _on_clock(self, msg):
        return codec.ClockAck(msg.ts, self.lc.ts)

    def _on_collect(self, msg):
        return codec.CollectAck(msg.tsr, (self.lc,))

    def _wb_rank(self, cand):
        # same-timestamp variants tie on raw bytes, so rank by evidence: the
        # vector this server stored itself, then its own verifiable entry; a
        # history-valid variant with a garbled vector must not shadow the
        # genuine one
        entry = self.hist.get(cand.ts.key())
        return (cand.ts.key(), entry is not None and entry.vec == cand.vec,
                self._vec_certified(cand))

    def _on_filter(self, msg):
        valids = [c for c in msg.cands if self._valid(c)]
        if valids:
            c_wb = max(valids, key=self._wb_rank)
            if c_wb.ts > self.lc.ts:
                self._accept(c_wb, "filter_wb")
        return self._filter_ack(msg, [
            c for c in msg.cands if valid_by_hist(c, self.hist, self.scheme)])

    def _on_repair(self, msg):
        cand = msg.cand
        if cand.ts > self.lc.ts and self._valid(cand):
            self._accept(cand, "repair")
        return codec.RepairAck(msg.tsr)
