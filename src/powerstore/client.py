"""Client state machines: writers and readers driven by ack deliveries.

Each client runs one operation at a time. An operation advances through its
rounds as acks arrive; stale acks (wrong phase, wrong timestamp, wrong read
counter) are dropped on the floor. A crashed writer stops mid-broadcast and
never invokes its completion callback.

From the (s-t)-th ack of a read's filter round on, each ack tries one
decision: drop the candidates above the invalid bound, ask for one safety
witness at the highest remaining one and, once a witness stands behind it,
restore its value from the witness's fragments. In mw mode the witness's
MAC vector decides whether a repair round writes the candidate back, and is
the vector that round carries.
"""

from __future__ import annotations

from . import codec
from .core import (
    BOTTOM,
    TS0,
    Candidate,
    Timestamp,
    checked_reply,
    invalid,  # not called here; perfbench's tracer tests expect this binding
    invalid_bound,
    safe_witness,
)
from .crypto import HASH_POW, make_vec, tag_timestamp, verify_timestamp
from .erasure import (FRAGMENT_HEADER_BYTES, cross_checksum,
                      decode as ec_decode, encode as ec_encode)


class ProtocolInvariantError(AssertionError):
    """A state the protocol guarantees unreachable for correct clients."""


# ---------------------------------------------------------------------------
# Pure read-side procedure, shared by both modes
# ---------------------------------------------------------------------------

def restore_value(witness, replies, t: int, s: int) -> bytes:
    """Decode the value from the fragments of a safety witness (ids, cc,
    vec): t+1 checked replies that agree on one cross-checksum."""
    ids = witness[0]
    if len(ids) <= t:
        raise ProtocolInvariantError("restore without a cross-checksum witness")
    return ec_decode([replies[sid].fr for sid in ids], t + 1, s)


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------

class ClientBase:
    role = None

    def __init__(self, cid, s, t, scheme=HASH_POW, keyring=None, send=None,
                 rng=None, tracer=None):
        self.cid = cid
        self.s = s
        self.t = t
        self.scheme = scheme
        self.keyring = keyring
        self.send = send  # send(server_id, msg)
        self.rng = rng
        self.tracer = tracer
        self.crashed = False
        self.phase = None
        self.rounds = 0
        self.crash_plan = None  # (phase, k): crash after k sends of that phase
        self._acks = set()
        self._done = None
        # kind -> its handler, for each kind this class has one for
        self._handlers = {kind: getattr(self, name)
                          for kind, name in codec.HANDLER_NAMES.items()
                          if hasattr(self, name)}

    @property
    def busy(self):
        """True while an operation is running."""
        return self._done is not None

    def trace(self, etype, **fields):
        if self.tracer is not None:
            self.tracer(etype, client=self.cid, **fields)

    def _begin(self, done):
        assert not self.busy and not self.crashed
        self._done = done
        self.rounds = 0

    def _round(self, phase, build):
        """Start the operation's next round: count it, forget the last
        round's acks and send build(sid) to every server, unless the crash
        plan for this phase stops the client partway."""
        self.phase = phase
        self._acks = set()
        self.rounds += 1
        plan = self.crash_plan
        left = plan[1] if plan is not None and plan[0] == phase else self.s
        for sid in range(1, self.s + 1):
            if left == 0:
                self.crashed = True
                self.trace("crash")
                return
            left -= 1
            self.send(sid, build(sid))

    def _quorum(self, sid):
        """Count sid's ack to this round; True once s-t servers answered."""
        self._acks.add(sid)
        return len(self._acks) >= self.s - self.t

    def _finish(self, **stats):
        cb, self._done = self._done, None
        self.phase = None
        if cb is not None:
            cb(**stats)

    def on_message(self, sid, msg):
        """Hand one ack to its handler through the table built at
        construction. A crashed or idle client, or one with no handler for
        the kind, ignores it. Byzantine readers replace this method, so it
        stays the one entry point."""
        if self.crashed or self._done is None:
            return
        handler = self._handlers.get(msg.kind)
        if handler is not None:
            handler(sid, msg)


class WriterBase(ClientBase):
    role = "writer"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ts = TS0
        self.token = None
        self.vec = None
        self.data_bytes = 0  # fragment bytes the current write stores

    def _start_store(self, value):
        self.token, commitments = self.scheme.mint(self.rng, self.t, self.s)
        frs = ec_encode(value, self.t + 1, self.s)
        self.data_bytes = sum(FRAGMENT_HEADER_BYTES + len(fr.payload)
                              for fr in frs)
        cc = cross_checksum(frs)
        self.vec = self._make_vec()
        self._round("store", lambda sid: codec.Store(
            self.ts, frs[sid - 1], cc, commitments[sid - 1], self.vec))

    def _on_store_ack(self, sid, msg):
        if self.phase != "store" or msg.ts.key() != self.ts.key():
            return
        if self._quorum(sid):
            complete = codec.Complete(self.ts, self.token, self.vec)
            self._round("complete", lambda _: complete)

    def _on_complete_ack(self, sid, msg):
        if self.phase != "complete" or msg.ts.key() != self.ts.key():
            return
        if self._quorum(sid):
            self._finish(rounds=self.rounds)


class SwWriter(WriterBase):
    """Two rounds per write: store fragments, then reveal the token."""

    def _make_vec(self):
        return None

    def write(self, value, done):
        self._begin(done)
        self.ts = Timestamp(self.ts.num + 1, 0, b"")
        self._start_store(value)


class MwWriter(WriterBase):
    """Three rounds per write: clock, store, reveal."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._value = None
        self._clock_best = None

    def _make_vec(self):
        return make_vec(self.keyring, self.ts.num, self.ts.pid,
                        self.scheme.token_digest(self.token))

    def write(self, value, done):
        self._begin(done)
        self._value = value
        self._clock_best = self.ts
        clock = codec.Clock(self.ts)
        self._round("clock", lambda _: clock)

    def _clock_ts_ok(self, ts_i):
        return verify_timestamp(self.keyring.writer_key, ts_i.num, ts_i.pid,
                                ts_i.tag)

    def _on_clock_ack(self, sid, msg):
        # self.ts changes only when the clock round ends
        if self.phase != "clock" or msg.echo != self.ts:
            return
        ts_i = msg.ts
        if ts_i > self._clock_best and self._clock_ts_ok(ts_i):
            self._clock_best = ts_i
        if self._quorum(sid):
            num = self._clock_best.num + 1
            tag = tag_timestamp(self.keyring.writer_key, num, self.cid)
            self.ts = Timestamp(num, self.cid, tag)
            self._start_store(self._value)
            self._value = None


class ReaderBase(ClientBase):
    role = "reader"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tsr = 0
        self.C = set()
        self.R = {}

    def read(self, done):
        self._begin(done)
        self.tsr += 1
        self.C = set()
        self.R = {}
        collect = codec.Collect(self.tsr)
        self._round("collect", lambda _: collect)

    def _on_collect_ack(self, sid, msg):
        if self.phase != "collect" or msg.tsr != self.tsr:
            return
        self.C.update(msg.cands)
        if self._quorum(sid):
            zero = TS0.key()
            # c.ts[:2] is c.ts.key() inlined
            self.C = {c for c in self.C if c.ts[:2] > zero}
            filt = codec.Filter(self.tsr,
                                tuple(sorted(self.C, key=Candidate.sort_key)))
            self._round("filter", lambda _: filt)

    def _safe(self, cand):
        return safe_witness(cand, self.R, self.t)

    def _checked(self, sid, msg):
        return checked_reply(sid, msg)

    def _on_filter_ack(self, sid, msg):
        if self.phase != "filter" or msg.tsr != self.tsr:
            return
        self.R[sid] = self._checked(sid, msg)
        if not self._quorum(sid):
            return
        # recomputed at every ack: a byzantine server may overwrite its R entry
        bound = invalid_bound(self.R, self.s, self.t)
        self.C = {c for c in self.C if c.ts[:2] <= bound}  # key() inlined
        if not self.C:
            self._restored(None, None, BOTTOM)
            return
        # sort keys begin with (num, pid): c is highcand, and safety depends
        # on c.ts alone, so one witness decides for every variant at its key
        c = max(self.C, key=Candidate.sort_key)
        witness = self._safe(c)  # (ids, cc, vec) or None
        if witness is None:
            return
        self.trace("select", ts=c.ts, token=c.token)
        self._restored(c, witness[2],
                       restore_value(witness, self.R, self.t, self.s))

    def _restored(self, c, vec, value):
        """The read's last step once c (None for an empty set) is restored to
        value; vec is the MAC vector its witnesses agree on."""
        self._finish(value=value, rounds=self.rounds, repaired=False)


class SwReader(ReaderBase):
    """Two rounds per read: collect candidates, then filter and restore."""


class MwReader(ReaderBase):
    """Collect and filter as in the single-writer mode, plus a repair round
    when no collected variant of the selected candidate carries the vector
    its witnesses agree on."""

    _value = None  # the restored value, answered once the repair is acked

    def _restored(self, c, vec, value):
        # an adversary can plant same-timestamp variants that differ only in
        # their vector; repair only when no collected variant carries the
        # witnesses' one, so the variant tiebreak cannot steer the round count
        if c is None or any(v.vec == vec for v in self.C
                            if v.ts.key() == c.ts.key()):
            super()._restored(c, vec, value)
            return
        self._value = value
        self.trace("repair_sent", ts=c.ts)
        repair = codec.Repair(self.tsr, c._replace(vec=vec))
        self._round("repair", lambda _: repair)

    def _on_repair_ack(self, sid, msg):
        if self.phase != "repair" or msg.tsr != self.tsr:
            return
        if self._quorum(sid):
            self._finish(value=self._value, rounds=self.rounds, repaired=True)
