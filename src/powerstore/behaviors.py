"""Byzantine drop-ins: server mixins and adversarial reader drivers.

A server behavior is a mixin layered over a correct replica's class, as a
mutant is (``mutants.layer``). Like a mutant, it overrides only the
``_on_<kind>`` handlers whose replies it distorts, never ``handle``, so the
replica's gate (the mode's kinds, then the sender's role) decides what it
answers. Reader drivers skip the read protocol entirely and pump forged
traffic at the servers. Forgeries are derived from digest chains or from
fixed-width draws on the adversary stream, so a run's schedule stays
identical whichever proof scheme is active.
"""

from __future__ import annotations

from . import codec
from .core import C0, TS0, Candidate, Timestamp
from .crypto import Polynomial, digest
from .erasure import Fragment, fragment_to_bytes

FAB_NUM_FLOOR = 1 << 20  # forged candidate numbers live far above real ones
HUGE_NUM = 1 << 40


def forge_token(raw: bytes, scheme):
    """A token that parses fine but verifies against nothing."""
    if scheme.name == "shamir":
        a = int.from_bytes(digest(raw + b"a"), "big") % scheme.q
        b = int.from_bytes(digest(raw + b"b"), "big") % scheme.q
        return Polynomial((a, b), scheme.q)
    return digest(raw + b"n")


def forge_cand(raw: bytes, num: int, pid: int, mode: str, scheme,
               s: int) -> Candidate:
    """A candidate at num that parses fine in mode but was never written."""
    token = forge_token(raw, scheme)
    if mode == "sw":
        return Candidate(Timestamp(num, 0, b""), token, None)
    return Candidate(Timestamp(num, pid, digest(raw + b"t")[:16]), token,
                     tuple(digest(raw + b"v%d" % i) for i in range(1, s + 1)))


# ---------------------------------------------------------------------------
# Server behaviors
# ---------------------------------------------------------------------------

class StaleLc:
    """Acknowledges writes but answers all read traffic from time zero."""

    def _on_collect(self, msg):
        return codec.CollectAck(msg.tsr, (C0,))

    def _on_filter(self, msg):
        return codec.FilterAck(msg.tsr, TS0, None, None, None)

    def _on_clock(self, msg):
        return codec.ClockAck(msg.ts, TS0)

    def _on_repair(self, msg):
        return codec.RepairAck(msg.tsr)


class FabricateCandidate:
    """Invents a colossal candidate and a self-consistent record behind it."""

    def _forged(self, salt):
        raw = digest(b"fab|%d|%d" % (self.sid, salt))
        return forge_cand(raw, HUGE_NUM + salt, self.sid, self.mode,
                          self.scheme, self.s), raw

    def _forged_record(self, raw):
        fr = Fragment(self.sid, 32, digest(raw + b"p"))
        cc = tuple(
            digest(fragment_to_bytes(fr)) if i == self.sid
            else digest(raw + b"c%d" % i)
            for i in range(1, self.s + 1))
        return fr, cc

    def _on_collect(self, msg):
        reply = super()._on_collect(msg)
        cand, _ = self._forged(msg.tsr)
        return codec.CollectAck(msg.tsr, reply.cands + (cand,))

    def _on_filter(self, msg):
        super()._on_filter(msg)  # keep state honest, lie in the reply
        cand, raw = self._forged(msg.tsr)
        fr, cc = self._forged_record(raw)
        return codec.FilterAck(msg.tsr, cand.ts, fr, cc, cand.vec)

    def _on_clock(self, msg):
        cand, _ = self._forged(msg.ts.num)
        return codec.ClockAck(msg.ts, cand.ts)


class CorruptVec:
    """Honest state, garbled MAC vectors on everything read-facing."""

    @staticmethod
    def _garble(vec):
        return tuple(digest(b"cv" + entry) for entry in vec)

    def _on_collect(self, msg):
        reply = super()._on_collect(msg)
        cands = tuple(c._replace(vec=self._garble(c.vec)) if c.vec else c
                      for c in reply.cands)
        return reply._replace(cands=cands)

    def _on_filter(self, msg):
        reply = super()._on_filter(msg)
        if reply.vec is None:
            return reply
        return reply._replace(vec=self._garble(reply.vec))


class RevertState:
    """Periodically forgets everything: a restarting disk with no log."""

    period = 47

    def arm(self, sim):
        sim.schedule(self.period, self.on_timer, sim)

    def on_timer(self, sim):
        self.reset()
        self.trace("revert")
        if sim.ops_pending():
            sim.schedule(self.period, self.on_timer, sim)


class Mute:
    """Serves no kind: receives everything, stores nothing, says nothing."""

    kinds = ()


class EquivocateFragments:
    """Serves filter replies whose fragment bytes contradict the checksum."""

    def _on_filter(self, msg):
        reply = super()._on_filter(msg)
        fr = reply.fr
        if fr is None:
            return reply
        mask = digest(b"equiv" + fragment_to_bytes(fr))
        mask = (mask * (len(fr.payload) // len(mask) + 1))[:len(fr.payload)]
        garbled = bytes(a ^ b for a, b in zip(fr.payload, mask))
        return reply._replace(fr=Fragment(fr.index, fr.orig_len, garbled))


SERVERS = {
    "stale_lc": StaleLc,
    "fabricate_candidate": FabricateCandidate,
    "corrupt_vec": CorruptVec,
    "revert_state": RevertState,
    "mute": Mute,
    "equivocate_fragments": EquivocateFragments,
}


# ---------------------------------------------------------------------------
# Byzantine reader drivers
# ---------------------------------------------------------------------------

class ByzReader:
    """Common pump loop: a budgeted burst, then reschedule while ops run."""

    role = "reader"

    def __init__(self, cid, sim):
        self.cid = cid
        self.sim = sim
        self.rng = sim.rng["adversary"]
        self.mode = sim.cfg.mode
        self.budget = sim.cfg.adversary_budget
        self.count = 0

    def arm(self, sim):
        sim.schedule(1 + self.rng.randint(0, 4), self.pump)

    def on_message(self, sid, msg):
        pass

    def _all(self, payload):
        for sid in range(1, self.sim.s + 1):
            self.sim.send(self.cid, sid, payload)

    def pump(self):
        if self.budget <= 0 or not self.sim.ops_pending():
            return
        self.budget -= 1
        self.count += 1
        self._pump(self.rng.randbytes(32))
        self.sim.schedule(1 + self.rng.randint(0, 4), self.pump)

    def _forged_cand(self, raw, num):
        return forge_cand(raw, num, self.cid, self.mode, self.sim.scheme,
                          self.sim.s)


class GarbageFilterSets(ByzReader):
    """Forged filter and repair traffic, plus outright malformed bytes.

    Every burst sends one colossal candidate and one at a small, guessable
    timestamp (hoping to collide with a stored-but-unrevealed write)."""

    def _pump(self, raw):
        cand = self._forged_cand(raw, HUGE_NUM + self.count)
        low = self._forged_cand(digest(raw + b"lo"), 1 + self.count % 8)
        self._all(codec.Filter(self.count, (cand, low)))
        if self.mode == "mw":
            self._all(codec.Repair(self.count, cand))
        if self.count % 3 == 0:
            self._all(bytes([codec.FILTER]) + raw[:6])


class ReplayedCandidates(ByzReader):
    """Collects honestly, then replays what it saw with doctored tokens."""

    def __init__(self, cid, sim):
        super().__init__(cid, sim)
        self.stash = []

    def on_message(self, sid, msg):
        if msg.kind == codec.COLLECT_ACK:
            for c in msg.cands:
                if c.ts > TS0 and c not in self.stash:
                    self.stash.append(c)

    def _pump(self, raw):
        self._all(codec.Collect(self.count))
        if not self.stash:
            return
        # sort on the timestamp alone: token bytes differ across proof
        # schemes and must not steer the schedule
        pool = sorted(self.stash, key=lambda c: c.ts.key())
        pick = pool[self.count % len(pool)]
        fake = Candidate(pick.ts, forge_token(raw, self.sim.scheme), pick.vec)
        self._all(codec.Filter(self.count, (pick, fake)))


class FloodWritebacks(ByzReader):
    """Streams never-written candidates into the filter write-back path."""

    batch = 4

    def _pump(self, raw):
        cands = []
        for j in range(self.batch):
            seed = digest(raw + bytes([j]))
            num = FAB_NUM_FLOOR + self.count * self.batch + j
            cands.append(self._forged_cand(seed, num))
        self._all(codec.Filter(self.count, tuple(cands)))


READERS = {
    "garbage_filter_sets": GarbageFilterSets,
    "replayed_candidates": ReplayedCandidates,
    "flood_writebacks": FloodWritebacks,
}
