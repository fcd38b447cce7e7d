"""The role classes of each mode, and single-fault protocol variants used to
prove the oracles can go red.

Each mutant is one mixin per role it breaks, layered over that role's class
in either mode. A mixin whose method a mode never dispatches (a repair or
clock handler under sw) leaves that mode unchanged. The harness runs a
mutant under a scenario that provokes the weakened guard and expects at
least one checker or monitor to fire; a mutant that survives means a hole
in the oracles, not a feature.
"""

from __future__ import annotations

import functools

from . import codec
from .client import MwReader, MwWriter, SwReader, SwWriter
from .core import Candidate, safe_witness
from .server import MwServer, SwServer

CLASSES = {
    "sw": {"server": SwServer, "writer": SwWriter, "reader": SwReader},
    "mw": {"server": MwServer, "writer": MwWriter, "reader": MwReader},
}


class RepairSkipValid:
    """Adopts repair candidates on timestamp alone."""

    def _on_repair(self, msg):
        cand = msg.cand
        if cand.ts > self.lc.ts:
            self._accept(cand, "repair")
        return codec.RepairAck(msg.tsr)


class ClockSkipMac:
    """Believes any clock reply without checking its tag."""

    def _clock_ts_ok(self, ts_i):
        return True


class SafeQuorumMinusOne:
    """Accepts a candidate one witness short of the safety quorum."""

    def _safe(self, cand):
        return safe_witness(cand, self.R, self.t - 1)


class ValidSkipNonce:
    """Trusts any candidate whose timestamp appears in history."""

    def _valid(self, cand):
        return cand.ts.key() in self.hist


class LcNonMonotone:
    """Overwrites lc with whatever complete arrives last."""

    def _on_complete(self, msg):
        self._accept(Candidate(msg.ts, msg.token, msg.vec), "complete")
        return codec.CompleteAck(msg.ts)


class DecodeSkipCc:
    """Keeps every fragment it gets, so unchecked ones can witness a
    candidate and reach the decoder."""

    def _checked(self, sid, msg):
        return msg


REGISTRY = {
    "repair_skip_valid": {"server": RepairSkipValid},
    "clock_skip_mac": {"writer": ClockSkipMac},
    "safe_quorum_minus_one": {"reader": SafeQuorumMinusOne},
    "valid_skip_nonce": {"server": ValidSkipNonce},
    "lc_non_monotone": {"server": LcNonMonotone},
    "decode_skip_cc": {"reader": DecodeSkipCc},
}


@functools.cache
def layer(mixin, base):
    """base with mixin's methods in front: a mutant or a byzantine server."""
    return type(mixin.__name__ + base.__name__, (mixin, base), {})


def classes_for(mode, mutant=""):
    """Role -> class for a mode; a mutant name layers its mixins on top."""
    if not mutant:
        return CLASSES[mode]
    if mutant not in REGISTRY:
        raise ValueError("unknown mutant %r" % mutant)
    classes = dict(CLASSES[mode])
    for role, mixin in REGISTRY[mutant].items():
        classes[role] = layer(mixin, classes[role])
    return classes
