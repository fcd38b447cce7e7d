"""The reader decides a filter round once: with s-t replies in, it applies
the invalid bound, asks for one safety witness at the top key, restores the
value, and in mw repairs with the witness's vector. It must behave exactly
as the paper's literal rules do, where every FILTER_ACK drops each invalid
candidate, every highcand candidate is judged safe one by one, the value is
restored from t+1 witnesses, and the mw repair writes back a vector that
t+1 replies, counted one by one, agree on. _LiteralSwReader and
_LiteralMwReader are those rules; whole runs must give the same outputs
under both."""

from collections import Counter

import pytest

from powerstore import codec, mutants, scenarios, simnet
from powerstore.client import BOTTOM, MwReader, ProtocolInvariantError, SwReader
from powerstore.core import Candidate, highcand, invalid
from powerstore.crypto import digest
from powerstore.erasure import decode as ec_decode, fragment_to_bytes
from powerstore.simnet import SimConfig

from test_acceptance import KILL_PLANS
from test_golden import partial_reveal_configs
from test_literal_lc import DIGESTED, FLOOD
from test_server import recompute_verdicts

# the benchmark's contended workload: mw-pareto with eight of each client
CONTENDED = dict(writers=8, readers=8, writes=4, reads=4)
BUSY_BIGMAC = dict(writers=3, readers=4, reads=10)  # more reads, more repairs


def _literal_restore_value(ts, replies, t, s, check_cc=True):
    """Decode the value at ts from the reply table: pick the smallest
    cross-checksum vouched by t+1 servers, keep fragments matching their own
    slot of it. The reader's restore before it decoded its safety witness's
    fragments, frozen here as the reference for that rule."""
    counts = Counter(rep.cc for rep in replies.values()
                     if rep.ts.key() == ts.key())
    cc = min((v for v, n in counts.items() if v is not None and n > t),
             default=None)
    if cc is None:
        raise ProtocolInvariantError("restore without a cross-checksum witness")
    frs = []
    for sid in sorted(replies):
        rep = replies[sid]
        if rep.ts.key() != ts.key() or rep.fr is None:
            continue
        if check_cc and not (len(cc) >= sid and
                             digest(fragment_to_bytes(rep.fr)) == cc[sid - 1]):
            continue
        frs.append(rep.fr)
    return ec_decode(frs, t + 1, s)


class _LiteralRules:
    """The filter round by the paper's rules, candidate by candidate."""

    def _on_filter_ack(self, sid, msg):
        if self.phase != "filter" or msg.tsr != self.tsr:
            return
        self.R[sid] = self._checked(sid, msg)
        self.C = {c for c in self.C if not invalid(c, self.R, self.s, self.t)}
        if len(self.R) < self.s - self.t:
            return
        if not self.C:
            self._finish(value=BOTTOM, rounds=self.rounds, repaired=False)
            return
        ready = [c for c in self.C if highcand(c, self.C) and self._safe(c)]
        if not ready:
            return
        c = max(ready, key=Candidate.sort_key)
        self.trace("select", ts=c.ts, token=c.token)
        value = _literal_restore_value(
            c.ts, self.R, self.t, self.s,
            check_cc=not isinstance(self, mutants.DecodeSkipCc))
        self._literal_restored(c, value)

    def _literal_restored(self, c, value):
        self._finish(value=value, rounds=self.rounds, repaired=False)


class _LiteralSwReader(_LiteralRules, SwReader):
    pass


class _LiteralMwReader(_LiteralRules, MwReader):
    """Repairs with the smallest vector that t+1 replies for c.ts carry,
    unless a collected variant of c already carries it. The repair round's
    acks are MwReader's; it answers with the value restored here."""

    def _literal_restored(self, c, value):
        counts = Counter(rep.vec for rep in self.R.values()
                         if rep.ts.key() == c.ts.key())
        agreed = [v for v, n in counts.items()
                  if v is not None and n >= self.t + 1]
        if not agreed:
            raise ProtocolInvariantError("repair without a vector witness")
        vec = min(agreed)
        if any(v.ts.key() == c.ts.key() and v.vec == vec for v in self.C):
            super()._literal_restored(c, value)
            return
        self._value = value
        self.repaired = True
        self.trace("repair_sent", ts=c.ts)
        repair = codec.Repair(self.tsr, Candidate(c.ts, c.token, vec))
        self._round("repair", lambda _: repair)


LITERAL = {"sw": _LiteralSwReader, "mw": _LiteralMwReader}


def differential_configs():
    configs = {}
    for seed in range(28):  # the sw sweep's seeds
        configs["sw-catalog/%d" % seed] = scenarios.pair_for("sw-catalog", seed)[1]
    for seed in range(24):  # the mw sweep's seeds
        configs["mw-catalog/%d" % seed] = scenarios.pair_for("mw-catalog", seed)[1]
    for pow_name in ("hash", "shamir"):
        for t in (1, 2):
            for seed in range(10):
                configs["mw-bigmac/%s/t%d/%d" % (pow_name, t, seed)] = \
                    scenarios.pair_for("mw-bigmac", seed, t=t,
                                       pow_name=pow_name)[1]
    for t in (1, 2):
        for seed in range(10):
            configs["mw-bigmac/busy/t%d/%d" % (t, seed)] = scenarios.pair_for(
                "mw-bigmac", seed, t=t, **BUSY_BIGMAC)[1]
    for name in ("sw-byz-equivocate", "mw-byz-equivocate", "sw-byz-fabricate",
                 "mw-byz-fabricate", "mw-bigmac"):
        # mw-bigmac/hash/t2 above already runs mw-bigmac's t=2 configs
        for t in (3, 4) if name == "mw-bigmac" else (2, 3, 4):
            for seed in range(4):
                configs["%s/t%d/%d" % (name, t, seed)] = scenarios.pair_for(
                    name, seed, t=t)[1]
    configs["flood/0"] = scenarios.pair_for("sw-flood", 0, **FLOOD)[1]
    configs["contended/0"] = scenarios.pair_for("mw-pareto", 0, **CONTENDED)[1]
    for mutant in ("safe_quorum_minus_one", "decode_skip_cc"):
        for seed in range(3):
            kw = dict(writes=4, reads=4, readers=2)
            kw.update(KILL_PLANS[mutant])
            configs["%s/%d" % (mutant, seed)] = SimConfig(
                mutant=mutant, seed=seed, **kw)
    configs.update(partial_reveal_configs())
    return configs


CONFIGS = differential_configs()


@pytest.fixture(scope="module")
def unpatched(outputs):
    """unpatched(key) is the outputs of CONFIGS[key] run with the program's
    own classes, made once for every test of this module."""
    made = {}

    def get(key):
        if key not in made:
            made[key] = outputs(CONFIGS[key], digest_kinds=DIGESTED)
        return made[key]

    return get


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_runs_match_the_literal_reader_rules(key, monkeypatch, outputs,
                                             unpatched):
    config, want = CONFIGS[key], unpatched(key)
    monkeypatch.setitem(mutants.CLASSES[config.mode], "reader",
                        LITERAL[config.mode])
    sim = simnet.Simulation(config)
    assert any(isinstance(c, _LiteralRules) for c in sim.clients.values())
    assert outputs(config, digest_kinds=DIGESTED) == want


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_runs_match_without_verdict_memos(key, monkeypatch, outputs,
                                          unpatched):
    want = unpatched(key)
    recompute_verdicts(monkeypatch)
    assert outputs(CONFIGS[key], digest_kinds=DIGESTED) == want


def test_the_differential_reaches_the_repair_round(unpatched):
    repairing = [key for key in sorted(CONFIGS) if key.startswith("mw-bigmac/")
                 and unpatched(key)[2]["repairs"]]
    assert len(repairing) >= 8, repairing
