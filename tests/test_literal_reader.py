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
from powerstore.core import Candidate, Timestamp, highcand, invalid
from powerstore.crypto import digest
from powerstore.erasure import decode as ec_decode, fragment_to_bytes

from conftest import DIGESTED
from test_acceptance import kill_config
from test_golden import partial_reveal_configs
from test_literal_lc import FLOOD
from test_server import recompute_verdicts
from test_wire_view import SWEEPS

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
    configs = {"%s/%d" % (sweep, seed): scenarios.pair_for(sweep, seed)[1]
               for sweep, seeds in SWEEPS.items() for seed in seeds}
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
            configs["%s/%d" % (mutant, seed)] = kill_config(mutant, seed)
    configs.update(partial_reveal_configs())
    return configs


CONFIGS = differential_configs()


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_runs_match_the_literal_reader_rules(key, monkeypatch, outputs):
    config, want = CONFIGS[key], outputs(CONFIGS[key], digest_kinds=DIGESTED)
    monkeypatch.setitem(mutants.CLASSES[config.mode], "reader",
                        LITERAL[config.mode])
    sim = simnet.Simulation(config)
    assert any(isinstance(c, _LiteralRules) for c in sim.clients.values())
    assert outputs(config, digest_kinds=DIGESTED) == want


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_runs_match_without_verdict_memos(key, monkeypatch, outputs):
    want = outputs(CONFIGS[key], digest_kinds=DIGESTED)
    recompute_verdicts(monkeypatch)
    assert outputs(CONFIGS[key], digest_kinds=DIGESTED) == want


def test_the_differential_reaches_the_repair_round(outputs):
    repairing = [key for key, config in sorted(CONFIGS.items())
                 if key.startswith("mw-bigmac/")
                 and outputs(config, digest_kinds=DIGESTED)[2]["repairs"]]
    assert len(repairing) >= 8, repairing


@pytest.mark.parametrize("bypass", [
    recompute_verdicts,
    lambda patch: patch.setattr(Timestamp, "__lt__",
                                lambda a, b: a[:2] < b[:2]),
    lambda patch: patch.setitem(mutants.CLASSES["sw"], "reader",
                                LITERAL["sw"]),
    lambda patch: {}], ids=["method", "dunder", "reader", "table"])
def test_the_run_table_keeps_only_unpatched_runs(bypass, monkeypatch,
                                                 outputs):
    """A run under a patched method or dunder or a replaced mutants.CLASSES
    entry, or with a table passed (what bypass gives), is neither served
    from the session run table (tests/conftest.py) nor stored in it; an
    unpatched run is both, and each hit is a copy."""
    config = CONFIGS["sw-catalog/0"]
    key, planted = (config, DIGESTED), ("log", (), {"msgs_sent": 0}, "wires")
    want = outputs(config, digest_kinds=DIGESTED)
    assert outputs.made[key] == want
    monkeypatch.setitem(outputs.made, key, planted)
    with pytest.MonkeyPatch.context() as patch:
        table = bypass(patch)
        assert outputs(config, table, digest_kinds=DIGESTED) == want
        del outputs.made[key]
        outputs(config, table, digest_kinds=DIGESTED)
        assert key not in outputs.made
    outputs.made[key] = planted
    hit = outputs(config, digest_kinds=DIGESTED)
    assert hit == planted and hit[2] is not planted[2]
