"""SwServer keeps LC incrementally: a collect looks only at what changed
since the last one. It must behave exactly as the literal rules do, where
gc scans all of LC twice, a COLLECT sorts all of LC and a FILTER unites
every written-back candidate into LC. _LiteralLc is those rules; runs and
single-server step sequences must give the same outputs under both."""

import hashlib
import random

import pytest

from powerstore import codec, mutants, scenarios, simnet
from powerstore.core import Candidate, Timestamp
from powerstore.crypto import digest, pow_scheme
from powerstore.erasure import Fragment
from powerstore.server import SwServer
from powerstore.simnet import SimConfig

from test_golden import partial_reveal_configs


class _LiteralLc(SwServer):
    """SwServer with LC handled by the literal rules, in full every time."""

    def gc(self):
        lc_set, hist = self.lc_set, self.hist
        stored = [c for c in lc_set if c.ts.key() in hist]
        valids = [c for c in stored if self._valid(c)]
        if valids:
            c_hv = max(valids, key=Candidate.sort_key)
            if c_hv.ts > self.lc.ts:
                self._accept(c_hv, "gc")
        lc_key = self.lc.ts.key()
        low = [c for c in lc_set if c.ts.key() <= lc_key]
        self.lc_set = lc_set.difference(stored, low)

    def _on_collect(self, msg):
        self.gc()
        cands = sorted((self.lc, *self.lc_set), key=Candidate.sort_key)
        return codec.CollectAck(msg.tsr, tuple(cands))

    def _on_filter(self, msg):
        self.lc_set.update(msg.cands)
        return self._filter_ack(msg, self._valids(msg.cands))


FLOOD = dict(readers=4, writes=5, reads=5, adversary_budget=50,
             faults=("byz_reader:201:flood_writebacks",))


def differential_configs():
    configs = {}
    for seed in range(28):  # the sw sweep's seeds
        configs["sw-catalog/%d" % seed] = scenarios.pair_for("sw-catalog", seed)[1]
    configs["flood/0"] = scenarios.pair_for("sw-flood", 0, **FLOOD)[1]
    garbage = dict(mode="sw", writers=1, readers=2, writes=3, reads=3,
                   value_size=48, seed=3,
                   faults=("byz_reader:202:garbage_filter_sets",))
    configs["garbage"] = SimConfig(**garbage)
    for seed in range(3):
        configs["sw-byz-revert/%d" % seed] = scenarios.pair_for(
            "sw-byz-revert", seed)[1]
    configs["revert+flood"] = scenarios.pair_for(
        "sw-byz-revert", 1, readers=3, writes=5, reads=5, adversary_budget=30,
        faults=("byz_server:3:revert_state",
                "byz_reader:203:flood_writebacks"))[1]
    for mutant in ("lc_non_monotone", "valid_skip_nonce"):
        for seed in range(3):
            configs["%s/%d" % (mutant, seed)] = SimConfig(**dict(
                garbage, seed=seed, mutant=mutant, writes=4, reads=4,
                faults=("crash_writer:101:after_complete:0",
                        "byz_reader:202:garbage_filter_sets")))
    configs.update(partial_reveal_configs())
    return configs


def outputs(config, monkeypatch):
    """A run's log digest, history signature, metrics and the digest of
    every COLLECT_ACK it encoded."""
    acks = hashlib.sha256()
    real = codec.encode

    def encode(msg, *rest):
        wire = real(msg, *rest)
        if msg.kind == codec.COLLECT_ACK:
            acks.update(wire)
        return wire

    with monkeypatch.context() as patch:
        patch.setattr(codec, "encode", encode)
        res = simnet.run(config)
    return (res.log_digest(), res.history_signature(), dict(res.metrics),
            acks.hexdigest())


@pytest.mark.parametrize("key", sorted(differential_configs()))
def test_runs_match_the_literal_lc_rules(key, monkeypatch):
    config = differential_configs()[key]
    got = outputs(config, monkeypatch)
    monkeypatch.setitem(mutants.CLASSES["sw"], "server", _LiteralLc)
    assert outputs(config, monkeypatch) == got
    if key.startswith("flood"):
        assert got[2]["lc_set_peak"] > 100


def test_the_differential_reaches_the_gc_adoption():
    """A write revealed to only some servers is written back by readers and
    adopted in gc: the one path where a correct server accepts a candidate
    that no COMPLETE brought it."""
    adoptions = [ev for config in partial_reveal_configs().values()
                 for ev in simnet.run(config).events
                 if ev["type"] == "accept" and ev["via"] == "gc"]
    assert adoptions


def _step_servers(seed, cls):
    """Drive one server of class cls through seeded random steps: stores
    (some at written-back timestamps), completes, write-backs of fresh and
    repeated candidates, collects and resets. Returns every reply, lc and
    |LC| after each step, and the traced events."""
    rng = random.Random(seed)
    events = []
    srv = cls(1, 4, 1, scheme=pow_scheme("hash"),
              tracer=lambda etype, **f: events.append((etype, f)))
    nonces = {}  # num -> the nonce its write commits to
    seen = []
    out = []
    for step in range(300):
        pick = rng.random()
        num = rng.randrange(1, 40)
        nonce = nonces.setdefault(num, digest(b"n%d" % num))
        if pick < 0.15:
            out.append(srv.handle(codec.Store(
                Timestamp(num), Fragment(1, 3, b"abc"), (b"c",) * 4,
                digest(nonce)), "writer"))
        elif pick < 0.22:
            out.append(srv.handle(codec.Complete(Timestamp(num), nonce),
                                  "writer"))
        elif pick < 0.6:
            cands = []
            for _ in range(rng.randrange(1, 6)):
                if seen and rng.random() < 0.4:
                    cands.append(rng.choice(seen))
                    continue
                n = rng.randrange(1, 40)
                token = nonces.get(n) if rng.random() < 0.5 else None
                token = token or digest(b"f%d" % rng.randrange(10 ** 6))
                tag = b"" if rng.random() < 0.8 else bytes([rng.randrange(4)])
                cands.append(Candidate(Timestamp(n, 0, tag), token))
            seen += cands
            out.append(srv.handle(codec.Filter(step, tuple(cands)), "reader"))
        elif pick < 0.98:
            out.append(srv.handle(codec.Collect(step), "reader"))
        else:
            srv.reset()
        out.append((srv.lc, len(srv.lc_set)))
    return out, events


@pytest.mark.parametrize("seed", range(8))
def test_random_steps_match_the_literal_lc_rules(seed):
    assert _step_servers(seed, SwServer) == _step_servers(seed, _LiteralLc)

