"""Top-level guarantees, one test per claim.

Each test prints a single PASS line (visible with -s) after asserting its
claim over the shared seeded sweeps; any violation fails with the seed and
scenario that produced it, which replays byte for byte from the command line.
"""

import itertools
import math
import os
import random
import re
import time

import pytest

import test_checker
from powerstore import mutants, scenarios
from powerstore.checker import check_linearizable
from powerstore.erasure import cross_checksum, decode, encode
from powerstore.simnet import SimConfig, run

JOBS = max(1, min(8, os.cpu_count() or 1))
SWEEP_SEEDS = 1000
EQUIV_SEEDS = 100
FAB_SEEDS = 500  # per mode, per proof scheme


def _timed_sweep(name, seeds, **kw):
    t0 = time.time()
    reports = scenarios.sweep(name, seeds, jobs=JOBS, **kw)
    return {"reports": reports, "secs": time.time() - t0}


@pytest.fixture(scope="module")
def sw_sweep():
    return _timed_sweep("sw-catalog", range(SWEEP_SEEDS))


@pytest.fixture(scope="module")
def mw_sweep():
    return _timed_sweep("mw-catalog", range(SWEEP_SEEDS))


@pytest.fixture(scope="module")
def fab_sweeps():
    out = {}
    for pow_name in ("hash", "shamir"):
        reports = []
        for name in ("sw-byz-fabricate", "mw-byz-fabricate"):
            reports += scenarios.sweep(name, range(FAB_SEEDS), jobs=JOBS,
                                       pow_name=pow_name)
        out[pow_name] = reports
    return out


def _assert_clean(reports, where):
    bad = [(r["scenario"], r["seed"], f)
           for r in reports for f in r["failures"]]
    assert not bad, "%s: first violation %r of %d" % (where, bad[0], len(bad))


def test_round_latency_bounds(sw_sweep, mw_sweep):
    _assert_clean(sw_sweep["reports"], "sw catalog")
    _assert_clean(mw_sweep["reports"], "mw catalog")
    for rep in sw_sweep["reports"]:
        assert rep["write_rounds"] in ([], [2]), rep
        assert rep["read_rounds"] in ([], [2]), rep
    for rep in mw_sweep["reports"]:
        assert rep["write_rounds"] in ([], [3]), rep
        assert max(rep["read_rounds"], default=2) <= 3, rep
        if rep["scenario"] != "mw-bigmac":
            assert rep["repairs"] == 0, rep
    repaired = sum(r["repairs"] for r in mw_sweep["reports"]
                   if r["scenario"] == "mw-bigmac")
    assert repaired > 0
    budget = sw_sweep["secs"] + mw_sweep["secs"]
    assert budget < 300, "sweeps took %.0fs" % budget
    print("PASS round latency: sw 2/2, mw 3/2 (+repair only under vector "
          "corruption, %d repairs), %d+%d runs in %.0fs"
          % (repaired, SWEEP_SEEDS, SWEEP_SEEDS, budget))


def test_linearizability_all_runs(sw_sweep, mw_sweep):
    for rep in sw_sweep["reports"] + mw_sweep["reports"]:
        assert rep["verdicts"]["linearizable"], rep
    print("PASS linearizability: %d seeded histories per mode"
          % SWEEP_SEEDS)


def test_linearizability_at_sixteen_writers():
    # beyond the reach of a search exponential in the concurrent writers
    for seed in range(3):
        res = run(SimConfig(mode="mw", delay="pareto:20,4", writers=16,
                            readers=4, writes=10, reads=10, seed=seed))
        assert scenarios.evaluate(res)[0] == [], seed
    print("PASS linearizability: mw, 16 writers x 10 writes, 3 seeds")


def test_linearizability_checker_matches_brute_force():
    rng = random.Random(77)
    for trial in range(800):
        history = test_checker._gen_history(rng, coherent=trial % 2 == 0)
        assert len(history) <= 8
        fast = check_linearizable(history)
        slow = test_checker._brute_force_linearizable(history)
        assert fast.ok == slow.ok, (trial, history, fast, slow)
    print("PASS checker vs brute force: 800 histories up to 8 ops agree")


def test_proofs_of_writing_are_sound(sw_sweep, mw_sweep, fab_sweeps):
    for rep in sw_sweep["reports"] + mw_sweep["reports"]:
        assert rep["verdicts"]["pow_sound"], rep
    for pow_name, reports in fab_sweeps.items():
        _assert_clean(reports, "fabricate sweep under %s proofs" % pow_name)
        assert len(reports) == 2 * FAB_SEEDS
    print("PASS proof soundness: no unbacked candidate accepted or selected; "
          "fabrication rejected over %d seeds per proof scheme"
          % (2 * FAB_SEEDS))


def test_proof_schemes_are_interchangeable(sw_sweep, mw_sweep):
    for mode, hash_sweep in (("sw", sw_sweep), ("mw", mw_sweep)):
        a = hash_sweep["reports"][:EQUIV_SEEDS]
        b = scenarios.sweep("%s-catalog" % mode, range(EQUIV_SEEDS),
                            jobs=JOBS, pow_name="shamir")
        for ra, rb in zip(a, b):
            assert ra["read_values"] == rb["read_values"], (ra, rb)
            assert ra["signature"] == rb["signature"], (ra, rb)
    print("PASS proof-scheme equivalence: identical reads over %d seeds "
          "per mode" % EQUIV_SEEDS)


def test_timestamps_never_skip(mw_sweep):
    for rep in mw_sweep["reports"]:
        assert rep["verdicts"]["non_skipping"], rep
    # directed probe: a byzantine server answers every clock request with an
    # astronomical timestamp; correct writers must not inherit it
    for seed in range(5):
        res = run(SimConfig(mode="mw", writers=2, readers=2, writes=4,
                            reads=2, seed=seed,
                            faults=("byz_server:1:fabricate_candidate",)))
        assert scenarios.evaluate(res)[0] == [], seed
        invocations = sum(1 for r in res.history if r.kind == "write")
        top = max(r.ts.num for r in res.history if r.ts is not None)
        assert top <= invocations, (seed, top)
    print("PASS non-skipping timestamps: bounded by write invocations even "
          "against forged clocks")


def test_wire_cost_tracks_the_fragment_ideal():
    for t in (1, 2, 3):
        size = 65536
        res = run(SimConfig(mode="sw", writers=1, readers=1, writes=2,
                            reads=1, value_size=size, t=t, seed=4))
        per_write = res.metrics["data_bytes"] / res.metrics["completed_writes"]
        ideal = (3 * t + 1) * size / (t + 1)
        dev = abs(per_write - ideal) / ideal
        assert dev <= 0.02, (t, per_write, ideal)
    print("PASS wire cost: per-write bytes within 2%% of (3t+1)/(t+1) "
          "blowup for t=1..3 at 64KiB")


def test_any_quorum_subset_restores_the_value():
    rng = random.Random(5)
    for t in (1, 2, 3):
        s, k = 3 * t + 1, t + 1
        value = rng.randbytes(1000 + 7 * t)
        frs = encode(value, k, s)
        assert len(cross_checksum(frs)) == s
        combos = 0
        for subset in itertools.combinations(frs, k):
            assert decode(list(subset), k, s) == value
            combos += 1
        assert combos == math.comb(s, k)
    print("PASS erasure completeness: every (t+1)-subset of fragments "
          "decodes byte-exact, t=1..3")


def test_flooding_readers_cannot_break_correct_clients():
    sw = scenarios.sweep("sw-flood", range(100), jobs=JOBS)
    mw = scenarios.sweep("mw-flood", range(100), jobs=JOBS)
    _assert_clean(sw, "sw flood")
    _assert_clean(mw, "mw flood")
    sw_peak = max(r["lc_set_peak"] for r in sw)
    assert sw_peak > 10  # the candidate set is where the flood lands
    assert all(r["lc_set_peak"] == 0 for r in mw)
    print("PASS flooding: correct clients unaffected; candidate-set peak "
          "%d in sw mode vs constant state in mw mode" % sw_peak)


KILL_PLANS = {
    "safe_quorum_minus_one": dict(
        mode="sw", writers=1, faults=("byz_server:2:fabricate_candidate",)),
    "lc_non_monotone": dict(mode="mw", writers=3, readers=1),
    "clock_skip_mac": dict(
        mode="mw", writers=2, faults=("byz_server:1:fabricate_candidate",)),
    "decode_skip_cc": dict(
        mode="sw", writers=1, reads=6,
        faults=("byz_server:1:equivocate_fragments",)),
    "repair_skip_valid": dict(
        mode="mw", writers=2, reads=5,
        faults=("byz_reader:202:garbage_filter_sets",)),
    "valid_skip_nonce": dict(
        mode="sw", writers=1,
        faults=("crash_writer:101:after_complete:0",
                "byz_reader:202:garbage_filter_sets")),
}


def kill_config(mutant, seed=0):
    """The run of mutant's kill plan at seed."""
    kw = dict(writes=4, reads=4, readers=2, mutant=mutant, seed=seed)
    kw.update(KILL_PLANS[mutant])
    return SimConfig(**kw)


# What scenarios.evaluate reports for each mutant on every seed: one pattern
# per failure, in evaluate's order
_FABRICATED = r"\d+ fabricated candidates selected$"
KILLED_BY = {
    "safe_quorum_minus_one": ("client crash: ", "pow_sound: ", _FABRICATED),
    "lc_non_monotone": ("monitor: ",),
    "clock_skip_mac": ("non_skipping: ", _FABRICATED),
    "decode_skip_cc": ("linearizable: ",),
    "repair_skip_valid": ("linearizable: ", "pow_sound: "),
    "valid_skip_nonce": ("pow_sound: ",),
}


@pytest.mark.parametrize("mutant", sorted(KILL_PLANS))
def test_single_fault_variants_are_rejected(mutant):
    assert set(KILL_PLANS) == set(mutants.REGISTRY) == set(KILLED_BY)
    want = KILLED_BY[mutant]
    for seed in range(10):
        failures, _ = scenarios.evaluate(run(kill_config(mutant, seed)))
        assert (len(failures) == len(want)
                and all(map(re.match, want, failures))), (seed, failures)
    print("PASS mutant %s: rejected on 10/10 seeds, first by %s"
          % (mutant, want[0].rstrip(": ")))
