"""Behaviour pins across code versions: pinned (scenario, pow, seed) runs must
reproduce their history signature, log digest and metrics exactly.

tests/golden_pins.json maps each run to all three digests. A change that alters
behaviour on purpose regenerates the file and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import pytest

from test_acceptance import KILL_PLANS
from powerstore import scenarios
from powerstore.crypto import digest
from powerstore.simnet import SimConfig, run

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "golden_pins.json")
SEEDS = range(25)


def _mutant_config(mutant):
    kw = dict(writes=4, reads=4, readers=2)
    kw.update(KILL_PLANS[mutant])
    return SimConfig(mutant=mutant, seed=0, **kw)


def partial_reveal_configs():
    """Runs whose crashed writer reveals its last write to k of the servers,
    so some correct servers adopt the pending write through gc."""
    configs = {}
    for k in (1, 2, 3):
        for seed in range(3):
            configs["partial-reveal/%d/%d" % (k, seed)] = scenarios.pair_for(
                "sw-crash-writer", seed, writes=3, reads=6, readers=3,
                faults=("crash_writer:101:after_complete:%d" % k,))[1]
    return configs


def deadlock_configs():
    """Runs with two mute servers of four: no quorum, so each ends in a
    deadlock report that lists the pending operations."""
    return {"deadlock/%s/%d" % (mode, seed): SimConfig(
                mode=mode, writers=1 if mode == "sw" else 2, seed=seed,
                faults=("byz_server:1:mute", "byz_server:2:mute"))
            for mode in ("sw", "mw") for seed in (0, 1)}


def pinned_configs():
    """Run key -> SimConfig for every pinned run."""
    configs = {}
    for sweep in scenarios.SWEEPS:
        for pow_name in ("hash", "shamir"):
            for seed in SEEDS:
                configs["%s/%s/%d" % (sweep, pow_name, seed)] = \
                    scenarios.pair_for(sweep, seed, pow_name=pow_name)[1]
    for mutant in sorted(KILL_PLANS):
        configs["mutant/%s/0" % mutant] = _mutant_config(mutant)
    configs.update(partial_reveal_configs())
    configs.update(deadlock_configs())
    return configs


def pin(config):
    result = run(config)
    return {"signature": digest(repr(result.history_signature()).encode()).hex(),
            "log_digest": result.log_digest(),
            "metrics": digest(repr(sorted(result.metrics.items())).encode()).hex()}


def _load_pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)


def test_pins_cover_every_pinned_run():
    assert sorted(_load_pins()) == sorted(pinned_configs())


@pytest.mark.parametrize("prefix", ["sw-catalog/", "mw-catalog/", "mutant/",
                                    "partial-reveal/", "deadlock/"])
def test_pinned_runs_reproduce_their_digests(prefix):
    pins = _load_pins()
    drift = [key for key, config in sorted(pinned_configs().items())
             if key.startswith(prefix) and pin(config) != pins[key]]
    assert not drift, "behaviour changed on %d pinned runs, first %s" % (
        len(drift), drift[0])


def test_a_scenario_appended_to_the_catalog_moves_no_sweep_seed(monkeypatch):
    """Each catalog sweep resolves seeds 0-999 to the same (Scenario,
    SimConfig) pairs after one scenario per mode is appended to the
    catalog, so a new scenario leaves every pin of both sweeps standing."""
    sweeps, seeds = ("sw-catalog", "mw-catalog"), range(1000)
    before = {sweep: [scenarios.pair_for(sweep, seed) for seed in seeds]
              for sweep in sweeps}
    appended = [scenarios.Scenario(mode + "-appended", "added after the "
                                   "freeze", mode, delay="pareto:20,4")
                for mode in ("sw", "mw")]
    monkeypatch.setattr(scenarios, "_CATALOG", scenarios._CATALOG + appended)
    monkeypatch.setattr(scenarios, "CATALOG", {
        **scenarios.CATALOG, **{sc.name: sc for sc in appended}})
    for sweep in sweeps:
        assert [scenarios.pair_for(sweep, seed) for seed in seeds] == \
            before[sweep]


if __name__ == "__main__":
    pins = {key: pin(config) for key, config in sorted(pinned_configs().items())}
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d pins to %s" % (len(pins), PINS_PATH))
