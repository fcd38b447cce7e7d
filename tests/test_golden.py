"""Behaviour pins across code versions: each pinned run of each pin file
(tests/conftest.py's PinFile) must reproduce its digests exactly.

tests/golden_pins.json maps each run below to its history signature, log
digest and metrics. A change that alters behaviour on purpose regenerates
the file and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import pytest

from conftest import DIGESTED, PinFile, sweep_configs
from test_acceptance import KILL_PLANS, kill_config
from test_wire_view import WIRE
from powerstore import scenarios
from powerstore.crypto import digest
from powerstore.simnet import SimConfig


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
    configs = sweep_configs(dict.fromkeys(scenarios.SWEEPS, range(25)))
    for mutant in sorted(KILL_PLANS):
        configs["mutant/%s/0" % mutant] = kill_config(mutant)
    configs.update(partial_reveal_configs())
    configs.update(deadlock_configs())
    return configs


def pin(outputs, key, config):
    """The run's three digests, from tests/conftest.py's outputs."""
    log_digest, signature, metrics, _ = outputs(config, digest_kinds=DIGESTED)
    return {"signature": digest(repr(signature).encode()).hex(),
            "log_digest": log_digest,
            "metrics": digest(repr(sorted(metrics.items())).encode()).hex()}


GOLDEN = PinFile("golden_pins.json", pinned_configs, "outputs", pin)
PIN_FILES = (GOLDEN, WIRE)


@pytest.mark.parametrize("pins", PIN_FILES, ids=str)
def test_pins_cover_every_pinned_run(pins):
    assert sorted(pins.load()) == sorted(pins.configs())


@pytest.mark.parametrize("pins,prefix", [
    (pins, prefix) for pins in PIN_FILES for prefix in pins.prefixes()],
    ids=str)
def test_pinned_runs_reproduce_their_digests(pins, prefix, request):
    value, want = request.getfixturevalue(pins.fixture), pins.load()
    drift = [key for key, config in sorted(pins.configs().items())
             if key.startswith(prefix)
             and pins.pin(value, key, config) != want[key]]
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
    from conftest import run_outputs
    GOLDEN.regenerate(run_outputs)
