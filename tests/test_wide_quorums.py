"""The paper claims optimal resilience, 3t+1 servers for any t. Both catalog
sweeps must pass every oracle beyond the t they usually run at: t = 3, 4 and
8 over a range of seeds of each catalog, and one seed of each at t = 33, the
widest deployment whose server ids stay below the writers'. At t = 33 an mw
candidate carries a 100-slot MAC vector."""

import pytest

from powerstore import scenarios, simnet

SEEDS = (("sw-catalog", range(14)), ("mw-catalog", range(12)))
RUNS = ([(sweep, t, seeds) for t in (3, 4, 8) for sweep, seeds in SEEDS]
        + [(sweep, 33, [1]) for sweep, _ in SEEDS])


@pytest.mark.parametrize("sweep,t,seeds", RUNS,
                         ids=["%s-t%d" % (sweep, t) for sweep, t, _ in RUNS])
def test_catalog_runs_pass_every_oracle_at_wide_t(sweep, t, seeds):
    bad = []
    for seed in seeds:
        failures, _ = scenarios.evaluate(
            simnet.run(scenarios.pair_for(sweep, seed, t=t)[1]))
        if failures:
            bad.append("powerstore replay --scenario %s --seed %d --t %d: %s"
                       % (sweep, seed, t, failures[0]))
    assert not bad, "%d failing runs, first: %s" % (len(bad), bad[0])
