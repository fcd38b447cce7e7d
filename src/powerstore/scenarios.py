"""Scenario catalog and sweep drivers shared by the CLI and the tests.

Each named scenario pins a workload plus a fault plan; a sweep runs it over
many seeds, applies every checker to every run, and reduces each run to a
small report record. The catalog pseudo-scenarios (sw-catalog, mw-catalog)
cycle a frozen prefix of their mode's catalog with seed-derived workload
jitter, so any single sweep member is reproducible from its seed alone.
"""

from __future__ import annotations

from typing import NamedTuple

from . import checker
from .behaviors import FAB_NUM_FLOOR
from .crypto import digest
from .simnet import SimConfig, run


class Scenario(NamedTuple):
    """What a catalog entry pins; config() adds the workload and the seed."""

    name: str
    summary: str
    mode: str
    faults: tuple = ()
    delay: str = "uniform:1,10"
    pow_name: str = ""  # pinned scheme; empty defers to the caller

    def config(self, seed, t=1, pow_name="hash", **over):
        kw = dict(mode=self.mode, pow_name=self.pow_name or pow_name, t=t,
                  writers=1 if self.mode == "sw" else 2, readers=2, writes=4,
                  reads=4, delay=self.delay, seed=seed, faults=self.faults)
        kw.update(over)
        return SimConfig(**kw)


_CATALOG = [
    Scenario("sw-baseline", "single writer, fault free", "sw"),
    Scenario("sw-pareto", "single writer under heavy-tailed delays", "sw",
             delay="pareto:20,4"),
    Scenario("sw-crash-writer", "writer dies before revealing its last write",
             "sw", faults=("crash_writer:101:after_complete:0",)),
    Scenario("sw-crash-store", "writer dies mid store round", "sw",
             faults=("crash_writer:101:after_store:2",)),
    Scenario("sw-byz-stale", "one server answers reads from time zero", "sw",
             faults=("byz_server:1:stale_lc",)),
    Scenario("sw-byz-fabricate", "one server invents colossal candidates",
             "sw", faults=("byz_server:2:fabricate_candidate",)),
    Scenario("sw-byz-equivocate", "one server garbles served fragments", "sw",
             faults=("byz_server:1:equivocate_fragments",)),
    Scenario("sw-byz-revert", "one server keeps forgetting its state", "sw",
             faults=("byz_server:3:revert_state",)),
    Scenario("sw-byz-mute", "one server never answers", "sw",
             faults=("byz_server:4:mute",)),
    Scenario("sw-garbage-readers", "byzantine reader spams forged filters",
             "sw", faults=("byz_reader:202:garbage_filter_sets",)),
    Scenario("sw-replay-readers", "byzantine reader replays old candidates",
             "sw", faults=("byz_reader:202:replayed_candidates",)),
    Scenario("sw-crash-replay", "unrevealed write plus a replaying reader",
             "sw", faults=("crash_writer:101:after_complete:0",
                           "byz_reader:202:replayed_candidates")),
    Scenario("sw-flood", "byzantine reader floods the write-back path", "sw",
             faults=("byz_reader:202:flood_writebacks",)),
    Scenario("sw-shamir", "single writer with secret-shared proofs", "sw",
             pow_name="shamir"),
    Scenario("mw-baseline", "two concurrent writers, fault free", "mw"),
    Scenario("mw-pareto", "concurrent writers under heavy-tailed delays",
             "mw", delay="pareto:20,4"),
    Scenario("mw-bigmac", "one server garbles MAC vectors, forcing repairs",
             "mw", faults=("byz_server:1:corrupt_vec",)),
    Scenario("mw-byz-fabricate", "one server invents colossal candidates",
             "mw", faults=("byz_server:2:fabricate_candidate",)),
    Scenario("mw-byz-equivocate", "one server garbles served fragments",
             "mw", faults=("byz_server:3:equivocate_fragments",)),
    Scenario("mw-byz-revert", "one server keeps forgetting its state", "mw",
             faults=("byz_server:2:revert_state",)),
    Scenario("mw-byz-mute", "one server never answers", "mw",
             faults=("byz_server:4:mute",)),
    Scenario("mw-garbage-readers", "byzantine reader spams forged traffic",
             "mw", faults=("byz_reader:202:garbage_filter_sets",)),
    Scenario("mw-replay-readers", "byzantine reader replays old candidates",
             "mw", faults=("byz_reader:202:replayed_candidates",)),
    Scenario("mw-flood", "byzantine reader floods the write-back path", "mw",
             faults=("byz_reader:202:flood_writebacks",)),
    Scenario("mw-crash-writer", "one of two writers dies mid complete", "mw",
             faults=("crash_writer:102:after_complete:1",)),
    Scenario("mw-shamir", "concurrent writers with secret-shared proofs",
             "mw", pow_name="shamir"),
]

CATALOG = {sc.name: sc for sc in _CATALOG}
# sweep -> n: it cycles its mode's first n catalog scenarios, so a scenario
# appended to the catalog moves no pinned seed and one inserted fails the pins
SWEEPS = {"sw-catalog": 14, "mw-catalog": 12}


def garbles_vectors(faults) -> bool:
    """Whether some server runs corrupt_vec: the one fault under which a
    correct reader's repair round is expected rather than a failure."""
    return any(d.startswith("byz_server:") and d.endswith(":corrupt_vec")
               for d in faults)


def fab_selects(result) -> int:
    """Selections of never-written candidates by correct readers."""
    correct = set(result.meta["correct_readers"])
    return sum(1 for ev in result.events
               if ev["type"] == "select" and ev.get("client") in correct
               and ev["ts"].num >= FAB_NUM_FLOOR)


def evaluate(result):
    """Failure strings and checker verdicts for one run, by these rules in
    order: client crash, monitor, deadlock (no events left or tick budget
    exhausted), the failing checker verdicts by name (linearizable,
    non_skipping, pow_sound, rounds), malformed history, repairs without
    vector corruption, multi-writer candidate accumulation, fabricated
    candidates selected."""
    failures = []
    if result.crash_reason is not None:
        failures.append("client crash: %s" % result.crash_reason)
    if result.monitor is not None:
        failures.append("monitor: %s" % result.monitor)
    if result.deadlock is not None:
        failures.append("deadlock: %s" % result.deadlock["reason"])
    verdicts = {}
    try:
        verdicts = checker.verify_run(result)
        for name in sorted(verdicts):
            if not verdicts[name].ok:
                failures.append("%s: %s" % (name, verdicts[name].detail))
    except checker.HistoryMalformed as exc:
        failures.append("malformed history: %s" % exc)
    if result.metrics["repairs"] and not garbles_vectors(result.config.faults):
        failures.append("repair rounds without vector corruption")
    if result.config.mode == "mw" and result.metrics["lc_set_peak"]:
        failures.append("multi-writer server accumulated %d candidates"
                        % result.metrics["lc_set_peak"])
    n_fab = fab_selects(result)
    if n_fab:
        failures.append("%d fabricated candidates selected" % n_fab)
    return failures, verdicts


def report_for(scenario, result):
    """One picklable, json-friendly record summarizing a verified run."""
    failures, verdicts = evaluate(result)
    write_rounds = sorted({rec.rounds for rec in result.history
                           if rec.kind == "write" and rec.res_seq is not None})
    read_rounds = sorted({rec.rounds for rec in result.history
                          if rec.kind == "read" and rec.res_seq is not None})
    read_values = [rec.value.hex() if rec.value is not None else None
                   for rec in result.history
                   if rec.kind == "read" and rec.res_seq is not None]
    return {
        "scenario": scenario.name,
        "seed": result.config.seed,
        "mode": result.config.mode,
        "pow": result.config.pow_name,
        "t": result.config.t,
        "failures": failures,
        "verdicts": {k: v.ok for k, v in verdicts.items()},
        "write_rounds": write_rounds,
        "read_rounds": read_rounds,
        "read_values": read_values,
        "repairs": result.metrics["repairs"],
        "lc_set_peak": result.metrics["lc_set_peak"],
        "msgs_sent": result.metrics["msgs_sent"],
        "bytes_sent": result.metrics["bytes_sent"],
        "data_bytes": result.metrics["data_bytes"],
        "completed_writes": result.metrics["completed_writes"],
        "completed_reads": result.metrics["completed_reads"],
        "dropped_malformed": result.metrics["dropped_malformed"],
        "ticks": result.metrics["ticks"],
        "signature": digest(repr(result.history_signature()).encode()).hex(),
        "log_digest": result.log_digest(),
    }


def _jitter(mode, seed):
    """Seed-derived workload for the catalog sweeps; reproducible from the
    seed alone so any sweep member can be replayed in isolation."""
    names = [sc.name for sc in _CATALOG if sc.mode == mode]
    over = {
        "writers": 1 if mode == "sw" else 1 + seed % 3,
        "readers": 2 + (seed // 3) % 4,
        "writes": 3 + seed * 7 % 18,
        "reads": 3 + seed * 11 % 18,
        "value_size": 24 + seed % 5 * 50,
    }
    name = names[seed % SWEEPS[mode + "-catalog"]]
    if "crash_writer:102" in " ".join(CATALOG[name].faults):
        over["writers"] = max(over["writers"], 2)
    t = 2 if seed % 5 == 4 else 1
    return name, t, over


def task_for(name, seed, t=None, pow_name="hash", **over):
    """(scenario, seed, t, pow_name, overrides) of one catalog run. t=None
    means the run's own t: the seed's jittered t in a catalog sweep, else 1."""
    if name in SWEEPS:
        member, member_t, jitter = _jitter(name.split("-")[0], seed)
        jitter.update(over)
        return (member, seed, member_t if t is None else t, pow_name, jitter)
    if name not in CATALOG:
        raise ValueError("unknown scenario %r" % name)
    return (name, seed, 1 if t is None else t, pow_name, over)


def pair_for(name, seed, t=None, pow_name="hash", **over):
    """(Scenario, SimConfig) of one catalog run, as task_for resolves it."""
    name, seed, t, pow_name, over = task_for(name, seed, t=t,
                                             pow_name=pow_name, **over)
    scenario = CATALOG[name]
    return scenario, scenario.config(seed, t=t, pow_name=pow_name, **over)


def _run_pair(pair):
    scenario, config = pair
    return report_for(scenario, run(config))


def run_tasks(pairs, jobs=1):
    """Reports for (Scenario, SimConfig) pairs, in order, from at most jobs
    worker processes but no more than pairs; one pair runs in-process."""
    jobs = min(jobs, len(pairs))
    if jobs <= 1:
        return [_run_pair(pair) for pair in pairs]
    # Imported here so that a jobs=1 run never pays for the pool's import.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(pairs) // (jobs * 8))
        return list(pool.map(_run_pair, pairs, chunksize=chunk))


def sweep(name, seeds, t=None, pow_name="hash", jobs=1, **over):
    """Reports for one scenario (or catalog pseudo-scenario) over seeds."""
    return run_tasks([pair_for(name, seed, t=t, pow_name=pow_name, **over)
                      for seed in seeds], jobs=jobs)
