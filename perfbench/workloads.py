"""The benchmark's workloads and the one pipeline every run goes through.

A run is what ``powerstore run --jobs 1`` does for one seed: build the task
with ``scenarios.task_for``, simulate it with ``simnet.run`` and verify and
summarise it with ``scenarios.report_for``. Each workload owns a fixed,
contiguous range of simulation seeds. Every run's outputs are reduced to a
digest and compared with the value pinned for that (workload, seed) in
``pins.json``, so a speed-up that changes any simulated result fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
OUT = os.path.join(HERE, "out")


class MissingProgram(RuntimeError):
    """The checkout holds no powerstore sources to benchmark."""


def import_powerstore():
    """Import powerstore from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "powerstore", "__init__.py")):
        raise MissingProgram("no powerstore package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import powerstore
    if os.path.dirname(os.path.abspath(powerstore.__file__)) != os.path.join(SRC, "powerstore"):
        raise MissingProgram("powerstore was imported from %s, not %s"
                             % (powerstore.__file__, SRC))


import_powerstore()

from powerstore import scenarios, simnet  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str  # a catalog scenario or a catalog sweep name
    seeds: range  # the fixed simulation seeds one pass covers
    over: dict = field(default_factory=dict)

    def task(self, seed):
        return scenarios.task_for(self.scenario, seed, **self.over)

    def order(self, bench_seed):
        """All of the workload's seeds, rotated by the benchmark seed."""
        seeds = list(self.seeds)
        k = bench_seed % len(seeds)
        return seeds[k:] + seeds[:k]


# A run is a pure function of its seed, and on a shared machine its wall time
# is its cost plus whatever other tenants add: on a 2-CPU VM the same work
# runs up to 2x slower at times. The fastest of many passes finds the cost,
# and the shorter a run the more of the slowdown its fastest pass escapes, so
# ranges are small, runs short and passes many: 28 = 2 x 14 sw scenarios and
# 24 = 2 x 12 mw scenarios, each met twice, t=2 on every fifth seed. flood
# and contended are sized to about 0.1 s a run: flood keeps the budget of 50
# write-backs (LC peak 186-202) but has 5 ops a client, and contended has 8
# writers but 4 ops a client, which keeps the linearizability checker at
# well over half of its time. Their nine and eight seeds keep the median
# from resting on one or two seeds' fastest times.
WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-sw",
        "sw-catalog sweep as run and tier-1 use it; codec-bound, small values",
        "sw-catalog", range(28)),
    Workload(
        "sweep-mw",
        "mw-catalog sweep: clock round, MAC vectors, repairs, O(1) server state",
        "mw-catalog", range(24)),
    Workload(
        "flood",
        "sw, a flooding reader, budget 50, 5 ops a client: long candidate lists",
        "sw-flood", range(9),
        over=dict(readers=4, writes=5, reads=5, adversary_budget=50,
                  faults=("byz_reader:201:flood_writebacks",))),
    Workload(
        "contended",
        "mw, 8 writers + 8 readers, 4 ops each, pareto delays: checker-bound",
        "mw-pareto", range(8),
        over=dict(writers=8, readers=8, writes=4, reads=4)),
)}


def config_for(task):
    name, seed, t, pow_name, over = task
    return scenarios.CATALOG[name].config(seed, t=t, pow_name=pow_name, **over)


def run_task(task):
    """One verified run through the public API; returns its report."""
    name, seed, t, pow_name, over = task
    scenario = scenarios.CATALOG[name]
    result = simnet.run(scenario.config(seed, t=t, pow_name=pow_name, **over))
    return scenarios.report_for(scenario, result)


def output_digest(report) -> str:
    """Digest of what a run must reproduce exactly, whatever the speed."""
    text = "%s|%s|%d|%d|%d" % (report["signature"], report["log_digest"],
                               report["ticks"], report["msgs_sent"],
                               report["bytes_sent"])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sequence_digest(digests) -> str:
    """One digest over several runs' output digests, in order."""
    return hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]


def load_pins():
    with open(PINS) as fh:
        return json.load(fh)


def run_failures(report, pin):
    """Why a finished run counts as failed; empty when it is correct."""
    failures = list(report["failures"])
    got = output_digest(report)
    if pin is None:
        failures.append("no pinned digest for this seed")
    elif got != pin:
        failures.append("output digest %s differs from pinned %s" % (got, pin))
    return failures


def write_repro(workload, seed, task):
    """Write the failing run's config; return the command that replays it."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "fail-%s-%d.cfg" % (workload, seed))
    with open(path, "w") as fh:
        fh.write(simnet.format_config(config_for(task)))
    return "powerstore replay --config %s --seed %d" % (os.path.relpath(path),
                                                        seed)
