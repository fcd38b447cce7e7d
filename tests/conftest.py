"""Fixtures and harnesses shared by more than one test module.

outputs(config, table=None, digest_kinds=()) is run_outputs behind a session
table keyed by (config, digest_kinds), so the golden pins and the literal-LC
and literal-reader differentials simulate each unpatched config once. The
table keeps a run only if no table was passed and every attribute of every
powerstore module and class, dunders included, and every mutants.CLASSES
entry is still the object it was when the session began. __slotnames__ is
left out: copyreg caches it on a class the first time it pickles one, as a
sweep's worker pool does. Any other call runs afresh and stores nothing; a
hit is a copy that shares nothing with the table.
"""

import copy
import hashlib
import importlib
import json
import pkgutil
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import powerstore
from powerstore import codec, mutants, scenarios, simnet

# the replies whose wires the differentials digest: a COLLECT_ACK's list
# and a REPAIR's vector show in no log event
DIGESTED = (codec.COLLECT_ACK, codec.REPAIR)
MODULES = [powerstore, *(importlib.import_module("powerstore." + m.name)
                         for m in pkgutil.iter_modules(powerstore.__path__))]
WATCHED = [*map(vars, MODULES), mutants.CLASSES, *mutants.CLASSES.values(),
           *map(vars, {v for m in MODULES for v in vars(m).values()
                       if isinstance(v, type)
                       and v.__module__.startswith("powerstore")})]


def _bindings():
    return {(i, name): obj for i, space in enumerate(WATCHED)
            for name, obj in space.items() if name != "__slotnames__"}


START = _bindings()


def unpatched():
    now = _bindings()
    return now.keys() == START.keys() and all(
        now[k] is obj for k, obj in START.items())


def run_outputs(config, table=None, digest_kinds=()):
    """Run config and give its log digest, history signature and metrics,
    and the sha256 of every wire it encoded of a kind in digest_kinds, in
    encode order: a wire can carry what no log event shows, such as a
    REPAIR's vector. table, if given, replaces the run's codec table, which
    starts empty."""
    sim = simnet.Simulation(config)
    assert sim._table == {}
    if table is not None:
        sim._table = table
    wires = hashlib.sha256()
    real = codec.encode

    def encode(msg, *rest):
        wire = real(msg, *rest)
        if msg.kind in digest_kinds:
            wires.update(wire)
        return wire

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "encode", encode)
        res = sim.run()
    return (res.log_digest(), res.history_signature(), dict(res.metrics),
            wires.hexdigest())


@pytest.fixture(scope="session")
def outputs():
    def get(config, table=None, digest_kinds=()):
        if table is not None or not unpatched():
            return run_outputs(config, table, digest_kinds)
        key = config, digest_kinds
        if key not in get.made:
            get.made[key] = run_outputs(config, digest_kinds=digest_kinds)
        return copy.deepcopy(get.made[key])

    get.made = {}  # the table
    return get


@pytest.fixture(scope="session")
def event_log_pass():
    """test_simnet's export pass, made once per session: test_simnet checks
    its reference export and census, test_golden the wire pins."""
    from test_simnet import export_pass
    return export_pass()


def sweep_configs(seeds, **kw):
    """Run key "<sweep>/<pow>/<seed>" -> SimConfig, for seeds[sweep] of each
    sweep under both proof schemes, pair_for's knobs set as kw sets them."""
    return {"%s/%s/%d" % (sweep, pow_name, seed): scenarios.pair_for(
                sweep, seed, pow_name=pow_name, **kw)[1]
            for sweep in seeds for pow_name in ("hash", "shamir")
            for seed in seeds[sweep]}


class PinFile(NamedTuple):
    """tests/<name>: run key -> the digests of each run configs() names,
    which pin(value, key, config) gives from the value of the session
    fixture named fixture. test_golden checks each file, by key prefix. A
    change that alters behaviour on purpose regenerates it, and says why in
    CHANGES.md: PYTHONPATH=src python tests/<module that declares it>.py"""

    name: str
    configs: Callable
    fixture: str
    pin: Callable

    def prefixes(self):
        return sorted({key.split("/")[0] + "/" for key in self.configs()})

    def __str__(self):
        return self.name

    def load(self):
        return json.loads(Path(__file__).with_name(self.name).read_text())

    def regenerate(self, value):
        pins = {key: self.pin(value, key, config)
                for key, config in sorted(self.configs().items())}
        path = Path(__file__).with_name(self.name)
        path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print("wrote %d pins to %s" % (len(pins), path))
