"""The adversary's view of the wire, pinned across code versions.

Every catalog run below is made with log_wire on. Each must reproduce two
pinned digests: its log with the raw and commitment fields left out of send
events, and its client-to-server traffic as the adversary sees it (the raw
bytes of a malformed payload, a STORE's commitment, redacted where the
proof-sharing scheme keeps it confidential).

tests/wire_pins.json maps each run to both digests. A change that alters
behaviour on purpose regenerates the file and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_wire_view.py
"""

import json
import os

import pytest

from powerstore import scenarios
from powerstore.crypto import digest
from powerstore.simnet import WRITER_ID_BASE, event_to_json, run

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "wire_pins.json")
SWEEPS = {"sw-catalog": range(28), "mw-catalog": range(24)}
VIEW_FIELDS = ("raw", "commitment")
TAP_FIELDS = ("src", "dst", "nbytes", "kind") + VIEW_FIELDS


def pinned_configs():
    """Run key -> SimConfig for every pinned run."""
    configs = {}
    for sweep, seeds in SWEEPS.items():
        for pow_name in ("hash", "shamir"):
            for seed in seeds:
                _, config = scenarios.pair_for(sweep, seed, pow_name=pow_name,
                                               log_wire=True)
                configs["%s/%s/%d" % (sweep, pow_name, seed)] = config
    return configs


def _log_digest(result, lines):
    lines = [event_to_json({k: v for k, v in ev.items() if k not in VIEW_FIELDS})
             if ev["type"] == "send" else line
             for ev, line in zip(result.events, lines)]
    return digest(("\n".join(lines) + "\n").encode()).hex()


def wire_view(result):
    """What the adversary saw of each client-to-server message."""
    return [{k: ev[k] for k in TAP_FIELDS if k in ev} for ev in result.events
            if ev["type"] == "send" and ev["src"] > WRITER_ID_BASE]


def pin(result, lines):
    """The run's two digests; lines holds each event's export, in order."""
    return {"log_digest": _log_digest(result, lines),
            "wire_view": digest(event_to_json(wire_view(result)).encode()).hex()}


def _load_pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)


def test_pins_cover_every_pinned_run():
    assert sorted(_load_pins()) == sorted(pinned_configs())


@pytest.mark.parametrize("prefix", ["sw-catalog/", "mw-catalog/"])
def test_pinned_runs_reproduce_their_wire_view(prefix, event_log_pass):
    """Each pinned run is run once per session, in the pass that also checks
    its export against the reference (tests/conftest.py)."""
    pins, now = _load_pins(), event_log_pass["pins"]
    drift = [key for key in sorted(pinned_configs())
             if key.startswith(prefix) and now[key] != pins[key]]
    assert not drift, "behaviour changed on %d pinned runs, first %s" % (
        len(drift), drift[0])


if __name__ == "__main__":
    pins = {}
    for key, config in sorted(pinned_configs().items()):
        result = run(config)
        pins[key] = pin(result, map(event_to_json, result.events))
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d pins to %s" % (len(pins), PINS_PATH))
