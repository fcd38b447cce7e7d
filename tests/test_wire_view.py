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

from conftest import PinFile, sweep_configs
from powerstore.crypto import digest
from powerstore.simnet import WRITER_ID_BASE, event_to_json

SWEEPS = {"sw-catalog": range(28), "mw-catalog": range(24)}
VIEW_FIELDS = ("raw", "commitment")
TAP_FIELDS = ("src", "dst", "nbytes", "kind") + VIEW_FIELDS


def pinned_configs():
    """Run key -> SimConfig for every pinned run."""
    return sweep_configs(SWEEPS, log_wire=True)


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


# test_golden checks these pins, which the export pass makes from the lines
# it exports, so each pinned run is run once a session
WIRE = PinFile("wire_pins.json", pinned_configs, "event_log_pass",
               lambda summary, key, config: summary["pins"][key])


if __name__ == "__main__":
    from test_simnet import export_pass
    WIRE.regenerate(export_pass())
