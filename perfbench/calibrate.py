"""How fast this machine runs Python right now, from a fixed reference unit.

On a shared machine the same pure-Python work runs up to 2x slower while
other tenants are busy, and its fastest time over half a minute still moves
by up to 20% with them. Interpreter-bound work mostly slows alike, so run.py
times this reference unit between the program's runs and scales the
program's times by how much slower the reference ran than it does on a quiet
machine. The unit imitates what a simulated run does: frozen records, struct
packing, SHA-256, an event heap, dicts, sets and sorting. It uses nothing
from powerstore, so no change to the program moves it.

The unit and QUIET_MS define the scale of every reported time: changing
either changes every figure, so they stay as they are.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from dataclasses import dataclass

# About the fastest time of reference_unit() on a quiet 2-CPU x86-64 VM with
# Python 3.11.7 (3.85-3.96 ms).
QUIET_MS = 4.0
CHECKSUM = 7861


@dataclass(frozen=True)
class _Record:
    ts: int
    sender: int
    body: bytes


def reference_unit():
    """One fixed unit of interpreter-bound work; returns a checksum."""
    state = 0x2545F491
    queue = []
    seen = {}
    tags = set()
    for i in range(1200):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        body = struct.pack(">IHQ", i, state & 0xFFFF, state * 31)
        heapq.heappush(queue, (state % 977, i, _Record(state % 977, i % 7, body)))
    out = []
    while queue:
        tick, _, rec = heapq.heappop(queue)
        digest = hashlib.sha256(rec.body).digest()
        ts, low, wide = struct.unpack(">IHQ", rec.body)
        key = (rec.sender, low & 63)
        seen[key] = max(seen.get(key, (0, b""))[0], ts), digest[:8]
        tags.add(digest[:2])
        out.append((low, tick, digest[:4]))
    out.sort()
    joined = b"".join(part for _, _, part in out)
    return (len(tags) + len(seen) + sum(joined[::97])) & 0xFFFFFFFF
