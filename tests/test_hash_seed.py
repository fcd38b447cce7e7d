"""A run is a pure function of (config, seed): it must not change with the
interpreter's hash seed, which orders the iteration of sets of bytes-bearing
candidates. Each case runs in two interpreters with different PYTHONHASHSEED
values, and their outputs must agree."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

SCRIPT = r"""
import json

from powerstore import codec, scenarios, simnet
from powerstore.core import Candidate, Timestamp
from powerstore.crypto import digest, pow_scheme
from powerstore.erasure import Fragment
from powerstore.server import SwServer

out = {}
flood = dict(readers=4, writes=5, reads=5, adversary_budget=50,
             faults=("byz_reader:201:flood_writebacks",))
for key, name, seed, over in (("sw-catalog/0", "sw-catalog", 0, {}),
                              ("mw-catalog/3", "mw-catalog", 3, {}),
                              ("flood/0", "sw-flood", 0, flood)):
    res = simnet.run(scenarios.pair_for(name, seed, **over)[1])
    out[key] = [res.log_digest(), repr(res.history_signature()),
                res.metrics["bytes_sent"]]


def twins(num, token):
    # candidates that differ only in the MAC tag of their timestamp
    return tuple(Candidate(Timestamp(num, 0, bytes([i])), token)
                 for i in range(8))


# a byzantine reader writes tag-only twins back, then a COLLECT lists LC
srv = SwServer(1, 4, 1, scheme=pow_scheme("hash"))
srv.handle(codec.Filter(1, twins(5, b"n" * 32)), "reader")
out["collect twins"] = codec.encode(srv.handle(codec.Collect(2), "reader")).hex()

# sw validity ignores the tag, so gc finds every twin of a stored write valid,
# whether the twins are written back after the store or before it
nonce = b"\x11" * 32
store = codec.Store(Timestamp(1), Fragment(1, 3, b"abc"), (b"c",) * 4,
                    digest(nonce))
for case, steps in (("gc twins", ((store, "writer"),
                                  (codec.Filter(1, twins(1, nonce)), "reader"))),
                    ("gc twins stored late",
                     ((codec.Filter(1, twins(1, nonce)), "reader"),
                      (store, "writer")))):
    srv = SwServer(1, 4, 1, scheme=pow_scheme("hash"))
    for msg, role in steps:
        srv.handle(msg, role)
    srv.gc()
    out[case] = srv.lc.ts.tag.hex()
print(json.dumps(out))
"""

CASES = ["sw-catalog/0", "mw-catalog/3", "flood/0", "collect twins",
         "gc twins", "gc twins stored late"]


def _outputs(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def by_hash_seed():
    return [_outputs(1), _outputs(2)]


@pytest.mark.parametrize("case", CASES)
def test_outputs_do_not_depend_on_the_hash_seed(case, by_hash_seed):
    first, second = by_hash_seed
    assert first[case] == second[case]
