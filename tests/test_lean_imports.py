"""The pipeline imports only what a jobs=1 run uses: no numpy (the erasure
coder works on bytes), no process pool (only jobs > 1 needs one) and no
dataclasses (every record is a tuple or a slotted class)."""

import os
import subprocess
import sys

from powerstore import scenarios

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

SCRIPT = r"""
import sys

import powerstore.cli
import powerstore.scenarios
import powerstore.simnet

print(" ".join(sorted(m for m in sys.modules
                      if m in ("numpy", "concurrent.futures.process",
                               "dataclasses"))))
"""


def test_importing_the_pipeline_loads_neither_numpy_nor_a_process_pool():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_a_pooled_sweep_reports_what_a_serial_one_does():
    pairs = [scenarios.pair_for(name, seed)
             for name in ("sw-catalog", "mw-catalog") for seed in (0, 3, 4)]
    assert scenarios.run_tasks(pairs, jobs=2) == scenarios.run_tasks(pairs)
