"""Set-up probe: import the pipeline and build the first run's config.

run.py starts this in a fresh interpreter and times it up to the "ready"
line, so set-up time covers interpreter start, imports and table builds.
"""

import sys

import workloads

workload = workloads.WORKLOADS[sys.argv[1]]
workloads.config_for(workload.task(workload.seeds[0]))
print("ready", flush=True)
