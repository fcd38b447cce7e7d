"""Wall-clock benchmark of powerstore's encode -> simulate -> check -> report
pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--trace 0|1]   # every workload, one process each
    python3 perfbench/run.py --repin         # rewrite pins.json on purpose

A closed loop with one caller and jobs=1: each run starts when the previous
one has been verified. The untraced mode (--trace 0) installs no wrappers; it
runs whole passes over the workload's fixed seed range, in an order rotated
by --seed, for about --seconds, with set-up probes between passes, and
reports the end-to-end metrics. The traced mode (--trace 1) runs each seed of one pass
untraced and then traced, and reports the per-layer metrics. Every
run must pass every oracle and reproduce its pinned output digest; a failure
prints the seed and a replay command, and makes the exit code 1. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

try:
    import workloads  # imports powerstore from this checkout's src/
except (ImportError, RuntimeError) as exc:
    sys.exit("error: %s" % exc)
import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    src = os.path.join(ROOT, "src")
    lines = 0
    for base, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": lines}


def setup_probe(workload):
    """Wall time from starting a fresh interpreter until it has imported the
    pipeline and built its first run's config."""
    probe = os.path.join(HERE, "probe.py")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, probe, workload],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("setup probe failed with exit code %s"
                           % proc.returncode)
    return ready - start


class Verifier:
    """Checks each finished run and remembers which seeds failed."""

    def __init__(self, workload):
        self.workload = workload
        self.pins = workloads.load_pins().get(workload.name, {})
        self.attempted = 0
        self.failed = 0
        self.reported = set()

    def check(self, seed, task, report):
        self.attempted += 1
        failures = workloads.run_failures(report, self.pins.get(str(seed)))
        if not failures:
            return True
        self.failed += 1
        if seed not in self.reported:
            self.reported.add(seed)
            print("FAIL workload %s seed %d: %s" % (
                self.workload.name, seed, "; ".join(failures)))
            print("  reproduce with: %s" % workloads.write_repro(
                self.workload.name, seed, task))
        return False


def timed(fn, task):
    start = time.perf_counter()
    report = fn(task)
    return report, time.perf_counter() - start


def reference_ms():
    """Wall time of one reference unit, in ms, after an untimed one that
    brings its code and data back into the caches the run just used."""
    calibrate.reference_unit()
    start = time.perf_counter()
    check = calibrate.reference_unit()
    wall = time.perf_counter() - start
    if check != calibrate.CHECKSUM:
        raise RuntimeError("reference unit returned %d, not %d"
                           % (check, calibrate.CHECKSUM))
    return wall * 1e3


def measure(workload, bench_seed, seconds):
    """Untraced passes over the workload's seeds; end-to-end metrics.

    Whole passes run for as long as the next one, at the last pass's pace,
    still ends within ``seconds`` of the start; there is always at least one.
    The SETUP_PROBES set-up probes are spread evenly over that time, between
    passes, and setup_s is their median. Garbage is collected before each
    run, outside its time, so every run starts from the same heap and
    peak_rss_mb is the peak of one run, not of what earlier runs left behind.
    A run is a pure function of its seed, so its cost is the fastest of its
    seed's passes: load from elsewhere on a shared machine only ever adds to
    that. A reference unit follows every run, and every cost is divided by
    how much slower than on a quiet machine the fastest of those ran
    (calibrate.py). Every metric but setup_s and peak_rss_mb is taken over
    these scaled run costs."""
    start = time.perf_counter()
    deadline = start + seconds
    verifier = Verifier(workload)
    order = workload.order(bench_seed)
    walls = {seed: [] for seed in order}
    refs_ms = []
    probes = []
    ops = {}
    digests = {}
    passes = 0
    last_pass_s = 0.0
    while passes == 0 or time.perf_counter() + last_pass_s <= deadline:
        pass_start = time.perf_counter()
        while (len(probes) < SETUP_PROBES and time.perf_counter()
               >= start + len(probes) * seconds / SETUP_PROBES):
            probes.append(setup_probe(workload.name))
        for seed in order:
            task = workload.task(seed)
            gc.collect()
            report, wall = timed(workloads.run_task, task)
            refs_ms.append(reference_ms())
            walls[seed].append(wall)
            ops[seed] = report["completed_writes"] + report["completed_reads"]
            verifier.check(seed, task, report)
            digests[seed] = workloads.output_digest(report)
        passes += 1
        last_pass_s = time.perf_counter() - pass_start
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload.name))
    slowdown = min(refs_ms) / calibrate.QUIET_MS
    raw_ms = [min(walls[seed]) * 1e3 for seed in order]
    cost_ms = [ms / slowdown for ms in raw_ms]
    pass_s = sum(cost_ms) / 1e3
    metrics = {
        "runs_per_s": (len(order) / pass_s, "1/s"),
        "ops_per_s": (sum(ops.values()) / pass_s, "1/s"),
        "run_ms_p50": (statistics.median(cost_ms), "ms"),
        "run_ms_tail": (max(cost_ms), "ms"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {
        "run_ms_tail": "cost of the slowest of %d seeds; %d runs (%d passes)"
                       % (len(order), len(order) * passes, passes),
        "slowdown": "%.4f (fastest of %d reference units %.3f ms, quiet %.1f ms)"
                    % (slowdown, len(refs_ms), min(refs_ms), calibrate.QUIET_MS),
        "unscaled_run_ms_p50": round(statistics.median(raw_ms), 4),
        "failed_runs": "%d of %d runs attempted" % (verifier.failed,
                                                    verifier.attempted),
        "digest": workloads.sequence_digest(
            [digests[seed] for seed in workload.seeds]),
    }
    return verifier, metrics, notes


def measure_traced(workload, bench_seed):
    """Each seed of one pass untraced, then traced; per-layer metrics.

    The two runs of a seed follow each other, so drift in the machine's
    speed affects both sides of trace.overhead_ratio alike."""
    from tracing import LAYERS, NOT_MEASURED, Tracer

    verifier = Verifier(workload)
    seeds = workload.order(bench_seed)
    tracer = Tracer()
    pipeline = tracer.wrap(workloads.run_task, "pipeline")
    plain, traced, reports = [], [], []
    untraced_wall = traced_wall = 0.0
    os.makedirs(workloads.OUT, exist_ok=True)
    spans_path = os.path.join(workloads.OUT, "%s-seed%d.spans.csv.gz"
                              % (workload.name, bench_seed))
    with gzip.open(spans_path, "wt", compresslevel=1) as fh:
        fh.write("seed,index,name,start,end,parent,label,amount\n")
        for seed in seeds:
            task = workload.task(seed)
            report, wall = timed(workloads.run_task, task)
            untraced_wall += wall
            verifier.check(seed, task, report)
            plain.append(workloads.output_digest(report))
            with tracer:
                report, wall = timed(pipeline, task)
            traced_wall += wall
            tracer.write_spans(fh, seed)
            tracer.fold()
            verifier.check(seed, task, report)
            reports.append(report)
            traced.append(workloads.output_digest(report))
    if traced != plain:
        verifier.failed += 1
        print("FAIL workload %s: traced outputs differ from untraced ones"
              % workload.name)

    metrics = tracer.metrics(reports, traced_wall, untraced_wall)
    layer = tracer.layer_self()
    notes = {
        "runs": "%d seeds traced: %s" % (len(seeds), seeds),
        "digest": "untraced %s, traced %s" % (
            workloads.sequence_digest(plain), workloads.sequence_digest(traced)),
        "layer_self_share": {name: round(layer[name] / traced_wall, 4)
                             for name in LAYERS},
        "checker_share_of_untraced_wall": round(
            metrics["checker.verify_s"][0] / untraced_wall, 4),
        "spans": os.path.relpath(spans_path),
        "not_measured": NOT_MEASURED,
    }
    return verifier, metrics, notes


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def run_one(args, spec):
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print("workload %s: %s" % (workload.name, workload.why))
    print("env %s" % json.dumps(env, sort_keys=True))
    if args.trace:
        verifier, metrics, notes = measure_traced(workload, args.seed)
        wanted = spec["per_layer"]
    else:
        verifier, metrics, notes = measure(workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    for name, (value, unit) in metrics.items():
        print("  %-34s %14s %s" % (name, fmt(value), unit))
    print("  %-34s %14s count  (%s)" % ("failed_runs", verifier.failed,
                                       notes.get("failed_runs", "")))
    for key, value in notes.items():
        if key != "failed_runs":
            print("  %s: %s" % (key, value))
    result = {"correct": verifier.failed == 0, "attempted": verifier.attempted,
              "failed": verifier.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                      "unit": m["unit"]} for m in wanted}}
    missing = [m["name"] for m in wanted if result["metrics"][m["name"]]["value"] is None]
    if missing:
        raise RuntimeError("no value for %s" % ", ".join(missing))
    os.makedirs(workloads.OUT, exist_ok=True)
    with open(os.path.join(workloads.OUT, "%s-seed%d-trace%d.json" % (
            workload.name, args.seed, args.trace)), "w") as fh:
        json.dump({"env": env, "workload": workload.name, "seed": args.seed,
                   "result": result, "notes": notes,
                   "all_metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines:
            rows.append((name, json.loads(lines[-1])))
    print("summary")
    for name, result in rows:
        metrics = result["metrics"] if not args.trace else {}
        print("  %-10s failed %d of %d  %s" % (
            name, result["failed"], result["attempted"], "  ".join(
                "%s=%s %s" % (k, fmt(v["value"]), v["unit"])
                for k, v in metrics.items())))
    return status


def repin():
    """Pin every seed's output digest; refuses to pin a failing run."""
    pins = {}
    for workload in workloads.WORKLOADS.values():
        pins[workload.name] = {}
        for seed in workload.seeds:
            report = workloads.run_task(workload.task(seed))
            if report["failures"]:
                raise RuntimeError("%s seed %d fails: %s" % (
                    workload.name, seed, report["failures"]))
            pins[workload.name][str(seed)] = workloads.output_digest(report)
    with open(workloads.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("pinned %s" % ", ".join("%s: %d seeds" % (k, len(v))
                                  for k, v in pins.items()))
    return 0


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args(argv)
    if args.repin:
        return repin()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r" % args.workload)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
