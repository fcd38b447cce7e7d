"""The benchmark's tracer still fits the program: every name it wraps exists,
a traced pass over every workload reproduces its pinned outputs, and every
per-layer metric BENCHMARK.json lists gets a value. perfbench/ is only
imported, never written (no bytecode is cached there)."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _import_tracing():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = saved
    return tracing, workloads


@pytest.fixture(scope="module")
def traced_flood():
    """One traced flood seed: the tracer, its report and the seed's pin."""
    tracing, workloads = _import_tracing()
    from powerstore import codec, server
    decode, handle = codec.decode, server.ServerBase.handle
    flood = workloads.WORKLOADS["flood"]
    seed = flood.seeds[0]
    tracer = tracing.Tracer()
    with tracer:
        assert codec.decode is not decode
        report = tracer.wrap(workloads.run_task, "pipeline")(flood.task(seed))
    assert codec.decode is decode and server.ServerBase.handle is handle
    pin = workloads.load_pins()["flood"][str(seed)]
    tracer.fold()
    metrics = {k: v[0] for k, v in tracer.metrics([report], 1.0, 1.0).items()}
    return workloads, report, pin, metrics


def test_a_traced_flood_seed_matches_its_pin(traced_flood):
    workloads, report, pin, metrics = traced_flood
    assert workloads.run_failures(report, pin) == []
    # every copy the run sends is delivered and decoded once
    assert metrics["codec.decode_calls"] == report["msgs_sent"]
    assert metrics["codec.cands_decoded"] > 0
    assert metrics["server.handle_calls"] > 0


def test_flood_predicates_stay_off_the_per_candidate_path(traced_flood):
    # deterministic counts, not timings: re-validating all of LC, or judging
    # invalid candidate by candidate, makes each count grow with |LC| per
    # message (about 8,700 validity and 3,000 invalid calls on this seed)
    _, _, _, metrics = traced_flood
    assert metrics["core.valid_calls"] <= metrics["server.handle_calls"]
    assert metrics["core.invalid_calls"] <= metrics["client.on_message_calls"]


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


@pytest.fixture(scope="module")
def traced_passes():
    """One traced pass over every workload's seeds, as ``run.py --trace 1``
    makes it: workload -> (failures per seed, per-layer metrics)."""
    tracing, workloads = _import_tracing()
    pins = workloads.load_pins()
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        tracer = tracing.Tracer()
        pipeline = tracer.wrap(workloads.run_task, "pipeline")
        failures, reports = {}, []
        for seed in workload.seeds:
            with tracer:
                report = pipeline(workload.task(seed))
            tracer.fold()
            reports.append(report)
            failed = workloads.run_failures(report, pins[name].get(str(seed)))
            if failed:
                failures[seed] = failed
        metrics = tracer.metrics(reports, 1.0, 1.0)
        out[name] = failures, {k: v[0] for k, v in metrics.items()}
    return out


def test_every_traced_run_matches_its_pin(traced_passes):
    assert {name: failures for name, (failures, _) in traced_passes.items()
            if failures} == {}


def test_every_per_layer_metric_has_a_value_on_every_workload(traced_passes):
    # run.py --trace 1 exits 1 when a per-layer metric BENCHMARK.json lists
    # reads None, e.g. a message kind that is no longer encoded or decoded
    names = _per_layer_names()
    missing = {workload: [n for n in names if metrics.get(n) is None]
               for workload, (_, metrics) in traced_passes.items()}
    assert {k: v for k, v in missing.items() if v} == {}
