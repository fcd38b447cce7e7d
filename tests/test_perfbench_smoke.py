"""The benchmark's tracer still fits the program: every name it wraps exists,
and a traced flood seed reproduces its pinned output. perfbench/ is only
imported, never written (no bytecode is cached there)."""

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
    # decodes are counted once per distinct wire in flight, not per delivery
    assert 0 < metrics["codec.decode_calls"] < report["msgs_sent"]
    assert metrics["codec.cands_decoded"] > 0
    assert metrics["server.handle_calls"] > 0


def test_flood_predicates_stay_off_the_per_candidate_path(traced_flood):
    # deterministic counts, not timings: re-validating all of LC, or judging
    # invalid candidate by candidate, makes each count grow with |LC| per
    # message (about 8,700 validity and 3,000 invalid calls on this seed)
    _, _, _, metrics = traced_flood
    assert metrics["core.valid_calls"] <= metrics["server.handle_calls"]
    assert metrics["core.invalid_calls"] <= metrics["client.on_message_calls"]
