"""The benchmark's tracer still fits the program: every name it wraps exists,
and a traced flood seed reproduces its pinned output. perfbench/ is only
imported, never written (no bytecode is cached there)."""

import os
import sys

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


def test_a_traced_flood_seed_matches_its_pin():
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
    assert workloads.run_failures(report, pin) == []
    tracer.fold()
    metrics = tracer.metrics([report], 1.0, 1.0)
    # decodes are counted once per distinct wire in flight, not per delivery
    assert 0 < metrics["codec.decode_calls"][0] < report["msgs_sent"]
    assert metrics["codec.cands_decoded"][0] > 0
    assert metrics["server.handle_calls"][0] > 0
