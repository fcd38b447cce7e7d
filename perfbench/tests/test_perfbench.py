"""Tests of the benchmark's own code: span arithmetic, wrapper removal, the
output check, the result line, and one seed of every workload.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from powerstore import scenarios  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("c", 8.0, 9.5, 0),  # overlaps b: covered time counts once
        span("d", 9.8, 11.0, 0),  # runs past its parent: clipped
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - 3 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2])


def test_self_time_of_a_lone_span_is_its_duration():
    assert tracing.self_times([span("x", 2.0, 2.5, -1)]) == [0.5]


def test_reference_unit_is_unchanged():
    assert calibrate.reference_unit() == calibrate.CHECKSUM


def _bindings():
    """Every attribute of the package's modules and wrapped classes."""
    seen = {}
    for mod in tracing._package_modules():
        seen.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls, attr, *_ in tracing.Tracer()._methods():
        seen[(cls.__qualname__, attr)] = vars(cls)[attr]
    return seen


def test_uninstall_restores_every_wrapped_name():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        with tracer:
            during = _bindings()
            raise KeyError("leave the block by an exception")
    changed = {key for key in before if during[key] is not before[key]}
    # functions are wrapped wherever `from x import y` bound them
    for key in [("powerstore.codec", "encode"), ("powerstore.client", "ec_encode"),
                ("powerstore.client", "invalid"), ("powerstore.scenarios", "digest"),
                ("powerstore.server", "valid_by_hist"), ("ServerBase", "handle"),
                ("Simulation", "schedule"), ("ByzReader", "pump")]:
        assert key in changed
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert not tracer._patches


def test_a_run_fails_when_its_digest_differs_from_the_pin():
    report = {"failures": [], "signature": "ab", "log_digest": "cd",
              "ticks": 1, "msgs_sent": 2, "bytes_sent": 3}
    good = workloads.output_digest(report)
    assert workloads.run_failures(report, good) == []
    assert "differs from pinned" in workloads.run_failures(report, "0" * 16)[0]
    assert workloads.run_failures(report, None) == [
        "no pinned digest for this seed"]
    report["failures"] = ["linearizable: no linearization"]
    assert workloads.run_failures(report, good) == report["failures"]


def test_repro_config_keeps_the_adversary_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT", str(tmp_path))
    flood = workloads.WORKLOADS["flood"]
    cmd = workloads.write_repro("flood", 2, flood.task(2))
    path = cmd.split("--config ")[1].split()[0]
    text = open(path).read()
    assert "adversary_budget=50" in text and "seed=2" in text
    assert cmd.startswith("powerstore replay --config ")
    assert cmd.endswith("--seed 2")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_seed_of_each_workload_is_correct_traced_and_untraced(name):
    workload = workloads.WORKLOADS[name]
    seed = workload.seeds[0]
    task = workload.task(seed)
    pin = workloads.load_pins()[name][str(seed)]
    plain = workloads.run_task(task)
    assert workloads.run_failures(plain, pin) == []

    tracer = tracing.Tracer()
    before = _bindings()
    with tracer:
        traced = tracer.wrap(workloads.run_task, "pipeline")(task)
    assert all(_bindings()[key] is before[key] for key in before)
    assert workloads.output_digest(traced) == workloads.output_digest(plain)

    roots = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["pipeline"]
    tracer.fold()
    metrics = tracer.metrics([traced], 1.0, 1.0)
    assert metrics["codec.encode_calls"][0] == plain["msgs_sent"]
    assert metrics["simnet.msgs_sent"][0] == plain["msgs_sent"]
    assert metrics["checker.linearizable_s"][0] > 0
    layers = tracer.layer_self()
    total = sum(layers.values())
    wall = tracer.total["pipeline"]
    assert total == pytest.approx(wall, rel=1e-6)


def test_workload_seed_ranges_are_pinned_and_start_from_the_catalog():
    pins = workloads.load_pins()
    for name, workload in workloads.WORKLOADS.items():
        assert sorted(pins[name], key=int) == [str(s) for s in workload.seeds]
        assert workload.task(workload.seeds[0])[0] in scenarios.CATALOG
        assert sorted(workload.order(7)) == list(workload.seeds)


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def test_result_line_has_every_end_to_end_metric():
    proc = _bench(["--workload", "contended", "--seed", "3", "--seconds", "1",
                   "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS["contended"].seeds)
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "flood", "--seed", "0", "--seconds", "20",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no powerstore package" in proc.stderr
