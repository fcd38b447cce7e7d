"""End-to-end command line behavior, in process via main(argv)."""

import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from test_golden import PINS_PATH
from powerstore import scenarios
from powerstore.cli import main
from powerstore.simnet import SimConfig, format_config, parse_config, run


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fault_free_sweep_passes(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "sw-baseline",
                           "--seeds", "5")
    assert code == 0
    assert "PASS" in out and "write rounds 2" in out and "read rounds 2" in out


def test_vector_corruption_sweep_repairs_and_passes(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "mw-bigmac",
                           "--seeds", "12")
    assert code == 0 and "PASS" in out
    repairs = int(out.split("repairs ")[1].split()[0])
    assert repairs > 0
    assert "read rounds 2,3" in out


def test_sweep_records_are_newline_delimited_json(tmp_path, capsys):
    out_path = tmp_path / "sweep.ndjson"
    code, _, _ = run_cli(capsys, "run", "--scenario", "sw-baseline",
                         "--seeds", "3", "--out", str(out_path))
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["seed"] for r in records] == [0, 1, 2]
    assert all(not r["failures"] for r in records)
    assert all(r["verdicts"]["linearizable"] for r in records)


def test_replay_reproduces_the_log(tmp_path, capsys):
    p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    code1, out1, _ = run_cli(capsys, "replay", "--seed", "7", "--scenario",
                             "mw-bigmac", "--out", str(p1))
    code2, out2, _ = run_cli(capsys, "replay", "--seed", "7", "--scenario",
                             "mw-bigmac", "--out", str(p2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert p1.read_bytes() == p2.read_bytes()
    assert "log digest" in out1


def test_catalog_pseudo_scenario_seed_is_replayable(capsys):
    _, out1, _ = run_cli(capsys, "replay", "--seed", "5", "--scenario",
                         "sw-catalog")
    _, out2, _ = run_cli(capsys, "replay", "--seed", "5", "--scenario",
                         "sw-catalog")
    assert out1 == out2 and "PASS" in out1


def _replayed_config(out):
    line = next(l for l in out.splitlines() if l.startswith("config: "))
    return parse_config("\n".join(line.split()[1:]))


@pytest.mark.parametrize("argv,field,value", [
    (("--scenario", "sw-pareto", "--seed", "0", "--delay", "uniform:1,10"),
     "delay", "uniform:1,10"),
    (("--scenario", "sw-catalog", "--seed", "4", "--t", "1"), "t", 1),
])
def test_flags_equal_to_their_defaults_still_override(capsys, argv, field,
                                                      value):
    code, out, _ = run_cli(capsys, "replay", *argv)
    assert code == 0
    assert getattr(_replayed_config(out), field) == value


@pytest.mark.parametrize("sweep,seed", [("sw-catalog", 1), ("sw-catalog", 4),
                                        ("mw-catalog", 0), ("mw-catalog", 3)])
def test_catalog_replay_runs_the_pinned_workload(capsys, sweep, seed):
    with open(PINS_PATH) as fh:
        pin = json.load(fh)["%s/hash/%d" % (sweep, seed)]
    _, out, _ = run_cli(capsys, "replay", "--scenario", sweep, "--seed",
                        str(seed))
    assert "log digest %s" % pin["log_digest"] in out


def test_unknown_scenario_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "sw-nope", "--seeds", "1")
    assert code == 2 and "unknown scenario" in err


def test_an_empty_sweep_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "run", "--scenario", "sw-baseline",
                             "--seeds", "0")
    assert code == 2 and out == "" and "--seeds" in err


@pytest.mark.parametrize("flag,value,message", [
    ("--jobs", "0", "--jobs must be at least 1, got 0"),
    ("--jobs", "-2", "--jobs must be at least 1, got -2"),
    ("--writes", "-1", "writes must be at least 0, got -1"),
    ("--value-size", "-5", "value_size must be at least 0, got -5"),
])
def test_a_negative_run_size_is_a_usage_error(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "run", "--scenario", "sw-baseline",
                             "--seeds", "2", flag, value)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--seeds", "-1"),
                                        ("--sizes", "0")])
def test_an_empty_bench_is_a_usage_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "bench", "--t-list", "1", flag, value)
    assert code == 2 and out == "" and flag in err


@pytest.mark.parametrize("argv,message", [
    (("run", "--scenario", "sw-baseline", "--seeds", "1", "--t", "34"),
     "t must be at most 33, got 34"),
    (("replay", "--scenario", "sw-baseline", "--seed", "0", "--t", "34"),
     "t must be at most 33, got 34"),
    (("run", "--mode", "mw", "--writers", "101", "--writes", "1", "--reads",
      "1", "--seeds", "1"), "writers must be at most 100, got 101"),
    (("run", "--scenario", "sw-baseline", "--seeds", "1", "--value-size",
      "1"), "value_size must be at least 6, the longest value header, got 1"),
    (("bench", "--t-list", "1", "--sizes", "1", "--seeds", "1"),
     "--sizes must be at least 6 bytes, the value header, got 1"),
    (("bench", "--t-list", "1,34", "--sizes", "64", "--seeds", "1"),
     "--t-list entries must be 0..33, got 1,34"),
], ids=["run-t", "replay-t", "writers", "value-size", "bench-sizes",
        "bench-t-list"])
def test_colliding_ids_and_headless_values_are_usage_errors(capsys, argv,
                                                             message):
    """Server, writer and reader ids must not meet, and every value must
    hold its writer's header."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and message in err


def test_the_console_entry_point_exits_with_mains_code():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "powerstore.cli", "run", "--scenario",
             "sw-baseline", "--seeds", "1", *argv],
            env=env, capture_output=True, text=True, timeout=120)

    ok = cli()
    assert ok.returncode == 0 and "PASS" in ok.stdout
    bad = cli("--t", "34")
    assert bad.returncode == 2 and bad.stdout == ""
    assert "t must be at most 33" in bad.stderr


def test_a_negative_t_in_bench_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "bench", "--t-list", "1,-1")
    assert code == 2 and out == "" and "--t-list" in err


def test_a_bad_bench_delay_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "bench", "--t-list", "1",
                             "--delay", "bogus:1")
    assert code == 2 and out == "" and "delay" in err


def test_a_non_finite_pareto_delay_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "run", "--delay", "pareto:nan,4")
    assert code == 2 and out == "" and "pareto:nan,4" in err


@pytest.mark.parametrize("spec", ["uniform:a,b", "uniform:1", "uniform:1,2,3",
                                  "pareto:x,4"])
def test_a_malformed_delay_spec_is_a_usage_error_naming_it(capsys, spec):
    code, out, err = run_cli(capsys, "run", "--delay", spec, "--seeds", "1")
    assert code == 2 and out == "" and repr(spec) in err
    assert "expected %s:" % spec.split(":")[0] in err


@pytest.mark.parametrize("flags,message", [
    (("--t", "0"), "'crash_writer:101:after_store:2' never fires: k must be "
     "below s=1"),
    (("--writes", "0"), "'crash_writer:101:after_store:2' never fires: "
     "writes=0"),
], ids=["k-at-s", "no-writes"])
def test_a_crash_that_cannot_fire_is_a_usage_error(capsys, flags, message):
    """Both used to print PASS for a writer that never crashed."""
    code, out, err = run_cli(capsys, "replay", "--scenario", "sw-crash-store",
                             "--seed", "0", *flags)
    assert code == 2 and out == "" and message in err


def test_two_faults_for_one_server_are_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "replay", "--mode", "sw", "--seed", "0",
                             "--fault", "byz_server:1:mute",
                             "--fault", "byz_server:1:stale_lc")
    assert code == 2 and out == ""
    assert "'byz_server:1:mute' and 'byz_server:1:stale_lc'" in err


@pytest.mark.parametrize("source", ["--config", "--scenario"])
@pytest.mark.parametrize("flag,value", [("--fault", "byz_server:1:mute"),
                                        ("--mode", "mw")])
@pytest.mark.parametrize("cmd", [("run", "--seeds", "1"),
                                 ("replay", "--seed", "0")])
def test_ad_hoc_flags_with_a_scenario_or_config_are_a_usage_error(
        tmp_path, capsys, source, flag, value, cmd):
    path = tmp_path / "plain.cfg"
    path.write_text("mode=sw\n")
    where = str(path) if source == "--config" else "sw-baseline"
    code, out, err = run_cli(capsys, *cmd, source, where, flag, value)
    assert code == 2 and out == "" and "ad-hoc runs only" in err


@pytest.mark.parametrize("cmd", [("run", "--seeds", "2"),
                                 ("replay", "--seed", "0")])
def test_a_config_with_a_scenario_is_a_usage_error(tmp_path, capsys, cmd):
    path = tmp_path / "sw.cfg"
    path.write_text("mode=sw\n")
    code, out, err = run_cli(capsys, *cmd, "--config", str(path),
                             "--scenario", "mw-bigmac")
    assert code == 2 and out == ""
    assert "--config and --scenario" in err


def test_adhoc_vector_corruption_repairs_and_passes(capsys):
    # seeds 8..12 repair, as the same seeds of --scenario mw-bigmac do
    code, out, _ = run_cli(capsys, "run", "--mode", "mw", "--fault",
                           "byz_server:1:corrupt_vec", "--seed-start", "8",
                           "--seeds", "5")
    assert code == 0 and "PASS" in out
    assert int(out.split("repairs ")[1].split()[0]) > 0


def _slow_first_write(result):
    next(rec for rec in result.history
         if rec.kind == "write" and rec.res_seq is not None).rounds = 3
    return result


def _repeat_first_value(result):
    first, second = [rec for rec in result.history if rec.kind == "write"][:2]
    second.value = first.value
    return result


def _three_candidates_at_a_server(result):
    result.metrics.update(lc_set_peak=3)
    return result


def _faults(*faults):
    def alter(result):
        return result._replace(config=result.config._replace(faults=faults))
    return alter


_BIGMAC = scenarios.pair_for("mw-bigmac", 8)[1]


@pytest.mark.parametrize("config,alter,failure", [
    (SimConfig(), _slow_first_write,
     "rounds: write by 101 took 3 rounds, wanted 2"),
    (SimConfig(), _repeat_first_value,
     "malformed history: duplicate write values break the oracle"),
    (SimConfig(mode="mw", writers=2), _three_candidates_at_a_server,
     "multi-writer server accumulated 3 candidates"),
    (_BIGMAC, _faults(), "repair rounds without vector corruption"),
    (_BIGMAC, _faults("byz_server:1:stale_lc"),
     "repair rounds without vector corruption"),
], ids=["rounds", "malformed-history", "mw-accumulation", "repairs",
        "repairs-under-stale-lc"])
def test_each_rule_of_evaluate_goes_red_alone(config, alter, failure):
    """A clean run, altered past one rule, fails that rule and no other.
    The other rules go red in the mutant kill test and the deadlock tests."""
    result = run(config)
    assert scenarios.evaluate(result)[0] == []
    assert scenarios.evaluate(alter(result))[0] == [failure]


def test_adhoc_run_with_fault_flags(capsys):
    code, out, _ = run_cli(capsys, "run", "--mode", "mw", "--seeds", "3",
                           "--fault", "byz_server:2:stale_lc",
                           "--writers", "2")
    assert code == 0 and "PASS" in out


def test_overwhelmed_quorum_fails_with_replay_line(tmp_path, capsys):
    out_path = tmp_path / "sweep.ndjson"
    code, out, _ = run_cli(capsys, "run", "--mode", "sw", "--seeds", "2",
                           "--fault", "byz_server:1:mute",
                           "--fault", "byz_server:2:mute",
                           "--reads", "7", "--value-size", "300",
                           "--delay", "pareto:20,4", "--out", str(out_path))
    assert code == 1
    assert "FAIL seed 0" in out and "deadlock" in out
    failing = json.loads(out_path.read_text().splitlines()[0])
    repro = [l for l in out.splitlines() if l.startswith("reproduce with:")]
    argv = repro[0].split()[3:]  # drop "reproduce with: powerstore"
    code2, out2, _ = run_cli(capsys, *argv)
    assert code2 == 1 and "FAIL" in out2
    assert "log digest %s" % failing["log_digest"] in out2


def test_missing_repairs_fail_the_expectation(capsys):
    quiet = next(s for s in range(40)
                 if scenarios.sweep("mw-bigmac", [s])[0]["repairs"] == 0)
    code, out, _ = run_cli(capsys, "run", "--scenario", "mw-bigmac",
                           "--seeds", "1", "--seed-start", str(quiet))
    assert code == 1 and "expected repair rounds" in out


def test_a_config_file_that_repeats_a_key_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("t=1\nmode=sw\n# t=3\nt=2\n")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2 and out == "" and "lines 1 and 4 both set t" in err


def test_config_file_drives_run_and_replay(tmp_path, capsys):
    path = tmp_path / "myrun.cfg"
    path.write_text(format_config(SimConfig(
        mode="mw", writers=2, faults=("byz_server:1:corrupt_vec",))))
    code, out, _ = run_cli(capsys, "run", "--config", str(path), "--seeds", "3")
    assert code == 0 and "myrun.cfg" in out and "PASS" in out
    _, rep1, _ = run_cli(capsys, "replay", "--config", str(path), "--seed", "1")
    _, rep2, _ = run_cli(capsys, "replay", "--config", str(path), "--seed", "1")
    assert rep1 == rep2 and "log digest" in rep1


def test_run_flags_override_a_config_file(tmp_path, capsys):
    path = tmp_path / "mute.cfg"
    path.write_text(format_config(SimConfig(
        faults=("byz_server:1:mute", "byz_server:2:mute"))))
    out_path = tmp_path / "sweep.ndjson"
    code, out, _ = run_cli(capsys, "run", "--config", str(path), "--seeds",
                           "1", "--writes", "2", "--out", str(out_path))
    assert code == 1
    failing = json.loads(out_path.read_text())
    repro = [l for l in out.splitlines() if l.startswith("reproduce with:")]
    argv = repro[0].split()[3:]  # drop "reproduce with: powerstore"
    assert argv[-2:] == ["--writes", "2"]
    _, out2, _ = run_cli(capsys, *argv)
    assert _replayed_config(out2).writes == 2
    assert "log digest %s" % failing["log_digest"] in out2


def test_config_sweep_records_do_not_depend_on_jobs(tmp_path, capsys,
                                                    monkeypatch):
    path = tmp_path / "myrun.cfg"
    path.write_text(format_config(SimConfig(
        mode="mw", writers=2, faults=("byz_server:1:corrupt_vec",))))
    jobs_seen, run_tasks = [], scenarios.run_tasks
    monkeypatch.setattr(scenarios, "run_tasks", lambda pairs, jobs=1: (
        jobs_seen.append(jobs) or run_tasks(pairs, jobs=jobs)))
    records = []
    for jobs in ("1", "2"):
        out_path = tmp_path / ("jobs%s.ndjson" % jobs)
        code, _, _ = run_cli(capsys, "run", "--config", str(path), "--seeds",
                             "4", "--jobs", jobs, "--out", str(out_path))
        assert code == 0
        records.append(out_path.read_text())
    assert jobs_seen == [1, 2]
    assert records[0] == records[1]


def test_jobs_never_asks_for_more_workers_than_runs(capsys, monkeypatch):
    """Under fork every worker starts at the first submit, so --jobs 64 on
    two runs must ask for two workers, and on one run for none."""
    sizes = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for seeds in ("2", "1"):
        code, out, _ = run_cli(capsys, "run", "--scenario", "sw-baseline",
                               "--seeds", seeds, "--jobs", "64")
        assert code == 0 and "PASS" in out
    assert sizes == [2]


def test_bench_reports_cost_within_tolerance(capsys):
    code, out, _ = run_cli(capsys, "bench", "--t-list", "1", "--sizes",
                           "65536", "--seeds", "1")
    assert code == 0
    assert "simulated ticks, not wall-clock throughput" in out
    row = out.splitlines()[-1].split()
    assert abs(float(row[5])) < 2.0  # deviation from the ideal wire cost


def test_scenario_listing_names_every_catalog_entry(capsys):
    code, out, _ = run_cli(capsys, "scenarios")
    assert code == 0
    for name in scenarios.CATALOG:
        assert name in out
    assert "sw-catalog" in out and "mw-catalog" in out
