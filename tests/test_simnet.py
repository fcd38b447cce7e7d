"""Simulator-level properties: determinism, accounting, fault plumbing."""

import json
import math
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from powerstore import checker, codec, mutants, scenarios, simnet
from powerstore.core import Candidate, Timestamp
from powerstore.crypto import Polynomial, ShamirShare
from powerstore.erasure import Fragment
from powerstore.simnet import (
    SimConfig, event_to_json, format_config, make_delay_fn, make_value,
    parse_config, parse_faults, run)
from test_golden import _mutant_config, deadlock_configs
from test_perfbench_smoke import _import_tracing
from test_wire_view import SWEEPS, pin, pinned_configs


def small(**over):
    kw = dict(mode="sw", writers=1, readers=2, writes=3, reads=3,
              value_size=48, seed=3)
    kw.update(over)
    return SimConfig(**kw)


def test_same_seed_reproduces_the_log_byte_for_byte():
    a, b = run(small()), run(small())
    assert a.export_ndjson() == b.export_ndjson()
    assert a.log_digest() == b.log_digest()


def test_different_seeds_diverge():
    assert run(small(seed=1)).log_digest() != run(small(seed=2)).log_digest()


@pytest.mark.parametrize("mode", ["sw", "mw"])
def test_proof_scheme_does_not_steer_the_schedule(mode):
    for seed in range(6):
        cfg = dict(mode=mode, writers=1 if mode == "sw" else 2, readers=2,
                   writes=3, reads=4, seed=seed,
                   faults=("byz_server:1:fabricate_candidate",
                           "byz_reader:202:replayed_candidates"))
        a = run(SimConfig(pow_name="hash", **cfg))
        b = run(SimConfig(pow_name="shamir", **cfg))
        assert a.history_signature() == b.history_signature(), seed
        assert a.metrics["ticks"] == b.metrics["ticks"]


def test_config_text_round_trips():
    cfg = small(mode="mw", writers=2, pow_name="shamir", t=2,
                faults=("byz_server:1:mute", "byz_reader:202:flood_writebacks"),
                delay="pareto:20,4", log_wire=True, adversary_budget=7,
                mutant="lc_non_monotone")
    assert parse_config(format_config(cfg)) == cfg


def test_run_descriptions_are_values():
    """A config made twice is one dict key; its file form rebuilds it."""
    table = {}
    for sweep, seeds in SWEEPS.items():
        for seed in seeds:
            config = scenarios.pair_for(sweep, seed)[1]
            table.setdefault(config, []).append((sweep, seed))
            table[scenarios.pair_for(sweep, seed)[1]].append((sweep, seed))
            assert parse_config(format_config(config)) == config
    assert sorted(table.values()) == sorted(
        [(sweep, seed)] * 2 for sweep, seeds in SWEEPS.items()
        for seed in seeds)
    assert bool(checker.Verdict(False, "x")) is False


def test_config_parser_accepts_comments_and_blank_lines():
    cfg = parse_config("# workload\nmode=sw\n\nwrites=5\npow=shamir\n")
    assert cfg.writes == 5 and cfg.pow_name == "shamir"


def test_config_parser_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("mode=sw\nwriterz=2\n")
    with pytest.raises(ValueError, match="expected key=value"):
        parse_config("mode sw\n")


@pytest.mark.parametrize("text,msg", [
    ("mode=sw\nt=x\n", "^line 2: t: invalid literal"),
    ("writes=3\n\nreaders=two\n", "^line 3: readers: "),
    ("log_wire=yes\n", "^line 1: log_wire wants true/false"),
])
def test_config_parser_names_the_line_and_key_of_a_bad_value(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_config(text)


@pytest.mark.parametrize("directives,msg", [
    (("byz_server:9:mute",), "no server"),
    (("byz_server:1:jam",), "unknown server behavior"),
    (("byz_reader:205:garbage_filter_sets",), "no reader"),
    (("byz_reader:202:jam",), "unknown reader behavior"),
    (("crash_writer:103:after_store:1",), "no writer"),
    (("crash_writer:101:mid_flight:1",), "crash point must be"),
    (("byz_server:x:mute",), "'x' is not an integer in 'byz_server:x:mute'"),
    (("crash_writer:101:after_store:x",),
     "'x' is not an integer in 'crash_writer:101:after_store:x'"),
    (("crash_writer:101:after_store:-3",),
     "-3 is below 0 in 'crash_writer:101:after_store:-3'"),
    # a round crashes before its (k+1)-th send: k=s used to run fault-free
    (("crash_writer:101:after_complete:4",),
     "'crash_writer:101:after_complete:4' never fires: k must be below s=4"),
    (("sabotage:1:x",), "bad fault directive"),
    # one fault per party: a second one used to replace the first silently
    (("byz_server:1:mute", "byz_server:1:stale_lc"),
     "'byz_server:1:mute' and 'byz_server:1:stale_lc'"),
    (("byz_reader:202:flood_writebacks", "byz_server:2:mute",
      "byz_reader:202:garbage_filter_sets"),
     "'byz_reader:202:flood_writebacks' and 'byz_reader:202:garbage_filter_sets'"),
    (("crash_writer:101:after_store:1", "crash_writer:101:after_complete:0"),
     "'crash_writer:101:after_store:1' and 'crash_writer:101:after_complete:0'"),
], ids=lambda v: ",".join(v) if isinstance(v, tuple) else v)
def test_fault_directives_are_validated(directives, msg):
    with pytest.raises(ValueError, match=msg):
        parse_faults(directives, s=4, writers=2, readers=2)


def test_the_fault_table_gives_each_party_its_fault():
    faults = parse_faults(("byz_server:2:mute",
                           "byz_reader:202:flood_writebacks",
                           "crash_writer:101:after_store:2"),
                          s=4, writers=1, readers=2)
    assert faults == {2: "mute", 202: "flood_writebacks", 101: ("store", 2)}


def test_uniform_delay_stays_in_bounds():
    fn = make_delay_fn("uniform:2,5")
    rng = random.Random(0)
    assert {fn(rng) for _ in range(200)} == {2, 3, 4, 5}


def test_pareto_delay_is_heavy_tailed_but_positive():
    fn = make_delay_fn("pareto:20,4")
    rng = random.Random(0)
    draws = [fn(rng) for _ in range(2000)]
    assert min(draws) >= 1
    assert 15 < sum(draws) / len(draws) < 25


@pytest.mark.parametrize("spec", ["uniform:0,5", "uniform:9,2", "gauss:1,2",
                                  "pareto:0,4", "uniform:a,b", "pareto:nan,4",
                                  "pareto:inf,4", "pareto:1e308,1e-308",
                                  "pareto:4,inf", "pareto:4,nan", "uniform:1",
                                  "uniform:1,2,3", "pareto:x,4", "uniform:"])
def test_bad_delay_specs_are_rejected(spec):
    with pytest.raises(ValueError) as err:
        make_delay_fn(spec)
    assert repr(spec) in str(err.value)
    if not spec.startswith("gauss"):
        assert "expected %s:" % spec.split(":")[0] in str(err.value)


@pytest.mark.parametrize("spec", ["pareto:0,4", "pareto:nan,4", "pareto:inf,4",
                                  "pareto:1e308,1e-308", "pareto:4,inf"])
def test_a_rejected_pareto_spec_is_named(spec):
    with pytest.raises(ValueError) as err:
        make_delay_fn(spec)
    assert repr(spec) in str(err.value)


@pytest.mark.parametrize("a, b", [(1, 1), (7, 7), (1, 8), (1, 10), (3, 17),
                                  (1, 1000)])
def test_uniform_draws_are_randint_draws(a, b):
    draw = make_delay_fn("uniform:%d,%d" % (a, b))
    ours, ref = random.Random(a * 1000 + b), random.Random(a * 1000 + b)
    assert ([draw(ours) for _ in range(300)]
            == [ref.randint(a, b) for _ in range(300)])
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("mean, var", [(20, 4), (1, 1), (5, 100), (3, 0.01)])
def test_pareto_draws_are_paretovariate_draws(mean, var):
    draw = make_delay_fn("pareto:%r,%r" % (mean, var))
    alpha = 1.0 + math.sqrt(1.0 + mean * mean / var)
    xm = mean * (alpha - 1.0) / alpha
    ours, ref = random.Random(mean), random.Random(mean)
    assert ([draw(ours) for _ in range(300)]
            == [max(1, round(xm * ref.paretovariate(alpha)))
                for _ in range(300)])
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("kw", [
    dict(mode="xy"),
    dict(mode="sw", writers=2),
    dict(t=-1),
    dict(writers=-1),
    dict(readers=-1),
    dict(writes=-1),
    dict(reads=-2),
    dict(value_size=-5),
    dict(adversary_budget=-1),
    # the crash plan rides on the last write; with none it never fired
    dict(writes=0, faults=("crash_writer:101:after_store:1",)),
])
def test_impossible_configs_are_rejected(kw):
    with pytest.raises(ValueError):
        simnet.Simulation(small(**{"writers": 1, **kw}))


@pytest.mark.parametrize("kw,message", [
    (dict(t=34), "t must be at most 33, got 34"),
    (dict(mode="mw", writers=101, writes=1, reads=1),
     "writers must be at most 100, got 101"),
    (dict(value_size=5), "value_size must be at least 6, the longest value "
     "header, got 5"),
    (dict(mode="mw", writers=12, writes=10, value_size=6),
     "value_size must be at least 7"),
])
def test_party_ids_and_value_headers_must_fit(kw, message):
    """Servers, writers and readers share one id space, and a value starts
    with its writer's header; a config that breaks either is refused."""
    with pytest.raises(ValueError, match=message):
        simnet.Simulation(small(**kw))


def test_the_largest_fitting_configs_are_accepted():
    sim = simnet.Simulation(small(t=simnet.MAX_T, value_size=6))
    assert max(sim.servers) < min(sim.clients) == simnet.WRITER_ID_BASE + 1
    sim = simnet.Simulation(small(mode="mw", writers=100, writes=1))
    assert max(sim.clients) == simnet.READER_ID_BASE + 2
    assert len(sim.clients) == 102
    simnet.Simulation(small(writes=0, value_size=0))  # writes nothing


def test_unknown_mutant_is_rejected():
    with pytest.raises(ValueError, match="unknown mutant"):
        simnet.Simulation(small(mutant="no_such_mutant"))


def test_no_mutant_builds_the_plain_classes():
    for mode, classes in mutants.CLASSES.items():
        assert mutants.classes_for(mode) is classes


@pytest.mark.parametrize("mutant", ["repair_skip_valid", "clock_skip_mac"])
def test_mw_only_mutants_leave_sw_runs_unchanged(mutant):
    assert (run(small(mutant=mutant)).log_digest()
            == run(small()).log_digest())


def test_crashed_writer_leaves_one_pending_operation():
    res = run(small(writes=3, faults=("crash_writer:101:after_complete:0",)))
    assert res.metrics["completed_writes"] == 2
    pend = [r for r in res.history if r.res_seq is None]
    assert [r.kind for r in pend] == ["write"]
    # a crashed writer is not a liveness violation
    assert scenarios.evaluate(res)[0] == []


def test_too_many_mute_servers_deadlock_the_run():
    res = run(small(faults=("byz_server:1:mute", "byz_server:2:mute")))
    assert scenarios.evaluate(res)[0] == ["deadlock: no events left"]
    assert res.deadlock["pending"]


def test_a_livelocked_run_exhausts_the_tick_budget():
    # the reverting server's timer keeps the event heap from ever emptying
    res = run(small(faults=_LIVELOCK))
    assert scenarios.evaluate(res)[0] == ["deadlock: tick budget exhausted"]
    assert res.deadlock["pending"]
    assert res.metrics["ticks"] <= simnet.MAX_TICKS


def test_every_sent_message_is_delivered():
    res = run(small(seed=11))
    assert res.metrics["msgs_sent"] == res.metrics["msgs_delivered"]
    assert res.metrics["dropped_malformed"] == 0


def test_garbage_traffic_is_dropped_not_crashed():
    res = run(small(readers=2, faults=("byz_reader:202:garbage_filter_sets",)))
    assert scenarios.evaluate(res)[0] == []
    assert res.metrics["dropped_malformed"] > 0


def test_data_bytes_match_the_fragment_layout():
    """Only completed writes count: not the fragments of a write its writer
    crashed in, nor anything a byzantine reader sends."""
    for faults, completed in (
            ((), 3),
            (("crash_writer:101:after_store:2",), 2),
            (("crash_writer:101:after_complete:1",), 2),
            (("byz_reader:202:garbage_filter_sets",), 3)):
        for t, size in ((1, 48), (2, 4096)):
            res = run(small(t=t, value_size=size, writes=3, reads=0, seed=5,
                            faults=faults))
            s = 3 * t + 1
            per_write = s * (10 + math.ceil(size / (t + 1)))
            assert res.metrics["completed_writes"] == completed
            assert res.metrics["data_bytes"] == per_write * completed


_LIVELOCK = ("byz_server:1:mute", "byz_server:2:mute",
             "byz_server:3:revert_state")
# how a run ends -> (its config, its crash and deadlock reasons, its whole
# metrics dict)
METRICS_PINS = {
    "clean": (lambda: scenarios.pair_for("sw-catalog", 0)[1], (None, None), {
        "msgs_sent": 144, "msgs_delivered": 144, "bytes_sent": 9744,
        "dropped_malformed": 0, "data_bytes": 264, "completed_writes": 3,
        "completed_reads": 6, "repairs": 0, "lc_set_peak": 1, "ticks": 86,
        "accepts": 12}),
    "client_crash": (
        lambda: _mutant_config("safe_quorum_minus_one"),
        ("ProtocolInvariantError: restore without a cross-checksum witness",
         None), {
            "msgs_sent": 45, "msgs_delivered": 38, "bytes_sent": 2619,
            "dropped_malformed": 0, "data_bytes": 0, "completed_writes": 0,
            "completed_reads": 0, "repairs": 0, "lc_set_peak": 1,
            "ticks": 23, "accepts": 1}),
    "overrun": (lambda: small(faults=_LIVELOCK),
                (None, "tick budget exhausted"), {
        "msgs_sent": 18, "msgs_delivered": 18, "bytes_sent": 1166,
        "dropped_malformed": 0, "data_bytes": 0, "completed_writes": 0,
        "completed_reads": 0, "repairs": 0, "lc_set_peak": 0,
        "ticks": 999972, "accepts": 0}),
    "malformed_drops": (
        lambda: small(faults=("byz_reader:202:garbage_filter_sets",)),
        (None, None), {
            "msgs_sent": 348, "msgs_delivered": 348, "bytes_sent": 48504,
            "dropped_malformed": 36, "data_bytes": 408, "completed_writes": 3,
            "completed_reads": 3, "repairs": 0, "lc_set_peak": 47,
            "ticks": 100, "accepts": 12}),
}


@pytest.mark.parametrize("end", sorted(METRICS_PINS))
def test_the_whole_metrics_dict_is_pinned_for_each_way_a_run_ends(end):
    config, (crash, deadlock), pinned = METRICS_PINS[end]
    res = run(config())
    assert res.crash_reason == crash
    assert (res.deadlock and res.deadlock["reason"]) == deadlock
    assert res.metrics == pinned
    assert list(res.metrics) == list(pinned)  # in the same key order


def _wire_view(res):
    """The send events of client-to-server messages: what the adversary
    sees on the wire."""
    return [ev for ev in res.events
            if ev["type"] == "send" and ev["src"] > simnet.WRITER_ID_BASE]


def test_wire_taps_are_opt_in():
    assert _wire_view(run(small())) == []
    res = run(small(log_wire=True))
    assert _wire_view(res) and all(e["nbytes"] > 0 for e in _wire_view(res))


def _store_commitments(res):
    return [e["commitment"] for e in _wire_view(res)
            if e["kind"] == codec.STORE]


def test_secret_share_commitments_are_redacted_in_wire_logs():
    cfg = dict(writes=2, reads=0, log_wire=True, seed=2)
    shamir = run(small(pow_name="shamir", **cfg))
    assert set(_store_commitments(shamir)) == {"<redacted>"}
    hashed = run(small(pow_name="hash", **cfg))
    assert "<redacted>" not in _store_commitments(hashed)


def test_only_a_correct_writers_store_to_a_correct_server_is_redacted():
    """A byzantine reader's STORE, and a STORE to a byzantine server, are
    seen by the adversary under the proof-sharing scheme too."""
    sim = simnet.Simulation(small(
        pow_name="shamir", log_wire=True,
        faults=("byz_server:2:mute", "byz_reader:202:garbage_filter_sets")))
    store = codec.Store(Timestamp(1), Fragment(1, 3, b"abc"), (), b"d" * 32)
    for src, dst in ((simnet.WRITER_ID_BASE + 1, 1),
                     (simnet.WRITER_ID_BASE + 1, 2), (202, 1)):
        sim.send(src, dst, store)
    assert [ev["commitment"] for ev in sim.events] == [
        "<redacted>", store.commitment, store.commitment]


def test_flooded_sw_servers_accumulate_candidates():
    flood = ("byz_reader:202:flood_writebacks",)
    sw = run(small(faults=flood, writes=2, reads=2))
    assert sw.metrics["lc_set_peak"] > 4
    mw = run(small(mode="mw", writers=2, faults=flood, writes=2, reads=2))
    assert mw.metrics["lc_set_peak"] == 0


def _reference_jsonable(v):
    """The export as an isinstance chain: the first matching type wins."""
    if isinstance(v, bytes):
        return "0x" + v.hex()
    if isinstance(v, Timestamp):
        return {"num": v.num, "pid": v.pid, "tag": "0x" + v.tag.hex()}
    if isinstance(v, Candidate):
        return {"ts": _reference_jsonable(v.ts),
                "token": _reference_jsonable(v.token),
                "vec": _reference_jsonable(v.vec)}
    if isinstance(v, Polynomial):
        return {"poly": {"q": v.q, "coeffs": list(v.coeffs)}}
    if isinstance(v, ShamirShare):
        return {"share": [v.x, v.y, v.q]}
    if isinstance(v, Fragment):
        return {"fragment": [v.index, v.orig_len, "0x" + v.payload.hex()]}
    if isinstance(v, (tuple, list, set, frozenset)):
        return [_reference_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _reference_jsonable(x) for k, x in v.items()}
    return v


def _reference_event_to_json(ev):
    return json.dumps(_reference_jsonable(ev), sort_keys=True,
                      separators=(",", ":"))


def _every_event_shape():
    """(wire pin key or None, config) for runs that between them write every
    event shape the program writes: both catalog sweeps with the wire taps
    off, and on under both proof schemes as test_wire_view pins them (send
    and deliver events, raw bytes, redacted and secret-share commitments,
    polynomial tokens); the deadlock runs, whose report nests dicts with
    int keys; a monitor and a client-crash run; and seed 0 of perfbench's
    flood and contended workloads."""
    for sweep, seeds in SWEEPS.items():
        for seed in seeds:
            yield None, scenarios.pair_for(sweep, seed)[1]
    yield from pinned_configs().items()
    _, workloads = _import_tracing()
    for config in (*deadlock_configs().values(),
                   _mutant_config("lc_non_monotone"),  # a monitor event
                   _mutant_config("safe_quorum_minus_one"),  # a client_crash
                   *(workloads.config_for(workloads.WORKLOADS[name].task(0))
                     for name in ("flood", "contended"))):
        yield None, config


def _nested_types(v, into):
    """Add the exact type of every value a dict, list or tuple v nests."""
    if type(v) is dict:
        v = v.values()
    elif type(v) not in (list, tuple):
        return
    for x in v:
        into.add(type(x))
        _nested_types(x, into)


def export_pass():
    """One run of each _every_event_shape config, with fresh layouts. A run
    is dropped once summarised: the first event whose export differs from
    the reference, counts, the event types and the value-type census, and
    a wire-tapped run's pins, made from the lines already exported. The
    layouts made end the summary."""
    summary = dict(mismatch=None, events=0, types=set(), top=set(),
                   nested=set(), pins={})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "_LAYOUTS", {})
        for key, config in _every_event_shape():
            res = run(config)
            lines = list(map(event_to_json, res.events))
            for ev, line in zip(res.events, lines):
                if (summary["mismatch"] is None and
                        line != _reference_event_to_json(ev)):
                    summary["mismatch"] = ev
                summary["types"].add(ev["type"])
                for v in ev.values():
                    summary["top"].add(type(v))
                    _nested_types(v, summary["nested"])
            summary["events"] += len(res.events)
            if key is not None:
                summary["pins"][key] = pin(res, lines)
        summary["layouts"] = len(simnet._LAYOUTS)
    return summary


def test_export_matches_the_reference_on_both_catalog_sweeps(event_log_pass):
    assert event_log_pass["mismatch"] is None, event_log_pass["mismatch"]
    assert event_log_pass["events"] > 250_000
    assert {"send", "deliver", "deadlock", "monitor",
            "client_crash"} <= event_log_pass["types"]
    # the census of what the log carries: its export converts exactly these
    assert event_log_pass["top"] == {int, str, bytes, type(None), Timestamp,
                                     Polynomial, ShamirShare, dict}
    assert event_log_pass["nested"] == {dict, list, tuple, int, str}
    # one layout per event shape, never one per event: a shape key that
    # picked up a value instead of its type would grow with the sweep
    assert event_log_pass["layouts"] < 64


def test_export_matches_the_reference_on_every_converted_type():
    ts = Timestamp(7, 3, b"\x01")
    ev = {
        "seq": 1, "type": "probe", "raw": b"\x00\xff", "ts": ts,
        "poly": Polynomial((3, 2), 13), "share": ShamirShare(1, 5, 13),
        "ints": {2: ts, 1: None, 10: [b"x"]}, "flags": [None, "s", -1],
        "nested": ((1, (b"x",)), ()),
    }
    assert event_to_json(ev) == _reference_event_to_json(ev)
    assert list(json.loads(event_to_json(ev))["ints"]) == ["1", "10", "2"]


def test_a_layout_never_leaks_from_one_event_to_the_next(monkeypatch):
    monkeypatch.setattr(simnet, "_LAYOUTS", {})
    ts = Timestamp(2, 101, b"\x07")
    events = [{"seq": 1, "tick": 4, "type": "accept", "ts": ts, "token": v}
              for v in (b"\x01\x02", Polynomial((3, 2), 13), None)]
    events += [{"seq": 2, "tick": 5, "type": "send", "commitment": v}
               for v in (b"\xaa", "<redacted>", ShamirShare(1, 5, 13))]
    events += [{"type": "probe", "seq": 3, "flag": v}
               for v in (1, 0, -1, 2**64)]
    events += [{"seq": 4, "type": "monitor", "detail": v}
               for v in ('say "hi"', "back\\slash", "new\nline", "caf\u00e9",
                         "<redacted>", "100%", "")]
    events += [{"100%": 1, "%d": "%s"}, {"a": 1, "b": ts}, {"only": ts}, {},
               [1, b"x", "s"], (ts,), "top", 5, None]
    for ev in events + events:  # the second pass reuses every layout
        assert event_to_json(ev) == _reference_event_to_json(ev), ev


@dataclass(frozen=True)
class _Opaque:
    ts: Timestamp


class _Stamp(Timestamp):
    """A subclass of a carried type is not a carried type."""


class _Count(int):
    """An int subclass: the log carries ints, not their subclasses."""


def test_export_rejects_what_the_reference_rejects():
    ev = {"reply": _Opaque(Timestamp(1))}  # a dataclass: no converter
    for export in (event_to_json, _reference_event_to_json):
        with pytest.raises(TypeError):
            export(ev)
    # types the log never carries, though the reference converts most of
    # them: each is rejected alone, as a field and nested in a report
    ts = Timestamp(7, 3, b"\x01")
    for v in (Candidate(ts, b"\x02"), Fragment(2, 11, b"payload"), {3, 1},
              frozenset({b"a"}), 1.5, True, _Count(1), _Stamp(1),
              Counter({b"k": 2}), codec.StoreAck(ts)):
        for ev in (v, {"seq": 1, "type": "probe", "v": v},
                   {"seq": 2, "detail": {"servers": {1: [v]}}}):
            with pytest.raises(TypeError, match="carries no"):
                event_to_json(ev)


def test_exported_log_is_jsonable_and_ordered():
    res = run(small(seed=7))
    seqs = []
    for line in res.export_ndjson().splitlines():
        ev = json.loads(line)
        seqs.append(ev["seq"])
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_make_value_is_distinct_per_writer_and_index():
    vals = {make_value(cid, k, 32) for cid in (101, 102) for k in range(4)}
    assert len(vals) == 8
    assert all(len(v) == 32 for v in vals)


def test_run_result_meta_names_the_correct_processes():
    res = run(small(faults=("byz_server:2:mute",)))
    assert res.meta["correct_servers"] == (1, 3, 4)
    assert res.meta["correct_readers"] == (201, 202)
