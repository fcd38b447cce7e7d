"""Command line front end: seeded sweeps, single-seed replays, cost benches.

Every run is reproducible from (scenario, seed); a failing sweep prints the
first bad seed plus the replay command that reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from . import scenarios
from .simnet import (MAX_T, format_config, make_delay_fn, parse_config, run,
                     value_header_bytes)


# (flag, the SimConfig field it sets, argparse options); a flag applies only
# when given, so it defaults to None
_RUN_FLAGS = (
    ("--pow", "pow_name", dict(choices=("hash", "shamir"))),
    ("--t", "t", dict(type=int, help="tolerated byzantine servers")),
    ("--value-size", "value_size", dict(type=int)),
    ("--delay", "delay", dict(help="uniform:a,b or pareto:mean,var, in ticks")),
    ("--writers", "writers", dict(type=int)),
    ("--readers", "readers", dict(type=int)),
    ("--writes", "writes", dict(type=int)),
    ("--reads", "reads", dict(type=int)),
)


def _add_run_flags(parser, seeds=True):
    parser.add_argument("--scenario", help="catalog scenario name; omit to "
                        "describe an ad-hoc run with the flags below")
    parser.add_argument("--config", help="key=value file describing the run")
    if seeds:
        parser.add_argument("--seeds", type=int, default=20,
                            help="number of seeds to sweep (default 20)")
        parser.add_argument("--seed-start", type=int, default=0)
        parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the sweep")
    else:
        parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("sw", "mw"),
                        help="ad-hoc runs only (default sw)")
    parser.add_argument("--fault", action="append", default=[],
                        help="fault directive, repeatable (ad-hoc runs only)")
    group = parser.add_argument_group(
        "run flags", "each given flag overrides its field of a scenario, an "
        "ad-hoc run or a config file; scenarios still pin their mode and "
        "proof scheme (sw-shamir keeps shamir)")
    for flag, dest, kw in _RUN_FLAGS:
        group.add_argument(flag, dest=dest, default=None, **kw)
    parser.add_argument("--out", help="write newline-delimited records here")


def _overrides(args):
    """SimConfig field -> value for each run flag given on the command line."""
    return {dest: getattr(args, dest) for _, dest, _ in _RUN_FLAGS
            if getattr(args, dest) is not None}


def _runs(args, seeds):
    """(Scenario, SimConfig) per seed, from a config file, a catalog
    scenario, or the ad-hoc flags, with the given run flags applied."""
    over = _overrides(args)
    if args.config and args.scenario:
        raise ValueError("--config and --scenario each describe a whole run; "
                         "give one of them")
    if (args.config or args.scenario) and (args.mode or args.fault):
        raise ValueError("--mode and --fault are for ad-hoc runs only")
    if args.config:
        with open(args.config) as fh:
            base = parse_config(fh.read())
        shim = scenarios.Scenario(name=os.path.basename(args.config),
                                  summary="config file", mode=base.mode)
        return [(shim, base._replace(seed=seed, **over)) for seed in seeds]
    if args.scenario:
        return [scenarios.pair_for(args.scenario, seed, **over)
                for seed in seeds]
    adhoc = scenarios.Scenario(name="adhoc", summary="command line flags",
                               mode=args.mode or "sw",
                               faults=tuple(args.fault))
    return [(adhoc, adhoc.config(seed, **over)) for seed in seeds]


def _replay_argv(args, seed):
    """The replay command that re-runs one seed of this sweep exactly."""
    parts = ["powerstore", "replay", "--seed", str(seed)]
    if args.config:
        parts += ["--config", args.config]
    elif args.scenario:
        parts += ["--scenario", args.scenario]
    else:
        parts += ["--mode", args.mode or "sw"]
        for d in args.fault:
            parts += ["--fault", d]
    over = _overrides(args)
    for flag, dest, _ in _RUN_FLAGS:
        if dest in over:
            parts += [flag, str(over[dest])]
    return shlex.join(parts)


def _fmt_rounds(values):
    return ",".join(str(v) for v in values) if values else "-"


def _write_ndjson(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_run(args):
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1, got %d" % args.seeds)
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1, got %d" % args.jobs)
    seeds = range(args.seed_start, args.seed_start + args.seeds)
    reports = scenarios.run_tasks(_runs(args, seeds), jobs=args.jobs)
    if args.out:
        _write_ndjson(args.out, reports)
    name = args.scenario or (os.path.basename(args.config) if args.config
                             else "adhoc")
    total_repairs = sum(r["repairs"] for r in reports)
    bad = [r for r in reports if r["failures"]]
    print("scenario %s: %d seeds, %d ok, %d failed" %
          (name, len(reports), len(reports) - len(bad), len(bad)))
    print("  write rounds %s  read rounds %s  repairs %d  max |LC| %d" %
          (_fmt_rounds(sorted({v for r in reports for v in r["write_rounds"]})),
           _fmt_rounds(sorted({v for r in reports for v in r["read_rounds"]})),
           total_repairs, max(r["lc_set_peak"] for r in reports)))
    print("  msgs %d  wire bytes %d  dropped malformed %d" %
          (sum(r["msgs_sent"] for r in reports),
           sum(r["bytes_sent"] for r in reports),
           sum(r["dropped_malformed"] for r in reports)))
    scenario = scenarios.CATALOG.get(args.scenario)
    if (scenario is not None and scenarios.garbles_vectors(scenario.faults)
            and total_repairs == 0):
        print("FAIL: expected repair rounds, saw none")
        return 1
    if bad:
        first = bad[0]
        print("FAIL seed %d: %s" % (first["seed"], "; ".join(first["failures"])))
        print("reproduce with: %s" % _replay_argv(args, first["seed"]))
        return 1
    print("PASS")
    return 0


def cmd_replay(args):
    [(scenario, config)] = _runs(args, [args.seed])
    result = run(config)
    report = scenarios.report_for(scenario, result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.export_ndjson())
    print("config: %s" % " ".join(format_config(result.config).splitlines()))
    for rec in sorted(result.history, key=lambda r: r.inv_seq):
        state = "pending" if rec.res_seq is None else "done"
        print("  %s %s@%d ticks %s..%s rounds %s" %
              (rec.kind, state, rec.client, rec.inv_tick,
               rec.res_tick if rec.res_tick is not None else "-",
               rec.rounds if rec.rounds is not None else "-"))
    print("events %d  log digest %s" % (len(result.events), report["log_digest"]))
    if report["failures"]:
        print("FAIL: %s" % "; ".join(report["failures"]))
        return 1
    print("PASS")
    return 0


def _percentile(values, frac):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(frac * len(ordered)))]


def cmd_bench(args):
    t_values = [int(v) for v in args.t_list.split(",")]
    sizes = [int(v) for v in args.sizes.split(",")]
    bench = scenarios.Scenario(name="bench", summary="cost bench",
                               mode=args.mode, delay=args.delay)
    base = bench.config(0, pow_name=args.pow, writes=2, reads=2)
    head = value_header_bytes(base.writers, base.writes)
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1, got %d" % args.seeds)
    if min(sizes) < head:
        raise ValueError("--sizes must be at least %d bytes, the value header, "
                         "got %d" % (head, min(sizes)))
    if not 0 <= min(t_values) <= max(t_values) <= MAX_T:
        raise ValueError("--t-list entries must be 0..%d, got %s"
                         % (MAX_T, args.t_list))
    make_delay_fn(args.delay)  # a bad --delay raises before the header
    print("cost bench, %s mode, %s proofs, delays %s" %
          (args.mode, args.pow, args.delay))
    print("latencies are simulated ticks, not wall-clock throughput")
    header = ("t", "s", "value B", "data B/write", "ideal", "dev %",
              "write p50/p95", "read p50/p95", "msgs/op")
    rows = []
    for t in t_values:
        for size in sizes:
            ops, wl, rl, data, msgs = [], [], [], 0, 0
            for seed in range(args.seeds):
                res = run(base._replace(seed=seed, t=t, value_size=size))
                for rec in res.history:
                    if rec.res_tick is None:
                        continue
                    ops.append(rec)
                    (wl if rec.kind == "write" else rl).append(
                        rec.res_tick - rec.inv_tick)
                data += res.metrics["data_bytes"]
                msgs += res.metrics["msgs_sent"]
            s = 3 * t + 1
            per_write = data / (base.writes * base.writers * args.seeds)
            ideal = s * size / (t + 1)
            rows.append((t, s, size, round(per_write), round(ideal),
                         "%+.2f" % ((per_write - ideal) / ideal * 100),
                         "%d/%d" % (_percentile(wl, .5), _percentile(wl, .95)),
                         "%d/%d" % (_percentile(rl, .5), _percentile(rl, .95)),
                         "%.1f" % (msgs / len(ops))))
    widths = [max(len(str(header[i])),
                  max(len(str(row[i])) for row in rows))
              for i in range(len(header))]
    for line in (header, *rows):
        print("  ".join(str(cell).rjust(widths[i])
                        for i, cell in enumerate(line)))
    if args.out:
        _write_ndjson(args.out, [dict(zip(header, row)) for row in rows])
    return 0


def cmd_scenarios(args):
    for name in sorted(scenarios.CATALOG):
        sc = scenarios.CATALOG[name]
        print("%-22s %s  [%s]" % (name, sc.summary, sc.mode))
    for sweep, n in scenarios.SWEEPS.items():
        print("{0:<22} the first {1} {2} scenarios with seed-derived "
              "workloads  [{2}]".format(sweep, n, sweep.split("-")[0]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="powerstore",
        description="deterministic simulator for proof-of-writing storage")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="sweep a scenario over seeds")
    _add_run_flags(p_run, seeds=True)
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("replay", help="re-run one seed and dump its log")
    _add_run_flags(p_rep, seeds=False)
    p_rep.set_defaults(fn=cmd_replay)

    p_bench = sub.add_parser("bench", help="wire cost and latency table")
    p_bench.add_argument("--mode", choices=("sw", "mw"), default="sw")
    p_bench.add_argument("--pow", choices=("hash", "shamir"), default="hash")
    p_bench.add_argument("--t-list", default="1,2,3")
    p_bench.add_argument("--sizes", default="65536,262144,1048576")
    p_bench.add_argument("--delay", default="uniform:1,10")
    p_bench.add_argument("--seeds", type=int, default=3)
    p_bench.add_argument("--out")
    p_bench.set_defaults(fn=cmd_bench)

    p_list = sub.add_parser("scenarios", help="list the scenario catalog")
    p_list.set_defaults(fn=cmd_scenarios)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
