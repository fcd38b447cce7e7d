"""Per-layer tracing from outside the program.

``Tracer.install`` wraps powerstore's public functions and methods in this
process only; ``uninstall`` puts every original back. A function imported
with ``from x import y`` is wrapped under every name it is bound to. Each
call records a span ``[name, start, end, parent, label, amount]``; spans stay
in memory for one run, are folded into per-layer totals and written out when
the run ends. Wrappers only read arguments and results, so a traced run draws
from no RNG stream and reproduces the untraced outputs exactly.

Nothing on the host queues in this single-threaded simulator, so the layer
metrics are counts, bytes, busy time and waste ratios; simulated ticks are a
protocol result, not waiting time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import workloads  # noqa: F401  (puts this checkout's src/ on the path)
from powerstore import (
    behaviors,
    checker,
    client,
    codec,
    core,
    crypto,
    erasure,
    scenarios,
    server,
    simnet,
)

KIND_NAME = codec.KIND_NAMES
REQUEST_KINDS = ("STORE", "COMPLETE", "COLLECT", "FILTER", "CLOCK", "REPAIR")
ACK_KINDS = tuple(k + "_ACK" for k in REQUEST_KINDS)
ALL_KINDS = tuple(KIND_NAME[k] for k in sorted(KIND_NAME))
CAND_KINDS = ("COLLECT_ACK", "FILTER", "REPAIR")
VALID_SPANS = ("core.valid_by_hist", "core.valid_mw")
# What wrapping public names from outside cannot measure, and why.
NOT_MEASURED = {
    "codec per-candidate decode": "candidates are decoded by private helpers "
    "inside codec.decode; decode_us_per_cand divides the decode time of "
    "candidate-carrying messages by the candidates they held",
    "server LC collect/gc": "SwServer.gc and _on_collect are private; their "
    "cost is inside server.handle_us.COLLECT and server.self_s",
    "event loop dispatch": "Simulation._dispatch/_deliver_* are private; "
    "their cost is simnet.self_s",
    "calls to private helpers": "a layer's calls to its own private helpers "
    "are not spans; they count as that layer's self time",
    "host queueing": "the simulator is single-threaded, so nothing waits on "
    "the host; simulated ticks are protocol results, not waiting time",
}
LAYERS = ("codec", "server", "client", "core", "crypto", "erasure", "simnet",
          "behaviors", "checker", "scenarios", "pipeline")


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover.

    Spans are listed in start order with ``parent`` the index of the span
    that was open when they started (-1 for none)."""
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)  # latest child end seen per parent
    for _, start, end, parent, *_ in spans:
        if parent < 0:
            continue
        lo = max(start, spans[parent][1], reach[parent])
        hi = min(end, spans[parent][2])
        if hi > lo:
            covered[parent] += hi - lo
        reach[parent] = max(reach[parent], hi)
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


def _kind(msg):
    return KIND_NAME.get(getattr(msg, "kind", None), "?")


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "powerstore" or name.startswith("powerstore.")]


class Tracer:
    """Span recorder plus the hooks that label spans at each wrap point."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._last_encoded = None
        self.counts = Counter()
        self.history_ops_max = 0
        self.calls = Counter()
        self.total = defaultdict(float)  # inclusive seconds per span name
        self.own = defaultdict(float)  # self seconds per span name
        self.amount = Counter()
        self.by_label = defaultdict(lambda: [0, 0.0])  # (name, label)
        self.top_core_s = 0.0

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recording one span per call; hooks label the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            if before is not None:
                before(rec, args)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                if after is not None:
                    after(rec, args, None, exc)
                raise
            rec[2] = clock()
            stack.pop()
            if after is not None:
                after(rec, args, out, None)
            return out

        return traced

    def _functions(self):
        return [
            (codec.encode, "codec.encode", None, self._after_encode),
            (codec.decode, "codec.decode", None, self._after_decode),
            (client.restore_value, "client.restore_value", None, None),
            (core.valid_by_hist, "core.valid_by_hist", None, self._after_valid),
            (core.valid_mw, "core.valid_mw", None, self._after_valid),
            (core.invalid, "core.invalid", None, None),
            (core.safe_witness, "core.safe_witness", None, None),
            (core.highcand, "core.highcand", None, None),
            (crypto.digest, "crypto.digest", None, self._after_first_len),
            (crypto.mac, "crypto.mac", None, None),
            (crypto.verify_mac, "crypto.verify_mac", None, None),
            (erasure.encode, "erasure.encode", None, self._after_first_len),
            (erasure.decode, "erasure.decode", self._before_ec_decode,
             self._after_out_len),
            (erasure.cross_checksum, "erasure.cross_checksum", None, None),
            (checker.verify_run, "checker.verify", None, None),
            (checker.check_linearizable, "checker.linearizable",
             self._before_linearizable, None),
            (checker.check_pow_soundness, "checker.pow_sound", None, None),
            (checker.account_rounds, "checker.rounds", None, None),
            (checker.check_non_skipping, "checker.non_skipping", None, None),
            (scenarios.report_for, "scenarios.report", None, None),
        ]

    def _methods(self):
        return [
            (simnet.Simulation, "__init__", "simnet.init", None, None),
            (simnet.Simulation, "run", "simnet.run", None, None),
            (simnet.Simulation, "schedule", "simnet.schedule", None, None),
            (simnet.Simulation, "trace", "simnet.trace", None, None),
            (simnet.RunResult, "log_digest", "scenarios.log_digest", None, None),
            (simnet.RunResult, "export_ndjson", "scenarios.export_ndjson",
             None, self._after_out_len),
            (simnet.RunResult, "history_signature", "scenarios.signature",
             None, None),
            (server.ServerBase, "handle", "server.handle", None,
             self._after_handle),
            (client.ClientBase, "on_message", "client.on_message",
             self._before_on_message, None),
            (behaviors.ByzReader, "pump", "behaviors.pump", None, None),
            (crypto.HashPow, "verify", "crypto.pow_verify", None, None),
            (crypto.ShamirPow, "verify", "crypto.pow_verify", None, None),
        ]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for fn, name, before, after in self._functions():
            wrapped = self.wrap(fn, name, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)
        for cls, attr, name, before, after in self._methods():
            self._patch(cls, attr, self.wrap(vars(cls)[attr], name, before, after))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- hooks: read arguments and results, never change them -----------------

    def _after_encode(self, rec, args, out, exc):
        msg = args[0]
        rec[4] = _kind(msg)
        if out is not None:
            rec[5] = len(out)
        if msg is self._last_encoded:
            self.counts["encode_repeats"] += 1
        self._last_encoded = msg

    def _after_decode(self, rec, args, out, exc):
        rec[5] = len(args[0])
        if isinstance(exc, codec.MalformedMessage):
            rec[4] = "MALFORMED"
            return
        if out is None:
            return
        rec[4] = _kind(out)
        if rec[4] == "REPAIR":
            self.counts["cands_decoded"] += 1
        elif rec[4] in CAND_KINDS:
            self.counts["cands_decoded"] += len(out.cands)

    def _after_handle(self, rec, args, out, exc):
        rec[4] = _kind(args[1])
        if exc is not None:
            return
        if out is None:
            self.counts["server_drops"] += 1
        elif rec[4] == "COLLECT":
            self.counts["collect_acks"] += 1
            self.counts["collect_cands"] += len(out.cands)

    def _before_on_message(self, rec, args):
        rec[4] = _kind(args[2])
        if args[0].crashed or not args[0].busy:
            self.counts["idle_acks"] += 1

    def _after_valid(self, rec, args, out, exc):
        rec[4] = bool(out)

    def _after_first_len(self, rec, args, out, exc):
        rec[5] = len(args[0])

    def _after_out_len(self, rec, args, out, exc):
        if out is not None:
            rec[5] = len(out)

    def _before_ec_decode(self, rec, args):
        frags, k = args[0], args[1]
        if isinstance(frags, (list, tuple)):
            first = sorted({fr.index for fr in frags})[:k]
            rec[4] = first == list(range(1, k + 1))

    def _before_linearizable(self, rec, args):
        self.history_ops_max = max(self.history_ops_max, len(args[0]))

    # -- folding -------------------------------------------------------------

    def fold(self):
        """Add the finished run's spans to the totals and forget them."""
        spans = self.spans
        own = self_times(spans)
        for i, (name, start, end, parent, label, amount) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.own[name] += own[i]
            if amount is not None:
                self.amount[name] += amount
            if label is not None:
                slot = self.by_label[name, label]
                slot[0] += 1
                slot[1] += dur
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name.startswith("core.") and not parent_name.startswith("core."):
                self.top_core_s += dur
                if name in VALID_SPANS:
                    self.counts["valid_decisions"] += 1
                    self.counts["valid_true"] += label is True
        spans.clear()

    def write_spans(self, fh, run_id):
        """Append the current run's spans as CSV lines tagged with run_id."""
        for i, (name, start, end, parent, label, amount) in enumerate(self.spans):
            fh.write("%s,%d,%s,%.9f,%.9f,%d,%s,%s\n" % (
                run_id, i, name, start, end, parent,
                "" if label is None else label, "" if amount is None else amount))

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.own.items():
            out[name.split(".")[0]] += seconds
        return out

    # -- metrics -------------------------------------------------------------

    def _label_mean_us(self, name, label):
        calls, seconds = self.by_label.get((name, label), (0, 0.0))
        return seconds / calls * 1e6 if calls else None

    def _ratio(self, num, den):
        return num / den if den else None

    def metrics(self, reports, traced_wall, untraced_wall):
        """Every per-layer metric as name -> (value, unit); None = no calls."""
        c, t, n, cnt = self.calls, self.total, self.amount, self.counts
        layer = self.layer_self()
        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        for fn in ("encode", "decode"):
            span = "codec." + fn
            put("codec.%s_calls" % fn, c[span], "count")
            put("codec.%s_bytes" % fn, n[span], "B")
            put("codec.%s_s" % fn, t[span], "s")
        for fn in ("encode", "decode"):
            for kind in ALL_KINDS:
                put("codec.%s_us.%s" % (fn, kind),
                    self._label_mean_us("codec." + fn, kind), "us")
        put("codec.cands_decoded", cnt["cands_decoded"], "count")
        cand_s = sum(self.by_label.get(("codec.decode", k), (0, 0.0))[1]
                     for k in CAND_KINDS)
        put("codec.decode_us_per_cand",
            self._ratio(cand_s * 1e6, cnt["cands_decoded"]), "us")
        put("codec.malformed_ratio", self._ratio(
            self.by_label.get(("codec.decode", "MALFORMED"), (0,))[0],
            c["codec.decode"]), "ratio")
        put("codec.encode_repeat_ratio",
            self._ratio(cnt["encode_repeats"], c["codec.encode"]), "ratio")

        put("server.handle_calls", c["server.handle"], "count")
        put("server.handle_s", t["server.handle"], "s")
        for kind in REQUEST_KINDS:
            put("server.handle_us." + kind,
                self._label_mean_us("server.handle", kind), "us")
        put("server.drops", cnt["server_drops"], "count")
        put("server.collect_cands_mean",
            self._ratio(cnt["collect_cands"], cnt["collect_acks"]), "count")
        put("server.lc_set_peak", max(r["lc_set_peak"] for r in reports), "count")

        put("client.on_message_calls", c["client.on_message"], "count")
        put("client.on_message_s", t["client.on_message"], "s")
        for kind in ACK_KINDS:
            put("client.on_message_us." + kind,
                self._label_mean_us("client.on_message", kind), "us")
        put("client.idle_ack_ratio",
            self._ratio(cnt["idle_acks"], c["client.on_message"]), "ratio")
        put("client.restore_calls", c["client.restore_value"], "count")
        put("client.restore_s", t["client.restore_value"], "s")

        put("core.valid_calls", cnt["valid_decisions"], "count")
        put("core.valid_true_ratio",
            self._ratio(cnt["valid_true"], cnt["valid_decisions"]), "ratio")
        put("core.invalid_calls", c["core.invalid"], "count")
        put("core.safe_witness_calls", c["core.safe_witness"], "count")
        put("core.predicates_s", self.top_core_s, "s")

        put("crypto.digest_calls", c["crypto.digest"], "count")
        put("crypto.digest_bytes", n["crypto.digest"], "B")
        put("crypto.digest_s", t["crypto.digest"], "s")
        for fn in ("mac", "verify_mac", "pow_verify"):
            put("crypto.%s_calls" % fn, c["crypto." + fn], "count")
            put("crypto.%s_s" % fn, t["crypto." + fn], "s")

        for fn in ("encode", "decode"):
            span = "erasure." + fn
            put("erasure.%s_calls" % fn, c[span], "count")
            put("erasure.%s_s" % fn, t[span], "s")
            put("erasure.%s_mb_per_s" % fn,
                self._ratio(n[span] / 1e6, t[span]), "MB/s")
        systematic = self.by_label.get(("erasure.decode", True), (0,))[0]
        put("erasure.systematic_ratio",
            self._ratio(systematic, c["erasure.decode"]), "ratio")
        put("erasure.cross_checksum_s", t["erasure.cross_checksum"], "s")

        put("simnet.run_s", t["simnet.run"], "s")
        put("simnet.init_s", t["simnet.init"], "s")
        put("simnet.events_scheduled", c["simnet.schedule"], "count")
        put("simnet.trace_events", c["simnet.trace"], "count")
        put("simnet.us_per_event",
            self._ratio(t["simnet.run"] * 1e6, c["simnet.schedule"]), "us")
        for key in ("msgs_sent", "bytes_sent", "ticks"):
            put("simnet." + key, sum(r[key] for r in reports),
                "B" if key == "bytes_sent" else
                "ticks" if key == "ticks" else "count")

        put("behaviors.pump_calls", c["behaviors.pump"], "count")
        put("behaviors.pump_s", t["behaviors.pump"], "s")

        for fn in ("verify", "linearizable", "pow_sound", "rounds",
                   "non_skipping"):
            put("checker.%s_s" % fn, t["checker." + fn], "s")
        put("checker.history_ops_max", self.history_ops_max, "count")

        put("scenarios.report_s", self.own["scenarios.report"], "s")
        put("scenarios.log_digest_s", t["scenarios.log_digest"], "s")
        put("scenarios.log_bytes", n["scenarios.export_ndjson"], "B")
        put("scenarios.signature_s", t["scenarios.signature"], "s")

        for name in LAYERS:
            put(name + ".self_s", layer[name], "s")
        put("trace.wall_s", traced_wall, "s")
        put("trace.untraced_wall_s", untraced_wall, "s")
        put("trace.overhead_ratio", self._ratio(traced_wall, untraced_wall),
            "ratio")
        return m

