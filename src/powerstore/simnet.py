"""Deterministic discrete-event simulation of the storage protocols.

One heap of (tick, seq) events drives everything: message deliveries, client
operation starts, adversary pumps, and state-reset timers. Four independent
RNG streams (delays, crypto, workload, adversary) are derived from the run
seed so that, e.g., swapping the proof scheme never perturbs the schedule.
Every copy of a message is encoded when sent and decoded when delivered,
through the run's one codec table, which only encoding fills: a wire the
run encoded decodes to the message it came from, a STORE's only at its one
delivery, and any other bytes are parsed. An event is a function and its
arguments, called when its tick comes. A party with an arm(sim) method
schedules its own first event when the run starts. One delivery step
decodes each copy and hands it to its client, or to its server to answer.

The fault table maps each party id to its one fault; server, writer and
reader ids never meet, so a party is correct iff it is absent. With log_wire
on, a send event is the adversary's view of a message: kind, size, raw bytes
as sent, and a STORE's commitment, "<redacted>" from a correct writer to a
correct server under the proof-sharing scheme.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import random
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from . import behaviors, codec, mutants
from .client import ProtocolInvariantError
from .codec import MalformedMessage
from .core import OperationRecord, Timestamp
from .crypto import KeyRing, Polynomial, ShamirShare, digest, pow_scheme
from .erasure import ErasureError

WRITER_ID_BASE = 100  # servers 1..3t+1, writers 101, 102, ..., readers 201, ...
READER_ID_BASE = 200
MAX_T = (WRITER_ID_BASE - 1) // 3  # so that ids never meet: 3t+1 <= 100
MAX_WRITERS = READER_ID_BASE - WRITER_ID_BASE
MAX_TICKS = 1_000_000  # livelock guard: a run still going then is a deadlock


class SimConfig(NamedTuple):
    """One run's knobs; parse_config/format_config round-trip the file form.
    The deployment follows from t alone: s = 3t+1 servers, k = t+1 fragments."""

    mode: str = "sw"
    pow_name: str = "hash"
    t: int = 1
    writers: int = 1
    readers: int = 2
    writes: int = 3
    reads: int = 3
    value_size: int = 64
    delay: str = "uniform:1,10"
    seed: int = 0
    faults: tuple = ()
    log_wire: bool = False
    adversary_budget: int = 48
    mutant: str = ""


# file key -> (SimConfig field, its default); the default gives the key's kind
_FIELDS = {{"pow_name": "pow", "faults": "fault"}.get(name, name):
           (name, SimConfig._field_defaults[name]) for name in SimConfig._fields}


def parse_config(text: str) -> SimConfig:
    """Key=value lines; # starts a comment; only fault= may repeat."""
    kwargs = {}
    faults = []
    first = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key=value, got %r" % (lineno, raw))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ValueError("line %d: unknown key %r" % (lineno, key))
        name, default = _FIELDS[key]
        kind = type(default)
        if key == "fault":
            faults.append(value)
            continue
        if key in first:
            raise ValueError("lines %d and %d both set %s"
                             % (first[key], lineno, key))
        first[key] = lineno
        if kind is bool:
            if value not in ("true", "false"):
                raise ValueError("line %d: %s wants true/false" % (lineno, key))
            kwargs[name] = value == "true"
        else:
            try:
                kwargs[name] = kind(value)
            except ValueError as exc:
                raise ValueError("line %d: %s: %s" % (lineno, key, exc)) from None
    if faults:
        kwargs["faults"] = tuple(faults)
    return SimConfig(**kwargs)


def format_config(cfg: SimConfig) -> str:
    lines = []
    for key, (name, default) in _FIELDS.items():
        value = getattr(cfg, name)
        if value == default:
            continue
        if key == "fault":
            lines.extend("fault=%s" % d for d in value)
        elif isinstance(value, bool):
            lines.append("%s=%s" % (key, "true" if value else "false"))
        else:
            lines.append("%s=%s" % (key, value))
    return "\n".join(lines) + "\n"


_DELAY_SHAPES = {  # model -> (its numbers' type, the spec's expected shape)
    "uniform": (int, "uniform:a,b with integers 1 <= a <= b"),
    "pareto": (float, "pareto:mean,var with a finite positive mean and "
               "variance and a finite shape"),
}


def make_delay_fn(spec: str):
    """uniform:a,b draws integer ticks in [a,b]; pareto:mean,var draws a
    type-I Pareto whose scale xm and shape alpha match the mean and variance,
    rounded to the nearest tick and never below 1. A draw takes the same
    numbers from rng as rng.randint(a, b) and rng.paretovariate(alpha)
    would."""
    kind, _, args = spec.partition(":")
    if kind not in _DELAY_SHAPES:
        raise ValueError("unknown delay model %r" % spec)
    number, shape = _DELAY_SHAPES[kind]
    bad = ValueError("delay %r: expected %s" % (spec, shape))
    try:
        a, b = map(number, args.split(","))
    except ValueError:
        raise bad from None
    if kind == "uniform":
        if not 1 <= a <= b:
            raise bad
        n = b - a + 1
        k = n.bit_length()

        def uniform(rng):
            r = rng.getrandbits(k)
            while r >= n:
                r = rng.getrandbits(k)
            return a + r
        return uniform
    mean, var = a, b
    alpha = xm = math.nan
    if mean > 0 and var > 0:
        alpha = 1.0 + math.sqrt(1.0 + mean * mean / var)
        xm = mean * (alpha - 1.0) / alpha
    if not all(map(math.isfinite, (mean, var, alpha, xm))):
        raise bad
    e = -1.0 / alpha
    return lambda rng: round(xm * (1.0 - rng.random()) ** e) or 1


def _fault_int(text, d):
    try:
        return int(text)
    except ValueError:
        raise ValueError("%r is not an integer in %r" % (text, d)) from None


def parse_faults(directives, s, writers, readers) -> dict:
    """The fault table: party id -> a byzantine server's or reader's
    behavior name, or a crashing writer's (phase, k)."""
    faults = {}
    for d in directives:
        parts = d.split(":")
        if parts[0] == "byz_server" and len(parts) == 3:
            party = _fault_int(parts[1], d)
            if not 1 <= party <= s:
                raise ValueError("no server %d in %r" % (party, d))
            if parts[2] not in behaviors.SERVERS:
                raise ValueError("unknown server behavior in %r" % d)
            fault = parts[2]
        elif parts[0] == "byz_reader" and len(parts) == 3:
            party = _fault_int(parts[1], d)
            if not READER_ID_BASE < party <= READER_ID_BASE + readers:
                raise ValueError("no reader %d in %r" % (party, d))
            if parts[2] not in behaviors.READERS:
                raise ValueError("unknown reader behavior in %r" % d)
            fault = parts[2]
        elif parts[0] == "crash_writer" and len(parts) == 4:
            party = _fault_int(parts[1], d)
            if not WRITER_ID_BASE < party <= WRITER_ID_BASE + writers:
                raise ValueError("no writer %d in %r" % (party, d))
            if parts[2] not in ("after_store", "after_complete"):
                raise ValueError("crash point must be after_store or after_complete")
            k = _fault_int(parts[3], d)
            if k < 0:
                raise ValueError("%d is below 0 in %r" % (k, d))
            if k >= s:  # a round crashes before its (k+1)-th send
                raise ValueError("%r never fires: k must be below s=%d"
                                 % (d, s))
            fault = (parts[2][len("after_"):], k)
        else:
            raise ValueError("bad fault directive %r" % d)
        if party in faults:
            # every directive before d parsed, so the first for party is one
            first = next(e for e in directives if int(e.split(":")[1]) == party)
            raise ValueError("%r and %r are both for party %d; give each "
                             "party one fault" % (first, d, party))
        faults[party] = fault
    return faults


def _stream_seed(seed: int, name: str) -> int:
    return int.from_bytes(digest(("%d:%s" % (seed, name)).encode())[:8], "big")


def make_value(cid: int, k: int, size: int) -> bytes:
    head = b"%d.%d|" % (cid, k)
    return head + b"x" * (size - len(head))


def value_header_bytes(writers: int, writes: int) -> int:
    """The longest value header a run writes: the last writer's last one."""
    if not writers or not writes:
        return 0
    return len(make_value(WRITER_ID_BASE + writers, writes, 0))


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def _entry(v):
    """v's row of _JSON; the log carries no other type."""
    if type(v) not in _JSON:
        raise TypeError("the event log carries no %s" % type(v).__name__)
    return _JSON[type(v)]


def _to_json(v):
    form, convert = _entry(v)
    return form % convert(v)


def _items(v):
    return "[%s]" % ",".join(map(_to_json, v))


def _dict(v):
    """Keys as their str, sorted: the deadlock report's tables have int keys."""
    return "{%s}" % ",".join([_json_str(str(k)) + ":" + _to_json(v[k])
                              for k in sorted(v, key=str)])


_JSON = {  # each type the log carries, exactly -> (its %-format, converter)
    int: ("%d", int),
    str: ("%s", _json_str),
    bytes: ('"0x%s"', bytes.hex),
    type(None): ("%s", lambda v: "null"),
    Timestamp: ("%s", lambda ts: '{"num":%d,"pid":%d,"tag":"0x%s"}'
                % (ts.num, ts.pid, ts.tag.hex())),
    Polynomial: ("%s", lambda p: '{"poly":{"coeffs":%s,"q":%d}}'
                 % (_items(p.coeffs), p.q)),
    ShamirShare: ("%s", lambda sh: '{"share":[%d,%d,%d]}'
                  % (sh.x, sh.y, sh.q)),
    dict: ("%s", _dict),
    list: ("%s", _items),
    tuple: ("%s", _items),
}
# operator.call is new in Python 3.11
_call = getattr(operator, "call", lambda convert, value: convert(value))
_LAYOUTS = {}  # event shape -> (%-format, sorted values getter, converters)


def event_to_json(ev) -> str:
    """One event as JSON with sorted keys and no spaces. A dict with two or
    more keys, all str, exports through its shape's layout (its keys in
    order and each value's exact type), built from _JSON the first time
    the shape is met; anything else is one _to_json value."""
    if type(ev) is not dict:
        return _to_json(ev)
    shape = (*ev, *map(type, ev.values()))
    layout = _LAYOUTS.get(shape)
    if layout is None:
        # itemgetter gives a tuple for two or more keys
        if len(ev) < 2 or any(type(k) is not str for k in ev):
            return _to_json(ev)
        keys = sorted(ev)
        forms, converters = zip(*map(_entry, map(ev.get, keys)))
        form = ",".join(_json_str(k).replace("%", "%%") + ":" + f
                        for k, f in zip(keys, forms))
        layout = _LAYOUTS[shape] = ("{" + form + "}",
                                    operator.itemgetter(*keys), converters)
    form, values, converters = layout
    return form % tuple(map(_call, converters, values(ev)))


class RunResult(NamedTuple):
    config: SimConfig
    history: list  # OperationRecord, in invocation order
    events: list
    metrics: dict  # the run's counts, built once by Simulation.run
    monitor: object
    crash_reason: object
    deadlock: object
    meta: dict

    def export_ndjson(self) -> str:
        return "\n".join(map(event_to_json, self.events)) + "\n"

    def log_digest(self) -> str:
        return digest(self.export_ndjson().encode()).hex()

    def history_signature(self):
        """Schedule-and-outcome fingerprint, independent of token bytes."""
        sig = []
        for rec in self.history:
            sig.append((rec.client, rec.kind, rec.value, rec.inv_tick,
                        rec.res_tick, rec.rounds, rec.repair_sent,
                        rec.ts.key() if rec.ts is not None else None))
        return tuple(sig)


class Simulation:
    """One run. Its counts live in int attributes while it goes (msgs_sent,
    bytes_sent, msgs_delivered, dropped_malformed, data_bytes, lc_set_peak),
    and run() gathers them into RunResult.metrics once, when it ends."""

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.log_wire = config.log_wire
        self.t = config.t
        for name in ("t", "writers", "readers", "writes", "reads", "value_size",
                     "adversary_budget"):
            if getattr(config, name) < 0:
                raise ValueError("%s must be at least 0, got %d"
                                 % (name, getattr(config, name)))
        self.s = 3 * self.t + 1
        for name, most in (("t", MAX_T), ("writers", MAX_WRITERS)):
            if getattr(config, name) > most:
                raise ValueError("%s must be at most %d, got %d"
                                 % (name, most, getattr(config, name)))
        head = value_header_bytes(config.writers, config.writes)
        if config.value_size < head:
            raise ValueError("value_size must be at least %d, the longest value "
                             "header, got %d" % (head, config.value_size))
        if config.mode not in ("sw", "mw"):
            raise ValueError("mode must be sw or mw")
        if config.mode == "sw" and config.writers > 1:
            raise ValueError("single-writer mode takes at most one writer")
        self.scheme = pow_scheme(config.pow_name)
        self.rng = {name: random.Random(_stream_seed(config.seed, name))
                    for name in ("delays", "crypto", "workload", "adversary")}
        self._delay = functools.partial(make_delay_fn(config.delay),
                                        self.rng["delays"])
        self.now = 0
        self._seq = 0
        self.heap = []
        self.events = []
        self.msgs_sent = self.bytes_sent = self.msgs_delivered = 0
        self.dropped_malformed = self.data_bytes = self.lc_set_peak = 0
        self.history = []
        self.monitor = None
        self.crash_reason = None
        self.deadlock = None
        # the codec's table: each message encoded and each optional list met,
        # both ways between the value and its wire bytes; a STORE's wire to
        # it, until its delivery
        self._table = {}

        self.faults = parse_faults(config.faults, self.s,
                                   config.writers, config.readers)
        crash = next((d for d in config.faults
                      if d.startswith("crash_writer")), None)
        if crash is not None and config.writes == 0:
            # the crash plan rides on a writer's last write
            raise ValueError("%r never fires: writes=0" % crash)
        self.keyring = (KeyRing.generate(self.s, self.rng["crypto"])
                        if config.mode == "mw" else None)
        classes = mutants.classes_for(config.mode, config.mutant)

        self.servers = {}
        for sid in range(1, self.s + 1):
            cls = classes["server"]
            if sid in self.faults:
                cls = mutants.layer(behaviors.SERVERS[self.faults[sid]], cls)
            self.servers[sid] = cls(sid, self.s, self.t, scheme=self.scheme,
                                    keyring=self.keyring, tracer=self.trace)

        self.clients = {}  # writers 101, 102, ..., then readers 201, 202, ...
        self.ops_left = {}  # operations not yet started, per correct client
        for role, base, n, ops, keyring in (
                ("writer", WRITER_ID_BASE, config.writers, config.writes,
                 self.keyring),
                ("reader", READER_ID_BASE, config.readers, config.reads, None)):
            for cid in range(base + 1, base + n + 1):
                if role == "reader" and cid in self.faults:
                    self.clients[cid] = behaviors.READERS[self.faults[cid]](
                        cid, self)
                    continue
                self.clients[cid] = classes[role](
                    cid, s=self.s, t=self.t, scheme=self.scheme,
                    keyring=keyring, send=functools.partial(self.send, cid),
                    rng=self.rng["crypto"], tracer=self.trace)
                self.ops_left[cid] = ops

    # -- plumbing ----------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def trace(self, etype, **fields):
        fields["seq"] = self.next_seq()
        fields["tick"] = self.now
        fields["type"] = etype
        self.events.append(fields)

    def schedule(self, delay, fn, *args):
        """Call fn(*args) delay ticks from now."""
        self._seq += 1
        heapq.heappush(self.heap, (self.now + delay, self._seq, fn, args))

    def send(self, src, dst, payload):
        """Send one copy of payload, a message or an adversary's raw bytes,
        as its wire bytes."""
        wire = (payload if isinstance(payload, bytes)
                else codec.encode(payload, self._table))
        self.msgs_sent += 1
        self.bytes_sent += len(wire)
        if self.log_wire:  # the send event is the adversary's view
            kind = int.from_bytes(wire[:1], "big")
            view = {}
            if isinstance(payload, bytes):
                view["raw"] = payload
            elif kind == codec.STORE:
                redact = (self.scheme.name == "shamir"
                          and dst not in self.faults
                          and self.clients[src].role == "writer")
                view["commitment"] = ("<redacted>" if redact
                                      else payload.commitment)
            self.trace("send", src=src, dst=dst, kind=kind, nbytes=len(wire),
                       **view)
        self.schedule(self._delay(), self._deliver, src, dst, wire)

    # -- deliveries --------------------------------------------------------

    def _deliver(self, src, dst, wire):
        """One copy reaches dst and is decoded: malformed bytes are dropped,
        a client takes a message, a server answers it."""
        self.msgs_delivered += 1
        try:
            msg = codec.decode(wire, self._table)
        except MalformedMessage:
            self.dropped_malformed += 1
            return
        if self.log_wire:
            self.trace("deliver", src=src, dst=dst, kind=msg.kind)
        client = self.clients.get(dst)
        if client is not None:
            client.on_message(src, msg)
            return
        server = self.servers[dst]
        if dst in self.faults:  # the monitor watches correct servers only
            reply = server.handle(msg, self.clients[src].role)
        else:
            prev_lc = server.lc
            reply = server.handle(msg, self.clients[src].role)
            lc = server.lc
            if (lc is not prev_lc and lc.ts.key() < prev_lc.ts.key()
                    and self.monitor is None):
                self.monitor = "lc regressed at server %d: %r -> %r" % (
                    dst, prev_lc.ts.key(), lc.ts.key())
                self.trace("monitor", server=dst, detail=self.monitor)
            if len(server.lc_set) > self.lc_set_peak:
                self.lc_set_peak = len(server.lc_set)
        if reply is not None:
            self.send(dst, src, reply)

    # -- workload ----------------------------------------------------------

    def _start_op(self, cid):
        """Invoke cid's next operation: one history record, stamped at its
        invoke event and again, by done, at its respond event."""
        client = self.clients[cid]
        assert not client.busy
        self.ops_left[cid] -= 1
        writing = client.role == "writer"
        kind = "write" if writing else "read"
        value = None
        if writing:
            value = make_value(cid, self.cfg.writes - self.ops_left[cid],
                               self.cfg.value_size)
            if self.ops_left[cid] == 0 and cid in self.faults:
                client.crash_plan = self.faults[cid]
        rec = OperationRecord(client=cid, kind=kind, value=value,
                              inv_seq=self.next_seq(), inv_tick=self.now)
        self.history.append(rec)
        shown = {"value": value} if writing else {}
        self.trace("invoke", client=cid, op=kind, **shown)

        def done(rounds, value=None, repaired=False):
            rec.res_seq = self.next_seq()
            rec.res_tick = self.now
            rec.rounds = rounds
            if writing:
                rec.ts = client.ts
                self.data_bytes += client.data_bytes
                shown = {"ts": client.ts}
            else:
                rec.value, rec.repair_sent = value, repaired
                shown = {"value": value}
            self.trace("respond", client=cid, op=kind, **shown)
            self._schedule_next_op(cid)

        if writing:
            client.write(value, done)
        else:
            client.read(done)

    def _schedule_next_op(self, cid):
        if self.ops_left.get(cid, 0) > 0:
            self.schedule(self.rng["workload"].randint(1, 6), self._start_op, cid)

    def _pending(self):
        """The records of operations started, unfinished and not crashed."""
        return (rec for rec in self.history if rec.res_seq is None
                and not self.clients[rec.client].crashed)

    def ops_pending(self) -> bool:
        return (any(n > 0 for n in self.ops_left.values())
                or any(self._pending()))

    # -- run ---------------------------------------------------------------

    def run(self) -> RunResult:
        for cid, ops in self.ops_left.items():
            # a client with no operations still draws its start, so the
            # other clients' schedules do not depend on it
            start = self.rng["workload"].randint(0, 4)
            if ops:
                self.schedule(start, self._start_op, cid)
        # timed parties: clients, then servers, each dict in id order
        for party in (*self.clients.values(), *self.servers.values()):
            arm = getattr(party, "arm", None)
            if arm is not None:
                arm(self)

        overran = False
        while self.heap:
            tick, _, fn, args = heapq.heappop(self.heap)
            if tick > MAX_TICKS:
                overran = True
                break
            self.now = tick
            try:
                fn(*args)
            except (ProtocolInvariantError, ErasureError) as exc:
                self.crash_reason = "%s: %s" % (type(exc).__name__, exc)
                self.trace("client_crash", detail=self.crash_reason)
                break

        done = [rec for rec in self.history if rec.res_seq is not None]
        metrics = {
            "msgs_sent": self.msgs_sent, "msgs_delivered": self.msgs_delivered,
            "bytes_sent": self.bytes_sent,
            "dropped_malformed": self.dropped_malformed,
            "data_bytes": self.data_bytes,
            "completed_writes": sum(1 for rec in done if rec.kind == "write"),
            "completed_reads": sum(1 for rec in done if rec.kind == "read"),
            "repairs": sum(1 for rec in done if rec.repair_sent),
            "lc_set_peak": self.lc_set_peak, "ticks": self.now,
            "accepts": sum(1 for ev in self.events if ev["type"] == "accept"),
        }
        if self.ops_pending() and self.crash_reason is None:
            self.deadlock = self._deadlock_report(overran)
            self.trace("deadlock", detail=self.deadlock)
        return RunResult(
            config=self.cfg, history=self.history, events=self.events,
            metrics=metrics, monitor=self.monitor,
            crash_reason=self.crash_reason, deadlock=self.deadlock,
            meta={
                "pow": self.cfg.pow_name, "t": self.t,
                "correct_servers": tuple(sid for sid in self.servers
                                         if sid not in self.faults),
                "correct_readers": tuple(cid for cid in self.clients
                                         if cid > READER_ID_BASE
                                         and cid not in self.faults),
            })

    def _deadlock_report(self, overran):
        return {
            "reason": "tick budget exhausted" if overran else "no events left",
            "pending": [{"client": rec.client, "op": rec.kind,
                         "phase": self.clients[rec.client].phase,
                         "rounds": self.clients[rec.client].rounds}
                        for rec in self._pending()],
            "unstarted": {cid: n for cid, n in sorted(self.ops_left.items())
                          if n > 0},
            "servers": {sid: self.servers[sid].snapshot()
                        for sid in sorted(self.servers)},
        }


def run(config: SimConfig) -> RunResult:
    return Simulation(config).run()
