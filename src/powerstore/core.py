"""Protocol-wide domain types and the candidate predicates.

A candidate is the metadata (timestamp, proof token[, MAC vector]) naming a
potentially completed write. Servers judge candidates with valid_* against
their history, which maps each stored timestamp to the STORE that wrote it.
A reader keeps each FILTER_ACK of its second round as checked_reply leaves
it and judges that table once per filter round: invalid_bound is invalid's
threshold for the whole table, and safe_witness gives the t+1 replies that
make the top candidate safe, fix its MAC vector and hold the fragments its
value is restored from. invalid and highcand are the paper's per-candidate
predicates, kept for the tests and the benchmark's tracer.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Union

from .crypto import HASH_POW, Polynomial, digest, verify_vec_entry
from .erasure import fragment_to_bytes

Token = Union[bytes, Polynomial]

BOTTOM = None  # the initial register value; never writable


class Timestamp(NamedTuple):
    """Write timestamp ordered lexicographically on (num, pid); the MAC tag
    never participates in comparison. Single-writer timestamps use pid 0 and
    an empty tag."""

    num: int
    pid: int = 0
    tag: bytes = b""

    def key(self):
        return self[:2]

    def __lt__(self, other):
        return self[:2] < other[:2]

    def __le__(self, other):
        return self[:2] <= other[:2]

    def __gt__(self, other):
        return self[:2] > other[:2]

    def __ge__(self, other):
        return self[:2] >= other[:2]


TS0 = Timestamp(0, 0, b"")


def token_canonical(token: Optional[Token]) -> bytes:
    """Scheme-tagged canonical bytes, used for deterministic ordering."""
    if token is None:
        return b"\x00"
    if isinstance(token, Polynomial):
        return b"\x02" + token.to_bytes()
    return b"\x01" + token


class Candidate(NamedTuple):
    """(ts, token[, vec]) tuple written back by clients and held in lc/LC."""

    ts: Timestamp
    token: Optional[Token] = None
    vec: Optional[tuple] = None  # S MAC tags, multi-writer mode only

    def sort_key(self):
        """A total order: (num, pid), token bytes, vector, then the tag and
        an absent vector after an empty one, so no two candidates tie."""
        (num, pid, tag), token, vec = self
        return (num, pid, token_canonical(token), vec or (), tag, vec is None)

    def __lt__(self, other):
        raise TypeError("candidates are unordered; compare sort_key()")

    __le__ = __gt__ = __ge__ = __lt__


C0 = Candidate(TS0, None, None)


# ---------------------------------------------------------------------------
# Server-side validity
# ---------------------------------------------------------------------------

def valid_by_hist(candidate: Candidate, hist: Mapping, scheme=HASH_POW) -> bool:
    """True iff the history entry (a STORE) at candidate.ts commits to its
    token."""
    if candidate.token is None:
        return False
    entry = hist.get(candidate.ts.key())
    if entry is None:
        return False
    return scheme.verify(candidate.token, entry.commitment)


def valid_mw(candidate: Candidate, hist: Mapping, server_index: int,
             group_key: bytes, scheme=HASH_POW) -> bool:
    """History branch or the per-server MAC branch over (ts, token digest)."""
    if valid_by_hist(candidate, hist, scheme):
        return True
    if candidate.token is None or candidate.vec is None:
        return False
    if len(candidate.vec) < server_index:
        return False
    entry = candidate.vec[server_index - 1]
    if not isinstance(entry, bytes):
        return False
    return verify_vec_entry(group_key, candidate.ts.num, candidate.ts.pid,
                            scheme.token_digest(candidate.token), entry)


# ---------------------------------------------------------------------------
# Reader-side reply table and predicates
# ---------------------------------------------------------------------------

def checked_reply(sid: int, msg):
    """FILTER_ACK msg from server sid as the reader keeps it: unchanged if
    its fragment's digest is slot sid of its cross-checksum, else with
    fr=None, so a reply with a missing or short cc witnesses nothing."""
    cc = msg.cc
    if msg.fr is None or (cc is not None and len(cc) >= sid and
                          digest(fragment_to_bytes(msg.fr)) == cc[sid - 1]):
        return msg
    return msg._replace(fr=None)


def safe_witness(candidate: Candidate, replies: Mapping, t: int):
    """The t+1 lexicographically smallest server ids whose checked replies
    carry a fragment for candidate.ts under one cross-checksum/vec, or None.

    Returns (ids, cc, vec). Grouping by (cc, vec) realizes the pairwise
    agreement clauses; checked_reply has already applied the own-slot rule.
    """
    key = candidate.ts.key()
    groups = {}
    for sid in sorted(replies):
        rep = replies[sid]
        if rep.fr is not None and rep.ts.key() == key:
            groups.setdefault((rep.cc, rep.vec), []).append(sid)
    best = None
    for (cc, vec), ids in groups.items():
        if len(ids) >= t + 1:
            pick = tuple(ids[: t + 1])
            if best is None or pick < best[0]:
                best = (pick, cc, vec)
    return best


def invalid_bound(replies: Mapping, s: int, t: int):
    """The (S-t)-th smallest reply timestamp key, or None with fewer than S-t
    replies: a candidate is invalid iff its ts.key() is above it (S > t)."""
    keys = sorted(rep.ts.key() for rep in replies.values())
    return keys[s - t - 1] if len(keys) >= s - t else None


def invalid(candidate: Candidate, replies: Mapping, s: int, t: int) -> bool:
    """At least S-t responders reported a timestamp strictly below c.ts."""
    bound = invalid_bound(replies, s, t)
    return bound is not None and bound < candidate.ts.key()


def highcand(candidate: Candidate, candidates) -> bool:
    """No member of the candidate set has a strictly greater timestamp."""
    ck = candidate.ts.key()
    return all(c.ts.key() <= ck for c in candidates)


# ---------------------------------------------------------------------------
# Operation records (the checker's input)
# ---------------------------------------------------------------------------

class OperationRecord:
    """One client operation as the harness observed it, filled in when it
    responds. res_seq/res_tick stay None for operations pending at the end
    of a run (crashed writers); ts is a write's timestamp."""

    __slots__ = ("client", "kind", "value", "inv_seq", "inv_tick", "res_seq",
                 "res_tick", "rounds", "repair_sent", "ts")

    def __init__(self, client: int, kind: str, value: Optional[bytes],
                 inv_seq: int, inv_tick: int, res_seq: Optional[int] = None,
                 res_tick: Optional[int] = None, rounds: Optional[int] = None,
                 repair_sent: bool = False, ts: Optional[Timestamp] = None):
        self.client = client
        self.kind = kind  # "write" | "read"
        self.value = value
        self.inv_seq = inv_seq
        self.inv_tick = inv_tick
        self.res_seq = res_seq
        self.res_tick = res_tick
        self.rounds = rounds
        self.repair_sent = repair_sent
        self.ts = ts
