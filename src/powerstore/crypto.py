"""Hashing, MACs, nonces, group keys, and the two proof-of-writing token schemes.

A proof-of-writing token is the secret a writer reveals in its second round to
prove the first round reached a quorum. Two interchangeable schemes:

- hash tokens: the token is a random nonce N, servers store the commitment H(N);
- shamir tokens: the token is a random degree-t polynomial over Z_q, each server
  stores one private share (x_i, P(x_i)) as its commitment.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import random
from typing import NamedTuple, Union

LAMBDA_BITS = 256
NONCE_BYTES = LAMBDA_BITS // 8
MIN_KEY_BYTES = 16

# Mersenne prime 2^61 - 1: products of two elements stay under 2^122, well
# inside Python ints, and shares fit 8-byte wire fields.
MERSENNE_61 = (1 << 61) - 1


def digest(data: bytes) -> bytes:
    """SHA-256 of data (32 bytes)."""
    return hashlib.sha256(data).digest()


_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@functools.lru_cache(maxsize=101)  # a run's keys at t=33: 100 group, 1 writer
def _keyed(key: bytes):
    """HMAC-SHA256's inner and outer hash states for key, computed once per
    key (RFC 2104, section 4): the key zero-padded to the 64-byte block,
    hashed first if longer, XORed with ipad and with opad."""
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\0")
    return (hashlib.sha256(key.translate(_IPAD)),
            hashlib.sha256(key.translate(_OPAD)))


def mac(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 tag over message (32 bytes). Keys must be >= 16 bytes."""
    if len(key) < MIN_KEY_BYTES:
        raise ValueError("MAC key shorter than %d bytes" % MIN_KEY_BYTES)
    inner, outer = _keyed(key)
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def verify_mac(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time check that tag authenticates message under key."""
    return _hmac.compare_digest(mac(key, message), tag)


def make_nonce(rng: random.Random) -> bytes:
    """Fresh lambda-bit nonce from the given PRNG stream."""
    return rng.randbytes(NONCE_BYTES)


# ---------------------------------------------------------------------------
# Shamir polynomials
# ---------------------------------------------------------------------------

class Polynomial(NamedTuple):
    """P(x) = sum coeffs[j] * x^j over Z_q; coeffs[0] is the free term."""

    coeffs: tuple  # t+1 field elements, low degree first
    q: int

    def eval_at(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):  # Horner
            acc = (acc * x + c) % self.q
        return acc

    def to_bytes(self) -> bytes:
        parts = [self.q.to_bytes(8, "big"), len(self.coeffs).to_bytes(2, "big")]
        parts.extend(c.to_bytes(8, "big") for c in self.coeffs)
        return b"".join(parts)


class ShamirShare(NamedTuple):
    """One evaluation point (x, P(x)) of a split polynomial over Z_q."""

    x: int
    y: int
    q: int


def shamir_split(seed: Union[int, random.Random], t: int, s: int, q: int):
    """Random degree-t polynomial over Z_q plus s shares at distinct x > 0.

    Returns (Polynomial, [ShamirShare] * s). Any t+1 shares determine the
    polynomial; any t reveal nothing about coeffs[0].
    """
    if q <= s:
        raise ValueError("field size q=%d must exceed share count s=%d" % (q, s))
    if t >= s:
        raise ValueError("threshold t=%d must be below share count s=%d" % (t, s))
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    coeffs = tuple(rng.randrange(q) for _ in range(t + 1))
    poly = Polynomial(coeffs, q)
    xs = set()
    while len(xs) < s:
        xs.add(rng.randrange(1, q))
    shares = [ShamirShare(x, poly.eval_at(x), q) for x in sorted(xs)]
    return poly, shares


def shamir_verify(share: ShamirShare, poly: Polynomial) -> bool:
    """True iff the share lies on the polynomial (and fields agree)."""
    if share.q != poly.q:
        return False
    return poly.eval_at(share.x) == share.y


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

class KeyRing(NamedTuple):
    """Per-server group keys k_1..k_S plus the shared writer key k_W.

    k_W = H(k_1 || k_2 || ... || k_S). Servers hold only their own k_i;
    writers hold everything; readers hold nothing.
    """

    group_keys: tuple  # one 32-byte key per server, index i-1 for server i
    writer_key: bytes

    @classmethod
    def generate(cls, s: int, rng: random.Random) -> "KeyRing":
        keys = tuple(rng.randbytes(32) for _ in range(s))
        return cls(keys, digest(b"".join(keys)))

    def key_for(self, server_id: int) -> bytes:
        return self.group_keys[server_id - 1]


# Canonical MAC pre-images. Fixed-width fields keep the encodings prefix-free
# and injective: num and pid as 8-byte big-endian, then raw digest bytes.

def ts_preimage(num: int, pid: int) -> bytes:
    return num.to_bytes(8, "big") + pid.to_bytes(8, "big")


def cand_preimage(num: int, pid: int, token_digest: bytes) -> bytes:
    return ts_preimage(num, pid) + token_digest


def tag_timestamp(writer_key: bytes, num: int, pid: int) -> bytes:
    """Writer-key MAC binding a timestamp (num, pid)."""
    return mac(writer_key, ts_preimage(num, pid))


def verify_timestamp(writer_key: bytes, num: int, pid: int, tag: bytes) -> bool:
    return verify_mac(writer_key, ts_preimage(num, pid), tag)


def make_vec(keyring: KeyRing, num: int, pid: int, token_digest: bytes) -> tuple:
    """Per-server MAC vector over (ts, token digest), one entry per group key."""
    pre = cand_preimage(num, pid, token_digest)
    return tuple(mac(k, pre) for k in keyring.group_keys)


def verify_vec_entry(key: bytes, num: int, pid: int, token_digest: bytes,
                     entry: bytes) -> bool:
    return verify_mac(key, cand_preimage(num, pid, token_digest), entry)


# ---------------------------------------------------------------------------
# Proof-of-writing schemes
# ---------------------------------------------------------------------------

class HashPow:
    """Token = random nonce; commitment = its hash, identical at all servers."""

    name = "hash"

    def mint(self, rng: random.Random, t: int, s: int):
        token = make_nonce(rng)
        commitment = digest(token)
        return token, [commitment] * s

    def verify(self, token, commitment) -> bool:
        if not isinstance(token, bytes) or not isinstance(commitment, bytes):
            return False
        return digest(token) == commitment

    def token_digest(self, token) -> bytes:
        return digest(token)


class ShamirPow:
    """Token = random polynomial; commitment = one private share per server."""

    name = "shamir"

    def __init__(self, q: int = MERSENNE_61):
        self.q = q

    def mint(self, rng: random.Random, t: int, s: int):
        poly, shares = shamir_split(rng, t, s, self.q)
        return poly, list(shares)

    def verify(self, token, commitment) -> bool:
        if not isinstance(token, Polynomial) or not isinstance(commitment, ShamirShare):
            return False
        return shamir_verify(commitment, token)

    def token_digest(self, token) -> bytes:
        return digest(token.to_bytes())


HASH_POW = HashPow()


def pow_scheme(name: str):
    if name == "hash":
        return HASH_POW
    if name == "shamir":
        return ShamirPow()
    raise ValueError("unknown pow scheme %r" % name)
