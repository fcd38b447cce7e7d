"""Systematic (S, k) maximum-distance-separable erasure coding over GF(2^8).

A value splits into k = t+1 data fragments plus S-k parity fragments built
from a Cauchy matrix, so every k-subset of the S fragments decodes back to
the value. Cross-checksums (one digest per fragment) let readers discard
corrupted fragments before decoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .crypto import digest

_FRAGMENT_HEADER = struct.Struct(">HQ")  # index, orig_len
FRAGMENT_HEADER_BYTES = _FRAGMENT_HEADER.size

_PRIM_POLY = 0x11D


class ErasureError(Exception):
    """Inconsistent or undecodable fragment input."""


class InsufficientFragments(ErasureError):
    """Fewer than k fragments with distinct indices."""


class IndexOutOfRange(ErasureError):
    """Fragment index outside 1..S."""


def _build_tables():
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIM_POLY
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    mul = np.zeros((256, 256), dtype=np.uint8)
    for a in range(1, 256):
        row = np.array([exp[log[a] + log[b]] if b else 0 for b in range(256)],
                       dtype=np.uint8)
        mul[a] = row
    return exp, log, mul


_EXP, _LOG, _MUL = _build_tables()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(2^8)")
    return _EXP[255 - _LOG[a]]


def _generator_row(row: int, k: int) -> list:
    """Row `row` (0-based) of the S x k generator [I ; Cauchy]."""
    if row < k:
        return [1 if col == row else 0 for col in range(k)]
    # Cauchy block: entry = inverse(x ^ y), x in {k..S-1}, y in {0..k-1};
    # the sets are disjoint so x ^ y != 0, and every square submatrix of a
    # Cauchy matrix is nonsingular, which gives the MDS property.
    return [_gf_inv(row ^ col) for col in range(k)]


@dataclass(frozen=True)
class Fragment:
    """One server's coded share of a value (1-based index)."""

    index: int
    orig_len: int
    payload: bytes


def fragment_to_bytes(fr: Fragment) -> bytes:
    return _FRAGMENT_HEADER.pack(fr.index, fr.orig_len) + fr.payload


def fragment_from_bytes(data: bytes) -> Fragment:
    if len(data) < FRAGMENT_HEADER_BYTES:
        raise ErasureError("fragment shorter than its header")
    index, orig_len = _FRAGMENT_HEADER.unpack_from(data)
    return Fragment(index, orig_len, data[FRAGMENT_HEADER_BYTES:])


def encode(value: bytes, k: int, s: int) -> list:
    """Split value into s fragments, any k of which reconstruct it."""
    if not value:
        raise ValueError("cannot encode an empty value")
    if not 1 <= k <= s:
        raise ValueError("need 1 <= k <= s, got k=%d s=%d" % (k, s))
    if s > 255:
        raise ValueError("at most 255 fragments in GF(2^8)")
    orig_len = len(value)
    chunk = -(-orig_len // k)  # ceil
    padded = value + b"\x00" * (chunk * k - orig_len)
    rows = np.frombuffer(padded, dtype=np.uint8).reshape(k, chunk)
    fragments = [Fragment(i + 1, orig_len, rows[i].tobytes()) for i in range(k)]
    for row in range(k, s):
        coefs = _generator_row(row, k)
        acc = np.zeros(chunk, dtype=np.uint8)
        for col in range(k):
            acc ^= _MUL[coefs[col]][rows[col]]
        fragments.append(Fragment(row + 1, orig_len, acc.tobytes()))
    return fragments


def cross_checksum(fragments: Sequence[Fragment]) -> tuple:
    """Digest of each fragment's wire bytes, indexed by server."""
    return tuple(digest(fragment_to_bytes(fr)) for fr in fragments)


def _invert(matrix: list, k: int) -> list:
    """Gauss-Jordan inverse of a k x k matrix over GF(2^8)."""
    aug = [row[:] + [1 if i == j else 0 for j in range(k)]
           for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise ErasureError("singular decode matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = _gf_inv(aug[col][col])
        aug[col] = [_gf_mul(inv, v) for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v ^ _gf_mul(f, p) for v, p in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def decode(fragments: Iterable[Fragment], k: int, s: int) -> bytes:
    """Reconstruct the value from any >= k fragments with distinct indices."""
    by_index = {}
    for fr in fragments:
        if not 1 <= fr.index <= s:
            raise IndexOutOfRange("fragment index %d outside 1..%d" % (fr.index, s))
        by_index.setdefault(fr.index, fr)
    if len(by_index) < k:
        raise InsufficientFragments(
            "%d distinct fragments, need %d" % (len(by_index), k))
    chosen = [by_index[i] for i in sorted(by_index)][:k]
    orig_len = chosen[0].orig_len
    chunk = -(-orig_len // k)
    for fr in chosen:
        if fr.orig_len != orig_len:
            raise ErasureError("fragments disagree on original length")
        if len(fr.payload) != chunk:
            raise ErasureError("fragment payload length mismatch")
    if all(chosen[i].index == i + 1 for i in range(k)):  # systematic fast path
        return b"".join(fr.payload for fr in chosen)[:orig_len]
    matrix = [_generator_row(fr.index - 1, k) for fr in chosen]
    inverse = _invert(matrix, k)
    vecs = [np.frombuffer(fr.payload, dtype=np.uint8) for fr in chosen]
    out = bytearray()
    for row in range(k):
        acc = np.zeros(chunk, dtype=np.uint8)
        for col in range(k):
            coef = inverse[row][col]
            if coef:
                acc ^= _MUL[coef][vecs[col]]
        out += acc.tobytes()
    return bytes(out[:orig_len])
