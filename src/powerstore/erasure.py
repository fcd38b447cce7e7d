"""Systematic (S, k) maximum-distance-separable erasure coding over GF(2^8).

A value splits into k = t+1 data fragments plus S-k parity fragments built
from a Cauchy matrix, so every k-subset of the S fragments decodes back to
the value. Cross-checksums (one digest per fragment) let readers discard
corrupted fragments before decoding.

The arithmetic needs only table lookups and XOR. Multiplying a fragment by
a constant c is `payload.translate(table)`, where the table is the 256-byte
row b -> c*b, built from the exp/log tables on first use of c and cached.
Adding fragments is XOR of the payloads read as big integers
(`int.from_bytes`), written back with `to_bytes`. Generator rows and the
inverted decode matrix of each chosen fragment set are cached as tuples.
"""

from __future__ import annotations

import functools
import struct
from typing import Iterable, NamedTuple, Sequence

from .crypto import digest

_FRAGMENT_HEADER = struct.Struct(">HQ")  # index, orig_len
FRAGMENT_HEADER_BYTES = _FRAGMENT_HEADER.size

_PRIM_POLY = 0x11D


class ErasureError(Exception):
    """Inconsistent or undecodable fragment input."""


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
    return exp, log


_EXP, _LOG = _build_tables()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(2^8)")
    return _EXP[255 - _LOG[a]]


@functools.lru_cache(maxsize=None)
def _mul_table(c: int) -> bytes:
    """The bytes.translate table that multiplies every byte by c != 0."""
    return bytes([0] + [_EXP[_LOG[c] + _LOG[b]] for b in range(1, 256)])


def _combine(coefs: Sequence[int], rows: Sequence[bytes], chunk: int) -> bytes:
    """The GF(2^8) sum of coefs[i] * rows[i], each row `chunk` bytes long."""
    acc = 0
    for coef, row in zip(coefs, rows):
        if coef:
            acc ^= int.from_bytes(row.translate(_mul_table(coef)), "big")
    return acc.to_bytes(chunk, "big")


@functools.lru_cache(maxsize=4096)
def _generator_row(row: int, k: int) -> tuple:
    """Row `row` (0-based) of the S x k generator [I ; Cauchy]."""
    if row < k:
        return tuple(1 if col == row else 0 for col in range(k))
    # Cauchy block: entry = inverse(x ^ y), x in {k..S-1}, y in {0..k-1};
    # the sets are disjoint so x ^ y != 0, and every square submatrix of a
    # Cauchy matrix is nonsingular, which gives the MDS property.
    return tuple(_gf_inv(row ^ col) for col in range(k))


class Fragment(NamedTuple):
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
    rows = [padded[i * chunk:(i + 1) * chunk] for i in range(k)]
    fragments = [Fragment(i + 1, orig_len, rows[i]) for i in range(k)]
    for row in range(k, s):
        fragments.append(Fragment(row + 1, orig_len,
                                  _combine(_generator_row(row, k), rows, chunk)))
    return fragments


def cross_checksum(fragments: Sequence[Fragment]) -> tuple:
    """Digest of each fragment's wire bytes, indexed by server."""
    return tuple(digest(fragment_to_bytes(fr)) for fr in fragments)


@functools.lru_cache(maxsize=4096)
def _decode_matrix(indices: tuple, k: int) -> tuple:
    """Gauss-Jordan inverse over GF(2^8) of the k x k generator rows of the
    fragments `indices` (1-based)."""
    aug = [list(_generator_row(index - 1, k)) + [1 if i == j else 0
                                                 for j in range(k)]
           for i, index in enumerate(indices)]
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
    return tuple(tuple(row[k:]) for row in aug)


def decode(fragments: Iterable[Fragment], k: int, s: int) -> bytes:
    """Reconstruct the value from any >= k fragments with distinct indices."""
    by_index = {}
    for fr in fragments:
        if not 1 <= fr.index <= s:
            raise ErasureError("fragment index %d outside 1..%d" % (fr.index, s))
        by_index.setdefault(fr.index, fr)
    if len(by_index) < k:
        raise ErasureError(
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
    inverse = _decode_matrix(tuple(fr.index for fr in chosen), k)
    payloads = [fr.payload for fr in chosen]
    return b"".join(_combine(coefs, payloads, chunk)
                    for coefs in inverse)[:orig_len]
