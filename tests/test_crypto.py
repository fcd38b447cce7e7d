"""Crypto primitives: hashing, MACs, Shamir splitting, key derivation."""

import hashlib
import hmac
import random

import pytest

from powerstore import crypto
from powerstore.crypto import (
    KeyRing,
    Polynomial,
    ShamirShare,
    digest,
    mac,
    make_vec,
    pow_scheme,
    shamir_split,
    shamir_verify,
    verify_mac,
    verify_vec_entry,
)

# FIPS-180 test vector for the empty input, frozen independently of hashlib.
SHA256_EMPTY_HEX = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# chi-square 0.999 quantile at 100 degrees of freedom
CHI2_DF100_P999 = 149.449


def test_digest_empty_matches_reference_vector():
    assert digest(b"").hex() == SHA256_EMPTY_HEX
    assert len(digest(b"")) == 32


def test_digest_deterministic():
    rng = random.Random(1)
    for _ in range(100):
        x = rng.randbytes(rng.randrange(0, 64))
        assert digest(x) == digest(x)


def test_digest_extension_never_collides_in_sample():
    rng = random.Random(2)
    for _ in range(10_000):
        x = rng.randbytes(32)
        assert digest(x) != digest(x + b"\x00")


def test_mac_round_trip_property():
    rng = random.Random(3)
    for _ in range(10_000):
        k = rng.randbytes(rng.randrange(16, 48))
        m = rng.randbytes(rng.randrange(0, 40))
        assert verify_mac(k, m, mac(k, m))


def test_mac_equals_hmac_for_every_key_and_message_length():
    rng = random.Random(4)
    lengths = (16, 32, 63, 64, 65, 100)
    keys = [rng.randbytes(n) for _ in range(20) for n in lengths]
    assert len(keys) > crypto._keyed.cache_info().maxsize  # keys get evicted
    for m in (rng.randbytes(n) for n in (0, 1, 48, 200)):
        for i, k in enumerate(keys):
            # a fresh key, then one of the first six, whose states stay cached
            for key in (k, keys[i % len(lengths)]):
                assert mac(key, m) == hmac.new(key, m, hashlib.sha256).digest()
    with pytest.raises(ValueError):
        mac(rng.randbytes(15), b"m")


def test_mac_rejects_altered_message():
    k = b"k" * 32
    m = b"payload"
    assert not verify_mac(k, m + b"\x01", mac(k, m))


def test_mac_rejects_wrong_key_sample():
    rng = random.Random(4)
    for _ in range(1_000):
        k1 = rng.randbytes(32)
        k2 = rng.randbytes(32)
        if k1 == k2:
            continue
        m = rng.randbytes(16)
        assert not verify_mac(k2, m, mac(k1, m))


def test_mac_rejects_short_keys():
    with pytest.raises(ValueError):
        mac(b"short", b"m")
    with pytest.raises(ValueError):
        verify_mac(b"short", b"m", b"\x00" * 32)


def test_nonce_width_and_determinism():
    a = crypto.make_nonce(random.Random(9))
    b = crypto.make_nonce(random.Random(9))
    assert a == b and len(a) == crypto.NONCE_BYTES


# ---------------------------------------------------------------------------
# Shamir
# ---------------------------------------------------------------------------

def _shamir_interpolate(shares, q: int) -> Polynomial:
    """Lagrange-interpolate the unique degree len(shares)-1 polynomial."""
    xs = [sh.x for sh in shares]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x coordinates")
    n = len(shares)
    coeffs = [0] * n
    for i, sh in enumerate(shares):
        # basis_i(x) = prod_{j != i} (x - x_j) / (x_i - x_j), accumulated as
        # a coefficient vector
        basis = [1]
        denom = 1
        for j, other in enumerate(shares):
            if j == i:
                continue
            # multiply basis by (x - x_j)
            nxt = [0] * (len(basis) + 1)
            for d, b in enumerate(basis):
                nxt[d + 1] = (nxt[d + 1] + b) % q
                nxt[d] = (nxt[d] - b * other.x) % q
            basis = nxt
            denom = denom * (sh.x - other.x) % q
        scale = sh.y * pow(denom, q - 2, q) % q  # Fermat inverse, q prime
        for d, b in enumerate(basis):
            coeffs[d] = (coeffs[d] + b * scale) % q
    return Polynomial(tuple(coeffs), q)


def test_shamir_fixed_polynomial_shares():
    # P(x) = 3 + 2x over Z_13: P(1)=5, P(2)=7
    poly = Polynomial((3, 2), 13)
    assert poly.eval_at(1) == 5
    assert poly.eval_at(2) == 7
    assert shamir_verify(ShamirShare(1, 5, 13), poly)
    assert shamir_verify(ShamirShare(2, 7, 13), poly)
    assert not shamir_verify(ShamirShare(1, 6, 13), poly)


def test_shamir_verify_field_mismatch_is_false():
    poly = Polynomial((3, 2), 13)
    assert not shamir_verify(ShamirShare(1, 5, 17), poly)


def test_shamir_split_rejects_small_field_or_degree():
    with pytest.raises(ValueError):
        shamir_split(0, t=1, s=13, q=13)
    with pytest.raises(ValueError):
        shamir_split(0, t=4, s=4, q=101)


def test_shamir_split_shares_lie_on_polynomial_independent_eval():
    # evaluate by explicit powers, independent of the Horner code path
    poly, shares = shamir_split(1234, t=2, s=7, q=crypto.MERSENNE_61)
    assert len(shares) == 7
    assert len({sh.x for sh in shares}) == 7
    for sh in shares:
        ref = sum(c * pow(sh.x, j, poly.q) for j, c in enumerate(poly.coeffs)) % poly.q
        assert sh.y == ref
        assert 0 < sh.x < poly.q


def test_shamir_interpolation_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        t = rng.randrange(1, 4)
        s = rng.randrange(t + 1, 8)
        poly, shares = shamir_split(rng, t, s, 101)
        subset = rng.sample(shares, t + 1)
        assert _shamir_interpolate(subset, 101).coeffs == poly.coeffs


def test_shamir_corrupted_polynomial_verifies_at_one_server_only():
    # forge P_hat through one correct server's point plus t random points:
    # it verifies there and (w.h.p.) nowhere else
    rng = random.Random(6)
    q = crypto.MERSENNE_61
    t, s = 2, 7
    poly, shares = shamir_split(rng, t, s, q)
    target = shares[3]
    forged_points = [target]
    seen = {target.x}
    while len(forged_points) < t + 1:
        x = rng.randrange(1, q)
        if x in seen:
            continue
        seen.add(x)
        forged_points.append(ShamirShare(x, rng.randrange(q), q))
    p_hat = _shamir_interpolate(forged_points, q)
    assert shamir_verify(target, p_hat)
    for sh in shares:
        if sh.x != target.x:
            assert not shamir_verify(sh, p_hat)


def test_shamir_t_shares_leak_nothing_chi_square():
    # fix the free term and t share positions; the observed y at one position
    # over re-randomized polynomials should be uniform on Z_101
    q = 101
    t = 2
    rng = random.Random(7)
    xs = (5, 17)
    counts = [0] * q
    trials = 10_000
    for _ in range(trials):
        coeffs = (77,) + tuple(rng.randrange(q) for _ in range(t))
        poly = Polynomial(coeffs, q)
        counts[poly.eval_at(xs[0])] += 1
    expected = trials / q
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_DF100_P999


# ---------------------------------------------------------------------------
# Keys and canonical pre-images
# ---------------------------------------------------------------------------

def test_keyring_writer_key_derivation():
    ring = KeyRing.generate(4, random.Random(8))
    assert len(ring.group_keys) == 4
    assert ring.writer_key == digest(b"".join(ring.group_keys))
    assert ring.key_for(1) == ring.group_keys[0]
    assert ring.key_for(4) == ring.group_keys[3]


def test_timestamp_tags_round_trip_and_reject_forgery():
    ring = KeyRing.generate(4, random.Random(10))
    tag = crypto.tag_timestamp(ring.writer_key, 3, 101)
    assert crypto.verify_timestamp(ring.writer_key, 3, 101, tag)
    assert not crypto.verify_timestamp(ring.writer_key, 4, 101, tag)
    assert not crypto.verify_timestamp(ring.writer_key, 3, 102, tag)


def test_vec_entries_verify_per_server():
    ring = KeyRing.generate(4, random.Random(11))
    td = digest(b"token")
    vec = make_vec(ring, 2, 101, td)
    assert len(vec) == 4
    for i in range(1, 5):
        assert verify_vec_entry(ring.key_for(i), 2, 101, td, vec[i - 1])
    assert not verify_vec_entry(ring.key_for(1), 2, 101, td, vec[1])


def test_preimage_encoding_is_injective():
    # fixed-width fields: distinct (num, pid, digest) triples never collide
    seen = {}
    rng = random.Random(12)
    for _ in range(2_000):
        num = rng.randrange(0, 1 << 48)
        pid = rng.randrange(0, 1 << 16)
        td = rng.randbytes(32)
        pre = crypto.cand_preimage(num, pid, td)
        assert seen.setdefault(pre, (num, pid, td)) == (num, pid, td)
    # structural: components recoverable from the fixed layout
    pre = crypto.cand_preimage(7, 9, b"\xaa" * 32)
    assert int.from_bytes(pre[:8], "big") == 7
    assert int.from_bytes(pre[8:16], "big") == 9
    assert pre[16:] == b"\xaa" * 32


# ---------------------------------------------------------------------------
# PoW schemes
# ---------------------------------------------------------------------------

def test_hash_pow_mint_and_verify():
    scheme = pow_scheme("hash")
    token, commits = scheme.mint(random.Random(13), t=1, s=4)
    assert len(commits) == 4 and len(set(commits)) == 1
    assert all(scheme.verify(token, c) for c in commits)
    assert not scheme.verify(b"\x00" * 32, commits[0])
    assert scheme.token_digest(token) == commits[0]


def test_shamir_pow_mint_and_verify():
    scheme = crypto.ShamirPow(101)
    token, commits = scheme.mint(random.Random(14), t=1, s=4)
    assert len(commits) == 4
    assert all(scheme.verify(token, c) for c in commits)
    other, _ = scheme.mint(random.Random(15), t=1, s=4)
    assert any(not scheme.verify(other, c) for c in commits)
    # cross-type garbage never verifies
    assert not scheme.verify(b"nonce-bytes", commits[0])
    assert not pow_scheme("hash").verify(token, digest(b"x"))


def test_pow_scheme_lookup():
    assert pow_scheme("hash") is crypto.HASH_POW
    assert pow_scheme("shamir").q == crypto.MERSENNE_61
    with pytest.raises(ValueError):
        pow_scheme("rsa")
