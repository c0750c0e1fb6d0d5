import _hashlib
import contextlib
import copy
import ctypes
import dataclasses
import hashlib
import math
import pickle
import random
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedgbt import paillier
from fedgbt.gbt import GRAD_SCALE_BITS, quantize
from fedgbt.paillier import (
    EncodingError,
    PublicKey,
    aggregate,
    decrypt,
    encrypt,
    hex_to_int,
    int_to_hex,
    keygen,
    keypair_from_primes,
)


@pytest.fixture(params=["libcrypto", "pow"])
def powmod_backend(request, monkeypatch):
    """Runs a test once on each backend of ``paillier._powmod``: the
    libcrypto one loaded at import, and the builtin ``pow`` it falls back to."""
    if request.param == "pow":
        monkeypatch.setattr(paillier, "_powmod", pow)
    elif paillier._powmod is pow:
        pytest.skip("no libcrypto loaded")
    return request.param


needs_libcrypto = pytest.mark.skipif(paillier._powmod is pow, reason="no libcrypto loaded")


@pytest.fixture(scope="session")
def keypair_512():
    return keygen(key_bits=512, rng_seed=42)


def toy_keypair():
    return keypair_from_primes(3, 5)


def test_keygen_small_primes_matches_modular_arithmetic_oracle():
    pk, sk = toy_keypair()
    assert pk.n == 15
    assert pk.g == 16
    assert sk.lam == math.lcm(2, 4) == 4
    # independent oracle: L(g^lam mod n^2) and its inverse mod n
    u = pow(16, 4, 225)
    assert u == 61
    denom = (u - 1) // 15
    assert denom == 4
    assert sk.mu == pow(denom, -1, 15) == 4


def _textbook_encrypt(pk, m, r):
    """The textbook ciphertext ``(1 + m * n) * r^n mod n^2`` of ``m`` under a unit ``r``."""
    return (1 + m * pk.n) * pow(r, pk.n, pk.n_squared) % pk.n_squared


def test_encrypt_known_value_and_roundtrip():
    pk, sk = toy_keypair()
    c = _textbook_encrypt(pk, 7, 2)
    assert c == pow(16, 7, 225) * pow(2, 15, 225) % 225 == 83
    assert decrypt(sk, pk, c) == 7


def test_encrypt_zero_with_unit_randomness_is_one():
    pk, sk = toy_keypair()
    assert _textbook_encrypt(pk, 0, 1) == 1
    assert decrypt(sk, pk, encrypt(pk, 0, rng=random.Random(0))) == 0


def test_encrypt_same_r_same_ciphertext_different_r_same_plaintext():
    pk, sk = toy_keypair()
    c1 = _textbook_encrypt(pk, 4, 2)
    c3 = _textbook_encrypt(pk, 4, 7)
    assert encrypt(pk, 4, rng=random.Random(2)) == encrypt(pk, 4, rng=random.Random(2))
    assert c3 != c1
    assert decrypt(sk, pk, c1) == decrypt(sk, pk, c3) == 4


def test_decrypt_identity_ciphertext_is_zero():
    pk, sk = toy_keypair()
    assert decrypt(sk, pk, 1) == 0


def _textbook_decrypt(sk, pk, c):
    return (pow(c, sk.lam, pk.n_squared) - 1) // pk.n * sk.mu % pk.n


def test_crt_decrypt_matches_textbook_formula_on_every_toy_ciphertext():
    pk, sk = toy_keypair()
    units = [c for c in range(1, pk.n_squared) if math.gcd(c, pk.n) == 1]
    assert [decrypt(sk, pk, c) for c in units] == [
        _textbook_decrypt(sk, pk, c) for c in units
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_crt_decrypt_matches_textbook_formula(keypair_512, seed):
    pk, sk = keypair_512
    assert sk.p * sk.q == pk.n
    c = random.Random(seed).randrange(1, pk.n_squared)
    assert decrypt(sk, pk, c) == _textbook_decrypt(sk, pk, c)


def test_zero_roundtrip_any_keypair(keypair_512):
    pk, sk = keypair_512
    assert decrypt(sk, pk, encrypt(pk, 0, rng=random.Random(1))) == 0


def test_keygen_deterministic_under_seed():
    pk1, sk1 = keygen(key_bits=512, rng_seed=7)
    pk2, sk2 = keygen(key_bits=512, rng_seed=7)
    assert (pk1.n, pk1.g, sk1.lam, sk1.mu) == (pk2.n, pk2.g, sk2.lam, sk2.mu)
    pk3, _ = keygen(key_bits=512, rng_seed=8)
    assert pk3.n != pk1.n


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_probable_prime_agrees_with_trial_division_below_2_to_the_12():
    # the primes from 41 to 179 are among the fixed Miller-Rabin bases
    assert [n for n in range(1 << 12)
            if paillier._is_probable_prime(n) != _is_prime_by_trial_division(n)] == []


def test_a_16_bit_keygen_can_pick_a_prime_among_the_bases():
    primes = set()
    for seed in range(400):
        _, sk = keygen(key_bits=16, rng_seed=seed)
        primes |= {sk.p, sk.q}
    assert primes & set(range(41, 180))


def test_keys_at_seeds_0_to_9_are_pinned(powmod_backend):
    # the prime search draws the same candidates and accepts the same primes
    # as before small primes among the bases were admitted: every 512-bit
    # candidate lies far above the largest base
    digest = hashlib.sha256()
    for seed in range(10):
        pk, sk = keygen(key_bits=512, rng_seed=seed)
        digest.update(f"{sk.p},{sk.q},{pk.g};".encode())
    assert digest.hexdigest() == (
        "e44e92993a24807563a59d21a1e82ae149469b5a110fa8d0b7d6b80b919b38e1")


@needs_libcrypto
def test_2048_bit_keys_at_seeds_0_to_9_are_pinned():
    digest = hashlib.sha256()
    for seed in range(10):
        pk, sk = keygen(key_bits=2048, rng_seed=seed)
        digest.update(f"{sk.p},{sk.q},{pk.g};".encode())
    assert digest.hexdigest() == (
        "f1b8d1f7e05ccf365297f1a6deeedb225fdda66a516753fea8a518b47c0d665b")


def test_keygen_prime_length_and_gcd_condition():
    pk, _ = keygen(key_bits=256, rng_seed=3)
    assert pk.n.bit_length() >= 255
    assert pk.g == pk.n + 1
    assert math.gcd(pk.g, pk.n_squared) == 1


def test_a_public_key_with_another_generator_is_refused():
    pk, _ = toy_keypair()
    assert PublicKey(15, 16) == pk
    assert pk.n_squared == 225
    for g in (pk.n + 2, pk.n, 2, 0):
        with pytest.raises(ValueError, match="g is not n \\+ 1"):
            PublicKey(pk.n, g)


def test_encrypt_out_of_range_raises(keypair_512):
    pk, _ = keypair_512
    with pytest.raises(EncodingError):
        encrypt(pk, pk.n, rng=random.Random(3))
    with pytest.raises(EncodingError):
        encrypt(pk, -1, rng=random.Random(3))


@pytest.mark.parametrize("key, match", [
    ({"n": 4, "g": 5, "key_bits": 3}, "key_bits 3 below 16"),
    ({"n": 1, "g": 2, "key_bits": 1}, "key_bits 1 below 16"),
    ({"n": 2, "g": 3, "key_bits": 2}, "key_bits 2 below 16"),
    ({"n": 3, "g": 4, "key_bits": 2}, "key_bits 2 below 16"),
    ({"n": 6, "g": 7, "key_bits": 3}, "key_bits 3 below 16"),
    ({"n": 15, "g": 16, "key_bits": 4}, "key_bits 4 below 16"),
    ({"n": 2**15 - 1, "g": 2**15, "key_bits": 15}, "key_bits 15 below 16"),
    ({"n": 2**15, "g": 2**15 + 1, "key_bits": 16}, "n is even"),
    ({"n": 2**255 + 2, "g": 2**255 + 3, "key_bits": 256}, "n is even"),
])
def test_received_public_key_refuses_an_n_no_keygen_makes(key, match):
    # under an n of 1, 2, 3, 4 or 6 the first encryption would never find its base
    with pytest.raises(ValueError, match=f"^{match}$"):
        paillier.received_public_key(key)


def test_received_public_key_accepts_every_16_bit_keygen_key():
    for seed in range(50):
        pk, sk = keygen(key_bits=16, rng_seed=seed)
        received = paillier.received_public_key({"n": pk.n, "g": pk.g, "key_bits": 16})
        assert received == pk
        assert decrypt(sk, pk, encrypt(received, 5, rng=random.Random(seed))) == 5


def _h_s(pk):
    return pow(paillier._obfuscator_base(pk.n), pk.n, pk.n_squared)


@pytest.fixture(scope="session")
def obfuscator_keypairs():
    """Keypairs by size, each with its ``h_s``."""
    pairs = {bits: keygen(key_bits=bits, rng_seed=bits) for bits in (16, 128, 512, 2048)}
    return {bits: (pk, sk, _h_s(pk)) for bits, (pk, sk) in pairs.items()}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 128, 512, 2048]), st.integers(min_value=0, max_value=2**2176),
       st.integers(min_value=0, max_value=2**2176 - 1))
@example(512, 2**2176, 0)
@example(16, 2**2176, 2**2176 - 1)
@example(128, 2**2176, 2**2176 - 1)
@example(512, 2**2176, 2**2176 - 1)
@example(2048, 2**2176, 2**2176 - 1)
def test_obfuscator_matches_pow_on_both_backends(obfuscator_keypairs, key_bits, length_share,
                                                 raw):
    pk, sk, h_s = obfuscator_keypairs[key_bits]
    # exponents of every length up to the full one
    length = pk.obfuscator_bits * length_share // 2**2176
    a = raw % 2**length
    expected = pow(h_s, a, pk.n_squared)
    # one 2048-bit pow takes about 0.1 s, so the pow backend stops at 512 bits
    backends = [paillier._powmod] + ([pow] if key_bits <= 512 else [])
    for backend in dict.fromkeys(backends):
        with mock.patch.object(paillier, "_powmod", backend):
            # fresh key objects, so each backend computes its own h_s
            fresh_pk, fresh_sk = PublicKey(pk.n, pk.g), dataclasses.replace(sk)
            assert fresh_pk.obfuscator(a) == fresh_sk.obfuscator(a) == expected


@pytest.mark.parametrize("key_bits, seed", [(512, 42), (200, 200)])
def test_an_obfuscator_exponent_outside_the_drawn_range_raises(powmod_backend, key_bits, seed):
    # seed 200 gives a 199-bit n, whose 327-bit exponent range ends off a byte
    # boundary; a negative exponent would be an inverse to pow
    pk, sk = keygen(key_bits=key_bits, rng_seed=seed)
    bits = pk.obfuscator_bits
    top = 2**bits - 1
    assert pk.obfuscator(top) == sk.obfuscator(top) == pow(_h_s(pk), top, pk.n_squared)
    for a in (-1, -2**bits, 2**bits, 2**bits + 1, 2**(bits + 64) - 1):
        for key in (pk, sk):
            with pytest.raises(ValueError, match=rf"exponent outside \[0, 2\^{bits}\)"):
                key.obfuscator(a)


class _RecordingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def getrandbits(self, k):
        self.drawn.append(k)
        return super().getrandbits(k)


def test_encrypt_draws_a_full_length_exponent_for_r_in_the_base_subgroup(keypair_512):
    pk, sk = keypair_512
    rng = _RecordingRandom(7)
    c = encrypt(pk, 41, rng=rng)
    assert rng.drawn == [pk.n.bit_length() + 128]
    a = random.Random(7).getrandbits(pk.n.bit_length() + 128)
    r = pow(paillier._obfuscator_base(pk.n), a, pk.n)
    assert c == _textbook_encrypt(pk, 41, r)
    assert decrypt(sk, pk, c) == 41


@pytest.mark.parametrize("key_bits", [16, 128, 512])
def test_obfuscator_base_is_a_public_unit(key_bits):
    pk, _ = keygen(key_bits=key_bits, rng_seed=key_bits)
    h = paillier._obfuscator_base(pk.n)
    assert 1 < h < pk.n - 1
    assert math.gcd(h, pk.n) == 1
    assert paillier._obfuscator_base(pk.n) == h
    assert pk.h_s == _h_s(pk)


def test_each_public_key_object_builds_its_own_table(keypair_512, monkeypatch):
    n = keypair_512[0].n
    builds = []
    real = paillier._obfuscator_base
    monkeypatch.setattr(paillier, "_obfuscator_base", lambda m: builds.append(m) or real(m))
    first = PublicKey(n=n, g=n + 1)
    second = PublicKey(n=n, g=n + 1)
    rng = random.Random(3)
    encrypt(first, 1, rng=rng)
    encrypt(first, 2, rng=rng)
    assert builds == [n]
    encrypt(second, 3, rng=rng)
    assert builds == [n, n]
    assert first.h_s == second.h_s


_COMB_KEY_BITS = [16, 64, 512, 1024, 2048]


@pytest.fixture(scope="session")
def comb_keys():
    """Public keys by size, each with its ``h_s`` from ``pow`` and, under
    libcrypto, its comb already built."""
    keys = {}
    for bits in _COMB_KEY_BITS:
        pk, _ = keygen(key_bits=bits, rng_seed=bits)
        if paillier._powmod is not pow:
            pk.obfuscator(1)
        keys[bits] = pk, _h_s(pk)
    return keys


def _clear_column(a, steps, k):
    """``a`` with step ``k`` of every block of every tooth cleared: the
    comb's digit column ``k`` is all zero."""
    return a & ~sum(1 << (block * steps + k) for block in range(64))


@needs_libcrypto
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_COMB_KEY_BITS), st.sampled_from(["zero", "one", "top", "random"]),
       st.integers(0, 2**2176 - 1), st.sampled_from([None, "first", "last", "any"]),
       st.integers(0, 2**16))
@example(16, "top", 0, "first", 0)
@example(64, "top", 0, "last", 0)
@example(512, "top", 0, "any", 3)
@example(1024, "random", 2**2176 - 1, "first", 0)
@example(2048, "top", 0, "any", 17)
@example(2048, "one", 0, None, 0)
def test_the_comb_obfuscator_equals_pow(comb_keys, key_bits, kind, raw, column, which):
    pk, h_s = comb_keys[key_bits]
    bits = pk.obfuscator_bits
    steps = -(-bits // 64)
    a = {"zero": 0, "one": 1, "top": 2**bits - 1, "random": raw % 2**bits}[kind]
    if column is not None:
        a = _clear_column(a, steps, {"first": steps - 1, "last": 0, "any": which % steps}[column])
    assert pk.obfuscator(a) == pow(h_s, a, pk.n_squared)


def test_a_built_comb_leaves_pow_its_plain_power(comb_keys, powmod_backend, monkeypatch):
    pk, h_s = comb_keys[512]
    assert "_comb" in vars(pk)
    transposed = []
    real = paillier._comb_digits
    monkeypatch.setattr(paillier, "_comb_digits",
                        lambda a, steps: transposed.append(a) or real(a, steps))
    a = random.Random(5).getrandbits(pk.obfuscator_bits)
    assert pk.obfuscator(a) == pow(h_s, a, pk.n_squared)
    assert transposed == ([a] if powmod_backend == "libcrypto" else [])


def test_system_randomness_roundtrips():
    pk, sk = keygen(key_bits=128, rng_seed=11)
    for m in (0, 1, 12345, pk.n - 1):
        c1, c2 = encrypt(pk, m), encrypt(pk, m)
        assert c1 != c2
        assert decrypt(sk, pk, c1) == decrypt(sk, pk, c2) == m


def test_aggregate_pair_and_identities(keypair_512):
    pk, sk = keypair_512
    rng = random.Random(0)
    c2, c3 = encrypt(pk, 2, rng=rng), encrypt(pk, 3, rng=rng)
    assert decrypt(sk, pk, aggregate(pk, [c2, c3])) == 5
    assert aggregate(pk, [c2]) == c2
    empty = aggregate(pk, [])
    assert empty == 1
    assert decrypt(sk, pk, empty) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**200), st.integers(min_value=0, max_value=2**200))
def test_additive_homomorphism_property(keypair_512, m1, m2):
    pk, sk = keypair_512
    rng = random.Random(m1 ^ m2)
    total = aggregate(pk, [encrypt(pk, m1, rng=rng), encrypt(pk, m2, rng=rng)])
    assert decrypt(sk, pk, total) == m1 + m2


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**400))
def test_encrypt_decrypt_roundtrip_property(keypair_512, m):
    pk, sk = keypair_512
    assert decrypt(sk, pk, encrypt(pk, m, rng=random.Random(m))) == m


def test_semantic_variation_over_trials(keypair_512):
    pk, _ = keypair_512
    rng = random.Random(99)
    seen = {encrypt(pk, 41, rng=rng) for _ in range(100)}
    assert len(seen) == 100


def _encrypted_sum(pk, sk, xs, rng):
    """Sum of quantized ``xs`` under encryption, decrypted as a signed value."""
    cs = [encrypt(pk, int(quantize(x)) % pk.n, rng=rng) for x in xs]
    bound = sum(abs(int(quantize(x))) for x in xs)
    return decrypt(sk, pk, aggregate(pk, cs), bound=bound) / 2**GRAD_SCALE_BITS


def test_encrypted_signed_sum(keypair_512):
    pk, sk = keypair_512
    assert _encrypted_sum(pk, sk, (0.25, -0.75), random.Random(2)) == -0.5


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20))
def test_signed_multiset_sum_within_bound(keypair_512, xs):
    pk, sk = keypair_512
    total = _encrypted_sum(pk, sk, xs, random.Random(len(xs)))
    assert abs(total - sum(xs)) <= len(xs) * 2**-GRAD_SCALE_BITS


def test_hex_serialization_roundtrip(keypair_512):
    pk, _ = keypair_512
    text = int_to_hex(pk.n)
    assert text == text.lower()
    assert hex_to_int(text) == pk.n


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1 << 3000) | st.integers(0, 1100).map(lambda k: (1 << k) - 1)
       | st.integers(0, 1100).map(lambda k: 1 << k))
def test_hex_is_minimal_lowercase_and_only_that_decodes(value):
    text = int_to_hex(value)
    assert text == format(value, "x")
    assert hex_to_int(text) == value
    for other in (text.upper(), "0" + text, " " + text, text + " ", "0x" + text, "+" + text,
                  "-" + text, text[:1] + "_" + text[1:]):
        if other != text:
            with pytest.raises(ValueError):
                hex_to_int(other)


@pytest.fixture(scope="session")
def keypairs_by_size():
    return {bits: keygen(key_bits=bits, rng_seed=100 + bits) for bits in (128, 256, 512)}


def _signed_full_decrypt(sk, pk, c):
    m = decrypt(sk, pk, c)
    return m - pk.n if m > pk.n // 2 else m


_ONE = 2**64  # bound and value are drawn as fractions of _ONE


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([128, 256, 512]), st.integers(min_value=0, max_value=_ONE),
       st.integers(min_value=-_ONE, max_value=_ONE))
@example(128, _ONE, 0)
@example(256, _ONE, _ONE)
@example(512, _ONE, -_ONE)
@example(512, 0, 0)
def test_bounded_decrypt_equals_signed_full_decrypt(keypairs_by_size, key_bits, bound_share,
                                                     value_share):
    pk, sk = keypairs_by_size[key_bits]
    bound = (sk.p - 1) // 2 * bound_share // _ONE  # 2 * bound < p
    v = bound * value_share // _ONE  # in [-bound, bound]
    c = encrypt(pk, v % pk.n, rng=random.Random(value_share))
    assert decrypt(sk, pk, c, bound=bound) == _signed_full_decrypt(sk, pk, c) == v
    assert decrypt(sk, pk, 1, bound=bound) == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([128, 256, 512]), st.integers(min_value=0, max_value=2**40),
       st.integers(min_value=1, max_value=2**30), st.booleans())
def test_bounded_decrypt_rejects_a_value_beyond_the_bound(keypairs_by_size, key_bits, bound,
                                                          excess, negative):
    pk, sk = keypairs_by_size[key_bits]
    v = (bound + excess) * (-1 if negative else 1)
    c = encrypt(pk, v % pk.n, rng=random.Random(excess))
    with pytest.raises(EncodingError):
        decrypt(sk, pk, c, bound=bound)


def test_bounded_decrypt_rejects_a_bound_of_half_p_or_more(keypairs_by_size):
    pk, sk = keypairs_by_size[128]
    c = encrypt(pk, 3, rng=random.Random(0))
    assert decrypt(sk, pk, c, bound=(sk.p - 1) // 2) == 3
    for bound in ((sk.p + 1) // 2, -1):
        with pytest.raises(EncodingError):
            decrypt(sk, pk, c, bound=bound)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([128, 256, 512]), st.integers(min_value=0),
       st.integers(min_value=0, max_value=2**32))
@example(128, 0, 0)
@example(512, 0, 1)
def test_key_holder_encryption_equals_public_encryption(keypairs_by_size, key_bits, m, seed):
    pk, sk = keypairs_by_size[key_bits]
    m %= pk.n
    public = encrypt(pk, m, rng=random.Random(seed))
    held = encrypt(pk, m, rng=random.Random(seed), sk=sk)
    assert held == public
    assert decrypt(sk, pk, held) == m


def test_private_key_obfuscator_equals_the_public_table(keypair_512, powmod_backend,
                                                         monkeypatch):
    pk, held = keypair_512
    sk = dataclasses.replace(held)  # a fresh object, with no tables built yet
    builds = []
    real = paillier._obfuscator_base
    monkeypatch.setattr(paillier, "_obfuscator_base", lambda m: builds.append(m) or real(m))
    for a in (0, 1, sk.p - 1, sk.q - 1, (sk.p - 1) * (sk.q - 1), 2**pk.obfuscator_bits - 1):
        assert sk.obfuscator(a) == pk.obfuscator(a)
    assert builds == [pk.n]  # both per-prime bases, once, on first use
    assert sk.h_s_halves == (pk.h_s % sk.p_squared, pk.h_s % sk.q_squared)


def test_key_holder_encryption_rejects_a_foreign_private_key(keypair_512):
    pk, _ = keypair_512
    _, other = keygen(key_bits=512, rng_seed=43)
    with pytest.raises(ValueError):
        encrypt(pk, 1, rng=random.Random(0), sk=other)


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _odd_modulus(bits, raw):
    """An odd modulus of ``bits`` bits (3 at 2 bits) drawn from ``raw``."""
    return raw % 2**bits | 2**(bits - 1) | 1


_BASE_KINDS = ["zero", "modulus", "below", "above", "negative"]


def _base(kind, mod, raw):
    return {"zero": 0, "modulus": mod, "below": raw % mod, "above": mod + raw,
            "negative": -raw}[kind]


@needs_libcrypto
@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4096), st.integers(0, 2**4096), st.sampled_from(_BASE_KINDS),
       st.integers(0, 2**4200), st.sampled_from([0, 1]) | st.integers(0, 2**2200))
@example(2, 0, "below", 2, 1)  # 3: the smallest modulus libcrypto takes
@example(2, 0, "negative", 1, 2**2200)
@example(4096, 2**4096 - 1, "modulus", 0, 0)
@example(4096, 2**4096 - 1, "above", 2**4200, 2**2200 - 1)
@example(1024, 0, "zero", 0, 0)
def test_libcrypto_powmod_equals_pow(bits, raw_mod, kind, raw_base, exp):
    # each example brings a new modulus, which evicts an old one from the
    # thread's Montgomery cache; the second call finds it there
    mod = _odd_modulus(bits, raw_mod)
    base = _base(kind, mod, raw_base)
    expected = pow(base, exp, mod)
    assert paillier._powmod(base, exp, mod) == expected
    assert paillier._powmod(base, exp, mod) == expected


@needs_libcrypto
@settings(max_examples=200, deadline=None)
@given(st.integers(-2**64, 2**600), st.integers(-2**300, 2**300), st.integers(-5, 2**600))
@example(3, -1, 8)  # an inverse modulo an even number
@example(2, -1, 9)
@example(3, -1, 9)  # no inverse: ValueError, as from pow
@example(5, 7, 0)
@example(5, 7, 1)
@example(5, 7, 2)
@example(5, 7, -3)
def test_even_moduli_small_moduli_and_negative_exponents_go_to_pow(base, exp, mod):
    # even moduli, moduli below 3 and negative exponents; anything else is
    # the case above
    if exp >= 0 and mod >= 3 and mod & 1:
        mod += 1
    assert _outcome(paillier._powmod, base, exp, mod) == _outcome(pow, base, exp, mod)


@needs_libcrypto
def test_four_threads_share_the_backend():
    # each thread keeps its own libcrypto context, scratch numbers and
    # Montgomery cache, and cycles through more moduli than the cache holds
    start = threading.Barrier(4)
    mismatches = []
    moduli = [_odd_modulus(bits, 2 * raw) for raw in range(paillier._MONTGOMERY_CACHE_SIZE // 3 + 2)
              for bits in (64, 512, 1024)]
    assert len(set(moduli)) > paillier._MONTGOMERY_CACHE_SIZE

    def compare(seed):
        rng = random.Random(seed)
        start.wait()
        for _ in range(200):
            mod = rng.choice(moduli)
            base, exp = rng.getrandbits(1100), rng.getrandbits(rng.randrange(1, 600))
            if paillier._powmod(base, exp, mod) != pow(base, exp, mod):
                mismatches.append((seed, base, exp, mod))

    threads = [threading.Thread(target=compare, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@needs_libcrypto
def test_four_threads_race_the_first_comb_build_of_one_key(monkeypatch):
    # the comb is read-only and each thread's accumulator its own; should
    # more than one thread build it (cached_property takes no lock from
    # Python 3.12), the builds that lose are dropped and freed
    calls = _counting_libcrypto(monkeypatch, _TABLE_ALLOCATING)
    n = keygen(key_bits=512, rng_seed=42)[0].n
    messages = [0, 1, 7, n - 1] * 8
    one_thread = PublicKey(n, n + 1)
    expected = [[encrypt(one_thread, m, rng=rng) for m in messages]
                for rng in map(random.Random, range(4))]
    del one_thread
    shared = PublicKey(n, n + 1)
    shared.h_s  # so that the threads race the comb alone
    warm, go = threading.Barrier(5), threading.Barrier(5)
    results = [None] * 4

    def encrypt_all(seed):
        paillier._powmod(3, 5, 7)  # the thread's scratch numbers, before the count
        warm.wait()
        go.wait()
        rng = random.Random(seed)
        results[seed] = [encrypt(shared, m, rng=rng) for m in messages]

    threads = [threading.Thread(target=encrypt_all, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        warm.wait()
        del calls[:]
        go.wait()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    allocated, freed, contexts, contexts_freed = _table_balance(calls)
    assert contexts >= 1
    assert (allocated - freed, contexts - contexts_freed) == (_COMB_BIGNUMS, 1)
    del shared
    assert _table_balance(calls)[1::2] == (allocated, contexts)


_LIBCRYPTO_SYMBOLS = ["BN_new", "BN_free", "BN_CTX_new", "BN_bin2bn", "BN_bn2binpad",
                      "BN_MONT_CTX_new", "BN_MONT_CTX_set", "BN_MONT_CTX_free", "BN_mod_exp_mont",
                      "BN_to_montgomery", "BN_mod_mul_montgomery", "BN_copy",
                      "BN_from_montgomery"]


class _LibraryWithout:
    """A loaded library with ``missing`` symbols absent and ``replaced`` ones
    swapped for Python functions."""

    def __init__(self, lib, missing=(), replaced=None):
        self._lib, self._missing, self._replaced = lib, missing, replaced or {}

    def __getattr__(self, name):
        if name in self._missing:
            raise AttributeError(name)
        return self._replaced.get(name) or getattr(self._lib, name)


def _counting_libcrypto(monkeypatch, counted, replaced=None):
    """Puts a fresh libcrypto backend in place of ``paillier._powmod`` whose
    ``counted`` symbols append ``(symbol, args)`` to the list it returns,
    and whose ``replaced`` ones are the given Python functions."""
    real, calls = ctypes.CDLL, []

    def counting(name):
        lib = real(name)

        def wrapped(symbol):
            fn = getattr(lib, symbol)
            fn.restype, fn.argtypes = counted[symbol]
            return lambda *args: calls.append((symbol, args)) or fn(*args)

        return _LibraryWithout(lib, replaced={**{s: wrapped(s) for s in counted},
                                              **(replaced or {})})

    monkeypatch.setattr(ctypes, "CDLL", counting)
    monkeypatch.setattr(paillier, "_powmod", paillier._load_powmod())
    return calls


def test_a_library_that_does_not_load_leaves_pow(monkeypatch):
    asked = []

    def refuse(name):
        asked.append(name)
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    assert paillier._load_powmod() is pow
    assert asked == [_hashlib.__file__, "libcrypto.so.3", "libcrypto.so.1.1"]


@needs_libcrypto
@pytest.mark.parametrize("symbol", _LIBCRYPTO_SYMBOLS)
def test_a_symbol_that_does_not_load_leaves_pow(monkeypatch, symbol):
    real = ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _LibraryWithout(real(name), {symbol}))
    assert paillier._load_powmod() is pow


@needs_libcrypto
def test_the_second_soname_serves_when_the_first_does_not_load(monkeypatch):
    real, asked = ctypes.CDLL, []

    def second_only(name):
        asked.append(name)
        if name == "libcrypto.so.3":
            raise OSError(name)
        for soname in (name, "libcrypto.so.3"):  # whichever is installed, as the second
            try:
                return real(soname)
            except OSError:
                continue
        raise OSError(name)

    monkeypatch.setattr(ctypes, "CDLL", second_only)
    monkeypatch.setitem(sys.modules, "_hashlib", None)  # its import raises ImportError
    powmod = paillier._load_powmod()
    assert asked == ["libcrypto.so.3", "libcrypto.so.1.1"]
    assert powmod is not pow
    assert powmod(3, 2**100 + 1, 2**127 - 1) == pow(3, 2**100 + 1, 2**127 - 1)


@needs_libcrypto
def test_the_hashlib_library_serves_when_both_sonames_are_refused(monkeypatch):
    real, asked = ctypes.CDLL, []

    def hashlib_only(name):
        asked.append(name)
        if name in paillier._LIBCRYPTO_SONAMES:
            raise OSError(name)
        return real(name)

    monkeypatch.setattr(ctypes, "CDLL", hashlib_only)
    powmod = paillier._load_powmod()
    assert asked == [_hashlib.__file__]
    assert powmod is not pow
    assert powmod(3, 2**100 + 1, 2**127 - 1) == pow(3, 2**100 + 1, 2**127 - 1)


@needs_libcrypto
def test_a_failing_libcrypto_call_raises(monkeypatch):
    real = ctypes.CDLL
    for symbol in ("BN_mod_exp_mont", "BN_MONT_CTX_set"):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: _LibraryWithout(
            real(name), replaced={symbol: lambda *args: 0}))
        powmod = paillier._load_powmod()
        assert powmod(3, 5, 8) == pow(3, 5, 8)  # an even modulus never reaches libcrypto
        for _ in range(2):  # a context that failed to set up is not cached
            with pytest.raises(RuntimeError, match=f"{symbol} failed"):
                powmod(3, 5, 7)


@needs_libcrypto
def test_the_montgomery_cache_keeps_the_last_moduli_and_frees_what_it_evicts(monkeypatch):
    ptr = ctypes.c_void_p
    calls = _counting_libcrypto(monkeypatch, {"BN_MONT_CTX_set": (ctypes.c_int, [ptr] * 3),
                                              "BN_MONT_CTX_free": (None, [ptr]),
                                              "BN_free": (None, [ptr])})
    powmod = paillier._powmod
    size = paillier._MONTGOMERY_CACHE_SIZE
    moduli = [_odd_modulus(256, 2 * raw) for raw in range(size + 2)]

    def run(mods):
        del calls[:]
        for mod in mods:
            assert powmod(5, mod >> 1, mod) == pow(5, mod >> 1, mod)
        names = [symbol for symbol, _ in calls]
        return names.count("BN_MONT_CTX_set"), names.count("BN_MONT_CTX_free"), names.count(
            "BN_free")

    assert run(moduli) == (size + 2, 2, 2)  # the first two are evicted
    assert run(moduli[2:][::-1]) == (0, 0, 0)  # the last `size` are all kept
    assert run(moduli[:1]) == (1, 1, 1)  # evicts the least recently used, moduli[-1]
    assert run(moduli[-1:]) == (1, 1, 1)  # which evicts moduli[-2] in turn
    assert run(moduli[:1] + moduli[2:-2] + moduli[-1:]) == (0, 0, 0)


def _horner_oracle(n_squared, cs, runs, width):
    """The fold by Horner's rule from the last run, computed here with ``pow``."""
    acc, stop = 1, len(cs)
    for size in reversed(runs):
        acc = pow(acc, 2**width, n_squared) * math.prod(cs[stop - size:stop]) % n_squared
        stop -= size
    return acc


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([256, 512, 2048]), st.integers(0, 2**2048),
       st.lists(st.integers(0, 5), max_size=7), st.integers(1, 64), st.data())
@example(256, 0, [], 1, None)
@example(2048, 2**2048, [0], 64, None)
@example(512, 5, [0, 3, 0], 29, None)
def test_native_aggregate_equals_the_python_loop(key_bits, raw_n, runs, width, data):
    # a modulus of the key's size stands in for a key: aggregate needs n alone,
    # and n^2 has 512, 1024 or 4096 bits
    n = raw_n % 2**key_bits | 2**(key_bits - 1) | 1
    pk = PublicKey(n, n + 1)
    terms = st.sampled_from([0, 1, pk.n_squared - 1]) | st.integers(0, pk.n_squared - 1)
    cs = [1] * sum(runs) if data is None else [data.draw(terms) for _ in range(sum(runs))]
    expected = _horner_oracle(pk.n_squared, cs, runs, width)
    results = [aggregate(pk, cs, runs, width)]
    if len(runs) < 2:
        results.append(aggregate(pk, cs))
    if paillier._powmod is not pow:
        with paillier.operands(pk, cs) as loaded:
            results.append(aggregate(pk, loaded, runs, width))
    with mock.patch.object(paillier, "_powmod", pow):
        results.append(aggregate(pk, cs, runs, width))
        with paillier.operands(pk, cs) as loaded:
            assert loaded == cs
            results.append(aggregate(pk, loaded, runs, width))
    assert results == [expected] * len(results)


@pytest.mark.parametrize("runs, width, match", [
    ([3, -1], 8, r"runs \[3, -1\] are not non-negative ints"),
    ([1, 1.0], 8, r"runs \[1, 1.0\] are not non-negative ints"),
    ([True, 1], 8, r"runs \[True, 1\] are not non-negative ints"),
    ([1, 2], 8, "runs of 3 ciphertexts for a list of 2"),
    ([1, 1], None, "width None is not a positive int"),
    ([1, 1], 0, "width 0 is not a positive int"),
    ([1, 1], 2.0, "width 2.0 is not a positive int"),
    ([0, 2], True, "width True is not a positive int"),
])
def test_aggregate_rejects_runs_and_widths_up_front(keypair_512, powmod_backend, runs, width,
                                                    match):
    pk, _ = keypair_512
    with pytest.raises(ValueError, match=match):
        aggregate(pk, [2, 3], runs, width)


def test_aggregate_needs_no_width_for_one_run(keypair_512, powmod_backend):
    pk, _ = keypair_512
    assert aggregate(pk, [2, 3], [2]) == aggregate(pk, [2, 3], [2], None) == 6


@pytest.mark.parametrize("term", ["n^2", "n^2 + 1", -1, "7", 7.0, True, None])
def test_aggregate_and_operands_reject_a_term_outside_the_ciphertext_range(
        keypair_512, powmod_backend, term):
    pk, _ = keypair_512
    term = {"n^2": pk.n_squared, "n^2 + 1": pk.n_squared + 1}.get(term, term)
    with pytest.raises(EncodingError, match=r"^ciphertext 1 is not an int in \[0, n\^2\)$"):
        aggregate(pk, [2, term, 3], [1, 2], 8)
    with pytest.raises(EncodingError, match=r"^ciphertext 1 is not an int in \[0, n\^2\)$"):
        with paillier.operands(pk, [2, term]):
            pass


@needs_libcrypto
def test_operands_serve_only_their_own_block_and_modulus(keypair_512, monkeypatch):
    pk, _ = keypair_512
    other = PublicKey(pk.n + 2, pk.n + 3)
    with paillier.operands(pk, [2, 3]) as loaded:
        assert aggregate(pk, loaded) == 6
        with monkeypatch.context() as patched:  # the backend that loaded them folds them
            patched.setattr(paillier, "_powmod", pow)
            n_squared = pk.n_squared
            assert aggregate(pk, loaded, [1, 1], 8) == pow(3, 2**8, n_squared) * 2 % n_squared
        with pytest.raises(ValueError, match="operands freed or loaded for another modulus"):
            aggregate(other, loaded)
        with pytest.raises(EncodingError, match="ciphertext 0 is not an int"):
            aggregate(pk, [*loaded, 5])  # ints and operands do not mix
    with pytest.raises(ValueError, match="operands freed or loaded for another modulus"):
        aggregate(pk, loaded)


@needs_libcrypto
def test_operands_loaded_in_one_thread_are_aggregated_in_four():
    # every thread folds the same loaded operands with its own context and
    # scratch numbers, among powers modulo other moduli
    rng = random.Random(4)
    keys = [PublicKey(n, n + 1) for n in (_odd_modulus(bits, rng.getrandbits(bits))
                                          for bits in (256, 512, 1024))]
    cs = {pk: [rng.randrange(pk.n_squared) for _ in range(40)] for pk in keys}
    runs = [7, 0, 13, 20]
    start = threading.Barrier(4)
    mismatches = []

    def compare(seed, loaded):
        pick = random.Random(seed)
        start.wait()
        for _ in range(60):
            pk = pick.choice(keys)
            width = pick.randrange(1, 65)
            if aggregate(pk, loaded[pk], runs, width) != _horner_oracle(pk.n_squared, cs[pk],
                                                                        runs, width):
                mismatches.append((seed, pk.n, width))
            base = pick.getrandbits(600)
            if paillier._powmod(base, 65537, pk.n) != pow(base, 65537, pk.n):
                mismatches.append((seed, pk.n, base))

    with contextlib.ExitStack() as stack:
        loaded = {pk: stack.enter_context(paillier.operands(pk, cs[pk])) for pk in keys}
        threads = [threading.Thread(target=compare, args=(seed, loaded)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


_PTR = ctypes.c_void_p
_ALLOCATING = {"BN_new": (_PTR, []), "BN_bin2bn": (_PTR, [_PTR, ctypes.c_int, _PTR]),
               "BN_free": (None, [_PTR]), "BN_to_montgomery": (ctypes.c_int, [_PTR] * 4),
               "BN_mod_mul_montgomery": (ctypes.c_int, [_PTR] * 5)}


_TABLE_ALLOCATING = {**{s: _ALLOCATING[s] for s in ("BN_new", "BN_bin2bn", "BN_free")},
                     "BN_MONT_CTX_new": (_PTR, []), "BN_MONT_CTX_free": (None, [_PTR])}

# a comb holds its modulus, its one and 8 rows of 255 other entries
_COMB_BIGNUMS = 2 + 8 * 255


def _table_balance(calls):
    """(BIGNUMs allocated, BIGNUMs freed, Montgomery contexts made, and freed)."""
    names = [symbol for symbol, _ in calls]
    return (*_balance(calls)[:2], names.count("BN_MONT_CTX_new"),
            names.count("BN_MONT_CTX_free"))


def _balance(calls):
    """(BIGNUMs allocated, BIGNUMs freed, conversions into Montgomery form, products)."""
    names = [symbol for symbol, _ in calls]
    allocated = names.count("BN_new") + sum(symbol == "BN_bin2bn" and args[2] is None
                                            for symbol, args in calls)
    return (allocated, names.count("BN_free"), names.count("BN_to_montgomery"),
            names.count("BN_mod_mul_montgomery"))


@needs_libcrypto
def test_bin_aggregate_frees_every_bignum_it_loads(monkeypatch):
    from fedgbt.data import PartyDataset
    from fedgbt.vfl import PassiveParty

    calls = _counting_libcrypto(monkeypatch, _ALLOCATING)
    pk, _ = keygen(key_bits=256, rng_seed=9)
    rng = np.random.default_rng(9)
    ids = list(range(30))
    passive = PassiveParty("p", PartyDataset("p", np.array(ids), rng.normal(size=(30, 3)),
                                             ("x", "y", "z")), 4)
    passive.pk = pk
    draw = random.Random(9)
    passive.receive_gradients({s: encrypt(pk, draw.randrange(100), rng=draw) for s in ids},
                              {s: encrypt(pk, draw.randrange(100), rng=draw) for s in ids})
    passive.bin_aggregate(ids, 2, 3)  # the thread's scratch numbers and n^2's context
    backend = paillier._powmod
    for space in (ids, ids[5:25]):
        del calls[:]
        eg, eh, counts = passive.bin_aggregate(space, 2, 3)
        # each ciphertext is loaded once per stream, and one product per
        # (sample, feature, stream) folds it
        assert _balance(calls) == (2 * len(space), 2 * len(space), 2 * len(space),
                                   2 * 3 * len(space))
        monkeypatch.setattr(paillier, "_powmod", pow)
        assert passive.bin_aggregate(space, 2, 3)[:2] == (eg, eh)
        monkeypatch.setattr(paillier, "_powmod", backend)


@needs_libcrypto
@pytest.mark.parametrize("symbol", ["BN_mod_mul_montgomery", "BN_to_montgomery"])
def test_a_failing_product_or_conversion_raises_and_frees_its_operands(monkeypatch, symbol):
    def fail(*args):
        calls.append((symbol, args))
        return 0

    calls = _counting_libcrypto(monkeypatch, {s: v for s, v in _ALLOCATING.items()
                                              if s != symbol}, {symbol: fail})
    pk, _ = keygen(key_bits=256, rng_seed=9)
    with paillier.operands(pk, []) as loaded:  # the thread's scratch numbers and n^2's context
        aggregate(pk, loaded)
    del calls[:]
    for _ in range(2):
        with pytest.raises(RuntimeError, match=f"{symbol} failed"):
            with paillier.operands(pk, [2, 3, 5]) as loaded:
                aggregate(pk, loaded, [1, 2], 8)
    allocated, freed, _, _ = _balance(calls)
    assert allocated == freed > 0


@needs_libcrypto
def test_each_key_object_frees_its_comb_once_and_copies_build_their_own(monkeypatch):
    calls = _counting_libcrypto(monkeypatch, _TABLE_ALLOCATING)
    pk, _ = keygen(key_bits=256, rng_seed=9)
    pk.h_s  # with the thread's scratch numbers and n^2's context
    del calls[:]
    a = random.Random(9).getrandbits(pk.obfuscator_bits)
    expected = pow(_h_s(pk), a, pk.n_squared)
    assert pk.obfuscator(a) == expected
    assert _table_balance(calls) == (_COMB_BIGNUMS, 0, 1, 0)
    assert pk.obfuscator(a) == expected
    assert _table_balance(calls) == (_COMB_BIGNUMS, 0, 1, 0)  # built once per key object
    for share in (copy.copy, copy.deepcopy, pickle.dumps):
        with pytest.raises(TypeError, match="neither copied nor pickled"):
            share(pk._comb)
    copies = [copy.copy(pk), copy.deepcopy(pk), pickle.loads(pickle.dumps(pk))]
    for other in copies:
        assert other == pk and "_comb" not in vars(other)
        assert other.obfuscator(a) == expected
    assert _table_balance(calls) == (4 * _COMB_BIGNUMS, 0, 4, 0)
    del pk
    assert _table_balance(calls) == (4 * _COMB_BIGNUMS, _COMB_BIGNUMS, 4, 1)
    assert [other.obfuscator(a) for other in copies] == [expected] * 3
    del copies, other
    assert _table_balance(calls) == (4 * _COMB_BIGNUMS, 4 * _COMB_BIGNUMS, 4, 4)


@needs_libcrypto
@pytest.mark.parametrize("symbol, failing", [
    ("BN_mod_mul_montgomery", 1), ("BN_mod_mul_montgomery", 700),
    ("BN_mod_mul_montgomery", 2000), ("BN_to_montgomery", 1), ("BN_MONT_CTX_set", 1)])
def test_a_failing_comb_build_raises_and_frees_what_it_allocated(monkeypatch, symbol, failing):
    real = getattr(ctypes.CDLL(_hashlib.__file__), symbol)
    real.restype, real.argtypes = ctypes.c_int, [_PTR] * {
        "BN_mod_mul_montgomery": 5, "BN_to_montgomery": 4, "BN_MONT_CTX_set": 3}[symbol]
    made = None

    def fail_once(*args):
        if made is not None:
            made.append(args)
            if len(made) == failing:
                return 0
        return real(*args)

    calls = _counting_libcrypto(monkeypatch, _TABLE_ALLOCATING, {symbol: fail_once})
    pk, _ = keygen(key_bits=256, rng_seed=9)
    pk.h_s  # with the thread's scratch numbers and n^2's context
    del calls[:]
    made = []
    with pytest.raises(RuntimeError, match=f"{symbol} failed") as caught:
        pk.obfuscator(5)
    # freed at once, though the traceback still holds the build's frame
    allocated, freed, contexts, contexts_freed = _table_balance(calls)
    assert allocated == freed > 0 and contexts == contexts_freed == 1
    del caught
    assert "_comb" not in vars(pk)
    assert pk.obfuscator(5) == pow(_h_s(pk), 5, pk.n_squared)  # the next use builds again
