"""Additively homomorphic Paillier cryptosystem.

Multiplying two ciphertexts modulo n^2 adds their plaintexts modulo n, which
is the only homomorphic operation the protocols in this package need: parties
encrypt packed histogram slots (horizontal) or per-sample gradients
(vertical), an aggregator multiplies the ciphertexts, and the key holder
decrypts the sum.

Plaintexts are residues in [0, n).  The protocols encrypt integers only:
quantized gradients (:func:`fedgbt.gbt.quantize`) go in as their residues
modulo n, and a signed sum comes back through ``decrypt``'s ``bound``.
A ciphertext is a plain ``int`` in [0, n^2), the form the wire carries it
in, and the generator is always ``g = n + 1``, so ``g^m = 1 + m * n``
modulo ``n^2`` costs one product; a public key with any other ``g`` is
refused.

Encryption draws its obfuscator from a fixed public base, in the manner of
Damgård, Jurik and Nielsen (2010): ``r^n`` becomes ``h_s^a`` with a
full-length exponent ``a``, and each key object computes ``h_s`` once.
Every modular exponentiation (the key holder's powers, decryption, the
aggregator's folds and keygen's Miller-Rabin rounds) goes through
``_powmod``: OpenSSL's Montgomery exponentiation from the ``libcrypto``
that the interpreter's ``_hashlib`` links, or failing that one loaded by
soname, through ``ctypes``; or the builtin ``pow`` where no libcrypto
loads.  The two give the same integers, so keys, ciphertexts and
transcripts do not depend on which one runs.  Under libcrypto a public
key's obfuscator comes from a Lim-Lee comb of ``h_s`` (Lim and Lee,
CRYPTO '94) that each key object builds in libcrypto on first use; under
``pow`` it is one ``pow``.  For the key holder it is one ``_powmod``
modulo each of ``p^2`` and ``q^2``.  At a 512-bit key libcrypto takes a
public-key encryption about 27x faster than ``pow``, an aggregator's fold
step about 10x, and a full decryption about 12x
(``scripts/paillier_timings.py``).

An aggregator's products and Horner folds (:func:`aggregate`) run in
libcrypto as well, on operands: :func:`operands` loads a list of
ciphertexts once, for a ``with`` block, as ``BIGNUM``s in Montgomery form
of ``n^2``; each product is then one ``BN_mod_mul_montgomery`` and each
fold step one ``BN_mod_exp_mont``, and the block's end frees them.  Ints
handed to :func:`aggregate` directly are multiplied in Python.  At a
512-bit key a product of loaded operands takes about 1.0 µs, against 3.9 µs
on Python ints, and at a 2048-bit key 5.9 against 55 µs; loading one costs
2.6 and 8.1 µs (``scripts/paillier_timings.py``).  Under ``pow`` the
operands are the ints and the products Python's.

All structures but a block's loaded operands are immutable, and all are
safe to share between concurrently running parties.  When ``rng`` /
``rng_seed`` arguments are supplied, key generation and encryption
randomness are fully deterministic, which the protocol tests rely on for
reproducible transcripts.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import random
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

_LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")

# Moduli whose Montgomery context each thread keeps; a key uses three
# (n^2, p^2 and q^2).
_MONTGOMERY_CACHE_SIZE = 8


class _Operand:
    """One ciphertext that libcrypto holds as a ``BIGNUM``, in Montgomery
    form of its batch's modulus (:func:`operands`)."""

    __slots__ = ("batch", "ptr")

    def __init__(self, batch: _Loaded, ptr: int):
        self.batch, self.ptr = batch, ptr


class _Loaded:
    """A batch of :class:`_Operand` of one modulus ``mod``, with ``fold``,
    the libcrypto fold of the backend that loaded it; :meth:`free` releases
    every ``BIGNUM`` of it, after which ``live`` is false."""

    def __init__(self, mod: int, bn_free, fold):
        self.mod, self.operands, self.live = mod, [], True
        self._bn_free, self.fold = bn_free, fold

    def free(self) -> None:
        self.live = False
        for operand in self.operands:
            self._bn_free(operand.ptr)
        self.operands = []


class _Comb:
    """The Lim-Lee comb of one base modulo ``mod`` (Lim and Lee, CRYPTO
    '94) that libcrypto holds, with ``power``, the power of the backend that
    built it (:func:`_load_powmod`).

    An exponent of at most ``64 * steps`` bits is read as 8 teeth of 8
    blocks of ``steps`` bits: bit ``(8i + j) * steps + k`` is step ``k`` of
    block ``j`` of tooth ``i``.  ``rows`` lists blocks ``j = 7, ..., 0``;
    entry ``u`` of block ``j``'s row (``0 <= u < 256``) is the product of
    ``base^(2^((8i + j) * steps))`` over the set bits ``i`` of ``u``, a
    ``BIGNUM`` in Montgomery form under the comb's own ``BN_MONT_CTX``,
    ``mont``; entry 0, the one, is shared by all rows.  ``free`` releases
    them all, once, at the latest when the comb is collected.  A comb is
    neither copied nor pickled, so that each of its ``BIGNUM``s has one
    owner.
    """

    def __init__(self, mod: int, steps: int, mont: int, power, release, bns: list):
        self.mod, self.steps, self.mont, self.rows = mod, steps, mont, []
        self._power = power
        self.free = weakref.finalize(self, release, mont, bns)

    def power(self, a: int) -> int:
        """``base^a mod mod`` for an ``a >= 0`` of at most ``64 * steps``
        bits, which the caller checks."""
        return self._power(self, a)

    def __reduce__(self):
        raise TypeError("a libcrypto comb is neither copied nor pickled")


# byte b"0" to 0 and b"1" to 1, for the comb's digit transpose
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _comb_digits(a: int, steps: int) -> bytes:
    """The :class:`_Comb` digits of an ``a >= 0`` of at most ``64 * steps``
    bits, one per byte: bit ``i`` of the digit of block ``j`` at step ``k``
    is bit ``(8i + j) * steps + k`` of ``a``, and that digit is byte ``(7 -
    j) * steps + steps - 1 - k``, so ``[c::steps]`` is the column of step
    ``steps - 1 - c`` in the order of the comb's rows.

    ``a`` is written one byte per bit, most significant first; tooth ``i``'s
    ``8 * steps`` bytes, read as one integer, then go onto bit ``i`` of
    every digit."""
    width = 8 * steps
    bits = format(a, f"0{8 * width}b").encode().translate(_BIT_BYTES)
    digits = 0
    for i in range(8):
        digits |= int.from_bytes(bits[(7 - i) * width:(8 - i) * width], "big") << i
    return digits.to_bytes(width, "big")


def _load_powmod():
    """``pow(base, exp, mod)`` computed by OpenSSL's ``BN_mod_exp_mont``
    (Montgomery, Math. Comp. 1985), or the builtin ``pow`` when no
    ``libcrypto`` with the symbols it needs loads.  The library is looked
    up first through the interpreter's ``_hashlib`` extension, whose
    ``BN_*`` symbols resolve in the libcrypto it links, then by soname.

    Both give the same integer for every argument.  A negative exponent or
    a modulus that is even or below 3 goes to ``pow``, as Montgomery
    multiplication needs an odd modulus.  Each thread keeps its own
    ``BN_CTX`` and scratch ``BIGNUM``s, and the ``BN_MONT_CTX``, modulus
    and output buffer of the last ``_MONTGOMERY_CACHE_SIZE`` moduli it
    used; an evicted entry is freed, and the rest, a few kB, live as long
    as the process.  ``BN_mod_exp_mont`` is variable-time, as CPython's
    ``pow`` is.

    The libcrypto function also carries ``load(mod, cs)``, which
    :func:`operands` runs: it returns a :class:`_Loaded` batch of the ints
    ``cs``, each converted once into Montgomery form of ``mod``, whose
    ``fold(mod, operands, runs, width)`` :func:`aggregate` runs on such
    operands.  The fold's running product stays in plain form:
    ``BN_mod_mul_montgomery`` of a plain factor and a Montgomery-form one is
    their plain product, so each product is one call, each Horner step one
    ``BN_mod_exp_mont`` with no conversion around it, and the result one
    ``BN_bn2binpad``.

    And it carries ``comb(base, mod, bits)``, which builds the
    :class:`_Comb` of ``base`` modulo the odd ``mod`` for exponents below
    ``2^bits``: ``63 * steps`` squarings and 1,976 products, all in
    Montgomery form, for ``steps = ceil(bits / 64)``.  A power from it
    copies the comb's one into the calling thread's scratch accumulator,
    multiplies into it with ``steps - 1`` squarings and at most ``8 *
    steps`` products, and converts it out of Montgomery form.  The comb
    reads its table at the exponent's digits, so its time and memory
    accesses depend on them.
    """
    ptr, c_int = ctypes.c_void_p, ctypes.c_int
    signatures = {
        "BN_new": (ptr, []), "BN_free": (None, [ptr]), "BN_CTX_new": (ptr, []),
        "BN_bin2bn": (ptr, [ptr, c_int, ptr]), "BN_bn2binpad": (c_int, [ptr, ptr, c_int]),
        "BN_MONT_CTX_new": (ptr, []), "BN_MONT_CTX_set": (c_int, [ptr] * 3),
        "BN_MONT_CTX_free": (None, [ptr]), "BN_mod_exp_mont": (c_int, [ptr] * 6),
        "BN_to_montgomery": (c_int, [ptr] * 4), "BN_mod_mul_montgomery": (c_int, [ptr] * 5),
        "BN_copy": (ptr, [ptr] * 2), "BN_from_montgomery": (c_int, [ptr] * 4),
    }
    try:
        import _hashlib
        libraries = (_hashlib.__file__, *_LIBCRYPTO_SONAMES)
    except (ImportError, AttributeError):  # no _hashlib, or one built into the interpreter
        libraries = _LIBCRYPTO_SONAMES
    for library in libraries:
        try:
            lib = ctypes.CDLL(library)
            fns = [getattr(lib, name) for name in signatures]
            break
        except (OSError, AttributeError):
            continue
    else:
        return pow
    for fn, (restype, argtypes) in zip(fns, signatures.values()):
        fn.restype, fn.argtypes = restype, argtypes
    (bn_new, bn_free, ctx_new, bin2bn, bn2binpad, mont_new, mont_set, mont_free, exp_mont,
     to_mont, mul_mont, bn_copy, from_mont) = fns
    scratch = threading.local()

    def checked(result, name: str):
        if not result:
            raise RuntimeError(f"{library}: {name} failed")
        return result

    def load(bn, value: int) -> None:
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
        checked(bin2bn(data, len(data), bn), "BN_bin2bn")

    def thread_state():
        """The thread's ``BN_CTX``, three scratch ``BIGNUM``s and Montgomery cache."""
        try:
            return scratch.state
        except AttributeError:
            scratch.state = (checked(ctx_new(), "BN_CTX_new"),
                             *(checked(bn_new(), "BN_new") for _ in range(3)), {})
            return scratch.state

    def montgomery(mod: int, ctx, cache: dict):
        """The thread's ``(BN_MONT_CTX, modulus, output buffer)`` of ``mod``,
        most recently used last."""
        entry = cache.pop(mod, None)
        if entry is None:
            mont, m = None, checked(bn_new(), "BN_new")
            try:
                load(m, mod)
                mont = checked(mont_new(), "BN_MONT_CTX_new")
                checked(mont_set(mont, m, ctx), "BN_MONT_CTX_set")
            except RuntimeError:
                mont_free(mont)
                bn_free(m)
                raise
            entry = mont, m, ctypes.create_string_buffer((mod.bit_length() + 7) // 8)
            if len(cache) >= _MONTGOMERY_CACHE_SIZE:
                evicted_mont, evicted_m, _ = cache.pop(next(iter(cache)))
                mont_free(evicted_mont)
                bn_free(evicted_m)
        cache[mod] = entry
        return entry

    def result(bn, out) -> int:
        checked(bn2binpad(bn, out, len(out)) == len(out), "BN_bn2binpad")
        return int.from_bytes(out.raw, "big")

    def powmod(base: int, exp: int, mod: int) -> int:
        if exp < 0 or mod < 3 or not mod & 1:
            return pow(base, exp, mod)
        ctx, r, a, p, cache = thread_state()
        mont, m, out = montgomery(mod, ctx, cache)
        load(a, base % mod)
        load(p, exp)
        checked(exp_mont(r, a, p, m, ctx, mont), "BN_mod_exp_mont")
        return result(r, out)

    def load_operands(mod: int, cs: list[int]) -> _Loaded:
        ctx, *_, cache = thread_state()
        mont = montgomery(mod, ctx, cache)[0]
        batch = _Loaded(mod, bn_free, fold)
        try:
            for c in cs:
                data = c.to_bytes((c.bit_length() + 7) // 8, "big")
                bn = checked(bin2bn(data, len(data), None), "BN_bin2bn")
                batch.operands.append(_Operand(batch, bn))
                checked(to_mont(bn, bn, mont, ctx), "BN_to_montgomery")
        except BaseException:
            batch.free()
            raise
        return batch

    def fold(mod: int, cs: list[_Operand], runs: list[int], width: int | None) -> int:
        if any(not batch.live or batch.mod != mod for batch in {c.batch for c in cs}):
            raise ValueError("operands freed or loaded for another modulus")
        ptrs = [c.ptr for c in cs]
        ctx, acc, step, e, cache = thread_state()
        mont, m, out = montgomery(mod, ctx, cache)
        load(acc, 1)
        if len(runs) > 1:
            load(e, 1 << width)
        stop, started = len(ptrs), False
        for size in reversed(runs):
            if started:
                checked(exp_mont(step, acc, e, m, ctx, mont), "BN_mod_exp_mont")
                acc, step = step, acc
            for c in ptrs[stop - size:stop]:
                if not mul_mont(acc, acc, c, mont, ctx):
                    raise RuntimeError(f"{library}: BN_mod_mul_montgomery failed")
            started |= size > 0
            stop -= size
        return result(acc, out)

    def release(mont: int, bns: list) -> None:
        mont_free(mont)
        for bn in bns:
            bn_free(bn)

    def comb(base: int, mod: int, bits: int) -> _Comb:
        ctx, bns = thread_state()[0], []
        mont = checked(mont_new(), "BN_MONT_CTX_new")
        table = _Comb(mod, -(-bits // 64), mont, comb_power, release, bns)

        def new() -> int:
            bns.append(checked(bn_new(), "BN_new"))
            return bns[-1]

        def mul(r, a, b) -> None:
            checked(mul_mont(r, a, b, mont, ctx), "BN_mod_mul_montgomery")

        try:
            m, one, x = new(), new(), new()
            load(m, mod)
            checked(mont_set(mont, m, ctx), "BN_MONT_CTX_set")
            load(one, 1)
            load(x, base % mod)
            for y in (one, x):
                checked(to_mont(y, y, mont, ctx), "BN_to_montgomery")
            powers = [x]  # powers[8i + j] = base^(2^((8i + j) * steps))
            for _ in range(63):
                x = new()
                mul(x, powers[-1], powers[-1])
                for _ in range(table.steps - 1):
                    mul(x, x, x)
                powers.append(x)
            for j in reversed(range(8)):
                row = [one]
                for u in range(1, 256):
                    low = u & -u
                    if u == low:
                        row.append(powers[8 * (low.bit_length() - 1) + j])
                    else:
                        row.append(new())
                        mul(row[u], row[u - low], row[low])
                table.rows.append(row)
        except BaseException:
            table.free()
            raise
        return table

    def comb_power(table: _Comb, a: int) -> int:
        steps, mont = table.steps, table.mont
        digits = _comb_digits(a, steps)
        ctx, acc, *_ = thread_state()
        checked(bn_copy(acc, table.rows[0][0]), "BN_copy")
        for c in range(steps):
            if c and not mul_mont(acc, acc, acc, mont, ctx):
                raise RuntimeError(f"{library}: BN_mod_mul_montgomery failed")
            for row, digit in zip(table.rows, digits[c::steps]):
                if digit and not mul_mont(acc, acc, row[digit], mont, ctx):
                    raise RuntimeError(f"{library}: BN_mod_mul_montgomery failed")
        checked(from_mont(acc, acc, mont, ctx), "BN_from_montgomery")
        return result(acc, ctypes.create_string_buffer((table.mod.bit_length() + 7) // 8))

    powmod.load = load_operands
    powmod.comb = comb
    return powmod


_powmod = _load_powmod()


def _invert(a: int, mod: int) -> int:
    return pow(a, -1, mod)


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Miller-Rabin with 82 fixed bases: the 12 small primes, then every
    # odd number from 41 to 179, composites such as 45 and 49 included.
    # A composite passes a round at a random base with probability at
    # most 1/4, so 82 random bases would err below 4^-82 = 2^-164.  The
    # bases are fixed, so that bound carries over only heuristically,
    # to the random candidates keygen draws, not to a chosen composite.
    # A base that is a multiple of n says nothing (n has no factor up to
    # 37, so only a prime n up to 179 meets one) and is skipped.
    for a in _SMALL_PRIMES + list(range(41, 180, 2)):
        if a % n == 0:
            continue
        x = _powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class KeyGenerationError(Exception):
    """Prime search failed within the retry budget."""


class EncodingError(ValueError):
    """Value outside the admissible plaintext or fixed-point range."""


_MIN_KEY_BITS = 16

# The obfuscator exponent has n.bit_length() + 128 bits, so ``a`` reduced
# modulo the order of h (below n) is within 2^-128 of uniform.
OBFUSCATOR_SLACK_BITS = 128


def _obfuscator_base(n: int) -> int:
    """The public base ``h = -x^2 mod n``, with ``x`` a unit hashed from ``n``.

    Anyone holding the public key derives the same ``h``, so it needs no
    place on the wire.
    """
    width = (n.bit_length() + 7) // 8
    counter = 0
    while True:
        seed = b"fedgbt-djn-base" + counter.to_bytes(4, "big") + n.to_bytes(width, "big")
        x = int.from_bytes(hashlib.shake_256(seed).digest(width + 16), "big") % n
        if 1 < x < n - 1 and math.gcd(x, n) == 1:
            return -x * x % n
        counter += 1


def _check_exponent(a: int, bits: int) -> None:
    if not 0 <= a < 1 << bits:
        raise ValueError(f"exponent outside [0, 2^{bits})")


@dataclass(frozen=True)
class PublicKey:
    """Encryption key ``(n, g)``, with ``g = n + 1``, the only generator
    this module implements."""

    n: int
    g: int

    def __post_init__(self):
        if self.g != self.n + 1:
            raise ValueError("the public key's g is not n + 1")

    @cached_property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def key_bits(self) -> int:
        return self.n.bit_length()

    @property
    def obfuscator_bits(self) -> int:
        """Bit length of the exponent ``a`` that :func:`encrypt` draws."""
        return self.n.bit_length() + OBFUSCATOR_SLACK_BITS

    @cached_property
    def h_s(self) -> int:
        """``h^n mod n^2``, the obfuscators' base, computed on first use,
        once per key object."""
        return _powmod(_obfuscator_base(self.n), self.n, self.n_squared)

    @cached_property
    def _comb(self) -> _Comb:
        """The libcrypto comb of ``h_s`` modulo ``n^2``, built on first use,
        once per key object, and freed when the key object goes."""
        return _powmod.comb(self.h_s, self.n_squared, self.obfuscator_bits)

    def obfuscator(self, a: int) -> int:
        """``h_s^a mod n^2`` for ``0 <= a < 2^obfuscator_bits``: from the
        key object's comb under libcrypto, one ``pow`` under ``pow``, as
        ``_powmod`` is at the call."""
        _check_exponent(a, self.obfuscator_bits)
        if _powmod is pow:
            return _powmod(self.h_s, a, self.n_squared)
        return self._comb.power(a)

    def __getstate__(self) -> dict:
        # a copy or an unpickled key builds its own comb: each of a comb's
        # BIGNUMs has one owner, which frees it once
        return {name: value for name, value in vars(self).items() if name != "_comb"}


def received_public_key(key: dict) -> PublicKey:
    """The public key of a ``KEY_BROADCAST`` payload (``n``, ``g`` and
    ``key_bits``), as each recipient builds its own.

    A ``g`` other than ``n + 1``, a ``key_bits`` that is not an int
    :func:`keygen` could have been asked for to make this ``n`` (its bit
    length or one more, and at least 16), or an even ``n`` raises
    ``ValueError``.  No :func:`keygen` key is refused, and under an ``n``
    of 1, 2, 3, 4 or 6 :func:`_obfuscator_base` would find no unit and
    never return.
    """
    pk, bits = PublicKey(n=key["n"], g=key["g"]), key["key_bits"]
    if type(bits) is not int or bits - pk.key_bits not in (0, 1):
        raise ValueError(f"key_bits {bits!r} for an n of {pk.key_bits} bits")
    if bits < _MIN_KEY_BITS:
        raise ValueError(f"key_bits {bits} below {_MIN_KEY_BITS}")
    if not pk.n & 1:
        raise ValueError("n is even")
    return pk


@dataclass(frozen=True)
class PrivateKey:
    """Decryption key: Carmichael value ``lam`` and its companion ``mu``,
    plus the primes and the per-prime constants that decryption uses.

    Decryption works modulo ``p**2`` and ``q**2`` separately (Paillier,
    EUROCRYPT 1999, section 7): ``hp = L_p(g^(p-1) mod p^2)^-1 mod p``,
    likewise ``hq``, and ``q_inv = q^-1 mod p`` recombines the halves.  At
    ``g = n + 1``, ``g^(p-1) = 1 + (p-1) * n`` modulo ``p^2``, so
    ``L_p(...) = (p-1) * q = -q`` modulo ``p``, and ``mu = lam^-1 mod n``.
    """

    lam: int
    mu: int
    p: int
    q: int
    p_squared: int
    q_squared: int
    hp: int
    hq: int
    q_inv: int

    @cached_property
    def h_s_halves(self) -> tuple[int, int]:
        """``h_s`` modulo ``p^2`` and modulo ``q^2``, computed on first use,
        once per key object.

        ``h_s = h^n`` is a ``p``-th power modulo ``p^2``, so its order there
        divides ``p - 1``: an exponent reduced modulo ``p - 1`` has
        ``p.bit_length()`` bits only, and each product is half as wide as
        one modulo ``n^2``.  Likewise for ``q``.
        """
        n = self.p * self.q
        h = _obfuscator_base(n)
        return _powmod(h, n, self.p_squared), _powmod(h, n, self.q_squared)

    @cached_property
    def q_squared_inv(self) -> int:
        """``(q^2)^-1 mod p^2``, which joins the two halves of an obfuscator."""
        return _invert(self.q_squared, self.p_squared)

    def obfuscator(self, a: int) -> int:
        """``h_s^a mod n^2``, the value :meth:`PublicKey.obfuscator` gives,
        for the same ``0 <= a < 2^obfuscator_bits``: powers modulo ``p^2``
        and ``q^2`` of ``a mod (p - 1)`` and ``a mod (q - 1)``, joined by the
        Chinese remainder theorem."""
        _check_exponent(a, (self.p * self.q).bit_length() + OBFUSCATOR_SLACK_BITS)
        h_p, h_q = self.h_s_halves
        xp = _powmod(h_p, a % (self.p - 1), self.p_squared)
        xq = _powmod(h_q, a % (self.q - 1), self.q_squared)
        return xq + (xp - xq) * self.q_squared_inv % self.p_squared * self.q_squared


def _l_function(u: int, n: int) -> int:
    return (u - 1) // n


def _generate_prime(bits: int, rng: random.Random, max_tries: int = 100_000) -> int:
    for _ in range(max_tries):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate):
            return candidate
    raise KeyGenerationError(f"no {bits}-bit prime found in {max_tries} tries")


def keypair_from_primes(p: int, q: int) -> tuple[PublicKey, PrivateKey]:
    """Assemble the keypair of ``n = p * q`` and ``g = n + 1`` from explicit
    primes (mainly for small worked examples)."""
    if p == q:
        raise KeyGenerationError("p and q must be distinct")
    n = p * q
    if math.gcd(n, (p - 1) * (q - 1)) != 1:
        raise KeyGenerationError("gcd(n, phi(n)) != 1; pick different primes")
    # lam divides phi(n), so it is a unit modulo n
    lam = math.lcm(p - 1, q - 1)
    sk = PrivateKey(
        lam=lam, mu=_invert(lam, n), p=p, q=q, p_squared=p * p, q_squared=q * q,
        hp=_invert(-q % p, p), hq=_invert(-p % q, q), q_inv=_invert(q, p),
    )
    return PublicKey(n=n, g=n + 1), sk


def keygen(key_bits: int = 2048, rng_seed: int | None = None) -> tuple[PublicKey, PrivateKey]:
    """Generate a keypair from two equal-bit-length primes, with ``g = n + 1``.

    A seed makes the whole procedure deterministic.
    """
    if key_bits < _MIN_KEY_BITS:
        raise ValueError("key_bits too small to form a workable modulus")
    rng = random.Random(rng_seed) if rng_seed is not None else random.SystemRandom()
    half = key_bits // 2
    for _ in range(1000):
        p = _generate_prime(half, rng)
        q = _generate_prime(half, rng)
        if p == q:
            continue
        n = p * q
        # Equal-length primes guarantee gcd(n, phi(n)) = 1, but verify anyway.
        if n.bit_length() < key_bits - 1 or math.gcd(n, (p - 1) * (q - 1)) != 1:
            continue
        return keypair_from_primes(p, q)
    raise KeyGenerationError("failed to assemble a valid keypair")


def encrypt(pk: PublicKey, m: int, rng: random.Random | None = None,
            sk: PrivateKey | None = None) -> int:
    """Encrypt plaintext ``m`` in [0, n) as ``g^m * r^n mod n^2``, where
    ``g^m = (n + 1)^m = 1 + m * n``.

    The obfuscator is ``r^n = h_s^a = (h^a)^n`` with ``a`` drawn from ``rng``
    (the system CSPRNG when None), that is ``r = h^a mod n``
    (:meth:`PublicKey.obfuscator`).  Security rests on the decisional
    composite residuosity assumption, as for textbook Paillier, with ``r``
    statistically close to uniform over the subgroup generated by ``h``
    (Damgård-Jurik-Nielsen 2010).  The exponent is full length; their
    short-exponent variant would add a further assumption and is not used.

    The key holder may pass its own ``sk``: ``h_s^a`` then comes from
    powers modulo ``p^2`` and ``q^2`` (:meth:`PrivateKey.obfuscator`),
    about three times faster, and the same ``rng`` state gives the same
    ciphertext.
    """
    if not 0 <= m < pk.n:
        raise EncodingError(f"plaintext {m} outside [0, n)")
    if sk is not None and sk.p * sk.q != pk.n:
        raise ValueError("private key does not belong to the public key")
    a = (rng if rng is not None else random.SystemRandom()).getrandbits(pk.obfuscator_bits)
    return (1 + m * pk.n) * (sk if sk is not None else pk).obfuscator(a) % pk.n_squared


def decrypt(sk: PrivateKey, pk: PublicKey, c: int, bound: int | None = None) -> int:
    """Recover the plaintext ``L(c^lam mod n^2) * mu mod n``.

    Computed by the Chinese remainder theorem: ``m mod p`` and ``m mod q``
    each take one half-size exponentiation, and Garner's formula joins them.

    With a magnitude ``bound`` (``2 * bound < p``), the plaintext is read as
    a signed value ``v`` with ``|v| <= bound``.  Such a ``v`` is fixed by
    ``v mod p`` alone, so one exponentiation modulo ``p^2`` suffices; a
    result outside ``[-bound, bound]`` raises :class:`EncodingError`.
    """
    if not 0 <= c < pk.n_squared:
        raise EncodingError("ciphertext outside [0, n^2)")
    if bound is not None and not 0 <= 2 * bound < sk.p:
        raise EncodingError(f"bound {bound} is not below p/2")
    if c == 1:
        return 0
    mp = _l_function(_powmod(c % sk.p_squared, sk.p - 1, sk.p_squared), sk.p) * sk.hp % sk.p
    if bound is not None:
        signed = mp - sk.p if mp > sk.p // 2 else mp
        if abs(signed) > bound:
            raise EncodingError(f"decrypted value outside [-{bound}, {bound}]")
        return signed
    mq = _l_function(_powmod(c % sk.q_squared, sk.q - 1, sk.q_squared), sk.q) * sk.hq % sk.q
    return mq + (mp - mq) * sk.q_inv % sk.p * sk.q


def _check_ciphertexts(pk: PublicKey, cs: list[int]) -> None:
    n_squared = pk.n_squared
    for i, c in enumerate(cs):
        if type(c) is not int or not 0 <= c < n_squared:
            raise EncodingError(f"ciphertext {i} is not an int in [0, n^2)")


@contextmanager
def operands(pk: PublicKey, cs: list[int]):
    """The ciphertexts ``cs`` as :func:`aggregate`'s operands, for the
    ``with`` block: under libcrypto each is loaded once into a ``BIGNUM`` in
    Montgomery form of ``n^2``, and all are freed when the block ends; under
    ``pow`` they are the ints themselves.

    A term that is not an int in ``[0, n^2)`` raises :class:`EncodingError`,
    as in :func:`decrypt`.  Operands of one block may be aggregated by any
    thread, but not after the block ends.
    """
    _check_ciphertexts(pk, cs)
    if _powmod is pow:
        yield list(cs)
        return
    batch = _powmod.load(pk.n_squared, cs)
    try:
        yield batch.operands
    finally:
        batch.free()


def aggregate(pk: PublicKey, cs: list, runs: list[int] | None = None,
              width: int | None = None) -> int:
    """Homomorphically add: the product of ciphertexts decrypts to the plaintext sum.

    An empty list yields the identity ciphertext, 1, which decrypts to 0.

    With ``runs``, the sizes of consecutive runs of ``cs``, run ``j``'s sum
    goes into slot ``j`` of ``width`` bits instead: the result decrypts to
    ``sum_j s_j * 2**(width * j)``.  The runs are folded by Horner's rule
    from the last, ``c <- c**(2**width) * (product of the next run)``, one
    exponentiation per slot after the first (cipher compression,
    SecureBoost+).

    ``cs`` holds ints in ``[0, n^2)`` or the operands of an open
    :func:`operands` block, which under libcrypto are loaded ``BIGNUM``s.
    Those are multiplied and folded by the libcrypto that loaded them,
    whatever ``_powmod`` is now; ints are multiplied in Python, with their
    fold powers from ``_powmod``.  Runs that are not non-negative ints
    adding up to ``len(cs)``, or, with more than one run, a ``width`` that
    is not a positive int, raise ``ValueError``; a term that is not an int
    in ``[0, n^2)`` raises :class:`EncodingError`.
    """
    if runs is None:
        runs = [len(cs)]
    elif not all(type(size) is int and size >= 0 for size in runs):
        raise ValueError(f"runs {runs!r} are not non-negative ints")
    elif sum(runs) != len(cs):
        raise ValueError(f"runs of {sum(runs)} ciphertexts for a list of {len(cs)}")
    if len(runs) > 1 and (type(width) is not int or width < 1):
        raise ValueError(f"width {width!r} is not a positive int")
    if cs and all(type(c) is _Operand for c in cs):
        return cs[0].batch.fold(pk.n_squared, cs, runs, width)
    _check_ciphertexts(pk, cs)
    n_squared = pk.n_squared
    acc, stop = 1, len(cs)
    for size in reversed(runs):
        if acc != 1:
            acc = _powmod(acc, 1 << width, n_squared)
        for c in cs[stop - size:stop]:
            acc = acc * c % n_squared
        stop -= size
    return acc


def int_to_hex(value: int) -> str:
    """Minimal lowercase big-endian hex (``"0"`` for zero), the wire form
    for keys, ciphertexts and residues, written through the bytes in time
    linear in the length."""
    if value < 0:
        raise ValueError("only nonnegative integers are serialized")
    text = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big").hex()
    return text[1:] if text[0] == "0" and len(text) > 1 else text


def hex_to_int(text: str) -> int:
    """The inverse of :func:`int_to_hex`, in linear time: anything but what
    it writes (a sign, a prefix, whitespace, an underscore, an upper-case
    digit, a leading zero) raises ValueError, or TypeError for a non-string."""
    value = int.from_bytes(bytes.fromhex(text if len(text) % 2 == 0 else "0" + text), "big")
    if int_to_hex(value) != text:
        raise ValueError(f"not canonical hex: {text!r}")
    return value
