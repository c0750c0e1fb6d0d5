#!/usr/bin/env python3
"""Median Paillier timings per key size, on each modular exponentiation backend.

    PYTHONPATH=src python3 scripts/paillier_timings.py

Prints one table per backend of ``paillier._powmod``: first the system
libcrypto (skipped where no libcrypto loads), then the builtin ``pow``, set
in place of it.  Under libcrypto a public-key encryption's obfuscator comes
from the key object's Lim-Lee comb, in ``BN_mod_mul_montgomery`` products,
a key-holder one is two ``BN_mod_exp_mont`` powers, and ``aggregate``
multiplies and folds with ``BN_mod_mul_montgomery`` and
``BN_mod_exp_mont``; under ``pow`` an obfuscator is one ``pow`` and
``aggregate`` runs on Python ints.

Each row is one operation, each column a key size (512, 1024 and 2048
bits), and each cell the median in microseconds over 61 runs, with the
interquartile range in brackets.  The operations are:

- ``keygen``: one key pair, at seeds 0 to 60;
- ``first_encrypt``: the first encryption on a fresh key object, which
  computes ``h_s`` and, under libcrypto, builds the comb;
- ``comb_build`` (libcrypto only): the comb's build alone, on a fresh key
  object whose ``h_s`` is already computed;
- ``encrypt``, ``encrypt_sk``: a public-key and a key-holder (``sk=``)
  encryption;
- ``decrypt_bounded``, ``decrypt_full``: a bounded single-prime and a full
  CRT decryption;
- ``load``: one ciphertext loaded by ``paillier.operands`` and freed, per
  ciphertext of a block of 64;
- ``product``: one ciphertext product of loaded operands, per term of an
  ``aggregate`` call over 64;
- ``fold_step``: one Horner step of width 29, per step of an ``aggregate``
  call over one ciphertext and 32 empty runs after it.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
from time import perf_counter

from fedgbt import paillier
from fedgbt.paillier import PublicKey, aggregate, decrypt, encrypt, keygen, operands

REPS = 61
BATCH = 64
FOLD_STEPS = 32


def quartiles_us(fn, per: int = 1, setup=None) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``REPS`` runs of ``fn``,
    each divided by ``per``, in microseconds.  With ``setup``, run ``r``
    times ``fn(setup(r))``, and ``setup`` runs outside the timing."""
    times = []
    for rep in range(REPS):
        args = () if setup is None else (setup(rep),)
        start = perf_counter()
        fn(*args)
        times.append(1e6 * (perf_counter() - start) / per)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return q1, median, q3


def us(value: float) -> str:
    """At least three significant digits, in fixed point."""
    return f"{value:.3g}" if value < 100 else f"{value:.0f}"


def load_and_free(pk: PublicKey, cs: list[int]) -> None:
    with operands(pk, cs):
        pass


def with_h_s(pk: PublicKey) -> PublicKey:
    """A fresh key object of ``pk``'s key, with ``h_s`` computed."""
    fresh = PublicKey(pk.n, pk.g)
    fresh.h_s
    return fresh


def measure(held_pk: PublicKey, held_sk, bits: int) -> dict[str, tuple[float, float, float]]:
    # fresh key objects, so nothing one backend computed serves the other
    pk, sk = PublicKey(held_pk.n, held_pk.g), dataclasses.replace(held_sk)
    rng = random.Random(bits)
    cells = {"keygen": quartiles_us(lambda seed: keygen(key_bits=bits, rng_seed=seed),
                                    setup=lambda rep: rep),
             "first_encrypt": quartiles_us(lambda: encrypt(PublicKey(pk.n, pk.g), 12345,
                                                           rng=rng))}
    if paillier._powmod is not pow:
        cells["comb_build"] = quartiles_us(lambda fresh: fresh._comb,
                                           setup=lambda rep: with_h_s(pk))
    c = encrypt(pk, 12345, rng=rng)
    encrypt(pk, 12345, rng=rng, sk=sk)  # sk's bases, outside the timings
    cells["encrypt"] = quartiles_us(lambda: encrypt(pk, 12345, rng=rng))
    cells["encrypt_sk"] = quartiles_us(lambda: encrypt(pk, 12345, rng=rng, sk=sk))
    cells["decrypt_bounded"] = quartiles_us(lambda: decrypt(sk, pk, c, bound=2**40))
    cells["decrypt_full"] = quartiles_us(lambda: decrypt(sk, pk, c))
    cs = [encrypt(pk, rng.randrange(2**20), rng=rng, sk=sk) for _ in range(BATCH)]
    cells["load"] = quartiles_us(lambda: load_and_free(pk, cs), BATCH)
    with operands(pk, cs) as loaded:
        cells["product"] = quartiles_us(lambda: aggregate(pk, loaded), BATCH)
        runs = [0] * FOLD_STEPS + [1]  # the last run's product, then one step per empty run
        cells["fold_step"] = quartiles_us(lambda: aggregate(pk, loaded[:1], runs, 29),
                                          FOLD_STEPS)
    return cells


def main() -> None:
    keys = {bits: keygen(key_bits=bits, rng_seed=bits) for bits in (512, 1024, 2048)}
    backends = [("builtin pow", pow)]
    if paillier._powmod is not pow:
        backends.insert(0, ("libcrypto", paillier._powmod))
    for name, powmod in backends:
        paillier._powmod = powmod
        columns = {bits: measure(pk, sk, bits) for bits, (pk, sk) in keys.items()}
        print(f"modular arithmetic: {name}; median us [interquartile range] of {REPS} runs")
        print(f"{'':16}" + "".join(f"{bits:>30}" for bits in keys))
        for op in columns[512]:
            cells = (columns[bits][op] for bits in keys)
            print(f"{op:16}" + "".join(f"{f'{us(m)} [{us(q1)}-{us(q3)}]':>30}"
                                       for q1, m, q3 in cells))


if __name__ == "__main__":
    main()
