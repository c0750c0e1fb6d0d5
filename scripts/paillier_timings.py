#!/usr/bin/env python3
"""Median Paillier timings per key size, on each modular exponentiation backend.

    PYTHONPATH=src python3 scripts/paillier_timings.py

Prints one table per backend of ``paillier._powmod``: first the system
libcrypto's ``BN_mod_exp_mont`` (skipped where no libcrypto loads), then the
builtin ``pow``, set in place of it.  Under libcrypto an encryption's
obfuscator is one exponentiation; under ``pow`` it comes from a Lim-Lee comb.
At 512, 1024 and 2048 bits each table gives in ms the median of 15 runs of:
the first encryption on a fresh key object (which computes ``h_s`` and,
under ``pow``, builds the comb), a public-key encryption, a key-holder
encryption (``sk=``), a bounded single-prime decryption and a full CRT
decryption.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
from time import perf_counter

from fedgbt import paillier
from fedgbt.paillier import PublicKey, decrypt, encrypt, keygen

REPS = 15


def median_ms(fn) -> float:
    times = []
    for _ in range(REPS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> None:
    keys = {bits: keygen(key_bits=bits, rng_seed=bits) for bits in (512, 1024, 2048)}
    backends = [("builtin pow", pow)]
    if paillier._powmod is not pow:
        backends.insert(0, ("libcrypto BN_mod_exp_mont", paillier._powmod))
    for name, powmod in backends:
        paillier._powmod = powmod
        print(f"modular exponentiation: {name}")
        print("key_bits  first_encrypt  encrypt  encrypt_sk  decrypt_bounded  decrypt_full")
        for bits, (held_pk, held_sk) in keys.items():
            # fresh key objects, so nothing one backend computed serves the other
            pk, sk = PublicKey(held_pk.n, held_pk.g), dataclasses.replace(held_sk)
            rng = random.Random(bits)
            first = median_ms(lambda: encrypt(PublicKey(pk.n, pk.g), 12345, rng=rng))
            c = encrypt(pk, 12345, rng=rng)
            encrypt(pk, 12345, rng=rng, sk=sk)  # sk's bases (and combs), outside the timings
            row = [first,
                   median_ms(lambda: encrypt(pk, 12345, rng=rng)),
                   median_ms(lambda: encrypt(pk, 12345, rng=rng, sk=sk)),
                   median_ms(lambda: decrypt(sk, pk, c, bound=2**40)),
                   median_ms(lambda: decrypt(sk, pk, c))]
            print(f"{bits:8d}" + "".join(f"{v:{w}.3f}" for v, w in zip(row, (15, 9, 12, 17, 14))))


if __name__ == "__main__":
    main()
