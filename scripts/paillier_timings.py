#!/usr/bin/env python3
"""Median Paillier timings per key size.

    PYTHONPATH=src python3 scripts/paillier_timings.py

First prints which modular exponentiation backs ``paillier._powmod``:
the system libcrypto's ``BN_mod_exp_mont``, or the builtin ``pow`` where
no libcrypto loads.  Then, at 512, 1024 and 2048 bits, prints in ms the
median of 15 runs of: building a public key's fixed-base comb, a
public-key encryption, a key-holder encryption (``sk=``), a bounded
single-prime decryption and a full CRT decryption.
"""

from __future__ import annotations

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
    backend = "builtin pow" if paillier._powmod is pow else "libcrypto BN_mod_exp_mont"
    print(f"modular exponentiation: {backend}")
    print("key_bits  comb_build  encrypt  encrypt_sk  decrypt_bounded  decrypt_full")
    for bits in (512, 1024, 2048):
        pk, sk = keygen(key_bits=bits, rng_seed=bits)
        rng = random.Random(bits)
        # each build runs on a fresh key object, as every client decodes its own
        build = median_ms(lambda: PublicKey(pk.n, pk.g).obfuscator_table)
        pk.obfuscator_table, sk.obfuscator_tables  # built once, outside the timings
        c = encrypt(pk, 12345, rng=rng)
        row = [build,
               median_ms(lambda: encrypt(pk, 12345, rng=rng)),
               median_ms(lambda: encrypt(pk, 12345, rng=rng, sk=sk)),
               median_ms(lambda: decrypt(sk, pk, c, bound=2**40)),
               median_ms(lambda: decrypt(sk, pk, c))]
        print(f"{bits:8d}" + "".join(f"{v:{w}.3f}" for v, w in zip(row, (12, 9, 12, 17, 14))))


if __name__ == "__main__":
    main()
