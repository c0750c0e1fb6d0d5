"""Deterministic seed and mask derivation shared by the protocol modules.

Masks come from a PRG: :func:`expand_mask_words` stretches one label tuple,
with SHAKE-256, into the mask words of a whole stream, and
:func:`derive_uniform_int` reads one word of such an expansion as a residue.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts) -> int:
    """Collision-resistant 63-bit seed from an arbitrary label tuple."""
    material = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") >> 1


def mask_word_bytes(modulus: int) -> int:
    """Bytes per mask word: 128 bits more than ``modulus`` has, so reducing
    a word mod ``modulus`` leaves a bias below 2^-128."""
    return (modulus.bit_length() + 128 + 7) // 8


def expand_mask_words(modulus: int, n: int, *parts) -> bytes:
    """``n`` mask words for residues mod ``modulus``, from one SHAKE-256
    expansion of a label tuple."""
    material = "|".join(str(p) for p in parts).encode()
    return hashlib.shake_256(material).digest(n * mask_word_bytes(modulus))


def derive_uniform_int(modulus: int, words: bytes, i: int, size: int) -> int:
    """Word ``i`` of an expansion of :func:`expand_mask_words`, a uniform
    residue mod ``modulus``; ``size`` is ``mask_word_bytes(modulus)``."""
    return int.from_bytes(words[i * size:(i + 1) * size], "big") % modulus
