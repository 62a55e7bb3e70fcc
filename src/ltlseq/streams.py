"""numpy's PCG64 raw streams, many at once, without a bit generator.

Every sequence of a dataset, and every sequence an oracle corrupts, reads
its own ``np.random.PCG64(seed)`` stream, with a 64-bit seed hashed from
its name (``_digest_int``).  Seeding one bit generator runs
``SeedSequence`` in Python, about 10-20 µs a stream.  ``SeedSequence``
(numpy/random/bit_generator.pyx) and PCG64, a 128-bit LCG with XSL-RR
output (O'Neill 2014), are fixed algorithms that NEP 19 keeps stable, so
``stream_words`` computes them for a whole array of seeds in numpy and
returns the same words.

- ``seed_states``: SeedSequence on entropy below 2^64.  The entropy is two
  uint32 words, low first, and numpy hashes a 0 for each pool word past
  them, so every seed is zero-padded to the pool of 4.  The hash constants
  do not depend on the data and are computed once.
- PCG64 seeding: seed = w0:w1 and inc = w2:w3 (high half first);
  inc' = inc << 1 | 1, then state = 0, a step, state += seed, a step.
- Word k is the XSL-RR output, ``rotr64(hi ^ lo, hi >> 58)``, of the state
  k steps on, reached by one jump ``s ↦ A^j·s + C_j·inc'`` with
  ``C_j = Σ_{i<j} A^i`` (mod 2^128).  The 128-bit products run on uint64
  halves: the low half is numpy's wrapping multiply, and the high half of
  the low halves' product comes from 32-bit limbs.

``tests/test_generator.py`` pins both functions against
``np.random.SeedSequence`` and ``np.random.PCG64``.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Sequence

import numpy as np

_LOW32 = (1 << 32) - 1
_LOW64 = (1 << 64) - 1
_LOW128 = (1 << 128) - 1
# numpy scalars, so uint64 array arithmetic stays uint64
_HALF, _SHIFT, _ONE = np.uint64(_LOW32), np.uint64(32), np.uint64(1)
_U63, _ROTATE = np.uint64(63), np.uint64(58)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_BLOCK = 1 << 16  # words of one column block of stream_words
_JUMPS = 1 << 10  # columns of one block at most
_DOUBLE_UNIT = 2.0**-53  # next_double's scale: 53 random bits to [0, 1)


def _digest_int(text: str) -> int:
    """The 64-bit seed of the stream named ``text``: its sha256's first 8
    bytes, big-endian."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _next_doubles(words: Sequence[int]) -> np.ndarray:
    """numpy's ``next_double`` of each PCG64 word: its top 53 bits times
    2^-53, what ``Generator.random()`` draws from one word."""
    return (np.array(words, dtype=np.uint64) >> 11) * _DOUBLE_UNIT


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of SeedSequence's first ``count`` hashes, as two
    columns.  A hash XORs its value with the running constant, multiplies
    the constant by ``mult`` and the value by the new constant, which the
    next hash XORs in."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = init * mult & _LOW32
        mults.append(init)
    return np.array(xors, dtype=np.uint32)[:, None], np.array(mults, dtype=np.uint32)[:, None]


_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # INIT_A, MULT_A
_STATE_XOR, _STATE_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # INIT_B, MULT_B
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row of uint32 values, with that
    row's constants (``_hash_constants``)."""
    values = (values ^ xors) * mults
    return values ^ values >> _XSHIFT


def seed_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` of each
    uint64 seed s, as the columns of a 4 × seeds array.

    Each step hashes every seed at once, and mixing one pool word into the
    other three is one step.  ``generate_state`` reads 8 uint32 words off
    the cycled pool and pairs them little-endian."""
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & _HALF, seeds >> _SHIFT
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src in range(4):
        dst, h = [d for d in range(4) if d != src], 4 + 3 * src
        hashed = _hashmix(pool[src], _POOL_XOR[h : h + 3], _POOL_MULT[h : h + 3])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ mixed >> _XSHIFT
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT).astype(np.uint64)
    return words[0::2] | words[1::2] << _SHIFT


@functools.cache
def _jumps() -> tuple[np.ndarray, np.ndarray]:
    """PCG64's jump by j = 1 … ``_JUMPS + 1`` steps, built on first use.
    Column j − 1 of the first table holds A^j and of the second C_j, each as
    its high half, its low half and the low half's two 32-bit limbs."""
    a, c, rows = 1, 0, []
    for _ in range(_JUMPS + 1):
        a, c = a * _PCG64_MULT & _LOW128, (c * _PCG64_MULT + 1) & _LOW128
        rows.append((a >> 64, a & _LOW64, c >> 64, c & _LOW64))
    ah, al, ch, cl = np.array(rows, dtype=np.uint64).T
    return np.stack([ah, al, al & _HALF, al >> _SHIFT]), np.stack([ch, cl, cl & _HALF, cl >> _SHIFT])


def _mul_add(hi, lo, tmp, x, c) -> None:
    """hi:lo += x·c (mod 2^128) in place, x a column of per-row values and c
    a row of per-column values, each as its high half, its low half and the
    low half's 32-bit limbs.  ``tmp`` holds three scratch arrays shaped
    like ``hi``."""
    xh, xl, x0, x1 = x
    ch, cl, c0, c1 = c
    p00, p01, p10 = tmp
    np.multiply(x0, c0, out=p00)
    np.multiply(x0, c1, out=p01)
    np.multiply(x1, c0, out=p10)
    p00 >>= _SHIFT
    p10 += p00  # at most (2^32 − 1)^2 + 2·(2^32 − 1) = 2^64 − 1 with the next add
    np.bitwise_and(p01, _HALF, out=p00)
    p10 += p00
    p10 >>= _SHIFT
    hi += p10
    p01 >>= _SHIFT
    hi += p01
    for a, b in ((x1, c1), (xh, cl), (xl, ch)):
        np.multiply(a, b, out=p00)
        hi += p00
    np.multiply(xl, cl, out=p00)
    lo += p00
    hi += lo < p00  # the carry


def stream_words(seeds: Sequence[int], counts: Sequence[int]) -> np.ndarray:
    """Row i: ``np.random.PCG64(seeds[i]).random_raw(counts[i])``, then zero
    words up to the largest count; every seed below 2^64.

    Columns go a block at a time, so that the temporaries stay a few blocks
    of at most ``_SEED_BLOCK`` words; each block jumps from the states of
    the last column before it.
    """
    counts = np.asarray(counts, dtype=np.intp)
    n, width = len(counts), int(counts.max(initial=0))
    out = np.zeros((n, width), dtype=np.uint64)
    if not width:
        return out
    w0, w1, w2, w3 = seed_states(np.asarray(seeds, dtype=np.uint64))
    # seeding ends at A·(seed + inc') + inc': the first block jumps from seed + inc'
    ih, il = w2 << _ONE | w3 >> _U63, w3 << _ONE | _ONE
    bl = w1 + il
    bh, bl = (w0 + ih + (bl < il))[:, None], bl[:, None]
    inc = (ih[:, None], il[:, None], il[:, None] & _HALF, il[:, None] >> _SHIFT)
    a_table, c_table = _jumps()
    step = min(width, _JUMPS, max(1, _SEED_BLOCK // n))
    tmp = np.empty((3, n, step), dtype=np.uint64)
    first = 1  # the first base is two steps before word 1, so it starts at j = 2
    for col in range(0, width, step):
        w = min(step, width - col)
        hi, lo = np.zeros((2, n, w), dtype=np.uint64)
        base = (bh, bl, bl & _HALF, bl >> _SHIFT)
        _mul_add(hi, lo, tmp[:, :, :w], base, a_table[:, first : first + w])
        _mul_add(hi, lo, tmp[:, :, :w], inc, c_table[:, first : first + w])
        bh, bl, first = hi[:, -1:].copy(), lo[:, -1:].copy(), 0
        # XSL-RR: hi ^ lo rotated right by hi's top 6 bits
        lo ^= hi
        hi >>= _ROTATE
        block = out[:, col : col + w]
        np.right_shift(lo, hi, out=block)
        np.negative(hi, out=hi)
        hi &= _U63
        lo <<= hi
        block |= lo
    out[np.arange(width) >= counts[:, None]] = 0
    return out
