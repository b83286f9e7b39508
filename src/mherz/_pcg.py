"""Uniform draws from numpy's default generator, without ``numpy.random``.

:func:`uniform` returns exactly ``numpy.random.default_rng(seed).uniform(low,
high, size)``, bit for bit: numpy's ``SeedSequence`` mixing of the seed,
PCG64 seeding, and the XSL-RR 128/64 output of each state (O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905, 2014).  Importing
``numpy.random`` loads ``secrets``, ``hashlib`` and OpenSSL, about 6 MB of
resident memory, for draws that plain ``uint64`` arithmetic gives as well.

The 128-bit LCG states are not stepped one by one.  State ``k + j`` is
``a**j * s_k + inc * (1 + a + ... + a**(j-1))`` mod 2**128 (Brown, "Random
Number Generation with Arbitrary Strides", Trans. Am. Nucl. Soc. 71, 1994),
so with the ``CHUNK`` powers and sums of one table, every state of a chunk
of ``CHUNK`` states follows from the chunk's start in a few dozen
vectorised ``uint64`` operations.  128-bit numbers are ``(high, low)``
pairs of ``uint64`` words; products of 64-bit words are built from their
32-bit halves.
"""

from __future__ import annotations

import functools
import os

import numpy as np

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
CHUNK = 8192  # states computed at once, one jump-table entry each

# numpy's SeedSequence constants (pool of four 32-bit words)
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(x) -> list[int]:
    """The 32-bit entropy words of a seed, as numpy's ``SeedSequence`` reads
    it: integers little-endian by word, sequences concatenated, strings
    parsed as integers; negative integers and floats refused."""
    if isinstance(x, str):
        x = int(x, 16 if x.startswith("0x") else 8 if x.startswith("0") else 10)
    if isinstance(x, (int, np.integer)):
        n = int(x)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words = [n & M32]
        while n > M32:
            n >>= 32
            words.append(n & M32)
        return words
    if isinstance(x, (float, np.inexact)):
        raise TypeError("seed must be integer")
    return [w for v in x for w in _words(v)]  # TypeError if x is no sequence


def _hashmix(value: int, h: int) -> tuple[int, int]:
    value = ((value ^ h) * (h := h * MULT_A & M32)) & M32
    return value ^ (value >> 16), h


def _mix(x: int, y: int) -> int:
    r = (MIX_MULT_L * x - MIX_MULT_R * y) & M32
    return r ^ (r >> 16)


def _seeded(seed) -> tuple[int, int]:
    """``(state, inc)`` of ``PCG64(seed)``, from the four 64-bit words of
    ``SeedSequence(seed).generate_state(4, np.uint64)``."""
    if seed is None:
        seed = int.from_bytes(os.urandom(16), "little")
    elif not isinstance(seed, (int, np.integer, list, tuple, range, np.ndarray)):
        raise TypeError(f"SeedSequence expects int or sequence of ints for entropy not {seed}")
    entropy, h = _words(seed), INIT_A
    pool = []
    for i in range(4):
        word, h = _hashmix(entropy[i] if i < len(entropy) else 0, h)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[4:]:
        for dst in range(4):
            word, h = _hashmix(extra, h)
            pool[dst] = _mix(pool[dst], word)
    state, h = 0, INIT_B
    for i in range(8):  # word i of the 256 bits (initstate, initseq) goes to 32 * (i ^ 2)
        word = (pool[i % 4] ^ h) * (h := h * MULT_B & M32) & M32
        state |= (word ^ (word >> 16)) << (32 * (i ^ 2))
    initstate, initseq = state & M128, state >> 128
    inc = (initseq << 1 | 1) & M128
    return ((inc + initstate) * MULTIPLIER + inc) & M128, inc


def _u64(x: int) -> tuple[np.uint64, np.uint64]:
    return np.uint64(x >> 64), np.uint64(x & M64)


def _mul(xh, xl, yh, yl):
    """``x * y`` mod 2**128, word pairs in and out, broadcasting."""
    x0, x1, y0, y1 = xl & M32, xl >> 32, yl & M32, yl >> 32
    t = x1 * y0 + (x0 * y0 >> 32)
    w = x0 * y1 + (t & M32)
    return x1 * y1 + (t >> 32) + (w >> 32) + xl * yh + xh * yl, xl * yl


def _add(xh, xl, yh, yl):
    """``x + y`` mod 2**128, word pairs in and out, broadcasting."""
    lo = xl + yl
    return xh + yh + (lo < yl), lo


@functools.lru_cache(maxsize=1)
def _jump_table():
    """``(a**j, 1 + a + ... + a**(j-1))`` for ``j = 1 .. CHUNK``, as word
    pairs, built by doubling: entry ``m + j`` is ``a**m * a**j`` and
    ``C_m + a**m * C_j``."""
    power = [np.array([w]) for w in _u64(MULTIPLIER)]
    total = [np.array([w]) for w in _u64(1)]
    while power[0].size < CHUNK:
        am, cm = (power[0][-1], power[1][-1]), (total[0][-1], total[1][-1])
        power = [np.concatenate(p) for p in zip(power, _mul(*power, *am))]
        total = [np.concatenate(p) for p in zip(total, _add(*_mul(*total, *am), *cm))]
    return power, total


def uniform(seed, low: float, high: float, size: int) -> np.ndarray:
    """``numpy.random.default_rng(seed).uniform(low, high, size)``, bit for bit.

    Chunk ``i`` holds states ``i * CHUNK + j`` for ``j = 1 .. CHUNK``, each
    the jump-table entry ``j`` applied to the chunk's start state; the start
    of the next chunk is one jump of ``CHUNK`` steps, in Python integers.
    """
    low, high = float(low), float(high)
    span = high - low
    if not np.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if span < 0:
        raise ValueError("high - low < 0")
    state, inc = _seeded(seed)
    (ah, al), (ch, cl) = _jump_table()
    kh, kl = _mul(ch, cl, *_u64(inc))  # inc * C_j
    a_chunk = int(ah[-1]) << 64 | int(al[-1])
    k_chunk = int(kh[-1]) << 64 | int(kl[-1])
    out = np.empty(size)
    for start in range(0, size, CHUNK):
        m = min(CHUNK, size - start)
        hi, lo = _add(*_mul(ah[:m], al[:m], *_u64(state)), kh[:m], kl[:m])
        x, rot = hi ^ lo, hi >> 58
        x = (x >> rot) | (x << (64 - rot))  # rotate right; a shift by 64 gives 0
        np.multiply(x >> 11, 2.0**-53, out=out[start : start + m])
        state = (a_chunk * state + k_chunk) & M128
    if (low, high) != (0.0, 1.0):  # low + 1.0 * u == u: the same bits
        out = low + span * out
    return out
