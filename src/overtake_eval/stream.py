"""numpy's seeding and PCG64 generator, computed for many streams at once.

``np.random.default_rng(seed)`` hashes its entropy with ``SeedSequence``
into a 128-bit PCG64 state and increment, and each double it draws is one
step of PCG64's 128-bit LCG read through the XSL-RR output (O'Neill, "PCG:
a family of simple fast space-efficient statistically good algorithms for
random number generation", 2014).  This module computes the same on uint64
arrays with one row per stream, so a block of streams is seeded and drawn
without a generator object per stream and bit for bit as numpy would.

A ``SeedSequence`` word is a 32-bit value held in a uint64, so the product
of two words is exact; a 128-bit value is a (high, low) pair of uint64
arrays.  Every constant is an ``np.uint64``: under NumPy 1.x, uint64 mixed
with a Python or int64 integer promotes to float64.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

_U = np.uint64
_MASK32 = 0xFFFFFFFF
_M32 = _U(_MASK32)
_S16, _S32 = _U(16), _U(32)

# SeedSequence: a pool of four words, hashmix constants that advance by
# one multiplication per call, and the pool's mixing multipliers.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U(0xCA01F9DD), _U(0x4973F715)

# PCG64's 128-bit multiplier, with the low half also split into 32-bit
# halves for the high part of a 64x64-bit product.
_MUL = 0x2360ED051FC65DA44385DF649FCCF645
_MUL_HI, _MUL_LO = _U(_MUL >> 64), _U(_MUL & (2**64 - 1))
_MUL_LO0, _MUL_LO1 = _U(_MUL & _MASK32), _U(_MUL >> 32 & _MASK32)


def _words(n: int) -> List[int]:
    """``n`` as ``SeedSequence`` entropy: 32-bit words, least significant
    first; zero is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    out = []
    while True:
        out.append(n & _MASK32)
        n >>= 32
        if not n:
            return out


def _hashmix(init: int, mult: int):
    """``SeedSequence``'s hashmix; each call takes the next hash constant."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ _U(const)
        const = const * mult & _MASK32
        value = value * _U(const) & _M32
        return value ^ (value >> _S16)
    return hashmix


def _mix(x, y):
    r = (x * _MIX_L - y * _MIX_R) & _M32
    return r ^ (r >> _S16)


def _generate_state(entropy: Sequence[np.ndarray],
                    n_words: int) -> List[np.ndarray]:
    """``SeedSequence(e).generate_state(n_words, np.uint32)`` of each row's
    entropy ``e``; ``entropy[i]`` holds word i of every row."""
    hashmix = _hashmix(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hashmix(_INIT_B, _MULT_B)
    return [out(pool[i % _POOL]) for i in range(n_words)]


def _u64(low_word, high_word):
    return low_word | (high_word << _S32)


def seeds(head: Sequence[int], tail) -> np.ndarray:
    """``SeedSequence((*head, t)).generate_state(1, np.uint64)[0]`` for
    each ``t`` of the uint64 array ``tail``."""
    tail = np.asarray(tail, dtype=np.uint64)
    fixed = [w for n in head for w in _words(n)]
    out = np.empty(tail.shape, dtype=np.uint64)
    wide = tail > _M32
    for rows, n_words in ((~wide, 1), (wide, 2)):
        t = tail[rows]
        if t.size:
            entropy = [np.full(t.shape, w, dtype=np.uint64) for w in fixed]
            entropy += [t & _M32, t >> _S32][:n_words]
            out[rows] = _u64(*_generate_state(entropy, 2))
    return out


def _add(hi, lo, add_hi, add_lo) -> Tuple[np.ndarray, np.ndarray]:
    """128-bit sum, carrying out of the low half."""
    low = lo + add_lo
    return hi + add_hi + (low < lo).astype(np.uint64), low


def _lcg(hi, lo, inc_hi, inc_lo) -> Tuple[np.ndarray, np.ndarray]:
    """One step of the 128-bit LCG: state * multiplier + increment."""
    lo0, lo1 = lo & _M32, lo >> _S32
    p00, p01, p10 = lo0 * _MUL_LO0, lo0 * _MUL_LO1, lo1 * _MUL_LO0
    mid = (p00 >> _S32) + (p01 & _M32) + (p10 & _M32)
    carry = lo1 * _MUL_LO1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return _add(carry + lo * _MUL_HI + hi * _MUL_LO, lo * _MUL_LO,
                inc_hi, inc_lo)


class Pcg64:
    """One PCG64 generator per row, seeded as ``np.random.default_rng``
    seeds its own from each of ``seeds``; 32 bytes a row."""

    def __init__(self, seeds) -> None:
        seeds = np.asarray(seeds, dtype=np.uint64)
        # A one-word seed hashes as two with a zero high word: the pool
        # pads short entropy with hashmix(0).
        w = _generate_state([seeds & _M32, seeds >> _S32], 8)
        s_hi, s_lo, q_hi, q_lo = (_u64(w[i], w[i + 1]) for i in range(0, 8, 2))
        # PCG's srandom: increment (seq << 1) | 1, state 0, step, add the
        # initial state, step.
        self.inc_hi = (q_hi << _U(1)) | (q_lo >> _U(63))
        self.inc_lo = (q_lo << _U(1)) | _U(1)
        zero = np.zeros_like(seeds)
        hi, lo = _lcg(zero, zero, self.inc_hi, self.inc_lo)
        self.hi, self.lo = _lcg(*_add(hi, lo, s_hi, s_lo),
                                self.inc_hi, self.inc_lo)

    def random(self, rows=slice(None)) -> np.ndarray:
        """Advance ``rows`` one step each; the double each one draws."""
        hi, lo = _lcg(self.hi[rows], self.lo[rows],
                      self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        # XSL-RR: the halves' xor, rotated right by the top six bits.
        x, r = hi ^ lo, hi >> _U(58)
        x = (x >> r) | (x << ((_U(64) - r) & _U(63)))
        return (x >> _U(11)).astype(np.float64) * 2.0 ** -53
