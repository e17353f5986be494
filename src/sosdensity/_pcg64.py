"""numpy's seeded PCG64 streams, for many streams at once.

`default_rng(SeedSequence(seed, spawn_key=(j,)))` hashes (seed, j) into a
PCG64 state and increment, and each `.random()` steps the 128-bit LCG and
turns its XSL-RR output x into (x >> 11) * 2**-53.  numpy keeps both
SeedSequence and PCG64 streams fixed across releases (NEP 19), so the same
uniforms can be computed here for a whole array of point indices j in a few
numpy operations on uint64 words, with no generator object per point.
"""

from __future__ import annotations

import numpy as np

# SeedSequence's hash constants and PCG64's 128-bit multiplier (high and low
# words), from numpy's bit_generator and pcg64 sources.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hash(value, const: int, mult: int):
    """One SeedSequence hash of 32-bit words (an int or a uint32 array) with
    the running constant const; returns the hash and the next constant."""
    const_next = (const * mult) & _MASK32
    value = ((value ^ const) * const_next) & _MASK32
    return value ^ (value >> 16), const_next


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (ints or uint32 arrays)."""
    value = (((_MIX_L * x) & _MASK32) - ((_MIX_R * y) & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _absorb(pool: list, const: int, words) -> tuple[list, int]:
    """Mix each entropy word beyond the first four into every pool word."""
    for word in words:
        for dst in range(4):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, by 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's 128-bit step state * multiplier + inc (mod 2**128), as
    (high, low) uint64 words."""
    new_lo = lo * _PCG_LO + inc_lo
    carry = new_lo < inc_lo
    return _mulhi(lo, _PCG_LO) + lo * _PCG_HI + hi * _PCG_LO + inc_hi + carry, new_lo


def streams(seed: int, j: np.ndarray) -> np.ndarray:
    """(4, N) uint64 rows (state high, state low, inc high, inc low): the
    PCG64 stream of default_rng(SeedSequence(seed, spawn_key=(j,))) for a
    seed >= 0 and each point index 0 <= j < 2**32, before its first draw.

    The seed's words (zero-padded to SeedSequence's pool of four) mix the
    same way for every j, in Python ints; the spawn word j is the last one
    absorbed, and it, generate_state's hash and PCG64's seeding run on arrays.
    """
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool, const = [], _INIT_A
    for word in words[:4]:
        value, const = _hash(word, const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    pool, const = _absorb(pool, const, words[4:])
    pool, _ = _absorb(pool, const, [j.astype(np.uint32)])
    # generate_state(4, uint64): eight 32-bit words, pairs read little-endian
    state, const = [], _INIT_B
    for k in range(8):
        value, const = _hash(pool[k % 4], const, _MULT_B)
        state.append(value.astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (state[k] | (state[k + 1] << 32) for k in range(0, 8, 2))
    # pcg64_set_seed: inc = 2 * seq + 1, state = 0, step, state += seed, step
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    return np.stack([*_lcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo])


def uniforms(state: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The next uniform of each stream (column of state, as streams returns
    it) in rows, which steps once: PCG64's XSL-RR output x of the new state,
    then (x >> 11) * 2**-53, which is Generator.random()."""
    hi, lo = _lcg_step(*state[:, rows])
    state[0, rows], state[1, rows] = hi, lo
    x, rot = hi ^ lo, hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11) * 2.0**-53
