"""Deterministic random-number streams derived from a single root seed.

A :class:`Stream` is a PCG64 generator (O'Neill, HMC-CS-2014-0905) in
pure Python, seeded exactly like
``numpy.random.PCG64(numpy.random.SeedSequence(seed, spawn_key=key))``,
so its words equal that generator's ``random_raw`` output bit for bit.
Streams with different keys are statistically independent, and a draw
on one stream never shifts another, so enlarging a cohort or adding
trees leaves previously generated values untouched.

Every transform from 64-bit words to draws lives here, and each takes
a fixed number of words:

- :func:`uniform`: one word, ``(w >> 11) * 2**-53``, which equals the
  float numpy's ``random()`` method draws from the same PCG64;
- :func:`bounded`: one word, ``(w * k) >> 64``, Lemire's multiply-shift
  (ACM TOMACS 2019) without the rejection step, so the bias is at most
  k / 2**64;
- :func:`normal_deviate`: two words, a Box-Muller deviate from two uniforms;
- :func:`shuffled_prefix`: k words, the first k items of a forward
  Fisher-Yates shuffle of ``range(n)``.

Because the byte output depends only on these formulas and on PCG64,
it depends neither on numpy nor on the algorithms of numpy's sampling
methods, which numpy does not promise to keep across releases.
"""
from __future__ import annotations

import functools
import math
from typing import Sequence

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# numpy.random.SeedSequence: a pool of four 32-bit words and its hash
# constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_TWO_PI = 2.0 * math.pi


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; [0] for 0."""
    if value < 0:
        raise ValueError(f"stream seeds and keys must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """One hash of ``SeedSequence``: the hashed value, and the hash
    constant advanced as it is by every hash, whatever its input."""
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _mix_in(pool: list[int], values: Sequence[int], hash_const: int) -> int:
    """The last phase of mix_entropy: hash each value into every pool
    word, in place; returns the hash constant reached."""
    for value in values:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(value, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    return hash_const


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """``SeedSequence``'s pool after it has mixed in the seed's own words,
    and the hash constant reached; shared by every key under one seed.

    The seed's words are zero-padded to the pool size, as numpy pads them
    when a key follows; without a key the pool reads missing words as 0,
    so the padding changes nothing there.
    """
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    # mix_entropy: hash the first four words into the pool, hash every
    # pool word into every other, then mix in the remaining words
    pool, hash_const = [], _INIT_A
    for value in entropy[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(value, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    hash_const = _mix_in(pool, entropy[_POOL_SIZE:], hash_const)
    return tuple(pool), hash_const


def _seed_state(seed: int, key: Sequence[int]) -> tuple[int, int]:
    """PCG64's (initstate, initseq) from ``SeedSequence(seed, spawn_key=key)``."""
    pool, hash_const = _seed_pool(seed)
    pool = list(pool)
    _mix_in(pool, [word for part in key for word in _uint32_words(part)], hash_const)

    # generate_state(4, uint64): eight 32-bit words cycled from the pool,
    # paired little-endian into four 64-bit words
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    v0, v1, v2, v3 = (state[2 * i] | state[2 * i + 1] << 32 for i in range(4))
    return v0 << 64 | v1, v2 << 64 | v3


class Stream:
    """The PCG64 stream at ``key`` under ``seed``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, *key: int) -> None:
        initstate, initseq = _seed_state(seed, key)
        self._inc = (initseq << 1 | 1) & _MASK128
        state = self._inc  # one step from state 0
        state = (state + initstate) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128

    def words(self, count: int) -> list[int]:
        """The next ``count`` 64-bit words: an LCG step, then XSL-RR
        (the high and low halves xor-folded, rotated right by the top six
        state bits)."""
        state, inc, mult, mask64, mask128 = self._state, self._inc, _PCG_MULT, _MASK64, _MASK128
        out: list[int] = []
        append = out.append
        for _ in range(count):
            state = (state * mult + inc) & mask128
            folded = (state >> 64 ^ state) & mask64
            rot = state >> 122
            append((folded >> rot | folded << (64 - rot)) & mask64)
        self._state = state
        return out


def uniform(word: int) -> float:
    """A float in [0, 1) from the top 53 bits of one word."""
    return (word >> 11) * 2.0**-53


def bounded(word: int, k: int) -> int:
    """An integer in [0, k) from one word."""
    return (word * k) >> 64


def normal_deviate(word1: int, word2: int) -> float:
    """Standard normal deviate from two words (Box-Muller)."""
    u1 = uniform(word1)
    u2 = uniform(word2)
    # u1 is in [0, 1), so 1 - u1 is in (0, 1] and the log is finite.
    radius = math.sqrt(-2.0 * math.log1p(-u1))
    return radius * math.cos(_TWO_PI * u2)


def shuffled_prefix(n: int, words: Sequence[int]) -> list[int]:
    """The first ``len(words)`` items of a forward Fisher-Yates shuffle of
    ``range(n)``: step i swaps item i with item i + bounded(words[i], n - i).

    With n words the prefix is the whole permutation.
    """
    if len(words) > n:
        raise ValueError(f"cannot take {len(words)} items from a shuffle of {n}")
    items = list(range(n))
    for i, word in enumerate(words):
        j = i + ((word * (n - i)) >> 64)
        items[i], items[j] = items[j], items[i]
    return items[: len(words)]
