"""Deterministic seed derivation and batched bootstrap draws.

Every stochastic subsystem (bootstrap resampling, per-round subsampling,
per-iteration significance tests) derives its own child seed from a parent
seed and an integer index with :func:`mix64`, a splitmix-style 64-bit
finalizer. Child seeds are therefore reproducible, order-independent, and
decoupled: drawing more randomness in one subsystem never shifts the stream
of another.

Bootstrap attempt ``a`` is defined as ``spawn(seed, a).integers(0, bound,
size=size)``. :class:`BootstrapDraws` returns those rows for a whole range of
attempts in one vectorized pass: it replays numpy's ``SeedSequence`` mixing,
PCG64's seeding and output function, and Lemire's bounded integers in
uint32/uint64 arithmetic, and falls back to :func:`spawn` for a row in which
Lemire's method would reject a draw. Its rows equal the definition bit for
bit; ``tests/test_rng.py`` compares them with one generator per attempt, so
a numpy release that changed one of those steps would fail there.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence: a 4-word pool, hashed and mixed in uint32
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# the multiplier of PCG64's 128-bit linear congruential step
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# draws per vectorized pass of BootstrapDraws
_BLOCK_ELEMENTS = 8192

_U32 = np.uint64(_MASK32)
_S32 = np.uint64(32)


def mix64(seed: int, index: int) -> int:
    """Mix ``seed`` and ``index`` into a well-scrambled 64-bit child seed.

    Applies the splitmix64 finalizer to ``seed + (index + 1) * GOLDEN``.
    Both arguments are reduced modulo 2**64 first, so negative Python ints
    are accepted.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def spawn(seed: int, index: int) -> np.random.Generator:
    """Return a fresh numpy Generator seeded with ``mix64(seed, index)``."""
    return np.random.default_rng(mix64(seed, index))


def _mix64_array(seed: int, index: np.ndarray) -> np.ndarray:
    """:func:`mix64` of ``seed`` and each uint64 ``index``, wrapping mod 2**64."""
    z = np.uint64(seed & _MASK64) + (index + np.uint64(1)) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``count`` successive SeedSequence hash calls: call
    ``i`` XORs in the running constant ``c[i]`` and multiplies by
    ``c[i + 1] = c[i] * mult``."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


# the 4 entropy words are hashed once, then each of the 4 pool words into
# the 3 others; generate_state hashes 8 output words
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` per column of a
    ``(4, count)`` uint32 entropy array, as ``(8, count)`` uint32 words (low
    word first).

    numpy hashes missing entropy words as 0, so a seed below 2**32 (one
    word) and the same seed padded with zero words give the same pool. Each
    hash call XORs in the running constant, advances it by the multiplier
    and multiplies by the new value; the constants do not depend on the
    data, so they are precomputed, and the calls of one mixing round, which
    read the same pool word, run together.
    """
    xor_a, mul_a = _MIX_CONSTS
    sh = np.uint32(16)

    def hashmix(value: np.ndarray, calls: slice) -> np.ndarray:
        value = (value ^ xor_a[calls, None]) * mul_a[calls, None]
        return value ^ (value >> sh)

    pool = hashmix(entropy, slice(0, _POOL_SIZE))
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = hashmix(pool[src], slice(call, call + len(dst)))
        call += len(dst)
        result = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
        pool[dst] = result ^ (result >> sh)
    xor_b, mul_b = _STATE_CONSTS
    state = (pool[[i % _POOL_SIZE for i in range(2 * _POOL_SIZE)]] ^ xor_b[:, None]) * mul_b[:, None]
    return state ^ (state >> sh)


class _Factor:
    """One 128-bit factor per output column: high and low 64-bit words and
    the low word's 32-bit halves."""

    def __init__(self, values: list[int]):
        self.hi = np.array([v >> 64 for v in values], dtype=np.uint64)
        self.lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)
        self.lo0 = self.lo & _U32
        self.lo1 = self.lo >> _S32


def _mul128(x_hi: np.ndarray, x_lo: np.ndarray, a: _Factor) -> tuple[np.ndarray, np.ndarray]:
    """``x * a mod 2**128`` as (high, low) words, for rows ``x`` (column
    vectors) against every column of ``a``."""
    x0 = x_lo & _U32
    x1 = x_lo >> _S32
    p00 = x0 * a.lo0
    p01 = x0 * a.lo1
    p10 = x1 * a.lo0
    mid = (p00 >> _S32) + (p01 & _U32) + (p10 & _U32)
    # the high word of the 64 x 64-bit product x_lo * a.lo
    high = x1 * a.lo1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return high + x_lo * a.hi + x_hi * a.lo, x_lo * a.lo


class BootstrapDraws:
    """Bootstrap rows ``spawn(seed, a).integers(0, bound, size=size)`` for
    ranges of attempts ``a``.

    The PCG64 state behind output ``k`` of a generator seeded with state
    ``s`` and increment ``inc`` is ``M**(k+2) * (s + inc) + C(k+2) * inc``
    (mod 2**128), with ``M`` the multiplier and ``C(j) = sum(M**i, i < j)``;
    the column factors are computed once per instance. numpy takes 32-bit
    draws from the 64-bit outputs low word first, and bounds each with
    Lemire's multiply; a row in which some draw falls below Lemire's
    rejection threshold is redrawn through :func:`spawn`, which stays the
    definition.
    """

    def __init__(self, seed: int, bound: int, size: int):
        if not (2 <= bound < 2**32):
            raise ValueError(f"bound must be in [2, 2**32), got {bound}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.seed = seed
        self.bound = bound
        self.size = size
        self._threshold = (2**32 - bound) % bound
        powers, sums = [], []
        power, total = _PCG_MULT, 1 + _PCG_MULT  # M**(k+2) and C(k+2) at k = 0
        for _ in range((size + 1) // 2):
            power = power * _PCG_MULT & _MASK128
            powers.append(power)
            sums.append(total)
            total = (total + power) & _MASK128
        self._power = _Factor(powers)
        self._sum = _Factor(sums)
        self._first = 0
        self._block = np.empty((0, size), dtype=np.int64)

    def rows(self, start: int, count: int) -> np.ndarray:
        """Rows of attempts ``start, ..., start + count - 1`` as an int64
        array of shape ``(count, size)``.

        Rows are computed a block at a time, at least ``count`` rows and
        about ``_BLOCK_ELEMENTS`` draws, because a pass has a fixed cost of
        about a hundred small numpy calls; a request inside the last block
        is served from it.
        """
        offset = start - self._first
        if offset < 0 or offset + count > self._block.shape[0]:
            self._block = self._draw(start, max(count, _BLOCK_ELEMENTS // self.size))
            self._first, offset = start, 0
        return self._block[offset : offset + count]

    def _draw(self, start: int, count: int) -> np.ndarray:
        attempts = np.arange(start, start + count, dtype=np.uint64)
        z = _mix64_array(self.seed, attempts)
        entropy = np.zeros((_POOL_SIZE, count), dtype=np.uint32)
        entropy[0] = z & _U32
        entropy[1] = z >> _S32
        w = _seed_state(entropy).astype(np.uint64)
        s_hi, s_lo = w[0] | (w[1] << _S32), w[2] | (w[3] << _S32)
        i_hi, i_lo = w[4] | (w[5] << _S32), w[6] | (w[7] << _S32)
        inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
        inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
        t_lo = s_lo + inc_lo
        t_hi = s_hi + inc_hi + (t_lo < s_lo)
        col = (slice(None), None)
        a_hi, a_lo = _mul128(t_hi[col], t_lo[col], self._power)
        b_hi, b_lo = _mul128(inc_hi[col], inc_lo[col], self._sum)
        lo = a_lo + b_lo
        hi = a_hi + b_hi + (lo < a_lo)
        # PCG64's XSL-RR output: rotate hi ^ lo right by the top 6 bits
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        words = np.empty((count, out.shape[1], 2), dtype=np.uint64)
        np.bitwise_and(out, _U32, out=words[:, :, 0])
        np.right_shift(out, _S32, out=words[:, :, 1])
        m = words.reshape(count, -1)[:, : self.size] * np.uint64(self.bound)
        draws = (m >> _S32).astype(np.int64)
        if self._threshold:
            for r in np.flatnonzero(((m & _U32) < np.uint64(self._threshold)).any(axis=1)):
                draws[r] = spawn(self.seed, start + int(r)).integers(0, self.bound, size=self.size)
        return draws
