"""Named, seedable random sub-streams.

Every stochastic ingredient of a run (tick scheduling, per-node clock
readings, per-arc hearing and delay jitter) draws from its own generator,
keyed by a stable name.  Two runs with the same seed therefore consume
identical noise even when the synchronization algorithm differs, which
makes variance-reduction comparisons (same noise, different algorithm)
meaningful and traces bit-reproducible.

A stream keyed by ``(seed, *key)`` is the PCG64 generator that
``np.random.default_rng(np.random.SeedSequence(words))`` returns for the
uint32 words ``[seed, *key]`` (strings reduced with CRC32, integers
masked to 32 bits).  A run needs two streams per arc and one per node,
and building a ``SeedSequence`` for each costs far more than the
generator itself, so the words are hashed here instead:
:func:`_pcg64_seeds` repeats NumPy's ``SeedSequence`` pool mixing and
``generate_state(4, uint64)`` as array arithmetic over all streams of a
batch at once.

A hearing stream serves one uniform per tick of the arc's sender, often
only one or two in a run, so it is not built as a generator at all:
:class:`UniformStreams` holds each stream's 128-bit PCG64 state as two
uint64 array words, seeded as ``PCG64`` seeds it, and computes
``Generator.random``'s uniforms (the XSL-RR output of each LCG step,
shifted right by 11 and scaled by 2**-53; O'Neill 2014, "PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation") for every stream of a batch as array arithmetic.
Each draw is one jump from its stream's current state, by a table of
PCG64 constants shared by every stream.  Only the tick, jitter and
reading streams are still ``Generator`` objects, since they draw
exponentials and normals.  NumPy keeps ``SeedSequence`` and ``PCG64``
output stable across releases (NEP 19), and ``tests/test_streams.py``
compares every path here with ``SeedSequence`` and ``Generator``
themselves.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
#: the largest seed: a seed is masked to 32 bits, so any seed outside
#: 0..MAX_SEED runs exactly as one inside
MAX_SEED = _MASK32
_POOL_SIZE = 4  # SeedSequence's default pool size, in uint32 words
# SeedSequence's hashing constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of ``count`` successive hash steps.

    A step xors the value with the running hash constant, advances the
    constant by ``mult`` and multiplies the value by it.  The constants
    do not depend on the words, so they are computed once.
    """
    xor, mul = [], []
    for _ in range(count):
        xor.append(init)
        init = (init * mult) & _MASK32
        mul.append(init)
    return (np.array(xor, dtype=np.uint32)[:, None],
            np.array(mul, dtype=np.uint32)[:, None])


# mix_entropy's 16 hash steps: one per pool word to fill the pool, then
# for each source word in turn one per other word
_MIX_XOR, _MIX_MUL = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
# generate_state(4, uint64) draws 8 uint32 words, cycling over the pool
_STATE_XOR, _STATE_MUL = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_STATE_ROWS = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """(m, 4) uint64 PCG64 seeds for an (m, w) uint32 word matrix, row r
    equal to ``SeedSequence(words[r]).generate_state(4, np.uint64)``.

    The uint32 arithmetic wraps as SeedSequence's does; the pool is held
    as (4, m), one row per pool word.
    """
    m, w = words.shape
    if w > _POOL_SIZE:
        raise ValueError(
            f"a stream key has at most {_POOL_SIZE} words with the seed, got {w}")
    pool = np.zeros((_POOL_SIZE, m), dtype=np.uint32)
    pool[:w] = words.T
    pool = _hash(pool, _MIX_XOR[:_POOL_SIZE], _MIX_MUL[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        first = _POOL_SIZE + len(dst) * src
        steps = slice(first, first + len(dst))
        hashed = _hash(pool[src], _MIX_XOR[steps], _MIX_MUL[steps])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    state = _hash(pool[_STATE_ROWS], _STATE_XOR, _STATE_MUL).astype(np.uint64)
    # uint32 pairs (low word first) form the uint64 words; PCG64 reads
    # each row through its data pointer, so the rows must be contiguous
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


class _FixedSeed(ISeedSequence):
    """Hands PCG64 one precomputed ``generate_state(4, uint64)`` result."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("only the PCG64 seed state (4 uint64 words) is stored")
        return self._state


def _generators(words: np.ndarray) -> list[np.random.Generator]:
    seeds = _pcg64_seeds(words)
    return [np.random.Generator(np.random.PCG64(_FixedSeed(s))) for s in seeds]


def _word(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & _MASK32


def _words(seed: int, name: str, ids) -> np.ndarray:
    """The (m, w) uint32 key words ``[seed, name, *row]`` of each row of
    ``ids``."""
    ids = np.asarray(ids, dtype=np.int64)
    ids = ids.reshape(len(ids), -1) if len(ids) else ids.reshape(0, 0)
    words = np.empty((ids.shape[0], 2 + ids.shape[1]), dtype=np.uint32)
    words[:, 0] = int(seed) & _MASK32
    words[:, 1] = _word(name)
    words[:, 2:] = ids & _MASK32
    return words


def substream(seed: int, *key) -> np.random.Generator:
    """Return a generator for the sub-stream identified by ``key``.

    Keys may mix strings and integers; strings are reduced with CRC32 so
    the mapping is stable across processes and platforms.  A key has at
    most three parts.
    """
    words = [int(seed) & _MASK32] + [_word(part) for part in key]
    return _generators(np.array([words], dtype=np.uint32))[0]


def substreams(seed: int, name: str, ids) -> list[np.random.Generator]:
    """``[substream(seed, name, *row) for row in ids]`` in one pass.

    ``ids`` is a sequence of m integers or of m equal-length integer
    tuples (at most two integers each), e.g. the arcs of a network.
    """
    if len(ids) == 0:
        return []
    return _generators(_words(seed, name, ids))


# -- PCG64 as array arithmetic --------------------------------------------
#
# A 128-bit value is a (high, low) pair of uint64 arrays; uint64 array
# arithmetic wraps mod 2**64, and the products below carry across words.

#: PCG64's LCG multiplier, 4 Q + 1 with Q odd
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_Q = _PCG_MULT >> 2
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(_MASK32)
#: most draws of one window of :meth:`UniformStreams.random`
_WINDOW = 1 << 13


def _u128(value: int) -> tuple[np.ndarray, np.ndarray]:
    """``value mod 2**128`` as one-element (high, low) arrays."""
    return (np.array([value >> 64 & _MASK64], dtype=np.uint64),
            np.array([value & _MASK64], dtype=np.uint64))


def _iadd(x, y):
    """x += y mod 2**128, in place; returns x."""
    hi, lo = x
    lo += y[1]
    hi += y[0]
    hi += lo < y[1]
    return x


def _mul(x, y):
    """x * y mod 2**128, broadcast: the low words' full 128-bit product
    from 32-bit halves, plus the cross terms."""
    (xh, xl), (yh, yl) = x, y
    x0, x1, y0, y1 = xl & _LOW32, xl >> 32, yl & _LOW32, yl >> 32
    p01, p10 = x0 * y1, x1 * y0
    # the middle column's sum, then the carries it and p01, p10 pass up
    mid = (x0 * y0 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = x1 * y1 + (mid >> 32) + (p01 >> 32) + (p10 >> 32) + xh * yl + xl * yh
    return hi, xl * yl


class _Steps:
    """Jump table of the LCG ``x -> MULT x + inc``: entry k is
    ``D_k = (MULT^k - 1) / 4 mod 2**128``, with which k steps take x to
    ``x + D_k (4 x + inc / Q)`` (see :meth:`UniformStreams._draw`).
    The entries are constants of PCG64, so one table serves every
    stream and is only ever extended.  It grows by doubling: L + k steps
    are k steps after L, so ``D_{L+k} = MULT^L D_k + D_L``.
    """

    def __init__(self) -> None:
        self.d = _u128(0)

    def upto(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The (high, low) words of the table, grown to at least
        ``count`` entries."""
        while len(self.d[1]) < count:
            # MULT^L = 4 D_L + 1 for L the table's length
            mult_l = pow(_PCG_MULT, len(self.d[1]), 1 << 130)
            later = _iadd(_mul(_u128(mult_l), self.d), _u128(mult_l >> 2))
            self.d = tuple(map(np.concatenate, zip(self.d, later)))
        return self.d


_STEPS = _Steps()


class UniformStreams:
    """The streams ``substreams(seed, name, ids)`` as bare PCG64 states,
    whose ``Generator.random`` uniforms are drawn as array arithmetic:
    each stream's 128-bit LCG state, and its increment divided by Q, are
    uint64 array words, seeded as ``PCG64`` seeds them."""

    def __init__(self, seed: int, name: str, ids) -> None:
        s = _pcg64_seeds(_words(seed, name, ids))
        # PCG64 seeding: the seed words are initstate (s0 high, s1 low)
        # and initseq (s2, s3); inc = initseq << 1 | 1, then from state
        # 0: one step, += initstate, one step
        inc = (s[:, 2] << 1) | (s[:, 3] >> 63), (s[:, 3] << 1) | 1
        state = _iadd((s[:, 0].copy(), s[:, 1].copy()), inc)
        self._state = _iadd(_mul(_u128(_PCG_MULT), state), inc)
        self._inc_q = _mul(_u128(pow(_Q, -1, 1 << 128)), inc)

    def random(self, counts) -> np.ndarray:
        """The next ``counts[r]`` uniforms of every stream r, stream after
        stream: what ``substreams(seed, name, ids)[r].random(counts[r])``
        returns, call after call."""
        m = np.asarray(counts, dtype=np.intp)
        end = np.cumsum(m)
        out = np.empty(int(end[-1]) if len(m) else 0)
        # windows of at most _WINDOW draws bound the work arrays; a
        # stream cut by a window boundary goes on in the next window
        for lo in range(0, len(out), _WINDOW):
            hi = min(len(out), lo + _WINDOW)
            r0 = int(np.searchsorted(end, lo, side="right"))
            r1 = int(np.searchsorted(end, hi - 1, side="right")) + 1
            part = np.minimum(end[r0:r1], hi) - np.maximum(end[r0:r1] - m[r0:r1], lo)
            self._draw(slice(r0, r1), part, out[lo:hi])
        return out

    def _draw(self, streams: slice, m: np.ndarray, out: np.ndarray) -> None:
        """Write the next ``m[r]`` uniforms of each stream r of ``streams``
        to ``out``.

        k LCG steps take a state x to ``MULT^k x + C_k inc``, with
        ``C_k = sum_{i<k} MULT^i``.  As ``MULT^k = 4 D_k + 1`` and
        ``(MULT - 1) C_k = MULT^k - 1`` give ``Q C_k = D_k``, that state
        is ``x + D_k w`` with ``w = 4 x + inc / Q`` (Q is odd, so it has
        an inverse mod 2**128).  Draw k (from 1) of a stream is thus one
        product from its current state, and no draw waits for another;
        the stream then keeps the state of its last draw.
        """
        state = self._state[0][streams], self._state[1][streams]
        inc_q = self._inc_q[0][streams], self._inc_q[1][streams]
        w = _iadd((state[0] << 2 | state[1] >> 62, state[1] << 2), inc_q)
        owner = np.repeat(np.arange(len(m)), m)
        end = np.cumsum(m)
        k = np.arange(1, len(out) + 1) - np.repeat(end - m, m)
        d = _STEPS.upto(int(m.max()) + 1)
        hi, lo = _iadd(_mul((d[0].take(k), d[1].take(k)),
                            (w[0].take(owner), w[1].take(owner))),
                       (state[0].take(owner), state[1].take(owner)))
        busy = m > 0
        state[0][busy], state[1][busy] = hi[end[busy] - 1], lo[end[busy] - 1]
        # Generator.random: the XSL-RR output, shifted right by 11 and
        # scaled by 2**-53
        rot = hi >> 58
        lo ^= hi
        lo = (lo >> rot) | (lo << ((64 - rot) & 63))
        np.multiply(lo >> 11, 2.0 ** -53, out=out)
