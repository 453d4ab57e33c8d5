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
batch at once.  NumPy keeps ``SeedSequence`` and ``PCG64``
output stable across releases (NEP 19), and ``tests/test_streams.py``
compares every path here with ``SeedSequence`` itself.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
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
    ids = np.asarray(ids, dtype=np.int64).reshape(len(ids), -1)
    words = np.empty((ids.shape[0], 2 + ids.shape[1]), dtype=np.uint32)
    words[:, 0] = int(seed) & _MASK32
    words[:, 1] = _word(name)
    words[:, 2:] = ids & _MASK32
    return _generators(words)
