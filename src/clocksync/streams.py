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
PCG64 constants shared by every stream.  A stream with more than
``_LONG`` draws in one call (at n=10 every arc draws hundreds per chunk
of ticks) costs less as a generator: one shared ``Generator`` is set to
its state, draws them, and hands its state back.  A stream is seeded
when it is first drawn from, so a call costs O(streams drawn from): in
a large network most arcs' senders never tick before the run ends.

A jitter stream likewise draws only a few delays per chunk of ticks, so
:class:`JitterStreams` draws them from the same array outputs: it
decodes each output as ``Generator.standard_normal``'s ziggurat fast
path, or as ``Generator.uniform``'s uniform, and leaves the rest (about
1.5% of normal draws) to a ``Generator`` set to the stream's state.
NumPy does not expose the ziggurat's weights ``wi`` nor its bounds
``ki``, so :func:`_ziggurat` reads them from the installed NumPy once
per process, on first use, by forcing chosen outputs.  Only the tick
and reading streams are still ``Generator`` objects.

NumPy keeps ``SeedSequence`` and ``PCG64`` output stable across
releases (NEP 19), but that policy covers only the bit generators, not
``Generator.normal``: what ties the decoder to the installed NumPy is
the probe, and ``tests/test_streams.py``, which compares every path
here with ``SeedSequence`` and ``Generator`` themselves.
"""

from __future__ import annotations

import functools
import math
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


def is_int(value) -> bool:
    """Whether ``value`` is an integer, Python's or NumPy's, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
_MASK128 = (1 << 128) - 1
_LOW32 = np.uint64(_MASK32)
#: most draws of one window of :meth:`UniformStreams.outputs`
_WINDOW = 1 << 13
#: the most draws of one stream in one call made as array arithmetic
_LONG = 64


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
    uint64 array words, seeded as ``PCG64`` seeds them.  A stream with
    more than ``_LONG`` draws in a call costs less as a ``Generator``:
    one shared ``Generator``, set to the stream's state, draws them, and
    its state goes back to the stream.

    A stream is seeded when it is first drawn from: its state depends
    only on its key, so the bits do not depend on when.  A call costs
    O(streams drawn from), whatever the number of streams; a run of a
    large network draws from the out-arcs of the senders that tick
    before its last update only.
    """

    def __init__(self, seed: int, name: str, ids) -> None:
        self._key = seed, name
        self._ids = np.asarray(ids, dtype=np.int64)
        # 1 + the place of row r's stream in the state arrays; 0 until seeded
        self._slot = np.zeros(len(self._ids), dtype=np.int32)
        self._state = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
        self._inc_q = self._state
        self._rng: np.random.Generator | None = None

    def _slots(self, rows: np.ndarray) -> np.ndarray:
        """The places of the streams of the distinct ``rows`` in the state
        arrays; a stream not seeded yet is seeded and appended."""
        new = rows[self._slot[rows] == 0]
        if len(new):
            self._slot[new] = len(self._state[0]) + 1 + np.arange(len(new))
            self._seed(new)
        return self._slot[rows] - 1

    def _seed(self, rows: np.ndarray) -> None:
        """Append the states of the streams of ``rows``."""
        s = _pcg64_seeds(_words(*self._key, self._ids[rows]))
        # PCG64 seeding: the seed words are initstate (s0 high, s1 low) and
        # initseq (s2, s3); inc = initseq << 1 | 1, then from state 0: one
        # step, += initstate, one step
        inc = (s[:, 2] << 1) | (s[:, 3] >> 63), (s[:, 3] << 1) | 1
        state = _iadd((s[:, 0].copy(), s[:, 1].copy()), inc)
        self._state = tuple(map(np.concatenate, zip(
            self._state, _iadd(_mul(_u128(_PCG_MULT), state), inc))))
        self._inc_q = tuple(map(np.concatenate, zip(
            self._inc_q, _mul(_u128(pow(_Q, -1, 1 << 128)), inc))))

    def random(self, counts) -> np.ndarray:
        """The next ``counts[r]`` uniforms of every stream r, stream after
        stream: what ``substreams(seed, name, ids)[r].random(counts[r])``
        returns, call after call."""
        counts = np.asarray(counts, dtype=np.intp)
        rows = np.flatnonzero(counts)
        counts, slots = counts[rows], self._slots(rows)
        drawn = np.where(counts > _LONG, 0, counts)
        # Generator.random: the output shifted right by 11, times 2**-53
        words = self._outputs(slots, drawn)
        words >>= 11
        out = np.empty(int(counts.sum()))
        out[np.repeat(drawn > 0, counts)] = words * 2.0 ** -53
        base = np.cumsum(counts) - counts
        for k in np.flatnonzero(counts > _LONG).tolist():
            out[base[k]:base[k] + counts[k]] = self._generator(slots[k]).random(counts[k])
            self._take_state(slots[k])
        return out

    def _generator(self, slot: int, state: int | None = None,
                   skip: int = 0) -> np.random.Generator:
        """The shared ``Generator``, set to the state of the stream in
        ``slot`` (or to the 128-bit LCG state ``state``), ``skip`` outputs
        on; :meth:`_take_state` hands its state back to the stream."""
        if self._rng is None:
            self._rng = np.random.Generator(np.random.PCG64(0))
        if state is None:
            state = int(self._state[0][slot]) << 64 | int(self._state[1][slot])
        inc = _Q * (int(self._inc_q[0][slot]) << 64 | int(self._inc_q[1][slot])) & _MASK128
        self._rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        self._rng.bit_generator.advance(skip)
        return self._rng

    def _take_state(self, slot: int) -> None:
        state = self._rng.bit_generator.state["state"]["state"]
        self._state[0][slot], self._state[1][slot] = state >> 64, state & _MASK64

    def outputs(self, counts) -> np.ndarray:
        """The next ``counts[r]`` 64-bit PCG64 outputs of every stream r,
        stream after stream."""
        counts = np.asarray(counts, dtype=np.intp)
        rows = np.flatnonzero(counts)
        return self._outputs(self._slots(rows), counts[rows])

    def _outputs(self, slots: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The next ``m[k]`` outputs of each stream in ``slots[k]``."""
        state = self._state[0][slots], self._state[1][slots]
        inc_q = self._inc_q[0][slots], self._inc_q[1][slots]
        end = np.cumsum(m)
        out = np.empty(int(end[-1]) if len(m) else 0, dtype=np.uint64)
        # windows of at most _WINDOW draws bound the work arrays; a
        # stream cut by a window boundary goes on in the next window
        for lo in range(0, len(out), _WINDOW):
            hi = min(len(out), lo + _WINDOW)
            k0 = int(np.searchsorted(end, lo, side="right"))
            k1 = int(np.searchsorted(end, hi - 1, side="right")) + 1
            part = np.minimum(end[k0:k1], hi) - np.maximum(end[k0:k1] - m[k0:k1], lo)
            self._draw((state[0][k0:k1], state[1][k0:k1]),
                       (inc_q[0][k0:k1], inc_q[1][k0:k1]), part, out[lo:hi])
        self._state[0][slots], self._state[1][slots] = state
        return out

    @staticmethod
    def _draw(state, inc_q, m: np.ndarray, out: np.ndarray) -> None:
        """Write the next ``m[k]`` outputs of each stream k, with the
        (high, low) words ``state`` and ``inc_q``, to ``out``, and leave
        ``state`` at each stream's last draw.

        k LCG steps take a state x to ``MULT^k x + C_k inc``, with
        ``C_k = sum_{i<k} MULT^i``.  As ``MULT^k = 4 D_k + 1`` and
        ``(MULT - 1) C_k = MULT^k - 1`` give ``Q C_k = D_k``, that state
        is ``x + D_k w`` with ``w = 4 x + inc / Q`` (Q is odd, so it has
        an inverse mod 2**128).  Draw k (from 1) of a stream is thus one
        product from its current state, and no draw waits for another.
        """
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
        # the XSL-RR output: the words' xor, rotated right by the top 6 bits
        rot = hi >> 58
        lo ^= hi
        np.bitwise_or(lo >> rot, lo << ((64 - rot) & 63), out=out)


# -- Generator.normal as array arithmetic ----------------------------------

#: how far below NumPy's fast-path bound ``ki`` the decoder's bound lies:
#: ``floor(2**52 wi[i-1] / wi[i])`` is within 1 of ``ki[i]`` for i >= 3
_MARGIN = 1 << 10
_MASK52 = (1 << 52) - 1


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """``standard_normal``'s weights ``wi`` and the decoder's bound on
    ``rabs`` per index, read from the installed NumPy once.

    A state is set whose next output is a chosen word: the XSL-RR output
    of a state whose high word is 0 is its low word, so that state is one
    LCG step back from the word.  The word ``(2 << 8) | idx`` (``rabs`` 1,
    sign +) returns ``wi[idx]``.  A word takes the fast path, and reads no
    output after it, exactly when its ``rabs`` is below ``ki[idx]``: so
    ``ki[0]`` (the tail) and ``ki[2]`` (whose ratio bound would need
    ``wi[1]``) are read by bisection over ``rabs``, and the bound of each
    index from 3 on lies ``_MARGIN`` below its ratio.  Index 1 always
    takes a slow path; its bound is 0.
    """
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    inc = bits.state["state"]["inc"]
    back = pow(_PCG_MULT, -1, 1 << 128)

    def draw(word: int) -> tuple[float, bool]:
        """The draw from the word, and whether it read that word only."""
        prev = (word - inc) * back % (1 << 128)
        bits.state = {"bit_generator": "PCG64", "state": {"state": prev, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        z = rng.standard_normal()
        return z, bits.state["state"]["state"] == (_PCG_MULT * prev + inc) % (1 << 128)

    wi = np.zeros(256)
    for idx in (0, *range(2, 256)):
        wi[idx] = draw(2 << 8 | idx)[0]
    bound = np.zeros(256, dtype=np.uint64)
    bound[3:] = np.floor(2.0 ** 52 * wi[2:-1] / wi[3:]) - _MARGIN
    for idx in (0, 2):
        fast, slow = 0, 1 << 52  # rabs 0 takes the fast path; 2**52 is past the last
        while slow - fast > 1:
            mid = (fast + slow) // 2
            fast, slow = (mid, slow) if draw(mid << 9 | idx)[1] else (fast, mid)
        bound[idx] = slow
    return wi, bound


def _standard_normal(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.standard_normal``'s ziggurat fast path on each word:
    ``(z, slow)``, where ``slow`` marks the words whose draw is not
    ``z`` alone (a slow path, or within the margin of the bound)."""
    wi, bound = _ziggurat()
    idx = words & 0xFF
    rabs = words >> 9 & _MASK52
    z = rabs * wi.take(idx)
    np.negative(z, out=z, where=(words & 0x100).astype(bool))
    return z, rabs >= bound.take(idx)


class JitterStreams(UniformStreams):
    """The streams ``substreams(seed, "jitter", ids)``, drawing delays from
    the delay models ``model(r)`` (a ``clock.DelayModel`` per row r) as
    array arithmetic.

    Normal jitter decodes ``standard_normal``'s fast path from each
    output (:func:`_standard_normal`), and uniform jitter is
    ``Generator.uniform``'s ``low + (high - low) u``, with u as
    :meth:`UniformStreams.random` draws it.  From a stream's first draw
    that the decoder cannot make, the rest of its draws in the call are
    made by ``sample`` (``clock.sample_delay``) with one shared
    ``Generator`` set to the stream's state, which then goes back to the
    stream; about 1.5% of normal draws need it.  As in
    :class:`UniformStreams`, ``sample`` makes all the draws of a stream
    with more than ``_LONG`` of them in a call.

    Like its stream, a row's model is read when the row is first drawn
    from: ``model`` is called on no other row.
    """

    def __init__(self, seed: int, ids, model, sample) -> None:
        super().__init__(seed, "jitter", ids)
        self._model_of = model
        # per place in the state arrays: mean, sigma, floor, and 1.0 for
        # uniform jitter
        self._model = np.empty((0, 4))
        self._sample = sample

    def _seed(self, rows: np.ndarray) -> None:
        super()._seed(rows)
        models = list(map(self._model_of, rows.tolist()))
        # rows mostly share one model object: each distinct one is read once
        _, first, kind = np.unique(
            np.fromiter(map(id, models), dtype=np.uintp, count=len(models)),
            return_index=True, return_inverse=True)
        values = np.array([(d.delta_bar, d.eta_sigma, d.delta_min, d.dist == "uniform")
                           for d in map(models.__getitem__, first.tolist())]).reshape(-1, 4)
        self._model = np.concatenate((self._model, values[kind]))

    def delays(self, counts) -> np.ndarray:
        """The next ``counts[r]`` delays of every stream r, stream after
        stream: what ``sample(model(r), substreams(seed, "jitter",
        ids)[r], counts[r])`` returns, call after call.  Rows whose
        jitter has sigma 0 draw nothing."""
        counts = np.asarray(counts, dtype=np.intp)
        rows = np.flatnonzero(counts)
        counts, slots = counts[rows], self._slots(rows)
        mean, sigma, floor, uniform = self._model[slots].T
        uniform = uniform == 1.0
        long = (sigma > 0.0) & (counts > _LONG)
        drawn = np.where((sigma > 0.0) & ~long, counts, 0)
        start = self._state[0][slots], self._state[1][slots]
        words = self._outputs(slots, drawn)
        # Generator.normal(0, sigma) is 0.0 + sigma z, and
        # Generator.uniform(-h, h) is -h + (h - -h) u
        z, slow = _standard_normal(words)
        noise = 0.0 + np.repeat(sigma, drawn) * z
        flat = np.repeat(uniform, drawn)
        if flat.any():
            h = np.repeat(sigma * math.sqrt(3.0), drawn)[flat]
            noise[flat] = -h + (h - -h) * ((words[flat] >> 11) * 2.0 ** -53)
            slow &= ~flat
        eta = np.zeros(int(counts.sum()))
        eta[np.repeat(drawn > 0, counts)] = noise
        out = np.maximum(np.repeat(floor, counts), np.repeat(mean, counts) + eta)
        # each stream's first slow draw, and the first draw of a long one
        at = np.flatnonzero(slow)
        ks, first = np.unique(np.repeat(np.arange(len(counts)), drawn)[at],
                              return_index=True)
        skip = at[first] - (np.cumsum(drawn) - drawn)[ks]
        ks = np.concatenate((ks, np.flatnonzero(long)))
        skip = np.concatenate((skip, np.zeros(len(ks) - len(skip), dtype=np.intp)))
        base = np.cumsum(counts) - counts
        for k, p in zip(ks.tolist(), skip.tolist()):
            lo, hi = base[k] + p, base[k] + counts[k]
            rng = self._generator(slots[k], int(start[0][k]) << 64 | int(start[1][k]), p)
            out[lo:hi] = self._sample(self._model_of(int(rows[k])), rng, hi - lo)
            self._take_state(slots[k])
        return out
