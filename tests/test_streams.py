"""The batched stream seeding against NumPy's own SeedSequence, and the
array PCG64 kernels against NumPy's own Generator.

The oracle builds each stream the way the package always defined it:
``np.random.default_rng(np.random.SeedSequence(words))`` with the seed
and every integer key part masked to 32 bits and every string key part
reduced with CRC32.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocksync import streams
from clocksync.clock import DelayModel, sample_delay
from clocksync.streams import JitterStreams, UniformStreams, substream, substreams

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**64 + 3, -1, -(2**40)]),
    st.integers(min_value=-(2**70), max_value=2**70))
IDS = st.integers(min_value=0, max_value=2**62)
NAMES = st.sampled_from(["read", "hear", "jitter", "ticks", "netgen", "", "é"])


def oracle(seed, *key) -> np.random.Generator:
    words = [seed & 0xFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")))
        else:
            words.append(part & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(words))


def first_draws(rng: np.random.Generator) -> list:
    return [rng.random(3), rng.normal(0.0, 2.0, 3), rng.exponential(1.5, 3),
            rng.uniform(-1.0, 1.0, 3), rng.integers(0, 2**40, 3)]


def assert_same_stream(rng, ref) -> None:
    for got, want in zip(first_draws(rng), first_draws(ref)):
        np.testing.assert_array_equal(got, want)


class TestSubstream:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS,
           key=st.lists(st.one_of(NAMES, IDS), min_size=0, max_size=3))
    def test_matches_seed_sequence(self, seed, key):
        assert_same_stream(substream(seed, *key), oracle(seed, *key))

    def test_engine_keys(self):
        for key in [("ticks",), ("netgen",), ("read", 0), ("read", 199),
                    ("hear", 3, 5), ("jitter", 5, 3)]:
            assert_same_stream(substream(7, *key), oracle(7, *key))

    def test_streams_differ_by_key(self):
        draws = {substream(0, "hear", j, i).random()
                 for j in range(4) for i in range(4)}
        assert len(draws) == 16

    @pytest.mark.parametrize("key", [("a", 1, 2, 3), ("a", 1, 2, 3, 4)])
    def test_more_than_four_words_raise(self, key):
        with pytest.raises(ValueError, match="at most 4 words"):
            substream(0, *key)

    def test_seed_state_is_the_only_request(self):
        seed_seq = substream(0, "ticks").bit_generator.seed_seq
        assert seed_seq.generate_state(4, np.uint64).dtype == np.uint64
        with pytest.raises(ValueError):
            seed_seq.generate_state(8, np.uint32)


class TestSubstreams:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, name=NAMES,
           ids=st.lists(IDS, min_size=1, max_size=12))
    def test_one_word_ids(self, seed, name, ids):
        for rng, i in zip(substreams(seed, name, ids), ids, strict=True):
            assert_same_stream(rng, oracle(seed, name, i))

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, name=NAMES,
           ids=st.lists(st.tuples(IDS, IDS), min_size=1, max_size=12))
    def test_two_word_ids(self, seed, name, ids):
        for rng, key in zip(substreams(seed, name, ids), ids, strict=True):
            assert_same_stream(rng, oracle(seed, name, *key))

    def test_equals_substream_per_row(self):
        arcs = [(j, i) for j in range(6) for i in range(6) if i != j]
        for rng, (j, i) in zip(substreams(11, "hear", arcs), arcs, strict=True):
            assert_same_stream(rng, substream(11, "hear", j, i))
        nodes = range(5)
        for rng, i in zip(substreams(11, "read", nodes), nodes, strict=True):
            assert_same_stream(rng, substream(11, "read", i))

    def test_ids_masked_to_32_bits(self):
        a, b = substreams(3, "read", [5, 5 + 2**32])
        assert_same_stream(a, b)

    def test_empty_batch(self):
        assert substreams(0, "hear", []) == []

    def test_three_word_ids_raise(self):
        with pytest.raises(ValueError, match="at most 4 words"):
            substreams(0, "hear", [(1, 2, 3)])


class TestUniformStreams:
    """The array PCG64 kernel against ``Generator.random`` on the same
    streams, bit for bit, over successive draw calls."""

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, name=NAMES,
           ids=st.lists(st.tuples(IDS, IDS), min_size=1, max_size=8),
           data=st.data())
    def test_matches_generator_random(self, seed, name, ids, data):
        streams._STEPS = streams._Steps()  # every example grows the step table
        kernel = UniformStreams(seed, name, ids)
        ref = substreams(seed, name, ids)
        # zeros, and counts past several doublings of the step table
        counts = st.one_of(st.integers(0, 3), st.integers(0, 70),
                           st.integers(0, 3000))
        for _ in range(data.draw(st.integers(1, 4))):
            m = data.draw(st.lists(counts, min_size=len(ids), max_size=len(ids)))
            got = kernel.random(m)
            want = np.concatenate([rng.random(k) for rng, k in zip(ref, m)])
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_long_stream_across_windows(self, monkeypatch):
        # no stream left to the Generator: array arithmetic cut by
        # window boundaries
        monkeypatch.setattr(streams, "_WINDOW", 1000)
        monkeypatch.setattr(streams, "_LONG", 10**6)
        ids = [(0, 1), (1, 0), (2, 1)]
        kernel, ref = UniformStreams(5, "hear", ids), substreams(5, "hear", ids)
        for m in ([2500, 0, 3], [1, 4000, 999], [0, 0, 0], [1000, 1, 1]):
            want = np.concatenate([rng.random(k) for rng, k in zip(ref, m)])
            np.testing.assert_array_equal(kernel.random(m).view(np.uint64),
                                          want.view(np.uint64))

    def test_long_streams_from_the_generator(self):
        # either side of the most draws made as array arithmetic, and a
        # stream going from one side to the other between calls
        long = streams._LONG
        ids = [(0, 1), (1, 0), (2, 1), (1, 2)]
        kernel, ref = UniformStreams(6, "hear", ids), substreams(6, "hear", ids)
        for m in ([long, long + 1, long - 1, 3000], [long + 1, long, 0, 1],
                  [1, 2, 3, 4]):
            want = np.concatenate([rng.random(k) for rng, k in zip(ref, m)])
            np.testing.assert_array_equal(kernel.random(m).view(np.uint64),
                                          want.view(np.uint64))

    def test_step_table(self):
        # entry k is D_k = (MULT^k - 1) / 4: 4 D_k + 1 is MULT^k and
        # D_k is Q times the geometric sum, mod 2**128, across doublings
        mult, mod = 0x2360ED051FC65DA44385DF649FCCF645, 2**128
        table = streams._Steps()
        for count in (1, 2, 3, 100, 4097):
            hi, lo = table.upto(count)
            assert count <= len(lo) < 2 * count
            geometric = 0
            for k in range(len(lo)):
                d = int(hi[k]) << 64 | int(lo[k])
                assert (4 * d + 1) % mod == pow(mult, k, mod)
                assert d == (mult >> 2) * geometric % mod
                geometric += pow(mult, k, mod)

    def test_no_streams(self):
        assert UniformStreams(0, "hear", []).random([]).shape == (0,)

    def test_streams_seeded_when_first_drawn(self):
        # rows first drawn in a later call, rows never drawn, and a row
        # first drawn past the most draws made as array arithmetic
        ids = [(j, i) for j in range(5) for i in range(5) if i != j]
        kernel, ref = UniformStreams(13, "hear", ids), substreams(13, "hear", ids)
        calls = [[0] * 20, [2] + [0] * 19, [1, 0, 3] + [0] * 17,
                 [0] * 5 + [streams._LONG + 5] + [0] * 14, [1] * 10 + [0] * 10]
        for m in calls:
            want = np.concatenate([rng.random(k) for rng, k in zip(ref, m)])
            np.testing.assert_array_equal(kernel.random(m).view(np.uint64),
                                          want.view(np.uint64))
        drawn = np.flatnonzero(np.any(calls, axis=0))
        assert np.flatnonzero(kernel._slot).tolist() == drawn.tolist()
        assert len(kernel._state[0]) == len(drawn)


# -- the jitter kernel ------------------------------------------------------

MULT = 0x2360ED051FC65DA44385DF649FCCF645
MOD = 1 << 128
NORMAL = DelayModel(0.3, 0.1)
MODELS = st.sampled_from([
    NORMAL, DelayModel(0.2, 0.05, dist="uniform"), DelayModel(0.25, 0.0),
    DelayModel(0.1, 0.2, 0.05), DelayModel(0.1, 0.2, 0.05, dist="uniform"),
    DelayModel(0.5, 0.0, dist="uniform")])


def state_before(word: int, inc: int) -> int:
    """A PCG64 state whose next output is ``word``: one LCG step back from
    the state with high word 0 and low word ``word``, whose XSL-RR output
    is ``word``."""
    return (word - inc) * pow(MULT, -1, MOD) % MOD


def set_state(bits, state: int, inc: int) -> None:
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}


def force(kernel: JitterStreams, ref: np.random.Generator, r: int, word: int) -> None:
    """Make ``word`` the next output of stream r of ``kernel`` and of its
    reference generator ``ref``; the kernel seeds the stream first, as it
    would on the stream's first draw."""
    slot = kernel._slots(np.array([r]))[0]
    inc = ref.bit_generator.state["state"]["inc"]
    state = state_before(word, inc)
    set_state(ref.bit_generator, state, inc)
    inc_q = inc * pow(MULT >> 2, -1, MOD) % MOD
    for words, value in ((kernel._state, state), (kernel._inc_q, inc_q)):
        words[0][slot], words[1][slot] = value >> 64, value % (1 << 64)


def normal_word(idx: int, rabs: int, negative: bool = False) -> int:
    """The output that standard_normal reads as index ``idx``, magnitude
    ``rabs`` and the given sign."""
    return (rabs << 9) | (int(negative) << 8) | idx


def assert_same_delays(kernel, ref, models, counts) -> None:
    got = kernel.delays(counts)
    want = np.concatenate([sample_delay(d, rng, k)
                           for d, rng, k in zip(models, ref, counts)])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestJitterStreams:
    """The jitter kernel against ``substreams(seed, "jitter", ids)`` and
    ``sample_delay``, bit for bit, over successive calls."""

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, ids=st.lists(st.tuples(IDS, IDS), min_size=1, max_size=8),
           data=st.data())
    def test_matches_sample_delay(self, seed, ids, data):
        models = data.draw(st.lists(MODELS, min_size=len(ids), max_size=len(ids)))
        kernel = JitterStreams(seed, ids, models.__getitem__, sample_delay)
        ref = substreams(seed, "jitter", ids)
        # short streams, and streams past the most decoded draws
        counts = st.one_of(st.integers(0, 3), st.integers(0, 70),
                           st.integers(0, 400))
        for _ in range(data.draw(st.integers(1, 4))):
            m = data.draw(st.lists(counts, min_size=len(ids), max_size=len(ids)))
            assert_same_delays(kernel, ref, models, m)

    def test_long_streams_across_windows(self, monkeypatch):
        monkeypatch.setattr(streams, "_WINDOW", 100)
        ids = [(0, 1), (1, 0), (2, 1), (1, 2)]
        models = [NORMAL, NORMAL, DelayModel(0.2, 0.05, dist="uniform"), NORMAL]
        kernel = JitterStreams(4, ids, models.__getitem__, sample_delay)
        ref = substreams(4, "jitter", ids)
        for m in ([60, 0, 300, 64], [1, 65, 250, 64], [0, 0, 0, 0], [64, 64, 64, 64]):
            assert_same_delays(kernel, ref, models, m)

    @pytest.mark.parametrize("idx", [0, 1, 2])
    @pytest.mark.parametrize("rabs", [0, 1, 2**51, 2**52 - 1])
    def test_first_indices_fall_back(self, idx, rabs):
        # index 1 always falls back; the tail (0) and index 2 from their
        # bounds ki on, which lie between 2**51 and 2**52 - 1
        word = normal_word(idx, rabs)
        slow = streams._standard_normal(np.array([word], dtype=np.uint64))[1][0]
        assert slow == (idx == 1 or rabs == 2**52 - 1)
        kernel = JitterStreams(1, [(0, 1)], [NORMAL].__getitem__, sample_delay)
        ref = substreams(1, "jitter", [(0, 1)])
        force(kernel, ref[0], 0, word)
        assert_same_delays(kernel, ref, [NORMAL], [3])
        assert_same_delays(kernel, ref, [NORMAL], [2])

    def test_every_bound(self):
        """The largest rabs the decoder accepts at each index: NumPy reads
        one word and returns the same bits.  One above it falls back; for
        indices 0 and 2, whose bounds are read by bisection, NumPy itself
        reads a second output there."""
        wi, bound = streams._ziggurat()
        rng = np.random.Generator(np.random.PCG64(9))
        inc = rng.bit_generator.state["state"]["inc"]
        for idx in (0, *range(2, 256)):
            rabs = int(bound[idx]) - 1
            for negative in (False, True):
                word = normal_word(idx, rabs, negative)
                z, slow = streams._standard_normal(np.array([word], dtype=np.uint64))
                assert not slow[0]
                state = state_before(word, inc)
                set_state(rng.bit_generator, state, inc)
                assert rng.standard_normal() == z[0]
                assert np.signbit(z[0]) == negative
                # exactly one step from the state before the word
                assert rng.bit_generator.state["state"]["state"] == (MULT * state + inc) % MOD
            above = normal_word(idx, rabs + 1)
            assert streams._standard_normal(np.array([above], dtype=np.uint64))[1][0]
            if idx in (0, 2):
                state = state_before(above, inc)
                set_state(rng.bit_generator, state, inc)
                rng.standard_normal()
                assert rng.bit_generator.state["state"]["state"] != (MULT * state + inc) % MOD
            kernel = JitterStreams(2, [(3, 4)], [NORMAL].__getitem__, sample_delay)
            ref = substreams(2, "jitter", [(3, 4)])
            force(kernel, ref[0], 0, above)
            assert_same_delays(kernel, ref, [NORMAL], [2])

    def test_table_against_fresh_probes(self):
        # another increment and a power-of-two rabs: the draw is exactly
        # rabs * wi[idx] on the fast path
        wi, bound = streams._ziggurat()
        rng = np.random.Generator(np.random.PCG64(12345))
        inc = rng.bit_generator.state["state"]["inc"]
        for idx in (0, *range(2, 256)):
            set_state(rng.bit_generator, state_before(normal_word(idx, 1 << 20), inc), inc)
            assert rng.standard_normal() == (1 << 20) * wi[idx]
        assert bound[1] == 0
        # NumPy's ki_double[0] and ki_double[2]
        assert (int(bound[0]), int(bound[2])) == (0x000EF33D8025EF6A, 0x000C08BE98FBC6A8)
        ratio = 2.0 ** 52 * wi[2:-1] / wi[3:]
        assert np.all(bound[3:] < ratio) and np.all(bound[3:] > ratio - 2 * streams._MARGIN)

    def test_fall_back_then_go_on(self):
        # stream 1 falls back in the first call, and is decoded again in
        # the next from the state the generator left
        ids = [(0, 1), (1, 0), (2, 0)]
        models = [NORMAL, NORMAL, DelayModel(0.2, 0.05, dist="uniform")]
        kernel = JitterStreams(8, ids, models.__getitem__, sample_delay)
        ref = substreams(8, "jitter", ids)
        assert_same_delays(kernel, ref, models, [2, 0, 1])
        force(kernel, ref[1], 1, normal_word(0, 5))
        assert_same_delays(kernel, ref, models, [3, 4, 2])
        decoded = kernel.outputs([0, 8, 0])
        np.testing.assert_array_equal(decoded, ref[1].bit_generator.random_raw(8))
        assert_same_delays(kernel, ref, models, [1, 3, 1])

    def test_no_streams(self):
        kernel = JitterStreams(0, [], [].__getitem__, sample_delay)
        assert kernel.delays([]).shape == (0,)

    def test_streams_and_models_read_when_first_drawn(self):
        # a model is read only for a row drawn from: the others raise
        ids = [(j, i) for j in range(4) for i in range(4) if i != j]
        models = [NORMAL, DelayModel(0.2, 0.05, dist="uniform"), DelayModel(0.25, 0.0)] * 4

        def model(r):
            assert r not in (3, 7, 11), "a row never drawn from was read"
            return models[r]

        kernel = JitterStreams(21, ids, model, sample_delay)
        ref = substreams(21, "jitter", ids)
        calls = [[1] + [0] * 11, [0, 2, 1] + [0] * 9,
                 [0] * 4 + [streams._LONG + 3, 0, 0, 0, 2] + [0] * 3, [1] * 3 + [0] * 9]
        for m in calls:
            assert_same_delays(kernel, ref, models, m)
        assert np.flatnonzero(kernel._slot).tolist() == [0, 1, 2, 4, 8]
