"""The batched stream seeding against NumPy's own SeedSequence.

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

from clocksync.streams import substream, substreams

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
