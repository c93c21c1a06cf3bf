"""Tests for packed-bitset kernels (BFS Sharing substrate)."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.suite import load_dataset
from repro.engine.batch import BatchEngine
from repro.util import bitset


class TestPackedWords:
    @pytest.mark.parametrize(
        "bits,words", [(0, 0), (1, 1), (63, 1), (64, 1), (65, 2), (1500, 24)]
    )
    def test_values(self, bits, words):
        assert bitset.packed_words(bits) == words

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitset.packed_words(-1)


class TestFullRow:
    @pytest.mark.parametrize("bits", [1, 7, 64, 65, 100, 128, 250])
    def test_popcount_equals_bits(self, bits):
        assert bitset.popcount(bitset.full_row(bits)) == bits

    def test_trailing_bits_are_zero(self):
        row = bitset.full_row(70)
        assert not bitset.get_bit(row, 70 % 64 + 64)


class TestGetSetBit:
    def test_roundtrip(self):
        row = np.zeros(2, dtype=np.uint64)
        for index in (0, 1, 63, 64, 127):
            assert not bitset.get_bit(row, index)
            bitset.set_bit(row, index)
            assert bitset.get_bit(row, index)
        assert bitset.popcount(row) == 5


class TestSampleBitMatrix:
    def test_shape(self):
        probs = np.full(10, 0.5)
        matrix = bitset.sample_bit_matrix(probs, 130, np.random.default_rng(0))
        assert matrix.shape == (10, 3)

    def test_probability_zero_and_one_edges(self):
        probs = np.array([1.0, 1e-9])
        matrix = bitset.sample_bit_matrix(probs, 256, np.random.default_rng(0))
        counts = bitset.popcount_rows(matrix)
        assert counts[0] == 256  # always-present edge
        assert counts[1] == 0  # essentially never present

    def test_bit_frequencies_match_probabilities(self):
        probs = np.array([0.1, 0.5, 0.9])
        bits = 20_000
        matrix = bitset.sample_bit_matrix(probs, bits, np.random.default_rng(7))
        frequencies = bitset.popcount_rows(matrix) / bits
        np.testing.assert_allclose(frequencies, probs, atol=0.02)

    def test_trailing_bits_unset(self):
        probs = np.full(4, 1.0)
        bits = 70
        matrix = bitset.sample_bit_matrix(probs, bits, np.random.default_rng(0))
        assert (bitset.popcount_rows(matrix) == bits).all()


class TestPopcountRows:
    def test_matches_python_bit_count(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 2**63, size=(5, 4), dtype=np.uint64)
        expected = [
            sum(int(word).bit_count() for word in row) for row in matrix
        ]
        np.testing.assert_array_equal(bitset.popcount_rows(matrix), expected)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            bitset.popcount_rows(np.zeros(3, dtype=np.uint64))


class TestConcatenateRanges:
    def test_basic(self):
        starts = np.array([0, 5, 9])
        ends = np.array([3, 5, 12])
        np.testing.assert_array_equal(
            bitset.concatenate_ranges(starts, ends), [0, 1, 2, 9, 10, 11]
        )

    def test_all_empty(self):
        starts = np.array([4, 7])
        ends = np.array([4, 7])
        assert bitset.concatenate_ranges(starts, ends).size == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_concatenation(self, segments):
        starts = np.array([s for s, _ in segments], dtype=np.int64)
        ends = starts + np.array([l for _, l in segments], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, ends)]
        ) if (ends > starts).any() else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(
            bitset.concatenate_ranges(starts, ends), expected
        )


class TestPackBoolMatrix:
    def test_roundtrip_via_get_bit(self):
        rng = np.random.default_rng(0)
        masks = rng.random((70, 5)) < 0.4  # spans a word boundary
        packed = bitset.pack_bool_matrix(masks)
        assert packed.shape == (5, bitset.packed_words(70))
        for bit in range(70):
            for row in range(5):
                assert bitset.get_bit(packed[row], bit) == masks[bit, row]

    def test_matches_sample_bit_matrix_layout(self):
        # Packing externally-drawn booleans must land in the same layout
        # sample_bit_matrix produces, so the fixpoint kernel can consume it.
        rng = np.random.default_rng(1)
        probs = np.array([0.3, 0.8])
        sampled = bitset.sample_bit_matrix(probs, 64, np.random.default_rng(2))
        draws = np.empty((64, 2), dtype=bool)
        replay = np.random.default_rng(2)
        for word_bits in [replay.random((2, 64)) < probs[:, None]]:
            draws[:] = word_bits.T
        packed = bitset.pack_bool_matrix(draws)
        assert np.array_equal(packed, sampled)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            bitset.pack_bool_matrix(np.zeros(4, dtype=bool))


#: Shapes the packers must get right: no rows, bit counts off the byte
#: and word grid, and (step > 1) non-contiguous sliced inputs.
PACKER_CASES = dict(
    rows=st.integers(0, 9),
    bit_count=st.integers(0, 200),
    step=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)


def assert_bits(packed, rows, bit_count, expected):
    """Every bit of ``packed`` — tail padding included — vs ``expected``."""
    assert packed.dtype == np.uint64
    assert packed.shape == (rows, bitset.packed_words(bit_count))
    for row in range(rows):
        for bit in range(packed.shape[1] * bitset.WORD_BITS):
            want = bit < bit_count and bool(expected(row, bit))
            assert bitset.get_bit(packed[row], bit) == want, (row, bit)


class TestPackersAgainstGetBit:
    @given(**PACKER_CASES)
    @example(rows=0, bit_count=70, step=1, seed=0)
    @example(rows=3, bit_count=13, step=2, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_pack_bool_matrix(self, rows, bit_count, step, seed):
        base = np.random.default_rng(seed).random(
            (bit_count * step, rows * step)
        ) < 0.5
        masks = base[::step, ::step]
        packed = bitset.pack_bool_matrix(masks)
        assert_bits(packed, rows, bit_count, lambda row, bit: masks[bit, row])

    @given(**PACKER_CASES)
    @example(rows=0, bit_count=70, step=1, seed=0)
    @example(rows=3, bit_count=13, step=2, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_sample_bit_matrix(self, rows, bit_count, step, seed):
        probs = np.random.default_rng(seed).random(rows * step)[::step]
        packed = bitset.sample_bit_matrix(
            probs, bit_count, np.random.default_rng(seed)
        )
        # Replay the documented stream: one (rows, bits) draw per word.
        replay = np.random.default_rng(seed)
        draws = np.zeros((rows, packed.shape[1] * bitset.WORD_BITS), bool)
        for word in range(packed.shape[1]):
            start = word * bitset.WORD_BITS
            width = min(bitset.WORD_BITS, bit_count - start)
            draws[:, start : start + width] = (
                replay.random((rows, width)) < probs[:, None]
            )
        assert_bits(packed, rows, bit_count, lambda row, bit: draws[row, bit])


def sha256_words(matrix):
    return hashlib.sha256(
        np.ascontiguousarray(matrix, dtype="<u8").tobytes()
    ).hexdigest()


class TestDigestPins:
    """Packed bits of lastfm/small, pinned as recorded before the
    ``np.packbits`` packer: any change to either packer, the index draw
    order or the engine's world stream flips at least one bit."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("lastfm", "small", 0).graph

    def test_sample_bit_matrix(self, graph):
        matrix = bitset.sample_bit_matrix(
            graph.probs, 1000, np.random.default_rng(42)
        )
        assert matrix.shape == (4794, 16)
        assert sha256_words(matrix) == (
            "7a5147a01105a02c15644ff30d59c6ab0447b36523be9e130eabca7e0c4d662c"
        )

    def test_pack_bool_matrix_of_engine_worlds(self, graph):
        masks = BatchEngine(graph, seed=7).world_masks(0, 256)
        matrix = bitset.pack_bool_matrix(masks)
        assert matrix.shape == (4794, 4)
        assert sha256_words(matrix) == (
            "fe3b5015c0e351ae479b581d1cdfd54c51ddcdf1b9485a9d4a31ee313ef5e53b"
        )


class TestPrefixMask:
    def test_counts_only_prefix_bits(self):
        mask = bitset.prefix_mask(70, 2)
        assert bitset.popcount(mask) == 70

    def test_zero_bits(self):
        assert bitset.popcount(bitset.prefix_mask(0, 3)) == 0

    def test_saturates_at_word_width(self):
        mask = bitset.prefix_mask(500, 2)
        assert bitset.popcount(mask) == 128

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitset.prefix_mask(-1, 2)
