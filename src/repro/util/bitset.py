"""Packed uint64 bitset kernels used by the BFS Sharing index.

A *bit matrix* of shape ``(rows, words)`` stores one K-bit vector per row,
where ``words = ceil(K / 64)``.  Row ``i``'s bit ``k`` says "edge/node ``i``
is present/reachable in sampled world ``k``".  All kernels are NumPy
vectorised so a single OR/AND touches K worlds at once — this is exactly the
"shared BFS across possible worlds" trick of Zhu et al. (ICDM'15).
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
_WORD_DTYPE = np.uint64

# Byte-level popcount table; uint64 rows are viewed as uint8 for counting.
_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def concatenate_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Flatten ``[starts[i], ends[i])`` integer ranges into one index array.

    Vectorised equivalent of ``np.concatenate([np.arange(s, e) ...])`` —
    the gather step that lets BFS kernels touch a whole frontier's CSR
    edge blocks in O(1) NumPy calls.
    """
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    segment = np.repeat(np.arange(len(starts)), counts)
    cumulative = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total) - cumulative
    return starts[segment] + within


def packed_words(bit_count: int) -> int:
    """Number of uint64 words needed to hold ``bit_count`` bits."""
    if bit_count < 0:
        raise ValueError(f"bit_count must be non-negative, got {bit_count}")
    return (bit_count + WORD_BITS - 1) // WORD_BITS


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, bit_count)`` boolean block into ``(rows, words)``.

    Bit ``k`` of packed row ``i`` is ``bits[i, k]`` — the one packing
    step behind :func:`sample_bit_matrix` and :func:`pack_bool_matrix`.
    The block is zero-padded to whole words, ``np.packbits`` lays bit
    ``k`` at byte ``k // 8``, bit ``k % 8`` (little bit order), and each
    run of 8 bytes read as a little-endian uint64 is one word.  A
    non-C-contiguous block (a transposed view) is copied as well:
    ``np.packbits`` keeps its input's memory order, and the word view
    needs contiguous rows.
    """
    rows, bit_count = bits.shape
    width = packed_words(bit_count) * WORD_BITS
    if bit_count != width or not bits.flags.c_contiguous:
        padded = np.zeros((rows, width), dtype=bool)
        padded[:, :bit_count] = bits
        bits = padded
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(_WORD_DTYPE, copy=False)


def sample_bit_matrix(
    probabilities: np.ndarray, bit_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample a ``(len(probabilities), words)`` bit matrix.

    Bit ``k`` of row ``i`` is set with ``probabilities[i]``, independently —
    one Bernoulli possible-world draw per (edge, world) cell, packed.
    Sampling proceeds word-by-word to bound peak memory at
    ``64 * len(probabilities)`` booleans.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    rows = probabilities.shape[0]
    words = packed_words(bit_count)
    matrix = np.zeros((rows, words), dtype=_WORD_DTYPE)
    for word_index in range(words):
        bits_here = min(WORD_BITS, bit_count - word_index * WORD_BITS)
        draws = rng.random((rows, bits_here)) < probabilities[:, None]
        matrix[:, word_index] = _pack_rows(draws)[:, 0]
    return matrix


def pack_bool_matrix(masks: np.ndarray) -> np.ndarray:
    """Pack a ``(bit_count, rows)`` boolean matrix into ``(rows, words)``.

    Bit ``k`` of packed row ``i`` is ``masks[k, i]`` — the layout of
    :func:`sample_bit_matrix`, but for *externally supplied* draws.  The
    batch engine (:mod:`repro.engine.batch`) uses this to pack a chunk of
    individually-seeded world masks into the shared-BFS bit layout without
    giving up per-world determinism.
    """
    if masks.ndim != 2:
        raise ValueError(f"expected 2-D boolean matrix, got shape {masks.shape}")
    return _pack_rows(masks.T)


def prefix_mask(bit_count: int, words: int) -> np.ndarray:
    """A ``words``-word vector with only the first ``bit_count`` bits set.

    With ``words = packed_words(bit_count)`` it is a full source row;
    a fixed word width lets it mask rows of an existing bit matrix (e.g.
    "count only the worlds a query's budget covers" in the batch engine).
    """
    if bit_count < 0:
        raise ValueError(f"bit_count must be non-negative, got {bit_count}")
    row = np.zeros(words, dtype=_WORD_DTYPE)
    full_words = min(bit_count // WORD_BITS, words)
    row[:full_words] = np.uint64(0xFFFFFFFFFFFFFFFF)
    tail = bit_count - full_words * WORD_BITS
    if tail and full_words < words:
        row[full_words] = np.uint64((1 << tail) - 1)
    return row


def popcount(row: np.ndarray) -> int:
    """Number of set bits in one packed bit vector."""
    return int(_POPCOUNT_TABLE[row.view(np.uint8)].sum())


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row popcounts of a packed bit matrix, shape ``(rows,)``."""
    if matrix.ndim != 2:
        raise ValueError(f"expected 2-D bit matrix, got shape {matrix.shape}")
    bytes_view = matrix.view(np.uint8).reshape(matrix.shape[0], -1)
    return _POPCOUNT_TABLE[bytes_view].sum(axis=1, dtype=np.int64)


__all__ = [
    "WORD_BITS",
    "packed_words",
    "sample_bit_matrix",
    "pack_bool_matrix",
    "prefix_mask",
    "popcount",
    "popcount_rows",
]
