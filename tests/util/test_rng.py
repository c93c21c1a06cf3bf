"""Tests for RNG plumbing: determinism and independence."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.util.rng import ensure_generator, stable_substream


class TestEnsureGenerator:
    def test_none_gives_generator(self):
        assert isinstance(ensure_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_generator(123).random(5)
        b = ensure_generator(123).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_generator(rng) is rng

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(7)
        a = ensure_generator(sequence)
        assert isinstance(a, np.random.Generator)

    def test_different_seeds_differ(self):
        a = ensure_generator(1).random(5)
        b = ensure_generator(2).random(5)
        assert not np.array_equal(a, b)


class TestStableSubstream:
    def test_same_keys_same_stream(self):
        a = stable_substream(9, 1, 2, 3).random(4)
        b = stable_substream(9, 1, 2, 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = stable_substream(9, 1, 2, 3).random(4)
        b = stable_substream(9, 1, 2, 4).random(4)
        assert not np.array_equal(a, b)

    def test_key_order_matters(self):
        a = stable_substream(9, 1, 2).random(4)
        b = stable_substream(9, 2, 1).random(4)
        assert not np.array_equal(a, b)

    def test_no_keys_is_the_root_stream(self):
        a = stable_substream(7).random(4)
        b = np.random.default_rng(7).random(4)
        np.testing.assert_array_equal(a, b)

    def test_seed_sequence_matches_int_seed(self):
        a = stable_substream(np.random.SeedSequence(13), 4, 2).random(4)
        b = stable_substream(13, 4, 2).random(4)
        np.testing.assert_array_equal(a, b)

    def test_numpy_integer_keys_equal_python_keys(self):
        a = stable_substream(5, np.int64(3), np.uint32(8)).random(4)
        b = stable_substream(5, 3, 8).random(4)
        np.testing.assert_array_equal(a, b)

    def test_seeds_past_int64_are_deterministic(self):
        # The service accepts any non-negative seed; 2**63 and above
        # must still name one stream each.
        for seed in (2**63, 2**64 + 5):
            a = stable_substream(seed, 1).random(4)
            b = stable_substream(seed, 1).random(4)
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(
            stable_substream(2**63, 1).random(4),
            stable_substream(2**63 + 1, 1).random(4),
        )

    def test_none_seed_draws_fresh_entropy(self):
        a = stable_substream(None, 1).random(4)
        b = stable_substream(None, 1).random(4)
        assert not np.array_equal(a, b)


class TestSubstreamDerivation:
    """The property the determinism lint (``repro lint``) assumes: any
    two distinct ``(seed, index)`` pairs derive distinct substreams, so
    per-request seeding never needs interpreter-global RNG state."""

    def test_distinct_seed_index_pairs_give_distinct_streams(self):
        pairs = list(itertools.product(range(4), range(8)))
        draws = {
            pair: tuple(stable_substream(pair[0], pair[1]).random(4))
            for pair in pairs
        }
        assert len(set(draws.values())) == len(pairs)

    def test_substream_does_not_collide_with_root(self):
        root = ensure_generator(11).random(4)
        derived = stable_substream(11, 0).random(4)
        assert not np.array_equal(root, derived)

    def test_nested_and_flat_keys_are_distinct_streams(self):
        flat = stable_substream(3, 12).random(4)
        nested = stable_substream(3, 1, 2).random(4)
        assert not np.array_equal(flat, nested)

    def test_derivation_is_entropy_based_not_hash_based(self):
        # numpy's spawn-key mechanism, not Python's salted hash():
        # the same (seed, keys) must name the same stream in every
        # process, or worker fan-out would not be bit-identical.
        sequence = np.random.SeedSequence(entropy=21, spawn_key=(5, 7))
        expected = np.random.default_rng(sequence).random(4)
        actual = stable_substream(21, 5, 7).random(4)
        np.testing.assert_array_equal(actual, expected)

    def test_stable_across_processes(self):
        # A fresh interpreter (fresh hash salt, fresh import order) must
        # derive bit-identical substreams — the cross-process half of
        # the serial == parallel == distributed contract.
        script = (
            "import json, sys\n"
            "from repro.util.rng import stable_substream\n"
            "draws = {\n"
            "    f'{seed}:{index}': stable_substream(seed, index).random(3).tolist()\n"
            "    for seed in (0, 7) for index in (0, 3)\n"
            "}\n"
            "json.dump(draws, sys.stdout)\n"
        )
        src_dir = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
            check=True,
        )
        remote = json.loads(result.stdout)
        for key, values in remote.items():
            seed, index = (int(part) for part in key.split(":"))
            np.testing.assert_array_equal(
                np.asarray(values), stable_substream(seed, index).random(3)
            )
