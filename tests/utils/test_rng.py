"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import (
    as_generator,
    choice_without_replacement,
    permutation,
    random_seed_sequence,
    spawn_generators,
)


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).random(5)
        b = as_generator(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(7)
        assert isinstance(as_generator(sequence), np.random.Generator)

    def test_numpy_integer_seed(self):
        assert isinstance(as_generator(np.int64(3)), np.random.Generator)

    def test_invalid_seed_type_raises(self):
        with pytest.raises(TypeError):
            as_generator("not-a-seed")


class TestSpawnGenerators:
    def test_count_and_type(self):
        generators = spawn_generators(0, 4)
        assert len(generators) == 4
        assert all(isinstance(g, np.random.Generator) for g in generators)

    def test_children_are_independent(self):
        g1, g2 = spawn_generators(0, 2)
        assert not np.array_equal(g1.random(10), g2.random(10))

    def test_reproducible_from_int_seed(self):
        first = [g.random(3) for g in spawn_generators(5, 3)]
        second = [g.random(3) for g in spawn_generators(5, 3)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_from_generator(self):
        parent = np.random.default_rng(1)
        children = spawn_generators(parent, 2)
        assert len(children) == 2

    def test_from_seed_sequence(self):
        children = spawn_generators(np.random.SeedSequence(9), 3)
        assert len(children) == 3

    def test_seed_sequence_repeats_without_advancing(self):
        sequence = np.random.SeedSequence(9)
        first = [g.random(3) for g in spawn_generators(sequence, 3)]
        second = [g.random(3) for g in spawn_generators(sequence, 3)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        assert sequence.n_children_spawned == 0

    def test_nonpositive_count_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, 0)


class TestHelpers:
    def test_random_seed_sequence_types(self):
        assert isinstance(random_seed_sequence(3), np.random.SeedSequence)
        assert isinstance(
            random_seed_sequence(np.random.default_rng(0)), np.random.SeedSequence
        )
        sequence = np.random.SeedSequence(1, spawn_key=(3,), pool_size=8)
        copy = random_seed_sequence(sequence)
        assert copy is not sequence
        assert (copy.entropy, copy.spawn_key, copy.pool_size) == (1, (3,), 8)
        copy.spawn(2)
        assert sequence.n_children_spawned == 0

    def test_permutation_is_permutation(self):
        result = permutation(0, 10)
        assert sorted(result.tolist()) == list(range(10))

    def test_choice_without_replacement_distinct(self):
        picks = choice_without_replacement(0, 20, 10)
        assert len(set(picks.tolist())) == 10
        assert picks.min() >= 0 and picks.max() < 20

    def test_choice_too_large_raises(self):
        with pytest.raises(ValueError):
            choice_without_replacement(0, 5, 6)
