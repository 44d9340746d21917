"""Tests for the RNG plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.rng import as_generator, counter_draws, counter_uniforms, derive_seed, spawn_generators


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).uniform(size=5)
        b = as_generator(42).uniform(size=5)
        np.testing.assert_allclose(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(9)
        generator = as_generator(sequence)
        assert isinstance(generator, np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        children = spawn_generators(5, 4)
        assert len(children) == 4

    def test_children_are_independent_streams(self):
        children = spawn_generators(5, 2)
        a = children[0].uniform(size=10)
        b = children[1].uniform(size=10)
        assert not np.allclose(a, b)

    def test_deterministic_given_seed(self):
        first = [g.uniform() for g in spawn_generators(7, 3)]
        second = [g.uniform() for g in spawn_generators(7, 3)]
        np.testing.assert_allclose(first, second)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_generator_seed_supported(self):
        children = spawn_generators(np.random.default_rng(3), 2)
        assert len(children) == 2


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, "dataset", 1) == derive_seed(3, "dataset", 1)

    def test_token_sensitivity(self):
        assert derive_seed(3, "dataset", 1) != derive_seed(3, "dataset", 2)

    def test_base_seed_sensitivity(self):
        assert derive_seed(3, "x") != derive_seed(4, "x")

    def test_none_base_seed(self):
        assert isinstance(derive_seed(None, "x"), int)

    def test_string_base_seed(self):
        assert derive_seed("abc", "x") == derive_seed("abc", "x")


def splitmix_uniform(seed: int, counter: int) -> float:
    """Draw ``counter`` of stream ``seed`` in plain integer arithmetic."""
    mask = (1 << 64) - 1
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
    offset=st.integers(0, 2**40),
    n_draws=st.integers(0, 6),
)
def test_counter_draws_grid_and_rows_equal_the_integer_formula(seeds, offset, n_draws):
    # counter_uniforms is counter_draws over a grid; both are the one formula.
    grid = counter_uniforms(np.asarray(seeds, dtype=np.uint64), n_draws, offset=offset)
    expected = [[splitmix_uniform(seed, offset + column) for column in range(n_draws)] for seed in seeds]
    assert grid.tolist() == expected
    counters = [offset + row for row in range(len(seeds))]
    rows = counter_draws(np.asarray(seeds, dtype=np.uint64), np.asarray(counters, dtype=np.uint64))
    assert rows.tolist() == [splitmix_uniform(seed, counter) for seed, counter in zip(seeds, counters)]
