"""Seed derivation and the batched bootstrap draws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fortress import rng
from fortress.rng import BootstrapDraws, mix64
from oracles import reference_bootstrap_rows

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def seed_with_child(child: int, attempt: int) -> int:
    """A seed whose ``mix64(seed, attempt)`` is ``child``: the splitmix64
    finalizer run backwards."""
    z = _unxorshift(child, 31)
    z = _unxorshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    z = _unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)
    return (z - (attempt + 1) * _GOLDEN) & _MASK64


class TestSeedWithChild:
    @pytest.mark.parametrize("child", [0, 1, 2**32 - 1, 2**63, _MASK64])
    def test_inverts_mix64(self, child):
        assert mix64(seed_with_child(child, 5), 5) == child


class TestBootstrapDraws:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(-(2**70), -1), st.integers(0, 2**32), st.integers(2**63, 2**64 - 1)
        ),
        start=st.integers(0, 10**7),
        count=st.integers(1, 5),
        n=st.integers(2, 2000),
    )
    def test_rows_equal_one_generator_per_attempt(self, seed, start, count, n):
        draws = BootstrapDraws(seed, n, n)
        got = draws.rows(start, count)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, reference_bootstrap_rows(seed, start, count, n, n))
        # a later range inside the same block is served from it
        np.testing.assert_array_equal(
            draws.rows(start + 1, count), reference_bootstrap_rows(seed, start + 1, count, n, n)
        )

    @settings(max_examples=40, deadline=None)
    @given(child=st.integers(0, 2**32 - 1), attempt=st.integers(0, 10**6), n=st.integers(2, 300))
    def test_single_word_entropy(self, child, attempt, n):
        # a child seed below 2**32 is one entropy word to SeedSequence
        seed = seed_with_child(child, attempt)
        np.testing.assert_array_equal(
            BootstrapDraws(seed, n, n).rows(attempt, 1), reference_bootstrap_rows(seed, attempt, 1, n, n)
        )

    def test_rejected_draws_are_redrawn_through_spawn(self, monkeypatch):
        # Lemire's threshold for bound 3 * 2**30 is 2**30, so a 32-bit draw
        # is rejected with probability 1/4 and about 90% of 8-draw rows
        # contain a rejection
        bound, size, count = 3 * 2**30, 8, 60
        calls = []
        real = rng.spawn

        def counting(seed, attempt):
            calls.append(attempt)
            return real(seed, attempt)

        monkeypatch.setattr(rng, "spawn", counting)
        got = BootstrapDraws(11, bound, size).rows(100, count)
        monkeypatch.undo()
        np.testing.assert_array_equal(got, reference_bootstrap_rows(11, 100, count, bound, size))
        # the pass covers a whole block, which starts at the first attempt
        redrawn = [a for a in calls if a < 100 + count]
        assert calls[0] >= 100 and 40 <= len(redrawn) < count

    def test_bound_without_rejection(self):
        # a power of 2 has threshold 0, so no row is redrawn
        np.testing.assert_array_equal(
            BootstrapDraws(3, 2**20, 9).rows(0, 40), reference_bootstrap_rows(3, 0, 40, 2**20, 9)
        )

    @pytest.mark.parametrize(
        "bound, size, message",
        [
            (1, 5, "bound must be in [2, 2**32), got 1"),
            (2**32, 5, "bound must be in [2, 2**32), got 4294967296"),
            (5, 0, "size must be >= 1, got 0"),
        ],
    )
    def test_rejects_bad_shape(self, bound, size, message):
        with pytest.raises(ValueError) as exc:
            BootstrapDraws(0, bound, size)
        assert str(exc.value) == message
