"""Unit tests for repro.utils."""

import math

import numpy as np
import pytest

from repro.utils import sorting
from repro.utils.sorting import packed_key_fits, pair_order, run_starts
from repro.utils.stats import Counter, geometric_mean
from repro.utils.units import ceil_div, is_power_of_two, log2_exact


class TestGeometricMean:
    def test_single_value(self):
        assert geometric_mean([4.0]) == pytest.approx(4.0)

    def test_known_pair(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_invariant_to_order(self):
        values = [0.5, 2.0, 3.0, 7.5]
        assert geometric_mean(values) == pytest.approx(
            geometric_mean(list(reversed(values)))
        )

    def test_log_identity(self):
        values = [1.5, 2.5, 3.5]
        expected = math.exp(sum(math.log(v) for v in values) / 3)
        assert geometric_mean(values) == pytest.approx(expected)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("x")
        c.add("x", 2.5)
        assert c.get("x") == pytest.approx(3.5)
        assert c.get("missing") == 0.0

    def test_merge(self):
        a = Counter(reads=2)
        b = Counter(reads=3, writes=1)
        a.merge(b)
        assert a.get("reads") == 5
        assert a.get("writes") == 1

    def test_as_dict_is_copy(self):
        c = Counter(x=1)
        d = c.as_dict()
        d["x"] = 99
        assert c.get("x") == 1


class TestUnits:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
        assert not is_power_of_two(-8)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(64) == 6
        with pytest.raises(ValueError):
            log2_exact(3)

    def test_ceil_div(self):
        assert ceil_div(0, 8) == 0
        assert ceil_div(1, 8) == 1
        assert ceil_div(8, 8) == 1
        assert ceil_div(9, 8) == 2
        with pytest.raises(ValueError):
            ceil_div(1, 0)


class TestSorting:
    def test_run_starts(self):
        assert run_starts(np.empty(0, dtype=np.int64)).size == 0
        assert run_starts(np.array([5])).tolist() == [0]
        values = np.array([1, 1, 2, 2, 2, 7, 1, 1])
        assert run_starts(values).tolist() == [0, 2, 5, 6]

    def test_pair_order_branches_agree_with_lexsort(self, monkeypatch):
        rng = np.random.default_rng(7)
        major = rng.integers(0, 50, 2_000)
        minor = rng.integers(0, 50, 2_000)
        expected = np.lexsort((minor, major))
        lexsort_calls = []
        real_lexsort = np.lexsort

        def spy(keys):
            lexsort_calls.append(len(keys))
            return real_lexsort(keys)

        monkeypatch.setattr(sorting.np, "lexsort", spy)
        packed = pair_order(major, minor, 50)
        assert lexsort_calls == []
        # a radix whose square reaches 2**62 takes the lexsort branch
        assert packed_key_fits(2**31 - 1, 2**31 - 1)
        assert not packed_key_fits(2**31, 2**31)
        fallback = pair_order(major, minor, 2**31)
        assert lexsort_calls == [2]
        assert np.array_equal(packed, expected)
        assert np.array_equal(fallback, expected)

    def test_packed_branch_at_the_top_of_the_guard(self):
        radix = 2**31 - 1  # the largest radix whose pair still packs
        rng = np.random.default_rng(8)
        major = radix - 1 - rng.integers(0, 3, 500)
        minor = radix - 1 - rng.integers(0, 3, 500)
        assert np.array_equal(
            pair_order(major, minor, radix), np.lexsort((minor, major))
        )
