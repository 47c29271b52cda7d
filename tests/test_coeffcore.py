import math
import sys
from itertools import accumulate, chain, repeat
from operator import sub

import pytest
from hypothesis import given, strategies as st

from hstar_lab import coeffcore
from hstar_lab.coeffcore import (
    _ROW_CACHE_BYTES,
    _power_row,
    eulerian,
    eulerian_by_enumeration,
    restricted_coeff,
)


def bounded_power(n: int, a: int) -> list[int]:
    """Independent oracle: (1 + t + ... + t**(a-1))**n by schoolbook
    convolution, one factor at a time."""
    row = [1]
    for _ in range(n):
        out = [0] * (len(row) + a - 1)
        for i, c in enumerate(row):
            for j in range(a):
                out[i + j] += c
        row = out
    return row


class TestRestrictedCoeff:
    def test_binomial_case(self):
        # with a = 2 the coefficient is an ordinary binomial
        assert restricted_coeff(4, 2, 2) == 6
        for n in range(0, 9):
            for b in range(0, n + 1):
                assert restricted_coeff(n, b, 2) == math.comb(n, b)

    def test_constant_term(self):
        assert restricted_coeff(5, 0, 7) == 1

    def test_small_expansion(self):
        # (1 + t + t**2)**2 = 1 + 2t + 3t**2 + 2t**3 + t**4
        assert restricted_coeff(2, 3, 3) == 2

    def test_degenerate_conventions(self):
        assert restricted_coeff(3, 1, 0) == 0
        assert restricted_coeff(3, 1, -2) == 0
        assert restricted_coeff(3, -1, 4) == 0
        assert restricted_coeff(3, 10, 4) == 0  # 10 > 3*(4-1)
        assert restricted_coeff(0, 0, 5) == 1
        assert restricted_coeff(0, 1, 5) == 0

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            restricted_coeff(-1, 0, 2)

    def test_matches_generic_convolution(self):
        for n in range(0, 7):
            for a in range(1, 6):
                row = bounded_power(n, a)
                assert len(row) == n * (a - 1) + 1
                for b, c in enumerate(row):
                    assert restricted_coeff(n, b, a) == c

    def test_matches_prefix_sum_kernel(self):
        # the prefix-sum kernel the three-term recurrence replaced, kept as
        # reference; the grid has rows of odd and of even length
        def prefix_sum_row(n, a):
            row = [1]
            for _ in range(n):
                prefix = list(accumulate(chain(row, repeat(0, a - 1))))
                row = list(map(sub, prefix, chain(repeat(0, a), prefix)))
            return tuple(row)

        cases = [(n, a) for n in range(0, 41) for a in range(1, 21)]
        cases += [(60, 30), (45, 68), (50, 50), (61, 2), (1, 100)]
        for n, a in cases:
            assert _power_row(n, a) == prefix_sum_row(n, a), (n, a)

    @given(st.integers(0, 10), st.integers(1, 6), st.integers(0, 60))
    def test_symmetry(self, n, a, b):
        top = n * (a - 1)
        assert restricted_coeff(n, b, a) == restricted_coeff(n, top - b, a)

    @given(st.integers(0, 10), st.integers(1, 6))
    def test_row_sum(self, n, a):
        total = sum(restricted_coeff(n, b, a) for b in range(n * (a - 1) + 1))
        assert total == a**n

    @given(st.integers(1, 10), st.integers(1, 6), st.integers(-2, 40))
    def test_pascal_recurrence(self, n, a, b):
        expected = sum(restricted_coeff(n - 1, b - j, a) for j in range(a))
        assert restricted_coeff(n, b, a) == expected


class TestRowCache:
    def test_cache_info_counts_rows(self):
        _power_row.cache_clear()
        _power_row(10, 3)
        _power_row(10, 3)
        _power_row(12, 4)
        info = _power_row.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
        assert 0 < info.nbytes <= info.maxbytes == _ROW_CACHE_BYTES

    def test_charge_bounds_the_stored_size(self):
        # the charge counts the tuple and each distinct int object it holds
        for n, a in [(2, 2), (7, 3), (40, 20), (60, 31), (120, 60)]:
            _power_row.cache_clear()
            row = _power_row(n, a)
            held = {id(c): c for c in row}.values()
            stored = sys.getsizeof(row) + sum(map(sys.getsizeof, held))
            assert stored <= _power_row.cache_info().nbytes, (n, a)

    def test_evicts_least_recently_used_by_size(self, monkeypatch):
        _power_row.cache_clear()
        charges = []
        for key in [(30, 5), (30, 6), (30, 7)]:
            before = _power_row.cache_info().nbytes
            _power_row(*key)
            charges.append(_power_row.cache_info().nbytes - before)
        _power_row.cache_clear()
        monkeypatch.setattr(coeffcore, "_ROW_CACHE_BYTES", sum(charges) - 1)
        _power_row(30, 5)
        _power_row(30, 6)
        _power_row(30, 5)  # now (30, 6) is the least recently used row
        _power_row(30, 7)
        info = _power_row.cache_info()
        assert info.currsize == 2 and info.nbytes == charges[0] + charges[2]
        _power_row(30, 5)
        _power_row(30, 7)
        assert _power_row.cache_info().misses == info.misses
        assert _power_row(30, 6) == tuple(bounded_power(30, 6))
        assert _power_row.cache_info().misses == info.misses + 1

    @pytest.mark.parametrize("bad_j", [2, 4, 9])
    def test_inexact_step_raises_in_each_loop(self, monkeypatch, bad_j):
        # (10, 4) has steps j < 4 in the first loop and j = 4, j > 4 in the
        # second; a remainder at any of them is reported instead of rounded
        def divmod_with_remainder(v, j):
            q, rem = divmod(v, j)
            return q, rem + (j == bad_j)

        _power_row.cache_clear()
        monkeypatch.setattr(coeffcore, "divmod", divmod_with_remainder, raising=False)
        with pytest.raises(AssertionError, match=f"n=10, a=4, j={bad_j}$"):
            _power_row(10, 4)

    def test_takes_keyword_arguments(self):
        # a keyword call is its own key, as with lru_cache, and is charged
        # like a positional one
        _power_row.cache_clear()
        assert _power_row(n=30, a=5) == _power_row(30, 5) == tuple(bounded_power(30, 5))
        info = _power_row.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_keeps_a_row_larger_than_the_bound(self, monkeypatch):
        _power_row.cache_clear()
        monkeypatch.setattr(coeffcore, "_ROW_CACHE_BYTES", 1)
        _power_row(9, 4)
        assert _power_row(9, 5) == tuple(bounded_power(9, 5))
        assert _power_row.cache_info().currsize == 1


class TestEulerian:
    def test_single_descent_class(self):
        for n in range(1, 9):
            assert eulerian(1, n) == 1

    def test_s3(self):
        assert eulerian(2, 3) == 4

    def test_row_sums_to_factorial(self):
        for n in range(1, 9):
            assert sum(eulerian(k, n) for k in range(1, n + 1)) == math.factorial(n)

    def test_matches_bruteforce(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert eulerian(k, n) == eulerian_by_enumeration(k, n)

    def test_cold_value_at_large_n(self):
        # one value from the explicit sum, with no table of earlier rows:
        # A(n, 1) = 2**n - n - 1
        assert eulerian(2, 600) == 2**600 - 601
        assert eulerian(599, 600) == 2**600 - 601
        assert eulerian(1, 600) == eulerian(600, 600) == 1

    def test_matches_descent_recurrence(self):
        # reference: the two-term recurrence, one row per n
        row = [1]
        for n in range(1, 40):
            assert [eulerian(k, n) for k in range(1, n + 1)] == row, n
            padded = [0, *row, 0]
            row = [(m + 1) * padded[m + 1] + (n + 1 - m) * padded[m] for m in range(n + 1)]

    @pytest.mark.parametrize("k,n", [(0, 3), (4, 3), (-1, 5)])
    def test_domain_errors(self, k, n):
        with pytest.raises(ValueError):
            eulerian(k, n)
        with pytest.raises(ValueError):
            eulerian_by_enumeration(k, n)
