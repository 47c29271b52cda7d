import math
from itertools import accumulate, chain, repeat
from operator import sub

import pytest
from hypothesis import given, strategies as st

from hstar_lab.coeffcore import (
    ONE,
    ZERO,
    IntPoly,
    _power_row,
    coeff_of,
    eulerian,
    eulerian_by_enumeration,
    poly_add,
    poly_mul,
    poly_pow,
    poly_scale,
    restricted_coeff,
)


def bounded_power(n: int, a: int) -> IntPoly:
    """Independent oracle: (1 + t + ... + t**(a-1))**n by generic convolution."""
    return poly_pow(IntPoly.of([1] * a), n)


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
                for b in range(0, n * (a - 1) + 1):
                    assert restricted_coeff(n, b, a) == coeff_of(row, b)

    def test_matches_per_element_sliding_window(self):
        # the per-element loop the prefix-sum kernel replaced, kept as reference
        def sliding_window_row(n, a):
            row = [1]
            for i in range(1, n + 1):
                out = [0] * ((a - 1) * i + 1)
                acc = 0
                for j in range(len(out)):
                    if j < len(row):
                        acc += row[j]
                    if 0 <= j - a < len(row):
                        acc -= row[j - a]
                    out[j] = acc
                row = out
            return row

        for n in range(0, 13):
            for a in range(1, 10):
                expected = sliding_window_row(n, a)
                assert [restricted_coeff(n, b, a) for b in range(len(expected))] == expected

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

    @pytest.mark.parametrize("k,n", [(0, 3), (4, 3), (-1, 5)])
    def test_domain_errors(self, k, n):
        with pytest.raises(ValueError):
            eulerian(k, n)
        with pytest.raises(ValueError):
            eulerian_by_enumeration(k, n)


class TestIntPoly:
    def test_of_strips_trailing_zeros(self):
        assert IntPoly.of([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly.of([0, 0]).coeffs == ()
        assert not IntPoly.of([])

    def test_raw_constructor_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            IntPoly((1, 0))

    def test_coeff_of_zero_poly(self):
        assert coeff_of(ZERO, 3) == 0

    def test_coeff_of_beyond_degree(self):
        assert coeff_of(IntPoly.of([1, 2]), 5) == 0
        assert coeff_of(IntPoly.of([1, 2]), -1) == 0

    def test_square_of_one_plus_t(self):
        p = IntPoly.of([1, 1])
        assert poly_mul(p, p).coeffs == (1, 2, 1)

    def test_hand_convolution(self):
        p = IntPoly.of([1, 1, 1])
        assert poly_mul(p, p).coeffs == (1, 2, 3, 2, 1)

    def test_add_and_cancel(self):
        p = IntPoly.of([1, 2, 1])
        q = IntPoly.of([0, 0, -1])
        assert poly_add(p, q).coeffs == (1, 2)

    def test_scale(self):
        assert poly_scale(IntPoly.of([1, 2]), 3).coeffs == (3, 6)
        assert poly_scale(IntPoly.of([1, 2]), 0) == ZERO

    def test_pow(self):
        assert poly_pow(IntPoly.of([1, 1]), 0) == ONE
        assert poly_pow(IntPoly.of([1, 1]), 3).coeffs == (1, 3, 3, 1)
        with pytest.raises(ValueError):
            poly_pow(ONE, -1)

    def test_mul_by_zero(self):
        assert poly_mul(ZERO, IntPoly.of([1, 2])) == ZERO
