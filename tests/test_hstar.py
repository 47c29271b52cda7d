import math
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hstar_lab import coeffcore, hstar
from hstar_lab.coeffcore import _power_row, eulerian, restricted_coeff
from hstar_lab.hstar import (
    check_lemma1,
    check_prop1,
    hstar_closed_form,
    raw_series_numerator,
)
from hstar_lab.oracle import hstar_from_oracle
from hstar_lab.spec import HStarVector, PolytopeSpec
import reciprocity
from reciprocity import reciprocity_faults


class TestClosedForm:
    def test_delta24_entry(self):
        # i = 0 gives 6, i = 1 subtracts 4
        vec = hstar_closed_form(PolytopeSpec(1, 2, 4))
        assert vec.entries[1] == 2

    def test_delta24_vector(self):
        assert hstar_closed_form(PolytopeSpec(1, 2, 4)).entries == (1, 2, 1, 0)

    def test_leading_entry_is_one(self):
        for r, k, n in [(1, 2, 4), (2, 5, 3), (3, 7, 4), (1, 4, 9)]:
            assert hstar_closed_form(PolytopeSpec(r, k, n)).entries[0] == 1

    def test_unit_simplex(self):
        for n in range(2, 8):
            assert hstar_closed_form(PolytopeSpec(1, 1, n)).entries == (1,) + (0,) * (n - 1)

    def test_degree_bound(self):
        # entries vanish once k*d exceeds n*(k-1)
        for n in range(2, 8):
            for k in range(1, n):
                vec = hstar_closed_form(PolytopeSpec(1, k, n))
                for d in range(n):
                    if k * d > n * (k - 1):
                        assert vec.entries[d] == 0

    def test_arbitrary_precision_entries(self):
        # entries overflow 64-bit words well before n = 25
        vec = hstar_closed_form(PolytopeSpec(1, 12, 25))
        assert max(vec.entries) > 2**63
        assert vec.total() == eulerian(12, 24)

    def test_builds_each_row_once(self):
        # one row per part bound a = 30, 29, ..., 1, all kept by the
        # size-bounded row cache
        _power_row.cache_clear()
        hstar_closed_form(PolytopeSpec(1, 30, 60))
        info = _power_row.cache_info()
        assert info.misses == 30
        assert info.currsize == 30
        assert info.nbytes <= info.maxbytes

    def test_rows_evicted_by_size_leave_entries_unchanged(self, monkeypatch):
        spec = PolytopeSpec(1, 40, 80)
        _power_row.cache_clear()
        expected = hstar_closed_form(spec).entries
        full = _power_row.cache_info().nbytes
        _power_row.cache_clear()
        monkeypatch.setattr(coeffcore, "_ROW_CACHE_BYTES", full // 4)
        assert hstar_closed_form(spec).entries == expected
        info = _power_row.cache_info()
        assert info.misses == 40 and info.currsize < 40
        assert info.nbytes <= full // 4

    def test_reads_each_row_in_one_run(self, monkeypatch):
        # one row fetch per part bound, in decreasing order of the bound
        bounds = []
        original = hstar._power_row

        def recording(n, a):
            bounds.append(a)
            return original(n, a)

        monkeypatch.setattr(hstar, "_power_row", recording)
        hstar_closed_form(PolytopeSpec(2, 9, 5))
        assert bounds == [9, 7, 5, 3, 1]


def _volume(r, k, n):
    """Normalized volume of the slice by inclusion-exclusion over the
    coordinates forced above r, computed here from math alone."""
    return sum(
        (-1) ** i * math.comb(n, i) * (k - r * i) ** (n - 1) for i in range(n + 1) if k > r * i
    )


def _nan_li_hstar(k, n):
    """h* of the hypersimplex (r = 1) by Nan Li's recurrence (Discrete
    Comput. Geom. 48, 2012): the half-open hypersimplex counts the w in
    S_(n-1) with k-1 excedances by descents, and the closed one adds
    (1-z) h*(Delta_(k-1,n-1)), with h*(Delta_(1,m)) = 1.  Brute force over
    permutations, from math alone."""
    if k == 1:
        return (1,) + (0,) * (n - 1)
    half_open = [0] * n
    for w in permutations(range(1, n)):
        if sum(w[i] > i + 1 for i in range(n - 1)) == k - 1:
            half_open[sum(a > b for a, b in zip(w, w[1:]))] += 1
    lower = _nan_li_hstar(k - 1, n - 1)
    return tuple(h + a - b for h, a, b in zip(half_open, (*lower, 0), (0, *lower)))


_specs = st.integers(1, 3).flatmap(
    lambda r: st.integers(2, 80).flatmap(
        lambda n: st.tuples(st.just(r), st.integers(1, r * n - 1), st.just(n))
    )
)


class TestIndependentChecks:
    def test_nan_li_recurrence_at_r_1(self):
        for n in range(2, 9):
            for k in range(1, n):
                entries = _nan_li_hstar(k, n)
                assert entries == hstar_closed_form(PolytopeSpec(1, k, n)).entries, (k, n)
                assert entries == hstar_from_oracle(PolytopeSpec(1, k, n)).entries, (k, n)

    @settings(max_examples=50, deadline=None)
    @given(_specs)
    def test_formula_meets_oracle_volume_and_reflection(self, rkn):
        r, k, n = rkn
        formula = hstar_closed_form(PolytopeSpec(r, k, n)).entries
        assert formula == hstar_from_oracle(PolytopeSpec(r, k, n)).entries
        assert sum(formula) == _volume(r, k, n)
        assert formula == hstar_closed_form(PolytopeSpec(r, r * n - k, n)).entries


class TestReciprocity:
    """Both routes against the interior points of the dilates (reciprocity.py).
    These fix every entry, so a pass is also the two routes' agreement, the
    volume and the reflection k -> rn - k."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_spec_up_to_n_13(self, r):
        for n in range(2, 14):
            for k in range(1, r * n):
                for method in (hstar_closed_form, hstar_from_oracle):
                    entries = method(PolytopeSpec(r, k, n)).entries
                    assert reciprocity_faults(r, k, n, entries) == [], (r, k, n, method)

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_sampled_grid(self, n):
        for r in (1, 2, 3):
            for k in range(n // 4, r * n, n // 4):
                for method in (hstar_closed_form, hstar_from_oracle):
                    entries = method(PolytopeSpec(r, k, n)).entries
                    assert reciprocity_faults(r, k, n, entries) == [], (r, k, n, method)

    def test_hypersimplex_at_n_100(self):
        formula = hstar_closed_form(PolytopeSpec(1, 50, 100)).entries
        assert formula == hstar_from_oracle(PolytopeSpec(1, 50, 100)).entries
        assert reciprocity_faults(1, 50, 100, formula) == []

    def test_rejects_one_moved_from_h2_to_h1(self):
        # the sum of the entries, the normalized volume, stays the same
        entries = list(hstar_closed_form(PolytopeSpec(2, 5, 8)).entries)
        assert reciprocity_faults(2, 5, 8, entries) == []
        entries[1] += 1
        entries[2] -= 1
        faults = reciprocity_faults(2, 5, 8, entries)
        assert faults == ["h*_1", "L°(6)", "L°(7)", "L°(8)", "L°(9)"]

    def test_helper_imports_nothing_from_the_package(self):
        assert "hstar_lab" not in Path(reciprocity.__file__).read_text(encoding="utf-8")


class TestRawNumerator:
    def test_delta24(self):
        assert raw_series_numerator(PolytopeSpec(1, 2, 4)) == (1, 2, 1, 0)

    def test_unit_simplex(self):
        for n in range(2, 7):
            assert raw_series_numerator(PolytopeSpec(1, 1, n)) == (1,) + (0,) * (n - 1)

    def test_matches_closed_form(self):
        for r in (1, 2, 3):
            for n in range(2, 8):
                for k in range(1, min(r * n - 1, 6) + 1):
                    spec = PolytopeSpec(r, k, n)
                    assert raw_series_numerator(spec) == hstar_closed_form(spec).entries, spec

    def test_surviving_high_coefficient_raises(self, monkeypatch):
        original = hstar._shifted_series

        def one_more_on_top(*args):
            series = original(*args)
            series[-1] += 1
            return series

        monkeypatch.setattr(hstar, "_shifted_series", one_more_on_top)
        message = "^series numerator has a nonzero coefficient at degree 4; degrees n and above"
        with pytest.raises(AssertionError, match=message):
            raw_series_numerator(PolytopeSpec(1, 2, 4))


class TestLemma1:
    def test_binomial_instance(self):
        assert check_lemma1(4, 2, 2)

    def test_unit_bound(self):
        assert check_lemma1(1, 1, 1)


class TestProp1:
    def test_s_zero_is_trivial(self):
        for a in range(1, 5):
            for n in range(0, 6):
                assert check_prop1(0, a, n, 8)

    def test_single_shift(self):
        assert check_prop1(1, 2, 3, 5)

    def test_sweep(self):
        # low truncations make the last l of the series sum count
        assert all(
            check_prop1(s, a, n, max_degree)
            for s in range(0, 6)
            for a in range(1, 5)
            for n in range(s, 9)
            for max_degree in range(0, 10)  # max_degree 10 is the prop1 suite
        )

    def test_fails_beyond_domain(self):
        # with rows of negative upper index treated as zero the identity
        # genuinely breaks for s > n
        assert not check_prop1(1, 2, 0, 6)


class TestShiftedSeries:
    def test_matches_repeated_multiplication_by_t_minus_one(self):
        # reference: multiply the series by (t - 1) j times, one step at a time
        def reference(n, a, s, top):
            out = [0] * (top + s + 1)
            for j in range(min(s, n) + 1):
                poly = [restricted_coeff(n - j, l * a, a) for l in range(top + 1)]
                for _ in range(j):
                    poly = [x - y for x, y in zip([0, *poly], [*poly, 0])]
                for e, c in enumerate(poly):
                    out[e] += math.comb(s, j) * c
            return out

        for s in range(0, 5):
            for a in range(1, 5):
                for n in range(0, 6):
                    for top in range(0, 7):
                        assert hstar._shifted_series(n, a, s, top) == reference(n, a, s, top)


class TestHStarVector:
    def test_total(self):
        assert hstar_closed_form(PolytopeSpec(1, 2, 4)).total() == 4

    def test_any_sequence_is_one_value(self):
        spec = PolytopeSpec(1, 2, 4)
        built = HStarVector([1, 2, 1, 0], spec)
        assert type(built.entries) is tuple
        assert built == hstar_closed_form(spec) and hash(built) == hash(hstar_closed_form(spec))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            HStarVector((1, 0), PolytopeSpec(1, 2, 4))

    @pytest.mark.parametrize("entries", [(1, 0.5), (True, 0), (1.0, 0), (1, -0.5)])
    def test_rejects_non_int_entries_before_the_range_checks(self, entries):
        # a bool is not an integer here, and a float fails before the sign test
        with pytest.raises(TypeError, match=r"^h\*-vector entries must be integers$"):
            HStarVector(entries, PolytopeSpec(1, 1, 2))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            HStarVector((1, -1, 0, 0), PolytopeSpec(1, 2, 4))

    def test_rejects_wrong_leading_entry(self):
        with pytest.raises(ValueError):
            HStarVector((2, 0, 0, 0), PolytopeSpec(1, 2, 4))
