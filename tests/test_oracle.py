import math

import pytest

from hstar_lab import oracle
from hstar_lab.coeffcore import eulerian
from hstar_lab.hstar import hstar_closed_form
from hstar_lab.oracle import hstar_from_oracle, lattice_count, lattice_count_direct
from hstar_lab.spec import PolytopeSpec


class TestLatticeCount:
    def test_zero_dilate_is_a_point(self):
        for r, k, n in [(1, 2, 4), (2, 3, 3), (3, 5, 2), (1, 4, 6)]:
            spec = PolytopeSpec(r, k, n)
            assert lattice_count(spec, 0) == 1
            assert lattice_count_direct(spec, 0) == 1

    def test_delta24_trace(self):
        spec = PolytopeSpec(1, 2, 4)
        assert [lattice_count_direct(spec, t) for t in range(4)] == [1, 6, 19, 44]
        assert [lattice_count(spec, t) for t in range(4)] == [1, 6, 19, 44]

    def test_inclusion_exclusion_matches_direct_exhaustively(self):
        for r in (1, 2, 3):
            for n in range(2, 7):
                for k in range(1, r * n):
                    spec = PolytopeSpec(r, k, n)
                    for t in range(5):
                        assert lattice_count(spec, t) == lattice_count_direct(spec, t), (spec, t)

    def test_strictly_increasing(self):
        for r in (1, 2, 3):
            for n in (2, 4, 6):
                for k in range(1, min(r * n, 5)):
                    spec = PolytopeSpec(r, k, n)
                    counts = [lattice_count(spec, t) for t in range(1, 7)]
                    assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_direct_cross_check_catches_a_mismatch(self, monkeypatch):
        direct = oracle.lattice_count_direct
        monkeypatch.setattr(oracle, "lattice_count_direct", lambda spec, t: direct(spec, t) + 1)
        message = "^lattice count mismatch at t=1: inclusion-exclusion 6, enumeration 7$"
        with pytest.raises(AssertionError, match=message):
            lattice_count(PolytopeSpec(1, 2, 4), 1)


class TestHStarFromOracle:
    def test_delta24(self):
        assert hstar_from_oracle(PolytopeSpec(1, 2, 4)).entries == (1, 2, 1, 0)

    def test_unit_simplex(self):
        spec = PolytopeSpec(1, 1, 3)
        assert hstar_from_oracle(spec).entries == (1, 0, 0)
        for t in range(6):
            assert lattice_count(spec, t) == math.comb(t + 2, 2)

    def test_matches_closed_form(self):
        # r <= 3 is in the reciprocity sweep of test_hstar.py
        for n in range(2, 11):
            for k in range(1, 7):
                spec = PolytopeSpec(4, k, n)
                assert hstar_from_oracle(spec).entries == hstar_closed_form(spec).entries

    def test_matches_closed_form_beyond_enum_reach(self):
        for r, n in [(1, 60), (2, 40), (2, 50), (3, 45), (1, 80)]:
            for k in (1, r * n // 3, r * n // 2 + 1):
                spec = PolytopeSpec(r, k, n)
                assert hstar_from_oracle(spec).entries == hstar_closed_form(spec).entries, spec

    def test_volume_identity_at_n60(self):
        for k in range(1, 60):
            assert hstar_from_oracle(PolytopeSpec(1, k, 60)).total() == eulerian(k, 59), k

    def test_series_inversion_reproduces_counts(self):
        # L(t) = sum_j h*_j * C(t - j + n - 1, n - 1)
        for r, k, n in [(1, 2, 4), (1, 3, 5), (2, 3, 4), (2, 5, 3), (3, 4, 2)]:
            spec = PolytopeSpec(r, k, n)
            entries = hstar_from_oracle(spec).entries
            for t in range(2 * n + 1):
                predicted = sum(
                    h * math.comb(t - j + n - 1, n - 1)
                    for j, h in enumerate(entries)
                    if t - j >= 0
                )
                assert predicted == lattice_count(spec, t)

    def test_symmetric_slice_palindrome(self):
        # the reflection x -> r - x fixes the slice when 2k = r*n; for
        # r <= 2 the h*-vector is palindromic up to its degree
        for r in (1, 2):
            for n in range(2, 11):
                if (r * n) % 2:
                    continue
                spec = PolytopeSpec(r, r * n // 2, n)
                entries = hstar_from_oracle(spec).entries
                top = max(d for d, e in enumerate(entries) if e)
                assert all(entries[d] == entries[top - d] for d in range(top + 1)), spec

    def test_symmetric_slice_not_palindromic_beyond_r2(self):
        # central symmetry alone does not force palindromicity: at r = 4,
        # n = 3, k = 6 the vector is (1, 16, 7)
        assert hstar_from_oracle(PolytopeSpec(4, 6, 3)).entries == (1, 16, 7)
