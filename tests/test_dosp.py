from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hstar_lab import dosp
from hstar_lab.dosp import (
    Dosp,
    cyclic_shift_elements,
    dosp_from_winding_vector,
    format_dosp,
    is_r_hypersimplicial,
    parse_dosp,
    r_bad_blocks,
    winding_number,
    winding_vector,
    _block_of_mask,
    _dosp_from_spot_masks,
    _gaps_between,
)
from hstar_lab.enumeration import enumerate_winding_vectors, iter_dosps
from hstar_lab.spec import PolytopeSpec
from spot_diagram import SpotDiagram

EX1 = "({1,2,7}_2,{3,5}_3,{4,6}_1)"


def ex1():
    return parse_dosp(EX1, 6, 7)


@st.composite
def winding_inputs(draw, max_k=5, max_n=6):
    """A winding vector with k <= max_k and n <= max_n: a drawn prefix and
    the last entry that makes the sum a multiple of k."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, max_n))
    prefix = draw(st.lists(st.integers(0, k - 1), min_size=n - 1, max_size=n - 1))
    return (*prefix, -sum(prefix) % k), k


def _reference_dosp_from_winding_vector(w, k):
    """The per-spot list walk that dosp_from_winding_vector replaced, kept
    as the reference for its results and its error messages, after the
    argument check of k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    w = tuple(w)
    n = len(w)
    if n == 0:
        raise ValueError("winding vector must be nonempty")
    total = 0
    for wi in w:
        if not 0 <= wi <= k - 1:
            raise ValueError(f"winding entry {wi} outside 0..{k - 1}")
        total += wi
    if total % k:
        raise ValueError(f"winding entries sum to {total}, not a multiple of k={k}")
    spots = [[] for _ in range(k)]
    q = 0
    spots[0].append(1)
    for i in range(1, n):
        q = (q + w[i - 1]) % k
        spots[q].append(i + 1)
    occupied = [s for s in range(k) if spots[s]]
    blocks = tuple(frozenset(spots[s]) for s in occupied)
    gaps = []
    for idx, s in enumerate(occupied):
        nxt = occupied[(idx + 1) % len(occupied)]
        gaps.append((nxt - s) % k or k)
    return Dosp(blocks, tuple(gaps), k, n)


def _reference_dosp_fault(blocks, gaps, k, n):
    """The itemized checks of Dosp.__post_init__: the message of the first
    fault found, or None for a valid partition; k and n, arguments rather
    than items, are checked first."""
    for name, value in (("k", k), ("n", n)):
        if value < 1:
            return f"{name} must be at least 1"
    if not blocks:
        return "at least one block is required"
    if len(blocks) != len(gaps):
        return "blocks and gap labels must have equal length"
    seen = set()
    total = 0
    for block, gap in zip(blocks, gaps):
        if not block:
            return "blocks must be nonempty"
        if gap < 1:
            return f"nonpositive gap label {gap}"
        total += gap
        for e in block:
            if e in seen:
                return f"duplicate element {e}"
            if not 1 <= e <= n:
                return f"element {e} outside 1..{n}"
            seen.add(e)
    if total != k:
        return f"gap labels sum to {total}, expected k={k}"
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        return f"missing elements {missing}"
    return None


def _outcome(build, *args):
    """A built value, or the message of the ValueError raised instead."""
    try:
        return build(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def block_gap_tuples(draw):
    """Blocks and gaps near a valid partition of {1..n}: a shuffled {1..n}
    cut into blocks with positive gaps, k their sum, then possibly broken by
    an empty block, a repeated, missing or out-of-range element, a zero or
    negative gap, an extra gap, a k off the gap sum or a wrong n."""
    size = n = draw(st.integers(1, 7))
    elems = draw(st.permutations(range(1, size + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=size - 1))) if size > 1 else []
    bounds = [0, *cuts, size]
    blocks = [set(elems[a:b]) for a, b in zip(bounds, bounds[1:])]
    gaps = [draw(st.integers(1, 3)) for _ in blocks]
    k_shift = 0
    for fault in draw(st.lists(st.integers(0, 8), max_size=2)):
        i = draw(st.integers(0, len(blocks) - 1))
        if fault == 1:
            blocks.insert(i, set())
            gaps.insert(i, draw(st.integers(-1, 2)))
        elif fault == 2:
            blocks[i].add(draw(st.integers(1, size)))
        elif fault == 3 and len(blocks[i]) > 1:
            blocks[i].discard(min(blocks[i]))
        elif fault == 4:
            if blocks[i]:
                blocks[i].discard(max(blocks[i]))
            blocks[i].add(draw(st.sampled_from([-1, 0, size + 1, size + 2])))
        elif fault == 5:
            gaps[i] = draw(st.integers(-2, 0))
        elif fault == 6:
            k_shift = draw(st.integers(-2, 2))
        elif fault == 7:
            n = draw(st.integers(0, size + 1))
        elif fault == 8:
            gaps.append(draw(st.integers(-1, 2)))
    return tuple(frozenset(b) for b in blocks), tuple(gaps), sum(gaps) + k_shift, n


class TestPolytopeSpec:
    def test_valid(self):
        spec = PolytopeSpec(2, 5, 3)
        assert (spec.r, spec.k, spec.n) == (2, 5, 3)

    @pytest.mark.parametrize("r,k,n", [(0, 1, 3), (1, 0, 3), (1, 3, 3), (1, 2, 1), (2, 8, 4)])
    def test_invalid(self, r, k, n):
        with pytest.raises(ValueError):
            PolytopeSpec(r, k, n)

    @pytest.mark.parametrize("r,k,n", [(1, 2.0, 4), (1.0, 2, 4), (1, 2, 4.0)])
    def test_rejects_non_integer_fields(self, r, k, n):
        name = next(name for name, v in zip("rkn", (r, k, n)) if type(v) is not int)
        with pytest.raises(TypeError, match=f"^{name} must be an integer$"):
            PolytopeSpec(r, k, n)


class TestParse:
    def test_example_partition(self):
        p = ex1()
        assert len(p.blocks) == 3
        assert p.blocks[0] == frozenset({1, 2, 7})
        assert p.gaps == (2, 3, 1)

    def test_single_spot_circle(self):
        p = parse_dosp("({1}_1)", 1, 1)
        assert p.blocks == (frozenset({1}),)
        assert p.gaps == (1,)

    def test_duplicate_element(self):
        with pytest.raises(ValueError, match="duplicate element 1"):
            parse_dosp("({1,2}_1,{1,3}_1)", 2, 3)

    def test_duplicate_inside_block(self):
        with pytest.raises(ValueError, match="duplicate element 2"):
            parse_dosp("({2,2}_1,{1}_1)", 2, 2)

    @pytest.mark.parametrize("bad", ["", "{1}_1", "({1}_1", "({1}1)", "({}_1)", "(1_1)", "({1},{2})"])
    def test_malformed_syntax(self, bad):
        with pytest.raises(ValueError, match="malformed"):
            parse_dosp(bad, 2, 2)

    def test_gap_sum_mismatch(self):
        with pytest.raises(ValueError, match="gap labels sum to 3, expected k=4"):
            parse_dosp("({1}_1,{2}_2)", 4, 2)

    def test_nonpositive_gap(self):
        with pytest.raises(ValueError, match="nonpositive gap label"):
            parse_dosp("({1}_0,{2}_2)", 2, 2)

    def test_missing_element(self):
        with pytest.raises(ValueError, match="missing elements"):
            parse_dosp("({1}_1,{2}_1)", 2, 3)

    def test_element_out_of_range(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            parse_dosp("({1}_1,{5}_1)", 2, 2)

    def test_whitespace_is_insignificant(self):
        assert parse_dosp("( {1, 2, 7}_2 , {3,5}_3 , {4,6}_1 )", 6, 7) == ex1()

    def test_parse_canonicalizes(self):
        assert parse_dosp("({3,5}_3,{4,6}_1,{1,2,7}_2)", 6, 7) == ex1()

    def test_print_parse_round_trip(self):
        text = format_dosp(ex1())
        assert text == EX1
        assert parse_dosp(text, 6, 7) == ex1()
        assert str(ex1()) == EX1

    @given(winding_inputs())
    def test_parse_format_round_trip(self, wk):
        w, k = wk
        p = dosp_from_winding_vector(w, k)
        assert parse_dosp(format_dosp(p), p.k, p.n) == p


class TestWinding:
    def test_example_vector_and_number(self):
        assert winding_vector(ex1()) == (0, 2, 3, 3, 3, 1, 0)
        assert winding_number(ex1()) == 2

    def test_single_block_is_zero(self):
        for n in range(1, 6):
            for k in range(1, 5):
                p = Dosp((frozenset(range(1, n + 1)),), (k,), k, n)
                assert winding_vector(p) == (0,) * n
                assert winding_number(p) == 0

    def test_alternating_blocks(self):
        p = parse_dosp("({1,3}_1,{2,4}_1)", 2, 4)
        assert winding_vector(p) == (1, 1, 1, 1)
        assert winding_number(p) == 2

    def test_two_blocks_winding_one(self):
        p = parse_dosp("({1,2}_1,{3,4}_1)", 2, 4)
        assert winding_vector(p) == (0, 1, 0, 1)
        assert winding_number(p) == 1

    def test_winding_vector_invariant_violation(self, monkeypatch):
        # no partition has such a vector, so substitute one to reach the check
        monkeypatch.setattr(dosp, "winding_vector", lambda partition: (1, 0))
        with pytest.raises(AssertionError):
            winding_number(Dosp((frozenset({1}), frozenset({2})), (1, 2), 3, 2))


class TestBadBlocks:
    def test_example_r1(self):
        assert r_bad_blocks(ex1(), 1) == frozenset({frozenset({3, 5})})

    def test_example_r2(self):
        assert r_bad_blocks(ex1(), 2) == frozenset()

    def test_three_singlets(self):
        p = parse_dosp("({1}_1,{2}_1,{3}_1,{4,5}_1)", 4, 5)
        assert r_bad_blocks(p, 1) == frozenset(
            {frozenset({1}), frozenset({2}), frozenset({3})}
        )

    def test_hypersimplicial_examples(self):
        assert not is_r_hypersimplicial(ex1(), 1)
        assert is_r_hypersimplicial(ex1(), 2)

    def test_single_block_hypersimplicial(self):
        for n in range(2, 7):
            for k in range(1, n):
                p = Dosp((frozenset(range(1, n + 1)),), (k,), k, n)
                assert is_r_hypersimplicial(p, 1)

    def test_matches_emptiness_of_bad_set(self):
        for d in range(4):
            for p in iter_dosps(3, 4, d):
                for r in (1, 2):
                    assert is_r_hypersimplicial(p, r) == (not r_bad_blocks(p, r))


class TestFromWindingVector:
    def test_figure_construction(self):
        p = dosp_from_winding_vector((0, 2, 3, 3, 3, 1, 0), 6)
        assert p == ex1()

    def test_all_zero_gives_single_block(self):
        for k in range(1, 5):
            p = dosp_from_winding_vector((0, 0, 0), k)
            assert p.blocks == (frozenset({1, 2, 3}),)
            assert p.gaps == (k,)

    def test_accepts_winding_vector_value(self):
        assert dosp_from_winding_vector(winding_vector(ex1()), 6) == ex1()
        with pytest.raises(TypeError):
            dosp_from_winding_vector(winding_vector(ex1()))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError, match="outside"):
            dosp_from_winding_vector((0, 3), 3)
        with pytest.raises(ValueError, match="multiple"):
            dosp_from_winding_vector((0, 1), 3)
        with pytest.raises(ValueError):
            dosp_from_winding_vector((), 3)

    @given(winding_inputs())
    def test_round_trip_property(self, wk):
        w, k = wk
        p = dosp_from_winding_vector(w, k)
        assert winding_vector(p) == w

    @settings(max_examples=150, deadline=None)
    @given(winding_inputs(max_k=12, max_n=30), st.integers(0, 29))
    def test_prop2_past_the_exhaustive_bounds(self, wk, s):
        # blocks of up to 30 elements, past the n <= 13 of the exhaustive
        # grids; the block cache's eviction is TestBlockInterning's
        w, k = wk
        p = dosp_from_winding_vector(w, k)
        assert winding_vector(p) == w
        assert winding_number(p) == sum(w) // k
        checked = Dosp(p.blocks, p.gaps, k, len(w))
        assert (p.blocks, p.gaps, p.k, p.n) == (checked.blocks, checked.gaps, checked.k, checked.n)
        assert p == checked and hash(p) == hash(checked)
        assert winding_number(cyclic_shift_elements(p, s % p.n)) == sum(w) // k


class TestFromWindingVectorReference:
    def test_matches_reference_on_every_vector(self):
        for k in range(1, 6):
            for n in range(1, 7):
                for w in product(range(k), repeat=n):
                    assert _outcome(dosp_from_winding_vector, w, k) == _outcome(
                        _reference_dosp_from_winding_vector, w, k
                    )

    def test_matches_reference_on_invalid_input(self):
        cases = [((), 3), ((0, 0), 0), ((0, -1), 0), ((1, 1), -2)]
        for k in range(1, 5):
            for n in range(1, 4):
                cases.extend((w, k) for w in product(range(-2, k + 2), repeat=n))
        cases.extend([([0, 1, 1], 2), ([0, 5, 1], 2)])
        for w, k in cases:
            assert _outcome(dosp_from_winding_vector, w, k) == _outcome(
                _reference_dosp_from_winding_vector, w, k
            )


    def test_rejects_non_integer_input(self):
        # a non-integer k is a row of test_arguments.py
        with pytest.raises(TypeError):
            dosp_from_winding_vector((0.0, 1.0, 1.0), 2)
        with pytest.raises(TypeError):
            _reference_dosp_from_winding_vector((0.0, 1.0, 1.0), 2)


class TestBlockInterning:
    def test_cache_is_bounded(self):
        assert _block_of_mask.cache_info().maxsize == 4096

    def test_equal_blocks_are_one_object(self):
        first = dosp_from_winding_vector((0, 1, 0, 2), 3)
        second = dosp_from_winding_vector((0, 2, 0, 1), 3)
        assert first.gaps != second.gaps
        assert first.blocks[0] is second.blocks[0] == frozenset({1, 2})
        assert first.blocks[1] is second.blocks[1] == frozenset({3, 4})

    def test_eviction_keeps_partitions_right(self):
        # at n = 13 the two-spot partitions hold all 8191 nonempty blocks,
        # twice what the cache keeps
        _block_of_mask.cache_clear()
        for d in range(13):
            for w in enumerate_winding_vectors(2, 13, d):
                assert dosp_from_winding_vector(w, 2) == _reference_dosp_from_winding_vector(w, 2)
        info = _block_of_mask.cache_info()
        assert info.currsize == 4096
        assert info.misses == 8191


class TestGapInterning:
    def test_cache_is_bounded(self):
        assert _gaps_between.cache_info().maxsize == 4096

    def test_equal_gap_tuples_are_one_object(self):
        first = dosp_from_winding_vector((1, 2, 0), 3)
        second = dosp_from_winding_vector((1, 0, 2), 3)
        assert first.blocks != second.blocks
        assert first.gaps is second.gaps == (1, 2)


class TestCyclicShift:
    def test_shift_by_one(self):
        shifted = cyclic_shift_elements(ex1(), 1)
        assert shifted == parse_dosp("({1,2,3}_2,{4,6}_3,{5,7}_1)", 6, 7)

    def test_shift_by_zero(self):
        assert cyclic_shift_elements(ex1(), 0) == ex1()

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            cyclic_shift_elements(ex1(), 7)
        with pytest.raises(ValueError):
            cyclic_shift_elements(ex1(), -1)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_winding_number_invariance_small(self, k):
        for n in range(1, 6):
            for d in range(n):
                for p in iter_dosps(k, n, d):
                    for s in range(n):
                        assert winding_number(cyclic_shift_elements(p, s)) == d

    @given(winding_inputs(), st.data())
    def test_winding_number_invariance_property(self, wk, data):
        w, k = wk
        p = dosp_from_winding_vector(w, k)
        s = data.draw(st.integers(0, p.n - 1))
        assert winding_number(cyclic_shift_elements(p, s)) == winding_number(p)


def _rotated(blocks, gaps, shift):
    """The block and gap sequences rotated left by shift places."""
    return blocks[shift:] + blocks[:shift], gaps[shift:] + gaps[:shift]


class TestCanonicalConstruction:
    def test_rotates_block_with_one_first(self):
        rotated = Dosp(
            (frozenset({3, 5}), frozenset({4, 6}), frozenset({1, 2, 7})),
            (3, 1, 2),
            6,
            7,
        )
        assert rotated == ex1()
        assert rotated.blocks == ex1().blocks and rotated.gaps == (2, 3, 1)

    def test_rotations_are_one_set_member(self):
        rotated = Dosp(*_rotated(ex1().blocks, ex1().gaps, 1), 6, 7)
        assert len({parse_dosp(EX1, 6, 7), rotated}) == 1

    def test_every_rotation_builds_one_value(self):
        for k in range(1, 4):
            for n in range(1, 5):
                for d in range(n):
                    for p in iter_dosps(k, n, d):
                        for shift in range(len(p.blocks)):
                            built = Dosp(*_rotated(p.blocks, p.gaps, shift), k, n)
                            assert built == p and hash(built) == hash(p)
                            assert (built.blocks, built.gaps) == (p.blocks, p.gaps)
                            assert format_dosp(built) == format_dosp(p)

    def test_itemized_path_rotates_too(self):
        # plain set blocks and list fields are rotated and stored canonical
        for blocks, gaps in [
            ([{3, 5}, {4, 6}, {1, 2, 7}], [3, 1, 2]),
            (({4, 6}, {1, 2, 7}, {3, 5}), (1, 2, 3)),
        ]:
            built = Dosp(blocks, gaps, 6, 7)
            assert built == ex1() and hash(built) == hash(ex1())
            assert (built.blocks, built.gaps) == (ex1().blocks, ex1().gaps)


class TestTrustedConstruction:
    def test_streamed_equals_checked(self):
        # the spot-mask builder stores without checks exactly the value the
        # checked constructor stores: 5,704 partitions
        built = 0
        for k in range(1, 6):
            for n in range(1, 7):
                for d in range(n):
                    for p in iter_dosps(k, n, d):
                        checked = Dosp(p.blocks, p.gaps, k, n)
                        assert p == checked and hash(p) == hash(checked)
                        assert (p.blocks, p.gaps, p.k, p.n) == (
                            checked.blocks, checked.gaps, checked.k, checked.n
                        )
                        assert all(type(block) is frozenset for block in p.blocks)
                        assert type(p.blocks) is tuple and type(p.gaps) is tuple
                        built += 1
        assert built == 5_704

    def test_element_one_off_spot_zero_is_refused(self):
        with pytest.raises(AssertionError, match="spot 0"):
            _dosp_from_spot_masks([0, 1], 2, 1)


class TestDospValidation:
    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Dosp((frozenset(), frozenset({1})), (1, 1), 2, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Dosp((frozenset({1}),), (1, 1), 2, 1)

    def test_no_blocks(self):
        with pytest.raises(ValueError, match="at least one block"):
            Dosp((), (), 1, 1)

    def test_list_fields_are_stored_as_tuples(self):
        parsed = parse_dosp("({1,2}_2)", 2, 2)
        built = Dosp([frozenset({1, 2})], [2], 2, 2)
        assert (type(built.blocks), type(built.gaps)) == (tuple, tuple)
        assert built == parsed and hash(built) == hash(parsed)

    def test_set_blocks_are_stored_as_frozensets(self):
        parsed = parse_dosp("({1,2}_2,{3}_1)", 3, 3)
        for blocks in [({1, 2}, {3}), ({1, 2}, frozenset({3})), [{1, 2}, {3}]]:
            built = Dosp(blocks, (2, 1), 3, 3)
            assert all(type(block) is frozenset for block in built.blocks)
            assert built == parsed and hash(built) == hash(parsed)

    def test_tuple_blocks_are_stored_as_frozensets(self):
        parsed = parse_dosp("({1,2}_1,{3}_1)", 2, 3)
        built = Dosp(((3,), (1, 2)), (1, 1), 2, 3)
        assert all(type(block) is frozenset for block in built.blocks)
        assert built == parsed and len({built, parsed}) == 1

    def test_non_integer_gap_label_or_element_rejected(self):
        # non-integer k and n are rows of test_arguments.py
        for gaps, k in [((2.0,), 2), ((True,), 1)]:
            for blocks in [(frozenset({1}),), [{1}]]:
                with pytest.raises(TypeError, match="^gap label .* is not an integer$"):
                    Dosp(blocks, gaps, k, 1)
        for blocks in [(frozenset({1.0}),), [{1.0}], (frozenset({True}),), [{True}]]:
            with pytest.raises(TypeError, match="^element .* is not an integer$"):
                Dosp(blocks, (1,), 1, 1)

    @pytest.mark.parametrize(
        "text, blocks",
        [("({1}_1,{2}_1)", lambda: [[1], (e for e in [2])]), ("({1,2}_2)", lambda: [iter([1, 2])])],
        ids=["generator", "iterator"],
    )
    def test_one_shot_blocks_are_read_once(self, text, blocks):
        # read twice, a generator block passes its checks and is stored empty
        expected = parse_dosp(text, 2, 2)
        assert Dosp(blocks(), expected.gaps, 2, 2) == expected

    def test_list_fields_get_the_same_diagnostics(self):
        with pytest.raises(ValueError, match="gap labels sum to 3, expected k=2"):
            Dosp([frozenset({1}), frozenset({2})], [1, 2], 2, 2)

    @given(block_gap_tuples())
    def test_matches_itemized_checks(self, parts):
        expected = _reference_dosp_fault(*parts)
        if expected is None:
            # a valid partition is stored from the block holding 1
            blocks, gaps = parts[:2]
            shift = next(i for i, block in enumerate(blocks) if 1 in block)
            built = Dosp(*parts)
            assert (built.blocks, built.gaps) == _rotated(blocks, gaps, shift)
        else:
            with pytest.raises(ValueError) as excinfo:
                Dosp(*parts)
            assert str(excinfo.value) == expected


class TestSpotDiagram:
    def test_gap_consistency(self):
        for k in range(1, 5):
            for n in range(1, 5):
                for d in range(n):
                    for p in iter_dosps(k, n, d):
                        diagram = SpotDiagram.from_dosp(p)
                        blocks, gaps = diagram.blocks_and_gaps()
                        assert blocks == p.blocks
                        assert gaps == p.gaps
                        assert diagram.to_dosp() == p

    def test_example_diagram(self):
        diagram = SpotDiagram.from_dosp(ex1())
        assert diagram.occupancy[0] == frozenset({1, 2, 7})
        assert diagram.occupancy[2] == frozenset({3, 5})
        assert diagram.occupancy[5] == frozenset({4, 6})
        assert diagram.occupied_spots() == [0, 2, 5]

    def test_red_spots(self):
        p = parse_dosp("({1}_2,{2,3}_1,{4}_1)", 4, 4)
        diagram = SpotDiagram.from_dosp(p)
        assert diagram.red_spots({1}, 2) == frozenset({0, 1})

    def test_red_spots_rejects_non_singleton(self):
        diagram = SpotDiagram.from_dosp(ex1())
        with pytest.raises(ValueError, match="not a singleton"):
            diagram.red_spots({3}, 1)

    def test_red_spots_rejects_missing_element(self):
        diagram = SpotDiagram.from_dosp(ex1())
        with pytest.raises(ValueError, match="does not appear"):
            diagram.red_spots({9}, 1)

    def test_red_spots_rejects_occupied_trailing_spot(self):
        p = parse_dosp("({1}_1,{2,3}_1,{4}_2)", 4, 4)
        diagram = SpotDiagram.from_dosp(p)
        with pytest.raises(ValueError, match="empty spots"):
            diagram.red_spots({1}, 2)
