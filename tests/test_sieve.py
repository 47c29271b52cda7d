import copy
import pickle
import tracemalloc
from dataclasses import fields, make_dataclass
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hstar_lab import sieve
from hstar_lab.cli import _SUITES, main
from hstar_lab.coeffcore import _power_row, restricted_coeff
from hstar_lab.dosp import (
    Dosp,
    _gaps_between,
    dosp_from_winding_vector,
    format_dosp,
    parse_dosp,
    r_bad_blocks,
    winding_number,
    winding_vector,
)
from hstar_lab.enumeration import enumerate_winding_vectors, iter_dosps
from hstar_lab.hstar import count_dosps, hstar_closed_form
from hstar_lab.sieve import (
    _family_with_bad_blocks,
    _normalize_parts,
    _packed_pairs,
    _require_ground,
    check_prop3,
    check_prop4,
    dosp_family,
    dosp_from_second_winding_vector,
    dosps_with_bad_parts,
    enumerate_second_winding_vectors,
    run_free_family,
    second_winding_vector,
    sieve_term,
    sieve_term_closed_form,
    spread_bad_parts,
    spread_image,
    unordered_partitions,
)
from hstar_lab.spec import HStarVector, PolytopeSpec
from spot_diagram import SpotDiagram

BELL = [1, 1, 2, 5, 15, 52, 203]


def _ordered_packed_runs(partition, r, ground):
    """Maximal increasing packed runs of marked singleton blocks, each as the
    list of its elements in circle order (which is increasing), read by
    following links: block i links to block i+1 (cyclic) when both are
    marked singletons, the gap at i is exactly r and the elements increase.
    Every marked element, required to be a singleton block, lies in exactly
    one run.  The run criterion of _reference_chi_by_runs."""
    m = len(partition.blocks)
    marked = [min(b) if len(b) == 1 and b <= ground else 0 for b in partition.blocks]
    following = marked[1:] + marked[:1]
    linked = [gap == r and 0 < e < f for e, f, gap in zip(marked, following, partition.gaps)]
    placed = {e for e in marked if e}
    if placed != ground:
        missing = sorted(ground - placed)
        raise ValueError(f"marked elements {missing} are not singleton blocks")
    for e, gap in zip(marked, partition.gaps):
        # every marked singleton must be r-bad, so runs always end on a gap
        # of at least r
        if e and gap < r:
            raise ValueError(f"marked singleton block {{{e}}} has gap below {r}")
    runs = []
    for i, e in enumerate(marked):
        if not e:
            continue
        if linked[i - 1]:
            continue  # not the head of a run
        run = [e]
        cur = i
        while linked[cur]:
            cur = (cur + 1) % m
            if cur == i:
                break  # full cycle is impossible while n stays unmarked
            run.append(marked[cur])
        runs.append(run)
    return runs


def packed_run_partition(partition, r, ground):
    """Partition of the ground set by the maximal increasing packed runs of
    the given partition."""
    ground = frozenset(ground)
    _require_ground(ground, partition.n, r)
    return _normalize_parts(_ordered_packed_runs(partition, r, ground))


def _reference_chi_by_runs(partition, r, ground, parts):
    """Whether each part is a contiguous stretch of one run of
    _ordered_packed_runs: the criterion for membership in spread_image."""
    runs = _ordered_packed_runs(partition, r, frozenset(ground))
    run_of = {e: run for run in runs for e in run}
    for part in parts:
        elems = sorted(part)
        run = run_of.get(elems[0])
        if run is None:
            return False
        idx = run.index(elems[0])
        if run[idx : idx + len(elems)] != elems:
            return False
    return True


def singles(ground):
    return tuple(frozenset({t}) for t in sorted(ground))


# the running example: no increasing packed run of length > 1 for the marked
# elements 1, 2, 9 even though ({2},{1}) sits at gaps exactly 2
RUNNING = "({2}_2,{1}_2,{5,6}_1,{7,8}_1,{9}_3,{11,12,13}_1,{10,14}_1,{3,4}_1)"
RUNNING_V = (6, 6, 0, 1, 0, 1, 0, 0, 3, 5, 0, 0, 1, 1)


def running_example():
    return parse_dosp(RUNNING, 12, 14)


class TestUnorderedPartitions:
    def test_bell_counts(self):
        for m in range(0, 7):
            assert len(unordered_partitions(range(1, m + 1))) == BELL[m]

    def test_empty_set(self):
        assert unordered_partitions(()) == [()]

    def test_singleton(self):
        assert unordered_partitions({7}) == [(frozenset({7}),)]

    def test_parts_cover_and_are_disjoint(self):
        base = {2, 5, 6, 9}
        seen = set()
        for parts in unordered_partitions(base):
            assert sum(len(p) for p in parts) == len(base)
            assert frozenset().union(*parts) == base
            key = frozenset(parts)
            assert key not in seen
            seen.add(key)

    def test_each_call_returns_a_new_list(self):
        first = unordered_partitions([2, 1])
        expected = [(frozenset({1, 2}),), (frozenset({1}), frozenset({2}))]
        assert first == expected
        first.reverse()
        first.append(())
        again = unordered_partitions((1, 2, 2))  # the same sorted ground
        assert again is not first and again == expected

    def test_equal_blocks_of_one_entry_are_one_object(self):
        # a six-element ground: 674 block occurrences, 63 block objects; the
        # entry traced about 166 KB with one object per occurrence and 29 to
        # 35 KB shared (Python 3.11), and its charge, 36,904 bytes, bounds it
        sieve._partitions_of.cache_clear()
        tracemalloc.start()
        try:
            entry = sieve._partitions_of(tuple(range(1, 7)))
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        blocks = [b for parts in entry for b in parts]
        assert len(blocks) == 674 and len({id(b) for b in blocks}) == len(set(blocks)) == 63
        assert traced < 40_000 and traced <= sieve._partitions_of.cache_info().nbytes
        # elements far past any bitmask width are blocks all the same
        huge = 10**30
        assert unordered_partitions([huge, 1]) == [
            (frozenset({1, huge}),),
            (frozenset({1}), frozenset({huge})),
        ]
        sieve._partitions_of.cache_clear()

    def test_small_budget_evicts_down_to_it(self, monkeypatch):
        # the partitions of a 6-set alone pass a 4 KiB budget, those of a
        # 1-set and a 2-set fit it together
        sieve._partitions_of.cache_clear()
        monkeypatch.setattr(sieve, "_PARTITIONS_CACHE_BYTES", 4096)
        for m in [*range(7), 1, 2, 6]:
            assert len(unordered_partitions(range(1, m + 1))) == BELL[m]
            info = sieve._partitions_of.cache_info()
            assert info.nbytes <= info.maxbytes == 4096 or info.currsize == 1
        # the second 1-set evicted the first 6-set, and the last 6-set
        # evicted the 1-set and the 2-set: the newest stays however large
        assert info.misses == 10 and info.currsize == 1 and info.nbytes > 4096
        sieve._partitions_of.cache_clear()


class TestBadPartFamilies:
    def test_table_rows(self):
        rows = {
            (frozenset({1, 2, 3}),): ["({1,2,3}_3,{4,5}_1)"],
            (frozenset({1, 2}), frozenset({3})): ["({1,2}_2,{3}_1,{4,5}_1)"],
            (frozenset({2, 3}), frozenset({1})): ["({1}_1,{2,3}_2,{4,5}_1)"],
            (frozenset({1, 3}), frozenset({2})): [],
            (frozenset({1}), frozenset({2}), frozenset({3})): [
                "({1}_1,{2}_1,{3}_1,{4,5}_1)"
            ],
        }
        for parts, texts in rows.items():
            family = dosps_with_bad_parts(4, 5, 1, 1, parts)
            assert [format_dosp(p) for p in family] == texts

    def test_empty_parts_gives_whole_family(self):
        assert dosps_with_bad_parts(4, 5, 1, 1, ()) == list(dosp_family(4, 5, 1))
        assert len(dosp_family(4, 5, 1)) == count_dosps(4, 5, 1)

    def test_full_ground_set_impossible(self):
        # every block bad forces total gaps at least r*n > k
        for n in range(2, 6):
            for k in range(1, n):
                for parts in unordered_partitions(range(1, n + 1)):
                    for d in range(n):
                        assert dosps_with_bad_parts(k, n, d, 1, parts) == []


class TestMemberScanReferences:
    def test_readers_match_member_scans(self):
        # the per-member scans that the postings replaced, with the offset
        # walk below as the packed-run test: every k <= 6, 2 <= n <= 6,
        # r <= 3 and d, every ground of at most 3 elements avoiding n, and
        # every set partition of that ground
        checked = 0
        for r in (1, 2, 3):
            for k in range(1, 7):
                for n in range(2, 7):
                    grounds = [
                        frozenset(g) for m in range(4) for g in combinations(range(1, n), m)
                    ]
                    for d in range(n):
                        family = dosp_family(k, n, d)
                        bad_sets = [r_bad_blocks(p, r) for p in family]

                        def scan(parts):
                            required = frozenset(frozenset(part) for part in parts)
                            return [p for p, bad in zip(family, bad_sets) if required <= bad]

                        for ground in grounds:
                            term = 0
                            for parts in unordered_partitions(ground):
                                members = scan(parts)
                                assert dosps_with_bad_parts(k, n, d, r, parts) == members
                                term += (-1) ** len(parts) * len(members)
                                checked += 1
                            assert sieve_term(k, n, d, r, ground) == term
                            assert run_free_family(k, n, d, r, ground) == [
                                p
                                for p in scan(singles(ground))
                                if not _reference_has_increasing_run(p, r, ground)
                            ]
        # r, k, then d and the set partitions of each ground, by size 0..3
        assert checked == 3 * 6 * sum(
            n * (1 + (n - 1) + 2 * comb(n - 1, 2) + 5 * comb(n - 1, 3)) for n in range(2, 7)
        )


def _clear_family_caches():
    dosp_family.cache_clear()
    _family_with_bad_blocks.cache_clear()


class TestFamilyCaches:
    def test_family_is_the_stream_with_shared_blocks(self):
        for k in range(1, 6):
            for n in range(1, 6):
                for d in range(n):
                    family = dosp_family(k, n, d)
                    assert family == tuple(iter_dosps(k, n, d))
                    blocks = [b for p in family for b in p.blocks]
                    assert len({id(b) for b in blocks}) == len(set(blocks))

    def test_postings_match_each_member(self):
        for r in (1, 2, 3):
            for k in range(1, 6):
                for n in range(1, 6):
                    pairs = list(combinations(range(1, n + 1), 2))
                    for d in range(n):
                        # bit i of every posting stands for member i
                        postings = _family_with_bad_blocks(k, n, d, r)
                        family = dosp_family(k, n, d)
                        assert postings.everyone == 2 ** len(family) - 1
                        assert all(postings.by_block.values())
                        assert all(postings.by_pair.values())
                        assert set(postings.by_pair) <= set(pairs)
                        for i, p in enumerate(family):
                            held = {b for b, mask in postings.by_block.items() if mask >> i & 1}
                            assert held == r_bad_blocks(p, r)
                            carried = [
                                pair for pair in pairs if postings.by_pair.get(pair, 0) >> i & 1
                            ]
                            # with the pair as the whole ground, the only
                            # packed run it can carry is the pair itself
                            assert carried == [
                                pair
                                for pair in pairs
                                if _reference_has_increasing_run(p, r, pair)
                            ]

    def test_verify_builds_each_family_once(self, capsys, monkeypatch):
        _clear_family_caches()
        reads = []

        def counted(partition, r):
            reads.append(partition)
            return r_bad_blocks(partition, r)

        monkeypatch.setattr(sieve, "r_bad_blocks", counted)
        assert main(["verify", "--suite", "eq6"]) == 0
        assert capsys.readouterr().out == "PASS eq6: 3108 cases\n"
        # that nothing is evicted at the default bounds is
        # test_cli.py::TestVerifyCommand::test_default_bounds_fit_the_caches
        budgets = (sieve._FAMILY_CACHE_BYTES, sieve._POSTINGS_CACHE_BYTES)
        for cached, keys, budget in zip((dosp_family, _family_with_bad_blocks), (120, 240), budgets):
            info = cached.cache_info()
            assert info.nbytes <= info.maxbytes == budget
            assert info.misses == keys
        # each index reads each member of its family once, and the sieve
        # terms read no member
        cases, _, bounds = _SUITES["eq6"]
        indexed = {(k, n, d, r) for k, n, r, d, _ in cases(*bounds)}
        assert len(indexed) == 240
        assert len(reads) == sum(len(dosp_family(k, n, d)) for k, n, d, _ in indexed)

    @pytest.mark.parametrize("suite", ["prop3", "prop4", "prop5", "eq6"])
    def test_sweep_past_the_budget_builds_each_family_once(self, suite, monkeypatch):
        # with room for one family and one postings entry only, every case
        # still finds its family and postings built once, since the cases of
        # one family run back to back
        monkeypatch.setattr(sieve, "_FAMILY_CACHE_BYTES", 1)
        monkeypatch.setattr(sieve, "_POSTINGS_CACHE_BYTES", 1)
        _clear_family_caches()
        assert main(["verify", "--suite", suite]) == 0
        cases, _, bounds = _SUITES[suite]
        indexed = {(k, n, d, r) for k, n, r, d, *_ in cases(*bounds)}
        families, postings = dosp_family.cache_info(), _family_with_bad_blocks.cache_info()
        assert families.currsize == postings.currsize == 1
        assert families.misses == len({key[:3] for key in indexed})
        assert postings.misses == len(indexed)
        _clear_family_caches()

    def test_default_bound_families_share_gap_tuples(self):
        for k in range(1, 7):
            for n in range(2, 7):
                for d in range(n):
                    gaps = [p.gaps for p in dosp_family(k, n, d)]
                    assert len({id(g) for g in gaps}) == len(set(gaps))

    def test_reconstructed_partitions_share_gap_tuples(self):
        # every partition the prop5 suite rebuilds at its default bounds
        _gaps_between.cache_clear()
        cases, _, bounds = _SUITES["prop5"]
        gaps = [
            dosp_from_second_winding_vector(v, k, r, ground).gaps
            for k, n, r, d, ground in cases(*bounds)
            for v in enumerate_second_winding_vectors(k, n, d, r, ground)
        ]
        assert len({id(g) for g in gaps}) == len(set(gaps))

    def test_default_bound_families_stay_small(self):
        # every family the default verify bounds build, with its postings for
        # r = 1 and 2: about 1.9 MB traced and 3.1 MB charged (Python 3.11),
        # when members are slotted and share blocks and gap tuples; about
        # 3.1 MB with one r-bad block set per member in place of postings,
        # about 6.3 MB with a gap tuple and __dict__ per member as well, and
        # about 24 MB with nothing shared
        _clear_family_caches()
        tracemalloc.start()
        try:
            for r in (1, 2):
                for k in range(1, 7):
                    for n in range(2, 7):
                        for d in range(n):
                            _family_with_bad_blocks(k, n, d, r)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        families, postings = dosp_family.cache_info(), _family_with_bad_blocks.cache_info()
        assert families.misses == families.currsize == 120
        assert postings.misses == postings.currsize == 240
        assert current < 4 * 2**20
        # the charges bound what the caches hold, the block and gap-tuple
        # intern caches included
        assert current <= families.nbytes + postings.nbytes

    def test_charges_bound_the_traced_size_within_a_factor_two(self):
        # at n = 7 few members come from the interpreter's free lists, so the
        # traced size is what the members take: the charges measured 1.20
        # (families) and 1.65 (postings) times it (Python 3.11)
        _clear_family_caches()
        tracemalloc.start()
        try:
            for d in range(7):
                dosp_family(5, 7, d)
            held, _ = tracemalloc.get_traced_memory()
            for d in range(7):
                for r in (1, 2):
                    _family_with_bad_blocks(5, 7, d, r)
            indexed, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        charged = dosp_family.cache_info().nbytes
        assert held <= charged < 2 * held
        charged = _family_with_bad_blocks.cache_info().nbytes
        assert indexed - held <= charged < 2 * (indexed - held)

    def test_long_lived_sweep_stays_within_the_budget(self, monkeypatch):
        # the 120 growing families of the default verify bounds, indexed for
        # r = 1, with the budgets cut to 768 + 256 KiB so that both caches
        # evict: what stays traced never passes the budget by more than
        # 256 KiB, which covers the block and gap-tuple intern caches (it
        # peaked at 0.59 MiB, Python 3.11)
        budget, slack = 2**20, 2**18
        monkeypatch.setattr(sieve, "_FAMILY_CACHE_BYTES", budget * 3 // 4)
        monkeypatch.setattr(sieve, "_POSTINGS_CACHE_BYTES", budget // 4)
        _clear_family_caches()
        tracemalloc.start()
        try:
            most = 0
            for n in range(2, 7):
                for k in range(1, 7):
                    for d in range(n):
                        run_free_family(k, n, d, 1, ())
                        most = max(most, tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        families, postings = dosp_family.cache_info(), _family_with_bad_blocks.cache_info()
        assert families.misses == 120 and families.currsize < 120
        assert postings.misses == 120 and postings.currsize < 120
        assert families.nbytes + postings.nbytes <= budget
        assert most < budget + slack
        _clear_family_caches()

    def test_evicted_family_is_rebuilt_in_stream_order(self, monkeypatch):
        # postings name members by their index in the stream, so a rebuilt
        # family must list them as the first build did
        _clear_family_caches()
        first = dosp_family(5, 6, 2)
        postings = _family_with_bad_blocks(5, 6, 2, 1)
        monkeypatch.setattr(sieve, "_FAMILY_CACHE_BYTES", 1)
        dosp_family(5, 6, 3)  # keeps only the newest family
        assert dosp_family.cache_info().currsize == 1
        rebuilt = dosp_family(5, 6, 2)
        assert rebuilt is not first and rebuilt == first
        assert dosp_family.cache_info().misses == 3
        # the kept postings pick the same members out of the rebuilt family
        assert _family_with_bad_blocks(5, 6, 2, 1) is postings
        assert dosps_with_bad_parts(5, 6, 2, 1, [{1}]) == [
            p for p in first if frozenset({1}) in r_bad_blocks(p, 1)
        ]
        _clear_family_caches()

    def test_family_takes_keyword_arguments(self):
        assert dosp_family(k=4, n=5, d=2) == dosp_family(4, 5, 2)

    def test_cached_functions_keep_their_names(self):
        # benchmark spans are named from __module__ and __name__
        for fn, module, name in [
            (dosp_family, "hstar_lab.sieve", "dosp_family"),
            (_family_with_bad_blocks, "hstar_lab.sieve", "_family_with_bad_blocks"),
            (_power_row, "hstar_lab.coeffcore", "_power_row"),
        ]:
            assert (fn.__module__, fn.__name__) == (module, name)


# each record class with the plain frozen dataclass of the same name and
# fields, whose equality, hash and repr it must keep
_PLAIN = {
    Dosp: make_dataclass("Dosp", ["blocks", "gaps", "k", "n"], frozen=True),
    PolytopeSpec: make_dataclass("PolytopeSpec", ["r", "k", "n"], frozen=True),
    HStarVector: make_dataclass("HStarVector", ["entries", "spec"], frozen=True),
}


def _records():
    """Every partition with k <= 4 and n <= 4, every slice with r <= 3 and
    n <= 4, and the h*-vector of each slice, grouped by class."""
    grid = {cls: [] for cls in _PLAIN}
    for k in range(1, 5):
        for n in range(1, 5):
            for d in range(n):
                grid[Dosp].extend(dosp_family(k, n, d))
    for r in range(1, 4):
        for n in range(2, 5):
            for k in range(1, r * n):
                grid[PolytopeSpec].append(PolytopeSpec(r, k, n))
                grid[HStarVector].append(hstar_closed_form(PolytopeSpec(r, k, n)))
    return grid


def _plain(value):
    """The value with every record in it, nested ones too, made plain."""
    if type(value) not in _PLAIN:
        return value
    return _PLAIN[type(value)](*(_plain(getattr(value, name)) for name in value.__slots__))


class TestSlottedRecords:
    @pytest.mark.parametrize("cls", list(_PLAIN))
    def test_no_instance_dict(self, cls):
        record = _records()[cls][-1]
        assert cls.__slots__ == tuple(f.name for f in fields(_PLAIN[cls]))
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("cls", list(_PLAIN))
    def test_fields_are_frozen_and_no_others_attach(self, cls):
        record = _records()[cls][-1]
        for name in cls.__slots__:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$") as exc:
                setattr(record, name, None)
            assert exc.type is AttributeError
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", None)

    @pytest.mark.parametrize("cls", list(_PLAIN))
    def test_equal_fields_in_a_subclass_are_unequal(self, cls):
        # as between dataclasses, equality needs the same class
        record = _records()[cls][-1]
        sub = type(cls.__name__, (cls,), {})
        twin = sub(*(getattr(record, name) for name in cls.__slots__))
        assert record != twin and twin != record

    @pytest.mark.parametrize("cls", list(_PLAIN))
    def test_equality_hashing_and_pickling_come_from_the_base(self, cls):
        # equality, hashing and pickling come from spec._Frozen's field getter
        assert not {"__eq__", "__hash__", "__reduce__"} & set(cls.__dict__)

    def test_pickle_and_deepcopy_round_trip(self):
        for records in _records().values():
            for record in records:
                for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                    assert type(clone) is type(record)
                    assert clone == record and hash(clone) == hash(record)
                    assert repr(clone) == repr(record)
                    assert not hasattr(clone, "__dict__")

    def test_hash_eq_and_repr_match_plain_dataclasses(self):
        records = [x for group in _records().values() for x in group]
        plain = [_plain(x) for x in records]
        assert [hash(x) for x in records] == [hash(y) for y in plain]
        assert [repr(x) for x in records] == [repr(y) for y in plain]
        for x, px in zip(records, plain):
            assert [x == y for y in records] == [px == py for py in plain]


class TestSieveTerm:
    def test_worked_example(self):
        assert sieve_term(4, 5, 1, 1, {1, 2, 3}) == 0

    @pytest.mark.parametrize("r", [1, 2])
    def test_empty_ground(self, r):
        # the eq6 suite marks nonempty ground sets only
        for n in range(2, 7):
            for k in range(1, 7):
                for d in range(n):
                    term = sieve_term(k, n, d, r, ())
                    assert term == count_dosps(k, n, d), (k, n, d, r)
                    assert term == sieve_term_closed_form(k, n, d, r, 0), (k, n, d, r)

    def test_full_ground_set_vanishes(self):
        for n in range(2, 6):
            for k in range(1, n):
                for d in range(n):
                    assert sieve_term(k, n, d, 1, range(1, n + 1)) == 0

    def test_shift_invariance(self):
        # relabeling the ground set cyclically does not change the term
        for k, n, d, r in [(3, 4, 1, 1), (4, 5, 1, 1), (4, 4, 2, 2)]:
            for m in (1, 2):
                for ground in combinations(range(1, n + 1), m):
                    base = sieve_term(k, n, d, r, frozenset(ground))
                    for s in range(n):
                        shifted = frozenset((t - 1 + s) % n + 1 for t in ground)
                        assert sieve_term(k, n, d, r, shifted) == base


def _reference_has_increasing_run(partition, r, ground):
    """Whether the partition carries consecutive marked singleton blocks, two
    or more, at gaps exactly r (the final gap at least r) with increasing
    elements, by an offset walk from each marked singleton: the reference
    for the packed-pair postings that run_free_family reads."""
    ground = frozenset(ground)
    m = len(partition.blocks)
    if m < 2:
        return False
    singlet = [len(b) == 1 and min(b) in ground for b in partition.blocks]
    elt = [min(b) for b in partition.blocks]
    gaps = partition.gaps
    for start in range(m):
        if not singlet[start]:
            continue
        for offset in range(1, m):
            cur = (start + offset - 1) % m
            nxt = (start + offset) % m
            if not (singlet[nxt] and gaps[cur] == r and elt[cur] < elt[nxt]):
                break
            if gaps[nxt] >= r:
                return True
    return False


class TestPackedRuns:
    def test_increasing_run_detected(self):
        p = parse_dosp("({1}_2,{2}_2,{3}_2,{4,7,8,9}_1,{5}_2,{6}_2,{10,11,12}_1)", 12, 12)
        ground = {1, 2, 3, 5}
        # the family of type (12, 12) is too large to list, so the pairs
        # that run_free_family reads off the postings are read directly
        assert _packed_pairs(p, 2) == [(1, 2), (2, 3), (5, 6)]
        # {6} is not marked, so ({5},{6}) is not a packed run
        assert packed_run_partition(p, 2, ground) == (
            frozenset({1, 2, 3}),
            frozenset({5}),
        )

    def test_decreasing_pair_is_not_increasing(self):
        # ({2},{1}) sits at gap exactly 2, but 2 > 1: the running example, of
        # a family too large to list, carries no packed pair
        assert _packed_pairs(running_example(), 2) == []

    def test_gap_must_be_exact(self):
        # first gap 2 > r = 1 breaks the run even though both are marked
        p = parse_dosp("({1}_2,{2}_1,{3,4}_1)", 4, 4)
        assert p in run_free_family(4, 4, winding_number(p), 1, {1, 2})
        # at gap exactly 1 the pair is a run
        q = parse_dosp("({1}_1,{2}_2,{3,4}_1)", 4, 4)
        assert q in dosps_with_bad_parts(4, 4, winding_number(q), 1, singles({1, 2}))
        assert q not in run_free_family(4, 4, winding_number(q), 1, {1, 2})

    def test_run_partition_requires_singletons(self):
        with pytest.raises(ValueError, match="not singleton"):
            packed_run_partition(parse_dosp("({1,2}_2,{3}_1)", 3, 3), 1, {1})

    def test_run_partition_requires_bad_singletons(self):
        # {1} has gap 1 < r = 2, so it is not a valid marked singleton
        with pytest.raises(ValueError, match="gap below"):
            packed_run_partition(parse_dosp("({1}_1,{2,3}_2)", 3, 3), 2, {1})


class TestSpread:
    def test_worked_spread(self):
        q = parse_dosp("({1,2,3}_6,{4,7,8,9,12}_1,{5,6}_4,{10,11}_1)", 12, 12)
        image = spread_bad_parts(q, 2, [{1, 2, 3}, {5, 6}])
        expected = parse_dosp(
            "({1}_2,{2}_2,{3}_2,{4,7,8,9,12}_1,{5}_2,{6}_2,{10,11}_1)", 12, 12
        )
        assert image == expected
        assert winding_number(image) == winding_number(q)

    def test_identity_on_singletons(self):
        for p in dosps_with_bad_parts(4, 5, 1, 1, singles({1, 2})):
            assert spread_bad_parts(p, 1, singles({1, 2})) == p

    def test_image_reads_one_shot_parts_once(self):
        # the parts are read for the family and again for every member
        expected = {parse_dosp(f, 4, 3) for f in ("({1}_1,{2}_1,{3}_2)", "({1}_1,{2}_2,{3}_1)")}
        assert spread_image(4, 3, 1, 1, iter([{1, 2}])) == expected

    def test_rejects_missing_part(self):
        p = parse_dosp("({1,2,3}_3,{4,5}_1)", 4, 5)
        with pytest.raises(ValueError, match="not a block"):
            spread_bad_parts(p, 1, [{1, 2}])

    def test_rejects_non_bad_part(self):
        p = parse_dosp("({1,2,3}_2,{4,5}_2)", 4, 5)
        with pytest.raises(ValueError, match="not r-bad"):
            spread_bad_parts(p, 1, [{1, 2, 3}])

    def test_injective_with_run_marked_image(self):
        # exhaustive: the embedding is injective, preserves the winding
        # number, and its image is exactly the members carrying the runs
        for k, n, r in [(4, 5, 1), (4, 4, 2), (5, 4, 1), (5, 5, 1)]:
            for d in range(n):
                for m in (1, 2, 3):
                    for ground in map(frozenset, combinations(range(1, n), m)):
                        base = dosps_with_bad_parts(k, n, d, r, singles(ground))
                        for parts in unordered_partitions(ground):
                            family = dosps_with_bad_parts(k, n, d, r, parts)
                            image = [spread_bad_parts(p, r, parts) for p in family]
                            assert len(set(image)) == len(family)
                            for source, target in zip(family, image):
                                assert winding_number(target) == winding_number(source) == d
                            chi = [p for p in base if _reference_chi_by_runs(p, r, ground, parts)]
                            assert spread_image(k, n, d, r, parts) == set(chi)


class TestChiEquivalence:
    def test_interval_condition_matters(self):
        # {1,3} refines the run {1,2,3} setwise but is not an interval of it
        p = parse_dosp("({1}_1,{2}_1,{3}_1,{4,5}_1)", 4, 5)
        ground = {1, 2, 3}
        assert packed_run_partition(p, 1, ground) == (frozenset({1, 2, 3}),)
        assert _reference_chi_by_runs(p, 1, ground, (frozenset({1, 2}), frozenset({3})))
        assert not _reference_chi_by_runs(p, 1, ground, (frozenset({1, 3}), frozenset({2})))
        assert p not in spread_image(4, 5, 1, 1, (frozenset({1, 3}), frozenset({2})))


class TestRunFreeFamily:
    def test_empty_ground_is_whole_family(self):
        assert run_free_family(4, 5, 1, 1, ()) == list(dosp_family(4, 5, 1))

    def test_size_matches_coefficient(self):
        for r in (1, 2):
            for n in range(2, 7):
                for k in range(1, 7):
                    for m in range(0, 4):
                        for ground_tuple in combinations(range(1, n), m):
                            for d in range(n):
                                size = len(run_free_family(k, n, d, r, ground_tuple))
                                a = k - r * m
                                assert size == restricted_coeff(n, a * d - m, a)

    def test_running_example_is_run_free(self):
        p = running_example()
        ground = {1, 2, 9}
        assert all(
            frozenset({t}) in p.blocks and p.gaps[p.blocks.index(frozenset({t}))] >= 2
            for t in ground
        )
        # the family of type (12, 14) is too large to list: no packed pair
        assert _packed_pairs(p, 2) == []


class TestSecondWindingVector:
    def test_worked_example(self):
        v = second_winding_vector(running_example(), 2, {1, 2, 9})
        assert v == RUNNING_V
        # 12 - 2*3 = 6 blue spots, winding number 4
        assert sum(v) == 6 * 4

    def test_empty_ground_reads_off_the_winding_vector(self):
        # with nothing marked every spot is blue; twin of the rebuild test
        # TestSecondWindingReconstruction.test_empty_ground_reduces_to_winding_vector
        cases = 0
        for k in range(1, 7):
            for n in range(1, 7):
                for d in range(n):
                    for p in dosp_family(k, n, d):
                        w = winding_vector(p)
                        for r in (1, 2, 3):
                            assert second_winding_vector(p, r, ()) == w, (p, r)
                            cases += 1
        assert cases == 45105

    def test_marked_entries_never_zero(self):
        for k, n, r in [(4, 4, 1), (5, 4, 1), (6, 4, 2)]:
            for d in range(n):
                for m in (1, 2):
                    for ground_tuple in combinations(range(1, n), m):
                        ground = frozenset(ground_tuple)
                        for p in run_free_family(k, n, d, r, ground):
                            v = second_winding_vector(p, r, ground)
                            assert type(v) is tuple
                            assert all(v[t - 1] >= 1 for t in ground)
                            assert sum(v) == (k - r * m) * d

    def test_rejects_non_singleton_marked_element(self):
        p = parse_dosp("({1,2}_2,{3}_1,{4,5}_1)", 4, 5)
        with pytest.raises(ValueError, match="not a singleton"):
            second_winding_vector(p, 1, {1})

    def test_rejects_insufficient_empty_spots(self):
        p = parse_dosp("({1}_1,{2}_1,{3,4}_2)", 4, 4)
        with pytest.raises(ValueError, match="empty spots"):
            second_winding_vector(p, 2, {1})

    def test_rejects_packed_pair_of_consecutive_elements(self):
        # {1}, {2} is a packed pair, so 1 and 2 share a blue spot and the
        # marked entry v_1 reads 0
        p = parse_dosp("({1}_1,{2}_1,{3,4}_2)", 4, 4)
        with pytest.raises(ValueError) as info:
            second_winding_vector(p, 1, {1, 2})
        assert str(info.value) == "entry v_1=0 outside 1..2 for a marked element"

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="marked"):
            dosp_from_second_winding_vector((0, 0, 0), 4, 1, frozenset({1}))
        with pytest.raises(ValueError, match="outside"):
            dosp_from_second_winding_vector((5, 0, 0), 4, 1, frozenset({1}))
        with pytest.raises(ValueError, match="multiple"):
            dosp_from_second_winding_vector((1, 1, 0), 4, 1, frozenset({1}))
        with pytest.raises(ValueError, match="positive"):
            dosp_from_second_winding_vector((1, 0, 0), 4, 4, frozenset({1}))
        with pytest.raises(ValueError, match="nonempty"):
            dosp_from_second_winding_vector((), 4, 1, frozenset())
        with pytest.raises(ValueError, match="must not contain 3"):
            dosp_from_second_winding_vector((1, 1, 1), 4, 1, frozenset({3}))

    @pytest.mark.parametrize("v", [(1.0, 1, 1), (True, 1, 1)])
    def test_rejects_non_integer_input(self, v):
        # non-integer k and r are rows of test_arguments.py
        with pytest.raises(TypeError, match="^second winding entries must be integers$"):
            dosp_from_second_winding_vector(v, 4, 1, {1})

    def test_rejects_bool_k(self):
        # with no marked element the blue count True - 0 is the int 1
        with pytest.raises(TypeError, match="^k must be an integer$"):
            dosp_from_second_winding_vector((0,), True, 1, ())

    def test_rejects_non_integer_r_before_the_walk(self):
        p = parse_dosp("({1}_2,{2,3}_1,{4}_1)", 4, 4)
        with pytest.raises(TypeError, match="^r must be an integer$"):
            second_winding_vector(p, 1.0, {1})

    def test_any_sequence_and_ground_build_one_value(self):
        canonical = dosp_from_second_winding_vector((1, 1, 1), 4, 1, frozenset({1}))
        for v, ground in [([1, 1, 1], {1}), ((1, 1, 1), [1]), (iter((1, 1, 1)), (1,))]:
            built = dosp_from_second_winding_vector(v, 4, 1, ground)
            assert built == canonical and hash(built) == hash(canonical)

    def test_read_off_memory_grows_with_n_not_k(self):
        # one skip per block: a skip per spot took 80 MB at k = 10**7
        p = Dosp([[1], [2]], [1, 10**7 - 1], 10**7, 2)
        tracemalloc.start()
        try:
            v = second_winding_vector(p, 1, [1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v == (1, 10**7 - 2) and peak < 2**20


class TestSecondWindingReconstruction:
    def test_worked_reconstruction(self):
        rebuilt = dosp_from_second_winding_vector(RUNNING_V, 12, 2, frozenset({1, 2, 9}))
        assert rebuilt == running_example()

    def test_empty_ground_reduces_to_winding_vector(self):
        for w in enumerate_winding_vectors(3, 4, 1):
            direct = dosp_from_winding_vector(w, 3)
            via_second = dosp_from_second_winding_vector(w, 3, 1, frozenset())
            assert via_second == direct

    def test_rejects_invalid_vectors(self):
        # the vector is rejected before anything is rebuilt from it
        # marked entry zero
        with pytest.raises(ValueError):
            dosp_from_second_winding_vector((0, 0, 0), 4, 1, {1})
        # unmarked entry at the blue count (must stay below it)
        with pytest.raises(ValueError):
            dosp_from_second_winding_vector((1, 3, 2), 4, 1, {1})
        # sum not a multiple of the blue count
        with pytest.raises(ValueError):
            dosp_from_second_winding_vector((1, 1, 0), 4, 1, {1})

    def test_empty_ground_builds_no_pad(self):
        # with nothing marked r lays no spot, and an r - 1 pad of 10**7 spots
        # took 80 MB to rebuild ({1}_1)
        tracemalloc.start()
        try:
            rebuilt = dosp_from_second_winding_vector((0,), 1, 10**7, ())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rebuilt == parse_dosp("({1}_1)", 1, 1) and peak < 2**20

    def test_stream_rejects_non_integer_k(self):
        with pytest.raises(TypeError, match="^k must be an integer$"):
            list(enumerate_second_winding_vectors(4.0, 3, 1, 1, {1}))

    def test_overlong_walk_fails_the_fill_check(self, monkeypatch):
        # a walk one blue spot too long expands past the k spots of the circle
        walk = sieve._walk
        monkeypatch.setattr(sieve, "_walk", lambda v, size: [*walk(v, size), 0])
        with pytest.raises(AssertionError, match="^spot expansion must fill the whole circle$"):
            dosp_from_second_winding_vector((1, 1, 1), 4, 1, {1})

    @pytest.mark.parametrize("r, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_rebuilt_storage_is_checked_storage(self, r, m):
        # the round trip itself is the prop5 suite of `verify`, over the same
        # cases; here each rebuild, stored unchecked, is what the checks store
        for n in range(2, 7):
            for k in range(1, 7):
                for ground in combinations(range(1, n), m):
                    for d in range(n):
                        for v in enumerate_second_winding_vectors(k, n, d, r, ground):
                            rebuilt = dosp_from_second_winding_vector(v, k, r, ground)
                            checked = Dosp(rebuilt.blocks, rebuilt.gaps, k, n)
                            assert hash(rebuilt) == hash(checked)
                            assert (rebuilt.blocks, rebuilt.gaps) == (checked.blocks, checked.gaps)
                            assert type(rebuilt.gaps) is tuple
                            assert all(type(b) is frozenset for b in rebuilt.blocks)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_prop5_forward_past_the_exhaustive_bounds(self, data):
        # a vector in the second-winding bounds at n <= 16, up to 6 marked
        # elements and at most 8 blue spots: a marked entry is one more than
        # an unmarked one, and the last entry makes the sum a multiple of the
        # blue count
        r = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 16))
        ground = data.draw(st.frozensets(st.integers(1, n - 1), max_size=min(6, n - 1)))
        blue = data.draw(st.integers(1, 8))
        shifted = data.draw(st.lists(st.integers(0, blue - 1), min_size=n - 1, max_size=n - 1))
        prefix = [x + (i in ground) for i, x in enumerate(shifted, start=1)]
        v = (*prefix, -sum(prefix) % blue)
        k = blue + r * len(ground)
        p = dosp_from_second_winding_vector(v, k, r, ground)
        assert second_winding_vector(p, r, ground) == v
        assert winding_number(p) == sum(v) // blue
        # run-free: each marked element an r-bad singleton, no marked packed pair
        assert {frozenset((t,)) for t in ground} <= r_bad_blocks(p, r)
        assert not [pair for pair in _packed_pairs(p, r) if set(pair) <= ground]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_prop5_backward_past_the_exhaustive_bounds(self, data):
        # a partition at n <= 16 with up to 6 of its r-bad singletons marked,
        # then one element of each marked packed pair unmarked
        r = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(2, 16))
        prefix = data.draw(st.lists(st.integers(0, k - 1), min_size=n - 1, max_size=n - 1))
        p = dosp_from_winding_vector((*prefix, -sum(prefix) % k), k)
        singles = sorted(min(b) for b in r_bad_blocks(p, r) if len(b) == 1 and n not in b)
        ground = set(data.draw(st.lists(st.sampled_from(singles), max_size=6)) if singles else ())
        for e, f in _packed_pairs(p, r):
            if e in ground and f in ground:
                ground.discard(data.draw(st.sampled_from((e, f))))
        v = second_winding_vector(p, r, ground)
        assert dosp_from_second_winding_vector(v, k, r, ground) == p


def _reference_second_winding_vector(partition, r, ground):
    """The per-spot walk that second_winding_vector replaced, followed by
    every second-winding bounds check, raised through
    dosp_from_second_winding_vector."""
    ground = frozenset(ground)
    _require_ground(ground, partition.n, r)
    diagram = SpotDiagram.from_dosp(partition)
    red = diagram.red_spots(ground, r)
    spot_of = {}
    for q, block in enumerate(diagram.occupancy):
        if block is not None:
            for e in block:
                spot_of[e] = q
    k, n = partition.k, partition.n
    v = []
    for i in range(1, n + 1):
        start = spot_of[i]
        end = spot_of[i % n + 1]
        if start == end:
            v.append(0)
            continue
        dist = (end - start) % k
        v.append(sum(1 for s in range(1, dist + 1) if (start + s) % k not in red))
    v = tuple(v)
    dosp_from_second_winding_vector(v, k, r, ground)
    return v


def _reference_dosp_from_second_winding_vector(v, k, r, ground):
    """The spot-layout expansion that dosp_from_second_winding_vector
    replaced, for a vector in bounds."""
    n = len(v)
    blue = k - r * len(ground)
    spots = [[] for _ in range(blue)]
    q = 0
    spots[0].append(1)
    for i in range(1, n):
        q = (q + v[i - 1]) % blue
        spots[q].append(i + 1)
    layout = []
    for q in range(blue):
        content = set(spots[q])
        marked = sorted(content & ground)
        rest = content - ground
        layout.append(frozenset(rest) if rest else None)
        for t in reversed(marked):
            layout.append(frozenset((t,)))
            layout.extend([None] * (r - 1))
    if len(layout) != k:
        raise AssertionError("spot expansion must fill the whole circle")
    occupied = [s for s, block in enumerate(layout) if block is not None]
    blocks = tuple(layout[s] for s in occupied)
    gaps = []
    for idx, s in enumerate(occupied):
        nxt = occupied[(idx + 1) % len(occupied)]
        gaps.append((nxt - s) % k or k)
    return Dosp(blocks, tuple(gaps), k, n)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestSecondWindingReferences:
    def test_match_per_spot_walks(self):
        # every partition, r <= 3 and ground of size <= 3 avoiding n, valid
        # or rejected, and every second winding vector of each case
        for r in (1, 2, 3):
            for n in range(1, 6):
                for k in range(1, 7):
                    for m in range(4):
                        for ground_tuple in combinations(range(1, n), m):
                            ground = frozenset(ground_tuple)
                            for d in range(n):
                                for p in dosp_family(k, n, d):
                                    assert _outcome(second_winding_vector, p, r, ground) == (
                                        _outcome(_reference_second_winding_vector, p, r, ground)
                                    ), (p, r, ground)
                                for v in enumerate_second_winding_vectors(k, n, d, r, ground):
                                    assert dosp_from_second_winding_vector(v, k, r, ground) == (
                                        _reference_dosp_from_second_winding_vector(v, k, r, ground)
                                    ), v


class TestProp4:
    def test_worked_example(self):
        assert check_prop4(4, 5, 1, 1, {1, 2, 3})

    def test_single_marked_element(self):
        for k, n, d in [(3, 4, 1), (4, 5, 2), (2, 3, 1)]:
            for t in range(1, n):
                assert check_prop4(k, n, d, 1, {t})

    def test_length_four_run_collapses(self):
        # a member carrying the maximal increasing run ({1},{2},{3},{4})
        # is hit by 1, 3, 3, 1 partitions of sizes 1..4: the signed sum is 0
        p = parse_dosp("({1}_1,{2}_1,{3}_1,{4}_1,{5,6}_1)", 5, 6)
        ground = frozenset({1, 2, 3, 4})
        assert packed_run_partition(p, 1, ground) == (frozenset({1, 2, 3, 4}),)
        by_size = {}
        for parts in unordered_partitions(ground):
            if _reference_chi_by_runs(p, 1, ground, parts):
                by_size[len(parts)] = by_size.get(len(parts), 0) + 1
        assert by_size == {1: 1, 2: 3, 3: 3, 4: 1}
        signed = sum(
            (-1) ** len(parts)
            for parts in unordered_partitions(ground)
            if p in spread_image(5, 6, 1, 1, parts)
        )
        assert signed == 0


class TestProp3:
    def test_table_case(self):
        assert check_prop3(4, 5, 1, 1)

    def test_delta24(self):
        for d in range(3):
            assert check_prop3(2, 4, 1, d)

    def test_r2_case(self):
        assert check_prop3(5, 5, 2, 1)
