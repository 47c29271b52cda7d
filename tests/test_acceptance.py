"""Acceptance sweeps.  Each test prints one PASS/FAIL line (visible with
pytest -s); the assertions carry the first counterexample on failure."""

from itertools import combinations

from hstar_lab.coeffcore import eulerian, eulerian_by_enumeration
from hstar_lab.dosp import (
    cyclic_shift_elements,
    dosp_from_winding_vector,
    format_dosp,
    parse_dosp,
    winding_number,
    winding_vector,
)
from hstar_lab.enumeration import enumerate_winding_vectors
from hstar_lab.hstar import (
    check_lemma1,
    check_prop1,
    count_dosps,
    hstar_closed_form,
    raw_series_numerator,
)
from hstar_lab.oracle import hstar_from_oracle, lattice_count_direct
from hstar_lab.enumeration import hstar_combinatorial
from hstar_lab.sieve import (
    dosp_from_second_winding_vector,
    dosps_with_bad_parts,
    enumerate_second_winding_vectors,
    run_free_family,
    second_winding_vector,
    sieve_term,
    sieve_term_closed_form,
)
from hstar_lab.spec import PolytopeSpec


def report(criterion: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict}")
    assert not failures, f"{criterion}: first counterexample {failures[0]}"


def criterion_specs():
    for r in (1, 2, 3):
        for n in range(2, 8):
            for k in range(1, min(r * n - 1, 6) + 1):
                yield PolytopeSpec(r, k, n)


def test_criterion_1_three_way_agreement():
    failures = []
    for spec in criterion_specs():
        formula = hstar_closed_form(spec).entries
        counted = hstar_combinatorial(spec).entries
        oracle = hstar_from_oracle(spec).entries
        if not (formula == counted == oracle):
            failures.append((spec, formula, counted, oracle))
            break
    report("1 three-way h* agreement", failures)


def test_criterion_2_volume_identity():
    failures = []
    for n in range(2, 10):
        for k in range(1, n):
            total = hstar_closed_form(PolytopeSpec(1, k, n)).total()
            if total != eulerian(k, n - 1):
                failures.append((k, n, total))
    for n in range(1, 8):
        for k in range(1, n + 1):
            if eulerian(k, n) != eulerian_by_enumeration(k, n):
                failures.append(("bruteforce", k, n))
    report("2 volume identity", failures)


def test_criterion_3_golden_fixtures():
    failures = []

    example1 = parse_dosp("({1,2,7}_2,{3,5}_3,{4,6}_1)", 6, 7)
    if winding_vector(example1) != (0, 2, 3, 3, 3, 1, 0):
        failures.append(("winding vector", winding_vector(example1)))
    if winding_number(example1) != 2:
        failures.append(("winding number", winding_number(example1)))

    example8 = parse_dosp(
        "({2}_2,{1}_2,{5,6}_1,{7,8}_1,{9}_3,{11,12,13}_1,{10,14}_1,{3,4}_1)", 12, 14
    )
    second = second_winding_vector(example8, 2, {1, 2, 9})
    if second != (6, 6, 0, 1, 0, 1, 0, 0, 3, 5, 0, 0, 1, 1):
        failures.append(("second winding vector", second))
    if dosp_from_second_winding_vector(second, 12, 2, {1, 2, 9}) != example8:
        failures.append(("second winding reconstruction",))

    table = {
        (frozenset({1, 2, 3}),): ["({1,2,3}_3,{4,5}_1)"],
        (frozenset({1, 2}), frozenset({3})): ["({1,2}_2,{3}_1,{4,5}_1)"],
        (frozenset({2, 3}), frozenset({1})): ["({1}_1,{2,3}_2,{4,5}_1)"],
        (frozenset({1, 3}), frozenset({2})): [],
        (frozenset({1}), frozenset({2}), frozenset({3})): ["({1}_1,{2}_1,{3}_1,{4,5}_1)"],
    }
    for parts, expected in table.items():
        got = [format_dosp(p) for p in dosps_with_bad_parts(4, 5, 1, 1, parts)]
        if got != expected:
            failures.append(("family", parts, got))
    if sieve_term(4, 5, 1, 1, {1, 2, 3}) != 0:
        failures.append(("sieve term", sieve_term(4, 5, 1, 1, {1, 2, 3})))

    report("3 golden fixtures", failures)


def test_criterion_4_identity_sweeps():
    failures = []

    for n in range(1, 13):
        for m in range(1, 13):
            for a in range(1, 7):
                if not check_lemma1(n, m, a):
                    failures.append(("lemma1", n, m, a))

    # the series-shift identity applies for s <= n; rows of negative upper
    # index vanish, and the sweep covers the whole applicable box
    for s in range(0, 6):
        for a in range(1, 5):
            for n in range(s, 9):
                if not check_prop1(s, a, n, 10):
                    failures.append(("prop1", s, a, n))

    for spec in criterion_specs():
        if raw_series_numerator(spec) != hstar_closed_form(spec).entries:
            failures.append(("raw numerator", spec))

    for r in (1, 2):
        for n in range(2, 7):
            for k in range(1, 7):
                for m in range(0, 4):
                    for ground in combinations(range(1, n), m):
                        for d in range(n):
                            got = sieve_term(k, n, d, r, ground)
                            if got != sieve_term_closed_form(k, n, d, r, m):
                                failures.append(("eq6", k, n, d, r, ground, got))

    report("4 identity sweeps", failures)


def test_criterion_5_bijection_round_trips():
    failures = []

    # winding vectors <-> partitions, exhaustively
    for k in range(1, 5):
        for n in range(1, 6):
            for d in range(n):
                vectors = list(enumerate_winding_vectors(k, n, d))
                partitions = [dosp_from_winding_vector(w, k) for w in vectors]
                if len(set(partitions)) != len(vectors):
                    failures.append(("prop2 injectivity", k, n, d))
                if len(vectors) != count_dosps(k, n, d):
                    failures.append(("prop2 count", k, n, d))
                for w, p in zip(vectors, partitions):
                    if winding_vector(p) != w:
                        failures.append(("prop2 inverse", k, n, d, w))

    # second winding vectors <-> run-free families, exhaustively
    for r in (1, 2):
        for n in range(2, 7):
            for k in range(1, 7):
                for m in (1, 2):
                    for ground_tuple in combinations(range(1, n), m):
                        ground = frozenset(ground_tuple)
                        for d in range(n):
                            members = run_free_family(k, n, d, r, ground)
                            vectors = list(
                                enumerate_second_winding_vectors(k, n, d, r, ground)
                            )
                            if len(members) != len(vectors):
                                failures.append(("prop5 count", k, n, d, r, ground_tuple))
                                continue
                            forward = set()
                            for p in members:
                                v = second_winding_vector(p, r, ground)
                                if dosp_from_second_winding_vector(v, k, r, ground) != p:
                                    failures.append(("prop5 inverse", k, n, d, r, p))
                                forward.add(v)
                            if forward != set(vectors):
                                failures.append(("prop5 image", k, n, d, r, ground_tuple))

    # relabeling invariance of the winding number, exhaustively
    for k in range(1, 5):
        for n in range(1, 6):
            for d in range(n):
                for w in enumerate_winding_vectors(k, n, d):
                    p = dosp_from_winding_vector(w, k)
                    for s in range(n):
                        if winding_number(cyclic_shift_elements(p, s)) != d:
                            failures.append(("lemma2", k, n, d, s, w))

    report("5 bijection round trips", failures)


def test_criterion_6_delta24_trace():
    failures = []
    spec = PolytopeSpec(1, 2, 4)
    trace = [lattice_count_direct(spec, t) for t in range(4)]
    if trace != [1, 6, 19, 44]:
        failures.append(("lattice trace", trace))
    for name, vec in (
        ("formula", hstar_closed_form(spec)),
        ("enum", hstar_combinatorial(spec)),
        ("oracle", hstar_from_oracle(spec)),
    ):
        if vec.entries != (1, 2, 1, 0):
            failures.append((name, vec.entries))
    report("6 derived vector", failures)
