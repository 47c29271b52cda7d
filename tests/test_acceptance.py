"""Acceptance sweeps.  Each test prints one PASS/FAIL line (visible with
pytest -s); the assertions carry the first counterexample on failure."""

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
from hstar_lab.hstar import hstar_closed_form, raw_series_numerator
from hstar_lab.oracle import hstar_from_oracle, lattice_count_direct
from hstar_lab.enumeration import hstar_combinatorial
from hstar_lab.sieve import (
    dosp_from_second_winding_vector,
    dosps_with_bad_parts,
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
    # Lemma 1, Prop 1 and eq. 6 on nonempty ground sets are the lemma1,
    # prop1 and eq6 suites of `verify`, which tests/test_golden.py replays
    failures = []

    for spec in criterion_specs():
        if raw_series_numerator(spec) != hstar_closed_form(spec).entries:
            failures.append(("raw numerator", spec))

    # the eq6 suite marks nonempty ground sets only
    for r in (1, 2):
        for n in range(2, 7):
            for k in range(1, 7):
                for d in range(n):
                    got = sieve_term(k, n, d, r, ())
                    if got != sieve_term_closed_form(k, n, d, r, 0):
                        failures.append(("eq6", k, n, d, r, (), got))

    report("4 identity sweeps", failures)


def test_criterion_5_bijection_round_trips():
    # the round trips of Props 2 and 5 are the prop2 and prop5 suites of
    # `verify`, which tests/test_golden.py replays
    failures = []

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
