"""Each argument rule has one check and one message.  Every integer argument
is an int (a bool is not) of at least its least value: k, n, r and a at least
1; d, m, s, t, max_degree, length, bound and shift at least 0.  The arguments
of restricted_coeff are only type-checked, since its degenerate values have
fixed conventions, and so are those of eulerian and eulerian_by_enumeration,
whose range message names both k and n.  A marked ground set holds ints in
1..n-1, the ground of sieve_term and the parts of dosps_with_bad_parts
hold ints in 1..n, and the elements of unordered_partitions are ints.
Elements are checked as given, before any set would merge True into 1."""

import pytest

from hstar_lab.coeffcore import eulerian, eulerian_by_enumeration, restricted_coeff
from hstar_lab.dosp import (
    Dosp,
    cyclic_shift_elements,
    dosp_from_winding_vector,
    is_r_hypersimplicial,
    parse_dosp,
    r_bad_blocks,
)
from hstar_lab.enumeration import (
    bounded_vectors,
    count_r_hypersimplicial,
    enumerate_winding_vectors,
    iter_dosps,
)
from hstar_lab.hstar import check_lemma1, check_prop1, count_dosps
from hstar_lab.oracle import lattice_count, lattice_count_direct
from hstar_lab.sieve import (
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
from hstar_lab.spec import PolytopeSpec

# one spec for every call: type (4, 3), winding number 1, element 1 marked
K, N, D = 4, 3, 1
P = run_free_family(K, N, D, 1, {1})[0]
V = second_winding_vector(P, 1, {1})
SPEC = PolytopeSpec(1, 2, N)

# every public function that takes r, called on the spec above
TAKES_R = {
    "r_bad_blocks": lambda r: r_bad_blocks(P, r),
    "is_r_hypersimplicial": lambda r: is_r_hypersimplicial(P, r),
    "count_r_hypersimplicial": lambda r: count_r_hypersimplicial(K, N, r, D),
    "dosps_with_bad_parts": lambda r: dosps_with_bad_parts(K, N, D, r, [{1}]),
    "sieve_term": lambda r: sieve_term(K, N, D, r, {1}),
    "sieve_term_closed_form": lambda r: sieve_term_closed_form(K, N, D, r, 1),
    "spread_bad_parts": lambda r: spread_bad_parts(P, r, [{1}]),
    "spread_image": lambda r: spread_image(K, N, D, r, [{1}]),
    "run_free_family": lambda r: run_free_family(K, N, D, r, {1}),
    "second_winding_vector": lambda r: second_winding_vector(P, r, {1}),
    "dosp_from_second_winding_vector": lambda r: dosp_from_second_winding_vector(V, K, r, {1}),
    "enumerate_second_winding_vectors": lambda r: list(
        enumerate_second_winding_vectors(K, N, D, r, {1})
    ),
    "check_prop4": lambda r: check_prop4(K, N, D, r, {1}),
    "check_prop3": lambda r: check_prop3(K, N, r, D),
}

# every public function that takes a marked ground set, called on the spec
TAKES_GROUND = {
    "spread_bad_parts": lambda g: spread_bad_parts(P, 1, [g]),
    "spread_image": lambda g: spread_image(K, N, D, 1, [g]),
    "run_free_family": lambda g: run_free_family(K, N, D, 1, g),
    "second_winding_vector": lambda g: second_winding_vector(P, 1, g),
    "dosp_from_second_winding_vector": lambda g: dosp_from_second_winding_vector(V, K, 1, g),
    "enumerate_second_winding_vectors": lambda g: list(
        enumerate_second_winding_vectors(K, N, D, 1, g)
    ),
    "check_prop4": lambda g: check_prop4(K, N, D, 1, g),
}

# the two that also take n: the ground of sieve_term and the parts of
# dosps_with_bad_parts
TAKES_ELEMENTS_UP_TO_N = {
    "sieve_term": lambda g: sieve_term(K, N, D, 1, g),
    "dosps_with_bad_parts": lambda g: dosps_with_bad_parts(K, N, D, 1, [g]),
}

# every public function that takes k, n, d, m, t, a, s, max_degree, length,
# bound or shift: (function, argument) -> (least value, a call, valid at the
# least value, on the spec above or, where that value breaks it, on a smaller
# one)
TAKES_SIZES = {
    ("Dosp", "k"): (1, lambda k: Dosp((frozenset({1}),), (1,), k, 1)),
    ("Dosp", "n"): (1, lambda n: Dosp((frozenset({1}),), (1,), 1, n)),
    ("parse_dosp", "k"): (1, lambda k: parse_dosp("({1}_1)", k, 1)),
    ("parse_dosp", "n"): (1, lambda n: parse_dosp("({1}_1)", 1, n)),
    ("dosp_from_winding_vector", "k"): (1, lambda k: dosp_from_winding_vector((0, 0, 0), k)),
    ("cyclic_shift_elements", "shift"): (0, lambda s: cyclic_shift_elements(P, s)),
    ("bounded_vectors", "length"): (0, lambda length: list(bounded_vectors(length, 2, 2))),
    ("bounded_vectors", "bound"): (0, lambda bound: list(bounded_vectors(3, bound, 2))),
    ("enumerate_winding_vectors", "k"): (1, lambda k: enumerate_winding_vectors(k, N, D)),
    ("enumerate_winding_vectors", "n"): (1, lambda n: enumerate_winding_vectors(K, n, D)),
    ("enumerate_winding_vectors", "d"): (0, lambda d: enumerate_winding_vectors(K, N, d)),
    ("iter_dosps", "k"): (1, lambda k: list(iter_dosps(k, N, D))),
    ("iter_dosps", "n"): (1, lambda n: list(iter_dosps(K, n, D))),
    ("iter_dosps", "d"): (0, lambda d: list(iter_dosps(K, N, d))),
    ("count_r_hypersimplicial", "k"): (1, lambda k: count_r_hypersimplicial(k, N, 1, D)),
    ("count_r_hypersimplicial", "n"): (1, lambda n: count_r_hypersimplicial(K, n, 1, D)),
    ("count_r_hypersimplicial", "d"): (0, lambda d: count_r_hypersimplicial(K, N, 1, d)),
    ("count_dosps", "k"): (1, lambda k: count_dosps(k, N, D)),
    ("count_dosps", "n"): (1, lambda n: count_dosps(K, n, D)),
    ("count_dosps", "d"): (0, lambda d: count_dosps(K, N, d)),
    ("check_lemma1", "n"): (1, lambda n: check_lemma1(n, 2, 2)),
    ("check_lemma1", "m"): (0, lambda m: check_lemma1(N, m, 2)),
    ("check_lemma1", "a"): (1, lambda a: check_lemma1(N, 2, a)),
    ("check_prop1", "s"): (0, lambda s: check_prop1(s, 2, N, 4)),
    ("check_prop1", "a"): (1, lambda a: check_prop1(0, a, N, 4)),
    # the series-shift identity holds for the empty power, n = 0
    ("check_prop1", "n"): (0, lambda n: check_prop1(0, 2, n, 4)),
    ("check_prop1", "max_degree"): (0, lambda top: check_prop1(0, 2, N, top)),
    ("lattice_count", "t"): (0, lambda t: lattice_count(SPEC, t)),
    ("lattice_count_direct", "t"): (0, lambda t: lattice_count_direct(SPEC, t)),
    ("dosp_family", "k"): (1, lambda k: dosp_family(k, N, D)),
    ("dosp_family", "n"): (1, lambda n: dosp_family(K, n, D)),
    ("dosp_family", "d"): (0, lambda d: dosp_family(K, N, d)),
    ("dosps_with_bad_parts", "k"): (1, lambda k: dosps_with_bad_parts(k, N, D, 1, [{1}])),
    ("dosps_with_bad_parts", "n"): (1, lambda n: dosps_with_bad_parts(K, n, D, 1, [{1}])),
    ("dosps_with_bad_parts", "d"): (0, lambda d: dosps_with_bad_parts(K, N, d, 1, [{1}])),
    ("sieve_term", "k"): (1, lambda k: sieve_term(k, N, D, 1, {1})),
    ("sieve_term", "n"): (1, lambda n: sieve_term(K, n, D, 1, {1})),
    ("sieve_term", "d"): (0, lambda d: sieve_term(K, N, d, 1, {1})),
    ("sieve_term_closed_form", "k"): (1, lambda k: sieve_term_closed_form(k, N, D, 1, 1)),
    ("sieve_term_closed_form", "n"): (1, lambda n: sieve_term_closed_form(K, n, D, 1, 1)),
    ("sieve_term_closed_form", "d"): (0, lambda d: sieve_term_closed_form(K, N, d, 1, 1)),
    ("sieve_term_closed_form", "m"): (0, lambda m: sieve_term_closed_form(K, N, D, 1, m)),
    ("spread_image", "k"): (1, lambda k: spread_image(k, N, D, 1, [{1}])),
    ("spread_image", "n"): (1, lambda n: spread_image(K, n, D, 1, [{1}])),
    ("spread_image", "d"): (0, lambda d: spread_image(K, N, d, 1, [{1}])),
    ("run_free_family", "k"): (1, lambda k: run_free_family(k, N, D, 1, {1})),
    ("run_free_family", "n"): (1, lambda n: run_free_family(K, n, D, 1, ())),
    ("run_free_family", "d"): (0, lambda d: run_free_family(K, N, d, 1, {1})),
    ("dosp_from_second_winding_vector", "k"): (
        1,
        lambda k: dosp_from_second_winding_vector((0, 0, 0), k, 1, ()),
    ),
    ("enumerate_second_winding_vectors", "k"): (
        1,
        lambda k: list(enumerate_second_winding_vectors(k, N, D, 1, {1})),
    ),
    ("enumerate_second_winding_vectors", "n"): (
        1,
        lambda n: list(enumerate_second_winding_vectors(K, n, D, 1, ())),
    ),
    ("enumerate_second_winding_vectors", "d"): (
        0,
        lambda d: list(enumerate_second_winding_vectors(K, N, d, 1, {1})),
    ),
    ("check_prop4", "k"): (1, lambda k: check_prop4(k, N, D, 1, {1})),
    ("check_prop4", "n"): (1, lambda n: check_prop4(K, n, D, 1, ())),
    ("check_prop4", "d"): (0, lambda d: check_prop4(K, N, d, 1, {1})),
    ("check_prop3", "k"): (1, lambda k: check_prop3(k, N, 1, D)),
    ("check_prop3", "n"): (1, lambda n: check_prop3(K, n, 1, D)),
    ("check_prop3", "d"): (0, lambda d: check_prop3(K, N, 1, d)),
}


@pytest.mark.parametrize("name", TAKES_R)
@pytest.mark.parametrize("r", [True, 1.5, 0, -1])
def test_bad_r_is_refused_with_one_message(name, r):
    call = TAKES_R[name]
    # the warm call fills any cache, so a True that hashes like 1 would hit it
    call(1)
    if type(r) is int:
        error, message = ValueError, "^r must be at least 1$"
    else:
        error, message = TypeError, "^r must be an integer$"
    with pytest.raises(error, match=message):
        call(r)


@pytest.mark.parametrize("key", TAKES_SIZES, ids="-".join)
@pytest.mark.parametrize("value", ["true", "half", "below"])
def test_bad_size_is_refused_with_the_template_message(key, value):
    least, call = TAKES_SIZES[key]
    name = key[1]
    # the warm call, at the least value, is valid and fills any cache, so a
    # True that hashes like 1 would hit it
    call(least)
    if value == "below":
        error, message, bad = ValueError, f"^{name} must be at least {least}$", least - 1
    else:
        error, message = TypeError, f"^{name} must be an integer$"
        bad = True if value == "true" else least + 0.5
    with pytest.raises(error, match=message):
        call(bad)


@pytest.mark.parametrize("name", "rkn")
@pytest.mark.parametrize("value", [True, 1.5])
def test_polytope_spec_refuses_non_integers_with_the_template_message(name, value):
    # its ranges keep the messages the CLI prints; only the type check is shared
    fields = {"r": 1, "k": 2, "n": N, name: value}
    with pytest.raises(TypeError, match=f"^{name} must be an integer$"):
        PolytopeSpec(**fields)


@pytest.mark.parametrize("name", "nba")
@pytest.mark.parametrize("value", [True, 1.5])
def test_restricted_coeff_refuses_non_integers_with_the_template_message(name, value):
    # only the types are shared: its zero conventions cover the ranges
    fields = {"n": 3, "b": 1, "a": 2, name: value}
    with pytest.raises(TypeError, match=f"^{name} must be an integer$"):
        restricted_coeff(**fields)


@pytest.mark.parametrize("function", [eulerian, eulerian_by_enumeration])
@pytest.mark.parametrize("name", "kn")
@pytest.mark.parametrize("value", [True, 1.5])
def test_eulerian_refuses_non_integers_with_the_template_message(function, name, value):
    # only the types are shared: its range keeps the message naming both
    fields = {"k": 1, "n": 3, name: value}
    with pytest.raises(TypeError, match=f"^{name} must be an integer$"):
        function(**fields)


@pytest.mark.parametrize("function", [eulerian, eulerian_by_enumeration])
def test_eulerian_range_keeps_its_message(function):
    function(1, 3)  # the brute force's counts for n = 3 are cached from here
    for k, n in [(0, 3), (4, 3), (-1, 5)]:
        with pytest.raises(ValueError, match=rf"^eulerian\(k={k}, n={n}\) requires 1 <= k <= n$"):
            function(k, n)


@pytest.mark.parametrize("name", TAKES_GROUND)
@pytest.mark.parametrize("element", [N, 0])
def test_ground_outside_one_to_n_minus_one_is_refused(name, element):
    if element == N:
        message = f"^ground set must not contain {N}$"
    else:
        message = f"^ground element {element} outside 1..{N}$"
    with pytest.raises(ValueError, match=message):
        TAKES_GROUND[name]({element})


@pytest.mark.parametrize("name", [*TAKES_GROUND, *TAKES_ELEMENTS_UP_TO_N])
@pytest.mark.parametrize("element", [1.5, 1.0, True, 0, N + 1], ids=repr)
def test_bad_ground_or_part_element_is_refused(name, element):
    call = TAKES_GROUND.get(name) or TAKES_ELEMENTS_UP_TO_N[name]
    call({1})
    if type(element) is int:
        error, message = ValueError, f"^ground element {element} outside 1..{N}$"
    else:
        error, message = TypeError, f"^ground element {element!r} is not an integer$"
    with pytest.raises(error, match=message):
        call({element})


@pytest.mark.parametrize("name", [*TAKES_GROUND, *TAKES_ELEMENTS_UP_TO_N])
def test_bool_beside_its_equal_int_is_refused(name):
    # a set of [1, True] would hold 1 alone and pass the checks after it
    call = TAKES_GROUND.get(name) or TAKES_ELEMENTS_UP_TO_N[name]
    call([1])
    with pytest.raises(TypeError, match="^ground element True is not an integer$"):
        call([1, True])


@pytest.mark.parametrize("element", [True, False, 1.0, 1.5, "a", None], ids=repr)
def test_unordered_partitions_refuses_a_non_int_element(element):
    # checked before the set of elements, in which True would merge into 1,
    # and before the cache, whose key (1,) equals (True,)
    assert unordered_partitions([2, 1]) == [(frozenset({1, 2}),), (frozenset({1}), frozenset({2}))]
    assert unordered_partitions([1]) == [(frozenset({1}),)]
    with pytest.raises(TypeError, match=f"^ground element {element!r} is not an integer$"):
        unordered_partitions([1, element])
    with pytest.raises(TypeError, match=f"^ground element {element!r} is not an integer$"):
        unordered_partitions([element])


@pytest.mark.parametrize("name", TAKES_ELEMENTS_UP_TO_N)
def test_sieve_term_ground_and_parts_may_hold_n(name):
    # check_prop3 passes every subset of {1..n} to sieve_term
    TAKES_ELEMENTS_UP_TO_N[name]({N})


@pytest.mark.parametrize("k,n,d", [(3, 4, True), (3, 4, 1.5), (3.0, 4, 1), (3, True, 1)])
def test_winding_vector_stream_refuses_non_integer_sizes_at_the_call(k, n, d):
    name = next(name for name, v in zip("knd", (k, n, d)) if type(v) is not int)
    with pytest.raises(TypeError, match=f"^{name} must be an integer$"):
        enumerate_winding_vectors(k, n, d)
