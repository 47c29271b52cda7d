"""Each argument rule has one check and one message: r is an int (a bool is
not) of at least 1, a marked ground set lies in 1..n-1, and (k, n, d) are
ints with k, n >= 1 and d >= 0."""

import pytest

from hstar_lab.dosp import is_r_hypersimplicial, r_bad_blocks
from hstar_lab.enumeration import count_r_hypersimplicial, enumerate_winding_vectors
from hstar_lab.sieve import (
    check_prop3,
    check_prop4,
    dosp_from_second_winding_vector,
    dosps_with_bad_parts,
    enumerate_second_winding_vectors,
    has_increasing_r_packed_gt1,
    run_free_family,
    second_winding_vector,
    sieve_term,
    sieve_term_closed_form,
    spread_bad_parts,
    spread_image,
)

# one spec for every call: type (4, 3), winding number 1, element 1 marked
K, N, D = 4, 3, 1
P = run_free_family(K, N, D, 1, {1})[0]
V = second_winding_vector(P, 1, {1})

# every public function that takes r, called on the spec above
TAKES_R = {
    "r_bad_blocks": lambda r: r_bad_blocks(P, r),
    "is_r_hypersimplicial": lambda r: is_r_hypersimplicial(P, r),
    "count_r_hypersimplicial": lambda r: count_r_hypersimplicial(K, N, r, D),
    "dosps_with_bad_parts": lambda r: dosps_with_bad_parts(K, N, D, r, [{1}]),
    "sieve_term": lambda r: sieve_term(K, N, D, r, {1}),
    "sieve_term_closed_form": lambda r: sieve_term_closed_form(K, N, D, r, 1),
    "has_increasing_r_packed_gt1": lambda r: has_increasing_r_packed_gt1(P, r, {1}),
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
    "has_increasing_r_packed_gt1": lambda g: has_increasing_r_packed_gt1(P, 1, g),
    "spread_bad_parts": lambda g: spread_bad_parts(P, 1, [g]),
    "run_free_family": lambda g: run_free_family(K, N, D, 1, g),
    "second_winding_vector": lambda g: second_winding_vector(P, 1, g),
    "dosp_from_second_winding_vector": lambda g: dosp_from_second_winding_vector(V, K, 1, g),
    "enumerate_second_winding_vectors": lambda g: list(
        enumerate_second_winding_vectors(K, N, D, 1, g)
    ),
    "check_prop4": lambda g: check_prop4(K, N, D, 1, g),
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


@pytest.mark.parametrize("name", TAKES_GROUND)
@pytest.mark.parametrize("element", [N, 0])
def test_ground_outside_one_to_n_minus_one_is_refused(name, element):
    if element == N:
        message = f"^ground set must not contain {N}$"
    else:
        message = f"^ground element {element} outside 1..{N}$"
    with pytest.raises(ValueError, match=message):
        TAKES_GROUND[name]({element})


@pytest.mark.parametrize("k,n,d", [(3, 4, True), (3, 4, 1.5), (3.0, 4, 1), (3, True, 1)])
def test_winding_vector_stream_refuses_non_integer_sizes_at_the_call(k, n, d):
    with pytest.raises(TypeError, match="^k, n and d must be integers$"):
        enumerate_winding_vectors(k, n, d)
