"""Exact Ehrhart h*-vectors of hypersimplices and cube cross sections.

The slice of [0, r]**n at coordinate sum k has its h*-vector computed three
independent ways: a closed-form alternating sum (hstar_closed_form), direct
counting of r-hypersimplicial decorated ordered set partitions by winding
number (hstar_combinatorial), and recovery from exact lattice-point counts
(hstar_from_oracle).  The sieve module machine-checks every step of the
inclusion-exclusion argument that makes the first two agree.
"""

from .coeffcore import eulerian, eulerian_by_enumeration, restricted_coeff
from .dosp import (
    Dosp,
    cyclic_shift_elements,
    dosp_from_winding_vector,
    format_dosp,
    is_r_hypersimplicial,
    parse_dosp,
    r_bad_blocks,
    winding_number,
    winding_vector,
)
from .enumeration import (
    bounded_vectors,
    count_r_hypersimplicial,
    enumerate_winding_vectors,
    hstar_combinatorial,
    iter_dosps,
)
from .hstar import (
    check_lemma1,
    check_prop1,
    count_dosps,
    hstar_closed_form,
    raw_series_numerator,
)
from .oracle import hstar_from_oracle, lattice_count, lattice_count_direct
from .sieve import (
    SetPartition,
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
from .spec import HStarVector, PolytopeSpec

__version__ = "0.1.0"
