"""Exact Ehrhart h*-vectors of hypersimplices and cube cross sections.

The slice of [0, r]**n at coordinate sum k has its h*-vector computed three
independent ways: a closed-form alternating sum (hstar_closed_form), direct
counting of r-hypersimplicial decorated ordered set partitions by winding
number (hstar_combinatorial), and recovery from exact lattice-point counts
(hstar_from_oracle).  The sieve module machine-checks every step of the
inclusion-exclusion argument that makes the first two agree.

The package re-exports each library module's __all__, and a public name sits
in exactly one of them.
"""

from .coeffcore import *
from .dosp import *
from .enumeration import *
from .hstar import *
from .oracle import *
from .sieve import *
from .spec import *

__version__ = "0.1.0"
