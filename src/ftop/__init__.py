"""Exact computations in finite and piecewise-linear fuzzy topologies.

Fuzzy sets with rational membership degrees, the interior/closure and
semi-interior/semi-closure operators, the open < semiopen < somewhat-open
classification of sets and the matching eight-way classification of crisp
maps, plus a brute-force oracle that re-derives everything over finite
degree grids.  All arithmetic is exact: degrees are ``fractions.Fraction``
values in the library API, both backends hold them as integer numerators
over one scale per set, and documents are parsed and printed on those
integers (``degrees.parse_degree``, ``degrees.format_ratio``), so a CLI
request builds no Fraction.  Floats are rejected at every boundary.
"""

from .degrees import ONE, ZERO, as_degree, format_rational, parse_rational
from .documents import (
    FunctionDocument,
    SpaceDocument,
    build_function,
    build_topology,
    document_for_space,
    parse_function,
    parse_space,
    print_function,
    print_space,
)
from .errors import (
    BackendMismatchError,
    DegreeRangeError,
    DocumentError,
    FtopError,
    HierarchyInvariantError,
    OffGridError,
    ResourceCapError,
    UniverseMismatchError,
)
from .fset import FiniteFuzzySet, Universe, inf_family, join_family
from .functions import FunctionClassification, FuzzyFunction, classify_function
from .oracle import (
    GridSpec,
    SearchTarget,
    SpaceCheckReport,
    brute_semi_interior,
    check_space,
    enumerate_grid_sets,
    find_witness,
    random_topology,
    run_campaign,
)
from .plin import PLFuzzySet
from .semiclass import (
    SetClassification,
    classify_set,
    is_semiclosed,
    is_semiopen,
    is_somewhat_open,
    is_somewhat_semiopen,
    semi_closure,
    semi_interior,
    set_verdicts,
)
from .topology import (
    AxiomViolation,
    FuzzyTopology,
    InvalidTopologyError,
    check_axioms,
    generate,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ZERO",
    "ONE",
    "as_degree",
    "parse_rational",
    "format_rational",
    "Universe",
    "FiniteFuzzySet",
    "join_family",
    "inf_family",
    "PLFuzzySet",
    "FuzzyTopology",
    "AxiomViolation",
    "InvalidTopologyError",
    "check_axioms",
    "validate",
    "generate",
    "SetClassification",
    "classify_set",
    "set_verdicts",
    "is_semiopen",
    "is_semiclosed",
    "semi_interior",
    "semi_closure",
    "is_somewhat_open",
    "is_somewhat_semiopen",
    "FuzzyFunction",
    "FunctionClassification",
    "classify_function",
    "GridSpec",
    "SearchTarget",
    "SpaceCheckReport",
    "enumerate_grid_sets",
    "brute_semi_interior",
    "random_topology",
    "check_space",
    "find_witness",
    "run_campaign",
    "SpaceDocument",
    "FunctionDocument",
    "parse_space",
    "print_space",
    "parse_function",
    "print_function",
    "build_topology",
    "build_function",
    "document_for_space",
    "FtopError",
    "DegreeRangeError",
    "UniverseMismatchError",
    "BackendMismatchError",
    "ResourceCapError",
    "OffGridError",
    "HierarchyInvariantError",
    "DocumentError",
]
