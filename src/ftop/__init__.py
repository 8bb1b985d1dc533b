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

Every name in a public module's ``__all__`` is importable from ``ftop``,
and ``ftop.__all__`` is those lists joined in layer order, so each module's
``__all__`` is the one statement of its public names.  ``gridbits`` is
internal, and ``cli`` (whose import builds the argument parser) is left
to ``ftop.cli``.
"""

from .degrees import *
from .fset import *
from .plin import *
from .topology import *
from .semiclass import *
from .functions import *
from .oracle import *
from .documents import *
from .errors import *
from . import degrees, documents, errors, fset, functions, oracle, plin, semiclass, topology

__version__ = "0.1.0"

__all__ = (
    degrees.__all__
    + fset.__all__
    + plin.__all__
    + topology.__all__
    + semiclass.__all__
    + functions.__all__
    + oracle.__all__
    + documents.__all__
    + errors.__all__
)
