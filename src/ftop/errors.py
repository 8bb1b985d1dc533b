"""Exception hierarchy shared across the package.

The failures that belong to fuzzy topology derive from :class:`FtopError`:
a degree outside [0, 1], sets over different universes or backends, a
cap or budget exceeded, degrees off a grid, an invalid topology, a broken
invariant, and a bad document.  Each also derives from the built-in class
it refines, such as ``ValueError``.  A plain argument error raises the
built-in class alone: a value of the wrong type raises ``TypeError``
(``as_degree(0.5)``), an argument outside a function's stated range
raises ``ValueError`` (``GridSpec(0, 2)``, ``generate([])``,
``SearchTarget.parse("x")``), and a label outside a universe raises
``KeyError``.  The CLI turns the argument errors of its input into a
:class:`DocumentError` before they escape, so it maps failures to exit
codes by class, without inspecting messages.
"""

from __future__ import annotations

__all__ = [
    "FtopError",
    "DegreeRangeError",
    "UniverseMismatchError",
    "BackendMismatchError",
    "ResourceCapError",
    "OffGridError",
    "HierarchyInvariantError",
    "DocumentError",
]


class FtopError(Exception):
    """Base class for all errors raised by this package."""


class DegreeRangeError(FtopError, ValueError):
    """A membership degree fell outside the closed unit interval."""


class UniverseMismatchError(FtopError, ValueError):
    """Two finite fuzzy sets over different universes were combined."""


class BackendMismatchError(FtopError, TypeError):
    """A value was combined with a set or space of another backend."""


class ResourceCapError(FtopError, RuntimeError):
    """A generation cap or enumeration budget would be exceeded.

    Raised instead of silently truncating: a partial family would corrupt
    every downstream verdict.
    """


class OffGridError(FtopError, ValueError):
    """Degrees do not all lie on the requested enumeration grid.

    ``required_k`` is the smallest denominator whose grid contains every
    offending degree; retry with that grid (or any multiple of it).
    """

    def __init__(self, message: str, required_k: int | None = None):
        super().__init__(message)
        self.required_k = required_k


class HierarchyInvariantError(FtopError, AssertionError):
    """A classification violated the openness implication chain.

    The chain is a proved property of the operators, valid in every
    space, so this firing always indicates a bug in the operators,
    never bad input.
    """


class DocumentError(FtopError, ValueError):
    """A space or function document failed to parse or validate.

    ``code`` is a stable machine-readable identifier; ``where`` is a
    dot-path into the document pointing at the offending node, or the
    flag or environment variable that holds a bad value.
    """

    def __init__(self, code: str, message: str, where: str = "$"):
        super().__init__(f"{where}: {message}")
        self.code = code
        self.where = where
