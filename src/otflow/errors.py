"""Exception hierarchy for otflow.

All package-specific failures derive from TransportError so callers can catch one
base type.  Input-shaped problems (bad measure specs, non-monotone maps, malformed
run configs) additionally derive from InputError, which the CLI maps to exit
code 2; runtime verification failures map to exit code 1 without an exception.
"""

from __future__ import annotations


class TransportError(Exception):
    """Base class for all otflow errors."""


class InputError(TransportError, ValueError):
    """Invalid user-supplied data: measure specs, map callables, run configs."""


class MeasureSpecError(InputError):
    """A measure specification failed validation (field named in the message)."""


class InvalidMapError(InputError):
    """A supplied or derived transport map is not strictly increasing."""


class DegenerateOrbitError(TransportError):
    """An orbit was started at (numerically) a fixed point of the map."""


class SeedSignError(TransportError):
    """A seed profile changes sign or vanishes inside the seed interval."""


class NormalizationError(TransportError):
    """Unit-time normalization of a seed profile failed (non-finite travel time)."""


class SearchFailureError(TransportError):
    """A bounded parameter search exhausted its budget without an admissible value."""


class UnsupportedDecompositionError(InputError):
    """The multi-d measure pair is outside the supported ray-decomposable classes."""


class ConstructionError(TransportError):
    """An internal construction violated one of its certified bounds."""
