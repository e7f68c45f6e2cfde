"""Error types shared across the package.

Negative verdicts (not free, not universal, condition fails) are ordinary
return values, never exceptions.  Exceptions mark ill-posed input or a broken
internal invariant.
"""

from __future__ import annotations


class MultiderError(ValueError):
    """Base class for input and invariant errors."""


class ArrangementError(MultiderError):
    """Malformed arrangement data: zero or proportional forms, bad flat, bad multiplicity."""


class MembershipError(MultiderError):
    """A derivation handed to a check that requires module membership is not a member.

    Distinct from a False verdict: the verdict would be about something else
    (e.g. whether a determinant matches), so a non-member input is an error.
    """


class HypothesisError(MultiderError):
    """A theorem-backed classifier was called outside the theorem's hypotheses."""


class FiltrationError(MultiderError):
    """A hyperplane filtration violates the structural conditions."""


class InternalCheckError(RuntimeError):
    """An internal certification step failed; indicates a bug, not bad input."""
