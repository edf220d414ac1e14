"""Typed errors shared across the package."""
from __future__ import annotations


class SeriesShapeError(ValueError):
    """Operands have mismatched degree caps."""


class SingularDivisionError(ZeroDivisionError):
    """Series reciprocal or reversion at a point where it is singular."""


class CompositionDomainError(ValueError):
    """Inner series of a composition has a nonzero constant term."""


class DegreeExhaustionError(ValueError):
    """Not enough t-degrees left to run the recursion to the requested order."""


class NormalizationError(ValueError):
    """Input series violates the normalized-arc base-point conditions."""


class ResolutionError(ValueError):
    """Sampling too coarse to resolve a winding or unwrapping step."""


class CoverageError(ValueError):
    """Atlas chart spacing leaves gaps between neighbouring charts."""


class GateObstructionError(ValueError):
    """Closed-arc existence gate failed; no single-valued extension exists."""


class RankError(ValueError):
    """Tangent frame is numerically degenerate."""


class SingularLocusError(ValueError):
    """Coframe evaluated on the singular locus (zeta = 0)."""


class SchemaError(ValueError):
    """Serialized payload has the wrong schema name or version."""


class NonFiniteError(ValueError):
    """A computed value is NaN or infinite where it must be finite."""


class PrecisionError(ValueError):
    """mpf meet numbers of another precision or form in one computation."""
