"""Shared error and warning taxonomy.

Hard failures are exceptions; recoverable numerical hygiene issues are
warnings so long computations are not killed mid-flight.  Each class maps
to one failure mode named in the interface contracts of the other modules.
"""

from __future__ import annotations


class CslabError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(CslabError):
    """Operands carry incompatible truncation sizes."""


class InvalidParameter(CslabError):
    """A parameter is outside its documented domain."""


class PoleOnCircle(CslabError):
    """A pole/zero parameter sits on or outside the unit circle."""


class EigensolveFailure(CslabError):
    """The dense Hermitian eigensolver did not converge."""


class NewtonDivergence(CslabError):
    """Damped Newton iteration failed to reach the residual target."""


class InfeasibleSign(CslabError):
    """The requested residue system has no solution for this sign choice."""


class ConstraintViolation(CslabError):
    """An algebraic constraint of a parametrized family cannot be met."""


class FamilyUnavailable(CslabError):
    """The requested solution family does not exist for this sign."""


class NotATravelingWave(CslabError):
    """Per-mode phase velocities disagree beyond tolerance."""


class BlowupDetected(CslabError):
    """A modal amplitude exceeded the blow-up guard during time stepping."""


class UnderResolved(CslabError):
    """Spectral tail energy violates the resolution headroom requirement."""


class BasisDrift(CslabError):
    """An evolved basis column lost orthonormality beyond tolerance."""


class SingularSystem(CslabError):
    """A linear solve met a (numerically) singular matrix."""


class NumericalAliasing(CslabError):
    """Grid sampling produced non-negligible out-of-band energy."""


class Inconclusive(CslabError):
    """The data do not support a classification at this truncation."""


# --- warnings -------------------------------------------------------------

class CslabWarning(UserWarning):
    """Base class for package-specific warnings."""


class TruncationOverflow(CslabWarning):
    """The truncation cut off a non-negligible coefficient."""


class AliasWarning(CslabWarning):
    """Sampled coefficients folded back tail energy above tolerance."""


class OutsideTheory(CslabWarning):
    """Run parameters leave the regime covered by the well-posedness theory."""
