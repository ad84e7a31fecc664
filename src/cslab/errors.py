"""Shared error and warning taxonomy, and the argument checks.

Hard failures are exceptions; recoverable numerical hygiene issues are
warnings so long computations are not killed mid-flight.  Each class maps
to one failure mode named in the interface contracts of the other modules.

The checks at the end test the domains of the paper's objects on entry to
public functions and config dataclasses, never inside a loop.
"""

from __future__ import annotations

import cmath
import numbers
import sys

import numpy as np

__all__ = [
    "CslabError",
    "DimensionMismatch",
    "InvalidParameter",
    "PoleOnCircle",
    "EigensolveFailure",
    "NewtonDivergence",
    "InfeasibleSign",
    "ConstraintViolation",
    "FamilyUnavailable",
    "NotATravelingWave",
    "BlowupDetected",
    "UnderResolved",
    "BasisDrift",
    "SingularSystem",
    "NumericalAliasing",
    "Inconclusive",
    "CslabWarning",
    "TruncationOverflow",
    "OutsideTheory",
]


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
    """Sampling needs over 2^20 points, or K keeps too little of the energy."""


class Inconclusive(CslabError):
    """The data do not support a classification at this truncation."""


# --- warnings -------------------------------------------------------------

class CslabWarning(UserWarning):
    """Base class for package-specific warnings."""


class TruncationOverflow(CslabWarning):
    """The truncation cut off a non-negligible coefficient."""


class OutsideTheory(CslabWarning):
    """Run parameters leave the regime covered by the well-posedness theory."""


# --- argument checks ------------------------------------------------------

#: Largest truncation K.  A dense K x K complex128 matrix takes 16 K^2
#: bytes: 4 GiB at K = 2**14, and a spectrum holds several at once (the
#: Toeplitz block, L, its eigenvectors).  K = 2048 takes 64 MiB each.
K_MAX = 2 ** 14


def check_sign(sign) -> float:
    """The sign sigma of (CS+-): +1.0 for 'focusing', -1.0 for 'defocusing',
    any other value refused.  The one map from the sign's name to a number."""
    if sign not in ("focusing", "defocusing"):
        raise InvalidParameter(f"unknown sign {sign!r}: need 'focusing' or 'defocusing'")
    return 1.0 if sign == "focusing" else -1.0


def check_int(name: str, value, lo, hi) -> int:
    """value as an int, refused unless it is an integer (Python or numpy;
    bool is not one) with lo <= value <= hi."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not lo <= value <= hi):
        raise InvalidParameter(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def check_K(K) -> int:
    """A truncation size: an integer with 1 <= K <= K_MAX."""
    return check_int("K", K, 1, K_MAX)


def check_real(name: str, value, lo, hi) -> float:
    """value as a float, refused unless it is a real number (bool is not
    one) within the double range with lo <= value <= hi (NaN fails)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (abs(value) <= sys.float_info.max and lo <= value <= hi)):
        raise InvalidParameter(f"{name} must be a finite real in [{lo}, {hi}], got {value!r}")
    return float(value)


def check_in_disc(name: str, z) -> complex:
    """z as a complex, refused with PoleOnCircle unless |z| < 1 (NaN fails).
    abs() is taken of a finite z only: CPython's abs() of a complex NaN raises
    OverflowError when an earlier C call (float("1e400")) left errno at ERANGE."""
    z = complex(z)
    if not (cmath.isfinite(z) and abs(z) < 1.0):
        raise PoleOnCircle(f"{name} {z} is not inside the open unit disc")
    return z


def check_same_K(u, dec) -> None:
    """Refuse a potential u other than dec.u, the one dec was built from:
    DimensionMismatch for another K, InvalidParameter for other coefficients."""
    if u.K != dec.K:
        raise DimensionMismatch(
            f"decomposition and potential truncations differ: K={dec.K} and K={u.K}")
    if u is not dec.u and not np.array_equal(u.coeffs, dec.u.coeffs):
        raise InvalidParameter("u is not the potential the decomposition was built from")
