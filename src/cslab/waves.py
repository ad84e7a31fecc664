"""Closed-form traveling-wave families and the PDE residual.

The flow under study is

    i u_t + u_xx + 2 sigma D Pi(|u|^2) u = 0,        D = -i d/dx,

restricted to the Hardy space, with sigma = +1 (focusing) or -1
(defocusing).  Four explicit families of traveling waves
u(t, x) = u0(x - ct) are provided:

  plane       u = C e^{iN(x - Nt)}                                  (both signs, c = N)
  pole        u = e^{i theta} (alpha + beta / (1 - p e^{iN(x-ct)}))
              with  alpha beta + beta^2/(1-|p|^2) = sigma N
              and   c = -N (1 + 2 alpha / beta)
  modulated   u = e^{i theta} e^{im(x-ct)} (alpha + beta/(1 - p e^{i(x-ct)}))
              with  alpha beta + beta^2/(1-|p|^2) = sigma,  beta (m-1) = 2 alpha,
              c = m                                                 (focusing only)
  stationary  pole family with beta = -2 alpha,
              alpha = sqrt(N (1-|p|^2) / (2 (1+|p|^2))),  c = 0     (focusing only)

alpha and beta are real with alpha*beta < 0 in the defocusing pole family;
beta is treated as the free parameter and alpha is solved from the
constraint.  There are no defocusing stationary waves (the defocusing
speed always exceeds N), and no exhaustiveness is claimed for the
focusing list.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolation,
    DimensionMismatch,
    FamilyUnavailable,
    InvalidParameter,
    TruncationOverflow,
)
from .errors import K_MAX, check_in_disc, check_int, check_K, check_real, check_sign
from .hardy import HardyCoeffs, nonlinearity

__all__ = [
    "WaveParams",
    "solve_wave_constraint",
    "make_wave",
    "wave_l2",
    "sample_wave",
    "pde_residual",
    "validate_wave",
]

PLANE = "plane"
POLE = "pole"
MODULATED = "modulated"
STATIONARY = "stationary"
#: The focusing-only families, with their refusal of the defocusing sign.
_FOCUSING_ONLY = {
    MODULATED: "the modulated family exists only in the focusing case",
    STATIONARY: "no defocusing stationary waves: the defocusing speed always exceeds N",
}

_CONSTRAINT_TOL = 1e-12


@dataclass(frozen=True)
class WaveParams:
    """Parameters of one traveling wave, checked by ``validate_wave`` when made.

    ``N`` is the base frequency for plane/pole/stationary waves and the
    modulation index m for the modulated family.  Plane waves store the
    amplitude as beta = |C| with theta = arg C and p = 0.
    """

    sign: str
    family: str
    N: int
    p: complex
    alpha: float
    beta: float
    theta: float
    c: float

    def __post_init__(self) -> None:
        validate_wave(self)


def solve_wave_constraint(sign: str, N: int, p: complex, beta: float) -> float:
    """Solve the pole-family constraint for alpha at given beta.

    alpha = sigma N / beta - beta / (1 - |p|^2)
    """
    sigma = check_sign(sign)
    N = check_int("N", N, 1, K_MAX)
    q = 1.0 / (1.0 - abs(check_in_disc("pole parameter", p)) ** 2)
    if beta == 0.0:
        raise InvalidParameter("beta must be nonzero")
    return sigma * N / beta - beta * q


def make_wave(sign: str, family: str, *, N: int = 1, p: complex = 0.0,
              beta: float | None = None, C: complex | None = None,
              theta: float = 0.0, branch: int = 1) -> WaveParams:
    """Construct WaveParams for one family (checked when made).

    plane:      needs N and C (complex amplitude).
    pole:       needs N, p, beta; alpha is solved from the constraint.
    modulated:  focusing only; N plays the role of the modulation index m,
                needs p; beta = branch / sqrt((m-1)/2 + 1/(1-|p|^2)).
    stationary: focusing only; needs N and p.
    ``validate_wave`` refuses a defocusing modulated or stationary wave.
    """
    check_sign(sign)
    N = check_int("N", N, 1, K_MAX)
    if family == PLANE:
        if C is None or not cmath.isfinite(C):  # abs() of a NaN may raise
            raise InvalidParameter("plane family needs a finite amplitude C")
        return WaveParams(sign=sign, family=PLANE, N=N, p=0.0, alpha=0.0,
                          beta=abs(C), theta=float(np.angle(C)), c=float(N))
    elif family == POLE:
        if beta is None:
            raise InvalidParameter("pole family needs beta (alpha is solved)")
        alpha = solve_wave_constraint(sign, N, p, beta)
        c = -N * (1.0 + 2.0 * alpha / beta)
        return WaveParams(sign=sign, family=POLE, N=N, p=complex(p),
                          alpha=alpha, beta=float(beta), theta=theta, c=c)
    elif family == MODULATED:
        p = check_in_disc("pole parameter", p)
        q = 1.0 / (1.0 - abs(p) ** 2)
        beta = (1 if branch >= 0 else -1) / math.sqrt(0.5 * (N - 1) + q)
        alpha = 0.5 * beta * (N - 1)
        return WaveParams(sign=sign, family=MODULATED, N=N, p=p,
                          alpha=alpha, beta=beta, theta=theta, c=float(N))
    elif family == STATIONARY:
        p = check_in_disc("pole parameter", p)
        alpha = math.sqrt(N * (1.0 - abs(p) ** 2) / (2.0 * (1.0 + abs(p) ** 2)))
        return WaveParams(sign=sign, family=STATIONARY, N=N, p=p,
                          alpha=alpha, beta=-2.0 * alpha, theta=theta, c=0.0)
    raise InvalidParameter(f"unknown family {family!r}")


def validate_wave(w: WaveParams) -> dict:
    """Constraint residuals of a WaveParams; raises ConstraintViolation when
    one exceeds 1e-12 or is not a number (huge parameters give inf - inf).
    The sign, N, the family's sign (FamilyUnavailable for a defocusing
    modulated or stationary wave) and a nonzero pole of the open disc are
    checked first."""
    sigma = check_sign(w.sign)
    check_int("N", w.N, 1, K_MAX)
    res: dict[str, float] = {}
    try:
        beta2 = w.beta ** 2
    except OverflowError:  # a Python float past the largest double
        beta2 = math.inf
    if w.family == PLANE:
        if w.p != 0:
            raise InvalidParameter("plane waves have no pole parameter")
        check_real("|C|^2", beta2, 0.0, math.inf)  # the squared L2 norm
        res["speed"] = abs(w.c - w.N)
    elif w.family in (POLE, STATIONARY, MODULATED):
        if sigma < 0 and w.family in _FOCUSING_ONLY:
            raise FamilyUnavailable(_FOCUSING_ONLY[w.family])
        if check_in_disc("pole parameter", w.p) == 0:
            raise InvalidParameter(f"the {w.family} family needs a nonzero pole")
        q = 1.0 / (1.0 - abs(w.p) ** 2)
        res["constraint"] = abs(w.alpha * w.beta + beta2 * q - _sigma_k(w))
        if w.family == MODULATED:
            res["modulation"] = abs(w.beta * (w.N - 1) - 2.0 * w.alpha)
            res["speed"] = abs(w.c - w.N)
        else:
            res["speed"] = abs(w.c - (-w.N * (1.0 + 2.0 * w.alpha / w.beta)))
            if w.family == STATIONARY:
                res["stationary"] = abs(w.c)
    else:
        raise InvalidParameter(f"unknown family {w.family!r}")
    # negated, so a NaN residual is a violation too
    if not all(r <= _CONSTRAINT_TOL for r in res.values()):
        raise ConstraintViolation(f"wave constraints violated: {res}")
    return res


def _sigma_k(w: WaveParams) -> float:
    """sigma k, k = 1 (modulated) or N: the right side of the constraint
    alpha beta + beta^2/(1-|p|^2) = sigma k of a family with a pole."""
    return check_sign(w.sign) * (1.0 if w.family == MODULATED else float(w.N))


def wave_l2(w: WaveParams) -> float:
    """Squared L2 norm of the profile (mean of |u|^2 over the circle).

    pole, stationary, modulated: alpha^2 + alpha beta + sigma k (``_sigma_k``)
    plane:                       |C|^2
    """
    if w.family == PLANE:
        return float(w.beta ** 2)
    return float(w.alpha ** 2 + w.alpha * w.beta + _sigma_k(w))


def sample_wave(w: WaveParams, t: float, K: int) -> HardyCoeffs:
    """Fourier coefficients of the wave at time t, truncated to K modes.

    Every family obeys the traveling-wave modal law
    u_hat(n, t) = u_hat(n, 0) e^{-i n c t}.
    """
    K = check_K(K)
    c0 = np.zeros(K, dtype=np.complex128)
    ph = np.exp(1j * w.theta)
    if w.family == PLANE:
        if w.N >= K:
            raise DimensionMismatch(f"plane frequency N={w.N} does not fit K={K}")
        c0[w.N] = w.beta * ph
    else:
        # e^{i theta} z^s (alpha + beta / (1 - p z^d)): s = m and d = 1 for
        # the modulated family, s = 0 and d = N for the pole families
        s, d = (w.N, 1) if w.family == MODULATED else (0, w.N)
        if s >= K:
            raise DimensionMismatch(f"modulation index m={s} does not fit K={K}")
        kmax = (K - 1 - s) // d
        c0[s] = ph * (w.alpha + w.beta)
        k = np.arange(1, kmax + 1)
        c0[s + d * k] = ph * w.beta * w.p ** k
        tail = abs(w.beta) * abs(w.p) ** (kmax + 1)
        if tail > 1e-12:
            warnings.warn(f"{w.family}-family tail {tail:.3e} truncated at K={K}",
                          TruncationOverflow, stacklevel=2)
    n = np.arange(K)
    return HardyCoeffs(c0 * np.exp(-1j * n * w.c * t))


def pde_residual(w: WaveParams, sign: str, *, K: int) -> float:
    """Relative residual of i u_t + u_xx + 2 sigma D Pi(|u|^2) u at t = 0.

    u comes from ``sample_wave`` and its exact time derivative from the
    traveling-wave law, u_t = -i n c u_hat(n).  Returns
    ||residual||_2 / max(1, ||u||_2); a wave of the other sign yields O(1).
    """
    sigma = check_sign(sign)
    u = sample_wave(w, 0.0, K)
    n = np.arange(K)
    ut = -1j * n * w.c * u.coeffs
    resid = 1j * ut - n ** 2 * u.coeffs + sigma * 2.0 * nonlinearity(u.coeffs)
    return float(np.linalg.norm(resid) / max(1.0, np.linalg.norm(u.coeffs)))
