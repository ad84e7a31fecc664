"""The explicit formula of the flow as an oracle for the Lawson stepper.

The Lax pair gives u(t) in closed form (Gérard's explicit formula for
Benjamin–Ono, carried to CS-DNLS by Gérard–Lenzmann on the line and by
Badreddine on the circle):

    u_hat(t, k) = <M(t)^k X(t) | Y(t)>,    k < K,

with X, Y and M the spectral coordinates of u0 in its Lax eigenbasis
(``lax._matrices_in_basis``), turned by the phase laws

    X(t) = X e^{-i lam^2 t},    Y(t) = Y e^{-i lam^2 t},
    M(t)[n, p] = M[n, p] e^{-i((lam_n + 1)^2 - lam_p^2) t}.

The moments come from the loop of ``finitegap._moments``, which also
returns the leak ||M(t)^K X(t)|| (a truncation estimate for t > 0).  The
phase factors are written here, apart from ``evolve.phase_law_report``.
On broadband draws with no closed-form solution the formula is the more
accurate side: where the two differ beyond roundoff, halving the step
must shrink the gap by the stepper's fourth order.
"""

import numpy as np
import pytest

from cslab import EvolveConfig, HardyCoeffs, build_lax, evolve, random_decaying, spectral_decompose
from cslab.finitegap import _moments
from cslab.lax import _matrices_in_basis

T = 0.2


def _draw(sign, K, rho):
    """random_decaying(7, K, rho); focusing draws rescaled to ||u|| = 0.6,
    inside the small-data theory."""
    u = random_decaying(7, K, rho)
    return HardyCoeffs(u.coeffs * (0.6 / u.norm())) if sign == "focusing" else u


def _explicit_state(u0, sign, t):
    """(u_hat(t), ||M(t)^K X(t)||) from one eigh of u0's Lax matrix."""
    dec = spectral_decompose(build_lax(u0, sign))
    lam = dec.eigenvalues
    X, Y, M = _matrices_in_basis(u0.coeffs, dec.vectors)
    rotation = np.exp(-1j * lam ** 2 * t)
    turn = np.exp(-1j * ((lam[:, None] + 1.0) ** 2 - lam[None, :] ** 2) * t)
    return _moments(X * rotation, Y * rotation, M * turn)


def _stepped_state(u0, sign, dt):
    cfg = EvolveConfig(sign=sign, K=u0.K, T=T, dt=dt, record_every=10 ** 6)
    return evolve(u0, cfg).coeffs[-1]


@pytest.mark.parametrize("sign, K, rho", [
    ("defocusing", 64, 0.5),
    ("defocusing", 128, 0.7),
    ("focusing", 64, 0.5),
    ("focusing", 128, 0.7),
    ("focusing", 256, 0.8),
])
def test_explicit_formula_matches_the_stepper(sign, K, rho):
    """At T = 0.2 and dt = 1e-4 the stepper lands on the formula to
    roundoff (measured 2.6e-14 to 2.0e-13)."""
    u0 = _draw(sign, K, rho)
    formula, leak = _explicit_state(u0, sign, T)
    assert leak < 1e-10
    assert np.max(np.abs(formula - _stepped_state(u0, sign, 1e-4))) <= 1e-12


def test_stepper_converges_onto_the_explicit_formula():
    """Defocusing K = 256, rho = 0.8: the gap is the stepper's own error
    (measured 2.80e-10 at dt = 1e-4, 1.75e-11 at dt = 5e-5), and halving dt
    shrinks it by criterion 7's bar of 12."""
    u0 = _draw("defocusing", 256, 0.8)
    formula, leak = _explicit_state(u0, "defocusing", T)
    assert leak < 1e-10
    coarse, fine = (float(np.max(np.abs(formula - _stepped_state(u0, "defocusing", dt))))
                    for dt in (1e-4, 5e-5))
    assert fine <= 1e-10
    assert coarse / fine >= 12.0
