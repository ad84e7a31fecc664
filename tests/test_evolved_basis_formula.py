"""The explicit formula of the co-evolved basis as an oracle for evolve_basis.

The basis solves U' = B U with g_n^t = U(t) f_n, and B is the skew half of
the Lax pair, so the argument of the explicit formula for u
(``tests/test_explicit_formula.py``) carries over with the coordinate
vector X(t) of u replaced by e_n, the coordinate vector of g_n^t in its
own basis:

    g_hat_n(t, k) = <M(t)^k e_n | Y(t)>,    k < K,

with Y and M the spectral coordinates of the Lax eigenbasis of u0
(``lax._matrices_in_basis``), turned by the phase laws

    Y(t) = Y e^{-i lam^2 t},    M(t)[n, p] = M[n, p] e^{-i((lam_n + 1)^2 - lam_p^2) t}.

Nothing in the formula uses B, so it checks that ``evolve_basis``
integrates the Lax pair, through the one B action it runs
(``lax._apply_b_cols``).  The moments come from the loop of
``finitegap._moments``, which also returns the leak ||M(t)^K e_n||.
"""

import numpy as np
import pytest

from cslab import (
    EvolveConfig,
    HardyCoeffs,
    build_lax,
    evolve,
    evolve_basis,
    random_decaying,
    spectral_decompose,
)
from cslab.finitegap import _moments
from cslab.lax import _matrices_in_basis

T = 0.2
M_COLUMNS = 2


def _draw(sign, K, rho):
    """random_decaying(7, K, rho); focusing draws rescaled to ||u|| = 0.6,
    inside the small-data theory."""
    u = random_decaying(7, K, rho)
    return HardyCoeffs(u.coeffs * (0.6 / u.norm())) if sign == "focusing" else u


@pytest.mark.parametrize("sign, K, rho", [
    ("defocusing", 64, 0.5),
    ("defocusing", 128, 0.7),
    ("focusing", 64, 0.5),
    ("focusing", 128, 0.7),
])
def test_evolve_basis_matches_the_explicit_formula(sign, K, rho):
    """The two lowest Lax eigenvectors, co-evolved to T = 0.2 with
    dt = 1e-4, land on the formula to roundoff (measured 2.0e-15 to
    1.3e-13)."""
    u0 = _draw(sign, K, rho)
    dec = spectral_decompose(build_lax(u0, sign))
    lam = dec.eigenvalues
    _, Y, M = _matrices_in_basis(u0.coeffs, dec.vectors)
    rotation = np.exp(-1j * lam ** 2 * T)
    turn = np.exp(-1j * ((lam[:, None] + 1.0) ** 2 - lam[None, :] ** 2) * T)
    traj = evolve(u0, EvolveConfig(sign=sign, K=K, T=T, dt=1e-4))
    stepped = evolve_basis(traj, dec.vectors[:, :M_COLUMNS]).coeffs[-1]
    for n, row in enumerate(stepped):
        formula, leak = _moments(np.eye(K)[n], Y * rotation, M * turn)
        assert leak < 1e-10
        assert np.max(np.abs(formula - row)) <= 1e-12
