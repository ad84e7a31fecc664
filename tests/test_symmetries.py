"""Exact symmetries of the flow and of its Lax operator, as roundoff-level oracles.

The Galerkin truncation keeps each symmetry exactly, so every relation
below holds to roundoff, with bounds stated relative to ||L|| (the largest
|eigenvalue|) or to ||u||, a few times above the levels measured on seeded
draws (noted at each bound):

- integer scaling: v(t, x) = sqrt(n) u(n^2 t, nx), i.e. v_hat(nk) =
  sqrt(n) u_hat(k).  Sorting the nK modes of v by residue r mod n, D acts
  on class r as nD + r and T_v T_vbar as n T_u T_ubar, so L_v is a
  permutation of the direct sum of n L_u + r over r < n, and a Lawson step
  of dt on v is one of n^2 dt on u;
- the Galilean boost v(t, x) = e^{i(cx - c^2 t)} u(t, x - 2ct), i.e.
  v_hat(t, k + c) = u_hat(t, k) e^{-i(2kc + c^2)t}, on K + c modes: the
  interaction-picture variables of u and v coincide;
- gauge u -> e^{i theta} u and translation u -> u(x - a): the spectrum is
  unchanged, and the eigenvectors of u(x - a) are those of u times
  e^{-ika} mode by mode.

None of them fixes the constant in front of the nonlinearity: every
relation holds for any constant.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from cslab import (
    EvolveConfig,
    HardyCoeffs,
    build_lax,
    evolve,
    gap_profile,
    random_decaying,
    spectral_decompose,
)

SIGNS = ["defocusing", "focusing"]
seeds = st.integers(0, 10 ** 6)
# No shrinking: a smaller seed or angle is not a simpler case, and shrinking
# a failure through repeated flows takes minutes.
NO_SHRINK = dict(deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))


def _draw(seed, K, sign, rho):
    """A decaying draw; focusing ones are scaled to ||u|| = 0.5, so that
    their dilations by n <= 3 stay inside the small-norm theory."""
    u = random_decaying(seed, K, rho=rho)
    if sign == "focusing":
        u = HardyCoeffs(u.coeffs * (0.5 / u.norm()))
    return u


def _dilate(u, n):
    """v(x) = sqrt(n) u(nx) on nK modes: v_hat(nk) = sqrt(n) u_hat(k)."""
    v = np.zeros(n * u.K, dtype=complex)
    v[::n] = np.sqrt(n) * u.coeffs
    return HardyCoeffs(v)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sign", SIGNS)
@settings(max_examples=6, **NO_SHRINK)
@given(seed=seeds, K=st.sampled_from([37, 64, 128]))
def test_integer_scaling_of_the_spectrum(sign, n, seed, K):
    """spec L_v is the union over r < n of n spec L_u + r (measured: about
    2e-15 ||L_v||).  Defocusing, the union is ordered in runs of n, so
    the gaps of v are 0 inside a run and n gamma_k between runs k, k+1
    (measured: about 2e-15 ||L_v||)."""
    u = _draw(seed, K, sign, rho=0.8)
    v = _dilate(u, n)
    dec_u = spectral_decompose(build_lax(u, sign))
    dec_v = spectral_decompose(build_lax(v, sign))
    norm = np.max(np.abs(dec_v.eigenvalues))
    want = np.sort(np.concatenate([n * dec_u.eigenvalues + r for r in range(n)]))
    assert np.max(np.abs(dec_v.eigenvalues - want)) <= 1e-14 * norm
    if sign == "defocusing":
        gaps_u = gap_profile(dec_u, u).gaps
        gaps_v = gap_profile(dec_v, v).gaps
        m = np.arange(1, gaps_v.size + 1)  # gaps_v[m - 1] = nu_m - nu_{m-1} - 1
        want_gaps = np.where(m % n == 0, n * gaps_u[m // n - 1], 0.0)
        assert np.max(np.abs(gaps_v - want_gaps)) <= 1e-14 * norm


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sign", SIGNS)
@settings(max_examples=2, **NO_SHRINK)
@given(seed=seeds)
def test_integer_scaling_of_the_flow(sign, n, seed):
    """evolve(v0, K=64n, dt=1e-4, T=0.05) is evolve(u0, K=64, dt=1e-4 n^2,
    T=0.05 n^2) on the lattice nZ, snapshot by snapshot (measured: about
    2e-15 ||v0||).  With n = 2 the zero-padded FFT length, a power of
    two, splits the lattice exactly, so the modes off it stay exactly 0;
    with n = 3 they stay at roundoff (measured: 1e-16 ||v0|| or less)."""
    u0 = _draw(seed, 64, sign, rho=0.6)
    v0 = _dilate(u0, n)
    tv = evolve(v0, EvolveConfig(sign=sign, K=64 * n, dt=1e-4, T=0.05))
    tu = evolve(u0, EvolveConfig(sign=sign, K=64, dt=1e-4 * n * n, T=0.05 * n * n))
    np.testing.assert_allclose(n * n * tv.times, tu.times, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(tv.coeffs[:, ::n] - np.sqrt(n) * tu.coeffs)) <= 1e-14 * v0.norm()
    off = np.delete(tv.coeffs, np.s_[::n], axis=1)
    if n == 2:
        assert not off.any()
    assert np.max(np.abs(off)) <= 1e-15 * v0.norm()


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("sign", SIGNS)
@settings(max_examples=2, **NO_SHRINK)
@given(seed=seeds, K=st.sampled_from([37, 64, 128]))
def test_galilean_boost(sign, c, seed, K):
    """v_hat(t, k + c) = u_hat(t, k) e^{-i(2kc + c^2)t} (measured: about
    4e-14 ||u0|| at T = 0.05; the flipped phase e^{+i(...)t} misses by
    0.1-0.4 ||u0||), and the c modes below the boost stay at roundoff
    (measured: about 1e-18 ||u0||)."""
    u0 = _draw(seed, K, sign, rho=0.5)
    v0 = HardyCoeffs(np.concatenate([np.zeros(c), u0.coeffs]))
    tv = evolve(v0, EvolveConfig(sign=sign, K=K + c, dt=1e-4, T=0.05, record_every=50))
    tu = evolve(u0, EvolveConfig(sign=sign, K=K, dt=1e-4, T=0.05, record_every=50))
    assert np.array_equal(tv.times, tu.times)
    k = np.arange(K)
    want = tu.coeffs * np.exp(-1j * np.outer(tu.times, 2 * k * c + c * c))
    assert np.max(np.abs(tv.coeffs[:, c:] - want)) <= 2e-13 * u0.norm()
    assert np.max(np.abs(tv.coeffs[:, :c])) <= 1e-17 * u0.norm()


@pytest.mark.parametrize("sign", SIGNS)
@settings(max_examples=10, **NO_SHRINK)
@given(seed=seeds, K=st.sampled_from([37, 64, 128]),
       theta=st.floats(0.0, 2 * np.pi), a=st.floats(0.0, 2 * np.pi))
def test_gauge_and_translation(sign, seed, K, theta, a):
    """L of e^{i theta} u has the eigenpairs of L_u; L of u(x - a) has the
    eigenvalues of L_u with eigenvectors e^{-ika} f_n (measured: about
    2e-15 ||L|| for the eigenvalues and the residuals)."""
    u = _draw(seed, K, sign, rho=0.8)
    dec = spectral_decompose(build_lax(u, sign))
    norm = np.max(np.abs(dec.eigenvalues))
    shift = np.exp(-1j * np.arange(K) * a)
    for w, F in ((np.exp(1j * theta) * u.coeffs, dec.vectors),
                 (shift * u.coeffs, shift[:, None] * dec.vectors)):
        L = build_lax(HardyCoeffs(w), sign).matrix
        assert np.max(np.abs(np.linalg.eigvalsh(L) - dec.eigenvalues)) <= 1e-14 * norm
        assert np.max(np.abs(L @ F - F * dec.eigenvalues)) <= 1e-14 * norm
