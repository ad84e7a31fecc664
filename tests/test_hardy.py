"""Unit tests for the Hardy-space coefficient toolbox.

Frozen oracle values used below are derived in place:

* Blaschke factor (z - a)/(1 - a z) with a = 1/2 expands by the geometric
  series as -a + (1 - a^2) sum_{n>=1} a^{n-1} z^n, so the first four
  coefficients are (-0.5, 0.75, 0.375, 0.1875).
* For u = 1 + z the modulus squared is (1 + z)(1 + 1/z) = 2 + z + 1/z,
  whose analytic projection is 2 + z, i.e. coefficients (2, 1).
* The Toeplitz block of an analytic symbol u is (j, k) -> u_hat(j - k) for
  j >= k and 0 above the diagonal; for u = 3 + 5i z and K = 2 that is
  [[3, 0], [5i, 3]].

Property tests (hypothesis) check identities that must hold for every
coefficient vector: Parseval against the grid transform, adjointness of the
index shifts S and S*, and the exactness of the zero-padded convolution
behind Pi(|u|^2).
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cslab import (
    BlaschkeProduct,
    DimensionMismatch,
    HardyCoeffs,
    InvalidParameter,
    NumericalAliasing,
    PoleOnCircle,
    TruncationOverflow,
    blaschke_eval,
    blaschke_to_coeffs,
    grid_transform,
    potential_coeffs,
    random_decaying,
    random_pole_config,
    solve_residue_system,
    zero_pad,
)
from cslab.errors import K_MAX
from cslab.hardy import (
    _FFTWorkspace,
    _conv_length,
    _fft,
    _ifft,
    _modulus_spectra,
    _nonlinearity,
    _shifted_columns,
    nonlinearity,
    shift_columns,
    unshift_columns,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _coeff_vectors(max_k=8, scale=1.0):
    """Strategy: small complex coefficient vectors of length 2..max_k."""
    member = st.tuples(
        st.floats(-scale, scale, allow_nan=False),
        st.floats(-scale, scale, allow_nan=False),
    ).map(lambda t: complex(*t))
    return st.lists(member, min_size=2, max_size=max_k).map(
        lambda xs: np.asarray(xs, dtype=np.complex128)
    )


# ----------------------------------------------------------------------
# construction / serialization


def test_import_loads_no_scipy():
    """The package runs on numpy alone: importing it (command line
    included) loads no scipy module."""
    code = ("import sys, cslab, cslab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_hardy_coeffs_basic_properties():
    u = HardyCoeffs(np.array([1.0, 2.0j, -0.5]))
    assert u.K == 3
    assert u.norm() == pytest.approx(np.sqrt(1 + 4 + 0.25))


def test_hardy_coeffs_rejects_empty_and_2d():
    with pytest.raises(DimensionMismatch):
        HardyCoeffs(np.zeros((2, 2), dtype=complex))
    with pytest.raises(DimensionMismatch):
        HardyCoeffs(np.zeros(0, dtype=complex))


def test_json_round_trip_preserves_complex_values():
    u = HardyCoeffs(np.array([0.5 - 0.25j, 1e-17, 3.0 + 4.0j]))
    text = u.to_json()
    v = HardyCoeffs.from_json(text)
    assert np.array_equal(u.coeffs, v.coeffs)
    # the wire format is a plain list of [re, im] pairs
    raw = json.loads(text)
    assert raw[0] == [0.5, -0.25]


def test_zero_pad_extends_with_zeros():
    u = HardyCoeffs(np.array([1.0, 2.0]))
    v = zero_pad(u, 5)
    assert v.K == 5
    assert np.array_equal(v.coeffs[:2], u.coeffs)
    assert np.all(v.coeffs[2:] == 0)
    assert v.norm() == u.norm()


# ----------------------------------------------------------------------
# projected modulus, nonlinearity, Toeplitz blocks


def test_projected_modulus_squared_two_mode_oracles():
    ws = _FFTWorkspace(2, (2,))
    u = np.array([1.0, 1.0], dtype=complex)
    assert np.allclose(_modulus_spectra(u, ws)[0], [2.0, 1.0])
    # u = 1 + 2i z: entry 0 = 1 + 4 = 5, entry 1 = u1 * conj(u0) = 2i
    v = np.array([1.0, 2.0j])
    assert np.allclose(_modulus_spectra(v, ws)[0], [5.0, 2.0j])


@settings(deadline=None, max_examples=40, derandomize=True)
@given(c=_coeff_vectors())
def test_projected_modulus_squared_matches_direct_sum(c):
    """FFT correlation must agree with the O(K^2) definition exactly.

    entry n = sum_m u(n+m) conj(u(m)), and entry 0 is the squared norm.
    """
    u = HardyCoeffs(c)
    got = _modulus_spectra(u.coeffs, _FFTWorkspace(2, c.shape))[0]
    K = c.shape[0]
    direct = np.array(
        [np.sum(c[n:] * np.conj(c[: K - n])) for n in range(K)]
    )
    np.testing.assert_allclose(got, direct, atol=1e-14)
    assert got[0].real == pytest.approx(u.norm() ** 2)


def _nonlinearity_direct(c):
    """(D Pi(|u|^2)) u by its O(K^2) definition: entry k is
    sum_{n <= k} n Pi(|u|^2)(n) u_hat(k - n)."""
    K = c.shape[0]
    pi = np.array([np.sum(c[n:] * np.conj(c[: K - n])) for n in range(K)])
    return np.array([sum(n * pi[n] * c[k - n] for n in range(k + 1))
                     for k in range(K)])


def _seeded_draws(K):
    """Broadband decaying draws and finite-gap potentials from seeded pole
    configurations (signs alternating as in criterion 8)."""
    for seed in range(4):
        yield f"decaying:{seed}", random_decaying(seed, K).coeffs
    for i in range(4):
        sign = "focusing" if i % 2 == 0 else "defocusing"
        m0, poles, mults = random_pole_config(1234 + i)
        fg = solve_residue_system(sign, m0, poles, mults)
        with warnings.catch_warnings():  # the oracle takes the vector as cut
            warnings.simplefilter("ignore", TruncationOverflow)
            c = potential_coeffs(fg, K).coeffs
        yield f"poles:{1234 + i}", c


def test_nonlinearity_matches_direct_sum():
    """Independent oracle for the FFT path of the flow's nonlinearity."""
    for name, c in _seeded_draws(32):
        want = _nonlinearity_direct(c)
        got = nonlinearity(c)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


@pytest.mark.parametrize("B", [1, 3])
def test_nonlinearity_on_a_stack_matches_rows(B):
    """Each row of the result on a (B, K) stack is bit-identical to the 1-d
    call on that row."""
    draws = [c for _, c in _seeded_draws(32)][:B]
    stack = np.stack(draws)
    got = nonlinearity(stack)
    assert got.shape == (B, 32)
    for row, c in zip(got, draws):
        assert np.array_equal(row, nonlinearity(c))


def _nonlinearity_allocating(c):
    """The allocating form the workspace replaced: np.stack and n=L padding
    inside np.fft, a fresh array from every call."""
    K = c.shape[-1]
    L = _conv_length(K)
    fc, fr = np.fft.fft(np.stack([c, np.conj(c[..., ::-1])]), L)
    pi = np.fft.ifft(fc * fr)[..., K - 1:2 * K - 1]
    return np.fft.ifft(np.fft.fft(np.arange(K) * pi, L) * fc)[..., :K]


@pytest.mark.parametrize("K", [37, 64, 128, 256])
def test_nonlinearity_workspace_matches_allocating_form(K):
    """The workspace kernel is bit-identical to the allocating one, 1-d and
    on a stack, on a fresh workspace and on one reused for new data (the
    padding must stay zero)."""
    rng = np.random.default_rng(K)
    draws = [rng.standard_normal((5, K)) + 1j * rng.standard_normal((5, K))
             for _ in range(2)]
    for stack in draws:
        assert np.array_equal(nonlinearity(stack[0]), _nonlinearity_allocating(stack[0]))
        assert np.array_equal(nonlinearity(stack), _nonlinearity_allocating(stack))
    one, many = _FFTWorkspace(2, (K,)), _FFTWorkspace(2, (5, K))
    for stack in draws:
        assert np.array_equal(_nonlinearity(stack[0], one),
                              _nonlinearity_allocating(stack[0]))
        assert np.array_equal(_nonlinearity(stack, many),
                              _nonlinearity_allocating(stack))
        pi, fc = _modulus_spectra(stack, many)
        want_fc = np.fft.fft(stack, _conv_length(K))
        assert np.array_equal(fc, want_fc)
        assert np.array_equal(
            pi, np.fft.ifft(want_fc * np.fft.fft(np.conj(stack[:, ::-1]), _conv_length(K)))
            [:, K - 1:2 * K - 1])


@pytest.mark.parametrize("L", [4, 512, 4096])
def test_fft_kernel_calls_equal_numpy_fft(L):
    """``_fft``/``_ifft`` call numpy's pocketfft kernel without its wrapper;
    on every workspace shape they must equal np.fft.fft/ifft bit for bit,
    so a numpy that changes the private kernel fails here."""
    rng = np.random.default_rng(L)
    for shape in [(L,), (2, L), (4, 8, L), (3, 5, L)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for mine, ref in ((_fft, np.fft.fft), (_ifft, np.fft.ifft)):
            out = np.empty_like(a)
            assert mine(a, out) is out
            assert np.array_equal(out, ref(a)), (mine.__name__, shape)


def test_nonlinearity_results_do_not_alias():
    """A result of the public call is not overwritten by later calls."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    first = nonlinearity(a)
    kept = first.copy()
    nonlinearity(b)
    nonlinearity(np.stack([b, a]))
    assert np.array_equal(first, kept)


def _toeplitz(c):
    """Dense lower-triangular Toeplitz block T_u of an analytic symbol, as
    the tests build it: the stack of the shifted copies S^k u."""
    return _shifted_columns(np.asarray(c, dtype=np.complex128), len(c), backward=False)


def test_toeplitz_block_small_oracle():
    T = _toeplitz([3.0, 5.0j])
    assert np.array_equal(T, np.array([[3.0, 0.0], [5.0j, 3.0]]))


@pytest.mark.parametrize("K", [1, 2, 3, 37, 256])
def test_toeplitz_block_matches_definition(K):
    """T[i, j] = u_hat(i - j) for i >= j and 0 above the diagonal, exactly,
    in a C-contiguous complex128 array."""
    rng = np.random.default_rng(K)
    c = rng.normal(size=K) + 1j * rng.normal(size=K)
    want = np.zeros((K, K), dtype=np.complex128)
    for i in range(K):
        for j in range(i + 1):
            want[i, j] = c[i - j]
    T = _toeplitz(c)
    assert T.dtype == np.complex128 and T.flags.c_contiguous
    assert np.array_equal(T, want)


def test_toeplitz_block_acts_as_projected_multiplication():
    rng = np.random.default_rng(42)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    h = rng.normal(size=6) + 1j * rng.normal(size=6)
    T = _toeplitz(c)
    # T_u h against the truncated polynomial product
    want = np.convolve(c, h)[:6]
    np.testing.assert_allclose(T @ h, want, atol=1e-13)


# ----------------------------------------------------------------------
# grid samples, shifts, translation


@settings(deadline=None, max_examples=40, derandomize=True)
@given(c=_coeff_vectors())
def test_parseval_against_grid_samples(c):
    u = HardyCoeffs(c)
    M = 4 * c.shape[0]
    samples = grid_transform(u, M)
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(
        u.norm() ** 2, abs=1e-12
    )


def test_shift_composition_identities():
    rng = np.random.default_rng(7)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    c[-1] = 0.0  # keep the forward shift loss-free
    fwd = shift_columns(c)
    assert np.array_equal(fwd[1:], c[:-1])
    assert fwd[0] == 0
    # S* S = Id
    np.testing.assert_allclose(unshift_columns(fwd), c, atol=0)
    # S S* = Id - <., e0> e0
    want = c.copy()
    want[0] = 0.0
    np.testing.assert_allclose(shift_columns(unshift_columns(c)), want, atol=0)
    # on a matrix, each column is shifted alone
    M = np.stack([c, 2.0 * c], axis=1)
    assert np.array_equal(shift_columns(M), np.stack([fwd, 2.0 * fwd], axis=1))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(c=_coeff_vectors(), d=_coeff_vectors())
def test_shift_adjoint_pairing(c, d):
    """<S u|v> = <u|S* v>, with <u|v> = sum u_hat(n) conj(v_hat(n))."""
    K = min(c.shape[0], d.shape[0])
    u, v = c[:K].copy(), d[:K].copy()
    u[-1] = 0.0  # no truncation loss, else <Su|v> is off by the drop
    lhs = np.vdot(v, shift_columns(u))
    rhs = np.vdot(unshift_columns(v), u)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_translate_phase_and_grid_consistency():
    rng = np.random.default_rng(3)
    c = rng.normal(size=8) + 1j * rng.normal(size=8)
    a = 0.8
    n = np.arange(8)
    v = HardyCoeffs(c * np.exp(-1j * n * a))  # u(x - a)
    # sampled rotation: v(x) = u(x - a), checked on one point of a fine grid
    M = 64
    x = 2 * np.pi * np.arange(M) / M
    val_direct = np.sum(c * np.exp(1j * n * (x[10] - a)))
    vals_v = grid_transform(v, M)
    assert vals_v[10] == pytest.approx(val_direct, abs=1e-12)


# ----------------------------------------------------------------------
# grid synthesis


@settings(deadline=None, max_examples=30, derandomize=True)
@given(c=_coeff_vectors())
def test_grid_round_trip_is_exact(c):
    """FFT analysis of the samples gives the coefficients back."""
    M = 2 * c.shape[0]
    back = np.fft.fft(grid_transform(HardyCoeffs(c), M)) / M
    np.testing.assert_allclose(back[:c.shape[0]], c, atol=1e-13)
    np.testing.assert_allclose(back[c.shape[0]:], 0.0, atol=1e-13)


def test_grid_transform_guards():
    u = HardyCoeffs(np.ones(8, dtype=complex))
    with pytest.raises(DimensionMismatch):
        grid_transform(u, 4)  # grid shorter than K
    with pytest.raises(InvalidParameter):
        grid_transform(u, 16.0)


# ----------------------------------------------------------------------
# Blaschke products


def test_blaschke_series_single_zero_oracle():
    psi = BlaschkeProduct(zeros=(0.5,), power=0)
    with pytest.warns(TruncationOverflow):  # 0.25^4 of the energy is cut
        got = blaschke_to_coeffs(psi, 4).coeffs
    np.testing.assert_allclose(got, [-0.5, 0.75, 0.375, 0.1875], atol=1e-15)


@pytest.mark.parametrize("w, K", [(0.9, 16), (0.95, 16), (0.95, 32), (0.99, 64)])
def test_blaschke_series_near_the_circle(w, K):
    """The grid grows until the fold-back of the max|w|^k tail is below
    roundoff; a fixed 4K grid leaves errors of 1.4e-4 to 4e-3 here.  The
    cut itself drops 4e-3 to 2e-2 of the energy, and warns."""
    with pytest.warns(TruncationOverflow):
        got = blaschke_to_coeffs(BlaschkeProduct(zeros=(w,)), K).coeffs
    k = np.arange(1, K)
    want = np.concatenate([[-w], (1.0 - w * w) * w ** (k - 1)])
    assert np.max(np.abs(got - want)) <= 1e-15


def test_blaschke_series_refuses_a_grid_past_2_to_the_20():
    with pytest.raises(NumericalAliasing):
        blaschke_to_coeffs(BlaschkeProduct(zeros=(0.99999,)), 64)


def test_blaschke_eval_unimodular_and_vanishing():
    psi = BlaschkeProduct(zeros=(0.5, -0.3j), power=1)
    theta = np.linspace(0, 2 * np.pi, 17)
    on_circle = blaschke_eval(psi, np.exp(1j * theta))
    np.testing.assert_allclose(np.abs(on_circle), 1.0, atol=1e-14)
    assert abs(blaschke_eval(psi, np.array([0.5]))[0]) < 1e-15
    assert abs(blaschke_eval(psi, np.array([0.0]))[0]) < 1e-15  # the z factor


def test_blaschke_monomial_coefficients():
    """z^power shifts the coefficients and is never sampled, so a monomial
    is exact; a power past the truncation leaves zeros and warns (sampled
    on 64 points, z^67 used to come back as z^3).  A zero at 0 is a factor
    z and moves into the power."""
    psi = BlaschkeProduct(zeros=(), power=2)
    assert np.array_equal(blaschke_to_coeffs(psi, 5).coeffs, [0, 0, 1.0, 0, 0])
    psi = BlaschkeProduct(zeros=(0, 0.3, -0.0j), power=1)
    assert psi.zeros == (0.3,) and psi.power == 3
    got = blaschke_to_coeffs(BlaschkeProduct(zeros=(0, 0, 0.3)), 16).coeffs
    want = blaschke_to_coeffs(BlaschkeProduct(zeros=(0.3,), power=2), 16).coeffs
    assert np.array_equal(got, want)
    with pytest.warns(TruncationOverflow):
        got = blaschke_to_coeffs(BlaschkeProduct(power=67), 16).coeffs
    assert np.array_equal(got, np.zeros(16))


def test_blaschke_zero_outside_disc_rejected():
    for w in (1.0, float("nan")):
        with pytest.raises(PoleOnCircle):
            BlaschkeProduct(zeros=(w,), power=0)
    with pytest.raises(InvalidParameter):
        BlaschkeProduct(zeros=(0.5,), power=1.5)
    assert BlaschkeProduct(zeros=(0.0,) * 2, power=K_MAX - 2).power == K_MAX
    with pytest.raises(InvalidParameter):  # zeros at 0 count in the power
        BlaschkeProduct(zeros=(0.0,) * 2, power=K_MAX - 1)
