"""Tests for the truncated Lax blocks and their spectral structure.

The exactly solvable cases pin the numerics down:

* u = C z^N (plane wave): T_u T_ubar is the orthogonal projector onto
  span{e_N, e_{N+1}, ...} scaled by |C|^2, so the focusing operator
  D - T_u T_ubar has spectrum {0, ..., N-1} united with {n - |C|^2 : n >= N},
  exactly, at every truncation.
* u = C constant is the N = 0 case: spectrum {n -/+ |C|^2}.

Structural identities (Hermiticity, skew-adjointness of the generator,
isospectrality under translation) hold at machine precision because the
blocks are built from exact symmetrizations; the identity-report residuals
on rational data are truncation-floor quantities, bounded loosely here.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cslab
from cslab import (
    RATIONAL_FIXTURES,
    DimensionMismatch,
    HardyCoeffs,
    InvalidParameter,
    blaschke_eigen_check,
    build_lax,
    check_spectral_identities,
    gap_profile,
    make_fixture,
    random_decaying,
    reliable_eigenvalues,
    spectral_decompose,
)
from cslab.errors import check_sign
from cslab.hardy import _FFTWorkspace, _shifted_columns
from cslab.lax import (
    _PHASE_TOL,
    SpectralDecomposition,
    _apply_b_cols,
    _b_kernels,
    _fix_phases,
    _matrices_in_basis,
)


def test_plane_wave_spectrum_focusing():
    K, N, C = 64, 1, 2.0
    u = make_fixture("plane:1:2").coeffs(K)
    dec = spectral_decompose(build_lax(u, "focusing"))
    expected = np.sort(np.concatenate(
        [np.arange(N), np.arange(N, K) - abs(C) ** 2]
    ))
    np.testing.assert_allclose(dec.eigenvalues, expected, atol=1e-12)


def test_constant_potential_spectrum_both_signs():
    K = 48
    c = np.zeros(K, dtype=complex)
    c[0] = 0.7
    u = HardyCoeffs(c)
    n = np.arange(K)
    for sign, shift in [("focusing", -0.49), ("defocusing", +0.49)]:
        dec = spectral_decompose(build_lax(u, sign))
        np.testing.assert_allclose(dec.eigenvalues, n + shift, atol=1e-13)


def _fft_b(u, sign):
    """The K x K matrix of B from the FFT action on the unit rows e_j."""
    K = u.K
    ws = _FFTWorkspace(6, (K,))
    ws.slots[0] = u.coeffs
    E = np.eye(K, dtype=complex)
    return _apply_b_cols(_b_kernels(ws, check_sign(sign)), E, _FFTWorkspace(3, (K, K))).T


def _toeplitz(c):
    """Dense lower-triangular Toeplitz block T_u of an analytic symbol:
    column k is S^k u, so T[i, j] = c[i - j] for i >= j."""
    return _shifted_columns(c, c.shape[0], backward=False)


def _dense_b(u, sign):
    """Reference B from plain K x K matrices: T_u, T_du with du = i n u,
    and P = T_u T_ubar."""
    Tu = _toeplitz(u.coeffs)
    Tdu = _toeplitz(1j * np.arange(u.K) * u.coeffs)
    P = Tu @ Tu.conj().T
    core = Tu @ Tdu.conj().T - Tdu @ Tu.conj().T
    return (core if sign == "focusing" else -core) + 1j * (P @ P)


def test_lax_block_hermitian_and_b_skew():
    """L is Hermitian exactly in floating point; the FFT action of B is
    skew-adjoint to roundoff only, at every K."""
    for K in (128, 256):
        u = make_fixture("appendix1").coeffs(K)
        L = build_lax(u, "focusing").matrix
        assert np.abs(L - L.conj().T).max() == 0.0
        B = _fft_b(u, "focusing")
        assert np.abs(B + B.conj().T).max() <= 1e-14 * max(1.0, np.abs(B).max())


@pytest.mark.parametrize("K", [15, 22, 128, 130, 250, 256])
def test_lax_block_hermitian_and_b_skew_to_roundoff(K):
    """L is Hermitian bit for bit at every K, multiples of 4 or not: its
    upper triangle is built as the conjugate copy of its lower one.  The
    FFT action of B rounds differently in mirrored entries at every K."""
    u = random_decaying(5, K)
    for sign in ("focusing", "defocusing"):
        L = build_lax(u, sign).matrix
        assert np.abs(L - L.conj().T).max() == 0.0
        B = _fft_b(u, sign)
        assert np.abs(B + B.conj().T).max() <= 1e-14 * max(1.0, np.abs(B).max())


@pytest.mark.parametrize("K", [1, 2, 3, 8, 37, 250, 513])
@pytest.mark.parametrize("sign", ["focusing", "defocusing"])
def test_build_lax_matches_dense_product(K, sign):
    """The O(K^2) assembly against diag(n) -/+ T_u T_u^H from a dense T_u:
    every entry of P within 4 K eps ||u||^2, the diagonal also within the
    rounding of the mode numbers it is added to."""
    u = random_decaying(K, K)
    Tu = _toeplitz(u.coeffs)
    P = Tu @ Tu.conj().T
    s = -1.0 if sign == "focusing" else 1.0
    L = build_lax(u, sign).matrix
    eps = np.finfo(float).eps
    tol = 4 * K * eps * u.norm() ** 2
    off = ~np.eye(K, dtype=bool)
    assert np.abs(L[off] - s * P[off]).max(initial=0.0) <= tol
    n = np.arange(K)
    assert np.abs(L.diagonal() - (n + s * P.diagonal().real)).max() <= tol + eps * (K + tol)
    assert np.array_equal(L.diagonal().imag, np.zeros(K))


def test_invalid_sign_rejected():
    u = HardyCoeffs(np.ones(4, dtype=complex))
    with pytest.raises(InvalidParameter):
        build_lax(u, "focussing")


@settings(deadline=None, max_examples=10, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), a=st.floats(0.1, 6.0))
def test_translation_is_isospectral(seed, a):
    """Translating u conjugates the block by a diagonal unitary."""
    u = random_decaying(seed, 64)
    e0 = np.linalg.eigvalsh(build_lax(u, "focusing").matrix)
    moved = HardyCoeffs(u.coeffs * np.exp(-1j * np.arange(64) * a))  # u(x - a)
    e1 = np.linalg.eigvalsh(build_lax(moved, "focusing").matrix)
    assert np.abs(e0 - e1).max() < 1e-12


def test_spectral_decompose_buffer_guard():
    u = random_decaying(0, 32)
    L = build_lax(u, "defocusing")
    with pytest.raises(InvalidParameter):
        spectral_decompose(L, buffer=32)
    with pytest.raises(InvalidParameter):
        spectral_decompose(L, buffer=-1)
    with pytest.raises(InvalidParameter):
        spectral_decompose(L, buffer=0)
    dec = spectral_decompose(L, buffer=8)
    assert dec.reliable == 24
    assert dec.eigenvalues.shape == (32,)


@settings(deadline=None, max_examples=12, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), sign=st.sampled_from(["focusing", "defocusing"]),
       K=st.sampled_from([8, 37, 64, 128]), buffer=st.sampled_from([None, 1, 5]))
def test_reliable_eigenvalues_agree_with_the_decomposition(seed, sign, K, buffer):
    L = build_lax(random_decaying(seed, K, rho=0.8), sign)
    dec = spectral_decompose(L, buffer=buffer)
    ev = reliable_eigenvalues(L, buffer=buffer)
    assert ev.shape == (dec.reliable,)
    scale = max(1.0, float(np.max(np.abs(dec.eigenvalues))))  # ||L||_2
    assert np.max(np.abs(ev - dec.eigenvalues[:dec.reliable])) <= 1e-12 * scale


def test_reliable_eigenvalues_share_the_buffer_guard():
    L4 = build_lax(random_decaying(3, 4), "defocusing")
    for call in (lambda: reliable_eigenvalues(L4), lambda: spectral_decompose(L4)):
        with pytest.raises(InvalidParameter):
            call()
    L = build_lax(random_decaying(3, 32), "focusing")
    for bad in (0, 32, -1, 2.5):
        with pytest.raises(InvalidParameter):
            reliable_eigenvalues(L, buffer=bad)


def test_identity_residuals_on_rational_fixtures():
    for name in ("appendix1", "wave:defocusing:1:0.5:1"):
        fx = make_fixture(name)
        u = fx.coeffs(128)
        dec = spectral_decompose(build_lax(u, fx.sign))
        rep = check_spectral_identities(u, dec)
        worst = max(rep.mean_identity, rep.shift_identity,
                    rep.commutator_ls, rep.commutator_sb)
        assert worst < 1e-8, f"{name}: residual {worst:.3e}"


def test_identity_report_is_sensitive_to_wrong_potential():
    """Negative control: residuals must blow up when u and dec disagree.
    A call with a foreign u is refused first, so the pair is forged by
    replacing the decomposition's potential."""
    fx = make_fixture("appendix1")
    u = fx.coeffs(128)
    dec = spectral_decompose(build_lax(u, fx.sign))
    tampered = HardyCoeffs(1.1 * u.coeffs)
    with pytest.raises(InvalidParameter):
        check_spectral_identities(tampered, dec)
    rep = check_spectral_identities(tampered, dataclasses.replace(dec, u=tampered))
    assert max(rep.mean_identity, rep.shift_identity) > 1e-3


def test_decomposition_carries_its_potential():
    """build_lax and spectral_decompose share the HardyCoeffs they were
    given, K is read off it, and it takes no part in equality or repr."""
    u = random_decaying(3, 32)
    L = build_lax(u, "focusing")
    dec = spectral_decompose(L)
    assert L.u is u and dec.u is u and dec.K == L.K == 32
    assert dataclasses.replace(dec, u=HardyCoeffs(2.0 * u.coeffs)) == dec
    assert "u=" not in repr(L)
    # an equal potential that is not the same object is dec's own
    gap_profile(dec, HardyCoeffs(u.coeffs.copy()))


def test_identity_check_rejects_mismatched_truncations():
    fx = make_fixture("appendix1")
    dec = spectral_decompose(build_lax(fx.coeffs(64), fx.sign))
    with pytest.raises(DimensionMismatch):
        check_spectral_identities(fx.coeffs(128), dec)
    with pytest.raises(DimensionMismatch):
        gap_profile(dec, fx.coeffs(128))
    u = fx.coeffs(3)  # K // 4 = 0 leaves the identities no buffer
    with pytest.raises(InvalidParameter):
        check_spectral_identities(u, spectral_decompose(build_lax(u, fx.sign), buffer=1))


def test_defocusing_gap_law_single_draw():
    u = random_decaying(2024, 256)
    dec = spectral_decompose(build_lax(u, "defocusing"), buffer=96)
    prof = gap_profile(dec, u)
    diffs = np.diff(dec.eigenvalues[:dec.reliable])
    assert diffs.min() >= 1.0 - 1e-8
    assert prof.collinearity_set == ()
    # the gap-collinearity product law: gamma_n = |<u|f_n>| |<u|f_{n-1}>| ...
    # here simply: no vanishing inner products, so no closed gaps
    assert np.min(np.abs(prof.collinearity)) > 1e-6


def test_focusing_two_step_interlacing_single_draw():
    u = random_decaying(77, 256)
    dec = spectral_decompose(build_lax(u, "focusing"), buffer=96)
    ev = dec.eigenvalues[:dec.reliable]
    assert np.min(ev[2:] - ev[:-2]) >= 1.0 - 1e-8


def test_gap_vanishing_corollary_on_structured_data():
    """Defocusing: gamma_n = 0 iff <u|f_n> = 0 (n >= 1).  On the N = 1 wave
    both sides vanish together for every n >= 2 and are jointly nonzero at
    n = 1; for u = 0 everything vanishes.  (On generic decaying data the two
    sides cross their common 1e-7 tolerance at different indices, since the
    gap scales like the square of the pairing, so the biconditional is only
    meaningful for structured spectra like these.)"""
    def gap_and_pairing_vanish(u, dec):
        R = dec.reliable
        ev = dec.eigenvalues
        x = dec.vectors.conj().T @ u.coeffs  # x[n] = <u|f_n>
        return np.abs(ev[1:R] - ev[:R - 1] - 1.0) < 1e-7, np.abs(x[1:R]) < 1e-7

    u = make_fixture("wave:defocusing:1:0.5:1").coeffs(128)
    gap0, inner0 = gap_and_pairing_vanish(u, spectral_decompose(build_lax(u, "defocusing")))
    assert gap0.shape[0] > 64
    assert np.array_equal(gap0, inner0)
    assert not gap0[0] and gap0[1:].all()

    zero = HardyCoeffs(np.zeros(64, dtype=complex))
    gap0, inner0 = gap_and_pairing_vanish(
        zero, spectral_decompose(build_lax(zero, "defocusing")))
    assert gap0.all() and inner0.all()


def test_blaschke_ladder_eigenvectors_appendix1():
    fx = make_fixture("appendix1")
    u = fx.coeffs(128)
    dec = spectral_decompose(build_lax(u, fx.sign))
    base_dev, residuals = blaschke_eigen_check(dec, fx.blaschke(), kmax=8)
    assert base_dev < 1e-10
    assert residuals.shape == (9,)
    assert residuals.max() < 1e-8


def test_degenerate_cluster_detected_on_appendix2():
    fx = make_fixture("appendix2")
    u = fx.coeffs(128)
    dec = spectral_decompose(build_lax(u, fx.sign))
    # the double eigenvalue 0 sits at sorted indices 1 and 2, between -1 and 1
    ev = dec.eigenvalues
    assert np.all(np.abs(ev[1:3]) < 1e-9)
    assert abs(ev[0] + 1.0) < 1e-9 and abs(ev[3] - 1.0) < 1e-9


def _dense_identity_oracle(u, dec):
    """The identity residuals with S, S*, B, L^2 and (L + 1)^2 as dense
    K x K matrices and the eigenbasis shift pairing as an explicit einsum."""
    K = u.K
    R = K - K // 4
    s = 1.0 if dec.sign == "defocusing" else -1.0
    ev = dec.eigenvalues[:R]
    F = dec.vectors[:, :R]
    uc = u.coeffs
    x = F.conj().T @ uc
    y = np.conj(F[0, :])
    r_mean = np.max(np.abs(np.conj(uc[0]) * x - s * ev * y))
    S = np.eye(K, k=-1, dtype=np.complex128)
    Sa = S.conj().T
    SF = S @ F
    A = np.einsum("jp,jn->np", SF, np.conj(F))
    b = np.conj(uc) @ SF
    lhs = (ev[:, None] - ev[None, :] - 1.0) * A
    r_shift = np.max(np.abs(lhs - s * np.outer(x, b)))
    L = build_lax(u, dec.sign).matrix
    B = _dense_b(u, dec.sign)
    Sstar_u = np.zeros(K, dtype=np.complex128)
    Sstar_u[:-1] = uc[1:]
    rank1 = np.outer(uc, np.conj(Sstar_u))
    R1 = L @ S - S @ L - S - s * rank1
    Lp1 = L + np.eye(K)
    R2 = Sa @ B - B @ Sa - 1j * (Sa @ (L @ L) - (Lp1 @ Lp1) @ Sa)
    return (float(r_mean), float(r_shift),
            float(np.max(np.abs(R1[:R, :R]))), float(np.max(np.abs(R2[:R, :R]))))


def _oracle_cases():
    def case(name, u, sign):
        return pytest.param(name, u, sign, id=f"{name}--{sign}")

    for name in RATIONAL_FIXTURES:
        fx = make_fixture(name)
        yield case(name, fx.coeffs(128), fx.sign)
    for seed in (11, 12):
        for sign in ("focusing", "defocusing"):
            yield case(f"random:{seed}:{sign}", random_decaying(seed, 128), sign)
    # K = 100 (R = 75) and K = 18 (R = 14) read B's displacement off 8
    # probes; K = 9 (R = 7) off 8 probes of a 9-dimensional space
    for K, seed in ((256, 13), (512, 14), (100, 15), (18, 16), (9, 17)):
        for sign in ("focusing", "defocusing"):
            yield case(f"random:{seed}:{sign}:K{K}:buffer{K // 4}",
                       random_decaying(seed, K), sign)


@pytest.mark.parametrize("name,u,sign", list(_oracle_cases()))
def test_identity_residuals_match_dense_oracle(name, u, sign):
    """Index-shift S, S*, the shared (X, Y, M) and the buffered blocks of
    B, L^2 and (L + 1)^2 reproduce the dense formulas: bit for bit where
    the summation order is kept, within roundoff for the shift pairing,
    which is summed as a matmul, and within eps K max|L|^2 for the B
    commutator, whose B comes from the FFT action and whose (L + 1)^2 is
    L^2 + 2L + 1."""
    dec = spectral_decompose(build_lax(u, sign))
    rep = check_spectral_identities(u, dec)
    mean, shift, ls, sb = _dense_identity_oracle(u, dec)
    assert rep.mean_identity == mean
    assert rep.commutator_ls == ls
    assert abs(rep.commutator_sb - sb) <= np.finfo(float).eps * u.K * np.abs(dec.matrix).max() ** 2
    assert abs(rep.shift_identity - shift) <= 1e-15


def _displacement_cases():
    for K in (9, 16, 64, 256):
        for sign in ("focusing", "defocusing"):
            yield pytest.param(random_decaying(K + 1, K), sign, id=f"random:K{K}--{sign}")
    for name in RATIONAL_FIXTURES:
        for sign in ("focusing", "defocusing"):
            yield pytest.param(make_fixture(name).coeffs(64), sign, id=f"{name}:K64--{sign}")


@pytest.mark.parametrize("u,sign", list(_displacement_cases()))
def test_b_displacement_has_rank_four(u, sign):
    """The lemma the identity check rests on, on the dense B of the FFT
    action: Delta = B - S B S* is sigma (u du^H - du u^H) + i ((Pu) u^H +
    u (Pu)^H - ||u||^2 u u^H - w w^H) with P = T_u T_ubar and
    w = S P e_{K-1}, so at most 4 singular values clear 1e-12 sigma_1; and
    (S* B - B S*)[:R, :R] = Delta[1:R+1, :R], as S* S = I below row K - 1."""
    K, c = u.K, u.coeffs
    R = K - K // 4
    B = _fft_b(u, sign)
    S = np.eye(K, k=-1, dtype=np.complex128)
    Sa = S.T
    delta = B - S @ B @ Sa
    tol = np.finfo(float).eps * K * np.abs(B).max()
    sv = np.linalg.svd(delta, compute_uv=False)
    assert np.count_nonzero(sv > 1e-12 * sv[0]) <= 4
    assert np.abs((Sa @ B - B @ Sa)[:R, :R] - delta[1:R + 1, :R]).max() <= tol
    Tu = _toeplitz(c)
    P = Tu @ Tu.conj().T
    du, Pu, w = 1j * np.arange(K) * c, P @ c, S @ P[:, -1]
    want = (check_sign(sign) * (np.outer(c, du.conj()) - np.outer(du, c.conj()))
            + 1j * (np.outer(Pu, c.conj()) + np.outer(c, Pu.conj())
                    - np.vdot(c, c).real * np.outer(c, c.conj()) - np.outer(w, w.conj())))
    assert np.abs(delta - want).max() <= tol


@pytest.mark.parametrize("u,sign", list(_displacement_cases()))
def test_b_is_three_generator_pairs(u, sign):
    """The lemma the B action rests on.  S is nilpotent on C^K, so
    B = sum_t S^t Delta S*^t, and Delta = a1 u^H + u b2^H - i w w^H with
    a1 = -sigma du + i (Pu - ||u||^2 u) and b2 = sigma du - i Pu: hence
    B = T_{a1} T_u^H + T_u T_{b2}^H - i T_w T_w^H, three Toeplitz pairs.
    The dense B of the FFT action matches that sum of plain K x K blocks
    within eps K max|B|, and Delta has at most 3 singular values above
    1e-12 sigma_1."""
    K, c = u.K, u.coeffs
    s = check_sign(sign)
    B = _fft_b(u, sign)
    Tu = _toeplitz(c)
    P = Tu @ Tu.conj().T
    du, Pu = 1j * np.arange(K) * c, P @ c
    w = np.zeros(K, dtype=np.complex128)
    w[1:] = P[:-1, -1]                        # S P e_{K-1}
    a1 = -s * du + 1j * (Pu - np.vdot(c, c).real * c)
    b2 = s * du - 1j * Pu
    Tw = _toeplitz(w)
    want = (_toeplitz(a1) @ Tu.conj().T + Tu @ _toeplitz(b2).conj().T
            - 1j * Tw @ Tw.conj().T)
    assert np.abs(B - want).max() <= np.finfo(float).eps * K * np.abs(B).max()
    S = np.eye(K, k=-1, dtype=np.complex128)
    sv = np.linalg.svd(B - S @ B @ S.T, compute_uv=False)
    assert np.count_nonzero(sv > 1e-12 * sv[0]) <= 3


@pytest.mark.parametrize("sign", ["focusing", "defocusing"])
def test_identity_check_guards_the_b_action(monkeypatch, sign):
    """The probes see an action whose displacement is not low rank: adding
    1e-6 E, a seeded dense K x K matrix, to B lifts commutator_sb and the
    probe residual alone past criterion 4's bound of 1e-8, where the true
    action reads <= 1e-10.
    Seeded probes make two calls on one decomposition give equal reports."""
    K = 64
    u = random_decaying(7, K)
    dec = spectral_decompose(build_lax(u, sign))
    rep = check_spectral_identities(u, dec)
    assert rep.commutator_sb <= 1e-10
    assert check_spectral_identities(u, dec) == rep
    E = np.random.default_rng(K).normal(size=(K, K))
    lax = sys.modules["cslab.lax"]
    real = lax._apply_b_cols
    monkeypatch.setattr(lax, "_apply_b_cols",
                        lambda kernels, G, ws: real(kernels, G, ws) + 1e-6 * G @ E.T)
    bad = check_spectral_identities(u, dec)
    assert bad.commutator_sb > 1e-8
    # the fresh probes alone see it: their residual r is part of commutator_sb
    ws = _FFTWorkspace(6, (K,))
    ws.slots[0] = u.coeffs
    assert lax._b_displacement(_b_kernels(ws, check_sign(sign)), K)[2] > 1e-8
    assert (bad.mean_identity, bad.shift_identity, bad.commutator_ls) == \
        (rep.mean_identity, rep.shift_identity, rep.commutator_ls)


def _unitary(K, seed):
    """A K x K unitary matrix: the Q of a QR of a complex Gaussian draw."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K)))
    return Q


@pytest.mark.parametrize("K", [1, 2, 8, 37])
def test_shift_adjoint_pairing(K):
    """<S* v | u> = <v | S u> with S = np.eye(K, k=-1) dense, and both
    are the slice pairing sum_i v[i+1] conj(u[i]) that lax reads shifts by;
    <u|v> = sum u_i conj(v_i) is np.vdot(v, u)."""
    rng = np.random.default_rng(K)
    u, v = rng.normal(size=(2, K)) + 1j * rng.normal(size=(2, K))
    S = np.eye(K, k=-1, dtype=np.complex128)
    dense = np.vdot(S @ u, v)
    assert np.vdot(u, S.conj().T @ v) == pytest.approx(dense, abs=1e-13)
    assert np.vdot(u[:-1], v[1:]) == pytest.approx(dense, abs=1e-13)


@pytest.mark.parametrize("K", [1, 2, 8, 37])
def test_matrices_in_basis_match_dense_shift(K):
    """X = F^H u, Y = F^H e_0 and M = F^H S* F with S* dense, on a unitary
    F and on its first K - K/4 columns (the identity check's block)."""
    Q = _unitary(K, K)
    u = np.random.default_rng(K + 1).normal(size=K) + 0.5j
    Sa = np.eye(K, k=1, dtype=np.complex128)
    for F in (Q, Q[:, :K - K // 4]):
        X, Y, M = _matrices_in_basis(u, F)
        Fh = F.conj().T
        np.testing.assert_allclose(X, Fh @ u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(Y, Fh[:, 0], rtol=0, atol=0)
        np.testing.assert_allclose(M, Fh @ (Sa @ F), rtol=0, atol=1e-13)


@pytest.mark.parametrize("K, R", [(37, 2), (128, 3), (64, 48)])
def test_matrices_in_basis_of_a_stack_are_its_slices(K, R):
    """One call on a stack of bases gives, slice by slice, the bits of the
    2-d call on that slice, for row potentials and for column bases laid
    out as phase_law_report passes them (the mT view of C-contiguous rows)."""
    rng = np.random.default_rng(K + R)
    n = 50
    u = rng.normal(size=(n, K)) + 1j * rng.normal(size=(n, K))
    G = rng.normal(size=(n, R, K)) + 1j * rng.normal(size=(n, R, K))
    X, Y, M = _matrices_in_basis(u, G.mT)
    assert (X.shape, Y.shape, M.shape) == ((n, R), (n, R), (n, R, R))
    for i in range(n):
        x, y, m = _matrices_in_basis(u[i], G[i].T)
        assert np.array_equal(X[i], x) and np.array_equal(Y[i], y) and np.array_equal(M[i], m), i


@pytest.mark.parametrize("K", [8, 37])
@pytest.mark.parametrize("sign", ["focusing", "defocusing"])
def test_gap_profile_and_identity_check_match_dense_shift(K, sign):
    """On a unitary F posing as the eigenbasis (buffer K/8),
    the collinearity <S f_{n-1} | f_n> and the shift-identity residual,
    which reads b[p] = <S f_p | u>, equal their forms with S dense."""
    u = random_decaying(K, K)
    L = build_lax(u, sign)
    F = _unitary(K, K + 2)
    ev = np.sort(np.random.default_rng(K + 3).normal(size=K)) * K
    dec = SpectralDecomposition(eigenvalues=ev, vectors=F, matrix=L.matrix, sign=sign,
                                u=u, buffer=K // 8)
    R = dec.reliable
    SF = np.eye(K, k=-1, dtype=np.complex128) @ F
    np.testing.assert_allclose(gap_profile(dec, u).collinearity,
                               np.einsum("jn,jn->n", SF[:, :R - 1], np.conj(F[:, 1:R])),
                               rtol=0, atol=1e-13)
    rep = check_spectral_identities(u, dec)
    mean, shift, _, _ = _dense_identity_oracle(u, dec)
    assert rep.mean_identity == pytest.approx(mean, rel=1e-12)
    assert rep.shift_identity == pytest.approx(shift, rel=1e-12)


class _ProductShapes(np.ndarray):
    """An ndarray view that records the shape of every matrix product it
    takes part in; results stay views of this class, so products of
    products are seen too."""

    shapes = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(np.asarray(x) if isinstance(x, _ProductShapes) else x
                      for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            _ProductShapes.shapes.append(result.shape)
        return result.view(_ProductShapes) if isinstance(result, np.ndarray) else result


def test_identity_check_forms_only_its_blocks():
    """The commutators are assembled from the buffered block of L^2 and
    from B's displacement, measured by its FFT action on probe rows: the
    only matrix products that touch L or the eigenvectors are L^2 on rows
    :R+1 and those of the R eigenvectors (x, M and b), no K x K product."""
    K = 128
    u = random_decaying(5, K)
    dec = spectral_decompose(build_lax(u, "focusing"))
    want = check_spectral_identities(u, dec)

    recorded = dataclasses.replace(dec, matrix=dec.matrix.view(_ProductShapes),
                                   vectors=dec.vectors.view(_ProductShapes))
    _ProductShapes.shapes = []
    assert check_spectral_identities(u, recorded) == want
    # R = 96: b, x (on u as a column), then M and L^2 on [:R+1, :R]
    assert sorted(_ProductShapes.shapes) == [(96,), (96, 1), (96, 96), (97, 96)]


def test_build_lax_takes_no_matrix_product():
    """P = T_u T_ubar is filled from its displacement equation: every
    array built from u stays a recorder view, and none enters a product."""
    u = random_decaying(5, 128)
    want = build_lax(u, "focusing").matrix
    recorded = HardyCoeffs(u.coeffs)
    object.__setattr__(recorded, "coeffs", u.coeffs.view(_ProductShapes))
    _ProductShapes.shapes = []
    assert np.array_equal(build_lax(recorded, "focusing").matrix, want)
    assert _ProductShapes.shapes == []


def _traced_peak(call):
    """(result, peak bytes that Python and numpy allocated during call)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sign", ["focusing", "defocusing"])
def test_lax_path_memory_at_k512(sign):
    """Memory guard for the K = 512 spectral path: build_lax holds at most
    two K x K complex arrays (the result and no more than one beside it),
    and the identity check at most six R x R complex arrays at once."""
    K = 512
    R = K - K // 4
    u = random_decaying(3, K)
    L, peak = _traced_peak(lambda: build_lax(u, sign))
    assert peak <= 2 * 16 * K * K
    dec = spectral_decompose(L)
    _, peak = _traced_peak(lambda: check_spectral_identities(u, dec))
    assert peak <= 6 * 16 * R * R


def test_lax_matrix_bytes_do_not_depend_on_blas_threads():
    """No BLAS call touches L, so its bytes are the same under one and two
    OpenBLAS threads (the dense product T_u T_u^H rounded differently at
    K = 250)."""
    code = ("import hashlib; from cslab import build_lax, random_decaying; "
            "print([hashlib.sha256(build_lax(random_decaying(5, K), s).matrix.tobytes())"
            ".hexdigest() for K in (250, 256, 512) for s in ('focusing', 'defocusing')])")
    src = str(Path(cslab.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        digests.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True, timeout=120).stdout)
    assert digests[0] == digests[1] != ""


def _fix_phases_loop(vectors):
    """Column-by-column reference for the vectorized phase fix."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > _PHASE_TOL)
        pivot = col[idx[0]] if idx.size else None
        if pivot is not None and abs(pivot) > 0:
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


@pytest.mark.parametrize("K", [64, 512])
def test_fix_phases_matches_column_loop(K):
    rng = np.random.default_rng(K)
    A = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
    _, V = np.linalg.eigh(A + A.conj().T)
    V[:, 1] *= 1e-9                   # no entry above the pivot tolerance
    V[:3, 2] = 1e-10                  # pivot further down the column
    fixed = _fix_phases(V.copy())     # the fix works in place
    assert np.array_equal(fixed, _fix_phases_loop(V))
    assert np.array_equal(fixed[:, 1], V[:, 1])
    assert _fix_phases(V) is V
    assert np.array_equal(V, fixed)
