"""Residue system, classification, ladder and spectral inversion.

Solvable oracles used here:

* One pole p, multiplicity 1, m0 = 0: the residue condition
  a c_1 + |c_1|^2/(1-|p|^2) = 1 with a = 0 gives c_1 = sqrt(1-p^2) and the
  potential u(z) = c_1/(1-pz), i.e. coefficients c_1 p^n.  ||u||^2 = 1
  independent of p.
* Poles +/-p, multiplicities 1, m0 = 0: symmetry forces c_2 = -c_1 and the
  conditions reduce to c_1^2 (1/(1-p^2) - 1/(1+p^2)) = 1, i.e.
  c_1 = sqrt(2(1-p^4))/(2p).  The coefficients alternate: u_hat(n) =
  2 c_1 p^n for odd n, 0 for even n, giving ||u||^2 = 4c_1^2 p^2/(1-p^4) = 2
  for every p.
* The reduced inversion matrix of the defocusing N = 1 wave has eigenvalues
  {p, 0}: det(Id - zM) = 1 - pz locates the single pole of the rational
  potential at z = 1/p.  Verified against |<f_0|S f_0>| below.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from cslab import (
    BasisDrift,
    BlaschkeProduct,
    ConstraintViolation,
    DimensionMismatch,
    EvolveConfig,
    HardyCoeffs,
    Inconclusive,
    InfeasibleSign,
    InvalidParameter,
    NewtonDivergence,
    NumericalAliasing,
    PoleOnCircle,
    FiniteGapPotential,
    TruncationOverflow,
    blaschke_eigen_check,
    build_lax,
    check_spectral_identities,
    classify,
    inversion_data,
    ladder_blaschke,
    make_fixture,
    make_wave,
    gap_profile,
    pde_residual,
    potential_coeffs,
    predicted_l2,
    random_decaying,
    random_pole_config,
    reconstruct,
    residue_residuals,
    solve_residue_system,
    solve_wave_constraint,
    spectral_decompose,
    validate_wave,
)
import cslab.finitegap as finitegap
from cslab.errors import check_sign
from cslab.finitegap import _ladder_walk, _model_space
from cslab.hardy import _shifted_columns

RATIONAL = ["appendix1", "appendix2", "wave:defocusing:1:0.5:1",
            "wave:focusing:1:0.5:1", "stationary:1:0.5", "modulated:3:0.5"]

# criterion 9's 64 disc points
DISC_POINTS = [r * np.exp(1j * (2.0 * np.pi * k / 8.0 + 0.37))
               for r in np.linspace(0.1125, 0.9, 8) for k in range(8)]


# ----------------------------------------------------------------------
# residue system


def test_single_pole_solution_closed_form():
    p = 0.5
    fg = solve_residue_system("focusing", 0, [p], [1])
    assert fg.a == pytest.approx(0.0, abs=1e-13)
    assert fg.residues[0] == pytest.approx(np.sqrt(1 - p * p), abs=1e-12)
    res = residue_residuals("focusing", fg.a, fg.residues, fg.poles, fg.mults)
    assert np.abs(res).max() < 1e-12


def _pole_pair(p):
    """The record of the potential sqrt(2(1-p^4)) z/(1 - p^2 z^2), appendix2's
    profile at another pole: a = 0 and residues +/- c1 at the poles +/- p."""
    c1 = np.sqrt(2 * (1 - p ** 4)) / (2 * p)
    return FiniteGapPotential(sign="focusing", m0=0, poles=(p, -p), mults=(1, 1),
                              a=0.0, residues=(c1, -c1))


def test_symmetric_pole_pair_closed_form():
    p = 0.5
    fg = _pole_pair(p)
    c1 = np.sqrt(2 * (1 - p ** 4)) / (2 * p)
    res = residue_residuals("focusing", fg.a, fg.residues, fg.poles, fg.mults)
    assert np.abs(res).max() < 1e-12
    got = sorted(abs(c) for c in fg.residues)
    assert got[0] == pytest.approx(c1, abs=1e-12)
    assert got[1] == pytest.approx(c1, abs=1e-12)
    assert fg.residues[0] == pytest.approx(-fg.residues[1], abs=1e-12)
    assert fg.N == 2
    assert fg.predicted_eig == pytest.approx(0.0, abs=1e-12)


def test_potential_coeffs_geometric_series():
    p = 0.5
    fg1 = make_fixture("appendix1").finite_gap  # p = 0.5
    u1 = potential_coeffs(fg1, 48)
    n = np.arange(48)
    np.testing.assert_allclose(u1.coeffs, np.sqrt(1 - p * p) * p ** n,
                               atol=1e-14)
    fg2 = _pole_pair(p)
    u2 = potential_coeffs(fg2, 48)
    want = 2 * abs(fg2.residues[0]) * p ** n
    want[::2] = 0.0
    np.testing.assert_allclose(np.abs(u2.coeffs), want, atol=1e-13)
    assert u2.norm() ** 2 == pytest.approx(2.0, abs=1e-12)


def test_norm_identity_on_seeded_instance():
    fg = solve_residue_system("defocusing", 1, [0.4, -0.3 + 0.2j], [1, 1])
    u = potential_coeffs(fg, 256)
    assert abs(predicted_l2(fg) - u.norm() ** 2) < 1e-10


def test_residue_system_error_paths(monkeypatch):
    with pytest.raises(InfeasibleSign):
        solve_residue_system("defocusing", 0, [0.5], [1], pin_a=0.0)
    with pytest.raises(ConstraintViolation):
        solve_residue_system("focusing", 1, [0.5], [1], pin_a=0.0)
    # two poles: the decoupled start is off the solution, one step is too few
    with monkeypatch.context() as m:
        m.setattr(finitegap, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(NewtonDivergence):
            solve_residue_system("focusing", 0, [0.5, -0.3 + 0.2j], [1, 1])
    solve_residue_system("focusing", 0, [0.5, -0.3 + 0.2j], [1, 1])
    with pytest.raises(InvalidParameter):
        solve_residue_system("focusing", 0, [0.5, 0.5], [1, 1])  # duplicate
    # refused on entry, before the Newton least-squares steps reach LAPACK
    for pole in (1.5, complex(float("nan"), 0.0), float("inf")):
        with pytest.raises(PoleOnCircle):
            solve_residue_system("focusing", 0, [pole], [1])
    nan_pole = complex(float("nan"), 0.0)
    with pytest.raises(PoleOnCircle):  # errno left at ERANGE, see reconstruct's test
        float("1e400")
        solve_residue_system("focusing", 0, [nan_pole], [1])
    with pytest.raises(InvalidParameter):
        solve_residue_system("focusing", 0, [0.5], [1], pin_a=float("nan"))
    # m0 < 0, a multiplicity below 1 or not an integer, a zero pole: refused
    # before the start sqrt(m (1 - |p|^2)) could hand NaN to lstsq
    for m0, poles, mults in [(-1, [0.5], [1]), (1.5, [0.5], [1]), (0, [0.5], [-1]),
                             (0, [0.5], [0]), (0, [0.5], [1.5]), (0, [0.0], [1])]:
        with pytest.raises(InvalidParameter):
            solve_residue_system("focusing", m0, poles, mults)


_POLE_WAVE = dict(N=1, p=0.5, beta=1.0)
_SIGN_ENTRIES = {
    "build_lax": lambda s: build_lax(HardyCoeffs(0.5 ** np.arange(16)), s),
    "EvolveConfig": lambda s: EvolveConfig(sign=s, K=16, T=0.1),
    "FiniteGapPotential": lambda s: FiniteGapPotential(
        sign=s, m0=0, poles=(0.3,), mults=(1,), a=0.0, residues=(0.5,)),
    # residue_residuals read an unknown sign as defocusing before it was checked
    "residue_residuals": lambda s: residue_residuals(s, 0.5, [0.5], [0.3], [1]),
    "solve_residue_system": lambda s: solve_residue_system(s, 0, [0.3], [1]),
    "solve_wave_constraint": lambda s: solve_wave_constraint(s, 1, 0.5, 1.0),
    "make_wave": lambda s: make_wave(s, "pole", **_POLE_WAVE),
    "validate_wave": lambda s: validate_wave(
        dataclasses.replace(make_wave("focusing", "pole", **_POLE_WAVE), sign=s)),
    "pde_residual": lambda s: pde_residual(make_wave("focusing", "pole", **_POLE_WAVE),
                                           s, K=64),
}


@pytest.mark.parametrize("sign", ["sideways", "Focusing", None, 1.0])
@pytest.mark.parametrize("entry", list(_SIGN_ENTRIES))
def test_every_entry_refuses_an_unknown_sign(entry, sign):
    with pytest.raises(InvalidParameter, match="unknown sign"):
        _SIGN_ENTRIES[entry](sign)


def test_check_sign_returns_sigma():
    """sigma of (CS+-): exactly +1.0 for the focusing sign, -1.0 for the
    defocusing one, as floats."""
    got = [check_sign("focusing"), check_sign("defocusing")]
    assert got == [1.0, -1.0]
    assert all(type(x) is float for x in got)


def test_finite_gap_potential_validation():
    with pytest.raises(PoleOnCircle):
        FiniteGapPotential(sign="focusing", m0=0, poles=(1.0,), mults=(1,),
                           a=0.0, residues=(1.0,))
    with pytest.raises(PoleOnCircle):
        FiniteGapPotential(sign="focusing", m0=0, poles=(float("nan"),),
                           mults=(1,), a=0.0, residues=(1.0,))
    with pytest.raises(InvalidParameter):
        FiniteGapPotential(sign="focusing", m0=0, poles=(0.5,), mults=(1,),
                           a=float("nan"), residues=(1.0,))
    with pytest.raises(InvalidParameter):
        FiniteGapPotential(sign="focusing", m0=0, poles=(0.0,), mults=(1,),
                           a=0.0, residues=(1.0,))
    with pytest.raises(ConstraintViolation):
        FiniteGapPotential(sign="focusing", m0=1, poles=(0.5,), mults=(1,),
                           a=0.0, residues=(np.sqrt(0.75),))
    for m0, mults in [(1.5, (1,)), (0, (1.5,))]:  # not truncated to integers
        with pytest.raises(InvalidParameter):
            FiniteGapPotential(sign="focusing", m0=m0, poles=(0.5,), mults=mults,
                               a=1.0, residues=(1.0,))


def test_potential_coeffs_aliasing_guard():
    fg = solve_residue_system("focusing", 0, [0.9], [1])
    with pytest.raises(NumericalAliasing):
        potential_coeffs(fg, 16)
    with pytest.raises(InvalidParameter):
        potential_coeffs(fg, 256.0)
    # e^{i m0 x} with m0 >= K has no mode below K; sampled on a 2K grid,
    # m0 = 2K + 5 used to fold onto mode 5, and m0 = 600 at K = 256 onto 88
    for m0, K in [(16, 16), (37, 16), (600, 256)]:
        with pytest.raises(NumericalAliasing):
            potential_coeffs(solve_residue_system("focusing", m0, [0.5], [1]), K)


@pytest.mark.parametrize("p, K", [(0.8, 64), (0.9, 100), (0.9, 90), (0.95, 200)])
def test_potential_coeffs_near_the_circle(p, K):
    """The one-pole profile sqrt(1 - p^2)/(1 - p z) to roundoff; a fixed 2K
    grid left fold-back errors of 2.4e-13 to 2.5e-9 here."""
    fg = solve_residue_system("focusing", 0, [p], [1])
    with warnings.catch_warnings():  # the cut drops up to 6e-9 of the energy
        warnings.simplefilter("ignore", TruncationOverflow)
        got = potential_coeffs(fg, K).coeffs
    want = np.sqrt(1.0 - p * p) * p ** np.arange(K)
    assert np.max(np.abs(got - want)) <= 1e-15


# ----------------------------------------------------------------------
# classification


@pytest.mark.parametrize("name,m,N", [
    ("appendix1", 1, 1),
    ("appendix2", 3, 2),
    ("wave:defocusing:1:0.5:1", 2, 1),
    ("modulated:3:0.5", 5, 4),
    ("plane:3:1", 4, 3),
])
def test_classify_rational_fixtures(name, m, N):
    fx = make_fixture(name)
    u = fx.coeffs(128)
    dec = spectral_decompose(build_lax(u, fx.sign), buffer=32)
    cls = classify(dec, u)
    assert cls.is_finite_gap
    assert cls.m == m
    assert cls.N_estimate == N


def test_classify_generic_slow_decay_is_refused_or_negative():
    """Slowly decaying random data must not silently classify as finite gap."""
    u = random_decaying(7, 256, rho=0.9)
    dec = spectral_decompose(build_lax(u, "defocusing"))
    try:
        cls = classify(dec, u)
    except Inconclusive:
        return
    assert not cls.is_finite_gap


def test_classify_truncation_mismatch_guard():
    u = make_fixture("appendix1").coeffs(64)
    dec = spectral_decompose(build_lax(u, "focusing"))
    with pytest.raises(DimensionMismatch):
        classify(dec, make_fixture("appendix1").coeffs(128))


def test_a_foreign_potential_is_refused():
    """A potential of dec's truncation that did not build dec is refused by
    every function that reads both.  Unrefused, this pair gave identity
    residuals of 0.65, a finite-gap verdict read off appendix1's ladder,
    and a reduced reconstruction 1.3e-2 off v at z = 0.3 + 0.2i."""
    fx = make_fixture("appendix1")
    u = fx.coeffs(128)
    dec = spectral_decompose(build_lax(u, fx.sign))
    v = random_decaying(5, 128, 0.5)
    for call in (lambda: gap_profile(dec, v), lambda: check_spectral_identities(v, dec),
                 lambda: classify(dec, v), lambda: inversion_data(v, dec)):
        with pytest.raises(InvalidParameter, match="not the potential"):
            call()
    # the potential rebuilt from the fixture is equal, so it is dec's own
    assert classify(dec, fx.coeffs(128)) == classify(dec, u)


# ----------------------------------------------------------------------
# ladder


def test_ladder_blaschke_matches_solved_poles():
    fg = _pole_pair(0.5)
    psi = ladder_blaschke(fg)
    assert psi.power == 0
    assert sorted(complex(z).real for z in psi.zeros) == [-0.5, 0.5]
    u = potential_coeffs(fg, 256)
    dec = spectral_decompose(build_lax(u, fg.sign))
    base_dev, res = blaschke_eigen_check(dec, psi, kmax=6)
    assert base_dev < 1e-10
    assert res.max() < 1e-8
    for kmax in (-1, 33, 2.5):  # at most K/8 = 32 rungs, an integer
        with pytest.raises(InvalidParameter):
            blaschke_eigen_check(dec, psi, kmax=kmax)
    # no coefficient below K: nothing to normalize.  Zeros at 0 count in the
    # power; sampled as factors z, they left FFT dust that normalized to a
    # wrong nu (36.08 for 70 of them at K = 64)
    for bad in (BlaschkeProduct(zeros=psi.zeros, power=256),
                BlaschkeProduct(zeros=psi.zeros, power=300),
                BlaschkeProduct(zeros=psi.zeros + (0.0,) * 256)):
        with pytest.raises(InvalidParameter):
            blaschke_eigen_check(dec, bad, kmax=6)



@pytest.fixture(scope="module")
def walk_pool():
    """(name, u, dec) for the six rational fixtures and 16 seeded pole
    configurations (signs alternating, as in criterion 8), K = 256, buffer 96."""
    pool = []
    for name in RATIONAL:
        fx = make_fixture(name)
        u = fx.coeffs(256)
        pool.append((name, u, spectral_decompose(build_lax(u, fx.sign), buffer=96)))
    for i in range(16):
        sign = "focusing" if i % 2 == 0 else "defocusing"
        u = potential_coeffs(solve_residue_system(sign, *random_pole_config(1234 + i)), 256)
        pool.append((f"poles:{1234 + i}", u,
                     spectral_decompose(build_lax(u, sign), buffer=96)))
    return pool


def _sequential_walk(dec):
    """Oracle: the ladder walk rung by rung, one matvec and one
    renormalization per step, with the same tolerances (1e-6 norm drop,
    1e-5 eigen-residual)."""
    K = dec.K
    n_seed = min(dec.reliable, K - K // 4) - 1
    rows = K - K // 4
    w = dec.vectors[:, n_seed].copy()
    nu_seed = float(dec.eigenvalues[n_seed])
    members, base = 1, w
    for step in range(1, n_seed + 2):
        wn = np.concatenate([w[1:], [0.0]])
        nrm = float(np.linalg.norm(wn))
        if nrm < 1.0 - 1e-6:
            break
        wn = wn / nrm
        resid = np.linalg.norm((dec.matrix @ wn)[:rows] - (nu_seed - step) * wn[:rows])
        if resid > 1e-5:
            break
        w = base = wn
        members += 1
    return n_seed, members, base


def test_ladder_walk_matches_sequential_oracle(walk_pool):
    for name, u, dec in walk_pool:
        n_seed, members, base = _ladder_walk(dec)
        want_seed, want_members, want_base = _sequential_walk(dec)
        assert (n_seed, members) == (want_seed, want_members), name
        assert np.max(np.abs(base - want_base)) <= 1e-12, name
        assert classify(dec, u).N_estimate == (want_seed + 1) - want_members, name


class _CountingMatrix(np.ndarray):
    """An ndarray view that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingMatrix.products += 1
        inputs = tuple(np.asarray(x) if isinstance(x, _CountingMatrix) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_ladder_walk_is_one_matrix_product(walk_pool):
    name, u, dec = walk_pool[-1]
    counted = dataclasses.replace(dec, matrix=dec.matrix.view(_CountingMatrix))
    _CountingMatrix.products = 0
    n_seed, members, _ = _ladder_walk(counted)
    assert members >= 50, name  # a long ladder, so one product per rung would show
    assert _CountingMatrix.products == 1


def _projected_window(u, dec):
    """(B, N): the low spectral window with the ladder span projected out,
    the span rebuilt by the shift loop that ``_shifted_columns`` replaces."""
    cls = classify(dec, u)
    assert cls.is_finite_gap
    W = np.empty((dec.K, cls.ladder_members), dtype=np.complex128)
    W[:, 0] = cls.ladder_base
    for k in range(1, cls.ladder_members):
        W[:, k] = np.concatenate([[0.0], W[:-1, k - 1]])
    assert np.array_equal(W, _shifted_columns(cls.ladder_base, cls.ladder_members,
                                              backward=False))
    V_low = dec.vectors[:, : cls.N_estimate + cls.ladder_members]
    return V_low - W @ (W.conj().T @ V_low), cls.N_estimate


def test_model_space_matches_svd_oracle(walk_pool):
    u = random_decaying(1, 512)  # rank-ambiguous: s[N] is just above 1e-6
    broadband = ("random_decaying(1, 512)", u,
                 spectral_decompose(build_lax(u, "defocusing")))
    verdicts = set()
    for name, u, dec in walk_pool + [broadband]:
        B, N = _projected_window(u, dec)
        if N == 0:
            continue
        s, U = _model_space(B, N)
        U_svd, s_svd, _ = np.linalg.svd(B, full_matrices=False)
        ambiguous = s_svd[N - 1] < 0.5 or (s_svd.shape[0] > N and s_svd[N] > 1e-6)
        assert (U is None) == ambiguous, name
        verdicts.add(ambiguous)
        assert abs(s[N - 1] - s_svd[N - 1]) <= 1e-9, name
        # eigh of B^H B gets s^2 to a few eps: s[N] is within 1e-9 near the
        # 1e-6 threshold, and reads about sqrt(eps) ~ 1e-8 where s[N] ~ 1e-13
        assert abs(s[N] ** 2 - s_svd[N] ** 2) <= 1e-14, name
        if s_svd[N] >= 1e-7:
            assert abs(s[N] - s_svd[N]) <= 1e-9, name
        if U is not None:
            P_svd = U_svd[:, :N] @ U_svd[:, :N].conj().T
            assert np.max(np.abs(U @ U.conj().T - P_svd)) <= 1e-10, name
    assert verdicts == {False, True}  # both sides of the rank test were seen


@pytest.mark.parametrize("seed,K", [(1, 512), (1234, 768), (1, 768)])
def test_rank_ambiguous_model_space_yields_unreduced_data(seed, K):
    """Broadband draws that classify as finite gap at the resolution limit
    (N ~ 50) but leave s[N] of the projected window just above 1e-6: the
    reduction is skipped with its reason, and the full path stays exact."""
    u = random_decaying(seed, K)
    data = inversion_data(u, spectral_decompose(build_lax(u, "defocusing")))
    assert data.reduced_dim is None
    assert data.unreduced_reason.startswith("model-space extraction is rank-ambiguous")
    assert np.max(np.abs(data.moments - u.coeffs)) <= 1e-12
    for z in (0.3, -0.5j, 0.6 + 0.2j):
        assert reconstruct(data, z, use_reduced=False) == pytest.approx(
            _series_eval(u, z), abs=1e-12)


# ----------------------------------------------------------------------
# spectral inversion


def _series_eval(u, z):
    """Direct evaluation of u(z) = sum u_hat(n) z^n (the oracle)."""
    return complex(np.polyval(u.coeffs[::-1], z))


@pytest.mark.parametrize("name", RATIONAL)
def test_inversion_round_trip(name):
    fx = make_fixture(name)
    u = fx.coeffs(256)
    dec = spectral_decompose(build_lax(u, fx.sign))
    data = inversion_data(u, dec)
    for z in [0.0, 0.45, -0.6, 0.5j, 0.63 - 0.63j]:
        want = _series_eval(u, z)
        assert reconstruct(data, z, use_reduced=True) == pytest.approx(want, abs=1e-8)
        full = reconstruct(data, z, use_reduced=False)
        assert full == pytest.approx(want, abs=1e-8)


def test_inversion_reduced_dimension_and_pole_recovery():
    fx = make_fixture("wave:defocusing:1:0.5:1")
    u = fx.coeffs(256)
    dec = spectral_decompose(build_lax(u, fx.sign))
    data = inversion_data(u, dec)
    assert data.reduced_dim == 2  # N + 1
    mu = sorted(np.abs(np.linalg.eigvals(data.M_red)))
    assert mu[0] == pytest.approx(0.0, abs=1e-10)
    assert mu[1] == pytest.approx(0.5, abs=1e-10)
    f0 = dec.vectors[:, 0]
    overlap = abs(np.vdot(f0[1:], f0[:-1]))  # |<S f_0|f_0>|
    assert overlap == pytest.approx(0.5, abs=1e-10)


def test_inversion_neumann_degree_one():
    """For u = c0 + c1 z the resolvent series terminates at first order, so
    the full-basis evaluation is roundoff-exact.  The reduced block relies
    on finite-gap tail vanishing that generic data only satisfies to
    truncation accuracy, hence the looser bound on the reduced path."""
    c = np.zeros(32, dtype=complex)
    c[0], c[1] = 0.1, 0.05 - 0.02j
    u = HardyCoeffs(c)
    dec = spectral_decompose(build_lax(u, "defocusing"))
    data = inversion_data(u, dec)
    for z in [0.0, 0.3, -0.8j]:
        want = c[0] + c[1] * z
        assert reconstruct(data, z, use_reduced=False) == pytest.approx(
            want, abs=1e-12)
        assert reconstruct(data, z, use_reduced=True) == pytest.approx(want, abs=1e-6)


def _inverted_fixtures(K=256):
    """(name, u, data) for the six rational fixtures and four seeded pole
    configurations (signs alternating and buffer 96, as in criterion 8)."""
    for name in RATIONAL:
        fx = make_fixture(name)
        u = fx.coeffs(K)
        yield name, u, inversion_data(u, spectral_decompose(build_lax(u, fx.sign)))
    for i in range(4):
        sign = "focusing" if i % 2 == 0 else "defocusing"
        fg = solve_residue_system(sign, *random_pole_config(1234 + i))
        u = potential_coeffs(fg, K)
        dec = spectral_decompose(build_lax(u, sign), buffer=96)
        yield f"poles:{1234 + i}", u, inversion_data(u, dec)


def test_moments_are_the_taylor_coefficients():
    """<M^k X | Y> = <(S*)^k u | 1> = u_hat(k) in any orthonormal basis."""
    for name, u, data in _inverted_fixtures():
        assert np.max(np.abs(data.moments - u.coeffs)) <= 1e-12, name


def test_full_path_matches_dense_resolvent_oracle():
    """The terminating series equals the resolvent it replaces."""
    for name, u, data in _inverted_fixtures():
        K = u.K
        for z in DISC_POINTS:
            want = np.vdot(data.Y, np.linalg.solve(np.eye(K) - z * data.M, data.X))
            got = reconstruct(data, z, use_reduced=False)
            assert abs(got - want) <= 1e-12, (name, z)


def test_inversion_refuses_a_non_unitary_basis():
    """Negative control for the nilpotency guard: with a non-unitary basis
    M = V^H S* V is not nilpotent and the series would not terminate."""
    u = make_fixture("appendix1").coeffs(16)
    dec = spectral_decompose(build_lax(u, "focusing"))
    rng = np.random.default_rng(5)
    V = np.eye(16) + 0.3 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    assert np.linalg.cond(V) < 1e6  # invertible
    with pytest.raises(BasisDrift):
        inversion_data(u, dataclasses.replace(dec, vectors=V))
    V = dec.vectors.copy()
    V[3, 5] = np.nan  # a NaN residual must fail the guard, not pass it
    with pytest.raises(BasisDrift):
        inversion_data(u, dataclasses.replace(dec, vectors=V))


def test_full_path_makes_no_solve(monkeypatch):
    """The full path sums the moment series: no determinant, no solve."""
    fx = make_fixture("appendix2")
    u = fx.coeffs(128)
    data = inversion_data(u, spectral_decompose(build_lax(u, fx.sign), buffer=32))

    def no_dense_algebra(*args, **kwargs):
        raise AssertionError("dense solve on the full path")

    monkeypatch.setattr(np.linalg, "solve", no_dense_algebra)
    monkeypatch.setattr(np.linalg, "det", no_dense_algebra)
    for z in DISC_POINTS:
        assert reconstruct(data, z, use_reduced=False) == pytest.approx(
            _series_eval(u, z), abs=1e-12)
    with pytest.raises(AssertionError):  # the patch is live: the reduced block solves
        reconstruct(data, 0.5, use_reduced=True)


def test_reconstruct_rejects_points_outside_disc():
    u = make_fixture("appendix1").coeffs(64)
    dec = spectral_decompose(build_lax(u, "focusing"))
    data = inversion_data(u, dec)
    with pytest.raises(InvalidParameter):
        reconstruct(data, 1.0, use_reduced=False)
    # non-finite points compare false against the radius; both paths refuse them
    fx = make_fixture("appendix2")
    u2 = fx.coeffs(128)
    red = inversion_data(u2, spectral_decompose(build_lax(u2, fx.sign), buffer=32))
    assert red.reduced_dim == 3
    for z in [float("nan"), complex(0.1, float("nan")), float("inf"),
              complex(float("inf"), float("nan"))]:
        for use_reduced in (False, True):
            with pytest.raises(InvalidParameter):
                reconstruct(red, z, use_reduced=use_reduced)
            # float("1e400") leaves errno at ERANGE, under which CPython's
            # abs() of a complex NaN raises OverflowError
            with pytest.raises(InvalidParameter):
                float("1e400")
                reconstruct(red, z, use_reduced=use_reduced)
    assert reconstruct(data, 0.0, use_reduced=False) == pytest.approx(u.coeffs[0], abs=1e-10)
    # frozen value: u(1/2) = sqrt(3/4)/(3/4) = 2/sqrt(3)
    assert reconstruct(data, 0.5, use_reduced=False) == pytest.approx(2 / np.sqrt(3), abs=1e-9)


def test_spectral_consumers_reuse_the_decomposition(monkeypatch):
    """Once dec exists, the identity checks, the ladder check, classification
    and inversion read its Lax matrix and never assemble L again (finitegap
    does not import build_lax at all)."""
    import cslab.lax
    from cslab import check_spectral_identities

    fx = make_fixture("appendix2")
    u = fx.coeffs(128)
    dec = spectral_decompose(build_lax(u, fx.sign), buffer=32)

    def no_rebuild(*args, **kwargs):
        raise AssertionError("build_lax called after spectral_decompose")

    monkeypatch.setattr(cslab.lax, "build_lax", no_rebuild)
    assert not hasattr(finitegap, "build_lax")
    assert check_spectral_identities(u, dec).max_residual() < 1e-8
    assert blaschke_eigen_check(dec, fx.blaschke(), kmax=4)[1].max() < 1e-8
    cls = classify(dec, u)
    assert cls.is_finite_gap and cls.N_estimate == 2
    assert cls.ladder_members + cls.N_estimate == dec.reliable
    data = inversion_data(u, dec)
    assert data.reduced_dim == 3
