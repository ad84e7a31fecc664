"""Time integration: exactness, conservation, order, speed measurement.

The integrating-factor RK4 scheme is exact on plane waves (the nonlinear
term reduces to a frequency shift absorbed by the rotating frame), which
gives a roundoff-level end-to-end check.  Fourth order is measured on the
pole-family wave against the analytic sampler; halving dt must shrink the
error by about 2^4 (we require >= 12 to leave room for roundoff).
"""

import warnings

import numpy as np
import pytest

from cslab import (
    BlowupDetected,
    DimensionMismatch,
    EvolveConfig,
    HardyCoeffs,
    InvalidParameter,
    NotATravelingWave,
    OutsideTheory,
    UnderResolved,
    build_lax,
    conservation_report,
    evolve,
    evolve_basis,
    make_fixture,
    measure_speed,
    phase_law_report,
    random_decaying,
    sample_wave,
    spectral_decompose,
)
from cslab.errors import K_MAX, check_sign
from cslab.evolve import MAX_STEPS, _lawson_setup, _lawson_stages
from cslab import hardy
from cslab.hardy import (
    _FFTWorkspace,
    _conv_length,
    _shifted_columns,
    nonlinearity,
)
from cslab.lax import _apply_b_cols, _b_kernels, _matrices_in_basis, check_spectral_identities


def _wave_state(name, K):
    fx = make_fixture(name)
    return fx, fx.coeffs(K)


def test_config_validation():
    with pytest.raises(InvalidParameter):
        EvolveConfig(sign="defocusing", K=1, T=1.0, dt=1e-3)
    with pytest.raises(InvalidParameter):
        EvolveConfig(sign="defocusing", K=8, T=1.0, dt=0.0)
    with pytest.raises(InvalidParameter):
        EvolveConfig(sign="defocusing", K=8, T=1.0, dt=1e-3, record_every=0)
    with pytest.raises(InvalidParameter):
        EvolveConfig(sign="squeezing", K=8, T=1.0, dt=1e-3)
    # K and record_every must be integers: the same test as the buffer's
    for bad in (dict(K=32.0), dict(K=True), dict(K="32"),
                dict(K=32, record_every=2.5), dict(K=32, record_every=True),
                dict(K=32, record_every=2.0)):
        with pytest.raises(InvalidParameter):
            EvolveConfig(sign="defocusing", T=1.0, dt=1e-3, **bad)
    cfg = EvolveConfig(sign="defocusing", K=np.int64(32), T=1.0, dt=1e-3,
                       record_every=np.int32(2))
    assert (type(cfg.K), type(cfg.record_every)) == (int, int)
    # non-finite times: NaN fails every comparison, inf gives no usable step
    for T, dt in [(float("nan"), 1e-3), (float("inf"), 1e-3),
                  (1.0, float("nan")), (1.0, float("inf"))]:
        with pytest.raises(InvalidParameter):
            EvolveConfig(sign="defocusing", K=8, T=T, dt=dt)
    # K above K_MAX, a step count T/dt that overflows to inf, and finite
    # step counts above MAX_STEPS, which no run finishes
    for bad in (dict(K=K_MAX + 1, T=1.0, dt=1e-3), dict(K=8, T=1e308, dt=1e-10),
                dict(K=8, T=1e300), dict(K=8, T=MAX_STEPS + 1.0, dt=1.0)):
        with pytest.raises(InvalidParameter):
            EvolveConfig(sign="defocusing", **bad)
    EvolveConfig(sign="defocusing", K=8, T=float(MAX_STEPS), dt=1.0)


def test_plane_wave_evolution_is_exact():
    fx, u0 = _wave_state("plane:1:0.5", 32)
    w = fx.wave
    cfg = EvolveConfig(sign="defocusing", K=32, T=0.3, dt=1e-3)
    traj = evolve(u0, cfg)
    want = sample_wave(w, 0.3, 32).coeffs
    assert np.abs(traj.coeffs[-1] - want).max() < 1e-12


def test_snapshot_cadence_and_final_time():
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    cfg = EvolveConfig(sign="defocusing", K=64, T=0.01, dt=1e-3,
                       record_every=3)
    traj = evolve(u0, cfg)
    np.testing.assert_allclose(traj.times, [0.0, 0.003, 0.006, 0.009, 0.01],
                               atol=1e-15)
    assert traj.coeffs.shape == (5, 64)
    assert len(traj.l2) == len(traj.times) == len(traj.mean)


def test_states_are_the_rows_of_coeffs():
    """``states`` (read by the benchmark's flow workload) wraps each row."""
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    traj = evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.01, dt=1e-3,
                                   record_every=3))
    assert len(traj.states) == len(traj.coeffs) == 5
    for i, state in enumerate(traj.states):
        assert np.array_equal(state.coeffs, traj.coeffs[i])


def test_fourth_order_convergence_on_pole_wave():
    fx, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    w = fx.wave
    T = 0.1
    errs = []
    for dt in (8e-4, 4e-4):
        cfg = EvolveConfig(sign="defocusing", K=64, T=T, dt=dt,
                           record_every=10 ** 9)
        traj = evolve(u0, cfg)
        exact = sample_wave(w, T, 64).coeffs
        errs.append(np.linalg.norm(traj.coeffs[-1] - exact))
    assert errs[0] / errs[1] > 12.0, f"order ratio {errs[0]/errs[1]:.2f}"


def test_conservation_on_wave_flow():
    _, u0 = _wave_state("wave:focusing:1:0.5:1", 128)
    cfg = EvolveConfig(sign="focusing", K=128, T=0.2, dt=2e-4,
                       record_every=50)
    rep = conservation_report(evolve(u0, cfg))
    assert rep.l2_drift < 1e-8
    assert rep.mean_drift < 1e-8
    assert rep.eig_drift < 1e-6


def test_conservation_report_of_one_snapshot():
    """A one-snapshot (T = 0) trajectory is compared with itself."""
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    still = evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.0, dt=1e-3))
    rep = conservation_report(still)
    assert rep.eig_drift == 0.0


def test_measured_speed_matches_closed_form():
    fx, u0 = _wave_state("wave:focusing:1:0.5:1", 128)
    cfg = EvolveConfig(sign="focusing", K=128, T=0.2, dt=5e-4,
                       record_every=10)
    traj = evolve(u0, cfg)
    c = measure_speed(traj, u0)
    assert c == pytest.approx(-1.0 / 3.0, abs=1e-6)


def test_coarse_records_give_the_speed():
    """Records 50 steps apart turn the phase of mode n by n c dt = 0.258 n:
    past pi for the significant modes 13 to 17, which alias unless they
    are unwrapped against the equation's phase rates.  Records 1300 steps
    apart alias every mode (c dt = 6.7), evenly spaced or with a shorter
    last interval; unwrapped against mode 1 alone they would give
    c - 2 pi/dt = 3.33.  The speed is the one an every-step record gives,
    to the fit's roundoff."""
    fx, u0 = _wave_state("wave:defocusing:1:0.5:0.2", 128)
    modes = np.nonzero(np.abs(u0.coeffs) > 1e-6)[0]
    assert list(modes[modes * fx.wave.c * 50e-4 > np.pi]) == [13, 14, 15, 16, 17]
    speeds = []
    for T, every in ((0.05, 1), (0.05, 50), (0.52, 1300), (0.5, 1300)):
        cfg = EvolveConfig(sign="defocusing", K=128, T=T, dt=1e-4, record_every=every)
        speeds.append(measure_speed(evolve(u0, cfg), u0))
    assert speeds[0] == pytest.approx(fx.wave.c, rel=1e-9)
    assert speeds[1:] == pytest.approx([speeds[0]] * 3, rel=1e-9)


def test_conservation_report_refuses_a_truncation_without_buffer():
    """K = 4 keeps no reliability buffer (K/8 = 0): no eigenvalue drift."""
    u0 = HardyCoeffs(np.array([0.3, 0.1, 0.0, 0.0], dtype=complex))
    traj = evolve(u0, EvolveConfig(sign="defocusing", K=4, T=0.01, dt=1e-3))
    with pytest.raises(InvalidParameter):
        conservation_report(traj)


def test_measure_speed_guards():
    fx, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    cfg = EvolveConfig(sign="defocusing", K=64, T=0.05, dt=5e-4,
                       record_every=10)
    traj = evolve(u0, cfg)
    other = HardyCoeffs(u0.coeffs * 1.5)
    with pytest.raises(InvalidParameter):
        measure_speed(traj, other)
    with pytest.raises(DimensionMismatch):
        measure_speed(traj, make_fixture("wave:defocusing:1:0.5:1").coeffs(48))
    # one snapshot fixes no slope: the fit's minimum-norm answer would be c = 0
    still = evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.0, dt=5e-4))
    with pytest.raises(InvalidParameter):
        measure_speed(still, u0)


def test_superposition_is_not_a_traveling_wave():
    u1 = make_fixture("wave:defocusing:1:0.5:1").coeffs(64).coeffs
    u2 = make_fixture("plane:2:0.7").coeffs(64).coeffs
    mix = HardyCoeffs(u1 + u2)
    cfg = EvolveConfig(sign="defocusing", K=64, T=0.05, dt=5e-4)
    traj = evolve(mix, cfg)
    with pytest.raises(NotATravelingWave):
        measure_speed(traj, mix)


def test_blowup_threshold_guard():
    """|u_hat(0)| = 2e6 is above the threshold 1e6 after the first step: the
    scheme conserves the mean exactly, and a constant has no nonlinearity."""
    c = np.zeros(64, dtype=complex)
    c[0] = 2e6
    cfg = EvolveConfig(sign="defocusing", K=64, T=0.05, dt=5e-4)
    with pytest.raises(BlowupDetected, match="exceeded"):
        evolve(HardyCoeffs(c), cfg)


@pytest.mark.parametrize("every", [1, 10 ** 9])
def test_blowup_guard_stops_the_first_non_finite_step(every):
    """A step of 1e10 takes a 4-mode state to NaN, which compares False
    with the threshold: the guard is negated, so the run stops there and
    does not step NaN through the 10^5 steps to T, recorded or not."""
    c = np.zeros(32, dtype=complex)
    c[:4] = [0.3, 0.2j, 0.1, 0.05]
    cfg = EvolveConfig(sign="focusing", K=32, T=1e15, dt=1e10, record_every=every)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings are off too
        with pytest.raises(BlowupDetected, match="not finite"):
            evolve(HardyCoeffs(c), cfg)


def test_snapshots_that_do_not_fit_are_refused(monkeypatch):
    """The snapshot array is allocated before the first step; an allocation
    that fails is refused as a parameter error, not raised as MemoryError."""
    def no_memory(*args, **kwargs):
        raise MemoryError
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    cfg = EvolveConfig(sign="defocusing", K=64, T=0.01, dt=1e-3)
    monkeypatch.setattr(np, "empty", no_memory)
    with pytest.raises(InvalidParameter, match="record_every"):
        evolve(u0, cfg)


def test_under_resolved_initial_data_rejected():
    bad = np.zeros(64, dtype=complex)
    bad[-2] = 1.0
    with pytest.raises(UnderResolved):
        evolve(HardyCoeffs(bad), EvolveConfig(sign="defocusing", K=64,
                                              T=0.01, dt=1e-4))


def test_truncation_mismatch_rejected():
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    with pytest.raises(DimensionMismatch):
        evolve(u0, EvolveConfig(sign="defocusing", K=128, T=0.01, dt=1e-4))


def test_focusing_large_norm_warns_outside_theory():
    u0 = make_fixture("modulated:3:0.5").coeffs(64)  # norm^2 = 13/7 > 1
    cfg = EvolveConfig(sign="focusing", K=64, T=0.005, dt=1e-3)
    with pytest.warns(OutsideTheory):
        evolve(u0, cfg)


def test_evolved_basis_norms_and_phase_laws():
    fx, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    cfg = EvolveConfig(sign="defocusing", K=64, T=0.05, dt=2.5e-4,
                       record_every=1)
    traj = evolve(u0, cfg)
    dec = spectral_decompose(build_lax(u0, "defocusing"))
    basis = evolve_basis(traj, dec.vectors[:, :4])
    norms = np.linalg.norm(basis.coeffs[-1], axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
    rep = phase_law_report(traj, basis)
    for law in ("potential_law", "mean_law", "shift_law"):
        assert rep[law] < 1e-8, f"{law} residual {rep[law]:.3e}"


def test_phase_law_report_refuses_a_foreign_basis():
    """The basis must come from the trajectory: same times, same K."""
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    cfg = EvolveConfig(sign="defocusing", K=64, T=0.004, dt=1e-3)
    traj = evolve(u0, cfg)
    basis = evolve_basis(traj, np.eye(64, 2, dtype=complex))
    longer = evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.005, dt=1e-3))
    finer = evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.004, dt=5e-4))
    for other in (longer, finer):
        with pytest.raises(DimensionMismatch):
            phase_law_report(other, basis)
    wider = make_fixture("wave:defocusing:1:0.5:1").coeffs(128)
    with pytest.raises(DimensionMismatch):
        phase_law_report(evolve(wider, EvolveConfig(sign="defocusing", K=128,
                                                    T=0.004, dt=1e-3)), basis)
    assert set(phase_law_report(traj, basis)) == {"potential_law", "mean_law", "shift_law"}


def test_evolve_basis_shape_guard():
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    traj = evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.01, dt=1e-3))
    with pytest.raises(DimensionMismatch):
        evolve_basis(traj, np.eye(32, 2, dtype=complex))


def test_evolve_basis_rejects_sparse_recordings():
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    traj = evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.01, dt=1e-3,
                                   record_every=2))
    dec = spectral_decompose(build_lax(u0, "defocusing"))
    with pytest.raises(InvalidParameter):
        evolve_basis(traj, dec.vectors[:, :2])


@pytest.mark.parametrize("sign", ["focusing", "defocusing"])
def test_b_action_matches_dense_generator(sign):
    """The FFT action of B on columns against B built from plain K x K
    matrices: T_u, T_du with du = i n u, and P = T_u T_ubar."""
    K = 128
    u = random_decaying(11, K, rho=0.8)
    rng = np.random.default_rng(5)
    F = rng.standard_normal((K, 3)) + 1j * rng.standard_normal((K, 3))
    Tu = _shifted_columns(u.coeffs, K, backward=False)   # T_u, column k = S^k u
    Tdu = _shifted_columns(1j * np.arange(K) * u.coeffs, K, backward=False)
    P = Tu @ Tu.conj().T
    core = Tu @ Tdu.conj().T - Tdu @ Tu.conj().T
    want = ((core if sign == "focusing" else -core) + 1j * (P @ P)) @ F
    kernels = _kernels(u.coeffs, check_sign(sign))
    got = _apply_b_cols(kernels, F.T, _FFTWorkspace(3, (3, K))).T
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_stepper_fft_call_counts(monkeypatch):
    """Shared spectra: the nonlinearity makes 4 FFT calls, the kernel
    spectra 5 and the B action 4 (its three generator pairs share each
    call); evolve_basis makes 16 per step plus 17 per block of 8 steps (12
    for the stacked stages, 5 for their kernels), and the identity check
    5 + 4 * 3 at every K, so it runs the same B action (three calls on
    probe rows, ``lax._b_displacement``).
    Every transform goes through ``hardy._fft`` or ``hardy._ifft``, looked
    up on the module, so patching the two counts them all."""
    calls = []

    def counted(real):
        def call(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return call

    u = random_decaying(11, 64, rho=0.8)
    dec = spectral_decompose(build_lax(u, "focusing"))
    traj = _defocusing_wave_trajectory()
    kern_ws, act_ws = _FFTWorkspace(6, (64,)), _FFTWorkspace(3, (2, 64))
    kern_ws.slots[0] = u.coeffs
    for name in ("_fft", "_ifft"):
        monkeypatch.setattr(hardy, name, counted(getattr(hardy, name)))
    nonlinearity(u.coeffs)
    assert len(calls) == 4
    calls.clear()
    kernels = _b_kernels(kern_ws, 1.0)
    assert len(calls) == 5
    calls.clear()
    _apply_b_cols(kernels, np.eye(2, 64, dtype=complex), act_ws)
    assert len(calls) == 4
    calls.clear()
    evolve_basis(traj, np.eye(64, 2, dtype=complex))
    assert len(calls) == 16 * 10 + 17 * 2  # 10 steps, blocks of 8 and 2
    calls.clear()
    check_spectral_identities(u, dec)
    assert len(calls) == 5 + 4 * 3  # probes, their basis Q, fresh probes


def _kernels(U, sigma, ws=None):
    """``_b_kernels`` of the states U for the sign sigma, on ``ws`` or a
    fresh workspace."""
    ws = _FFTWorkspace(6, U.shape) if ws is None else ws
    ws.slots[0] = U
    return _b_kernels(ws, sigma)


def _b_kernels_allocating(U, sigma):
    """The kernel spectra with fresh arrays from every call: np.stack and
    n=L padding inside np.fft, each product in the workspace form's order."""
    K = U.shape[-1]
    L = _conv_length(K)
    spec = lambda X: np.fft.fft(X, L)  # noqa: E731
    k_u, k_ub = spec(np.stack([U, np.conj(U[..., ::-1])]))
    conv = np.fft.ifft(k_u * k_ub)           # heads P e_{K-1}, tails Pi(|u|^2)
    Pu = np.fft.ifft(k_u * spec(conv[..., K - 1:2 * K - 1]))[..., :K]
    sdU = 1j * sigma * np.arange(K) * U
    norm2 = conv[..., K - 1:K].real          # Pi(|u|^2)[0]
    miw = np.zeros_like(U)
    miw[..., 1:] = -1j * conv[..., :K - 1]   # -i w, w = S P e_{K-1}
    a1 = (1j * Pu - 1j * norm2 * U) - sdU
    b2 = sdU - 1j * Pu
    k_a1, k_miw, k_b2b = spec(np.stack([a1, miw, np.conj(b2[..., ::-1])]))
    turn = np.exp(-2j * np.pi / L * ((K - 1) * np.arange(L) % L))
    return np.stack([k_u, k_a1, k_miw, k_b2b, k_ub, -1j * turn * np.conj(k_miw)])


def _apply_b_cols_allocating(kernels, G):
    """B G^T as the sum of T_x T_y^H over the three generator pairs, with
    fresh arrays: the correlations read as tails, the products summed in
    frequency space and read as heads."""
    K = G.shape[-1]
    L = kernels.shape[-1]
    tails = np.fft.ifft(kernels[3:, None] * np.fft.fft(G, L))[..., K - 1:2 * K - 1]
    prods = kernels[:3, None] * np.fft.fft(tails, L)
    return np.fft.ifft(prods[0] + prods[1] + prods[2])[..., :K]


@pytest.mark.parametrize("sign", ["focusing", "defocusing"])
@pytest.mark.parametrize("K", [1, 2, 37, 64, 128, 256])
def test_b_action_workspace_matches_allocating_form(sign, K):
    """Kernel spectra and B action on workspaces are bit-identical to the
    allocating forms: one state and (4, B, K) stage stacks, m = 1 and 3
    rows, fresh workspaces and reused ones."""
    rng = np.random.default_rng(K)
    sigma = check_sign(sign)
    kern_ws = _FFTWorkspace(6, (4, 5, K))
    act_ws = {m: _FFTWorkspace(3, (m, K)) for m in (1, 3)}
    for _ in range(2):  # the second round reuses every workspace
        U = rng.standard_normal((4, 5, K)) + 1j * rng.standard_normal((4, 5, K))
        want = _b_kernels_allocating(U, sigma)
        assert np.array_equal(_kernels(U[0, 0], sigma), want[:, 0, 0])
        assert np.array_equal(_kernels(U, sigma), want)
        kern = _kernels(U, sigma, kern_ws)
        assert np.array_equal(kern, want)
        for m in (1, 3):
            G = rng.standard_normal((m, K)) + 1j * rng.standard_normal((m, K))
            for s, j in ((0, 0), (3, 4)):
                expect = _apply_b_cols_allocating(want[:, s, j], G)
                fresh = _FFTWorkspace(3, G.shape)
                assert np.array_equal(_apply_b_cols(want[:, s, j], G, fresh), expect)
                assert np.array_equal(_apply_b_cols(kern[:, s, j], G, act_ws[m]), expect)


def test_integrator_results_do_not_alias_the_workspace():
    """Slopes, stage states and B actions from one call on a workspace are
    unchanged by the next call on it; the recorded states share no memory
    with u0 and are read-only."""
    rng = np.random.default_rng(3)
    K = 64
    a, b = 0.1 * (rng.standard_normal((2, K)) + 1j * rng.standard_normal((2, K)))
    n_steps, h, s2i, E1, E2 = _lawson_setup(EvolveConfig(sign="focusing", K=K,
                                                         T=1e-3, dt=1e-4))
    ws = _FFTWorkspace(2, (K,))
    first = [x for pair in _lawson_stages(a, h, s2i, E1, E2, ws) for x in pair]
    kept = [x.copy() for x in first]
    _lawson_stages(b, h, s2i, E1, E2, ws)
    assert all(np.array_equal(x, y) for x, y in zip(first, kept))

    kern = _kernels(a, 1.0)
    act = _FFTWorkspace(3, (2, K))
    first_b = _apply_b_cols(kern, np.eye(2, K, dtype=complex), act)
    kept_b = first_b.copy()
    _apply_b_cols(kern, np.eye(2, K, 3, dtype=complex), act)
    assert np.array_equal(first_b, kept_b)

    _, u0 = _wave_state("wave:defocusing:1:0.5:1", K)
    traj = evolve(u0, EvolveConfig(sign="defocusing", K=K, T=0.01, dt=1e-3))
    assert not np.shares_memory(traj.coeffs, u0.coeffs)
    assert not traj.coeffs.flags.writeable
    with pytest.raises(ValueError):
        traj.coeffs[0, 0] = 1.0
    F = np.eye(K, 2, dtype=complex)
    basis = evolve_basis(traj, F)
    assert not np.shares_memory(basis.coeffs, F)
    assert not basis.coeffs.flags.writeable
    with pytest.raises(ValueError):
        basis.coeffs[0, 0, 0] = 1.0
    kept = basis.coeffs.copy()
    evolve_basis(traj, np.eye(K, 2, -5, dtype=complex))
    assert np.array_equal(basis.coeffs, kept)


def test_evolve_tail_is_the_tail_of_each_recorded_state():
    """The tail energies kept from the loop are those of the states."""
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    traj = evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.01, dt=1e-3,
                                   record_every=3))
    want = [np.sum(np.abs(s[56:]) ** 2) / np.sum(np.abs(s) ** 2) for s in traj.coeffs]
    assert len(traj.tail) == len(traj.coeffs) == 5
    np.testing.assert_allclose(traj.tail, want, rtol=1e-12, atol=0.0)


def _evolve_basis_step_by_step(traj, F):
    """Oracle: the loop without blocks, with 1-d Lawson stages and one
    kernel transform per stage."""
    n_steps, h, s2i, E1, E2 = _lawson_setup(traj.cfg)
    sigma = check_sign(traj.cfg.sign)
    G = F.T.copy()
    rows = [G]
    K = traj.cfg.K
    conv, kern = _FFTWorkspace(2, (K,)), _FFTWorkspace(6, (K,))
    act = _FFTWorkspace(3, G.shape)
    for i in range(n_steps):
        u1 = traj.coeffs[i]
        u2, u3, u4 = _lawson_stages(u1, h, s2i, E1, E2, conv)[0]
        l1 = _apply_b_cols(_kernels(u1, sigma, kern), G, act)
        l2 = _apply_b_cols(_kernels(u2, sigma, kern), G + (h / 2.0) * l1, act)
        l3 = _apply_b_cols(_kernels(u3, sigma, kern), G + (h / 2.0) * l2, act)
        l4 = _apply_b_cols(_kernels(u4, sigma, kern), G + h * l3, act)
        G = G + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        rows.append(G)
    return np.stack(rows)


@pytest.mark.parametrize("sign", ["focusing", "defocusing"])
@pytest.mark.parametrize("K", [64, 128])
@pytest.mark.parametrize("n_steps", [13, 21])
@pytest.mark.parametrize("m", [1, 3])
def test_evolve_basis_blocks_match_step_by_step(sign, K, n_steps, m):
    """Blocks of steps give the step-by-step basis bit for bit, also when
    the step count is not a multiple of the block."""
    u = random_decaying(K + n_steps, K, rho=0.5)
    u = HardyCoeffs(u.coeffs * (0.6 / u.norm()))
    traj = evolve(u, EvolveConfig(sign=sign, K=K, T=n_steps * 1e-4, dt=1e-4))
    rng = np.random.default_rng(m)
    F = rng.standard_normal((K, m)) + 1j * rng.standard_normal((K, m))
    F /= np.linalg.norm(F, axis=0)
    got = evolve_basis(traj, F).coeffs
    assert got.shape == (n_steps + 1, m, K)
    assert np.array_equal(got, _evolve_basis_step_by_step(traj, F))


def _phase_law_report_by_loops(traj, basis):
    """Oracle: the laws one vector and one pair (p, n) at a time, on the
    basis as C-contiguous (n_snapshots, K, m) columns."""
    t = basis.times
    lam = basis.eigenvalues
    cols = np.ascontiguousarray(np.swapaxes(basis.coeffs, 1, 2))
    m = cols.shape[2]
    pot = mean = shift = 0.0
    for j in range(m):
        overlap = np.einsum("tk,tk->t", traj.coeffs, np.conj(cols[:, :, j]))
        expected = overlap[0] * np.exp(-1j * lam[j] ** 2 * t)
        pot = max(pot, float(np.max(np.abs(overlap - expected))))
        ones = np.conj(cols[:, 0, j])
        expected1 = ones[0] * np.exp(-1j * lam[j] ** 2 * t)
        mean = max(mean, float(np.max(np.abs(ones - expected1))))
    for p in range(m):
        for n in range(m):
            # <S g_p^t | g_n^t> = sum_k g_p^t[k] conj(g_n^t[k + 1]) at every t
            overlap = np.einsum("tk,tk->t", cols[:, :-1, p], np.conj(cols[:, 1:, n]))
            expected = overlap[0] * np.exp(1j * ((lam[p] + 1.0) ** 2 - lam[n] ** 2) * t)
            shift = max(shift, float(np.max(np.abs(overlap - expected))))
    return {"potential_law": pot, "mean_law": mean, "shift_law": shift}


def _phase_law_report_by_snapshots(traj, basis):
    """Oracle: the laws in M's convention, one snapshot at a time, each on
    its own 2-d call of _matrices_in_basis."""
    lam = basis.eigenvalues
    coords = [_matrices_in_basis(u, g.T) for u, g in zip(traj.coeffs, basis.coeffs)]
    X0, Y0, M0 = coords[0]
    pot = mean = shift = 0.0
    for t, (X, Y, M) in zip(basis.times, coords):
        rotation = np.exp(-1j * lam ** 2 * t)
        turn = np.exp(-1j * ((lam[:, None] + 1.0) ** 2 - lam ** 2) * t)
        pot = max(pot, float(np.max(np.abs(X - X0 * rotation))))
        mean = max(mean, float(np.max(np.abs(Y - Y0 * rotation))))
        shift = max(shift, float(np.max(np.abs(M - M0 * turn))))
    return {"potential_law": pot, "mean_law": mean, "shift_law": shift}


@pytest.mark.parametrize("sign", ["focusing", "defocusing"])
@pytest.mark.parametrize("K", [64, 128])
@pytest.mark.parametrize("n_steps", [13, 21])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_phase_law_report_matches_the_loop_form(sign, K, n_steps, m):
    """The whole-array laws equal their per-snapshot form exactly, and the
    independent per-vector, per-pair loops (<S g_p|g_n> = conj M[p, n]) to
    roundoff."""
    u = random_decaying(K + n_steps, K, rho=0.5)
    u = HardyCoeffs(u.coeffs * (0.6 / u.norm()))
    traj = evolve(u, EvolveConfig(sign=sign, K=K, T=n_steps * 1e-4, dt=1e-4))
    dec = spectral_decompose(build_lax(u, sign))
    basis = evolve_basis(traj, dec.vectors[:, :m].copy())
    assert basis.coeffs.shape == (n_steps + 1, m, K)
    got = phase_law_report(traj, basis)
    exact, loops = _phase_law_report_by_snapshots(traj, basis), _phase_law_report_by_loops(traj, basis)
    assert got.keys() == exact.keys() == loops.keys()
    for law in exact:
        assert got[law] == exact[law], law
        assert abs(got[law] - loops[law]) <= 1e-15, law


def _defocusing_wave_trajectory():
    _, u0 = _wave_state("wave:defocusing:1:0.5:1", 64)
    return evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.01, dt=1e-3))


def test_evolve_basis_refuses_non_finite_columns():
    traj = _defocusing_wave_trajectory()
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        F = np.eye(64, 2, dtype=complex)
        F[5, 1] = bad
        with pytest.raises(InvalidParameter):
            evolve_basis(traj, F)


def test_evolve_basis_refuses_empty_and_3d_columns():
    traj = _defocusing_wave_trajectory()
    for F in (np.eye(64, 0, dtype=complex), np.zeros((64, 2, 2), dtype=complex)):
        with pytest.raises(DimensionMismatch):
            evolve_basis(traj, F)


def test_evolve_basis_refuses_zero_column():
    traj = _defocusing_wave_trajectory()
    F = np.eye(64, 2, dtype=complex)
    F[:, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter):
            evolve_basis(traj, F)


def test_evolve_basis_scaled_columns_keep_their_norm():
    """B is skew-adjoint, so a column of norm 2 keeps norm 2; drift is read
    against each column's initial norm.  Scaling by 2 is exact in floating
    point and the flow is linear in g, so the vectors scale bit for bit."""
    traj = _defocusing_wave_trajectory()
    unit = evolve_basis(traj, np.eye(64, 2, dtype=complex))
    twice = evolve_basis(traj, 2.0 * np.eye(64, 2, dtype=complex))
    assert np.array_equal(twice.coeffs, 2.0 * unit.coeffs)
    np.testing.assert_allclose(np.linalg.norm(twice.coeffs[-1], axis=-1), 2.0,
                               atol=1e-10)


def test_time_sampler_agrees_with_flow():
    """Independent cross-check: the analytic sampler solves the same PDE the
    integrator discretizes, so end states must agree to scheme accuracy."""
    fx, u0 = _wave_state("modulated:3:0.5", 64)
    w = fx.wave
    cfg = EvolveConfig(sign="focusing", K=64, T=0.1, dt=2e-4)
    with pytest.warns(OutsideTheory):  # norm^2 = 13/7 exceeds the smallness bar
        traj = evolve(u0, cfg)
    exact = sample_wave(w, 0.1, 64).coeffs
    assert np.abs(traj.coeffs[-1] - exact).max() < 1e-10
