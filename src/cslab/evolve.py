"""Time integration of the flow and its spectral diagnostics.

The modal ODE for u(x) = sum u_hat(n) e^{inx} is

    d/dt u_hat(n) = -i n^2 u_hat(n) + 2i sigma [ (D Pi(|u|^2)) u ]_n,

with sigma = +1 focusing, -1 defocusing (``errors.check_sign``).  The
linear symbol -i n^2 is purely imaginary, so the integrating-factor
(Lawson) RK4 in the rotating frame e^{i n^2 t} treats it exactly; only the
nonlinearity is stepped.  The mean u_hat(0) is conserved to the last bit
by the scheme, since the nonlinearity has no 0-mode.

The nonlinearity shares transforms: 4 FFT calls.  The B action and its
kernel spectra are lax's (``lax._b_kernels``, ``lax._apply_b_cols``: B as
three Toeplitz generator pairs, 4 calls per action); the identity check
reads B off the same action.  evolve_basis takes the trajectory in blocks
of steps: one stacked call of the stepper gives the stage states of a
whole block (12 FFT calls) and five more their kernel spectra, so a step
costs about 18 calls (16 for its four actions), not 48; a short last
block uses the leading rows.  All of it is exact:
stacked FFTs and elementwise operations work row by row and every
spectral product keeps its operand order, so results are bit-identical to
convolving term by term, step by step.

Each evolve and evolve_basis call makes its zero-padded FFT workspaces
(hardy._FFTWorkspace) once and drops them on return: two operands for the
nonlinearity, six (the kernel axis first) for the kernel spectra and
three for the B action.  Slopes, stage states and recorded states are new
arrays, never views of a workspace.

Stored states are rows, K last: evolve records u(t) in one read-only
complex (n_snapshots, K) array, allocated before the first step, and
evolve_basis g_n^t in an (n_snapshots, m, K) one.  The blowup guard is
negated, so the first step to a non-finite state raises BlowupDetected;
numpy's overflow and invalid-value warnings are off in the step loop.

conservation_report reads only eigenvalues, so its snapshots take the
eigenvalues-only solve (lax.reliable_eigenvalues, about half the time of
a full eigendecomposition at K = 256); its eigenvalue drift agrees with
the one read off full decompositions to roundoff, not bit for bit.

The evolving orthonormal basis g_n^t solves d/dt g = B_{u(t)} g with
g|0 = f_n, an eigenvector of the Lax operator of u(0); B is the
skew-adjoint half of the Lax pair.  Its matrix is never formed: lax's B
action is applied to the tracked columns, and u at the RK4 stage
times is re-derived from a trajectory recorded at every step with the
same Lawson stages, so the two are co-integrated exactly.  In its spectral
coordinates (``lax._matrices_in_basis``) the basis obeys explicit phase
laws, e.g. X(t)[n] = <u(t)|g_n^t> = X(0)[n] e^{-i lambda_n^2 t}, that serve
as end-to-end integrator checks (``phase_law_report``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BasisDrift,
    BlowupDetected,
    DimensionMismatch,
    InvalidParameter,
    NotATravelingWave,
    OutsideTheory,
    UnderResolved,
)
from .errors import K_MAX, check_int, check_real, check_sign
from . import hardy
from .hardy import HardyCoeffs, _FFTWorkspace, _nonlinearity
from .lax import _apply_b_cols, _b_kernels, _matrices_in_basis, build_lax, reliable_eigenvalues

__all__ = [
    "EvolveConfig",
    "Trajectory",
    "ConservationReport",
    "EvolvedBasis",
    "evolve",
    "conservation_report",
    "measure_speed",
    "evolve_basis",
    "phase_law_report",
]

#: Guards of evolve: the largest |u_hat(n)| after a step, and the largest
#: share of a recorded state's energy in its top K/8 modes.
_BLOWUP_THRESHOLD = 1e6
_TAIL_REL_TOL = 1e-8
#: conservation_report: eigenvalues compared, and snapshots they are taken on.
_N_EIGS = 10
_EIG_SNAPSHOTS = 9
#: Steps of evolve_basis whose stage states and B-kernel spectra are made
#: in one stacked call.
_STEP_BLOCK = 8
#: Most steps round(T/dt) of one run: about an hour at K = 256 on 2 vCPUs.
MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class EvolveConfig:
    """Integration parameters of the integrating-factor (Lawson) RK4 scheme:
    integers K in [2, K_MAX] and record_every >= 1, finite reals T >= 0 and
    dt > 0 with T/dt <= MAX_STEPS (InvalidParameter otherwise)."""

    sign: str
    K: int
    T: float
    dt: float = 1e-4
    record_every: int = 1

    def __post_init__(self) -> None:
        check_sign(self.sign)
        object.__setattr__(self, "K", check_int("K", self.K, 2, K_MAX))
        object.__setattr__(self, "record_every",
                           check_int("record_every", self.record_every, 1, math.inf))
        check_real("T", self.T, 0.0, math.inf)
        check_real("dt", self.dt, math.ulp(0.0), math.inf)  # the least double > 0
        check_real("T/dt", self.T / self.dt, 0.0, MAX_STEPS)


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots: row i of the read-only complex (n_snapshots, K)
    array ``coeffs`` is the state at ``times[i]``, with its norm, mean and
    top-K/8 tail energy share."""

    cfg: EvolveConfig
    times: NDArray[np.float64]
    coeffs: NDArray[np.complex128]
    l2: NDArray[np.float64]
    mean: NDArray[np.complex128]
    tail: NDArray[np.float64]

    @property
    def states(self) -> tuple:
        """The rows as HardyCoeffs, built on each access (bench/workloads.py reads them)."""
        return tuple(HardyCoeffs(row) for row in self.coeffs)


def _lawson_setup(cfg: EvolveConfig):
    """(n_steps, h, s2i, E1, E2): the step-size rule and the linear propagators.

    The step count is round(T/dt) with h adjusted to land exactly on T;
    E1 and E2 advance the linear part by h/2 and h, and s2i = 2i sigma
    is the factor of the nonlinear term.
    """
    n_steps = max(1, int(round(cfg.T / cfg.dt))) if cfg.T > 0 else 0
    h = cfg.T / n_steps if n_steps else cfg.dt
    s2i = 2j * check_sign(cfg.sign)
    E1 = np.exp(-1j * np.arange(cfg.K, dtype=float) ** 2 * (h / 2.0))
    return n_steps, h, s2i, E1, E1 * E1


def _lawson_stages(c: NDArray[np.complex128], h: float, s2i: complex,
                   E1: NDArray[np.complex128], E2: NDArray[np.complex128],
                   ws: _FFTWorkspace):
    """Stage states (U2, U3, U4) at t+h/2, t+h/2, t+h of one Lawson step from c,
    with the slopes (k1, k2, k3) taken at c, U2 and U3.

    c is one state (K,) or a (..., K) stack of them; each row of a stack
    gets the stages its 1-d call would give, bit for bit.  The nonlinearity
    runs on the workspace ``ws`` of c's shape; the returned arrays are new,
    none is a view of it.
    """
    k1 = s2i * _nonlinearity(c, ws)
    u2 = E1 * (c + (h / 2.0) * k1)
    k2 = s2i * _nonlinearity(u2, ws)
    u3 = E1 * c + (h / 2.0) * k2
    k3 = s2i * _nonlinearity(u3, ws)
    u4 = E2 * c + h * E1 * k3
    return (u2, u3, u4), (k1, k2, k3)


def _tail_rel(c: NDArray[np.complex128]) -> float:
    """Share of the energy of c in its top K/8 modes (0 for c = 0)."""
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0.0:
        return 0.0
    K = c.shape[0]
    return float(np.sum(np.abs(c[K - K // 8:]) ** 2)) / total


def evolve(u0: HardyCoeffs, cfg: EvolveConfig) -> Trajectory:
    """Integrate the flow from u0 over [0, T].

    The step count is round(T/dt) with the step adjusted to land exactly on
    T.  Snapshots (state + L2 norm, mean, top-K/8 tail energy) are recorded
    every ``record_every`` steps and always at the final time.  Raises
    BlowupDetected at the first step after which some |u_hat| passes 1e6 or
    is not finite, UnderResolved when the relative tail energy of a recorded
    state exceeds 1e-8 (or when u0 itself carries energy above mode K/2),
    and InvalidParameter when the snapshots do not fit in memory.
    """
    if u0.K != cfg.K:
        raise DimensionMismatch(f"u0 has K={u0.K}, config says {cfg.K}")
    c = u0.coeffs.astype(np.complex128).copy()
    K = cfg.K
    head = float(np.sum(np.abs(c[K // 2:]) ** 2))
    total = float(np.sum(np.abs(c) ** 2))
    if total > 0 and head / total > 1e-10:
        raise UnderResolved(
            f"u0 carries {head / total:.3e} of its energy above mode K/2; "
            "re-truncate with more headroom")
    if cfg.sign == "focusing" and np.sqrt(total) >= 1.0:
        warnings.warn(
            f"focusing norm {np.sqrt(total):.3f} >= 1: outside the "
            "global-well-posedness smallness condition",
            OutsideTheory, stacklevel=2)

    n_steps, h, s2i, E1, E2 = _lawson_setup(cfg)
    # the state at t = 0, after every record_every steps and after the last
    n_snap = 1 + -(-n_steps // cfg.record_every)
    try:
        coeffs = np.empty((n_snap, K), dtype=np.complex128)
    except MemoryError:
        raise InvalidParameter(f"{n_snap} snapshots of {K} modes do not fit in "
                               "memory; raise record_every") from None
    times, tails = np.zeros(n_snap), np.empty(n_snap)
    coeffs[0], tails[0] = c, _tail_rel(c)
    ws = _FFTWorkspace(2, c.shape)
    # the guard reports a step to inf or NaN, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            (_, _, u4), (k1, k2, k3) = _lawson_stages(c, h, s2i, E1, E2, ws)
            k4 = s2i * _nonlinearity(u4, ws)
            c = E2 * c + (h / 6.0) * (E2 * k1 + 2.0 * E1 * (k2 + k3) + k4)
            if not np.max(np.abs(c)) <= _BLOWUP_THRESHOLD:  # negated: NaN trips it
                what = (f"exceeded {_BLOWUP_THRESHOLD:.1e}" if np.isfinite(c).all()
                        else "is not finite")
                raise BlowupDetected(f"|u_hat| {what} at t = {(i + 1) * h:.6f}")
            if (i + 1) % cfg.record_every == 0 or i + 1 == n_steps:
                tail = _tail_rel(c)
                if tail > _TAIL_REL_TOL:
                    raise UnderResolved(
                        f"tail energy {tail:.3e} at t = {(i + 1) * h:.6f} "
                        f"exceeds {_TAIL_REL_TOL:.1e}; increase K")
                r = -(-(i + 1) // cfg.record_every)
                times[r], coeffs[r], tails[r] = (i + 1) * h, c, tail

    coeffs.flags.writeable = False
    return Trajectory(cfg, times, coeffs, np.linalg.norm(coeffs, axis=1),
                      coeffs[:, 0].copy(), tails)


@dataclass(frozen=True)
class ConservationReport:
    """Maximal drifts of ||u||^2, <u|1> and the low Lax spectrum over a
    trajectory, as ``conservation_report`` samples them."""

    l2_drift: float
    mean_drift: float
    eig_drift: float


def conservation_report(traj: Trajectory) -> ConservationReport:
    """Drift of ||u||^2, <u|1> and the low Lax spectrum along the flow.

    The norm and mean are read off every snapshot; eigenvalues (the first
    10 reliable ones) are computed on at most 9 evenly spaced snapshots,
    endpoints included, since each requires a full Hermitian eigensolve
    (eigenvalues only: no eigenvector is read); a one-snapshot trajectory
    is compared with itself.  K < 8 leaves no reliability buffer
    (InvalidParameter).
    """
    l2_drift = float(np.max(np.abs(traj.l2 ** 2 - traj.l2[0] ** 2)))
    mean_drift = float(np.max(np.abs(traj.mean - traj.mean[0])))
    n_snap = len(traj.coeffs)
    idx = np.unique(np.linspace(0, n_snap - 1, min(n_snap, _EIG_SNAPSHOTS)).astype(int))
    ref = None
    eig_drift = 0.0
    for row in traj.coeffs[idx]:
        evs = reliable_eigenvalues(build_lax(HardyCoeffs(row), traj.cfg.sign))[:_N_EIGS]
        if ref is None:
            ref = evs
        else:
            eig_drift = max(eig_drift, float(np.max(np.abs(evs - ref))))
    return ConservationReport(l2_drift=l2_drift, mean_drift=mean_drift,
                              eig_drift=eig_drift)


def measure_speed(traj: Trajectory, base: HardyCoeffs) -> float:
    """Empirical wave speed from per-mode phase slopes.

    A traveling wave obeys u_hat(t, n) = u_hat(0, n) e^{-inct}, so each
    significant mode (|u_hat(0,n)| > 1e-6, n >= 1) yields an estimate
    c_n = -slope_n / n from a least-squares fit of the unwrapped phase;
    the return value averages them with weights n^2 |u_hat(0,n)|^2 (phase
    signal strength).  Raises NotATravelingWave when the per-mode estimates
    spread beyond 1e-3 relative to max(1, |c|), and InvalidParameter for a
    trajectory of one snapshot, which fixes no slope.

    The phase of mode n turns by n c dt between snapshots dt apart, and
    unwrapping alone reads that step modulo 2 pi.  So each step is moved
    by the multiple of 2 pi that brings it nearest to the step the flow's
    equation gives at t = 0, rate_n dt with rate_n = d/dt arg u_hat(n)
    (one nonlinearity call on base).  For a traveling wave rate_n = -n c,
    so records of any spacing give its speed.  Where no step is more than
    pi from rate_n dt the multiple is 0 and the phase is np.unwrap's, bit
    for bit.
    """
    if base.K != traj.cfg.K:
        raise DimensionMismatch("base truncation differs from the trajectory")
    if np.linalg.norm(traj.coeffs[0] - base.coeffs) > 1e-12:
        raise InvalidParameter("trajectory was not generated from this base state")
    if len(traj.times) < 2:
        raise InvalidParameter("need at least 2 snapshots to fit a speed")
    modes = np.nonzero(np.abs(base.coeffs) > 1e-6)[0]
    modes = modes[modes >= 1]
    if modes.size < 2:
        raise InvalidParameter(
            "need at least 2 significant oscillating modes to fit a speed")
    t = traj.times
    A = np.vstack([t, np.ones_like(t)]).T
    n2 = modes.astype(float) ** 2
    # d/dt arg u_hat(n) = Im(-i n^2 + s2i N(u)_n / u_hat(n)) at t = 0
    s2i = 2j * check_sign(traj.cfg.sign)
    rates = np.imag(s2i * hardy.nonlinearity(base.coeffs)[modes] / base.coeffs[modes]) - n2
    estimates = np.empty(modes.size)
    for k, n in enumerate(modes):
        phase = np.unwrap(np.angle(traj.coeffs[:, n]))
        turns = np.round((np.diff(phase) - rates[k] * np.diff(t)) / (2 * np.pi))
        phase[1:] -= 2 * np.pi * np.cumsum(turns)
        slope, _ = np.linalg.lstsq(A, phase, rcond=None)[0]
        estimates[k] = -slope / n
    weights = n2 * np.abs(base.coeffs[modes]) ** 2
    c = float(np.sum(weights * estimates) / np.sum(weights))
    spread = float(np.max(np.abs(estimates - c)))
    if spread > 1e-3 * max(1.0, abs(c)):
        raise NotATravelingWave(
            f"per-mode speeds spread {spread:.3e} around {c:.6f}")
    return c


@dataclass(frozen=True)
class EvolvedBasis:
    """Tracked basis vectors g_n^t: row j of ``coeffs[i]``, a read-only
    complex (n_snapshots, m, K) array, is g_j at ``times[i]``; eigenvalues
    are the t=0 Rayleigh quotients."""

    times: NDArray[np.float64]
    coeffs: NDArray[np.complex128]
    eigenvalues: NDArray[np.float64]


def evolve_basis(traj: Trajectory, f_init: NDArray[np.complex128]) -> EvolvedBasis:
    """Integrate d/dt g = B_{u(t)} g for the columns of f_init along traj.

    The trajectory must be recorded at every step (record_every = 1,
    InvalidParameter otherwise): the RK4 stages of g reuse the Lawson stage
    states of u, rebuilt with evolve's own step size and propagators (true
    co-integration, preserving the scheme's fourth order).  The stage
    states and their B-kernel spectra are made for blocks of steps at once.
    f_init is one vector (K,) or a (K, m) matrix of finite, nonzero columns
    (DimensionMismatch or InvalidParameter otherwise), transposed once to
    the rows g_n.  B is skew-adjoint, so the norms are conserved; a
    relative deviation beyond 1e-5 raises BasisDrift.
    """
    F = np.asarray(f_init, dtype=np.complex128)
    if F.ndim == 1:
        F = F[:, None]
    K = traj.cfg.K
    if F.ndim != 2 or F.shape[0] != K or F.shape[1] == 0:
        raise DimensionMismatch(f"f_init must be a (K,) vector or a (K, m) matrix "
                                f"with K={K} and m >= 1, got shape {F.shape}")
    if not np.isfinite(F).all():
        raise InvalidParameter("f_init entries must be finite")
    G = F.T.copy()
    norm0 = np.linalg.norm(G, axis=-1)
    if not (norm0 > 0).all():
        raise InvalidParameter("f_init has a zero column")
    cfg = traj.cfg
    if cfg.record_every != 1:
        raise InvalidParameter(
            f"evolve_basis needs a trajectory recorded at every step, "
            f"got record_every={cfg.record_every}")
    sigma = check_sign(cfg.sign)
    n_steps, h, s2i, E1, E2 = _lawson_setup(cfg)

    L0 = build_lax(HardyCoeffs(traj.coeffs[0]), cfg.sign).matrix
    lams = np.real(np.einsum("km,km->m", np.conj(F), L0 @ F)
                   / np.einsum("km,km->m", np.conj(F), F))

    times = traj.times
    coeffs = np.empty((len(times), *G.shape), dtype=np.complex128)
    coeffs[0] = G
    # the workspace of this call: stage stacks, their kernels, the action
    stage_ws = _FFTWorkspace(2, (_STEP_BLOCK, K))
    kern_ws = _FFTWorkspace(6, (4, _STEP_BLOCK, K))
    act_ws = _FFTWorkspace(3, G.shape)
    U = kern_ws.slots[0]

    for b in range(0, n_steps, _STEP_BLOCK):
        # stage s (u1, U2, U3, U4) of step b + j goes to U[s, j] and its
        # kernel spectra to kern[:, s, j]; a short last block fills the
        # leading rows, and the rest (an earlier block's states, or zeros)
        # are dropped
        n = min(_STEP_BLOCK, n_steps - b)
        U[0, :n] = traj.coeffs[b:b + n]
        U[1], U[2], U[3] = _lawson_stages(U[0], h, s2i, E1, E2, stage_ws)[0]
        kern = _b_kernels(kern_ws, sigma)
        for j in range(n):
            i = b + j
            l1 = _apply_b_cols(kern[:, 0, j], G, act_ws)
            l2 = _apply_b_cols(kern[:, 1, j], G + (h / 2.0) * l1, act_ws)
            l3 = _apply_b_cols(kern[:, 2, j], G + (h / 2.0) * l2, act_ws)
            l4 = _apply_b_cols(kern[:, 3, j], G + h * l3, act_ws)
            G = G + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
            dev = float(np.max(np.abs(np.linalg.norm(G, axis=-1) / norm0 - 1.0)))
            # negated, so a NaN deviation drifts too
            if not dev <= 1e-5:
                raise BasisDrift(
                    f"basis norm drifted by {dev:.3e} at t = {times[i + 1]:.6f}")
            coeffs[i + 1] = G
    coeffs.flags.writeable = False
    return EvolvedBasis(times=times, coeffs=coeffs, eigenvalues=lams)


def phase_law_report(traj: Trajectory, basis: EvolvedBasis) -> dict:
    """Max residuals of the three exact phase laws along the trajectory, in
    the basis's coordinates at each snapshot (one ``_matrices_in_basis`` call):

    potential_law:  X(t)[n] = <u(t)|g_n^t>     = X(0)[n] e^{-i lam_n^2 t}
    mean_law:       Y(t)[n] = <1|g_n^t>        = Y(0)[n] e^{-i lam_n^2 t}
    shift_law:      M(t)[n, p] = <g_p^t|S g_n^t> = M(0)[n, p] e^{-i((lam_n+1)^2 - lam_p^2) t}

    Each law is one array over (t, n) or (t, n, p).  The basis must be
    evolved along traj: the same snapshot times and the same truncation K
    (DimensionMismatch otherwise).
    """
    g = basis.coeffs
    if g.shape[-1] != traj.cfg.K:
        raise DimensionMismatch(
            f"basis vectors have K={g.shape[-1]}, the trajectory {traj.cfg.K}")
    if not np.array_equal(basis.times, traj.times):
        raise DimensionMismatch("basis and trajectory are sampled at different times")
    t = basis.times[:, None]
    lam = basis.eigenvalues
    X, Y, M = _matrices_in_basis(traj.coeffs, g.mT)
    rotation = np.exp(-1j * lam ** 2 * t)  # e^{-i lam_n^2 t}, (t, n)
    turn = np.exp(-1j * ((lam[:, None] + 1.0) ** 2 - lam ** 2) * t[:, :, None])
    return {"potential_law": float(np.max(np.abs(X - X[0] * rotation))),
            "mean_law": float(np.max(np.abs(Y - Y[0] * rotation))),
            "shift_law": float(np.max(np.abs(M - M[0] * turn)))}
