"""Acceptance suite: every numbered criterion as a self-contained runner.

Each criterion is declared once, by ``@_criterion(number, slug, wall)`` on
a function that exercises the public package API at pinned parameters and
returns its checks: measured values next to the bounds they are held to.
The decorator makes it a runner ``criterion_N(seed) -> CriterionResult``
that times the call, silences package warnings, reports a package error as
a failed result, and adds the ``wall_seconds`` gate.  ``run_verify`` runs
the runners of ``_CRITERIA`` in order and prints a pass/fail table;
``tests/test_acceptance`` asserts on exactly the same runners so the CLI
and the test suite can never disagree about what passing means.
"""
from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CslabError, CslabWarning, Inconclusive, check_int
from .evolve import EvolveConfig, conservation_report, evolve, evolve_basis, \
    measure_speed, phase_law_report
from .finitegap import blaschke_eigen_check, classify, inversion_data, \
    potential_coeffs, predicted_l2, reconstruct, residue_residuals, \
    solve_residue_system
from .fixtures import RATIONAL_FIXTURES, WAVE_SPEED_FIXTURES, make_fixture, \
    random_decaying, random_pole_config
from .hardy import HardyCoeffs
from .lax import build_lax, check_spectral_identities, gap_profile, \
    reliable_eigenvalues, spectral_decompose
from .waves import pde_residual, sample_wave

__all__ = ["run_verify"]

#: Base seed for the randomized sweeps (criteria 3 and 8).
DEFAULT_SEED = 1234


@dataclass(frozen=True)
class Check:
    """One measured value held against a bound.

    ``kind`` is "max" (pass iff value <= bound) or "min" (value >= bound).
    """

    name: str
    value: float
    bound: float
    kind: str = "max"

    @property
    def ok(self) -> bool:
        if self.kind == "max":
            return bool(self.value <= self.bound)
        return bool(self.value >= self.bound)

    def render(self) -> str:
        rel = "<=" if self.kind == "max" else ">="
        flag = "" if self.ok else "   FAIL"
        return f"{self.name:<34} {self.value: .6e} {rel} {self.bound:.6e}{flag}"


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    slug: str
    checks: tuple
    seconds: float
    error: str = ""

    @property
    def passed(self) -> bool:
        return not self.error and all(c.ok for c in self.checks)

    def headline(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        line = f"criterion {self.cid:>2} {self.slug:<28} {word}  {self.seconds:7.2f}s"
        if self.error:
            line += f"  [{self.error}]"
        return line


def _criterion(cid: int, slug: str, wall: float | None = None):
    """Declare ``seed -> list[Check]`` as acceptance criterion ``cid``.

    The runner times the call, silences package warnings (measured values
    decide), turns a CslabError into a failed result carrying its text,
    and, when ``wall`` is given, appends the gate ``wall_seconds <= wall``.
    """
    def declare(checks_of):
        @functools.wraps(checks_of)
        def run(seed: int) -> CriterionResult:
            t0 = time.perf_counter()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", CslabWarning)
                    checks = checks_of(seed)
            except CslabError as exc:
                return CriterionResult(cid, slug, (), time.perf_counter() - t0,
                                       error=f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - t0
            if wall is not None:
                checks.append(Check("wall_seconds", seconds, wall))
            return CriterionResult(cid, slug, tuple(checks), seconds)

        run.cid, run.slug, run.wall = cid, slug, wall
        return run
    return declare


# ----------------------------------------------------------------------
# 1-2: the two worked rational examples
# ----------------------------------------------------------------------

@_criterion(1, "one-pole-spectrum", wall=10.0)
def criterion_1(seed: int) -> list:
    """Geometric one-pole profile: exact spectrum and Blaschke ladder at K=256."""
    fx = make_fixture("appendix1")
    u = fx.coeffs(256)
    dec = spectral_decompose(build_lax(u, fx.sign))
    expected = np.concatenate(([-1.0], np.arange(19.0)))
    eig_err = float(np.max(np.abs(dec.eigenvalues[:20] - expected)))
    _, residuals = blaschke_eigen_check(dec, fx.blaschke(), kmax=8)
    return [
        Check("max_eigenvalue_error", eig_err, 1e-8),
        Check("max_ladder_residual", float(np.max(residuals)), 1e-8),
    ]


@_criterion(2, "two-pole-degeneracy", wall=10.0)
def criterion_2(seed: int) -> list:
    """Two-pole even profile: double eigenvalue, orthogonality, negative gap."""
    fx = make_fixture("appendix2")
    u = fx.coeffs(256)
    dec = spectral_decompose(build_lax(u, fx.sign))
    expected = np.array([-1.0, 0.0, 0.0, 1.0, 2.0])
    head_err = float(np.max(np.abs(dec.eigenvalues[:5] - expected)))
    overlaps = dec.vectors.conj().T @ u.coeffs
    max_overlap = float(np.max(np.abs(overlaps[1:dec.reliable])))
    gamma2 = float(dec.eigenvalues[2] - dec.eigenvalues[1] - 1.0)
    return [
        Check("max_head_eigenvalue_error", head_err, 1e-8),
        Check("max_overlap_n_ge_1", max_overlap, 1e-7),
        Check("abs_gamma_2", abs(gamma2), 1e-6, kind="min"),
    ]


# ----------------------------------------------------------------------
# 3: gap laws over seeded random draws
# ----------------------------------------------------------------------

@_criterion(3, "gap-laws", wall=180.0)
def criterion_3(seed: int) -> list:
    """Spectral gap laws on 100 seeded draws with |u_hat(n)| <= 0.8^n."""
    K, buffer = 256, 96  # 0.8^(K - reliable) ~ 5e-10 keeps edge noise under 1e-8
    min_def_diff = np.inf
    min_collin = np.inf
    min_foc_two = np.inf
    min_resc_diff = np.inf
    for i in range(100):
        u = random_decaying(seed + i, K, rho=0.8)

        dec = spectral_decompose(build_lax(u, "defocusing"), buffer=buffer)
        lam = dec.eigenvalues[:dec.reliable]
        min_def_diff = min(min_def_diff, float(np.min(np.diff(lam))))
        prof = gap_profile(dec, u)
        min_collin = min(min_collin, float(np.min(np.abs(prof.collinearity))))

        nu = reliable_eigenvalues(build_lax(u, "focusing"), buffer=buffer)
        min_foc_two = min(min_foc_two, float(np.min(nu[2:] - nu[:-2])))

        scaled = HardyCoeffs(u.coeffs * (np.sqrt(0.4) / u.norm()))
        nus = reliable_eigenvalues(build_lax(scaled, "focusing"), buffer=buffer)
        min_resc_diff = min(min_resc_diff, float(np.min(np.diff(nus))))
    return [
        Check("min_defocusing_gap", min_def_diff, 1.0 - 1e-8, kind="min"),
        Check("min_shift_collinearity", min_collin, 1e-6, kind="min"),
        Check("min_focusing_two_step", min_foc_two, 1.0 - 1e-8, kind="min"),
        Check("min_small_norm_gap", min_resc_diff, 0.6 - 1e-8, kind="min"),
    ]


# ----------------------------------------------------------------------
# 4: exact spectral identities on every rational fixture
# ----------------------------------------------------------------------

@_criterion(4, "spectral-identities")
def criterion_4(seed: int) -> list:
    """Identity residuals < 1e-8 at K=256, dropping >= 1e3 from K=128.

    The absolute bound covers all four identities on every rational
    fixture.  The K-doubling gain is measured on the eigenbasis (mean and
    shift) identities of seeded 0.8^n-decay draws, where the residual is
    truncation-dominated; rational fixtures sit at the machine floor for
    K >= 128 already, and the commutator floor itself grows like K^2 eps.
    """
    worst256 = 0.0
    min_ratio = np.inf
    for name in RATIONAL_FIXTURES:
        fx = make_fixture(name)
        u = fx.coeffs(256)
        dec = spectral_decompose(build_lax(u, fx.sign))
        worst256 = max(worst256,
                       check_spectral_identities(u, dec).max_residual())
    for i in range(3):
        res = {}
        for K in (128, 256):
            u = random_decaying(seed + i, K, rho=0.8)
            dec = spectral_decompose(build_lax(u, "defocusing"))
            rep = check_spectral_identities(u, dec)
            res[K] = max(rep.mean_identity, rep.shift_identity)
        min_ratio = min(min_ratio, res[128] / max(res[256], 1e-300))
    return [
        Check("max_residual_K256", worst256, 1e-8),
        Check("min_halving_gain", min_ratio, 1e3, kind="min"),
    ]


# ----------------------------------------------------------------------
# 5: PDE residual of every closed-form solution family
# ----------------------------------------------------------------------

@_criterion(5, "pde-residual")
def criterion_5(seed: int) -> list:
    """Analytic-derivative PDE residual < 1e-10 for all solution families."""
    cases = [
        ("wave:defocusing:1:0.5:1", None),
        ("wave:focusing:1:0.5:1", None),
        ("modulated:3:0.5", None),
        ("stationary:1:0.5", None),
        ("plane:1:1", "focusing"),
        ("plane:2:1", "defocusing"),
        ("plane:3:1", "focusing"),
    ]
    worst = 0.0
    for name, sign in cases:
        fx = make_fixture(name, sign=sign)
        worst = max(worst, pde_residual(fx.wave, fx.sign, K=256))
    return [
        Check("max_relative_residual", worst, 1e-10),
    ]


# ----------------------------------------------------------------------
# 6: measured speeds and the speed-spectrum law
# ----------------------------------------------------------------------

@_criterion(6, "speed-laws")
def criterion_6(seed: int) -> list:
    """Speeds 11/3, -1/3, 0 recovered from evolution; c = N + 2 lambda_0."""
    worst_rel = 0.0
    law_err = np.inf
    for name, c_exact in WAVE_SPEED_FIXTURES:
        fx = make_fixture(name)
        u0 = fx.coeffs(256)
        cfg = EvolveConfig(sign=fx.sign, K=256, T=0.5, dt=1e-4,
                           record_every=25)
        traj = evolve(u0, cfg)
        c_meas = measure_speed(traj, u0)
        rel = abs(c_meas - c_exact) / max(1.0, abs(c_exact))
        worst_rel = max(worst_rel, rel)
        if fx.sign == "defocusing":
            dec = spectral_decompose(build_lax(u0, fx.sign))
            lam0 = float(dec.eigenvalues[0])
            law_err = abs(c_meas - (fx.wave.N + 2.0 * lam0))
    return [
        Check("max_speed_rel_error", worst_rel, 1e-5),
        Check("speed_spectrum_law_error", float(law_err), 2e-6),
    ]


# ----------------------------------------------------------------------
# 7: conservation, isospectrality, and scheme order
# ----------------------------------------------------------------------

@_criterion(7, "conservation-isospectral")
def criterion_7(seed: int) -> list:
    """Drift of ||u||^2, mean, low spectrum over T=0.5; 4th-order dt decay."""
    worst_l2 = worst_mean = worst_eig = 0.0
    for name in RATIONAL_FIXTURES:
        fx = make_fixture(name)
        u0 = fx.coeffs(256)
        cfg = EvolveConfig(sign=fx.sign, K=256, T=0.5, dt=1e-4,
                           record_every=50)
        rep = conservation_report(evolve(u0, cfg))
        worst_l2 = max(worst_l2, rep.l2_drift)
        worst_mean = max(worst_mean, rep.mean_drift)
        worst_eig = max(worst_eig, rep.eig_drift)

    # Order check against the exact traveling-wave sampler; the dt pair
    # sits above the ~2e-14 roundoff floor (errors ~1.6e-11 / ~1e-12).
    fx = make_fixture("wave:defocusing:1:0.5:1")
    u0 = fx.coeffs(256)
    exact = sample_wave(fx.wave, 0.1, 256)
    errs = {}
    for dt in (8e-4, 4e-4):
        cfg = EvolveConfig(sign=fx.sign, K=256, T=0.1, dt=dt,
                           record_every=10 ** 9)
        end = evolve(u0, cfg).states[-1]
        errs[dt] = float(np.linalg.norm(end.coeffs - exact.coeffs))
    order_ratio = errs[8e-4] / max(errs[4e-4], 1e-300)
    return [
        Check("max_l2_drift", worst_l2, 1e-8),
        Check("max_mean_drift", worst_mean, 1e-8),
        Check("max_eigenvalue_drift", worst_eig, 1e-6),
        Check("dt_halving_ratio", order_ratio, 12.0, kind="min"),
    ]


# ----------------------------------------------------------------------
# 8: finite-gap round trip through Newton, evolution, classification
# ----------------------------------------------------------------------

@_criterion(8, "finite-gap-round-trip", wall=300.0)
def criterion_8(seed: int) -> list:
    """Ten seeded pole configurations, alternating signs, full round trip."""
    worst_newton = worst_norm_id = worst_drift = 0.0
    agreements = 0
    for i in range(10):
        m0, poles, mults = random_pole_config(seed + i)
        sign = "focusing" if i % 2 == 0 else "defocusing"
        fg = solve_residue_system(sign, m0, poles, mults)
        res = float(np.max(np.abs(residue_residuals(
            sign, fg.a, fg.residues, fg.poles, fg.mults))))
        worst_newton = max(worst_newton, res)

        u0 = potential_coeffs(fg, 256)
        worst_norm_id = max(worst_norm_id,
                            abs(u0.norm() ** 2 - predicted_l2(fg)))

        # Buffer 96 as in criterion 3: poles up to |p| = 0.65 leave
        # ~1e-6 edge noise at the default K/8 cut, above the 1e-7
        # gap tolerance classify judges with.
        dec0 = spectral_decompose(build_lax(u0, sign), buffer=96)
        cls0 = classify(dec0, u0)
        cfg = EvolveConfig(sign=sign, K=256, T=0.5, dt=1e-4,
                           record_every=100)
        uT = evolve(u0, cfg).states[-1]
        decT = spectral_decompose(build_lax(uT, sign), buffer=96)
        clsT = classify(decT, uT)
        if (cls0.is_finite_gap, cls0.N_estimate, cls0.m) == \
                (clsT.is_finite_gap, clsT.N_estimate, clsT.m) \
                and cls0.is_finite_gap and cls0.N_estimate == fg.N:
            agreements += 1
        R = 256 - 64
        worst_drift = max(worst_drift, float(np.max(np.abs(
            dec0.eigenvalues[:R] - decT.eigenvalues[:R]))))
    return [
        Check("max_newton_residual", worst_newton, 1e-12),
        Check("max_norm_identity_error", worst_norm_id, 1e-10),
        Check("classify_agreements", float(agreements), 10.0, kind="min"),
        Check("max_eigenvalue_drift", worst_drift, 1e-6),
    ]


# ----------------------------------------------------------------------
# 9: spectral inversion against the direct series
# ----------------------------------------------------------------------

@_criterion(9, "spectral-inversion")
def criterion_9(seed: int) -> list:
    """Reconstruction at 64 disc points; reduced system matches the full one."""
    radii = np.linspace(0.1125, 0.9, 8)
    angles = 2.0 * np.pi * np.arange(8) / 8.0 + 0.37
    points = [r * np.exp(1j * a) for r in radii for a in angles]
    worst_full = worst_red = 0.0
    for name in RATIONAL_FIXTURES:
        fx = make_fixture(name)
        u = fx.coeffs(256)
        dec = spectral_decompose(build_lax(u, fx.sign))
        data = inversion_data(u, dec)
        for z in points:
            direct = complex(np.polyval(u.coeffs[::-1], z))
            full = reconstruct(data, z, use_reduced=False)
            worst_full = max(worst_full, abs(full - direct))
            if data.reduced_dim is not None:
                red = reconstruct(data, z, use_reduced=True)
                worst_red = max(worst_red, abs(red - full))
    return [
        Check("max_reconstruction_error", worst_full, 1e-8),
        Check("max_reduced_vs_full", worst_red, 1e-8),
    ]


# ----------------------------------------------------------------------
# 10: phase laws along the flow
# ----------------------------------------------------------------------

def _phase_residuals(u0: HardyCoeffs, sign: str, dt: float) -> dict:
    dec = spectral_decompose(build_lax(u0, sign))
    cfg = EvolveConfig(sign=sign, K=u0.K, T=0.2, dt=dt, record_every=1)
    traj = evolve(u0, cfg)
    basis = evolve_basis(traj, dec.vectors[:, :2].copy())
    return phase_law_report(traj, basis)


@_criterion(10, "phase-laws")
def criterion_10(seed: int) -> list:
    """Three phase laws hold at dt=1e-4 and improve >= 10x at dt/2.

    The absolute bound is checked on the defocusing wave fixture and on a
    seeded broadband draw.  The halving gain is measured on the draw: the
    fixture's co-integration already sits at the ~1e-14 roundoff floor at
    dt=1e-4 (traveling-wave dynamics are too clean to show dt^4 there),
    while the draw's residual is discretization-dominated.
    """
    fx = make_fixture("wave:defocusing:1:0.5:1")
    fixture_rep = _phase_residuals(fx.coeffs(128), fx.sign, 1e-4)
    u = random_decaying(seed, 128, rho=0.8)
    coarse = _phase_residuals(u, "defocusing", 1e-4)
    fine = _phase_residuals(u, "defocusing", 5e-5)
    worst = max(max(fixture_rep.values()), max(coarse.values()))
    min_gain = min(coarse[k] / max(fine[k], 1e-300) for k in coarse)
    return [
        Check("max_phase_residual", float(worst), 1e-4),
        Check("min_halving_gain", float(min_gain), 10.0, kind="min"),
    ]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_verify(only: str | None = None, seed: int = DEFAULT_SEED) -> list:
    """Run the acceptance criteria in order: all, or the one named by ``only``.

    ``only`` must equal a criterion's number or its full slug (e.g. "3" or
    "gap-laws"); anything else raises Inconclusive, and a seed that is not
    an integer >= 0 InvalidParameter.  Results are printed as
    a table in criterion order.  Returns the list of CriterionResult.
    """
    seed = check_int("seed", seed, 0, math.inf)  # numpy refuses negative seeds
    selected = [fn for fn in _CRITERIA
                if only is None or only in (str(fn.cid), fn.slug)]
    if not selected:
        raise Inconclusive(f"no acceptance criterion matches {only!r}")
    results = [fn(seed) for fn in selected]
    for r in results:
        print(r.headline())
        for chk in r.checks:
            print(f"    {chk.render()}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return results
