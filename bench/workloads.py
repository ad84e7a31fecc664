"""The four benchmark workloads: seeded inputs, one item each, and its gates.

Every item reaches the package only through ``probe.call(name, fn, ...)``.
That one seam is what the traced run times (one span per call) and what the
benchmark's own tests use to corrupt a result.  ``probe.count(name, n)``
records work counts at the same boundary; the untraced probe ignores both.

Each gate copies the bound of an acceptance criterion in ``cslab.verify``
and cites it.  An item that misses a gate raises :class:`GateFailure`;
``run.py`` counts it, with any item that raises, in ``fail_ratio``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from cslab import (
    RATIONAL_FIXTURES,
    WAVE_SPEED_FIXTURES,
    EvolveConfig,
    HardyCoeffs,
    build_lax,
    check_spectral_identities,
    classify,
    conservation_report,
    evolve,
    evolve_basis,
    gap_profile,
    inversion_data,
    make_fixture,
    measure_speed,
    phase_law_report,
    potential_coeffs,
    predicted_l2,
    random_decaying,
    random_pole_config,
    reconstruct,
    residue_residuals,
    sample_wave,
    solve_residue_system,
    spectral_decompose,
)

#: Inputs generated per run; items cycle through them in order.
POOL = 64

#: Every public call an item makes, as ``<module>.<function>`` (the two
#: ``reconstruct`` rows split the full and the reduced solve).
LAYER_CALLS = (
    "lax.build_lax",
    "lax.spectral_decompose",
    "lax.gap_profile",
    "lax.check_spectral_identities",
    "evolve.evolve",
    "evolve.conservation_report",
    "evolve.measure_speed",
    "evolve.evolve_basis",
    "evolve.phase_law_report",
    "waves.sample_wave",
    "finitegap.solve_residue_system",
    "finitegap.potential_coeffs",
    "finitegap.classify",
    "finitegap.inversion_data",
    "finitegap.reconstruct_full",
    "finitegap.reconstruct_reduced",
)


class GateFailure(Exception):
    """An item's result missed a bound copied from an acceptance criterion."""


def gate(name: str, value: float, bound: float, kind: str = "max") -> None:
    """Raise GateFailure unless value <= bound (kind "max") or >= (kind "min").

    Written as a negated comparison so that a NaN value fails.
    """
    value = float(value)
    ok = value <= bound if kind == "max" else value >= bound
    if not ok:
        rel = "<=" if kind == "max" else ">="
        raise GateFailure(f"{name} = {value:.6e}, needs {rel} {bound:.6e}")


class Untraced:
    """The probe of the untimed and the untraced runs: calls straight through."""

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        pass


def _steps(cfg: EvolveConfig) -> int:
    """Step count of ``evolve`` for cfg (the same rule it applies)."""
    return max(1, int(round(cfg.T / cfg.dt))) if cfg.T > 0 else 0


# ----------------------------------------------------------------------
# spectra-k512: the dense lax path
# ----------------------------------------------------------------------

SPECTRA_K = 512
SPECTRA_BUFFER = SPECTRA_K // 4  # as criterion 3's buffer: 0.8^128 ~ 4e-13 at the edge


def spectra_inputs(seed: int) -> list:
    """Seeded 0.8^n draws, defocusing on even items, focusing on odd ones."""
    return [("defocusing" if i % 2 == 0 else "focusing",
             random_decaying([seed, i], SPECTRA_K, rho=0.8))
            for i in range(POOL)]


def spectra_item(inp, probe) -> None:
    sign, u = inp
    L = probe.call("lax.build_lax", build_lax, u, sign)
    dec = probe.call("lax.spectral_decompose", spectral_decompose, L,
                     buffer=SPECTRA_BUFFER)
    prof = probe.call("lax.gap_profile", gap_profile, dec, u)
    rep = probe.call("lax.check_spectral_identities",
                     check_spectral_identities, u, dec)
    ev = dec.eigenvalues[:dec.reliable]
    if sign == "defocusing":
        # criterion 3: defocusing gaps >= 1 - 1e-8, no vanishing collinearity
        gate("min_defocusing_gap", np.min(np.diff(ev)), 1.0 - 1e-8, "min")
        gate("min_shift_collinearity", np.min(np.abs(prof.collinearity)),
             1e-6, "min")
    else:
        # criterion 3: focusing two-step interlacing >= 1 - 1e-8
        gate("min_focusing_two_step", np.min(ev[2:] - ev[:-2]), 1.0 - 1e-8, "min")
    # criterion 4: every spectral-identity residual <= 1e-8
    gate("max_identity_residual", rep.max_residual(), 1e-8)


# ----------------------------------------------------------------------
# flow-k256: the Lawson-RK4 stepper and its conservation checks
# ----------------------------------------------------------------------

FLOW_K = 256
FLOW_CFG = dict(K=FLOW_K, T=0.25, dt=1e-4, record_every=25)
FLOW_FOCUSING_MASS = 0.4  # criterion 3's rescaling, well inside ||u|| < 1


@dataclass(frozen=True)
class FlowInput:
    name: str
    sign: str
    u0: HardyCoeffs
    wave: Any = None      # WaveParams of a wave fixture, else None
    speed: float = math.nan


def flow_inputs(seed: int) -> list:
    """Seeded mix: a third each of wave-speed fixtures, the other rational
    fixtures and broadband 0.8^n draws of either sign."""
    rng = np.random.default_rng([seed, 1 << 20])  # apart from the draws [seed, i]
    speeds = dict(WAVE_SPEED_FIXTURES)
    others = [n for n in RATIONAL_FIXTURES if n not in speeds]
    pool = []
    for i in range(POOL):
        kind = int(rng.integers(3))
        if kind == 2:
            sign = "defocusing" if rng.integers(2) == 0 else "focusing"
            u = random_decaying([seed, i], FLOW_K, rho=0.8)
            if sign == "focusing":
                u = HardyCoeffs(u.coeffs * (math.sqrt(FLOW_FOCUSING_MASS) / u.norm()))
            pool.append(FlowInput(f"draw:{sign}", sign, u))
            continue
        names = list(speeds) if kind == 0 else others
        name = names[int(rng.integers(len(names)))]
        fx = make_fixture(name)
        pool.append(FlowInput(name, fx.sign, fx.coeffs(FLOW_K),
                              fx.wave if kind == 0 else None,
                              speeds.get(name, math.nan)))
    return pool


def flow_item(inp: FlowInput, probe) -> None:
    cfg = EvolveConfig(sign=inp.sign, **FLOW_CFG)
    traj = probe.call("evolve.evolve", evolve, inp.u0, cfg)
    probe.count("evolve.evolve.steps", _steps(cfg))
    rep = probe.call("evolve.conservation_report", conservation_report, traj)
    # criterion 7: conservation of mass, mean and the low spectrum
    gate("l2_drift", rep.l2_drift, 1e-8)
    gate("mean_drift", rep.mean_drift, 1e-8)
    gate("eigenvalue_drift", rep.eig_drift, 1e-6)
    if inp.wave is None:
        return
    c = probe.call("evolve.measure_speed", measure_speed, traj, inp.u0)
    # criterion 6: measured speed within 1e-5 relative of the closed form
    gate("speed_rel_error", abs(c - inp.speed) / max(1.0, abs(inp.speed)), 1e-5)
    exact = probe.call("waves.sample_wave", sample_wave, inp.wave,
                       float(traj.times[-1]), FLOW_K)
    # No criterion bounds the state error itself; criterion 7's 1e-8 drift
    # bound is applied to it (the order check there sees ~1e-12 at dt=4e-4).
    gate("state_error_vs_exact_wave",
         np.linalg.norm(traj.states[-1].coeffs - exact.coeffs), 1e-8)


# ----------------------------------------------------------------------
# basis-k128: the co-evolved eigenbasis (B action on columns)
# ----------------------------------------------------------------------

BASIS_K = 128
BASIS_COLUMNS = 2
BASIS_CFG = dict(sign="defocusing", K=BASIS_K, T=0.05, dt=1e-4, record_every=1)


def basis_inputs(seed: int) -> list:
    """Seeded defocusing 0.8^n draws (criterion 10's broadband case)."""
    return [random_decaying([seed, i], BASIS_K, rho=0.8) for i in range(POOL)]


def basis_item(u, probe) -> None:
    cfg = EvolveConfig(**BASIS_CFG)
    L = probe.call("lax.build_lax", build_lax, u, cfg.sign)
    dec = probe.call("lax.spectral_decompose", spectral_decompose, L)
    traj = probe.call("evolve.evolve", evolve, u, cfg)
    probe.count("evolve.evolve.steps", _steps(cfg))
    basis = probe.call("evolve.evolve_basis", evolve_basis, traj,
                       dec.vectors[:, :BASIS_COLUMNS].copy())
    probe.count("evolve.evolve_basis.column_steps",
                BASIS_COLUMNS * (len(traj.times) - 1))
    rep = probe.call("evolve.phase_law_report", phase_law_report, traj, basis)
    # criterion 10: all three phase laws within 1e-4 at dt = 1e-4
    gate("max_phase_residual", max(rep.values()), 1e-4)


# ----------------------------------------------------------------------
# finitegap-k256: Newton, classification and spectral inversion
# ----------------------------------------------------------------------

FINITEGAP_K = 256
FINITEGAP_BUFFER = 96  # criterion 8's buffer for poles up to |p| = 0.65
_RADII = np.linspace(0.1125, 0.9, 8)
_ANGLES = 2.0 * np.pi * np.arange(8) / 8.0 + 0.37
#: criterion 9's 64 disc points
DISC_POINTS = tuple(complex(r * np.exp(1j * a)) for r in _RADII for a in _ANGLES)


def finitegap_inputs(seed: int) -> list:
    """Seeded pole configurations, focusing on even items, defocusing on odd."""
    return [("focusing" if i % 2 == 0 else "defocusing",)
            + random_pole_config([seed, i]) for i in range(POOL)]


def finitegap_item(inp, probe) -> None:
    sign, m0, poles, mults = inp
    fg = probe.call("finitegap.solve_residue_system", solve_residue_system,
                    sign, m0, poles, mults)
    # criterion 8: Newton residual <= 1e-12
    gate("newton_residual", np.max(np.abs(residue_residuals(
        sign, fg.a, fg.residues, fg.poles, fg.mults))), 1e-12)
    u = probe.call("finitegap.potential_coeffs", potential_coeffs, fg, FINITEGAP_K)
    # criterion 8: ||u||^2 matches the ladder eigenvalue formula to 1e-10
    gate("norm_identity_error", abs(u.norm() ** 2 - predicted_l2(fg)), 1e-10)
    L = probe.call("lax.build_lax", build_lax, u, sign)
    dec = probe.call("lax.spectral_decompose", spectral_decompose, L,
                     buffer=FINITEGAP_BUFFER)
    cls = probe.call("finitegap.classify", classify, dec, u)
    probe.count("finitegap.classify.finite_gap", int(cls.is_finite_gap))
    # criterion 8: classified finite gap with the degree of the pole data
    gate("classified_finite_gap", float(cls.is_finite_gap), 1.0, "min")
    gate("degree_error", abs(cls.N_estimate - fg.N), 0.0)
    data = probe.call("finitegap.inversion_data", inversion_data, u, dec)
    probe.count("finitegap.inversion_data.reduced", int(data.reduced_dim is not None))
    # criterion 9: the ladder-adapted reduction exists for finite-gap data
    gate("has_reduction", float(data.reduced_dim is not None), 1.0, "min")
    series = u.coeffs[::-1]
    worst_full = worst_red = 0.0
    for z in DISC_POINTS:
        full = probe.call("finitegap.reconstruct_full", reconstruct, data, z,
                          use_reduced=False)
        red = probe.call("finitegap.reconstruct_reduced", reconstruct, data, z,
                         use_reduced=True)
        worst_full = max(worst_full, abs(full - complex(np.polyval(series, z))))
        worst_red = max(worst_red, abs(red - full))
    # criterion 9: inversion formula vs the direct series, reduced vs full
    gate("max_reconstruction_error", worst_full, 1e-8)
    gate("max_reduced_vs_full", worst_red, 1e-8)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    run_item: Callable[[Any, Any], None]


WORKLOADS = {w.name: w for w in (
    Workload("spectra-k512", spectra_inputs, spectra_item),
    Workload("flow-k256", flow_inputs, flow_item),
    Workload("basis-k128", basis_inputs, basis_item),
    Workload("finitegap-k256", finitegap_inputs, finitegap_item),
)}
