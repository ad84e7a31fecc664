"""Spectral laboratory for an integrable shifted-Lax PDE on the circle.

The package revolves around Hardy-space coefficient vectors
(:class:`~cslab.hardy.HardyCoeffs`): ``lax`` builds and diagonalizes the
Lax operator and checks its exact identities, ``waves`` carries the
closed-form traveling-wave families, ``finitegap`` handles rational
potentials (residue conditions, classification, spectral inversion),
``evolve`` integrates the flow and the Lax eigenbasis along it, and
``fixtures``/``verify`` hold the worked examples and the acceptance
criteria.  The ``cslab`` console script fronts all of it.
"""
from .errors import (
    AliasWarning,
    BasisDrift,
    BlowupDetected,
    ConstraintViolation,
    CslabError,
    CslabWarning,
    DimensionMismatch,
    EigensolveFailure,
    FamilyUnavailable,
    Inconclusive,
    InfeasibleSign,
    InvalidParameter,
    NewtonDivergence,
    NotATravelingWave,
    NumericalAliasing,
    OutsideTheory,
    PoleOnCircle,
    SingularSystem,
    TruncationOverflow,
    UnderResolved,
)
from .hardy import (
    BlaschkeProduct,
    HardyCoeffs,
    blaschke_eval,
    blaschke_to_coeffs,
    derivative,
    grid_transform,
    zero_pad,
)
from .lax import (
    GapProfile,
    IdentityReport,
    LaxBlock,
    SpectralDecomposition,
    build_lax,
    check_spectral_identities,
    gap_profile,
    spectral_decompose,
)
from .waves import (
    WaveParams,
    make_wave,
    pde_residual,
    sample_wave,
    solve_wave_constraint,
    validate_wave,
    wave_l2,
)
from .finitegap import (
    ClassifyResult,
    FiniteGapPotential,
    InversionData,
    blaschke_eigen_check,
    classify,
    inversion_data,
    ladder_blaschke,
    potential_coeffs,
    predicted_l2,
    reconstruct,
    residue_residuals,
    solve_residue_system,
)
from .evolve import (
    ConservationReport,
    EvolveConfig,
    EvolvedBasis,
    Trajectory,
    conservation_report,
    evolve,
    evolve_basis,
    measure_speed,
    phase_law_report,
)
from .fixtures import (
    RATIONAL_FIXTURES,
    WAVE_SPEED_FIXTURES,
    Fixture,
    make_fixture,
    random_decaying,
    random_pole_config,
)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "AliasWarning", "BasisDrift", "BlaschkeProduct", "BlowupDetected",
    "ClassifyResult", "ConservationReport", "ConstraintViolation",
    "CslabError", "CslabWarning", "DimensionMismatch", "EigensolveFailure",
    "EvolveConfig", "EvolvedBasis", "FamilyUnavailable", "FiniteGapPotential",
    "Fixture", "GapProfile", "HardyCoeffs", "IdentityReport", "Inconclusive",
    "InfeasibleSign", "InvalidParameter", "InversionData", "LaxBlock",
    "NewtonDivergence", "NotATravelingWave", "NumericalAliasing",
    "OutsideTheory", "PoleOnCircle", "RATIONAL_FIXTURES", "SingularSystem",
    "SpectralDecomposition", "Trajectory", "TruncationOverflow",
    "UnderResolved", "WAVE_SPEED_FIXTURES", "WaveParams",
    "blaschke_eigen_check", "blaschke_eval", "blaschke_to_coeffs", "build_lax",
    "check_spectral_identities", "classify", "conservation_report",
    "derivative", "evolve", "evolve_basis", "gap_profile", "grid_transform",
    "inversion_data", "ladder_blaschke", "make_fixture", "make_wave",
    "measure_speed", "pde_residual", "phase_law_report", "potential_coeffs",
    "predicted_l2", "random_decaying", "random_pole_config", "reconstruct",
    "residue_residuals", "run_verify", "sample_wave", "solve_residue_system",
    "solve_wave_constraint", "spectral_decompose", "validate_wave", "wave_l2",
    "zero_pad",
]
