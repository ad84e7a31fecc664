"""Truncated Lax operators L = D -/+ T_u T_ubar and their spectral theory.

For u in the Hardy space the focusing / defocusing Lax operators are

    L_u      = D - T_u T_ubar        (focusing)
    Ltilde_u = D + T_u T_ubar        (defocusing)

with D = -i d/dx (the diagonal of mode numbers) and T_w the Toeplitz
operator f -> Pi(w f).  Their K x K compressions are *exact*: the entry
(j, k) of the true product T_u T_ubar only involves intermediate modes
<= min(j, k), so the product of truncated blocks equals the block of the
product.  The companion generator

    B_u      =  T_u T_{du bar} - T_{du} T_ubar + i (T_u T_ubar)^2
    Btilde_u = -T_u T_{du bar} + T_{du} T_ubar + i (T_u T_ubar)^2

(with du = d/dx u) contains a squared product, which is *not* block-exact;
identities that involve it are therefore checked on a buffered top-left
sub-block (default buffer K/4) where the quadratic truncation error is
geometrically small for decaying symbols.

Eigenvalues of the truncations converge geometrically in K for symbols
with geometric coefficient decay, but the top rows of the spectrum are
polluted by the cut; indices above the reliability cutoff (default
K - K/8) should never be trusted; a zero buffer (K < 8 by default) is refused.
One potential has one decomposition, which keeps its Lax matrix: spectral
consumers read L and the eigenbasis coordinates (``_matrices_in_basis``)
from it, and S, S* act by index shifts, never as dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EigensolveFailure, InvalidParameter
from .hardy import HardyCoeffs, derivative, analytic_toeplitz_block

__all__ = [
    "FOCUSING",
    "DEFOCUSING",
    "LaxBlock",
    "BBlock",
    "SpectralDecomposition",
    "GapProfile",
    "IdentityReport",
    "build_lax",
    "build_b",
    "spectral_decompose",
    "gap_profile",
    "check_spectral_identities",
    "corollary_gap_vanishing_check",
]

FOCUSING = "focusing"
DEFOCUSING = "defocusing"

CLUSTER_TOL = 1e-8
_PHASE_TOL = 1e-8


def _check_sign(sign: str) -> str:
    if sign not in (FOCUSING, DEFOCUSING):
        raise InvalidParameter(f"sign must be '{FOCUSING}' or '{DEFOCUSING}', got {sign!r}")
    return sign


@dataclass(frozen=True)
class LaxBlock:
    """K x K Hermitian compression of the Lax operator for one sign."""

    matrix: NDArray[np.complex128]
    sign: str
    K: int


@dataclass(frozen=True)
class BBlock:
    """K x K compression of the flow generator B; skew-adjoint up to truncation."""

    matrix: NDArray[np.complex128]
    sign: str
    K: int


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and phase-fixed eigenvector columns of a LaxBlock.

    ``matrix`` is the diagonalized Lax matrix (the LaxBlock's array, shared).
    ``reliable`` is the index cutoff below which eigen-data may be trusted;
    ``clusters`` lists index ranges [start, stop) of numerically degenerate
    eigenvalues (within CLUSTER_TOL), inside which individual eigenvectors
    are only defined up to unitary mixing.
    """

    eigenvalues: NDArray[np.float64]
    vectors: NDArray[np.complex128]
    matrix: NDArray[np.complex128]
    sign: str
    K: int
    buffer: int
    clusters: tuple = ()

    @property
    def reliable(self) -> int:
        return self.K - self.buffer


@dataclass(frozen=True)
class GapProfile:
    """Gaps gamma_n = nu_n - nu_{n-1} - 1 and shift-collinearity data.

    ``collinearity[n-1]`` holds <S f_{n-1} | f_n> for n = 1 .. reliable-1;
    ``collinearity_set`` lists the n at which it vanishes below tol (the
    set I(u), empty for defocusing symbols).
    """

    gaps: NDArray[np.float64]
    collinearity: NDArray[np.complex128]
    collinearity_set: tuple
    reliable: int
    tol: float


@dataclass(frozen=True)
class IdentityReport:
    """Max-abs residuals of the exact spectral identities on buffered data."""

    mean_identity: float
    shift_identity: float
    commutator_ls: float
    commutator_sb: float
    buffer: int
    n_checked: int

    def max_residual(self) -> float:
        return max(self.mean_identity, self.shift_identity,
                   self.commutator_ls, self.commutator_sb)


def build_lax(u: HardyCoeffs, sign: str) -> LaxBlock:
    """K x K block of the Lax operator: diag(0..K-1) -/+ T_u T_ubar (exact)."""
    _check_sign(sign)
    K = u.K
    Tu = analytic_toeplitz_block(u)
    P = Tu @ Tu.conj().T
    D = np.diag(np.arange(K, dtype=np.float64))
    mat = D - P if sign == FOCUSING else D + P
    return LaxBlock(matrix=mat, sign=sign, K=K)


def build_b(u: HardyCoeffs, sign: str) -> BBlock:
    """K x K block of the flow generator B_u (see module docstring).

    The squared term i (T_u T_ubar)^2 is only block-exact up to couplings
    through modes >= K, so identities involving this matrix are evaluated
    on a buffered sub-block (see check_spectral_identities).
    """
    _check_sign(sign)
    K = u.K
    Tu = analytic_toeplitz_block(u)
    Tdu = analytic_toeplitz_block(derivative(u))
    P = Tu @ Tu.conj().T
    core = Tu @ Tdu.conj().T - Tdu @ Tu.conj().T
    if sign == DEFOCUSING:
        core = -core
    mat = core + 1j * (P @ P)
    return BBlock(matrix=mat, sign=sign, K=K)


def _fix_phases(vectors: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Rotate each column so its first coefficient of modulus > 1e-8 is real > 0
    (columns with none stay as they are; hypot rounds like the scalar abs)."""
    big = np.abs(vectors) > _PHASE_TOL
    has_pivot = big.any(axis=0)
    pivots = vectors[big.argmax(axis=0), np.arange(vectors.shape[1])]
    pivots = np.where(has_pivot, pivots, 1.0)
    return vectors * (np.conj(pivots) / np.hypot(pivots.real, pivots.imag))


def _find_clusters(ev: NDArray[np.float64], tol: float = CLUSTER_TOL) -> tuple:
    clusters = []
    start = 0
    for i in range(1, ev.shape[0] + 1):
        if i == ev.shape[0] or ev[i] - ev[i - 1] > tol:
            if i - start >= 2:
                clusters.append((start, i))
            start = i
    return tuple(clusters)


def spectral_decompose(L: LaxBlock, buffer: int | None = None) -> SpectralDecomposition:
    """Dense Hermitian eigendecomposition of a LaxBlock.

    Eigenvalues come back ascending; eigenvector phases are fixed so the
    first coefficient with modulus > 1e-8 is real positive, which makes
    outputs reproducible across LAPACK builds (outside degenerate
    clusters, where only the spanned subspace is well defined).
    """
    if buffer is None:
        buffer = L.K // 8
    if not 1 <= buffer < L.K:
        raise InvalidParameter(f"buffer {buffer} out of range for K={L.K}: need "
                               "1 <= buffer < K (the default K/8 needs K >= 8)")
    try:
        ev, vec = np.linalg.eigh(L.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigensolveFailure(str(exc)) from exc
    return SpectralDecomposition(
        eigenvalues=ev,
        vectors=_fix_phases(vec),
        matrix=L.matrix,
        sign=L.sign,
        K=L.K,
        buffer=buffer,
        clusters=_find_clusters(ev),
    )


def shift_columns(F: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Apply S to a vector or every column (rows down by one, top row zero)."""
    out = np.zeros_like(F)
    out[1:] = F[:-1]
    return out


def unshift_columns(F: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Apply S* to a vector or every column (rows up by one, bottom row zero)."""
    out = np.zeros_like(F)
    out[:-1] = F[1:]
    return out


def _matrices_in_basis(u_vec: NDArray[np.complex128], F: NDArray[np.complex128]):
    """(X, Y, M) for the columns of F as basis: X[n] = <u|f_n>, Y[n] = <1|f_n>,
    M[n, p] = <f_p | S f_n>, as in u(z) = <(Id - zM)^{-1} X | Y>."""
    Fh = F.conj().T
    return Fh @ u_vec, np.conj(F[0, :]), Fh @ unshift_columns(F)


def gap_profile(dec: SpectralDecomposition, u: HardyCoeffs, tol: float = 1e-6) -> GapProfile:
    """Gaps and shift-collinearity over the reliable range.

    gaps[n-1]   = nu_n - nu_{n-1} - 1
    collin[n-1] = <S f_{n-1} | f_n>

    ``collinearity_set`` collects the indices n with |collin| < tol (the
    set I(u)); by the defocusing collinearity theorem it must be empty for
    defocusing symbols.
    """
    R = dec.reliable
    ev = dec.eigenvalues
    F = dec.vectors
    gaps = ev[1:R] - ev[:R - 1] - 1.0
    SF = shift_columns(F[:, :R - 1])
    # <S f_{n-1} | f_n> = sum_j (S f_{n-1})_j conj(f_n)_j
    collin = np.einsum("jn,jn->n", SF, np.conj(F[:, 1:R]))
    cset = tuple(int(n) for n in (np.flatnonzero(np.abs(collin) < tol) + 1))
    return GapProfile(gaps=gaps, collinearity=collin, collinearity_set=cset,
                      reliable=R, tol=tol)


def check_spectral_identities(u: HardyCoeffs, dec: SpectralDecomposition,
                              buffer: int | None = None) -> IdentityReport:
    """Residuals of the exact eigenbasis and commutator identities.

    With s = +1 (defocusing, eigenvalues lambda) or s = -1 (focusing,
    eigenvalues nu), the eigenbasis identities are

        <1|u> <u|f_n>                 = s * nu_n <1|f_n>
        (nu_n - nu_p - 1) <S f_p|f_n> = s * <S f_p|u> <u|f_n>

    and the operator identities are

        L S - S L - S - s <.|S* u> u            = 0
        S* B - B S* - i (S* L^2 - (L + 1)^2 S*) = 0

    all evaluated on truncated data over indices below K - buffer
    (default buffer K/4, sized for the quadratic term of B).  L is dec's
    own matrix and <S f_p|f_n> = conj(M[p, n]) with M from
    ``_matrices_in_basis``.  Residuals are plain max-abs values.
    """
    if u.K != dec.K:
        raise InvalidParameter("decomposition and potential truncations differ")
    K = u.K
    if buffer is None:
        buffer = K // 4
    R = K - buffer
    s = 1.0 if dec.sign == DEFOCUSING else -1.0

    ev = dec.eigenvalues[:R]
    F = dec.vectors[:, :R]
    uc = u.coeffs

    x, y, M = _matrices_in_basis(uc, F)  # x[n] = <u|f_n>, y[n] = <1|f_n>
    mean_u = np.conj(uc[0])              # <1|u>
    r_mean = np.max(np.abs(mean_u * x - s * ev * y))

    b = np.conj(uc) @ shift_columns(F)   # b[p] = <S f_p | u>
    lhs = (ev[:, None] - ev[None, :] - 1.0) * M.conj().T   # M^H[n,p] = <S f_p|f_n>
    rhs = s * np.outer(x, b)
    r_shift = np.max(np.abs(lhs - rhs))

    # operator identities on the buffered block; A S = (S* A^T)^T and
    # A S* = (S A^T)^T, so products from the right are index shifts too
    L = dec.matrix
    B = build_b(u, dec.sign).matrix
    rank1 = np.outer(uc, np.conj(unshift_columns(uc)))   # f -> <f|S*u> u
    R1 = unshift_columns(L.T).T - shift_columns(L)
    R1[1:, :-1] -= np.eye(K - 1)         # - S
    R1 -= s * rank1
    Lp1 = L + np.eye(K)
    R2 = (unshift_columns(B) - shift_columns(B.T).T
          - 1j * (unshift_columns(L @ L) - shift_columns((Lp1 @ Lp1).T).T))
    r_ls = float(np.max(np.abs(R1[:R, :R])))
    r_sb = float(np.max(np.abs(R2[:R, :R])))

    return IdentityReport(
        mean_identity=float(r_mean),
        shift_identity=float(r_shift),
        commutator_ls=r_ls,
        commutator_sb=r_sb,
        buffer=buffer,
        n_checked=R,
    )


@dataclass(frozen=True)
class GapVanishingReport:
    """Outcome of the defocusing 'gap vanishes iff <u|f_n> vanishes' check."""

    violations: tuple
    n_checked: int
    gap_tol: float
    inner_tol: float

    @property
    def ok(self) -> bool:
        return not self.violations


def corollary_gap_vanishing_check(u: HardyCoeffs, dec: SpectralDecomposition,
                                  gap_tol: float = 1e-7,
                                  inner_tol: float = 1e-7) -> GapVanishingReport:
    """Defocusing biconditional: gamma_n = 0  <=>  <u|f_n> = 0 (n >= 1).

    Scans the reliable range and reports indices where one side is below
    its tolerance but the other is not.  Only meaningful for defocusing
    decompositions (the focusing analogue genuinely decouples).
    """
    if dec.sign != DEFOCUSING:
        raise InvalidParameter("gap-vanishing biconditional is a defocusing statement")
    R = dec.reliable
    ev = dec.eigenvalues
    F = dec.vectors
    x = F.conj().T @ u.coeffs
    bad = []
    for n in range(1, R):
        gap0 = abs(ev[n] - ev[n - 1] - 1.0) < gap_tol
        inner0 = abs(x[n]) < inner_tol
        if gap0 != inner0:
            bad.append((n, float(ev[n] - ev[n - 1] - 1.0), float(abs(x[n]))))
    return GapVanishingReport(violations=tuple(bad), n_checked=R - 1,
                              gap_tol=gap_tol, inner_tol=inner_tol)
