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
from it.  T_u, S, S* and the S^k stacks come from ``hardy``, which applies
them as index shifts, never as dense matrices.

The identity check reads the commutators only on the block of indices
below R = K - buffer, so it forms only what that block reads: B and L^2
on rows :R+1 and columns :R, and (L + 1)^2 on rows :R and columns :R-1.
Each is a leading block of the K x K product (``_leading_block``), with
the full inner dimension and padded to whole 4 x 4 tiles.  Then every
entry is the same OpenBLAS sum as in the K x K product, and
``_b_block(u, sign, K, K)`` is the K x K matrix of B.  Only P = T_u T_ubar
is formed whole.
Both its rows and its columns enter P^2, and the computed P is not
exactly Hermitian for every K, so its columns cannot be taken as its
conjugated rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EigensolveFailure, check_int, check_real, check_same_K, check_sign
from .hardy import (
    HardyCoeffs,
    analytic_toeplitz_block,
    derivative,
    shift_columns,
    unshift_columns,
)

__all__ = [
    "LaxBlock",
    "SpectralDecomposition",
    "GapProfile",
    "IdentityReport",
    "build_lax",
    "spectral_decompose",
    "reliable_eigenvalues",
    "gap_profile",
    "check_spectral_identities",
]

FOCUSING = "focusing"
DEFOCUSING = "defocusing"

_PHASE_TOL = 1e-8
#: |<S f_{n-1} | f_n>| below this puts n in the collinearity set I(u).
_COLLINEAR_TOL = 1e-6


@dataclass(frozen=True)
class LaxBlock:
    """K x K compression of the Lax operator for one sign.

    The operator is Hermitian.  The computed matrix is Hermitian to
    roundoff: bit for bit when K is a multiple of 4 on OpenBLAS, within a
    few ulp of its largest entry otherwise.  ``eigh`` reads one triangle,
    so spectra do not depend on which.
    """

    matrix: NDArray[np.complex128]
    sign: str
    K: int


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and phase-fixed eigenvector columns of a LaxBlock.

    ``matrix`` is the diagonalized Lax matrix (the LaxBlock's array, shared).
    ``reliable`` is the index cutoff below which eigen-data may be trusted.
    Where eigenvalues coincide to roundoff, the eigenvectors of the run are
    only defined up to unitary mixing; the decomposition does not mark such
    runs.
    """

    eigenvalues: NDArray[np.float64]
    vectors: NDArray[np.complex128]
    matrix: NDArray[np.complex128]
    sign: str
    K: int
    buffer: int

    @property
    def reliable(self) -> int:
        return self.K - self.buffer


@dataclass(frozen=True)
class GapProfile:
    """Gaps gamma_n = nu_n - nu_{n-1} - 1 and shift-collinearity data.

    ``collinearity[n-1]`` holds <S f_{n-1} | f_n> for n = 1 .. reliable-1;
    ``collinearity_set`` lists the n at which its modulus is below 1e-6
    (the set I(u), empty for defocusing symbols).
    """

    gaps: NDArray[np.float64]
    collinearity: NDArray[np.complex128]
    collinearity_set: tuple


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
    """K x K block of the Lax operator: diag(0..K-1) -/+ T_u T_ubar (exact).
    No entry of T_u T_ubar exceeds ||u||^2: refusing an overflowing ||u||^2
    (InvalidParameter) keeps the matrix finite for LAPACK."""
    check_sign(sign)
    check_real("||u||^2", float(np.vdot(u.coeffs, u.coeffs).real), 0.0, math.inf)
    K = u.K
    Tu = analytic_toeplitz_block(u)
    P = Tu @ Tu.conj().T
    D = np.diag(np.arange(K, dtype=np.float64))
    mat = D - P if sign == FOCUSING else D + P
    return LaxBlock(matrix=mat, sign=sign, K=K)


def _leading_block(A: NDArray, B: NDArray, rows: int, cols: int) -> NDArray:
    """(A @ B)[:rows, :cols], computed as a product of whole 4 x 4 tiles.

    The product keeps the full inner dimension and its shape is padded to
    multiples of 4 (at most that of A @ B).  Then on OpenBLAS every entry
    is summed by the same kernel path, in the same order, as in the full
    product; an edge that cuts a tile can round differently in the last
    bits.  Blocks of 20 rows or fewer may still differ where the full
    product runs on more threads.
    """
    r = min(A.shape[0], -(-rows // 4) * 4)
    c = min(B.shape[1], -(-cols // 4) * 4)
    return (A[:r] @ B[:, :c])[:rows, :cols]


def _b_block(u: HardyCoeffs, sign: str, rows: int, cols: int) -> NDArray[np.complex128]:
    """B[:rows, :cols] by leading blocks of the K x K products (see module docstring).

    B is skew-adjoint; the computed K x K block is so to roundoff: bit for
    bit when K is a multiple of 4 on OpenBLAS, within a few ulp otherwise.
    """
    Tu = analytic_toeplitz_block(u)
    Tdu = analytic_toeplitz_block(derivative(u))
    Tuh, Tduh = Tu.conj().T, Tdu.conj().T
    P = Tu @ Tuh
    core = _leading_block(Tu, Tduh, rows, cols) - _leading_block(Tdu, Tuh, rows, cols)
    if sign == DEFOCUSING:
        core = -core
    return core + 1j * _leading_block(P, P, rows, cols)


def _fix_phases(vectors: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Rotate each column so its first coefficient of modulus > 1e-8 is real > 0
    (columns with none stay as they are; hypot rounds like the scalar abs)."""
    big = np.abs(vectors) > _PHASE_TOL
    has_pivot = big.any(axis=0)
    pivots = vectors[big.argmax(axis=0), np.arange(vectors.shape[1])]
    pivots = np.where(has_pivot, pivots, 1.0)
    return vectors * (np.conj(pivots) / np.hypot(pivots.real, pivots.imag))


def _eigensolve(L: LaxBlock, buffer: int | None, solver):
    """(buffer, solver(L.matrix)) for a LAPACK Hermitian solver: the buffer
    checked (K/8 by default, 1 <= buffer < K, else InvalidParameter) and a
    LAPACK failure raised as EigensolveFailure."""
    buffer = check_int("buffer (K/8 by default)", L.K // 8 if buffer is None else buffer,
                       1, L.K - 1)
    try:
        return buffer, solver(L.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigensolveFailure(str(exc)) from exc


def spectral_decompose(L: LaxBlock, buffer: int | None = None) -> SpectralDecomposition:
    """Dense Hermitian eigendecomposition of a LaxBlock.

    Eigenvalues come back ascending; eigenvector phases are fixed so the
    first coefficient with modulus > 1e-8 is real positive, which makes
    outputs reproducible across LAPACK builds, except at eigenvalues that
    coincide to roundoff, where only the spanned subspace is well defined.
    """
    buffer, (ev, vec) = _eigensolve(L, buffer, np.linalg.eigh)
    return SpectralDecomposition(
        eigenvalues=ev,
        vectors=_fix_phases(vec),
        matrix=L.matrix,
        sign=L.sign,
        K=L.K,
        buffer=buffer,
    )


def reliable_eigenvalues(L: LaxBlock, buffer: int | None = None) -> NDArray[np.float64]:
    """The eigenvalues of a LaxBlock below the reliability cutoff K - buffer,
    ascending, without eigenvectors (``eigvalsh``, about half the time of
    ``eigh`` at K = 256).  The buffer rule and the errors are those of
    ``spectral_decompose``; the values agree with its eigenvalues to
    roundoff, not bit for bit."""
    buffer, ev = _eigensolve(L, buffer, np.linalg.eigvalsh)
    return ev[:L.K - buffer]


def _matrices_in_basis(u_vec: NDArray[np.complex128], F: NDArray[np.complex128]):
    """(X, Y, M) for the columns of F as basis: X[n] = <u|f_n>, Y[n] = <1|f_n>,
    M[n, p] = <f_p | S f_n>, as in u(z) = <(Id - zM)^{-1} X | Y>."""
    Fh = F.conj().T
    return Fh @ u_vec, np.conj(F[0, :]), Fh @ unshift_columns(F)


def gap_profile(dec: SpectralDecomposition, u: HardyCoeffs) -> GapProfile:
    """Gaps and shift-collinearity over the reliable range.

    gaps[n-1]   = nu_n - nu_{n-1} - 1
    collin[n-1] = <S f_{n-1} | f_n>

    ``collinearity_set`` collects the indices n with |collin| < 1e-6 (the
    set I(u)); by the defocusing collinearity theorem it must be empty for
    defocusing symbols.  u must have dec's truncation K (DimensionMismatch).
    """
    check_same_K(u, dec)
    R = dec.reliable
    ev = dec.eigenvalues
    F = dec.vectors
    gaps = ev[1:R] - ev[:R - 1] - 1.0
    SF = shift_columns(F[:, :R - 1])
    # <S f_{n-1} | f_n> = sum_j (S f_{n-1})_j conj(f_n)_j
    collin = np.einsum("jn,jn->n", SF, np.conj(F[:, 1:R]))
    cset = tuple(int(n) for n in (np.flatnonzero(np.abs(collin) < _COLLINEAR_TOL) + 1))
    return GapProfile(gaps=gaps, collinearity=collin, collinearity_set=cset)


def check_spectral_identities(u: HardyCoeffs,
                              dec: SpectralDecomposition) -> IdentityReport:
    """Residuals of the exact eigenbasis and commutator identities.

    With s = +1 (defocusing, eigenvalues lambda) or s = -1 (focusing,
    eigenvalues nu), the eigenbasis identities are

        <1|u> <u|f_n>                 = s * nu_n <1|f_n>
        (nu_n - nu_p - 1) <S f_p|f_n> = s * <S f_p|u> <u|f_n>

    and the operator identities are

        L S - S L - S - s <.|S* u> u            = 0
        S* B - B S* - i (S* L^2 - (L + 1)^2 S*) = 0

    all evaluated on truncated data over indices below R = K - buffer,
    with buffer = K/4 sized for the quadratic term of B (K < 4 leaves no
    buffer: ``InvalidParameter``).  L is dec's own matrix and
    <S f_p|f_n> = conj(M[p, n]) with M from ``_matrices_in_basis``.
    Residuals are plain max-abs values.

    Since (A S)[i, j] = A[i, j+1] and (A S*)[i, j] = A[i, j-1], the R x R
    block of the commutators reads L on [:R, :R+1], B and L^2 on
    [:R+1, :R] and (L + 1)^2 on [:R, :R-1], and nothing else.  These
    blocks are formed by ``_leading_block`` and assembled in place, in the
    order of the dense formula, so the residuals equal those of the
    K x K matrices bit for bit (see the module docstring).
    """
    check_same_K(u, dec)
    K = u.K
    buffer = check_int("buffer K/4", K // 4, 1, K - 1)
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

    # operator identities on the R x R block, in the dense formula's order
    L = dec.matrix
    i = np.arange(K)
    R1 = L[:R, 1:R + 1].copy()                # L S
    R1[1:] -= L[:R - 1, :R]                   # - S L
    R1[i[1:R], i[:R - 1]] -= 1.0              # - S
    R1 -= s * np.outer(uc[:R], np.conj(uc[1:R + 1]))   # - s <.|S* u> u
    B = _b_block(u, dec.sign, R + 1, R)
    R2 = B[1:].copy()                         # S* B
    R2[:, 1:] -= B[:R, :R - 1]                # - B S*
    Lp1 = L.copy()
    Lp1[i, i] += 1.0
    Q = _leading_block(L, L, R + 1, R)[1:]                 # S* L^2
    Q[:, 1:] -= _leading_block(Lp1, Lp1, R, R - 1)        # - (L + 1)^2 S*
    Q *= 1j
    R2 -= Q
    r_ls = float(np.max(np.abs(R1)))
    r_sb = float(np.max(np.abs(R2)))

    return IdentityReport(
        mean_identity=float(r_mean),
        shift_identity=float(r_shift),
        commutator_ls=r_ls,
        commutator_sb=r_sb,
        buffer=buffer,
        n_checked=R,
    )
