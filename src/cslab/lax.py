"""Truncated Lax operators L = D - sigma T_u T_ubar and their spectral theory.

For u in the Hardy space the Lax operator of (CS+-) is

    L_u = D - sigma T_u T_ubar,    sigma = +1 (focusing) or -1 (defocusing)

(sigma as ``errors.check_sign`` returns it), with D = -i d/dx (the
diagonal of mode numbers) and T_w the Toeplitz operator f -> Pi(w f).  Its
K x K compressions are *exact*: the entry (j, k) of the true product
T_u T_ubar only involves intermediate modes <= min(j, k), so the product of
truncated blocks equals the block of the product.  ``build_lax`` forms no T_u: P = T_u T_ubar solves P - S P S* =
u u^H, so P[i, j] = P[i-1, j-1] + u_i conj(u_j), filled row by row in O(K^2)
with a real diagonal and the upper triangle mirrored: L is exactly Hermitian
and no BLAS call (or thread count) touches it.  The companion generator

    B_u = sigma (T_u T_{du bar} - T_{du} T_ubar) + i (T_u T_ubar)^2

(with du = d/dx u) contains a squared product, which is *not* block-exact;
identities that involve it are therefore checked on a buffered top-left
sub-block (indices below K - K/4, ``_identity_rows``) where the quadratic
truncation error is geometrically small for decaying symbols.

Eigenvalues of the truncations converge geometrically in K for symbols
with geometric coefficient decay, but the top rows of the spectrum are
polluted by the cut; indices above the reliability cutoff (default
K - K/8) should never be trusted; a zero buffer (K < 8 by default) is refused.
One potential has one decomposition, which keeps u and its Lax matrix:
spectral consumers read them from it.  ``_matrices_in_basis`` is the one
map to the spectral coordinates X, Y, M, for one basis or a stack.  S and
S* act by slicing, as in ``hardy``, so no shifted copy is made.

B is never formed as a matrix.  Its one implementation is an action by
FFT convolutions (``_b_kernels``, ``_apply_b_cols``) built from its
displacement.  Truncated Toeplitz products obey
T_a T_bbar - S T_a T_bbar S* = a b^H, and with P = T_u T_ubar,
P^2 - S P^2 S* = (Pu) u^H + u (Pu)^H - ||u||^2 u u^H - w w^H for
w = S P e_{K-1}.  So Delta = B - S B S* = a1 u^H + u b2^H - i w w^H, with

    a1 = -sigma du + i (Pu - ||u||^2 u),    b2 = sigma du - i Pu,

and, S being nilpotent on C^K, B = sum_t S^t Delta S*^t is a sum of three
Toeplitz pairs (Kailath-Sayed, Displacement structure, SIAM Rev. 1995):

    B_u = T_{a1} T_ubar + T_u T_{b2 bar} + T_{-iw} T_{w bar}.

Each factor is an exact zero-padded convolution, T_k keeping the head of
k * g and T_{conj k} the tail of conj(k reversed) * g, and the three pairs
share their transforms: B applied to a stack of rows costs four FFT calls
once the six kernel spectra are known (five calls for a whole stack of
states).  The evolving basis of ``evolve`` integrates this action, and the
identity check reads B's displacement off it.
The transforms are hardy._fft and hardy._ifft, looked up on the module at
each call; both keep np.fft's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import EigensolveFailure, check_int, check_real, check_same_K, check_sign
from . import hardy
from .hardy import HardyCoeffs, _FFTWorkspace

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

_PHASE_TOL = 1e-8
#: |<S f_{n-1} | f_n>| below this puts n in the collinearity set I(u).
_COLLINEAR_TOL = 1e-6
#: Probe rows on which the identity check measures B's displacement.
_B_ROWS = 8


@dataclass(frozen=True)
class LaxBlock:
    """K x K compression of the Lax operator for one sign.

    The operator is Hermitian, and so is the computed matrix, bit for bit
    at every K: its upper triangle is the conjugate copy of its lower one
    and its diagonal is real.  ``u`` is the potential it was built from
    (shared, not copied; no part of equality), and K is read off it.
    """

    matrix: NDArray[np.complex128]
    sign: str
    u: HardyCoeffs = field(compare=False, repr=False)

    @property
    def K(self) -> int:
        return self.u.K


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and phase-fixed eigenvector columns of a LaxBlock.

    ``matrix`` is the diagonalized Lax matrix and ``u`` its potential (the
    LaxBlock's, shared; u takes no part in equality, and K is read off it).
    ``reliable`` is the index cutoff below which eigen-data may be trusted.
    Where eigenvalues coincide to roundoff, the eigenvectors of the run are
    only defined up to unitary mixing; the decomposition does not mark such
    runs.
    """

    eigenvalues: NDArray[np.float64]
    vectors: NDArray[np.complex128]
    matrix: NDArray[np.complex128]
    sign: str
    u: HardyCoeffs = field(compare=False, repr=False)
    buffer: int

    @property
    def K(self) -> int:
        return self.u.K

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
    """Max-abs residuals of the exact spectral identities on rows below K - K/4.

    ``commutator_sb`` is the larger of the B-commutator residual, read off
    B's displacement as measured on probe rows, and the residual of that
    measurement on fresh probes (``check_spectral_identities``), so an
    action whose displacement is not of low rank fails it too."""

    mean_identity: float
    shift_identity: float
    commutator_ls: float
    commutator_sb: float

    def max_residual(self) -> float:
        return max(self.mean_identity, self.shift_identity,
                   self.commutator_ls, self.commutator_sb)


def _identity_rows(K: int) -> int:
    """K - K/4: the rows on which the identities that involve B (its squared
    product is not block-exact) and the ladder relations are read."""
    return K - K // 4


def build_lax(u: HardyCoeffs, sign: str) -> LaxBlock:
    """K x K block of the Lax operator: diag(0..K-1) - sigma T_u T_ubar (exact).
    No entry of T_u T_ubar exceeds ||u||^2: refusing an overflowing ||u||^2
    (InvalidParameter) keeps the matrix finite for LAPACK.  P is filled
    row by row from P[i, j] = P[i-1, j-1] + u_i conj(u_j) (module docstring)."""
    s = -check_sign(sign)
    check_real("||u||^2", float(np.vdot(u.coeffs, u.coeffs).real), 0.0, math.inf)
    K, c = u.K, u.coeffs
    cb = np.conj(c)
    mat = np.zeros((K, K), dtype=np.complex128)
    for i in range(1, K):
        np.multiply(s * c[i], cb[:i], out=mat[i, :i])
        mat[i, 1:i] += mat[i - 1, :i - 1]
        np.conjugate(mat[i, :i], out=mat[:i, i])
    np.fill_diagonal(mat, np.arange(K) + s * np.cumsum(c.real ** 2 + c.imag ** 2))
    return LaxBlock(matrix=mat, sign=sign, u=u)


def _b_kernels(ws: _FFTWorkspace, sigma: float) -> NDArray[np.complex128]:
    """Spectra of the three generator pairs of B_u for each state u in
    ``ws.slots[0]``, written there by the caller; sigma is the sign of
    ``errors.check_sign``.

    B_u = T_u T_{b2}^H + T_{a1} T_u^H + T_{-iw} T_w^H, with
    a1 = -sigma du + i (Pu - ||u||^2 u), b2 = sigma du - i Pu and
    w = S P e_{K-1} (module docstring).  ``ws`` is a six-operand workspace
    of the states' shape (..., K); the result is its ``spec``, of shape
    (6, ..., L): the left kernels u, a1, -iw and then the right ones
    conj(b2 reversed), conj(u reversed), conj(w reversed), each zero-padded
    to the exact convolution length L.

    Five FFT calls, eight transforms per state, for the whole stack: u and
    conj(u reversed); one ifft of their product, whose tails are
    Pi(|u|^2) = T_ubar u and whose heads are P e_{K-1} = T_u conj(u reversed);
    one fft/ifft pair for Pu = T_u Pi(|u|^2); and one stacked fft of a1,
    -iw and conj(b2 reversed).  The last spectrum is turn * conj(fft w)
    with fft w = i fft(-iw) and turn[k] = exp(-2 pi i (K-1) k / L), its
    exponent reduced mod L in integers.
    """
    K, L = ws.n.shape[0], ws.pad.shape[-1]
    spec, u = ws.spec, ws.slots[0]
    np.conjugate(u[..., ::-1], out=ws.slots[1])
    hardy._fft(ws.pad[:2], spec[:2])
    k_u = spec[0]
    spec[4] = spec[1]                         # conj(u reversed), a right kernel
    np.multiply(k_u, spec[4], out=ws.prod[0])
    hardy._ifft(ws.prod[0], ws.conv[0])      # heads P e_{K-1}, tails Pi(|u|^2)
    ws.slots[1] = ws.tails[0]
    np.multiply(k_u, hardy._fft(ws.pad[1], spec[1]), out=ws.prod[1])
    Pu = hardy._ifft(ws.prod[1], ws.conv[1])[..., :K]
    sdu, iPu = (1j * sigma * ws.n) * u, 1j * Pu
    inorm2 = 1j * ws.tails[0][..., :1].real   # i ||u||^2 = i Pi(|u|^2)[0]
    a1, miw, b2_rev = ws.slots[1:4]
    miw[..., 0] = 0.0
    np.multiply(-1j, ws.heads[0][..., :-1], out=miw[..., 1:])  # -i S P e_{K-1}
    np.conjugate((sdu - iPu)[..., ::-1], out=b2_rev)
    np.subtract(iPu - inorm2 * u, sdu, out=a1)
    hardy._fft(ws.pad[1:4], spec[1:4])
    turn = np.exp(-2j * np.pi / L * ((K - 1) * np.arange(L) % L))
    np.multiply(-1j * turn, np.conjugate(spec[2], out=spec[5]), out=spec[5])
    return spec


def _apply_b_cols(kernels: NDArray[np.complex128], G: NDArray[np.complex128],
                  ws: _FFTWorkspace) -> NDArray[np.complex128]:
    """B_u applied to the rows of G (m, K) without forming the matrix.

    ``kernels`` is the (6, L) block of ``_b_kernels`` for this u, the left
    kernels x_r first and the right ones conj(y_r reversed) after, so that
    B_u = sum_r T_{x_r} T_{y_r}^H.  Every factor is an exact truncated
    convolution: T_{y}^H keeps the tail of conj(y reversed) * G, and T_x
    the head of x * G.  Four FFT calls, 8m transforms: fft(G); one ifft of
    the three correlation products (3m rows), read as tails; one fft of
    those tails; and one ifft of the three kernel products summed in
    frequency space (m rows), read as heads.  They run on the three-operand
    workspace ``ws`` of G's shape; the result is a new array.
    """
    left, right = kernels[:3, None], kernels[3:, None]
    a = ws.operands[0]
    a.slots[...] = G
    np.multiply(right, hardy._fft(a.pad, a.spec), out=ws.prod)
    hardy._ifft(ws.prod, ws.conv)
    ws.slots[...] = ws.tails
    np.multiply(left, hardy._fft(ws.pad, ws.spec), out=ws.prod)
    np.add(a.prod, ws.prod[1], out=a.prod)
    np.add(a.prod, ws.prod[2], out=a.prod)
    hardy._ifft(a.prod, a.conv)
    return a.heads.copy()


def _b_displacement(kernels: NDArray[np.complex128], K: int):
    """(DQ, Q, r) for the displacement Delta = B - S B S* of the B action
    on p = min(_B_ROWS, K) probe columns.

    Q (K, p) is an orthonormal basis of Delta W for seeded complex Gaussian
    probes W, DQ = Delta Q, and r = max|Delta W' - DQ (Q^H W')| on p fresh
    probes W'.  Delta is skew-adjoint, as B is, so its range is its row
    space, and Delta = DQ Q^H up to r once p exceeds its rank (at most 3,
    module docstring).  Each Delta of p columns is one
    ``_apply_b_cols`` call on the 2p rows w and S* w.  The probes come from
    ``np.random.default_rng(0)``, so every call returns the same.
    """
    p = min(_B_ROWS, K)
    ws = _FFTWorkspace(3, (2 * p, K))
    G = np.zeros((2 * p, K), dtype=np.complex128)

    def delta(W):
        """Delta w for the rows w of W (p, K), as the columns of a (K, p) array."""
        G[:p] = W
        G[p:, :-1] = W[:, 1:]                 # S* w, the last entry staying 0
        BG = _apply_b_cols(kernels, G, ws)
        D = BG[:p]
        D[:, 1:] -= BG[p:, :-1]               # - S B S* w
        return D.T

    rng = np.random.default_rng(0)
    W, W2 = rng.standard_normal((2, p, K)) + 1j * rng.standard_normal((2, p, K))
    Q = np.linalg.qr(delta(W))[0]
    DQ = delta(Q.T)
    r = float(np.max(np.abs(delta(W2) - DQ @ (np.conj(Q.T) @ W2.T))))
    return DQ, Q, r


def _fix_phases(vectors: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Rotate each column, in place, so its first coefficient of modulus > 1e-8
    is real > 0 (columns with none stay; hypot rounds like the scalar abs)."""
    big = np.abs(vectors) > _PHASE_TOL
    has_pivot = big.any(axis=0)
    pivots = vectors[big.argmax(axis=0), np.arange(vectors.shape[1])]
    pivots = np.where(has_pivot, pivots, 1.0)
    return np.multiply(vectors, np.conj(pivots) / np.hypot(pivots.real, pivots.imag),
                       out=vectors)


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
        u=L.u,
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
    M[n, p] = <f_p | S f_n>, as in u(z) = <(Id - zM)^{-1} X | Y>: M = F^H S* F,
    and S* F is F[1:] with a zero last row, which the product drops.  Leading
    axes of u_vec (..., K) and F (..., K, R) stack bases (one per snapshot in
    ``evolve.phase_law_report``), each slice as its 2-d call, bit for bit."""
    Fh = np.conj(F.mT)
    return (Fh @ u_vec[..., None])[..., 0], np.conj(F[..., 0, :]), Fh[..., :-1] @ F[..., 1:, :]


def gap_profile(dec: SpectralDecomposition, u: HardyCoeffs) -> GapProfile:
    """Gaps and shift-collinearity over the reliable range.

    gaps[n-1]   = nu_n - nu_{n-1} - 1
    collin[n-1] = <S f_{n-1} | f_n>

    ``collinearity_set`` collects the indices n with |collin| < 1e-6 (the
    set I(u)); by the defocusing collinearity theorem it must be empty for
    defocusing symbols.  u must be dec's own (``errors.check_same_K``).
    """
    check_same_K(u, dec)
    R = dec.reliable
    ev = dec.eigenvalues
    F = dec.vectors
    gaps = ev[1:R] - ev[:R - 1] - 1.0
    # <S f_{n-1} | f_n> = sum_j f_{n-1}[j] conj(f_n[j+1])
    collin = np.einsum("jn,jn->n", F[:-1, :R - 1], np.conj(F[1:, 1:R]))
    cset = tuple(int(n) for n in (np.flatnonzero(np.abs(collin) < _COLLINEAR_TOL) + 1))
    return GapProfile(gaps=gaps, collinearity=collin, collinearity_set=cset)


def check_spectral_identities(u: HardyCoeffs,
                              dec: SpectralDecomposition) -> IdentityReport:
    """Residuals of the exact eigenbasis and commutator identities.

    With sigma = +1 (focusing, eigenvalues nu) or -1 (defocusing,
    eigenvalues lambda), the eigenbasis identities are

        <1|u> <u|f_n>                 = -sigma * nu_n <1|f_n>
        (nu_n - nu_p - 1) <S f_p|f_n> = -sigma * <S f_p|u> <u|f_n>

    and the operator identities are

        L S - S L - S + sigma <.|S* u> u        = 0
        S* B - B S* - i (S* L^2 - (L + 1)^2 S*) = 0

    all evaluated on truncated data over indices below R = K - buffer
    (``_identity_rows``), with buffer = K/4 sized for the quadratic term of
    B (K < 4 leaves no buffer: ``InvalidParameter``).  u must be dec's own
    (``errors.check_same_K``); L is dec's matrix, <S f_p|f_n> = conj(M[p, n])
    with M from ``_matrices_in_basis``, and <S f_p|u> pairs f_p[:-1] with u[1:].

    Since (A S)[i, j] = A[i, j+1] and (A S*)[i, j] = A[i, j-1], the R x R
    block of the commutators reads L on [:R, :R+1], L^2 on [:R+1, :R] and
    (L + 1)^2 on [:R, :R-1]; L^2 is one product of R + 1 rows, and
    (L + 1)^2 = L^2 + 2L + 1 is read off it.  B enters through its
    displacement Delta = B - S B S*: S* S = I on rows below K - 1, so

        (S* B - B S*)[:R, :R] = (S* Delta)[:R, :R] = Delta[1:R+1, :R].

    Delta = a1 u^H + u b2^H - i w w^H has rank <= 3 (module docstring).
    ``_b_displacement`` measures it with the one FFT action of B
    (``_apply_b_cols``, which ``evolve_basis`` integrates) on p = min(8, K)
    seeded probes and their orthonormal basis Q, then on p fresh probes:
    6p rows (48 for K >= 8) in three calls, 5 + 4 * 3 FFT calls with the
    kernel spectra.  The block
    is (Delta Q)[1:R+1] Q[:R]^H, one R x p by p x R product, and
    ``commutator_sb`` is the larger of its residual and the fresh probes'
    max|Delta W' - (Delta Q)(Q^H W')|.  No B block and no K x K product is
    formed, and each R x R array dies once read: at most about four live.
    """
    check_same_K(u, dec)
    K = dec.K
    R = _identity_rows(K)
    check_int("buffer K/4", K - R, 1, K - 1)
    sigma = check_sign(dec.sign)

    ev = dec.eigenvalues[:R]
    F = dec.vectors[:, :R]
    uc = dec.u.coeffs

    x, y, M = _matrices_in_basis(uc, F)  # x[n] = <u|f_n>, y[n] = <1|f_n>
    mean_u = np.conj(uc[0])              # <1|u>
    r_mean = np.max(np.abs(mean_u * x + sigma * ev * y))

    b = np.conj(uc[1:]) @ F[:-1]         # b[p] = <S f_p | u>
    lhs = np.conjugate(M, out=M).T       # M^H[n,p] = <S f_p|f_n>, on M's buffer
    np.multiply(ev[:, None] - ev[None, :] - 1.0, lhs, out=lhs)
    buf = np.outer(x, b)                 # an R x R scratch array until R1 is read
    lhs += np.multiply(sigma, buf, out=buf)
    r_shift = np.max(np.abs(lhs))
    del x, y, M, lhs

    # operator identities on the R x R block; each array dies once it is read
    L = dec.matrix
    i = np.arange(K)
    R1 = L[:R, 1:R + 1].copy()                # L S
    R1[1:] -= L[:R - 1, :R]                   # - S L
    R1[i[1:R], i[:R - 1]] -= 1.0              # - S
    np.outer(uc[:R], np.conj(uc[1:R + 1]), out=buf)
    R1 += np.multiply(sigma, buf, out=buf)    # + sigma <.|S* u> u
    r_ls = float(np.max(np.abs(R1)))
    del R1, buf
    kern_ws = _FFTWorkspace(6, (K,))
    kern_ws.slots[0] = uc
    DV, V, r_probe = _b_displacement(_b_kernels(kern_ws, sigma), K)
    R2 = DV[1:R + 1] @ np.conj(V[:R].T)      # S* B - B S* = Delta[1:R+1, :R]
    L2 = L[:R + 1] @ L[:, :R]
    Q = L2[1:].copy()                         # S* L^2
    # - (L + 1)^2 S* = - L^2 S* - 2 L S* - S*, the terms of size L^2 first
    Q[:, 1:] -= L2[:R, :R - 1]
    del L2
    Q[:, 1:] -= 2.0 * L[:R, :R - 1]
    Q[i[:R - 1], i[1:R]] -= 1.0
    Q *= 1j
    R2 -= Q
    r_sb = max(float(np.max(np.abs(R2))), r_probe)

    return IdentityReport(
        mean_identity=float(r_mean),
        shift_identity=float(r_shift),
        commutator_ls=r_ls,
        commutator_sb=r_sb,
    )
