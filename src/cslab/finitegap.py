"""Finite-gap potentials: residue system, ladder checks, classification, inversion.

A potential is finite gap when the eigenvalues of its Lax operator satisfy
nu_n = nu_{n-1} + 1 from some rank m on.  Such potentials are exactly the
rational functions

    u(x) = e^{i m0 x} prod_j B_j(e^{ix})^{m_j - 1} (a + sum_j c_j / (1 - p_j e^{ix}))

with B_j(z) = (z - conj(p_j))/(1 - p_j z), distinct poles p_j in the
punctured disc, multiplicities m_j >= 1, N = m0 + sum m_j, and residue
conditions

    conj(a) c_j + sum_k c_j conj(c_k) / (1 - p_j conj(p_k)) = sigma m_j
    (sigma = +1 focusing, -1 defocusing),

plus the plane waves C e^{iNx}.  The associated Blaschke product
psi = z^{m0} prod_j B_j^{m_j} generates a shift ladder of eigenfunctions
L S^k psi = (nu_u + k) S^k psi, and the potential is recovered from
spectral data by u(z) = <(Id - z M)^{-1} X | Y>.  In the full eigenbasis
M is nilpotent, so the resolvent series terminates and u(z) is the
polynomial sum_k <M^k X | Y> z^k, whose coefficients ``_moments`` returns
with the leak ||M^K X|| for ``inversion_data`` to judge; in a
ladder-adapted basis the formula collapses to an (N+1) x (N+1) solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BasisDrift,
    ConstraintViolation,
    Inconclusive,
    InfeasibleSign,
    InvalidParameter,
    NewtonDivergence,
    NumericalAliasing,
    SingularSystem,
    TruncationOverflow,
)
from .errors import K_MAX, check_in_disc, check_int, check_K, check_same_K, check_sign
from .hardy import (
    BlaschkeProduct,
    HardyCoeffs,
    _disc_series,
    _shifted_columns,
    blaschke_eval,
    blaschke_to_coeffs,
    grid_transform,
)
from .lax import SpectralDecomposition, _identity_rows, _matrices_in_basis

__all__ = [
    "FiniteGapPotential",
    "ClassifyResult",
    "InversionData",
    "residue_residuals",
    "solve_residue_system",
    "potential_coeffs",
    "predicted_l2",
    "ladder_blaschke",
    "blaschke_eigen_check",
    "classify",
    "inversion_data",
    "reconstruct",
]

_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 100
_ZERO_TOL = 1e-10
_WALK_TOL = 1e-5
#: A gap within this of 1 counts as closed in ``classify``.
_GAP_TOL = 1e-7
_NORM_DROP_TOL = 1e-6
_UNIMODULAR_TOL = 1e-4
_NILPOTENT_TOL = 1e-10


@dataclass(frozen=True)
class FiniteGapPotential:
    """Pole data (p_j, m_j), constant a and residue coefficients c_j.

    ``r = 0`` encodes the plane-wave branch u = a e^{i m0 x}.
    """

    sign: str
    m0: int
    poles: tuple
    mults: tuple
    a: complex
    residues: tuple

    def __post_init__(self) -> None:
        check_sign(self.sign)
        m0, poles, mults = _checked_pole_data(self.m0, self.poles, self.mults)
        res = tuple(complex(c) for c in self.residues)
        if len(res) != len(poles):
            raise InvalidParameter("poles and residues must have equal length")
        if not np.all(np.isfinite((complex(self.a),) + res)):
            raise InvalidParameter("a and the residues must be finite")
        if m0 >= 1 and abs(self.a) < _ZERO_TOL:
            raise ConstraintViolation("a must be nonzero when m0 >= 1")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "residues", res)
        object.__setattr__(self, "a", complex(self.a))

    @property
    def r(self) -> int:
        return len(self.poles)

    @property
    def N(self) -> int:
        return self.m0 + sum(self.mults)

    @property
    def predicted_eig(self) -> float:
        """Ladder base eigenvalue m0 - sigma (|a|^2 + sum_j a conj(c_j)):
        nu_u (focusing) or lambda_u (defocusing).  The residue conditions
        make the sum real; an imaginary part above 1e-8 is a
        ConstraintViolation.
        """
        s = np.sum(self.a * np.conj(np.asarray(self.residues))) if self.r else 0.0
        val = abs(self.a) ** 2 + s
        if abs(np.imag(val)) > 1e-8:
            raise ConstraintViolation(
                f"eigenvalue formula not real (imag {np.imag(val):.3e}); "
                "residue conditions are violated")
        return float(self.m0 - check_sign(self.sign) * np.real(val))


def _checked_pole_data(m0, poles, mults) -> tuple:
    """(m0, poles, mults) as (int, tuple of complex, tuple of int), refused
    unless m0 in [0, K_MAX] and the m_j in [1, K_MAX] are integers and the
    poles, one per m_j, are distinct points of the punctured open disc."""
    m0 = check_int("m0", m0, 0, K_MAX)
    poles = tuple(check_in_disc("pole", p) for p in poles)
    mults = tuple(check_int("multiplicity", m, 1, K_MAX) for m in mults)
    if len(mults) != len(poles):
        raise InvalidParameter("poles and mults must have equal length")
    if 0 in poles:
        raise InvalidParameter("poles must be nonzero (D*)")
    if any(abs(p - q) < 1e-12 for j, p in enumerate(poles) for q in poles[j + 1:]):
        raise InvalidParameter("poles must be pairwise distinct")
    return m0, poles, mults


def gram_matrix(poles) -> NDArray[np.complex128]:
    """Hermitian Gram matrix G_jk = 1/(1 - p_j conj(p_k)) of Cauchy kernels."""
    p = np.asarray(poles, dtype=np.complex128)
    return 1.0 / (1.0 - np.outer(p, np.conj(p)))


def residue_residuals(sign: str, a: complex, residues, poles, mults) -> NDArray[np.complex128]:
    """Per-pole residual of the residue conditions (zero at a solution);
    a sign other than 'focusing' or 'defocusing' raises InvalidParameter."""
    return _residuals(check_sign(sign), a, np.asarray(residues, dtype=np.complex128),
                      gram_matrix(poles), np.asarray(mults, dtype=float))


def _residuals(sigma: float, a: complex, c, G, m) -> NDArray[np.complex128]:
    """``residue_residuals`` for the sign sigma = +1 or -1 and the Gram matrix G."""
    return np.conj(a) * c + c * (G @ np.conj(c)) - sigma * m


def _newton_jacobian(a: complex, c: NDArray[np.complex128],
                     G: NDArray[np.complex128], pin_a: bool) -> NDArray[np.float64]:
    """Real 2r x 2(r+1) Jacobian of the residue map, Wirtinger-assembled.

    With F_j = conj(a) c_j + c_j sum_k conj(c_k) G_jk - sigma m_j and complex
    variables v = (a, c), the holomorphic block is A = dF/dv and the
    anti-holomorphic one B = dF/dconj(v); the real Jacobian acting on
    (Re dv, Im dv) is [[Re(A+B), -Im(A-B)], [Im(A+B), Re(A-B)]].
    """
    r = c.shape[0]
    A = np.zeros((r, r + 1), dtype=np.complex128)
    B = np.zeros((r, r + 1), dtype=np.complex128)
    diag = np.conj(a) + G @ np.conj(c)
    A[:, 1:] = np.diag(diag)
    B[:, 0] = c
    B[:, 1:] = c[:, None] * G
    if pin_a:
        A = A[:, 1:]
        B = B[:, 1:]
    return np.block([
        [np.real(A + B), -np.imag(A - B)],
        [np.imag(A + B), np.real(A - B)],
    ])


def solve_residue_system(sign: str, m0: int, poles, mults, *,
                         pin_a: complex | None = None) -> FiniteGapPotential:
    """Newton-solve the residue conditions for (a, c_1, ..., c_r).

    The system is underdetermined (2r real equations, 2(r+1) unknowns:
    a global phase plus a one-parameter family), so steps are taken as
    minimum-norm least-squares solutions, with halving damping whenever a
    full step fails to reduce the residual, for at most _NEWTON_MAX_ITER
    steps (NewtonDivergence beyond).  The start is the decoupled
    single-pole solution c_j = sqrt(m_j (1 - |p_j|^2)) with a = 0 for
    m0 = 0 and a = 1 otherwise; ``pin_a`` freezes a at the given value
    (removing it from the unknowns).  Raises InfeasibleSign for the
    defocusing system with a pinned to 0: summing the conditions would
    force the positive-definite Gram form sum c_j conj(c_k) G_jk to equal
    -sum m_j < 0.  The pole data (as for ``FiniteGapPotential``) and the
    finiteness of ``pin_a`` are checked on entry, before any linear algebra.
    """
    sigma = check_sign(sign)
    m0, poles, mults = _checked_pole_data(m0, poles, mults)
    r = len(poles)
    if pin_a is not None and not np.isfinite(complex(pin_a)):
        raise InvalidParameter(f"pin_a = {pin_a} is not finite")
    if r == 0:
        # Plane-wave branch: nothing to solve, the amplitude is free.
        amp = pin_a if pin_a is not None else 1.0
        return FiniteGapPotential(sign=sign, m0=m0, poles=(), mults=(),
                                  a=amp, residues=())
    if pin_a is not None and abs(pin_a) < _ZERO_TOL:
        if sign == "defocusing":
            raise InfeasibleSign(
                "defocusing residue conditions with a = 0 are impossible: "
                "the Gram form sum_jk c_j conj(c_k)/(1 - p_j conj(p_k)) is "
                "nonnegative and would have to equal -sum m_j < 0")
        if m0 >= 1:
            raise ConstraintViolation("a must be nonzero when m0 >= 1")

    c = np.array([np.sqrt(m * (1.0 - abs(p) ** 2))
                  for p, m in zip(poles, mults)], dtype=np.complex128)
    a = 0.0 + 0.0j if m0 == 0 else 1.0 + 0.0j
    if pin_a is not None:
        a = complex(pin_a)
    pinned = pin_a is not None

    G = gram_matrix(poles)
    m = np.asarray(mults, dtype=float)
    F = _residuals(sigma, a, c, G, m)
    res = float(np.linalg.norm(F))
    for _ in range(_NEWTON_MAX_ITER):
        if res < _NEWTON_TOL:
            break
        J = _newton_jacobian(a, c, G, pinned)
        rhs = -np.concatenate([np.real(F), np.imag(F)])
        step, *_ = np.linalg.lstsq(J, rhs, rcond=None)
        n_var = r if pinned else r + 1
        dz = step[:n_var] + 1j * step[n_var:]
        t = 1.0
        for _halving in range(40):
            a_try = a if pinned else a + t * dz[0]
            c_try = c + t * (dz if pinned else dz[1:])
            F_try = _residuals(sigma, a_try, c_try, G, m)
            res_try = float(np.linalg.norm(F_try))
            if res_try < res:
                a, c, F, res = a_try, c_try, F_try, res_try
                break
            t *= 0.5
        else:
            raise NewtonDivergence(
                f"line search stalled at residual {res:.3e}")
    else:
        raise NewtonDivergence(
            f"no convergence after {_NEWTON_MAX_ITER} iterations; residual {res:.3e}")
    if np.any(np.abs(c) < _ZERO_TOL):
        raise ConstraintViolation(
            "a residue coefficient collapsed to 0: the conditions would "
            "read 0 = m_j for that pole")
    return FiniteGapPotential(sign=sign, m0=m0, poles=poles, mults=mults,
                              a=a, residues=tuple(c))


def potential_coeffs(fg: FiniteGapPotential, K: int) -> HardyCoeffs:
    """First K Fourier coefficients of the rational potential.

    ``hardy._disc_series`` samples (a + sum_j c_j/(1 - p_j z)) prod_j
    B_j^{m_j - 1} (r = max|p_j|) and shifts it by m0.  A cut that drops over
    1e-12 of the energy warns TruncationOverflow; over 1e-8 it raises
    NumericalAliasing (poles too near the circle, or m0 too large, for K).
    """
    K = check_K(K)
    inner = BlaschkeProduct(zeros=tuple(np.conj(p) for p, m in zip(fg.poles, fg.mults)
                                        for _ in range(m - 1)))

    def profile(z):
        terms = (c / (1.0 - p * z) for p, c in zip(fg.poles, fg.residues))
        return sum(terms, np.full(z.shape, fg.a)) * blaschke_eval(inner, z)

    r = max((abs(p) for p in fg.poles), default=0.0)
    c, tail = _disc_series(profile, r, K, fg.m0)
    if tail > 1e-8:
        raise NumericalAliasing(f"tail energy {tail:.3e} beyond mode {K - 1}; increase K")
    if tail > 1e-12:
        warnings.warn(f"tail energy {tail:.3e} beyond mode {K - 1}", TruncationOverflow,
                      stacklevel=2)
    return HardyCoeffs(c)


def predicted_l2(fg: FiniteGapPotential) -> float:
    """Squared L2 norm sigma (N - eig): N - nu_u, resp. lambda_u - N."""
    sigma = check_sign(fg.sign)
    return float(sigma * fg.N - sigma * fg.predicted_eig)


def ladder_blaschke(fg: FiniteGapPotential) -> BlaschkeProduct:
    """The Blaschke product psi_u = z^{m0} prod_j ((z - conj(p_j))/(1 - p_j z))^{m_j}."""
    return BlaschkeProduct(zeros=tuple(np.conj(p) for p, m in zip(fg.poles, fg.mults)
                                       for _ in range(m)), power=fg.m0)


def blaschke_eigen_check(dec: SpectralDecomposition, psi: BlaschkeProduct,
                         kmax: int):
    """Residuals of the ladder relation L_u S^k psi = (nu + k) S^k psi.

    L_u is ``dec.matrix``, the Lax matrix the decomposition was made from.
    nu is estimated once by the Rayleigh quotient <L psi | psi>; the
    residual norms of all rungs, on the truncation-reliable rows [0, K - K/4),
    are returned for k = 0..kmax together with nu.  A power >= K leaves no
    coefficient below K and raises InvalidParameter.
    """
    K = dec.K
    kmax = check_int("kmax (at most K/8)", kmax, 0, K // 8)
    if psi.power >= K:
        raise InvalidParameter(f"power {psi.power} leaves psi no coefficient below K = {K}")
    v = blaschke_to_coeffs(psi, K).coeffs
    v = v / np.linalg.norm(v)
    nu = float(np.real(np.vdot(v, dec.matrix @ v)))
    rungs = _shifted_columns(v, kmax + 1, backward=False)  # column k is S^k psi
    return nu, _rung_residuals(dec.matrix, rungs, nu + np.arange(kmax + 1))


def _rung_residuals(L, rungs, expected) -> NDArray[np.float64]:
    """||L r_k - expected[k] r_k|| for each column r_k of ``rungs``, on the
    truncation-reliable rows [0, K - K/4), in one matrix product."""
    rows = _identity_rows(L.shape[0])
    return np.linalg.norm(L[:rows] @ rungs - expected * rungs[:rows], axis=0)


@dataclass(frozen=True)
class ClassifyResult:
    """Outcome of the finite-gap test: rank m and ladder degree estimate.

    The ladder walk's member count (seed included) and deepest vector are
    kept for ``inversion_data``; the base takes no part in equality.
    """

    is_finite_gap: bool
    m: int
    N_estimate: int
    ladder_members: int
    ladder_base: NDArray[np.complex128] = field(compare=False, repr=False)


def _ladder_walk(dec: SpectralDecomposition):
    """Walk the shift ladder downward from a high reliable eigenvector.

    Starting from the eigenvector w at sorted index n_seed (top of the
    identity-reliable range), the k-th rung is (S*)^k w normalized.  On the
    ladder, S* S^k psi = S^{k-1} psi stays a unit eigenvector with
    eigenvalue dropping by exactly 1; the walk breaks at the ladder base
    psi, either by norm drop (S* psi loses |psi_hat(0)|^2 when m0 = 0) or
    by eigen-residual blow-up (L S* psi picks up the <psi|u> S* u term).

    All rungs are tested at once.  ||(S*)^k w|| is the tail norm t_k of w,
    from one reversed cumulative sum of |w|^2, so the step norm
    ||S* w_{k-1}|| is t_k / t_{k-1}: the candidates stop before the first
    step whose norm drops below 1 - 1e-6, and one matrix product gives the
    eigen-residuals of all of them (seed included).  Returns
    (n_seed, members, base) with ``members`` the number of ladder vectors
    found (seed included) and ``base`` the deepest accepted vector.
    """
    K = dec.K
    n_seed = min(dec.reliable, _identity_rows(K)) - 1
    if n_seed < 1:
        raise Inconclusive("truncation too small to seed a ladder walk")
    w = dec.vectors[:, n_seed]
    tail = np.sqrt(np.cumsum(np.abs(w[::-1]) ** 2)[::-1])
    # step k keeps its norm when t_k >= (1 - tol) t_{k-1}, for k <= n_seed + 1
    dropped = np.nonzero(tail[1:n_seed + 2] < (1.0 - _NORM_DROP_TOL) * tail[:n_seed + 1])[0]
    n_cand = 1 + (int(dropped[0]) if dropped.size else n_seed + 1)
    cand = _shifted_columns(w, n_cand, backward=True) / tail[:n_cand]
    expected = float(dec.eigenvalues[n_seed]) - np.arange(n_cand)
    resid = _rung_residuals(dec.matrix, cand, expected)
    if resid[0] > _WALK_TOL:
        raise Inconclusive(
            f"seed eigenvector residual {resid[0]:.3e} exceeds walk tolerance")
    broken = np.nonzero(resid[1:] > _WALK_TOL)[0]
    members = 1 + (int(broken[0]) if broken.size else n_cand - 1)
    return n_seed, members, cand[:, members - 1].copy()


def classify(dec: SpectralDecomposition, u: HardyCoeffs) -> ClassifyResult:
    """Decide whether u is finite gap; report the rank m and degree N.

    m is the least index with nu_n = nu_{n-1} + 1 for all n >= m over the
    reliable range (gaps compared to 1 within 1e-7); raises Inconclusive
    when off-by-one gaps persist into the edge of the reliable range.  The
    degree N_estimate counts the eigenvectors below the ladder seed that do
    not belong to the shift ladder (the dimension of the model space), and
    the walk's break vector is accepted as a Blaschke candidate only if it
    is unimodular on the circle within 1e-4.

    The verdict is resolution-limited: a potential whose trailing gaps
    close within 1e-7 at this truncation is indistinguishable from the
    finite-gap potential of the detected degree, and is reported as such.
    Generic data betrays itself through decay instead — slowly decaying
    coefficients leave unresolved gaps at the reliability edge, which is
    the Inconclusive path, not a clean "false".  u must be dec's own.
    """
    check_same_K(u, dec)
    ev = dec.eigenvalues[:dec.reliable]
    gaps = ev[1:] - ev[:-1] - 1.0
    bad = np.nonzero(np.abs(gaps) > _GAP_TOL)[0]
    edge = max(2, gaps.shape[0] // 16)
    if bad.size and bad[-1] >= gaps.shape[0] - edge:
        raise Inconclusive(
            f"gap {gaps[bad[-1]]:.3e} at index {bad[-1] + 1} persists to the "
            "reliability edge; increase K")
    m = int(bad[-1]) + 2 if bad.size else 1

    n_seed, members, base = _ladder_walk(dec)
    n_estimate = (n_seed + 1) - members

    grid = grid_transform(HardyCoeffs(base), 4 * dec.K)
    unimod_dev = float(np.max(np.abs(np.abs(grid) - 1.0)))
    is_fg = unimod_dev < _UNIMODULAR_TOL
    return ClassifyResult(is_finite_gap=is_fg, m=m, N_estimate=n_estimate,
                          ladder_members=members, ladder_base=base)


@dataclass(frozen=True)
class InversionData:
    """Spectral inversion data u(z) = <(Id - zM)^{-1} X | Y>.

    X_n = <u|f_n>, Y_n = <1|f_n> and M_np = <f_p|S f_n> in the full
    eigenbasis (any orthonormal basis reproduces u; completeness gives
    ||X|| = ||u|| and ||Y|| = 1 exactly at truncation).  There M is
    unitarily similar to S* on C^K, hence nilpotent, and the resolvent
    series terminates: ``moments[k] = <M^k X | Y>`` (= u_hat(k)) are the
    coefficients of u(z) as a polynomial of degree < K.  The nilpotency is
    measured, not assumed: ``inversion_data`` raises BasisDrift when
    ||M^K X|| exceeds 1e-10 max(1, ||X||).  When the potential classifies
    as finite gap of degree N, the ladder-adapted (N+1) x (N+1) reduction
    is attached: in the basis (model space sorted by eigenvalue, then
    psi_u), the solution xi of (Id - zM) xi = X vanishes from slot N+1 on,
    so the leading block reproduces u exactly.  Otherwise
    ``unreduced_reason`` says why the reduction was not built.
    """

    X: NDArray[np.complex128]
    Y: NDArray[np.complex128]
    M: NDArray[np.complex128]
    moments: NDArray[np.complex128]
    reduced_dim: int | None = None
    X_red: NDArray[np.complex128] | None = None
    Y_red: NDArray[np.complex128] | None = None
    M_red: NDArray[np.complex128] | None = None
    unreduced_reason: str | None = None


def _moments(X, Y, M):
    """(moments, leak): the K moments <M^k X | Y>, k < K, by K matvecs, and
    leak = ||M^K X||, zero when the resolvent series terminates; raises nothing."""
    K = X.shape[0]
    moments = np.empty(K, dtype=np.complex128)
    v = X
    for k in range(K):
        moments[k] = np.vdot(Y, v)
        v = M @ v
    return moments, float(np.linalg.norm(v))


def _model_space(B: NDArray[np.complex128], n_model: int):
    """(s, U): singular values of B, descending, and an orthonormal basis U
    of its leading N = n_model left singular vectors, or U = None when the
    rank test finds the extraction ambiguous (s[N-1] < 0.5 or s[N] > 1e-6).

    Both come from eigh of the small Gram matrix B^H B = V diag(s^2) V^H,
    with U = B V[:, :N] / s[:N].  Squaring costs accuracy only at the small
    singular values: eigh's absolute eigenvalue error is a few eps ||B||^2
    (||B|| <= 1 here: V_low has orthonormal columns and the ladder
    projection is a contraction), so s[N] is off by about
    eps ||B||^2 / (2 s[N]), about 1e-10 at the 1e-6 threshold, and by at
    most about sqrt(eps) ||B|| ~ 1e-8 where s[N] is at roundoff level:
    two orders below the threshold either way, so the verdict is the
    SVD's.  U divides by s[:N] >= 0.5, so its columns are orthonormal to
    about eps ||B||^2 / s[N-1]^2.
    """
    lam, V = np.linalg.eigh(B.conj().T @ B)
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    if s[n_model - 1] < 0.5 or (s.shape[0] > n_model and s[n_model] > 1e-6):
        return s, None
    return s, (B @ V[:, ::-1][:, :n_model]) / s[:n_model]


def inversion_data(u: HardyCoeffs, dec: SpectralDecomposition) -> InversionData:
    """Assemble X, Y, M and the moments <M^k X | Y> in the eigenbasis, with
    finite-gap reduction if possible.

    The reduction needs the model space (psi_u L^2_+)^perp: the ladder
    vectors from the downward walk are projected out of the low spectral
    window, the remaining rank-N span is orthonormalized from the
    eigendecomposition of its small Gram matrix (``_model_space``) and
    diagonalized by Rayleigh-Ritz, which untangles eigenvalue collisions
    between model space and ladder (they do occur: degenerate eigenvalues
    mix the eigenvectors).  An inconclusive or negative classification, or
    a rank-ambiguous model space, yields data without reduction, with the
    reason in ``unreduced_reason``; the full path is exact regardless.  u
    must be dec's own (``errors.check_same_K``).
    """
    check_same_K(u, dec)
    X, Y, M = _matrices_in_basis(dec.u.coeffs, dec.vectors)
    moments, leak = _moments(X, Y, M)
    bound = _NILPOTENT_TOL * max(1.0, float(np.linalg.norm(X)))
    if not leak <= bound:  # negated, so a NaN leak fails too
        raise BasisDrift(
            f"||M^K X|| = {leak:.3e} exceeds {bound:.3e}: the basis is "
            "not unitary and the resolvent series does not terminate")

    def unreduced(reason: str) -> InversionData:
        return InversionData(X=X, Y=Y, M=M, moments=moments,
                             unreduced_reason=reason)

    try:
        result = classify(dec, dec.u)
    except Inconclusive as exc:
        return unreduced(f"classification inconclusive: {exc}")
    if not result.is_finite_gap:
        return unreduced("ladder base is not unimodular: not finite gap")

    members = result.ladder_members
    n_model = result.N_estimate
    # The ladder span, rebuilt exactly by shifting the base upward.
    W = _shifted_columns(result.ladder_base, members, backward=False)
    if n_model == 0:
        F_red = W[:, :1]
    else:
        V_low = dec.vectors[:, : n_model + members]
        s, model = _model_space(V_low - W @ (W.conj().T @ V_low), n_model)
        if model is None:
            return unreduced(
                f"model-space extraction is rank-ambiguous: singular values "
                f"{s[max(0, n_model - 1):n_model + 1]}")
        Lm = model.conj().T @ dec.matrix @ model
        ritz, rot = np.linalg.eigh((Lm + Lm.conj().T) / 2.0)
        model = model @ rot
        F_red = np.hstack([model, W[:, :1]])
    X_red, Y_red, M_red = _matrices_in_basis(dec.u.coeffs, F_red)
    return InversionData(X=X, Y=Y, M=M, moments=moments,
                         reduced_dim=F_red.shape[1],
                         X_red=X_red, Y_red=Y_red, M_red=M_red)


def reconstruct(data: InversionData, z: complex, *, use_reduced: bool) -> complex:
    """Evaluate u(z) = <(Id - zM)^{-1} X | Y> at a point of the open disc.

    ``use_reduced`` picks the reduced block (InvalidParameter when the data
    has none) over the full basis.  In the full basis the resolvent series
    terminates (M is nilpotent, as ``inversion_data`` checks), so u(z) is
    the sum of ``data.moments[k] z^k``, evaluated by Horner in O(K) with no
    solve.  The reduced block is not nilpotent (its eigenvalues are the
    poles): it is solved, behind a determinant guard, since its determinant
    is an honest degree-N polynomial in z.  A non-finite z is refused
    before any arithmetic.
    """
    z = complex(z)
    if not np.abs(z) < 1.0:  # negated for NaN; abs() of a NaN may raise (errors.py)
        raise InvalidParameter(f"z = {z} is not a point of the open disc")
    if not use_reduced:
        value = 0j
        for c in reversed(data.moments.tolist()):
            value = value * z + c
        return value
    if data.reduced_dim is None:
        raise InvalidParameter("no reduced data available")
    A = np.eye(data.reduced_dim, dtype=np.complex128) - z * data.M_red
    if abs(np.linalg.det(A)) < 1e-14:
        raise SingularSystem(f"Id - zM singular at z = {z}")
    return complex(np.vdot(data.Y_red, np.linalg.solve(A, data.X_red)))
