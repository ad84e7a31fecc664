"""Hardy-space coefficient algebra on the unit circle.

Everything downstream works with one-sided Fourier expansions

    u(x) = sum_{n >= 0} u_hat(n) e^{inx},

stored as dense complex128 vectors ``(u_hat(0), ..., u_hat(K-1))`` of a
fixed truncation length K.  A function with that expansion is the boundary
trace of the analytic function u(z) = sum u_hat(n) z^n on the unit disc.

This module supplies the basic vocabulary: the Szego projection from
two-sided expansions, the shift S (multiplication by e^{ix}) and its
adjoint S*, the L2 pairing <u|v> = sum u_hat(n) conj(v_hat(n)), truncated
Toeplitz matrix blocks, grid synthesis/analysis, Blaschke products, the
projected modulus Pi(|u|^2), and the flow's nonlinearity (D Pi(|u|^2)) u.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import toeplitz as _sp_toeplitz

from .errors import (
    AliasWarning,
    DimensionMismatch,
    InvalidParameter,
    PoleOnCircle,
    TruncationOverflow,
)

import warnings

__all__ = [
    "HardyCoeffs",
    "FullCoeffs",
    "BlaschkeProduct",
    "szego_project",
    "apply_shift",
    "inner_product",
    "toeplitz_block",
    "analytic_toeplitz_block",
    "grid_transform",
    "blaschke_to_coeffs",
    "blaschke_eval",
    "nonlinearity",
    "derivative",
    "translate",
    "zero_pad",
]

_SHIFT_DROP_TOL = 1e-10
_ALIAS_REL_TOL = 1e-8


@dataclass(frozen=True)
class HardyCoeffs:
    """One-sided coefficient vector (u_hat(0), ..., u_hat(K-1))."""

    coeffs: NDArray[np.complex128]

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatch("HardyCoeffs requires a non-empty 1-d vector")
        if not np.isfinite(arr).all():
            raise InvalidParameter("HardyCoeffs entries must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def K(self) -> int:
        return self.coeffs.shape[0]

    def norm(self) -> float:
        """L2 norm, sqrt(sum |u_hat(n)|^2)."""
        return float(np.linalg.norm(self.coeffs))

    def to_json(self) -> str:
        """Serialize as a JSON array of [re, im] pairs (index = frequency)."""
        return json.dumps([[float(c.real), float(c.imag)] for c in self.coeffs])

    @classmethod
    def from_json(cls, text: str) -> "HardyCoeffs":
        """Inverse of to_json; raises ValueError on text of any other shape."""
        try:
            vals = [complex(re, im) for re, im in json.loads(text)]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"expected a JSON array of [re, im] pairs ({exc})") from None
        if not vals:
            raise ValueError("expected a non-empty JSON array of [re, im] pairs")
        return cls(np.array(vals, dtype=np.complex128))


@dataclass(frozen=True)
class FullCoeffs:
    """Two-sided coefficient vector indexed -(K-1) ... K-1.

    ``coeffs[kmax + n]`` holds the coefficient at frequency n.
    """

    coeffs: NDArray[np.complex128]

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size % 2 == 0:
            raise DimensionMismatch("FullCoeffs requires an odd-length vector")
        object.__setattr__(self, "coeffs", arr)

    @property
    def kmax(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    def at(self, n: int) -> complex:
        """Coefficient at frequency n (0 outside the stored band)."""
        idx = self.kmax + n
        if idx < 0 or idx >= self.coeffs.shape[0]:
            return 0.0 + 0.0j
        return complex(self.coeffs[idx])


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product  psi(z) = e^{i theta} z^{m0} prod_j (z - w_j)/(1 - conj(w_j) z).

    ``zeros`` lists the disc zeros w_j with multiplicity; all |w_j| < 1 is
    required, otherwise the mirror pole 1/conj(w_j) touches the closed disc.
    """

    zeros: tuple = ()
    power: int = 0
    phase: float = 0.0

    def __post_init__(self) -> None:
        zs = tuple(complex(w) for w in self.zeros)
        for w in zs:
            if abs(w) >= 1.0:
                raise PoleOnCircle(f"Blaschke zero {w} is not inside the open unit disc")
        if self.power < 0:
            raise InvalidParameter("monomial prefactor exponent must be >= 0")
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return self.power + len(self.zeros)


def _as_array(u) -> NDArray[np.complex128]:
    if isinstance(u, HardyCoeffs):
        return u.coeffs
    return np.asarray(u, dtype=np.complex128)


def szego_project(f: FullCoeffs) -> HardyCoeffs:
    """Szego projection: drop the negative-frequency half of a two-sided vector."""
    return HardyCoeffs(f.coeffs[f.kmax:].copy())


def apply_shift(h: HardyCoeffs, direction: str = "forward") -> HardyCoeffs:
    """Apply the shift S (``forward``) or its adjoint S* (``adjoint``).

    Both keep the truncation length K.  The forward shift moves u_hat(n)
    to slot n+1 and drops the top coefficient; a dropped coefficient with
    modulus above 1e-10 raises a TruncationOverflow warning.  The adjoint
    moves u_hat(n+1) down to slot n and zero-fills the top (so S* 1 = 0).
    """
    c = h.coeffs
    out = np.empty_like(c)
    if direction == "forward":
        if abs(c[-1]) > _SHIFT_DROP_TOL:
            warnings.warn(
                f"forward shift dropped coefficient of modulus {abs(c[-1]):.3e}",
                TruncationOverflow,
                stacklevel=2,
            )
        out[0] = 0.0
        out[1:] = c[:-1]
    elif direction == "adjoint":
        out[:-1] = c[1:]
        out[-1] = 0.0
    else:
        raise InvalidParameter(f"unknown shift direction {direction!r}")
    return HardyCoeffs(out)


def inner_product(u: HardyCoeffs, v: HardyCoeffs) -> complex:
    """L2 pairing <u|v> = (1/2pi) int u conj(v) dx = sum u_hat(n) conj(v_hat(n)).

    Linear in the first slot, conjugate-linear in the second.
    """
    if u.K != v.K:
        raise DimensionMismatch(f"inner_product: K mismatch {u.K} != {v.K}")
    # np.vdot conjugates its *first* argument.
    return complex(np.vdot(v.coeffs, u.coeffs))


def toeplitz_block(symbol: FullCoeffs, K: int) -> NDArray[np.complex128]:
    """K x K truncated Toeplitz matrix of the symbol: entry (j, k) = symbol(j - k).

    This is the compression of f -> Pi(symbol * f) to the first K Fourier
    modes.  Note the block of a *product* T_u T_v generally differs from
    the product of blocks; the analytic/anti-analytic pair used by the Lax
    operators is the exception (see lax module).
    """
    if K <= 0:
        raise InvalidParameter("K must be positive")
    col = np.array([symbol.at(j) for j in range(K)])
    row = np.array([symbol.at(-k) for k in range(K)])
    return _sp_toeplitz(col, row)


def analytic_toeplitz_block(u: HardyCoeffs) -> NDArray[np.complex128]:
    """Lower-triangular Toeplitz block T_u for an analytic symbol u."""
    col = u.coeffs
    row = np.zeros(u.K, dtype=np.complex128)
    row[0] = col[0]
    return _sp_toeplitz(col, row)


def grid_transform(h, M: int, direction: str = "to_grid", K: int | None = None):
    """Synthesis on / analysis from the uniform M-point grid x_m = 2 pi m / M.

    ``to_grid`` maps HardyCoeffs to samples u(x_m); ``from_grid`` maps a
    length-M sample vector back to the first K coefficients (default
    K = M).  Analysis of data carrying more than 1e-8 of relative energy
    above mode K-1 emits an AliasWarning.
    """
    if direction == "to_grid":
        c = _as_array(h)
        if M < c.shape[0]:
            raise DimensionMismatch(f"grid size M={M} must be >= K={c.shape[0]}")
        padded = np.zeros(M, dtype=np.complex128)
        padded[: c.shape[0]] = c
        return np.fft.ifft(padded) * M
    if direction == "from_grid":
        vals = np.asarray(h, dtype=np.complex128)
        if vals.ndim != 1 or vals.shape[0] != M:
            raise DimensionMismatch("from_grid expects a length-M sample vector")
        return analyze_grid(vals, M if K is None else K)
    raise InvalidParameter(f"unknown grid_transform direction {direction!r}")


def analyze_grid(values: NDArray[np.complex128], K: int) -> HardyCoeffs:
    """FFT analysis of circle samples, keeping the first K coefficients.

    Emits AliasWarning when the discarded modes carry more than 1e-8 of
    the total energy (the input was not resolved on this grid).
    """
    M = values.shape[0]
    if M < K:
        raise DimensionMismatch(f"analysis grid M={M} shorter than K={K}")
    full = np.fft.fft(values) / M
    total = float(np.sum(np.abs(full) ** 2))
    tail = float(np.sum(np.abs(full[K:]) ** 2))
    if total > 0 and tail > _ALIAS_REL_TOL * total:
        warnings.warn(
            f"from_grid discarded {tail / total:.3e} of the energy above mode {K - 1}",
            AliasWarning,
            stacklevel=2,
        )
    return HardyCoeffs(full[:K].copy())


def blaschke_eval(psi: BlaschkeProduct, z) -> NDArray[np.complex128]:
    """Evaluate the Blaschke product at complex points (vectorized)."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.exp(1j * psi.phase) * z**psi.power
    for w in psi.zeros:
        out = out * (z - w) / (1.0 - np.conj(w) * z)
    return out


def blaschke_to_coeffs(psi: BlaschkeProduct, K: int) -> HardyCoeffs:
    """First K Taylor coefficients of a Blaschke product.

    Sampled on a 4K grid and analyzed by FFT; the fold-back error is
    O(max|w|^{4K-K}) and far below machine precision for |w| <= 0.95.
    """
    if psi.power >= K:
        warnings.warn("Blaschke monomial power exceeds truncation", TruncationOverflow, stacklevel=2)
    M = max(4 * K, 64)
    z = np.exp(2j * np.pi * np.arange(M) / M)
    vals = blaschke_eval(psi, z)
    full = np.fft.fft(vals) / M
    return HardyCoeffs(full[:K].copy())


def _conv_length(K: int) -> int:
    """FFT length for an exact linear convolution of two length-K vectors:
    the next power of two at or above 2K - 1, so nothing wraps around."""
    return 1 << (2 * K - 2).bit_length()


class _ConvWorkspace:
    """Zero-padded FFT buffers of ``nonlinearity`` for (..., K) stacks of one
    shape, made once per integration and reused by every call on it.

    ``pad`` (2, ..., L) takes c and conj(c reversed) in its first K slots;
    the slots after them, up to the convolution length L, are zero and stay
    zero, since only the first K are ever written.  ``spec`` takes the
    transforms of ``pad``, ``prod`` a spectral product and ``conv`` its
    inverse transform.  Results are views of these buffers, so a caller
    consumes one before the next call on the same workspace.
    """

    def __init__(self, shape: tuple) -> None:
        K = shape[-1]
        self.pad = np.zeros((2, *shape[:-1], _conv_length(K)), dtype=np.complex128)
        self.spec = np.empty_like(self.pad)
        self.prod, self.conv = np.empty_like(self.pad[0]), np.empty_like(self.pad[0])
        self.n = np.arange(K)
        self.r_pad = self.pad[1]
        self.c_in, self.r_in = self.pad[0, ..., :K], self.r_pad[..., :K]
        self.fc, self.fr = self.spec
        self.pi = self.conv[..., K - 1:2 * K - 1]
        self.out = self.conv[..., :K]


def _modulus_spectra(c: NDArray[np.complex128], ws: _ConvWorkspace | None = None):
    """(Pi(|u|^2), fft of c): the correlation of c with itself, plus the
    zero-padded spectrum of c that produced it, for each row of a (..., K)
    stack.

    c and conj(c reversed) go through one stacked transform; each row of a
    stacked FFT is bit-identical to the row transformed alone.  Both
    results are views of the workspace ``ws`` (a fresh one by default).
    """
    if ws is None:
        ws = _ConvWorkspace(c.shape)
    ws.c_in[...] = c
    np.conjugate(c[..., ::-1], out=ws.r_in)
    np.fft.fft(ws.pad, out=ws.spec)
    np.multiply(ws.fc, ws.fr, out=ws.prod)
    np.fft.ifft(ws.prod, out=ws.conv)
    return ws.pi, ws.fc


def _nonlinearity(c: NDArray[np.complex128], ws: _ConvWorkspace) -> NDArray[np.complex128]:
    """``nonlinearity`` of c on the buffers of ``ws``; the result is a view
    of them, valid until the next call on ``ws``."""
    pi, fc = _modulus_spectra(c, ws)
    np.multiply(ws.n, pi, out=ws.r_in)
    np.fft.fft(ws.r_pad, out=ws.fr)
    np.multiply(ws.fr, fc, out=ws.prod)
    np.fft.ifft(ws.prod, out=ws.conv)
    return ws.out


def nonlinearity(c: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """(D Pi(|u|^2)) u on a raw coefficient vector, truncated to K.

    D multiplies the coefficients of Pi(|u|^2) by n; the product with u is
    one more exact zero-padded convolution, which reuses the spectrum of c
    taken for Pi(|u|^2) (the same array a fresh transform returns), so the
    whole takes four FFT calls.  A (..., K) stack is taken row by row in
    the same four calls, each row bit-identical to its own 1-d call.  The
    flow's nonlinear term is this times +2i (focusing) or -2i (defocusing).
    The integrators run the same code on one workspace per integration;
    this call makes its own, sized from ``c.shape``.
    """
    return _nonlinearity(c, _ConvWorkspace(c.shape))


def derivative(u: HardyCoeffs) -> HardyCoeffs:
    """d/dx in coefficient space: u_hat(n) -> i n u_hat(n)."""
    n = np.arange(u.K)
    return HardyCoeffs(1j * n * u.coeffs)


def translate(u: HardyCoeffs, a: float) -> HardyCoeffs:
    """Spatial translation u(x - a): u_hat(n) -> u_hat(n) e^{-ina}."""
    n = np.arange(u.K)
    return HardyCoeffs(u.coeffs * np.exp(-1j * n * a))


def zero_pad(u: HardyCoeffs, K: int) -> HardyCoeffs:
    """Extend (or truncate) to length K.  Truncation drops top coefficients silently."""
    if K == u.K:
        return HardyCoeffs(u.coeffs.copy())
    if K < u.K:
        return HardyCoeffs(u.coeffs[:K].copy())
    out = np.zeros(K, dtype=np.complex128)
    out[: u.K] = u.coeffs
    return HardyCoeffs(out)
