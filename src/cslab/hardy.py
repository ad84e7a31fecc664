"""Hardy-space coefficient algebra on the unit circle.

Everything downstream works with one-sided Fourier expansions

    u(x) = sum_{n >= 0} u_hat(n) e^{inx},

stored as dense complex128 vectors ``(u_hat(0), ..., u_hat(K-1))`` of a
fixed truncation length K.  A function with that expansion is the boundary
trace of the analytic function u(z) = sum u_hat(n) z^n on the unit disc.

This module supplies the basic vocabulary: the shift S and its adjoint
S*, grid synthesis, Blaschke products, the projected modulus Pi(|u|^2),
and the flow's nonlinearity (D Pi(|u|^2)) u.  ``_disc_series`` samples
every closed form on the disc, Blaschke products and the potentials of
``finitegap``.  S and S* act by slicing, never as dense operators or copies:
(S f)[i] = f[i-1] and (S* f)[i] = f[i+1], so <S f | g> = <f[:-1] | g[1:]>.
``_shifted_columns``, the one shift helper, stacks S^k w or (S*)^k w.  No
Toeplitz block T_u is formed: ``lax.build_lax`` assembles T_u T_ubar from
its displacement equation, entry by entry from u.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import numpy.fft._pocketfft_umath as _pocketfft
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NumericalAliasing,
    TruncationOverflow,
)
from .errors import K_MAX, check_in_disc, check_int, check_K

import warnings

__all__ = [
    "HardyCoeffs",
    "BlaschkeProduct",
    "grid_transform",
    "blaschke_to_coeffs",
    "blaschke_eval",
    "zero_pad",
]


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
        """Inverse of to_json; raises ValueError on text of any other shape or
        beyond the double range, and InvalidParameter on over K_MAX pairs."""
        try:
            vals = [complex(re, im) for re, im in json.loads(text)]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"expected a JSON array of [re, im] pairs ({exc})") from None
        if not vals:
            raise ValueError("expected a non-empty JSON array of [re, im] pairs")
        check_K(len(vals))
        return cls(np.array(vals, dtype=np.complex128))


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product  psi(z) = z^{m0} prod_j (z - w_j)/(1 - conj(w_j) z).

    ``zeros`` lists the disc zeros w_j with multiplicity; all |w_j| < 1 is
    required, otherwise the mirror pole 1/conj(w_j) touches the closed disc.
    A zero at 0 is the factor z: it moves from ``zeros`` into ``power``,
    and the total power must lie in [0, K_MAX].
    """

    zeros: tuple = ()
    power: int = 0

    def __post_init__(self) -> None:
        zeros = tuple(check_in_disc("Blaschke zero", w) for w in self.zeros)
        power = check_int("power", self.power, 0, K_MAX) + sum(w == 0 for w in zeros)
        object.__setattr__(self, "zeros", tuple(w for w in zeros if w != 0))
        object.__setattr__(self, "power", check_int("power with the zeros at 0", power,
                                                    0, K_MAX))


def _shifted_columns(w: NDArray[np.complex128], n: int,
                     backward: bool) -> NDArray[np.complex128]:
    """K x n matrix whose column k is (S*)^k w (``backward``) or S^k w.

    The entries are exact copies of entries of w, or zeros: row i is a
    length-n window of w padded with n - 1 zeros, at i (entry k is
    w[i + k], 0 past the end), or for S^k of w reversed and padded, at
    K-1-i (entry k is w[i - k], 0 for k > i).  One strided view and one
    C-contiguous copy.
    """
    pad = np.zeros(n - 1, dtype=w.dtype)
    if backward:
        return sliding_window_view(np.concatenate([w, pad]), n).copy()
    return sliding_window_view(np.concatenate([w[::-1], pad]), n)[::-1].copy()


def grid_transform(u: HardyCoeffs, M: int) -> NDArray[np.complex128]:
    """Synthesis on the uniform M-point grid x_m = 2 pi m / M: the samples
    u(x_m) of a function with K <= M modes."""
    M = check_int("grid size M", M, 1, math.inf)
    c = u.coeffs
    if M < c.shape[0]:
        raise DimensionMismatch(f"grid size M={M} must be >= K={c.shape[0]}")
    padded = np.zeros(M, dtype=np.complex128)
    padded[: c.shape[0]] = c
    return np.fft.ifft(padded) * M


def blaschke_eval(psi: BlaschkeProduct, z) -> NDArray[np.complex128]:
    """Evaluate the Blaschke product at complex points (vectorized)."""
    z = np.asarray(z, dtype=np.complex128)
    out = z**psi.power
    for w in psi.zeros:
        out = out * (z - w) / (1.0 - np.conj(w) * z)
    return out


def _disc_series(f, r: float, K: int, power: int):
    """(c, tail): the first K Taylor coefficients of z^power f(z), and the
    share of its energy past mode K - 1 (0 for f = 0).

    f, analytic for |z| < 1/r, is sampled on M points of the circle; the
    FFT folds its coefficients k + M, k + 2M, ... onto k, so M doubles from
    max(4K, 64) until r^{M-K} <= 1e-17 (NumericalAliasing past 2^20 points).
    z^power shifts the coefficients and is never sampled.
    """
    M = max(4 * K, 64)
    while r ** (M - K) > 1e-17:
        M *= 2
        if M > 1 << 20:
            raise NumericalAliasing(f"a zero or pole of modulus {r} needs over 2^20 points")
    full = np.fft.fft(f(np.exp(2j * np.pi * np.arange(M) / M))) / M
    kept = max(K - power, 0)
    c = np.zeros(K, dtype=np.complex128)
    c[K - kept:] = full[:kept]
    total = float(np.sum(np.abs(full) ** 2))
    return c, (float(np.sum(np.abs(full[kept:]) ** 2)) / total if total > 0 else 0.0)


def blaschke_to_coeffs(psi: BlaschkeProduct, K: int) -> HardyCoeffs:
    """First K Taylor coefficients of a Blaschke product, by ``_disc_series``
    with r = max|w|; a cut that drops over 1e-12 of the energy, such as
    power >= K, warns TruncationOverflow."""
    K = check_K(K)
    r = max((abs(w) for w in psi.zeros), default=0.0)
    c, tail = _disc_series(lambda z: blaschke_eval(BlaschkeProduct(zeros=psi.zeros), z),
                           r, K, psi.power)
    if tail > 1e-12:
        warnings.warn(f"tail energy {tail:.3e} beyond mode {K - 1}", TruncationOverflow,
                      stacklevel=2)
    return HardyCoeffs(c)


def _conv_length(K: int) -> int:
    """FFT length for an exact linear convolution of two length-K vectors:
    the next power of two at or above 2K - 1, so nothing wraps around."""
    return 1 << (2 * K - 2).bit_length()


def _fft(a: NDArray[np.complex128], out: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """``np.fft.fft(a, out=out)`` along the last axis, bit for bit, without
    numpy's Python wrapper: the pocketfft kernel with the factor 1 that
    ``norm=None`` passes.  a and out are complex128 arrays of one shape."""
    return _pocketfft.fft(a, 1.0, out=out)


def _ifft(a: NDArray[np.complex128], out: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """``np.fft.ifft(a, out=out)`` along the last axis, bit for bit: the
    kernel with the factor 1/L that ``norm=None`` passes (the correctly
    rounded reciprocal, as ``np.reciprocal(np.float64(L))``)."""
    return _pocketfft.ifft(a, 1.0 / a.shape[-1], out=out)


class _FFTWorkspace:
    """Zero-padded FFT buffers for ``n_operands`` Toeplitz convolutions of
    (..., K) stacks of one shape, made once per integration and reused.

    ``pad``, ``spec``, ``prod`` and ``conv`` are (n_operands, ..., L).
    Operands go into ``slots``, the first K entries of ``pad``; the slots
    after them, up to the convolution length L, are zero and stay zero,
    since nothing else is ever written.  Two views of ``conv`` read a
    Toeplitz product off a convolution: ``heads`` (the first K entries) is
    T_k x for x convolved with k, and ``tails`` (entries K-1 to 2K-2) is
    T_{conj k} x for x convolved with conj(k reversed).  ``operands[i]``
    holds row i of each of these seven arrays.  Results are views of the
    buffers, so a caller consumes one before the next call on the same
    workspace.
    """

    def __init__(self, n_operands: int, shape: tuple) -> None:
        K = shape[-1]
        self.pad = np.zeros((n_operands, *shape[:-1], _conv_length(K)), dtype=np.complex128)
        self.spec, self.prod, self.conv = (np.empty_like(self.pad) for _ in range(3))
        self.n = np.arange(K)
        self.slots = self.pad[..., :K]
        self.heads = self.conv[..., :K]
        self.tails = self.conv[..., K - 1:2 * K - 1]
        # rows made once: views made per call slow the nonlinearity by ~5%
        names = ("pad", "spec", "prod", "conv", "slots", "heads", "tails")
        self.operands = tuple(SimpleNamespace(**{a: getattr(self, a)[i] for a in names})
                              for i in range(n_operands))


def _modulus_spectra(c: NDArray[np.complex128], ws: _FFTWorkspace):
    """(Pi(|u|^2), fft of c): the correlation of c with itself, plus the
    zero-padded spectrum of c that produced it, for each row of a (..., K)
    stack.

    c and conj(c reversed) go through one stacked transform; each row of a
    stacked FFT is bit-identical to the row transformed alone.  Both
    results are views of the two-operand workspace ``ws``, made for c's
    shape.
    """
    a, b = ws.operands
    a.slots[...] = c
    np.conjugate(c[..., ::-1], out=b.slots)
    _fft(ws.pad, ws.spec)
    np.multiply(a.spec, b.spec, out=a.prod)
    _ifft(a.prod, a.conv)
    return a.tails, a.spec


def _nonlinearity(c: NDArray[np.complex128], ws: _FFTWorkspace) -> NDArray[np.complex128]:
    """``nonlinearity`` of c on the buffers of ``ws``; the result is a view
    of them, valid until the next call on ``ws``."""
    pi, fc = _modulus_spectra(c, ws)
    a, b = ws.operands
    np.multiply(ws.n, pi, out=b.slots)
    _fft(b.pad, b.spec)
    np.multiply(b.spec, fc, out=a.prod)
    _ifft(a.prod, a.conv)
    return a.heads


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
    return _nonlinearity(c, _FFTWorkspace(2, c.shape))


def zero_pad(u: HardyCoeffs, K: int) -> HardyCoeffs:
    """Extend (or truncate) to length K.  Truncation drops top coefficients silently."""
    out = np.zeros(check_K(K), dtype=np.complex128)
    out[:u.K] = u.coeffs[:K]
    return HardyCoeffs(out)
