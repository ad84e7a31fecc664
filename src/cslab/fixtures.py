"""Named reference potentials with closed-form data, plus seeded random draws.

Two exactly solvable examples anchor most oracle tests:

  appendix1   u = sqrt(1-|p|^2)/(1 - p z), p = 0.5 (focusing).
              Spectrum {-1, 0, 1, 2, ...}: the potential itself is the
              eigenvector at -1, and psi = (z - conj p)/(1 - p z) heads the
              integer ladder.  A 0-gap potential whose f_1 != S f_0.
  appendix2   u = sqrt(2(1-|p|^4)) z/(1 - p^2 z^2), p = 0.6
              (focusing).  Spectrum {-1, 0, 0, 1, 2, ...} with a double
              eigenvalue 0 shared by the constant 1 and the degree-2
              Blaschke ladder head; <u|f_n> = 0 for every n >= 1 even
              though the gap nu_2 - nu_1 - 1 = -1 does not vanish.

The traveling-wave fixtures (pole, modulated, stationary, plane) are
re-exported here as finite-gap records too: the wave constraint
alpha beta + beta^2/(1-|p|^2) = sigma N is literally the residue condition of
the single-pole system, and the modulated wave is the m0 = m case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, check_K
from .finitegap import FiniteGapPotential, ladder_blaschke
from .hardy import BlaschkeProduct, HardyCoeffs
from .waves import WaveParams, make_wave, sample_wave

__all__ = [
    "Fixture",
    "make_fixture",
    "random_decaying",
    "random_pole_config",
    "RATIONAL_FIXTURES",
    "WAVE_SPEED_FIXTURES",
]

#: Fixture names with rational (finite-gap) profiles, used by the identity
#: and inversion acceptance sweeps.
RATIONAL_FIXTURES = (
    "appendix1",
    "appendix2",
    "wave:defocusing:1:0.5:1",
    "wave:focusing:1:0.5:1",
    "stationary:1:0.5",
    "modulated:3:0.5",
)

#: (fixture name, exact speed) pairs for the speed-measurement sweep.
WAVE_SPEED_FIXTURES = (
    ("wave:defocusing:1:0.5:1", 11.0 / 3.0),
    ("wave:focusing:1:0.5:1", -1.0 / 3.0),
    ("stationary:1:0.5", 0.0),
)


@dataclass(frozen=True)
class Fixture:
    """A named potential: its finite-gap record, and a wave's parameters."""

    name: str
    finite_gap: FiniteGapPotential
    wave: WaveParams | None = None

    @property
    def sign(self) -> str:
        return self.finite_gap.sign

    def coeffs(self, K: int) -> HardyCoeffs:
        """Exact Fourier coefficients (closed form, not via grid sampling)."""
        K = check_K(K)
        if self.wave is not None:
            return sample_wave(self.wave, 0.0, K)
        c = np.zeros(K, dtype=np.complex128)
        p = self.finite_gap.poles[0].real
        if self.name == "appendix1":
            amp = np.sqrt(1.0 - abs(p) ** 2)
            c[:] = amp * p ** np.arange(K)
        elif self.name == "appendix2":
            amp = np.sqrt(2.0 * (1.0 - abs(p) ** 4))
            odd = np.arange(1, K, 2)
            c[odd] = amp * p ** (odd - 1)
        else:
            raise InvalidParameter(f"no closed-form coefficients for {self.name}")
        return HardyCoeffs(c)

    def blaschke(self) -> BlaschkeProduct:
        """The Blaschke product that generates the fixture's shift ladder."""
        return ladder_blaschke(self.finite_gap)


_P1, _P2 = 0.5, 0.6  # the poles of appendix1 and appendix2
_C2 = np.sqrt(2.0 * (1.0 - abs(_P2) ** 4)) / (2.0 * _P2)
_APPENDIX = {
    "appendix1": Fixture(
        "appendix1", FiniteGapPotential(sign="focusing", m0=0, poles=(_P1,), mults=(1,),
                                        a=0.0, residues=(np.sqrt(1.0 - abs(_P1) ** 2),))),
    "appendix2": Fixture(
        "appendix2", FiniteGapPotential(sign="focusing", m0=0, poles=(_P2, -_P2),
                                        mults=(1, 1), a=0.0, residues=(_C2, -_C2))),
}


def _wave_to_finite_gap(w: WaveParams) -> FiniteGapPotential:
    """Wave parameters as a residue-system record (same constraint).

    For the pole family at base frequency N the denominator factors as
    1 - p e^{iNx} = prod_j (1 - p_j e^{ix}) over the N-th roots
    p_j = p^{1/N} omega^j, with equal partial-fraction residues beta/N;
    the per-pole residue condition then reads (alpha beta + beta^2 q)/N
    = sigma, i.e. exactly the wave constraint divided by N.
    """
    ph = np.exp(1j * w.theta)
    if w.family == "plane":
        return FiniteGapPotential(sign=w.sign, m0=w.N, poles=(), mults=(),
                                  a=w.beta * ph, residues=())
    if w.family == "modulated" and w.N == 1:
        # alpha = 0: z beta/(1 - p z) = (beta/p)/(1 - p z) - beta/p, so m0 = 0
        return FiniteGapPotential(sign=w.sign, m0=0, poles=(w.p,), mults=(1,),
                                  a=-w.beta * ph / w.p, residues=(w.beta * ph / w.p,))
    if w.family == "modulated":
        return FiniteGapPotential(sign=w.sign, m0=w.N, poles=(w.p,), mults=(1,),
                                  a=w.alpha * ph, residues=(w.beta * ph,))
    N = w.N
    root = abs(w.p) ** (1.0 / N) * np.exp(1j * np.angle(w.p) / N)
    omega = np.exp(2j * np.pi / N)
    poles = tuple(root * omega ** j for j in range(N))
    residues = (w.beta * ph / N,) * N
    return FiniteGapPotential(sign=w.sign, m0=0, poles=poles, mults=(1,) * N,
                              a=w.alpha * ph, residues=residues)


#: The form of each fixture name, by its head, and the types of its fields.
_NAME_FORMS = {
    "appendix1": ("appendix1", ()),
    "appendix2": ("appendix2", ()),
    "wave": ("wave:SIGN:N:P:BETA", (str, int, complex, float)),
    "plane": ("plane:N:C", (int, complex)),
    "modulated": ("modulated:M:P", (int, complex)),
    "stationary": ("stationary:N:P", (int, complex)),
}


def make_fixture(name: str, sign: str | None = None) -> Fixture:
    """Build a fixture from its name.

    The forms are those of ``_NAME_FORMS``; any other name is refused
    (InvalidParameter).  ``sign`` picks the sign of a plane wave (default
    focusing); every other fixture has its own sign, and a ``sign`` that
    contradicts it is refused (InvalidParameter).
    """
    head, *fields = name.split(":")
    if head not in _NAME_FORMS:
        raise InvalidParameter(f"unknown fixture {name!r}")
    form, types = _NAME_FORMS[head]
    try:  # a field that does not parse, or a missing or trailing one
        fields = [kind(text) for kind, text in zip(types, fields, strict=True)]
    except ValueError:
        raise InvalidParameter(f"expected {form}, got {name!r}") from None
    if head == "wave":
        wsign, N, pw, beta = fields
        w = make_wave(wsign, "pole", N=N, p=pw, beta=beta)
    elif head == "plane":
        N, C = fields
        w = make_wave(sign or "focusing", "plane", N=N, C=C)
    elif head not in _APPENDIX:  # modulated (N is the index m) or stationary
        N, pw = fields
        w = make_wave("focusing", head, N=N, p=pw)
    fx = _APPENDIX[head] if head in _APPENDIX else Fixture(name, _wave_to_finite_gap(w), w)
    if sign is not None and sign != fx.sign:
        raise InvalidParameter(f"fixture {name!r} is {fx.sign}, not {sign}")
    return fx


def random_decaying(seed, K: int, rho: float = 0.8) -> HardyCoeffs:
    """Seeded draw with |u_hat(n)| <= rho^n: uniform disc amplitudes times rho^n."""
    K = check_K(K)
    rng = np.random.default_rng(seed)
    radii = np.sqrt(rng.uniform(0.0, 1.0, K))
    angles = rng.uniform(0.0, 2.0 * np.pi, K)
    return HardyCoeffs(radii * np.exp(1j * angles) * rho ** np.arange(K))


def random_pole_config(seed):
    """Seeded pole configuration: r <= 3 distinct poles, |p| in [0.25, 0.65],
    pairwise separation >= 0.2, multiplicities in {1, 2}, m0 in {0, 1}."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    poles: list[complex] = []
    while len(poles) < r:
        cand = rng.uniform(0.25, 0.65) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(cand - q) >= 0.2 for q in poles):
            poles.append(complex(cand))
    mults = tuple(int(m) for m in rng.integers(1, 3, size=r))
    m0 = int(rng.integers(0, 2))
    return m0, tuple(poles), mults
