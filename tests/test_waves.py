"""Traveling-wave families: frozen parameter oracles and modal laws.

Closed forms for N = 1, p = 1/2, beta = 1 (worked out from the constraint
alpha*beta + beta^2/(1-|p|^2) = -/+ N and the speed c = -N(1 + 2 alpha/beta)):

  defocusing: alpha = -1 - 4/3 = -7/3,  c = -(1 - 14/3) = 11/3,
              ||u||^2 = alpha^2 + alpha*beta - N = 49/9 - 7/3 - 1 = 19/9
  focusing:   alpha = 1 - 4/3 = -1/3,   c = -1/3,
              ||u||^2 = alpha^2 + alpha*beta + N = 1/9 - 1/3 + 1 = 7/9

The pole family's speed also has the closed form
c = N (1+|p|^2)/(1-|p|^2) +/- 2N^2/beta^2 (+ defocusing, - focusing): 5/3 + 2
= 11/3 and 5/3 - 2 = -1/3 at the values above.

The stationary branch solves c = 0, i.e. alpha = -beta/2, which combined
with the focusing constraint at N = 1, p = 1/2 gives beta^2 = 6/5 and
||u||^2 = 1 - beta^2/4 = 7/10.  The modulated family with index m = 3,
p = 1/2 has beta = 1/sqrt((m-1)/2 + 1/(1-p^2)) = sqrt(3/7), alpha =
beta(m-1)/2 = beta, speed c = m = 3 and ||u||^2 = alpha^2+alpha*beta+1 = 13/7.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cslab import (
    ConstraintViolation,
    FamilyUnavailable,
    InvalidParameter,
    PoleOnCircle,
    TruncationOverflow,
    WaveParams,
    make_wave,
    pde_residual,
    sample_wave,
    solve_wave_constraint,
    validate_wave,
    wave_l2,
)


def _second_speed_form(w):
    """The pole family's speed N (1+|p|^2)/(1-|p|^2) +/- 2N^2/beta^2
    (+ defocusing, - focusing)."""
    ratio = (1.0 + abs(w.p) ** 2) / (1.0 - abs(w.p) ** 2)
    s = 1.0 if w.sign == "defocusing" else -1.0
    return w.N * (ratio + s * 2.0 * w.N / w.beta ** 2)


def test_pole_family_frozen_parameters():
    w = make_wave("defocusing", "pole", N=1, p=0.5, beta=1.0)
    assert w.alpha == pytest.approx(-7.0 / 3.0, abs=1e-14)
    assert w.c == pytest.approx(11.0 / 3.0, abs=1e-13)
    assert _second_speed_form(w) == pytest.approx(11.0 / 3.0, abs=1e-13)
    assert wave_l2(w) == pytest.approx(19.0 / 9.0, abs=1e-14)

    w = make_wave("focusing", "pole", N=1, p=0.5, beta=1.0)
    assert w.alpha == pytest.approx(-1.0 / 3.0, abs=1e-14)
    assert w.c == pytest.approx(-1.0 / 3.0, abs=1e-13)
    assert _second_speed_form(w) == pytest.approx(-1.0 / 3.0, abs=1e-13)
    assert wave_l2(w) == pytest.approx(7.0 / 9.0, abs=1e-14)


def test_stationary_and_modulated_frozen_parameters():
    w = make_wave("focusing", "stationary", N=1, p=0.5)
    assert w.c == pytest.approx(0.0, abs=1e-13)
    assert _second_speed_form(w) == pytest.approx(0.0, abs=1e-13)
    assert w.beta ** 2 == pytest.approx(6.0 / 5.0, abs=1e-14)
    assert w.alpha == pytest.approx(-w.beta / 2.0, abs=1e-14)
    assert wave_l2(w) == pytest.approx(0.7, abs=1e-14)

    m = make_wave("focusing", "modulated", N=3, p=0.5)
    assert m.beta == pytest.approx(np.sqrt(3.0 / 7.0), abs=1e-14)
    assert m.alpha == pytest.approx(m.beta, abs=1e-14)
    assert m.c == pytest.approx(3.0, abs=1e-13)
    assert wave_l2(m) == pytest.approx(13.0 / 7.0, abs=1e-14)


def test_plane_wave_speed_and_norm():
    w = make_wave("defocusing", "plane", N=2, C=0.5 + 0.5j)
    assert w.c == pytest.approx(2.0)
    assert wave_l2(w) == pytest.approx(0.5)
    u = sample_wave(w, 0.0, 8)
    assert u.coeffs[2] == pytest.approx(0.5 + 0.5j)
    assert np.count_nonzero(u.coeffs) == 1


@settings(deadline=None, max_examples=50, derandomize=True)
@given(
    sign=st.sampled_from(["focusing", "defocusing"]),
    N=st.integers(1, 3),
    p=st.floats(0.05, 0.9),
    beta=st.floats(0.2, 4.0),
)
def test_constraint_solution_satisfies_defining_equation(sign, N, p, beta):
    alpha = solve_wave_constraint(sign, N, p, beta)
    target = -N if sign == "defocusing" else N
    lhs = alpha * beta + beta ** 2 / (1.0 - p ** 2)
    assert lhs == pytest.approx(target, abs=1e-10)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(N=st.integers(1, 3), p=st.floats(0.05, 0.85), beta=st.floats(0.3, 3.0))
def test_defocusing_speed_exceeds_base_frequency(N, p, beta):
    """Both closed forms of the speed agree, and it exceeds N."""
    w = make_wave("defocusing", "pole", N=N, p=p, beta=beta)
    assert abs(_second_speed_form(w) - w.c) <= 1e-12 * max(1.0, abs(w.c))
    assert w.c > N


def test_sampled_norm_matches_closed_form():
    for name_args in [("defocusing", "pole", dict(N=1, p=0.5, beta=1.0)),
                      ("focusing", "pole", dict(N=2, p=0.4, beta=0.7)),
                      ("focusing", "modulated", dict(N=3, p=0.5)),
                      ("focusing", "stationary", dict(N=1, p=0.5))]:
        sign, family, kw = name_args
        w = make_wave(sign, family, **kw)
        u = sample_wave(w, 0.0, 96)
        assert u.norm() ** 2 == pytest.approx(wave_l2(w), abs=1e-13), family


def test_modal_traveling_law():
    """u_hat(n, t) = u_hat(n, 0) exp(-i n c t) for every family."""
    for w in [make_wave("defocusing", "pole", N=1, p=0.5, beta=1.0),
              make_wave("focusing", "modulated", N=3, p=0.3),
              make_wave("focusing", "plane", N=2, C=1.0)]:
        c = w.c
        u0 = sample_wave(w, 0.0, 64).coeffs
        ut = sample_wave(w, 0.37, 64).coeffs
        n = np.arange(64)
        np.testing.assert_allclose(ut, u0 * np.exp(-1j * n * c * 0.37),
                                   atol=1e-14)


def test_pde_residual_accepts_solutions_and_rejects_wrong_sign():
    w = make_wave("defocusing", "pole", N=1, p=0.5, beta=1.0)
    assert pde_residual(w, "defocusing", K=128) < 1e-10
    assert pde_residual(w, "focusing", K=128) > 1e-2  # negative control

    m = make_wave("focusing", "modulated", N=3, p=0.5)
    assert pde_residual(m, "focusing", K=128) < 1e-10


def test_family_and_parameter_guards():
    with pytest.raises(FamilyUnavailable):
        make_wave("defocusing", "modulated", N=3, p=0.5)
    with pytest.raises(FamilyUnavailable):
        make_wave("defocusing", "stationary", N=1, p=0.5)
    with pytest.raises(PoleOnCircle):
        make_wave("focusing", "pole", N=1, p=1.0, beta=1.0)
    with pytest.raises(InvalidParameter):
        make_wave("focusing", "pole", N=1, p=0.0, beta=1.0)
    with pytest.raises(InvalidParameter):
        make_wave("focusing", "pole", N=1, p=0.5, beta=None)
    with pytest.raises(InvalidParameter):
        make_wave("focusing", "plane", N=1, C=None)
    with pytest.raises(InvalidParameter):
        make_wave("focusing", "banana", N=1, p=0.5)
    for N in (1.5, True):  # not an integer
        with pytest.raises(InvalidParameter):
            make_wave("focusing", "pole", N=N, p=0.5, beta=1.0)
    # a NaN amplitude (with errno left at ERANGE, under which CPython's abs()
    # of a complex NaN raises), and one whose |C|^2 overflows
    for C in (complex(1.0, float("nan")), 1e308):
        with pytest.raises(InvalidParameter):
            float("1e400")
            make_wave("focusing", "plane", N=1, C=C)
    with pytest.raises(InvalidParameter):
        sample_wave(make_wave("focusing", "pole", N=1, p=0.5, beta=1.0), 0.0, 64.5)


def test_validate_wave_rejects_tampering():
    """WaveParams is checked when made, directly or by dataclasses.replace,
    with validate_wave's exceptions."""
    w = make_wave("defocusing", "pole", N=1, p=0.5, beta=1.0)
    with pytest.raises(ConstraintViolation):
        WaveParams(sign=w.sign, family=w.family, N=w.N, p=w.p,
                   alpha=w.alpha + 0.01, beta=w.beta, theta=w.theta, c=w.c)
    with pytest.raises(ConstraintViolation):
        dataclasses.replace(w, alpha=w.alpha + 0.01)
    with pytest.raises(InvalidParameter):
        WaveParams(sign="focusing", family="plane", N=1,
                   p=0.3, alpha=0.0, beta=0.0, theta=0.0, c=1.0)
    # a focusing-only family under the defocusing sign: its constraint and
    # L2 norm used to read as the focusing ones
    for family in ("modulated", "stationary"):
        with pytest.raises(FamilyUnavailable):
            dataclasses.replace(make_wave("focusing", family, N=3, p=0.5),
                                sign="defocusing")
    # huge or tiny beta: beta^2 overflows, or the residuals read inf - inf
    for p, beta in [(0.5, 1e300), (0.5, 1e200), (0.999999, 1e153), (0.5, 1e-300)]:
        with pytest.raises(ConstraintViolation):
            make_wave("defocusing", "pole", N=1, p=p, beta=beta)


def test_branch_flips_beta_sign():
    # Only the modulated family has a free sign; the stationary
    # constructor pins alpha to the positive root by definition.
    w_plus = make_wave("focusing", "modulated", N=3, p=0.5, branch=1)
    w_minus = make_wave("focusing", "modulated", N=3, p=0.5, branch=-1)
    assert w_plus.beta > 0
    assert w_plus.beta == pytest.approx(-w_minus.beta)
    assert w_plus.alpha == pytest.approx(-w_minus.alpha)
    validate_wave(w_plus), validate_wave(w_minus)


def test_truncation_warning_for_slow_tails():
    w = make_wave("focusing", "pole", N=1, p=0.9, beta=1.0)
    with pytest.warns(TruncationOverflow):
        sample_wave(w, 0.0, 8)
