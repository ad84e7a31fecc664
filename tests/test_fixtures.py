"""Fixture registry: name parsing, closed-form data, seeded draws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cslab import (
    InvalidParameter,
    RATIONAL_FIXTURES,
    WAVE_SPEED_FIXTURES,
    build_lax,
    make_fixture,
    potential_coeffs,
    random_decaying,
    random_pole_config,
    sample_wave,
    spectral_decompose,
    wave_l2,
)
import cslab.fixtures as fixtures


def test_all_rational_fixture_names_parse():
    assert len(RATIONAL_FIXTURES) == 6
    for name in RATIONAL_FIXTURES:
        fx = make_fixture(name)
        assert fx.coeffs(64).K == 64


def test_wave_speed_fixture_table():
    speeds = [c for _, c in WAVE_SPEED_FIXTURES]
    assert speeds == pytest.approx([11.0 / 3.0, -1.0 / 3.0, 0.0])


def test_name_parse_errors():
    for bad in ("wave:defocusing:1:0.5",  # missing beta
                "plane:2",                # missing amplitude
                "modulated:3",            # missing pole
                "nonsense",
                "wave:focusing:x:0.5:1",  # N does not parse
                "plane:1:zz",             # C does not parse
                "appendix1:3"):           # a trailing part
        with pytest.raises(InvalidParameter):
            make_fixture(bad)
    with pytest.raises(InvalidParameter):
        make_fixture("appendix1").coeffs(64.0)  # K is not an integer


def test_pole_override():
    fx = fixtures.appendix1(0.25)
    u = fx.coeffs(32)
    assert u.coeffs[1] / u.coeffs[0] == pytest.approx(0.25, abs=1e-14)


def test_spectrum_heads():
    """The certified leading eigenvalues of the appendix potentials."""
    for name, head in (("appendix1", [-1, 0, 1, 2, 3]),
                       ("appendix2", [-1, 0, 0, 1, 2])):
        fx = make_fixture(name)
        dec = spectral_decompose(build_lax(fx.coeffs(256), fx.sign))
        np.testing.assert_allclose(dec.eigenvalues[:5], head, atol=1e-8)


def test_spectrum_head_matches_eigensolver():
    """A defocusing pole wave with N = 1 has one model eigenvalue
    lambda_0 = (c - N)/2, then the unit ladder from N + ||u||^2."""
    for name in ("wave:defocusing:1:0.5:1", "wave:defocusing:1:0.3:2",
                 "wave:defocusing:1:-0.4:0.7"):
        fx = make_fixture(name)
        w = fx.wave
        head = [(w.c - w.N) / 2.0] + [w.N + wave_l2(w) + k for k in range(4)]
        dec = spectral_decompose(build_lax(fx.coeffs(256), fx.sign))
        np.testing.assert_allclose(dec.eigenvalues[:5], head, atol=1e-8)


def test_fixture_coeffs_agree_with_producing_module():
    """The registry must hand out exactly what waves/finitegap compute."""
    fx = make_fixture("wave:focusing:1:0.5:1")
    np.testing.assert_allclose(fx.coeffs(64).coeffs,
                               sample_wave(fx.wave, 0.0, 64).coeffs, atol=0)
    fx = make_fixture("appendix2")
    np.testing.assert_allclose(fx.coeffs(64).coeffs,
                               potential_coeffs(fx.finite_gap, 64).coeffs,
                               atol=1e-15)


@pytest.mark.parametrize("p", ["0.5", "-0.3", "0.2+0.4j"])
def test_modulated_index_one_is_a_pole_record_without_power(p):
    """m = 1 gives alpha = 0, and z beta/(1 - p z) = (beta/p)/(1 - p z) - beta/p:
    the record has m0 = 0, a = -beta/p and residue beta/p (m0 = 1 with
    a = 0 is refused), and it yields the wave's coefficients."""
    fx = make_fixture(f"modulated:1:{p}")
    fg = fx.finite_gap
    assert (fg.m0, fg.N) == (0, 1)
    assert fg.a == pytest.approx(-fx.wave.beta / complex(p))
    np.testing.assert_allclose(potential_coeffs(fg, 64).coeffs, fx.coeffs(64).coeffs,
                               atol=1e-15)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_random_decaying_respects_envelope(seed):
    u = random_decaying(seed, 64, rho=0.8)
    assert np.all(np.abs(u.coeffs) <= 0.8 ** np.arange(64) + 1e-15)
    again = random_decaying(seed, 64, rho=0.8)
    assert np.array_equal(u.coeffs, again.coeffs)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_random_pole_config_invariants(seed):
    m0, poles, mults = random_pole_config(seed)
    assert m0 in (0, 1)
    assert 1 <= len(poles) <= 3
    assert all(m in (1, 2) for m in mults)
    for p in poles:
        assert 0.25 <= abs(p) <= 0.65
    for i, p in enumerate(poles):
        for q in poles[i + 1:]:
            assert abs(p - q) >= 0.2
