import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematiclab.coeffs import (
    LeslieCoefficients,
    g_coeff,
    h_coeff,
    sample_validated,
    simplified_coefficients,
    validate,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_simplified_set_validates_with_expected_lambdas():
    c = simplified_coefficients()
    res = validate(c)
    assert res.ok and res.violations == ()
    assert c.lambda1 == 2.0
    assert c.lambda2 == 0.0


def test_simplified_g_and_h_are_constant_exactly():
    c = simplified_coefficients()
    phis = np.linspace(-7.0, 7.0, 501)
    assert np.all(g_coeff(c, phis) == 2.0)
    assert np.all(h_coeff(c, phis) == 1.0)


def test_all_zero_coefficients_fail_naming_both_relations():
    res = validate(LeslieCoefficients(0, 0, 0, 0, 0, 0))
    assert not res.ok
    assert "lambda1 = mu3 - mu2 > 0" in res.violations
    assert "mu4 > 0" in res.violations


def test_negative_mu4_named():
    res = validate(LeslieCoefficients(0, -1, 1, -1, 0, 0))
    assert not res.ok
    assert "mu4 > 0" in res.violations


def test_parodi_violation_named():
    res = validate(LeslieCoefficients(0, -0.75, 0.25, 1, 0, 0.5))
    assert res.violations == ("Parodi: mu2 + mu3 = mu6 - mu5",)


def test_strict_inequalities_fail_on_equality():
    # 2*mu4 + mu5 + mu6 == lambda2^2/lambda1 exactly: 2*1 + 0 + 2 == 4 == 2^2/1
    c = LeslieCoefficients(0.0, -0.5, 0.5, 1.0, 0.0, 2.0)
    assert c.lambda2 == 2.0  # but Parodi fails; isolate the dissipation rule
    res = validate(c)
    assert "2*mu4 + mu5 + mu6 > lambda2^2/lambda1" in res.violations


def test_non_finite_input_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        validate(LeslieCoefficients(0, np.nan, 1, 3, 0, 0))


def test_overflowing_relation_is_a_violation_not_an_error():
    # lambda2^2 overflows a float; validation still names the relation
    res = validate(LeslieCoefficients(0.0, 0.5e200, 1.5e200, 1.0, -1e200, 1e200))
    assert "2*mu4 + mu5 + mu6 > lambda2^2/lambda1" in res.violations


def test_g_examples_generic():
    c = LeslieCoefficients(0.3, -0.7, 0.9, 2.0, 0.1, 1.2)
    assert g_coeff(c, 0.0) == pytest.approx((c.mu3 + c.mu6) / 2 + c.mu4 / 2, abs=1e-14)
    assert g_coeff(c, np.pi / 2) == pytest.approx(
        (c.mu5 - c.mu2) / 2 + c.mu4 / 2, abs=1e-14
    )


def test_h_examples_generic():
    c = LeslieCoefficients(0.3, -0.7, 0.9, 2.0, 0.1, 1.2)
    assert h_coeff(c, 0.0) == pytest.approx(c.mu3, abs=1e-14)
    assert h_coeff(c, np.pi / 4) == pytest.approx(c.lambda1 / 2, abs=1e-14)


@given(seed=st.integers(min_value=0, max_value=10_000), phi=angles)
@settings(max_examples=200, deadline=None)
def test_h_two_forms_agree_for_validated_sets(seed, phi):
    c = sample_validated(np.random.default_rng(seed))
    alt = 0.5 * (c.lambda1 + c.lambda2 * np.cos(2.0 * phi))
    assert abs(h_coeff(c, phi) - alt) <= 1e-12


@given(seed=st.integers(min_value=0, max_value=10_000), phi=angles)
@settings(max_examples=200, deadline=None)
def test_g_is_pi_periodic_and_even(seed, phi):
    c = sample_validated(np.random.default_rng(seed))
    g0 = g_coeff(c, phi)
    assert abs(g_coeff(c, -phi) - g0) <= 1e-12
    assert abs(g_coeff(c, phi + np.pi) - g0) <= 1e-12


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_sampler_always_produces_validated_sets(seed):
    c = sample_validated(np.random.default_rng(seed))
    assert validate(c).ok
    # Parodi pins lambda2 to mu2 + mu3
    assert abs(c.lambda2 - (c.mu2 + c.mu3)) <= 1e-12
