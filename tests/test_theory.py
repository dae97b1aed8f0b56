"""First-order prediction formulas: values, homogeneity, monotonicity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdetect.theory import (
    delay_rate,
    integrated_risk_prediction,
    ms_delay_prediction,
    msr_delay_prediction,
)


@pytest.mark.parametrize(
    "detector,i,mu,rate",
    [
        ("ms", 0.5, 0.25, 0.75),
        ("msr", 0.5, 0.25, 0.5),  # the msr rule collects no tail credit
        ("ms", 0.0, 0.25, 0.25),  # the prior's tail alone drives ms
        ("msr", 0.0, 0.25, None),
        ("ms", 0.5, math.inf, None),  # a point mass's mu
        ("msr", 0.5, math.inf, 0.5),
        ("ms", None, 0.25, None),  # no information number
        ("msr", None, 0.0, None),
        ("MS", 0.5, 0.25, 0.75),  # the rule name in any case, as configs give it
    ],
)
def test_delay_rate(detector, i, mu, rate):
    assert delay_rate(detector, i, mu) == rate


class TestMsDelay:
    def test_substitution(self):
        assert ms_delay_prediction(10.0, 0.5, 0.0, 1.0) == pytest.approx(20.0)

    def test_mu_equal_info_halves(self):
        i = 0.8
        full = ms_delay_prediction(6.0, i, 0.0, 1.0)
        half = ms_delay_prediction(6.0, i, i, 1.0)
        assert half == pytest.approx(full / 2.0, rel=1e-12)

    def test_unit_case(self):
        assert ms_delay_prediction(1.0, 0.4, 0.6, 2.0) == pytest.approx(1.0)

    def test_zero_information_uses_mu_alone(self):
        assert ms_delay_prediction(3.0, 0.0, 0.5, 2.0) == pytest.approx(36.0)
        with pytest.raises(ValueError):
            ms_delay_prediction(3.0, 0.0, 0.0)


class TestMsrDelay:
    def test_substitution(self):
        assert msr_delay_prediction(10.0, 0.5, 1.0) == pytest.approx(20.0)

    def test_equals_ms_at_zero_mu(self):
        log_a, i, m = math.log(123.0), 0.7, 2.0
        assert msr_delay_prediction(log_a, i, m) == ms_delay_prediction(log_a, i, 0.0, m)

    def test_second_moment_is_square(self):
        log_a, i = math.log(55.0), 0.3
        assert msr_delay_prediction(log_a, i, 2.0) == pytest.approx(
            msr_delay_prediction(log_a, i, 1.0) ** 2, rel=1e-14
        )


class TestIntegratedRisk:
    def test_substitution(self):
        c = math.exp(-10)
        assert integrated_risk_prediction(c, 1.0, 2.0) == pytest.approx(2.0 * c * 10.0)

    def test_order_scaling(self):
        c, d = 1e-3, 1.4
        assert integrated_risk_prediction(c, 2.0, d) == pytest.approx(
            integrated_risk_prediction(c, 1.0, d) * abs(math.log(c)), rel=1e-12
        )

    def test_vanishes_at_unit_cost(self):
        assert integrated_risk_prediction(1 - 1e-12, 1.0, 2.0) == pytest.approx(
            0.0, abs=1e-9
        )


class TestFlatPrior:
    """The mu = 0 delay formula at PFA level alpha, (|log alpha| / I)^m: the
    limit shared by both rules when the prior flattens, which is the MSR
    formula at log A = |log alpha|."""

    def test_substitution(self):
        assert msr_delay_prediction(abs(math.log(math.exp(-10))), 1.0, 1.0) == pytest.approx(10.0)

    def test_matches_ms_with_inverse_alpha_threshold(self):
        alpha, i = 1e-4, 0.6
        # A = 1/alpha differs from (1-alpha)/alpha by log(1-alpha) = O(alpha)
        lhs = msr_delay_prediction(abs(math.log(alpha)), i, 1.0)
        rhs = ms_delay_prediction(math.log((1 - alpha) / alpha), i, 0.0, 1.0)
        assert lhs == pytest.approx(rhs, rel=2 * alpha)

    def test_cube(self):
        alpha, i = 1e-3, 0.9
        assert msr_delay_prediction(abs(math.log(alpha)), i, 3.0) == pytest.approx(
            msr_delay_prediction(abs(math.log(alpha)), i, 1.0) ** 3, rel=1e-14
        )


@settings(max_examples=60, deadline=None)
@given(
    log_a=st.floats(0.1, 40.0),
    i=st.floats(0.01, 10.0),
    mu=st.floats(0.0, 5.0),
    m=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_homogeneity_exact(log_a, i, mu, m):
    assert ms_delay_prediction(log_a, i, mu, m) == ms_delay_prediction(log_a, i, mu, 1.0) ** m
    assert msr_delay_prediction(log_a, i, m) == msr_delay_prediction(log_a, i, 1.0) ** m


@settings(max_examples=60, deadline=None)
@given(
    log_a=st.floats(0.5, 30.0),
    i=st.floats(0.05, 5.0),
    mu=st.floats(0.0, 3.0),
)
def test_monotonicity(log_a, i, mu):
    doubled = log_a + math.log(2.0)
    assert ms_delay_prediction(doubled, i, mu) > ms_delay_prediction(log_a, i, mu)
    assert ms_delay_prediction(log_a, i * 1.5, mu) < ms_delay_prediction(log_a, i, mu)
    assert ms_delay_prediction(log_a, i, mu + 0.5) < ms_delay_prediction(log_a, i, mu)


def test_domain_errors():
    with pytest.raises(ValueError):
        ms_delay_prediction(math.log(0.5), 1.0)
    with pytest.raises(ValueError):
        ms_delay_prediction(math.log(10.0), -1.0)
    with pytest.raises(ValueError):
        msr_delay_prediction(math.log(10.0), 1.0, 0.5)
    with pytest.raises(ValueError):
        integrated_risk_prediction(1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        msr_delay_prediction(abs(math.log(1.0)), 1.0)  # alpha = 1: log A = 0
    with pytest.raises(ValueError):
        msr_delay_prediction(math.log(10.0), 0.0)
