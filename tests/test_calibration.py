"""Threshold calibration: bound formulas, mixture constant, cost equation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdetect.calibration import (
    bayes_threshold,
    d_constant,
    fixed_threshold,
    integrated_cost_proxy,
    ms_threshold,
    msr_threshold,
)
from mixdetect.measures import geometric_prior, grid_from_atoms, heavy_tail_prior


class TestMsThreshold:
    def test_level_five_percent(self):
        spec = ms_threshold(0.05)
        assert spec.threshold == pytest.approx(19.0, rel=1e-14)
        assert spec.log_threshold == pytest.approx(math.log(19.0), abs=1e-14)

    def test_even_odds(self):
        assert ms_threshold(0.5).threshold == pytest.approx(1.0, rel=1e-14)

    def test_alpha_must_leave_room_for_q(self):
        with pytest.raises(ValueError):
            ms_threshold(0.5, q=0.6)
        ms_threshold(0.3, q=0.6)  # fine

    def test_overflowing_threshold_rejected(self):
        # (1 - alpha)/alpha = 1e310 is past the largest float
        with pytest.raises(ValueError, match="log_threshold must be finite, got inf"):
            ms_threshold(1e-310)


class TestMsrThreshold:
    def test_zero_headstart(self):
        spec = msr_threshold(0.01, 0.0, geometric_prior(0.1))
        assert spec.threshold == pytest.approx(900.0, rel=1e-12)

    def test_positive_headstart(self):
        # (omega*b + mean)/alpha = (10*0.9 + 9)/0.01
        spec = msr_threshold(0.01, 10.0, geometric_prior(0.1))
        assert spec.threshold == pytest.approx(1800.0, rel=1e-12)

    def test_infinite_mean_rejected(self):
        with pytest.raises(ValueError):
            msr_threshold(0.01, 0.0, heavy_tail_prior(2.0))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            msr_threshold(0.0, 0.0, geometric_prior(0.1))
        with pytest.raises(ValueError):
            msr_threshold(1.0, 0.0, geometric_prior(0.1))

    @pytest.mark.parametrize("alpha, omega", [(1e-308, 0.0), (0.05, 1e308)])
    def test_overflowing_threshold_rejected(self, alpha, omega):
        # mean 9 over alpha 1e-308, or a head start that overflows omega*b
        with pytest.raises(ValueError, match="log_threshold must be finite, got inf"):
            msr_threshold(alpha, omega, geometric_prior(0.1))


class TestDConstant:
    def grid3(self):
        return grid_from_atoms([[0.5], [1.0]])

    def test_single_atom(self):
        g = grid_from_atoms([[1.0]])
        assert d_constant(g, np.array([0.5]), 0.0, 1.0) == pytest.approx(2.0)

    def test_two_atoms(self):
        g = self.grid3()
        d = d_constant(g, np.array([0.5, 2.0]), 0.0, 1.0)
        assert d == pytest.approx(0.5 * 2.0 + 0.5 * 0.5, rel=1e-14)

    def test_monotone_vanishing_in_mu(self):
        g = self.grid3()
        info = np.array([0.5, 2.0])
        ds = [d_constant(g, info, mu, 1.0) for mu in (0.0, 1.0, 10.0, 1e6)]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert ds[-1] < 1e-5

    def test_nonpositive_info_rejected(self):
        with pytest.raises(ValueError):
            d_constant(self.grid3(), np.array([0.5, 0.0]), 0.0, 1.0)


class TestBayesThreshold:
    def test_closed_form_r1(self):
        spec = bayes_threshold(0.001, 1.0, 2.0)
        assert spec.threshold == pytest.approx(500.0, rel=1e-12)

    def test_r2_residual(self):
        spec = bayes_threshold(1e-4, 2.0, 1.0)
        a = spec.threshold
        assert abs(2.0 * a * math.log(a) - 1e4) / 1e4 < 1e-10

    def test_cost_monotonicity(self):
        a1 = bayes_threshold(0.001, 1.0, 2.0).threshold
        a2 = bayes_threshold(0.002, 1.0, 2.0).threshold
        assert a2 < a1

    def test_rescaled_rhs(self):
        # same equation with the right-hand side scaled by a head-start mass
        base = bayes_threshold(0.001, 1.0, 2.0).threshold
        scaled = bayes_threshold(0.001, 1.0, 2.0, rhs_numerator=3.0).threshold
        assert scaled == pytest.approx(3.0 * base, rel=1e-10)

    def test_no_root_below_e(self):
        with pytest.raises(ValueError):
            bayes_threshold(0.9, 1.0, 2.0)

    def test_local_minimum_of_cost_proxy(self):
        for c, r, d in [(1e-3, 1.0, 2.0), (1e-4, 2.0, 1.3), (1e-5, 1.5, 0.7)]:
            a = bayes_threshold(c, r, d).threshold
            g_at = integrated_cost_proxy(a, c, r, d)
            assert g_at <= integrated_cost_proxy(0.9 * a, c, r, d)
            assert g_at <= integrated_cost_proxy(1.1 * a, c, r, d)


@settings(max_examples=50, deadline=None)
@given(
    log_c=st.floats(-12.0, -2.0),
    d=st.floats(0.05, 20.0),
)
def test_bayes_r1_matches_closed_form(log_c, d):
    c = math.exp(log_c)
    try:
        spec = bayes_threshold(c, 1.0, d)
    except ValueError:
        assert 1.0 / (c * d) <= math.e  # only rejected when the root is below e
        return
    assert spec.threshold == pytest.approx(1.0 / (c * d), rel=1e-12)


def test_fixed_threshold_roundtrip():
    spec = fixed_threshold(2.5)
    assert spec.log_threshold == 2.5
    with pytest.raises(ValueError):
        fixed_threshold(float("inf"))
