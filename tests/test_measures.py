"""Priors: closed-form pmf/tail consistency, tail exponents, mixing grids."""

import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdetect.measures import (
    check_cp2_partial,
    geometric_prior,
    grid_from_atoms,
    heavy_tail_prior,
    log_hurwitz_zeta,
    point_mass_prior,
    uniform_grid,
)


class TestGeometricPrior:
    def test_pmf_at_zero(self):
        p = geometric_prior(0.1, q=0.0)
        assert p.tail(0) == pytest.approx(1.0, abs=1e-15)
        assert np.exp(p.log_pmf(0)) == pytest.approx(0.1, abs=1e-15)

    def test_tail_exponent(self):
        # analytic: mu = -log(1 - rho)
        p = geometric_prior(0.1)
        assert p.mu == pytest.approx(-math.log(0.9), abs=1e-15)
        assert p.mu == pytest.approx(0.105360516, abs=1e-9)

    def test_mean_and_b(self):
        p = geometric_prior(0.1)
        assert p.mean == pytest.approx(9.0, rel=1e-14)
        assert p.b == pytest.approx(0.9, rel=1e-14)

    def test_normalization_with_analytic_remainder(self):
        # q + sum_{k<N} pi_k + Pi(N) must be exactly 1
        for q in (0.0, 0.25):
            p = geometric_prior(0.07, q=q)
            n = 2000
            total = q + np.exp(p.log_pmf(np.arange(n))).sum() + float(p.tail(n))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_empirical_tail_exponent_converges(self):
        p = geometric_prior(0.1, q=0.0)
        n = 10_000
        emp = abs(float(p.log_tail(n))) / n
        assert abs(emp - p.mu) / p.mu < 1e-6

    def test_empirical_tail_exponent_shrinking_bands(self):
        # with q > 0 the rate is exact only in the limit; deviations shrink
        p = geometric_prior(0.1, q=0.2)
        devs = [abs(abs(float(p.log_tail(n))) / n - p.mu) for n in (100, 1000, 10_000)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            geometric_prior(0.0)
        with pytest.raises(ValueError):
            geometric_prior(1.0)
        with pytest.raises(ValueError):
            geometric_prior(0.5, q=1.0)
        with pytest.raises(ValueError):
            geometric_prior(0.5, q=-0.1)


class TestHeavyTailPrior:
    def test_zero_tail_exponent(self):
        assert heavy_tail_prior(2.0).mu == 0.0

    def test_normalized(self):
        p = heavy_tail_prior(2.0)
        assert p.tail(0) == pytest.approx(1.0, abs=1e-14)

    def test_pmf_ratio(self):
        # unnormalized masses (k+2)^-c: pi_0/pi_1 = (3/2)^c
        p = heavy_tail_prior(2.0)
        assert np.exp(p.log_pmf(0)) / np.exp(p.log_pmf(1)) == pytest.approx(2.25, rel=1e-12)

    def test_mean_finite_only_above_two(self):
        assert math.isinf(heavy_tail_prior(2.0).mean)
        p = heavy_tail_prior(3.0)
        k = np.arange(200_000)
        direct = float((k * np.exp(p.log_pmf(k))).sum())
        assert p.mean == pytest.approx(direct, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            heavy_tail_prior(1.0)
        with pytest.raises(ValueError):
            heavy_tail_prior(0.5)

    def test_exponent_whose_normalizer_underflows_rejected(self):
        """zeta(c, 2) is about 2^-c, which is 0 in floats past c = 1074; log 0
        would fail with a bare math domain error."""
        assert heavy_tail_prior(1074.0).log_pmf(0) == 0.0
        for c in (1076.0, 1e6):
            message = f"c_exponent must be below about 1075, where zeta(c, 2) is 0; got {c:g}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                heavy_tail_prior(c)


def test_heavy_tail_prior_unpickles_without_scipy_loaded():
    """Workers receive priors by pickle.  The heavy-tail kernels are plain
    NumPy, so a fresh interpreter that has not loaded scipy computes the same
    bits."""
    prior = heavy_tail_prior(2.5, q=0.1)
    n = np.arange(0, 3000, 7)
    code = (
        "import pickle, sys\n"
        "prior, n = pickle.loads(sys.stdin.buffer.read())\n"
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "sys.stdout.buffer.write(pickle.dumps((prior.log_pmf(n), prior.log_tail(n))))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps((prior, n)),
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    log_pmf, log_tail = pickle.loads(proc.stdout)
    assert log_pmf.tobytes() == prior.log_pmf(n).tobytes()
    assert log_tail.tobytes() == prior.log_tail(n).tobytes()


@pytest.mark.parametrize(
    "prior",
    [geometric_prior(0.1), geometric_prior(0.3, q=0.15), heavy_tail_prior(2.0), heavy_tail_prior(2.5, q=0.1)],
    ids=["geom01", "geom03q", "heavy2", "heavy25q"],
)
class TestPriorConsistency:
    def test_tail_mass_identity(self, prior):
        n = np.arange(0, 500)
        pi = np.exp(prior.log_pmf(n))
        tails = prior.tail(np.arange(0, 501))
        np.testing.assert_allclose(tails[:-1] - tails[1:], pi, atol=1e-14)

    def test_tail_head(self, prior):
        assert float(prior.tail(0)) == pytest.approx(1.0 - prior.q, abs=1e-13)

    def test_tail_nonincreasing(self, prior):
        tails = prior.tail(np.arange(0, 2000))
        assert np.all(np.diff(tails) <= 0)

    def test_closed_form_tail_vs_partial_sum(self, prior):
        # Pi(n) = sum_{k=n}^{n+10^6} pi_k + Pi(n+10^6+1), all closed form
        for n in (0, 3, 57):
            k = np.arange(n, n + 1_000_001)
            partial = float(np.exp(prior.log_pmf(k)).sum())
            remainder = float(prior.tail(n + 1_000_001))
            assert float(prior.tail(n)) == pytest.approx(partial + remainder, abs=1e-10)

    def test_b_is_tail_at_one(self, prior):
        assert prior.b == pytest.approx(float(prior.tail(1)), rel=1e-12)

    def test_sampling_matches_pmf(self, prior):
        rng = np.random.default_rng(202)
        draws = np.array([prior.sample(rng) for _ in range(4000)])
        # restricted to k >= 0, the pmf renormalizes by 1 - q
        p0 = float(np.exp(prior.log_pmf(0))) / (1.0 - prior.q)
        frac0 = (draws == 0).mean()
        assert abs(frac0 - p0) < 4 * math.sqrt(p0 * (1 - p0) / 4000)


class TestCp2Partial:
    def test_geometric_summand_negligible(self):
        rep = check_cp2_partial(geometric_prior(0.1), r=1.0, horizon=10_000)
        assert rep.last_summand < 1e-8
        assert rep.summand_decreasing
        assert rep.consistent

    def test_point_mass_sum_is_zero(self):
        rep = check_cp2_partial(point_mass_prior(0), r=1.0, horizon=10)
        assert rep.partial_sum == 0.0

    def test_heavy_tail_partial_sum_finite(self):
        rep = check_cp2_partial(heavy_tail_prior(2.0), r=2.0, horizon=1_000_000)
        assert math.isfinite(rep.partial_sum)
        assert rep.partial_sum > 0.0
        # summand still > 1e-8 at the horizon: not flagged, only reported
        assert rep.summand_decreasing

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            check_cp2_partial(geometric_prior(0.1), r=1.0, horizon=0)


class TestUniformGrid:
    def test_one_dim_five_points(self):
        g = uniform_grid([1], [5], [5])
        np.testing.assert_array_equal(g.atoms.ravel(), [1, 2, 3, 4, 5])
        np.testing.assert_allclose(np.exp(g.log_weights), 0.2)

    def test_two_dim_product(self):
        g = uniform_grid([0.5, 0.5], [1.5, 1.5], [2, 2])
        assert g.size == 4
        np.testing.assert_allclose(np.exp(g.log_weights), 0.25)

    def test_degenerate_point(self):
        g = uniform_grid([1], [1], [1])
        assert g.size == 1
        np.testing.assert_array_equal(g.atoms, [[1.0]])
        np.testing.assert_array_equal(g.log_weights, [0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_grid([1], [5], [5, 5])
        with pytest.raises(ValueError):
            uniform_grid([5], [1], [3])
        with pytest.raises(ValueError):
            uniform_grid([1], [5], [0])
        with pytest.raises(ValueError, match="whole numbers"):
            uniform_grid([1], [5], [2.7])  # int() would truncate to 2
        assert uniform_grid([1], [5], [5.0]).size == 5


class TestGridFromAtoms:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            grid_from_atoms([[1.0], [2.0]], weights=[0.6, 0.6])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            grid_from_atoms([[1.0], [2.0]], weights=[1.0, 0.0])

    def test_atoms_must_be_distinct(self):
        with pytest.raises(ValueError):
            grid_from_atoms([[1.0], [1.0]])

    def test_equal_weights_default(self):
        g = grid_from_atoms([[0.5], [1.0], [1.5]])
        np.testing.assert_allclose(np.exp(g.log_weights), 1 / 3)
        assert g.dimension == 1


class TestThetaVector:
    GRID = grid_from_atoms([[0.5, 1.0], [1.0, 2.0], [1.5, 3.0]])

    @pytest.mark.parametrize("index", [0, 2, np.int64(1)])
    def test_index_gives_the_atom(self, index):
        np.testing.assert_array_equal(self.GRID.theta_vector(index), self.GRID.atoms[int(index)])

    @pytest.mark.parametrize("theta", [(0.7, 1.1), [0.7, 1.1], np.array([0.7, 1.1])])
    def test_vector_passes_off_grid(self, theta):
        vec = self.GRID.theta_vector(theta)
        assert vec.dtype == float
        np.testing.assert_array_equal(vec, [0.7, 1.1])

    @pytest.mark.parametrize("index", [-1, -3, 3, np.int64(-1)])
    def test_index_out_of_range_rejected(self, index):
        # a negative index would otherwise pick an atom counted from the end
        with pytest.raises(ValueError, match="out of range"):
            self.GRID.theta_vector(index)

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_boolean_rejected(self, flag):
        with pytest.raises(ValueError, match="boolean"):
            self.GRID.theta_vector(flag)

    @pytest.mark.parametrize("theta", [(1.0,), (1.0, 2.0, 3.0), [[0.5, 1.0]]])
    def test_wrong_dimension_rejected(self, theta):
        with pytest.raises(ValueError, match="expected 2 components"):
            self.GRID.theta_vector(theta)

    @pytest.mark.parametrize("theta", [(math.nan, 1.0), (0.5, math.inf), (-math.inf, 0.0)])
    def test_non_finite_vector_rejected(self, theta):
        with pytest.raises(ValueError, match="^expected finite components$"):
            self.GRID.theta_vector(theta)


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(0.01, 0.95),
    q=st.floats(0.0, 0.8),
    n=st.integers(0, 300),
)
def test_geometric_tail_identity_property(rho, q, n):
    p = geometric_prior(rho, q=q)
    lhs = float(p.tail(n)) - float(p.tail(n + 1))
    assert lhs == pytest.approx(float(np.exp(p.log_pmf(n))), abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(1.1, 6.0), n=st.integers(0, 200))
def test_heavy_tail_identity_property(c, n):
    p = heavy_tail_prior(c)
    lhs = float(p.tail(n)) - float(p.tail(n + 1))
    assert lhs == pytest.approx(float(np.exp(p.log_pmf(n))), abs=1e-12)


# ---------------------------------------------------------------------------
# Inverse cdfs: the array search must probe exactly as a one-uniform search.
# ---------------------------------------------------------------------------


def _scalar_inverse_cdf(prior, u):
    """Reference: exponential search + bisection for one uniform, in Python ints."""
    if u <= 0.0:
        u = 5e-324
    target = math.log(u) + math.log1p(-prior.q)
    if float(prior.log_tail(1)) <= target:
        return 0
    lo, hi = 0, 1
    while float(prior.log_tail(hi + 1)) > target:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if float(prior.log_tail(mid + 1)) > target:
            lo = mid
        else:
            hi = mid
    return hi


INVERSE_CDF_PRIORS = {
    "geometric": geometric_prior(0.1),
    "geometric_q": geometric_prior(1e-6, q=0.3),
    "heavy_c1.5": heavy_tail_prior(1.5),
    "heavy_c3_q": heavy_tail_prior(3.0, q=0.2),
    "point_mass_0": point_mass_prior(0),
    "point_mass_7": point_mass_prior(7),
}
EDGES = [0.0, 5e-324, 1e-300, 1e-30, 1e-12, 1e-8, 0.5, 1.0 - 2.0**-53]


@pytest.mark.parametrize("name", sorted(INVERSE_CDF_PRIORS))
def test_inverse_cdf_matches_scalar_search(name):
    prior = INVERSE_CDF_PRIORS[name]
    u = list(np.random.default_rng(11).random(3000))
    for edge in EDGES:
        try:
            _scalar_inverse_cdf(prior, edge)
        except OverflowError:  # the quantile is past int64: both refuse it
            with pytest.raises(OverflowError):
                prior.inverse_cdf([edge])
        else:
            u.append(edge)
    got = prior.inverse_cdf(np.array(u))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, [_scalar_inverse_cdf(prior, x) for x in u])


def test_inverse_cdf_edges_reach_far():
    # u -> 0 reaches deep into the tail; the heavy tails overflow int64 there
    assert geometric_prior(1e-6, q=0.3).inverse_cdf([0.0])[0] > 7e8
    assert point_mass_prior(7).inverse_cdf([0.0, 0.999])[0] == 7
    for c in (1.5, 3.0):
        with pytest.raises(OverflowError):
            heavy_tail_prior(c).inverse_cdf([0.0])


@pytest.mark.parametrize("name", sorted(INVERSE_CDF_PRIORS))
def test_sample_is_the_one_element_inverse_cdf(name):
    prior = INVERSE_CDF_PRIORS[name]
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(50):
        assert prior.sample(rng) == _scalar_inverse_cdf(prior, ref.random())
    assert rng.random() == ref.random()  # one uniform per draw


def test_grid_inverse_cdf_matches_sample_index():
    grid = grid_from_atoms([[0.5], [1.0], [1.5], [2.0]], weights=[0.1, 0.2, 0.3, 0.4])
    u = np.concatenate([np.random.default_rng(3).random(2000), [0.0, 0.1, 0.3, 1.0 - 2.0**-53]])
    csum = np.cumsum(np.exp(grid.log_weights))
    want = [min(int(np.searchsorted(csum, x, side="right")), grid.size - 1) for x in u]
    np.testing.assert_array_equal(grid.inverse_cdf(u), want)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    assert [grid.sample_index(rng) for _ in range(100)] == list(grid.inverse_cdf(ref.random(100)))


# ---------------------------------------------------------------------------
# The heavy-tail prior's zeta in the log domain: finite where zeta underflows.
# ---------------------------------------------------------------------------


def _log_tail_close(got, ref):
    """The log-tail tolerance: 1e-12 of max(1, |log Pi(n)|)."""
    got, ref = np.asarray(got), np.asarray(ref)
    return bool(np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))))


class TestHeavyTailLogDomain:
    @pytest.mark.parametrize("c", [20.0, 37.5, 100.0, 300.0, 1000.0])
    def test_log_tail_matches_a_direct_log_domain_sum(self, c):
        """Where the sum converges fast (c >= 20), sum (1 + k/a)^-c directly
        to well past the point its terms reach 1e-17 of the first."""
        from scipy.special import zeta

        prior = heavy_tail_prior(c, q=0.25)
        log_norm = math.log(zeta(c, 2.0))
        n = np.array([0, 1, 2, 7, 100, 2000])
        ref = []
        for a in (n + 2).tolist():
            k = np.arange(8 * a + 64)
            log_s = math.log(math.fsum(np.exp(-c * np.log1p(k / a)).tolist()))
            ref.append(math.log1p(-0.25) - log_norm - c * math.log(a) + log_s)
        assert _log_tail_close(prior.log_tail(n), ref)

    @pytest.mark.parametrize("c", [1.01, 1.1, 1.5, 2.0, 3.0, 7.5, 20.0, 100.0, 1000.0])
    def test_log_tail_matches_zeta_where_it_is_a_normal_float(self, c):
        from scipy.special import zeta

        n = np.array([0, 1, 2, 5, 10, 100, 1000, 10**4, 10**6, 10**9, 10**15])
        z = zeta(c, n + 2.0)
        normal = z >= np.finfo(float).tiny
        assert normal[0]
        ref = np.log(z[normal]) - math.log(zeta(c, 2.0))
        assert _log_tail_close(heavy_tail_prior(c).log_tail(n[normal]), ref)
        got = log_hurwitz_zeta(c, n[normal] + 2.0)
        assert np.all(np.abs(got - np.log(z[normal])) <= 1e-14 * np.abs(np.log(z[normal])) + 1e-15)

    def test_log_tail_finite_where_zeta_underflows(self):
        """zeta(100, 2002) is below the smallest float; its log is not."""
        prior = heavy_tail_prior(100.0)
        assert float(prior.log_tail(2000)) == pytest.approx(-687.8440704, abs=1e-7)
        log_tail = prior.log_tail(np.array([10**4, 10**6, 2**62]))
        assert np.all(np.isfinite(log_tail)) and np.all(np.diff(log_tail) < 0)

    @pytest.mark.parametrize("c", [20.0, 50.0, 100.0, 200.0, 500.0, 1000.0])
    def test_mean_matches_the_direct_sum(self, c):
        """The direct sum converges fast for c >= 20; the old closed form
        (zeta(c-1, 2) - 2 zeta(c, 2)) / zeta(c, 2) cancelled to 0 from c near 100."""
        prior = heavy_tail_prior(c, q=0.1)
        k = np.arange(100_000)
        direct = math.fsum((k * np.exp(prior.log_pmf(k))).tolist())
        assert prior.mean == pytest.approx(direct, rel=1e-12)

    def test_mean_at_c_100(self):
        assert heavy_tail_prior(100.0).mean == pytest.approx(2.4596544e-18, rel=1e-7)

    @pytest.mark.parametrize("c", [3.0, 100.0, 700.0, 1000.0])
    def test_b_is_the_tail_at_one(self, c):
        """b = Pi(1), a normal float for every c the prior takes; the old
        ratio zeta(c, 3) / zeta(c, 2) underflowed to 0 past c near 680."""
        prior = heavy_tail_prior(c, q=0.2)
        assert prior.b == math.exp(float(prior.log_tail(1)))
        if c >= 100.0:  # zeta(c, 3) / zeta(c, 2) = (2/3)^c to far below 1e-12
            assert prior.b == pytest.approx(0.8 * (2.0 / 3.0) ** c, rel=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("c", [1.0001, 1.5, 2.0, 3.0, 100.0, 1000.0, 1074.99])
    def test_tail_at_zero_is_one_minus_q_exactly(self, c, q):
        """The tail and its normaliser take zeta(c, 2) the same way, and the
        normaliser cancels before log(1 - q) is added."""
        assert float(heavy_tail_prior(c, q=q).log_tail(0)) == math.log1p(-q)

    def test_log_normaliser_matches_zeta(self):
        """log zeta(c, 2) against scipy's zeta wherever that is a normal float,
        c from just above 1 (zeta near 1e4) to c near 1022, within 1e-15 of
        max(1, |log zeta|): a relative tolerance on zeta where it is near 1."""
        from scipy.special import zeta

        c = np.concatenate([[1.0001, 1.001, 1.01], np.geomspace(1.0001, 1074.99, 500)])
        z = zeta(c, 2.0)
        normal = z >= np.finfo(float).tiny
        assert normal[:3].all() and normal.sum() > 450
        ref = np.log(z[normal])
        got = np.array([float(log_hurwitz_zeta(x, 2.0)) for x in c[normal]])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))

    def test_refused_exactly_where_zeta_is_zero(self):
        """The refusal at c >= 1075 is where scipy's zeta(c, 2) is 0 in floats."""
        from scipy.special import zeta

        grid = np.concatenate([np.linspace(1074.0, 1076.0, 201), [np.nextafter(1075.0, 0.0)]])
        for c in grid.tolist():
            try:
                heavy_tail_prior(c)
            except ValueError:
                refused = True
            else:
                refused = False
            assert refused == (zeta(c, 2.0) == 0.0), c

    @pytest.mark.parametrize("q", [0.0, 0.2])
    @pytest.mark.parametrize("c", [1050.5, 1070.5])
    def test_normaliser_where_zeta_is_subnormal(self, c, q):
        """Past c near 1022 zeta(c, 2) is subnormal and holds a few bits, so
        the normaliser is taken in the log domain: log Pi(0) = log(1 - q), and
        log pi_0 is within (2/3)^c of it."""
        prior = heavy_tail_prior(c, q=q)
        for value in (prior.log_pmf(0), prior.log_tail(0)):
            assert abs(float(value) - math.log1p(-q)) < 1e-12
