"""Observation models: increments, sampling laws, information numbers."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixdetect._engine import trial_rngs
from mixdetect.detectors import BLOCK
from mixdetect.measures import grid_from_atoms
from mixdetect.models import (
    ArChannelSpec,
    GaussianIidModel,
    HarmonicSignal,
    Hmm2Spec,
    MultichannelArModel,
    ObservationModel,
    SamplerState,
    TwoStateHmmModel,
    _ar_noise,
    gaussian_iid_model,
    hmm2_model,
    info_number,
    multichannel_ar_model,
    q_limit,
    sample_path,
)


def spawn_rngs(seed, n):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _steps(model, path):
    """Increments (T, n_atoms) of ``path`` by one ``step`` per row on a fresh one-path state."""
    state = model.increment_state(1)
    return np.array([model.step(state, row, n) for n, row in enumerate(path)])


def log_phi(x, mu=0.0):
    return -0.5 * (x - mu) ** 2 - 0.5 * math.log(2 * math.pi)


# ---------------------------------------------------------------------------
# Gaussian i.i.d.
# ---------------------------------------------------------------------------


class TestGaussianIid:
    def test_increment_formula(self):
        m = gaussian_iid_model(grid_from_atoms([[1.0]]))
        assert m.step(m.increment_state(1), 0.0, 0)[0] == pytest.approx(-0.5, abs=1e-15)

    def test_zero_atom_gives_zero_increment(self):
        m = gaussian_iid_model(grid_from_atoms([[0.0], [1.0]]))
        state = m.increment_state(1)
        for n, x in enumerate((-3.0, 0.0, 7.5)):
            assert m.step(state, x, n)[0] == 0.0

    def test_info_number(self):
        m = gaussian_iid_model(grid_from_atoms([[1.0], [2.0]]))
        assert info_number(m, 0) == pytest.approx(0.5)

    @pytest.mark.parametrize("theta", [-1, 2, True])
    def test_info_number_rejects_bad_index(self, theta):
        m = gaussian_iid_model(grid_from_atoms([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            info_number(m, theta)

    @pytest.mark.parametrize("theta", [-1, True])
    def test_sample_path_rejects_bad_index(self, theta):
        m = gaussian_iid_model(grid_from_atoms([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            sample_path(m, 0, theta, 10, np.random.default_rng(0))
        assert info_number(m, (2.0,)) == pytest.approx(2.0)

    @pytest.mark.parametrize("nu", [-math.inf, 2.7, -1, -1.0, math.nan])
    def test_sample_path_rejects_bad_change_point(self, nu):
        m = gaussian_iid_model(grid_from_atoms([[1.0]]))
        with pytest.raises(ValueError, match="change point"):
            sample_path(m, nu, 0, 10, np.random.default_rng(0))

    def test_sample_path_change_point_forms(self):
        m = gaussian_iid_model(grid_from_atoms([[1.0]]))

        def path(nu):
            return sample_path(m, nu, 0, 10, np.random.default_rng(0))

        np.testing.assert_array_equal(path(3.0), path(3))
        np.testing.assert_array_equal(path(np.int64(3)), path(3))
        for never in (None, math.inf, np.inf, 10.0, 25):
            np.testing.assert_array_equal(path(never), path(10))

    def test_requires_scalar_atoms(self):
        with pytest.raises(ValueError):
            gaussian_iid_model(grid_from_atoms([[1.0, 1.0]]))

    def test_no_change_sample_mean(self):
        m = gaussian_iid_model(grid_from_atoms([[1.0]]))
        path = sample_path(m, None, None, 100_000, np.random.default_rng(1))
        se = 1.0 / math.sqrt(path.size)
        assert abs(path.mean()) < 3 * se

    def test_immediate_change_sample_mean(self):
        m = gaussian_iid_model(grid_from_atoms([[1.0]]))
        path = sample_path(m, 0, 0, 100_000, np.random.default_rng(2))
        se = 1.0 / math.sqrt(path.size)
        assert abs(path.mean() - 1.0) < 3 * se

    def test_change_at_k_splits_the_path(self):
        m = gaussian_iid_model(grid_from_atoms([[4.0]]))
        path = sample_path(m, 10, 0, 20, np.random.default_rng(3))[:, 0]
        # rows 1..10 pre-change (mean 0), rows 11..20 shifted by 4
        assert path[:10].max() < 3.9
        assert path[10:].min() > 0.1


# ---------------------------------------------------------------------------
# Multichannel AR
# ---------------------------------------------------------------------------


def constant_signal(level):
    return HarmonicSignal(amplitude=level, omega=0.0, phase=math.pi / 2)


class TestMultichannelAr:
    def test_no_ar_constant_signal_increment(self):
        spec = ArChannelSpec(ar_coeffs=((),), signals=(constant_signal(1.0),))
        m = multichannel_ar_model(spec, grid_from_atoms([[1.0]]))
        assert m.step(m.increment_state(1), [1.0], 0)[0] == pytest.approx(0.5, abs=1e-12)

    def test_streaming_step_across_table_growth(self):
        # 2100 rows, one step at a time, against one block; a stream stepped
        # 1500 rows first on another state changes nothing
        spec = ArChannelSpec(
            ar_coeffs=((0.5, -0.2), (0.3, 0.2)),
            signals=(HarmonicSignal(1.0, 0.37, 0.2), HarmonicSignal(0.8, 1.1, 0.0)),
        )
        model = multichannel_ar_model(spec, grid_from_atoms([[0.7, 0.7], [1.0, 0.5]]))
        path = sample_path(model, 700, 1, 2100, np.random.default_rng(8))
        batch = model.path_increments(path[None, :, :])[0]
        np.testing.assert_array_equal(_steps(model, path), batch)
        state = model.increment_state(1)
        for n, row in enumerate(path[:1500]):  # another stream first
            model.step(state, row, n)
        np.testing.assert_array_equal(_steps(model, path), batch)

    def test_residual_definition(self):
        spec = ArChannelSpec(ar_coeffs=((0.5,),), signals=(constant_signal(1.0),))
        m = multichannel_ar_model(spec, grid_from_atoms([[1.0]]))
        x = np.array([[2.0], [3.0]])
        inc = m.increments_for(x)
        sres = spec.residual_signal_matrix(2)
        # X~_1 = X_1 (zero initial data), X~_2 = X_2 - 0.5 X_1
        resid2 = 3.0 - 0.5 * 2.0
        expected = 1.0 * sres[1, 0] * resid2 - 0.5 * sres[1, 0] ** 2
        assert inc[1, 0] == pytest.approx(expected, rel=1e-12)

    def test_q_limit_harmonic(self):
        spec = ArChannelSpec(
            ar_coeffs=((),), signals=(HarmonicSignal(1.0, 0.5, 0.0),)
        )
        q = q_limit(spec, 0, horizon=1_000_000)
        assert q.value == pytest.approx(0.5, abs=1e-3)
        assert q.spread < 1e-4

    def test_q_limit_constant(self):
        spec = ArChannelSpec(ar_coeffs=((),), signals=(constant_signal(1.0),))
        assert q_limit(spec, 0).value == pytest.approx(1.0, rel=1e-12)

    def test_q_limit_filtered_harmonic_matches_analytic_gain(self):
        # S~ is the harmonic filtered by 1 - 0.5 z^-1; its power is
        # |1 - 0.5 e^{-i w}|^2 / 2 for amplitude-1 sin(w n)
        spec = ArChannelSpec(
            ar_coeffs=((0.5,),), signals=(HarmonicSignal(1.0, 0.5, 0.0),)
        )
        gain = abs(1.0 - 0.5 * np.exp(-1j * 0.5)) ** 2
        q = q_limit(spec, 0, horizon=1_000_000)
        assert q.value == pytest.approx(gain / 2.0, abs=1e-3)

    def test_info_number_from_q(self):
        # constant signals of level sqrt(1/2) give Q = 1/2 per channel exactly
        spec = ArChannelSpec(
            ar_coeffs=((), ()),
            signals=(constant_signal(math.sqrt(0.5)), constant_signal(math.sqrt(0.5))),
        )
        m = multichannel_ar_model(spec, grid_from_atoms([[1.0, 1.0]]))
        assert info_number(m, (1.0, 1.0)) == pytest.approx(0.5, rel=1e-10)

    def test_unstable_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ArChannelSpec(ar_coeffs=((1.01,),), signals=(constant_signal(1.0),))
        with pytest.raises(ValueError):
            ArChannelSpec(ar_coeffs=((0.6, 0.5),), signals=(constant_signal(1.0),))

    def test_grid_dimension_and_positivity(self):
        spec = ArChannelSpec(
            ar_coeffs=((), ()), signals=(constant_signal(1.0), constant_signal(1.0))
        )
        with pytest.raises(ValueError):
            multichannel_ar_model(spec, grid_from_atoms([[1.0]]))
        with pytest.raises(ValueError):
            multichannel_ar_model(spec, grid_from_atoms([[1.0, -1.0]]))

    def test_noise_lag1_autocorrelation(self):
        spec = ArChannelSpec(ar_coeffs=((0.5,),), signals=(constant_signal(1.0),))
        m = multichannel_ar_model(spec, grid_from_atoms([[1.0]]))
        path = sample_path(m, None, None, 1_000_000, np.random.default_rng(8))[:, 0]
        r1 = np.corrcoef(path[:-1], path[1:])[0, 1]
        assert abs(r1 - 0.5) < 0.01


# AR noise colouring and whitening against scipy.signal.lfilter, compared as
# bits so that signed zeros count; scipy.signal is imported only here.
_FILTER_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@st.composite
def _ar_filter_inputs(draw):
    """(fir, white noise (paths, steps), carried state (paths, p)), p in 1..4."""
    p = draw(st.integers(1, 4))
    paths = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 12))
    beta = draw(hnp.arrays(np.float64, p, elements=st.floats(-0.9 / p, 0.9 / p)))
    w = draw(hnp.arrays(np.float64, (paths, steps), elements=_FILTER_VALUES))
    z = draw(
        st.one_of(
            st.just(np.zeros((paths, p))),
            hnp.arrays(np.float64, (paths, p), elements=_FILTER_VALUES),
        )
    )
    return np.concatenate([[1.0], -beta]), w, z


@given(_ar_filter_inputs())
# beta < 0 on zero noise: dropping lfilter's w*0 taps turns +0 into -0 here
@example((np.array([1.0, 0.5]), np.array([[0.0, -0.0]]), np.zeros((1, 1))))
def test_ar_noise_matches_lfilter_bitwise(inputs):
    from scipy.signal import lfilter

    fir, w, z = inputs
    z_before = z.copy()
    y, z_end = _ar_noise(w, fir, z)
    y_ref, z_ref = lfilter([1.0], fir, w, axis=1, zi=z)
    np.testing.assert_array_equal(_bits(y), _bits(y_ref))
    np.testing.assert_array_equal(_bits(z_end), _bits(z_ref))
    np.testing.assert_array_equal(_bits(z), _bits(z_before))


@given(_ar_filter_inputs(), st.integers(0, 12))
def test_ar_noise_in_two_pieces_equals_one(inputs, cut):
    fir, w, z = inputs
    cut = min(cut, w.shape[1])
    y1, z1 = _ar_noise(w[:, :cut], fir, z)
    y2, z2 = _ar_noise(w[:, cut:], fir, z1)
    y, z_end = _ar_noise(w, fir, z)
    np.testing.assert_array_equal(_bits(np.concatenate([y1, y2], axis=1)), _bits(y))
    np.testing.assert_array_equal(_bits(z2), _bits(z_end))


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 9])
def test_residual_signal_matrix_matches_lfilter(horizon):
    from scipy.signal import lfilter

    # filters of length 4, 2 and 1, so horizons fall short of, on and past
    # each; amplitude 0 gives exact +-0 values, sin(0 * n) exact +0 ones
    spec = ArChannelSpec(
        ar_coeffs=((0.5, -0.2, 0.1), (-0.3,), ()),
        signals=(
            HarmonicSignal(1.0, 0.37, 0.2),
            HarmonicSignal(0.0, 1.0, 0.0),
            HarmonicSignal(2.0, 0.0, 0.0),
        ),
    )
    sig = spec.signal_matrix(horizon)
    got = spec.residual_signal_matrix(horizon)
    assert got.shape == (horizon, 3)
    for c in range(3):
        expected = lfilter(spec.fir(c), [1.0], sig[:, c])
        np.testing.assert_array_equal(_bits(got[:, c]), _bits(expected))
        np.testing.assert_array_equal(_bits(spec.residual_signal(c, horizon)), _bits(expected))


SIGNAL_SPEC = ArChannelSpec(
    ar_coeffs=((0.5,), (0.3,), ()),
    signals=(
        HarmonicSignal(1.0, 0.37, 0.2),
        HarmonicSignal(0.8, 0.0, math.pi / 2),
        HarmonicSignal(2.5, 2.9, -1.0),
    ),
)
SIGNAL_ROWS = SIGNAL_SPEC.signal_matrix(5000)


@given(st.integers(0, 5000), st.integers(0, 5000))
@example(0, 5000)
@example(4999, 5000)
@example(64, 128)
def test_signal_rows_match_the_whole_table(a, b):
    """A block's signal rows [n0, n1) are the same bits as that slice of the
    whole table, so a sampler needs no table of the horizon."""
    n0, n1 = min(a, b), max(a, b)
    got = SIGNAL_SPEC.signal_matrix(n1, n0)
    assert got.shape == (n1 - n0, 3)
    np.testing.assert_array_equal(_bits(got), _bits(SIGNAL_ROWS[n0:n1]))


def _whitening_spec(p: int, q: int, seed: int) -> ArChannelSpec:
    """Two channels of AR orders p and q; coefficient sums below 0.9 in
    modulus keep both polynomials stable."""
    rng = np.random.default_rng(seed)
    return ArChannelSpec(
        ar_coeffs=tuple(tuple(rng.uniform(-0.9, 0.9, k) / max(k, 1)) for k in (p, q)),
        signals=(HarmonicSignal(1.0, 0.37, 0.2), HarmonicSignal(0.8, 1.1, -1.0)),
    )


@given(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1),
    st.integers(0, 2000), st.integers(1, 300),
)
@example(6, 0, 1, 0, 1)
@example(6, 6, 2, 7, 1)
@example(6, 1, 3, 5, 300)
def test_whitened_rows_of_a_window_match_the_whole_table(p, q, seed, n0, length):
    """Whitened rows [n0, n1) are the bits of the whole table's rows wherever a
    channel's signal rows, from max(n0 - order, 0) to n1, outnumber its FIR
    taps; and scoring a stream one ``step`` at a time gives the bits of one
    whole-stream score at n <= max(p, q) + 1, where the windows are shortest."""
    spec, n1 = _whitening_spec(p, q, seed), n0 + length
    whole = spec.residual_signal_matrix(2400)  # longer than every FIR and window
    got = spec.residual_signal_matrix(n1, n0)
    assert got.shape == (length, 2)
    for c, order in enumerate((p, q)):
        if n1 - max(n0 - order, 0) > order + 1:
            np.testing.assert_array_equal(_bits(got[:, c]), _bits(whole[n0:n1, c]))
    model = multichannel_ar_model(spec, grid_from_atoms([[0.5, 1.0], [1.0, 0.5]]))
    head = max(p, q) + 2
    path = np.random.default_rng(seed).standard_normal((head + length, 2))
    np.testing.assert_array_equal(
        _bits(_steps(model, path[:head])), _bits(model.increments_for(path)[:head])
    )


@settings(max_examples=50)
@given(
    hnp.arrays(np.float64, st.integers(1, 4), elements=st.floats(-4.0, 4.0), unique=True),
    st.lists(st.integers(1, 2 * BLOCK), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
@example(np.array([-1.5, 0.5]), [3, BLOCK, 1], 0)
def test_white_noise_channel_is_the_gaussian_closed_form(atoms, cuts, seed):
    """One AR channel without coefficients and with the unit signal, built
    directly so that its atoms may have either sign, samples z + 1{t >= nu}
    theta from each path's own normals and scores theta x - theta^2 / 2, to
    the bit, however the time axis is cut into blocks."""
    spec = ArChannelSpec(ar_coeffs=((),), signals=(HarmonicSignal(1.0, 0.0, math.pi / 2),))
    model = MultichannelArModel(spec, grid_from_atoms(atoms[:, None]))
    horizon, rows = sum(cuts), np.arange(3)
    pick = np.random.default_rng(seed)
    nus, thetas = pick.integers(0, horizon + 1, 3), atoms[pick.integers(0, len(atoms), 3)]
    sampler = model.sampler_state(nus, thetas[:, None], horizon, spawn_rngs(seed, 3))
    scorer, blocks, n0 = model.increment_state(3), [], 0
    for length in cuts:
        blocks.append(model.simulate_block(sampler, scorer, rows, n0, n0 + length))
        n0 += length
    x = np.concatenate([b[0] for b in blocks], axis=1)[:, :, 0]
    ell = np.concatenate([b[1] for b in blocks])
    for i, rng in enumerate(spawn_rngs(seed, 3)):
        z = rng.standard_normal(horizon)
        np.testing.assert_array_equal(_bits(x[i]), _bits(z + (np.arange(horizon) >= nus[i]) * thetas[i]))
    expected = x.T[:, None, :] * atoms[:, None] - atoms[:, None] ** 2 / 2
    np.testing.assert_array_equal(_bits(ell), _bits(expected))


@pytest.mark.parametrize("start, horizon", [(0, 0), (7, 7), (9, 4)])
def test_an_empty_whitening_window_has_no_rows(start, horizon):
    """A window with start >= horizon whitens no rows, for a channel without
    AR coefficients as for one with them, as ``signal_matrix`` has none."""
    spec = _whitening_spec(0, 2, 5)
    for c in range(2):
        assert spec.residual_signal(c, horizon, start).shape == (0,)
    assert spec.residual_signal_matrix(horizon, start).shape == (0, 2)
    assert spec.signal_matrix(horizon, start).shape == (0, 2)


# ---------------------------------------------------------------------------
# Two-state HMM
# ---------------------------------------------------------------------------


def hmm_grid():
    return grid_from_atoms([[1.0, 2.0], [0.5, 2.5]])


class TestTwoStateHmm:
    def test_symmetric_reduction_to_iid_mixture(self):
        spec = Hmm2Spec(theta0=(0.0, 1.0), beta=0.5, gamma=0.5)
        m = hmm2_model(spec, hmm_grid())
        path = sample_path(m, 40, 0, 100, np.random.default_rng(11))
        inc = m.increments_for(path)
        x = path[:, 0]
        den = np.logaddexp(log_phi(x, 0.0), log_phi(x, 1.0))
        for j, atom in enumerate(hmm_grid().atoms):
            num = np.logaddexp(log_phi(x, atom[0]), log_phi(x, atom[1]))
            np.testing.assert_allclose(inc[:, j], num - den, atol=1e-10)

    def test_theta0_atom_gives_exactly_zero(self):
        spec = Hmm2Spec(theta0=(0.0, 1.0), beta=0.3, gamma=0.6)
        grid = grid_from_atoms([[0.0, 1.0], [1.0, 2.0]])
        m = hmm2_model(spec, grid)
        path = sample_path(m, None, None, 50, np.random.default_rng(12))
        inc = m.increments_for(path)
        assert np.all(inc[:, 0] == 0.0)

    def test_cumulative_increments_match_full_path_forward(self):
        # independent oracle: unnormalized log-domain forward pass
        beta, gamma = 0.3, 0.6
        spec = Hmm2Spec(theta0=(0.0, 1.0), beta=beta, gamma=gamma)
        m = hmm2_model(spec, hmm_grid())
        path = sample_path(m, 15, 1, 100, np.random.default_rng(5))
        inc = m.increments_for(path)
        x = path[:, 0]

        def log_marginals(means):
            pi2 = gamma / (beta + gamma)
            lp2, lp1 = math.log(pi2), math.log(1 - pi2)
            out = [0.0]
            for xn in x:
                a2 = np.logaddexp(
                    lp2 + math.log(1 - gamma), lp1 + math.log(beta)
                ) + log_phi(xn, means[1])
                a1 = np.logaddexp(
                    lp2 + math.log(gamma), lp1 + math.log(1 - beta)
                ) + log_phi(xn, means[0])
                lp1, lp2 = a1, a2
                out.append(np.logaddexp(lp1, lp2))
            return np.array(out)

        lm0 = log_marginals(spec.theta0)
        for j, atom in enumerate(hmm_grid().atoms):
            lmj = log_marginals(atom)
            csum = np.concatenate(([0.0], np.cumsum(inc[:, j])))
            for k in range(0, 99):
                for n in range(k + 1, 101):
                    oracle = (lmj[n] - lmj[k]) - (lm0[n] - lm0[k])
                    assert abs((csum[n] - csum[k]) - oracle) < 1e-10

    def test_info_number_zero_for_identical_means(self):
        spec = Hmm2Spec(theta0=(0.0, 0.0), beta=0.5, gamma=0.5)
        m = hmm2_model(spec, grid_from_atoms([[0.5, 0.5], [0.0, 0.0]]))
        assert info_number(m, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-10)

    def test_info_number_matches_adaptive_quadrature(self):
        """The trapezoid rule agrees with scipy's adaptive quad to 1e-10 on
        random symmetric-HMM means; scipy is imported only here."""
        from scipy.integrate import quad

        rng = np.random.default_rng(11)
        for a1, a2, b1, b2 in rng.uniform(-4.0, 4.0, size=(100, 4)):
            spec = Hmm2Spec(theta0=(b1, b2), beta=0.5, gamma=0.5)
            m = hmm2_model(spec, grid_from_atoms([[a1, a2]]))

            def integrand(x):
                log_num = np.logaddexp(log_phi(x, a1), log_phi(x, a2))
                log_den = np.logaddexp(log_phi(x, b1), log_phi(x, b2))
                return (log_num - log_den) * 0.5 * math.exp(log_num)

            expected, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-10, limit=400)
            assert abs(info_number(m, 0) - expected) < 1e-10, (a1, a2, b1, b2)

    @staticmethod
    def _one_grid(a1, a2, b1, b2):
        """The trapezoid rule on one grid of step <= 0.1 over [min - 12, max + 12]."""
        lo, hi = min(a1, a2, b1, b2) - 12.0, max(a1, a2, b1, b2) + 12.0
        n = math.ceil((hi - lo) / 0.1)
        x = np.linspace(lo, hi, n + 1)
        log_num = np.logaddexp(log_phi(x, a1), log_phi(x, a2))
        log_den = np.logaddexp(log_phi(x, b1), log_phi(x, b2))
        f = (log_num - log_den) * 0.5 * np.exp(log_num)
        return float((hi - lo) / n * (f.sum() - 0.5 * (f[0] + f[-1])))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, 4, elements=st.floats(-10.0, 10.0)))
    def test_info_number_of_chained_windows_is_one_grid(self, means):
        """Means within 24 of each other chain their windows into one
        interval, whose grid and bits are those of one grid over all four."""
        a1, a2, b1, b2 = map(float, means)
        m = hmm2_model(Hmm2Spec(theta0=(b1, b2), beta=0.5, gamma=0.5), grid_from_atoms([[a1, a2]]))
        assert info_number(m, 0) == self._one_grid(a1, a2, b1, b2)

    @pytest.mark.parametrize("far", [30.0, -100.0, 1000.0])
    def test_info_number_of_separated_windows(self, far):
        """A far mean gets a window of its own; the sum over the windows is the
        one-grid value up to rounding."""
        m = hmm2_model(Hmm2Spec(theta0=(0.0, 1.0), beta=0.5, gamma=0.5), grid_from_atoms([[0.8, far]]))
        assert info_number(m, 0) == pytest.approx(self._one_grid(0.8, far, 0.0, 1.0), rel=1e-13)

    def test_info_number_of_a_huge_mean(self):
        """A mean of 1e12 costs a few windows of 241 points, not 1e13; from
        about 1e16 on floats hold no grid of step 0.1, and it is refused."""
        m = hmm2_model(Hmm2Spec(theta0=(0.0, 1.0), beta=0.5, gamma=0.5), hmm_grid())
        assert 0.0 < info_number(m, (0.8, 1e12)) < math.inf
        for big in (1e16, -1e200):
            with pytest.raises(NotImplementedError, match=re.escape(f"near {big:g}") + "$"):
                info_number(m, (big, 2.0))

    def test_info_number_nonsymmetric_unsupported(self):
        spec = Hmm2Spec(theta0=(0.0, 1.0), beta=0.3, gamma=0.6)
        m = hmm2_model(spec, hmm_grid())
        with pytest.raises(NotImplementedError):
            info_number(m, (1.0, 2.0))

    def test_transition_validation(self):
        with pytest.raises(ValueError):
            Hmm2Spec(theta0=(0.0, 1.0), beta=1.2, gamma=0.5)
        with pytest.raises(ValueError):
            Hmm2Spec(theta0=(0.0, 1.0), beta=0.0, gamma=0.0)

    def test_initial_distribution(self):
        spec = Hmm2Spec(theta0=(0.0, 1.0), beta=0.2, gamma=0.6)
        assert spec.pi2 == pytest.approx(0.75)


@settings(max_examples=40)
@given(
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 200), min_size=1, max_size=4),
)
@example(True, 0, [200, 1, 200])
@example(False, 1, [1, 1, 64, 65])
def test_hmm_block_scoring_matches_rows_and_whole_paths(symmetric, seed, lengths):
    """Scoring given observations in blocks of any length, whose emissions are
    evaluated for the whole block at once, gives the bits of one ``step`` per
    row, of one ``path_increments`` block, and of the increments that
    ``simulate_block`` scored row by row as it drew the paths, one of which
    changes halfway."""
    beta, gamma = (0.5, 0.5) if symmetric else (0.3, 0.6)
    model = hmm2_model(Hmm2Spec(theta0=(0.0, 1.0), beta=beta, gamma=gamma), hmm_grid())
    horizon, rows = sum(lengths), np.arange(2)
    nus, rngs = [horizon // 2, horizon], spawn_rngs(seed, 2)
    sampler = model.sampler_state(nus, hmm_grid().atoms, horizon, rngs)
    drawn, given = model.increment_state(2), model.increment_state(2)
    paths, sampled, blocks, n0 = [], [], [], 0
    for length in lengths:
        x, ell = model.simulate_block(sampler, drawn, rows, n0, n0 + length)
        paths.append(x.copy())
        sampled.append(ell)
        blocks.append(model.increment_block(given, slice(None), x, n0))
        n0 += length
    paths = np.concatenate(paths, axis=1)
    blockwise = np.concatenate(blocks)
    np.testing.assert_array_equal(_bits(blockwise), _bits(np.concatenate(sampled)))
    blockwise = blockwise.transpose(2, 0, 1)  # (paths, steps, atoms)
    np.testing.assert_array_equal(_bits(blockwise), _bits(model.path_increments(paths)))
    for path, got in zip(paths, blockwise):
        np.testing.assert_array_equal(_bits(got), _bits(_steps(model, path)))


# SHA-256 of HMM sample_paths, recorded while sampling still ran a scalar
# probability-domain filter per path (numpy 2.4).  24 paths, horizon 150, change
# points cycling over 0, mid-path, the horizon and past it.  A sampled value
# changes only if a post-change move u < P(state 2 | past) flips.
HMM_SAMPLE_CASES = {
    # name: (beta, gamma, post-change means; None cycles the grid atoms)
    "beta0": (0.0, 0.4, None),
    "gamma0": (0.3, 0.0, None),
    "asymmetric": (0.2, 0.7, None),
    "off_grid": (0.5, 0.5, (1.3, -0.4)),
}
HMM_SAMPLE_DIGESTS = {
    "beta0": "befefc22033d8d82d61bd914d3677080ec3538ab4526a009fa132725ab6c9239",
    "gamma0": "ea24c31a07a2b2e63c01fcfea6e38b505250f99e96abc0f4c6439b0d5b9189b1",
    "asymmetric": "ee915e75d4360daefead8eb082ba6c92973dd239f043467dda8a6df9dcc5bfa8",
    "off_grid": "de83430ff30c122fce09d1a57a8214514618fe8cf33cc5c5fb3ec211d3990149",
}


@pytest.mark.parametrize("case", sorted(HMM_SAMPLE_CASES))
def test_hmm_sample_paths_pinned(case):
    beta, gamma, off_grid = HMM_SAMPLE_CASES[case]
    atoms = [[0.8, 1.6], [0.4, 1.9]]
    model = hmm2_model(Hmm2Spec(theta0=(0.0, 1.0), beta=beta, gamma=gamma), grid_from_atoms(atoms))
    horizon, batch = 150, 24
    nus = np.array([(0, horizon // 2, horizon, horizon + 50)[i % 4] for i in range(batch)])
    thetas = np.array([off_grid or atoms[i % 2] for i in range(batch)], dtype=float)
    paths = model.sample_paths(nus, thetas, horizon, spawn_rngs(2718, batch))
    digest = hashlib.sha256(np.ascontiguousarray(paths).tobytes()).hexdigest()
    assert digest == HMM_SAMPLE_DIGESTS[case]


def _same_state(a, b):
    """Bit-generator state dicts equal, arrays (MT19937's key) compared by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("horizon", [0, 1, 999, 2 * 2**16 + 3, 10**5])
@pytest.mark.parametrize(
    "make",
    [
        lambda: trial_rngs(1234, 5, 0, 3),
        lambda: [np.random.Generator(np.random.PCG64DXSM(s)) for s in range(3)],
        lambda: [np.random.Generator(np.random.MT19937(s)) for s in range(3)],
        lambda: [np.random.Generator(np.random.SFC64(s)) for s in range(3)],
        # a PCG64 holding the spare 32-bit half of an earlier draw, which a jump drops
        lambda: [_with_spare_half(np.random.default_rng(s)) for s in range(3)],
    ],
    ids=["trial_rngs", "pcg64dxsm", "mt19937", "sfc64", "pcg64_spare_half"],
)
def test_hmm_skip_leaves_the_state_of_drawing(make, horizon):
    """sampler_state skips each path's horizon + 1 chain uniforms: the
    generator's state afterwards is the one drawing them would leave."""
    model = hmm2_model(Hmm2Spec((0.0, 1.0), 0.2, 0.7), grid_from_atoms([[0.5, 2.0]]))
    rngs, drawn = make(), make()
    nus, thetas = np.zeros(3, dtype=np.int64), np.array([[0.5, 2.0]] * 3)
    model.sampler_state(nus, thetas, horizon, rngs)
    for rng, ref in zip(rngs, drawn):
        ref.random(horizon + 1)
        assert _same_state(rng.bit_generator.state, ref.bit_generator.state)
        np.testing.assert_array_equal(rng.standard_normal(4), ref.standard_normal(4))


def _with_spare_half(rng):
    rng.integers(0, 2**32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"]
    return rng


@st.composite
def _hmm_filter_states(draw):
    """A transition spec and a (P, B) log filter, -inf entries included."""
    beta, gamma = draw(
        st.one_of(
            st.just((0.5, 0.5)),
            st.sampled_from([(0.2, 0.4), (0.0, 0.4), (0.3, 0.0), (0.5, 0.4), (1.0, 1.0)]),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda s: sum(s) > 0),
        )
    )
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 40)))
    logs = st.one_of(st.floats(-800.0, 0.0), st.just(-np.inf))
    return beta, gamma, [draw(hnp.arrays(float, shape, elements=logs)) for _ in range(2)]


@given(_hmm_filter_states())
@example((0.5, 0.5, [np.array([[-np.inf, -0.1, -3.0]]), np.array([[0.0, -2.4, -1e-300]])]))
def test_hmm_predict_matches_the_two_call_form(case):
    """A symmetric spec calls logaddexp once, for the same bits as both calls;
    any other spec still makes the two calls."""
    from unittest import mock

    beta, gamma, (log_f1, log_f2) = case
    model = hmm2_model(Hmm2Spec((0.0, 1.0), beta, gamma), grid_from_atoms([[0.5, 2.0]]))
    t = model._ltr
    with np.errstate(invalid="ignore"):
        want = (
            np.logaddexp(log_f2 + t["to1"], log_f1 + t["stay1"]),
            np.logaddexp(log_f2 + t["stay2"], log_f1 + t["to2"]),
        )
        with mock.patch.object(np, "logaddexp", wraps=np.logaddexp) as spy:
            got = model._predict(log_f1, log_f2)
    assert spy.call_count == (1 if (beta, gamma) == (0.5, 0.5) else 2)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# Cross-model contracts
# ---------------------------------------------------------------------------


def all_models():
    g1 = grid_from_atoms([[0.5], [1.0]])
    ar = ArChannelSpec(
        ar_coeffs=((0.5,), (0.3, 0.2)),
        signals=(HarmonicSignal(1.0, 0.5, 0.0), constant_signal(0.8)),
    )
    g2 = grid_from_atoms([[0.7, 0.7], [1.0, 0.5]])
    hm = Hmm2Spec(theta0=(0.0, 1.0), beta=0.4, gamma=0.7)
    g3 = grid_from_atoms([[0.8, 1.6], [0.4, 1.9]])
    return [
        ("gaussian", gaussian_iid_model(g1)),
        ("ar", multichannel_ar_model(ar, g2)),
        ("hmm", hmm2_model(hm, g3)),
    ]


@pytest.mark.parametrize("name,model", all_models(), ids=lambda v: v if isinstance(v, str) else "")
class TestModelContract:
    def test_streaming_matches_batch_bitwise(self, name, model):
        path = sample_path(model, 7, 0, 60, np.random.default_rng(21))
        batch = model.path_increments(path[None, :, :])[0]
        np.testing.assert_array_equal(_steps(model, path), batch)

    def test_reset_determinism(self, name, model):
        path = sample_path(model, 5, 0, 40, np.random.default_rng(22))
        np.testing.assert_array_equal(_steps(model, path), _steps(model, path))

    def test_same_seed_same_path(self, name, model):
        a = sample_path(model, 9, 0, 50, np.random.default_rng(33))
        b = sample_path(model, 9, 0, 50, np.random.default_rng(33))
        np.testing.assert_array_equal(a, b)

    def test_increments_finite(self, name, model):
        path = sample_path(model, 0, 0, 200, np.random.default_rng(44))
        inc = model.path_increments(path[None, :, :])[0]
        assert np.all(np.isfinite(inc))

    def test_likelihood_ratio_mean_one_under_no_change(self, name, model):
        # E[exp(l_n)] = 1 under the no-change law, per atom, at n = 3
        b = 100_000
        rngs = spawn_rngs(55, b)
        nus = np.full(b, 3, dtype=np.int64)
        thetas = np.tile(model.grid.atoms[0], (b, 1))
        paths = model.sample_paths(nus, thetas, 3, rngs)
        inc = model.path_increments(paths)[:, 2, :]  # step n = 3, all atoms
        lr = np.exp(inc)
        for j in range(model.grid.size):
            mean = lr[:, j].mean()
            se = lr[:, j].std(ddof=1) / math.sqrt(b)
            assert abs(mean - 1.0) < 3 * se, f"atom {j}: {mean} +- {se}"


class _KernelsOnly(ObservationModel):
    """A model that implements only its block kernels: x_n ~ N(theta, 1) after
    the change, scored with one lag, l_n(theta) = theta (x_n + x_{n-1}) / 2 - theta^2 / 2."""

    def __init__(self, grid):
        self.grid, self.dimension = grid, 1
        self._theta = grid.atoms[:, 0]

    def sampler_state(self, nus, thetas, horizon, rngs):
        thetas = np.asarray(thetas, dtype=float).reshape(len(rngs), 1)
        return SamplerState(np.asarray(nus, dtype=np.int64), thetas, list(rngs), {})

    def sample_block(self, state, rows, n0, n1):
        x = np.stack([state.rngs[i].standard_normal(n1 - n0) for i in rows.tolist()])
        post = np.arange(n0, n1)[None, :] >= state.nus[rows, None]
        return (x + post * state.thetas[rows])[:, :, None]

    def increment_state(self, batch):
        return np.zeros(batch)  # each path's last observation; zero before time 1

    def increment_block(self, state, rows, x, n0):
        x = x[:, :, 0]
        lagged = np.concatenate([state[rows][:, None], x[:, :-1]], axis=1)
        state[rows] = x[:, -1]
        u = (0.5 * (x + lagged)).T[:, None, :]
        return np.ascontiguousarray(u * self._theta[:, None] - 0.5 * self._theta[:, None] ** 2)


def test_a_model_needs_only_its_block_kernels():
    """``step``, ``sample_paths`` and ``path_increments`` come from the base
    class: a model with only the block kernels gets all three, row-wise,
    whole-path and block-wise scoring give the same bits, and each shipped
    model's class body holds the base functions themselves."""
    model = _KernelsOnly(grid_from_atoms([[0.5], [1.0], [-0.7]]))
    horizon, nus = 3 * BLOCK + 5, np.array([0, 70, 500])
    paths = model.sample_paths(nus, np.array([[1.0], [0.5], [2.0]]), horizon, spawn_rngs(8, 3))
    assert paths.shape == (3, horizon, 1)
    for i, rng in enumerate(spawn_rngs(8, 3)):  # one draw per row, the shift after nu
        shift = (np.arange(horizon) >= nus[i]) * [1.0, 0.5, 2.0][i]
        expected = rng.standard_normal(horizon) + shift
        np.testing.assert_array_equal(_bits(paths[i, :, 0]), _bits(expected))
    whole = model.path_increments(paths)
    assert whole.shape == (3, horizon, 3)
    state, blocks = model.increment_state(3), []
    for n0 in range(0, horizon, BLOCK):
        blocks.append(model.increment_block(state, np.arange(3), paths[:, n0 : n0 + BLOCK], n0))
    np.testing.assert_array_equal(_bits(np.concatenate(blocks).transpose(2, 0, 1)), _bits(whole))
    for i in range(3):
        np.testing.assert_array_equal(_bits(_steps(model, paths[i])), _bits(whole[i]))
    for cls in (GaussianIidModel, MultichannelArModel, TwoStateHmmModel):
        for name in ("step", "sample_paths", "path_increments"):
            assert cls.__dict__[name] is ObservationModel.__dict__[name], f"{cls.__name__}.{name}"


# ---------------------------------------------------------------------------
# Block kernels: time-first increments, the HMM's two RNG cursors, and
# sampler memory that does not grow with the horizon.
# ---------------------------------------------------------------------------


def _layout_model(name):
    if name == "gaussian":
        return gaussian_iid_model(grid_from_atoms([[0.5], [1.0], [-0.7]]))
    if name == "ar":
        spec = ArChannelSpec(
            ar_coeffs=((0.5, -0.2), (0.3, 0.1)),
            signals=(HarmonicSignal(1.0, 0.4, 0.3), HarmonicSignal(0.8, 1.1, 0.0)),
        )
        return multichannel_ar_model(spec, grid_from_atoms([[0.7, 0.7], [1.0, 0.5], [0.3, 1.2]]))
    spec = Hmm2Spec(theta0=(0.0, 1.0), beta=0.2, gamma=0.7)
    return hmm2_model(spec, grid_from_atoms([[0.8, 1.6], [0.4, 1.9]]))


@pytest.mark.parametrize("name", ["gaussian", "ar", "hmm"])
def test_block_kernels_return_time_first_blocks(name):
    """increment_block and simulate_block return C-contiguous (L, K, B) blocks,
    bit-equal to the whole-path increments; simulate_block's observations are
    the whole paths' bits; a one-path stream state gives (L, K)."""
    model = _layout_model(name)
    horizon, batch, k = 150, 5, model.grid.size
    nus = np.array([0, 40, 100, 150, 149])
    thetas = model.grid.atoms[np.arange(batch) % k]
    paths = model.sample_paths(nus, thetas, horizon, spawn_rngs(9, batch))
    whole = model.path_increments(paths)
    assert whole.shape == (batch, horizon, k)
    sampler = model.sampler_state(nus, thetas, horizon, spawn_rngs(9, batch))
    scorer, scored = model.increment_state(batch), model.increment_state(batch)
    rows, stream = np.arange(batch), model.increment_state(1)
    for n0 in range(0, horizon, BLOCK):
        n1 = min(n0 + BLOCK, horizon)
        want = whole[:, n0:n1].transpose(1, 2, 0).tobytes()
        x, simulated = model.simulate_block(sampler, scorer, rows, n0, n1)
        assert x.shape == paths[:, n0:n1].shape and x.tobytes() == paths[:, n0:n1].tobytes()
        scored_block = model.increment_block(scored, rows, paths[:, n0:n1], n0)
        for ell in (simulated, scored_block):
            assert ell.shape == (n1 - n0, k, batch) and ell.flags.c_contiguous
            assert ell.tobytes() == want
        streamed = model.increment_block(stream, slice(None), paths[:1, n0:n1], n0)[:, :, 0]
        assert streamed.shape == (n1 - n0, k)
        assert streamed.tobytes() == whole[0, n0:n1].tobytes()


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.SFC64])
def test_hmm_two_cursors_keep_the_stream(bit_generator):
    """Paths sampled in one block equal paths sampled in BLOCK-step pieces, and
    each generator ends where drawing all uniforms, then all normals, ends."""
    model = _layout_model("hmm")
    horizon, batch = 150, 6
    nus = np.array([0, 75, 150, 200, 30, 100])
    thetas = np.array([[0.8, 1.6], [0.4, 1.9], [1.3, -0.4]] * 2)  # one off the grid

    def rngs():
        return [np.random.Generator(bit_generator(seed)) for seed in range(batch)]

    whole_rngs, piece_rngs, clones = rngs(), rngs(), rngs()
    whole = model.sample_paths(nus, thetas, horizon, whole_rngs)
    state = model.sampler_state(nus, thetas, horizon, piece_rngs)
    scorer = model.increment_state(batch)
    pieces = [
        model.simulate_block(state, scorer, np.arange(batch), n0, min(n0 + BLOCK, horizon))[0]
        for n0 in range(0, horizon, BLOCK)
    ]
    assert np.concatenate(pieces, axis=1).tobytes() == whole.tobytes()
    for a, b, clone in zip(whole_rngs, piece_rngs, clones):
        clone.random(horizon + 1)
        clone.standard_normal(horizon)
        want = clone.random()
        assert a.random() == want and b.random() == want


def test_hmm_sampler_memory_does_not_grow_with_the_horizon():
    """sampler_state plus one block for 64 paths at horizon 10^5 peaks under
    2 MB; a table of every path's chain uniforms alone would be 51 MB."""
    import tracemalloc

    model = _layout_model("hmm")
    horizon, batch = 100_000, 64
    rngs = spawn_rngs(7, batch)
    nus = np.array([0, 10, 50, horizon] * (batch // 4))
    thetas = np.array([[0.8, 1.6], [0.4, 1.9], [1.3, -0.4], [0.8, 1.6]] * (batch // 4))
    tracemalloc.start()
    try:
        sampler = model.sampler_state(nus, thetas, horizon, rngs)
        model.simulate_block(sampler, model.increment_state(batch), np.arange(batch), 0, BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("name", ["gaussian", "ar"])
def test_sample_paths_memory_is_the_paths(name):
    """sample_paths keeps only the observations: it simulates BLOCK rows at a
    time and drops each block's increments, so 100 paths x 10^4 steps on a
    3-atom grid peak within 10% of the paths' size, not at 4x it or more."""
    import tracemalloc

    model = _layout_model(name)
    horizon, batch = 10_000, 100
    rngs = spawn_rngs(3, batch)
    nus = np.full(batch, horizon // 2)
    thetas = np.tile(model.grid.atoms[0], (batch, 1))
    tracemalloc.start()
    try:
        paths = model.sample_paths(nus, thetas, horizon, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths.shape == (batch, horizon, model.dimension)
    assert peak < 1.1 * paths.nbytes


@pytest.mark.parametrize(
    "name,model,atom",
    [
        ("gaussian", gaussian_iid_model(grid_from_atoms([[0.5], [1.0]])), 1),
        (
            "ar",
            multichannel_ar_model(
                ArChannelSpec(
                    ar_coeffs=((0.5,), (0.5,)),
                    signals=(HarmonicSignal(1.0, 0.5, 0.0), HarmonicSignal(1.0, 0.8, 0.3)),
                ),
                grid_from_atoms([[1.0, 1.0], [0.5, 0.5]]),
            ),
            0,
        ),
        (
            "hmm",
            hmm2_model(
                Hmm2Spec(theta0=(0.0, 1.0), beta=0.5, gamma=0.5),
                grid_from_atoms([[0.8, 1.8], [0.3, 1.4]]),
            ),
            0,
        ),
    ],
    ids=["gaussian", "ar", "hmm"],
)
def test_lln_surrogate(name, model, atom):
    """n^-1 * cumulative LLR at n = 5000 concentrates on the information number."""
    n, trials = 5000, 200
    rngs = spawn_rngs(66, trials)
    nus = np.zeros(trials, dtype=np.int64)
    thetas = np.tile(model.grid.atoms[atom], (trials, 1))
    paths = model.sample_paths(nus, thetas, n, rngs)
    lam = model.path_increments(paths)[:, :, atom].sum(axis=1) / n
    target = info_number(model, atom)
    se = lam.std(ddof=1) / math.sqrt(trials)
    assert abs(lam.mean() - target) < 3 * se, f"{lam.mean()} vs {target} (se {se})"
