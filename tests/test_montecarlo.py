"""Monte Carlo estimators: exact degenerate cases, consistency, reproducibility."""

import functools
import hashlib
import inspect
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixdetect import _engine, montecarlo
from mixdetect._engine import (
    BLOCK,
    CHUNK,
    GROUP,
    TrialData,
    TrialSpec,
    _alarm_floor,
    _draw_trials,
    _seed_state,
    run_chunk,
    trial_rng,
    trial_rngs,
)
from mixdetect.detectors import (
    NonFiniteIncrements,
    PriorSupportExhausted,
    _log_init,
    advance,
    log_statistic,
    run_detector,
)
from mixdetect.measures import (
    geometric_prior,
    grid_from_atoms,
    heavy_tail_prior,
    point_mass_prior,
)
from mixdetect.models import (
    ArChannelSpec,
    GaussianIidModel,
    HarmonicSignal,
    Hmm2Spec,
    MultichannelArModel,
    TwoStateHmmModel,
    gaussian_iid_model,
    hmm2_model,
    multichannel_ar_model,
)
from mixdetect.montecarlo import (
    EstimationError,
    ExperimentConfig,
    estimate_average_delay_risk,
    estimate_delay_moments,
    estimate_integrated_risk,
    estimate_pfa_posterior,
    estimate_pfa_tail,
    run_trials,
    slope_regression,
    statistic_at_horizon,
)

GRID = grid_from_atoms([[0.5], [1.0], [1.5]])
PRIOR = geometric_prior(0.1)


def make_config(**kw):
    grid = kw.pop("grid", GRID)
    defaults = dict(
        model=gaussian_iid_model(grid),
        prior=kw.pop("prior", PRIOR),
        detector="ms",
        omega=0.0,
        log_threshold=math.log(19.0),
        trials=2000,
        horizon=300,
        master_seed=1234,
        workers=1,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def drift_grid():
    return grid_from_atoms([[0.0]])


class TestSlopeRegression:
    def test_exact_line(self):
        ladder = [(x, 2.0 * x, 1.0) for x in (5, 6, 7, 8, 9)]
        fit = slope_regression(ladder)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_affine_intercept_absorbed(self):
        ladder = [(x, 2.0 * x + 5.0, 0.3) for x in (5, 6, 7, 8)]
        fit = slope_regression(ladder)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(5.0, abs=1e-10)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            slope_regression([(5, 10, 1), (6, 12, 1), (7, 14, 1)])

    def test_degenerate_ladder(self):
        with pytest.raises(ValueError):
            slope_regression([(5, 10, 1)] * 5)


class TestPfaTail:
    def test_unreachable_threshold_gives_horizon_tail(self):
        cfg = make_config(log_threshold=1e6, trials=200, horizon=100)
        est = estimate_pfa_tail(cfg)
        assert est.point == pytest.approx(float(PRIOR.tail(100)), rel=1e-12)
        assert est.stderr <= 1e-15 * est.point  # identical contributions, ulp noise
        assert est.censored == 200

    def test_degenerate_prior_pfa_zero(self):
        cfg = make_config(
            prior=point_mass_prior(0),
            detector="msr",
            log_threshold=math.log(5.0),
            trials=300,
            horizon=50,
        )
        est = estimate_pfa_tail(cfg)
        assert est.point == 0.0 and est.stderr == 0.0

    def test_bias_certificate_recorded(self):
        cfg = make_config(trials=500)
        est = estimate_pfa_tail(cfg)
        assert est.extras["censor_bias_upper_bound"] == pytest.approx(
            float(PRIOR.tail(300))
        )


class TestDelayMoments:
    @pytest.mark.parametrize("theta", [-1, 3, True])
    def test_bad_atom_index_rejected(self, theta):
        cfg = make_config(trials=10, horizon=20)
        with pytest.raises(ValueError):
            estimate_delay_moments(cfg, 0, theta)
        with pytest.raises(ValueError):
            estimate_average_delay_risk(cfg, theta)

    @pytest.mark.parametrize("k", [-1, 20, 80])
    def test_change_point_outside_horizon_rejected(self, k):
        # k >= horizon used to report horizon - k < 0 as every censored delay
        cfg = make_config(trials=10, horizon=20)
        with pytest.raises(ValueError, match=r"change point k must be in \[0, horizon = 20\)"):
            estimate_delay_moments(cfg, k, (1.0,))

    def test_immediate_stop_zero_variance(self):
        cfg = make_config(log_threshold=-50.0, trials=400, horizon=50)
        est = estimate_delay_moments(cfg, 0, (1.0,), r_list=[1.0])[1.0]
        assert est.point == 1.0 and est.stderr == 0.0

    def test_drift_only_crossing_exact(self):
        g = drift_grid()
        cfg = make_config(
            grid=g,
            detector="msr",
            log_threshold=math.log(10.5),
            trials=300,
            horizon=60,
        )
        est = estimate_delay_moments(cfg, 0, (0.0,), r_list=[1.0, 2.0])
        assert est[1.0].point == 11.0 and est[1.0].stderr == 0.0
        assert est[2.0].point == 121.0

    def test_second_moment_at_least_square_of_first(self):
        cfg = make_config(trials=1500, horizon=400)
        ests = estimate_delay_moments(cfg, 0, (1.0,), r_list=[1.0, 2.0])
        assert ests[2.0].point >= ests[1.0].point ** 2

    def test_off_grid_theta_supported(self):
        # true theta between atoms: a robustness probe, still estimable
        cfg = make_config(trials=600, horizon=300)
        est = estimate_delay_moments(cfg, 0, (0.8,), r_list=[1.0])[1.0]
        assert est.point > 1.0
        assert est.extras["theta"] == [0.8]

    def test_rejection_counted(self):
        # change at k = 30 with a low threshold: many trials stop before k
        cfg = make_config(log_threshold=math.log(3.0), trials=800, horizon=300)
        est = estimate_delay_moments(cfg, 30, (1.0,), r_list=[1.0])[1.0]
        assert est.extras["rejected"] > 0

    def test_no_survivors_is_an_error(self):
        g = drift_grid()
        cfg = make_config(
            grid=g, detector="msr", log_threshold=math.log(2.5), trials=50, horizon=60
        )
        # drift crosses at n = 3 < k = 10 on every trial
        with pytest.raises(EstimationError):
            estimate_delay_moments(cfg, 10, (0.0,), r_list=[1.0])


class TestAverageDelay:
    def test_point_mass_prior_reduces_to_conditional(self):
        g = drift_grid()
        cfg = make_config(
            grid=g,
            prior=point_mass_prior(0),
            detector="msr",
            log_threshold=math.log(10.5),
            trials=250,
            horizon=60,
        )
        avg = estimate_average_delay_risk(cfg, (0.0,), 1.0)
        cond = estimate_delay_moments(cfg, 0, (0.0,), r_list=[1.0])[1.0]
        assert avg.point == cond.point == 11.0
        assert avg.stderr == 0.0

    def test_bounded_by_conditional_extremes(self):
        cfg = make_config(trials=2500, horizon=400)
        avg = estimate_average_delay_risk(cfg, (1.0,), 1.0)
        lo = estimate_delay_moments(cfg, 0, (1.0,), r_list=[1.0], stream_tag=11)[1.0]
        hi = estimate_delay_moments(cfg, 25, (1.0,), r_list=[1.0], stream_tag=12)[1.0]
        lo_end = min(lo.point, hi.point) - 4 * max(lo.stderr, hi.stderr)
        hi_end = max(lo.point, hi.point) + 4 * max(lo.stderr, hi.stderr)
        assert lo_end <= avg.point <= hi_end


class TestIntegratedRisk:
    def test_zero_cost_equals_pfa(self):
        cfg = make_config(trials=4000, horizon=300)
        risk = estimate_integrated_risk(cfg, 0.0, 1.0)
        pfa = estimate_pfa_tail(cfg)
        lo1, hi1 = risk.ci95
        lo2, hi2 = pfa.ci95
        assert max(lo1, lo2) <= min(hi1, hi2), "95% CIs must overlap"

    def test_drift_stop_at_one_exact(self):
        g = drift_grid()
        cfg = make_config(
            grid=g, detector="msr", log_threshold=0.0, trials=500, horizon=40
        )
        c = 0.125
        est = estimate_integrated_risk(cfg, c, 1.0)
        # T = 1 surely: false alarm iff nu >= 1, delay 1 iff nu = 0
        expected = float(PRIOR.tail(1)) + c * float(np.exp(PRIOR.log_pmf(0)))
        assert est.point == pytest.approx(expected, abs=3.5 * est.stderr + 1e-12)


# horizon 10: a detection (T = 5 > nu = 2), a false alarm (T = nu = 3), a
# censored trial (nu = 4), an unstopped trial with nu at the horizon, and a
# false alarm at T = nu = horizon
OUTCOME_TRIALS = TrialData(
    stop_times=np.array([5, 3, 0, 0, 10]),
    log_stat_at_stop=np.array([3.0, 3.0, np.nan, np.nan, 3.0]),
    nus=np.array([2, 3, 4, 10, 10]),
)


class TestOutcomes:
    def test_each_trial_classified_once(self):
        delays, detected, false_alarm, censored = montecarlo._outcomes(OUTCOME_TRIALS, 10)
        assert delays.tolist() == [3, 0, 6, 0, 0]
        assert detected.tolist() == [True, False, False, False, False]
        assert false_alarm.tolist() == [False, True, False, False, True]
        assert censored.tolist() == [False, False, True, False, False]

    def test_estimators_reduce_the_classification(self, monkeypatch):
        """Both delay estimators keep the detection and the censored trial; the
        risk counts every unstopped trial as censored, nu at the horizon too."""
        monkeypatch.setattr(montecarlo, "run_trials", lambda config, spec: OUTCOME_TRIALS)
        cfg = make_config(trials=5, horizon=10)
        ests = estimate_delay_moments(cfg, 2, (1.0,), r_list=[1.0, 2.0])
        assert (ests[1.0].point, ests[2.0].point) == (4.5, 22.5)
        avg = estimate_average_delay_risk(cfg, (1.0,), 2.0)
        assert avg.point == 22.5 and avg.extras["nu_beyond_horizon"] == 2
        for est in (ests[1.0], avg):
            assert (est.trials, est.censored, est.extras["rejected"]) == (2, 1, 2)
            assert est.extras["censor_rate"] == 0.5 and not est.extras["reliable"]
        assert "nu_beyond_horizon" not in ests[1.0].extras
        risk = estimate_integrated_risk(cfg, 0.5, 1.0)
        assert risk.point == (0.5 * 3 + 1.0 + 0.5 * 6 + 0.0 + 1.0) / 5
        assert (risk.trials, risk.censored, risk.extras["censor_rate"]) == (5, 2, 0.4)
        assert risk.extras["false_alarm_fraction"] == 0.4

    def test_pfa_posterior_censored_trials_raise_no_warning(self):
        """Censored trials carry a NaN statistic, which contributes zero."""
        cfg = make_config(log_threshold=1e6, trials=50, horizon=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_pfa_posterior(cfg)
        assert est.censored == 50 and est.point == 0.0


class TestEstimatorContracts:
    def test_stderr_scaling_with_trials(self):
        est1 = estimate_pfa_tail(make_config(trials=2000))
        est2 = estimate_pfa_tail(make_config(trials=4000))
        ratio = est1.stderr / est2.stderr
        assert math.sqrt(2.0) * 0.9 <= ratio <= math.sqrt(2.0) * 1.1

    def test_pfa_estimators_agree(self):
        cfg = make_config(trials=4000, horizon=300)
        tail = estimate_pfa_tail(cfg)
        post = estimate_pfa_posterior(cfg)
        lo1, hi1 = tail.ci95
        lo2, hi2 = post.ci95
        assert max(lo1, lo2) <= min(hi1, hi2), (tail, post)

    def test_pfa_posterior_needs_ms(self):
        cfg = make_config(detector="msr", log_threshold=math.log(900.0))
        with pytest.raises(ValueError):
            estimate_pfa_posterior(cfg)

    def test_conditional_delay_nonincreasing_in_k(self):
        cfg = make_config(trials=3000, horizon=400)
        means = []
        for i, k in enumerate((0, 5, 10, 20)):
            est = estimate_delay_moments(cfg, k, (1.0,), r_list=[1.0], stream_tag=50 + i)[
                1.0
            ]
            means.append((est.point, est.stderr))
        for (m1, s1), (m2, s2) in zip(means, means[1:]):
            assert m2 <= m1 + 3.0 * math.hypot(s1, s2)

    def test_worker_count_invariance(self, payload_counts):
        est1 = estimate_pfa_tail(make_config(trials=CHUNK + 905, workers=1))
        est2 = estimate_pfa_tail(make_config(trials=CHUNK + 905, workers=3))
        assert est1 == est2
        assert payload_counts == [2, 2]  # so the second run opened a pool

    def test_same_seed_identical(self):
        a = estimate_delay_moments(make_config(), 0, (1.0,), r_list=[1.0])[1.0]
        b = estimate_delay_moments(make_config(), 0, (1.0,), r_list=[1.0])[1.0]
        assert a == b


class TestEngineMatchesStreamingDetector:
    def test_stop_times_and_statistics_agree(self):
        cfg = make_config(trials=64, horizon=120)
        spec = TrialSpec(nu=4, theta=(1.0,), stream_tag=5)
        td = run_trials(cfg, spec)
        model = cfg.model
        for i in range(cfg.trials):
            rng = trial_rng(cfg.master_seed, 5, i)
            path = model.sample_paths(
                np.array([4]), np.array([[1.0]]), cfg.horizon, [rng]
            )[0]
            rec = run_detector(
                "ms", model, cfg.prior, cfg.log_threshold, path, horizon=120
            )
            if rec.censored:
                assert td.stop_times[i] == 0
            else:
                assert td.stop_times[i] == rec.stop_time
                assert td.log_stat_at_stop[i] == rec.log_stat_at_stop


# ---------------------------------------------------------------------------
# Block-stepped engine: values must not depend on where time blocks fall.
# ---------------------------------------------------------------------------

BLOCK_MODELS = {
    "gaussian": lambda: gaussian_iid_model(GRID),
    # order 2 in one channel, order 1 in the other: lags and filter state
    # both carry across block boundaries
    "ar": lambda: multichannel_ar_model(
        ArChannelSpec(
            ar_coeffs=((0.5, -0.2), (0.3,)),
            signals=(HarmonicSignal(1.0, 0.3, 0.0), HarmonicSignal(0.8, 0.0, math.pi / 2)),
        ),
        grid_from_atoms([[0.5, 0.5], [1.0, 0.5], [0.5, 1.0]]),
    ),
    "hmm": lambda: hmm2_model(
        Hmm2Spec(theta0=(0.0, 1.0), beta=0.2, gamma=0.4),
        grid_from_atoms([[0.5, 2.0], [1.0, 2.5]]),
    ),
}

BLOCK_SPECS = {
    "fixed": lambda grid: TrialSpec(nu=40, theta=tuple(grid.atoms[-1]), stream_tag=21),
    "prior": lambda grid: TrialSpec(q_short_circuit=True, stream_tag=22),
    "no_change": lambda grid: TrialSpec(nu=math.inf, stream_tag=23),
}


def _trial_path(cfg, spec, i):
    """Trial i's path, drawn from its own stream exactly as the engine draws it."""
    rng = trial_rng(cfg.master_seed, spec.stream_tag, i)
    nus, thetas = _draw_trials(spec, cfg.prior, cfg.model.grid, cfg.horizon, [rng])
    return cfg.model.sample_paths(nus, thetas, cfg.horizon, [rng])[0]


def _streaming(cfg, path, log_threshold):
    return run_detector(
        cfg.detector,
        cfg.model,
        cfg.prior,
        log_threshold,
        path,
        horizon=cfg.horizon,
        omega=cfg.omega,
    )


@functools.cache
def _block_reference(model_name, detector, mode, horizon):
    """The streaming values that test_block_boundaries_match_streaming checks
    the engine against: they do not depend on GROUP, so each case computes
    them once for all of its GROUP values."""
    model = BLOCK_MODELS[model_name]()
    cfg = ExperimentConfig(
        model=model,
        prior=geometric_prior(0.02, q=0.1),
        detector=detector,
        omega=0.5,
        log_threshold=0.0,
        trials=24,
        horizon=horizon,
        master_seed=4242,
    )
    spec = BLOCK_SPECS[mode](model.grid)
    paths = [_trial_path(cfg, spec, i) for i in range(cfg.trials)]

    # the streaming statistic over the whole horizon, per trial
    never = 1e300
    final = np.array([_streaming(cfg, p, never).log_stat_at_stop for p in paths])

    # a threshold that about half the trials reach within the first block
    # (or the horizon, if shorter), so stops fall on both sides of it
    pivot = min(horizon, BLOCK)
    early_max = []
    for p in paths:
        rec = run_detector(
            detector, model, cfg.prior, never, p[:pivot],
            record_trajectory=True, omega=cfg.omega,
        )
        early_max.append(rec.trajectory[:, 1].max())
    log_a = float(np.median(early_max))
    return cfg, spec, final, log_a, [_streaming(cfg, path, log_a) for path in paths]


# GROUP 1024, 8 and 1 give the 24 trials a first block of 64, 21 and 2 steps
# and later blocks of one group, 3 groups of 8 and 24 groups of 1; the
# engine's own GROUP keeps the ids the test had before GROUP existed
@pytest.mark.parametrize(
    "horizon,group",
    [
        pytest.param(h, g, id=f"{h}" if g == GROUP else f"{h}-group{g}")
        for g in (GROUP, 8, 1)
        for h in (1, 63, 64, 65, 130)
    ],
)
@pytest.mark.parametrize("mode", sorted(BLOCK_SPECS))
@pytest.mark.parametrize("detector", ["ms", "msr"])
@pytest.mark.parametrize("model_name", sorted(BLOCK_MODELS))
def test_block_boundaries_match_streaming(model_name, detector, mode, horizon, group, monkeypatch):
    monkeypatch.setattr(_engine, "GROUP", group)
    cfg, spec, final, log_a, recs = _block_reference(model_name, detector, mode, horizon)
    np.testing.assert_array_equal(statistic_at_horizon(cfg, spec), final)

    pivot = min(horizon, BLOCK)
    td = run_trials(replace(cfg, log_threshold=log_a), spec)
    for i, rec in enumerate(recs):
        # a censored trial carries its statistic at the horizon, as streaming does
        assert td.stop_times[i] == (0 if rec.censored else rec.stop_time)
        got, want = np.array([td.log_stat_at_stop[i], rec.log_stat_at_stop])
        assert got.view(np.uint64) == want.view(np.uint64)
    stops = td.stop_times
    assert np.any((stops >= 1) & (stops <= pivot))
    if horizon >= 2 * BLOCK:
        assert np.any(stops > BLOCK), "no stop past the first block"


def test_chunk_wider_than_block_times_group_moves(monkeypatch):
    """With more than BLOCK * GROUP trials in a chunk, block 0 still runs one
    step, so the chunk ends and gives the values of the engine's own GROUP."""
    cfg = make_config(detector="msr", log_threshold=math.log(1e3), trials=100, horizon=150)
    spec = TrialSpec(nu=50, theta=(1.0,), stream_tag=5)
    want = run_trials(cfg, spec)
    real = GaussianIidModel.simulate_block

    def moving(self, sampler, scorer, rows, n0, n1):
        assert n1 > n0, f"an empty block at step {n0}"
        return real(self, sampler, scorer, rows, n0, n1)

    monkeypatch.setattr(GaussianIidModel, "simulate_block", moving)
    monkeypatch.setattr(_engine, "GROUP", 1)
    got = run_trials(cfg, spec)
    assert got.stop_times.tobytes() == want.stop_times.tobytes()
    assert got.log_stat_at_stop.tobytes() == want.log_stat_at_stop.tobytes()
    # stops on both sides of the block ends at 64 (GROUP 1024) and 65 (GROUP 1)
    assert np.any(want.stop_times <= BLOCK) and np.any(want.stop_times > BLOCK + 1)


# the block-boundary models with AR(2) in both channels
BOUND_MODELS = {
    **BLOCK_MODELS,
    "ar": lambda: multichannel_ar_model(
        ArChannelSpec(
            ar_coeffs=((0.5, -0.2), (0.3, 0.1)),
            signals=(HarmonicSignal(1.0, 0.3, 0.0), HarmonicSignal(0.8, 0.0, math.pi / 2)),
        ),
        grid_from_atoms([[0.5, 0.5], [1.0, 0.5], [0.5, 1.0]]),
    ),
}


@pytest.mark.parametrize("model_name", sorted(BOUND_MODELS))
def test_simulate_block_calls_stay_within_block_memory(model_name, monkeypatch):
    """Every ``simulate_block`` call covers at most BLOCK * GROUP trial-steps:
    block 0 of a full chunk is short, and later blocks are split into groups."""
    model = BOUND_MODELS[model_name]()
    calls = []
    real = type(model).simulate_block

    def recording(self, sampler, scorer, rows, n0, n1):
        calls.append((n0, len(rows) * (n1 - n0)))
        return real(self, sampler, scorer, rows, n0, n1)

    monkeypatch.setattr(type(model), "simulate_block", recording)
    # a threshold few trials reach, so most are live after block 0
    cfg = make_config(
        model=model, detector="msr", log_threshold=math.log(1e4), trials=CHUNK + 5, horizon=40
    )
    spec = TrialSpec(nu=math.inf, stream_tag=11)
    for log_a in (cfg.log_threshold, None):
        calls.clear()
        run_trials(replace(cfg, log_threshold=log_a), spec)
        assert max(cells for _, cells in calls) <= BLOCK * GROUP
        # the chunk's later blocks formed full groups
        assert sum(n0 > 0 and cells == GROUP * (40 - n0) for n0, cells in calls) >= 2


@pytest.mark.parametrize("order", [3, 4, 5])
def test_short_high_order_ar_paths_match_streaming(order):
    """Paths of 1 .. p + 2 rows under an AR(p) channel agree with streaming to the bit.

    np.convolve orders its sums by which input is longer, so a whitened-signal
    table of at most p + 1 rows would end in other bits than a stream's.
    """
    rng = np.random.default_rng(order)
    roots = rng.uniform(-0.9, 0.9, order)  # a stable AR polynomial
    model = multichannel_ar_model(
        ArChannelSpec(
            ar_coeffs=(tuple(-np.poly(roots)[1:]),),
            signals=(HarmonicSignal(*rng.uniform([0.5, 0.1, 0.0], [1.5, 1.0, math.pi])),),
        ),
        grid_from_atoms([[0.5], [1.0], [1.5]]),
    )
    spec = TrialSpec(q_short_circuit=True, stream_tag=24)
    for horizon in range(1, order + 3):
        for detector in ("ms", "msr"):
            cfg = ExperimentConfig(
                model=model,
                prior=geometric_prior(0.02, q=0.1),
                detector=detector,
                omega=0.5,
                log_threshold=0.0,
                trials=8,
                horizon=horizon,
                master_seed=order,
            )
            paths = [_trial_path(cfg, spec, i) for i in range(cfg.trials)]
            stream = [_streaming(cfg, p, 1e300).log_stat_at_stop for p in paths]
            assert statistic_at_horizon(cfg, spec).tobytes() == np.array(stream).tobytes()
        for x in paths:
            scorer = model.increment_state(1)
            steps = np.array([model.step(scorer, row, n) for n, row in enumerate(x)])
            assert model.increments_for(x).tobytes() == steps.tobytes()


@pytest.mark.parametrize(
    "k0,horizon,log_threshold,no_stopping,raises",
    [
        (70, 70, math.log(19.0), False, False),  # support outlasts the horizon
        (70, 71, math.log(19.0), False, True),
        (70, 130, math.log(19.0), False, True),
        (63, 64, math.log(19.0), False, True),  # exhausted on a block's last step
        (64, 65, math.log(19.0), False, True),  # exhausted on a block's first step
        (70, 130, -np.inf, False, False),  # every trial stops at n = 1 first
        (70, 130, -np.inf, True, True),  # the final statistic needs every step
    ],
)
def test_prior_support_exhausted_unchanged(k0, horizon, log_threshold, no_stopping, raises):
    cfg = make_config(
        prior=point_mass_prior(k0),
        log_threshold=None if no_stopping else log_threshold,
        trials=40,
        horizon=horizon,
    )
    spec = TrialSpec(nu=math.inf, stream_tag=9)
    if raises:
        with pytest.raises(PriorSupportExhausted, match=rf"Pi\({k0 + 1}\)"):
            run_trials(cfg, spec)
    else:
        td = run_trials(cfg, spec)
        expected = 1 if log_threshold == -np.inf else 0
        assert np.all(td.stop_times == expected)


@pytest.mark.parametrize("log_threshold", [math.inf, math.nan], ids=["inf", "nan"])
def test_threshold_that_no_statistic_reaches_refused(log_threshold):
    """+inf and NaN would censor every trial (+inf with an inf - inf warning
    in the alarm floor); None and -inf stay the two non-finite settings."""
    message = f"log_threshold must be finite or -inf, got {log_threshold}"
    with pytest.raises(ValueError, match=message):
        make_config(log_threshold=log_threshold)


@pytest.mark.parametrize("log_threshold", [math.inf, math.nan], ids=["inf", "nan"])
def test_alarm_loop_refuses_what_the_engine_refuses(log_threshold):
    message = f"log_threshold must be finite or -inf, got {log_threshold}"
    with pytest.raises(ValueError, match=message):
        run_detector("ms", gaussian_iid_model(GRID), PRIOR, log_threshold, np.zeros(3))


@pytest.mark.parametrize("detector", ["ms", "msr"])
@pytest.mark.parametrize("model_name", sorted(BLOCK_MODELS))
def test_alarm_loop_stops_at_row_one_at_minus_inf(model_name, detector):
    """At log A = -inf the alarm loop, as the engine, stops every path at row 1,
    with the engine's statistic there bit for bit."""
    cfg = ExperimentConfig(
        model=BLOCK_MODELS[model_name](), prior=geometric_prior(0.02, q=0.1),
        detector=detector, omega=0.5, log_threshold=-math.inf, trials=8, horizon=20,
        master_seed=77,
    )
    spec = TrialSpec(q_short_circuit=True, stream_tag=6)
    td = run_trials(cfg, spec)
    assert (td.stop_times == 1).all()
    for i in range(cfg.trials):
        rec = _streaming(cfg, _trial_path(cfg, spec, i), -math.inf)
        assert rec.stop_time == 1
        assert np.float64(rec.log_stat_at_stop).tobytes() == td.log_stat_at_stop[i].tobytes()


def _huge_mean_run(log_threshold, **kw):
    """A symmetric-HMM MSR run whose paths change at nu = 5 to a state mean of
    1e200, which overflows every increment from step 6 on."""
    spec = Hmm2Spec(theta0=(0.0, 1.0), beta=0.5, gamma=0.5)
    cfg = make_config(
        model=hmm2_model(spec, grid_from_atoms([[0.8, 1.8]])), detector="msr",
        log_threshold=log_threshold, trials=40, horizon=50, **kw,
    )
    return run_trials(cfg, TrialSpec(nu=5, theta=(1e200, 2.0), stream_tag=4))


def test_non_finite_increments_refused_at_their_step():
    """The engine refuses the first step at which a live trial's increments
    are not finite, as the alarm loop refuses the row, and keeps that step
    through a worker's pickle; NumPy warns of nothing."""
    with pytest.raises(NonFiniteIncrements, match="^step 6: LLR increments overflow$") as info:
        _huge_mean_run(math.log(1e6))
    assert info.value.row == 6
    copy = pickle.loads(pickle.dumps(info.value))
    assert (str(copy), copy.row) == (str(info.value), 6)


def test_non_finite_increments_after_every_alarm_pass():
    """Trials that all alarm at step 1 never reach the overflowing step."""
    assert np.all(_huge_mean_run(-np.inf).stop_times == 1)


def test_huge_atom_refused_under_no_change():
    """An atom of 1e200 makes its increment theta x - theta^2/2 = -inf at every
    step: a PFA run is refused at step 1, as detect refuses row 1."""
    cfg = make_config(grid=grid_from_atoms([[1.0], [1e200]]), trials=8, horizon=20)
    with pytest.raises(NonFiniteIncrements, match="^step 1: "):
        estimate_pfa_tail(cfg)


@pytest.mark.parametrize("theta", [[math.nan], [math.inf]])
def test_non_finite_delay_theta_rejected(theta):
    """A delay run at a NaN theta would censor every trial, with a warning each."""
    with pytest.raises(ValueError, match="^expected finite components$"):
        estimate_delay_moments(make_config(trials=8, horizon=20), 0, theta)


# SHA-256 of per-trial outputs, recorded before the engine was block-stepped
# (200 trials, horizon 150, so stops fall in all three blocks; numpy 2.4,
# scipy 1.17).  A change of any per-trial random value or statistic shows
# here even if streaming and lockstep paths still agree with each other.
# "censored_log_stat", the censored trials' statistics at the horizon, was
# recorded when censored trials began to carry them.
PINNED_DIGESTS = {
    "gaussian-ms": {
        "stop_times": "29d93d976ec427d4775430d69c827137effe361d475712c34c6aeaa27fa571f4",
        "log_stat_at_stop": "72bc4cf15bd682073367c657813438e84c82c420dd7dfe1d0d8dc83d84c05a31",
        "nus": "737b82ff264add6de6331b17a8aab697ea53e054f70ff30a1e42aaf6860df505",
        "final_log_stat": "be1218210cd46d2cac5431976f327e1baeb387e103e0c42d4ca826ae55d9e54e",
        "censored_log_stat": "6c2a384ad668bf4fadc776ca502c1de5117ed2f3bdd4c2ddd55c33cd42e57248",
    },
    "gaussian-msr": {
        "stop_times": "9c071eb6792f0707edf2261686256edcb7467bbbf0fd12df4906325f23bb6cae",
        "log_stat_at_stop": "25cac863abbeec7cbb28a66e2321402961360b6fdc1f7194f11c09ada3ba5190",
        "nus": "61257e48d2aa24a23a8df4aa7e07dc7513c05d1af69d309cc9634832764e1249",
        "final_log_stat": "9a9df6155a746cf87af6a2696f17fddf8f90ed77e28bf1f5c643c8b48101fd20",
        "censored_log_stat": "28f5a87cb1413a729afa341732d82e29f46ae48096185e3ab44cd6eefc89d3d0",
    },
    "ar-ms": {
        "stop_times": "525e13ddd0284cd8da0d79c89bcd03194d9a8620e3e622361e29dc8308ce9e7c",
        "log_stat_at_stop": "e0841eb08b61a62512b8beb3942e2c52812cb309ec5fd3b06d9df83fde3cc127",
        "nus": "737b82ff264add6de6331b17a8aab697ea53e054f70ff30a1e42aaf6860df505",
        "final_log_stat": "c71a34b6a4aecab73157bed902faaa451e71a85202d73f21b037e80aa830e82c",
        "censored_log_stat": "312850b6b4db630135ab28386dc5e42327ddccfc08ab496f4d72a17686b9ad00",
    },
    "ar-msr": {
        "stop_times": "961e8c8ba6b4a2b318df0dde723e4cbb94c5688b9a1beb6ab394a7c584119736",
        "log_stat_at_stop": "46dd3e21207683790bee7605543ce0b3fe22c745df7ecbb2978449fc957ddde6",
        "nus": "61257e48d2aa24a23a8df4aa7e07dc7513c05d1af69d309cc9634832764e1249",
        "final_log_stat": "8400f2410004ebc590f9f987921691fcd11dfd4f6b542972c703dace56757c57",
        "censored_log_stat": "55404608d27541d77cacebfff3bea220dd2459ae6c9d849164baffc99f7571a2",
    },
    "hmm-ms": {
        "stop_times": "b96a9528d0b6e91226a1b0ac8cb1742529139f1eefd4cce8a488bc04b753d876",
        "log_stat_at_stop": "b168395a4299c59256d5b4c312de0cf4a05c6fb69a33d6990884460b5d5aae5b",
        "nus": "737b82ff264add6de6331b17a8aab697ea53e054f70ff30a1e42aaf6860df505",
        "final_log_stat": "d795b195aa3fefa0653aaf619e2f4b1dd55a90ebb21b4cdcee391b130fa1e8d1",
        "censored_log_stat": "26d3f048939458afbb6e4257772ec75c9e59b8db65a744855ef49b4bceeb0636",
    },
    "hmm-msr": {
        "stop_times": "6fb93d4d2ff1102de0af22b29607e9c0b2d4470f0f524cb6a19ba5cc032bb204",
        "log_stat_at_stop": "90550bbbc125c984c9424221fb6c938744b41e5f0eaac817748d689f65c259fd",
        "nus": "61257e48d2aa24a23a8df4aa7e07dc7513c05d1af69d309cc9634832764e1249",
        "final_log_stat": "d8c410ba3cce86fa8b20c380a5c56570e1c4f5882917647fbe86fe8d999c2a32",
        "censored_log_stat": "3837ecc110c9d6beb0556b76a60da83e287725067c6deeea8c47673b31d2d698",
    },
}


def _pinned_config(model, detector):
    return ExperimentConfig(
        model=model,
        prior=geometric_prior(0.02, q=0.1),
        detector=detector,
        omega=0.5,
        log_threshold=math.log(40.0 if detector == "ms" else 150.0),
        trials=200,
        horizon=150,
        master_seed=31337,
    )


def _sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("detector", ["ms", "msr"])
@pytest.mark.parametrize("model_name", sorted(BLOCK_MODELS))
def test_pinned_per_trial_values(model_name, detector):
    cfg = _pinned_config(BLOCK_MODELS[model_name](), detector)
    stopped = run_trials(
        cfg, TrialSpec(q_short_circuit=detector == "ms", stream_tag=7)
    )
    whole = run_trials(
        replace(cfg, log_threshold=None), TrialSpec(stream_tag=8)
    )
    censored = stopped.stop_times == 0
    got = {
        "stop_times": _sha256(stopped.stop_times),
        # recorded when censored trials carried NaN
        "log_stat_at_stop": _sha256(np.where(censored, np.nan, stopped.log_stat_at_stop)),
        "nus": _sha256(stopped.nus),
        # recorded when a run without a threshold kept its statistics in a field of their own
        "final_log_stat": _sha256(whole.log_stat_at_stop),
        "censored_log_stat": _sha256(stopped.log_stat_at_stop[censored]),
    }
    assert got == PINNED_DIGESTS[f"{model_name}-{detector}"]


def test_benchmark_hook_points(monkeypatch):
    """Names that perfbench/tracer.py wraps by class __dict__ and by position."""
    for cls in (GaussianIidModel, MultichannelArModel, TwoStateHmmModel):
        for name in ("sample_paths", "path_increments", "step"):
            assert name in cls.__dict__, f"{cls.__name__}.{name}"
    params = list(inspect.signature(montecarlo.run_chunk).parameters)
    assert params[5] == "log_threshold"
    assert params[6] == "horizon"
    assert params[10] == "count"

    calls = []
    real = montecarlo.run_chunk

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_chunk", recording)
    cfg = make_config(trials=CHUNK + 5, horizon=20)
    run_trials(cfg, TrialSpec(nu=math.inf))
    assert [args[10] for args, _ in calls] == [CHUNK, 5]
    for args, kwargs in calls:
        assert len(args) == 11 and not kwargs
        assert args[5] == cfg.log_threshold and args[6] == 20


def test_pool_has_at_most_one_process_per_chunk(monkeypatch):
    """A worker count above the number of chunks opens no more processes."""
    import concurrent.futures

    sizes = []

    class SerialPool:  # records its size and maps in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = make_config(trials=CHUNK + 5, horizon=40, workers=5000)
    spec = TrialSpec(nu=math.inf, stream_tag=3)
    pooled = run_trials(cfg, spec)
    assert sizes == [2]
    serial = run_trials(replace(cfg, workers=1), spec)
    assert sizes == [2]
    for name in ("stop_times", "log_stat_at_stop", "nus"):
        assert getattr(pooled, name).tobytes() == getattr(serial, name).tobytes()


@pytest.mark.parametrize("no_stopping", [False, True])
def test_run_trials_joins_its_chunks_field_by_field(no_stopping):
    """run_trials over CHUNK + 5 trials is its two run_chunk parts, every
    field joined in trial order, with or without a threshold."""
    from dataclasses import fields

    cfg = make_config(trials=CHUNK + 5, horizon=40)
    if no_stopping:
        cfg = replace(cfg, log_threshold=None)
    spec = TrialSpec(stream_tag=7)
    whole = run_trials(cfg, spec)
    args = (cfg.model, cfg.prior, cfg.model.grid, cfg.detector, cfg.omega)
    parts = [
        run_chunk(*args, cfg.log_threshold, cfg.horizon, spec, cfg.master_seed, start, count)
        for start, count in ((0, CHUNK), (CHUNK, 5))
    ]
    for f in fields(whole):
        got = getattr(whole, f.name)
        want = np.concatenate([getattr(p, f.name) for p in parts])
        assert got.dtype == want.dtype and got.shape == (CHUNK + 5,)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Batched seeding: each trial's stream is the one its own SeedSequence gives.
# ---------------------------------------------------------------------------

WORD = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=WORD, tag=WORD, index=WORD)
@example(seed=0, tag=0, index=0)
@example(seed=2**32 - 1, tag=2**32 - 1, index=2**32 - 1)
@example(seed=20240601, tag=0, index=1)
def test_seed_state_matches_seed_sequence(seed, tag, index):
    want = np.random.SeedSequence([seed, tag, index]).generate_state(4, np.uint64)
    got = _seed_state([seed, tag, np.array([index, index])])
    assert got.dtype == np.uint64 and got.shape == (2, 4)
    np.testing.assert_array_equal(got, [want, want])


def test_seed_state_over_a_range_of_trials():
    idx = np.arange(2 * CHUNK + 3)
    got = _seed_state([1234, 5, idx])
    want = [np.random.SeedSequence([1234, 5, int(i)]).generate_state(4, np.uint64) for i in idx]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "master_seed,stream_tag,start,one_word",
    [
        (1234, 9, CHUNK - 3, True),  # spans a chunk boundary
        (0, 0, 0, True),
        (2**32 - 1, 2**32 - 1, 2**32 - 6, True),  # largest one-word values
        (2**32, 9, 0, False),  # a two-word seed
        (7, 2**40, 0, False),  # a two-word stream tag
        (7, 9, 2**32 - 3, False),  # indices cross into two words
    ],
)
def test_trial_rngs_match_trial_rng(master_seed, stream_tag, start, one_word):
    count = 6
    assert (max(master_seed, stream_tag, start + count - 1) < 2**32) == one_word
    rngs = trial_rngs(master_seed, stream_tag, start, count)
    assert len(rngs) == count
    for i, rng in zip(range(start, start + count), rngs):
        ref = trial_rng(master_seed, stream_tag, i)
        # every row, one-word or not, is seeded by the batched hash
        assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)
        np.testing.assert_array_equal(rng.standard_normal(7), ref.standard_normal(7))
        np.testing.assert_array_equal(rng.random(5), ref.random(5))
        np.testing.assert_array_equal(rng.standard_normal((3, 2)), ref.standard_normal((3, 2)))


def test_trial_rngs_empty_and_invalid_seed():
    assert trial_rngs(1, 2, 10, 0) == []
    # a negative entry raises, as SeedSequence does
    with pytest.raises(ValueError):
        trial_rngs(-1, 0, 0, 2)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    tag=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**33),
    count=st.integers(0, 8),
)
@example(seed=2**32, tag=0, start=2**32 - 4, count=8)
@example(seed=2**100 + 17, tag=2**33 + 1, start=0, count=3)
@example(seed=2**128 - 1, tag=2**64 - 1, start=2**33, count=8)
def test_trial_rngs_states_match_seed_sequence(seed, tag, start, count):
    """Every generator's state is its own SeedSequence's, for seeds and
    stream tags of several words and indices on both sides of 2^32."""
    rngs = trial_rngs(seed, tag, start, count)
    assert len(rngs) == count
    for k, rng in enumerate(rngs):
        want = np.random.default_rng(np.random.SeedSequence([seed, tag, start + k]))
        assert rng.bit_generator.state == want.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(words=st.lists(WORD, min_size=5, max_size=8))
def test_seed_state_mixes_words_past_the_pool(words):
    """Words past SeedSequence's 4-word pool are mixed into every pool word."""
    want = np.random.SeedSequence(words).generate_state(4, np.uint64)
    np.testing.assert_array_equal(_seed_state(words), [want])


@pytest.mark.parametrize("master_seed,stream_tag", [(2**40 + 7, 3), (5, 2**32)])
def test_trial_rngs_never_seeds_one_trial_at_a_time(monkeypatch, master_seed, stream_tag):
    """A seed or stream tag of two words is hashed in the one batched pass."""

    def refuse(*args):
        raise AssertionError("trial_rngs called trial_rng")

    monkeypatch.setattr(_engine, "trial_rng", refuse)
    rngs = trial_rngs(master_seed, stream_tag, 0, 4)
    for i, rng in enumerate(rngs):
        want = np.random.default_rng(np.random.SeedSequence([master_seed, stream_tag, i]))
        assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("q_short_circuit", [False, True])
@pytest.mark.parametrize("theta", [None, (1.0,)])
def test_draw_trials_keeps_per_trial_uniform_order(q_short_circuit, theta):
    """(nu, theta) per trial as drawn one uniform at a time from its own stream."""
    prior = heavy_tail_prior(2.0, q=0.2)
    spec = TrialSpec(theta=theta, q_short_circuit=q_short_circuit, stream_tag=3)
    count, horizon = 600, 400
    nus, thetas = _draw_trials(spec, prior, GRID, horizon, trial_rngs(99, 3, 0, count))
    for i in range(count):
        rng = trial_rng(99, 3, i)
        if q_short_circuit and rng.random() < prior.q:
            nu = 0
        else:
            nu = prior.sample(rng)
        assert nus[i] == min(nu, horizon)
        want = GRID.atoms[GRID.sample_index(rng)] if theta is None else theta
        np.testing.assert_array_equal(thetas[i], want)
    assert 0 < (nus == 0).sum() < count and (nus == horizon).any()


@pytest.mark.parametrize("nu", [0, 37, 400, 10**6, math.inf])
def test_fixed_change_point_with_drawn_atom(nu):
    """TrialSpec(nu=k) fixes the change point, capped at the horizon, and draws
    each trial's atom from W as its stream's first uniform, unless nu is inf,
    which draws nothing; the engine then samples each path from there."""
    spec = TrialSpec(nu=nu, stream_tag=4)
    count, horizon = 600, 400
    rngs = trial_rngs(99, 4, 0, count)
    nus, thetas = _draw_trials(spec, PRIOR, GRID, horizon, rngs)
    assert (nus == min(nu, horizon)).all()
    for i, rng in enumerate(rngs):
        want = trial_rng(99, 4, i)
        atom = np.zeros(GRID.dimension) if nu == math.inf else GRID.atoms[GRID.sample_index(want)]
        np.testing.assert_array_equal(thetas[i], atom)
        assert rng.random() == want.random()
    assert len(np.unique(thetas, axis=0)) == (1 if nu == math.inf else GRID.size)

    cfg = make_config(trials=32, horizon=120)
    td = run_trials(cfg, spec)
    for i in range(cfg.trials):
        rec = _streaming(cfg, _trial_path(cfg, spec, i), cfg.log_threshold)
        assert td.stop_times[i] == (0 if rec.censored else rec.stop_time)
        assert td.log_stat_at_stop[i] == rec.log_stat_at_stop


# ---------------------------------------------------------------------------
# In-block compaction: alarmed trials leave the recursion mid-block.
# ---------------------------------------------------------------------------


def _compactions(stop_times, horizon):
    """(n0, n, rows before, rows live after, compacted) per step that meets the rule.

    The rule is the engine's: after a step where trials alarm, drop them if
    at most half of the block's current rows are live and the block has
    steps left.  A step that meets it on a block's last step is listed with
    compacted False.
    """
    stops = np.where(stop_times == 0, horizon + 1, stop_times)
    out = []
    for n0 in range(0, horizon, BLOCK):
        n1 = min(n0 + BLOCK, horizon)
        size = int(np.sum(stops > n0))
        for n in range(n0 + 1, n1 + 1):
            live = int(np.sum(stops > n))
            if size and np.any(stops == n) and 2 * live <= size:
                out.append((n0, n, size, live, n < n1))
                if n < n1:
                    size = live
    return out


def _drift_config(detector, log_threshold, master_seed, **kw):
    return make_config(
        detector=detector, log_threshold=log_threshold, trials=100, horizon=130,
        master_seed=master_seed, **kw,
    )


DRIFT_SPEC = TrialSpec(nu=0, theta=(1.0,), stream_tag=3)


@pytest.mark.parametrize(
    "detector,log_threshold,master_seed", [("ms", 22.0, 20), ("msr", 20.0, 1)]
)
def test_compaction_matches_streaming(detector, log_threshold, master_seed):
    cfg = _drift_config(detector, log_threshold, master_seed)
    td = run_trials(cfg, DRIFT_SPEC)

    # the data reach every branch of the rule
    events = _compactions(td.stop_times, cfg.horizon)
    inner = [e for e in events if e[4]]
    assert max(sum(e[0] == n0 for e in inner) for n0 in (0, BLOCK)) >= 2
    assert any(2 * live == size for _, _, size, live, _ in inner)
    assert any(not compacted and live > 0 for _, _, _, live, compacted in events)
    assert any(e[0] == BLOCK for e in inner), "no compaction in the second block"

    for i in range(cfg.trials):
        rec = _streaming(cfg, _trial_path(cfg, DRIFT_SPEC, i), log_threshold)
        assert not rec.censored
        assert td.stop_times[i] == rec.stop_time
        assert td.log_stat_at_stop[i] == rec.log_stat_at_stop


def test_compaction_keeps_prior_support_exhausted():
    # a point mass at k0 with a lump q before time 0: the MS statistic grows
    # from step 1, trials alarm and are dropped, and Pi(k0 + 1) = 0 must
    # still stop the chunk at step k0 + 1 while some trial is live
    k0 = 25
    prior = replace(point_mass_prior(k0), q=0.5)
    cfg = _drift_config("ms", 8.0, 3, prior=prior)
    td = run_trials(replace(cfg, horizon=k0), DRIFT_SPEC)
    assert any(compacted for _, _, _, _, compacted in _compactions(td.stop_times, k0))
    assert np.any(td.stop_times == 0), "every trial alarmed before the support ran out"
    with pytest.raises(PriorSupportExhausted, match=rf"Pi\({k0 + 1}\)"):
        run_trials(cfg, DRIFT_SPEC)


# ---------------------------------------------------------------------------
# The alarm floor: the exact statistic is computed only where it can cross.
# ---------------------------------------------------------------------------


@st.composite
def _atoms_near_threshold(draw):
    k = draw(st.integers(1, 64))
    # -inf atoms, exact ties and +-700 are the log-sum-exp fold's edge cases
    values = st.one_of(
        st.sampled_from([-np.inf, -700.0, 0.0, 700.0]), st.floats(-700.0, 700.0)
    )
    log_num = draw(hnp.arrays(np.float64, k, elements=values))
    log_w = draw(hnp.arrays(np.float64, k, elements=st.floats(-50.0, 0.0)))
    log_tail = draw(st.one_of(st.just(0.0), st.floats(-700.0, 0.0)))
    ulps = draw(st.integers(-4, 4))
    return log_num, log_w, log_tail, ulps


@settings(max_examples=500, deadline=None)
@given(_atoms_near_threshold())
@example((np.full(64, 3.0), np.full(64, -math.log(64)), 0.0, 0))  # the bound is tight
@example((np.full(64, 700.0), np.zeros(64), -700.0, -1))
@example((np.array([-np.inf, 1.0, -np.inf]), np.log([0.2, 0.3, 0.5]), -5.0, 0))
def test_alarm_floor_never_hides_a_crossing(inputs):
    """A column whose statistic meets the threshold never has its largest
    weighted atom term below the floor, at and a few ulps around a tie."""
    log_num, log_w, log_tail, ulps = inputs
    stat = float(log_statistic(log_num, log_w, log_tail))
    assume(np.isfinite(stat))
    log_a = stat
    for _ in range(abs(ulps)):
        log_a = float(np.nextafter(log_a, math.copysign(np.inf, ulps)))
    floor = _alarm_floor(log_a, np.array([log_tail]), log_num.size)[0]
    if stat >= log_a:
        assert (log_num + log_w).max() >= floor


@pytest.mark.parametrize("detector", ["ms", "msr"])
def test_threshold_tie_stops_like_streaming(detector, monkeypatch):
    """log A equal to a value the streaming statistic reaches: that trial stops
    on the tie, and every trial's stop time and statistic match streaming,
    for the engine's GROUP and for groups of 8 and 1."""
    grid = grid_from_atoms([[0.25], [0.5], [1.0], [1.5], [2.0]])
    cfg = make_config(grid=grid, detector=detector, omega=0.5, trials=40, horizon=130)
    spec = TrialSpec(nu=60, theta=(1.0,), stream_tag=8)
    paths = [_trial_path(cfg, spec, i) for i in range(cfg.trials)]
    # trial 0's largest statistic over the second block, first reached at `tie`
    traj = run_detector(
        detector, cfg.model, cfg.prior, 1e300, paths[0],
        record_trajectory=True, omega=cfg.omega,
    ).trajectory
    tie = BLOCK + int(np.argmax(traj[BLOCK : 2 * BLOCK, 1]))
    log_a = float(traj[tie, 1])
    assert traj[:tie, 1].max() < log_a, "trial 0 reaches log A before the tie"

    recs = [_streaming(cfg, path, log_a) for path in paths]
    for group in (GROUP, 8, 1):
        monkeypatch.setattr(_engine, "GROUP", group)
        td = run_trials(replace(cfg, log_threshold=log_a), spec)
        assert td.stop_times[0] == tie + 1 and td.log_stat_at_stop[0] == log_a
        for i, rec in enumerate(recs):
            assert td.stop_times[i] == (0 if rec.censored else rec.stop_time)
            got, want = np.array([td.log_stat_at_stop[i], rec.log_stat_at_stop])
            assert got.view(np.uint64) == want.view(np.uint64)
        assert 1 < np.count_nonzero(td.stop_times) < cfg.trials


# ---------------------------------------------------------------------------
# The HMM's one-filter block kernel against whole-path sampling and scoring.
# ---------------------------------------------------------------------------

HMM_KERNEL_SPECS = {
    "asymmetric": (0.2, 0.4),
    "symmetric": (0.5, 0.5),
    "beta0": (0.0, 0.4),
    "gamma0": (0.3, 0.0),
}
HMM_KERNEL_MODES = {
    "fixed_on_grid": TrialSpec(nu=70, theta=(1.0, 2.5), stream_tag=31),
    "fixed_off_grid": TrialSpec(nu=70, theta=(1.3, -0.4), stream_tag=32),
    "prior": TrialSpec(q_short_circuit=True, stream_tag=33),
    "prior_off_grid_theta": TrialSpec(theta=(0.7, 1.8), stream_tag=34),
    "no_change": TrialSpec(nu=math.inf, stream_tag=35),
    # under a heavy-tailed prior log pi_k and log Pi(n) are not linear in k
    "prior_heavy_tail": TrialSpec(q_short_circuit=True, stream_tag=36),
}


def _whole_path_statistics(model, prior, detector, omega, horizon, spec, seed, count):
    """Every trial's statistic at n = 1 .. horizon, shape (horizon, count), from
    whole paths: ``sample_paths``, ``path_increments``, then ``advance`` and
    ``log_statistic`` at every step, with the prior's whole-horizon tables."""
    grid = model.grid
    rngs = trial_rngs(seed, spec.stream_tag, 0, count)
    nus, thetas = _draw_trials(spec, prior, grid, horizon, rngs)
    ell = model.path_increments(model.sample_paths(nus, thetas, horizon, rngs))
    if detector == "ms":
        log_pi, log_tail = prior.log_pmf_array(horizon), prior.log_tail_array(horizon)
    else:  # pi_k = 1 and Pi(n) = 1
        log_pi, log_tail = np.zeros(horizon), np.zeros(horizon + 1)
    state = np.full((grid.size, count), _log_init(detector, prior, omega))
    stats = np.empty((horizon, count))
    for n in range(1, horizon + 1):
        state = advance(state, ell[:, n - 1].T, log_pi[n - 1])
        stats[n - 1] = log_statistic(state, grid.log_weights[:, None], log_tail[n])
    return stats


@pytest.mark.parametrize("detector", ["ms", "msr"])
@pytest.mark.parametrize("mode", sorted(HMM_KERNEL_MODES))
@pytest.mark.parametrize("transitions", sorted(HMM_KERNEL_SPECS))
def test_hmm_block_kernel_matches_whole_paths(transitions, mode, detector, monkeypatch):
    """run_chunk, which samples and scores each block with one filter, gives
    the bits of whole-path sampling and scoring: stop times, statistics at
    the stop and final statistics, over four blocks with trials dropped
    mid-block, for the engine's GROUP and for groups of 8 (groups of 1, with
    an HMM among the models, are in test_block_boundaries_match_streaming)."""
    beta, gamma = HMM_KERNEL_SPECS[transitions]
    model = hmm2_model(
        Hmm2Spec(theta0=(0.0, 1.0), beta=beta, gamma=gamma),
        grid_from_atoms([[0.5, 2.0], [1.0, 2.5], [1.5, 1.0]]),
    )
    spec = HMM_KERNEL_MODES[mode]
    if mode == "prior_heavy_tail":
        prior = heavy_tail_prior(1.5, q=0.1)
    else:
        prior = geometric_prior(0.02, q=0.1)
    omega, horizon, count, seed = 0.5, 200, 48, 909
    args = (model, prior, model.grid, detector, omega)
    stats = _whole_path_statistics(model, prior, detector, omega, horizon, spec, seed, count)

    # a log A that nine in ten trials reach within two blocks, so that trials
    # stop in several blocks and a few run on
    log_a = float(np.quantile(stats[: 2 * BLOCK].max(axis=0), 0.1))
    crossed = stats >= log_a
    want_stop = np.where(crossed.any(axis=0), crossed.argmax(axis=0) + 1, 0)
    # a censored trial carries its statistic at the horizon
    want_stat = stats[np.where(want_stop > 0, want_stop, horizon) - 1, np.arange(count)]
    for group in (GROUP, 8):
        monkeypatch.setattr(_engine, "GROUP", group)
        # every trial is live in all four blocks, and the final statistic reads
        # Pi(horizon) from the last block's prior window
        whole = run_chunk(*args, None, horizon, spec, seed, 0, count)
        assert whole.log_stat_at_stop.tobytes() == stats[-1].tobytes()

        td = run_chunk(*args, log_a, horizon, spec, seed, 0, count)
        np.testing.assert_array_equal(td.stop_times, want_stop)
        assert td.log_stat_at_stop.tobytes() == want_stat.tobytes()
    assert any(compacted for *_, compacted in _compactions(want_stop, horizon))
    assert np.any((want_stop == 0) | (want_stop > 2 * BLOCK)), "no third block"
