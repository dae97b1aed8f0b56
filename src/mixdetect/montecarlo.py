"""Monte Carlo estimation of operating characteristics.

Estimators cover the weighted probability of false alarm (two routes: the
tail identity PFA = E_inf[Pi(T)] and the posterior identity
PFA = E[1/(1+S_T)] under the joint change law), conditional and average
detection-delay moments, and the integrated risk.  Every estimator reports
a point value, a normal-approximation standard error and 95% CI, and its
censoring metadata; censored trials are accounted with explicit bias
certificates rather than dropped silently.

Reproducibility contract: per-trial RNG streams are derived from
(master_seed, stream_tag, trial_index), trials are reduced in trial-index
order, and the worker count only partitions work, so identical seeds give
byte-identical results for any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._engine import CHUNK, TrialData, TrialSpec, run_chunk
from .measures import ChangePrior
from .models import ObservationModel


class EstimationError(RuntimeError):
    """No usable trials survived the conditioning event."""


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with its uncertainty and censoring metadata."""

    point: float
    stderr: float
    trials: int
    censored: int
    ci95: tuple[float, float]
    tag: str
    extras: dict = field(default_factory=dict)


def _mean_estimate(values: np.ndarray, tag: str, censored: int, extras: dict) -> Estimate:
    n = values.size
    if n == 0:
        raise EstimationError(f"{tag}: no contributing trials")
    point = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(
        point=point,
        stderr=stderr,
        trials=n,
        censored=censored,
        ci95=(point - 1.96 * stderr, point + 1.96 * stderr),
        tag=tag,
        extras=extras,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scenario run needs: model (with its mixing grid), prior,
    rule, budget, seed.

    ``log_threshold`` None runs every trial to the horizon without stopping,
    and ``-inf`` stops every trial at n = 1; ``+inf`` and NaN are refused.
    """

    model: ObservationModel
    prior: ChangePrior
    detector: str  # "ms" | "msr"
    omega: float
    log_threshold: float | None
    trials: int
    horizon: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.detector.lower() not in ("ms", "msr"):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.log_threshold is not None and not self.log_threshold < math.inf:
            raise ValueError(f"log_threshold must be finite or -inf, got {self.log_threshold}")


def _chunk_payloads(config: ExperimentConfig, spec: TrialSpec):
    for start in range(0, config.trials, CHUNK):
        count = min(CHUNK, config.trials - start)
        yield (
            config.model,
            config.prior,
            config.model.grid,
            config.detector,
            config.omega,
            config.log_threshold,
            config.horizon,
            spec,
            config.master_seed,
            start,
            count,
        )


def _run_chunk_star(args):
    return run_chunk(*args)


def run_trials(config: ExperimentConfig, spec: TrialSpec) -> TrialData:
    """Run all trials of one scenario, chunked and optionally parallel.

    Chunk size is fixed; workers only decide how chunks are executed, and
    chunk results are concatenated in trial order, so outputs are identical
    for any worker count.  The pool has at most one process per chunk.
    """
    payloads = list(_chunk_payloads(config, spec))
    if config.workers <= 1 or len(payloads) == 1:
        parts = [_run_chunk_star(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(payloads))) as pool:
            parts = list(pool.map(_run_chunk_star, payloads))
    return TrialData.concatenate(parts)


def statistic_at_horizon(
    config: ExperimentConfig, spec: TrialSpec | None = None
) -> np.ndarray:
    """log statistic after exactly ``horizon`` steps for every trial (no stopping)."""
    spec = spec or TrialSpec(nu=math.inf)
    return run_trials(replace(config, log_threshold=None), spec).log_stat_at_stop


def estimate_pfa_tail(config: ExperimentConfig, stream_tag: int = 0) -> Estimate:
    """PFA via the tail identity PFA = E_inf[Pi(T)].

    Simulates under the no-change law; each trial contributes Pi(T), with
    censored trials contributing Pi(horizon).  Censoring biases the estimate
    upward by at most Pi(horizon), recorded as a bias certificate, so the
    false-alarm bound test stays honest without unbounded runs.
    """
    td = run_trials(config, TrialSpec(nu=math.inf, stream_tag=stream_tag))
    stopped = td.stop_times > 0
    tail_at_stop = config.prior.tail(np.where(stopped, td.stop_times, config.horizon))
    censored = int((~stopped).sum())
    extras = {
        "estimator": "tail-identity",
        "censor_bias_upper_bound": float(config.prior.tail(config.horizon)),
    }
    return _mean_estimate(tail_at_stop, "pfa_tail", censored, extras)


def estimate_pfa_posterior(config: ExperimentConfig, stream_tag: int = 1) -> Estimate:
    """PFA via the posterior identity PFA = E[1/(1+S_T); T finite].

    Valid for the MS rule only; the expectation is under the joint law, so
    trials draw nu from the prior (with the q mass short-circuiting to a
    change already in effect) and theta from the mixing weights.  Censored
    trials contribute zero, a downward bias of at most
    censor_rate / (1 + A), recorded alongside.
    """
    if config.detector.lower() != "ms":
        raise ValueError("the posterior identity applies to the MS rule only")
    td = run_trials(config, TrialSpec(q_short_circuit=True, stream_tag=stream_tag))
    stopped = td.stop_times > 0
    contrib = np.where(stopped, np.exp(-np.logaddexp(0.0, td.log_stat_at_stop)), 0.0)
    censored = int((~stopped).sum())
    extras = {
        "estimator": "posterior-identity",
        "censor_bias_upper_bound": censored
        / config.trials
        * math.exp(-np.logaddexp(0.0, config.log_threshold)),
    }
    return _mean_estimate(contrib, "pfa_posterior", censored, extras)


def _outcomes(td: TrialData, horizon: int):
    """Each trial's delay T - nu (T = H, the horizon, if unstopped) and its masks, in order:
    detections (stopped, T > nu), false alarms (stopped, T <= nu), censored (unstopped, nu < H)."""
    stopped = td.stop_times > 0
    delays = np.where(stopped, td.stop_times, horizon) - td.nus
    detected = stopped & (delays > 0)
    return delays, detected, stopped & ~detected, ~stopped & (td.nus < horizon)


def _delay_estimates(td: TrialData, horizon: int, moments, tag: str, event: str, **extras):
    """{r: E[(T-nu)^r | T > nu]} from run trials: the detections' delays, then the censored
    trials' horizon - nu, in that order; ``extras`` join each estimate's extras."""
    delays, detected, false_alarm, censored = _outcomes(td, horizon)
    kept = np.concatenate([delays[detected], delays[censored]]).astype(float)
    if kept.size == 0:
        raise EstimationError(f"no trials survived the conditioning event {event}")
    n_censored = int(censored.sum())
    rate = n_censored / kept.size
    extras.update(rejected=int(false_alarm.sum()), censor_rate=rate, reliable=rate < 1e-3)
    return {
        float(r): _mean_estimate(
            kept ** float(r), f"{tag}_r{r:g}", n_censored, {**extras, "moment": float(r)}
        )
        for r in moments
    }


def estimate_delay_moments(
    config: ExperimentConfig,
    k: int,
    theta,
    r_list=(1.0,),
    stream_tag: int = 2,
) -> dict[float, Estimate]:
    """Conditional delay moments E[(T-k)^r | T > k] under change at k.

    ``theta`` is an atom index or an explicit parameter vector (off-grid
    values probe robustness; no optimality claim attaches to them).  The
    change point must lie in [0, horizon).  Trials with T <= k are discarded
    (the conditioning event); censored trials count as (horizon-k)^r and are
    flagged as a downward-bias certificate.  A censor rate above 0.1% marks
    the estimate unreliable.
    """
    if not 0 <= k < config.horizon:
        raise ValueError(f"change point k must be in [0, horizon = {config.horizon}), got {k}")
    theta_vec = config.model.grid.theta_vector(theta)
    td = run_trials(config, TrialSpec(nu=k, theta=tuple(theta_vec), stream_tag=stream_tag))
    return _delay_estimates(
        td, config.horizon, r_list, "delay_moment", "T > k",
        change_point=k, theta=list(map(float, theta_vec)),
    )


def estimate_average_delay_risk(
    config: ExperimentConfig, theta, r: float = 1.0, stream_tag: int = 3
) -> Estimate:
    """Average delay moment E[(T-nu)^r | T > nu] with nu drawn from the prior.

    nu is sampled from the prior restricted to k >= 0; trials whose nu falls
    at or beyond the horizon cannot resolve the conditioning event and are
    excluded (counted in extras).  Censored trials with nu inside the
    horizon count as (horizon-nu)^r, flagged as a downward bias.
    """
    theta_vec = config.model.grid.theta_vector(theta)
    td = run_trials(config, TrialSpec(theta=tuple(theta_vec), stream_tag=stream_tag))
    return _delay_estimates(
        td, config.horizon, (r,), "average_delay", "T > nu",
        theta=list(map(float, theta_vec)),
        nu_beyond_horizon=int((td.nus >= config.horizon).sum()),
    )[float(r)]


def estimate_integrated_risk(
    config: ExperimentConfig, c: float, r: float = 1.0, stream_tag: int = 4
) -> Estimate:
    """Integrated risk: P(T <= nu) + c * E[((T-nu)^+)^r], (nu, theta) ~ prior x W.

    The threshold in ``config`` should come from the Bayes-cost calibration
    for this c and r.  Censored trials with nu inside the horizon contribute
    the truncated delay cost (downward bias, flagged); nu at or beyond the
    horizon contributes zero (config validation keeps the prior mass there
    below 1% of the first-order risk).
    """
    if c < 0.0:
        raise ValueError("cost c must be >= 0")
    td = run_trials(config, TrialSpec(stream_tag=stream_tag))
    delays, detected, false_alarm, censored = _outcomes(td, config.horizon)
    delayed = detected | censored
    contrib = np.zeros(config.trials)
    contrib[false_alarm] = 1.0
    contrib[delayed] = c * delays[delayed] ** float(r)
    unstopped = config.trials - int((detected | false_alarm).sum())  # any nu
    extras = {
        "cost": c,
        "moment": float(r),
        "false_alarm_fraction": float(false_alarm.mean()),
        "censor_rate": unstopped / config.trials,
    }
    return _mean_estimate(contrib, f"integrated_risk_r{r:g}", unstopped, extras)


@dataclass(frozen=True)
class SlopeFit:
    """Weighted least-squares line fit of mean delay against log threshold."""

    slope: float
    slope_stderr: float
    intercept: float


def slope_regression(ladder) -> SlopeFit:
    """Fit mean delay vs log A across a threshold ladder.

    ``ladder`` is a sequence of (log_A, mean_delay, stderr) triples; weights
    are inverse variances (equal weights when any stderr is zero, as with
    synthetic exact data).  The slope operationalizes the first-order delay
    rate; the intercept absorbs the O(1) terms.
    """
    pts = [(float(x), float(y), float(s)) for x, y, s in ladder]
    if len(pts) < 4:
        raise ValueError("need at least 4 ladder points for a slope fit")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    s = np.array([p[2] for p in pts])
    if np.ptp(x) <= 0.0:
        raise ValueError("degenerate ladder: all thresholds equal")
    if np.all(s > 0.0):
        w = 1.0 / s**2
        known_var = True
    else:
        w = np.ones_like(x)
        known_var = False
    xbar = np.sum(w * x) / np.sum(w)
    ybar = np.sum(w * y) / np.sum(w)
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    if known_var:
        slope_se = float(math.sqrt(1.0 / sxx))
    else:
        resid = y - (intercept + slope * x)
        dof = max(len(pts) - 2, 1)
        slope_se = float(math.sqrt(np.sum(resid**2) / dof / np.sum((x - xbar) ** 2)))
    return SlopeFit(slope=slope, slope_stderr=slope_se, intercept=intercept)
