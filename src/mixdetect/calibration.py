"""Threshold selection for the mixture detection rules.

Three calibration routes:

* MS false-alarm bound: the MS statistic is posterior odds, so the weighted
  false-alarm probability obeys PFA <= 1/(1+A); setting A = (1-alpha)/alpha
  guarantees PFA <= alpha (for alpha < 1 - q).
* MSR false-alarm bound: the MSR statistic minus (omega + n) is a zero-mean
  martingale under the no-change law, and a submartingale maximal inequality
  gives PFA <= (omega*b + mean_nu)/A; setting A = (omega*b + mean_nu)/alpha
  guarantees PFA <= alpha (finite-mean priors only).
* Bayes cost: for delay cost c and delay moment r the large-A proxy for the
  integrated risk is G(A) = 1/A + c*D*(log A)^r with the mixture constant
  D = sum_i w_i (I_i + mu)^(-r); the minimizing threshold solves
  r*D*A*(log A)^(r-1) = 1/c (closed form A = 1/(c*D) at r = 1).

Both false-alarm bounds ignore overshoot and are conservative; reports pair
them with Monte Carlo estimates so the slack is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import ChangePrior, MixingGrid


@dataclass(frozen=True)
class ThresholdSpec:
    """A calibrated threshold with the inputs that reproduce it."""

    kind: str  # "ms-pfa" | "msr-pfa" | "bayes-cost" | "fixed"
    log_threshold: float
    inputs: dict = field(default_factory=dict)
    note: str = ""

    @property
    def threshold(self) -> float:
        try:
            return math.exp(self.log_threshold)
        except OverflowError:
            return math.inf


def fixed_threshold(log_threshold: float) -> ThresholdSpec:
    if not np.isfinite(log_threshold):
        raise ValueError("log_threshold must be finite")
    return ThresholdSpec(
        kind="fixed", log_threshold=float(log_threshold), inputs={}, note="user-supplied"
    )


def ms_threshold(alpha: float, q: float = 0.0) -> ThresholdSpec:
    """A = (1-alpha)/alpha, guaranteeing weighted PFA <= alpha for the MS rule."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must be in [0, 1), got {q}")
    if not 0.0 < alpha < 1.0 - q:
        raise ValueError(f"alpha must satisfy 0 < alpha < 1 - q = {1.0 - q}, got {alpha}")
    a = (1.0 - alpha) / alpha
    return ThresholdSpec(
        kind="ms-pfa",
        log_threshold=math.log(a),
        inputs={"alpha": alpha, "q": q},
        note="posterior-odds bound PFA <= 1/(1+A); overshoot ignored (conservative)",
    )


def msr_threshold(alpha: float, omega: float, prior: ChangePrior) -> ThresholdSpec:
    """A = (omega*b + mean_nu)/alpha, guaranteeing weighted PFA <= alpha for MSR."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if omega < 0.0:
        raise ValueError("head-start omega must be >= 0")
    if not math.isfinite(prior.mean):
        raise ValueError(
            f"prior '{prior.name}' has infinite mean; the MSR false-alarm bound needs "
            "a finite-mean prior"
        )
    numerator = omega * prior.b + prior.mean
    if numerator <= 0.0:
        raise ValueError("omega*b + mean_nu must be positive for a usable threshold")
    a = numerator / alpha
    return ThresholdSpec(
        kind="msr-pfa",
        log_threshold=math.log(a),
        inputs={"alpha": alpha, "omega": omega, "prior_mean": prior.mean, "prior_b": prior.b},
        note="martingale bound PFA <= (omega*b + mean_nu)/A; overshoot ignored",
    )


def d_constant(grid: MixingGrid, info: np.ndarray, mu: float, r: float) -> float:
    """Mixture constant D = sum_i w_i (I_i + mu)^(-r)."""
    info = np.asarray(info, dtype=float)
    if info.shape != (grid.size,):
        raise ValueError("need one information number per grid atom")
    if np.any(info <= 0.0):
        raise ValueError("information numbers must be positive")
    if mu < 0.0:
        raise ValueError("mu must be >= 0")
    if r < 1.0:
        raise ValueError("r must be >= 1")
    return float(np.sum(np.exp(grid.log_weights) * (info + mu) ** (-r)))


def integrated_cost_proxy(a: float, c: float, r: float, d: float) -> float:
    """G(A) = 1/A + c*D*(log A)^r, the large-A proxy the Bayes threshold minimizes."""
    return 1.0 / a + c * d * math.log(a) ** r


def bayes_threshold(c: float, r: float, d: float, rhs_numerator: float = 1.0) -> ThresholdSpec:
    """Solve r*D*A*(log A)^(r-1) = rhs_numerator/c for A by bisection on log A.

    ``rhs_numerator`` is 1 for the MS rule, the only rule a ``bayes-cost``
    config calibrates; an MSR variant would rescale the right-hand side by
    omega*b + mean_nu.  The bracket [1, 100] in log-space
    (A up to e^100) is far beyond any usable threshold; calibration runs
    once, so robustness beats speed.  Requires the root to satisfy A > e.
    """
    if c <= 0.0:
        raise ValueError("cost c must be positive")
    if r < 1.0:
        raise ValueError("r must be >= 1")
    if d <= 0.0:
        raise ValueError("D must be positive")
    if rhs_numerator <= 0.0:
        raise ValueError("rhs_numerator must be positive")
    rhs = rhs_numerator / c

    def f(log_a: float) -> float:
        return r * d * math.exp(log_a) * log_a ** (r - 1.0) - rhs

    lo, hi = 1.0, 100.0
    if f(lo) > 0.0:
        raise ValueError(
            "no root with A > e: the cost c is too large for this D and r"
        )
    if f(hi) < 0.0:
        raise ValueError("no root with A <= e^100: the cost c is implausibly small")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, lo):
            break
    log_a = 0.5 * (lo + hi)
    residual = abs(f(log_a)) / rhs
    if residual > 1e-10:
        raise ValueError(f"threshold equation residual {residual:.3e} exceeds 1e-10")
    return ThresholdSpec(
        kind="bayes-cost",
        log_threshold=log_a,
        inputs={"c": c, "r": r, "D": d, "rhs_numerator": rhs_numerator, "residual": residual},
        note="root of r*D*A*(log A)^(r-1) = rhs/c; first-order Bayes-optimal as c -> 0",
    )
