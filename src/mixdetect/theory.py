"""First-order asymptotic predictions used as comparison baselines.

These are the leading-order formulas for the operating characteristics of
the mixture rules as the threshold grows: the m-th delay moment of the MS
rule behaves like (log A / (I + mu))^m, the MSR rule like (log A / I)^m
(the MSR statistic does not collect the prior's exponential-tail credit),
and the best achievable integrated risk like D * c * |log c|^r.

All of them drop o(1) terms, so reports never pass/fail a raw ratio at a
single threshold; convergence is assessed across a threshold ladder via
slope regression (see the montecarlo module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

FIRST_ORDER_NOTE = "first-order asymptotics; o(1) terms dropped"


@dataclass(frozen=True)
class Prediction:
    """A named first-order prediction with the inputs it was computed from."""

    quantity: str
    value: float
    inputs: dict = field(default_factory=dict)
    note: str = FIRST_ORDER_NOTE


def delay_rate(detector: str, i: float | None, mu: float) -> float | None:
    """First-order delay rate: I + mu for ms, I for msr; None unless positive and finite.

    None covers a model with no information number (``i`` None), zero
    information under msr, and a point-mass prior's infinite mu under ms.
    """
    if i is None:
        return None
    rate = i + mu if detector.lower() == "ms" else i
    return rate if 0.0 < rate < math.inf else None


def ms_delay_prediction(log_a: float, i: float, mu: float = 0.0, m: float = 1.0) -> float:
    """(log A / (I + mu))^m: m-th delay moment of the MS rule, to first order.

    Takes log A, so a threshold far beyond the float range still has a
    prediction.  I = 0 is allowed when mu > 0: the prior's tail alone then
    drives the statistic to the threshold.
    """
    if i < 0.0:
        raise ValueError("information number must be >= 0")
    if m < 1.0:
        raise ValueError("moment order m must be >= 1")
    if log_a <= 0.0:
        raise ValueError("threshold A must exceed 1")
    if mu < 0.0:
        raise ValueError("tail exponent mu must be >= 0")
    if i + mu <= 0.0:
        raise ValueError("I + mu must be positive")
    return (log_a / (i + mu)) ** m


def msr_delay_prediction(log_a: float, i: float, m: float = 1.0) -> float:
    """(log A / I)^m: m-th delay moment of the MSR rule, to first order.

    No mu in the denominator: the head-started sum drifts at rate I only,
    whatever the prior tail does, so this is the MS formula at mu = 0.
    """
    return ms_delay_prediction(log_a, i, 0.0, m)


def integrated_risk_prediction(c: float, r: float, d: float) -> float:
    """D * c * |log c|^r: the first-order optimal integrated risk."""
    if not 0.0 < c < 1.0:
        raise ValueError("cost c must be in (0, 1)")
    if r < 1.0:
        raise ValueError("r must be >= 1")
    if d <= 0.0:
        raise ValueError("D must be positive")
    return d * c * abs(math.log(c)) ** r

