"""Exact operating characteristics of the one-atom Gaussian MS and MSR rules.

With Gaussian observations, one atom theta (the rule knows the post-change
parameter), a geometric prior with q = 0 and head start omega = 0, each
statistic is a one-dimensional Markov chain:

    MS:   S_n = (S_{n-1} + rho) L_n / (1 - rho),   S_0 = 0
    MSR:  R_n = (R_{n-1} + 1) L_n,                 R_0 = 0

where log L_n = theta x_n - theta^2 / 2 is N(-theta^2 / 2, theta^2) before
the change and N(+theta^2 / 2, theta^2) after it.  The rule stops at the
first n with log S_n (or log R_n) >= log A, and every operating
characteristic solves a linear equation on the chain: G. V. Moustakides,
A. S. Polunchenko and A. G. Tartakovsky, "A numerical approach to
performance analysis of quickest change-point detection procedures",
Statistica Sinica 21 (2011) 571-596.

The chain runs in y = log S on N equal cells of [y_lo, log A].  A cell moves
to the next cells with the Gaussian masses seen from its midpoint, the mass
at or above log A stops the rule, and the mass below y_lo is lumped into the
lowest cell.  A step from any state starts from at least the value a step
from S = 0 starts from, and y_lo lies 12 sd below that step's mean, so
in practice no mass is lumped.  The error falls as 1/N^2: from N = 400 to
N = 800 the PFA of MS (rho = 0.1, log A = 6) moves by 7e-4 of itself, and
the delays by less than 1e-5 of themselves.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr


class Kernel(NamedTuple):
    """One law's step: the cells' transitions among themselves (p) and their
    stop probabilities (s), and the same from the start state S = 0 (p0, s0)."""

    p: np.ndarray
    s: np.ndarray
    p0: np.ndarray
    s0: float


def _kernel(start: float, g, edges: np.ndarray, mean: float, sd: float) -> Kernel:
    """The step of mean ``mean`` and sd ``sd`` from each cell's midpoint y to
    g(y) + step, and from the start state to ``start`` + step."""
    log_a = edges[-1]

    def rows(centre):
        cdf = ndtr((edges - centre[:, None] - mean) / sd)
        cdf[:, 0] = 0.0  # the mass below y_lo goes to the lowest cell
        return np.diff(cdf, axis=1), ndtr((centre + mean - log_a) / sd)

    mids = 0.5 * (edges[:-1] + edges[1:])
    (p, s), (p0, s0) = rows(g(mids)), rows(np.array([start]))
    return Kernel(p, s, p0[0], float(s0[0]))


class OneAtomChain:
    """One rule at one threshold: the chain before and after the change.

    ``rule`` is "ms" (geometric prior with parameter ``rho``, q = 0) or
    "msr" (omega = 0, which needs no prior for its delay).
    """

    def __init__(self, rule: str, log_a: float, rho: float | None = None,
                 theta: float = 1.0, n_cells: int = 800):
        # one step maps y to g(y) + log L, with g(y) = log(e^y + c) + d
        log_c, d = (math.log(rho), -math.log1p(-rho)) if rule == "ms" else (0.0, 0.0)

        def g(y):
            return np.logaddexp(y, log_c) + d

        half = theta**2 / 2.0
        edges = np.linspace(log_c + d - half - 12.0 * theta, log_a, n_cells + 1)
        self.rho = rho
        self.pre = _kernel(log_c + d, g, edges, -half, theta)
        self.post = _kernel(log_c + d, g, edges, half, theta)
        self.eye = np.eye(n_cells)

    def _steps_to_stop(self) -> np.ndarray:
        """Per cell, the expected steps to the stop after the change: D = 1 + P D."""
        return np.linalg.solve(self.eye - self.post.p, np.ones(len(self.eye)))

    def delay(self, change_point: int = 0) -> float:
        """E[T - k | T > k] with the change after k = ``change_point`` observations."""
        if change_point == 0:
            return 1.0 + self.post.p0 @ self._steps_to_stop()
        f = self.pre.p0  # the sub-density on {T > n} after n = 1 .. k observations
        for _ in range(change_point - 1):
            f = f @ self.pre.p
        return f @ self._steps_to_stop() / f.sum()

    def _discounted(self) -> np.ndarray:
        """sum_{k >= 1} (1 - rho)^k f_k, where f_k is the chain's sub-density on
        {T > k} after k observations before the change."""
        b = 1.0 - self.rho
        return b * np.linalg.solve((self.eye - b * self.pre.p).T, self.pre.p0)

    def pfa(self) -> float:
        """P(T <= nu) = E_inf[(1 - rho)^T] under the geometric prior."""
        b = 1.0 - self.rho
        return b * self.pre.s0 + self._discounted() @ (b * self.pre.s)

    def average_delay(self) -> float:
        """E[T - nu | T > nu] with nu drawn from the geometric prior."""
        w = self._discounted()
        return (self.delay() + w @ self._steps_to_stop()) / (1.0 + w.sum())
