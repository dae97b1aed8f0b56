"""Mixture Shiryaev (MS) and mixture Shiryaev-Roberts (MSR) detection rules.

Both statistics average likelihood ratios over a discrete mixing grid.  With
per-atom likelihood-ratio factors L_n(theta) = exp(l_n(theta)) they admit
exact one-step recursions on per-atom numerators:

    MS:   N_n(theta) = (N_{n-1}(theta) + pi_{n-1}) * L_n(theta),  N_0 = q
          S_n = sum_i w_i N_n(theta_i) / Pi(n)
    MSR:  R_n(theta) = (R_{n-1}(theta) + 1) * L_n(theta),         R_0 = omega
          R_n = sum_i w_i R_n(theta_i)

which are plain algebra on the defining double sums (cross-checked here by
brute-force oracles that evaluate those sums literally).  MSR is the MS
recursion with pi_k = 1 and Pi(n) = 1, started from omega instead of q, so
one function, ``advance``, computes both; ``recursion_tables`` gives its
start value and per-step tables for either kind.  ``advance`` keeps atoms on
the leading axis: a stream's state is a (K,) vector and a batch of B trials
is (K, B), so the Monte Carlo engine reduces over contiguous atom rows.
All accumulation is log-domain with log-sum-exp; the statistics reach
exp(+-hundreds) and are never exponentiated except inside the guarded
posterior computation.

The stopping rules raise an alarm at the first n >= 1 whose log statistic
meets the log threshold (ties stop).  A multi-cyclic wrapper restarts the
statistic from its initial value after every alarm for surveillance use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import ChangePrior, MixingGrid
from .models import ObservationModel


class PriorSupportExhausted(RuntimeError):
    """The prior tail Pi(n) hit zero: the MS statistic is undefined past here."""


def _log_or_ninf(value: float):
    return np.log(value) if value > 0.0 else -np.inf


def recursion_tables(kind: str, prior: ChangePrior, omega: float, horizon: int):
    """(init, log_pi, log_tail) for ``advance`` over steps n = 1 .. horizon.

    init is the per-atom log numerator at time 0; step n uses log_pi[n-1]
    and log_tail[n].  MSR's tables are all zero: pi_k = 1 and Pi(n) = 1.
    """
    k = kind.lower()
    if k == "ms":
        return _log_or_ninf(prior.q), prior.log_pmf_array(horizon), prior.log_tail_array(horizon)
    if k == "msr":
        zeros = np.zeros(horizon + 1)
        return _log_or_ninf(omega), zeros, zeros
    raise ValueError(f"unknown detector kind {kind!r}; expected 'ms' or 'msr'")


def advance(log_num, ell, log_w, log_pi_prev, log_tail_n):
    """One step of the MS/MSR recursion, atoms first.

    ``log_num`` and ``ell`` are (K,) for one stream or (K, B) for B trials,
    and ``log_w`` is (K,) or (K, 1) to match.  Returns the new per-atom log
    numerators and the log statistic log sum_i w_i N_n(theta_i) - log Pi(n),
    a scalar or (B,).  The reduce folds atoms in the order 0 .. K-1 for
    every trial, so batch column b equals the one-stream step on it, bit for
    bit.  With log_pi_prev = log_tail_n = 0 this is the MSR step.
    """
    log_num = np.logaddexp(log_num, log_pi_prev) + ell
    return log_num, np.logaddexp.reduce(log_num + log_w, axis=0) - log_tail_n


@dataclass
class MsState:
    """Per-atom log numerators and the scalar log MS statistic at time n."""

    prior: ChangePrior
    grid: MixingGrid
    n: int = 0
    log_num: np.ndarray = field(default=None)
    log_stat: float = field(default=None)

    def __post_init__(self):
        if self.log_num is None:
            log_q = _log_or_ninf(self.prior.q)
            self.log_num = np.full(self.grid.size, log_q)
            self.log_stat = log_q - np.log1p(-self.prior.q)


@dataclass
class MsrState:
    """Per-atom log terms and the scalar log MSR statistic at time n."""

    grid: MixingGrid
    omega: float = 0.0
    n: int = 0
    log_r: np.ndarray = field(default=None)
    log_stat: float = field(default=None)

    def __post_init__(self):
        if self.omega < 0.0:
            raise ValueError("head-start omega must be >= 0")
        if self.log_r is None:
            log_w = _log_or_ninf(self.omega)
            self.log_r = np.full(self.grid.size, log_w)
            self.log_stat = log_w


class NonFiniteIncrements(ValueError):
    """A row's LLR increments are not all finite.

    ``row`` is the 1-based index of that row in the stream when the alarm
    loop raised it, and None from a bare ``ms_update``/``msr_update``.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def _finite(increments) -> np.ndarray:
    inc = np.asarray(increments, dtype=float)
    if not np.all(np.isfinite(inc)):
        raise NonFiniteIncrements("increments must be finite")
    return inc


def ms_update(state: MsState, increments: np.ndarray) -> MsState:
    """Advance the MS statistic by one observation's per-atom increments."""
    inc = _finite(increments)
    n = state.n
    log_tail_next = float(state.prior.log_tail(n + 1))
    if not np.isfinite(log_tail_next):
        raise PriorSupportExhausted(
            f"prior tail Pi({n + 1}) = 0; the MS recursion cannot continue"
        )
    log_pi_n = float(state.prior.log_pmf(n))
    state.log_num, log_stat = advance(
        state.log_num, inc, state.grid.log_weights, log_pi_n, log_tail_next
    )
    state.log_stat = float(log_stat)
    state.n = n + 1
    return state


def msr_update(state: MsrState, increments: np.ndarray) -> MsrState:
    """Advance the MSR statistic by one observation's per-atom increments."""
    state.log_r, log_stat = advance(
        state.log_r, _finite(increments), state.grid.log_weights, 0.0, 0.0
    )
    state.log_stat = float(log_stat)
    state.n += 1
    return state


def posterior_no_change(state: MsState) -> float:
    """P(change has not happened yet | data) = 1 / (1 + S_n), computed stably."""
    return float(np.exp(-np.logaddexp(0.0, state.log_stat)))


@dataclass(frozen=True)
class AlarmRecord:
    """Outcome of one detector run: alarm time, or censored at the horizon.

    ``trajectory`` (when recorded) has rows (n, log_stat, crossed_flag).
    """

    stop_time: int | None
    censored: bool
    log_stat_at_stop: float | None = None
    trajectory: np.ndarray | None = None


def _new_state(kind: str, prior: ChangePrior, grid: MixingGrid, omega: float):
    k = kind.lower()
    if k == "ms":
        return MsState(prior=prior, grid=grid)
    if k == "msr":
        return MsrState(grid=grid, omega=omega)
    raise ValueError(f"unknown detector kind {kind!r}; expected 'ms' or 'msr'")


def _check_grid(model: ObservationModel, grid: MixingGrid) -> None:
    if grid is not model.grid and not (
        np.array_equal(grid.atoms, model.grid.atoms)
        and np.array_equal(grid.log_weights, model.grid.log_weights)
    ):
        raise ValueError("detector grid does not match the model's grid")


def run_detector(
    kind: str,
    model: ObservationModel,
    prior: ChangePrior,
    grid: MixingGrid,
    log_threshold: float,
    observations,
    horizon: int | None = None,
    record_trajectory: bool = False,
    omega: float = 0.0,
) -> AlarmRecord:
    """Run one detector over an observation stream until alarm or exhaustion.

    ``observations`` is any iterable of rows (scalars for 1-d models);
    ``horizon`` caps the number of steps, and no row past it is read.  The
    comparison is on log values, with >= so that exact ties stop.  A
    censored record carries the last statistic.
    """
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    records, tail = _multicyclic_with_tail(
        kind, model, prior, grid, log_threshold, observations, omega, record_trajectory,
        restart=False, horizon=horizon,
    )
    return records[0] if records else tail


def multicyclic_run(
    kind: str,
    model: ObservationModel,
    prior: ChangePrior,
    grid: MixingGrid,
    log_threshold: float,
    observations,
    omega: float = 0.0,
    record_trajectory: bool = False,
) -> list[AlarmRecord]:
    """Repeated surveillance: restart the statistic after every alarm.

    Returns one record per alarm, with absolute stop times; a trailing
    segment that never crosses is dropped.  Only the detector state (and its
    prior clock) restarts; the observation model keeps its history, since
    whitening and filtering describe the data stream, not the alarm cycle.
    """
    records, _ = _multicyclic_with_tail(
        kind, model, prior, grid, log_threshold, observations, omega, record_trajectory
    )
    return records


def _multicyclic_with_tail(
    kind, model, prior, grid, log_threshold, observations, omega, record_trajectory,
    restart: bool = True, horizon: int | None = None,
):
    """The one alarm loop: (alarm records, censored tail or None).

    With ``restart`` (multicyclic) the statistic restarts after every alarm
    and the tail has no statistic.  Without it (``run_detector``, single-shot
    ``detect``) the loop returns at the first alarm with tail None, and a
    censored tail reports the last statistic.  At most ``horizon`` rows are
    read.  Each row goes through ``model.step`` and the module-level
    ``ms_update``/``msr_update`` exactly once.  A row whose increments are
    not finite (a finite but huge observation can overflow them) raises
    ``NonFiniteIncrements`` with its 1-based ``row``, and NumPy's overflow
    and invalid-value warnings are silenced for the loop.
    """
    if not np.isfinite(log_threshold):
        raise ValueError("log_threshold must be finite")
    _check_grid(model, grid)
    model.reset()
    state = _new_state(kind, prior, grid, omega)
    update = ms_update if kind.lower() == "ms" else msr_update
    records: list[AlarmRecord] = []
    traj: list[tuple[int, float, int]] = []
    cycle_start = 0
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for row in observations:
                n += 1
                update(state, model.step(row))
                crossed = state.log_stat >= log_threshold
                if record_trajectory:
                    traj.append((n, state.log_stat, int(crossed)))
                if crossed:
                    records.append(
                        AlarmRecord(
                            stop_time=n,
                            censored=False,
                            log_stat_at_stop=state.log_stat,
                            trajectory=np.array(traj[cycle_start:]) if record_trajectory else None,
                        )
                    )
                    if not restart:
                        return records, None
                    cycle_start = len(traj)
                    state = _new_state(kind, prior, grid, omega)
                if horizon is not None and n >= horizon:
                    break
        except NonFiniteIncrements as exc:
            raise NonFiniteIncrements(f"row {n}: {exc}", row=n) from None
    tail = AlarmRecord(
        stop_time=None,
        censored=True,
        log_stat_at_stop=state.log_stat if n and not restart else None,
        trajectory=np.array(traj[cycle_start:]) if record_trajectory else None,
    )
    return records, tail


# ---------------------------------------------------------------------------
# Brute-force oracles: the defining double sums, evaluated literally.
# ---------------------------------------------------------------------------

_BRUTE_FORCE_MAX_N = 50


def _log_mixture_lr_terms(increments: np.ndarray, log_weights: np.ndarray) -> np.ndarray:
    """log Lambda_{k,n} for k = 0..n-1 at n = len(increments), by direct sums."""
    inc = np.asarray(increments, dtype=float)
    n = inc.shape[0]
    cum = np.cumsum(inc, axis=0)  # cum[j-1] = sum of increments 1..j
    out = np.empty(n)
    for k in range(n):
        partial = cum[n - 1] - (cum[k - 1] if k >= 1 else 0.0)
        out[k] = np.logaddexp.reduce(log_weights + partial)
    return out


def brute_force_ms(increments: np.ndarray, prior: ChangePrior, grid: MixingGrid) -> float:
    """log S_n by literal evaluation of the prior-weighted mixture-LR sum.

    ``increments`` is the (n, n_atoms) matrix of per-step per-atom LLR
    increments.  Cost grows quadratically in n; refuses n > 50.
    """
    inc = np.asarray(increments, dtype=float)
    n = inc.shape[0]
    if n < 1:
        raise ValueError("need at least one increment row")
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refused for n = {n} > {_BRUTE_FORCE_MAX_N}")
    log_tail_n = float(prior.log_tail(n))
    if not np.isfinite(log_tail_n):
        raise PriorSupportExhausted(f"prior tail Pi({n}) = 0")
    log_lambda = _log_mixture_lr_terms(inc, grid.log_weights)
    log_pi = prior.log_pmf(np.arange(n))
    with np.errstate(divide="ignore"):
        log_q = np.log(prior.q) if prior.q > 0.0 else -np.inf
    terms = np.concatenate(([log_q + log_lambda[0]], log_pi + log_lambda))
    return float(np.logaddexp.reduce(terms) - log_tail_n)


def brute_force_msr(increments: np.ndarray, grid: MixingGrid, omega: float = 0.0) -> float:
    """log R_n by literal evaluation of the head-started mixture-LR sum."""
    inc = np.asarray(increments, dtype=float)
    n = inc.shape[0]
    if n < 1:
        raise ValueError("need at least one increment row")
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refused for n = {n} > {_BRUTE_FORCE_MAX_N}")
    log_lambda = _log_mixture_lr_terms(inc, grid.log_weights)
    with np.errstate(divide="ignore"):
        log_w = np.log(omega) if omega > 0.0 else -np.inf
    terms = np.concatenate(([log_w + log_lambda[0]], log_lambda))
    return float(np.logaddexp.reduce(terms))
