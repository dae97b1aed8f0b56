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
two kernels serve both: ``advance`` steps the per-atom numerators and
``log_statistic`` mixes them into log S_n or log R_n; ``recursion_tables``
gives the start value and per-step tables for either kind.  Both keep atoms
on the leading axis: a stream's state is a (K,) vector and a batch of B
trials is (K, B), so the engine reduces over contiguous atom rows.  The
one-row updates ``ms_update``/``msr_update`` call both kernels once.  The
streaming alarm loop scores a block of BLOCK rows at a time, runs
``advance`` over its rows and mixes them in one ``log_statistic`` call,
with the same values; the Monte Carlo engine calls ``log_statistic`` only
where the statistic can meet the threshold.
All accumulation is log-domain with log-sum-exp; the statistics reach
exp(+-hundreds) and are never exponentiated except inside the guarded
posterior computation.

The stopping rules raise an alarm at the first n >= 1 whose log statistic
meets the log threshold (ties stop).  A multi-cyclic wrapper restarts the
statistic from its initial value after every alarm for surveillance use,
at that row, in the middle of a block too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .measures import ChangePrior, MixingGrid
from .models import ObservationModel


# rows per block in the alarm loop, and steps per block in the Monte Carlo
# engine; no value depends on it
BLOCK = 64


class PriorSupportExhausted(RuntimeError):
    """The prior tail Pi(n) hit zero: the MS statistic is undefined past here."""


def _log_or_ninf(value: float):
    return np.log(value) if value > 0.0 else -np.inf


def recursion_tables(kind: str, prior: ChangePrior, omega: float, horizon: int):
    """(init, log_pi, log_tail) for ``advance`` and ``log_statistic``, n = 1 .. horizon.

    init is the per-atom log numerator at time 0; step n uses log_pi[n-1]
    and log_tail[n].  MSR's tables are all zero: pi_k = 1 and Pi(n) = 1.
    """
    k = kind.lower()
    if k == "ms":
        return _log_or_ninf(prior.q), prior.log_pmf_array(horizon), prior.log_tail_array(horizon)
    if k == "msr":
        if omega < 0.0:
            raise ValueError("head-start omega must be >= 0")
        zeros = np.zeros(horizon + 1)
        return _log_or_ninf(omega), zeros, zeros
    raise ValueError(f"unknown detector kind {kind!r}; expected 'ms' or 'msr'")


def advance(log_num, ell, log_pi_prev):
    """One step of the MS/MSR recursion on the per-atom log numerators.

    ``log_num`` and ``ell`` are (K,) for one stream or (K, B) for B trials;
    returns log N_n(theta_i) of the same shape.  With log_pi_prev = 0 this
    is the MSR step.
    """
    return np.logaddexp(log_num, log_pi_prev) + ell


def log_statistic(log_num, log_w, log_tail_n):
    """log sum_i w_i N_n(theta_i) - log Pi(n): a scalar, or (B,) for (K, B).

    ``log_w`` is (K,) or (K, 1) to match ``log_num``.  The reduce folds
    atoms in the order 0 .. K-1 for every column, so a column's value does
    not depend on which other columns are present, and batch column b
    equals the one-stream value on it, bit for bit.  With log_tail_n = 0
    this is the MSR statistic.
    """
    return np.logaddexp.reduce(log_num + log_w, axis=0) - log_tail_n


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
    if not np.isfinite(inc).all():
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
    state.log_num = advance(state.log_num, inc, float(state.prior.log_pmf(n)))
    state.log_stat = float(log_statistic(state.log_num, state.grid.log_weights, log_tail_next))
    state.n = n + 1
    return state


def msr_update(state: MsrState, increments: np.ndarray) -> MsrState:
    """Advance the MSR statistic by one observation's per-atom increments."""
    state.log_r = advance(state.log_r, _finite(increments), 0.0)
    state.log_stat = float(log_statistic(state.log_r, state.grid.log_weights, 0.0))
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

    ``observations`` is any iterable of rows (scalars for 1-d models).  Rows
    are read BLOCK at a time, so up to BLOCK - 1 rows after the alarm may be
    read from an iterator; ``horizon`` caps the number of steps, and no row
    past it is read.  The comparison is on log values, with >= so that exact
    ties stop.  A censored record carries the last statistic.
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
    censored tail reports the last statistic.

    Rows are read in blocks of at most BLOCK, and never past ``horizon``, so
    a run may read up to BLOCK - 1 rows beyond the row it stops at.  One
    ``model.stream_block`` call scores each block.  ``advance`` then steps
    the per-atom numerators row by row, and one ``log_statistic`` call mixes
    the rows, which gives the values of ``ms_update``/``msr_update`` bit for
    bit.  An alarm inside a block restarts the statistic and its prior clock
    (the index into the tables of ``recursion_tables``, grown by doubling)
    at the next row, and the block's later rows, already scored, run again
    from there.  The rows before the block's first row whose increments are
    not finite (a finite but huge observation can overflow them) are
    processed first, so an alarm among them still stands; then that row
    raises ``NonFiniteIncrements`` with its 1-based ``row``.  A step past the
    prior's support raises ``PriorSupportExhausted`` at its own row in the
    same way.  NumPy's overflow and invalid-value warnings are silenced for
    the loop.
    """
    if not np.isfinite(log_threshold):
        raise ValueError("log_threshold must be finite")
    _check_grid(model, grid)
    model.reset()
    init, log_pi, log_tail = recursion_tables(kind, prior, omega, BLOCK)
    log_w = grid.log_weights[:, None]
    state = np.full(grid.size, init)
    clock = 0  # steps since the last (re)start
    records: list[AlarmRecord] = []
    cycle: list[np.ndarray] = []  # trajectory rows since the last (re)start
    last_stat = None
    n = 0  # rows read before the current block
    rows = iter(observations)
    with np.errstate(over="ignore", invalid="ignore"):
        while horizon is None or n < horizon:
            block = list(islice(rows, BLOCK if horizon is None else min(BLOCK, horizon - n)))
            if not block:
                break
            ell = model.stream_block(block)  # (L, K)
            finite = np.isfinite(ell).all(axis=1)
            good = len(block) if finite.all() else int(finite.argmin())
            i = 0  # the block's next row
            while i < good:
                if clock + good - i >= log_tail.size:
                    size = max(2 * log_tail.size, clock + good - i)
                    _, log_pi, log_tail = recursion_tables(kind, prior, omega, size)
                tails = log_tail[clock + 1 : clock + 1 + good - i]
                supported = np.isfinite(tails)
                m = tails.size if supported.all() else int(supported.argmin())
                nums = np.empty((grid.size, m))
                for j in range(m):
                    nums[:, j] = state = advance(state, ell[i + j], log_pi[clock + j])
                stats = log_statistic(nums, log_w, tails[:m])
                hit = np.flatnonzero(stats >= log_threshold)
                steps = int(hit[0]) + 1 if hit.size else m
                if steps:
                    last_stat = float(stats[steps - 1])
                    if record_trajectory:
                        cycle.append(_trajectory_rows(n + i + 1, stats[:steps], hit.size > 0))
                i += steps
                clock += steps
                if hit.size:
                    records.append(
                        AlarmRecord(
                            stop_time=n + i,
                            censored=False,
                            log_stat_at_stop=last_stat,
                            trajectory=_trajectory(cycle) if record_trajectory else None,
                        )
                    )
                    if not restart:
                        return records, None
                    state, clock, cycle = np.full(grid.size, init), 0, []
                elif m < tails.size:
                    raise PriorSupportExhausted(
                        f"prior tail Pi({clock + 1}) = 0; the MS recursion cannot continue"
                    )
            if good < len(block):
                row = n + good + 1
                raise NonFiniteIncrements(f"row {row}: increments must be finite", row=row)
            n += len(block)
    tail = AlarmRecord(
        stop_time=None,
        censored=True,
        log_stat_at_stop=None if restart else last_stat,
        trajectory=_trajectory(cycle) if record_trajectory else None,
    )
    return records, tail


def _trajectory_rows(first: int, stats: np.ndarray, crossed: bool) -> np.ndarray:
    """Trajectory rows (n, log_stat, crossed_flag) for steps first, first + 1, ...;
    only the last step can carry the crossing."""
    out = np.zeros((stats.size, 3))
    out[:, 0] = np.arange(first, first + stats.size)
    out[:, 1] = stats
    out[-1, 2] = crossed
    return out


def _trajectory(cycle: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(cycle) if cycle else np.array([])


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
