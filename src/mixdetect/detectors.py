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
``log_statistic`` mixes them into log S_n or log R_n.  Both keep atoms on
the leading axis: a stream's state is a (K,) vector and a batch of B trials
is (K, B), so the engine reduces over contiguous atom rows.  ``_log_init``
gives either kind's start value, and ``prior_window`` is the only code that
knows the schedule: one block's (log pi, log Pi) for MS, zeros for MSR.
The one-row updates ``ms_update``/``msr_update`` call both kernels once.
The streaming alarm loop and the Monte Carlo engine read one prior window
per block.  The alarm loop scores an ndarray stream a window of up to
WINDOW rows at a time (at most WINDOW_CELLS increments, never fewer than
BLOCK rows) and an iterator BLOCK rows at a time; it runs ``advance`` over
segments of at most BLOCK rows and mixes each segment in one
``log_statistic`` call, with the same values.  The engine calls
``log_statistic`` only where the statistic can meet the threshold.
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
from .models import BLOCK, ObservationModel

# rows per scoring call on an ndarray stream, and the cap on its rows x atoms
# (2 MB of increments); neither changes any value
WINDOW = 4096
WINDOW_CELLS = 1 << 18


def _window_rows(atoms: int) -> int:
    """Rows per ``increment_block`` call when the alarm loop slices an ndarray:
    WINDOW, or fewer so that rows x atoms <= WINDOW_CELLS, but never below BLOCK."""
    return max(BLOCK, min(WINDOW, WINDOW_CELLS // atoms))


class PriorSupportExhausted(RuntimeError):
    """The prior tail Pi(n) hit zero: the MS statistic is undefined from step n on.

    ``n`` counts steps on the prior's clock, which restarts with the
    statistic.  ``row`` is the 1-based index of the step's row in the stream
    when the alarm loop raised it, and None otherwise.
    """

    def __init__(self, n: int, row: int | None = None):
        super().__init__(f"prior tail Pi({n}) = 0; the MS recursion cannot continue")
        self.n = n
        self.row = row

    def __reduce__(self):  # worker processes send it back pickled
        return type(self), (self.n, self.row)


def _log_init(kind: str, prior: ChangePrior | None, omega: float) -> float:
    """The per-atom log numerator at time 0: log q for MS, log omega for MSR."""
    k = kind.lower()
    if k == "ms":
        value = prior.q
    elif k == "msr":
        if omega < 0.0:
            raise ValueError("head-start omega must be >= 0")
        value = omega
    else:
        raise ValueError(f"unknown detector kind {kind!r}; expected 'ms' or 'msr'")
    return np.log(value) if value > 0.0 else -np.inf


def prior_window(kind: str, prior: ChangePrior | None, clock: int, size: int):
    """(log_pi, log_tail) of steps clock + 1 .. clock + size of either kind.

    Step clock + j reads log_pi[j - 1] and log_tail[j - 1].  For MS these
    are ``log_pmf_array(h)[clock : clock + size]`` and
    ``log_tail_array(h)[clock + 1 : clock + size + 1]``, bit for bit, since a
    prior is evaluated elementwise; MSR's are zeros, as pi_k = 1 and
    Pi(n) = 1.  Both loops hold one window per block instead of tables as
    long as the horizon or the longest cycle.
    """
    if kind.lower() == "ms":
        k = np.arange(clock, clock + size + 1)
        return prior.log_pmf(k[:-1]), prior.log_tail(k[1:])
    zeros = np.zeros(size)
    return zeros, zeros


def advance(log_num, ell, log_pi_prev, out=None):
    """One step of the MS/MSR recursion on the per-atom log numerators.

    ``log_num`` and ``ell`` are (K,) for one stream or (K, B) for B trials;
    returns log N_n(theta_i) of the same shape, written to ``out`` if given.
    With log_pi_prev = 0 this is the MSR step.
    """
    # ``out`` by position: a ufunc parses it faster than a keyword, once per row
    return np.add(np.logaddexp(log_num, log_pi_prev, out), ell, out)


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
            log_q = _log_init("ms", self.prior, 0.0)
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
        log_w = _log_init("msr", None, self.omega)
        if self.log_r is None:
            self.log_r = np.full(self.grid.size, log_w)
            self.log_stat = log_w


class NonFiniteIncrements(ValueError):
    """A row's LLR increments are not all finite.

    ``row`` is the 1-based row of the stream (alarm loop) or step of the
    trial (Monte Carlo engine), and None from a bare ``ms_update``/``msr_update``.
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
    log_pi, log_tail = prior_window("ms", state.prior, state.n, 1)
    if not np.isfinite(log_tail[0]):
        raise PriorSupportExhausted(state.n + 1)
    state.log_num = advance(state.log_num, inc, log_pi[0])
    state.log_stat = float(log_statistic(state.log_num, state.grid.log_weights, log_tail[0]))
    state.n += 1
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


def run_detector(
    kind: str,
    model: ObservationModel,
    prior: ChangePrior,
    log_threshold: float,
    observations,
    horizon: int | None = None,
    record_trajectory: bool = False,
    omega: float = 0.0,
) -> AlarmRecord:
    """Run one detector over an observation stream until alarm or exhaustion.

    ``observations`` is any iterable of rows (scalars for 1-d models).  An
    iterator is read BLOCK rows at a time, so up to BLOCK - 1 rows after the
    alarm may be read from it, and an ndarray is scored a window at a time;
    ``horizon`` caps the number of steps, and no row past it is read.  The
    comparison is on log values, with >= so that exact ties stop; a
    ``log_threshold`` of -inf stops at row 1, and +inf and NaN are refused.
    A censored record carries the last statistic.
    """
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    records, tail = _multicyclic_with_tail(
        kind, model, prior, log_threshold, observations, omega, record_trajectory,
        restart=False, horizon=horizon,
    )
    return records[0] if records else tail


def multicyclic_run(
    kind: str,
    model: ObservationModel,
    prior: ChangePrior,
    log_threshold: float,
    observations,
    omega: float = 0.0,
    record_trajectory: bool = False,
) -> list[AlarmRecord]:
    """Repeated surveillance: restart the statistic after every alarm.

    Returns one record per alarm, with absolute stop times; a trailing
    segment that never crosses is dropped.  Only the detector state (and its
    prior clock) restarts; the stream's scorer keeps its history, since
    whitening and filtering describe the data stream, not the alarm cycle.
    """
    records, _ = _multicyclic_with_tail(
        kind, model, prior, log_threshold, observations, omega, record_trajectory
    )
    return records


def _multicyclic_with_tail(
    kind, model, prior, log_threshold, observations, omega, record_trajectory,
    restart: bool = True, horizon: int | None = None,
):
    """The one alarm loop: (alarm records, censored tail or None).

    With ``restart`` (multicyclic) the statistic restarts after every alarm
    and the tail has no statistic.  Without it (``run_detector``, single-shot
    ``detect``) the loop returns at the first alarm with tail None, and a
    censored tail reports the last statistic.  With ``record_trajectory`` a
    cycle keeps its segments' statistics, and ``_trajectory`` builds its
    record's rows once, when it alarms or the stream ends.

    An ``ndarray`` is sliced into windows of ``_window_rows(K)`` rows for K
    atoms: WINDOW, or fewer so that a window holds at most WINDOW_CELLS
    increments (2 MB), but never fewer than BLOCK.  Any other iterable is
    read with ``islice`` BLOCK rows at a time, so a run may read up to
    BLOCK - 1 rows beyond the row it stops at.  Neither reads a row past
    ``horizon``.  One ``increment_block`` call on the loop's own
    ``increment_state(1)`` scores each window, so the model is only read.
    The recursion runs over the window in segments of at most BLOCK rows:
    ``advance`` steps the per-atom numerators row by row into a (BLOCK, K)
    buffer, with the prior's log pi as a row of K equal values, and
    one ``log_statistic`` call mixes the segment's rows, which gives the
    values of ``ms_update``/``msr_update`` bit for bit.  Either kind reads
    its schedule through ``prior_window`` on the steps a segment can take,
    up to the first step whose Pi(n) is 0.  An alarm restarts the statistic
    and its prior clock at the next row, and the window's later rows,
    already scored, run again from there, so a restart re-steps at most
    BLOCK - 1 rows.  The rows before the window's first row whose
    increments are not finite (a finite but huge observation can overflow
    them) are processed first, so an alarm among them still stands; then
    that row raises ``NonFiniteIncrements`` with its 1-based ``row``.  A
    step past the prior's support raises ``PriorSupportExhausted`` with its
    own ``row`` in the same way.  No value depends on the window: the model
    kernels give the same bits for any cut of the time axis.  NumPy's
    overflow and invalid-value warnings are silenced for the loop.
    """
    if not log_threshold < np.inf:
        raise ValueError(f"log_threshold must be finite or -inf, got {log_threshold}")
    scorer = model.increment_state(1)
    init = _log_init(kind, prior, omega)
    grid = model.grid
    log_w = grid.log_weights[:, None]
    buf = np.empty((BLOCK, grid.size))  # the per-atom numerators of a segment's rows
    state = np.full(grid.size, init)
    clock = 0  # steps since the last (re)start
    records: list[AlarmRecord] = []
    cycle: list[np.ndarray] = []  # the statistic's segments since the last (re)start
    last_stat = None
    n = 0  # rows read before the current window
    sliced = isinstance(observations, np.ndarray)
    rows = None if sliced else iter(observations)
    width = _window_rows(grid.size) if sliced else BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        while horizon is None or n < horizon:
            size = width if horizon is None else min(width, horizon - n)
            block = observations[n : n + size] if sliced else list(islice(rows, size))
            if not len(block):
                break
            x = np.asarray(block, dtype=float).reshape(1, len(block), model.dimension)
            ell = model.increment_block(scorer, slice(None), x, n)[:, :, 0]  # (L, K)
            finite = np.isfinite(ell).all(axis=1)
            good = len(block) if finite.all() else int(finite.argmin())
            i = 0  # the window's next row
            while i < good:
                log_pi, log_tail = prior_window(kind, prior, clock, min(BLOCK, good - i))
                supported = np.isfinite(log_tail)
                m = log_tail.size if supported.all() else int(supported.argmin())
                nums = buf[:m]
                # log pi as a row per step, so that no step converts a scalar
                prior_rows = log_pi[:m, None].repeat(grid.size, axis=1)
                for e, lp, row in zip(ell[i : i + m], prior_rows, nums):
                    state = advance(state, e, lp, row)
                stats = log_statistic(nums.T, log_w, log_tail[:m])
                hit = (stats >= log_threshold).nonzero()[0]
                steps = int(hit[0]) + 1 if hit.size else m
                if steps:
                    last_stat = float(stats[steps - 1])
                    if record_trajectory:
                        cycle.append(stats[:steps])
                i += steps
                clock += steps
                if hit.size:
                    records.append(
                        AlarmRecord(
                            stop_time=n + i,
                            censored=False,
                            log_stat_at_stop=last_stat,
                            trajectory=(
                                _trajectory(cycle, n + i, True) if record_trajectory else None
                            ),
                        )
                    )
                    if not restart:
                        return records, None
                    state, clock, cycle = np.full(grid.size, init), 0, []
                elif m < log_tail.size:  # the prior's support ended inside the segment
                    raise PriorSupportExhausted(clock + 1, row=n + i + 1)
            if good < len(block):
                row = n + good + 1
                raise NonFiniteIncrements(f"row {row}: increments must be finite", row=row)
            n += len(block)
    tail = AlarmRecord(
        stop_time=None,
        censored=True,
        log_stat_at_stop=None if restart else last_stat,
        trajectory=_trajectory(cycle, n, False) if record_trajectory else None,
    )
    return records, tail


def _trajectory(cycle: list[np.ndarray], last_row: int, crossed: bool) -> np.ndarray:
    """A cycle's rows (n, log_stat, crossed_flag), (0, 3) for none, from its
    statistic's segments; the last is row ``last_row``, the only one that can cross."""
    stats = np.concatenate([np.empty(0), *cycle])
    n = np.arange(last_row - stats.size + 1, last_row + 1)
    return np.column_stack([n, stats, (n == last_row) & crossed])


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
        raise PriorSupportExhausted(n)
    log_lambda = _log_mixture_lr_terms(inc, grid.log_weights)
    log_pi = prior.log_pmf(np.arange(n))
    with np.errstate(divide="ignore"):
        log_q = np.log(prior.q) if prior.q > 0.0 else -np.inf
    terms = np.concatenate(([log_q + log_lambda[0]], log_pi + log_lambda))
    return float(np.logaddexp.reduce(terms) - log_tail_n)


def brute_force_msr(increments: np.ndarray, grid: MixingGrid, omega: float = 0.0) -> float:
    """log R_n by literal evaluation of the head-started mixture-LR sum."""
    if omega < 0.0:
        raise ValueError("head-start omega must be >= 0")
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
