"""Vectorized lockstep trial engine (internal to the Monte Carlo harness).

Trials are independent units of work.  Each trial owns an RNG stream derived
from (master_seed, stream_tag, trial_index), and its path is sampled from
that stream alone, so per-trial results do not depend on batching or worker
count.  Increments and the detector recursion are deterministic functions
of the paths, computed by the same block kernels and the same
``detectors.advance`` as the streaming detectors, so lockstep and streaming
runs agree bit for bit.

A chunk of CHUNK trials advances in time blocks of BLOCK steps.  Each block
samples, scores and recurses only the trials that have not yet alarmed,
carrying model and statistic state to the next block, and the chunk stops
once every trial has alarmed.  Neither constant affects any value; memory
per chunk is O(CHUNK * BLOCK * n_atoms), not O(CHUNK * horizon * n_atoms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors import PriorSupportExhausted, advance, recursion_tables
from .measures import ChangePrior, MixingGrid
from .models import ObservationModel

CHUNK = 1024  # fixed: chunking never affects per-trial values
BLOCK = 64  # fixed: blocking never affects per-trial values


def trial_rng(master_seed: int, stream_tag: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, stream_tag, trial_index])
    )


@dataclass(frozen=True)
class TrialSpec:
    """How one scenario draws (nu, theta) for each trial.

    mode "no_change": nu beyond the horizon, theta unused.
    mode "fixed":     nu and theta fixed for every trial.
    mode "prior":     nu sampled from the prior restricted to k >= 0 (with an
                      optional q-mass short-circuit to "change already in
                      effect", i.e. nu = 0); theta fixed if given, otherwise
                      sampled from the mixing weights.
    """

    mode: str
    nu: int | None = None
    theta: tuple | None = None
    q_short_circuit: bool = False
    stream_tag: int = 0


@dataclass
class TrialData:
    """Per-trial outcomes in trial-index order (stop_time 0 = censored)."""

    stop_times: np.ndarray
    log_stat_at_stop: np.ndarray
    nus: np.ndarray
    final_log_stat: np.ndarray | None = None

    @staticmethod
    def concatenate(parts: list["TrialData"]) -> "TrialData":
        return TrialData(
            stop_times=np.concatenate([p.stop_times for p in parts]),
            log_stat_at_stop=np.concatenate([p.log_stat_at_stop for p in parts]),
            nus=np.concatenate([p.nus for p in parts]),
            final_log_stat=(
                np.concatenate([p.final_log_stat for p in parts])
                if parts and parts[0].final_log_stat is not None
                else None
            ),
        )


def _draw_trials(
    spec: TrialSpec,
    prior: ChangePrior,
    grid: MixingGrid,
    horizon: int,
    rngs: list[np.random.Generator],
):
    b = len(rngs)
    nus = np.empty(b, dtype=np.int64)
    thetas = np.zeros((b, grid.dimension))
    fixed_theta = None if spec.theta is None else np.asarray(spec.theta, dtype=float)
    if spec.mode == "no_change":
        nus[:] = horizon
    elif spec.mode == "fixed":
        if spec.nu is None or fixed_theta is None:
            raise ValueError("fixed mode needs both nu and theta")
        nus[:] = min(int(spec.nu), horizon)
        thetas[:] = fixed_theta
    elif spec.mode == "prior":
        for i, rng in enumerate(rngs):
            if spec.q_short_circuit and prior.q > 0.0 and rng.random() < prior.q:
                nu = 0
            else:
                nu = prior.sample(rng)
            nus[i] = min(nu, horizon)
            if fixed_theta is None:
                thetas[i] = grid.atoms[grid.sample_index(rng)]
            else:
                thetas[i] = fixed_theta
    else:
        raise ValueError(f"unknown trial mode {spec.mode!r}")
    return nus, thetas


def run_chunk(
    model: ObservationModel,
    prior: ChangePrior,
    grid: MixingGrid,
    detector: str,
    omega: float,
    log_threshold: float | None,
    horizon: int,
    spec: TrialSpec,
    master_seed: int,
    start: int,
    count: int,
    want_final_stat: bool = False,
) -> TrialData:
    """Run trials [start, start+count) of one scenario in lockstep.

    Time advances in blocks of BLOCK steps.  Trials that have alarmed are
    neither sampled nor scored again, and the chunk ends once none is left,
    unless ``want_final_stat`` is set or ``log_threshold`` is None: then
    every trial runs to ``horizon``.
    """
    rngs = [trial_rng(master_seed, spec.stream_tag, i) for i in range(start, start + count)]
    nus, thetas = _draw_trials(spec, prior, grid, horizon, rngs)
    logw = grid.log_weights
    init, log_pi, log_tail = recursion_tables(detector, prior, omega, horizon)
    exhausted = ~np.isfinite(log_tail)  # never, for MSR

    sampler = model.sampler_state(nus, thetas, horizon, rngs)
    scorer = model.increment_state(count, horizon)
    stat_state = np.full((count, grid.size), init)
    stop = np.zeros(count, dtype=np.int64)
    stat_at_stop = np.full(count, np.nan)
    alive = np.ones(count, dtype=bool)
    early_exit = log_threshold is not None and not want_final_stat
    rows = np.arange(count)  # the trials this block advances

    for n0 in range(0, horizon, BLOCK):
        n1 = min(n0 + BLOCK, horizon)
        if early_exit:
            rows = np.flatnonzero(alive)
            if rows.size == 0:
                break
        ell = model.increment_block(scorer, rows, model.sample_block(sampler, rows, n0, n1), n0)
        state = stat_state[rows]
        live = alive[rows]
        for n in range(n0 + 1, n1 + 1):
            if exhausted[n] and (want_final_stat or live.any()):
                raise PriorSupportExhausted(
                    f"prior tail Pi({n}) = 0; the MS recursion cannot continue"
                )
            state, log_stat = advance(
                state, ell[:, n - 1 - n0, :], logw, log_pi[n - 1], log_tail[n]
            )
            if log_threshold is not None:
                newly = live & (log_stat >= log_threshold)
                if newly.any():
                    stop[rows[newly]] = n
                    stat_at_stop[rows[newly]] = log_stat[newly]
                    live &= ~newly
                if early_exit and not live.any():
                    break
        stat_state[rows] = state
        alive[rows] = live

    return TrialData(
        stop_times=stop,
        log_stat_at_stop=stat_at_stop,
        nus=nus,
        final_log_stat=log_stat if want_final_stat else None,
    )
