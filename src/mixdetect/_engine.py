"""Vectorized lockstep trial engine (internal to the Monte Carlo harness).

Trials are independent units of work.  Each trial owns an RNG stream derived
from (master_seed, stream_tag, trial_index), and its path is sampled from
that stream alone, so per-trial results do not depend on batching or worker
count.  Increments and the detector recursion are deterministic functions
of the paths, computed by the same block kernels, the same
``detectors.prior_window`` schedule and the same ``detectors.advance`` and
``detectors.log_statistic`` as the streaming detectors, so lockstep and
streaming runs agree bit for bit.

A chunk derives all of its trials' streams in one pass: ``trial_rngs``
hashes every ``SeedSequence([master_seed, stream_tag, i])`` with NumPy's
fixed seed-hashing algorithm (NEP 19) over an array of trial indices, and
seeds each trial's PCG64 from those words.  A seed, stream tag or trial
index of any size enters the hash as the 32-bit words SeedSequence makes of
it, so every stream equals its own ``trial_rng``.  A ``TrialSpec`` holds
the nu (``math.inf`` for no change) and the theta its trials fix, or None
for either one the trials draw: each trial draws it as a uniform from its
own stream, and the prior and the mixing grid are inverted for all trials
at once.

A chunk of at most CHUNK trials advances in time blocks.  Block 0 spans
every trial of the chunk and runs min(BLOCK, BLOCK * GROUP // count) steps,
at least one, so most alarms, which come early, share one per-step loop;
each later block runs BLOCK steps over the trials still live, GROUP of them
at a time, so stragglers of a 4096-trial chunk also share one loop per
block.  Either way one ``model.simulate_block`` call covers at most
BLOCK * GROUP trial-steps, or one step of a wider chunk.
Each group of trials is sampled and scored in that one call (the HMM runs
one forward filter for both, with one extra table row for an off-grid
theta), recursed with the block's ``prior_window``, and carries model and
statistic state to the next block; the chunk stops once every trial has
alarmed, and a trial censored at the horizon keeps its statistic there, as
a streaming censored record does: every trial at log A = +inf (at -inf every
trial stops at n = 1).  Inside a group, after a step where trials alarm, the
alarmed trials are dropped from the recursion once at most half of the
group's current rows are live and the block has steps left; each drop at
least halves the rows, so the copying is a constant factor.  The chunk's
statistic is stored atoms first, (n_atoms, count), and every model's block
kernel writes its increments as (steps, n_atoms, trials), so the recursion
reduces over contiguous atom rows.  The recursion runs on every
live trial at every step, but the statistic's K-term log-sum-exp runs only
on the trials whose largest weighted atom term leaves it within log K of the
threshold; the others cannot alarm at that step.  A column's log-sum-exp
does not depend on which other columns are present, and each trial's
values do not depend on where blocks end or which trials share a group, so
neither constant, the schedule, the compaction nor this bound affects any
value.  The block buffers take O(BLOCK * GROUP * n_atoms) memory, the
statistic and the per-trial sampler state O(CHUNK * n_atoms) and the
prior's window O(BLOCK), not O(CHUNK * horizon * n_atoms); no model state
grows with time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .detectors import BLOCK, NonFiniteIncrements, PriorSupportExhausted, _log_init, advance
from .detectors import log_statistic, prior_window
from .measures import ChangePrior, MixingGrid
from .models import ObservationModel, _SeedWords

CHUNK = 4096  # trials per chunk, the unit of worker payloads and of open trial streams
GROUP = 1024  # trials per simulate_block call after block 0; never affects values


def trial_rng(master_seed: int, stream_tag: int, trial_index: int) -> np.random.Generator:
    """One trial's generator, made one at a time: the reference ``trial_rngs`` equals."""
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, stream_tag, trial_index])
    )


# SeedSequence's hash constants (numpy/random/bit_generator.pyx, NEP 19)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _seed_state(entropy: list) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each column of ``entropy``.

    ``entropy`` holds SeedSequence's 32-bit words in order, each a uint32
    array or scalar (broadcast together); the result has shape (n, 4).  This
    is SeedSequence's pool mixing, including its mixing of the words past
    the pool into every pool word, and its output hash in wrapping uint32
    arithmetic; the hash constants do not depend on the data, so they stay
    Python ints.
    """
    u32 = np.uint32
    cols = np.broadcast_arrays(*[np.asarray(w, dtype=u32) for w in entropy])
    n = np.size(cols[0])
    words = [np.ravel(c) for c in cols]
    words += [np.zeros(n, dtype=u32)] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    state = np.empty((n, 8), dtype=u32)
    hash_const = _INIT_B
    for i_dst in range(8):
        value = pool[i_dst % _POOL_SIZE] ^ u32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * u32(hash_const)
        state[:, i_dst] = value ^ (value >> u32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _words(value: int) -> list:
    """SeedSequence's 32-bit words of a non-negative integer, lowest first."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def trial_rngs(master_seed: int, stream_tag: int, start: int, count: int) -> list:
    """``trial_rng(master_seed, stream_tag, i)`` for i in [start, start + count).

    The seed words of all trials are hashed at once.  The seed and the
    stream tag enter as their SeedSequence words, however many; the trial
    indices are hashed in runs split at each multiple of 2^32, so that in a
    run only the lowest index word varies.  A negative entry raises
    ``ValueError``, as SeedSequence does.
    """
    master_seed, stream_tag, start = map(operator.index, (master_seed, stream_tag, start))
    if min(master_seed, stream_tag, start) < 0:
        raise ValueError("seed, stream tag and trial index must be non-negative")
    head = _words(master_seed) + _words(stream_tag)
    seeder = _SeedWords()  # its words are set before each generator is made
    rngs = []
    while len(rngs) < count:
        low, *high = _words(start + len(rngs))
        run = min(count - len(rngs), _MASK32 + 1 - low)
        for words in _seed_state(head + [np.arange(low, low + run)] + high):
            seeder.words = words
            rngs.append(np.random.Generator(np.random.PCG64(seeder)))
    return rngs


@dataclass(frozen=True)
class TrialSpec:
    """The law of (nu, theta) for each trial of one scenario: what it fixes.

    ``nu`` is the change point, capped at the horizon, and ``math.inf`` means
    no change; None draws nu from the prior restricted to k >= 0, where
    ``q_short_circuit`` first sends mass q to nu = 0 (a change already in
    effect).  ``theta`` is the post-change parameter, or None to draw an atom
    from the mixing weights for each trial, unless nu is ``math.inf``.
    """

    nu: float | None = None
    theta: tuple | None = None
    q_short_circuit: bool = False
    stream_tag: int = 0


@dataclass
class TrialData:
    """Per-trial outcomes in trial-index order: the stop time (0 = censored)
    and the statistic at the last step, the alarm or else the horizon."""

    stop_times: np.ndarray
    log_stat_at_stop: np.ndarray
    nus: np.ndarray

    @staticmethod
    def concatenate(parts: list["TrialData"]) -> "TrialData":
        """Each field of the parts joined in order."""
        columns = ([getattr(p, f.name) for p in parts] for f in fields(TrialData))
        return TrialData(*map(np.concatenate, columns))


def _draw_trials(
    spec: TrialSpec,
    prior: ChangePrior,
    grid: MixingGrid,
    horizon: int,
    rngs: list[np.random.Generator],
):
    """Each trial's (nu, theta): what ``spec`` fixes, and the rest drawn."""
    b = len(rngs)
    draw_nu = spec.nu is None
    draw_atom = spec.theta is None and spec.nu != math.inf
    short_circuit = draw_nu and spec.q_short_circuit and prior.q > 0.0
    # each trial's uniforms in stream order: the q short-circuit, nu, the atom
    at_zero = np.zeros(b, dtype=bool)
    u_nu = np.zeros(b)
    u_atom = np.zeros(b)
    for i, rng in enumerate(rngs):
        if short_circuit and rng.random() < prior.q:
            at_zero[i] = True
        elif draw_nu:
            u_nu[i] = rng.random()
        if draw_atom:
            u_atom[i] = rng.random()
    nus = np.full(b, 0 if draw_nu else min(spec.nu, horizon), dtype=np.int64)
    if draw_nu:
        nus[~at_zero] = np.minimum(prior.inverse_cdf(u_nu[~at_zero]), horizon)
    thetas = np.zeros((b, grid.dimension))
    if draw_atom:
        thetas[:] = grid.atoms[grid.inverse_cdf(u_atom)]
    elif spec.theta is not None:
        thetas[:] = spec.theta
    return nus, thetas


def _alarm_floor(log_threshold: float, log_tail: np.ndarray, n_atoms: int) -> np.ndarray:
    """Per step n, the value of max_i(log N_n(theta_i) + log w_i) below which
    a trial cannot alarm at step n.

    A mixture of K terms is at most K times its largest term, so the
    statistic is at most that max + log K - log Pi(n).  ``tol`` covers
    rounding: each of the K - 1 logaddexp steps of the statistic's fold errs
    by a few ulps of its running value, which near the threshold is at most
    |log A| + |log Pi(n)| + log K in size, so the fold errs by less than
    1e-9 * (1 + |log A| + |log Pi(n)|) for K < 10^5 atoms, which
    ``measures.MAX_ATOMS`` enforces on every grid (a block of increments for
    that many atoms would take 50 GB).  At log A = +inf it is +inf, not inf - inf.
    """
    if log_threshold == np.inf:
        return np.full(log_tail.shape, np.inf)
    tol = 1e-9 * (1.0 + abs(log_threshold) + np.abs(log_tail))
    return log_threshold + log_tail - np.log(n_atoms) - tol


@np.errstate(over="ignore", invalid="ignore")
def run_chunk(
    model: ObservationModel,
    prior: ChangePrior,
    grid: MixingGrid,
    detector: str,
    omega: float,
    log_threshold: float,
    horizon: int,
    spec: TrialSpec,
    master_seed: int,
    start: int,
    count: int,
) -> TrialData:
    """Run trials [start, start+count) of one scenario in lockstep.

    Time advances in blocks: block 0 over every trial, later blocks of BLOCK
    steps over the live trials GROUP at a time.  Trials that have alarmed are
    neither sampled nor scored again, they leave the recursion mid-block once
    at most half of their group's rows are live, and the chunk ends once none
    is left.  A trial that never alarms gets stop time 0 and its statistic at
    ``horizon``; with ``log_threshold`` +inf that is every trial.  As in the
    alarm loop, a group's first step n where a live trial's increments are
    not finite (a huge atom or observation overflows them) raises
    ``NonFiniteIncrements`` with ``row`` n; a group's block is checked once,
    and NumPy's overflow and invalid-value warnings are silenced.
    """
    rngs = trial_rngs(master_seed, spec.stream_tag, start, count)
    nus, thetas = _draw_trials(spec, prior, grid, horizon, rngs)
    logw = grid.log_weights[:, None]
    init = _log_init(detector, prior, omega)
    sampler = model.sampler_state(nus, thetas, horizon, rngs)
    scorer = model.increment_state(count)
    stat_state = np.full((grid.size, count), init)  # atoms first
    stop = np.zeros(count, dtype=np.int64)
    stat_at_stop = np.full(count, np.nan)
    alive = np.ones(count, dtype=bool)

    # block 0 spans every trial and later blocks GROUP trials at a time, so a
    # simulate_block call covers at most BLOCK * GROUP trial-steps, or one step
    # of a chunk wider than that (run_trials sends none)
    first = max(1, min(BLOCK, BLOCK * GROUP // count))
    n1 = 0
    while n1 < horizon:
        n0, n1 = n1, min(n1 + (BLOCK if n1 else first), horizon)
        log_pi, log_tail = prior_window(detector, prior, n0, n1 - n0)
        exhausted = ~np.isfinite(log_tail)  # never, for MSR
        floor = _alarm_floor(log_threshold, log_tail, grid.size)
        block_rows = np.flatnonzero(alive)  # the trials this block advances
        if block_rows.size == 0:
            break
        width = GROUP if n0 else count
        for g0 in range(0, block_rows.size, width):
            rows = block_rows[g0 : g0 + width]
            # (L, K, B), so step n reads the contiguous (K, B) slice ell[n - 1 - off]
            ell = model.simulate_block(sampler, scorer, rows, n0, n1)[1]
            finite = np.isfinite(ell).all()
            off = n0
            state = np.take(stat_state, rows, axis=1)  # contiguous (K, B)
            live = alive[rows]
            for n in range(n0 + 1, n1 + 1):
                j = n - 1 - n0
                if exhausted[j] and live.any():
                    raise PriorSupportExhausted(n)
                if not finite and not np.isfinite(ell[n - 1 - off][:, live]).all():
                    raise NonFiniteIncrements(f"step {n}: LLR increments overflow", row=n)
                state = advance(state, ell[n - 1 - off], log_pi[j])
                # the exact statistic only where the bound allows an alarm; a NaN
                # max fails the < test, so its column takes the exact path too
                near = np.flatnonzero(live & ~((state + logw).max(axis=0) < floor[j]))
                if near.size == 0:
                    continue
                log_stat = log_statistic(np.take(state, near, axis=1), logw, log_tail[j])
                crossed = log_stat >= log_threshold
                if not crossed.any():
                    continue
                newly = near[crossed]
                stop[rows[newly]] = n
                stat_at_stop[rows[newly]] = log_stat[crossed]
                live[newly] = False
                if not live.any():
                    break
                if n < n1 and 2 * np.count_nonzero(live) <= live.size:
                    # drop alarmed trials mid-block; halving bounds the copying.
                    # It pays on wide grids: a 100-atom Gaussian MS delay run of
                    # 8192 trials took 0.52 s, against 0.68 s without it and 0.72 s
                    # stepping every row with where=live (2 vCPU Xeon, numpy 2.4)
                    alive[rows[~live]] = False
                    # np.compress keeps the arrays contiguous; state[:, live] would not
                    state = np.compress(live, state, axis=1)
                    ell = np.compress(live, ell[n - off:], axis=2)
                    rows, live, off = rows[live], live[live], n
            stat_state[:, rows] = state
            alive[rows] = live
            del ell  # freed before the next group's increments are made

    # the censored trials ran every block, so the last window ends at Pi(horizon)
    stat_at_stop[alive] = log_statistic(stat_state[:, alive], logw, log_tail[-1])
    return TrialData(stop_times=stop, log_stat_at_stop=stat_at_stop, nus=nus)
