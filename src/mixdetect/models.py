"""Observation models: path sampling and per-step log-likelihood-ratio increments.

Every model exposes the same contract.  A model scores observations into the
vector of LLR increments ``l_n(theta_i)``, one per mixing-grid atom, where

    l_n(theta) = log f_theta(x_n | history) - log g(x_n | history)

is the log-ratio of the post-change and pre-change conditional densities.
Partial sums of increments over j in (k, n] give the cumulative LLR of
"change at k" against "no change".  Increments are deterministic functions
of the observed path; all randomness lives in path sampling, which consumes
one caller-supplied generator per path so trials stay reproducible.

A model holds no state of its own after construction: a path's history
(RNG position, AR filter memory, HMM chain and forward filter) lives in the
state objects its caller keeps, so one model serves several streams and the
Monte Carlo engine at once.  ``sampler_state`` and ``increment_state`` start
a batch of paths and their increments at time 0.  ``simulate_block``, the
one call that advances a sampler, draws any subset of the paths over the
rows [n0, n1) and returns the observations with their increments;
``increment_block`` scores given observations.  The states carry from one
block to the next, so a path's values do not depend on how its time axis is
cut into blocks or on which other paths share a call.  Increments come back
time first, a C-contiguous (steps, atoms, paths) block, the layout the
engine's recursion reads.  A model is these block kernels; the base class
builds the rest from them, once for every model: the whole-path methods
``sample_paths`` (``simulate_block`` from time 0, BLOCK rows at a time) and
``path_increments`` (one block, viewed as (paths, steps, atoms)) are batch
cases, and ``step(state, x, n)`` is the one-row case.  Streaming is the
one-path case: the alarm loop scores each window of stream rows with
``increment_block`` on its own ``increment_state(1)``, so streaming and
batch values agree bit for bit.
Sampling is vectorised across the listed paths, and each path still draws
from its own generator only; the AR model, whose one white-noise channel is
the Gaussian model, draws with its ``sample_block``, which the base
``simulate_block`` scores.  The AR model
evaluates each block's raw and whitened signal rows from their closed forms,
the bits of a table of the whole horizon, so its states hold only each
path's filter memory.  The HMM has one
forward filter (``_predict`` and ``_correct``) in one loop, which both
scores increments and drives the post-change hidden chain: a block runs it
once over the parameter table of the batch's increment state, and an
off-grid post-change theta adds one row.  Its chain uniforms come block by
block from a copy of each path's generator, so no sampler's or scorer's
memory grows with the horizon or the stream.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .measures import MixingGrid

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# rows per block in the engine and sample_paths, and per segment (and iterator read)
# in the alarm loop; no value depends on it
BLOCK = 64


class ObservationModel(ABC):
    """LLR-increment machine over a mixing grid.

    Stateless: methods write only the sampler or increment state passed to
    them, so one instance serves any number of streams at once.  The grid
    and the model spec objects are shared immutably.
    """

    grid: MixingGrid
    dimension: int

    @abstractmethod
    def sampler_state(
        self,
        nus: np.ndarray,
        thetas: np.ndarray,
        horizon: int,
        rngs: Sequence[np.random.Generator],
    ) -> "SamplerState":
        """Start sampling a batch of paths of length ``horizon`` at time 0.

        Path i follows the no-change law up to and including time nus[i]
        and the post-change law with parameter thetas[i] afterwards; a value
        nus[i] >= horizon means no change within the path.  Exactly one
        generator is consumed per path.
        """

    @abstractmethod
    def increment_state(self, batch: int):
        """Start the increments of ``batch`` paths at time 0 with empty history."""

    @abstractmethod
    def increment_block(
        self, state, rows: np.ndarray | slice, x: np.ndarray, n0: int
    ) -> np.ndarray:
        """Per-atom increments of observations x at times n0+1 .. n0+L.

        ``rows`` indexes the batch (an index array, or a slice); x has shape
        (B, L, dimension) for the B listed paths, every one of which must
        sit at time n0.  The result is a C-contiguous (L, n_atoms, B) array,
        time first, so each step's (n_atoms, B) slice is contiguous.
        """

    def simulate_block(self, sampler: "SamplerState", scorer, rows, n0: int, n1: int):
        """Advance paths ``rows`` of ``sampler`` and of the increment state ``scorer``
        from n0 to n1, the one call that advances a sampler.  Returns (x, ell): the
        observations (B, n1 - n0, dimension) and their increments, as ``increment_block``."""
        x = self.sample_block(sampler, rows, n0, n1)
        return x, self.increment_block(scorer, rows, x, n0)

    def step(self, state, x, n: int) -> np.ndarray:
        """One row's increments (n_atoms,) at time n + 1 on a one-path increment state."""
        x = np.asarray(x, dtype=float).reshape(1, 1, self.dimension)
        return self.increment_block(state, slice(None), x, n)[0, :, 0]

    def sample_paths(
        self,
        nus: np.ndarray,
        thetas: np.ndarray,
        horizon: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Whole paths, shape (len(rngs), horizon, dimension), simulated BLOCK rows
        at a time from time 0; each block's increments are dropped."""
        rows = np.arange(len(rngs))
        sampler = self.sampler_state(nus, thetas, horizon, rngs)
        scorer = self.increment_state(len(rows))
        paths = np.empty((len(rows), horizon, self.dimension))
        for n0 in range(0, horizon, BLOCK):
            n1 = min(n0 + BLOCK, horizon)
            paths[:, n0:n1] = self.simulate_block(sampler, scorer, rows, n0, n1)[0]
        return paths

    def path_increments(self, paths: np.ndarray) -> np.ndarray:
        """Per-atom increments for a batch of whole paths: one block from time 0.

        paths has shape (B, T, dimension); the result has shape
        (B, T, n_atoms) with entry [i, n-1, j] = l_n(theta_j) on path i.
        """
        state = self.increment_state(len(paths))
        return self.increment_block(state, np.arange(len(paths)), paths, 0).transpose(2, 0, 1)

    def increments_for(self, observations: np.ndarray) -> np.ndarray:
        """Increments (T, n_atoms) for one observation sequence, from time 0."""
        obs = np.asarray(observations, dtype=float)
        if obs.ndim == 1:
            obs = obs[:, None]
        return self.path_increments(obs[None, :, :])[0]


@dataclass
class SamplerState:
    """A batch of paths being sampled: per-path inputs and carried model state.

    ``carry`` holds the model's per-path arrays, leading axis = batch, and for
    the HMM the generator copies that draw the chain uniforms; its grid filter
    rows live in the increment state that ``simulate_block`` advances with it.
    """

    nus: np.ndarray
    thetas: np.ndarray
    rngs: list
    carry: dict


class _SeedWords(ISeedSequence):
    """A seed sequence whose words are already computed, or zeros without any.

    A bit generator reads the words once, as it is made, so one instance can
    seed many generators in turn, its ``words`` set before each; zero words
    serve a generator whose ``state`` is set right after it is made.
    """

    def __init__(self, words: np.ndarray | None = None):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype) if self.words is None else self.words


_SKIP_PIECE = 1 << 16  # uniforms drawn at a time by a skip that cannot jump


def _skip_uniforms(rng: np.random.Generator, count: int, state: dict) -> None:
    """Leave ``rng`` as ``rng.random(count)`` would, without a count-sized draw.

    ``state`` is ``rng.bit_generator.state``.  Each double takes one 64-bit
    output, so a PCG64 or PCG64DXSM generator jumps ahead by ``count`` steps
    in O(log count); the jump also empties the buffered 32-bit half, which a
    draw keeps, so a generator holding one draws instead, as every other bit
    generator does, at most _SKIP_PIECE uniforms at a time.
    """
    bits = rng.bit_generator
    if type(bits) in (np.random.PCG64, np.random.PCG64DXSM) and not state["has_uint32"]:
        bits.advance(count)
        return
    for size in range(count, 0, -_SKIP_PIECE):
        rng.random(min(size, _SKIP_PIECE))


def _sampler(nus, thetas, rngs, width: int, **carry) -> SamplerState:
    return SamplerState(
        nus=np.asarray(nus, dtype=np.int64),
        thetas=np.asarray(thetas, dtype=float).reshape(len(rngs), width),
        rngs=list(rngs),
        carry=carry,
    )


def sample_path(model: ObservationModel, nu, theta, horizon: int, rng) -> np.ndarray:
    """One path of length ``horizon`` under change at ``nu`` (None or +inf: never).

    ``theta`` is an atom index into the model's grid, or an explicit
    parameter vector; it is ignored when the change never happens.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if nu is None or nu == math.inf:
        nu = horizon
    elif (v := float(nu)) < 0 or not v.is_integer():
        raise ValueError(f"change point must be an integer >= 0, got {nu!r}")
    else:
        nu = min(int(v), horizon)
    vec = np.zeros(model.grid.dimension) if theta is None else model.grid.theta_vector(theta)
    return model.sample_paths([nu], vec[None, :], horizon, [rng])[0]


# ---------------------------------------------------------------------------
# Multichannel AR model: deterministic signals with unknown amplitudes in
# Gaussian autoregressive noise.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicSignal:
    """Closed-form signal S_n = amplitude * sin(omega*n + phase) for n >= 1.

    Constant signals are the omega = 0, phase = pi/2 special case.
    The signal is treated as zero for n <= 0, matching the zero initial
    values of the noise recursion.
    """

    amplitude: float = 1.0
    omega: float = 0.0
    phase: float = 0.0

    def values(self, horizon: int, start: int = 0) -> np.ndarray:
        """S_n for n = start+1 .. horizon: rows [start, horizon) of the whole table."""
        n = np.arange(start + 1, horizon + 1, dtype=float)
        return self.amplitude * np.sin(self.omega * n + self.phase)


@dataclass(frozen=True)
class ArChannelSpec:
    """Per-channel AR noise coefficients and signal shapes.

    ``ar_coeffs[i]`` lists the coefficients (beta_1 .. beta_p) of channel i's
    noise recursion xi_n = sum_j beta_j xi_{n-j} + w_n with standard normal
    w_n and zero initial values.  All AR polynomials must be stable (roots
    strictly inside the unit circle).
    """

    ar_coeffs: tuple[tuple[float, ...], ...]
    signals: tuple[HarmonicSignal, ...]

    def __post_init__(self):
        coeffs = tuple(tuple(float(b) for b in ch) for ch in self.ar_coeffs)
        sigs = tuple(self.signals)
        object.__setattr__(self, "ar_coeffs", coeffs)
        object.__setattr__(self, "signals", sigs)
        if len(coeffs) != len(sigs):
            raise ValueError("need one signal per channel")
        if not coeffs:
            raise ValueError("need at least one channel")
        for i, ch in enumerate(coeffs):
            if ch:
                roots = np.roots([1.0] + [-b for b in ch])
                if roots.size and np.max(np.abs(roots)) >= 1.0 - 1e-9:
                    raise ValueError(f"channel {i}: AR coefficients are not stable")

    @property
    def n_channels(self) -> int:
        return len(self.ar_coeffs)

    def fir(self, channel: int) -> np.ndarray:
        """Whitening FIR [1, -beta_1, ..., -beta_p] for one channel."""
        return np.array([1.0] + [-b for b in self.ar_coeffs[channel]])

    def signal_matrix(self, horizon: int, start: int = 0) -> np.ndarray:
        """Raw signals S_n, shape (horizon - start, n_channels), n = start+1..horizon."""
        return np.column_stack([s.values(horizon, start) for s in self.signals])

    def residual_signal(self, channel: int, horizon: int, start: int = 0) -> np.ndarray:
        """One channel's whitened signal S~_n = S_n - sum_j beta_j S_{n-j}, n = start+1..horizon.

        Signal values before time 1 are zero, and a window with start >=
        horizon has no rows.  The rows are whitened from the signal rows
        max(start - p, 0) on, so each has its full history.  From
        time 0, the full convolution cut to ``horizon`` is what
        ``lfilter(fir, [1.0], S)`` computes for an FIR filter, in the same
        argument order, so the values are the same bits; a window whose
        signal rows outnumber the FIR's taps gives the bits of that table.
        """
        if start >= horizon:
            return np.zeros(0)
        lo = max(start - len(self.ar_coeffs[channel]), 0)
        whitened = np.convolve(self.fir(channel), self.signals[channel].values(horizon, lo))
        return whitened[start - lo : horizon - lo]

    def residual_signal_matrix(self, horizon: int, start: int = 0) -> np.ndarray:
        """Whitened signals of every channel, shape (horizon - start, n_channels)."""
        return np.column_stack(
            [self.residual_signal(c, horizon, start) for c in range(self.n_channels)]
        )


@dataclass(frozen=True)
class QLimit:
    """Time-average of a squared whitened signal over two disjoint windows.

    ``value`` is the larger window average (the working estimate of the
    long-run limit); ``spread`` is the absolute difference between the two
    windows, a convergence diagnostic.
    """

    value: float
    spread: float


@functools.lru_cache
def q_limit(spec: ArChannelSpec, channel: int, horizon: int = 10_000) -> QLimit:
    """Numeric long-run average of (S~_n)^2 for one channel.

    Averages over the windows (0, horizon] and (horizon, 2*horizon] and
    returns the max with the two-window spread, cached: it depends on nothing else.
    """
    if horizon < 10_000:
        raise ValueError("horizon must be >= 10^4 for a stable average")
    sq = spec.residual_signal(channel, 2 * horizon) ** 2
    a = float(sq[:horizon].mean())
    b = float(sq[horizon:].mean())
    return QLimit(value=max(a, b), spread=abs(a - b))


def _ar_noise(w: np.ndarray, fir: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """AR noise from white noise: ``lfilter([1.0], fir, w, axis=1, zi=z)``, bit for bit.

    ``w`` is (paths, steps) white noise, ``fir`` = [1, -beta_1, ..., -beta_p]
    with p >= 1, and ``z`` is the (paths, p) filter state carried from one
    block to the next.  Returns the (paths, steps) noise and the final state.
    Each step runs lfilter's transposed direct form II term for term,

        y = z_0 + w,
        z_{j-1} = (z_j + w*0) - fir_j * y   for j = 1 .. p-1,
        z_{p-1} = w*0 - fir_p * y,

    zero numerator taps w*0 included: they set the sign of exact zeros as
    lfilter does, so outputs and state match it to the bit.
    """
    p = len(fir) - 1
    a = fir.tolist()
    w = np.ascontiguousarray(w.T)  # (steps, paths): one contiguous row per step
    w0 = w * 0.0
    y = np.empty_like(w)
    z = z.T.copy()  # (p, paths); a copy, so the caller's state is not written
    ay = np.empty(w.shape[1])
    for t in range(w.shape[0]):
        np.add(z[0], w[t], out=y[t])
        for j in range(1, p):
            np.add(z[j], w0[t], out=z[j - 1])
            np.subtract(z[j - 1], np.multiply(y[t], a[j], out=ay), out=z[j - 1])
        np.subtract(w0[t], np.multiply(y[t], a[p], out=ay), out=z[p - 1])
    return y.T, z.T


class MultichannelArModel(ObservationModel):
    """Signals with unknown amplitudes in AR Gaussian noise.

    The model whitens both the data and the signals with the channel FIR
    filters; the increment is

        l_n(theta) = sum_c [ theta_c S~_n^c X~_n^c - theta_c^2 (S~_n^c)^2 / 2 ]

    which is the exact conditional-density log-ratio given zero initial
    values of the noise recursions.  ``multichannel_ar_model`` admits
    positive amplitudes only.
    """

    def __init__(self, spec: ArChannelSpec, grid: MixingGrid):
        n = spec.n_channels
        if grid.dimension != n:
            raise ValueError(
                f"grid atoms have dimension {grid.dimension}, model has {n} channels"
            )
        self.spec = spec
        self.grid = grid
        self.dimension = n
        self._order = max((len(c) for c in spec.ar_coeffs), default=0)
        atoms = np.ascontiguousarray(grid.atoms.T)  # row c: every atom's channel c
        with np.errstate(over="ignore"):  # a square past the largest float is inf
            self._atom_cols = list(zip(atoms, atoms**2))

    def _ell(self, resid: np.ndarray, sres: np.ndarray) -> np.ndarray:
        """Increments (L, n_atoms, B) from whitened data resid (B, L, channels)
        and whitened signals sres (L, channels); accumulates channels in order."""
        b, length, _ = resid.shape
        out = term = np.empty((length, self.grid.size, b))
        for c, (theta, theta_sq) in enumerate(self._atom_cols):
            s = sres[:, c]
            if c == 1:
                term = np.empty_like(out)
            sx = np.multiply(s[:, None], resid[:, :, c].T, order="C")  # S~ X~, time first
            np.multiply(sx[:, None, :], theta[:, None], out=term)
            del sx  # freed before the temporaries below, which a long block makes large
            term -= ((0.5 * s**2)[:, None] * theta_sq)[:, :, None]
            if c:
                out += term
        return out

    def sampler_state(self, nus, thetas, horizon, rngs):
        # zi: each channel's noise-filter state (see _ar_noise), carried between blocks
        zi = [np.zeros((len(rngs), len(ch))) for ch in self.spec.ar_coeffs]
        return _sampler(nus, thetas, rngs, self.dimension, zi=zi)

    def sample_block(self, state, rows, n0, n1):
        noise = np.empty((len(rows), n1 - n0, self.dimension))
        for r, i in enumerate(rows.tolist()):
            state.rngs[i].standard_normal(out=noise[r])
        for c, zi in enumerate(state.carry["zi"]):
            if zi.shape[1]:
                noise[:, :, c], zi[rows] = _ar_noise(noise[:, :, c], self.spec.fir(c), zi[rows])
        sig = self.spec.signal_matrix(n1, n0)  # (L, N), the block's rows
        post = (np.arange(n0, n1)[None, :] >= state.nus[rows, None]).astype(float)
        noise += post[:, :, None] * sig[None, :, :] * state.thetas[rows, None, :]
        return noise

    def increment_state(self, batch):
        # the last p raw observations of each path, oldest first; zero before time 1
        return {"lags": np.zeros((batch, self._order, self.dimension))}

    def increment_block(self, state, rows, x, n0):
        p, length = self._order, x.shape[1]
        resid = x  # without lags there is nothing to whiten
        if p:
            past = np.concatenate([state["lags"][rows], x], axis=1)  # row p+r is x[:, r]
            resid = x.copy()
            for c in range(self.dimension):
                # lags before time 1 are zero, so rows before time j+1 see no lag j
                for j, beta in enumerate(self.spec.ar_coeffs[c], start=1):
                    s = max(j - n0, 0)
                    if s < length:
                        resid[:, s:, c] -= beta * past[:, p - j + s : p - j + length, c]
            state["lags"][rows] = past[:, length:, :]
        # np.convolve sums in another order when the signal is not longer than
        # the FIR, so the rows asked for run p + 2 or more past max(n0 - p, 0)
        horizon = max(n0 + length, max(n0 - p, 0) + p + 2)
        return self._ell(resid, self.spec.residual_signal_matrix(horizon, n0)[:length])

    # copies of the base methods in the class body, which per-class
    # instrumentation (perfbench/tracer.py) reads from the class __dict__
    step = ObservationModel.step
    sample_paths = ObservationModel.sample_paths
    path_increments = ObservationModel.path_increments

    def info_number(self, theta_vec: np.ndarray) -> float:
        qs = [q_limit(self.spec, c).value for c in range(self.dimension)]
        with np.errstate(over="ignore"):  # a square past the largest float is inf
            return 0.5 * float(np.sum(np.asarray(theta_vec) ** 2 * np.asarray(qs)))


def multichannel_ar_model(spec: ArChannelSpec, grid: MixingGrid) -> MultichannelArModel:
    model = MultichannelArModel(spec, grid)
    if np.any(grid.atoms <= 0.0):
        raise ValueError("amplitude atoms must have positive components")
    return model


# ---------------------------------------------------------------------------
# Gaussian i.i.d. model: N(0,1) before the change, N(theta,1) after.
# ---------------------------------------------------------------------------

# one white-noise channel carrying the unit signal S_n = sin(pi/2) = 1
_WHITE_NOISE = ArChannelSpec(ar_coeffs=((),), signals=(HarmonicSignal(1.0, 0.0, math.pi / 2),))


class GaussianIidModel(MultichannelArModel):
    """Unit-variance Gaussian mean shift, l_n(theta) = theta*x - theta^2/2: the AR
    model's one white-noise channel with the unit signal, and atoms of any sign."""

    def __init__(self, grid: MixingGrid):
        if grid.dimension != 1:
            raise ValueError("gaussian_iid_model requires scalar grid atoms")
        super().__init__(_WHITE_NOISE, grid)

    # copies of the base methods in the class body, which per-class
    # instrumentation (perfbench/tracer.py) reads from the class __dict__
    step = ObservationModel.step
    sample_paths = ObservationModel.sample_paths
    path_increments = ObservationModel.path_increments

    def info_number(self, theta_vec: np.ndarray) -> float:
        try:  # float ** 2 keeps the pinned bits (theta * theta does not) but can overflow
            return 0.5 * float(theta_vec[0]) ** 2
        except OverflowError:
            return math.inf


def gaussian_iid_model(grid: MixingGrid) -> GaussianIidModel:
    return GaussianIidModel(grid)


# ---------------------------------------------------------------------------
# Two-state hidden Markov model with unit-variance Gaussian emissions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hmm2Spec:
    """Two-state HMM: parameter = pair of state emission means.

    The hidden chain has transition probabilities beta (state 1 -> 2) and
    gamma (state 2 -> 1), shared by the pre- and post-change regimes; the
    regimes differ only in the emission means.  Time 0 starts from the
    initial distribution P(state = 2) = gamma / (beta + gamma).
    """

    theta0: tuple[float, float]
    beta: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "theta0", (float(self.theta0[0]), float(self.theta0[1])))
        if not (0.0 <= self.beta <= 1.0 and 0.0 <= self.gamma <= 1.0):
            raise ValueError("beta and gamma must lie in [0, 1]")
        if self.beta + self.gamma <= 0.0:
            raise ValueError("beta + gamma must be positive")

    @property
    def pi2(self) -> float:
        return self.gamma / (self.beta + self.gamma)

    @property
    def symmetric(self) -> bool:
        return self.beta == 0.5 and self.gamma == 0.5


def _log_normal_pdf(x, mean):
    return -0.5 * (x - mean) ** 2 - _LOG_SQRT_2PI


def _correct(log_g1, log_g2, log_e1, log_e2):
    """Fold an observation into the log prediction of a chain, given its log
    emission densities log_e1, log_e2 under the two state means.

    Arguments broadcast.  Returns (log_c, log_f1, log_f2): the log one-step
    predictive density of the observation given the history, and the
    normalized log filter.
    """
    log_j1 = log_g1 + log_e1
    log_j2 = log_g2 + log_e2
    log_c = np.logaddexp(log_j1, log_j2)
    return log_c, log_j1 - log_c, log_j2 - log_c


class TwoStateHmmModel(ObservationModel):
    """Marginal-likelihood forward filter per parameter value.

    For each parameter (the pre-change means plus every grid atom) the model
    runs a normalized two-state forward pass; the per-step log marginal
    increment is the log one-step predictive density log c_n(theta), and the
    LLR increment is l_n(theta) = log c_n(theta) - log c_n(theta0).  Summing
    increments over (k, n] telescopes to the log-ratio of full-path marginal
    likelihoods, the quantity the mixture statistics are built on.

    The forward filter exists once, as ``_predict`` then ``_correct`` in the
    log domain, in one loop (``_filter_block``) over a (parameters, paths)
    table that scores given observations or, in ``simulate_block``, samples
    and scores at once: a changed path draws its hidden state from its theta's
    row.  An off-grid theta adds one row, of its own means, whose increments
    are not reported.
    """

    def __init__(self, spec: Hmm2Spec, grid: MixingGrid):
        if grid.dimension != 2:
            raise ValueError("hmm2_model requires 2-dimensional atoms (state means)")
        self.spec = spec
        self.grid = grid
        self.dimension = 1
        # parameter table: row 0 is theta0, rows 1.. are the grid atoms
        self._means = np.vstack([np.asarray(spec.theta0), grid.atoms])  # (P, 2)
        with np.errstate(divide="ignore"):
            self._ltr = {
                "stay1": np.log(1.0 - spec.beta),
                "to2": np.log(spec.beta),
                "to1": np.log(spec.gamma),
                "stay2": np.log(1.0 - spec.gamma),
            }

    def _filter_start(self, *shape):
        """Normalized log filter (log_f1, log_f2) at time 0, each of the given shape."""
        pi2 = self.spec.pi2
        with np.errstate(divide="ignore"):
            return np.full(shape, np.log(1.0 - pi2)), np.full(shape, np.log(pi2))

    def _predict(self, log_f1, log_f2):
        """One-step log prediction (log_g1, log_g2) from the log filter; with
        beta = gamma = 1/2 both would be the same logaddexp, so it runs once."""
        t = self._ltr
        log_g1 = np.logaddexp(log_f2 + t["to1"], log_f1 + t["stay1"])
        if self.spec.symmetric:
            return log_g1, log_g1
        return log_g1, np.logaddexp(log_f2 + t["stay2"], log_f1 + t["to2"])

    def _filter_block(self, table, rows, n0, n1, x=None, sampler=None):
        """Filter paths ``rows`` from time n0 to n1: the one loop that scores
        and samples.  ``table`` is an increment state and x (L, B) the paths'
        observations, time first, or None to draw them with a ``sampler``.
        Returns x as (B, L, 1), a view, and the increments (L, n_atoms, B).
        Given observations have their emission densities evaluated BLOCK
        rows at a time; drawn ones, row by row as drawn."""
        log_f1, log_f2 = table[0][:, rows], table[1][:, rows]
        p, length, batch = len(self._means), n1 - n0, log_f1.shape[1]
        m1, m2 = self._means[:, :1], self._means[:, 1:]  # (P, 1): broadcast over paths
        if sampler is not None:
            spec, (b1, b2), carry = self.spec, self.spec.theta0, sampler.carry
            z, u = np.empty((batch, length)), np.empty((batch, length))
            for r, i in enumerate(rows.tolist()):  # normals and uniforms: the two cursors
                sampler.rngs[i].standard_normal(out=z[r])
                carry["cursors"][i].random(out=u[r])
            x, u = np.ascontiguousarray(z.T), np.ascontiguousarray(u.T)  # time first
            nus, (t1, t2) = sampler.nus[rows], sampler.thetas[rows].T
            src, state2 = carry["src"][rows], carry["state2"][rows]
            if (own := carry["own"]) is not None:  # the extra row: each path's own means
                log_f1, m1 = np.vstack([log_f1, own[0][rows]]), np.vstack([m1.repeat(batch, 1), t1])
                log_f2, m2 = np.vstack([log_f2, own[1][rows]]), np.vstack([m2.repeat(batch, 1), t2])
        out = np.empty((length, p - 1, batch))
        for k in range(length):
            log_g1, log_g2 = self._predict(log_f1, log_f2)
            if sampler is None:
                if not k % BLOCK:  # the next BLOCK given rows' emissions at once, (BLOCK, P, B)
                    e1, e2 = (_log_normal_pdf(x[k : k + BLOCK, None, :], m) for m in (m1, m2))
                row1, row2 = e1[k % BLOCK], e2[k % BLOCK]
            else:
                # pre-change: the true chain under the no-change law; post-change:
                # the post-change one-step predictive given the realized past
                state2 = np.where(state2, u[k] < 1.0 - spec.gamma, u[k] < spec.beta)
                mean = np.where(state2, b2, b1)
                if (post := np.flatnonzero(n0 + k >= nus)).size:
                    g1, g2 = log_g1[src[post], post], log_g2[src[post], post]
                    state2[post] = s2 = u[k, post] < np.exp(g2 - np.logaddexp(g1, g2))
                    mean[post] = np.where(s2, t2[post], t1[post])
                np.add(mean, x[k], out=x[k])
                row1, row2 = _log_normal_pdf(x[k], m1), _log_normal_pdf(x[k], m2)
            log_c, log_f1, log_f2 = _correct(log_g1, log_g2, row1, row2)
            np.subtract(log_c[1:p], log_c[0], out=out[k])
        table[0][:, rows], table[1][:, rows] = log_f1[:p], log_f2[:p]
        if sampler is not None:
            carry["state2"][rows] = state2
            if own is not None:
                own[0][rows], own[1][rows] = log_f1[p], log_f2[p]
        return x.T[:, :, None], out

    def increment_state(self, batch):
        return self._filter_start(self._means.shape[0], batch)  # (P, batch)

    def increment_block(self, state, rows, x, n0):
        x = np.ascontiguousarray(x[:, :, 0].T)
        return self._filter_block(state, rows, n0, n0 + len(x), x)[1]

    def sampler_state(self, nus, thetas, horizon, rngs):
        """A path's stream is its chain uniforms u_0 .. u_horizon, then its normals,
        read by two cursors: a copy of its generator draws u_0 here and each
        block's uniforms later; the generator skips them, then draws the normals."""
        cursors = []
        for rng in rngs:
            bits = type(rng.bit_generator)(_SeedWords())
            bits.state = words = rng.bit_generator.state
            cursors.append(np.random.Generator(bits))
            _skip_uniforms(rng, horizon + 1, words)
        u0 = np.array([c.random() for c in cursors])
        state = _sampler(nus, thetas, rngs, 2, cursors=cursors, state2=u0 < self.spec.pi2)
        # changed paths draw from their theta's table row, or else the extra row
        match = (state.thetas[:, None, :] == self._means).all(axis=2)
        src = np.where(match.any(axis=1), match.argmax(axis=1), len(self._means))
        extra = np.any(~match.any(axis=1) & (state.nus < horizon))
        state.carry.update(src=src, own=self._filter_start(len(rngs)) if extra else None)
        return state

    def simulate_block(self, sampler, scorer, rows, n0, n1):
        return self._filter_block(scorer, rows, n0, n1, sampler=sampler)

    # copies of the base methods in the class body, which per-class
    # instrumentation (perfbench/tracer.py) reads from the class __dict__
    step = ObservationModel.step
    sample_paths = ObservationModel.sample_paths
    path_increments = ObservationModel.path_increments

    def info_number(self, theta_vec: np.ndarray) -> float:
        """Long-run LLR rate, by quadrature; symmetric transitions only.

        With beta = gamma = 1/2 the observations are i.i.d. two-component
        mixtures, so I is the Kullback-Leibler divergence of the post- from
        the pre-change mixture.  The integrand is smooth with Gaussian tails,
        so the trapezoid rule of step <= 0.1 on [m - 12, m + 12] around each
        mean m, merged where they overlap, is accurate to well below 1e-10.  A
        mean near 1e16 or beyond, where floats hold no such grid, is refused.
        """
        if not self.spec.symmetric:
            raise NotImplementedError(
                "info number is only available for symmetric transitions "
                "(beta = gamma = 1/2)"
            )
        a1, a2 = float(theta_vec[0]), float(theta_vec[1])
        b1, b2 = self.spec.theta0
        ms = sorted((a1, a2, b1, b2))
        cuts = [0, *(i for i in (1, 2, 3) if ms[i] - 12.0 > ms[i - 1] + 12.0), 4]
        windows = [(ms[i] - 12.0, ms[j - 1] + 12.0) for i, j in zip(cuts, cuts[1:])]
        grids = [np.linspace(lo, hi, math.ceil((hi - lo) / 0.1) + 1) for lo, hi in windows]
        # checked before any density is evaluated, which a huge mean would overflow
        if not all(len(x) > 1 and (np.diff(x) > 0).all() for x in grids):
            big = max(ms, key=abs)
            raise NotImplementedError(f"info number: no float grid of step 0.1 near {big:g}")
        total = 0.0
        for x in grids:
            log_num = np.logaddexp(_log_normal_pdf(x, a1), _log_normal_pdf(x, a2))
            log_den = np.logaddexp(_log_normal_pdf(x, b1), _log_normal_pdf(x, b2))
            f = (log_num - log_den) * 0.5 * np.exp(log_num)
            # trapezoid sum by hand: np.trapezoid needs numpy >= 2
            total += (x[-1] - x[0]) / (len(x) - 1) * (f.sum() - 0.5 * (f[0] + f[-1]))
        return float(total)


def hmm2_model(spec: Hmm2Spec, grid: MixingGrid) -> TwoStateHmmModel:
    return TwoStateHmmModel(spec, grid)


def info_number(model: ObservationModel, theta) -> float:
    """Information number I_theta for an atom index or parameter vector.

    Gaussian i.i.d.: theta^2/2.  Multichannel AR: sum theta_c^2 Q_c / 2 with
    numeric Q_c.  HMM: Kullback-Leibler rate by the trapezoid rule (symmetric
    case).
    """
    return model.info_number(model.grid.theta_vector(theta))
