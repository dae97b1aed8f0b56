"""A model's states hold per-path state only, so their size does not grow with time.

``SamplerState.carry`` holds each model's per-path arrays, leading axis =
batch, and lists of generators, one per path.  A table shared by the paths,
such as a signal over the whole horizon, has no place there: a model
computes such values for each block instead.  This walks everything
reachable from ``sampler_state(...).carry`` and names each entry that is
neither; ``run_trials`` then peaks at the same memory at any horizon.  An
increment state after a few blocks holds arrays sized by the batch and the
model only, none by the rows scored, so a stream of any length is scored in
the same memory.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from mixdetect._engine import TrialSpec
from mixdetect.detectors import BLOCK, multicyclic_run
from mixdetect.measures import geometric_prior, grid_from_atoms
from mixdetect.models import (
    ArChannelSpec,
    HarmonicSignal,
    Hmm2Spec,
    gaussian_iid_model,
    hmm2_model,
    multichannel_ar_model,
)
from mixdetect.montecarlo import ExperimentConfig, run_trials

MODELS = {
    "gaussian": lambda: gaussian_iid_model(grid_from_atoms([[0.5], [1.0], [1.5]])),
    "ar": lambda: multichannel_ar_model(
        ArChannelSpec(
            ar_coeffs=((0.5, -0.2), (0.3, 0.1)),
            signals=(HarmonicSignal(1.0, 0.3, 0.0), HarmonicSignal(0.8, 0.0, math.pi / 2)),
        ),
        grid_from_atoms([[0.5, 0.5], [1.0, 0.5], [0.5, 1.0]]),
    ),
    "hmm": lambda: hmm2_model(
        Hmm2Spec(theta0=(0.0, 1.0), beta=0.2, gamma=0.4),
        grid_from_atoms([[0.5, 2.0], [1.0, 2.5]]),
    ),
}

# a post-change theta off every grid above, so the HMM carries its extra filter row
OFF_GRID = {"gaussian": (1.2,), "ar": (0.7, 0.9), "hmm": (1.3, -0.4)}


def _leaves(value, where: str) -> list[tuple[str, object]]:
    """(where, leaf) for each leaf reachable from ``value``, in order, None
    aside: an array's shape, "N generators" for a list of N generators, and
    the type name of anything else."""
    if value is None:
        return []
    if isinstance(value, np.ndarray):
        return [(where, value.shape)]
    if isinstance(value, dict):
        items = [(f"{where}[{k!r}]", v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        if value and all(isinstance(v, np.random.Generator) for v in value):
            return [(where, f"{len(value)} generators")]
        items = [(f"{where}[{i}]", v) for i, v in enumerate(value)]
    else:
        return [(where, type(value).__name__)]
    return [leaf for w, v in items for leaf in _leaves(v, w)]


def _not_per_path(value, batch: int, where: str = "carry") -> list[str]:
    """The entries reachable from ``value`` that are not per-path: arrays whose
    leading axis is not the batch, generator lists of another length, and
    anything of another kind."""
    return [
        f"{w}: shape {leaf}" if isinstance(leaf, tuple) else f"{w}: {leaf}"
        for w, leaf in _leaves(value, where)
        if leaf != f"{batch} generators" and leaf[:1] != (batch,)
    ]


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_sampler_carry_is_per_path(model_name):
    model = MODELS[model_name]()
    batch, horizon = 5, 1000
    rngs = [np.random.default_rng(i) for i in range(batch)]
    nus = np.array([0, 3, 70, horizon, horizon])  # three paths change
    thetas = np.tile(OFF_GRID[model_name], (batch, 1))
    carry = model.sampler_state(nus, thetas, horizon, rngs).carry
    if model_name == "hmm":
        assert carry["own"] is not None
    found = _not_per_path(carry, batch)
    assert found == [], "sampler state that is not per path:\n" + "\n".join(found)


def test_the_walk_names_what_is_not_per_path():
    rngs = [np.random.default_rng(i) for i in range(3)]
    carry = {
        "zi": [np.zeros((3, 2)), np.zeros((3, 0))],
        "cursors": rngs,
        "own": (np.zeros(3), np.zeros(3)),
        "none": None,
        "sig": np.zeros((1000, 2)),
        "short": rngs[:2],
        "nested": [np.zeros(()), 7],
    }
    assert _not_per_path(carry, 3) == [
        "carry['sig']: shape (1000, 2)",
        "carry['short']: 2 generators",
        "carry['nested'][0]: shape ()",
        "carry['nested'][1]: int",
    ]


# increment state of 5 paths: the AR lags (batch, p, channels), the HMM's
# filter tables (parameters, batch), and nothing for the Gaussian
INCREMENT_STATE = {
    "gaussian": [],
    "ar": [("state['lags']", (5, 2, 2))],
    "hmm": [("state[0]", (3, 5)), ("state[1]", (3, 5))],
}


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_increment_state_is_per_path_and_flat(model_name):
    model = MODELS[model_name]()
    batch, scored = 5, 3 * BLOCK + 7
    rng = np.random.default_rng(2)
    state = model.increment_state(batch)
    for n0 in range(0, scored, BLOCK):
        x = rng.standard_normal((batch, min(BLOCK, scored - n0), model.dimension))
        model.increment_block(state, np.arange(batch), x, n0)
    found = _leaves(state, "state")
    assert found == INCREMENT_STATE[model_name]
    assert all(max(shape, default=0) < scored for _, shape in found)


def _stream(dimension: int, rows: int):
    """``rows`` observations, one at a time, cycled from a fixed 4096-row buffer."""
    buffer = np.random.default_rng(3).standard_normal((4096, dimension))
    for n in range(rows):
        yield buffer[n % 4096]


def _stream_peak_mb(model_name: str, rows: int) -> float:
    """Peak traced memory of a streaming MSR run over ``rows`` rows that never alarms."""
    model = MODELS[model_name]()
    tracemalloc.start()
    try:
        records = multicyclic_run(
            "msr", model, geometric_prior(0.02), 1e3, _stream(model.dimension, rows)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records == []
    return peak / 1e6


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_stream_memory_does_not_grow_with_the_stream(model_name):
    """A generator-fed stream is scored in the same memory at 1e4 and 1e5 rows.
    A table kept per row scored would hold 1.6 MB more for AR(2) x 2 at 1e5."""
    small, large = _stream_peak_mb(model_name, 10_000), _stream_peak_mb(model_name, 100_000)
    assert abs(large - small) < 1.0, f"peak {small:.2f} MB at 1e4 rows, {large:.2f} MB at 1e5"


def _peak_mb(model_name: str, horizon: int) -> float:
    """Peak traced memory of one chunk of trials that all alarm in the first block."""
    cfg = ExperimentConfig(
        model=MODELS[model_name](),
        prior=geometric_prior(0.02),
        detector="msr",
        omega=0.0,
        log_threshold=-50.0,  # far below the statistic's first values
        trials=64,
        horizon=horizon,
        master_seed=7,
    )
    spec = TrialSpec(mode="fixed", nu=0, theta=OFF_GRID[model_name])
    tracemalloc.start()
    try:
        td = run_trials(cfg, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all((td.stop_times >= 1) & (td.stop_times <= BLOCK))
    return peak / 1e6


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_chunk_memory_does_not_grow_with_the_horizon(model_name):
    """A chunk whose trials all alarm in the first block holds the same memory
    at horizons 2e5 and 2e6: no state is sized by the horizon."""
    small, large = _peak_mb(model_name, 200_000), _peak_mb(model_name, 2_000_000)
    assert abs(large - small) < 1.0, f"peak {small:.2f} MB at 2e5 steps, {large:.2f} MB at 2e6"
