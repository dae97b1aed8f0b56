"""In-memory span recorder that wraps mixdetect's public functions from outside.

A span is (name, parent, start, end).  Spans are kept in flat arrays, not
Python objects, so that per-row spans of a long ``detect`` stream neither
grow the garbage collector's work nor distort memory much.  A layer's self
time is the sum of its spans' durations minus the time covered by their
child spans.

``install`` patches the names the package looks up at call time: module
globals for functions (``cli.load_experiment``, ``montecarlo.run_chunk``,
``_engine.trial_rng`` ...) and class attributes for model and prior methods.
The package itself is not modified on disk.
"""

from __future__ import annotations

import functools
import time
from array import array


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the currently open one."""
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(start)
        self.end.append(end)

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, fn, name: str, on_result=None):
        """Return ``fn`` wrapped in a span; ``on_result(tracer, args, result)`` counts."""
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        setattr(owner, attr, self.wrap(owner.__dict__[attr], name, on_result))

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, object]]:
        """Per span name: summed self time, span count, and span durations."""
        import numpy as np  # imported late, so that it stays inside the cli.import span

        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        k = len(self.names)
        self_sum = np.bincount(name_id, weights=own, minlength=k)
        calls = np.bincount(name_id, minlength=k)
        return (
            {n: float(self_sum[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: dur[name_id == i] for i, n in enumerate(self.names)},
        )

    def dump(self, path: str) -> None:
        """Write every span to a compressed ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# Counts taken at layer boundaries.  Each must repeat exactly between runs of
# the same inputs, so they use only the calls' arguments and results.
# ---------------------------------------------------------------------------


def _count_chunk(tr: Tracer, args, kwargs, td) -> None:
    # run_chunk(model, prior, grid, detector, omega, log_threshold, horizon,
    #           spec, master_seed, start, count, want_final_stat)
    log_threshold, horizon, count = args[5], args[6], args[10]
    want_final_stat = args[11] if len(args) > 11 else kwargs.get("want_final_stat", False)
    tr.count("engine.steps_simulated", count * horizon)
    if log_threshold is None or want_final_stat:
        used = count * horizon
    else:
        stops = td.stop_times
        used = int(stops.sum() + (stops == 0).sum() * horizon)
    tr.count("engine.steps_used", used)


def _count_trials(tr: Tracer, args, kwargs, td) -> None:
    tr.count("montecarlo.trials_simulated", td.stop_times.size)
    tr.count("montecarlo.censored", int((td.stop_times == 0).sum()))


def _count_estimate(tr: Tracer, args, kwargs, result) -> None:
    # every estimator returns an Estimate, delay moments a dict of them that
    # share one set of trials; slope_regression returns neither
    est = next(iter(result.values())) if isinstance(result, dict) else result
    if hasattr(est, "trials"):
        tr.count("montecarlo.contributing", est.trials)
        tr.count("montecarlo.rejected", est.extras.get("rejected", 0))


def _count_nbytes(key: str):
    def hook(tr: Tracer, args, kwargs, arr) -> None:
        tr.count(key, arr.nbytes)

    return hook


def _count_alarms(tr: Tracer, args, kwargs, result) -> None:
    if isinstance(result, tuple):  # _multicyclic_with_tail -> (records, tail)
        tr.count("detectors.alarms", len(result[0]))
    else:  # run_detector -> AlarmRecord
        tr.count("detectors.alarms", 0 if result.censored else 1)


def install(tr: Tracer, cli) -> None:
    """Wrap the calls into each mixdetect layer in spans (see module docstring)."""
    from mixdetect import _engine, detectors, measures, models, montecarlo

    tr.patch(cli, "main", "cli.main")
    tr.patch(cli, "load_experiment", "cli.load_experiment")
    tr.patch(cli, "load_csv_stream", "cli.load_csv")
    tr.patch(cli, "_write_trajectory", "cli.write")
    for fn in ("ms_threshold", "msr_threshold", "bayes_threshold", "fixed_threshold", "d_constant"):
        tr.patch(cli, fn, "calibration.threshold")
    for fn in (
        "ms_delay_prediction",
        "msr_delay_prediction",
        "integrated_risk_prediction",
        "info_number",
    ):
        tr.patch(cli, fn, "theory.prediction")
    for fn in (
        "estimate_pfa_tail",
        "estimate_pfa_posterior",
        "estimate_delay_moments",
        "estimate_average_delay_risk",
        "estimate_integrated_risk",
        "slope_regression",
    ):
        tr.patch(cli, fn, "montecarlo.reduce", _count_estimate)
    tr.patch(montecarlo, "run_trials", "montecarlo.run_trials", _count_trials)
    tr.patch(montecarlo, "run_chunk", "engine.chunk", _count_chunk)
    tr.patch(_engine, "trial_rng", "engine.rng")
    tr.patch(_engine, "_draw_trials", "engine.draws")
    tr.patch(measures.ChangePrior, "sample", "measures.sample")
    tr.patch(measures.MixingGrid, "sample_index", "measures.sample")
    for fn in ("log_pmf_array", "log_tail_array", "tail"):
        tr.patch(measures.ChangePrior, fn, "measures.tables")
    for cls in (models.GaussianIidModel, models.MultichannelArModel, models.TwoStateHmmModel):
        tr.patch(cls, "sample_paths", "models.sample_paths", _count_nbytes("models.paths_bytes"))
        tr.patch(
            cls,
            "path_increments",
            "models.path_increments",
            _count_nbytes("models.increments_bytes"),
        )
        tr.patch(cls, "step", "models.step")
    tr.patch(detectors, "ms_update", "detectors.update")
    tr.patch(detectors, "msr_update", "detectors.update")
    tr.patch(cli, "run_detector", "detectors.loop", _count_alarms)
    tr.patch(cli, "_multicyclic_with_tail", "detectors.loop", _count_alarms)
