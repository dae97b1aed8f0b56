"""Benchmark workloads: seeded inputs for each CLI command and its output check.

Every workload runs single-process (``workers = 1``).  ``prepare`` writes the
inputs for one seed into a work directory; the same seed gives the same
bytes.  ``check`` inspects the outputs of one finished command and returns a
list of problems (empty when the outputs are correct).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# A simulate estimate passes when it lies within this many combined standard
# errors, sqrt(se^2 + se_ref^2), of the estimate recorded for the default
# seed.  Six is far outside seed-to-seed Monte Carlo noise (a false failure
# has probability about 2e-9 per estimate), yet catches a wrong estimator.
ESTIMATE_TOLERANCE_SE = 6.0

STREAM_ROWS = 100_000
STREAM_BLOCK = 5_000  # one injected amplitude shift per block of rows
SHIFT_ROWS = 100
SHIFT_AMPLITUDES = (1.0, 1.5, 2.0)


@dataclass
class Inputs:
    """One prepared workload instance."""

    argv: list[str]  # CLI arguments, run from the work directory
    work_units: int  # trials simulated (simulate) or rows processed (detect)
    outputs: list[str]  # files the command writes, relative to the work directory
    report: str | None = None  # simulate report JSON
    expected_alarms: list[int] = field(default_factory=list)  # detect only


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _simulate_inputs(work: str, name: str, doc: dict) -> Inputs:
    _write_json(os.path.join(work, f"{name}.json"), doc)
    mc = doc["montecarlo"]
    report = doc["output"]["report"]
    return Inputs(
        argv=["simulate", f"{name}.json"],
        work_units=mc["trials"] * len(mc["scenarios"]),
        outputs=[report],
        report=report,
    )


def prepare_gauss_pfa(root: str, work: str, seed: int, smoke: bool) -> Inputs:
    with open(os.path.join(root, "configs", "pfa_bounds.json")) as fh:
        doc = json.load(fh)
    doc["montecarlo"]["seed"] = seed
    if smoke:
        doc["montecarlo"]["trials"] = 256
    return _simulate_inputs(work, "gauss_pfa", doc)


def prepare_ar_no_change(root: str, work: str, seed: int, smoke: bool) -> Inputs:
    # Pi(2000) = 0.99**2000 ~ 2e-9 is far below 0.01 * alpha, where the MSR
    # bound alpha = mean / A = 99 / e^10 ~ 4.5e-3, so the horizon check passes.
    doc = {
        "model": {
            "kind": "multichannel_ar",
            "ar_coeffs": [[0.5]],
            "signals": [{"amplitude": 1.0, "omega": 0.0, "phase": math.pi / 2}],
        },
        "prior": {"kind": "geometric", "rho": 0.01, "q": 0.0},
        "mixing": {"kind": "uniform_grid", "lower": [1.0], "upper": [5.0], "counts": [5]},
        "detector": {"kind": "msr", "omega": 0.0},
        "calibration": {"kind": "fixed", "log_threshold": 10.0},
        "montecarlo": {
            # fewer trials than one engine chunk make the strict PFA <= bound
            # check fail from Monte Carlo noise alone
            "trials": 1024 if smoke else 2048,
            "horizon": 2000,
            "seed": seed,
            "workers": 1,
            "scenarios": [{"name": "pfa_tail", "quantity": "pfa_tail"}],
        },
        "output": {"report": "ar_no_change_report.json"},
    }
    return _simulate_inputs(work, "ar_no_change", doc)


def prepare_hmm_late_change(root: str, work: str, seed: int, smoke: bool) -> Inputs:
    doc = {
        "model": {"kind": "hmm2", "theta0": [0.0, 1.0], "beta": 0.5, "gamma": 0.5},
        "prior": {"kind": "geometric", "rho": 0.01, "q": 0.0},
        "mixing": {"kind": "atoms", "atoms": [[0.5, 1.5], [1.0, 2.0]]},
        "detector": {"kind": "msr", "omega": 0.0},
        # log A = 11 keeps false alarms before the change (rejected trials) near
        # 1.5%, and the horizon leaves 100 steps for a delay of about 27
        "calibration": {"kind": "fixed", "log_threshold": 11.0},
        "montecarlo": {
            "trials": 64 if smoke else 1024,
            "horizon": 1000,
            "seed": seed,
            "workers": 1,
            "scenarios": [
                {
                    "name": "delay_late",
                    "quantity": "delay",
                    "change_point": 900,
                    "theta": 1,
                    "moments": [1],
                }
            ],
        },
        "output": {"report": "hmm_late_change_report.json"},
    }
    return _simulate_inputs(work, "hmm_late_change", doc)


def import_package(root: str):
    """Import mixdetect.cli from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import mixdetect.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"mixdetect was imported from {cli.__file__}, not from {src}")
    return cli


def stream(seed: int, rows: int, beta: float) -> np.ndarray:
    """AR(1) noise with one amplitude shift of SHIFT_ROWS rows per block."""
    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    x = lfilter([1.0], [1.0, -beta], rng.standard_normal(rows))
    for block in range(0, rows - STREAM_BLOCK + 1, STREAM_BLOCK):
        start = block + int(rng.integers(0, STREAM_BLOCK - SHIFT_ROWS))
        x[start : start + SHIFT_ROWS] += rng.choice(SHIFT_AMPLITUDES)
    return x


def lockstep_alarms(exp, data: np.ndarray) -> list[int]:
    """Multicyclic alarm times from the lockstep path over the whole stream.

    Increments come from ``model.increments_for`` (the batch path), and the
    recursion is the one in ``_engine.run_chunk`` on a batch of one,
    restarted after every alarm.  Streaming ``detect`` must agree exactly.
    """
    ell = exp.model.increments_for(data)
    t, k = ell.shape
    logw = exp.grid.log_weights
    log_a = exp.threshold.log_threshold
    ms = exp.detector == "ms"
    with np.errstate(divide="ignore"):
        init = np.log(exp.prior.q if ms else exp.omega)
    if ms:
        log_pi = exp.prior.log_pmf_array(t)
        log_tail = exp.prior.log_tail_array(t)
    state = np.full((1, k), init)
    alarms: list[int] = []
    restart = 0
    for n in range(1, t + 1):
        m = n - restart  # steps since the last restart
        if ms:
            state = np.logaddexp(state, log_pi[m - 1]) + ell[None, n - 1, :]
            log_stat = np.logaddexp.reduce(state + logw, axis=1) - log_tail[m]
        else:
            state = np.logaddexp(state, 0.0) + ell[None, n - 1, :]
            log_stat = np.logaddexp.reduce(state + logw, axis=1)
        if log_stat[0] >= log_a:
            alarms.append(n)
            restart = n
            state = np.full((1, k), init)
    return alarms


def prepare_ar_stream_detect(root: str, work: str, seed: int, smoke: bool) -> Inputs:
    config = os.path.join(root, "configs", "detect_ar_stream.json")
    cli = import_package(root)
    exp = cli.load_experiment(config)
    data = stream(seed, 5_000 if smoke else STREAM_ROWS, exp.model.spec.ar_coeffs[0][0])
    path = os.path.join(work, "stream.csv")
    np.savetxt(path, data, fmt="%.17g", header="x", comments="")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)  # exactly what detect reads
    out = exp.output
    return Inputs(
        argv=["detect", config, "stream.csv", "--multicyclic", "--trajectory"],
        work_units=data.shape[0],
        outputs=[out["alarms"], out["trajectory"]],
        expected_alarms=lockstep_alarms(exp, data),
    )


def scenario_estimates(report: dict) -> dict[str, tuple[float, float]]:
    """(point, stderr) of every estimate in a simulate report, by name."""
    found = {}
    for row in report["scenarios"]:
        if "estimate" in row:
            found[row["name"]] = row["estimate"]
        for m, cell in row.get("moments", {}).items():
            found[f"{row['name']} r={m}"] = cell["estimate"]
    return {name: (est["point"], est["stderr"]) for name, est in found.items()}


def check_simulate(work: str, inputs: Inputs, reference: dict) -> list[str]:
    with open(os.path.join(work, inputs.report)) as fh:
        report = json.load(fh)
    problems = []
    for row in report["scenarios"]:
        if row["quantity"] in ("pfa_tail", "pfa_posterior"):
            if not row["estimate"]["point"] <= row["bound"]:
                problems.append(
                    f"{row['name']}: PFA {row['estimate']['point']} exceeds its bound {row['bound']}"
                )
    expected = reference["estimates"]
    got = scenario_estimates(report)
    if set(got) != set(expected):
        problems.append(f"estimates {sorted(got)} differ from reference {sorted(expected)}")
    for name in sorted(set(got) & set(expected)):
        (point, se), (ref_point, ref_se) = got[name], expected[name]
        tol = ESTIMATE_TOLERANCE_SE * math.hypot(se, ref_se)
        if not abs(point - ref_point) <= tol:
            problems.append(f"{name}: estimate {point} is not within {tol} of {ref_point}")
    return problems


def check_detect(work: str, inputs: Inputs, reference: dict) -> list[str]:
    alarms_path, trajectory_path = (os.path.join(work, p) for p in inputs.outputs)
    with open(alarms_path) as fh:
        lines = fh.read().split()
    if lines[:1] != ["alarm_time"]:
        return [f"{alarms_path}: missing alarm_time header"]
    alarms = [int(v) for v in lines[1:]]
    problems = []
    if alarms != inputs.expected_alarms:
        problems.append(
            f"streaming alarms {alarms[:10]}... ({len(alarms)}) differ from lockstep "
            f"alarms {inputs.expected_alarms[:10]}... ({len(inputs.expected_alarms)})"
        )
    with open(trajectory_path) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != inputs.work_units:
        problems.append(f"trajectory has {rows} rows, stream has {inputs.work_units}")
    return problems


def output_digest(work: str, inputs: Inputs) -> str:
    """SHA-256 over the command's output files, in order."""
    h = hashlib.sha256()
    for p in inputs.outputs:
        with open(os.path.join(work, p), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[str, str, int, bool], Inputs]  # (root, work, seed, smoke)
    check: Callable[[str, Inputs, dict], list[str]]  # (work, inputs, reference) -> problems
    work_name: str  # work_per_s under the name for this kind of command


WORKLOADS = {
    # Shipped Gaussian MS config (4 scenarios x 10 000 trials, horizon 2000).
    # Alarms fire ~8 steps in, so ~1.6% of sampled steps are read: whole-path
    # materialisation dominates, which is where an early-exit engine shows.
    "gauss_pfa": Workload(prepare_gauss_pfa, check_simulate, "trials_per_s"),
    # Multichannel AR(1), MSR, no change: ~98% of steps are used, so early
    # exit should change nothing; the recursion and increment memory dominate.
    "ar_no_change": Workload(prepare_ar_no_change, check_simulate, "trials_per_s"),
    # Symmetric two-state HMM, MSR, change at 900 of 1000: ~91% of steps
    # used; the scalar HMM sampler dominates, and it alone runs the HMM
    # filter copies and the quadrature in theory.
    "hmm_late_change": Workload(prepare_hmm_late_change, check_simulate, "trials_per_s"),
    # Streaming multicyclic detect over a seeded AR(1) CSV with amplitude
    # shifts: the per-row models.step / msr_update path, CSV load and
    # trajectory write, and the memory of a long stream.
    "ar_stream_detect": Workload(prepare_ar_stream_detect, check_detect, "rows_per_s"),
}
