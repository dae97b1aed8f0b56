"""Configuration loading, experiment orchestration, and streaming detection.

Subcommands:

* ``calibrate <config.json>``: compute and print the detection threshold
  with its provenance; optionally write it as JSON.
* ``simulate <config.json>``: run every configured Monte Carlo scenario,
  write the report JSON (and ladder CSVs), print a summary table.
* ``detect <config.json> <data.csv> [--multicyclic] [--trajectory]``: run
  the detector over a CSV stream (one time step per row, one column per
  channel, optional header); emit alarm times, optionally the per-step
  log-statistic trajectory.

Configs are strict JSON: unknown keys are rejected, cross-field rules
(horizon vs prior tail, alpha vs q, grid vs model dimension) are checked at
load, and every random experiment requires an explicit seed.  Exit codes:
0 success, 2 config error, 3 runtime/estimation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    ThresholdSpec,
    bayes_threshold,
    d_constant,
    fixed_threshold,
    ms_threshold,
    msr_threshold,
)
from .detectors import _multicyclic_with_tail, run_detector
from .measures import (
    ChangePrior,
    MixingGrid,
    geometric_prior,
    grid_from_atoms,
    heavy_tail_prior,
    point_mass_prior,
    uniform_grid,
)
from .models import (
    ArChannelSpec,
    HarmonicSignal,
    Hmm2Spec,
    ObservationModel,
    gaussian_iid_model,
    hmm2_model,
    info_number,
    multichannel_ar_model,
)
from .montecarlo import (
    EstimationError,
    ExperimentConfig,
    estimate_average_delay_risk,
    estimate_delay_moments,
    estimate_integrated_risk,
    estimate_pfa_posterior,
    estimate_pfa_tail,
    slope_regression,
)
from .theory import (
    Prediction,
    integrated_risk_prediction,
    ms_delay_prediction,
    msr_delay_prediction,
)

WORKERS_ENV = "MIXDETECT_WORKERS"


class ConfigError(ValueError):
    """Invalid configuration; the message names the failing field."""


def _check_keys(obj: dict, where: str, allowed: set[str], required: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}.{key}: missing required key")


def _number(obj: dict, where: str, key: str, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}.{key}: missing required key")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number")
    return val


def _check_kind_keys(obj: dict, where: str, by_kind: dict[str, set[str]]) -> str:
    """Validate the section's kind and its kind-specific key set."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}.kind: missing required key")
    kind = obj["kind"]
    if kind not in by_kind:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    _check_keys(obj, where, by_kind[kind] | {"kind"})
    return kind


def build_prior(doc: dict) -> ChangePrior:
    where = "prior"
    kind = _check_kind_keys(
        doc,
        where,
        {"geometric": {"rho", "q"}, "heavy_tail": {"c_exponent", "q"}, "point_mass": {"k0"}},
    )
    try:
        if kind == "geometric":
            return geometric_prior(_number(doc, where, "rho"), _number(doc, where, "q", 0.0))
        if kind == "heavy_tail":
            return heavy_tail_prior(
                _number(doc, where, "c_exponent"), _number(doc, where, "q", 0.0)
            )
        return point_mass_prior(int(_number(doc, where, "k0", 0)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_grid(doc: dict) -> MixingGrid:
    where = "mixing"
    kind = _check_kind_keys(
        doc,
        where,
        {"uniform_grid": {"lower", "upper", "counts"}, "atoms": {"atoms", "weights"}},
    )
    try:
        if kind == "uniform_grid":
            return uniform_grid(doc["lower"], doc["upper"], doc["counts"])
        return grid_from_atoms(doc["atoms"], doc.get("weights"))
    except KeyError as exc:
        raise ConfigError(f"{where}.{exc.args[0]}: missing required key") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_model(doc: dict, grid: MixingGrid) -> ObservationModel:
    where = "model"
    kind = _check_kind_keys(
        doc,
        where,
        {
            "gaussian_iid": set(),
            "multichannel_ar": {"ar_coeffs", "signals"},
            "hmm2": {"theta0", "beta", "gamma"},
        },
    )
    try:
        if kind == "gaussian_iid":
            return gaussian_iid_model(grid)
        if kind == "multichannel_ar":
            signals = []
            for i, s in enumerate(doc.get("signals", [])):
                _check_keys(s, f"{where}.signals[{i}]", {"amplitude", "omega", "phase"})
                signals.append(
                    HarmonicSignal(
                        amplitude=_number(s, f"{where}.signals[{i}]", "amplitude", 1.0),
                        omega=_number(s, f"{where}.signals[{i}]", "omega", 0.0),
                        phase=_number(s, f"{where}.signals[{i}]", "phase", 0.0),
                    )
                )
            spec = ArChannelSpec(
                ar_coeffs=tuple(tuple(ch) for ch in doc["ar_coeffs"]),
                signals=tuple(signals),
            )
            return multichannel_ar_model(spec, grid)
        if kind == "hmm2":
            spec = Hmm2Spec(
                theta0=tuple(doc["theta0"]),
                beta=_number(doc, where, "beta"),
                gamma=_number(doc, where, "gamma"),
            )
            return hmm2_model(spec, grid)
    except KeyError as exc:
        raise ConfigError(f"{where}.{exc.args[0]}: missing required key") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.kind: unknown model kind {kind!r}")


def _grid_info_numbers(model: ObservationModel, grid: MixingGrid) -> np.ndarray:
    return np.array([info_number(model, i) for i in range(grid.size)])


def build_threshold(
    doc: dict,
    prior: ChangePrior,
    grid: MixingGrid,
    model: ObservationModel,
    omega: float,
) -> ThresholdSpec:
    where = "calibration"
    kind = _check_kind_keys(
        doc,
        where,
        {
            "ms-pfa": {"alpha"},
            "msr-pfa": {"alpha"},
            "bayes-cost": {"c", "r"},
            "fixed": {"log_threshold"},
        },
    )
    try:
        if kind == "ms-pfa":
            return ms_threshold(_number(doc, where, "alpha"), prior.q)
        if kind == "msr-pfa":
            return msr_threshold(_number(doc, where, "alpha"), omega, prior)
        if kind == "bayes-cost":
            c = _number(doc, where, "c")
            r = _number(doc, where, "r", 1.0)
            info = _grid_info_numbers(model, grid)
            d = d_constant(grid, info, prior.mu, r)
            return bayes_threshold(c, r, d)
        return fixed_threshold(_number(doc, where, "log_threshold"))
    except NotImplementedError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_SCENARIO_KEYS = {
    "pfa_tail": {"name", "quantity"},
    "pfa_posterior": {"name", "quantity"},
    "delay": {"name", "quantity", "change_point", "theta", "moments"},
    "average_delay": {"name", "quantity", "theta", "moment"},
    "integrated_risk": {"name", "quantity"},
    "delay_ladder": {"name", "quantity", "change_point", "theta", "moments", "log_thresholds"},
}


@dataclass
class Experiment:
    """A fully validated experiment: objects plus the raw document echo."""

    doc: dict
    prior: ChangePrior
    grid: MixingGrid
    model: ObservationModel
    detector: str
    omega: float
    threshold: ThresholdSpec
    trials: int = 0
    horizon: int = 0
    seed: int = 0
    workers: int = 1
    scenarios: list = field(default_factory=list)
    output: dict = field(default_factory=dict)

    def mc_config(self, log_threshold: float | None = None) -> ExperimentConfig:
        return ExperimentConfig(
            model=self.model,
            prior=self.prior,
            grid=self.grid,
            detector=self.detector,
            omega=self.omega,
            log_threshold=(
                self.threshold.log_threshold if log_threshold is None else log_threshold
            ),
            trials=self.trials,
            horizon=self.horizon,
            master_seed=self.seed,
            workers=self.workers,
        )


def _implied_alpha(exp: Experiment) -> float:
    """False-alarm level implied by the configured threshold (for validation)."""
    cal = exp.doc["calibration"]
    if cal["kind"] in ("ms-pfa", "msr-pfa"):
        return float(cal["alpha"])
    a = exp.threshold.threshold
    if exp.detector == "ms":
        return 1.0 / (1.0 + a)
    if not math.isfinite(exp.prior.mean):
        raise ConfigError(
            "montecarlo.horizon: cannot bound the false-alarm level of an MSR rule "
            "under an infinite-mean prior; use a finite-mean prior for PFA scenarios"
        )
    return (exp.omega * exp.prior.b + exp.prior.mean) / a


def load_experiment(path: str, need_montecarlo: bool = False) -> Experiment:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc

    _check_keys(
        doc,
        "config",
        {"model", "prior", "mixing", "detector", "calibration", "montecarlo", "output"},
        {"model", "prior", "mixing", "detector", "calibration"},
    )
    prior = build_prior(doc["prior"])
    grid = build_grid(doc["mixing"])
    model = build_model(doc["model"], grid)

    det = doc["detector"]
    _check_keys(det, "detector", {"kind", "omega"}, {"kind"})
    kind = str(det["kind"]).lower()
    if kind not in ("ms", "msr"):
        raise ConfigError(f"detector.kind: expected 'ms' or 'msr', got {det['kind']!r}")
    omega = _number(det, "detector", "omega", 0.0)
    if omega < 0.0:
        raise ConfigError("detector.omega: must be >= 0")
    if kind == "ms" and omega != 0.0:
        raise ConfigError("detector.omega: the head-start applies to the msr rule only")

    threshold = build_threshold(doc["calibration"], prior, grid, model, omega)
    exp = Experiment(
        doc=doc,
        prior=prior,
        grid=grid,
        model=model,
        detector=kind,
        omega=omega,
        threshold=threshold,
        output=doc.get("output", {}),
    )
    if exp.output:
        _check_keys(
            exp.output,
            "output",
            {"report", "ladder_dir", "alarms", "trajectory", "threshold_json"},
        )

    if need_montecarlo:
        if "montecarlo" not in doc:
            raise ConfigError("montecarlo: missing required section")
        mc = doc["montecarlo"]
        _check_keys(
            mc, "montecarlo", {"trials", "horizon", "seed", "workers", "scenarios"},
            {"trials", "horizon", "seed", "scenarios"},
        )
        exp.trials = int(_number(mc, "montecarlo", "trials"))
        exp.horizon = int(_number(mc, "montecarlo", "horizon"))
        exp.seed = int(_number(mc, "montecarlo", "seed"))
        exp.workers = int(_number(mc, "montecarlo", "workers", 1))
        env_workers = os.environ.get(WORKERS_ENV)
        if env_workers:
            try:
                exp.workers = int(env_workers)
            except ValueError as exc:
                raise ConfigError(f"{WORKERS_ENV}: expected an integer") from exc
        if exp.trials < 1:
            raise ConfigError("montecarlo.trials: must be >= 1")
        if exp.horizon < 1:
            raise ConfigError("montecarlo.horizon: must be >= 1")
        if exp.workers < 1:
            raise ConfigError("montecarlo.workers: must be >= 1")
        if not isinstance(mc["scenarios"], list) or not mc["scenarios"]:
            raise ConfigError("montecarlo.scenarios: need a non-empty list")
        for i, sc in enumerate(mc["scenarios"]):
            where = f"montecarlo.scenarios[{i}]"
            if not isinstance(sc, dict) or "quantity" not in sc:
                raise ConfigError(f"{where}.quantity: missing required key")
            q = sc["quantity"]
            if q not in _SCENARIO_KEYS:
                raise ConfigError(f"{where}.quantity: unknown quantity {q!r}")
            _check_keys(sc, where, _SCENARIO_KEYS[q])
            if q in ("pfa_tail", "pfa_posterior"):
                alpha = _implied_alpha(exp)
                tail = float(exp.prior.tail(exp.horizon))
                if not tail < 0.01 * alpha:
                    raise ConfigError(
                        f"montecarlo.horizon: prior tail Pi({exp.horizon}) = {tail:.3e} "
                        f"is not below 0.01 * alpha = {0.01 * alpha:.3e}; raise the horizon"
                    )
            if q == "pfa_posterior" and exp.detector != "ms":
                raise ConfigError(f"{where}: pfa_posterior applies to the ms rule only")
            if q == "average_delay" and not (
                math.isfinite(exp.prior.mean) or float(exp.prior.tail(exp.horizon)) < 1e-4
            ):
                raise ConfigError(
                    f"{where}: horizon must cover 99.99% of the prior mass "
                    "when the prior mean is infinite"
                )
            if q == "integrated_risk" and doc["calibration"]["kind"] != "bayes-cost":
                raise ConfigError(
                    f"{where}: integrated_risk requires bayes-cost calibration"
                )
        exp.scenarios = mc["scenarios"]

    # grid/model compatibility was enforced by the model constructor; priors
    # with zero tail inside the horizon break the MS recursion, catch it now
    if need_montecarlo and kind == "ms":
        if not np.isfinite(float(prior.log_tail(exp.horizon))):
            raise ConfigError(
                "montecarlo.horizon: the prior's support ends inside the horizon; "
                "the ms statistic is undefined there (use msr or shorten the horizon)"
            )
    return exp


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate(config_path: str) -> int:
    exp = load_experiment(config_path, need_montecarlo=False)
    spec = exp.threshold
    print(f"kind: {spec.kind}")
    print(f"A = {spec.threshold:.12g}")
    print(f"log A = {spec.log_threshold:.9f}")
    for key, val in spec.inputs.items():
        print(f"  {key} = {val:.12g}" if isinstance(val, float) else f"  {key} = {val}")
    out = exp.output.get("threshold_json")
    if out:
        with open(out, "w") as fh:
            json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _theta_from_doc(exp: Experiment, sc: dict, where: str):
    theta = sc.get("theta")
    if theta is None:
        raise ConfigError(f"{where}.theta: missing required key")
    if isinstance(theta, (int,)) and not isinstance(theta, bool):
        if not 0 <= theta < exp.grid.size:
            raise ConfigError(f"{where}.theta: atom index out of range")
        return int(theta)
    if isinstance(theta, list):
        vec = np.asarray(theta, dtype=float)
        if vec.shape != (exp.grid.dimension,):
            raise ConfigError(
                f"{where}.theta: expected {exp.grid.dimension} components"
            )
        return vec
    raise ConfigError(f"{where}.theta: expected an atom index or a vector")


def _theta_vec(exp: Experiment, theta) -> np.ndarray:
    return exp.grid.atoms[theta] if isinstance(theta, int) else theta


def _is_on_grid(exp: Experiment, vec: np.ndarray) -> bool:
    return any(np.array_equal(vec, atom) for atom in exp.grid.atoms)


def _delay_prediction(exp: Experiment, vec, m: float, log_a: float) -> Prediction | None:
    try:
        i_theta = info_number(exp.model, vec)
    except NotImplementedError:
        return None
    if i_theta <= 0.0:
        return None
    a = math.exp(log_a)
    if exp.detector == "ms":
        value = ms_delay_prediction(a, i_theta, exp.prior.mu, m)
        inputs = {"log_A": log_a, "I": i_theta, "mu": exp.prior.mu, "m": m}
        name = "ms_delay"
    else:
        value = msr_delay_prediction(a, i_theta, m)
        inputs = {"log_A": log_a, "I": i_theta, "m": m}
        name = "msr_delay"
    note_bits = []
    if not _is_on_grid(exp, vec):
        note_bits.append("off-grid theta: robustness probe, no optimality claim")
    pred = Prediction(quantity=name, value=value, inputs=inputs)
    if note_bits:
        pred = Prediction(
            quantity=name, value=value, inputs=inputs, note=pred.note + "; " + "; ".join(note_bits)
        )
    return pred


def _run_scenario(exp: Experiment, index: int, sc: dict) -> tuple[dict, list[tuple]]:
    """Returns (report row, ladder rows) for one scenario."""
    q = sc["quantity"]
    name = sc.get("name", f"{q}_{index}")
    where = f"montecarlo.scenarios[{index}]"
    tag_base = 1000 * (index + 1)
    row: dict = {"name": name, "quantity": q}
    ladder_rows: list[tuple] = []

    if q == "pfa_tail":
        est = estimate_pfa_tail(exp.mc_config(), stream_tag=tag_base)
        bound = _implied_alpha(exp)
        row.update(estimate=est.to_dict(), bound=bound, ratio=est.point / bound)
    elif q == "pfa_posterior":
        est = estimate_pfa_posterior(exp.mc_config(), stream_tag=tag_base)
        bound = _implied_alpha(exp)
        row.update(estimate=est.to_dict(), bound=bound, ratio=est.point / bound)
    elif q == "delay":
        theta = _theta_from_doc(exp, sc, where)
        vec = _theta_vec(exp, theta)
        k = int(sc.get("change_point", 0))
        moments = [float(m) for m in sc.get("moments", [1])]
        ests = estimate_delay_moments(
            exp.mc_config(), k, vec, r_list=moments, stream_tag=tag_base
        )
        row["moments"] = {}
        for m, est in ests.items():
            pred = _delay_prediction(exp, vec, m, exp.threshold.log_threshold)
            row["moments"][f"{m:g}"] = {
                "estimate": est.to_dict(),
                "prediction": pred.to_dict() if pred else None,
                "ratio": est.point / pred.value if pred else None,
            }
    elif q == "average_delay":
        theta = _theta_from_doc(exp, sc, where)
        vec = _theta_vec(exp, theta)
        m = float(sc.get("moment", 1))
        est = estimate_average_delay_risk(exp.mc_config(), vec, m, stream_tag=tag_base)
        pred = _delay_prediction(exp, vec, m, exp.threshold.log_threshold)
        row.update(
            estimate=est.to_dict(),
            prediction=pred.to_dict() if pred else None,
            ratio=est.point / pred.value if pred else None,
        )
    elif q == "integrated_risk":
        cal = exp.doc["calibration"]
        c, r = float(cal["c"]), float(cal.get("r", 1.0))
        est = estimate_integrated_risk(exp.mc_config(), c, r, stream_tag=tag_base)
        d = float(exp.threshold.inputs["D"])
        pred = Prediction(
            quantity="integrated_risk",
            value=integrated_risk_prediction(c, r, d),
            inputs={"c": c, "r": r, "D": d},
        )
        row.update(estimate=est.to_dict(), prediction=pred.to_dict(), ratio=est.point / pred.value)
    elif q == "delay_ladder":
        theta = _theta_from_doc(exp, sc, where)
        vec = _theta_vec(exp, theta)
        k = int(sc.get("change_point", 0))
        log_thresholds = sc.get("log_thresholds")
        if not isinstance(log_thresholds, list) or len(log_thresholds) < 4:
            raise ConfigError(f"{where}.log_thresholds: need a list of >= 4 values")
        fit_input = []
        for j, la in enumerate(log_thresholds):
            cfg = exp.mc_config(log_threshold=float(la))
            est = estimate_delay_moments(
                cfg, k, vec, r_list=[1.0], stream_tag=tag_base + j
            )[1.0]
            pred = _delay_prediction(exp, vec, 1.0, float(la))
            ladder_rows.append(
                (float(la), est.point, est.stderr, pred.value if pred else float("nan"))
            )
            fit_input.append((float(la), est.point, est.stderr))
        fit = slope_regression(fit_input)
        pred_slope = None
        try:
            i_theta = info_number(exp.model, vec)
            pred_slope = (
                1.0 / (i_theta + exp.prior.mu) if exp.detector == "ms" else 1.0 / i_theta
            )
        except NotImplementedError:
            pass
        row.update(
            ladder=[
                {"log_A": a, "mean_delay": m_, "stderr": s, "prediction": p}
                for a, m_, s, p in ladder_rows
            ],
            slope=fit.slope,
            slope_stderr=fit.slope_stderr,
            intercept=fit.intercept,
            prediction_slope=pred_slope,
            slope_ratio=fit.slope / pred_slope if pred_slope else None,
        )
    return row, ladder_rows


def cmd_simulate(config_path: str) -> int:
    exp = load_experiment(config_path, need_montecarlo=True)
    rows = []
    ladder_files = {}
    for i, sc in enumerate(exp.scenarios):
        try:
            row, ladder = _run_scenario(exp, i, sc)
        except EstimationError as exc:
            raise RuntimeError(f"scenario {sc.get('name', i)}: {exc}") from exc
        rows.append(row)
        if ladder:
            ladder_files[row["name"]] = ladder
    report = {
        "config": exp.doc,
        "threshold": exp.threshold.to_dict(),
        "scenarios": rows,
    }
    out_path = exp.output.get("report")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    ladder_dir = exp.output.get("ladder_dir", ".")
    for name, ladder in ladder_files.items():
        os.makedirs(ladder_dir, exist_ok=True)
        path = os.path.join(ladder_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["log_A", "mean_delay", "stderr", "prediction"])
            for r in ladder:
                w.writerow([repr(v) for v in r])

    print(f"{'scenario':<28} {'estimate':>14} {'prediction':>14} {'ratio':>8}")
    for row in rows:
        if "estimate" in row:
            est = row["estimate"]["point"]
            pred = row.get("prediction") or {}
            pv = pred.get("value") if pred else row.get("bound")
            ratio = row.get("ratio")
            print(
                f"{row['name']:<28} {est:>14.6g} "
                f"{(f'{pv:.6g}' if pv is not None else '-'):>14} "
                f"{(f'{ratio:.3f}' if ratio is not None else '-'):>8}"
            )
        elif "slope" in row:
            print(
                f"{row['name']:<28} slope {row['slope']:.4f} +- {row['slope_stderr']:.4f}"
                + (
                    f"  predicted {row['prediction_slope']:.4f}"
                    if row.get("prediction_slope")
                    else ""
                )
            )
        if "moments" in row:
            for m, cell in row["moments"].items():
                est = cell["estimate"]["point"]
                pred = cell["prediction"]
                pv = pred["value"] if pred else None
                ratio = cell["ratio"]
                print(
                    f"{row['name'] + f' r={m}':<28} {est:>14.6g} "
                    f"{(f'{pv:.6g}' if pv is not None else '-'):>14} "
                    f"{(f'{ratio:.3f}' if ratio is not None else '-'):>8}"
                )
    if out_path:
        print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def load_csv_stream(path: str, dimension: int) -> np.ndarray:
    """Read a (T, dimension) observation stream; header row optional."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise RuntimeError(f"{path}:{lineno}: malformed CSV row {line!r}")
            if len(vals) != dimension:
                raise RuntimeError(
                    f"{path}:{lineno}: expected {dimension} columns, got {len(vals)}"
                )
            if not all(math.isfinite(v) for v in vals):
                raise RuntimeError(f"{path}:{lineno}: non-finite value in row {line!r}")
            rows.append(vals)
    return np.array(rows, dtype=float).reshape(-1, dimension)


def _write_trajectory(path: str, segments: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "log_stat", "crossed"])
        for seg in segments:
            if seg is None or len(seg) == 0:
                continue
            for n, stat, crossed in seg:
                w.writerow([int(n), repr(float(stat)), int(crossed)])


def cmd_detect(
    config_path: str,
    data_path: str,
    multicyclic: bool = False,
    trajectory: bool = False,
) -> int:
    exp = load_experiment(config_path, need_montecarlo=False)
    data = load_csv_stream(data_path, exp.model.dimension)
    log_a = exp.threshold.log_threshold
    traj_segments: list[np.ndarray] = []
    alarms: list[int] = []
    censored = False
    if multicyclic:
        records, tail = _multicyclic_with_tail(
            exp.detector,
            exp.model,
            exp.prior,
            exp.grid,
            log_a,
            data,
            exp.omega,
            trajectory,
        )
        alarms = [r.stop_time for r in records]
        if trajectory:
            traj_segments = [r.trajectory for r in records] + [tail.trajectory]
    else:
        rec = run_detector(
            exp.detector,
            exp.model,
            exp.prior,
            exp.grid,
            log_a,
            data,
            horizon=None,
            record_trajectory=trajectory,
            omega=exp.omega,
        )
        censored = rec.censored
        if not rec.censored:
            alarms = [rec.stop_time]
        if trajectory:
            traj_segments = [rec.trajectory]

    alarms_path = exp.output.get("alarms")
    if alarms_path:
        with open(alarms_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alarm_time"])
            for t in alarms:
                w.writerow([t])
            if not multicyclic and censored:
                w.writerow(["CENSORED"])
    if trajectory:
        traj_path = exp.output.get("trajectory")
        if not traj_path:
            raise ConfigError("output.trajectory: required with --trajectory")
        _write_trajectory(traj_path, traj_segments)

    if multicyclic:
        print(f"alarms: {','.join(map(str, alarms)) if alarms else '(none)'}")
    elif alarms:
        print(f"alarm at n = {alarms[0]}")
    else:
        print("CENSORED")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixdetect",
        description="Mixture sequential changepoint detection: calibrate, simulate, detect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_cal = sub.add_parser("calibrate", help="compute the detection threshold")
    p_cal.add_argument("config")
    p_sim = sub.add_parser("simulate", help="run the configured Monte Carlo scenarios")
    p_sim.add_argument("config")
    p_det = sub.add_parser("detect", help="run the detector over a CSV stream")
    p_det.add_argument("config")
    p_det.add_argument("data")
    p_det.add_argument("--multicyclic", action="store_true", help="restart after each alarm")
    p_det.add_argument(
        "--trajectory", action="store_true", help="write the per-step log-statistic CSV"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "calibrate":
            return cmd_calibrate(args.config)
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "detect":
            return cmd_detect(args.config, args.data, args.multicyclic, args.trajectory)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, EstimationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
