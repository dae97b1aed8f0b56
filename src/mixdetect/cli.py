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
from dataclasses import asdict, dataclass, field, replace
from itertools import islice

import numpy as np

from .calibration import (
    ThresholdSpec,
    bayes_threshold,
    d_constant,
    fixed_threshold,
    ms_threshold,
    msr_threshold,
)
from .detectors import NonFiniteIncrements, PriorSupportExhausted, _multicyclic_with_tail
# run_detector is unused here, but perfbench/tracer.py wraps ``cli.run_detector`` by name
from .detectors import run_detector  # noqa: F401
from .measures import (
    ChangePrior,
    GridTooLarge,
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
    FIRST_ORDER_NOTE,
    Prediction,
    delay_rate,
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


def _is_number(val) -> bool:
    """A JSON number that is a finite float: not NaN or +-Infinity, which ``json``
    reads (1e400 too), nor an integer beyond the float range."""
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    return number and abs(val) <= sys.float_info.max


def _number(obj: dict, where: str, key: str, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}.{key}: missing required key")
        return default
    val = obj[key]
    if not _is_number(val):
        raise ConfigError(f"{where}.{key}: expected a number")
    return val


def _integer(
    obj: dict, where: str, key: str, default=None, nonnegative: bool = False, int64: bool = True
) -> int:
    """A whole number: integral floats such as 3.0 pass, 2.5 and booleans do not.

    With ``int64`` a value must also be below 2**63, as numpy counts steps
    and indexes arrays in int64; a seed takes any size.  Keys without a
    default must be required by the section's ``_check_keys``.
    """
    val = obj.get(key, default)
    if not (
        (type(val) is int or _is_number(val) and val.is_integer())  # an int is whole at any size
        and (val >= 0 or not nonnegative)
    ):
        expected = "a non-negative integer" if nonnegative else "an integer"
        raise ConfigError(f"{where}.{key}: expected {expected}")
    if int64 and val >= 2**63:
        raise ConfigError(f"{where}.{key}: must be < 2**63")
    return int(val)


def _numbers(obj: dict, where: str, key: str, nested: bool = False) -> list:
    """``obj[key]`` checked as a list of numbers, or of lists of numbers if ``nested``."""
    val = obj[key]
    entry_ok = (lambda v: isinstance(v, list) and all(map(_is_number, v))) if nested else _is_number
    if not (isinstance(val, list) and all(map(entry_ok, val))):
        shape = "a list of lists of numbers" if nested else "a list of numbers"
        raise ConfigError(f"{where}.{key}: expected {shape}")
    return val


def _entry(obj, where: str, table: dict, key: str = "kind"):
    """The builder of the ``table`` entry that ``obj[key]`` names; checks obj's keys."""
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"{where}.{key}: missing required key")
    kind = obj[key]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{where}.{key}: unknown {key} {kind!r}")
    keys, build = table[kind]
    _check_keys(obj, where, keys | {key})
    return build


def _section(doc: dict, where: str, *args):
    """Build config section ``where`` through its ``_KINDS`` entry.

    A ConfigError passes through; a KeyError names the missing key, and any
    other ValueError, TypeError or NotImplementedError is prefixed with the
    section.
    """
    obj = doc[where]
    try:
        return _entry(obj, where, _KINDS[where])(obj, *args)
    except ConfigError:
        raise
    except GridTooLarge as exc:
        raise ConfigError(f"{where}.{exc.field}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{where}.{exc.args[0]}: missing required key") from exc
    except (ValueError, TypeError, NotImplementedError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _ar_model(doc: dict, grid: MixingGrid) -> ObservationModel:
    ar_coeffs = _numbers(doc, "model", "ar_coeffs", nested=True)
    raw_signals = doc.get("signals", [])
    if not isinstance(raw_signals, list):
        raise ConfigError("model.signals: expected a list of objects")
    signals = []
    for i, s in enumerate(raw_signals):
        where = f"model.signals[{i}]"
        _check_keys(s, where, {"amplitude", "omega", "phase"})
        signals.append(
            HarmonicSignal(
                amplitude=_number(s, where, "amplitude", 1.0),
                omega=_number(s, where, "omega", 0.0),
                phase=_number(s, where, "phase", 0.0),
            )
        )
    spec = ArChannelSpec(ar_coeffs=tuple(tuple(ch) for ch in ar_coeffs), signals=tuple(signals))
    return multichannel_ar_model(spec, grid)


def _hmm_model(doc: dict, grid: MixingGrid) -> ObservationModel:
    theta0 = doc["theta0"]
    if not (isinstance(theta0, list) and len(theta0) == 2 and all(map(_is_number, theta0))):
        raise ConfigError("model.theta0: expected two numbers")
    spec = Hmm2Spec(
        theta0=tuple(theta0),
        beta=_number(doc, "model", "beta"),
        gamma=_number(doc, "model", "gamma"),
    )
    return hmm2_model(spec, grid)


def _atoms_grid(doc: dict) -> MixingGrid:
    weights = None if doc.get("weights") is None else _numbers(doc, "mixing", "weights")
    atoms = _numbers(doc, "mixing", "atoms", nested=True)
    # unlike ar_coeffs, whose channels may differ in order, atoms form a matrix
    if not (atoms and atoms[0] and all(len(a) == len(atoms[0]) for a in atoms)):
        raise ConfigError("mixing.atoms: expected non-empty rows of equal length")
    return grid_from_atoms(atoms, weights)


def _bayes_threshold(doc: dict, prior: ChangePrior, model: ObservationModel, *_) -> ThresholdSpec:
    c = _number(doc, "calibration", "c")
    r = _number(doc, "calibration", "r", 1.0)
    info = np.array([info_number(model, i) for i in range(model.grid.size)])
    return bayes_threshold(c, r, d_constant(model.grid, info, prior.mu, r))


# section -> kind -> (the kind's keys besides "kind", its builder).  Builders
# look the constructors and calibration functions up in this module's globals
# as they run, so code that wraps those names sees every call.
_KINDS = {
    "prior": {
        "geometric": (
            {"rho", "q"},
            lambda d: geometric_prior(_number(d, "prior", "rho"), _number(d, "prior", "q", 0.0)),
        ),
        "heavy_tail": (
            {"c_exponent", "q"},
            lambda d: heavy_tail_prior(
                _number(d, "prior", "c_exponent"), _number(d, "prior", "q", 0.0)
            ),
        ),
        "point_mass": ({"k0"}, lambda d: point_mass_prior(_integer(d, "prior", "k0", 0))),
    },
    "mixing": {
        "uniform_grid": (
            {"lower", "upper", "counts"},
            lambda d: uniform_grid(
                *(_numbers(d, "mixing", key) for key in ("lower", "upper", "counts"))
            ),
        ),
        "atoms": ({"atoms", "weights"}, _atoms_grid),
    },
    "model": {
        "gaussian_iid": (set(), lambda d, grid: gaussian_iid_model(grid)),
        "multichannel_ar": ({"ar_coeffs", "signals"}, _ar_model),
        "hmm2": ({"theta0", "beta", "gamma"}, _hmm_model),
    },
    "calibration": {
        "ms-pfa": (
            {"alpha"},
            lambda d, prior, *_: ms_threshold(_number(d, "calibration", "alpha"), prior.q),
        ),
        "msr-pfa": (
            {"alpha"},
            lambda d, prior, _, omega: msr_threshold(
                _number(d, "calibration", "alpha"), omega, prior
            ),
        ),
        "bayes-cost": ({"c", "r"}, _bayes_threshold),
        "fixed": (
            {"log_threshold"},
            lambda d, *_: fixed_threshold(_number(d, "calibration", "log_threshold")),
        ),
    },
}

# the rules whose threshold each calibration kind derives: the posterior-odds
# bound and the Bayes cost are the ms rule's, the martingale bound the msr rule's
_CALIBRATED_RULES = {
    "ms-pfa": ("ms",),
    "msr-pfa": ("msr",),
    "bayes-cost": ("ms",),
    "fixed": ("ms", "msr"),
}


@dataclass(frozen=True)
class Scenario:
    """One ``montecarlo.scenarios[i]`` entry, checked and converted at load.

    ``log_thresholds`` is the ladder of ``delay_ladder`` and the calibrated
    threshold otherwise; rung j runs on stream tag ``tag_base + j``.
    """

    quantity: str
    name: str
    tag_base: int
    log_thresholds: tuple[float, ...]
    theta: tuple[float, ...] | None  # None where the quantity takes no theta
    on_grid: bool
    change_point: int
    moments: tuple[float, ...]  # an average_delay's one ``moment``


@dataclass
class Experiment:
    """A fully validated experiment: objects plus the raw document echo.

    ``run`` is the ``montecarlo`` section's run at the calibrated threshold,
    None when the section is not loaded (``calibrate`` and ``detect``).
    """

    doc: dict
    prior: ChangePrior
    model: ObservationModel
    detector: str
    omega: float
    threshold: ThresholdSpec
    run: ExperimentConfig | None = None
    scenarios: list[Scenario] = field(default_factory=list)
    output: dict = field(default_factory=dict)

    @property
    def grid(self) -> MixingGrid:
        return self.model.grid


def _implied_alpha(exp: Experiment) -> float:
    """False-alarm level implied by the configured threshold (for validation)."""
    if exp.threshold.kind in ("ms-pfa", "msr-pfa"):
        return float(exp.threshold.inputs["alpha"])
    a = exp.threshold.threshold
    if exp.detector == "ms":
        return 1.0 / (1.0 + a)
    if not math.isfinite(exp.prior.mean):
        raise ConfigError(
            "montecarlo.horizon: cannot bound the false-alarm level of an MSR rule "
            "under an infinite-mean prior; use a finite-mean prior for PFA scenarios"
        )
    return (exp.omega * exp.prior.b + exp.prior.mean) / a


def check_tail(prior: ChangePrior, horizon: int, scale: float, name: str) -> None:
    """Refuse a horizon whose prior tail Pi(horizon) is not below 0.01 * ``scale``
    (the estimate's size, called ``name``): trials see no change beyond it."""
    tail = float(prior.tail(horizon))
    if not tail < 0.01 * scale:
        raise ConfigError(
            f"montecarlo.horizon: prior tail Pi({horizon}) = {tail:.3e} "
            f"is not below 0.01 * {name} = {0.01 * scale:.3e}; raise the horizon"
        )


def _scenario_theta(grid: MixingGrid, sc: dict, where: str) -> np.ndarray:
    theta = sc.get("theta")
    if theta is None:
        raise ConfigError(f"{where}.theta: missing required key")
    if not isinstance(theta, (int, list)):
        raise ConfigError(f"{where}.theta: expected an atom index or a vector")
    try:
        vec = grid.theta_vector(theta)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}.theta: {exc}") from exc
    if not np.isfinite(vec).all():
        raise ConfigError(f"{where}.theta: expected finite components")
    return vec


def _scenario(exp: Experiment, index: int, sc) -> Scenario:
    """Check one raw scenario against the loaded experiment and convert it."""
    where = f"montecarlo.scenarios[{index}]"
    _entry(sc, where, _QUANTITIES, key="quantity")
    q = sc["quantity"]
    keys, _ = _QUANTITIES[q]
    theta, on_grid = None, True
    if "theta" in keys:
        vec = _scenario_theta(exp.grid, sc, where)
        theta = tuple(map(float, vec))
        on_grid = any(np.array_equal(vec, atom) for atom in exp.grid.atoms)
    horizon = exp.run.horizon
    # the horizon bounds it, with its own message
    change_point = _integer(sc, where, "change_point", 0, nonnegative=True, int64=False)
    if change_point >= horizon:
        raise ConfigError(f"{where}.change_point: must be below montecarlo.horizon = {horizon}")
    name = sc.get("name", f"{q}_{index}")
    if not (isinstance(name, str) and name):
        raise ConfigError(f"{where}.name: expected a non-empty string")
    if os.sep in name or (os.altsep and os.altsep in name):
        raise ConfigError(f"{where}.name: must not contain a path separator")
    moments = _numbers(sc, where, "moments") if "moments" in sc else [1]
    if not moments:
        raise ConfigError(f"{where}.moments: need a non-empty list")
    # m >= 1 is the domain of the delay predictions in ``theory``
    for j, m in enumerate(moments):
        if m < 1:
            raise ConfigError(f"{where}.moments[{j}]: must be >= 1")
    if q == "average_delay":
        moments = [_number(sc, where, "moment", 1)]
        if moments[0] < 1:
            raise ConfigError(f"{where}.moment: must be >= 1")
    log_thresholds = [exp.threshold.log_threshold]
    if q == "delay_ladder":
        log_thresholds = sc.get("log_thresholds")
        if not isinstance(log_thresholds, list) or len(log_thresholds) < 4:
            raise ConfigError(f"{where}.log_thresholds: need a list of >= 4 values")
        for j, la in enumerate(log_thresholds):
            if not _is_number(la):
                raise ConfigError(f"{where}.log_thresholds[{j}]: expected a number")
        if len(set(map(float, log_thresholds))) < 2:  # the slope fit needs a spread
            raise ConfigError(f"{where}.log_thresholds: need at least two distinct values")
    if q in ("pfa_tail", "pfa_posterior"):
        check_tail(exp.prior, horizon, _implied_alpha(exp), "alpha")
    if q == "pfa_posterior" and exp.detector != "ms":
        raise ConfigError(f"{where}: pfa_posterior applies to the ms rule only")
    if q == "average_delay" and not (
        math.isfinite(exp.prior.mean) or float(exp.prior.tail(horizon)) < 1e-4
    ):
        raise ConfigError(
            f"{where}: horizon must cover 99.99% of the prior mass "
            "when the prior mean is infinite"
        )
    if q == "integrated_risk":
        if exp.threshold.kind != "bayes-cost":
            raise ConfigError(f"{where}: integrated_risk requires bayes-cost calibration")
        # nu at or beyond the horizon contributes zero to the risk estimate
        inputs = exp.threshold.inputs
        try:
            risk = integrated_risk_prediction(
                float(inputs["c"]), float(inputs["r"]), float(inputs["D"])
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        check_tail(exp.prior, horizon, risk, "D c |log c|^r")
    return Scenario(
        quantity=q,
        name=name,
        tag_base=1000 * (index + 1),
        log_thresholds=tuple(map(float, log_thresholds)),
        theta=theta,
        on_grid=on_grid,
        change_point=change_point,
        moments=tuple(map(float, moments)),
    )


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
    prior = _section(doc, "prior")
    grid = _section(doc, "mixing")
    model = _section(doc, "model", grid)

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

    # refused before the threshold is solved for: the other rule's equation may not apply
    cal = doc["calibration"]
    cal_kind = cal.get("kind") if isinstance(cal, dict) else None
    rules = _CALIBRATED_RULES.get(cal_kind) if isinstance(cal_kind, str) else None
    if rules and kind not in rules:
        raise ConfigError(
            f"calibration.kind: {cal_kind!r} calibrates the {rules[0]} rule, not {kind}"
        )
    threshold = _section(doc, "calibration", prior, model, omega)
    exp = Experiment(
        doc=doc,
        prior=prior,
        model=model,
        detector=kind,
        omega=omega,
        threshold=threshold,
        output=doc.get("output", {}),
    )
    _check_keys(
        exp.output, "output", {"report", "ladder_dir", "alarms", "trajectory", "threshold_json"}
    )
    for key, val in exp.output.items():
        if not isinstance(val, str):
            raise ConfigError(f"output.{key}: expected a string")

    if need_montecarlo:
        if "montecarlo" not in doc:
            raise ConfigError("montecarlo: missing required section")
        mc = doc["montecarlo"]
        _check_keys(
            mc, "montecarlo", {"trials", "horizon", "seed", "workers", "scenarios"},
            {"trials", "horizon", "seed", "scenarios"},
        )
        trials = _integer(mc, "montecarlo", "trials")
        horizon = _integer(mc, "montecarlo", "horizon")
        seed = _integer(mc, "montecarlo", "seed", nonnegative=True, int64=False)
        workers = _integer(mc, "montecarlo", "workers", 1)
        env_workers = os.environ.get(WORKERS_ENV)
        if env_workers:
            try:
                workers = int(env_workers)
            except ValueError as exc:
                raise ConfigError(f"{WORKERS_ENV}: expected an integer") from exc
        if trials < 1:
            raise ConfigError("montecarlo.trials: must be >= 1")
        if horizon < 1:
            raise ConfigError("montecarlo.horizon: must be >= 1")
        if workers < 1:
            where = WORKERS_ENV if env_workers else "montecarlo.workers"
            raise ConfigError(f"{where}: must be >= 1")
        exp.run = ExperimentConfig(
            model=model, prior=prior, detector=kind, omega=omega,
            log_threshold=threshold.log_threshold,
            trials=trials, horizon=horizon, master_seed=seed, workers=workers,
        )
        if not isinstance(mc["scenarios"], list) or not mc["scenarios"]:
            raise ConfigError("montecarlo.scenarios: need a non-empty list")
        exp.scenarios = [_scenario(exp, i, sc) for i, sc in enumerate(mc["scenarios"])]
        names = [sc.name for sc in exp.scenarios]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"montecarlo.scenarios[{i}].name: duplicate name {name!r}")

    # grid/model compatibility was enforced by the model constructor; priors
    # with zero tail inside the horizon break the MS recursion, catch it now
    if need_montecarlo and kind == "ms":
        if not np.isfinite(float(prior.log_tail(exp.run.horizon))):
            raise ConfigError(
                "montecarlo.horizon: the prior's support ends inside the horizon; "
                "the ms statistic is undefined there (use msr or shorten the horizon)"
            )
    return exp


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def _threshold_record(spec: ThresholdSpec) -> dict:
    """The threshold as reports and ``threshold_json`` write it: the spec's
    fields and the threshold A it implies."""
    return {**asdict(spec), "threshold": spec.threshold}


def _write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as JSON with sorted keys, a two-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        _write_json(out, _threshold_record(spec))
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _compare(est, pred: Prediction | None) -> dict:
    """An estimate beside its first-order prediction, where there is one."""
    return {
        "estimate": asdict(est),
        "prediction": asdict(pred) if pred else None,
        "ratio": est.point / pred.value if pred else None,
    }


def _rate(exp: Experiment, sc: Scenario) -> tuple[float | None, float | None]:
    """(I_theta, ``delay_rate``) at the scenario's theta; I_theta None where the model has none."""
    try:
        i_theta = info_number(exp.model, sc.theta)
    except NotImplementedError:
        i_theta = None
    return i_theta, delay_rate(exp.detector, i_theta, exp.prior.mu)


def _delay_prediction(
    exp: Experiment, sc: Scenario, i_theta, rate, m: float, log_a: float
) -> Prediction | None:
    """None where there is no delay rate, or where log A <= 0, which the
    first-order delay (log A / rate)^m does not cover; (i_theta, rate) are ``_rate``'s."""
    if rate is None or log_a <= 0.0:
        return None
    if exp.detector == "ms":
        value = ms_delay_prediction(log_a, i_theta, exp.prior.mu, m)
        name, inputs = "ms_delay", {"log_A": log_a, "I": i_theta, "mu": exp.prior.mu, "m": m}
    else:
        value = msr_delay_prediction(log_a, i_theta, m)
        name, inputs = "msr_delay", {"log_A": log_a, "I": i_theta, "m": m}
    note = FIRST_ORDER_NOTE
    if not sc.on_grid:
        note += "; off-grid theta: robustness probe, no optimality claim"
    return Prediction(quantity=name, value=value, inputs=inputs, note=note)


def _delay_rungs(exp: Experiment, sc: Scenario) -> tuple[list[dict], tuple]:
    """{moment: (estimate, prediction)} per threshold in ``sc.log_thresholds``, and ``_rate``."""
    runs = [
        estimate_delay_moments(
            replace(exp.run, log_threshold=log_a),
            sc.change_point,
            sc.theta,
            r_list=sc.moments,
            stream_tag=sc.tag_base + j,
        )
        for j, log_a in enumerate(sc.log_thresholds)
    ]
    rate = _rate(exp, sc)
    rungs = [
        {m: (est, _delay_prediction(exp, sc, *rate, m, log_a)) for m, est in ests.items()}
        for log_a, ests in zip(sc.log_thresholds, runs)
    ]
    return rungs, rate


def _run_pfa(exp: Experiment, sc: Scenario, estimate) -> dict:
    est = estimate(exp.run, stream_tag=sc.tag_base)
    bound = _implied_alpha(exp)
    return {"estimate": asdict(est), "bound": bound, "ratio": est.point / bound}


def _run_delay(exp: Experiment, sc: Scenario) -> dict:
    (rung,), _ = _delay_rungs(exp, sc)
    return {"moments": {f"{m:g}": _compare(est, pred) for m, (est, pred) in rung.items()}}


def _run_delay_ladder(exp: Experiment, sc: Scenario) -> dict:
    rungs, (_, rate) = _delay_rungs(exp, sc)
    points = []  # one (log_A, mean_delay, stderr, prediction) per threshold
    for log_a, rung in zip(sc.log_thresholds, rungs):
        est, pred = rung[1.0]
        points.append((log_a, est.point, est.stderr, pred.value if pred else math.nan))
    fit = slope_regression([p[:3] for p in points])
    pred_slope = 1.0 / rate if rate else None
    return {
        "ladder": [dict(zip(LADDER_COLUMNS, p)) for p in points],
        **asdict(fit),
        "prediction_slope": pred_slope,
        "slope_ratio": fit.slope / pred_slope if pred_slope else None,
    }


def _run_average_delay(exp: Experiment, sc: Scenario) -> dict:
    (m,) = sc.moments
    est = estimate_average_delay_risk(exp.run, sc.theta, m, stream_tag=sc.tag_base)
    log_a = exp.threshold.log_threshold
    return _compare(est, _delay_prediction(exp, sc, *_rate(exp, sc), m, log_a))


def _run_integrated_risk(exp: Experiment, sc: Scenario) -> dict:
    inputs = exp.threshold.inputs
    c, r, d = float(inputs["c"]), float(inputs["r"]), float(inputs["D"])
    est = estimate_integrated_risk(exp.run, c, r, stream_tag=sc.tag_base)
    pred = Prediction(
        quantity="integrated_risk",
        value=integrated_risk_prediction(c, r, d),
        inputs={"c": c, "r": r, "D": d},
    )
    return _compare(est, pred)


# quantity -> (its scenario keys besides "quantity", its runner).  A runner
# returns the report row's fields; it looks the estimators and predictions up
# in this module's globals as it runs, so code that wraps those names sees
# every call.
_QUANTITIES = {
    "pfa_tail": ({"name"}, lambda exp, sc: _run_pfa(exp, sc, estimate_pfa_tail)),
    "pfa_posterior": ({"name"}, lambda exp, sc: _run_pfa(exp, sc, estimate_pfa_posterior)),
    "delay": ({"name", "change_point", "theta", "moments"}, _run_delay),
    "average_delay": ({"name", "theta", "moment"}, _run_average_delay),
    "integrated_risk": ({"name"}, _run_integrated_risk),
    "delay_ladder": (
        {"name", "change_point", "theta", "log_thresholds"},  # fits the mean delay
        _run_delay_ladder,
    ),
}

LADDER_COLUMNS = ("log_A", "mean_delay", "stderr", "prediction")


def _run_scenario(exp: Experiment, sc: Scenario) -> dict:
    """The report row of one scenario."""
    _, run = _QUANTITIES[sc.quantity]
    return {"name": sc.name, "quantity": sc.quantity, **run(exp, sc)}


def _print_estimate(label: str, estimate: dict, prediction, ratio) -> None:
    """One summary line: estimate, prediction (or bound) and their ratio."""
    print(
        f"{label:<28} {estimate['point']:>14.6g} "
        f"{(f'{prediction:.6g}' if prediction is not None else '-'):>14} "
        f"{(f'{ratio:.3f}' if ratio is not None else '-'):>8}"
    )


def cmd_simulate(config_path: str) -> int:
    exp = load_experiment(config_path, need_montecarlo=True)
    rows = []
    for sc in exp.scenarios:
        try:
            rows.append(_run_scenario(exp, sc))
        except EstimationError as exc:
            raise RuntimeError(f"scenario {sc.name}: {exc}") from exc
    report = {
        "config": exp.doc,
        "threshold": _threshold_record(exp.threshold),
        "scenarios": rows,
    }
    out_path = exp.output.get("report")
    if out_path:
        _write_json(out_path, report)
    ladder_dir = exp.output.get("ladder_dir", ".")
    for row in rows:
        if "ladder" not in row:
            continue
        os.makedirs(ladder_dir, exist_ok=True)
        with open(os.path.join(ladder_dir, f"{row['name']}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(LADDER_COLUMNS)
            for rung in row["ladder"]:
                w.writerow([repr(rung[col]) for col in LADDER_COLUMNS])

    print(f"{'scenario':<28} {'estimate':>14} {'prediction':>14} {'ratio':>8}")
    for row in rows:
        if "estimate" in row:
            pred = row.get("prediction")
            pv = pred["value"] if pred else row.get("bound")
            _print_estimate(row["name"], row["estimate"], pv, row.get("ratio"))
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
                pred = cell["prediction"]
                pv = pred["value"] if pred else None
                _print_estimate(f"{row['name']} r={m}", cell["estimate"], pv, cell["ratio"])
    if out_path:
        print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


# lines per chunk of load_csv_stream; no value or error depends on it
CSV_CHUNK = 4096


def load_csv_stream(path: str, dimension: int) -> tuple[np.ndarray, list[int]]:
    """Read a (T, dimension) observation stream and the ascending file lines
    it skips: blank lines, and the first non-blank line when it is a header.

    The file is read CSV_CHUNK lines at a time.  A chunk whose every line
    holds ``dimension`` fields that ``float`` reads as finite values is
    converted in one pass; any other chunk (with a blank line, the header or
    an error in it) goes through ``_parse_lines``, which alone decides the
    header and names the failing line.  Bytes that are not UTF-8 decode to
    lone surrogates, which ``float`` rejects, so a file that is not UTF-8
    fails at the line of its first such byte, unless an earlier line fails.
    """
    chunks, skipped = [], []
    first = True  # no non-blank line read yet
    lineno = 0  # lines read before the chunk
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        while lines := list(islice(fh, CSV_CHUNK)):
            rows = _parse_chunk(lines, dimension)
            if rows is None:
                rows, first = _parse_lines(path, lines, lineno, dimension, first, skipped)
            else:
                first = False
            chunks.append(rows)
            lineno += len(lines)
    return np.concatenate(chunks) if chunks else np.empty((0, dimension)), skipped


def _parse_chunk(lines: list[str], dimension: int) -> np.ndarray | None:
    """The (L, dimension) rows of ``lines`` in one pass, or None when a line is
    blank, a header, of another width or not finite."""
    if dimension > 1 and any(line.count(",") != dimension - 1 for line in lines):
        return None
    try:
        vals = list(map(float, ",".join(lines).split(",") if dimension > 1 else lines))
    except ValueError:
        return None
    rows = np.array(vals, dtype=float).reshape(-1, dimension)
    return rows if np.isfinite(rows).all() else None


def _parse_lines(
    path: str, lines: list[str], lineno: int, dimension: int, first: bool, skipped: list[int]
):
    """(rows, first) of ``lines``, which start after file line ``lineno``, one
    line at a time; ``first`` says that no non-blank line came before them, so
    that the first one may be a header.  Blank and header lines go to ``skipped``."""
    rows = []
    for lineno, line in enumerate(lines, start=lineno + 1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # a byte that is not UTF-8, as a lone surrogate
            raise RuntimeError(f"{path}:{lineno}: not valid UTF-8 text") from None
        line = line.strip()
        if not line:
            skipped.append(lineno)
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            if first:
                first = False
                skipped.append(lineno)
                continue
            raise RuntimeError(f"{path}:{lineno}: malformed CSV row {line!r}")
        first = False
        if len(vals) != dimension:
            raise RuntimeError(
                f"{path}:{lineno}: expected {dimension} columns, got {len(vals)}"
            )
        if not all(math.isfinite(v) for v in vals):
            raise RuntimeError(f"{path}:{lineno}: non-finite value in row {line!r}")
        rows.append(vals)
    return np.array(rows, dtype=float).reshape(-1, dimension), first


# trajectory rows formatted at a time by _write_trajectory; no byte depends on it
TRAJECTORY_CHUNK = 4096


def _write_trajectory(path: str, segments: list[np.ndarray]) -> None:
    """Write the rows (n, log_stat, crossed) as ``csv.writer`` would, with
    ``repr`` floats, so a value reads back to the same bits.

    One %-format builds the text of TRAJECTORY_CHUNK rows: ``%d,%r,%d`` and
    a CRLF per row (csv.writer's default line end; no field here needs
    quoting) over the chunk's fields in row order.
    """
    segments = [seg for seg in segments if seg is not None and seg.size]
    rows = np.concatenate(segments) if segments else np.empty((0, 3))
    with open(path, "w", newline="") as fh:
        fh.write("n,log_stat,crossed\r\n")
        for start in range(0, len(rows), TRAJECTORY_CHUNK):
            part = rows[start : start + TRAJECTORY_CHUNK]
            fields = [None] * part.size
            fields[0::3] = part[:, 0].astype(np.int64).tolist()
            fields[1::3] = part[:, 1].tolist()
            fields[2::3] = part[:, 2].astype(np.int64).tolist()
            fh.write("%d,%r,%d\r\n" * len(part) % tuple(fields))


def cmd_detect(
    config_path: str,
    data_path: str,
    multicyclic: bool = False,
    trajectory: bool = False,
) -> int:
    exp = load_experiment(config_path, need_montecarlo=False)
    traj_path = exp.output.get("trajectory")
    if trajectory and not traj_path:
        raise ConfigError("output.trajectory: required with --trajectory")
    data, skipped = load_csv_stream(data_path, exp.model.dimension)
    log_a = exp.threshold.log_threshold
    try:
        records, tail = _multicyclic_with_tail(
            exp.detector,
            exp.model,
            exp.prior,
            log_a,
            data,
            exp.omega,
            trajectory,
            restart=multicyclic,
        )
    except (NonFiniteIncrements, PriorSupportExhausted) as exc:
        line = exc.row  # the file line of that row: one more per skipped line up to it
        for s in skipped:
            line += s <= line
        overflow = isinstance(exc, NonFiniteIncrements)
        reason = "observation out of range, its LLR increments overflow" if overflow else exc
        raise RuntimeError(f"{data_path}:{line}: {reason}") from None
    alarms = [r.stop_time for r in records]
    # a single-shot run has a tail only when it is censored
    censored = not multicyclic and tail is not None

    alarms_path = exp.output.get("alarms")
    if alarms_path:
        with open(alarms_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alarm_time"])
            for t in alarms:
                w.writerow([t])
            if censored:
                w.writerow(["CENSORED"])
    if trajectory:
        segments = [r.trajectory for r in records] + ([tail.trajectory] if tail else [])
        _write_trajectory(traj_path, segments)

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
