"""CLI: config validation, calibrate/simulate/detect behavior, reproducibility."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixdetect import cli
from mixdetect._engine import TrialSpec
from mixdetect.calibration import msr_threshold
from mixdetect.cli import CSV_CHUNK, ConfigError, load_csv_stream, load_experiment, main
from mixdetect.detectors import multicyclic_run, run_detector
from mixdetect.measures import geometric_prior, grid_from_atoms, point_mass_prior
from mixdetect.models import gaussian_iid_model
from mixdetect.montecarlo import ExperimentConfig, run_trials


def base_config(**overrides):
    doc = {
        "model": {"kind": "gaussian_iid"},
        "prior": {"kind": "geometric", "rho": 0.1, "q": 0.0},
        "mixing": {"kind": "uniform_grid", "lower": [0.5], "upper": [1.5], "counts": [3]},
        "detector": {"kind": "ms"},
        "calibration": {"kind": "ms-pfa", "alpha": 0.05},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ROOT = Path(__file__).resolve().parents[1]


# prints the scipy modules a fresh interpreter has loaded so far, as a list
_SCIPY_LOADED = (
    "import sys\n"
    "def loaded():\n"
    "    print('loaded', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
)


def _fresh_python(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports mixdetect from src/ and
    turns any warning into an error."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", _SCIPY_LOADED + code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _loaded_lines(proc: subprocess.CompletedProcess) -> list[str]:
    assert proc.returncode == 0, proc.stderr
    return [ln for ln in proc.stdout.splitlines() if ln.startswith("loaded")]


def test_gaussian_config_loads_without_signal_or_integrate():
    """A fresh Gaussian load imports no scipy module at all."""
    code = (
        "from mixdetect.cli import load_experiment\n"
        f"load_experiment({str(ROOT / 'configs' / 'pfa_bounds.json')!r})\n"
        "loaded()\n"
    )
    assert _loaded_lines(_fresh_python(code)) == ["loaded []"]


def test_gaussian_and_hmm_simulate_import_no_scipy(tmp_path):
    """A Gaussian simulate and a symmetric-HMM simulate with a delay scenario,
    whose information number I_theta is computed, import no scipy module."""
    scenarios = [
        {"name": "pfa", "quantity": "pfa_tail"},
        {"name": "delay", "quantity": "delay", "theta": 0, "change_point": 5},
    ]
    gauss = base_config(
        calibration={"kind": "fixed", "log_threshold": 3.0},
        montecarlo={"trials": 64, "horizon": 100, "seed": 3, "scenarios": scenarios},
        output={"report": "gauss.json"},
    )
    hmm = base_config(
        model={"kind": "hmm2", "theta0": [0.0, 1.0], "beta": 0.5, "gamma": 0.5},
        mixing={"kind": "atoms", "atoms": [[0.8, 1.8], [0.3, 1.4]]},
        detector={"kind": "msr"},
        calibration={"kind": "fixed", "log_threshold": 3.0},
        montecarlo={"trials": 64, "horizon": 100, "seed": 3, "scenarios": scenarios},
        output={"report": "hmm.json"},
    )
    code = "from mixdetect.cli import main\n" + "".join(
        f"assert main(['simulate', {write_config(tmp_path, doc, name=name)!r}]) == 0\nloaded()\n"
        for name, doc in (("gauss_cfg.json", gauss), ("hmm_cfg.json", hmm))
    )
    assert _loaded_lines(_fresh_python(code, cwd=tmp_path)) == ["loaded []"] * 2
    delay = json.loads((tmp_path / "hmm.json").read_text())["scenarios"][1]
    assert delay["moments"]["1"]["prediction"]["inputs"]["I"] > 0.0


def test_heavy_tail_config_loads_and_simulates_without_scipy(tmp_path):
    """A load and a shrunk simulate of the heavy-tail ladder study import no
    scipy module: the prior's normaliser zeta(c, 2) is taken in NumPy."""
    ladder_cfg = str(ROOT / "configs" / "delay_ladder.json")
    ladder = json.loads(Path(ladder_cfg).read_text())
    ladder["montecarlo"].update(trials=64, horizon=100)
    code = (
        "from mixdetect.cli import load_experiment, main\n"
        f"assert load_experiment({ladder_cfg!r}).prior.name == 'heavy_tail'\n"
        "loaded()\n"
        f"assert main(['simulate', {write_config(tmp_path, ladder)!r}]) == 0\n"
        "loaded()\n"
    )
    assert _loaded_lines(_fresh_python(code, cwd=tmp_path)) == ["loaded []"] * 2


def test_ar_commands_run_without_signal_or_stats(tmp_path):
    """Loading an AR config, a one-chunk AR simulate and a short AR detect
    import no scipy module: the AR filters are plain NumPy."""
    stream_cfg = str(ROOT / "configs" / "detect_ar_stream.json")
    with open(stream_cfg) as fh:
        doc = json.load(fh)
    doc["prior"]["rho"] = 0.1
    doc["calibration"] = {"kind": "fixed", "log_threshold": 4.0}
    doc["montecarlo"] = {
        "trials": 64,
        "horizon": 200,
        "seed": 3,
        "scenarios": [
            {"name": "pfa", "quantity": "pfa_tail"},
            {"name": "delay", "quantity": "delay", "theta": 0, "change_point": 20},
        ],
    }
    doc["output"] = {"report": "report.json"}
    sim_cfg = write_config(tmp_path, doc)
    data = tmp_path / "stream.csv"
    noise = np.random.default_rng(4).standard_normal(300).tolist()
    data.write_text("".join(f"{v!r}\n" for v in noise))
    code = (
        "from mixdetect.cli import load_experiment, main\n"
        f"load_experiment({stream_cfg!r})\n"
        "loaded()\n"
        f"assert main(['simulate', {sim_cfg!r}]) == 0\n"
        "loaded()\n"
        f"assert main(['detect', {stream_cfg!r}, {str(data)!r}, '--multicyclic',"
        " '--trajectory']) == 0\n"
        "loaded()\n"
    )
    assert _loaded_lines(_fresh_python(code, cwd=tmp_path)) == ["loaded []"] * 3
    assert (tmp_path / "report.json").exists() and (tmp_path / "trajectory.csv").exists()



def test_benchmark_tracer_install_exits_cleanly():
    """perfbench/tracer.py's own install, run in a fresh interpreter, finds
    every module global and class attribute it wraps: a deleted or renamed
    hook raises there before any command runs."""
    code = (
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracer import Tracer, install\n"
        "import mixdetect.cli as cli\n"
        "install(Tracer(), cli)\n"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_installs_and_counts(tmp_path):
    """perfbench/tracer.py wraps functions and methods by name: a renamed or
    removed hook fails here, and each layer's spans and counts add up."""
    sim_cfg = write_config(
        tmp_path,
        base_config(
            montecarlo={
                "trials": 64,
                "horizon": 100,
                "seed": 3,
                "scenarios": [{"name": "pfa", "quantity": "pfa_tail"}],
            },
            output={"report": "report.json"},
        ),
        name="sim.json",
    )
    det_cfg = write_config(
        tmp_path,
        base_config(
            detector={"kind": "msr"},
            calibration={"kind": "fixed", "log_threshold": 3.0},
            mixing={"kind": "atoms", "atoms": [[1.0]]},
        ),
        name="det.json",
    )
    stream = np.random.default_rng(5).standard_normal(200)
    stream[50:] += 1.5
    data = tmp_path / "stream.csv"
    data.write_text("".join(f"{float(v)!r}\n" for v in stream))
    code = (
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import json\n"
        "from tracer import Tracer, install\n"
        "import mixdetect.cli as cli\n"
        "tr = Tracer()\n"
        "install(tr, cli)\n"
        f"assert cli.main(['simulate', {sim_cfg!r}]) == 0\n"
        f"assert cli.main(['detect', {det_cfg!r}, {str(data)!r}]) == 0\n"
        f"assert cli.main(['detect', {det_cfg!r}, {str(data)!r}, '--multicyclic']) == 0\n"
        "print('trace', json.dumps({'calls': tr.self_times()[1], 'counts': tr.counts}))\n"
    )
    proc = _fresh_python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(ln.startswith("alarm at n = ") for ln in lines)
    cycles = next(ln for ln in lines if ln.startswith("alarms: ")).split()[-1].split(",")
    trace = json.loads(next(ln for ln in lines if ln.startswith("trace ")).split(" ", 1)[1])
    calls, counts = trace["calls"], trace["counts"]
    assert calls["montecarlo.run_trials"] == 1 and calls["engine.chunk"] == 1
    assert counts["engine.steps_simulated"] == 64 * 100
    assert counts["montecarlo.trials_simulated"] == 64
    assert calls["detectors.loop"] == 2
    # detect scores rows in blocks, so neither one-row wrapper runs; the rows
    # scored are counted in test_detectors.py::test_each_row_read_is_scored_once
    assert calls["models.step"] == calls["detectors.update"] == 0
    assert counts["detectors.alarms"] == 1 + len(cycles)


# one config per calibration kind, with the threshold record's pinned digest
THRESHOLD_JSON_CONFIGS = {
    "ms-pfa": base_config(prior={"kind": "geometric", "rho": 0.1, "q": 0.2}),
    "msr-pfa": base_config(
        detector={"kind": "msr", "omega": 2.5},
        calibration={"kind": "msr-pfa", "alpha": 0.01},
    ),
    "bayes-cost": base_config(calibration={"kind": "bayes-cost", "c": 0.01, "r": 2}),
    "fixed": base_config(calibration={"kind": "fixed", "log_threshold": 750.0}),
}
THRESHOLD_JSON_DIGESTS = {
    "ms-pfa": "a1b980a5f89bd3939a448c06c20487ae879737944942a232d06bee00bb1019c3",
    "msr-pfa": "a36bc5e3112a3fb78630d2ac00aaa6a084f68db662485b239cdd6ba31360334e",
    "bayes-cost": "cfda6a106335da75c9af52a9737c073cc0bc19dd4485983db8bc684b2e764e1a",
    "fixed": "90c1ac1c826fb38a2af39522bd096212301d40a1a40ae4a0981625fc2139f191",
}


class TestCalibrate:
    def test_ms_threshold_output(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["calibrate", path]) == 0
        out = capsys.readouterr().out
        assert "A = 19" in out
        assert "log A = 2.944438979" in out

    def test_msr_threshold_output(self, tmp_path, capsys):
        doc = base_config(
            detector={"kind": "msr", "omega": 0.0},
            calibration={"kind": "msr-pfa", "alpha": 0.01},
        )
        path = write_config(tmp_path, doc)
        assert main(["calibrate", path]) == 0
        assert "A = 900" in capsys.readouterr().out

    def test_bayes_threshold_output(self, tmp_path, capsys):
        # single atom theta = 1: I = 0.5, heavy tail mu = 0, so D = 2
        doc = base_config(
            prior={"kind": "heavy_tail", "c_exponent": 2.0},
            mixing={"kind": "atoms", "atoms": [[1.0]]},
            calibration={"kind": "bayes-cost", "c": 0.001, "r": 1.0},
        )
        path = write_config(tmp_path, doc)
        assert main(["calibrate", path]) == 0
        assert "A = 500" in capsys.readouterr().out

    def test_threshold_json_written(self, tmp_path):
        doc = base_config(output={"threshold_json": str(tmp_path / "th.json")})
        assert main(["calibrate", write_config(tmp_path, doc)]) == 0
        spec = json.loads((tmp_path / "th.json").read_text())
        assert spec["threshold"] == pytest.approx(19.0)

    @pytest.mark.parametrize("kind", sorted(THRESHOLD_JSON_CONFIGS))
    def test_threshold_json_pinned(self, tmp_path, kind):
        """SHA-256 of the threshold record ``calibrate`` writes, for each kind;
        the ``fixed`` case has A = e^750, which overflows to Infinity."""
        import hashlib

        out = tmp_path / "t.json"
        doc = dict(THRESHOLD_JSON_CONFIGS[kind], output={"threshold_json": str(out)})
        assert main(["calibrate", write_config(tmp_path, doc)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == THRESHOLD_JSON_DIGESTS[kind]


def test_bayes_load_evaluates_each_channels_q_once(tmp_path):
    """The Bayes threshold takes one information number per atom; each AR
    channel's Q is evaluated once for all 400 atoms, and the values are those
    of an evaluation per atom."""
    from mixdetect import models

    doc = base_config(
        model={
            "kind": "multichannel_ar",
            "ar_coeffs": [[0.5], [0.3]],
            "signals": [{"omega": 0.3}, {"amplitude": 0.8, "phase": math.pi / 2}],
        },
        mixing={"kind": "uniform_grid", "lower": [0.5, 0.5], "upper": [1.5, 1.5], "counts": [20, 20]},
        calibration={"kind": "bayes-cost", "c": 0.01, "r": 1},
    )
    models.q_limit.cache_clear()
    exp = load_experiment(write_config(tmp_path, doc))
    assert models.q_limit.cache_info().misses == 2
    qs = np.array([models.q_limit.__wrapped__(exp.model.spec, c).value for c in range(2)])
    for atom in exp.grid.atoms[[0, 7, 399]]:
        assert exp.model.info_number(atom) == 0.5 * float(np.sum(atom**2 * qs))


# the Gaussian model and the same model spelled as one white-noise AR channel
# with the unit signal sin(pi/2)
GAUSSIAN_SPELLINGS = {
    "gaussian_iid": {"kind": "gaussian_iid"},
    "white_noise_ar": {
        "kind": "multichannel_ar", "ar_coeffs": [[]], "signals": [{"phase": math.pi / 2}]
    },
}


def _cli(tmp_path, *args):
    """``mixdetect *args`` in a new interpreter, where a warning is an error."""
    code = f"from mixdetect.cli import main\nraise SystemExit(main({list(args)!r}))"
    return _fresh_python(code, cwd=tmp_path)


class TestOverflowingInformationNumber:
    """An atom or a delay theta whose square passes the largest float gives
    I = inf and no prediction, silently, under either spelling of the model."""

    def test_calibrate(self, tmp_path):
        outputs = []
        for model in sorted(GAUSSIAN_SPELLINGS):
            doc = base_config(
                model=GAUSSIAN_SPELLINGS[model],
                mixing={"kind": "atoms", "atoms": [[1.0], [1e200]]},
                calibration={"kind": "bayes-cost", "c": 0.01, "r": 1},
            )
            proc = _cli(tmp_path, "calibrate", write_config(tmp_path, doc, name=f"{model}.json"))
            assert (proc.returncode, proc.stderr) == (0, ""), model
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and "A = " in outputs[0]

    @pytest.mark.parametrize("model", sorted(GAUSSIAN_SPELLINGS))
    def test_simulate_delay(self, tmp_path, model):
        doc = base_config(
            model=GAUSSIAN_SPELLINGS[model],
            mixing={"kind": "atoms", "atoms": [[1.0]]},
            calibration={"kind": "fixed", "log_threshold": 3.0},
            montecarlo={
                "trials": 16, "horizon": 20, "seed": 1,
                "scenarios": [
                    {"name": "d", "quantity": "delay", "theta": [1e200], "change_point": 5}
                ],
            },
            output={"report": "report.json"},
        )
        proc = _cli(tmp_path, "simulate", write_config(tmp_path, doc))
        assert (proc.returncode, proc.stderr) == (0, "")
        moment = json.loads((tmp_path / "report.json").read_text())["scenarios"][0]["moments"]["1"]
        assert moment["prediction"] is None and moment["estimate"]["point"] == 1.0


SYMMETRIC_HMM = {"kind": "hmm2", "theta0": [0.0, 1.0], "beta": 0.5, "gamma": 0.5}
_BUDGET = {"trials": 16, "horizon": 50, "seed": 1}


def _edge_config(model, atoms, scenario=None, **overrides):
    """A config whose atoms or scenario reach the edge of the float range."""
    doc = base_config(
        model=model,
        mixing={"kind": "atoms", "atoms": atoms},
        detector={"kind": "msr"},
        calibration={"kind": "fixed", "log_threshold": 3.0},
        output={"report": "report.json"},
    )
    if scenario is not None:
        doc["montecarlo"] = {**_BUDGET, "scenarios": [scenario]}
    doc.update(overrides)
    return doc


def _delay(theta, change_point=5):
    return {"name": "d", "quantity": "delay", "theta": theta, "change_point": change_point}


def _null_prediction(tmp_path, stdout):
    moment = json.loads((tmp_path / "report.json").read_text())["scenarios"][0]["moments"]["1"]
    return moment["prediction"] is None and moment["estimate"]["point"] >= 1.0


def _finite_threshold(tmp_path, stdout):
    (log_a,) = [ln for ln in stdout.splitlines() if ln.startswith("log A = ")]
    return math.isfinite(float(log_a.split(" = ")[1]))


_LADDER = {
    "name": "ladder", "quantity": "delay_ladder", "theta": 0,
    "log_thresholds": [1.0 + j / 1000 for j in range(1000)] + [math.log(19.0)],
}
_TRAILS = {**_BUDGET, "trails": 16, "scenarios": [_delay(0)]}

# (command, config, exit code, stderr, check of the outputs): configs at the
# edge of the float range or of a field's domain, each run in a new interpreter
EDGE_CASES = {
    # a mean of 1e19 leaves the increments finite; the information number has
    # no float grid there, so the prediction is null
    "hmm_delay_far_mean": (
        "simulate", _edge_config(SYMMETRIC_HMM, [[0.8, 1.8]], _delay([1e19, 2.0])), 0, "", _null_prediction,
    ),
    "hmm_bayes_far_atom": (
        "calibrate",
        _edge_config(SYMMETRIC_HMM, [[0.8, 1e12]], detector={"kind": "ms"},
                     calibration={"kind": "bayes-cost", "c": 0.01}),
        0, "", _finite_threshold,
    ),
    "hmm_bayes_huge_atom": (
        "calibrate",
        _edge_config(SYMMETRIC_HMM, [[0.8, 1e200]], detector={"kind": "ms"},
                     calibration={"kind": "bayes-cost", "c": 0.01}),
        2, "config error: calibration: info number: no float grid of step 0.1 near 1e+200\n", None,
    ),
    "hmm_delay_huge_mean": (
        "simulate", _edge_config(SYMMETRIC_HMM, [[0.8, 1.8]], _delay([1e200, 2.0])),
        3, "error: scenario d: step 6: LLR increments overflow\n", None,
    ),
    "gaussian_huge_atom_delay": (
        "simulate", _edge_config({"kind": "gaussian_iid"}, [[1.0], [1e200]], _delay(1, 0)),
        3, "error: scenario d: step 1: LLR increments overflow\n", None,
    ),
    "gaussian_huge_atom_pfa": (
        "simulate",
        _edge_config(
            {"kind": "gaussian_iid"}, [[1.0], [1e200]],
            montecarlo={**_BUDGET, "horizon": 200, "scenarios": [{"quantity": "pfa_tail"}]},
        ),
        3, "error: scenario pfa_tail_0: step 1: LLR increments overflow\n", None,
    ),
    "ladder_of_1001": (
        "simulate", _edge_config({"kind": "gaussian_iid"}, [[1.0]], _LADDER),
        2, "config error: montecarlo.scenarios[0].log_thresholds: at most 1000 values\n", None,
    ),
    "heavy_tail_c_1e6": (
        "calibrate",
        _edge_config({"kind": "gaussian_iid"}, [[1.0]],
                     prior={"kind": "heavy_tail", "c_exponent": 1e6}),
        2, "config error: prior: c_exponent must be below about 1075, "
        "where zeta(c, 2) is 0; got 1e+06\n", None,
    ),
    "calibrate_trails": (
        "calibrate", _edge_config({"kind": "gaussian_iid"}, [[1.0]], montecarlo=_TRAILS),
        2, "config error: montecarlo.trails: unknown key\n", None,
    ),
    "detect_trails": (
        "detect", _edge_config({"kind": "gaussian_iid"}, [[1.0]], montecarlo=_TRAILS),
        2, "config error: montecarlo.trails: unknown key\n", None,
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_config_verdict(tmp_path, case):
    """Each edge config gets its exit code and message, with no traceback and
    no NumPy warning (which the new interpreter would turn into an error)."""
    command, doc, code, err, check = EDGE_CASES[case]
    args = [command, write_config(tmp_path, doc)]
    if command == "detect":
        (tmp_path / "data.csv").write_text("0.5\n-0.25\n")
        args.append(str(tmp_path / "data.csv"))
    proc = _cli(tmp_path, *args)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert check is None or check(tmp_path, proc.stdout)


@pytest.mark.parametrize(
    "montecarlo, message",
    [
        (_TRAILS, "montecarlo.trails: unknown key"),
        ({**_BUDGET, "trials": 0, "scenarios": [_delay(0)]}, "montecarlo.trials: must be >= 1"),
        ({**_BUDGET, "scenarios": []}, "montecarlo.scenarios: need a non-empty list"),
        ({**_BUDGET, "scenarios": [_LADDER]}, None),
    ],
    ids=["unknown_key", "no_trials", "no_scenarios", "long_ladder"],
)
def test_every_command_gives_one_verdict(tmp_path, capsys, montecarlo, message):
    """calibrate, simulate and detect load a config the same way, so a bad
    montecarlo section fails all three with one message."""
    cfg = write_config(tmp_path, base_config(montecarlo=montecarlo))
    data = tmp_path / "data.csv"
    data.write_text("0.5\n")
    verdicts = []
    for args in (["calibrate", cfg], ["simulate", cfg], ["detect", cfg, str(data)]):
        verdicts.append((main(args), capsys.readouterr()))
    assert {(code, out.err) for code, out in verdicts} == {(2, verdicts[0][1].err)}
    assert all(out.out == "" for _, out in verdicts)
    assert message is None or verdicts[0][1].err == f"config error: {message}\n"


_FIXED = {"kind": "fixed", "log_threshold": 3.0}
_INFINITE_MEAN = {"kind": "heavy_tail", "c_exponent": 1.5}


def _budget(*scenarios, horizon=100):
    return {**_BUDGET, "horizon": horizon, "scenarios": list(scenarios)}


# (command, config document or raw text or None for no file, MIXDETECT_WORKERS,
# the config error with {path} for the config's path)
REFUSALS = {
    "msr_pfa_under_an_infinite_mean_prior": (
        "simulate",
        base_config(prior=_INFINITE_MEAN, detector={"kind": "msr"}, calibration=_FIXED,
                    montecarlo=_budget({"quantity": "pfa_tail"})),
        None,
        "montecarlo.horizon: cannot bound the false-alarm level of an MSR rule under an "
        "infinite-mean prior; use a finite-mean prior for PFA scenarios",
    ),
    "pfa_posterior_of_msr": (
        "simulate",
        base_config(detector={"kind": "msr"}, calibration=_FIXED,
                    montecarlo=_budget({"quantity": "pfa_posterior"})),
        None,
        "montecarlo.scenarios[0]: pfa_posterior applies to the ms rule only",
    ),
    "average_delay_short_of_an_infinite_mean_prior": (
        "simulate",
        base_config(prior=_INFINITE_MEAN, calibration=_FIXED,
                    montecarlo=_budget({"quantity": "average_delay", "theta": 0}, horizon=50)),
        None,
        "montecarlo.scenarios[0]: horizon must cover 99.99% of the prior mass "
        "when the prior mean is infinite",
    ),
    "integrated_risk_at_a_fixed_threshold": (
        "simulate",
        base_config(calibration=_FIXED, montecarlo=_budget({"quantity": "integrated_risk"})),
        None,
        "montecarlo.scenarios[0]: integrated_risk requires bayes-cost calibration",
    ),
    "no_config_file": (
        "calibrate", None, None,
        "cannot read config: [Errno 2] No such file or directory: '{path}'",
    ),
    "config_not_json": (
        "calibrate", "not json", None,
        "config is not valid JSON: Expecting value: line 1 column 1 (char 0)",
    ),
    "unknown_detector_kind": (
        "calibrate", base_config(detector={"kind": "cusum"}), None,
        "detector.kind: expected 'ms' or 'msr', got 'cusum'",
    ),
    "negative_head_start": (
        "calibrate", base_config(detector={"kind": "msr", "omega": -1.0}, calibration=_FIXED),
        None, "detector.omega: must be >= 0",
    ),
    "workers_not_an_integer": (
        "simulate", base_config(montecarlo=_budget({"quantity": "pfa_tail"})), "four",
        "MIXDETECT_WORKERS: expected an integer",
    ),
    "ms_prior_support_ends_inside_the_horizon": (
        "simulate",
        base_config(prior={"kind": "point_mass", "k0": 20}, calibration=_FIXED,
                    montecarlo=_budget({"quantity": "delay", "theta": 0})),
        None,
        "montecarlo.horizon: the prior's support ends inside the horizon; "
        "the ms statistic is undefined there (use msr or shorten the horizon)",
    ),
    "simulate_without_montecarlo": (
        "simulate", base_config(), None, "montecarlo: missing required section",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_config_refusal(tmp_path, capsys, monkeypatch, case):
    """Each refused config exits 2 with its one line on stderr and nothing on stdout."""
    command, doc, workers, message = REFUSALS[case]
    path = tmp_path / "cfg.json"
    if isinstance(doc, dict):
        path.write_text(json.dumps(doc))
    elif doc is not None:
        path.write_text(doc)
    if workers is None:
        monkeypatch.delenv("MIXDETECT_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MIXDETECT_WORKERS", workers)
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"config error: {message.format(path=path)}\n")


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = base_config()
        doc["prior"]["qq"] = 1
        assert main(["calibrate", write_config(tmp_path, doc)]) == 2
        assert "prior.qq" in capsys.readouterr().err

    def test_alpha_q_cross_check(self, tmp_path, capsys):
        doc = base_config(
            prior={"kind": "geometric", "rho": 0.1, "q": 0.6},
            calibration={"kind": "ms-pfa", "alpha": 0.5},
        )
        assert main(["calibrate", write_config(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    @pytest.mark.parametrize(
        "calibration, rule",
        [
            ({"kind": "ms-pfa", "alpha": 0.05}, "msr"),
            ({"kind": "msr-pfa", "alpha": 0.05}, "ms"),
            ({"kind": "bayes-cost", "c": 0.01}, "msr"),
        ],
        ids=["ms-pfa-msr", "msr-pfa-ms", "bayes-cost-msr"],
    )
    def test_calibration_of_the_other_rule_rejected(
        self, tmp_path, capsys, command, calibration, rule
    ):
        # each calibration kind solves for one rule's threshold; only fixed serves both
        report = tmp_path / "report.json"
        doc = base_config(
            detector={"kind": rule},
            calibration=calibration,
            montecarlo={
                "trials": 50,
                "horizon": 100,
                "seed": 1,
                "scenarios": [{"quantity": "delay", "theta": 1}],
            },
            output={"report": str(report)},
        )
        assert main([command, write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"calibration.kind: {calibration['kind']!r} calibrates the" in err
        assert not report.exists()

    @pytest.mark.parametrize("command", ["calibrate", "simulate", "detect"])
    @pytest.mark.parametrize(
        "detector, calibration",
        [
            ({"kind": "ms"}, {"kind": "ms-pfa", "alpha": 1e-310}),
            ({"kind": "msr", "omega": 1e308}, {"kind": "msr-pfa", "alpha": 0.05}),
        ],
        ids=["ms-pfa", "msr-pfa"],
    )
    def test_overflowing_threshold_rejected(self, tmp_path, capsys, command, detector, calibration):
        # A = (1 - alpha)/alpha or (omega*b + mean_nu)/alpha past the largest float
        report, data = tmp_path / "report.json", tmp_path / "data.csv"
        data.write_text("0.0\n1.0\n")
        doc = base_config(
            detector=detector,
            calibration=calibration,
            montecarlo={
                "trials": 50,
                "horizon": 100,
                "seed": 1,
                "scenarios": [{"quantity": "pfa_tail"}],
            },
            output={"report": str(report)},
        )
        argv = [command, write_config(tmp_path, doc)] + ([str(data)] if command == "detect" else [])
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: calibration: ")
        assert not report.exists()

    def test_grid_model_dimension_cross_check(self, tmp_path, capsys):
        doc = base_config(
            mixing={"kind": "atoms", "atoms": [[1.0, 1.0]]},
        )
        assert main(["calibrate", write_config(tmp_path, doc)]) == 2
        assert "model" in capsys.readouterr().err

    def test_zero_trials_rejected_before_work(self, tmp_path):
        doc = base_config(
            montecarlo={
                "trials": 0,
                "horizon": 100,
                "seed": 1,
                "scenarios": [{"quantity": "pfa_tail"}],
            }
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 2

    def test_missing_seed_rejected(self, tmp_path):
        doc = base_config(
            montecarlo={
                "trials": 100,
                "horizon": 100,
                "scenarios": [{"quantity": "pfa_tail"}],
            }
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 2

    def test_pfa_horizon_tail_check(self, tmp_path, capsys):
        doc = base_config(
            montecarlo={
                "trials": 100,
                "horizon": 30,  # Pi(30) = 0.9^30 ~ 0.042 >> 0.01 * alpha
                "seed": 1,
                "scenarios": [{"quantity": "pfa_tail"}],
            }
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "log_threshold,message",
        [
            (
                720,
                "montecarlo.horizon: 0.01 * alpha underflows to 0 (alpha = 0.000e+00), "
                "and no prior tail is below it at any horizon",
            ),
            (
                700,
                "montecarlo.horizon: prior tail Pi(2000) = 3.055e-92 is not below "
                "0.01 * alpha = 9.860e-307; raise the horizon",
            ),
        ],
        ids=["underflow", "tiny"],
    )
    def test_pfa_level_that_underflows(self, tmp_path, capsys, log_threshold, message):
        """exp(720) overflows, so the MS rule's implied alpha 1 / (1 + A) is 0:
        no horizon can bring the prior tail below 0, and the message says so
        instead of asking for a longer horizon.  At exp(700), 0.01 * alpha is
        a positive float and the usual horizon message stands."""
        doc = base_config(
            calibration={"kind": "fixed", "log_threshold": log_threshold},
            montecarlo={
                "trials": 100,
                "horizon": 2000,
                "seed": 1,
                "scenarios": [{"quantity": "pfa_tail"}],
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "prior,tail",
        [
            # Pi(100) = 0.999^100; the first-order risk D c |log c| is 0.166
            ({"kind": "geometric", "rho": 0.001}, "9.048e-01"),
            # its quantiles overflow int64 when the trials draw nu
            ({"kind": "heavy_tail", "c_exponent": 1.01}, "9.589e-01"),
        ],
        ids=["geometric", "heavy_tail"],
    )
    def test_integrated_risk_horizon_tail_check(self, tmp_path, capsys, prior, tail):
        """nu past the horizon adds nothing to the risk estimate, so the prior
        mass there must be below 1% of the risk it is compared with."""
        doc = base_config(
            prior=prior,
            calibration={"kind": "bayes-cost", "c": 0.01, "r": 1},
            montecarlo={
                "trials": 100,
                "horizon": 100,
                "seed": 1,
                "scenarios": [{"quantity": "integrated_risk"}],
            },
            output={"report": str(tmp_path / "report.json")},
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: montecarlo.horizon: prior tail Pi(100) = {tail} "
            "is not below 0.01 * D c |log c|^r = "
        )
        assert err.endswith("; raise the horizon\n")
        assert not (tmp_path / "report.json").exists()

    def test_integrated_risk_cost_outside_prediction_domain(self, tmp_path, capsys):
        """A cost c >= 1 can pass the Bayes calibration (here I = 50), but the
        first-order risk it is compared with needs c < 1."""
        doc = base_config(
            mixing={"kind": "atoms", "atoms": [[10.0]]},
            calibration={"kind": "bayes-cost", "c": 2, "r": 1},
            montecarlo={
                "trials": 30,
                "horizon": 200,
                "seed": 1,
                "scenarios": [{"quantity": "integrated_risk"}],
            },
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "config error: montecarlo.scenarios[0]: cost c must be in (0, 1)\n"
        )

    def test_hmm_theta0_needs_two_means(self, tmp_path):
        doc = base_config(
            model={"kind": "hmm2", "theta0": [0.0, 1.0, 7.0], "beta": 0.5, "gamma": 0.5},
            mixing={"kind": "atoms", "atoms": [[0.5, 1.5]]},
            calibration={"kind": "fixed", "log_threshold": 3.0},
        )
        with pytest.raises(ConfigError, match=r"^model\.theta0: expected two numbers$"):
            load_experiment(write_config(tmp_path, doc))
        doc["model"]["theta0"] = [0.0, 1.0]
        assert load_experiment(write_config(tmp_path, doc)).model.spec.theta0 == (0.0, 1.0)

    @pytest.mark.parametrize(
        "section,value,message",
        [
            ("calibration", {"kind": "bayes-cost", "c": "x"}, "calibration.c: expected a number"),
            ("calibration", {"kind": "ms-pfa"}, "calibration.alpha: missing required key"),
            ("calibration", {"kind": ["fixed"]}, "calibration.kind: unknown kind ['fixed']"),
            (
                "calibration",
                {"kind": "ms-pfa", "alpha": 1.5},
                "calibration: alpha must satisfy 0 < alpha < 1 - q = 1.0, got 1.5",
            ),
            ("prior", {"kind": ["geometric"]}, "prior.kind: unknown kind ['geometric']"),
            ("prior", {"kind": {"a": 1}}, "prior.kind: unknown kind {'a': 1}"),
            ("prior", {"rho": 0.1}, "prior.kind: missing required key"),
            ("prior", {"kind": "geometric", "rho": 2}, "prior: rho must be in (0, 1), got 2"),
            (
                "mixing",
                {"kind": "uniform_grid", "lower": [0.5], "upper": [1.5]},
                "mixing.counts: missing required key",
            ),
            (
                "mixing",
                {"kind": "uniform_grid", "lower": [0.5], "upper": [1.5], "counts": [2.7]},
                "mixing: counts must be whole numbers",
            ),
            (
                "mixing",
                {"kind": "atoms", "atoms": {"a": 1}},
                "mixing.atoms: expected a list of lists of numbers",
            ),
            ("model", {"kind": None}, "model.kind: unknown kind None"),
            ("model", {"kind": "multichannel_ar"}, "model.ar_coeffs: missing required key"),
            # list-valued fields name themselves, whatever the constructor would say
            (
                "model",
                {"kind": "multichannel_ar", "ar_coeffs": 5},
                "model.ar_coeffs: expected a list of lists of numbers",
            ),
            (
                "model",
                {"kind": "multichannel_ar", "ar_coeffs": [[0.5]], "signals": 5},
                "model.signals: expected a list of objects",
            ),
            (
                "model",
                {"kind": "hmm2", "theta0": ["a", "b"], "beta": 0.5, "gamma": 0.5},
                "model.theta0: expected two numbers",
            ),
            (
                "mixing",
                {"kind": "atoms", "atoms": [["a"]]},
                "mixing.atoms: expected a list of lists of numbers",
            ),
            (
                "mixing",
                {"kind": "atoms", "atoms": []},
                "mixing.atoms: expected non-empty rows of equal length",
            ),
            (
                "mixing",
                {"kind": "atoms", "atoms": [[]]},
                "mixing.atoms: expected non-empty rows of equal length",
            ),
            (
                "mixing",
                {"kind": "atoms", "atoms": [[1.0], [2.0, 3.0]]},
                "mixing.atoms: expected non-empty rows of equal length",
            ),
            (
                "mixing",
                {"kind": "atoms", "atoms": [[1.0]], "weights": ["x"]},
                "mixing.weights: expected a list of numbers",
            ),
            (
                "mixing",
                {"kind": "uniform_grid", "lower": ["a"], "upper": [1.5], "counts": [3]},
                "mixing.lower: expected a list of numbers",
            ),
            (
                "mixing",
                {"kind": "uniform_grid", "lower": [0.5], "upper": 1.5, "counts": [3]},
                "mixing.upper: expected a list of numbers",
            ),
            (
                "mixing",
                {"kind": "uniform_grid", "lower": [0.5], "upper": [1.5], "counts": [True]},
                "mixing.counts: expected a list of numbers",
            ),
            # refused before the atom bound is checked, so no count is cast first
            *(
                (
                    "mixing",
                    {"kind": "uniform_grid", "lower": [0.5] * len(c), "upper": [1.5] * len(c),
                     "counts": c},
                    "mixing: counts must be >= 1",
                )
                for c in ([0], [-1e30], [1e30, 0])
            ),
            (
                "montecarlo",
                {
                    "trials": 10,
                    "horizon": 100,
                    "seed": -1,
                    "scenarios": [{"quantity": "pfa_tail"}],
                },
                "montecarlo.seed: expected a non-negative integer",
            ),
        ],
        ids=[
            "calibration_field",
            "calibration_missing",
            "calibration_kind_list",
            "calibration_value",
            "prior_kind_list",
            "prior_kind_dict",
            "prior_no_kind",
            "prior_value",
            "mixing_missing",
            "mixing_counts_fraction",
            "mixing_type",
            "model_kind_null",
            "model_missing",
            "model_ar_coeffs",
            "model_signals",
            "model_theta0",
            "mixing_atoms",
            "mixing_atoms_empty",
            "mixing_atoms_empty_row",
            "mixing_atoms_ragged",
            "mixing_weights",
            "mixing_lower",
            "mixing_upper",
            "mixing_counts",
            "mixing_counts_zero",
            "mixing_counts_huge_negative",
            "mixing_counts_huge_and_zero",
            "montecarlo_seed_negative",
        ],
    )
    def test_section_error_rule(self, tmp_path, capsys, section, value, message):
        # one rule for every section: field errors keep their own name, a
        # missing key is named, any other builder error gets the section prefix
        doc = base_config(**{section: value})
        command = "simulate" if section == "montecarlo" else "calibrate"
        assert main([command, write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "key", ["report", "ladder_dir", "alarms", "trajectory", "threshold_json"]
    )
    def test_output_value_must_be_a_string(self, tmp_path, capsys, key):
        # "report": 5 used to open file descriptor 5
        doc = base_config(output={key: 5})
        assert main(["calibrate", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == f"config error: output.{key}: expected a string\n"

    def test_msr_omega_on_ms_rejected(self, tmp_path):
        doc = base_config(detector={"kind": "ms", "omega": 3.0})
        assert main(["calibrate", write_config(tmp_path, doc)]) == 2


class TestSimulate:
    def small_doc(self, tmp_path, report="report.json", workers=1):
        return base_config(
            montecarlo={
                "trials": 400,
                "horizon": 200,
                "seed": 7,
                "workers": workers,
                "scenarios": [
                    {"name": "pfa", "quantity": "pfa_tail"},
                    {
                        "name": "delay0",
                        "quantity": "delay",
                        "change_point": 0,
                        "theta": 1,
                        "moments": [1],
                    },
                ],
            },
            output={"report": str(tmp_path / report)},
        )

    @pytest.mark.parametrize(
        "scenario,message",
        [
            ({"quantity": "delay", "theta": 3}, r"scenarios\[2\]\.theta: atom index out of range"),
            ({"quantity": "delay", "theta": -1}, r"scenarios\[2\]\.theta: atom index out of range"),
            (
                {"quantity": "delay", "theta": True},
                r"scenarios\[2\]\.theta: expected an atom index or a vector",
            ),
            (
                {"quantity": "delay", "theta": ["a"]},
                r"scenarios\[2\]\.theta: could not convert",
            ),
            ({"quantity": ["delay"]}, r"scenarios\[2\]\.quantity: unknown quantity"),
            (
                {"quantity": "delay_ladder", "theta": 0, "log_thresholds": [3, 4, 5]},
                r"scenarios\[2\]\.log_thresholds: need a list of >= 4 values",
            ),
            (
                {"quantity": "delay", "theta": 0, "change_point": "x"},
                r"scenarios\[2\]\.change_point: expected a non-negative integer",
            ),
            (
                {"quantity": "delay", "theta": 0, "change_point": True},
                r"scenarios\[2\]\.change_point: expected a non-negative integer",
            ),
            (
                {"quantity": "delay", "theta": 0, "change_point": -1},
                r"scenarios\[2\]\.change_point: expected a non-negative integer",
            ),
            (
                {"quantity": "delay", "theta": 0, "change_point": 2.5},
                r"scenarios\[2\]\.change_point: expected a non-negative integer",
            ),
            (
                {"quantity": "delay", "theta": 0, "moments": [1, "2"]},
                r"scenarios\[2\]\.moments: expected a list of numbers",
            ),
            (
                {"quantity": "delay", "theta": 0, "moments": "12"},
                r"scenarios\[2\]\.moments: expected a list of numbers",
            ),
            (
                {"quantity": "average_delay", "theta": 0, "moment": "1"},
                r"scenarios\[2\]\.moment: expected a number",
            ),
            (
                {"quantity": "delay_ladder", "theta": 0, "log_thresholds": [3, 4, "x", 6]},
                r"scenarios\[2\]\.log_thresholds\[2\]: expected a number",
            ),
            (
                {"quantity": "delay", "theta": 0, "change_point": 200},
                r"scenarios\[2\]\.change_point: must be below montecarlo\.horizon = 200$",
            ),
            (
                {
                    "quantity": "delay_ladder",
                    "theta": 0,
                    "change_point": 500,
                    "log_thresholds": [3, 4, 5, 6],
                },
                r"scenarios\[2\]\.change_point: must be below montecarlo\.horizon = 200$",
            ),
            (
                {"name": "pfa", "quantity": "pfa_tail"},
                r"scenarios\[2\]\.name: duplicate name 'pfa'$",
            ),
            (
                {"name": "delay0", "quantity": "delay", "theta": 0},
                r"scenarios\[2\]\.name: duplicate name 'delay0'$",
            ),
            (
                {"name": 5, "quantity": "pfa_tail"},
                r"scenarios\[2\]\.name: expected a non-empty string$",
            ),
            (
                {"name": "", "quantity": "pfa_tail"},
                r"scenarios\[2\]\.name: expected a non-empty string$",
            ),
            (
                {"name": "a/b", "quantity": "pfa_tail"},
                r"scenarios\[2\]\.name: must not contain a path separator$",
            ),
            (
                {"quantity": "delay_ladder", "theta": 0, "log_thresholds": [5, 5, 5.0, 5]},
                r"scenarios\[2\]\.log_thresholds: need at least two distinct values$",
            ),
            (
                {"quantity": "delay", "theta": 0, "moments": []},
                r"scenarios\[2\]\.moments: need a non-empty list$",
            ),
            (
                {
                    "quantity": "delay_ladder",
                    "theta": 0,
                    "moments": [],
                    "log_thresholds": [3, 4, 5, 6],
                },
                r"scenarios\[2\]\.moments: unknown key$",
            ),
        ],
        ids=[
            "theta_index",
            "theta_negative_index",
            "theta_bool",
            "theta_not_numbers",
            "quantity_not_a_string",
            "ladder_thresholds",
            "change_point_string",
            "change_point_bool",
            "change_point_negative",
            "change_point_fraction",
            "moments_entry",
            "moments_not_list",
            "moment",
            "ladder_threshold_entry",
            "change_point_at_horizon",
            "ladder_change_point_beyond_horizon",
            "name_duplicate",
            "name_duplicate_delay",
            "name_not_a_string",
            "name_empty",
            "name_path_separator",
            "ladder_thresholds_all_equal",
            "moments_empty",
            "ladder_moments_empty",
        ],
    )
    def test_bad_scenario_rejected_at_load(self, tmp_path, scenario, message):
        # rejected by load_experiment, so no earlier scenario runs first
        doc = self.small_doc(tmp_path)
        doc["montecarlo"]["scenarios"].append(scenario)
        with pytest.raises(ConfigError, match=message):
            load_experiment(write_config(tmp_path, doc))

    def test_bad_scenario_exits_2_before_running(self, tmp_path, capsys):
        doc = self.small_doc(tmp_path)
        doc["montecarlo"]["scenarios"].append(
            {"quantity": "delay", "theta": 0, "change_point": "x"}
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 2
        assert "scenarios[2].change_point" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    # field -> (config overrides with the placeholder X, the field the error names)
    NON_FINITE_FIELDS = {
        "omega": (
            {
                "detector": {"kind": "msr", "omega": "X"},
                "calibration": {"kind": "msr-pfa", "alpha": 0.01},
            },
            "detector.omega",
        ),
        "alpha": ({"calibration": {"kind": "ms-pfa", "alpha": "X"}}, "calibration.alpha"),
        "rho": ({"prior": {"kind": "geometric", "rho": "X"}}, "prior.rho"),
        "atoms": ({"mixing": {"kind": "atoms", "atoms": [["X"], [1.0]]}}, "mixing.atoms"),
        "weights": (
            {"mixing": {"kind": "atoms", "atoms": [[0.5], [1.0]], "weights": ["X", 1.0]}},
            "mixing.weights",
        ),
        "theta": ({"scenario": {"quantity": "delay", "theta": ["X"]}}, "scenarios[2].theta"),
        "theta0": (
            {
                "model": {"kind": "hmm2", "theta0": ["X", 1.0], "beta": 0.5, "gamma": 0.5},
                "mixing": {"kind": "atoms", "atoms": [[0.8, 1.8], [0.3, 1.4]]},
            },
            "model.theta0",
        ),
        "log_thresholds": (
            {
                "scenario": {
                    "quantity": "delay_ladder", "theta": 0, "log_thresholds": [3, "X", 5, 6]
                }
            },
            "scenarios[2].log_thresholds[1]",
        ),
        "moments": (
            {"scenario": {"quantity": "delay", "theta": 0, "moments": ["X"]}},
            "scenarios[2].moments",
        ),
    }

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
    def test_non_finite_number_rejected(self, tmp_path, monkeypatch, capsys, field, literal):
        """json reads NaN, +-Infinity and an overflowing 1e400 as floats; every
        numeric field refuses them at load, naming the field, with exit 2."""
        monkeypatch.chdir(tmp_path)  # a ladder that ran would write its CSV here
        overrides, named = self.NON_FINITE_FIELDS[field]
        doc = self.small_doc(tmp_path)
        for key, val in overrides.items():
            if key == "scenario":
                doc["montecarlo"]["scenarios"].append(val)
            else:
                doc[key] = val
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc).replace('"X"', literal))
        assert main(["simulate", str(path)]) == 2
        assert f"{named}: expected" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    # field -> (config overrides with the placeholder X, the value put there, the message)
    BIG = 10**400  # a JSON integer that fits no float
    OVERSIZED_FIELDS = {
        "omega": (
            {
                "detector": {"kind": "msr", "omega": "X"},
                "calibration": {"kind": "msr-pfa", "alpha": 0.01},
            },
            BIG,
            "detector.omega: expected a number",
        ),
        "atoms": (
            {"mixing": {"kind": "atoms", "atoms": [["X"], [1.0]]}},
            BIG,
            "mixing.atoms: expected a list of lists of numbers",
        ),
        "counts": (
            {"mixing": {"kind": "uniform_grid", "lower": [0.5], "upper": [1.5], "counts": ["X"]}},
            BIG,
            "mixing.counts: expected a list of numbers",
        ),
        "log_threshold": (
            {"calibration": {"kind": "fixed", "log_threshold": "X"}},
            BIG,
            "calibration.log_threshold: expected a number",
        ),
        "horizon": (
            {"montecarlo": {"horizon": "X"}}, 10**30, "montecarlo.horizon: must be < 2**63"
        ),
        "k0": ({"prior": {"kind": "point_mass", "k0": "X"}}, BIG, "prior.k0: must be < 2**63"),
    }

    @pytest.mark.parametrize("field", sorted(OVERSIZED_FIELDS))
    def test_oversized_number_rejected(self, tmp_path, capsys, field):
        """An integer literal that fits no float, or an integer field's value that
        fits no int64, is refused at load with exit 2 naming its field, not a
        traceback."""
        overrides, value, message = self.OVERSIZED_FIELDS[field]
        doc = self.small_doc(tmp_path)
        for key, val in overrides.items():
            doc[key] = {**doc[key], **val} if key == "montecarlo" else val
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc).replace('"X"', str(value)))
        commands = ["simulate"] if "montecarlo" in overrides else ["calibrate", "simulate"]
        for command in commands:
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    def _refused_at_load(self, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        for command in ("calibrate", "simulate"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "counts,shown",
        [([1e30], "1e+30"), ([10**12], "1e+12"), ([1e19], "1e+19"), ([100000], "100000"),
         ([400, 250], "100000")],
    )
    def test_grid_of_too_many_atoms_rejected(self, tmp_path, capsys, counts, shown):
        """A uniform grid of 10**5 atoms or more, for which the engine's alarm
        bound is unproven, is refused at load with exit 2 naming the field,
        before a count can overflow or an atom array is made."""
        doc = self.small_doc(tmp_path)
        dim = len(counts)
        doc["mixing"] = {
            "kind": "uniform_grid", "lower": [0.5] * dim, "upper": [1.5] * dim, "counts": counts
        }
        if dim == 2:  # a model that takes 2-d atoms
            doc["model"] = {"kind": "hmm2", "theta0": [0.0, 1.0], "beta": 0.2, "gamma": 0.4}
        message = f"mixing.counts: the grid would have {shown} atoms; at most 99999 are allowed"
        self._refused_at_load(tmp_path, capsys, doc, message)

    def test_atoms_list_of_too_many_atoms_rejected(self, tmp_path, capsys):
        doc = self.small_doc(tmp_path)
        doc["mixing"] = {"kind": "atoms", "atoms": [[1.0 + i / 2**20] for i in range(100000)]}
        message = "mixing.atoms: the grid would have 100000 atoms; at most 99999 are allowed"
        self._refused_at_load(tmp_path, capsys, doc, message)

    def test_seed_of_any_size_accepted(self, tmp_path):
        """SeedSequence takes any non-negative integer, so the seed has no bound."""
        doc = self.small_doc(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc).replace('"seed": 7', f'"seed": {self.BIG}'))
        assert load_experiment(str(path)).run.master_seed == self.BIG
        assert main(["simulate", str(path)]) == 0
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("value", [0.5, 0, -1])
    @pytest.mark.parametrize(
        "scenario,named",
        [
            ({"quantity": "delay", "theta": 0, "moments": [1, "M"]}, "moments[1]"),
            ({"quantity": "average_delay", "theta": 0, "moment": "M"}, "moment"),
        ],
        ids=["delay", "average_delay"],
    )
    def test_moment_below_one_rejected(self, tmp_path, capsys, scenario, named, value):
        """Delay moments m < 1 have no prediction (theory needs m >= 1), so they
        are refused at load, before any trial runs, not after every trial."""
        doc = self.small_doc(tmp_path)
        scenario = json.loads(json.dumps(scenario).replace('"M"', json.dumps(value)))
        doc["montecarlo"]["scenarios"].append(scenario)
        assert main(["simulate", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"montecarlo.scenarios[2].{named}: must be >= 1" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("montecarlo", "trials", 100.7),
            ("montecarlo", "horizon", 2000.5),
            ("montecarlo", "seed", 7.9),
            ("montecarlo", "workers", 1.5),
            ("prior", "k0", 2.5),
        ],
    )
    def test_fractional_integer_rejected(self, tmp_path, section, key, value):
        # int() would silently truncate these
        doc = self.small_doc(tmp_path)
        if section == "prior":
            doc["prior"] = {"kind": "point_mass", "k0": 2}
            doc["detector"] = {"kind": "msr"}
            doc["calibration"] = {"kind": "fixed", "log_threshold": 3.0}
            doc["montecarlo"]["scenarios"] = doc["montecarlo"]["scenarios"][1:]
        path = write_config(tmp_path, doc)
        load_experiment(path)  # integral values load
        doc[section][key] = value
        expected = "a non-negative integer" if key == "seed" else "an integer"
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected {expected}$"):
            load_experiment(write_config(tmp_path, doc))

    def test_workers_env_named_in_message(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, self.small_doc(tmp_path))
        monkeypatch.setenv("MIXDETECT_WORKERS", "0")
        with pytest.raises(ConfigError, match=r"^MIXDETECT_WORKERS: must be >= 1$"):
            load_experiment(path)
        monkeypatch.delenv("MIXDETECT_WORKERS")
        doc = self.small_doc(tmp_path, workers=0)
        with pytest.raises(ConfigError, match=r"^montecarlo\.workers: must be >= 1$"):
            load_experiment(write_config(tmp_path, doc))

    def test_integral_float_change_point_accepted(self, tmp_path):
        doc = self.small_doc(tmp_path)
        doc["montecarlo"]["scenarios"][1]["change_point"] = 3.0
        exp = load_experiment(write_config(tmp_path, doc))
        assert exp.scenarios[1].change_point == 3.0

    def test_report_written_and_echo_roundtrips(self, tmp_path):
        doc = self.small_doc(tmp_path)
        path = write_config(tmp_path, doc)
        assert main(["simulate", path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"] == json.loads(json.dumps(doc))
        assert {s["name"] for s in report["scenarios"]} == {"pfa", "delay0"}
        assert report["threshold"]["threshold"] == pytest.approx(19.0)

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        path = write_config(tmp_path, self.small_doc(tmp_path))
        assert main(["simulate", path]) == 0
        first = (tmp_path / "report.json").read_bytes()
        assert main(["simulate", path]) == 0
        assert (tmp_path / "report.json").read_bytes() == first

    def test_smoke_config_under_ten_seconds(self, tmp_path):
        import time

        doc = base_config(
            montecarlo={
                "trials": 1000,
                "horizon": 500,
                "seed": 11,
                "scenarios": [{"quantity": "pfa_tail"}],
            },
            output={"report": str(tmp_path / "smoke.json")},
        )
        t0 = time.time()
        assert main(["simulate", write_config(tmp_path, doc)]) == 0
        assert time.time() - t0 < 10.0

    def test_ladder_without_information_has_no_slope_prediction(self, tmp_path):
        # MSR at the zero atom: I = 0, so there is no first-order slope 1 / I
        doc = base_config(
            mixing={"kind": "atoms", "atoms": [[0.0], [1.0]]},
            detector={"kind": "msr"},
            calibration={"kind": "fixed", "log_threshold": 3.0},
            montecarlo={
                "trials": 50,
                "horizon": 100,
                "seed": 1,
                "scenarios": [
                    {"quantity": "delay_ladder", "theta": 0, "log_thresholds": [1, 2, 3, 4]}
                ],
            },
            output={"report": str(tmp_path / "r.json"), "ladder_dir": str(tmp_path)},
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 0
        row = json.loads((tmp_path / "r.json").read_text())["scenarios"][0]
        assert row["prediction_slope"] is None and row["slope_ratio"] is None
        assert all(math.isnan(p["prediction"]) for p in row["ladder"])

    def test_point_mass_ms_delay_has_no_prediction(self, tmp_path):
        # a point mass has tail rate mu = inf, so the ms first-order delay
        # (log A / (I + mu))^r is 0 and there is nothing to divide by
        doc = base_config(
            prior={"kind": "point_mass", "k0": 500},
            montecarlo={
                "trials": 50,
                "horizon": 100,
                "seed": 1,
                "scenarios": [
                    {"quantity": "delay", "theta": 1},
                    {"quantity": "delay_ladder", "theta": 1, "log_thresholds": [1, 2, 3, 4]},
                ],
            },
            output={"report": str(tmp_path / "r.json"), "ladder_dir": str(tmp_path)},
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 0
        delay, ladder = json.loads((tmp_path / "r.json").read_text())["scenarios"]
        assert delay["moments"]["1"]["prediction"] is None
        assert delay["moments"]["1"]["ratio"] is None
        assert ladder["prediction_slope"] is None and ladder["slope_ratio"] is None
        assert all(math.isnan(p["prediction"]) for p in ladder["ladder"])

    @pytest.mark.parametrize("detector", ["ms", "msr"])
    def test_zero_information_delay_prediction(self, tmp_path, detector):
        # at theta = 0 the information I is 0: the ms rate I + mu is still the
        # prior's tail rate mu > 0, while the msr rate I leaves nothing to predict
        doc = base_config(
            mixing={"kind": "atoms", "atoms": [[0.0], [1.0]]},
            detector={"kind": detector},
            calibration={"kind": "fixed", "log_threshold": 3.0},
            montecarlo={
                "trials": 50,
                "horizon": 200,
                "seed": 1,
                "scenarios": [
                    {"quantity": "delay", "theta": 0},
                    {"quantity": "delay_ladder", "theta": 0, "log_thresholds": [1, 2, 3, 4]},
                ],
            },
            output={"report": str(tmp_path / "r.json"), "ladder_dir": str(tmp_path)},
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 0
        delay, ladder = json.loads((tmp_path / "r.json").read_text())["scenarios"]
        pred = delay["moments"]["1"]["prediction"]
        if detector == "msr":
            assert pred is None and ladder["prediction_slope"] is None
            assert all(math.isnan(p["prediction"]) for p in ladder["ladder"])
            return
        mu = -math.log(1.0 - 0.1)
        assert pred["value"] == pytest.approx(3.0 / mu, rel=1e-12)
        assert pred["inputs"]["I"] == 0.0
        assert ladder["prediction_slope"] == pytest.approx(1.0 / mu, rel=1e-12)
        for rung in ladder["ladder"]:
            assert rung["prediction"] == pytest.approx(rung["log_A"] / mu, rel=1e-12)

    @pytest.mark.parametrize("log_a", [-0.5, 720.0])
    def test_delay_prediction_at_extreme_thresholds(self, tmp_path, log_a):
        # log A <= 0 has no first-order prediction; log A = 720 has one,
        # though A = e^720 overflows a float
        doc = base_config(
            detector={"kind": "msr"},
            calibration={"kind": "fixed", "log_threshold": log_a},
            montecarlo={
                "trials": 20,
                "horizon": 50,
                "seed": 1,
                "scenarios": [{"quantity": "delay", "theta": 1, "moments": [1, 2]}],
            },
            output={"report": str(tmp_path / "r.json")},
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 0
        (delay,) = json.loads((tmp_path / "r.json").read_text())["scenarios"]
        for m in (1, 2):
            pred = delay["moments"][str(m)]["prediction"]
            if log_a < 0.0:
                assert pred is None
            else:
                assert pred["inputs"] == {"log_A": 720.0, "I": 0.5, "m": float(m)}
                assert pred["value"] == pytest.approx((720.0 / 0.5) ** m, rel=1e-12)

    def test_ladder_csv_written(self, tmp_path):
        doc = base_config(
            montecarlo={
                "trials": 300,
                "horizon": 200,
                "seed": 3,
                "scenarios": [
                    {
                        "name": "lad",
                        "quantity": "delay_ladder",
                        "change_point": 0,
                        "theta": [1.0],
                        "log_thresholds": [3, 4, 5, 6],
                    }
                ],
            },
            output={
                "report": str(tmp_path / "r.json"),
                "ladder_dir": str(tmp_path / "ladders"),
            },
        )
        assert main(["simulate", write_config(tmp_path, doc)]) == 0
        lines = (tmp_path / "ladders" / "lad.csv").read_text().strip().splitlines()
        assert lines[0] == "log_A,mean_delay,stderr,prediction"
        assert len(lines) == 5
        report = json.loads((tmp_path / "r.json").read_text())
        assert "slope" in report["scenarios"][0]


def _csv_writer_bytes(tmp_path, segments) -> bytes:
    """The bytes csv.writer writes for trajectory segments, with repr floats:
    the reference for ``cli._write_trajectory``."""
    import csv

    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "log_stat", "crossed"])
        for seg in segments:
            for n, stat, crossed in seg if seg is not None else []:
                w.writerow([int(n), repr(float(stat)), int(crossed)])
    return want.read_bytes()

class TestDetect:
    def detect_doc(self, tmp_path, **overrides):
        doc = base_config(
            detector={"kind": "msr", "omega": 0.0},
            calibration={"kind": "fixed", "log_threshold": math.log(10.5)},
            mixing={"kind": "atoms", "atoms": [[0.0]]},
            output={
                "alarms": str(tmp_path / "alarms.csv"),
                "trajectory": str(tmp_path / "traj.csv"),
            },
        )
        doc.update(overrides)
        return doc

    def test_multicyclic_drift_pattern(self, tmp_path, capsys):
        path = write_config(tmp_path, self.detect_doc(tmp_path))
        data = tmp_path / "zeros.csv"
        data.write_text("".join("0.0\n" for _ in range(33)))
        assert main(["detect", path, str(data), "--multicyclic"]) == 0
        assert "11,22,33" in capsys.readouterr().out
        lines = (tmp_path / "alarms.csv").read_text().strip().splitlines()
        assert lines == ["alarm_time", "11", "22", "33"]

    @pytest.mark.parametrize("multicyclic", [False, True])
    def test_trajectory_without_path_fails_before_the_run(self, tmp_path, capsys, multicyclic):
        doc = self.detect_doc(tmp_path, output={"alarms": str(tmp_path / "alarms.csv")})
        path = write_config(tmp_path, doc)
        data = tmp_path / "zeros.csv"
        data.write_text("".join("0.0\n" for _ in range(33)))
        argv = ["detect", path, str(data), "--trajectory"]
        assert main(argv + (["--multicyclic"] if multicyclic else [])) == 2
        assert "output.trajectory" in capsys.readouterr().err
        assert not (tmp_path / "alarms.csv").exists()

    def test_empty_file_censored(self, tmp_path, capsys):
        path = write_config(tmp_path, self.detect_doc(tmp_path))
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["detect", path, str(data)]) == 0
        assert "CENSORED" in capsys.readouterr().out
        lines = (tmp_path / "alarms.csv").read_text().strip().splitlines()
        assert lines == ["alarm_time", "CENSORED"]

    def test_malformed_row_names_line(self, tmp_path, capsys):
        path = write_config(tmp_path, self.detect_doc(tmp_path))
        data = tmp_path / "bad.csv"
        data.write_text("x\n0.0\nnot_a_number\n")
        assert main(["detect", path, str(data)]) == 3
        assert ":3:" in capsys.readouterr().err

    def test_wrong_column_count(self, tmp_path, capsys):
        path = write_config(tmp_path, self.detect_doc(tmp_path))
        data = tmp_path / "bad2.csv"
        data.write_text("0.0,1.0\n")
        assert main(["detect", path, str(data)]) == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_value_names_line(self, tmp_path, capsys, value):
        path = write_config(tmp_path, self.detect_doc(tmp_path))
        data = tmp_path / "nonfinite.csv"
        data.write_text(f"x\n0.0\n{value}\n0.0\n")
        assert main(["detect", path, str(data)]) == 3
        err = capsys.readouterr().err
        assert f"{data}:3: non-finite value" in err

    @pytest.mark.parametrize("multicyclic", [False, True])
    @pytest.mark.parametrize(
        "model,atoms,text,line",
        [
            # theta * x - theta^2 / 2 overflows to -inf
            ({"kind": "gaussian_iid"}, [[2.0]], "x\n0.0\n\n-1e308\n0.0\n", 4),
            # (x - mean)^2 overflows in both filters: inf - inf is nan
            (
                {"kind": "hmm2", "theta0": [0.0, 1.0], "beta": 0.5, "gamma": 0.5},
                [[0.5, 1.5]],
                "0.0\n1e200\n0.0\n",
                2,
            ),
        ],
        ids=["gaussian", "hmm"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_value_names_line(
        self, tmp_path, capsys, model, atoms, text, line, multicyclic
    ):
        """A finite value whose increments overflow exits 3 naming its line, and
        NumPy prints no RuntimeWarning before it."""
        doc = self.detect_doc(tmp_path, model=model, mixing={"kind": "atoms", "atoms": atoms})
        path = write_config(tmp_path, doc)
        data = tmp_path / "huge.csv"
        data.write_text(text)
        argv = ["detect", path, str(data)] + (["--multicyclic"] if multicyclic else [])
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"error: {data}:{line}: observation out of range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("multicyclic", [False, True])
    @pytest.mark.parametrize("row", [1, 64, 65, 130])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_named_at_block_positions(self, tmp_path, capsys, row, multicyclic):
        """Rows are scored 64 at a time; the overflowing row is still named by
        its own line, on a block's first or last row too."""
        doc = self.detect_doc(tmp_path, mixing={"kind": "atoms", "atoms": [[2.0]]})
        path = write_config(tmp_path, doc)
        values = ["0.0"] * 140
        values[row - 1] = "-1e308"
        data = tmp_path / "huge.csv"
        data.write_text("x\n" + "\n".join(values) + "\n")
        argv = ["detect", path, str(data)] + (["--multicyclic"] if multicyclic else [])
        assert main(argv) == 3
        assert f"error: {data}:{row + 1}: observation out of range" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_named_after_mid_block_restart(self, tmp_path, capsys):
        # x = 3 with theta = 2 gives increments of exactly 4 = log A: every
        # row alarms, so rows 65 .. 69 restart inside the block that row 70,
        # the overflowing one, ends
        doc = self.detect_doc(
            tmp_path,
            mixing={"kind": "atoms", "atoms": [[2.0]]},
            calibration={"kind": "fixed", "log_threshold": 4.0},
        )
        path = write_config(tmp_path, doc)
        values = ["3.0"] * 100
        values[69] = "-1e308"
        data = tmp_path / "huge.csv"
        data.write_text("x\n" + "\n".join(values) + "\n")
        assert main(["detect", path, str(data), "--multicyclic"]) == 3
        assert f"error: {data}:71: observation out of range" in capsys.readouterr().err
        data.write_text("x\n" + "\n".join(values[:69]) + "\n")
        assert main(["detect", path, str(data), "--multicyclic"]) == 0
        assert capsys.readouterr().out.strip() == "alarms: " + ",".join(map(str, range(1, 70)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alarm_before_overflow_in_same_block(self, tmp_path, capsys):
        """A single-shot run stops at its alarm, so an overflowing row later in
        the same block is no error; a multicyclic run goes on and reaches it."""
        doc = self.detect_doc(
            tmp_path,
            mixing={"kind": "atoms", "atoms": [[2.0]]},
            calibration={"kind": "fixed", "log_threshold": 3.0},
        )
        path = write_config(tmp_path, doc)
        data = tmp_path / "huge.csv"
        data.write_text("5\n5\n5\n5\n-1e308\n0\n")
        assert main(["detect", path, str(data)]) == 0
        assert capsys.readouterr().out.strip() == "alarm at n = 1"
        assert (tmp_path / "alarms.csv").read_text().split() == ["alarm_time", "1"]
        assert main(["detect", path, str(data), "--multicyclic"]) == 3
        assert f"error: {data}:5: observation out of range" in capsys.readouterr().err

    def _exhausted(self, tmp_path, capsys, text, log_a, multicyclic):
        """Run MS detect under a point mass at k0 = 5; it must exit 3 and write
        no output file.  Returns the error after its file name."""
        doc = self.detect_doc(
            tmp_path,
            detector={"kind": "ms"},
            prior={"kind": "point_mass", "k0": 5},
            mixing={"kind": "atoms", "atoms": [[2.0]]},
            calibration={"kind": "fixed", "log_threshold": log_a},
        )
        path = write_config(tmp_path, doc)
        data = tmp_path / "d.csv"
        data.write_text(text)
        argv = ["detect", path, str(data), "--trajectory"]
        assert main(argv + (["--multicyclic"] if multicyclic else [])) == 3
        assert not (tmp_path / "alarms.csv").exists()
        assert not (tmp_path / "traj.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}:")
        return err.removeprefix(f"error: {data}:")

    def test_prior_support_end_names_line(self, tmp_path, capsys):
        """Pi(6) = 0 under a point mass at 5: detect names the line of row 6,
        after a header and a blank line."""
        err = self._exhausted(tmp_path, capsys, "x\n\n" + "0.0\n" * 8, 50.0, False)
        assert err == "8: prior tail Pi(6) = 0; the MS recursion cannot continue\n"

    def test_prior_support_end_after_restart_names_line(self, tmp_path, capsys, monkeypatch):
        """An alarm at row 1 restarts the prior's clock, so Pi(6) = 0 falls on
        row 7, line 9."""
        # mass q = 1/2 before time 0 lets the statistic alarm before Pi(6) = 0:
        # log S_1 = log(1/2) + 4 > 3 at x = 3
        monkeypatch.setattr(
            cli, "point_mass_prior", lambda k0: replace(point_mass_prior(k0), q=0.5)
        )
        err = self._exhausted(tmp_path, capsys, "x\n\n3.0\n" + "0.0\n" * 8, 3.0, True)
        assert err == "9: prior tail Pi(6) = 0; the MS recursion cannot continue\n"

    def test_matches_in_process_run(self, tmp_path):
        doc = base_config(
            calibration={"kind": "fixed", "log_threshold": 2.0},
            output={"alarms": str(tmp_path / "alarms.csv")},
        )
        path = write_config(tmp_path, doc)
        rng = np.random.default_rng(40)
        stream = rng.standard_normal(400)
        stream[150:] += 1.0
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in stream))

        assert main(["detect", path, str(data)]) == 0
        lines = (tmp_path / "alarms.csv").read_text().strip().splitlines()
        cli_alarm = int(lines[1])

        exp = load_experiment(path)
        rec = run_detector(
            "ms", exp.model, exp.prior, 2.0, stream.reshape(-1, 1)
        )
        assert cli_alarm == rec.stop_time

        assert main(["detect", path, str(data), "--multicyclic"]) == 0
        lines = (tmp_path / "alarms.csv").read_text().strip().splitlines()
        cli_alarms = [int(v) for v in lines[1:]]
        records = multicyclic_run(
            "ms", exp.model, exp.prior, 2.0, stream.reshape(-1, 1)
        )
        assert cli_alarms == [r.stop_time for r in records]

    def test_trajectory_csv(self, tmp_path):
        path = write_config(tmp_path, self.detect_doc(tmp_path))
        data = tmp_path / "zeros.csv"
        data.write_text("".join("0.0\n" for _ in range(15)))
        assert main(["detect", path, str(data), "--trajectory"]) == 0
        lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
        assert lines[0] == "n,log_stat,crossed"
        # drift crosses 10.5 at n = 11; trajectory stops there in single-shot
        assert len(lines) == 12
        last = lines[-1].split(",")
        assert last[0] == "11" and last[2] == "1"

    def test_trajectory_bytes_match_csv_writer(self, tmp_path):
        """_write_trajectory writes what csv.writer writes for the same rows,
        kept here as the reference, with non-finite and empty segments."""
        from mixdetect.cli import _write_trajectory

        segments = [
            np.array([[1, -np.inf, 0], [2, 0.1 + 0.2, 0], [3, 1e300, 1]], dtype=float),
            None,
            np.array([]),
            np.array([[4, np.nan, 0], [5, -2.5e-310, 0], [6, 7.0, 1]], dtype=float),
        ]
        _write_trajectory(str(tmp_path / "got.csv"), segments)
        assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(tmp_path, segments)

    @pytest.mark.parametrize("case", ["values", "empty", "chunks"])
    def test_trajectory_bytes_of_edge_values(self, tmp_path, case):
        """Floats whose repr switches notation or sign, the smallest subnormal,
        a crossing row, an empty trajectory, and rows across the writer's
        chunk edges give csv.writer's bytes."""
        from mixdetect.cli import TRAJECTORY_CHUNK, _write_trajectory

        values = [1e-05, 1e16, -0.0, 5e-324, 2.0, 0.1, -1e-05, 123456789.0]
        if case == "values":
            rows = np.array([[n, v, 0] for n, v in enumerate(values, start=1)], dtype=float)
            rows[-1, 2] = 1  # the crossing row
            segments = [rows[:3], rows[3:]]
        elif case == "empty":
            segments = [np.array([]), None]
        else:
            count = 2 * TRAJECTORY_CHUNK + 3
            rows = np.zeros((count, 3))
            rows[:, 0] = np.arange(1, count + 1)
            rows[:, 1] = np.resize(values, count) * np.arange(count)
            rows[TRAJECTORY_CHUNK - 1 :: TRAJECTORY_CHUNK, 2] = 1
            segments = [rows[: TRAJECTORY_CHUNK + 1], rows[TRAJECTORY_CHUNK + 1 :]]
        _write_trajectory(str(tmp_path / "got.csv"), segments)
        assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(tmp_path, segments)

    def test_trajectory_writer_holds_no_whole_stream_copy(self, tmp_path):
        """The writer formats each segment where it lies: over 200 000 rows
        (4.8 MB) in four segments, it allocates less than half their bytes."""
        import tracemalloc

        from mixdetect.cli import _write_trajectory

        rows = np.zeros((200_000, 3))
        rows[:, 0] = np.arange(1, len(rows) + 1)
        rows[:, 1] = np.linspace(-5.0, 5.0, len(rows))
        segments = np.split(rows, 4)
        tracemalloc.start()
        try:
            _write_trajectory(str(tmp_path / "got.csv"), segments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 2

    def test_header_detection(self, tmp_path):
        data = tmp_path / "h.csv"
        data.write_text("value\n1.5\n2.5\n")
        rows, skipped = load_csv_stream(str(data), 1)
        np.testing.assert_allclose(rows.ravel(), [1.5, 2.5])
        assert skipped == [1]

    def test_header_after_blank_lines(self, tmp_path, capsys):
        """The first non-blank line may be a header, after leading blank lines
        too, and later lines keep their own line numbers in errors."""
        data = tmp_path / "b.csv"
        data.write_text("\nx\n1.5\n2.5\n")
        rows, skipped = load_csv_stream(str(data), 1)
        np.testing.assert_array_equal(rows.ravel(), [1.5, 2.5])
        assert skipped == [1, 2]
        data.write_text("\n\nx\n1.5\ny\n")
        with pytest.raises(RuntimeError, match=rf"^{data}:5: malformed CSV row 'y'$"):
            load_csv_stream(str(data), 1)
        doc = self.detect_doc(tmp_path, mixing={"kind": "atoms", "atoms": [[2.0]]})
        path = write_config(tmp_path, doc)
        data.write_text("\nx\n0.0\n\n-1e308\n")
        assert main(["detect", path, str(data)]) == 3
        assert f"error: {data}:5: observation out of range" in capsys.readouterr().err

    def test_byte_order_mark_is_not_a_header(self, tmp_path, capsys):
        """A UTF-8 byte order mark is dropped: a numeric first row is kept, a
        text first row is still the header, and lines keep their numbers."""
        data = tmp_path / "bom.csv"
        data.write_bytes("\ufeff1.5\n2.5\n".encode())
        rows, skipped = load_csv_stream(str(data), 1)
        np.testing.assert_array_equal(rows.ravel(), [1.5, 2.5])
        assert skipped == []
        data.write_bytes("\ufeffx\n1.5\n2.5\n".encode())
        rows, skipped = load_csv_stream(str(data), 1)
        np.testing.assert_array_equal(rows.ravel(), [1.5, 2.5])
        assert skipped == [1]
        data.write_bytes("\ufeff0.5,1\n2,3\n".encode())
        rows, skipped = load_csv_stream(str(data), 2)
        np.testing.assert_array_equal(rows, [[0.5, 1.0], [2.0, 3.0]])
        assert skipped == []
        doc = self.detect_doc(tmp_path, mixing={"kind": "atoms", "atoms": [[2.0]]})
        path = write_config(tmp_path, doc)
        data.write_bytes("\ufeff0.0\n\n-1e308\n".encode())
        assert main(["detect", path, str(data)]) == 3
        assert f"error: {data}:3: observation out of range" in capsys.readouterr().err
        data.write_bytes("\ufeff3.0\n".encode())  # increment 4 > log A: the one row alarms
        assert main(["detect", path, str(data)]) == 0
        assert capsys.readouterr().out.strip() == "alarm at n = 1"

    @pytest.mark.parametrize("chunk", [1, 3, CSV_CHUNK])
    @pytest.mark.parametrize(
        "content,error",
        [
            (b"x\n1.0\n\xe9\n", "3: not valid UTF-8 text"),
            (b"x\r1.0\r\n\r2.5\xe9\r", "4: not valid UTF-8 text"),
            (b"\xef\xbb\xbf1.0\n\n\xff2.0\n", "3: not valid UTF-8 text"),
            (b"1.0\n" * 9000 + b"2.0\xc3\n", "9001: not valid UTF-8 text"),
            (b"x\n1.0\nzz\n\xe9\n", "3: malformed CSV row 'zz'"),
            (b"x\n1.0\nz\xe9\n", "3: not valid UTF-8 text"),
            (b"\xe9x\n1.0\n", "1: not valid UTF-8 text"),
            # the text reader decodes ahead, so the bad byte is met before line 12
            (b"x\n" + b"1.0\n" * 10 + b"1e999\n" + b"1.0\n" * 5000 + b"\xe9\n",
             "12: non-finite value in row '1e999'"),
        ],
    )
    def test_not_utf8_names_line(self, tmp_path, capsys, monkeypatch, content, error, chunk):
        """A byte that is not UTF-8 exits 3 naming its physical line, unless a
        line before it fails first; neither depends on the chunk size."""
        import mixdetect.cli as cli

        monkeypatch.setattr(cli, "CSV_CHUNK", chunk)
        path = write_config(tmp_path, self.detect_doc(tmp_path))
        data = tmp_path / "latin1.csv"
        data.write_bytes(content)
        for argv in (["detect", path, str(data)], ["detect", path, str(data), "--multicyclic"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err == f"error: {data}:{error}\n"
        assert not (tmp_path / "alarms.csv").exists()

    # an overflow at row 3, after a header and before a blank line: line 5
    OVERFLOW_AT_LINE_5 = "x\n0.1\n0.2\n\n1.7e308\n0.3\n"

    def overflow_config(self, tmp_path):
        return write_config(
            tmp_path, self.detect_doc(tmp_path, mixing={"kind": "atoms", "atoms": [[2.0]]})
        )

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_piped_stream_names_line(self, tmp_path):
        """A pipe can be read only once: the line comes from that one read."""
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "mixdetect.cli", "detect", self.overflow_config(tmp_path),
             "/dev/stdin", "--multicyclic"],
            input=self.OVERFLOW_AT_LINE_5,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error: /dev/stdin:5: observation out of range, its LLR increments overflow\n"
        )

    def test_growing_file_names_line_of_the_read(self, tmp_path, capsys, monkeypatch):
        """Lines appended after the load do not move the line of the failing row."""
        data = tmp_path / "d.csv"
        data.write_text(self.OVERFLOW_AT_LINE_5)
        run = cli._multicyclic_with_tail

        def append_then_run(*args, **kwargs):
            with open(data, "a") as fh:
                fh.write("0.4\n0.5\n")
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "_multicyclic_with_tail", append_then_run)
        assert main(["detect", self.overflow_config(tmp_path), str(data)]) == 3
        assert capsys.readouterr().err == (
            f"error: {data}:5: observation out of range, its LLR increments overflow\n"
        )

    @pytest.mark.parametrize(
        "text,code", [(OVERFLOW_AT_LINE_5, 3), ("x\n0.1\n\n0.2\n", 0)], ids=["fails", "succeeds"]
    )
    def test_data_file_opened_once(self, tmp_path, monkeypatch, text, code):
        """detect opens its data file once, whether it fails or not."""
        import builtins

        data = tmp_path / "d.csv"
        data.write_text(text)
        path = self.overflow_config(tmp_path)
        opened = []
        builtin_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["detect", path, str(data)]) == code
        assert opened.count(str(data)) == 1


# ---------------------------------------------------------------------------
# The chunked CSV loader against the per-line loader it replaced.
# ---------------------------------------------------------------------------


def _per_line_load_csv_stream(path: str, dimension: int) -> tuple[np.ndarray, list[int]]:
    """The loader that parsed every line on its own, kept as the reference,
    with the file line of each row."""
    rows, lines = [], []
    header = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                if not rows and not header:  # the first non-blank line
                    header = True
                    continue
                raise RuntimeError(f"{path}:{lineno}: malformed CSV row {line!r}")
            if len(vals) != dimension:
                raise RuntimeError(
                    f"{path}:{lineno}: expected {dimension} columns, got {len(vals)}"
                )
            if not all(math.isfinite(v) for v in vals):
                raise RuntimeError(f"{path}:{lineno}: non-finite value in row {line!r}")
            rows.append(vals)
            lines.append(lineno)
    return np.array(rows, dtype=float).reshape(-1, dimension), lines


_CSV_PAD = st.sampled_from(["", "", " ", "\t", "  ", "\x0c"])
_CSV_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1_0", "-0.0", "+3", ".5", "5.", "1E5", "1e-320", "infinity"]),
)
_CSV_BAD = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "x", "", "1__0", "0x10"])


@st.composite
def _csv_field(draw, bad: bool = False):
    value = draw(_CSV_BAD if bad else _CSV_NUMBER)
    return draw(_CSV_PAD) + value + draw(_CSV_PAD)


@st.composite
def _csv_line(draw, dimension: int):
    """One line: mostly good rows, so that whole chunks take the fast pass."""
    kind = draw(st.integers(0, 15))
    if kind <= 8:
        return ",".join(draw(_csv_field()) for _ in range(dimension))
    if kind == 9:
        return draw(st.sampled_from(["", " ", "\t \t", "\x0c"]))
    if kind == 10:
        return draw(st.sampled_from(["x", "value", "a,b,c", "x,1", "1,x"]))
    if kind == 11:  # one bad field
        fields = [draw(_csv_field()) for _ in range(dimension)]
        fields[draw(st.integers(0, dimension - 1))] = draw(_csv_field(bad=True))
        return ",".join(fields)
    if kind == 12:  # a wrong width
        width = draw(st.integers(1, 4).filter(lambda w: w != dimension))
        return ",".join(draw(_csv_field()) for _ in range(width))
    if kind == 13:  # a trailing comma
        return ",".join(draw(_csv_field()) for _ in range(dimension)) + ","
    return ",".join(draw(_csv_field()) for _ in range(dimension)) + draw(_CSV_PAD)


@st.composite
def _csv_text(draw):
    dimension = draw(st.sampled_from([1, 3]))
    lines = draw(st.lists(_csv_line(dimension), max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line end after the last line
    return dimension, text


@settings(max_examples=300, deadline=None)
@given(case=_csv_text(), chunk=st.integers(1, 5))
@example(case=(1, "x\n1\n\n2\n3\n4\n"), chunk=4)  # a header and a blank line in chunk 1
@example(case=(1, "\n\n\n\nx\n1\n2\n"), chunk=4)  # the header opens chunk 2
@example(case=(1, "1\n2\n3\n\n\n\n\n\n4\n"), chunk=4)  # a chunk of blank lines only
@example(case=(1, "1\n2\n3\n4\ny\n"), chunk=4)  # errors after a chunk of the fast pass
@example(case=(1, "1\n2\n3\n4\nnan\n"), chunk=4)
@example(case=(3, "1,2,3\n4,5,6\n1,2\n"), chunk=2)
def test_chunked_loader_matches_per_line_loader(case, chunk):
    """Chunks of 1 to 5 lines put headers, blank lines and errors on chunk
    edges; the loader returns the reference's bits or raises its message, and
    detect's walk over the skipped lines gives each row the reference's line."""
    import tempfile

    import mixdetect.cli as cli

    dimension, text = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_CHUNK", chunk)
        path = os.path.join(tmp, "s.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            want, want_lines = _per_line_load_csv_stream(path, dimension)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError) as got:
                load_csv_stream(path, dimension)
            assert str(got.value) == str(exc)
            return
        got, skipped = load_csv_stream(path, dimension)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert skipped == sorted(set(skipped))
    for row, want_line in enumerate(want_lines, start=1):
        line = row  # the walk in cmd_detect
        for s in skipped:
            line += s <= line
        assert line == want_line


# ---------------------------------------------------------------------------
# Block-stepped detect: CSV, in-process and a per-row reference agree bit for bit.
# ---------------------------------------------------------------------------

# (model section, mixing atoms) for detect configs
AGREE_MODELS = {
    "gaussian": ({"kind": "gaussian_iid"}, [[0.5], [1.0], [2.0]]),
    "ar": (
        {
            "kind": "multichannel_ar",
            "ar_coeffs": [[0.5, -0.2], [0.3, 0.1]],
            "signals": [
                {"amplitude": 1.0, "omega": 0.3, "phase": 0.0},
                {"amplitude": 0.8, "omega": 0.0, "phase": math.pi / 2},
            ],
        },
        [[0.5, 0.5], [1.0, 0.5], [0.5, 1.0]],
    ),
    # asymmetric transitions: the forward filter carries state across rows
    "hmm": (
        {"kind": "hmm2", "theta0": [0.0, 1.0], "beta": 0.2, "gamma": 0.4},
        [[0.5, 2.0], [1.0, 2.5]],
    ),
}
# a shift of 3, times the model's own signal for AR, makes every increment
# positive, so the statistic of a cycle rises at every row and a threshold
# taken from it fixes where the cycle ends
AGREE_SHIFT = 3.0
AGREE_DETECTORS = {
    "ms": {"kind": "ms"},
    "msr": {"kind": "msr", "omega": 0.5},
}


def _agree_experiment(tmp, model_name, detector, log_a):
    model, atoms = AGREE_MODELS[model_name]
    doc = base_config(
        model=model,
        prior={"kind": "geometric", "rho": 0.05, "q": 0.1 if detector == "ms" else 0.0},
        mixing={"kind": "atoms", "atoms": atoms},
        detector=AGREE_DETECTORS[detector],
        calibration={"kind": "fixed", "log_threshold": log_a},
        output={"alarms": str(tmp / "alarms.csv"), "trajectory": str(tmp / "traj.csv")},
    )
    return write_config(tmp, doc)


def _agree_stream(exp, model_name, rows, noise, seed):
    """A shifted stream of ``rows`` rows, plus noise of the given scale."""
    if model_name == "ar":
        base = AGREE_SHIFT * exp.model.spec.signal_matrix(rows)
    else:
        base = np.full((rows, 1), AGREE_SHIFT)
    return base + noise * np.random.default_rng(seed).standard_normal(base.shape)


def _per_row_reference(exp, data, log_a):
    """Alarms, statistics at stop and trajectory rows of a multicyclic run, by
    one ``model.step`` and one ``ms_update``/``msr_update`` per row."""
    from mixdetect.detectors import MsrState, MsState, ms_update, msr_update

    def fresh():
        if exp.detector == "ms":
            return MsState(prior=exp.prior, grid=exp.grid)
        return MsrState(grid=exp.grid, omega=exp.omega)

    update = ms_update if exp.detector == "ms" else msr_update
    scorer = exp.model.increment_state(1)
    state, alarms, stats, traj = fresh(), [], [], []
    for n, row in enumerate(data, start=1):
        update(state, exp.model.step(scorer, row, n - 1))
        crossed = state.log_stat >= log_a
        traj.append((n, state.log_stat, int(crossed)))
        if crossed:
            alarms.append(n)
            stats.append(state.log_stat)
            state = fresh()
    return alarms, stats, traj


def _check_block_agreement(tmp, model_name, detector, data, log_a):
    """Runs CSV ``detect --multicyclic --trajectory``, ``multicyclic_run`` and
    ``run_detector`` and compares them with the per-row reference; returns
    the reference alarms."""
    import csv

    path = _agree_experiment(tmp, model_name, detector, log_a)
    exp = load_experiment(path)
    alarms, stats, traj = _per_row_reference(exp, data, log_a)

    csv_path = tmp / "stream.csv"
    csv_path.write_text("x\n" + "".join(",".join(map(repr, r)) + "\n" for r in data.tolist()))
    assert main(["detect", path, str(csv_path), "--multicyclic", "--trajectory"]) == 0
    got = (tmp / "alarms.csv").read_text().split()
    assert got == ["alarm_time"] + [str(a) for a in alarms]
    want = tmp / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "log_stat", "crossed"])
        w.writerows((n, repr(s), c) for n, s, c in traj)
    assert (tmp / "traj.csv").read_bytes() == want.read_bytes()

    args = (exp.detector, exp.model, exp.prior, log_a)
    records = multicyclic_run(*args, data, omega=exp.omega, record_trajectory=True)
    assert [r.stop_time for r in records] == alarms
    np.testing.assert_array_equal(
        np.array([r.log_stat_at_stop for r in records]).view(np.uint64),
        np.array(stats).view(np.uint64),
    )
    traj = np.array(traj, dtype=float)
    for r, lo, hi in zip(records, [0] + alarms, alarms):
        np.testing.assert_array_equal(r.trajectory.view(np.uint64), traj[lo:hi].view(np.uint64))

    single = run_detector(*args, data, omega=exp.omega)
    if alarms:
        assert single.stop_time == alarms[0] and single.log_stat_at_stop == stats[0]
    else:
        assert single.censored and single.log_stat_at_stop == traj[-1, 1]
    return alarms


@pytest.mark.parametrize("cycle", [1, 3, 30, 64, 65])
@pytest.mark.parametrize("detector", sorted(AGREE_DETECTORS))
@pytest.mark.parametrize("model_name", sorted(AGREE_MODELS))
def test_block_detect_restarts_where_designed(tmp_path, model_name, detector, cycle):
    """Noise-free shifted streams of 130 rows.  The threshold is the statistic
    a first cycle reaches at row ``cycle``, so the first alarm, and every
    restart for the Gaussian model, falls where the block position is known:
    cycles of 1 and 3 restart at every position, 64 on a block's last row, 65
    on a block's first row (then mid-block at 130), 30 mid-block."""
    path = _agree_experiment(tmp_path, model_name, detector, 1e6)
    exp = load_experiment(path)
    data = _agree_stream(exp, model_name, 130, 0.0, 0)
    _, _, traj = _per_row_reference(exp, data, 1e6)
    log_a = traj[cycle - 1][1]
    alarms = _check_block_agreement(tmp_path, model_name, detector, data, log_a)
    assert alarms[0] == cycle
    if model_name == "gaussian":
        assert alarms == list(range(cycle, 131, cycle))


@settings(max_examples=40, deadline=None)
@given(
    model_name=st.sampled_from(sorted(AGREE_MODELS)),
    detector=st.sampled_from(sorted(AGREE_DETECTORS)),
    rows=st.sampled_from([1, 63, 64, 65, 130]),
    noise=st.sampled_from([0.0, 0.5, 3.0]),
    seed=st.integers(0, 2**16),
    at=st.floats(0.0, 1.0),
)
def test_block_detect_matches_per_row_reference(model_name, detector, rows, noise, seed, at):
    """Random streams; the threshold is a value the first cycle reaches, at a
    row drawn from the whole stream, so ties stop and restarts fall anywhere."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        exp = load_experiment(_agree_experiment(tmp, model_name, detector, 1e6))
        data = _agree_stream(exp, model_name, rows, noise, seed)
        _, _, traj = _per_row_reference(exp, data, 1e6)
        log_a = traj[min(int(at * rows), rows - 1)][1]
        _check_block_agreement(tmp, model_name, detector, data, log_a)


class TestShiftScenario:
    """A mean shift at row 500 with a prior matched to that timescale."""

    def setup_experiment(self):
        prior = geometric_prior(0.002)  # mean 499
        model = gaussian_iid_model(grid_from_atoms([[0.5], [1.0], [1.5]]))
        threshold = msr_threshold(0.01, 0.0, prior)
        return prior, model, threshold

    def test_alarm_after_shift_in_99_percent_of_seeds(self):
        prior, model, threshold = self.setup_experiment()
        cfg = ExperimentConfig(
            model=model,
            prior=prior,
            detector="msr",
            omega=0.0,
            log_threshold=threshold.log_threshold,
            trials=200,
            horizon=700,
            master_seed=606,
        )
        td = run_trials(cfg, TrialSpec(nu=500, theta=(1.0,), stream_tag=1))
        assert int((td.stop_times == 0).sum()) == 0  # nothing censored
        frac_after = float((td.stop_times >= 501).mean())
        assert frac_after >= 0.99

    def test_cli_run_on_one_seed(self, tmp_path):
        prior, model, threshold = self.setup_experiment()
        doc = base_config(
            prior={"kind": "geometric", "rho": 0.002, "q": 0.0},
            detector={"kind": "msr", "omega": 0.0},
            calibration={"kind": "msr-pfa", "alpha": 0.01},
            output={"alarms": str(tmp_path / "alarms.csv")},
        )
        path = write_config(tmp_path, doc)
        rng = np.random.default_rng(2024)
        stream = rng.standard_normal(700)
        stream[500:] += 1.0
        data = tmp_path / "shift.csv"
        data.write_text("".join(f"{float(v)!r}\n" for v in stream))
        assert main(["detect", path, str(data)]) == 0
        alarm = int((tmp_path / "alarms.csv").read_text().strip().splitlines()[1])
        assert alarm >= 501


# ---------------------------------------------------------------------------
# simulate outputs pinned byte for byte: every quantity, an off-grid theta
# (the robustness-probe note) and a model without an information number
# (asymmetric HMM: every prediction is None or NaN).
# ---------------------------------------------------------------------------

PINNED_SIMULATE = {
    "gaussian-ms-bayes": base_config(
        calibration={"kind": "bayes-cost", "c": 0.01, "r": 1},
        montecarlo={
            "trials": 300,
            "horizon": 200,
            "seed": 5,
            "scenarios": [
                {"name": "pfa", "quantity": "pfa_tail"},
                {"quantity": "pfa_posterior"},
                {
                    "name": "delay_off_grid",
                    "quantity": "delay",
                    "change_point": 5,
                    "theta": [1.2],
                    "moments": [1, 2],
                },
                {"name": "average", "quantity": "average_delay", "theta": 2, "moment": 1.5},
                {"name": "risk", "quantity": "integrated_risk"},
                {
                    "name": "ladder",
                    "quantity": "delay_ladder",
                    "change_point": 0,
                    "theta": 1,
                    "log_thresholds": [3, 4, 5, 6],
                },
            ],
        },
        output={"report": "report.json", "ladder_dir": "ladders"},
    ),
    "hmm-asymmetric-msr": base_config(
        model={"kind": "hmm2", "theta0": [0.0, 1.0], "beta": 0.3, "gamma": 0.6},
        prior={"kind": "geometric", "rho": 0.05, "q": 0.0},
        mixing={"kind": "atoms", "atoms": [[0.5, 1.5], [1.0, 2.0]]},
        detector={"kind": "msr", "omega": 0.0},
        calibration={"kind": "fixed", "log_threshold": 5.0},
        montecarlo={
            "trials": 100,
            "horizon": 300,
            "seed": 9,
            "scenarios": [
                {"quantity": "delay", "change_point": 10, "theta": 1, "moments": [1]},
                {"quantity": "delay_ladder", "theta": [1.0, 2.0], "log_thresholds": [3, 4, 5, 6]},
            ],
        },
        output={"report": "report.json"},
    ),
}

PINNED_SIMULATE_DIGESTS = {
    "gaussian-ms-bayes": {
        "ladders/ladder.csv": "cb00cdb8b13f4a5c80477d97a652200026dd067c0511afb58ea785030e3dde67",
        "report.json": "3d862948fc99b05f3231c85dfa9a612ab333d301644430a49e7ea56d817f6c3f",
        "stdout": "66d2dbd4231d58072c705cf62fb6dba3fc9a748b805542dac22a215e829261f3",
    },
    "hmm-asymmetric-msr": {
        "delay_ladder_1.csv": "b99ec98709187895ab14eafc665fbf09163bf70a486fdc453fb2954def6819bb",
        "report.json": "eed840426d203f5b94f78222480d8908933b7c41734ee7ddcea7038d84ea0da0",
        "stdout": "f51ab5505fad6e3bd773595f94b30d34833825b2bf048078a864ddb922cdba22",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_SIMULATE))
def test_simulate_outputs_pinned(tmp_path, monkeypatch, capsys, name):
    """SHA-256 of stdout and of every file simulate writes, run from the work dir."""
    import hashlib

    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, PINNED_SIMULATE[name], name="config.json")
    assert main(["simulate", config]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and path.name != "config.json":
            got[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    assert got == PINNED_SIMULATE_DIGESTS[name]


def test_simulate_with_a_two_word_seed_pinned(tmp_path, monkeypatch, capsys):
    """``configs/pfa_bounds.json`` cut to 600 trials, with a seed of two
    SeedSequence words, writes the same report and stdout as the per-trial
    SeedSequence seeding did."""
    import hashlib

    monkeypatch.chdir(tmp_path)
    doc = json.loads((ROOT / "configs" / "pfa_bounds.json").read_text())
    doc["montecarlo"].update(trials=600, seed=2**40 + 7)
    doc["output"] = {"report": "report.json"}
    assert main(["simulate", write_config(tmp_path, doc, name="config.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "25c4f278eecf73a665cd7001e2877096b820957df29501ff68d599d03d144dfc"
    )
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == (
        "07ad356a92a3ff100e52a9747df14a9fdd0401c011c96d3da1099c5a00b039be"
    )


def test_report_records_are_their_dataclass_fields(tmp_path, monkeypatch):
    """Each record of a pinned report has its dataclass's field names as keys:
    estimates, predictions, the threshold (plus the A it implies) and the
    ladder's line fit."""
    from dataclasses import fields

    from mixdetect.calibration import ThresholdSpec
    from mixdetect.montecarlo import Estimate, SlopeFit
    from mixdetect.theory import Prediction

    def names(cls):
        return {f.name for f in fields(cls)}

    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, PINNED_SIMULATE["gaussian-ms-bayes"], name="config.json")
    assert main(["simulate", config]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["threshold"]) == names(ThresholdSpec) | {"threshold"}
    rows = report["scenarios"]
    cells = [row for row in rows if "estimate" in row]
    cells += [cell for row in rows for cell in row.get("moments", {}).values()]
    assert len(cells) == 6  # pfa, pfa_posterior, two delay moments, average, risk
    for cell in cells:
        assert set(cell["estimate"]) == names(Estimate)
        if cell.get("prediction") is not None:
            assert set(cell["prediction"]) == names(Prediction)
    assert sum(cell.get("prediction") is not None for cell in cells) == 4
    (ladder,) = [row for row in rows if "ladder" in row]
    derived = {"name", "quantity", "ladder", "prediction_slope", "slope_ratio"}
    assert set(ladder) == derived | names(SlopeFit)


@pytest.mark.parametrize(
    "workload", ["gauss_pfa", "ar_no_change", "hmm_late_change", "ar_stream_detect"]
)
def test_benchmark_reference_digests(tmp_path, monkeypatch, workload):
    """The benchmark's workloads at seed 1, full size, write the bytes whose
    SHA-256 perfbench/reference.json records: the simulate reports, and the
    alarms and trajectory of the 100 000-row streaming ``detect``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delenv("MIXDETECT_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    import workloads

    inputs = getattr(workloads, f"prepare_{workload}")(str(ROOT), str(tmp_path), 1, False)
    assert main(inputs.argv) == 0
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    want = reference["workloads"][workload]["output_sha256"]["1"]
    assert workloads.output_digest(str(tmp_path), inputs) == want


def _tracer_patches():
    """(owner, attribute) for every name perfbench/tracer.py's install wraps."""
    import importlib.util

    from mixdetect import cli

    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = []

    class Recorder(tracer.Tracer):
        def patch(self, owner, attr, name, on_result=None):
            patched.append((owner, attr))

    tracer.install(Recorder(), cli)
    return patched


def test_benchmark_hook_points_cli(tmp_path, monkeypatch):
    """The tracer wraps cli's names with setattr; simulate and calibrate must call
    them through the module globals, so a wrapped name sees every call made
    while it runs."""
    from mixdetect import cli

    patched = _tracer_patches()
    for owner, attr in patched:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    cli_names = {attr for owner, attr in patched if owner is cli}
    assert {"estimate_delay_moments", "info_number", "load_experiment"} <= cli_names

    called = set()

    def wrap(attr):
        real = getattr(cli, attr)

        def counting(*args, **kwargs):
            called.add(attr)
            return real(*args, **kwargs)

        return counting

    for attr in cli_names - {"main"}:
        monkeypatch.setattr(cli, attr, wrap(attr))
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, PINNED_SIMULATE["gaussian-ms-bayes"], name="config.json")
    assert cli.main(["simulate", config]) == 0
    calibrations = {
        "ms-pfa": base_config(),
        "msr-pfa": base_config(
            detector={"kind": "msr"}, calibration={"kind": "msr-pfa", "alpha": 0.01}
        ),
        "fixed": base_config(calibration={"kind": "fixed", "log_threshold": 3.0}),
    }
    for name, doc in calibrations.items():
        assert cli.main(["calibrate", write_config(tmp_path, doc, name=f"{name}.json")]) == 0
    assert called >= {
        "load_experiment",
        "ms_threshold",
        "msr_threshold",
        "fixed_threshold",
        "bayes_threshold",
        "d_constant",
        "estimate_pfa_tail",
        "estimate_pfa_posterior",
        "estimate_delay_moments",
        "estimate_average_delay_risk",
        "estimate_integrated_risk",
        "slope_regression",
        "info_number",
        "ms_delay_prediction",
        "integrated_risk_prediction",
    }
