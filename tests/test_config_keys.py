"""Config keys: error messages generated from the loader's declarations, and
README's key tables read back against them.

Every entry the loader reads declares its keys once (``cli._KINDS``,
``cli._QUANTITIES``, ``cli._KEYS``).  The tests here start from one valid
config per declared entry and derive the failing cases from the declaration,
so a kind, quantity or key added to a table is covered with no new test.
"""

import copy
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from mixdetect import cli
from mixdetect.cli import REQUIRED, load_experiment, main
from test_cli import _cli, write_config

ROOT = Path(__file__).resolve().parents[1]

BASE = {
    "model": {"kind": "gaussian_iid"},
    "prior": {"kind": "geometric", "rho": 0.1, "q": 0.0},
    "mixing": {"kind": "uniform_grid", "lower": [0.5], "upper": [1.5], "counts": [3]},
    "detector": {"kind": "msr", "omega": 0.0},
    "calibration": {"kind": "fixed", "log_threshold": 3.0},
    "montecarlo": {
        "trials": 16, "horizon": 200, "seed": 1, "workers": 1,
        "scenarios": [
            {"name": "d", "quantity": "delay", "theta": 0, "change_point": 0, "moments": [1]}
        ],
    },
    "output": {
        "report": "report.json", "ladder_dir": ".", "alarms": "alarms.csv",
        "trajectory": "trajectory.csv", "threshold_json": "threshold.json",
    },
}
MS = {"detector": {"kind": "ms", "omega": 0.0}}
MS_PFA = {**MS, "calibration": {"kind": "ms-pfa", "alpha": 0.05}}
BAYES = {**MS, "calibration": {"kind": "bayes-cost", "c": 0.01, "r": 1.0}}
AR = {
    "model": {
        "kind": "multichannel_ar", "ar_coeffs": [[0.5]],
        "signals": [{"amplitude": 1.0, "omega": 0.0, "phase": math.pi / 2}],
    }
}


def _scenario(scenario, **overrides):
    return {**overrides, "montecarlo": {**BASE["montecarlo"], "scenarios": [scenario]}}


# declared entry -> (the overrides of BASE that give it every key, the path to
# it in the config, the name errors give it)
EXAMPLES = {
    "config": ({}, (), "config"),
    "detector": ({}, ("detector",), "detector"),
    "montecarlo": ({}, ("montecarlo",), "montecarlo"),
    "output": ({}, ("output",), "output"),
    "model.signals[i]": (AR, ("model", "signals", 0), "model.signals[0]"),
    "prior/geometric": ({}, ("prior",), "prior"),
    "prior/heavy_tail": (
        {"prior": {"kind": "heavy_tail", "c_exponent": 3.0, "q": 0.0}}, ("prior",), "prior"
    ),
    "prior/point_mass": ({"prior": {"kind": "point_mass", "k0": 0}}, ("prior",), "prior"),
    "mixing/uniform_grid": ({}, ("mixing",), "mixing"),
    "mixing/atoms": (
        {"mixing": {"kind": "atoms", "atoms": [[0.5], [1.0]], "weights": [0.5, 0.5]}},
        ("mixing",),
        "mixing",
    ),
    "model/gaussian_iid": ({}, ("model",), "model"),
    "model/multichannel_ar": (AR, ("model",), "model"),
    "model/hmm2": (
        {
            "model": {"kind": "hmm2", "theta0": [0.0, 1.0], "beta": 0.2, "gamma": 0.4},
            "mixing": {"kind": "atoms", "atoms": [[0.8, 1.8]]},
        },
        ("model",),
        "model",
    ),
    "calibration/ms-pfa": (MS_PFA, ("calibration",), "calibration"),
    "calibration/msr-pfa": (
        {"calibration": {"kind": "msr-pfa", "alpha": 0.05}}, ("calibration",), "calibration"
    ),
    "calibration/bayes-cost": (BAYES, ("calibration",), "calibration"),
    "calibration/fixed": ({}, ("calibration",), "calibration"),
    **{
        f"scenario/{scenario['quantity']}": (
            _scenario(scenario, **overrides),
            ("montecarlo", "scenarios", 0),
            "montecarlo.scenarios[0]",
        )
        for scenario, overrides in [
            ({"name": "s", "quantity": "pfa_tail"}, {}),
            ({"name": "s", "quantity": "pfa_posterior"}, MS_PFA),
            ({"name": "s", "quantity": "delay", "theta": 0, "change_point": 0, "moments": [1]}, {}),
            ({"name": "s", "quantity": "average_delay", "theta": 0, "moment": 1}, {}),
            ({"name": "s", "quantity": "integrated_risk"}, BAYES),
            (
                {
                    "name": "s", "quantity": "delay_ladder", "theta": 0, "change_point": 0,
                    "log_thresholds": [1.0, 2.0, 3.0, 4.0],
                },
                {},
            ),
        ]
    },
}


def _declarations() -> dict:
    """Every declared entry -> its declaration, the selecting key included."""
    found = dict(cli._KEYS)
    for section, kinds in cli._KINDS.items():
        for kind, (keys, _) in kinds.items():
            found[f"{section}/{kind}"] = {"kind": REQUIRED, **keys}
    for quantity, (keys, _) in cli._QUANTITIES.items():
        found[f"scenario/{quantity}"] = {"quantity": REQUIRED, **keys}
    return found


DECLARATIONS = _declarations()


def _example(entry: str):
    """(a valid config holding ``entry`` with all its keys, the entry's parent
    and its key or index there, or None for the top level)."""
    overrides, path, _ = EXAMPLES[entry]
    doc = copy.deepcopy({**BASE, **overrides})
    if not path:
        return doc, None, None
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    return doc, parent, path[-1]


def test_every_declared_entry_has_a_valid_example(tmp_path):
    assert set(EXAMPLES) == set(DECLARATIONS)
    for entry, keys in DECLARATIONS.items():
        doc, parent, step = _example(entry)
        obj = doc if parent is None else parent[step]
        assert set(obj) == set(keys), entry  # every declared key, no other
        load_experiment(write_config(tmp_path, doc))


def _cases():
    for entry, keys in DECLARATIONS.items():
        where = EXAMPLES[entry][2]
        for key, default in keys.items():
            if default is REQUIRED:
                yield pytest.param(
                    entry, "drop", key, f"{where}.{key}: missing required key",
                    id=f"{entry}-drop-{key}",
                )
        yield pytest.param(
            entry, "add", "unexpected", f"{where}.unexpected: unknown key", id=f"{entry}-add"
        )
        yield pytest.param(entry, "list", None, f"{where}: expected an object", id=f"{entry}-list")


@pytest.mark.parametrize("entry,change,key,message", list(_cases()))
def test_declared_entry_error(tmp_path, monkeypatch, capsys, entry, change, key, message):
    """Dropping a required key, adding an unknown one or giving a list for
    the entry each exits 2 with the message that names the entry's field."""
    monkeypatch.chdir(tmp_path)
    doc, parent, step = _example(entry)
    obj = doc if parent is None else parent[step]
    if change == "drop":
        del obj[key]
    elif change == "add":
        obj[key] = 1
    elif parent is None:
        doc = [doc]
    else:
        parent[step] = [obj]
    assert main(["calibrate", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# ---------------------------------------------------------------------------
# README's key tables
# ---------------------------------------------------------------------------

_CODE = re.compile(r"`([^`]+)`")
_OPTIONAL = re.compile(r"`(\w+)`(?: \(([^()]*)\))?")


def _table(header: str) -> list[list[str]]:
    """The body rows of the README table whose header row is ``header``, as cells."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index(header) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _row_keys(required: str, optional: str) -> dict:
    """The declaration a row shows: required keys, then optional keys with
    their JSON defaults in parentheses (None where a key has none)."""
    keys = {key: REQUIRED for key in _CODE.findall(required)}
    for key, default in _OPTIONAL.findall(optional):
        keys[key] = json.loads(default) if default else None
    return keys


def _readme_declarations() -> dict:
    found = {}

    def add(entry, keys):
        assert entry not in found, f"README has two rows for {entry}"
        found[entry] = keys

    header = "| entry | required keys | optional keys (default) |"
    for entry, required, optional in _table(header):
        add(_CODE.findall(entry)[0], _row_keys(required, optional))
    header = "| section | kind | required keys | optional keys (default) | values |"
    for section, kind, required, optional, _ in _table(header):
        name = f"{_CODE.findall(section)[0]}/{_CODE.findall(kind)[0]}"
        add(name, {"kind": REQUIRED, **_row_keys(required, optional)})
    header = "| quantity | required keys | optional keys (default) | report fields | stream tag |"
    for quantity, required, optional, *_ in _table(header):
        name = f"scenario/{_CODE.findall(quantity)[0]}"
        add(name, {"quantity": REQUIRED, **_row_keys(required, optional)})
    return found


def test_readme_key_tables_match_the_declarations():
    """Each README row shows its entry's keys and defaults, and every declared
    entry has a row.  Defaults compare as values: README's 0 is the 0.0 declared."""
    readme = _readme_declarations()
    assert sorted(readme) == sorted(DECLARATIONS)
    for entry, keys in DECLARATIONS.items():
        assert readme[entry] == keys, entry


# ---------------------------------------------------------------------------
# Messages that read otherwise before, and the refusals beside them
# ---------------------------------------------------------------------------


def _with_scenario(scenario):
    doc = copy.deepcopy(BASE)
    doc["montecarlo"]["scenarios"].append(scenario)
    return doc


@pytest.mark.parametrize(
    "scenario,message",
    [
        (
            {"quantity": "delay", "theta": None},
            "montecarlo.scenarios[1].theta: expected an atom index or a vector",
        ),
        (
            {"quantity": "delay", "theta": 0, "moments": [1, 1.0, 2]},
            "montecarlo.scenarios[1].moments[1]: duplicate moment 1",
        ),
        (
            {"quantity": "delay", "theta": 0, "moments": [2, 1, 1.0000001]},
            "montecarlo.scenarios[1].moments[2]: duplicate moment 1",
        ),
        (
            {"quantity": "delay", "theta": 0, "moments": [0.5, 0.5]},
            "montecarlo.scenarios[1].moments[0]: must be >= 1",
        ),
    ],
    ids=["theta_null", "moment_repeated", "moments_alike_in_the_report", "below_one_first"],
)
def test_scenario_refused_at_load(tmp_path, monkeypatch, capsys, scenario, message):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, _with_scenario(scenario))
    for command in ("calibrate", "simulate"):
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "report.json").exists()


def test_distinct_moments_each_get_a_row(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = _with_scenario({"name": "m", "quantity": "delay", "theta": 0, "moments": [1, 1.5, 2]})
    doc["montecarlo"]["scenarios"] = doc["montecarlo"]["scenarios"][1:]
    assert main(["simulate", write_config(tmp_path, doc)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report["scenarios"][0]["moments"]) == ["1", "1.5", "2"]


@pytest.mark.parametrize(
    "signal,zero",
    [
        ({}, True),
        ({"amplitude": 0, "omega": 0.3}, True),
        ({"omega": 0.3}, False),
        ({"phase": math.pi / 2}, False),
        ({"omega": math.pi}, True),
        ({"phase": math.pi}, True),
        ({"omega": 2 * math.pi, "phase": 0}, True),
        ({"omega": 1e-3}, False),
        ({"omega": 1e-9}, False),
        ({"amplitude": 1e-300, "phase": math.pi / 2}, False),
    ],
    ids=[
        "defaults", "amplitude_0", "sine", "constant", "omega_pi", "phase_pi", "omega_2pi",
        "slow_sine", "slowest_sine", "tiny_constant",
    ],
)
def test_zero_signal_refused_at_load(tmp_path, monkeypatch, capsys, signal, zero):
    """A signal that is 0 at every step, as the defaults' sin(0) is, leaves no
    increment that depends on the data; a sine or the constant sin(pi/2) loads.
    sin(pi n) is 0 in exact arithmetic but about 1e-16 n in floats, and is
    refused too; a slow sine or a tiny constant is not."""
    monkeypatch.chdir(tmp_path)
    doc = copy.deepcopy({**BASE, **AR})
    doc["model"]["signals"] = [signal]
    assert main(["calibrate", write_config(tmp_path, doc)]) == (2 if zero else 0)
    message = "config error: model.signals[0]: the signal is zero at every step\n"
    assert capsys.readouterr().err == (message if zero else "")


@pytest.mark.parametrize(
    "signal,step",
    [
        ({"omega": 1e306}, 180),
        ({"amplitude": 0, "omega": 1e306}, 180),
        ({"omega": 1e300, "phase": 1.0}, None),
    ],
    ids=["omega_1e306", "amplitude_0_omega_1e306", "omega_1e300"],
)
def test_non_finite_signal_refused_at_load(tmp_path, monkeypatch, capsys, signal, step):
    """omega * n overflows to inf for a large enough omega, and sin(inf) is NaN:
    such a signal is refused at its first non-finite step, before the zero
    rule and with no warning.  omega = 1e300 stays finite over the steps
    checked and loads."""
    monkeypatch.chdir(tmp_path)
    doc = copy.deepcopy({**BASE, **AR})
    doc["model"]["signals"] = [signal]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["calibrate", write_config(tmp_path, doc)])
    assert code == (0 if step is None else 2)
    message = f"config error: model.signals[0]: the signal is not finite at step {step}\n"
    assert capsys.readouterr().err == ("" if step is None else message)


def test_defaults_fill_an_entry_without_changing_the_echo(tmp_path):
    """A declared default reaches the run; the report's config echo stays the file."""
    doc = copy.deepcopy(BASE)
    del doc["detector"]["omega"], doc["montecarlo"]["workers"], doc["output"]["ladder_dir"]
    doc["montecarlo"]["scenarios"] = [{"quantity": "delay", "theta": 0}]
    exp = load_experiment(write_config(tmp_path, doc))
    assert (exp.omega, exp.run.workers, exp.output["ladder_dir"]) == (0.0, 1, ".")
    (sc,) = exp.scenarios
    assert (sc.name, sc.change_point, sc.moments) == ("delay_0", 0, (1.0,))
    assert exp.doc == doc


# ---------------------------------------------------------------------------
# The heavy-tail prior at c = 100, through the command line
# ---------------------------------------------------------------------------


def _heavy_tail_pfa_config():
    """configs/pfa_bounds.json with a c = 100 heavy-tail prior and its
    pfa_tail scenario only."""
    doc = json.loads((ROOT / "configs" / "pfa_bounds.json").read_text())
    doc["prior"] = {"kind": "heavy_tail", "c_exponent": 100}
    doc["montecarlo"]["scenarios"] = [{"name": "pfa_tail", "quantity": "pfa_tail"}]
    doc["output"] = {"report": "report.json"}
    return doc


def test_heavy_tail_c_100_config_loads(tmp_path):
    """Its tail at the horizon, 2000, is finite: the support does not end inside it."""
    exp = load_experiment(write_config(tmp_path, _heavy_tail_pfa_config()))
    assert exp.prior.name == "heavy_tail" and exp.run.horizon == 2000
    assert float(exp.prior.log_tail(2000)) == pytest.approx(-687.8440704, abs=1e-7)


@pytest.mark.parametrize(
    "command,doc",
    [
        ("simulate", _heavy_tail_pfa_config()),
        (
            "calibrate",
            {
                **BASE,
                "prior": {"kind": "heavy_tail", "c_exponent": 100},
                "calibration": {"kind": "msr-pfa", "alpha": 0.05},
            },
        ),
    ],
    ids=["simulate_pfa_tail", "calibrate_msr_pfa"],
)
def test_heavy_tail_c_100_runs_quietly(tmp_path, command, doc):
    """Exit 0 with nothing on stderr, in an interpreter where a warning is an
    error: the tail no longer underflows to a log of 0, nor the mean to 0."""
    proc = _cli(tmp_path, command, write_config(tmp_path, doc))
    assert (proc.returncode, proc.stderr) == (0, "")
