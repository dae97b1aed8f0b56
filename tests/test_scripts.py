"""Smoke tests: each example script runs at a tiny size and prints its header."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd):
    """Run a script in a new interpreter, and its children, with warnings as errors."""
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _pfa_bounds_copy(tmp_path, **montecarlo) -> str:
    """A copy of configs/pfa_bounds.json with some montecarlo values replaced."""
    doc = json.loads((ROOT / "configs" / "pfa_bounds.json").read_text())
    doc["montecarlo"].update(montecarlo)
    path = tmp_path / "pfa_bounds.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "script,budget,header",
    [
        (
            "false_alarm_bounds.py",
            {"trials": 64, "horizon": 200},
            "rule     alpha          A     tail est     post est  est/alpha",
        ),
    ],
    ids=["false_alarm_bounds"],
)
def test_script_prints_table(script, budget, header, tmp_path):
    proc = _run(script, _pfa_bounds_copy(tmp_path, **budget), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_streaming_demo(tmp_path):
    outdir = tmp_path / "demo"
    proc = _run(
        "streaming_demo.py", "--length", "300", "--change-at", "200", "--outdir", str(outdir),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stream of 300 rows, rate shift at row 200" in proc.stdout.splitlines()
    trajectory = (outdir / "trajectory.csv").read_text().splitlines()
    assert len(trajectory) == 1 + 300  # header plus one row per CSV row
    # the stream the demo drew with its own AR(1) recursion, for the default
    # seed 7 and shift 1.0: the library's sampler gives the same bits
    w = np.random.default_rng(7).standard_normal(300)
    rate = np.zeros(300)
    for n in range(300):
        rate[n] = (0.5 * rate[n - 1] if n else 0.0) + w[n]
    rate[200:] += 1.0
    np.savetxt(tmp_path / "reference.csv", rate, delimiter=",", header="rate", comments="")
    assert (outdir / "rate.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_false_alarm_bounds_refuses_a_short_horizon(tmp_path):
    """simulate's horizon check on the same setting: the prior tail past the
    horizon must be below 1% of the smallest alpha, here 0.01.  The config has
    no PFA scenario, so that its load does not refuse the horizon first."""
    delay = {"name": "delay", "quantity": "delay", "theta": 1}
    config = _pfa_bounds_copy(tmp_path, trials=64, horizon=20, scenarios=[delay])
    proc = _run("false_alarm_bounds.py", config, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: montecarlo.horizon: prior tail Pi(20) = ")
    assert proc.stderr.endswith(" is not below 0.01 * alpha = 1.000e-04; raise the horizon\n")


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("trials", 0, "must be >= 1"),
        ("horizon", 0, "must be >= 1"),
        ("seed", -1, "expected a non-negative integer"),
        ("workers", 0, "must be >= 1"),
    ],
    # the ids of the script options that once took these values
    ids=["--trials-0-1", "--horizon-0-1", "--seed--1-0", "--workers-0-1"],
)
def test_false_alarm_bounds_refuses_a_bad_budget(key, value, message, tmp_path, monkeypatch):
    """The script loads its config as simulate does, so it refuses the same
    values: it exits 2 and names the field before it runs anything."""
    monkeypatch.delenv("MIXDETECT_WORKERS", raising=False)
    proc = _run("false_alarm_bounds.py", _pfa_bounds_copy(tmp_path, **{key: value}), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"config error: montecarlo.{key}: {message}\n"
