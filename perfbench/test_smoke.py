"""Tests of the benchmark itself, on smoke-size inputs.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def smoke(workload: str, trace: int):
    proc = bench(
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
        "--size", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    text, result = smoke(workload, 0)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    assert all(v > 0 for v in values(result).values())
    # the human-readable lines also name the throughput trials_per_s or
    # rows_per_s, and give the failure share
    shown = "\n".join(text)
    for name in (*run.END_TO_END, WORKLOADS[workload].work_name, "failed_frac"):
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+\S+$", shown, re.M), name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_layers_account_for_wall(workload):
    runs = [values(smoke(workload, 1)[1]) for _ in range(2)]
    for v in runs:
        assert set(v) == set(run.PER_LAYER)
        layers = sum(v[m] for m in run.LAYER_TIMES)
        assert layers + v["trace.other_s"] == pytest.approx(v["trace.wall_s"], rel=1e-12)
        assert v["trace.other_s"] > 0.0  # interpreter start-up, outside every span
    assert {m: runs[0][m] for m in run.EXACT} == {m: runs[1][m] for m in run.EXACT}
    v = runs[0]
    if workload == "ar_stream_detect":
        assert v["models.step_calls"] == v["detectors.update_calls"] > 0
        assert v["detectors.alarms"] > 0
    else:
        assert v["engine.chunks"] > 0 and v["montecarlo.trials_simulated"] > 0
    # the workloads sit on both sides of an early-exit engine
    if workload == "gauss_pfa":
        assert v["engine.steps_used_frac"] < 0.05
    elif workload in ("ar_no_change", "hmm_late_change"):
        assert v["engine.steps_used_frac"] >= 0.9


def test_detect_check_rejects_wrong_alarms(tmp_path):
    inputs = workloads.prepare_ar_stream_detect(ROOT, str(tmp_path), 1, smoke=True)
    alarms, trajectory = (tmp_path / p for p in inputs.outputs)
    trajectory.write_text("n,log_stat,crossed\n" + "1,0.0,0\n" * inputs.work_units)
    right = inputs.expected_alarms
    assert right
    alarms.write_text("alarm_time\n" + "".join(f"{t}\n" for t in right))
    assert workloads.check_detect(str(tmp_path), inputs, {}) == []
    alarms.write_text("alarm_time\n" + "".join(f"{t + 1}\n" for t in right))
    assert workloads.check_detect(str(tmp_path), inputs, {}) != []


def test_simulate_check_rejects_pfa_above_bound_and_far_estimates(tmp_path):
    est = {"point": 0.02, "stderr": 0.001}
    report = {"scenarios": [{"name": "pfa_tail", "quantity": "pfa_tail", "estimate": est, "bound": 0.05}]}
    inputs = workloads.Inputs(argv=[], work_units=1, outputs=["r.json"], report="r.json")
    path = tmp_path / "r.json"
    reference = {"estimates": {"pfa_tail": [0.021, 0.001]}}
    path.write_text(json.dumps(report))
    assert workloads.check_simulate(str(tmp_path), inputs, reference) == []
    report["scenarios"][0]["bound"] = 0.01
    path.write_text(json.dumps(report))
    assert workloads.check_simulate(str(tmp_path), inputs, reference) != []
    report["scenarios"][0]["bound"] = 0.05
    est["point"] = 0.04
    path.write_text(json.dumps(report))
    assert workloads.check_simulate(str(tmp_path), inputs, reference) != []


def test_fails_without_a_result_where_there_are_no_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "gauss_pfa", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
