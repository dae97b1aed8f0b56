"""CLI: config validation, calibrate/simulate/detect behavior, reproducibility."""

import json
import math

import numpy as np
import pytest

from mixdetect._engine import TrialSpec
from mixdetect.calibration import msr_threshold
from mixdetect.cli import ConfigError, load_csv_stream, load_experiment, main
from mixdetect.detectors import multicyclic_run, run_detector
from mixdetect.measures import geometric_prior, grid_from_atoms
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
            "ms", exp.model, exp.prior, exp.grid, 2.0, stream.reshape(-1, 1)
        )
        assert cli_alarm == rec.stop_time

        assert main(["detect", path, str(data), "--multicyclic"]) == 0
        lines = (tmp_path / "alarms.csv").read_text().strip().splitlines()
        cli_alarms = [int(v) for v in lines[1:]]
        records = multicyclic_run(
            "ms", exp.model, exp.prior, exp.grid, 2.0, stream.reshape(-1, 1)
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

    def test_header_detection(self, tmp_path):
        data = tmp_path / "h.csv"
        data.write_text("value\n1.5\n2.5\n")
        rows = load_csv_stream(str(data), 1)
        np.testing.assert_allclose(rows.ravel(), [1.5, 2.5])


class TestShiftScenario:
    """A mean shift at row 500 with a prior matched to that timescale."""

    def setup_experiment(self):
        prior = geometric_prior(0.002)  # mean 499
        grid = grid_from_atoms([[0.5], [1.0], [1.5]])
        model = gaussian_iid_model(grid)
        threshold = msr_threshold(0.01, 0.0, prior)
        return prior, grid, model, threshold

    def test_alarm_after_shift_in_99_percent_of_seeds(self):
        prior, grid, model, threshold = self.setup_experiment()
        cfg = ExperimentConfig(
            model=model,
            prior=prior,
            grid=grid,
            detector="msr",
            omega=0.0,
            log_threshold=threshold.log_threshold,
            trials=200,
            horizon=700,
            master_seed=606,
        )
        td = run_trials(cfg, TrialSpec(mode="fixed", nu=500, theta=(1.0,), stream_tag=1))
        assert int((td.stop_times == 0).sum()) == 0  # nothing censored
        frac_after = float((td.stop_times >= 501).mean())
        assert frac_after >= 0.99

    def test_cli_run_on_one_seed(self, tmp_path):
        prior, grid, model, threshold = self.setup_experiment()
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
