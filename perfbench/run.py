#!/usr/bin/env python3
"""mixdetect benchmark: end-to-end and per-layer metrics of the real CLI.

Run from the root of a checkout (nothing needs to be installed; the package
is imported from ./src):

    python3 perfbench/run.py --workload gauss_pfa --seed 1 --seconds 15 --trace 0

Every command is a fresh child process (child.py) with MIXDETECT_WORKERS
unset.  With ``--trace 0`` the run repeats the workload's command until
``--seconds`` have passed and at least MIN_COMMANDS times, adds set-up-only
probes until SETUP_SAMPLES set-ups were timed, and reports medians of the
end-to-end metrics.  With
``--trace 1`` it alternates plain and traced commands and reports the
per-layer split of the traced command with the median wall time.  Every
command's outputs are checked (workloads.py); the last stdout line is the
JSON result.  Workloads: see workloads.WORKLOADS.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

from tracer import clock
from workloads import WORKLOADS, output_digest, scenario_estimates

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

MIN_COMMANDS = 2  # a run times at least this many commands, even past --seconds
SETUP_SAMPLES = 5  # setup_s is the median of at least this many set-ups per run
CHILD_TIMEOUT_S = 120.0
DEFAULT_SEED = 1
REFERENCE_SEEDS = range(1, 11)  # seeds whose output digests reference.json records

END_TO_END = {  # name -> unit; these, and only these, are printed with --trace 0
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer self times: metric -> span name recorded by tracer.install
LAYER_TIMES = {
    "cli.import_s": "cli.import",
    "cli.load_experiment_s": "cli.load_experiment",
    "cli.run_s": "cli.main",
    "cli.load_csv_s": "cli.load_csv",
    "cli.write_s": "cli.write",
    "calibration.threshold_s": "calibration.threshold",
    "theory.prediction_s": "theory.prediction",
    "measures.sample_s": "measures.sample",
    "measures.tables_s": "measures.tables",
    "models.sample_paths_s": "models.sample_paths",
    "models.path_increments_s": "models.path_increments",
    "models.step_s": "models.step",
    "detectors.update_s": "detectors.update",
    "detectors.loop_s": "detectors.loop",
    "engine.rng_s": "engine.rng",
    "engine.draws_s": "engine.draws",
    "engine.recursion_s": "engine.chunk",
    "montecarlo.run_trials_s": "montecarlo.run_trials",
    "montecarlo.reduce_s": "montecarlo.reduce",
}
LAYER_CALLS = {  # metric -> span name whose call count it is
    "measures.sample_calls": "measures.sample",
    "models.step_calls": "models.step",
    "detectors.update_calls": "detectors.update",
    "engine.chunks": "engine.chunk",
}
LAYER_COUNTS = {  # metric -> unit, for counts taken at layer boundaries
    "models.paths_bytes": "bytes_computed",
    "models.increments_bytes": "bytes_computed",
    "detectors.alarms": "count",
    "engine.steps_simulated": "count",
    "engine.steps_used": "count",
    "montecarlo.trials_simulated": "count",
    "montecarlo.censored": "count",
    "montecarlo.rejected": "count",
    "montecarlo.contributing": "count",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
    **LAYER_COUNTS,
    "engine.chunk_s_p50": "s",
    "engine.chunk_s_max": "s",
    "engine.steps_used_frac": "ratio",
    "montecarlo.censored_frac": "ratio",
    "montecarlo.useful_frac": "ratio",
    "cli.report_identical": "count",
    "cli.report_compared": "count",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_s": "s",
}
EXACT = [*LAYER_CALLS, *LAYER_COUNTS]  # must repeat exactly between traced commands


@dataclass
class Sample:
    """One child process: its timeline, peak RSS and output problems."""

    mode: str
    rc: int
    wall_s: float
    rss_mb: float
    setup_s: float | None = None
    main_end_s: float | None = None
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    digest: str | None = None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


class Runner:
    """Runs one workload's commands for one seed, in the work directory ``work``.

    ``reference`` is the workload's entry of reference.json; with None the
    outputs are not checked (used while recording the reference itself).
    """

    def __init__(self, name: str, seed: int, smoke: bool, work: str, reference: dict | None):
        self.workload = WORKLOADS[name]
        self.name = name
        self.work = work
        self.reference = reference
        self.inputs = self.workload.prepare(ROOT, work, seed, smoke)
        digests = (reference or {}).get("output_sha256", {})
        self.expected_digest = None if smoke else digests.get(str(seed))
        self.env = {k: v for k, v in os.environ.items() if k != "MIXDETECT_WORKERS"}
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.samples: list[Sample] = []

    def spawn(self, mode: str) -> Sample:
        """Run one command in a child process; check its outputs afterwards."""
        idx = len(self.samples)
        result_path = os.path.join(self.work, f"child{idx}.json")
        for p in self.inputs.outputs:
            if os.path.exists(os.path.join(self.work, p)):
                os.remove(os.path.join(self.work, p))
        argv = [sys.executable, CHILD, result_path, mode, "--", *self.inputs.argv]
        with open(os.path.join(self.work, f"child{idx}.out"), "wb") as out, open(
            os.path.join(self.work, f"child{idx}.err"), "wb"
        ) as err:
            t0 = clock()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t_exit = clock()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        sample = Sample(mode=mode, rc=rc, wall_s=t_exit - t0, rss_mb=usage.ru_maxrss / 1024.0)
        if rc != 0:
            sample.problems.append(f"{mode} command exited with {rc}: {self._tail(idx)}")
        elif not os.path.exists(result_path):
            sample.problems.append(f"{mode} command wrote no result")
        else:
            with open(result_path) as fh:
                record = json.load(fh)
            marks = record["marks"]
            if not record["package"].startswith(os.path.join(ROOT, "src") + os.sep):
                sample.problems.append(f"package imported from {record['package']}")
            if "setup_done" not in marks:
                sample.problems.append("the config was never loaded")
            else:
                sample.setup_s = marks["setup_done"] - t0
            sample.main_end_s = marks["main_end"] - t0
            sample.trace = record.get("trace")
            if mode != "setup":
                try:
                    if self.reference is not None:
                        sample.problems += self.workload.check(
                            self.work, self.inputs, self.reference
                        )
                    sample.digest = output_digest(self.work, self.inputs)
                except (OSError, ValueError, KeyError) as exc:
                    sample.problems.append(f"unreadable output: {exc!r}")
        for problem in sample.problems:
            print(f"[{self.name}] FAILED: {problem}", file=sys.stderr)
        self.samples.append(sample)
        return sample

    def _tail(self, idx: int) -> str:
        with open(os.path.join(self.work, f"child{idx}.err"), errors="replace") as fh:
            return fh.read()[-400:].strip()

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)

    def timed_run(self, seconds: float) -> dict:
        t_start = clock()
        commands = []
        while len(commands) < MIN_COMMANDS or clock() - t_start < seconds:
            commands.append(self.spawn("run"))
        setups = [s.setup_s for s in commands if s.ok]
        for _ in range(SETUP_SAMPLES - len(setups)):
            probe = self.spawn("setup")
            if probe.ok:
                setups.append(probe.setup_s)
        good = [s for s in commands if s.ok]
        if not good or not setups:
            return {}
        work = self.inputs.work_units
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(s.wall_s for s in good),
            "work_per_s": statistics.median(work / (s.wall_s - s.setup_s) for s in good),
            "peak_rss_mb": statistics.median(s.rss_mb for s in good),
        }

    def traced_run(self, seconds: float) -> dict:
        t_start = clock()
        plain, traced = [], []
        while not traced or clock() - t_start < seconds:
            plain.append(self.spawn("run"))
            traced.append(self.spawn("trace"))
        plain = [s for s in plain if s.ok]
        traced = [s for s in traced if s.ok]
        if not plain or not traced:
            return {}
        exact = [layer_metrics(s, EXACT) for s in traced]
        if any(e != exact[0] for e in exact):
            traced[-1].problems.append(f"exact counts differ between traced commands: {exact}")
        walls = sorted(s.main_end_s for s in traced)
        median_wall = walls[(len(walls) - 1) // 2]
        chosen = next(s for s in traced if s.main_end_s == median_wall)
        shutil.copy(chosen.trace["spans"], os.path.join(WORK_ROOT, f"last-{self.name}-spans.npz"))
        metrics = layer_metrics(chosen, PER_LAYER)
        compared = [s for s in self.samples if s.digest is not None and self.expected_digest]
        metrics["cli.report_compared"] = len(compared)
        metrics["cli.report_identical"] = sum(s.digest == self.expected_digest for s in compared)
        metrics["trace.overhead_s"] = statistics.median(
            s.main_end_s for s in traced
        ) - statistics.median(s.main_end_s for s in plain)
        return metrics


def layer_metrics(sample: Sample, names) -> dict:
    """Per-layer metrics of one traced command, restricted to ``names``."""
    tr = sample.trace
    out = {m: tr["self_s"].get(span, 0.0) for m, span in LAYER_TIMES.items()}
    out.update({m: tr["calls"].get(span, 0) for m, span in LAYER_CALLS.items()})
    out.update({m: tr["counts"].get(m, 0) for m in LAYER_COUNTS})
    chunks = sorted(tr["chunk_s"])
    out["engine.chunk_s_p50"] = statistics.median(chunks) if chunks else 0.0
    out["engine.chunk_s_max"] = chunks[-1] if chunks else 0.0

    def ratio(num: str, den: str) -> float:
        return out[num] / out[den] if out[den] else 0.0

    out["engine.steps_used_frac"] = ratio("engine.steps_used", "engine.steps_simulated")
    out["montecarlo.censored_frac"] = ratio("montecarlo.censored", "montecarlo.trials_simulated")
    out["montecarlo.useful_frac"] = ratio(
        "montecarlo.contributing", "montecarlo.trials_simulated"
    )
    out["trace.wall_s"] = sample.main_end_s
    out["trace.other_s"] = sample.main_end_s - sum(out[m] for m in LAYER_TIMES)
    return {m: out[m] for m in names if m in out}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine() -> dict:
    """The hardware and software every result was measured on."""
    cpuinfo = _read("/proc/cpuinfo")
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size")).strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def record_reference(names) -> None:
    """Rewrite the entries of ``names`` in reference.json from this checkout:
    estimates at DEFAULT_SEED and output digests for REFERENCE_SEEDS."""
    reference = load_reference()["workloads"]
    for name in names:
        entry = {"output_sha256": {}}
        for seed in REFERENCE_SEEDS:
            with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
                runner = Runner(name, seed, False, work, None)
                sample = runner.spawn("run")
                if sample.rc != 0:
                    raise SystemExit(f"{name} seed {seed}: command failed")
                entry["output_sha256"][str(seed)] = sample.digest
                if seed == DEFAULT_SEED and runner.inputs.report:
                    with open(os.path.join(work, runner.inputs.report)) as fh:
                        entry["estimates"] = scenario_estimates(json.load(fh))
            print(f"recorded {name} seed {seed}", file=sys.stderr)
        reference[name] = entry
    with open(REFERENCE, "w") as fh:
        json.dump({"default_seed": DEFAULT_SEED, "workloads": reference}, fh, indent=1)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description="mixdetect benchmark (see module docstring)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for tests"
    )
    ap.add_argument("--record-reference", action="store_true", help="rewrite reference.json")
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "mixdetect", "cli.py")):
        print(f"no mixdetect sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    if args.record_reference:
        record_reference([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        reference = load_reference()["workloads"].get(args.workload, {})
        runner = Runner(args.workload, args.seed, args.size == "smoke", work, reference)
        if args.trace:
            metrics, units = runner.traced_run(args.seconds), PER_LAYER
        else:
            metrics, units = runner.timed_run(args.seconds), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print(f"[{args.workload}] no command succeeded", file=sys.stderr)
        return 1

    attempted, failed = len(runner.samples), runner.failed
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "machine": machine(),
        "samples": [vars(s) | {"trace": None} for s in runner.samples],
        "metrics": metrics,
    }
    with open(os.path.join(WORK_ROOT, f"last-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {attempted} commands, {failed} failed")
    shown = {name: (value, units[name]) for name, value in metrics.items()}
    if not args.trace:  # throughput again under its name for this kind of command
        shown[runner.workload.work_name] = (metrics["work_per_s"], "1/s")
    shown["failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in shown.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
