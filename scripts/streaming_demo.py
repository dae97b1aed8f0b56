#!/usr/bin/env python3
"""Multi-cyclic surveillance demo on a synthetic traffic-rate stream.

Writes the detector config of configs/detect_ar_stream.json (AR(1) noise
around a packet-rate-like baseline), its prior timescale set to the change
point, draws the series from that config's model with a small persistent rate
increase injected partway through, writes the stream, then runs the CLI in
multi-cyclic mode with a trajectory dump.  Threshold exceedances before the
injection are false alarms; the detector restarts after every alarm, so the
trajectory shows the classic saw-tooth of repeated surveillance.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mixdetect import sample_path
from mixdetect.cli import load_experiment

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "detect_ar_stream.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="streaming_demo_out")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--length", type=int, default=3000)
    ap.add_argument("--change-at", type=int, default=2000)
    ap.add_argument("--shift", type=float, default=1.0)
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    with open(CONFIG) as fh:
        config = json.load(fh)
    config["prior"]["rho"] = 1.0 / args.change_at
    config["output"] = {
        name: os.path.join(args.outdir, f"{name}.csv") for name in ("alarms", "trajectory")
    }
    cfg_path = os.path.join(args.outdir, "detect.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh, indent=2)

    # the model's unit signal makes the shift a constant rate increase
    model = load_experiment(cfg_path).model
    rng = np.random.default_rng(args.seed)
    rate = sample_path(model, args.change_at, [args.shift], args.length, rng)
    data_path = os.path.join(args.outdir, "rate.csv")
    np.savetxt(data_path, rate, delimiter=",", header="rate", comments="")

    cmd = [
        sys.executable,
        "-m",
        "mixdetect.cli",
        "detect",
        cfg_path,
        data_path,
        "--multicyclic",
        "--trajectory",
    ]
    print("+", " ".join(cmd))
    rc = subprocess.run(cmd).returncode
    if rc:
        sys.exit(rc)

    alarms = [
        int(line)
        for line in open(config["output"]["alarms"]).read().splitlines()[1:]
        if line and line != "CENSORED"
    ]
    false_alarms = [a for a in alarms if a <= args.change_at]
    detections = [a for a in alarms if a > args.change_at]
    print(f"stream of {args.length} rows, rate shift at row {args.change_at}")
    print(f"false alarms before the shift: {false_alarms}")
    print(f"alarms after the shift: {detections[:5]}{' ...' if len(detections) > 5 else ''}")
    print(f"trajectory written to {config['output']['trajectory']}")


if __name__ == "__main__":
    main()
