#!/usr/bin/env python3
"""Delay growth rates of the MS and MSR rules across a threshold ladder.

Under an exponential-tail prior the MS rule's mean delay grows like
log A / (I + mu) while the MSR rule pays the full log A / I; under a heavy
tail (mu = 0) the two coincide.  This script estimates both ladders, fits
the slopes, and prints them against the first-order predictions, optionally
writing the ladder CSVs.
"""

import argparse
import csv

from mixdetect import (
    ExperimentConfig,
    delay_rate,
    estimate_delay_moments,
    gaussian_iid_model,
    geometric_prior,
    heavy_tail_prior,
    info_number,
    slope_regression,
    uniform_grid,
)


def run_ladder(model, prior, detector, log_thresholds, trials, seed, tag):
    rows = []
    for j, log_a in enumerate(log_thresholds):
        cfg = ExperimentConfig(
            model=model,
            prior=prior,
            detector=detector,
            omega=0.0,
            log_threshold=float(log_a),
            trials=trials,
            horizon=500,
            master_seed=seed,
        )
        est = estimate_delay_moments(cfg, 0, (1.0,), r_list=[1.0], stream_tag=tag + j)[1.0]
        rows.append((float(log_a), est.point, est.stderr))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=777)
    ap.add_argument("--csv-prefix", default=None, help="write <prefix>_<case>.csv ladders")
    args = ap.parse_args()

    model = gaussian_iid_model(uniform_grid([0.5], [1.5], [3]))
    i_theta = info_number(model, (1.0,))
    ladder = list(range(5, 13))

    cases = [
        ("ms_geometric", geometric_prior(0.3), "ms"),
        ("msr_geometric", geometric_prior(0.3), "msr"),
        ("ms_heavy_tail", heavy_tail_prior(2.0), "ms"),
    ]
    print(f"{'case':<16} {'slope':>8} {'stderr':>8} {'predicted':>10}")
    for tag, (name, prior, det) in enumerate(cases):
        rows = run_ladder(model, prior, det, ladder, args.trials, args.seed, 100 * (tag + 1))
        fit = slope_regression(rows)
        predicted = 1.0 / delay_rate(det, i_theta, prior.mu)
        print(f"{name:<16} {fit.slope:>8.4f} {fit.slope_stderr:>8.4f} {predicted:>10.4f}")
        if args.csv_prefix:
            path = f"{args.csv_prefix}_{name}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["log_A", "mean_delay", "stderr", "prediction"])
                for log_a, mean, se in rows:
                    w.writerow([log_a, mean, se, log_a * predicted])
            print(f"  wrote {path}")


if __name__ == "__main__":
    main()
