#!/usr/bin/env python3
"""Compare the false-alarm bounds with Monte Carlo estimates.

Both calibration routes are conservative (they ignore the overshoot of the
statistic over the threshold); this script makes the slack visible by
printing, for a ladder of target levels alpha, the bound and the estimated
weighted PFA for the MS and MSR rules on the standard Gaussian mean-shift
configuration.
"""

import argparse

from mixdetect import (
    ExperimentConfig,
    estimate_pfa_posterior,
    estimate_pfa_tail,
    gaussian_iid_model,
    geometric_prior,
    ms_threshold,
    msr_threshold,
    uniform_grid,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--horizon", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    prior = geometric_prior(0.1)
    model = gaussian_iid_model(uniform_grid([0.5], [1.5], [3]))

    def config(detector, log_threshold):
        return ExperimentConfig(
            model=model,
            prior=prior,
            detector=detector,
            omega=0.0,
            log_threshold=log_threshold,
            trials=args.trials,
            horizon=args.horizon,
            master_seed=args.seed,
            workers=args.workers,
        )

    print(f"{'rule':<5} {'alpha':>8} {'A':>10} {'tail est':>12} {'post est':>12} {'est/alpha':>10}")
    for i, alpha in enumerate((0.10, 0.05, 0.01)):
        spec = ms_threshold(alpha)
        cfg = config("ms", spec.log_threshold)
        tail = estimate_pfa_tail(cfg, stream_tag=10 + i)
        post = estimate_pfa_posterior(cfg, stream_tag=20 + i)
        print(
            f"{'ms':<5} {alpha:>8.3f} {spec.threshold:>10.1f} "
            f"{tail.point:>10.5f}+-{tail.stderr:.0e} "
            f"{post.point:>10.5f}+-{post.stderr:.0e} {tail.point / alpha:>10.3f}"
        )
    for i, alpha in enumerate((0.10, 0.05, 0.01)):
        spec = msr_threshold(alpha, 0.0, prior)
        cfg = config("msr", spec.log_threshold)
        tail = estimate_pfa_tail(cfg, stream_tag=30 + i)
        print(
            f"{'msr':<5} {alpha:>8.3f} {spec.threshold:>10.1f} "
            f"{tail.point:>10.5f}+-{tail.stderr:.0e} {'-':>12} {tail.point / alpha:>10.3f}"
        )


if __name__ == "__main__":
    main()
