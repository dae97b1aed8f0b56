#!/usr/bin/env python3
"""Compare the false-alarm bounds with Monte Carlo estimates.

Both calibration routes are conservative (they ignore the overshoot of the
statistic over the threshold); this script makes the slack visible by
printing, for a ladder of target levels alpha, the bound and the estimated
weighted PFA for the MS and MSR rules on the setting of a config,
configs/pfa_bounds.json by default, whose montecarlo section gives the
trials, horizon, seed and workers.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from mixdetect import estimate_pfa_posterior, estimate_pfa_tail, ms_threshold, msr_threshold
from mixdetect.cli import ConfigError, check_tail, load_experiment

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "pfa_bounds.json"
ALPHAS = (0.10, 0.05, 0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", nargs="?", default=str(CONFIG))
    args = ap.parse_args()
    try:
        run = load_experiment(args.config).run
        if run is None:
            raise ConfigError("montecarlo: missing required section")
        # simulate's horizon check for its PFA scenarios; the smallest alpha binds
        check_tail(run.prior, run.horizon, min(ALPHAS), "alpha")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)

    print(f"{'rule':<5} {'alpha':>8} {'A':>10} {'tail est':>12} {'post est':>12} {'est/alpha':>10}")
    for i, alpha in enumerate(ALPHAS):
        spec = ms_threshold(alpha, run.prior.q)
        cfg = replace(run, detector="ms", log_threshold=spec.log_threshold)
        tail = estimate_pfa_tail(cfg, stream_tag=10 + i)
        post = estimate_pfa_posterior(cfg, stream_tag=20 + i)
        print(
            f"{'ms':<5} {alpha:>8.3f} {spec.threshold:>10.1f} "
            f"{tail.point:>10.5f}+-{tail.stderr:.0e} "
            f"{post.point:>10.5f}+-{post.stderr:.0e} {tail.point / alpha:>10.3f}"
        )
    for i, alpha in enumerate(ALPHAS):
        spec = msr_threshold(alpha, 0.0, run.prior)
        cfg = replace(run, detector="msr", log_threshold=spec.log_threshold)
        tail = estimate_pfa_tail(cfg, stream_tag=30 + i)
        print(
            f"{'msr':<5} {alpha:>8.3f} {spec.threshold:>10.1f} "
            f"{tail.point:>10.5f}+-{tail.stderr:.0e} {'-':>12} {tail.point / alpha:>10.3f}"
        )


if __name__ == "__main__":
    main()
