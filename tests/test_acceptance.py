"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Everything is seeded; reruns are deterministic.  Criteria that pin
Monte Carlo agreement use the tolerance stated with each assertion; none of
them are tuned at runtime.
"""

import json
import math
import time

import numpy as np

from mixdetect._engine import CHUNK, TrialSpec
from mixdetect.calibration import bayes_threshold, d_constant, ms_threshold, msr_threshold
from mixdetect.cli import main
from mixdetect.detectors import (
    MsrState,
    MsState,
    brute_force_ms,
    brute_force_msr,
    ms_update,
    msr_update,
    posterior_no_change,
)
from mixdetect.measures import geometric_prior, grid_from_atoms, heavy_tail_prior, uniform_grid
from mixdetect.models import (
    ArChannelSpec,
    HarmonicSignal,
    Hmm2Spec,
    gaussian_iid_model,
    hmm2_model,
    info_number,
    multichannel_ar_model,
    q_limit,
)
from mixdetect.montecarlo import (
    ExperimentConfig,
    estimate_delay_moments,
    estimate_integrated_risk,
    estimate_pfa_tail,
    slope_regression,
    statistic_at_horizon,
)
from mixdetect.theory import integrated_risk_prediction

STANDARD_GRID = uniform_grid([0.5], [1.5], [3])  # atoms 0.5, 1.0, 1.5, equal weights
GEOM01 = geometric_prior(0.1, q=0.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _config(**kw) -> ExperimentConfig:
    grid = kw.pop("grid", STANDARD_GRID)
    defaults = dict(
        model=gaussian_iid_model(grid),
        prior=kw.pop("prior", GEOM01),
        detector="ms",
        omega=0.0,
        log_threshold=math.log(19.0),
        trials=10_000,
        horizon=2000,
        master_seed=20240601,
        workers=1,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_criterion_01_ms_false_alarm_bound():
    """Posterior-odds bound: weighted PFA of the MS rule at A=(1-a)/a stays <= a."""
    alpha = 0.05
    spec = ms_threshold(alpha, q=0.0)
    t0 = time.time()
    est = estimate_pfa_tail(_config(log_threshold=spec.log_threshold), stream_tag=1)
    elapsed = time.time() - t0
    ok = est.point <= alpha + 3.0 * est.stderr and elapsed < 60.0
    _report(
        "criterion-01 ms-false-alarm-bound",
        ok,
        f"estimate {est.point:.5f} +- {est.stderr:.5f} vs alpha {alpha} "
        f"(censored {est.censored}, {elapsed:.1f}s)",
    )


def test_criterion_02_msr_false_alarm_bound():
    """Martingale bound: weighted PFA of the MSR rule at A=(wb+mean)/a stays <= a."""
    alpha = 0.01
    spec = msr_threshold(alpha, 0.0, GEOM01)
    est = estimate_pfa_tail(
        _config(detector="msr", log_threshold=spec.log_threshold), stream_tag=2
    )
    ok = est.point <= alpha + 3.0 * est.stderr
    _report(
        "criterion-02 msr-false-alarm-bound",
        ok,
        f"estimate {est.point:.5f} +- {est.stderr:.5f} vs alpha {alpha} "
        f"(A {spec.threshold:.0f}, censored {est.censored})",
    )


def _oracle_paths(grid, n_paths=100, n=30, seed=2718):
    """Increment matrices for random paths, half no-change, half with change."""
    model = gaussian_iid_model(grid)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_paths)]
    nus = np.array([n if i % 2 == 0 else (i % 7) for i in range(n_paths)], dtype=np.int64)
    thetas = np.tile(grid.atoms[grid.size // 2], (n_paths, 1))
    paths = model.sample_paths(nus, thetas, n, rngs)
    return model.path_increments(paths)


def test_criterion_03_oracle_equivalence():
    """Recursions equal literal double-sum evaluation, both rules, grids 1/3/7."""
    prior = geometric_prior(0.1, q=0.2)
    t0 = time.time()
    worst = 0.0
    for size in (1, 3, 7):
        grid = uniform_grid([0.4], [1.6], [size])
        all_inc = _oracle_paths(grid, n_paths=100, n=30, seed=100 + size)
        for inc in all_inc:
            ms = MsState(prior=prior, grid=grid)
            msr = MsrState(grid=grid, omega=3.7)
            for nn in range(30):
                ms_update(ms, inc[nn])
                msr_update(msr, inc[nn])
                worst = max(
                    worst,
                    abs(ms.log_stat - brute_force_ms(inc[: nn + 1], prior, grid)),
                    abs(msr.log_stat - brute_force_msr(inc[: nn + 1], grid, omega=3.7)),
                )
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report(
        "criterion-03 oracle-equivalence",
        ok,
        f"worst |recursive - brute| = {worst:.2e} over 300 paths x 30 steps ({elapsed:.1f}s)",
    )


def _enumeration_posterior(inc: np.ndarray, prior, grid) -> float:
    """P(no change yet | data) by literal Bayes enumeration over change times."""
    n = inc.shape[0]
    cum = np.cumsum(inc, axis=0)
    log_lam = np.array(
        [
            np.logaddexp.reduce(grid.log_weights + (cum[n - 1] - (cum[k - 1] if k else 0.0)))
            for k in range(n)
        ]
    )
    log_pi = prior.log_pmf(np.arange(n))
    with np.errstate(divide="ignore"):
        log_q = np.log(prior.q) if prior.q > 0.0 else -np.inf
    terms = np.concatenate(
        ([log_q + log_lam[0]], log_pi + log_lam, [float(prior.log_tail(n))])
    )
    return math.exp(float(prior.log_tail(n)) - np.logaddexp.reduce(terms))


def test_criterion_04_posterior_identity():
    """1/(1+S_n) equals the enumeration posterior on every oracle path."""
    prior = geometric_prior(0.1, q=0.2)
    worst = 0.0
    for size in (1, 3, 7):
        grid = uniform_grid([0.4], [1.6], [size])
        all_inc = _oracle_paths(grid, n_paths=100, n=30, seed=100 + size)
        for inc in all_inc:
            state = MsState(prior=prior, grid=grid)
            for nn in range(30):
                ms_update(state, inc[nn])
                enum = _enumeration_posterior(inc[: nn + 1], prior, grid)
                worst = max(worst, abs(posterior_no_change(state) - enum))
    ok = worst < 1e-9
    _report(
        "criterion-04 posterior-identity",
        ok,
        f"worst |1/(1+S) - enumeration| = {worst:.2e} over 300 paths x 30 steps",
    )


def test_criterion_05_martingale_mean():
    """E[R_n - w - n] = 0 under no change: MC mean of R_50 within 3 SE of w+50.

    Grid atoms are modest (0.2, 0.35) by design: the summands of the MSR
    statistic are log-normal in the likelihood ratios, and large atoms make
    the deep terms' means invisible at 10^5 trials (their sampling needs
    e^(theta^2 n / 2)-scale samples).  The identity itself is grid-free.
    """
    grid = grid_from_atoms([[0.2], [0.35]])
    details = []
    ok = True
    for omega in (0.0, 10.0):
        cfg = _config(
            grid=grid,
            detector="msr",
            omega=omega,
            trials=100_000,
            horizon=50,
            master_seed=31415,
        )
        stat = statistic_at_horizon(cfg, TrialSpec(mode="no_change", stream_tag=5))
        r = np.exp(stat)
        mean = float(r.mean())
        se = float(r.std(ddof=1) / math.sqrt(r.size))
        target = omega + 50.0
        ok = ok and abs(mean - target) <= 3.0 * se
        details.append(f"w={omega:g}: {mean:.3f} vs {target:g} (SE {se:.3f})")
    _report("criterion-05 martingale-mean", ok, "; ".join(details))


def _delay_ladder(prior, detector, tag_base, trials=2000):
    rows = []
    for j, log_a in enumerate(range(5, 13)):
        cfg = _config(
            prior=prior,
            detector=detector,
            log_threshold=float(log_a),
            trials=trials,
            horizon=400,
            master_seed=777,
        )
        est = estimate_delay_moments(
            cfg, 0, (1.0,), r_list=[1.0], stream_tag=tag_base + j
        )[1.0]
        assert est.extras["reliable"], "censor rate exceeded 0.1%"
        rows.append((float(log_a), est.point, est.stderr))
    return rows, slope_regression(rows)


def test_criterion_06_ms_delay_slope_heavy_tail():
    """Mean-delay growth rate vs log A is 1/I for MS under a heavy-tail prior."""
    t0 = time.time()
    _, fit = _delay_ladder(heavy_tail_prior(2.0), "ms", tag_base=600)
    elapsed = time.time() - t0
    target = 1.0 / info_number(gaussian_iid_model(STANDARD_GRID), (1.0,))  # 2.0
    rel = abs(fit.slope - target) / target
    ok = rel < 0.15 and elapsed < 600.0
    _report(
        "criterion-06 ms-delay-slope-heavy-tail",
        ok,
        f"slope {fit.slope:.3f} +- {fit.slope_stderr:.3f} vs {target:.1f} "
        f"(rel dev {rel:.1%}, {elapsed:.1f}s)",
    )


def test_criterion_07_ms_vs_msr_slope_separation():
    """Exponential-tail prior: MS collects the tail credit, MSR does not."""
    prior = geometric_prior(0.3)
    i_theta = 0.5
    ms_target = 1.0 / (i_theta + prior.mu)  # 1.0 / (0.5 - log 0.7)
    msr_target = 1.0 / i_theta
    _, fit_ms = _delay_ladder(prior, "ms", tag_base=700)
    _, fit_msr = _delay_ladder(prior, "msr", tag_base=800)
    rel_ms = abs(fit_ms.slope - ms_target) / ms_target
    rel_msr = abs(fit_msr.slope - msr_target) / msr_target
    joint_se = math.hypot(fit_ms.slope_stderr, fit_msr.slope_stderr)
    separated = fit_msr.slope - fit_ms.slope >= 3.0 * joint_se
    ok = rel_ms < 0.15 and rel_msr < 0.15 and separated
    _report(
        "criterion-07 ms-vs-msr-slope-separation",
        ok,
        f"ms {fit_ms.slope:.3f} (target {ms_target:.3f}, dev {rel_ms:.1%}); "
        f"msr {fit_msr.slope:.3f} (target {msr_target:.3f}, dev {rel_msr:.1%}); "
        f"gap {fit_msr.slope - fit_ms.slope:.3f} >= 3*SE {3 * joint_se:.3f}: {separated}",
    )


def test_criterion_08_second_moment_concentration():
    """At a large threshold the delay concentrates: E[T^2]/E[T]^2 in [1, 1.3]."""
    cfg = _config(
        prior=heavy_tail_prior(2.0),
        log_threshold=12.0,
        trials=2000,
        horizon=400,
        master_seed=777,
    )
    ests = estimate_delay_moments(cfg, 0, (1.0,), r_list=[1.0, 2.0], stream_tag=607)
    ratio = ests[2.0].point / ests[1.0].point ** 2
    ok = 1.0 <= ratio <= 1.3
    _report(
        "criterion-08 second-moment-concentration",
        ok,
        f"m2/m1^2 = {ratio:.3f} at log A = 12 (m1 {ests[1.0].point:.2f})",
    )


def test_criterion_09_bayes_threshold_solver():
    """Cost-equation solver: closed form at r=1 to 1e-12, residual < 1e-10 at r=2."""
    rng = np.random.default_rng(4242)
    worst_rel = 0.0
    for _ in range(20):
        c = math.exp(rng.uniform(-12.0, -4.0))
        d = rng.uniform(0.1, 10.0)
        a = bayes_threshold(c, 1.0, d).threshold
        worst_rel = max(worst_rel, abs(a - 1.0 / (c * d)) / (1.0 / (c * d)))
    worst_resid = 0.0
    for _ in range(20):
        c = math.exp(rng.uniform(-12.0, -4.0))
        d = rng.uniform(0.1, 10.0)
        a = bayes_threshold(c, 2.0, d).threshold
        worst_resid = max(worst_resid, abs(2.0 * d * a * math.log(a) - 1.0 / c) * c)
    ok = worst_rel < 1e-12 and worst_resid < 1e-10
    _report(
        "criterion-09 bayes-threshold-solver",
        ok,
        f"r=1 worst rel dev {worst_rel:.2e}; r=2 worst residual {worst_resid:.2e} "
        "(20 random (c, D) pairs each)",
    )


def test_criterion_10_integrated_risk_trend():
    """Risk over cost ladder: estimate/(D c |log c|) approaches 1 from above."""
    model = gaussian_iid_model(STANDARD_GRID)
    info = np.array([info_number(model, i) for i in range(STANDARD_GRID.size)])
    d = d_constant(STANDARD_GRID, info, GEOM01.mu, 1.0)
    ratios = []
    for j, c in enumerate([1e-2, 1e-3, 1e-4]):
        spec = bayes_threshold(c, 1.0, d)
        cfg = _config(
            log_threshold=spec.log_threshold,
            trials=150_000,
            horizon=700,
            master_seed=999,
        )
        est = estimate_integrated_risk(cfg, c, 1.0, stream_tag=900 + j)
        ratios.append(est.point / integrated_risk_prediction(c, 1.0, d))
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    toward_one = all(abs(a - 1.0) > abs(b - 1.0) for a, b in zip(ratios, ratios[1:]))
    in_window = 0.5 <= ratios[-1] <= 1.5
    ok = decreasing and toward_one and in_window
    _report(
        "criterion-10 integrated-risk-trend",
        ok,
        "ratios " + " -> ".join(f"{r:.3f}" for r in ratios) + f" (final in [0.5, 1.5]: {in_window})",
    )


def test_criterion_11_hmm_symmetric_reduction():
    """Symmetric two-state HMM increments equal the iid averaged-density form."""
    spec = Hmm2Spec(theta0=(0.0, 1.0), beta=0.5, gamma=0.5)
    grid = grid_from_atoms([[1.0, 2.0], [0.5, 2.5], [0.2, 1.3]])
    model = hmm2_model(spec, grid)
    worst = 0.0
    for seed in range(5):
        rngs = [np.random.default_rng(900 + seed)]
        paths = model.sample_paths(np.array([40]), np.array([[1.0, 2.0]]), 100, rngs)
        inc = model.path_increments(paths)[0]
        x = paths[0, :, 0]

        def log_phi(v, mu):
            return -0.5 * (v - mu) ** 2 - 0.5 * math.log(2 * math.pi)

        den = np.logaddexp(log_phi(x, 0.0), log_phi(x, 1.0))
        for j, atom in enumerate(grid.atoms):
            num = np.logaddexp(log_phi(x, atom[0]), log_phi(x, atom[1]))
            worst = max(worst, float(np.max(np.abs(inc[:, j] - (num - den)))))
    ok = worst < 1e-10
    _report(
        "criterion-11 hmm-symmetric-reduction",
        ok,
        f"worst |forward increment - iid mixture form| = {worst:.2e} over 5 x 100 steps",
    )


def test_criterion_12_ar_llr_rate():
    """Multichannel AR LLR per step concentrates on sum theta_c^2 Q_c / 2."""
    spec = ArChannelSpec(
        ar_coeffs=((0.5,), (0.5,)),
        signals=(HarmonicSignal(1.0, 0.5, 0.0), HarmonicSignal(1.0, 0.8, 0.3)),
    )
    grid = grid_from_atoms([[1.0, 1.0], [0.5, 0.5]])
    model = multichannel_ar_model(spec, grid)
    qs = [q_limit(spec, c, 10_000) for c in range(2)]
    target = 0.5 * sum(q.value for q in qs)  # theta = (1, 1)
    n, trials = 5000, 200
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(1202).spawn(trials)]
    paths = model.sample_paths(
        np.zeros(trials, dtype=np.int64), np.ones((trials, 2)), n, rngs
    )
    lam = model.path_increments(paths)[:, :, 0].sum(axis=1) / n
    mean = float(lam.mean())
    se = float(lam.std(ddof=1) / math.sqrt(trials))
    ok = abs(mean - target) <= 3.0 * se
    _report(
        "criterion-12 ar-llr-rate",
        ok,
        f"mean {mean:.5f} vs target {target:.5f} (SE {se:.5f}, "
        f"Q spreads {qs[0].spread:.1e}/{qs[1].spread:.1e})",
    )


def test_criterion_13_reproducibility(tmp_path, monkeypatch, payload_counts):
    """Same seed, 1 vs 4 workers: byte-identical simulate reports."""
    doc = {
        "model": {"kind": "gaussian_iid"},
        "prior": {"kind": "geometric", "rho": 0.1, "q": 0.0},
        "mixing": {"kind": "uniform_grid", "lower": [0.5], "upper": [1.5], "counts": [3]},
        "detector": {"kind": "ms"},
        "calibration": {"kind": "ms-pfa", "alpha": 0.05},
        "montecarlo": {
            "trials": CHUNK + 905,  # more than one chunk, so 4 workers open a pool
            "horizon": 300,
            "seed": 42,
            "workers": 1,
            "scenarios": [
                {"name": "pfa", "quantity": "pfa_tail"},
                {"name": "post", "quantity": "pfa_posterior"},
                {
                    "name": "delay",
                    "quantity": "delay",
                    "change_point": 2,
                    "theta": 1,
                    "moments": [1, 2],
                },
            ],
        },
        "output": {"report": str(tmp_path / "report.json")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["simulate", str(cfg_path)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    monkeypatch.setenv("MIXDETECT_WORKERS", "4")
    assert main(["simulate", str(cfg_path)]) == 0
    second = (tmp_path / "report.json").read_bytes()
    assert payload_counts and min(payload_counts) > 1
    ok = first == second
    _report(
        "criterion-13 reproducibility",
        ok,
        f"{len(first)}-byte report identical for 1 vs 4 workers",
    )
