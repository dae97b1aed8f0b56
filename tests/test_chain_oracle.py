"""Monte Carlo estimates of the one-atom Gaussian rules against exact values.

``_chain_oracle`` solves each rule's Markov chain for the exact operating
characteristic; ``simulate`` estimates it from trials of each law of
(nu, theta): no change (``pfa_tail``), a fixed change point with a fixed
theta (``delay``, at nu = 0 and nu = 10), nu from the prior with a fixed
theta (``average_delay``) and nu from the prior with theta from W
(``pfa_posterior``).  At these trial counts an off-by-one in the stop time
moves a delay by 17 to 40 SE.
"""

import json

import pytest

from _chain_oracle import OneAtomChain
from mixdetect.cli import main

DELAY = {"quantity": "delay", "theta": 0}
AVERAGE_DELAY = {"quantity": "average_delay", "theta": 0}

# (rule, rho, log A, scenario, the value an earlier, independent solve of the
# same chain gave, to its digits, or None)
CASES = {
    "msr_delay_log_a_8": ("msr", 0.1, 8.0, DELAY, 14.465),
    "msr_delay_log_a_12": ("msr", 0.1, 12.0, DELAY, 22.458),
    "msr_delay_at_nu_10": ("msr", 0.1, 8.0, {**DELAY, "change_point": 10}, None),
    "ms_rho_0.3_delay": ("ms", 0.3, 8.0, DELAY, 10.728),
    "ms_rho_0.1_delay_at_nu_10": ("ms", 0.1, 6.0, {**DELAY, "change_point": 10}, None),
    "ms_rho_0.1_pfa_tail": ("ms", 0.1, 6.0, {"quantity": "pfa_tail"}, 0.0013568),
    "ms_rho_0.1_pfa_posterior": ("ms", 0.1, 6.0, {"quantity": "pfa_posterior"}, 0.0013568),
    "ms_rho_0.1_average_delay": ("ms", 0.1, 6.0, AVERAGE_DELAY, 11.693),
}


def _exact(rule, rho, log_a, scenario, n_cells):
    chain = OneAtomChain(rule, log_a, rho, n_cells=n_cells)
    quantity = scenario["quantity"]
    if quantity == "delay":
        return chain.delay(scenario.get("change_point", 0))
    return chain.average_delay() if quantity == "average_delay" else chain.pfa()


@pytest.mark.parametrize("case", list(CASES))
def test_simulate_matches_the_exact_chain(tmp_path, monkeypatch, case):
    """The oracle has converged (N = 400 and 800 cells agree to 1e-3 of the
    value), and the estimate lies within 4 SE of it.  A horizon of 200 leaves
    every censoring bias below 1e-9: Pi(200) = 0.9^200 for the PFA, and the
    delays' tails are lighter still."""
    rule, rho, log_a, scenario, earlier = CASES[case]
    exact = _exact(rule, rho, log_a, scenario, 800)
    assert abs(_exact(rule, rho, log_a, scenario, 400) - exact) <= 1e-3 * exact
    assert earlier is None or exact == pytest.approx(earlier, rel=1e-4)

    doc = {
        "model": {"kind": "gaussian_iid"},
        "prior": {"kind": "geometric", "rho": rho},
        "mixing": {"kind": "atoms", "atoms": [[1.0]]},
        "detector": {"kind": rule},
        "calibration": {"kind": "fixed", "log_threshold": log_a},
        "montecarlo": {"trials": 20000, "horizon": 200, "seed": 1, "scenarios": [scenario]},
        "output": {"report": "report.json"},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIXDETECT_WORKERS", raising=False)
    assert main(["simulate", "cfg.json"]) == 0
    row = json.loads((tmp_path / "report.json").read_text())["scenarios"][0]
    estimate = row["moments"]["1"]["estimate"] if "moments" in row else row["estimate"]
    assert abs(estimate["point"] - exact) <= 4.0 * estimate["stderr"]
