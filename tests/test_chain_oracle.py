"""Monte Carlo estimates of the one-atom Gaussian rules against exact values.

``_chain_oracle`` solves each rule's Markov chain for the exact operating
characteristic; ``simulate`` estimates it from trials of each law of
(nu, theta): no change (``pfa_tail``), a fixed change point with a fixed
theta (``delay`` at nu = 0 and nu = 10, and each rung of a ``delay_ladder``),
nu from the prior with a fixed theta (``average_delay``) and nu from the
prior with theta from W (``pfa_posterior`` and ``integrated_risk``, the
latter at the ``bayes-cost`` threshold).  The start state S_0 = q / (1 - q)
of MS and R_0 = omega of MSR is 0 but in the cases that name q or omega.
At these trial counts an off-by-one in the stop time moves a delay by 17
to 40 SE.
"""

import json
from typing import NamedTuple

import pytest

from _chain_oracle import OneAtomChain
from mixdetect.cli import main

DELAY = {"quantity": "delay", "theta": 0}
AVERAGE_DELAY = {"quantity": "average_delay", "theta": 0}
PFA_TAIL = {"quantity": "pfa_tail"}
COST = 0.002  # the bayes-cost c of the integrated-risk case, with r = 1


class Case(NamedTuple):
    rule: str
    rho: float
    log_a: float | None  # the fixed log A, or None for the bayes-cost A of COST
    scenario: dict
    # an earlier, independent solve of the same chain, to its digits: a value,
    # one per ladder rung's log A, or None
    earlier: float | dict | None = None
    q: float = 0.0
    omega: float = 0.0


CASES = {
    "msr_delay_log_a_8": Case("msr", 0.1, 8.0, DELAY, 14.465),
    "msr_delay_log_a_12": Case("msr", 0.1, 12.0, DELAY, 22.458),
    "msr_delay_at_nu_10": Case("msr", 0.1, 8.0, {**DELAY, "change_point": 10}),
    "msr_pfa_tail": Case("msr", 0.1, 8.0, PFA_TAIL),
    "ms_rho_0.3_delay": Case("ms", 0.3, 8.0, DELAY, 10.728),
    "ms_rho_0.3_delay_ladder": Case(
        "ms", 0.3, 8.0,
        {"quantity": "delay_ladder", "theta": 0, "log_thresholds": [8, 10, 12, 16]},
        {8: 10.728, 10: 13.063, 12: 15.397, 16: 20.067},
    ),
    "ms_rho_0.1_delay_at_nu_10": Case("ms", 0.1, 6.0, {**DELAY, "change_point": 10}),
    "ms_rho_0.1_pfa_tail": Case("ms", 0.1, 6.0, PFA_TAIL, 0.0013568),
    "ms_rho_0.1_pfa_posterior": Case("ms", 0.1, 6.0, {"quantity": "pfa_posterior"}, 0.0013568),
    "ms_rho_0.1_average_delay": Case("ms", 0.1, 6.0, AVERAGE_DELAY, 11.693),
    "ms_rho_0.1_integrated_risk": Case("ms", 0.1, None, {"quantity": "integrated_risk"}),
    "ms_q_0.2_delay_at_nu_10": Case("ms", 0.1, 6.0, {**DELAY, "change_point": 10}, q=0.2),
    "ms_q_0.2_pfa_tail": Case("ms", 0.1, 6.0, PFA_TAIL, q=0.2),
    "ms_q_0.2_average_delay": Case("ms", 0.1, 6.0, AVERAGE_DELAY, q=0.2),
    "msr_omega_5_delay": Case("msr", 0.1, 8.0, DELAY, omega=5.0),
    "msr_omega_5_delay_at_nu_10": Case("msr", 0.1, 8.0, {**DELAY, "change_point": 10}, omega=5.0),
    "msr_omega_5_pfa_tail": Case("msr", 0.1, 8.0, PFA_TAIL, omega=5.0),
}


def _exact(case: Case, log_a: float, n_cells: int) -> float:
    chain = OneAtomChain(case.rule, log_a, case.rho, n_cells=n_cells, q=case.q, omega=case.omega)
    quantity = case.scenario["quantity"]
    if quantity in ("delay", "delay_ladder"):
        return chain.delay(case.scenario.get("change_point", 0))
    if quantity == "average_delay":
        return chain.average_delay()
    pfa = chain.pfa()
    if quantity == "integrated_risk":
        # P(T <= nu) + c E[(T - nu)^+], with r = 1 and q = 0
        return pfa + COST * (1.0 - pfa) * chain.average_delay()
    return pfa


def _rungs(report: dict) -> list[tuple[float, float, float]]:
    """(log A, estimate, SE) of the report's one scenario, one per ladder rung."""
    row = report["scenarios"][0]
    if "ladder" in row:
        return [(r["log_A"], r["mean_delay"], r["stderr"]) for r in row["ladder"]]
    estimate = row["moments"]["1"]["estimate"] if "moments" in row else row["estimate"]
    return [(report["threshold"]["log_threshold"], estimate["point"], estimate["stderr"])]


@pytest.mark.parametrize("name", list(CASES))
def test_simulate_matches_the_exact_chain(tmp_path, monkeypatch, name):
    """At each rung's log A the oracle has converged (N = 400 and 800 cells
    agree to 1e-3 of the value), and the estimate lies within 4 SE of it.
    A horizon of 200 leaves every censoring bias below 1e-9: Pi(200) = 0.9^200
    for the PFA and the risk, and the delays' tails are lighter still."""
    case = CASES[name]
    calibration = (
        {"kind": "bayes-cost", "c": COST, "r": 1}
        if case.log_a is None
        else {"kind": "fixed", "log_threshold": case.log_a}
    )
    doc = {
        "model": {"kind": "gaussian_iid"},
        "prior": {"kind": "geometric", "rho": case.rho, "q": case.q},
        "mixing": {"kind": "atoms", "atoms": [[1.0]]},
        "detector": {"kind": case.rule, "omega": case.omega},
        "calibration": calibration,
        "montecarlo": {"trials": 20000, "horizon": 200, "seed": 1, "scenarios": [case.scenario]},
        "output": {"report": "report.json"},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIXDETECT_WORKERS", raising=False)
    assert main(["simulate", "cfg.json"]) == 0
    for log_a, point, stderr in _rungs(json.loads((tmp_path / "report.json").read_text())):
        exact = _exact(case, log_a, 800)
        assert abs(_exact(case, log_a, 400) - exact) <= 1e-3 * exact
        earlier = case.earlier.get(log_a) if isinstance(case.earlier, dict) else case.earlier
        assert earlier is None or exact == pytest.approx(earlier, rel=1e-4)
        assert abs(point - exact) <= 4.0 * stderr, (log_a, point, stderr, exact)
