"""Detector recursions vs brute-force sums, stopping rules, multi-cyclic mode."""

import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixdetect.cli import load_experiment
from mixdetect.detectors import (
    BLOCK,
    MsrState,
    MsState,
    NonFiniteIncrements,
    PriorSupportExhausted,
    _multicyclic_with_tail,
    advance,
    brute_force_ms,
    brute_force_msr,
    log_statistic,
    ms_update,
    msr_update,
    multicyclic_run,
    posterior_no_change,
    prior_window,
    run_detector,
)
from mixdetect.measures import (
    ChangePrior,
    geometric_prior,
    grid_from_atoms,
    heavy_tail_prior,
    point_mass_prior,
)
from mixdetect.models import (
    ArChannelSpec,
    HarmonicSignal,
    gaussian_iid_model,
    multichannel_ar_model,
    sample_path,
)

ROOT = Path(__file__).resolve().parents[1]


def gaussian_increments(grid, n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + shift
    theta = grid.atoms[:, 0]
    return x[:, None] * theta[None, :] - 0.5 * theta[None, :] ** 2


class TestMsRecursion:
    def test_initial_state(self):
        st0 = MsState(prior=geometric_prior(0.1, q=0.2), grid=grid_from_atoms([[1.0]]))
        assert st0.log_stat == pytest.approx(math.log(0.2 / 0.8))
        st0 = MsState(prior=geometric_prior(0.1), grid=grid_from_atoms([[1.0]]))
        assert st0.log_stat == -np.inf

    def test_first_step_single_atom(self):
        # hand expansion at n = 1, q = 0: S_1 = pi_0 L_1 / Pi(1)
        rho = 0.1
        prior = geometric_prior(rho)
        grid = grid_from_atoms([[1.0]])
        state = MsState(prior=prior, grid=grid)
        ell = 0.7
        ms_update(state, np.array([ell]))
        expected = math.log(rho / (1.0 - rho)) + ell
        assert state.log_stat == pytest.approx(expected, abs=1e-12)

    def test_unit_likelihood_ratios_closed_form(self):
        # all L = 1: S_n = (1 - (1-rho)^n) / (1-rho)^n for q = 0
        rho = 0.1
        prior = geometric_prior(rho)
        state = MsState(prior=prior, grid=grid_from_atoms([[0.0]]))
        for n in range(1, 40):
            ms_update(state, np.array([0.0]))
            closed = (1.0 - 0.9**n) / 0.9**n
            assert state.log_stat == pytest.approx(math.log(closed), abs=1e-12)

    def test_zero_pmf_keeps_numerator(self):
        # pi_0 = pi_1 = 0 under a point mass at 2: zero increments leave the
        # numerator untouched and the statistic moves only through Pi(n)
        prior = point_mass_prior(2)
        state = MsState(prior=prior, grid=grid_from_atoms([[0.0]]))
        state.log_num = np.array([math.log(0.3)])  # pretend head mass
        ms_update(state, np.array([0.0]))
        ms_update(state, np.array([0.0]))
        assert state.log_num[0] == pytest.approx(math.log(0.3), abs=1e-15)
        assert state.log_stat == pytest.approx(math.log(0.3), abs=1e-15)  # Pi = 1
        # next step absorbs pi_2 = 1 but the tail hits zero: state error
        with pytest.raises(PriorSupportExhausted):
            ms_update(state, np.array([0.0]))
        # and with no head mass the numerator stays empty
        empty = MsState(prior=prior, grid=grid_from_atoms([[0.0]]))
        ms_update(empty, np.array([0.0]))
        assert empty.log_stat == -np.inf

    def test_nonfinite_increments_rejected(self):
        state = MsState(prior=geometric_prior(0.1), grid=grid_from_atoms([[1.0]]))
        with pytest.raises(ValueError):
            ms_update(state, np.array([np.nan]))


class TestMsrRecursion:
    def test_first_step_is_lr(self):
        state = MsrState(grid=grid_from_atoms([[1.0]]), omega=0.0)
        msr_update(state, np.array([0.3]))
        assert state.log_stat == pytest.approx(0.3, abs=1e-13)

    def test_pure_drift(self):
        for omega in (0.0, 5.0):
            state = MsrState(grid=grid_from_atoms([[0.0]]), omega=omega)
            for n in range(1, 30):
                msr_update(state, np.array([0.0]))
                assert state.log_stat == pytest.approx(math.log(omega + n), abs=1e-12)

    def test_single_atom_equals_scalar_recursion_bitwise(self):
        grid = grid_from_atoms([[1.0]])
        inc = gaussian_increments(grid, 50, seed=3)
        state = MsrState(grid=grid, omega=2.0)
        scalar = np.float64(math.log(2.0))
        for row in inc:
            msr_update(state, row)
            scalar = np.logaddexp(scalar, 0.0) + row[0]
            assert state.log_stat == scalar

    def test_negative_headstart_rejected(self):
        with pytest.raises(ValueError):
            MsrState(grid=grid_from_atoms([[1.0]]), omega=-1.0)
        model = gaussian_iid_model(grid_from_atoms([[1.0]]))
        with pytest.raises(ValueError, match="omega must be >= 0"):
            run_detector("msr", model, geometric_prior(0.1), 1.0, [0.0], omega=-1.0)
        with pytest.raises(ValueError, match="omega must be >= 0"):
            brute_force_msr(np.array([[0.5], [0.2]]), grid_from_atoms([[1.0]]), omega=-1.0)


class TestSingleAtomCollapse:
    def test_ms_single_atom_equals_scalar_bitwise(self):
        rho = 0.17
        prior = geometric_prior(rho, q=0.05)
        grid = grid_from_atoms([[1.3]])
        inc = gaussian_increments(grid, 60, seed=9)
        state = MsState(prior=prior, grid=grid)
        log_num = np.float64(math.log(0.05))
        for n, row in enumerate(inc):
            ms_update(state, row)
            log_num = np.logaddexp(log_num, float(prior.log_pmf(n))) + row[0]
            scalar_stat = log_num - float(prior.log_tail(n + 1))
            assert state.log_stat == scalar_stat


class TestBruteForceOracles:
    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_ms_matches_recursion(self, q):
        prior = geometric_prior(0.1, q=q)
        grid = grid_from_atoms([[0.5], [1.0], [1.5]])
        inc = gaussian_increments(grid, 30, seed=17)
        state = MsState(prior=prior, grid=grid)
        for n in range(30):
            ms_update(state, inc[n])
            bf = brute_force_ms(inc[: n + 1], prior, grid)
            assert abs(state.log_stat - bf) < 1e-12

    def test_msr_matches_recursion(self):
        grid = grid_from_atoms([[0.5], [1.0]])
        inc = gaussian_increments(grid, 30, seed=18)
        for omega in (0.0, 3.0):
            state = MsrState(grid=grid, omega=omega)
            for n in range(30):
                msr_update(state, inc[n])
                bf = brute_force_msr(inc[: n + 1], grid, omega=omega)
                assert abs(state.log_stat - bf) < 1e-12

    def test_zero_increments_reproduce_closed_form(self):
        prior = geometric_prior(0.1)
        grid = grid_from_atoms([[0.0]])
        inc = np.zeros((20, 1))
        bf = brute_force_ms(inc, prior, grid)
        closed = (1.0 - 0.9**20) / 0.9**20
        assert bf == pytest.approx(math.log(closed), abs=1e-12)

    def test_single_atom_equals_scalar_direct_sum(self):
        # q = 0 single atom: the mixture collapses to the scalar statistic
        prior = geometric_prior(0.2)
        grid = grid_from_atoms([[0.8]])
        inc = gaussian_increments(grid, 12, seed=4)
        csum = np.cumsum(inc[:, 0])
        n = 12
        terms = [
            float(prior.log_pmf(k)) + (csum[n - 1] - (csum[k - 1] if k else 0.0))
            for k in range(n)
        ]
        direct = np.logaddexp.reduce(terms) - float(prior.log_tail(n))
        assert brute_force_ms(inc, prior, grid) == pytest.approx(direct, abs=1e-12)

    def test_refuses_large_n(self):
        grid = grid_from_atoms([[1.0]])
        inc = np.zeros((51, 1))
        with pytest.raises(ValueError):
            brute_force_ms(inc, geometric_prior(0.1), grid)
        with pytest.raises(ValueError):
            brute_force_msr(inc, grid)


class TestPosterior:
    def test_boundary_values(self):
        prior = geometric_prior(0.1)
        grid = grid_from_atoms([[0.0]])
        state = MsState(prior=prior, grid=grid)
        assert posterior_no_change(state) == 1.0  # S_0 = 0 at q = 0
        state.log_stat = math.log(19.0)
        assert posterior_no_change(state) == pytest.approx(0.05, abs=1e-15)

    def test_matches_enumeration_posterior(self):
        # P(no change yet | data) by literal Bayes enumeration over k
        prior = geometric_prior(0.15, q=0.1)
        grid = grid_from_atoms([[0.5], [1.0], [1.5]])
        for seed in range(20):
            inc = gaussian_increments(grid, 20, seed=100 + seed, shift=0.4)
            state = MsState(prior=prior, grid=grid)
            for n0 in range(20):
                ms_update(state, inc[n0])
                n = n0 + 1
                cum = np.cumsum(inc[:n], axis=0)
                log_lam = np.array(
                    [
                        np.logaddexp.reduce(
                            grid.log_weights + (cum[n - 1] - (cum[k - 1] if k else 0.0))
                        )
                        for k in range(n)
                    ]
                )
                log_pi = prior.log_pmf(np.arange(n))
                terms = np.concatenate(
                    (
                        [math.log(prior.q) + log_lam[0]],
                        log_pi + log_lam,
                        [float(prior.log_tail(n))],
                    )
                )
                log_denom = np.logaddexp.reduce(terms)
                enum = math.exp(float(prior.log_tail(n)) - log_denom)
                assert posterior_no_change(state) == pytest.approx(enum, abs=1e-9)


class TestRunDetector:
    def drift_model(self):
        return gaussian_iid_model(grid_from_atoms([[0.0]]))

    def test_immediate_stop(self):
        model = gaussian_iid_model(grid_from_atoms([[1.0]]))
        prior = geometric_prior(0.1)
        rec = run_detector(
            "ms", model, prior, -50.0, np.zeros(10), horizon=10
        )
        assert rec.stop_time == 1 and not rec.censored

    @pytest.mark.parametrize("kind", ["ms", "msr"])
    def test_overflowing_row_is_named(self, kind):
        # finite observations whose increments overflow: the loop names row 3
        model = gaussian_iid_model(grid_from_atoms([[2.0]]))
        rows = np.array([0.0, 0.0, -1e308, 0.0])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteIncrements) as info:
            run_detector(kind, model, geometric_prior(0.1), 50.0, rows)
        assert info.value.row == 3 and str(info.value).startswith("row 3: ")

    def test_drift_crossing_time(self):
        model = self.drift_model()
        rec = run_detector(
            "msr",
            model,
            geometric_prior(0.1),
            math.log(10.5),
            np.zeros(33),
            omega=0.0,
        )
        assert rec.stop_time == 11

    def test_unreachable_threshold_censors(self):
        model = gaussian_iid_model(grid_from_atoms([[1.0]]))
        rec = run_detector(
            "ms",
            model,
            geometric_prior(0.1),
            1e6,
            np.random.default_rng(0).standard_normal(200),
            horizon=200,
        )
        assert rec.censored and rec.stop_time is None

    def test_trajectory_recorded(self):
        model = self.drift_model()
        rec = run_detector(
            "msr",
            model,
            geometric_prior(0.1),
            math.log(5.5),
            np.zeros(20),
            record_trajectory=True,
        )
        assert rec.stop_time == 6
        assert rec.trajectory.shape == (6, 3)
        np.testing.assert_array_equal(rec.trajectory[:, 0], np.arange(1, 7))
        assert rec.trajectory[-1, 2] == 1.0 and np.all(rec.trajectory[:-1, 2] == 0.0)

    def test_censored_run_reports_last_statistic(self):
        grid = grid_from_atoms([[0.5], [1.0]])
        model = gaussian_iid_model(grid)
        prior = geometric_prior(0.1)
        x = np.random.default_rng(5).standard_normal(30)
        rec = run_detector("ms", model, prior, 1e6, x, record_trajectory=True)
        assert rec.censored and rec.stop_time is None
        state = MsState(prior=prior, grid=grid)
        for row in gaussian_increments(grid, 30, seed=5):
            ms_update(state, row)
        assert rec.log_stat_at_stop == state.log_stat == rec.trajectory[-1, 1]
        assert run_detector("ms", model, prior, 1e6, []).log_stat_at_stop is None

    @pytest.mark.parametrize("h", [1, 4, 9])
    def test_horizon_leaves_later_rows_unread(self, h):
        model = self.drift_model()
        rows = iter(np.arange(10.0))
        rec = run_detector("msr", model, geometric_prior(0.1), 1e6, rows, horizon=h)
        assert rec.censored and rec.log_stat_at_stop == pytest.approx(math.log(h))
        assert next(rows) == float(h)  # row h + 1

    def test_threshold_monotonicity_on_fixed_path(self):
        grid = grid_from_atoms([[0.5], [1.0]])
        model = gaussian_iid_model(grid)
        prior = geometric_prior(0.1)
        path = sample_path(model, 5, 1, 400, np.random.default_rng(77))
        stops = []
        for log_a in (0.5, 1.0, 2.0, 3.0, 4.0):
            rec = run_detector("ms", model, prior, log_a, path, horizon=400)
            stops.append(rec.stop_time if rec.stop_time else 10**9)
        assert all(a <= b for a, b in zip(stops, stops[1:]))


class TestMulticyclic:
    def drift_model(self):
        return gaussian_iid_model(grid_from_atoms([[0.0]]))

    def test_short_stream_no_alarms(self):
        model = self.drift_model()
        records = multicyclic_run(
            "msr", model, geometric_prior(0.1), math.log(10.5), np.zeros(8)
        )
        assert records == []

    def test_drift_restart_pattern(self):
        model = self.drift_model()
        records = multicyclic_run(
            "msr", model, geometric_prior(0.1), math.log(10.5), np.zeros(33)
        )
        assert [r.stop_time for r in records] == [11, 22, 33]

    def test_tail_has_no_statistic(self):
        model = self.drift_model()
        records, tail = _multicyclic_with_tail(
            "msr", model, geometric_prior(0.1), math.log(10.5), np.zeros(40),
            0.0, True,
        )
        assert [r.stop_time for r in records] == [11, 22, 33]
        assert tail.censored and tail.stop_time is None and tail.log_stat_at_stop is None
        np.testing.assert_array_equal(tail.trajectory[:, 0], np.arange(34, 41))

    def test_concatenation_property(self):
        grid = grid_from_atoms([[0.5], [1.0]])
        model = gaussian_iid_model(grid)
        prior = geometric_prior(0.1)
        rng = np.random.default_rng(31)
        stream = rng.standard_normal(600) + 0.6
        full = [
            r.stop_time
            for r in multicyclic_run("msr", model, prior, 3.0, stream)
        ]
        assert len(full) >= 2
        cut = full[0]  # split exactly at an alarm boundary
        first = [
            r.stop_time
            for r in multicyclic_run("msr", model, prior, 3.0, stream[:cut])
        ]
        second = [
            r.stop_time + cut
            for r in multicyclic_run("msr", model, prior, 3.0, stream[cut:])
        ]
        assert first + second == full


# ---------------------------------------------------------------------------
# The block-stepped alarm loop: what it reads, scores and raises.
# ---------------------------------------------------------------------------


def _recording_increments(model, monkeypatch):
    """Record (n0, rows) of every increment_block call on ``model``."""
    calls = []
    real = model.increment_block

    def recording(state, rows, x, n0):
        calls.append((n0, x.shape[1]))
        return real(state, rows, x, n0)

    monkeypatch.setattr(model, "increment_block", recording)
    return calls


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 130, 200])
def test_each_row_read_is_scored_once(rows, monkeypatch):
    """One increment_block call per block of BLOCK rows, each row scored once,
    in order; the restart after every row's alarm scores nothing again."""
    model = gaussian_iid_model(grid_from_atoms([[2.0]]))
    calls = _recording_increments(model, monkeypatch)
    # x = 3 with theta = 2 gives increments of exactly 4 = log A: every row alarms
    x = np.full(rows, 3.0)
    records = multicyclic_run("msr", model, geometric_prior(0.1), 4.0, x)
    assert [r.stop_time for r in records] == list(range(1, rows + 1))
    assert calls == [(n0, min(BLOCK, rows - n0)) for n0 in range(0, rows, BLOCK)]
    assert len(calls) == math.ceil(rows / BLOCK)


@pytest.mark.parametrize("horizon", [None, 1, 64, 65, 100])
def test_rows_read_stop_at_block_or_horizon(horizon, monkeypatch):
    """A single-shot run reads ahead to the end of its block, never past the
    horizon, and scores exactly the rows it reads."""
    model = gaussian_iid_model(grid_from_atoms([[2.0]]))
    calls = _recording_increments(model, monkeypatch)
    x = np.zeros(200)
    x[69] = 3.0  # the one alarm, at row 70
    rows = iter(x)
    rec = run_detector("msr", model, geometric_prior(0.1), 4.0, rows, horizon=horizon)
    read = 200 - len(list(rows))
    assert read == (2 * BLOCK if horizon is None else horizon)
    assert sum(length for _, length in calls) == read
    assert rec.stop_time == (70 if read >= 70 else None)


def test_rows_of_the_wrong_width_are_refused():
    """A block stacks its rows but never regroups them: two-value rows for a
    one-channel model are refused, not read as twice as many rows."""
    model = gaussian_iid_model(grid_from_atoms([[1.0]]))
    rows = [[0.0, 1.0], [2.0, 3.0]]
    with pytest.raises(ValueError):
        run_detector("msr", model, geometric_prior(0.1), 1e6, rows)
    with pytest.raises(ValueError):
        model.step(model.increment_state(1), rows[0], 0)


def _half_point_mass(k0: int) -> ChangePrior:
    """q = 1/2 and pi_{k0} = 1/2: the MS statistic can alarm, and Pi(n) = 0 for n > k0."""
    half = math.log(0.5)
    return ChangePrior(
        name="half_point_mass",
        q=0.5,
        mu=math.inf,
        mean=0.5 * k0,
        b=0.5 if k0 >= 1 else 0.0,
        log_pmf_fn=lambda k: np.where(k == k0, half, -np.inf),
        log_tail_fn=lambda n: np.where(n <= k0, half, -np.inf),
    )


def _per_row_exhausted_at(model, prior, log_a, data) -> int:
    """The row where one ms_update per row, restarted after every alarm, finds Pi = 0."""
    scorer = model.increment_state(1)
    state = MsState(prior=prior, grid=model.grid)
    for n, row in enumerate(data, start=1):
        try:
            ms_update(state, model.step(scorer, row, n - 1))
        except PriorSupportExhausted:
            return n
        if state.log_stat >= log_a:
            state = MsState(prior=prior, grid=model.grid)
    raise AssertionError("the prior's support never ran out")


@pytest.mark.parametrize(
    "prior,restarts,row",
    [
        (point_mass_prior(0), False, 1),
        (point_mass_prior(63), False, 64),
        (point_mass_prior(64), False, 65),
        (point_mass_prior(70), False, 71),
        # alarms at rows 5 and 10 restart the prior's clock
        (_half_point_mass(50), True, 61),
        (_half_point_mass(53), True, 64),
        (_half_point_mass(60), True, 71),
    ],
)
def test_prior_exhaustion_row(prior, restarts, row):
    """PriorSupportExhausted fires on the row the per-row updates find,
    counted from the last restart: the run over the rows before it ends
    without the error, the run that includes it raises."""
    model = gaussian_iid_model(grid_from_atoms([[1.0]]))
    data = np.zeros(140)
    data[:10] = 3.0  # increments 2.5 while the shift lasts, -0.5 after
    ms = MsState(prior=prior, grid=model.grid)
    log_a = 1e6
    if restarts:
        for x in data[:5]:
            ms_update(ms, model.increments_for([x])[0])
        log_a = ms.log_stat  # the statistic five rows into a cycle
    assert _per_row_exhausted_at(model, prior, log_a, data) == row
    args = ("ms", model, prior, log_a)
    records = multicyclic_run(*args, data[: row - 1])
    assert [r.stop_time for r in records] == ([5, 10] if restarts else [])
    with pytest.raises(PriorSupportExhausted, match=rf"Pi\({row - 10 * restarts}\) = 0"):
        multicyclic_run(*args, data[:row])
    if not restarts:
        assert run_detector(*args, data[: row - 1]).censored
        with pytest.raises(PriorSupportExhausted):
            run_detector(*args, data)


@pytest.mark.parametrize("k0", [50, 53, 60])
def test_prior_exhaustion_names_its_row(k0):
    """The alarm loop's PriorSupportExhausted carries the step n on the
    prior's clock and the stream's row, which differ after a restart."""
    model = gaussian_iid_model(grid_from_atoms([[1.0]]))
    data = np.zeros(140)
    data[:10] = 3.0  # alarms at rows 5 and 10 under the second threshold
    prior = _half_point_mass(k0)
    ms = MsState(prior=prior, grid=model.grid)
    for x in data[:5]:
        ms_update(ms, model.increments_for([x])[0])
    for log_a, restarts in ((1e6, 0), (ms.log_stat, 2)):
        with pytest.raises(PriorSupportExhausted) as info:
            multicyclic_run("ms", model, prior, log_a, data)
        assert (info.value.n, info.value.row) == (k0 + 1, k0 + 1 + 5 * restarts)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
def test_weight_scale_invariance(scale, seed):
    # scaling all weights by a constant and renormalizing leaves the
    # statistics unchanged
    atoms = [[0.5], [1.0], [1.5]]
    base = np.array([0.2, 0.3, 0.5])
    g1 = grid_from_atoms(atoms, weights=base)
    scaled = base * scale
    g2 = grid_from_atoms(atoms, weights=scaled / scaled.sum())
    inc = gaussian_increments(g1, 25, seed=seed)
    prior = heavy_tail_prior(2.0)
    s1 = MsState(prior=prior, grid=g1)
    s2 = MsState(prior=prior, grid=g2)
    r1 = MsrState(grid=g1, omega=1.0)
    r2 = MsrState(grid=g2, omega=1.0)
    for row in inc:
        ms_update(s1, row)
        ms_update(s2, row)
        msr_update(r1, row)
        msr_update(r2, row)
        assert s1.log_stat == pytest.approx(s2.log_stat, abs=1e-12)
        assert r1.log_stat == pytest.approx(r2.log_stat, abs=1e-12)


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


# -inf, exact ties and +-700 are drawn often; logaddexp of two equal values
# and of -inf with anything are its edge cases
_LOG_VALUES = st.one_of(
    st.sampled_from([-np.inf, -700.0, -1.0, 0.0, 1.0, 700.0]),
    st.floats(-700.0, 700.0),
)


@st.composite
def _advance_inputs(draw):
    k = draw(st.integers(1, 9))
    b = draw(st.integers(1, 64))
    log_num = draw(hnp.arrays(np.float64, (k, b), elements=_LOG_VALUES))
    ell = draw(hnp.arrays(np.float64, (k, b), elements=_LOG_VALUES))
    log_w_values = st.one_of(st.just(-np.inf), st.floats(-50.0, 0.0))
    log_w = draw(hnp.arrays(np.float64, k, elements=log_w_values))
    log_pi_prev = draw(st.one_of(st.just(-np.inf), st.just(0.0), st.floats(-700.0, 0.0)))
    log_tail_n = draw(st.one_of(st.just(0.0), st.floats(-700.0, 0.0)))
    return log_num, ell, log_w, log_pi_prev, log_tail_n


@settings(max_examples=300, deadline=None)
@given(_advance_inputs())
@example((np.full((3, 2), -np.inf), np.zeros((3, 2)), np.log([0.2, 0.3, 0.5]), -np.inf, 0.0))
@example((np.full((5, 4), 700.0), np.full((5, 4), -700.0), np.zeros(5), 0.0, 0.0))
def test_advance_atoms_first_matches_atoms_last(inputs):
    log_num, ell, log_w, log_pi_prev, log_tail_n = inputs
    # the atoms-last form the recursion had before, kept as the reference
    ref_num = np.logaddexp(log_num.T, log_pi_prev) + ell.T
    ref_stat = np.logaddexp.reduce(ref_num + log_w, axis=-1) - log_tail_n

    new_num = advance(log_num, ell, log_pi_prev)
    new_stat = log_statistic(new_num, log_w[:, None], log_tail_n)
    assert new_num.shape == log_num.shape and new_stat.shape == (log_num.shape[1],)
    np.testing.assert_array_equal(_bits(new_num), _bits(ref_num.T))
    np.testing.assert_array_equal(_bits(new_stat), _bits(ref_stat))

    # one stream, (K,) state and (K,) weights, is column b of the batch
    for b in range(log_num.shape[1]):
        one_num = advance(log_num[:, b], ell[:, b], log_pi_prev)
        one_stat = log_statistic(one_num, log_w, log_tail_n)
        np.testing.assert_array_equal(_bits(one_num), _bits(new_num[:, b]))
        assert _bits(one_stat) == _bits(new_stat[b])


@settings(max_examples=100, deadline=None)
@given(_advance_inputs())
def test_statistic_of_a_transposed_buffer(inputs):
    """The alarm loop mixes its (rows, K) buffer through a transposed view;
    the statistic has the bits of the same values held atoms first."""
    log_num, _, log_w, _, log_tail_n = inputs
    rows_first = np.ascontiguousarray(log_num.T)
    np.testing.assert_array_equal(
        _bits(log_statistic(rows_first.T, log_w[:, None], log_tail_n)),
        _bits(log_statistic(log_num, log_w[:, None], log_tail_n)),
    )


_WINDOW_HORIZON = 100_000 + BLOCK


@pytest.mark.parametrize(
    "prior",
    [
        geometric_prior(0.01, q=0.3),
        heavy_tail_prior(1.5),
        heavy_tail_prior(3.0, q=0.2),
        point_mass_prior(70),
    ],
    ids=["geometric", "heavy_tail_1.5", "heavy_tail_3", "point_mass"],
)
def test_prior_window_matches_tables(prior):
    """Each MS window of prior_window holds the bits of the same slice of the
    full tables, far out in the tail and across a support's end too; every
    MSR window is zeros, pi_k = 1 and Pi(n) = 1."""
    log_pi = prior.log_pmf_array(_WINDOW_HORIZON)
    log_tail = prior.log_tail_array(_WINDOW_HORIZON)
    clocks = [0, 1, 5, 63, 64, 65, 66, 69, 70, 71, 1000, 99_999, 100_000]
    for clock in clocks:
        for size in (1, 7, BLOCK):
            window_pi, window_tail = prior_window("ms", prior, clock, size)
            np.testing.assert_array_equal(_bits(window_pi), _bits(log_pi[clock : clock + size]))
            np.testing.assert_array_equal(
                _bits(window_tail), _bits(log_tail[clock + 1 : clock + size + 1])
            )
            for window in prior_window("msr", prior, clock, size):
                np.testing.assert_array_equal(_bits(window), _bits(np.zeros(size)))
    if prior.name == "point_mass":  # the windows from clock 65 cross Pi(71) = 0
        _, tail = prior_window("ms", prior, 65, 7)
        assert np.isfinite(tail).tolist() == [True] * 5 + [False] * 2


def test_prior_support_exhausted_message_and_pickle():
    """The exception builds its one message from n, and a worker process
    sends it back with its n and row."""
    exc = PriorSupportExhausted(71, row=200)
    assert str(exc) == "prior tail Pi(71) = 0; the MS recursion cannot continue"
    back = pickle.loads(pickle.dumps(exc))
    assert (str(back), back.n, back.row) == (str(exc), 71, 200)


def _same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.stop_time, a.censored) == (b.stop_time, b.censored)
        assert (a.log_stat_at_stop is None) == (b.log_stat_at_stop is None)
        if a.log_stat_at_stop is not None:
            assert _bits(a.log_stat_at_stop) == _bits(b.log_stat_at_stop)
        if a.trajectory is None or b.trajectory is None:
            assert a.trajectory is b.trajectory is None
        else:
            assert a.trajectory.shape == b.trajectory.shape
            np.testing.assert_array_equal(_bits(a.trajectory), _bits(b.trajectory))


def _shifted_stream(model_name):
    """(model, rows) with shifts that alarm at rows that are no block edge."""
    rng = np.random.default_rng(11)
    if model_name == "scalar":
        model = gaussian_iid_model(grid_from_atoms([[0.5], [1.0], [2.0]]))
        rows = rng.standard_normal(300)
    else:
        spec = ArChannelSpec(
            ar_coeffs=((0.5, -0.2), (0.3,)),
            signals=(HarmonicSignal(1.0, 0.3, 0.0), HarmonicSignal(0.8, 0.0, math.pi / 2)),
        )
        model = multichannel_ar_model(spec, grid_from_atoms([[0.5, 0.5], [1.0, 1.0]]))
        rows = rng.standard_normal((300, 2))
    for start in (20, 90, 150, 230):
        rows[start : start + 15] += 3.0
    return model, rows


@pytest.mark.parametrize("horizon", [None, 100, 130, 250])
@pytest.mark.parametrize("kind", ["ms", "msr"])
@pytest.mark.parametrize("model_name", ["scalar", "channels"])
def test_sliced_array_and_iterator_give_the_same_records(model_name, kind, horizon):
    """An ndarray is sliced block by block and any other iterable is read
    with islice; both give the same records, bit for bit."""
    model, rows = _shifted_stream(model_name)
    prior = geometric_prior(0.01, q=0.1)
    args = (kind, model, prior, 4.0)
    omega = 0.5  # MSR's head start; MS has none

    def both(run, **kw):
        return run(*args, rows, omega=omega, **kw), run(*args, (r for r in rows), omega=omega, **kw)

    cycles = both(multicyclic_run, record_trajectory=True)
    _same_records(*cycles)
    stops = [r.stop_time for r in cycles[0]]
    assert len(stops) >= 4 and any(t % BLOCK for t in stops)  # a restart inside a block
    _same_records(*both(multicyclic_run))
    for flag in (False, True):
        single = both(run_detector, horizon=horizon, record_trajectory=flag)
        _same_records([single[0]], [single[1]])
        records, tails = zip(
            *(
                _multicyclic_with_tail(*args, obs, omega, flag, horizon=horizon)
                for obs in (rows, (r for r in rows))
            )
        )
        _same_records(*records)
        _same_records([tails[0]], [tails[1]])
    censored = [
        run_detector(*args[:3], 1e3, obs, horizon=horizon, record_trajectory=True, omega=omega)
        for obs in (rows, (r for r in rows))
    ]
    assert censored[0].censored and censored[0].log_stat_at_stop is not None
    _same_records(censored[:1], censored[1:])


# ---------------------------------------------------------------------------
# Stateless models: a stream's history lives in its alarm loop, not in the
# model, so a run leaves the model as it found it and another run on the
# same model, even in the middle of the first, changes nothing.
# ---------------------------------------------------------------------------


def _ar_stream_experiment():
    """The shipped ``detect`` experiment and a 3000-row stream from its model,
    with a change at row 1000 to the first atom."""
    exp = load_experiment(str(ROOT / "configs" / "detect_ar_stream.json"))
    data = sample_path(exp.model, 1000, 0, 3000, np.random.default_rng(17))
    return exp, data


def test_a_run_leaves_the_model_unchanged():
    """A model pickles to the same bytes before and after a multicyclic run:
    nothing of the stream is kept in it, so no worker payload grows with it."""
    exp, data = _ar_stream_experiment()
    before = pickle.dumps(exp.model)
    records = multicyclic_run(exp.detector, exp.model, exp.prior, exp.threshold.log_threshold, data)
    assert records, "the stream should alarm"
    assert pickle.dumps(exp.model) == before


def test_a_run_nested_in_a_stream_changes_nothing():
    """A multicyclic run whose observation iterator runs ``run_detector`` on the
    same model at row 1000 equals a solo run bit for bit, trajectory included."""
    exp, data = _ar_stream_experiment()
    args = (exp.detector, exp.model, exp.prior, exp.threshold.log_threshold)

    def rows():
        for n, row in enumerate(data, start=1):
            if n == 1000:
                assert not run_detector(*args, data).censored
            yield row

    nested = multicyclic_run(*args, rows(), record_trajectory=True)
    solo = multicyclic_run(*args, iter(data), record_trajectory=True)
    assert len(solo) >= 2
    _same_records(nested, solo)
