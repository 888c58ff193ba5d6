import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tradeflow import analytic
from tradeflow.analytic import (
    RegimeSegment,
    simulate_analytic,
    solve_a_exports,
    solve_b_exports,
    solve_bilateral,
    solve_no_exchange,
)
from tradeflow.core import GoodEconomy, NormalizedState, Regime
from tradeflow.exchange import rhs
from tradeflow.integrator import DepletionPolicy, SolverOptions, integrate_with_events

SOLVERS = {
    Regime.NO_EXCHANGE: solve_no_exchange,
    Regime.A_EXPORTS: solve_a_exports,
    Regime.B_EXPORTS: solve_b_exports,
    Regime.BILATERAL: solve_bilateral,
}


def _random_econ(rng, sigma_min=0.1):
    return GoodEconomy(*rng.uniform(0.0, 5.0, size=4), rng.uniform(sigma_min, 5.0))


# ---------------------------------------------------------------- solvers

def test_no_exchange_moves_along_the_net_rates():
    econ = GoodEconomy(p_a=1.1, p_b=0.9, c_a=1.0, c_b=1.0, sigma=3.0)
    out = solve_no_exchange(NormalizedState(0.5, 0.5), econ, 2.0)
    assert_allclose([out.eta_a, out.eta_b], [0.7, 0.3], rtol=0, atol=1e-15)


def test_no_exchange_balanced_is_constant():
    econ = GoodEconomy(1.0, 2.0, 1.0, 2.0, 0.5)
    s0 = NormalizedState(0.3, 0.9)
    assert solve_no_exchange(s0, econ, 17.0) == s0


def test_a_exports_matches_frozen_value():
    # eta_a(t) = 1.25 + 0.25*exp(-2 t) from eta_a0 = 1.5
    econ = GoodEconomy(p_a=1.0, p_b=0.0, c_a=0.5, c_b=0.0, sigma=2.0)
    out = solve_a_exports(NormalizedState(1.5, 0.2), econ, 1.0)
    assert_allclose(out.eta_a, 1.25 + 0.25 * math.exp(-2.0), rtol=0, atol=1e-15)


def test_a_exports_equilibrium_is_constant():
    econ = GoodEconomy(p_a=1.0, p_b=0.0, c_a=0.5, c_b=0.0, sigma=2.0)
    eq = (econ.net_a + econ.sigma) / econ.sigma
    for dt in (0.0, 0.7, 5.0):
        assert solve_a_exports(NormalizedState(eq, 0.4), econ, dt).eta_a == eq


def test_solvers_identity_at_dt_zero():
    econ = GoodEconomy(1.3, 0.4, 0.2, 1.1, 0.8)
    s0 = NormalizedState(1.7, 1.2)
    for solver in SOLVERS.values():
        assert solver(s0, econ, 0.0) == s0


def test_exponential_solvers_reject_sigma_zero():
    econ = GoodEconomy(1.0, 1.0, 0.5, 0.5, 0.0)
    s0 = NormalizedState(1.5, 1.5)
    for solver in (solve_a_exports, solve_b_exports, solve_bilateral):
        with pytest.raises(ValueError):
            solver(s0, econ, 1.0)


def test_solvers_reject_negative_dt():
    econ = GoodEconomy(1.0, 1.0, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        solve_no_exchange(NormalizedState(0.5, 0.5), econ, -1.0)


def test_b_exports_is_the_mirror_of_a_exports():
    rng = np.random.default_rng(7)
    for _ in range(50):
        econ = _random_econ(rng)
        s0 = NormalizedState(rng.uniform(0, 3), rng.uniform(0, 3))
        dt = rng.uniform(0, 4)
        mirrored = solve_a_exports(s0.swapped(), econ.swapped(), dt).swapped()
        assert solve_b_exports(s0, econ, dt) == mirrored


def test_b_exports_equilibrium_component():
    econ = GoodEconomy(p_a=0.0, p_b=1.0, c_a=0.0, c_b=0.5, sigma=2.0)
    eq = (econ.net_b + econ.sigma) / econ.sigma
    assert solve_b_exports(NormalizedState(0.3, eq), econ, 2.5).eta_b == eq


def test_bilateral_symmetric_grows_linearly():
    # equal net rates and no gap: both stocks rise together at half the total
    econ = GoodEconomy(p_a=2.0, p_b=2.0, c_a=1.0, c_b=1.0, sigma=1.5)
    out = solve_bilateral(NormalizedState(1.5, 1.5), econ, 2.0)
    assert_allclose([out.eta_a, out.eta_b], [3.5, 3.5], rtol=0, atol=1e-14)


def test_bilateral_frozen_example():
    # d* = 0.5 equals d0, so the gap stays put and the total grows at rate 1
    econ = GoodEconomy(p_a=2.0, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    out = solve_bilateral(NormalizedState(2.0, 1.5), econ, 1.0)
    assert_allclose([out.eta_a, out.eta_b], [2.5, 2.0], rtol=0, atol=1e-14)


def test_bilateral_total_is_linear():
    rng = np.random.default_rng(11)
    for _ in range(50):
        econ = _random_econ(rng)
        s0 = NormalizedState(rng.uniform(1, 3), rng.uniform(1, 3))
        dt = rng.uniform(0, 3)
        out = solve_bilateral(s0, econ, dt)
        expected = (s0.eta_a + s0.eta_b) + (econ.net_a + econ.net_b) * dt
        assert abs((out.eta_a + out.eta_b) - expected) <= 1e-12


def test_semigroup_property_within_each_regime():
    rng = np.random.default_rng(3)
    for _ in range(50):
        econ = _random_econ(rng)
        s0 = NormalizedState(rng.uniform(0, 3), rng.uniform(0, 3))
        t1, t2 = rng.uniform(0, 2, size=2)
        for solver in SOLVERS.values():
            two_leg = solver(solver(s0, econ, t1), econ, t2)
            one_leg = solver(s0, econ, t1 + t2)
            assert abs(two_leg.eta_a - one_leg.eta_a) <= 1e-12
            assert abs(two_leg.eta_b - one_leg.eta_b) <= 1e-12


def test_closed_form_derivative_matches_rhs_at_zero():
    # Richardson-extrapolated forward difference of each solver at dt = 0
    rng = np.random.default_rng(5)
    cases = [
        (Regime.NO_EXCHANGE, (0.5, 0.7)),
        (Regime.A_EXPORTS, (1.6, 0.7)),
        (Regime.B_EXPORTS, (0.7, 1.6)),
        (Regime.BILATERAL, (1.6, 2.1)),
    ]
    h = 1e-5
    for _ in range(20):
        econ = _random_econ(rng, sigma_min=0.2)
        for regime, (ea, eb) in cases:
            s0 = NormalizedState(ea, eb)
            solver = SOLVERS[regime]

            def diff(step):
                out = solver(s0, econ, step)
                return (
                    (out.eta_a - s0.eta_a) / step,
                    (out.eta_b - s0.eta_b) / step,
                )

            d_h = diff(h)
            d_h2 = diff(h / 2)
            approx = (2 * d_h2[0] - d_h[0], 2 * d_h2[1] - d_h[1])
            exact = rhs(s0, econ)
            assert abs(approx[0] - exact[0]) <= 1e-8
            assert abs(approx[1] - exact[1]) <= 1e-8


# ---------------------------------------------------------------- simulate

def test_simulate_locates_the_linear_crossing():
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    assert [seg.regime for seg in traj.segments[:2]] == [
        Regime.NO_EXCHANGE,
        Regime.A_EXPORTS,
    ]
    assert abs(traj.segments[0].t_end - 2.0) <= 1e-8
    assert abs(traj.segments[0].state_end.eta_a - 1.0) <= 1e-9


def test_simulate_sigma_zero_stays_linear_but_tracks_regimes():
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=0.0)
    traj = simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    assert [seg.regime for seg in traj.segments] == [
        Regime.NO_EXCHANGE,
        Regime.A_EXPORTS,
    ]
    ts = np.linspace(0.0, 10.0, 101)
    states = traj.states_at(ts)
    assert_allclose(states[:, 0], 0.5 + 0.25 * ts, rtol=0, atol=1e-9)
    assert_allclose(states[:, 1], 0.5, rtol=0, atol=1e-12)


def test_simulate_equilibrium_is_a_single_segment():
    # the cooperative steady state: A overproduces by exactly the outflow
    econ = GoodEconomy(p_a=2.0, p_b=1.0, c_a=1.0, c_b=2.0, sigma=2.0)
    traj = simulate_analytic(NormalizedState(1.5, 1.0), econ, 50.0)
    assert len(traj.segments) == 1
    assert traj.segments[-1].state_end == NormalizedState(1.5, 1.0)


def test_trajectory_is_continuous_and_conservative():
    rng = np.random.default_rng(19)
    for _ in range(20):
        econ = _random_econ(rng)
        s0 = NormalizedState(rng.uniform(0, 3), rng.uniform(0, 3))
        traj = simulate_analytic(s0, econ, 10.0)
        assert traj.segments[0].t_start == 0.0
        assert traj.segments[-1].t_end == 10.0
        for prev, nxt in zip(traj.segments, traj.segments[1:]):
            assert prev.t_end == nxt.t_start
            assert prev.state_end == nxt.state_start  # same stored value
        ts = np.linspace(0.0, 10.0, 257)
        states = traj.states_at(ts)
        total0 = s0.eta_a + s0.eta_b
        expected = total0 + (econ.net_a + econ.net_b) * ts
        assert np.abs(states.sum(axis=1) - expected).max() <= 1e-9


def test_trajectory_point_and_array_eval_agree():
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    ts = np.linspace(0.0, 10.0, 41)
    states = traj.states_at(ts)
    for t, row in zip(ts, states):
        point = traj.state_at(float(t))
        assert abs(point.eta_a - row[0]) <= 1e-12
        assert abs(point.eta_b - row[1]) <= 1e-12


def test_states_at_uses_the_owner_rule_of_segment_at():
    rng = np.random.default_rng(29)
    for _ in range(50):
        econ = _random_econ(rng)
        traj = simulate_analytic(NormalizedState(rng.uniform(0, 3), rng.uniform(0, 3)),
                                 econ, 10.0)
        ts = np.concatenate([rng.uniform(0.0, 10.0, 64), [0.0, 10.0],
                             [seg.t_start for seg in traj.segments]])
        rng.shuffle(ts)
        owner = traj.segment_indices(ts)
        assert [traj.segments[i] for i in owner] == [traj.segment_at(t) for t in ts.tolist()]
        for i, t, row in zip(owner.tolist(), ts.tolist(), traj.states_at(ts).tolist()):
            seg = traj.segments[i]
            tau = np.array([t - seg.t_start])
            assert row == [seg.form_a.value_array(tau)[0], seg.form_b.value_array(tau)[0]]


def test_states_at_matches_per_time_evaluation_bit_for_bit():
    # unsorted times with repeats, exact segment starts and both ends of the
    # horizon, against one segment_at(t) evaluation per time
    rng = np.random.default_rng(31)
    multi = 0
    for _ in range(40):
        traj = simulate_analytic(NormalizedState(*rng.uniform(0, 3, size=2)),
                                 _random_econ(rng), 10.0)
        multi += len(traj.segments) > 1
        starts = [seg.t_start for seg in traj.segments]
        drawn = rng.uniform(0.0, 10.0, 48)
        ts = np.concatenate([drawn, drawn[:8], starts, starts, [0.0, 10.0, 10.0]])
        rng.shuffle(ts)
        rows = []
        for t in ts.tolist():
            seg = traj.segment_at(t)
            tau = np.array([t - seg.t_start])
            rows.append([seg.form_a.value_array(tau)[0], seg.form_b.value_array(tau)[0]])
        assert traj.states_at(ts).tobytes() == np.array(rows).tobytes()
        assert traj.states_at(np.sort(ts)).tobytes() == np.array(rows)[np.argsort(ts)].tobytes()
    assert multi >= 20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, 10.5])
def test_states_at_rejects_times_outside_the_horizon(bad):
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    with pytest.raises(ValueError, match=r"sample times outside \[0, horizon\]"):
        traj.states_at(np.array([0.5, bad, 1.0]))
    with pytest.raises(ValueError):
        traj.state_at(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, 10.5])
@pytest.mark.parametrize("layout", [
    "X", "X 0.5 1.0", "0.5 X 1.0", "0.5 1.0 X", "X 1.0 0.5", "1.0 X 0.5", "1.0 0.5 X",
])
def test_states_at_rejects_a_bad_time_wherever_it_sits(bad, layout):
    # alone, first, middle and last, among sorted and unsorted valid times
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    times = np.array([bad if word == "X" else float(word) for word in layout.split()])
    with pytest.raises(ValueError, match=r"sample times outside \[0, horizon\]"):
        traj.states_at(times)


def test_states_at_of_no_times_is_empty():
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    assert traj.states_at(np.array([])).shape == (0, 2)


@pytest.mark.parametrize("times", [0.5, np.float64(0.5), np.array([[0.5, 1.0]])])
def test_states_at_rejects_times_that_are_not_one_dimensional(times):
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    with pytest.raises(ValueError, match="sample times must be a one-dimensional array"):
        traj.states_at(times)


def test_chatter_at_the_threshold_stops_at_the_segment_cap(monkeypatch):
    # A's export equilibrium 1 + 0.25/1e308 rounds to the threshold, so the
    # closed form flips regime about every 6e-11 time units
    built = []

    def counting(*args):
        built.append(args[0])
        return RegimeSegment(*args)

    monkeypatch.setattr(analytic, "RegimeSegment", counting)
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1e308)
    with pytest.raises(RuntimeError, match="chatter"):
        simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    assert len(built) <= 10_000


def test_simulate_matches_numeric_oracle():
    rng = np.random.default_rng(23)
    opts = SolverOptions(horizon=10.0, step=1e-3,
                         depletion_policy=DepletionPolicy.CONTINUE)
    for _ in range(20):
        econ = _random_econ(rng, sigma_min=0.0)
        s0 = NormalizedState(rng.uniform(0, 3), rng.uniform(0, 3))
        traj = simulate_analytic(s0, econ, 10.0)
        series = integrate_with_events(s0, econ, opts)
        ref = traj.states_at(series.times)
        sup = max(
            np.abs(series.eta_a - ref[:, 0]).max(),
            np.abs(series.eta_b - ref[:, 1]).max(),
        )
        assert sup <= 1e-6


def test_simulate_validates_arguments():
    econ = GoodEconomy(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        simulate_analytic(NormalizedState(0.5, 0.5), econ, 0.0)
    with pytest.raises(ValueError):
        simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0, event_tol=0.0)


def test_boundary_start_with_zero_drift_stays_below():
    # eta_b starts exactly at threshold with zero derivative: assigned below,
    # no event fires, and the state never moves
    econ = GoodEconomy(p_a=2.0, p_b=1.0, c_a=1.0, c_b=2.0, sigma=2.0)
    traj = simulate_analytic(NormalizedState(1.5, 1.0), econ, 20.0)
    assert traj.segments[0].regime is Regime.A_EXPORTS
    assert len(traj.segments) == 1


def test_boundary_start_with_positive_drift_counts_as_above():
    # eta_a starts at threshold and rises: the first segment is already
    # an exporting regime
    econ = GoodEconomy(p_a=2.0, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(1.0, 0.5), econ, 5.0)
    assert traj.segments[0].regime is Regime.A_EXPORTS


def test_crossing_bisection_evaluates_each_time_once(monkeypatch):
    # bisect keeps the excess that `past` returned at the bracket's upper end
    # and hands it to `settled`: each crossing bisection evaluates the form
    # (one exp each) once per distinct time it tests
    exp_calls = 0
    real_exp = math.exp

    def counting_exp(x):
        nonlocal exp_calls
        exp_calls += 1
        return real_exp(x)

    bisections = []

    def watched_bisect(past, lo, hi, tol=0.0, settled=None, at_hi=None):
        if settled is None:  # the extremum search, not a crossing
            return analytic_bisect(past, lo, hi, tol, at_hi=at_hi)
        times = set()

        def seen(t):
            times.add(t)
            return past(t)

        before = exp_calls
        found = analytic_bisect(seen, lo, hi, tol, settled, at_hi)
        bisections.append((exp_calls - before, len(times)))
        return found

    analytic_bisect = analytic.bisect
    monkeypatch.setattr(math, "exp", counting_exp)
    monkeypatch.setattr(analytic, "bisect", watched_bisect)
    rng = np.random.default_rng(31)
    for _ in range(200):
        econ = _random_econ(rng)
        s0 = NormalizedState(*rng.uniform(0.6, 1.4, size=2))
        simulate_analytic(s0, econ, 2.0, event_tol=float(rng.choice([1e-10, 1e-6])))
    assert len(bisections) >= 50
    assert [calls for calls, _ in bisections] == [distinct for _, distinct in bisections]
