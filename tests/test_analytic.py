import bisect
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tradeflow import analytic
from tradeflow.analytic import (
    ExpLinear,
    RegimeSegment,
    simulate_analytic,
    solve_a_exports,
    solve_b_exports,
    solve_bilateral,
    solve_no_exchange,
)
from tradeflow.core import GoodEconomy, NormalizedState, Regime
from tradeflow.exchange import GUARD_STATE_TOL, rhs
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
        mirror = solve_a_exports(NormalizedState(s0.eta_b, s0.eta_a),
                                 GoodEconomy(econ.p_b, econ.p_a, econ.c_b, econ.c_a,
                                             econ.sigma), dt)
        assert solve_b_exports(s0, econ, dt) == NormalizedState(mirror.eta_b, mirror.eta_a)


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


def _row_at(traj, i, t):
    """The stocks at t on segment i, one time at a time: the segment's stored
    start state at its start, else its forms on a one-element array."""
    seg = traj.segments[i]
    if t == seg.t_start:
        return [seg.state_start.eta_a, seg.state_start.eta_b]
    tau = np.array([t - seg.t_start])
    return [seg.form_a.value(tau, np)[0], seg.form_b.value(tau, np)[0]]


def test_the_last_segment_ends_at_exactly_the_horizon():
    # not at t + (horizon - t), which rounds off the horizon for some t; every
    # earlier segment ends at a crossing, so adjacent segments differ in regime
    rng = np.random.default_rng(43)
    off = 0
    for _ in range(200):
        horizon = rng.uniform(0.5, 10.0)
        traj = simulate_analytic(NormalizedState(*rng.uniform(0.5, 1.5, size=2)),
                                 _random_econ(rng), horizon)
        segs = traj.segments
        assert segs[-1].t_end == horizon
        assert all(a.regime is not b.regime for a, b in zip(segs, segs[1:]))
        off += segs[-1].t_start + (horizon - segs[-1].t_start) != horizon
    assert off >= 3


def test_trajectory_point_and_array_eval_agree():
    # ExpLinear.value with math against the rows (numpy) on the segment that
    # segment_indices picks; at a segment start both are its stored state
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    assert len(traj.segments) > 1
    ts = np.concatenate([np.linspace(0.0, 10.0, 41), [seg.t_start for seg in traj.segments]])
    states = traj.states_at(ts)
    for i, t, row in zip(traj.segment_indices(ts).tolist(), ts.tolist(), states.tolist()):
        seg = traj.segments[i]
        if t == seg.t_start:
            assert row == [seg.state_start.eta_a, seg.state_start.eta_b]
        else:
            assert abs(seg.form_a.value(t - seg.t_start) - row[0]) <= 1e-12
            assert abs(seg.form_b.value(t - seg.t_start) - row[1]) <= 1e-12
    # state_at is a one-element states_at, at interior times and segment starts
    assert [traj.state_at(t) for t in ts.tolist()] == [NormalizedState(*row)
                                                       for row in states.tolist()]


def test_states_at_uses_the_owner_rule_of_segment_indices():
    # segment_indices against the scalar rule (the last segment starting at
    # or before t), and each row against one evaluation on that segment
    rng = np.random.default_rng(29)
    for _ in range(50):
        econ = _random_econ(rng)
        traj = simulate_analytic(NormalizedState(rng.uniform(0, 3), rng.uniform(0, 3)),
                                 econ, 10.0)
        starts = [seg.t_start for seg in traj.segments]
        ts = np.concatenate([rng.uniform(0.0, 10.0, 64), [0.0, 10.0], starts])
        rng.shuffle(ts)
        owner = traj.segment_indices(ts).tolist()
        assert owner == [bisect.bisect_right(starts, t) - 1 for t in ts.tolist()]
        for i, t, row in zip(owner, ts.tolist(), traj.states_at(ts).tolist()):
            assert row == _row_at(traj, i, t)


def test_states_at_matches_per_time_evaluation_bit_for_bit():
    # unsorted times with repeats, exact segment starts and both ends of the
    # horizon, against one evaluation per time on the segment that owns it
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
        rows = np.array([_row_at(traj, i, t)
                         for i, t in zip(traj.segment_indices(ts).tolist(), ts.tolist())])
        assert traj.states_at(ts).tobytes() == rows.tobytes()
        assert traj.states_at(np.sort(ts)).tobytes() == rows[np.argsort(ts)].tobytes()
    assert multi >= 20
    # the horizon row is the form, not the stored end state (math.exp): on a
    # pure exponential np.exp and math.exp differ in the last bit at some of
    # these horizons (8 of 200 on an AVX-512 host)
    form = ExpLinear(0.0, 0.0, 1.0, 1.0)
    for horizon in np.linspace(0.01, 50.0, 200).tolist():
        end = NormalizedState(form.value(horizon), form.value(horizon))
        segment = RegimeSegment(Regime.A_EXPORTS, 0.0, horizon, NormalizedState(1.0, 1.0),
                                end, form, form)
        traj = analytic.PiecewiseTrajectory((segment,), horizon)
        ts = np.array([horizon, 0.0, horizon])
        rows = np.array([_row_at(traj, 0, t) for t in ts.tolist()])
        assert traj.states_at(ts).tobytes() == rows.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, 10.5])
def test_states_at_rejects_times_outside_the_horizon(bad):
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(0.5, 0.5), econ, 10.0)
    with pytest.raises(ValueError, match=r"sample times outside \[0, horizon\]"):
        traj.states_at(np.array([0.5, bad, 1.0]))
    with pytest.raises(ValueError, match=r"sample times outside \[0, horizon\]"):
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


def test_a_trajectory_starts_at_zero():
    # states_at and segment_indices give t = 0 to the first segment
    form = ExpLinear(0.0, 0.0, 1.0, 1.0)
    state = NormalizedState(1.0, 1.0)
    late = RegimeSegment(Regime.A_EXPORTS, 0.5, 1.0, state, state, form, form)
    with pytest.raises(ValueError, match="trajectory must start at t=0, got 0.5"):
        analytic.PiecewiseTrajectory((late,), 1.0)
    with pytest.raises(ValueError, match="at least one segment"):
        analytic.PiecewiseTrajectory((), 1.0)


@pytest.mark.parametrize("t_start, t_end", [(0.5, 0.5), (0.5, 0.25), (0.0, math.nan)])
def test_a_segment_must_span_positive_time(t_start, t_end):
    form = ExpLinear(1.0, 0.0, 0.0, 0.0)
    state = NormalizedState(1.0, 1.0)
    with pytest.raises(ValueError, match="segment must span positive time"):
        RegimeSegment(Regime.NO_EXCHANGE, t_start, t_end, state, state, form, form)


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


def _watched_runs(monkeypatch):
    """The 200 seeded draws with `_bracket`, `bisect` and `ExpLinear.value`
    watched. Per run: the number of segments that end before the horizon, and
    per bisection the settle rule, the number of stocks bracketed in its segment
    and the (time, form evaluations) of each test it ran."""
    value_calls = 0
    real_value = ExpLinear.value

    def counting_value(form, t, lib=math):
        nonlocal value_calls
        value_calls += 1
        return real_value(form, t, lib)

    brackets = []
    real_bracket = analytic._bracket

    def watched_bracket(*args):
        brackets.append(real_bracket(*args))
        return brackets[-1]

    bisections = []
    real_bisect = analytic.bisect

    def watched_bisect(past, lo, hi, tol=0.0, settled=None, at_hi=None):
        tests = []

        def seen(t):
            before = value_calls
            value = past(t)
            tests.append((t, value_calls - before))
            return value

        found = real_bisect(seen, lo, hi, tol, settled, at_hi)
        # each segment brackets its two stocks before it bisects
        bisections.append((settled, sum(b is not None for b in brackets[-2:]), tests))
        return found

    monkeypatch.setattr(ExpLinear, "value", counting_value)
    monkeypatch.setattr(analytic, "_bracket", watched_bracket)
    monkeypatch.setattr(analytic, "bisect", watched_bisect)
    rng = np.random.default_rng(31)
    runs = []
    for _ in range(200):
        econ = _random_econ(rng)
        s0 = NormalizedState(*rng.uniform(0.6, 1.4, size=2))
        traj = simulate_analytic(s0, econ, 2.0, event_tol=float(rng.choice([1e-10, 1e-6])))
        runs.append((sum(seg.t_end < traj.horizon for seg in traj.segments), bisections[:]))
        bisections.clear()
    return runs


def test_crossing_bisection_evaluates_each_bracketed_form_once_per_time(monkeypatch):
    # bisect keeps the excess that `past` returned at the bracket's upper end
    # and hands it to `settled`: each test evaluates a bracketed stock's form
    # (one `ExpLinear.value` call each) at most once, and no time is tested twice
    bisections = [b for _, found in _watched_runs(monkeypatch) for b in found]
    assert len(bisections) >= 50
    assert any(bracketed == 2 for _, bracketed, _ in bisections)
    for _, bracketed, tests in bisections:
        assert len({t for t, _ in tests}) == len(tests)
        assert all(1 <= calls <= bracketed for _, calls in tests)


def test_each_segment_that_ends_before_the_horizon_runs_one_bisection(monkeypatch):
    runs = _watched_runs(monkeypatch)
    assert sum(ended for ended, _ in runs) >= 50
    assert [len(found) for _, found in runs] == [ended for ended, _ in runs]


def test_every_bisection_runs_with_the_settle_rule(monkeypatch):
    # |eta - 1| <= GUARD_STATE_TOL at the located end; no extremum search
    for _, found in _watched_runs(monkeypatch):
        for settled, _, _ in found:
            assert settled is not None
            assert settled(GUARD_STATE_TOL) and settled(-GUARD_STATE_TOL) and settled(0.0)
            assert not settled(math.nextafter(GUARD_STATE_TOL, 1.0))
            assert not settled(math.nan)


@pytest.mark.parametrize("econ, state0, horizon, first, second_regime", [
    # A exports: eta_a decays to 0.5 and crosses down at ln 2 (bracket up to
    # the horizon); eta_b rises to its maximum at ln(1/0.7) = 0.357 and dips
    # above 1 before it, so its bracket ends at that extremum and it crosses
    # first
    (GoodEconomy(0.5, 0.8, 1.0, 1.0, 1.0), NormalizedState(1.5, 0.97), 2.0, "eta_b",
     Regime.BILATERAL),
    # eta_b's maximum comes at ln 10 and it crosses after ln 2: the shared
    # bracket ends at eta_b's extremum, and eta_a's crossing is located in it
    (GoodEconomy(0.5, 1.4, 1.0, 1.0, 1.0), NormalizedState(1.5, 0.5), 6.0, "eta_a",
     Regime.NO_EXCHANGE),
])
def test_two_bracketed_stocks_locate_the_earlier_crossing(monkeypatch, econ, state0, horizon,
                                                          first, second_regime):
    brackets = []
    real_bracket = analytic._bracket
    monkeypatch.setattr(analytic, "_bracket",
                        lambda *args: brackets.append(real_bracket(*args)) or brackets[-1])
    traj = simulate_analytic(state0, econ, horizon)
    (lo_a, hi_a), (lo_b, hi_b) = brackets[:2]  # both stocks bracketed in the first segment
    assert lo_a == lo_b == 0.0 and hi_a == horizon and hi_b < horizon
    t1 = traj.events[0].t
    assert [(e.stock, e.t) for e in traj.events if e.t == t1] == [(first, t1)]
    assert traj.segments[1].regime is second_regime  # only that stock flipped
    seg = traj.segments[0]
    form = seg.form_a if first == "eta_a" else seg.form_b
    # the located time is just past the crossing, within event_tol of it
    assert (form.value(t1 - 1e-10) > 1.0) != (form.value(t1) > 1.0)
    assert abs(form.value(t1) - 1.0) <= GUARD_STATE_TOL
    if first == "eta_a":
        assert abs(t1 - math.log(2.0)) <= 1e-10


def test_a_crossing_inside_the_other_stocks_step_in_is_located_at_the_step_in():
    # eta_a starts exactly on the guard, rises, and ends below it: its bracket
    # starts after the step-in min(tol, dt/2) = 0.1. eta_b crosses upward at
    # 0.05, inside that step-in, so it is past at the shared bracket's lower
    # end and the bisection can only shrink toward it: the crossing is located
    # just past 0.1, which is within tol of the true crossing
    tol = 0.1
    form_a = ExpLinear(1.5, -0.4, -0.5, 1.0)  # value(0) == 1.0 exactly
    form_b = ExpLinear(0.9, 2.0, 0.0, 0.0)    # crosses 1 at 0.05
    bracket_a = analytic._bracket(form_a, True, 2.0, tol)
    bracket_b = analytic._bracket(form_b, False, 2.0, tol)
    assert bracket_a == (tol, 2.0) and bracket_b == (0.0, 2.0)
    tau = analytic._first_crossing([(form_a, True, bracket_a), (form_b, False, bracket_b)], tol)
    assert tol < tau <= math.nextafter(tol, 1.0)
    assert abs(tau - 0.05) <= tol
    assert form_a.value(tau) > 1.0 and form_b.value(tau) > 1.0  # only eta_b is past


def _derivative_sign(form, t):
    """Sign of slope - rate*coef*exp(-rate*t) at the float t, in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(form.slope) - Decimal(form.rate) * Decimal(form.coef) * (
            -Decimal(form.rate) * Decimal(t)).exp()
        return d > 0


def test_the_extremum_is_within_a_few_ulps_of_the_derivative_sign_change():
    rng = np.random.default_rng(7)
    for _ in range(500):
        rate = 10 ** rng.uniform(-2, 2)
        coef = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2, 2)
        rate_t = rng.uniform(0.5, 30.0)  # conditioning: 1/|log(slope/(rate*coef))|
        form = ExpLinear(rng.uniform(-2, 2), rate * coef * math.exp(-rate_t), coef, rate)
        t = analytic._extremum(form)
        below = above = t
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        assert _derivative_sign(form, below) != _derivative_sign(form, above)


@pytest.mark.parametrize("form", [
    ExpLinear(1.0, 0.0, 0.5, 1.0),     # slope 0: exp never reaches 0
    ExpLinear(1.0, 0.0, -0.5, 1.0),
    ExpLinear(1.0, 0.25, -0.5, 1.0),   # opposite signs: the derivative keeps its sign
    ExpLinear(1.0, -0.25, 0.5, 1.0),
    ExpLinear(1.0, 0.25, 0.0, 0.0),    # affine
])
def test_no_extremum_without_a_derivative_sign_change(form):
    assert analytic._extremum(form) is None


@pytest.mark.parametrize("sigma", [1e308, 5e-324])
def test_the_extremum_raises_nothing_at_the_ends_of_the_sigma_range(sigma):
    # rate*coef overflows at sigma = 1e308 (the bilateral rate 2*sigma is
    # already inf) and underflows at 5e-324
    econ = GoodEconomy(1.25, 0.5, 1.0, 1.0, sigma)
    rng = np.random.default_rng(11)
    for state in [NormalizedState(*rng.uniform(0.0, 3.0, size=2)) for _ in range(50)]:
        for regime in Regime:
            for form, above in zip(analytic._segment_forms(state, econ, regime), (False, True)):
                analytic._extremum(form)
                analytic._bracket(form, above, 2.0, 1e-10)
                analytic._bracket(form, not above, 2.0, 1e-10)
    for form in (ExpLinear(1.0, 1e-300, 1e300, sigma), ExpLinear(1.0, 1e300, 1e-300, sigma),
                 ExpLinear(1.0, 1.0, 0.25, sigma), ExpLinear(1.0, 5e-324, 1.0, sigma)):
        analytic._extremum(form)


def test_the_bisection_settles_every_stock_past_the_threshold():
    # sigma = 1e308: eta_a's export equilibrium rounds to exactly 1, so from
    # about t = 1e-306 on it sits on the guard, past its side, while eta_b
    # jumps across the threshold within about 1e-308. The bisection refines
    # until eta_b sits on the guard too, so only eta_b flips; stopping at
    # eta_a's residual flipped both and stalled in the next segment
    econ = GoodEconomy(1.25, 1.0, 1.0, 1.0, 1e308)
    traj = simulate_analytic(NormalizedState(1.5, 0.8), econ, 2.0)
    assert [(e.stock, e.detail) for e in traj.events] == [("eta_b", "upward")]
    assert traj.events[0].t < 1e-300
