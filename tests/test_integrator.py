import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tradeflow.analytic import solve_a_exports
from tradeflow.core import GoodEconomy, MoneyState, NormalizedState, PriceSet, Regime
from tradeflow.exchange import rhs
from tradeflow.integrator import (
    DepletionPolicy,
    SolverOptions,
    TimeSeries,
    integrate_with_events,
    rk4_step,
)


def _opts(**kw):
    base = dict(horizon=10.0, step=1e-3, depletion_policy=DepletionPolicy.CONTINUE)
    base.update(kw)
    return SolverOptions(**base)


# ------------------------------------------------------------- kernel

def test_rk4_kernel_matches_manual_stages_built_from_rhs():
    # the inlined stage arithmetic must be indistinguishable from stepping
    # exchange.rhs by hand
    rng = np.random.default_rng(3)
    for _ in range(100):
        econ = GoodEconomy(*rng.uniform(0, 5, size=4), rng.uniform(0, 5))
        ea, eb = rng.uniform(-1, 3, size=2)
        h = rng.uniform(0.01, 0.5)
        half = 0.5 * h
        k1a, k1b = rhs(NormalizedState(ea, eb), econ)
        k2a, k2b = rhs(NormalizedState(ea + half * k1a, eb + half * k1b), econ)
        k3a, k3b = rhs(NormalizedState(ea + half * k2a, eb + half * k2b), econ)
        k4a, k4b = rhs(NormalizedState(ea + h * k3a, eb + h * k3b), econ)
        sixth = h / 6.0
        manual = NormalizedState(
            ea + sixth * (k1a + 2.0 * (k2a + k3a) + k4a),
            eb + sixth * (k1b + 2.0 * (k2b + k3b) + k4b),
        )
        assert rk4_step(NormalizedState(ea, eb), econ, h) == manual


def test_rk4_step_fixed_point_stays_put():
    econ = GoodEconomy(p_a=1.0, p_b=1.0, c_a=1.0, c_b=1.0, sigma=0.0)
    s0 = NormalizedState(0.4, 0.9)
    assert rk4_step(s0, econ, 0.25) == s0


def test_rk4_step_exact_on_linear_field():
    econ = GoodEconomy(p_a=1.5, p_b=0.25, c_a=0.5, c_b=1.25, sigma=2.0)
    out = rk4_step(NormalizedState(0.1, 0.2), econ, 0.25)
    assert_allclose([out.eta_a, out.eta_b], [0.35, -0.05], rtol=0, atol=1e-16)


def test_rk4_step_rejects_bad_step():
    econ = GoodEconomy(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        rk4_step(NormalizedState(0.5, 0.5), econ, 0.0)


def test_rk4_local_error_scales_like_fifth_order():
    econ = GoodEconomy(p_a=1.0, p_b=0.0, c_a=0.5, c_b=0.0, sigma=2.0)
    s0 = NormalizedState(1.9, 0.2)

    def err(h):
        out = rk4_step(s0, econ, h)
        exact = solve_a_exports(s0, econ, h)
        return abs(out.eta_a - exact.eta_a)

    ratio = err(0.2) / err(0.1)
    assert 20.0 <= ratio <= 40.0  # ideal 32


# ------------------------------------------------------------- integration

def test_integration_exact_on_decoupled_linear_flow():
    econ = GoodEconomy(p_a=1.1, p_b=0.3, c_a=1.0, c_b=0.5, sigma=0.0)
    series = integrate_with_events(NormalizedState(0.5, 2.0), econ, _opts())
    assert_allclose(series.eta_a, 0.5 + 0.1 * series.times, rtol=0, atol=1e-10)
    assert_allclose(series.eta_b, 2.0 - 0.2 * series.times, rtol=0, atol=1e-10)


def test_integration_matches_one_sided_closed_form():
    # importer consumption equal to the asymptotic inflow keeps the run in
    # the one-sided regime for the whole horizon
    rng = np.random.default_rng(31)
    for _ in range(5):
        sigma = rng.uniform(0.5, 2.0)
        c_a = rng.uniform(0, 2)
        na = sigma * rng.uniform(0.9, 1.5)
        k_eq = 1.0 + na / sigma
        econ = GoodEconomy(c_a + na, 0.0, c_a, na, sigma)
        s0 = NormalizedState(k_eq + rng.uniform(-0.6, 0.6), 0.1)
        series = integrate_with_events(s0, econ, _opts())
        sup = 0.0
        for i in (1, len(series) // 2, len(series) - 1):
            exact = solve_a_exports(s0, econ, float(series.times[i]))
            sup = max(sup, abs(series.eta_a[i] - exact.eta_a),
                      abs(series.eta_b[i] - exact.eta_b))
        assert sup <= 1e-8


def test_event_time_matches_linear_crossing():
    econ = GoodEconomy(p_a=1.25, p_b=1.0, c_a=1.0, c_b=1.0, sigma=1.0)
    series = integrate_with_events(NormalizedState(0.5, 0.5), econ, _opts())
    assert series.events[0][1] == "eta_a crossed the threshold upward"
    assert abs(series.events[0][0] - 2.0) <= 1e-8


def test_event_time_matches_exponential_crossing():
    # decaying exporter: eta_a = K + (eta0 - K) exp(-sigma t) crosses 1 at
    # t = ln((eta0 - K)/(1 - K))/sigma
    sigma, c_a = 1.5, 2.0
    econ = GoodEconomy(c_a - 0.9 * sigma, 0.0, c_a, 0.0, sigma)  # K = 0.1
    s0 = NormalizedState(1.8, 0.0)
    k_eq = (econ.net_a + sigma) / sigma
    t_star = math.log((s0.eta_a - k_eq) / (1.0 - k_eq)) / sigma
    series = integrate_with_events(s0, econ, _opts())
    crossing = [t for t, d in series.events if "eta_a" in d][0]
    assert abs(crossing - t_star) <= 1e-8


def test_recorded_events_sit_on_the_guard():
    rng = np.random.default_rng(37)
    for _ in range(20):
        econ = GoodEconomy(*rng.uniform(0, 5, size=4), rng.uniform(0, 5))
        s0 = NormalizedState(rng.uniform(0, 3), rng.uniform(0, 3))
        series = integrate_with_events(s0, econ, _opts())
        for t_ev, desc in series.events:
            i = int(np.searchsorted(series.times, t_ev))
            assert series.times[i] == t_ev  # events appear in the series
            eta = series.eta_a[i] if "eta_a" in desc else series.eta_b[i]
            assert abs(eta - 1.0) <= 1e-8


def test_sampling_includes_horizon_and_is_strictly_increasing():
    econ = GoodEconomy(1.25, 1.0, 1.0, 1.0, 1.0)
    series = integrate_with_events(NormalizedState(0.5, 0.5), econ, _opts())
    assert series.times[0] == 0.0
    assert series.times[-1] == 10.0
    assert np.all(np.diff(series.times) > 0)


def test_integration_is_deterministic():
    econ = GoodEconomy(1.25, 0.3, 1.0, 0.9, 2.0)
    s0 = NormalizedState(0.5, 1.5)
    a = integrate_with_events(s0, econ, _opts())
    b = integrate_with_events(s0, econ, _opts())
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.eta_a, b.eta_a)
    assert np.array_equal(a.eta_b, b.eta_b)
    assert a.events == b.events
    assert a.regimes == b.regimes


def test_single_step_equals_rk4_step():
    econ = GoodEconomy(1.3, 0.2, 0.9, 1.1, 2.0)
    s0 = NormalizedState(1.4, 0.8)
    series = integrate_with_events(s0, econ, _opts(horizon=0.125, step=0.125))
    manual = rk4_step(s0, econ, 0.125)
    assert series.state(1) == manual


def test_conservation_drift_stays_tiny():
    econ = GoodEconomy(1.25, 1.0, 1.0, 1.0, 1.0)
    s0 = NormalizedState(0.5, 0.5)
    series = integrate_with_events(s0, econ, _opts())
    total = series.eta_a + series.eta_b
    expected = (s0.eta_a + s0.eta_b) + (econ.net_a + econ.net_b) * series.times
    assert np.abs(total - expected).max() <= 1e-9


def test_halving_the_step_cuts_the_error_by_an_order_factor():
    econ = GoodEconomy(p_a=1.4, p_b=0.0, c_a=0.5, c_b=0.9, sigma=2.0)
    s0 = NormalizedState(1.9, 0.1)  # stays in the one-sided regime

    def end_error(step):
        series = integrate_with_events(s0, econ, _opts(horizon=2.0, step=step))
        exact = solve_a_exports(s0, econ, 2.0)
        return max(abs(series.eta_a[-1] - exact.eta_a),
                   abs(series.eta_b[-1] - exact.eta_b))

    assert end_error(0.02) / end_error(0.01) >= 12.0


def test_step_exceeding_horizon_is_rejected():
    econ = GoodEconomy(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_with_events(NormalizedState(0.5, 0.5), econ,
                              SolverOptions(horizon=1.0, step=2.0))


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(horizon=0.0)
    with pytest.raises(ValueError):
        SolverOptions(horizon=1.0, step=-1e-3)
    with pytest.raises(ValueError):
        SolverOptions(horizon=1.0, event_tol=0.0)


# ------------------------------------------------------------- depletion

def _draining_econ():
    # B consumes with no production or inflow: eta_b hits zero at t = 2.5
    return GoodEconomy(p_a=1.0, p_b=0.0, c_a=1.0, c_b=0.2, sigma=0.0)


def test_depletion_halt_truncates_at_zero():
    econ = _draining_econ()
    series = integrate_with_events(
        NormalizedState(0.9, 0.5), econ, _opts(depletion_policy=DepletionPolicy.HALT)
    )
    assert series.events[-1][1] == "depletion: eta_b reached zero"
    assert abs(series.events[-1][0] - 2.5) <= 1e-8
    assert abs(series.eta_b[-1]) <= 1e-8
    assert series.times[-1] < 10.0


def test_depletion_continue_goes_negative():
    series = integrate_with_events(NormalizedState(0.9, 0.5), _draining_econ(), _opts())
    assert series.eta_b[-1] < -1.0
    assert series.events == []


def test_depletion_clamp_floors_at_zero():
    series = integrate_with_events(
        NormalizedState(0.9, 0.5), _draining_econ(),
        _opts(depletion_policy=DepletionPolicy.CLAMP_TO_ZERO),
    )
    assert series.eta_b.min() >= 0.0
    assert any("clamped" in d for _, d in series.events)


def test_negative_initial_stock_halts_immediately():
    series = integrate_with_events(
        NormalizedState(-0.1, 0.5), _draining_econ(),
        _opts(depletion_policy=DepletionPolicy.HALT),
    )
    assert len(series) == 1
    assert series.events[0][0] == 0.0


# ------------------------------------------------------------- money

def test_money_rates_at_the_stop_production_point():
    # sigma*(eta_a - 1) = c_b exactly, so B produces nothing and only breaks
    # even while A earns its margin on everything consumed
    prices = PriceSet(x_a=1.0, x_b=3.0, y=2.0)
    econ = GoodEconomy(p_a=3.0, p_b=0.0, c_a=1.0, c_b=2.0, sigma=1.0)
    s0 = NormalizedState(3.0, 0.5)
    series = integrate_with_events(s0, econ, _opts(), prices=prices)
    assert series.m_a is not None
    assert_allclose(series.m_b, 0.0, rtol=0, atol=1e-12)
    expected_rate = (prices.y - prices.x_a) * (econ.c_a + econ.c_b)
    assert_allclose(series.m_a, expected_rate * series.times, rtol=0, atol=1e-9)


def test_money_starts_from_the_supplied_holdings():
    prices = PriceSet(x_a=1.0, x_b=3.0, y=2.0)
    econ = GoodEconomy(p_a=3.0, p_b=0.0, c_a=1.0, c_b=2.0, sigma=1.0)
    series = integrate_with_events(
        NormalizedState(3.0, 0.5), econ, _opts(horizon=1.0),
        prices=prices, money0=MoneyState(5.0, -1.0),
    )
    assert series.m_a[0] == 5.0 and series.m_b[0] == -1.0


def test_money_absent_without_prices():
    econ = GoodEconomy(1.0, 1.0, 1.0, 1.0, 1.0)
    series = integrate_with_events(NormalizedState(0.5, 0.5), econ, _opts(horizon=1.0))
    assert series.m_a is None and series.m_b is None
    assert series.money(0) is None


# ------------------------------------------------------------- TimeSeries

def test_timeseries_validates_parallel_arrays():
    with pytest.raises(ValueError):
        TimeSeries(
            times=np.array([0.0, 1.0]),
            eta_a=np.array([1.0]),
            eta_b=np.array([1.0, 2.0]),
            regimes=[Regime.NO_EXCHANGE, Regime.NO_EXCHANGE],
            m_a=None,
            m_b=None,
        )
    with pytest.raises(ValueError):
        TimeSeries(
            times=np.array([0.0, 0.0]),
            eta_a=np.array([1.0, 1.0]),
            eta_b=np.array([1.0, 1.0]),
            regimes=[Regime.NO_EXCHANGE, Regime.NO_EXCHANGE],
            m_a=None,
            m_b=None,
        )


def test_timeseries_regimes_follow_the_samples():
    econ = GoodEconomy(1.25, 1.0, 1.0, 1.0, 1.0)
    series = integrate_with_events(NormalizedState(0.5, 0.5), econ, _opts())
    first, last = series.regimes[0], series.regimes[-1]
    assert first is Regime.NO_EXCHANGE
    assert last in (Regime.A_EXPORTS, Regime.BILATERAL)
    assert series.state(0) == NormalizedState(0.5, 0.5)
