import hashlib
import inspect
import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tradeflow import integrator
from tradeflow.analytic import solve_a_exports
from tradeflow.core import Event, GoodEconomy, MoneyState, NormalizedState, PriceSet, Regime
from tradeflow.exchange import regime_from_sides, rhs
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
    event = series.events[0]
    assert (event.kind, event.stock, event.detail) == ("crossing", "eta_a", "upward")
    assert abs(event.t - 2.0) <= 1e-8


def test_event_time_matches_exponential_crossing():
    # decaying exporter: eta_a = K + (eta0 - K) exp(-sigma t) crosses 1 at
    # t = ln((eta0 - K)/(1 - K))/sigma
    sigma, c_a = 1.5, 2.0
    econ = GoodEconomy(c_a - 0.9 * sigma, 0.0, c_a, 0.0, sigma)  # K = 0.1
    s0 = NormalizedState(1.8, 0.0)
    k_eq = (econ.net_a + sigma) / sigma
    t_star = math.log((s0.eta_a - k_eq) / (1.0 - k_eq)) / sigma
    series = integrate_with_events(s0, econ, _opts())
    crossing = [e.t for e in series.events if e.stock == "eta_a"][0]
    assert abs(crossing - t_star) <= 1e-8


def test_recorded_events_sit_on_the_guard():
    rng = np.random.default_rng(37)
    for _ in range(20):
        econ = GoodEconomy(*rng.uniform(0, 5, size=4), rng.uniform(0, 5))
        s0 = NormalizedState(rng.uniform(0, 3), rng.uniform(0, 3))
        series = integrate_with_events(s0, econ, _opts())
        for e in series.events:
            assert e.kind == "crossing"
            i = int(np.searchsorted(series.times, e.t))
            assert series.times[i] == e.t  # events appear in the series
            eta = series.eta_a[i] if e.stock == "eta_a" else series.eta_b[i]
            assert abs(eta - 1.0) <= 1e-8


def test_simultaneous_crossings_record_both():
    # mirrored economies: both stocks reach a guard at the same bisected time,
    # and each gets its event at that time, eta_a first
    rising = integrate_with_events(NormalizedState(0.5, 0.5),
                                   GoodEconomy(1.25, 1.25, 1.0, 1.0, 1.0), _opts())
    assert [(e.kind, e.stock) for e in rising.events] == [("crossing", "eta_a"),
                                                          ("crossing", "eta_b")]
    assert rising.events[0].t == rising.events[1].t
    assert tuple(Regime)[rising.regimes[-1]] is Regime.BILATERAL
    draining = integrate_with_events(NormalizedState(0.5, 0.5),
                                     GoodEconomy(0.75, 0.75, 1.0, 1.0, 1.0),
                                     _opts(depletion_policy=DepletionPolicy.HALT))
    assert [(e.kind, e.stock) for e in draining.events] == [("depletion", "eta_a"),
                                                            ("depletion", "eta_b")]
    assert draining.times[-1] == draining.events[0].t == draining.events[1].t


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
    assert a.regimes.dtype == b.regimes.dtype == np.uint8
    assert np.array_equal(a.regimes, b.regimes)


def test_single_step_equals_rk4_step():
    econ = GoodEconomy(1.3, 0.2, 0.9, 1.1, 2.0)
    s0 = NormalizedState(1.4, 0.8)
    series = integrate_with_events(s0, econ, _opts(horizon=0.125, step=0.125))
    manual = rk4_step(s0, econ, 0.125)
    assert (series.eta_a[1], series.eta_b[1]) == (manual.eta_a, manual.eta_b)


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


def test_solver_options_store_floats():
    # ints and numpy scalars become floats, with the same values
    opts = SolverOptions(horizon=10, step=np.float64(0.5), event_tol=1)
    assert (opts.horizon, opts.step, opts.event_tol) == (10.0, 0.5, 1.0)
    assert all(type(v) is float for v in (opts.horizon, opts.step, opts.event_tol))


# ------------------------------------------------------------- depletion


def _draining_econ():
    # B consumes with no production or inflow: eta_b hits zero at t = 2.5
    return GoodEconomy(p_a=1.0, p_b=0.0, c_a=1.0, c_b=0.2, sigma=0.0)


def test_depletion_halt_truncates_at_zero():
    econ = _draining_econ()
    series = integrate_with_events(
        NormalizedState(0.9, 0.5), econ, _opts(depletion_policy=DepletionPolicy.HALT)
    )
    assert series.events[-1] == Event(series.times[-1], "depletion", "eta_b", "reached zero")
    assert abs(series.events[-1].t - 2.5) <= 1e-8
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
    assert series.events and all(e.kind == "clamp" and e.stock == "eta_b"
                                 for e in series.events)


def test_negative_initial_stock_halts_immediately():
    series = integrate_with_events(
        NormalizedState(-0.1, 0.5), _draining_econ(),
        _opts(depletion_policy=DepletionPolicy.HALT),
    )
    assert len(series) == 1
    assert series.events == [Event(0.0, "depletion", "eta_a", "negative at start")]


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


# ------------------------------------------------------------- TimeSeries


def test_timeseries_validates_parallel_arrays():
    with pytest.raises(ValueError):
        TimeSeries(
            times=np.array([0.0, 1.0]),
            eta_a=np.array([1.0]),
            eta_b=np.array([1.0, 2.0]),
            regimes=np.zeros(2, np.uint8),
            m_a=None,
            m_b=None,
        )
    with pytest.raises(ValueError):
        TimeSeries(
            times=np.array([0.0, 0.0]),
            eta_a=np.array([1.0, 1.0]),
            eta_b=np.array([1.0, 1.0]),
            regimes=np.zeros(2, np.uint8),
            m_a=None,
            m_b=None,
        )


@pytest.mark.parametrize("m_a, m_b, message", [
    (np.zeros(2), None, "both be present or both absent"),
    (None, np.zeros(2), "both be present or both absent"),
    (np.zeros(2), np.zeros(1), "must match the sample count"),
    (np.zeros(3), np.zeros(3), "must match the sample count"),
])
def test_timeseries_validates_the_money_arrays(m_a, m_b, message):
    with pytest.raises(ValueError, match=message):
        TimeSeries(times=np.array([0.0, 1.0]), eta_a=np.ones(2), eta_b=np.ones(2),
                   regimes=np.zeros(2, np.uint8), m_a=m_a, m_b=m_b)


def _series_at(times):
    n = len(times)
    return TimeSeries(times=np.array(times), eta_a=np.ones(n), eta_b=np.ones(n),
                      regimes=np.zeros(n, np.uint8), m_a=None, m_b=None)


@pytest.mark.parametrize("times", [
    [0.0, math.nan, 1.0], [math.nan, 1.0], [0.0, 1.0, math.nan],
    [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [math.inf, math.inf], [-math.inf, -math.inf],
    [-math.inf, 0.0, math.inf], [math.nan], [math.inf], [0.0, math.inf],
])
def test_timeseries_rejects_times_that_do_not_increase(times):
    # errstate: the rule is pinned, not whether a check computes inf - inf on the way
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="strictly increasing"):
        _series_at(times)


@pytest.mark.parametrize("times", [
    [], [0.0], [0.0, 5e-324, 1.0],
])
def test_timeseries_accepts_strictly_increasing_times(times):
    assert len(_series_at(times)) == len(times)


def test_timeseries_regimes_follow_the_samples():
    econ = GoodEconomy(1.25, 1.0, 1.0, 1.0, 1.0)
    series = integrate_with_events(NormalizedState(0.5, 0.5), econ, _opts())
    first, last = (tuple(Regime)[c] for c in series.regimes[[0, -1]].tolist())
    assert first is Regime.NO_EXCHANGE
    assert last in (Regime.A_EXPORTS, Regime.BILATERAL)
    assert (series.eta_a[0], series.eta_b[0]) == (0.5, 0.5)


# ------------------------------------------------------------- pinned bytes

_POLICIES = (DepletionPolicy.CONTINUE, DepletionPolicy.CLAMP_TO_ZERO, DepletionPolicy.HALT)


def _pinned_draws(n=600, seed=8):
    """Seeded, event-dense integrations: starts within reach of the threshold
    and of zero, every depletion policy, with and without prices and money0."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        econ = GoodEconomy(*rng.uniform(0.0, 2.0, size=4), rng.uniform(0.0, 4.0))
        s0 = NormalizedState(*rng.uniform(-0.05, 2.0, size=2))
        prices = PriceSet(*rng.uniform(0.0, 3.0, size=3))
        money0 = MoneyState(*rng.uniform(-2.0, 2.0, size=2))
        opts = _opts(horizon=2.0, step=1e-2, depletion_policy=_POLICIES[i % 3])
        yield (s0, econ, opts, prices if i % 2 else None,
               money0 if (i // 6) % 2 else None)


def _series_digest(series_list):
    h = hashlib.sha256()
    for s in series_list:
        arrays = [s.times, s.eta_a, s.eta_b]
        if s.m_a is not None:
            h.update(b"money")
            arrays += [s.m_a, s.m_b]
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        h.update(repr(s.events).encode())
    return h.hexdigest()


# sha256 of times, stocks, money and events over _pinned_draws(); the kernel
# takes + - * / only, so this holds on every IEEE platform
PINNED_SERIES_DIGEST = "93d39433ff693c3c0911f3263e71ee1dd75046aa39a508a281dc54ed2648d3cf"


def test_integrator_bytes_match_pinned_digest():
    series_list = [integrate_with_events(*draw) for draw in _pinned_draws()]
    assert sum(e.kind == "crossing" for s in series_list for e in s.events) >= 400
    assert {e.kind for s in series_list for e in s.events} == {"crossing", "depletion", "clamp"}
    assert _series_digest(series_list) == PINNED_SERIES_DIGEST


def test_series_columns_are_float_arrays_and_regimes_follow_the_stocks():
    # the regime column is not in PINNED_SERIES_DIGEST; pin it and the array layout here
    for draw in _pinned_draws():
        s = integrate_with_events(*draw)
        for arr in (s.times, s.eta_a, s.eta_b):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert s.regimes.dtype == np.uint8 and len(s.regimes) == len(s)
        for code, ea, eb in zip(s.regimes.tolist(), s.eta_a.tolist(), s.eta_b.tolist()):
            assert tuple(Regime)[code] is regime_from_sides(ea > 1.0, eb > 1.0)


def test_money_never_feeds_back_into_stocks_times_or_events():
    for s0, econ, opts, prices, money0 in _pinned_draws(n=120, seed=9):
        prices = prices or PriceSet(1.0, 2.0, 1.5)
        bare = integrate_with_events(s0, econ, opts)
        priced = integrate_with_events(s0, econ, opts, prices=prices, money0=money0)
        assert bare.m_a is None and priced.m_a is not None
        for name in ("times", "eta_a", "eta_b"):
            assert getattr(bare, name).tobytes() == getattr(priced, name).tobytes()
        assert repr(bare.events) == repr(priced.events)


def _production(rng, c):
    """A production rate for consumption c: equal to it (net exactly 0.0),
    above it or below it, one draw in three each."""
    kind, u = rng.integers(0, 3), rng.uniform(0.0, 1.0)
    return c if kind == 0 else c + u if kind == 1 else c * u


def _flow_free_draws(n=600, seed=12):
    """Seeded integrations that spend most of their steps with both stocks at
    or below the threshold: starts in [-0.05, 1] (some exactly at 1), nets of
    each sign and exactly zero, horizons off the step grid, every depletion
    policy, with and without prices and money0."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        c_a, c_b = rng.uniform(0.0, 2.0, size=2)
        econ = GoodEconomy(_production(rng, c_a), _production(rng, c_b), c_a, c_b,
                           rng.uniform(0.0, 4.0))
        ea, eb = rng.uniform(-0.05, 1.0, size=2)
        s0 = NormalizedState(1.0 if i % 5 == 0 else ea, 1.0 if i % 7 == 0 else eb)
        prices = PriceSet(*rng.uniform(0.0, 3.0, size=3))
        money0 = MoneyState(*rng.uniform(-2.0, 2.0, size=2))
        opts = _opts(horizon=rng.uniform(0.5, 3.0), step=1e-2,
                     depletion_policy=_POLICIES[i % 3])
        yield (s0, econ, opts, prices if i % 2 else None,
               money0 if (i // 6) % 2 else None)


# sha256 of _series_digest over _flow_free_draws(), first taken before flow-free
# steps were shortcut (the shortcut must not move a bit) and taken again when
# exchange.sides became the side rule: the 58 series that start exactly at 1
# with a rising stock lost their crossing just after t = 0 and its sample, and
# 9 series gained the second crossing of a tie
PINNED_FLOW_FREE_DIGEST = "7399f31a3b602e91b84f3686f6f849023067f29a7790ddbc7afa55b878c2bd46"


def test_flow_free_stretches_match_pinned_digest():
    series_list = [integrate_with_events(*draw) for draw in _flow_free_draws()]
    steps = sum(len(s) - 1 for s in series_list)
    flow_free = sum(int(((np.maximum(s.eta_a, s.eta_b) <= 1.0)[:-1]
                         & (np.maximum(s.eta_a, s.eta_b) <= 1.0)[1:]).sum())
                    for s in series_list)
    assert flow_free >= 0.6 * steps
    assert {e.kind for s in series_list for e in s.events} == {"crossing", "depletion", "clamp"}
    assert _series_digest(series_list) == PINNED_FLOW_FREE_DIGEST


def _double_flip_draws(n=600, seed=21):
    """Seeded integrations whose event steps often flip two guards at once:
    symmetric economies from equal starts (both stocks cross together), both
    stocks within 1e-9 of each other near 1, and steep declines that take a
    stock through 1 and through 0 in one step under halt; both event
    tolerances, with and without prices and money0."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        family = i % 3
        if family == 0:
            p, c = rng.uniform(0.0, 2.0, size=2)
            econ = GoodEconomy(p, p, c, c, rng.uniform(0.0, 4.0))
            ea = eb = rng.uniform(0.0, 2.0)
            policy = _POLICIES[(i // 3) % 3]
        elif family == 1:
            econ = GoodEconomy(*rng.uniform(0.0, 2.0, size=4), rng.uniform(0.0, 4.0))
            ea = 1.0 + rng.uniform(-0.05, 0.05)
            eb = ea + rng.uniform(-1e-9, 1e-9)
            policy = _POLICIES[(i // 3) % 3]
        else:
            p_a, p_b, c_b = rng.uniform(0.0, 2.0, size=3)
            econ = GoodEconomy(p_a, p_b, p_a + rng.uniform(50.0, 300.0), c_b,
                               rng.uniform(0.0, 4.0))
            ea, eb = 1.0 + rng.uniform(0.0, 0.5), rng.uniform(0.0, 2.0)
            policy = DepletionPolicy.HALT
        prices = PriceSet(*rng.uniform(0.0, 3.0, size=3))
        money0 = MoneyState(*rng.uniform(-2.0, 2.0, size=2))
        opts = _opts(horizon=2.0, step=1e-2, event_tol=(1e-10, 1e-6)[(i // 2) % 2],
                     depletion_policy=policy)
        yield (NormalizedState(ea, eb), econ, opts, prices if i % 2 else None,
               money0 if (i // 6) % 2 else None)


# sha256 of _series_digest over _double_flip_draws(), first taken while each
# flipped guard still ran its own bisection (one bisection for all of them
# must not move a bit) and taken again when every guard past at the bisected
# length got its event: 89 series gained the second crossing of a tie, and no
# array moved
PINNED_DOUBLE_FLIP_DIGEST = "2d81747d272983784775c6f8f4f3a59f909286eb87a83c8179bfdb3404269d15"


def test_double_flips_match_pinned_digest():
    series_list = [integrate_with_events(*draw) for draw in _double_flip_draws()]
    together = 0  # crossings at which both stocks sit on the threshold
    for s in series_list:
        for e in s.events:
            k = int(np.searchsorted(s.times, e.t))
            together += (e.kind == "crossing" and abs(s.eta_a[k] - 1.0) <= 1e-8
                         and abs(s.eta_b[k] - 1.0) <= 1e-8)
    assert together >= 50
    assert {e.kind for s in series_list for e in s.events} == {"crossing", "depletion", "clamp"}
    assert _series_digest(series_list) == PINNED_DOUBLE_FLIP_DIGEST


# First line of the full-step kernel inline in the loop, and the first line
# run once the loop has chosen its step (e1a, e1b) from (ea, eb).
_FIRST_STAGE = "sf = sig * ((0.0 if ea < 1.0 else ea - 1.0)"
_STEP_CHOSEN = "((e1a > 1.0) == a_above)"


@contextmanager
def _line_watch(fn, *texts):
    """Collect a copy of the locals of ``fn`` each time the one source line
    of it that contains a text is about to run: {text: [locals, ...]}."""
    lines, first = inspect.getsourcelines(fn)
    linenos = {}
    for text in texts:
        (offset,) = [i for i, line in enumerate(lines) if text in line]
        linenos[first + offset] = text
    seen = {text: [] for text in texts}
    code = fn.__code__

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in linenos:
            seen[linenos[frame.f_lineno]].append(dict(frame.f_locals))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        yield seen
    finally:
        sys.settrace(previous)


def _counting_kernel(monkeypatch):
    """Route every ``_make_rk4`` step through a recorder; returns the list of
    (ea, eb, h, result) it fills. Full steps run inline and skip it."""
    calls = []
    make_rk4 = integrator._make_rk4

    def counting(econ):
        rk4 = make_rk4(econ)

        def step(ea, eb, h):
            y = rk4(ea, eb, h)
            calls.append((ea, eb, h, y))
            return y

        return step

    monkeypatch.setattr(integrator, "_make_rk4", counting)
    return calls


@pytest.mark.parametrize("policy", _POLICIES)
def test_flow_free_steps_skip_the_kernel(monkeypatch, policy):
    calls = _counting_kernel(monkeypatch)
    econ = GoodEconomy(1.1, 0.5, 1.0, 0.8, 2.0)
    opts = _opts(horizon=1.0, step=1e-2, depletion_policy=policy)
    with _line_watch(integrator.integrate_with_events, _FIRST_STAGE) as seen:
        series = integrate_with_events(NormalizedState(0.2, 0.5), econ, opts)
    assert len(series) == 101 and series.events == []  # stocks stay below 1 throughout
    assert seen[_FIRST_STAGE] == []
    # at most the last step, which float rounding of t shortens below the step
    assert len(calls) <= 1 and all(h < 1e-2 for _, _, h, _ in calls)
    # control: from A above 1 every full step flows, and the watch sees each one
    with _line_watch(integrator.integrate_with_events, _FIRST_STAGE) as seen:
        flowing = integrate_with_events(NormalizedState(1.2, 0.5), econ, opts)
    assert flowing.events == [] and flowing.eta_a.min() > 1.0
    assert len(seen[_FIRST_STAGE]) >= 99


def _stage_points(ea, eb, econ, h):
    """The four stage points of the RK4 step of length h from (ea, eb), built
    from rhs as in test_rk4_kernel_matches_manual_stages_built_from_rhs."""
    half = 0.5 * h
    ka, kb = rhs(NormalizedState(ea, eb), econ)
    p2 = (ea + half * ka, eb + half * kb)
    ka, kb = rhs(NormalizedState(*p2), econ)
    p3 = (ea + half * ka, eb + half * kb)
    ka, kb = rhs(NormalizedState(*p3), econ)
    return [(ea, eb), p2, p3, (ea + h * ka, eb + h * kb)]


def _adversarial_starts(stage, idx, rng, h, count=3):
    """(start, econ) pairs whose stage point ``stage`` has component ``idx``
    exactly at 1.0, each with the starts 1 and 2 ulps either side of it, whose
    stage point straddles 1.0; a seeded search with sigma*h up to 2.7 and the
    other stock in [-0.5, 2]."""
    out = []
    for _ in range(2000):
        econ = GoodEconomy(*rng.uniform(0.0, 3.0, size=4), rng.uniform(0.0, 2.7 / h))
        other = rng.uniform(-0.5, 2.0)

        def start(x):
            return (x, other) if idx == 0 else (other, x)

        def above(x):
            return _stage_points(*start(x), econ, h)[stage][idx] > 1.0

        grid = np.linspace(-1.0, 3.0, 41).tolist()
        flips = [(a, b) for a, b in zip(grid, grid[1:]) if above(a) != above(b)]
        if not flips:
            continue
        lo, hi = flips[0]
        while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
            lo, hi = (mid, hi) if above(mid) == above(lo) else (lo, mid)
        xs = [lo]
        for _ in range(4):
            xs = [np.nextafter(xs[0], -np.inf), *xs, np.nextafter(xs[-1], np.inf)]
        exact = [x for x in xs if _stage_points(*start(float(x)), econ, h)[stage][idx] == 1.0]
        if not exact:
            continue
        x = exact[0]
        for _ in range(2):
            x = np.nextafter(x, -np.inf)
        for _ in range(5):
            out.append((NormalizedState(*start(float(x))), econ))
            x = np.nextafter(x, np.inf)
        if len(out) >= 5 * count:
            return out
    pytest.fail(f"no start with stage point {stage} of component {idx} at 1.0 was found")


def _assert_inline_steps_equal_rk4_step(s0, econ, opts):
    """Run the loop and check every full step it chose against rk4_step, bit
    for bit; returns (full steps checked, full steps through the inline kernel)."""
    with _line_watch(integrator.integrate_with_events, _FIRST_STAGE, _STEP_CHOSEN) as seen:
        integrate_with_events(s0, econ, opts)
    full = [loc for loc in seen[_STEP_CHOSEN] if loc["h_step"] == opts.step]
    for loc in full:
        want = rk4_step(NormalizedState(loc["ea"], loc["eb"]), econ, opts.step)
        assert (loc["e1a"].hex(), loc["e1b"].hex()) == (want.eta_a.hex(), want.eta_b.hex())
    return len(full), len(seen[_FIRST_STAGE])


@pytest.mark.parametrize("policy", _POLICIES)
def test_inline_full_step_equals_rk4_step_bit_for_bit(policy):
    rng = np.random.default_rng(15)
    h = 0.1
    full = inline = 0
    # one step from each start: stage points at 1.0 and 1-2 ulps either side
    # of it, at each stage and for each stock
    for stage in range(4):
        for idx in range(2):
            for s0, econ in _adversarial_starts(stage, idx, rng, h):
                opts = _opts(horizon=h, step=h, depletion_policy=policy)
                n_full, n_inline = _assert_inline_steps_equal_rk4_step(s0, econ, opts)
                halted = policy is DepletionPolicy.HALT and min(s0.eta_a, s0.eta_b) < 0.0
                assert n_full == (0 if halted else 1)
                full, inline = full + n_full, inline + n_inline
    # stiff runs (sigma*step up to 2.7) from anywhere, negative stocks included
    for _ in range(60):
        econ = GoodEconomy(*rng.uniform(0.0, 3.0, size=4), rng.uniform(0.0, 2.7 / h))
        s0 = NormalizedState(*rng.uniform(-0.5, 2.5, size=2))
        n_full, n_inline = _assert_inline_steps_equal_rk4_step(
            s0, econ, _opts(horizon=2.0, step=h, depletion_policy=policy))
        full, inline = full + n_full, inline + n_inline
    assert full >= 500 and inline >= 0.5 * full


def test_bisection_runs_the_kernel_once_per_length(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    econ = GoodEconomy(1.5, 0.5, 1.0, 0.5, 2.0)  # A rises through 1 near t = 0.994
    series = integrate_with_events(NormalizedState(0.503, 0.5), econ,
                                   _opts(horizon=1.5, step=1e-2))
    assert [(e.kind, e.stock) for e in series.events] == [("crossing", "eta_a")]
    assert len({(ea, eb, h) for ea, eb, h, _ in calls}) == len(calls)
    k = int(np.searchsorted(series.times, series.events[0].t))
    start = (series.eta_a[k - 1], series.eta_b[k - 1])
    tried = [(h, y) for ea, eb, h, y in calls if (ea, eb) == start]
    assert len(tried) >= 20
    # bisect's last hi: the latest length whose state is past the guard
    tau, y_hi = [(h, y) for h, y in tried if y[0] > 1.0][-1]
    assert (series.eta_a[k], series.eta_b[k]) == y_hi
    assert series.times[k] == series.times[k - 1] + tau


def test_a_double_flip_runs_the_kernel_once_per_length(monkeypatch):
    # both stocks rise through 1 in the same step: one bisection serves both
    # guards, and on the tie each stock gets its crossing, eta_a first
    calls = _counting_kernel(monkeypatch)
    econ = GoodEconomy(1.5, 1.5, 1.0, 1.0, 2.0)
    series = integrate_with_events(NormalizedState(0.503, 0.503), econ,
                                   _opts(horizon=1.5, step=1e-2))
    t = series.events[0].t
    assert series.events == [Event(t, "crossing", "eta_a", "upward"),
                             Event(t, "crossing", "eta_b", "upward")]
    assert series.eta_a[-1] > 1.0 and series.eta_b[-1] > 1.0
    assert len(calls) >= 20
    assert len({(ea, eb, h) for ea, eb, h, _ in calls}) == len(calls)


def test_the_loop_keeps_its_per_step_locals_out_of_cells():
    # only build() closes over the loop's locals; a comprehension, generator
    # or lambda that captured a per-step local (t_ev, say) would make it a
    # cell variable, read through a slower cell load on every step
    assert set(integrator.integrate_with_events.__code__.co_cellvars) == {
        "econ", "prices", "money0", "eas", "ebs", "events", "short", "step", "ts"}


def _stepped(s0, econ, opts):
    """Times and stocks of repeated ``rk4_step`` over the step grid: negatives
    set to zero under clamp_to_zero, and under halt no step that ends below
    zero. For a run that never crosses the threshold these are the
    integrator's samples (under halt, those before the depletion event)."""
    halt = opts.depletion_policy is DepletionPolicy.HALT
    clamp = opts.depletion_policy is DepletionPolicy.CLAMP_TO_ZERO
    t, s = 0.0, s0
    rows = [(t, s.eta_a, s.eta_b)]
    while t < opts.horizon and not (halt and min(s.eta_a, s.eta_b) < 0.0):
        h = min(opts.step, opts.horizon - t)
        s = rk4_step(s, econ, h)
        if halt and min(s.eta_a, s.eta_b) < 0.0:
            break
        if clamp:
            s = NormalizedState(s.eta_a if s.eta_a >= 0.0 else 0.0,
                                s.eta_b if s.eta_b >= 0.0 else 0.0)
        t += h
        rows.append((t, s.eta_a, s.eta_b))
    return [np.array(col) for col in zip(*rows)]


def _assert_stepped(s0, econ, opts):
    series = integrate_with_events(s0, econ, opts)
    ref = _stepped(s0, econ, opts)
    n = len(ref[0])
    bisected = [e for e in series.events if e.detail == "reached zero"]
    assert len(series) == n + len(bisected)
    for got, want in zip((series.times, series.eta_a, series.eta_b), ref):
        assert got[:n].tobytes() == want.tobytes()
    return series


@pytest.mark.parametrize("policy", _POLICIES)
@pytest.mark.parametrize("s0, rates", [
    ((1.0, 0.6), (1.0, 0.5, 1.0, 0.8)),   # A held exactly at 1.0 by a zero net
    ((1.0, 0.3), (0.8, 1.0, 1.0, 1.0)),   # A leaves 1.0 downward, B's net is zero
    ((0.7, 0.3), (0.5, 0.2, 0.9, 0.7)),   # B reaches zero at t = 0.6
    ((0.2, 0.0), (0.5, 0.0, 0.5, 0.3)),   # B starts at zero and drains
])
def test_flow_free_stretch_equals_repeated_rk4_step(policy, s0, rates):
    p_a, p_b, c_a, c_b = rates
    econ = GoodEconomy(p_a, p_b, c_a, c_b, 2.0)
    series = _assert_stepped(NormalizedState(*s0), econ,
                             _opts(horizon=1.005, step=1e-2, depletion_policy=policy))
    assert not any(e.kind == "crossing" for e in series.events)
    if policy is DepletionPolicy.CLAMP_TO_ZERO:
        assert series.eta_b.min() >= 0.0
    if s0 == (0.7, 0.3) and policy is not DepletionPolicy.CONTINUE:
        assert series.events[-1].kind == ("clamp" if policy is DepletionPolicy.CLAMP_TO_ZERO
                                          else "depletion")


def test_flow_free_draws_below_the_threshold_equal_repeated_rk4_step():
    # nonpositive nets from starts at or below 1: no stage point ever flows
    rng = np.random.default_rng(13)
    for i in range(150):
        c_a, c_b = rng.uniform(0.0, 2.0, size=2)
        econ = GoodEconomy(c_a * rng.uniform(0.0, 1.0) if i % 4 else c_a,
                           c_b * rng.uniform(0.0, 1.0), c_a, c_b, rng.uniform(0.0, 4.0))
        s0 = NormalizedState(*rng.uniform(-0.05, 1.0, size=2))
        _assert_stepped(s0, econ, _opts(horizon=rng.uniform(0.5, 3.0), step=1e-2,
                                        depletion_policy=_POLICIES[i % 3]))


def _edge_step(stage_above: bool):
    """A step from (ea, 0.25) of length 0.1 with net na > 0 whose last stage
    point ea + step*na and flow-free end ea + d fall on opposite sides of 1,
    found by a seeded search: the stage point above 1 if ``stage_above``."""
    rng = np.random.default_rng(14)
    step = 0.1
    for _ in range(100_000):
        na = rng.uniform(0.1, 2.0)
        ea = 1.0 - step * na + rng.integers(-3, 4) * 2.0**-53
        end = ea + step / 6.0 * (na + 2.0 * (na + na) + na)
        if (ea + step * na > 1.0) == stage_above and (end > 1.0) != stage_above:
            return ea, na, step, end
    pytest.fail("no step with its stage point and its end across 1 was found")


def test_flow_free_shortcut_tests_the_stage_point_not_the_step_end():
    # the last stage point lands just above 1 and flows, so the kernel's step
    # is not the flow-free increment even though that increment ends below 1
    ea, na, step, end = _edge_step(stage_above=True)
    econ = GoodEconomy(na, 0.5, 0.0, 0.5, 1e3)  # B's net is exactly zero
    series = integrate_with_events(NormalizedState(ea, 0.25), econ,
                                   _opts(horizon=step, step=step))
    kernel = rk4_step(NormalizedState(ea, 0.25), econ, step)
    assert kernel != NormalizedState(end, 0.25)
    assert series.events == []
    assert (series.eta_a[1], series.eta_b[1]) == (kernel.eta_a, kernel.eta_b)


def test_flow_free_shortcut_tests_the_step_end_too():
    # every stage point sits at or below 1 but the step ends just above it:
    # a threshold crossing, which the shortcut must leave to the bisection
    ea, na, step, end = _edge_step(stage_above=False)
    econ = GoodEconomy(na, 0.5, 0.0, 0.5, 1e3)
    assert rk4_step(NormalizedState(ea, 0.25), econ, step) == NormalizedState(end, 0.25)
    series = integrate_with_events(NormalizedState(ea, 0.25), econ,
                                   _opts(horizon=step, step=step))
    assert [(e.kind, e.stock) for e in series.events] == [("crossing", "eta_a")]
