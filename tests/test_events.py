import math
from pathlib import Path

import numpy as np
import pytest

from tradeflow.analytic import simulate_analytic
from tradeflow.core import Event, GoodEconomy, NormalizedState, Regime
from tradeflow.integrator import SolverOptions, integrate_with_events
from tradeflow.scenario import parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CROSSING = parse_scenario(SCENARIO_DIR / "crossing.scenario")
STEADY = parse_scenario(SCENARIO_DIR / "steady_state.scenario")


@pytest.mark.parametrize("event, text", [
    (Event(2.0, "crossing", "eta_a", "upward"), "eta_a crossed the threshold upward"),
    (Event(2.0, "crossing", "eta_b", "downward"), "eta_b crossed the threshold downward"),
    (Event(2.0, "crossing", "eta_b", "upward"), "eta_b crossed the threshold upward"),
    (Event(2.0, "crossing", "eta_a", "downward"), "eta_a crossed the threshold downward"),
    (Event(1.0, "depletion", "eta_a", "reached zero"), "depletion: eta_a reached zero"),
    (Event(0.0, "depletion", "eta_b", "negative at start"),
     "depletion: eta_b negative at start"),
    (Event(1.5, "clamp", "eta_a"), "clamped eta_a to zero"),
])
def test_event_text(event, text):
    assert str(event) == text


def test_unknown_event_kind_is_rejected():
    # the closed form's regime `switch` is gone: both engines log crossings
    with pytest.raises(ValueError, match="unknown event kind"):
        Event(1.0, "switch", None, Regime.BILATERAL.value)


def _both_engines(state0, econ, opts):
    series = integrate_with_events(state0, econ, opts)
    traj = simulate_analytic(state0, econ, opts.horizon, event_tol=opts.event_tol)
    return series, traj


def _xfail(repro, item):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"{repro}; ROADMAP item {item}")


@pytest.mark.parametrize("state0, econ, opts", [
    pytest.param(CROSSING.initial, CROSSING.good1, CROSSING.solver, id="crossing.scenario"),
    pytest.param(STEADY.initial, STEADY.good1, STEADY.solver, id="steady_state.scenario"),
    pytest.param(NormalizedState(1.0, CROSSING.initial.eta_b), CROSSING.good1,
                 CROSSING.solver, id="exact-threshold-start"),
    pytest.param(NormalizedState(0.503, 0.503), GoodEconomy(1.5, 1.5, 1.0, 1.0, 2.0),
                 SolverOptions(horizon=1.5, step=1e-2), id="tie"),
    # sigma = 0: eta_a rises from 1 by 1.5e-6 per unit time and never crosses.
    # It is not bracketed (it is past 1 at the 1e-10 step-in), so it keeps its
    # side at eta_b's crossing, 5.8e-11 in, where its value still rounds to 1
    pytest.param(NormalizedState(1.0, 1.0 + 1e-12),
                 GoodEconomy(1.0 + 1.5e-6, 0.0, 1.0, 1.0, 0.0),
                 SolverOptions(horizon=1.0, step=0.01), id="unbracketed-stock-at-1"),
    pytest.param(NormalizedState(2.0, 0.1 + math.log(10.0) / 10.0 + 1e-7),
                 GoodEconomy(1.0, 0.9, 1.0, 1.0, 1.0), SolverOptions(horizon=4.0, step=0.01),
                 id="grazing",
                 marks=_xfail("eta_b grazes 1 inside one RK4 step: the closed form logs it "
                              "up at 2.30117 and down at 2.30400, RK4 logs nothing", 6)),
    pytest.param(NormalizedState(0.5, 0.5), GoodEconomy(0.5, 1.0, 1.0, 1.0, 1.0),
                 SolverOptions(horizon=10.0, step=0.01), id="halt-depletion",
                 marks=_xfail("eta_a reaches zero at t = 1: RK4 halts with a depletion, "
                              "the closed form ignores the policy", 5)),
    pytest.param(NormalizedState(1.0, 1.0),
                 GoodEconomy(1.5, 2.2289003611573666, 1.5, 2.1820286560439563, 1.0),
                 SolverOptions(horizon=5.748370082019018, step=0.01), id="spurious-crossings",
                 marks=_xfail("eta_a starts at 1 and rises: the closed form logs it up, down, "
                              "up, down, up before t = 1.2e-7, RK4 logs one upward crossing",
                              10)),
])
def test_engines_log_the_same_events(state0, econ, opts):
    series, traj = _both_engines(state0, econ, opts)
    assert ([(e.kind, e.stock, e.detail) for e in series.events]
            == [(e.kind, e.stock, e.detail) for e in traj.events])
    for numeric, exact in zip(series.events, traj.events):
        assert abs(numeric.t - exact.t) <= 1e-8


def test_engines_agree_on_the_crossing_events():
    series, traj = _both_engines(CROSSING.initial, CROSSING.good1, CROSSING.solver)
    for events in (series.events, traj.events):
        assert [(e.kind, e.stock, e.detail) for e in events] == [
            ("crossing", "eta_a", "upward"), ("crossing", "eta_b", "upward")]
        assert abs(events[0].t - 2.0) <= 1e-8 and abs(events[1].t - 4.9475) <= 1e-4
    for e, regime in zip(series.events, (Regime.A_EXPORTS, Regime.BILATERAL)):
        i = int(np.searchsorted(series.times, e.t))
        assert series.times[i] == e.t
        assert tuple(Regime)[series.regimes[i]] is regime  # the regime right after the crossing


def test_steady_state_has_no_events_in_either_engine():
    series, traj = _both_engines(STEADY.initial, STEADY.good1, STEADY.solver)
    assert series.events == [] and traj.events == []
