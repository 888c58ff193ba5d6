from pathlib import Path

import numpy as np
import pytest

from tradeflow.analytic import simulate_analytic
from tradeflow.core import Event, Regime
from tradeflow.integrator import integrate_with_events
from tradeflow.scenario import parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("event, text", [
    (Event(2.0, "crossing", "eta_a", "upward"), "eta_a crossed the threshold upward"),
    (Event(2.0, "crossing", "eta_b", "downward"), "eta_b crossed the threshold downward"),
    (Event(2.0, "switch", None, Regime.A_EXPORTS), "regime switch to a_exports"),
    (Event(2.0, "switch", None, Regime.NO_EXCHANGE), "regime switch to no_exchange"),
    (Event(1.0, "depletion", "eta_a", "reached zero"), "depletion: eta_a reached zero"),
    (Event(0.0, "depletion", "eta_b", "negative at start"),
     "depletion: eta_b negative at start"),
    (Event(1.5, "clamp", "eta_a"), "clamped eta_a to zero"),
])
def test_event_text(event, text):
    assert str(event) == text


def test_unknown_event_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown event kind"):
        Event(1.0, "regime switch", None, Regime.BILATERAL)


def _both_engines(name):
    sc = parse_scenario(SCENARIO_DIR / name)
    series = integrate_with_events(sc.initial, sc.good1, sc.solver)
    traj = simulate_analytic(sc.initial, sc.good1, sc.solver.horizon,
                             event_tol=sc.solver.event_tol)
    return series, traj


def test_engines_agree_on_the_crossing_events():
    series, traj = _both_engines("crossing.scenario")
    crossings, switches = series.events, traj.events
    assert [(e.kind, e.stock, e.detail) for e in crossings] == [
        ("crossing", "eta_a", "upward"), ("crossing", "eta_b", "upward")]
    assert [(e.kind, e.detail) for e in switches] == [
        ("switch", Regime.A_EXPORTS), ("switch", Regime.BILATERAL)]
    assert abs(crossings[0].t - 2.0) <= 1e-8 and abs(crossings[1].t - 4.9475) <= 1e-4
    for crossing, switch in zip(crossings, switches):
        assert abs(crossing.t - switch.t) <= 1e-8
        i = int(np.searchsorted(series.times, crossing.t))
        assert series.times[i] == crossing.t
        assert series.regimes[i] is switch.detail  # the regime right after the crossing


def test_steady_state_has_no_events_in_either_engine():
    series, traj = _both_engines("steady_state.scenario")
    assert series.events == [] and traj.events == []
