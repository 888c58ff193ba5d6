import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradeflow.core import (
    GoodEconomy,
    MoneyState,
    NormalizedState,
    PriceSet,
    TwoGoodScenario,
    validate_scenario,
)


def test_state_accepts_any_finite_values():
    s = NormalizedState(-1.5, 0.0)
    assert s.eta_a == -1.5 and s.eta_b == 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_state_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        NormalizedState(bad, 0.0)
    with pytest.raises(ValueError):
        NormalizedState(0.0, bad)


def test_economy_rejects_negative_rates():
    with pytest.raises(ValueError):
        GoodEconomy(p_a=-0.1, p_b=0.0, c_a=0.0, c_b=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        GoodEconomy(p_a=0.0, p_b=0.0, c_a=0.0, c_b=0.0, sigma=-1.0)


def test_economy_net_rates_are_production_minus_consumption():
    e = GoodEconomy(1.0, 2.0, 3.0, 5.0, 5.0)
    assert e.net_a == -2.0 and e.net_b == -3.0


def test_money_state_allows_debt():
    assert MoneyState(-3.0, 1.0).m_a == -3.0


def _scenario(prices1=PriceSet(1.0, 3.0, 2.0), prices2=PriceSet(5.0, 2.0, 4.0),
              eta_a1=2.0, eta_b2=2.0):
    good = GoodEconomy(1.0, 1.0, 1.0, 1.0, 1.0)
    return TwoGoodScenario(good, good, prices1, prices2, eta_a1, eta_b2)


def test_validate_accepts_reference_prices():
    assert validate_scenario(_scenario()) == []


def test_validate_rejects_price_boundary():
    problems = validate_scenario(_scenario(prices1=PriceSet(2.0, 3.0, 2.0)))
    assert len(problems) == 1
    assert "strictly below the market price" in problems[0]


def test_validate_rejects_threshold_stock():
    problems = validate_scenario(_scenario(eta_a1=1.0))
    assert problems == [f"eta_a1 must be > 1 (above threshold), got {1.0!r}"]


def test_validate_reports_all_violations():
    problems = validate_scenario(
        _scenario(prices1=PriceSet(2.0, 1.0, 2.0), eta_a1=0.5, eta_b2=1.0)
    )
    assert len(problems) == 4


@given(
    x_a1=st.floats(0.0, 5.0), y1=st.floats(0.0, 5.0), x_b1=st.floats(0.0, 5.0),
    x_a2=st.floats(0.0, 5.0), y2=st.floats(0.0, 5.0), x_b2=st.floats(0.0, 5.0),
    eta_a1=st.floats(0.5, 3.0), eta_b2=st.floats(0.5, 3.0),
)
def test_validation_agrees_with_direct_inequalities(
    x_a1, y1, x_b1, x_a2, y2, x_b2, eta_a1, eta_b2
):
    s = _scenario(PriceSet(x_a1, x_b1, y1), PriceSet(x_a2, x_b2, y2), eta_a1, eta_b2)
    ok = (
        x_a1 < y1 < x_b1
        and x_b2 < y2 < x_a2
        and eta_a1 > 1.0
        and eta_b2 > 1.0
    )
    assert (validate_scenario(s) == []) == ok
