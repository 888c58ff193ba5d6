import numpy as np
import pytest

from tradeflow.core import GoodEconomy, NormalizedState
from tradeflow.exchange import rhs
from tradeflow.money import fixed_point_production


def test_production_splits_the_outflow():
    # A overproduces by eps*sigma, B underproduces by the same amount
    p_a, p_b = fixed_point_production(1.5, c_a=1.0, c_b=2.0, sigma=2.0)
    assert (p_a, p_b) == (2.0, 1.0)


def test_production_at_threshold_is_autarky():
    assert fixed_point_production(1.0, 1.3, 0.7, 5.0) == (1.3, 0.7)


def test_production_boundary_stops_b_entirely():
    p_a, p_b = fixed_point_production(3.0, c_a=1.0, c_b=2.0, sigma=1.0)
    assert p_b == 0.0 and p_a == 3.0


def test_production_rejects_infeasible_outflow():
    with pytest.raises(ValueError, match="exceeds"):
        fixed_point_production(4.0, c_a=1.0, c_b=2.0, sigma=1.0)


def test_production_rejects_stock_below_threshold():
    with pytest.raises(ValueError, match=">= 1"):
        fixed_point_production(0.5, 1.0, 2.0, 1.0)


def test_effort_scales_exactly_with_the_excess():
    # raising eta_star moves both productions by exactly sigma*(eta-1)
    c_a, c_b, sigma = 1.0, 4.0, 2.0
    for eps in (0.25, 0.5, 1.0):
        p_a, p_b = fixed_point_production(1.0 + eps, c_a, c_b, sigma)
        assert p_a == c_a + sigma * ((1.0 + eps) - 1.0)
        assert p_b == c_b - sigma * ((1.0 + eps) - 1.0)


def test_production_feeds_back_to_a_zero_field():
    p_a, p_b = fixed_point_production(1.5, c_a=1.0, c_b=2.0, sigma=2.0)
    econ = GoodEconomy(p_a, p_b, 1.0, 2.0, 2.0)
    assert rhs(NormalizedState(1.5, 0.7), econ) == (0.0, 0.0)
    assert rhs(NormalizedState(1.5, 0.2), econ) == (0.0, 0.0)


def test_sum_rule_production_equals_consumption():
    rng = np.random.default_rng(41)
    for _ in range(200):
        c_a, c_b = rng.uniform(0, 5, size=2)
        sigma = rng.uniform(0, 3)
        eta = 1.0 + rng.uniform(0.0, 1.0) * (c_b / sigma if sigma > 0 else 1.0)
        p_a, p_b = fixed_point_production(eta, c_a, c_b, sigma)
        assert abs((p_a + p_b) - (c_a + c_b)) <= 1e-12
