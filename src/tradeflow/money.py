"""Money along trajectories and at trade fixed points.

``fixed_point_production`` gives the productions that hold a one-sided
export fixed point. One good alone cannot pay both ways: with an A-advantaged
good, country B's money rate is the (negative) margin times its own
production, so B breaks even only by stopping production entirely. Two goods
traded in opposite directions can make both countries' money rates
non-negative; this module evaluates the four feasibility conditions, the
trade balances, and the exchange-coefficient relation that zeroes both
balances.

After substituting the balanced sigma2, every quantity depends on sigma1 and
eta_a1 only through the product k = sigma1*(eta_a1 - 1); all rate formulas
here are computed from k so that equal products give identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GoodEconomy, MoneyState, PriceSet, TwoGoodScenario, validate_scenario

__all__ = [
    "MarginCoefficients",
    "FeasibilityResult",
    "margins",
    "base_money_rates",
    "money_holdings",
    "fixed_point_production",
    "one_good_money_rates",
    "balanced_sigma2",
    "trade_balances",
    "feasibility_check",
]


@dataclass(frozen=True)
class MarginCoefficients:
    """Market price minus production cost, per country and good.

    For a valid scenario the sign pattern is (+, -, -, +): A profits on
    good 1 and loses on good 2, B the other way around.
    """

    alpha1: float  # good 1, country A
    alpha2: float  # good 2, country A
    beta1: float  # good 1, country B
    beta2: float  # good 2, country B


@dataclass(frozen=True)
class FeasibilityResult:
    """The four fixed-point conditions and the rates behind them."""

    money_a_ok: bool
    money_b_ok: bool
    prod_a2_ok: bool
    prod_b1_ok: bool
    dm_a: float
    dm_b: float
    p_a1: float
    p_a2: float
    p_b1: float
    p_b2: float

    @property
    def feasible(self) -> bool:
        return self.money_a_ok and self.money_b_ok and self.prod_a2_ok and self.prod_b1_ok


def _require_valid(s: TwoGoodScenario) -> None:
    problems = validate_scenario(s)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))


def margins(s: TwoGoodScenario) -> MarginCoefficients:
    """Per-unit money margins of the four (country, good) pairs."""
    _require_valid(s)
    return MarginCoefficients(
        alpha1=s.prices1.y - s.prices1.x_a,
        alpha2=s.prices2.y - s.prices2.x_a,
        beta1=s.prices1.y - s.prices1.x_b,
        beta2=s.prices2.y - s.prices2.x_b,
    )


def base_money_rates(econ: GoodEconomy, prices: PriceSet) -> tuple[float, float]:
    """Money rates of both countries with no exchange: each pays the cost x
    per unit it produces and earns the price y per unit it consumes. A flow f
    adds y*sigma*f to A's rate and subtracts it from B's."""
    y = prices.y
    return -prices.x_a * econ.p_a + y * econ.c_a, -prices.x_b * econ.p_b + y * econ.c_b


def money_holdings(econ: GoodEconomy, prices: PriceSet, money0: MoneyState | None,
                   h: np.ndarray, sf1, sf2, sf3, sf4) -> tuple[np.ndarray, np.ndarray]:
    """Money holdings of both countries at every sample of a trajectory.

    Money never feeds back into the stocks, so a classical RK4 step of the
    money rates is a quadrature over the step's four stage flows sigma*f
    (arrays ``sf1``..``sf4``, one entry per step of length ``h``): with rates
    r = base +- y*sf, each increment is h/6*(r1 + 2*(r2 + r3) + r4), and with
    the exact midpoint flow as both ``sf2`` and ``sf3`` this is Simpson's
    rule. The holdings start at ``money0`` (zero if None) and add the
    increments in sequence."""
    base_a, base_b = base_money_rates(econ, prices)
    y = prices.y
    sixth = h / 6.0
    m0 = money0 if money0 is not None else MoneyState(0.0, 0.0)

    def holdings(m_start: float, rate) -> np.ndarray:
        increments = sixth * (rate(sf1) + 2.0 * (rate(sf2) + rate(sf3)) + rate(sf4))
        return np.cumsum(np.concatenate(([m_start], increments)))

    return (holdings(m0.m_a, lambda sf: base_a + y * sf),
            holdings(m0.m_b, lambda sf: base_b - y * sf))


def fixed_point_production(
    eta_a_star: float, c_a: float, c_b: float, sigma: float
) -> tuple[float, float]:
    """Production rates that hold (eta_a_star, eta_b < 1) stationary.

    The exporter A overproduces by exactly the outflow sigma*(eta_a_star - 1)
    and the importer B underproduces by the same amount; swap the roles of
    c_a and c_b for a good that B exports. Raises when the importer's
    production would be negative.
    """
    for name, v in (("eta_star", eta_a_star), ("the exporter's consumption", c_a),
                    ("the importer's consumption", c_b), ("sigma", sigma)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if eta_a_star < 1.0:
        raise ValueError(
            f"eta_star must be >= 1 (at or above the exchange threshold), got {eta_a_star!r}"
        )
    if sigma < 0.0 or c_a < 0.0 or c_b < 0.0:
        raise ValueError("consumptions and sigma must be >= 0")
    outflow = sigma * (eta_a_star - 1.0)
    p_b = c_b - outflow
    if p_b < 0.0:
        raise ValueError(
            f"infeasible fixed point: sigma*(eta_star - 1) = {outflow!r} exceeds "
            f"the importer's consumption {c_b!r}, implying a negative production "
            "rate for the importer"
        )
    return c_a + outflow, p_b


def one_good_money_rates(
    econ: GoodEconomy, prices: PriceSet, eta_a_star: float
) -> tuple[float, float]:
    """Money rates of both countries at a one-good A-exports fixed point.

    With productions pinned by the fixed point, each rate collapses to the
    country's margin times its own production: dm_a = (y - x_a)*p_a and
    dm_b = (y - x_b)*p_b. Since y < x_b, country B gains only when p_b = 0.
    Ordered (not necessarily strict) A-advantage is required so the boundary
    cases x_a = y or y = x_b stay usable as limit checks.
    """
    if not (prices.x_a <= prices.y <= prices.x_b):
        raise ValueError(
            "A-advantaged prices required (x_a <= y <= x_b), got "
            f"x_a={prices.x_a!r}, y={prices.y!r}, x_b={prices.x_b!r}"
        )
    p_a, p_b = fixed_point_production(eta_a_star, econ.c_a, econ.c_b, econ.sigma)
    return (prices.y - prices.x_a) * p_a, (prices.y - prices.x_b) * p_b


def balanced_sigma2(
    sigma1: float, eta_a1: float, eta_b2: float, y1: float, y2: float
) -> float:
    """Exchange coefficient of good 2 that zeroes both trade balances.

    Scales sigma1 by the ratio of threshold excesses and of prices, so the
    currency value of each country's exports matches its imports.
    """
    if not (eta_b2 > 1.0):
        raise ValueError(
            f"eta_b2 must be > 1 (positive threshold excess), got {eta_b2!r}"
        )
    if not (y2 > 0.0):
        raise ValueError(f"y2 must be positive, got {y2!r}")
    return ((eta_a1 - 1.0) / (eta_b2 - 1.0)) * (y1 / y2) * sigma1


def trade_balances(
    s: TwoGoodScenario, sigma1: float, sigma2: float
) -> tuple[float, float, float, float]:
    """Currency value per unit time of each country's net exports, per good.

    Returns (b_a1, b_a2, b_b1, b_b2); the two countries' entries are exact
    negations, so b_a1 + b_a2 == -(b_b1 + b_b2) identically.
    """
    _require_valid(s)
    b_a1 = s.prices1.y * sigma1 * (s.eta_a1 - 1.0)
    b_a2 = -(s.prices2.y * sigma2 * (s.eta_b2 - 1.0))
    return b_a1, b_a2, -b_a1, -b_a2


def _rates_at_k(
    s: TwoGoodScenario, m: MarginCoefficients, k: float
) -> tuple[float, float, float, float, float, float]:
    """Money rates and productions as functions of k = sigma1*(eta_a1 - 1),
    with sigma2 eliminated through the balanced-trade relation. ``m`` is
    ``margins(s)``, computed (and ``s`` validated) once by the caller. ``k``
    may also be a numpy array, evaluated elementwise with the same rounding."""
    k2 = k * (s.prices1.y / s.prices2.y)  # = sigma2*(eta_b2 - 1) under balance
    p_a1 = s.good1.c_a + k
    p_a2 = s.good2.c_a - k2
    p_b1 = s.good1.c_b - k
    p_b2 = s.good2.c_b + k2
    dm_a = m.alpha1 * p_a1 + m.alpha2 * p_a2
    dm_b = m.beta1 * p_b1 + m.beta2 * p_b2
    return dm_a, dm_b, p_a1, p_a2, p_b1, p_b2


def feasibility_check(
    s: TwoGoodScenario, sigma1: float, eta_a1: float | None = None
) -> FeasibilityResult:
    """Feasibility of the two-good fixed point at (sigma1, eta_a1), evaluated
    at the transfer intensity k = sigma1*(eta_a1 - 1). Boundary values (rates
    exactly zero) count as feasible.

    ``eta_a1`` defaults to the scenario's fixed-point stock. This is the
    per-node reference: the region scan never calls it, but evaluates the
    same rates over the whole grid in one vectorized pass, bit-identical to it.
    """
    if not (sigma1 >= 0.0) or not math.isfinite(sigma1):
        raise ValueError(f"sigma1 must be >= 0 and finite, got {sigma1!r}")
    eta = s.eta_a1 if eta_a1 is None else eta_a1
    if not (eta >= 1.0) or not math.isfinite(eta):
        raise ValueError(f"eta_a1 must be >= 1 and finite, got {eta!r}")
    dm_a, dm_b, p_a1, p_a2, p_b1, p_b2 = _rates_at_k(s, margins(s), sigma1 * (eta - 1.0))
    return FeasibilityResult(
        money_a_ok=dm_a >= 0.0,
        money_b_ok=dm_b >= 0.0,
        prod_a2_ok=p_a2 >= 0.0,
        prod_b1_ok=p_b1 >= 0.0,
        dm_a=dm_a,
        dm_b=dm_b,
        p_a1=p_a1,
        p_a2=p_a2,
        p_b1=p_b1,
        p_b2=p_b2,
    )
