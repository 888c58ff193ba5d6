"""Domain types shared across the package.

All quantities are stored normalized: stock levels in units of the exchange
threshold (so trade activates above 1.0) and rates per unit time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "NormalizedState",
    "GoodEconomy",
    "Regime",
    "Event",
    "PriceSet",
    "MoneyState",
    "TwoGoodScenario",
    "validate_scenario",
]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    _require_finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _coerce_floats(obj, *names: str) -> None:
    # store plain floats: numpy scalars passed in by callers would otherwise
    # leak into the integrator's hot loop and slow it several-fold
    for name in names:
        v = getattr(obj, name)
        if type(v) is not float:
            object.__setattr__(obj, name, float(v))


@dataclass(frozen=True)
class NormalizedState:
    """Stock levels of countries A and B in units of the exchange threshold.

    Negative values are representable (how the integrator treats them is a
    solver policy, not a type constraint).
    """

    eta_a: float
    eta_b: float

    def __post_init__(self) -> None:
        _coerce_floats(self, "eta_a", "eta_b")
        _require_finite("eta_a", self.eta_a)
        _require_finite("eta_b", self.eta_b)

    def swapped(self) -> "NormalizedState":
        return NormalizedState(self.eta_b, self.eta_a)


@dataclass(frozen=True)
class GoodEconomy:
    """Constant per-good rates: production and consumption in each country,
    plus the exchange coefficient coupling the two stocks."""

    p_a: float  # production rate, country A
    p_b: float  # production rate, country B
    c_a: float  # consumption rate, country A
    c_b: float  # consumption rate, country B
    sigma: float  # exchange coefficient (per unit time)

    def __post_init__(self) -> None:
        _coerce_floats(self, "p_a", "p_b", "c_a", "c_b", "sigma")
        _require_nonnegative("p_a", self.p_a)
        _require_nonnegative("p_b", self.p_b)
        _require_nonnegative("c_a", self.c_a)
        _require_nonnegative("c_b", self.c_b)
        _require_nonnegative("sigma", self.sigma)

    @property
    def net_a(self) -> float:
        """Net production rate of country A (production minus consumption)."""
        return self.p_a - self.c_a

    @property
    def net_b(self) -> float:
        return self.p_b - self.c_b

    def swapped(self) -> "GoodEconomy":
        """Mirror the two countries' roles."""
        return GoodEconomy(self.p_b, self.p_a, self.c_b, self.c_a, self.sigma)


class Regime(Enum):
    """Which branch of the piecewise exchange law is active."""

    NO_EXCHANGE = "no_exchange"
    A_EXPORTS = "a_exports"
    B_EXPORTS = "b_exports"
    BILATERAL = "bilateral"


_EVENT_TEXT = {
    "crossing": "{stock} crossed the threshold {detail}",
    "switch": "regime switch to {detail.value}",
    "depletion": "depletion: {stock} {detail}",
    "clamp": "clamped {stock} to zero",
}


@dataclass(frozen=True)
class Event:
    """A discrete event at time ``t`` on a trajectory; ``str()`` gives its text.

    ``kind`` is ``crossing`` (``stock`` crossed the threshold; ``detail`` is
    ``upward`` or ``downward``), ``switch`` (the closed form entered the regime
    ``detail``; no stock), ``depletion`` (``stock`` ``reached zero`` or was
    ``negative at start``; ends the run) or ``clamp`` (``stock`` went negative
    and was set to zero).
    """

    t: float
    kind: str
    stock: str | None = None
    detail: str | Regime | None = None

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_TEXT:
            raise ValueError(f"unknown event kind {self.kind!r}")

    def __str__(self) -> str:
        return _EVENT_TEXT[self.kind].format(stock=self.stock, detail=self.detail)


@dataclass(frozen=True)
class PriceSet:
    """Money parameters of one good: domestic production costs and the
    converged international price (currency per unit good)."""

    x_a: float  # production cost in country A
    x_b: float  # production cost in country B
    y: float  # converged market price

    def __post_init__(self) -> None:
        _coerce_floats(self, "x_a", "x_b", "y")
        _require_nonnegative("x_a", self.x_a)
        _require_nonnegative("x_b", self.x_b)
        _require_nonnegative("y", self.y)


@dataclass(frozen=True)
class MoneyState:
    """Money holdings of the two countries; debt (negative) is representable."""

    m_a: float
    m_b: float

    def __post_init__(self) -> None:
        _coerce_floats(self, "m_a", "m_b")
        _require_finite("m_a", self.m_a)
        _require_finite("m_b", self.m_b)


@dataclass(frozen=True)
class TwoGoodScenario:
    """Two goods traded in opposite directions: A exports good 1, B exports
    good 2, with fixed-point stock levels for the exporting side of each.

    Construction only checks finiteness; use :func:`validate_scenario` for the
    semantic constraints (strict price orderings, stocks above threshold).
    """

    good1: GoodEconomy
    good2: GoodEconomy
    prices1: PriceSet
    prices2: PriceSet
    eta_a1: float  # fixed-point stock of good 1 in country A
    eta_b2: float  # fixed-point stock of good 2 in country B

    def __post_init__(self) -> None:
        _coerce_floats(self, "eta_a1", "eta_b2")
        _require_finite("eta_a1", self.eta_a1)
        _require_finite("eta_b2", self.eta_b2)


def validate_scenario(s: TwoGoodScenario) -> list[str]:
    """Check the semantic invariants of a two-good scenario.

    Returns the list of violated constraints; an empty list means valid.
    All inequalities are strict: boundary cases (a cost equal to the market
    price, a stock exactly at threshold) are rejected.
    """
    problems: list[str] = []
    if not (s.prices1.x_a < s.prices1.y):
        problems.append(
            "prices1: country A's production cost must be strictly below the "
            f"market price (x_a={s.prices1.x_a!r}, y={s.prices1.y!r})"
        )
    if not (s.prices1.y < s.prices1.x_b):
        problems.append(
            "prices1: the market price must be strictly below country B's "
            f"production cost (y={s.prices1.y!r}, x_b={s.prices1.x_b!r})"
        )
    if not (s.prices2.x_b < s.prices2.y):
        problems.append(
            "prices2: country B's production cost must be strictly below the "
            f"market price (x_b={s.prices2.x_b!r}, y={s.prices2.y!r})"
        )
    if not (s.prices2.y < s.prices2.x_a):
        problems.append(
            "prices2: the market price must be strictly below country A's "
            f"production cost (y={s.prices2.y!r}, x_a={s.prices2.x_a!r})"
        )
    if not (s.eta_a1 > 1.0):
        problems.append(f"eta_a1 must be > 1 (above threshold), got {s.eta_a1!r}")
    if not (s.eta_b2 > 1.0):
        problems.append(f"eta_b2 must be > 1 (above threshold), got {s.eta_b2!r}")
    return problems
