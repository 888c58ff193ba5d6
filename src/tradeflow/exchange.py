"""Threshold-activated exchange law and regime classification.

This module is the single source of truth for the piecewise right-hand side:
each country contributes its excess stock above the threshold, and the net
flow is the difference of the two excesses. The flow is continuous, so the
branch convention at the threshold never changes a trajectory. It also owns
the location of threshold crossings: one bracketing bisection and the
residual a localized crossing may leave.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import GoodEconomy, NormalizedState, Regime

__all__ = ["GUARD_STATE_TOL", "bisect", "exchange_flow", "flow_array", "classify_regime",
           "regime_from_sides", "rhs"]

#: Residual |eta - guard| allowed at a localized crossing.
GUARD_STATE_TOL = 1e-9


def exchange_flow(state: NormalizedState) -> float:
    """Dimensionless exchange rate factor.

    Zero when both stocks are at or below threshold, the (positive) excess of
    the exporting country when only one is above, and the difference of
    excesses when both are.
    """
    ex_a = state.eta_a - 1.0
    if ex_a < 0.0:
        ex_a = 0.0
    ex_b = state.eta_b - 1.0
    if ex_b < 0.0:
        ex_b = 0.0
    return ex_a - ex_b


def flow_array(eta_a: np.ndarray, eta_b: np.ndarray) -> np.ndarray:
    """Elementwise :func:`exchange_flow` over arrays of stock levels."""
    return np.maximum(eta_a - 1.0, 0.0) - np.maximum(eta_b - 1.0, 0.0)


def regime_from_sides(a_above: bool, b_above: bool) -> Regime:
    if a_above:
        return Regime.BILATERAL if b_above else Regime.A_EXPORTS
    return Regime.B_EXPORTS if b_above else Regime.NO_EXCHANGE


def classify_regime(state: NormalizedState) -> Regime:
    """Which exchange branch is active at ``state``.

    A stock exactly at threshold counts as below; the flow vanishes there
    under every assignment, so only determinism is at stake.
    """
    return regime_from_sides(state.eta_a > 1.0, state.eta_b > 1.0)


def rhs(state: NormalizedState, econ: GoodEconomy) -> tuple[float, float]:
    """Time derivatives (deta_a, deta_b) of the two stock levels.

    The exchange term cancels in the sum, so deta_a + deta_b equals the total
    net production rate regardless of sigma or the state (up to rounding).
    """
    s = econ.sigma * exchange_flow(state)
    return econ.p_a - econ.c_a - s, econ.p_b - econ.c_b + s


def bisect(past: Callable[[float], bool], lo: float, hi: float, tol: float = 0.0,
           settled: Callable[[float], bool] | None = None) -> tuple[float, float]:
    """Shrink a bracket (``past`` false at lo, true at hi) until its width is
    at most ``tol`` and ``settled(hi)`` holds (or ``settled`` is None), or
    until the midpoint no longer splits it. Returns the final (lo, hi)."""
    while True:
        width = hi - lo
        if width <= tol and (settled is None or settled(hi)):
            return lo, hi
        mid = lo + 0.5 * width
        if mid <= lo or mid >= hi:
            return lo, hi
        if past(mid):
            hi = mid
        else:
            lo = mid
