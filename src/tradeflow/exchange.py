"""Threshold-activated exchange law and regime classification.

This module is the single source of truth for the piecewise right-hand side:
each country contributes its excess stock above the threshold, and the net
flow is the difference of the two excesses. The flow is continuous, so the
branch convention at the threshold never changes a trajectory; ``sides`` is
the one rule both engines use to side a stock exactly at 1. It also owns
the location of threshold crossings: one bracketing bisection and the
residual a localized crossing may leave. The bisection also owns its
bracket's upper end: the value its ``past`` test returned there (an RK4 state
and guard, a closed-form excess, or just True) is kept for ``settled`` and
returned with the bracket, so no caller evaluates a point twice.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from .core import GoodEconomy, NormalizedState, Regime

__all__ = ["GUARD_STATE_TOL", "MAX_SEGMENTS", "bisect", "exchange_flow", "flow_array",
           "regime_code", "regime_from_sides", "rhs", "sides"]

_T = TypeVar("_T")

_REGIMES = tuple(Regime)

#: Residual |eta - guard| allowed at a localized crossing.
GUARD_STATE_TOL = 1e-9

#: Most closed-form segments and located RK4 event steps per run. Continuous
#: fields switch only a few times, so reaching it means a bug or rounding that
#: chatters at the threshold (an export equilibrium 1 + n/sigma that rounds to
#: 1 with sigma above ~1e16*n, or a stiff RK4 step).
MAX_SEGMENTS = 10_000


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


def regime_code(a_above, b_above):
    """The code of the sides' regime, its index in ``Regime``; elementwise on arrays."""
    return a_above + 2 * b_above


def regime_from_sides(a_above: bool, b_above: bool) -> Regime:
    return _REGIMES[regime_code(a_above, b_above)]


def sides(eta_a: float, eta_b: float, econ: GoodEconomy) -> tuple[bool, bool]:
    """Whether each stock is above the threshold: ``eta > 1``, or at 1 with a positive
    derivative, the side the field carries it into (Filippov 1988)."""
    if eta_a != 1.0 and eta_b != 1.0:
        return eta_a > 1.0, eta_b > 1.0
    da, db = rhs(NormalizedState(eta_a, eta_b), econ)
    return eta_a > 1.0 or (eta_a == 1.0 and da > 0.0), eta_b > 1.0 or (eta_b == 1.0 and db > 0.0)


def rhs(state: NormalizedState, econ: GoodEconomy) -> tuple[float, float]:
    """Time derivatives (deta_a, deta_b) of the two stock levels.

    The exchange term cancels in the sum, so deta_a + deta_b equals the total
    net production rate regardless of sigma or the state (up to rounding).
    """
    s = econ.sigma * exchange_flow(state)
    return econ.p_a - econ.c_a - s, econ.p_b - econ.c_b + s


def bisect(past: Callable[[float], _T | None], lo: float, hi: float, tol: float = 0.0,
           settled: Callable[[_T], bool] | None = None,
           at_hi: _T | None = None) -> tuple[float, float, _T]:
    """Shrink a bracket around the switch of ``past``: None at lo and before
    the switch, past it the value its caller needs (never None). ``at_hi`` is
    that value at the initial hi when the caller already has it.

    Stops once the width is at most ``tol`` and ``settled`` holds for the
    value at hi (or ``settled`` is None), or once the midpoint no longer
    splits the bracket. ``past`` runs at most once per point and never at lo.
    Returns the final (lo, hi, value at hi)."""
    while True:
        width = hi - lo
        if width <= tol:
            if settled is None:
                break
            if at_hi is None:
                at_hi = past(hi)
            if settled(at_hi):
                break
        mid = lo + 0.5 * width
        if mid <= lo or mid >= hi:
            break
        value = past(mid)
        if value is None:
            lo = mid
        else:
            hi, at_hi = mid, value
    if at_hi is None:
        at_hi = past(hi)
    return lo, hi, at_hi
