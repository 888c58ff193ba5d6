"""Fixed-point analysis: productions balancing a one-sided export fixed
point, steady-state testing, and the per-regime equilibrium survey."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import GoodEconomy, NormalizedState, Regime
from .exchange import rhs

__all__ = [
    "fixed_point_production",
    "is_steady_state",
    "RegimeEquilibrium",
    "regime_equilibria",
]


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


def is_steady_state(state: NormalizedState, econ: GoodEconomy, tol: float) -> bool:
    """True when both stock derivatives vanish to within tol."""
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    da, db = rhs(state, econ)
    return abs(da) <= tol and abs(db) <= tol


@dataclass(frozen=True)
class RegimeEquilibrium:
    """Stationarity analysis of one regime region.

    ``attractor_value`` is the level the regime's contracting coordinate
    relaxes to (at rate sigma for one-sided export, 2*sigma for bilateral);
    ``has_fixed_point`` says whether the full system is stationary somewhere
    inside the region, which additionally needs the net production rates to
    cancel.
    """

    regime: Regime
    has_fixed_point: bool
    attractor_coord: str | None
    attractor_value: float | None
    note: str


def regime_equilibria(econ: GoodEconomy) -> list[RegimeEquilibrium]:
    """Survey each regime region for stationary points.

    With sigma = 0 only the decoupled analysis applies and a single entry is
    returned.
    """
    na, nb = econ.net_a, econ.net_b
    balanced = na + nb == 0.0

    if na == 0.0 and nb == 0.0:
        no_exchange = RegimeEquilibrium(
            Regime.NO_EXCHANGE,
            True,
            None,
            None,
            "both countries balanced; every state at or below threshold is stationary",
        )
    else:
        no_exchange = RegimeEquilibrium(
            Regime.NO_EXCHANGE,
            False,
            None,
            None,
            "stocks drift at the net production rates; no stationary point",
        )
    if econ.sigma == 0.0:
        return [no_exchange]

    sigma = econ.sigma
    eta_a_star = (na + sigma) / sigma
    eta_b_star = (nb + sigma) / sigma
    d_star = (na - nb) / (2.0 * sigma)

    def export_entry(regime: Regime, coord: str, star: float, net_lead: float) -> RegimeEquilibrium:
        in_region = net_lead > 0.0
        has = in_region and balanced
        if has:
            note = (
                f"{coord} relaxes to {star!r}; the follower is stationary because the "
                "net production rates cancel (importer consumes exactly the inflow)"
            )
        elif not in_region:
            note = (
                f"attractor {coord} = {star!r} lies at or below the threshold, "
                "outside this regime's region"
            )
        else:
            note = (
                f"{coord} relaxes to {star!r} but the follower keeps drifting; a full "
                "fixed point needs the net production rates to cancel"
            )
        return RegimeEquilibrium(regime, has, coord, star, note)

    bilateral_has = balanced
    if bilateral_has:
        bilateral_note = (
            f"stationary line eta_a - eta_b = {d_star!r} with both stocks above "
            "threshold; the total stock is conserved"
        )
    else:
        bilateral_note = (
            f"eta_a - eta_b relaxes to {d_star!r} but the total stock grows at rate "
            f"{na + nb!r}; no stationary point"
        )
    return [
        no_exchange,
        export_entry(Regime.A_EXPORTS, "eta_a", eta_a_star, na),
        export_entry(Regime.B_EXPORTS, "eta_b", eta_b_star, nb),
        RegimeEquilibrium(
            Regime.BILATERAL, bilateral_has, "eta_a - eta_b", d_star, bilateral_note
        ),
    ]
