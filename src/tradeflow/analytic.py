"""Closed-form per-regime solutions and their piecewise composition.

Every regime's component solution has the shape c0 + c1*t + c2*exp(-r*t), so
threshold crossings can be located uniformly: the curvature sign is fixed by
c2, crossings are bracketed by a convexity argument, and the bracket is shrunk
by bisection. The bilateral regime is solved in sum/difference coordinates,
which handles its zero eigenvalue exactly.
"""

from __future__ import annotations

import bisect as _bisect_mod
import math
from dataclasses import dataclass

import numpy as np

from .core import Event, GoodEconomy, NormalizedState, Regime
from .exchange import GUARD_STATE_TOL, bisect, regime_from_sides, rhs

__all__ = [
    "ExpLinear",
    "RegimeSegment",
    "PiecewiseTrajectory",
    "solve_no_exchange",
    "solve_a_exports",
    "solve_b_exports",
    "solve_bilateral",
    "simulate_analytic",
]

#: Hard cap on segments per trajectory. Continuous fields cannot chatter and
#: switch only a few times, so hitting this means rounding makes the closed
#: form chatter at the threshold (an export equilibrium 1 + n/sigma that
#: rounds to 1 with sigma above ~1e16*n) or a bug.
MAX_SEGMENTS = 10_000


@dataclass(frozen=True)
class ExpLinear:
    """Scalar function const + slope*t + coef*exp(-rate*t).

    Convex when coef > 0, concave when coef < 0, affine when coef == 0;
    the derivative is monotone in every case.
    """

    const: float
    slope: float
    coef: float
    rate: float

    def value(self, t: float) -> float:
        if self.coef == 0.0:
            return self.const + self.slope * t
        return self.const + self.slope * t + self.coef * math.exp(-self.rate * t)

    def derivative(self, t: float) -> float:
        if self.coef == 0.0:
            return self.slope
        return self.slope - self.rate * self.coef * math.exp(-self.rate * t)

    def value_array(self, t: np.ndarray) -> np.ndarray:
        if self.coef == 0.0:
            return self.const + self.slope * t
        return self.const + self.slope * t + self.coef * np.exp(-self.rate * t)


def _check_dt(dt: float) -> None:
    if not (dt >= 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be a finite non-negative time, got {dt!r}")


def _check_sigma_positive(econ: GoodEconomy, regime_name: str) -> None:
    if econ.sigma <= 0.0:
        raise ValueError(
            f"{regime_name} requires sigma > 0; with sigma = 0 the dynamics are "
            "decoupled and linear (dispatch to solve_no_exchange)"
        )


def _export_forms(
    e_lead: float, e_follow: float, n_lead: float, n_follow: float, sigma: float
) -> tuple[ExpLinear, ExpLinear]:
    """One-sided export forms: the exporting stock relaxes exponentially to its
    equilibrium, the importing stock follows with a linear + exponential term."""
    equilibrium = (n_lead + sigma) / sigma
    amplitude = e_lead - equilibrium
    lead = ExpLinear(equilibrium, 0.0, amplitude, sigma)
    follow = ExpLinear(e_follow + amplitude, n_follow + n_lead, -amplitude, sigma)
    return lead, follow


def _segment_forms(
    state: NormalizedState, econ: GoodEconomy, regime: Regime
) -> tuple[ExpLinear, ExpLinear]:
    """Component forms of both stocks for one segment.

    With sigma = 0 every regime evolves linearly (the exchange term is
    multiplied away), so the regime label only affects bookkeeping.
    """
    ea, eb = state.eta_a, state.eta_b
    na, nb = econ.net_a, econ.net_b
    sigma = econ.sigma
    if sigma == 0.0 or regime is Regime.NO_EXCHANGE:
        return ExpLinear(ea, na, 0.0, 0.0), ExpLinear(eb, nb, 0.0, 0.0)
    if regime is Regime.A_EXPORTS:
        return _export_forms(ea, eb, na, nb, sigma)
    if regime is Regime.B_EXPORTS:
        form_b, form_a = _export_forms(eb, ea, nb, na, sigma)
        return form_a, form_b
    # Bilateral: total stock moves linearly (zero eigenvalue), the difference
    # relaxes at rate 2*sigma.
    total_rate = na + nb
    diff_rate = na - nb
    diff_eq = diff_rate / (2.0 * sigma)
    total0 = ea + eb
    gap = (ea - eb) - diff_eq
    form_a = ExpLinear(0.5 * (total0 + diff_eq), 0.5 * total_rate, 0.5 * gap, 2.0 * sigma)
    form_b = ExpLinear(0.5 * (total0 - diff_eq), 0.5 * total_rate, -0.5 * gap, 2.0 * sigma)
    return form_a, form_b


def solve_no_exchange(state0: NormalizedState, econ: GoodEconomy, dt: float) -> NormalizedState:
    """Linear evolution of both stocks at their net production rates."""
    _check_dt(dt)
    if dt == 0.0:
        return state0
    return NormalizedState(
        state0.eta_a + econ.net_a * dt, state0.eta_b + econ.net_b * dt
    )


def solve_a_exports(state0: NormalizedState, econ: GoodEconomy, dt: float) -> NormalizedState:
    """Closed form with country A above threshold driving the flow."""
    _check_dt(dt)
    _check_sigma_positive(econ, "solve_a_exports")
    if dt == 0.0:
        return state0
    form_a, form_b = _segment_forms(state0, econ, Regime.A_EXPORTS)
    return NormalizedState(form_a.value(dt), form_b.value(dt))


def solve_b_exports(state0: NormalizedState, econ: GoodEconomy, dt: float) -> NormalizedState:
    """Mirror image of :func:`solve_a_exports` with the countries swapped."""
    return solve_a_exports(state0.swapped(), econ.swapped(), dt).swapped()


def solve_bilateral(state0: NormalizedState, econ: GoodEconomy, dt: float) -> NormalizedState:
    """Closed form with both countries above threshold."""
    _check_dt(dt)
    _check_sigma_positive(econ, "solve_bilateral")
    if dt == 0.0:
        return state0
    form_a, form_b = _segment_forms(state0, econ, Regime.BILATERAL)
    return NormalizedState(form_a.value(dt), form_b.value(dt))


@dataclass(frozen=True)
class RegimeSegment:
    """One maximal stretch of a trajectory inside a single regime."""

    regime: Regime
    t_start: float
    t_end: float
    state_start: NormalizedState
    state_end: NormalizedState
    form_a: ExpLinear
    form_b: ExpLinear

    def __post_init__(self) -> None:
        if not (self.t_start < self.t_end):
            raise ValueError(
                f"segment must span positive time, got [{self.t_start!r}, {self.t_end!r}]"
            )

    def state_at(self, t: float) -> NormalizedState:
        if not (self.t_start <= t <= self.t_end):
            raise ValueError(f"t={t!r} outside segment [{self.t_start}, {self.t_end}]")
        if t == self.t_start:
            return self.state_start
        if t == self.t_end:
            return self.state_end
        tau = t - self.t_start
        return NormalizedState(self.form_a.value(tau), self.form_b.value(tau))


@dataclass(frozen=True)
class PiecewiseTrajectory:
    """Contiguous regime segments covering [0, horizon]; the end state of each
    segment is the stored start state of the next (same value, no re-solve)."""

    segments: tuple[RegimeSegment, ...]
    horizon: float

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("trajectory needs at least one segment")

    @property
    def events(self) -> list[Event]:
        """One ``switch`` event per regime change, at the later segment's start."""
        return [Event(seg.t_start, "switch", None, seg.regime) for seg in self.segments[1:]]

    def segment_at(self, t: float) -> RegimeSegment:
        """The segment owning time t; boundaries belong to the later segment."""
        if not (0.0 <= t <= self.horizon):
            raise ValueError(f"t={t!r} outside [0, {self.horizon}]")
        starts = [seg.t_start for seg in self.segments]
        i = _bisect_mod.bisect_right(starts, t) - 1
        return self.segments[max(i, 0)]

    def regime_at(self, t: float) -> Regime:
        return self.segment_at(t).regime

    def state_at(self, t: float) -> NormalizedState:
        return self.segment_at(t).state_at(t)

    def segment_indices(self, times: np.ndarray) -> np.ndarray:
        """Index of the segment owning each time, by the rule of
        :meth:`segment_at`: boundaries belong to the later segment."""
        starts = np.array([seg.t_start for seg in self.segments])
        return np.maximum(np.searchsorted(starts, times, side="right") - 1, 0)

    def states_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; returns an (n, 2) array of (eta_a, eta_b).

        Each segment is evaluated on one contiguous slice of the (stably)
        sorted times, bounded by the rule of :meth:`segment_at`: a time equal
        to a segment start belongs to that later segment."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError("sample times must be a one-dimensional array")
        order = None
        if not (times[1:] >= times[:-1]).all():  # a NaN anywhere fails it and sorts last
            order = np.argsort(times, kind="stable")
            times = times[order]
        if times.size and not (times[0] >= 0.0 and times[-1] <= self.horizon):
            raise ValueError("sample times outside [0, horizon]")  # NaN included
        bounds = np.searchsorted(times, [seg.t_start for seg in self.segments]).tolist()
        bounds[0] = 0
        bounds.append(times.size)
        out = np.empty((times.size, 2))
        for seg, lo, hi in zip(self.segments, bounds, bounds[1:]):
            if lo < hi:
                tau = times[lo:hi] - seg.t_start
                out[lo:hi, 0] = seg.form_a.value_array(tau)
                out[lo:hi, 1] = seg.form_b.value_array(tau)
        if order is not None:
            out[order] = out.copy()
        return out


def _ok(form: ExpLinear, above: bool, t: float) -> bool:
    """Whether the component is still on its regime's side of the threshold."""
    g = form.value(t) - 1.0
    return g > 0.0 if above else g <= 0.0


def _on_guard(g: float) -> bool:
    """``settled`` of the crossing bisection: the excess at bisect's upper
    end is within the guard tolerance."""
    return abs(g) <= GUARD_STATE_TOL


def _bisect_crossing(form: ExpLinear, above: bool, lo: float, hi: float, tol: float) -> float:
    """Shrink a bracket (side holds at lo, violated at hi) and return the
    violated endpoint, refining past tol until the stock sits on the guard."""
    # Each test is one call that evaluates ``form.value(t) - 1.0`` inline, in
    # the same operations; with coef == 0, rate 0 makes the exp term exactly
    # 0.0 at every finite t, as in value's affine case. Past the crossing it
    # returns the excess, which bisect keeps for ``settled``.
    c, s, a, r = form.const, form.slope, form.coef, form.rate
    if a == 0.0:
        r = 0.0
    exp = math.exp

    if above:
        def past(t):
            g = c + s * t + a * exp(-r * t) - 1.0
            return None if g > 0.0 else g
    else:
        def past(t):
            g = c + s * t + a * exp(-r * t) - 1.0
            return g if g > 0.0 else None

    return bisect(past, lo, hi, tol, _on_guard)[1]


def _interior_extremum(form: ExpLinear, lo: float, hi: float, tol: float) -> float | None:
    """Locate the stationary point of the form inside (lo, hi), if any.

    The derivative is monotone, so a sign change brackets the extremum.
    """
    d_lo = form.derivative(lo)
    d_hi = form.derivative(hi)
    if not (d_lo < 0.0 < d_hi or d_hi < 0.0 < d_lo):
        return None
    lo_sign = d_lo < 0.0
    return bisect(lambda t: (form.derivative(t) < 0.0) != lo_sign or None, lo, hi, tol,
                  at_hi=True)[1]


def _first_violation(form: ExpLinear, above: bool, dt_max: float, tol: float) -> float | None:
    """Earliest time in (0, dt_max] where the component leaves its side of the
    threshold, or None. Returns a point strictly past the crossing."""
    lo = 0.0
    if not _ok(form, above, 0.0):
        # Segment starting on the guard (boundary state classified by its
        # derivative); step just inside before bracketing.
        lo = min(tol, 0.5 * dt_max)
        if not _ok(form, above, lo):
            return lo
    if not _ok(form, above, dt_max):
        return _bisect_crossing(form, above, lo, dt_max, tol)
    # Both ends on the regime's side: an interior excursion needs the
    # curvature to bend toward the threshold.
    if form.coef == 0.0:
        return None
    dips_toward_guard = (form.coef > 0.0) if above else (form.coef < 0.0)
    if not dips_toward_guard:
        return None
    t_ext = _interior_extremum(form, lo, dt_max, tol)
    if t_ext is None or _ok(form, above, t_ext):
        return None
    return _bisect_crossing(form, above, lo, t_ext, tol)


def _initial_sides(state: NormalizedState, econ: GoodEconomy) -> tuple[bool, bool]:
    """Threshold sides of the initial state; a stock exactly at threshold is
    assigned by the sign of its derivative (the flow is continuous there)."""
    a_above = state.eta_a > 1.0
    b_above = state.eta_b > 1.0
    if state.eta_a == 1.0 or state.eta_b == 1.0:
        da, db = rhs(state, econ)
        if state.eta_a == 1.0 and da > 0.0:
            a_above = True
        if state.eta_b == 1.0 and db > 0.0:
            b_above = True
    return a_above, b_above


def simulate_analytic(
    state0: NormalizedState,
    econ: GoodEconomy,
    horizon: float,
    event_tol: float = 1e-10,
) -> PiecewiseTrajectory:
    """Compose the per-regime closed forms into a full trajectory.

    Each segment runs until a stock crosses the threshold; the crossing is
    localized on the closed form by bisection to within ``event_tol`` time
    units, and the next segment starts from the crossing state with the
    crossed component's side flipped.
    """
    if not (horizon > 0.0) or not math.isfinite(horizon):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if not (event_tol > 0.0):
        raise ValueError(f"event_tol must be positive, got {event_tol!r}")

    a_above, b_above = _initial_sides(state0, econ)
    segments: list[RegimeSegment] = []
    t = 0.0
    state = state0
    while t < horizon:
        if len(segments) >= MAX_SEGMENTS:
            raise RuntimeError(
                f"segment limit ({MAX_SEGMENTS}) exceeded at t={t!r}; "
                "pathological chatter at the threshold"
            )
        regime = regime_from_sides(a_above, b_above)
        form_a, form_b = _segment_forms(state, econ, regime)
        remaining = horizon - t
        hit_a = _first_violation(form_a, a_above, remaining, event_tol)
        hit_b = _first_violation(form_b, b_above, remaining, event_tol)

        if hit_a is None and hit_b is None:
            end = NormalizedState(form_a.value(remaining), form_b.value(remaining))
            segments.append(
                RegimeSegment(regime, t, horizon, state, end, form_a, form_b)
            )
            break

        tau = min(h for h in (hit_a, hit_b) if h is not None)
        t_end = min(t + tau, horizon)
        if t_end <= t:
            raise RuntimeError(
                f"crossing localization stalled at t={t!r} (regime {regime}, "
                f"state {state}); cannot advance"
            )
        end = NormalizedState(form_a.value(tau), form_b.value(tau))
        segments.append(
            RegimeSegment(regime, t, t_end, state, end, form_a, form_b)
        )
        if hit_a == tau:
            a_above = not a_above
        if hit_b == tau:
            b_above = not b_above
        state = end
        t = t_end
    return PiecewiseTrajectory(tuple(segments), horizon)
