"""Closed-form per-regime solutions and their piecewise composition.

Every regime's component solution has the shape c0 + c1*t + c2*exp(-r*t), with
a monotone derivative: it crosses the threshold once between ends on opposite
sides, or dips across and back about its stationary point -log(c1/(r*c2))/r.
So each stock gives at most one bracket per segment, and one bisection over
the bracket they share finds the earliest crossing. The bilateral regime is
solved in sum/difference coordinates, which handles its zero eigenvalue exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Event, GoodEconomy, NormalizedState, Regime
from .exchange import GUARD_STATE_TOL, MAX_SEGMENTS, bisect, regime_from_sides, sides

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

#: Each stock with the regimes in which it is above the threshold.
_ABOVE = (("eta_a", {regime_from_sides(True, b_above) for b_above in (False, True)}),
          ("eta_b", {regime_from_sides(a_above, True) for a_above in (False, True)}))


@dataclass(frozen=True)
class ExpLinear:
    """The function const + slope*t + coef*exp(-rate*t), evaluated only by
    :meth:`value`: the rows, the brackets, the crossing bisection and the
    segment ends all read it there.

    Convex when coef > 0, concave when coef < 0, affine when coef == 0;
    the derivative is monotone in every case.
    """

    const: float
    slope: float
    coef: float
    rate: float

    def value(self, t, lib=math):
        """The form at t, with ``lib.exp`` (``math`` for a float, ``numpy``
        elementwise on an array)."""
        if self.coef == 0.0:
            return self.const + self.slope * t
        return self.const + self.slope * t + self.coef * lib.exp(-self.rate * t)


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


def _solve(state0: NormalizedState, econ: GoodEconomy, dt: float,
           regime: Regime) -> NormalizedState:
    """Both stocks after dt in one regime: its segment forms evaluated at dt."""
    if not (dt >= 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be a finite non-negative time, got {dt!r}")
    if econ.sigma <= 0.0 and regime is not Regime.NO_EXCHANGE:
        raise ValueError(
            f"solve_{regime.value} requires sigma > 0; with sigma = 0 the dynamics "
            "are decoupled and linear (dispatch to solve_no_exchange)"
        )
    if dt == 0.0:
        return state0
    form_a, form_b = _segment_forms(state0, econ, regime)
    return NormalizedState(form_a.value(dt), form_b.value(dt))


def solve_no_exchange(state0: NormalizedState, econ: GoodEconomy, dt: float) -> NormalizedState:
    """Linear evolution of both stocks at their net production rates."""
    return _solve(state0, econ, dt, Regime.NO_EXCHANGE)


def solve_a_exports(state0: NormalizedState, econ: GoodEconomy, dt: float) -> NormalizedState:
    """Closed form with country A above threshold driving the flow."""
    return _solve(state0, econ, dt, Regime.A_EXPORTS)


def solve_b_exports(state0: NormalizedState, econ: GoodEconomy, dt: float) -> NormalizedState:
    """Closed form with country B above threshold driving the flow."""
    return _solve(state0, econ, dt, Regime.B_EXPORTS)


def solve_bilateral(state0: NormalizedState, econ: GoodEconomy, dt: float) -> NormalizedState:
    """Closed form with both countries above threshold."""
    return _solve(state0, econ, dt, Regime.BILATERAL)


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


@dataclass(frozen=True)
class PiecewiseTrajectory:
    """Contiguous regime segments covering [0, horizon]; the end state of each
    segment is the stored start state of the next (same value, no re-solve)."""

    segments: tuple[RegimeSegment, ...]
    horizon: float

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("trajectory needs at least one segment")
        if self.segments[0].t_start != 0.0:
            raise ValueError(f"trajectory must start at t=0, got {self.segments[0].t_start!r}")

    @property
    def events(self) -> list[Event]:
        """One ``crossing`` per stock whose threshold side differs between two
        adjacent segments, at the later segment's start; eta_a first."""
        return [Event(seg.t_start, "crossing", stock, "upward" if up else "downward")
                for before, seg in zip(self.segments, self.segments[1:])
                for stock, above in _ABOVE
                if (up := seg.regime in above) != (before.regime in above)]

    def state_at(self, t: float) -> NormalizedState:
        # One-element `states_at`, kept as the name the benchmark's tracer wraps.
        return NormalizedState(*self.states_at(np.array([t]))[0].tolist())

    def segment_indices(self, times: np.ndarray) -> np.ndarray:
        """Index of the segment owning each time in [0, horizon]: a boundary
        belongs to the later segment."""
        starts = np.array([seg.t_start for seg in self.segments])
        return np.searchsorted(starts, times, side="right") - 1

    def states_at(self, times: np.ndarray) -> np.ndarray:
        """The stocks at each time, as an (n, 2) array of (eta_a, eta_b).

        A time equal to a segment's start gives that segment's stored start
        state, bit for bit: the input at t = 0, and at an event the state the
        next segment starts from. Any other time evaluates the form of the
        segment that owns it, each segment on one contiguous slice of the
        (stably) sorted times, by the rule of :meth:`segment_indices`."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError("sample times must be a one-dimensional array")
        order = None
        if not (times[1:] >= times[:-1]).all():  # a NaN anywhere fails it and sorts last
            order = np.argsort(times, kind="stable")
            times = times[order]
        if times.size and not (times[0] >= 0.0 and times[-1] <= self.horizon):
            raise ValueError("sample times outside [0, horizon]")  # NaN included
        starts = [seg.t_start for seg in self.segments]
        bounds = np.searchsorted(times, starts).tolist()
        bounds.append(times.size)
        past = np.searchsorted(times, starts, side="right").tolist()
        out = np.empty((times.size, 2))
        for seg, lo, mid, hi in zip(self.segments, bounds, past, bounds[1:]):
            out[lo:mid] = seg.state_start.eta_a, seg.state_start.eta_b
            if mid < hi:
                tau = times[mid:hi] - seg.t_start
                out[mid:hi, 0] = seg.form_a.value(tau, np)
                out[mid:hi, 1] = seg.form_b.value(tau, np)
        if order is not None:
            out[order] = out.copy()
        return out


def _ok(form: ExpLinear, above: bool, t: float) -> bool:
    """Whether the component is still on its regime's side of the threshold."""
    g = form.value(t) - 1.0
    return g > 0.0 if above else g <= 0.0


def _extremum(form: ExpLinear) -> float | None:
    """The form's stationary point, where slope = rate*coef*exp(-rate*t), or None
    unless slope and rate*coef share a sign. Raises nothing at any sigma: a
    rate*coef that overflows or underflows gives None, an overflowing ratio -inf."""
    d = form.rate * form.coef
    q = form.slope / d if d else 0.0  # NaN fails q > 0.0 too
    return -math.log(q) / form.rate if q > 0.0 else None


def _bracket(form: ExpLinear, above: bool, dt_max: float,
             tol: float) -> tuple[float, float] | None:
    """(lo, hi) about the component's first departure from its side in
    (0, dt_max]: on the side at lo, past it at hi. None when it stays."""
    lo = 0.0
    if not _ok(form, above, 0.0):
        # Segment starting on the guard (such as a stock at 1 that
        # exchange.sides puts above); step just inside before bracketing.
        lo = min(tol, 0.5 * dt_max)
        if not _ok(form, above, lo):
            return lo, lo
    if not _ok(form, above, dt_max):
        return lo, dt_max
    # On its side at both ends: only a form bending toward the threshold can
    # dip across it and back, and it is furthest across at its extremum.
    if form.coef > 0.0 if above else form.coef < 0.0:
        t_ext = _extremum(form)
        if t_ext is not None and lo < t_ext < dt_max and not _ok(form, above, t_ext):
            return lo, t_ext
    return None


def _first_crossing(bracketed, tol: float) -> float:
    """One bisection over [max lo, min hi] for every bracketed (form, above,
    (lo, hi)): the earliest time at which some form is past its side, refined
    past tol until each form past it there sits on the guard. A form already
    past its side at max lo (its crossing falls inside another stock's step-in
    off the guard) is located just past max lo, within tol of its crossing."""
    def past(t):
        # past a crossing, an excess off the guard if any, else the last
        excess = None
        for form, above, _ in bracketed:
            g = form.value(t) - 1.0
            if (g > 0.0) != above:
                excess = g
                if not abs(g) <= GUARD_STATE_TOL:
                    break
        return excess

    los, his = zip(*[b for *_, b in bracketed])
    return bisect(past, max(los), min(his), tol, lambda g: abs(g) <= GUARD_STATE_TOL)[1]


def simulate_analytic(
    state0: NormalizedState,
    econ: GoodEconomy,
    horizon: float,
    event_tol: float = 1e-10,
) -> PiecewiseTrajectory:
    """Compose the per-regime closed forms into a full trajectory.

    Each segment runs until a stock crosses the threshold: one bisection over
    the bracket the stocks' forms share localizes the earliest crossing to
    within ``event_tol`` time units. The next segment starts just past it, with
    every bracketed stock that is past the threshold there flipped.
    """
    if not (horizon > 0.0) or not math.isfinite(horizon):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if not (event_tol > 0.0):
        raise ValueError(f"event_tol must be positive, got {event_tol!r}")

    a_above, b_above = sides(state0.eta_a, state0.eta_b, econ)
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
        bracket_a = _bracket(form_a, a_above, remaining, event_tol)
        bracket_b = _bracket(form_b, b_above, remaining, event_tol)
        if bracket_a is None and bracket_b is None:
            tau, t_end = remaining, horizon
        else:
            tau = _first_crossing([(form, above, b) for form, above, b in (
                (form_a, a_above, bracket_a), (form_b, b_above, bracket_b)) if b is not None],
                event_tol)
            t_end = min(t + tau, horizon)
            if t_end <= t:
                raise RuntimeError(
                    f"crossing localization stalled at t={t!r} (regime {regime}, "
                    f"state {state}); cannot advance"
                )
        end = NormalizedState(form_a.value(tau), form_b.value(tau))
        segments.append(RegimeSegment(regime, t, t_end, state, end, form_a, form_b))
        if bracket_a is not None:
            a_above = end.eta_a > 1.0
        if bracket_b is not None:
            b_above = end.eta_b > 1.0
        state = end
        t = t_end
    return PiecewiseTrajectory(tuple(segments), horizon)
