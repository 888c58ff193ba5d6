"""Fixed-step classical Runge-Kutta integration with event detection.

Serves as the independent numeric oracle for the closed-form engine and as
the only place money is co-integrated. Threshold crossings (and, under the
halt policy, stock depletion) are localized inside a step by bisection on
single partial steps, recorded as typed :class:`~tradeflow.core.Event`
records (kind ``crossing`` or ``depletion``; ``clamp`` under the
clamp-to-zero policy), and integration restarts from the crossing. Only the
halt policy emits ``depletion``, and that event ends the series.

Money co-integration extends the fixed-point money rates to arbitrary states:
each country spends its production cost per unit produced and earns the
market price on domestic consumption plus net exports, so
dm_a/dt = -x_a*p_a + y*(c_a + sigma*f) and symmetrically for B with the flow
sign reversed. At a one-sided export fixed point this reduces to the margin
times the production rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import Event, GoodEconomy, MoneyState, NormalizedState, PriceSet, Regime
from .exchange import GUARD_STATE_TOL, bisect, regime_from_sides
from .money import base_money_rates

__all__ = [
    "DepletionPolicy",
    "SolverOptions",
    "TimeSeries",
    "rk4_step",
    "integrate_with_events",
]

#: Most samples (horizon/step) a run may ask for; keeps its time and memory bounded.
MAX_SAMPLES = 10**7

#: Regime of each sample, indexed by (eta_a > 1) + 2*(eta_b > 1).
_REGIME_LUT = np.array(
    [regime_from_sides(bool(code & 1), bool(code & 2)) for code in range(4)],
    dtype=object,
)


class DepletionPolicy(Enum):
    """What to do when a stock goes negative (the model itself is silent)."""

    CONTINUE = "continue"
    CLAMP_TO_ZERO = "clamp_to_zero"
    HALT = "halt"


@dataclass(frozen=True)
class SolverOptions:
    horizon: float
    step: float = 1e-3
    event_tol: float = 1e-10
    depletion_policy: DepletionPolicy = DepletionPolicy.HALT

    def __post_init__(self) -> None:
        for name in ("horizon", "step", "event_tol"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            if type(v) is not float:
                object.__setattr__(self, name, float(v))
        if self.step > self.horizon:
            raise ValueError(
                f"step ({self.step!r}) must not exceed the horizon ({self.horizon!r})"
            )
        if self.horizon / self.step > MAX_SAMPLES:
            raise ValueError(
                f"horizon/step = {self.horizon / self.step:.6g} exceeds the cap of "
                f"{MAX_SAMPLES} samples; raise step or shorten the horizon"
            )


@dataclass(eq=False)
class TimeSeries:
    """Samples at every accepted step plus every event time.

    Parallel arrays, strictly increasing in time; money arrays are present
    only when prices were supplied to the integrator.
    """

    times: np.ndarray
    eta_a: np.ndarray
    eta_b: np.ndarray
    regimes: list[Regime]
    m_a: np.ndarray | None
    m_b: np.ndarray | None
    events: list[Event] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.times)
        if len(self.eta_a) != n or len(self.eta_b) != n or len(self.regimes) != n:
            raise ValueError("parallel sample arrays must have equal lengths")
        if (self.m_a is None) != (self.m_b is None):
            raise ValueError("money arrays must both be present or both absent")
        if self.m_a is not None and (len(self.m_a) != n or len(self.m_b) != n):
            raise ValueError("money arrays must match the sample count")
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> NormalizedState:
        return NormalizedState(float(self.eta_a[i]), float(self.eta_b[i]))

    def money(self, i: int) -> MoneyState | None:
        if self.m_a is None:
            return None
        return MoneyState(float(self.m_a[i]), float(self.m_b[i]))


def _make_rk4(econ: GoodEconomy, prices: PriceSet | None):
    """Classical four-stage step of (eta_a, eta_b, m_a, m_b) as one closure.

    Each stage inlines the stock derivative of exchange.rhs and the money
    rates base + y*sigma*f for the hot loop; the bit-equality of the stock
    part with rhs is pinned by a test."""
    sig = econ.sigma
    na = econ.p_a - econ.c_a
    nb = econ.p_b - econ.c_b
    if prices is not None:
        y = prices.y
        base_a, base_b = base_money_rates(econ, prices)
    else:
        y = base_a = base_b = 0.0

    def step(ea: float, eb: float, ma: float, mb: float, h: float):
        half = 0.5 * h
        ex_a = ea - 1.0
        if ex_a < 0.0:
            ex_a = 0.0
        ex_b = eb - 1.0
        if ex_b < 0.0:
            ex_b = 0.0
        sf = sig * (ex_a - ex_b)
        k1a = na - sf
        k1b = nb + sf
        k1c = base_a + y * sf
        k1d = base_b - y * sf

        ua = ea + half * k1a
        ub = eb + half * k1b
        ex_a = ua - 1.0
        if ex_a < 0.0:
            ex_a = 0.0
        ex_b = ub - 1.0
        if ex_b < 0.0:
            ex_b = 0.0
        sf = sig * (ex_a - ex_b)
        k2a = na - sf
        k2b = nb + sf
        k2c = base_a + y * sf
        k2d = base_b - y * sf

        ua = ea + half * k2a
        ub = eb + half * k2b
        ex_a = ua - 1.0
        if ex_a < 0.0:
            ex_a = 0.0
        ex_b = ub - 1.0
        if ex_b < 0.0:
            ex_b = 0.0
        sf = sig * (ex_a - ex_b)
        k3a = na - sf
        k3b = nb + sf
        k3c = base_a + y * sf
        k3d = base_b - y * sf

        ua = ea + h * k3a
        ub = eb + h * k3b
        ex_a = ua - 1.0
        if ex_a < 0.0:
            ex_a = 0.0
        ex_b = ub - 1.0
        if ex_b < 0.0:
            ex_b = 0.0
        sf = sig * (ex_a - ex_b)
        k4a = na - sf
        k4b = nb + sf
        k4c = base_a + y * sf
        k4d = base_b - y * sf

        sixth = h / 6.0
        return (
            ea + sixth * (k1a + 2.0 * (k2a + k3a) + k4a),
            eb + sixth * (k1b + 2.0 * (k2b + k3b) + k4b),
            ma + sixth * (k1c + 2.0 * (k2c + k3c) + k4c),
            mb + sixth * (k1d + 2.0 * (k2d + k3d) + k4d),
        )

    return step


def rk4_step(state: NormalizedState, econ: GoodEconomy, h: float) -> NormalizedState:
    """One classical fourth-order step of the autonomous stock dynamics."""
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    ea, eb, _, _ = _make_rk4(econ, None)(state.eta_a, state.eta_b, 0.0, 0.0, h)
    return NormalizedState(ea, eb)


def _bisect_guard(step_fn, idx: int, target: float, above0: bool, h_step: float, tol: float):
    """Earliest partial-step length at which component ``idx`` has left the
    side it held at the step start; returns (tau, state tuple at tau), with
    the state strictly past the crossing."""
    _, tau = bisect(
        lambda h: (step_fn(h)[idx] > target) != above0, 0.0, h_step, tol,
        settled=lambda h: abs(step_fn(h)[idx] - target) <= GUARD_STATE_TOL,
    )
    return tau, step_fn(tau)


def integrate_with_events(
    state0: NormalizedState,
    econ: GoodEconomy,
    opts: SolverOptions,
    prices: PriceSet | None = None,
    money0: MoneyState | None = None,
) -> TimeSeries:
    """Integrate the stock (and optionally money) dynamics over the horizon.

    After each trial step, a sign change of eta - 1 in either component is
    localized by bisection to within ``opts.event_tol`` time units, recorded,
    and used as the restart point. Under the halt policy a crossing of
    eta = 0 is localized the same way and terminates the series with a
    depletion event. Identical inputs produce bit-identical output.
    """
    rk4 = _make_rk4(econ, prices)
    with_money = prices is not None
    policy = opts.depletion_policy
    horizon = opts.horizon
    step = opts.step
    tol = opts.event_tol

    ea, eb = state0.eta_a, state0.eta_b
    if money0 is not None:
        ma, mb = money0.m_a, money0.m_b
    else:
        ma, mb = 0.0, 0.0

    ts = [0.0]
    eas = [ea]
    ebs = [eb]
    mas = [ma]
    mbs = [mb]
    events: list[Event] = []

    def build() -> TimeSeries:
        ea_arr = np.array(eas)
        eb_arr = np.array(ebs)
        codes = (ea_arr > 1.0).astype(np.int8) + 2 * (eb_arr > 1.0).astype(np.int8)
        regimes = list(_REGIME_LUT[codes])
        return TimeSeries(times=np.array(ts), eta_a=ea_arr, eta_b=eb_arr, regimes=regimes,
                          m_a=np.array(mas) if with_money else None,
                          m_b=np.array(mbs) if with_money else None, events=events)

    if policy is DepletionPolicy.HALT and (ea < 0.0 or eb < 0.0):
        which = "eta_a" if ea < 0.0 else "eta_b"
        events.append(Event(0.0, "depletion", which, "negative at start"))
        return build()

    halt = policy is DepletionPolicy.HALT
    clamp = policy is DepletionPolicy.CLAMP_TO_ZERO
    ts_app, eas_app, ebs_app = ts.append, eas.append, ebs.append
    mas_app, mbs_app = mas.append, mbs.append
    t = 0.0
    while t < horizon:
        h_step = horizon - t
        if h_step > step:
            h_step = step
        e1a, e1b, m1a, m1b = rk4(ea, eb, ma, mb, h_step)

        # Fast path: no guard changed side inside this step.
        if (
            ((e1a > 1.0) == (ea > 1.0))
            and ((e1b > 1.0) == (eb > 1.0))
            and not (halt and (ea >= 0.0 > e1a or eb >= 0.0 > e1b))
        ):
            t_new = t + h_step
            if t_new <= t:
                break  # horizon reached within float resolution
            ea, eb, ma, mb = e1a, e1b, m1a, m1b
            if clamp and (ea < 0.0 or eb < 0.0):
                which = "eta_a" if ea < 0.0 else "eta_b"
                ea = ea if ea >= 0.0 else 0.0
                eb = eb if eb >= 0.0 else 0.0
                events.append(Event(t_new, "clamp", which))
            ts_app(t_new)
            eas_app(ea)
            ebs_app(eb)
            mas_app(ma)
            mbs_app(mb)
            t = t_new
            continue

        def step_fn(tau, _ea=ea, _eb=eb, _ma=ma, _mb=mb):
            return rk4(_ea, _eb, _ma, _mb, tau)

        # Every guard crossing inside this step (rare path); the earliest wins,
        # and on equal times the first found.
        hits = []
        for idx, name, v0, v1 in ((0, "eta_a", ea, e1a), (1, "eta_b", eb, e1b)):
            above0 = v0 > 1.0
            if (v1 > 1.0) != above0:
                hits.append((*_bisect_guard(step_fn, idx, 1.0, above0, h_step, tol),
                             "crossing", name, "downward" if above0 else "upward"))
            if halt and v0 >= 0.0 > v1:
                hits.append((*_bisect_guard(step_fn, idx, 0.0, True, h_step, tol),
                             "depletion", name, "reached zero"))
        if not hits:  # a side flipped, so some bisection must bracket
            raise RuntimeError(f"guard flip at t={t!r} but no crossing localized")
        tau, y_at, kind, name, detail = min(hits, key=lambda hit: hit[0])
        t_ev = t + tau
        if t_ev > horizon:
            t_ev = horizon
        event = Event(t_ev, kind, name, detail)
        if t_ev <= t:
            raise RuntimeError(
                f"event localization stalled at t={t!r} ({event}); "
                "cannot advance past the crossing"
            )
        ea, eb, ma, mb = y_at
        ts.append(t_ev)
        eas.append(ea)
        ebs.append(eb)
        mas.append(ma)
        mbs.append(mb)
        events.append(event)
        t = t_ev
        if event.kind == "depletion":
            return build()

    return build()
