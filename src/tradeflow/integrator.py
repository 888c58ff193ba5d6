"""Fixed-step classical Runge-Kutta integration with event detection.

Serves as the independent numeric oracle for the closed-form engine.
Threshold crossings (and, under the halt policy, stock depletion) are
localized inside a step by one bisection on single partial steps for every
guard that changed side in it, recorded as typed
:class:`~tradeflow.core.Event` records (kind ``crossing`` or ``depletion``;
``clamp`` under the clamp-to-zero policy), and integration restarts from the
crossing. The earliest guard wins; on a tie, the first in the order eta_a
crossing, eta_a depletion, eta_b crossing, eta_b depletion, and only it is
recorded. Only the halt policy emits ``depletion``, and that event ends the
series. The loop runs the full step's four stages inline; a flow-free step,
a full step on which every stage point sits at or below the threshold, takes
the exact increment the kernel would return there without running it.

Money extends the fixed-point money rates to arbitrary states: each country
spends its production cost per unit produced and earns the market price on
domestic consumption plus net exports, so
dm_a/dt = -x_a*p_a + y*(c_a + sigma*f) and symmetrically for B with the flow
sign reversed. At a one-sided export fixed point this reduces to the margin
times the production rate. Money never feeds back into the stocks, so the
RK4 loop steps the stocks alone and records the length only of the steps
that are not a full ``step``: partial steps near the horizon and bisected
steps to an event. After it, the stage flows of every step are replayed as
arrays and ``money.money_holdings``, the rule both engines share, integrates
them to the values that stepping money inside the loop gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import Event, GoodEconomy, MoneyState, NormalizedState, PriceSet, Regime
from .exchange import GUARD_STATE_TOL, bisect, flow_array, regime_from_sides
from .money import money_holdings

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

    Parallel arrays, with finite and strictly increasing times; money arrays
    are present only when prices were supplied to the integrator.
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
        t = self.times
        # finite ends and strictly increasing steps make every time finite
        if n and not (math.isfinite(t[0]) and math.isfinite(t[-1]) and (t[1:] > t[:-1]).all()):
            raise ValueError("sample times must be finite and strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


def _make_rk4(econ: GoodEconomy):
    """Classical four-stage step of the stocks (eta_a, eta_b) as one closure:
    the reference kernel, which ``rk4_step``, partial steps and bisection run;
    ``integrate_with_events`` runs its full step inline.

    Each stage inlines the stock derivative of exchange.rhs (``0.0 if u < 1.0
    else u - 1.0`` is max(u - 1, 0), NaN included); the bit-equality with rhs
    is pinned by a test. Money is not stepped here: ``_stage_flows`` replays
    the stage flows of the recorded steps after the loop."""
    sig = econ.sigma
    na = econ.p_a - econ.c_a
    nb = econ.p_b - econ.c_b

    def step(ea: float, eb: float, h: float):
        half = 0.5 * h
        sf = sig * ((0.0 if ea < 1.0 else ea - 1.0) - (0.0 if eb < 1.0 else eb - 1.0))
        k1a = na - sf
        k1b = nb + sf

        ua = ea + half * k1a
        ub = eb + half * k1b
        sf = sig * ((0.0 if ua < 1.0 else ua - 1.0) - (0.0 if ub < 1.0 else ub - 1.0))
        k2a = na - sf
        k2b = nb + sf

        ua = ea + half * k2a
        ub = eb + half * k2b
        sf = sig * ((0.0 if ua < 1.0 else ua - 1.0) - (0.0 if ub < 1.0 else ub - 1.0))
        k3a = na - sf
        k3b = nb + sf

        ua = ea + h * k3a
        ub = eb + h * k3b
        sf = sig * ((0.0 if ua < 1.0 else ua - 1.0) - (0.0 if ub < 1.0 else ub - 1.0))
        k4a = na - sf
        k4b = nb + sf

        sixth = h / 6.0
        return (
            ea + sixth * (k1a + 2.0 * (k2a + k3a) + k4a),
            eb + sixth * (k1b + 2.0 * (k2b + k3b) + k4b),
        )

    return step


def _stage_flows(econ: GoodEconomy, ea: np.ndarray, eb: np.ndarray, h: np.ndarray):
    """The four stage flows sigma*f of ``_make_rk4`` for steps of length ``h``
    from stocks (ea, eb): the kernel's IEEE operations in the kernel's order,
    elementwise, so each value is bit-equal to the scalar stage's."""
    sig = econ.sigma
    na = econ.p_a - econ.c_a
    nb = econ.p_b - econ.c_b
    half = 0.5 * h
    sf1 = sig * flow_array(ea, eb)
    sf2 = sig * flow_array(ea + half * (na - sf1), eb + half * (nb + sf1))
    sf3 = sig * flow_array(ea + half * (na - sf2), eb + half * (nb + sf2))
    sf4 = sig * flow_array(ea + h * (na - sf3), eb + h * (nb + sf3))
    return sf1, sf2, sf3, sf4


def rk4_step(state: NormalizedState, econ: GoodEconomy, h: float) -> NormalizedState:
    """One classical fourth-order step of the autonomous stock dynamics."""
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    return NormalizedState(*_make_rk4(econ)(state.eta_a, state.eta_b, h))


def _on_guard(found) -> bool:
    """``settled`` of the event bisection: the state at bisect's upper end sits
    on the guard it has passed."""
    y, (idx, target, *_) = found
    return abs(y[idx] - target) <= GUARD_STATE_TOL


def _locate_event(rk4, ea: float, eb: float, flipped: list, h_step: float, tol: float,
                  y_step: tuple[float, float]):
    """One bisection from (ea, eb) for every guard in ``flipped``, each a
    (idx, target, above0, kind, stock, detail) whose component left the side
    it held at the step start by the full length ``h_step``, where the state
    is ``y_step`` (the loop's step end, bit-equal to the kernel's). Returns (tau, state at tau, guard): the earliest length at
    which some guard has left its side, and the first such guard in list
    order, with the state strictly past its crossing. The kernel runs at most
    once per length."""

    def past(h):
        y = rk4(ea, eb, h)
        for guard in flipped:
            if (y[guard[0]] > guard[1]) != guard[2]:
                return y, guard
        return None

    _, tau, (y, guard) = bisect(past, 0.0, h_step, tol, _on_guard, (y_step, flipped[0]))
    return tau, y, guard


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
    rk4 = _make_rk4(econ)
    policy = opts.depletion_policy
    horizon = opts.horizon
    step = opts.step
    tol = opts.event_tol

    ea, eb = state0.eta_a, state0.eta_b
    ts = [0.0]
    eas = [ea]
    ebs = [eb]
    # (sample index, length) of each step to it that is not a full step; the
    # step to sample i has length step unless listed here
    short: list[tuple[int, float]] = []
    events: list[Event] = []

    def build() -> TimeSeries:
        # Typed conversions skip numpy's type discovery.
        times = np.array(ts, dtype=np.float64)
        ea_arr = np.array(eas, dtype=np.float64)
        eb_arr = np.array(ebs, dtype=np.float64)
        del ts[:], eas[:], ebs[:]  # free them before the money pass (peak memory)
        regimes = _REGIME_LUT[(ea_arr > 1.0) + 2 * (eb_arr > 1.0)].tolist()
        m_a = m_b = None
        if prices is not None:  # the step lengths' one reader is the money pass
            h = np.full(len(times) - 1, step)
            if short:
                at, lengths = zip(*short)
                h[np.array(at) - 1] = lengths
            with np.errstate(over="ignore", invalid="ignore"):
                m_a, m_b = money_holdings(econ, prices, money0, h,
                                          *_stage_flows(econ, ea_arr[:-1], eb_arr[:-1], h))
        return TimeSeries(times=times, eta_a=ea_arr, eta_b=eb_arr, regimes=regimes,
                          m_a=m_a, m_b=m_b, events=events)

    if policy is DepletionPolicy.HALT and (ea < 0.0 or eb < 0.0):
        which = "eta_a" if ea < 0.0 else "eta_b"
        events.append(Event(0.0, "depletion", which, "negative at start"))
        return build()

    halt = policy is DepletionPolicy.HALT
    clamp = policy is DepletionPolicy.CLAMP_TO_ZERO
    ts_app, eas_app, ebs_app = ts.append, eas.append, ebs.append

    # Flow-free shortcut: on a full step whose every stage point sits at or
    # below 1, all four stage flows are sig*(0.0 - 0.0), so each stage slope
    # is k and the kernel returns exactly e + d. The stage points
    # e + (0.5*step)*k and e + step*k are monotone in the step, so
    # `e + reach <= 1.0` (reach = step*k when k > 0, else 0) covers them all.
    # The step end then meets the same guard checks as a kernel step's.
    sig = econ.sigma
    na = econ.p_a - econ.c_a
    nb = econ.p_b - econ.c_b
    half = 0.5 * step
    sixth = step / 6.0
    sf0 = sig * (0.0 - 0.0)
    ka = na - sf0
    kb = nb + sf0
    da = sixth * (ka + 2.0 * (ka + ka) + ka)
    db = sixth * (kb + 2.0 * (kb + kb) + kb)
    reach_a = step * ka if ka > 0.0 else 0.0
    reach_b = step * kb if kb > 0.0 else 0.0

    t = 0.0
    while t < horizon:
        h_step = horizon - t
        if h_step < step:
            e1a, e1b = rk4(ea, eb, h_step)
        else:
            h_step = step
            if ea + reach_a <= 1.0 and eb + reach_b <= 1.0:
                e1a = ea + da
                e1b = eb + db
            else:
                # The full step of _make_rk4, inline; a test pins it to
                # rk4_step bit for bit.
                sf = sig * ((0.0 if ea < 1.0 else ea - 1.0) - (0.0 if eb < 1.0 else eb - 1.0))
                k1a = na - sf
                k1b = nb + sf
                ua = ea + half * k1a
                ub = eb + half * k1b
                sf = sig * ((0.0 if ua < 1.0 else ua - 1.0) - (0.0 if ub < 1.0 else ub - 1.0))
                k2a = na - sf
                k2b = nb + sf
                ua = ea + half * k2a
                ub = eb + half * k2b
                sf = sig * ((0.0 if ua < 1.0 else ua - 1.0) - (0.0 if ub < 1.0 else ub - 1.0))
                k3a = na - sf
                k3b = nb + sf
                ua = ea + step * k3a
                ub = eb + step * k3b
                sf = sig * ((0.0 if ua < 1.0 else ua - 1.0) - (0.0 if ub < 1.0 else ub - 1.0))
                e1a = ea + sixth * (k1a + 2.0 * (k2a + k3a) + (na - sf))
                e1b = eb + sixth * (k1b + 2.0 * (k2b + k3b) + (nb + sf))

        # Fast path: no guard changed side inside this step.
        if (
            ((e1a > 1.0) == (ea > 1.0))
            and ((e1b > 1.0) == (eb > 1.0))
            and not (halt and (ea >= 0.0 > e1a or eb >= 0.0 > e1b))
        ):
            t_new = t + h_step
            if t_new <= t:
                break  # horizon reached within float resolution
            ea, eb = e1a, e1b
            if clamp and (ea < 0.0 or eb < 0.0):
                which = "eta_a" if ea < 0.0 else "eta_b"
                ea = ea if ea >= 0.0 else 0.0
                eb = eb if eb >= 0.0 else 0.0
                events.append(Event(t_new, "clamp", which))
            if h_step != step:
                short.append((len(ts), h_step))
            ts_app(t_new)
            eas_app(ea)
            ebs_app(eb)
            t = t_new
            continue

        # Some guard changed side inside this step (rare path): one bisection
        # for all of them, in the order eta_a crossing, eta_a depletion, eta_b
        # crossing, eta_b depletion. The earliest wins, and on equal lengths
        # the first. The fast-path test above and this list use the same
        # conditions, so the list is never empty.
        flipped = []
        for idx, name, v0, v1 in ((0, "eta_a", ea, e1a), (1, "eta_b", eb, e1b)):
            above0 = v0 > 1.0
            if (v1 > 1.0) != above0:
                flipped.append((idx, 1.0, above0, "crossing", name,
                                "downward" if above0 else "upward"))
            if halt and v0 >= 0.0 > v1:
                flipped.append((idx, 0.0, True, "depletion", name, "reached zero"))
        tau, y_at, (_, _, _, kind, name, detail) = _locate_event(
            rk4, ea, eb, flipped, h_step, tol, (e1a, e1b))
        t_ev = t + tau
        if t_ev > horizon:
            t_ev = horizon
        event = Event(t_ev, kind, name, detail)
        if t_ev <= t:
            raise RuntimeError(
                f"event localization stalled at t={t!r} ({event}); "
                "cannot advance past the crossing"
            )
        ea, eb = y_at
        short.append((len(ts), tau))  # the bisected length; t_ev may be cut to the horizon
        ts_app(t_ev)
        eas_app(ea)
        ebs_app(eb)
        events.append(event)
        t = t_ev
        if event.kind == "depletion":
            return build()

    return build()
