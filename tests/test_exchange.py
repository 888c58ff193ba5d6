import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tradeflow.core import GoodEconomy, NormalizedState, Regime
from tradeflow.exchange import bisect, exchange_flow, flow_array, regime_from_sides, rhs

etas = st.floats(-2.0, 4.0, allow_nan=False)
rates = st.floats(0.0, 5.0, allow_nan=False)


@pytest.mark.parametrize(
    "eta_a, eta_b, expected",
    [
        (0.5, 0.8, 0.0),     # both below: no exchange
        (1.5, 0.5, 0.5),     # A exports its excess
        (0.5, 1.5, -0.5),    # B exports
        (1.2, 1.7, -0.5),    # bilateral: difference of excesses
        (1.0, 1.0, 0.0),     # all four branch formulas agree at the boundary
    ],
)
def test_flow_examples(eta_a, eta_b, expected):
    assert exchange_flow(NormalizedState(eta_a, eta_b)) == expected


@pytest.mark.parametrize(
    "eta_a, eta_b, expected",
    [
        (0.9, 0.9, Regime.NO_EXCHANGE),
        (1.5, 0.8, Regime.A_EXPORTS),
        (0.8, 1.5, Regime.B_EXPORTS),
        (1.5, 1.5, Regime.BILATERAL),
        (1.0, 1.0, Regime.NO_EXCHANGE),  # boundary assigned below
        (1.0, 1.5, Regime.B_EXPORTS),
    ],
)
def test_classify_examples(eta_a, eta_b, expected):
    assert regime_from_sides(eta_a > 1.0, eta_b > 1.0) is expected


def test_rhs_balanced_below_threshold_is_zero():
    econ = GoodEconomy(p_a=1.0, p_b=2.0, c_a=1.0, c_b=2.0, sigma=5.0)
    assert rhs(NormalizedState(0.5, 0.5), econ) == (0.0, 0.0)


def test_rhs_one_sided_export():
    # direct substitution: f = 0.5, so (1 - 0.5 - 2*0.5, 0 + 2*0.5)
    econ = GoodEconomy(p_a=1.0, p_b=0.0, c_a=0.5, c_b=0.0, sigma=2.0)
    assert rhs(NormalizedState(1.5, 0.5), econ) == (-0.5, 1.0)


@given(eta_a=etas, eta_b=etas, p_a=rates, p_b=rates, c_a=rates, c_b=rates)
def test_rhs_decoupled_when_sigma_zero(eta_a, eta_b, p_a, p_b, c_a, c_b):
    econ = GoodEconomy(p_a, p_b, c_a, c_b, 0.0)
    assert rhs(NormalizedState(eta_a, eta_b), econ) == (p_a - c_a, p_b - c_b)


@given(delta=st.floats(1e-12, 1.0), other=etas)
def test_flow_continuous_at_guard(delta, other):
    # branch formulas agree at eta = 1; the jump over the guard is at most
    # the excursion itself (plus a rounding ulp)
    f0 = exchange_flow(NormalizedState(1.0, other))
    for eta in (1.0 + delta, 1.0 - delta):
        assert abs(exchange_flow(NormalizedState(eta, other)) - f0) <= delta + 1e-15
    f0 = exchange_flow(NormalizedState(other, 1.0))
    for eta in (1.0 + delta, 1.0 - delta):
        assert abs(exchange_flow(NormalizedState(other, eta)) - f0) <= delta + 1e-15


@given(eta_a=etas, eta_b=etas, p_a=rates, p_b=rates, c_a=rates, c_b=rates,
       sigma=rates)
def test_total_rate_independent_of_sigma_and_state(eta_a, eta_b, p_a, p_b, c_a, c_b, sigma):
    # the exchange term cancels in the sum; exact up to one rounding per term
    state = NormalizedState(eta_a, eta_b)
    da, db = rhs(state, GoodEconomy(p_a, p_b, c_a, c_b, sigma))
    da0, db0 = rhs(state, GoodEconomy(p_a, p_b, c_a, c_b, 0.0))
    assert abs((da + db) - (da0 + db0)) <= 1e-12


@given(eta_a=st.floats(1.0, 4.0, exclude_min=True), eta_b=st.floats(1.0, 4.0, exclude_min=True))
def test_bilateral_flow_antisymmetric(eta_a, eta_b):
    assert exchange_flow(NormalizedState(eta_a, eta_b)) == -exchange_flow(
        NormalizedState(eta_b, eta_a)
    )


@given(above=st.floats(1.0, 4.0), below=st.floats(-2.0, 1.0))
def test_flow_sign_matches_exporter(above, below):
    assert exchange_flow(NormalizedState(above, below)) >= 0.0
    assert exchange_flow(NormalizedState(below, above)) <= 0.0


def test_scalar_flow_is_bit_equal_to_the_array_flow():
    rng = np.random.default_rng(5)
    edges = [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.0, -0.0, -1.0,
             -5e-324, 5e-324, 1e308, -1e308, 2.0, 1.0 + 2.0**-30]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += list(zip(rng.uniform(-3.0, 4.0, 2000), rng.uniform(-3.0, 4.0, 2000)))
    pairs += list(zip(1.0 + rng.uniform(-1e-15, 1e-15, 200), rng.uniform(-3.0, 4.0, 200)))
    eta_a, eta_b = (np.array(column, dtype=float) for column in zip(*pairs))
    scalar = np.array([exchange_flow(NormalizedState(a, b))
                       for a, b in zip(eta_a.tolist(), eta_b.tolist())])
    assert scalar.tobytes() == flow_array(eta_a, eta_b).tobytes()


@pytest.mark.parametrize("settle", ["none", "near the switch", "never"])
@pytest.mark.parametrize("give_hi", [False, True])
@given(lo=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e3, exclude_min=True),
       frac=st.floats(0.0, 1.0), tol=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       near=st.floats(0.0, 1.0))
def test_bisect_owns_the_value_at_its_upper_end(settle, give_hi, lo, width, frac, tol, near):
    # a monotone switch: past(t) is None below it and, from it on, a fresh
    # object naming t; bisect must test each point once, never lo, and hand
    # settled and its caller the object past gave at the current hi
    hi = lo + width
    assume(hi > lo)
    switch = lo + frac * (hi - lo)
    if not lo < switch <= hi:  # rounded onto or past an end
        switch = hi
    values = {}

    def past(t):
        assert lo < t <= hi and t not in values
        values[t] = None if t < switch else [t]
        return values[t]

    settled_args = []

    def settled(value):
        settled_args.append(value)
        assert value is values[min(t for t, v in values.items() if v is not None)]
        return settle == "near the switch" and value[0] - switch <= near * width

    at_hi = None
    if give_hi:
        at_hi = values[hi] = [hi]
    new_lo, new_hi, value = bisect(past, lo, hi, tol, None if settle == "none" else settled,
                                   at_hi)
    assert value is values[new_hi]
    assert lo <= new_lo < switch <= new_hi <= hi
    assert new_lo == lo or values[new_lo] is None
    splits = new_lo < new_lo + 0.5 * (new_hi - new_lo) < new_hi
    if settle == "none":
        assert not splits or new_hi - new_lo <= tol
        assert settled_args == []
    elif settle == "never":
        assert not splits
    else:
        assert not splits or (new_hi - new_lo <= tol and settled_args[-1] is value
                              and new_hi - switch <= near * width)
