import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradeflow.core import GoodEconomy, MoneyState, NormalizedState, PriceSet, TwoGoodScenario
from tradeflow.integrator import DepletionPolicy, SolverOptions, integrate_with_events
from tradeflow.money import (
    balanced_sigma2,
    base_money_rates,
    feasibility_check,
    margins,
    money_holdings,
    one_good_money_rates,
    trade_balances,
)

FIG_PRICES1 = PriceSet(x_a=1.0, x_b=3.0, y=2.0)
FIG_PRICES2 = PriceSet(x_a=5.0, x_b=2.0, y=4.0)


def fig_scenario(eta_a1=2.0, eta_b2=2.0):
    good1 = GoodEconomy(p_a=2.0, p_b=6.0, c_a=1.0, c_b=7.0, sigma=1.0)
    good2 = GoodEconomy(p_a=4.0, p_b=3.0, c_a=5.0, c_b=2.0, sigma=1.0)
    return TwoGoodScenario(good1, good2, FIG_PRICES1, FIG_PRICES2, eta_a1, eta_b2)


def random_valid_scenario(rng):
    x_a1 = rng.uniform(0.0, 3.0)
    y1 = x_a1 + rng.uniform(0.1, 2.0)
    x_b1 = y1 + rng.uniform(0.1, 2.0)
    x_b2 = rng.uniform(0.0, 3.0)
    y2 = x_b2 + rng.uniform(0.1, 2.0)
    x_a2 = y2 + rng.uniform(0.1, 2.0)
    good1 = GoodEconomy(*rng.uniform(0.0, 5.0, size=4), rng.uniform(0.0, 3.0))
    good2 = GoodEconomy(*rng.uniform(0.0, 5.0, size=4), rng.uniform(0.0, 3.0))
    return TwoGoodScenario(
        good1, good2, PriceSet(x_a1, x_b1, y1), PriceSet(x_a2, x_b2, y2),
        eta_a1=1.0 + rng.uniform(0.01, 3.0), eta_b2=1.0 + rng.uniform(0.01, 3.0),
    )


# ---------------------------------------------------------------- margins

def test_margins_reference_values():
    m = margins(fig_scenario())
    assert (m.alpha1, m.alpha2, m.beta1, m.beta2) == (1.0, -1.0, -1.0, 2.0)


def test_margins_relabeling_symmetry():
    # mirror-symmetric prices make A's margins on good 1 equal B's on good 2
    s = fig_scenario()
    sym = TwoGoodScenario(
        s.good1, s.good2,
        PriceSet(x_a=1.0, x_b=3.0, y=2.0), PriceSet(x_a=3.0, x_b=1.0, y=2.0),
        2.0, 2.0,
    )
    m = margins(sym)
    assert m.alpha1 == m.beta2 and m.alpha2 == m.beta1


def test_margins_sign_pattern_is_forced():
    rng = np.random.default_rng(43)
    for _ in range(100):
        m = margins(random_valid_scenario(rng))
        assert m.alpha1 > 0 > m.alpha2
        assert m.beta2 > 0 > m.beta1


def test_margins_reject_invalid_scenarios():
    s = fig_scenario(eta_a1=1.0)
    with pytest.raises(ValueError, match="invalid scenario"):
        margins(s)


# ---------------------------------------------------------------- one good

def test_one_good_b_breaks_even_only_without_production():
    econ = GoodEconomy(p_a=3.0, p_b=0.0, c_a=1.0, c_b=2.0, sigma=1.0)
    dm_a, dm_b = one_good_money_rates(econ, FIG_PRICES1, eta_a_star=3.0)
    assert dm_b == 0.0
    assert dm_a == (2.0 - 1.0) * (1.0 + 2.0)  # margin times total consumption


def test_one_good_b_loses_while_it_still_produces():
    econ = GoodEconomy(p_a=2.0, p_b=1.0, c_a=1.0, c_b=2.0, sigma=1.0)
    dm_a, dm_b = one_good_money_rates(econ, FIG_PRICES1, eta_a_star=2.0)
    assert dm_b == -1.0  # (y - x_b) * p_b = (2 - 3) * 1
    assert dm_a == 2.0


def test_one_good_zero_margin_limit():
    econ = GoodEconomy(p_a=2.0, p_b=1.0, c_a=1.0, c_b=2.0, sigma=1.0)
    dm_a, _ = one_good_money_rates(econ, PriceSet(x_a=2.0, x_b=3.0, y=2.0), 2.0)
    assert dm_a == 0.0


def test_one_good_rejects_wrong_advantage():
    econ = GoodEconomy(p_a=2.0, p_b=1.0, c_a=1.0, c_b=2.0, sigma=1.0)
    with pytest.raises(ValueError, match="A-advantaged"):
        one_good_money_rates(econ, PriceSet(x_a=5.0, x_b=2.0, y=4.0), 2.0)


def test_one_good_rejects_negative_production():
    econ = GoodEconomy(p_a=2.0, p_b=1.0, c_a=1.0, c_b=2.0, sigma=2.0)
    with pytest.raises(ValueError, match="exceeds"):
        one_good_money_rates(econ, FIG_PRICES1, eta_a_star=3.0)


def test_one_good_gain_for_b_needs_zero_production():
    # randomized search: dm_b >= 0 happens only where p_b vanished
    rng = np.random.default_rng(47)
    for _ in range(500):
        sigma = rng.uniform(0.1, 3.0)
        c_a = rng.uniform(0.0, 5.0)
        x_a = rng.uniform(0.0, 2.0)
        y = x_a + rng.uniform(0.1, 2.0)
        x_b = y + rng.uniform(0.1, 2.0)
        prices = PriceSet(x_a, x_b, y)
        eta = 1.0 + rng.uniform(0.0, 3.0)
        excess = eta - 1.0
        if rng.uniform() < 0.5:
            c_b = sigma * excess  # boundary point: p_b is exactly zero
        else:
            c_b = sigma * excess + rng.uniform(0.001, 5.0)
        p_a = c_a + sigma * excess
        p_b = c_b - sigma * excess
        econ = GoodEconomy(p_a, p_b, c_a, c_b, sigma)
        dm_a, dm_b = one_good_money_rates(econ, prices, eta)
        assert dm_a >= 0.0
        assert (dm_b >= 0.0) == (p_b <= 1e-12)


# ---------------------------------------------------------------- balances

def test_balanced_sigma2_reference_value():
    assert balanced_sigma2(2.0, 2.5, 2.0, 2.0, 4.0) == 1.5


def test_balanced_sigma2_symmetric_setup():
    assert balanced_sigma2(0.7, 1.5, 1.5, 3.0, 3.0) == 0.7


def test_balanced_sigma2_no_trade():
    assert balanced_sigma2(0.0, 2.0, 3.0, 1.0, 2.0) == 0.0


def test_balanced_sigma2_rejects_degenerate_excess():
    with pytest.raises(ValueError, match="eta_b2"):
        balanced_sigma2(1.0, 2.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="y2"):
        balanced_sigma2(1.0, 2.0, 2.0, 1.0, 0.0)


def test_trade_balances_reference_value():
    s = fig_scenario(eta_a1=2.5)
    b_a1, b_a2, b_b1, b_b2 = trade_balances(s, 2.0, 1.0)
    assert b_a1 == 2.0 * 2.0 * 1.5 == 6.0
    assert b_b1 == -b_a1 and b_b2 == -b_a2


def test_trade_balances_zero_without_exchange():
    assert trade_balances(fig_scenario(), 0.0, 0.0) == (0.0, 0.0, -0.0, -0.0)


def test_trade_balances_cancel_under_the_balance_relation():
    rng = np.random.default_rng(53)
    for _ in range(300):
        s = random_valid_scenario(rng)
        sigma1 = rng.uniform(0.0, 4.0)
        sigma2 = balanced_sigma2(sigma1, s.eta_a1, s.eta_b2, s.prices1.y, s.prices2.y)
        b_a1, b_a2, b_b1, b_b2 = trade_balances(s, sigma1, sigma2)
        assert abs(b_a1 + b_a2) <= 1e-12 * max(abs(b_a1), 1.0)
        assert abs(b_b1 + b_b2) <= 1e-12 * max(abs(b_b1), 1.0)


# ---------------------------------------------------------------- two goods

def test_two_good_rates_reference_point():
    # k = 3: A nets 0.5 per unit time, B nets 3
    r = feasibility_check(fig_scenario(), 2.0, eta_a1=2.5)
    assert r.dm_a == 0.5 and r.dm_b == 3.0
    assert (r.p_a1, r.p_a2, r.p_b1, r.p_b2) == (4.0, 3.5, 4.0, 3.5)


def test_two_good_rates_autarky_point():
    r = feasibility_check(fig_scenario(), 0.0)
    assert r.dm_a == -4.0  # loses on good 2 with no trade income
    assert (r.p_a1, r.p_a2, r.p_b1, r.p_b2) == (1.0, 5.0, 7.0, 2.0)


def test_two_good_rates_report_negative_productions():
    r = feasibility_check(fig_scenario(), 8.0)  # k = 8 > c_b1
    assert r.p_b1 < 0.0


def test_feasibility_reference_points():
    s = fig_scenario()
    infeasible = feasibility_check(s, 1.0, eta_a1=2.0)  # k = 1
    assert infeasible.dm_a == -2.5
    assert not infeasible.money_a_ok and not infeasible.feasible
    feasible = feasibility_check(s, 2.0, eta_a1=2.5)  # k = 3
    assert feasible.feasible
    assert (feasible.dm_a, feasible.dm_b) == (0.5, 3.0)
    assert (feasible.p_a2, feasible.p_b1) == (3.5, 4.0)


def test_feasibility_no_trade_limit():
    # without trade both production constraints hold but both countries lose
    # money on the good they import
    r = feasibility_check(fig_scenario(), 0.0)
    assert r.prod_a2_ok and r.prod_b1_ok
    assert r.dm_a == -4.0 and not r.money_a_ok
    assert r.dm_b == -3.0 and not r.money_b_ok


def test_feasibility_depends_only_on_the_product():
    # pairs built from power-of-two excesses share k exactly
    rng = np.random.default_rng(59)
    s = fig_scenario()
    for _ in range(200):
        c = rng.uniform(0.25, 4.0)
        m = rng.integers(-3, 4)
        shift = rng.integers(-2, 3)
        k1 = (c, 1.0 + 2.0 ** m)
        k2 = (c * 2.0 ** (m - shift), 1.0 + 2.0 ** shift)
        r1 = feasibility_check(s, k1[0], eta_a1=k1[1])
        r2 = feasibility_check(s, k2[0], eta_a1=k2[1])
        assert r1 == r2


def test_feasibility_matches_the_pre_elimination_oracle():
    # independent route: keep sigma2 explicit, evaluate the four conditions
    # from the productions, skip nodes within float fuzz of a boundary
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(300):
        s = random_valid_scenario(rng)
        sigma1 = rng.uniform(0.0, 4.0)
        k = sigma1 * (s.eta_a1 - 1.0)
        sigma2 = balanced_sigma2(sigma1, s.eta_a1, s.eta_b2, s.prices1.y, s.prices2.y)
        out2 = sigma2 * (s.eta_b2 - 1.0)
        p_a1 = s.good1.c_a + sigma1 * (s.eta_a1 - 1.0)
        p_a2 = s.good2.c_a - out2
        p_b1 = s.good1.c_b - sigma1 * (s.eta_a1 - 1.0)
        p_b2 = s.good2.c_b + out2
        m = margins(s)
        dm_a = m.alpha1 * p_a1 + m.alpha2 * p_a2
        dm_b = m.beta1 * p_b1 + m.beta2 * p_b2
        scale = max(abs(dm_a), abs(dm_b), abs(p_a2), abs(p_b1), 1.0)
        if min(abs(dm_a), abs(dm_b), abs(p_a2), abs(p_b1)) < 1e-9 * scale:
            continue
        oracle = dm_a >= 0 and dm_b >= 0 and p_a2 >= 0 and p_b1 >= 0
        assert feasibility_check(s, sigma1).feasible == oracle
        checked += 1
    assert checked > 250


def test_feasible_point_money_never_decreases_in_simulation():
    # build both goods' fixed points at a feasible (sigma1, eta_a1) and
    # integrate money along the RK4 steps; the combined holdings must not drift down
    s = fig_scenario(eta_a1=2.5, eta_b2=2.0)
    sigma1 = 2.0
    r = feasibility_check(s, sigma1, eta_a1=2.5)
    assert r.feasible
    sigma2 = balanced_sigma2(sigma1, 2.5, 2.0, s.prices1.y, s.prices2.y)
    p_a1, p_a2, p_b1, p_b2 = r.p_a1, r.p_a2, r.p_b1, r.p_b2
    econ1 = GoodEconomy(p_a1, p_b1, s.good1.c_a, s.good1.c_b, sigma1)
    econ2 = GoodEconomy(p_a2, p_b2, s.good2.c_a, s.good2.c_b, sigma2)
    opts = SolverOptions(horizon=5.0, step=1e-2,
                         depletion_policy=DepletionPolicy.CONTINUE)
    run1 = integrate_with_events(NormalizedState(2.5, 0.5), econ1, opts, prices=s.prices1)
    run2 = integrate_with_events(NormalizedState(0.5, 2.0), econ2, opts, prices=s.prices2)
    assert np.array_equal(run1.times, run2.times)
    m_a = run1.m_a + run2.m_a
    m_b = run1.m_b + run2.m_b
    assert np.diff(m_a).min() >= -1e-12
    assert np.diff(m_b).min() >= -1e-12


def test_vanishing_good2_margin_leaves_only_the_export_income():
    # alpha2 = 0 exactly is rejected by strict validation; in the limit the
    # A rate collapses to alpha1 * p_a1, which can never be negative
    eps = 1e-9
    good1 = GoodEconomy(2.0, 6.0, 1.0, 7.0, 1.0)
    good2 = GoodEconomy(4.0, 3.0, 5.0, 2.0, 1.0)
    prices2 = PriceSet(x_a=4.0 + eps, x_b=2.0, y=4.0)
    s = TwoGoodScenario(good1, good2, FIG_PRICES1, prices2, 2.0, 2.0)
    for sigma1 in (0.0, 1.0, 3.0):
        r = feasibility_check(s, sigma1)
        assert abs(r.dm_a - margins(s).alpha1 * r.p_a1) <= 2 * eps * abs(r.p_a2)
        assert r.dm_a >= -2 * eps * abs(r.p_a2)
    degenerate = TwoGoodScenario(good1, good2, FIG_PRICES1,
                                 PriceSet(4.0, 2.0, 4.0), 2.0, 2.0)
    with pytest.raises(ValueError, match="invalid scenario"):
        feasibility_check(degenerate, 1.0)


def test_rate_form_agrees_with_the_ratio_form():
    # the margin-ratio inequalities are equivalent to the rate form whenever
    # their denominators (the exporters' productions) are strictly positive
    rng = np.random.default_rng(67)
    compared = 0
    for _ in range(300):
        s = random_valid_scenario(rng)
        sigma1 = rng.uniform(0.0, 3.0)
        r = feasibility_check(s, sigma1)
        m = margins(s)
        if r.p_a1 <= 1e-9 or r.p_b2 <= 1e-9:
            continue
        scale = max(abs(r.dm_a), abs(r.dm_b), 1.0)
        if min(abs(r.dm_a), abs(r.dm_b)) < 1e-9 * scale:
            continue
        ratio_a_ok = m.alpha1 / (-m.alpha2) >= r.p_a2 / r.p_a1
        ratio_b_ok = m.beta2 / (-m.beta1) >= r.p_b1 / r.p_b2
        assert r.money_a_ok == ratio_a_ok
        assert r.money_b_ok == ratio_b_ok
        compared += 1
    assert compared > 250


def test_feasibility_ignores_the_good2_stock_choice():
    # eta_b2 is eliminated by the balance relation: scenarios differing only
    # in that stock level produce identical feasibility results
    rng = np.random.default_rng(71)
    for _ in range(50):
        sigma1 = rng.uniform(0.0, 4.0)
        eta = 1.0 + rng.uniform(0.0, 2.0)
        results = [
            feasibility_check(fig_scenario(eta_b2=eta_b2), sigma1, eta_a1=eta)
            for eta_b2 in (1.1, 2.0, 7.5)
        ]
        assert results[0] == results[1] == results[2]


@given(sigma1=st.floats(0.0, 5.0), eta=st.floats(1.0, 4.0))
def test_feasibility_check_routes_through_k(sigma1, eta):
    s = fig_scenario()
    # eta_a1 = 2.0 makes k = sigma1*(eta - 1)*1.0 exactly
    assert feasibility_check(s, sigma1, eta_a1=eta) == feasibility_check(
        s, sigma1 * (eta - 1.0), eta_a1=2.0
    )


def test_feasibility_rejects_bad_arguments():
    s = fig_scenario()
    with pytest.raises(ValueError, match="sigma1"):
        feasibility_check(s, -1.0)
    with pytest.raises(ValueError, match="eta_a1"):
        feasibility_check(s, 1.0, eta_a1=0.5)


# ------------------------------------------------------------- money_holdings

def _signed_log_uniform(rng, lo, hi, size):
    return rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(lo, hi, size=size)


def test_money_holdings_adds_rk4_increments_in_sequence():
    rng = np.random.default_rng(11)
    econ = GoodEconomy(1.5, 0.5, 1.0, 2.0, 3.0)
    prices = PriceSet(1.0, 3.0, 2.0)
    base_a, base_b = base_money_rates(econ, prices)
    h = rng.uniform(1e-3, 1e-1, size=50)
    sfs = [rng.uniform(-2.0, 2.0, size=50) for _ in range(4)]
    m_a, m_b = money_holdings(econ, prices, MoneyState(3.0, -1.0), h, *sfs)
    ma, mb = 3.0, -1.0
    assert (m_a[0], m_b[0]) == (ma, mb)
    for i in range(50):
        sixth = float(h[i]) / 6.0
        ka = [base_a + 2.0 * float(sf[i]) for sf in sfs]
        kb = [base_b - 2.0 * float(sf[i]) for sf in sfs]
        ma = ma + sixth * (ka[0] + 2.0 * (ka[1] + ka[2]) + ka[3])
        mb = mb + sixth * (kb[0] + 2.0 * (kb[1] + kb[2]) + kb[3])
        assert (m_a[i + 1], m_b[i + 1]) == (ma, mb)


def test_money_holdings_without_steps_is_the_start():
    econ = GoodEconomy(1.0, 1.0, 1.0, 1.0, 1.0)
    empty = np.array([])
    m_a, m_b = money_holdings(econ, FIG_PRICES1, None, empty, empty, empty, empty, empty)
    assert m_a.tolist() == [0.0] and m_b.tolist() == [0.0]


@pytest.mark.parametrize("top", [3.0, 306.0, 308.0])
def test_money_holdings_with_one_midpoint_flow_is_simpson(top):
    # sf2 is sf3: 2*(rm + rm) == 4*rm exactly, also where either overflows
    rng = np.random.default_rng(12)
    n = 400
    econ = GoodEconomy(*rng.uniform(0.0, 2.0, size=4), 1.0)
    prices = PriceSet(*rng.uniform(0.0, 3.0, size=3))
    h = 10.0 ** rng.uniform(-4, 0, size=n)
    sf = _signed_log_uniform(rng, -3, top, n + 1)
    sf_mid = _signed_log_uniform(rng, -3, top, n)
    money0 = MoneyState(*_signed_log_uniform(rng, -3, top, 2))
    base_a, base_b = base_money_rates(econ, prices)
    y = prices.y
    with np.errstate(over="ignore", invalid="ignore"):
        got = money_holdings(econ, prices, money0, h, sf[:-1], sf_mid, sf_mid, sf[1:])
        expected = []
        for m_start, r, r_mid in ((money0.m_a, base_a + y * sf, base_a + y * sf_mid),
                                  (money0.m_b, base_b - y * sf, base_b - y * sf_mid)):
            increments = h / 6.0 * (r[:-1] + 4.0 * r_mid + r[1:])
            expected.append(np.cumsum(np.concatenate(([m_start], increments))))
    for g, e in zip(got, expected):
        assert g.tobytes() == e.tobytes()
    if top > 307.0:
        assert not np.isfinite(got[0]).all()  # the overflow branch was reached
