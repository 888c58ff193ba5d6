"""Acceptance suite: one test per release criterion, each printing a PASS
line once its assertions hold. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tradeflow.analytic import simulate_analytic
from tradeflow.core import GoodEconomy, NormalizedState, PriceSet
from tradeflow.exchange import rhs
from tradeflow.integrator import (
    DepletionPolicy,
    SolverOptions,
    integrate_with_events,
)
from tradeflow.money import (
    balanced_sigma2,
    feasibility_check,
    one_good_money_rates,
    trade_balances,
)
from tradeflow.region import feasible_k_interval, scan_region
from tradeflow.scenario import parse_scenario
from tradeflow.analytic import solve_a_exports

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _report(n: int, name: str) -> None:
    print(f"\nacceptance criterion {n} ({name}): PASS")


@pytest.fixture(scope="module")
def random_run_metrics():
    """100 random one-good scenarios integrated both ways over horizon 10;
    per run, the analytic/numeric sup discrepancy and the conservation
    drift of the total stock."""
    rng = np.random.default_rng(20240501)
    opts = SolverOptions(horizon=10.0, step=1e-3,
                         depletion_policy=DepletionPolicy.CONTINUE)
    sups = []
    drifts = []
    t0 = time.perf_counter()
    for _ in range(100):
        econ = GoodEconomy(*rng.uniform(0.0, 5.0, size=4), rng.uniform(0.0, 5.0))
        s0 = NormalizedState(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
        traj = simulate_analytic(s0, econ, opts.horizon)
        series = integrate_with_events(s0, econ, opts)
        ref = traj.states_at(series.times)
        sups.append(max(
            np.abs(series.eta_a - ref[:, 0]).max(),
            np.abs(series.eta_b - ref[:, 1]).max(),
        ))
        expected = (s0.eta_a + s0.eta_b) + (econ.net_a + econ.net_b) * series.times
        drifts.append(np.abs((series.eta_a + series.eta_b) - expected).max())
    elapsed = time.perf_counter() - t0
    return sups, drifts, elapsed


def test_criterion_1_analytic_numeric_equivalence(random_run_metrics):
    sups, _, elapsed = random_run_metrics
    worst = max(sups)
    assert worst <= 1e-6, f"worst sup-norm discrepancy {worst}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f} s exceeds the 10 s budget"
    _report(1, f"analytic vs numeric, worst sup {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_conservation_across_regimes(random_run_metrics):
    _, drifts, _ = random_run_metrics
    worst = max(drifts)
    assert worst <= 1e-9, f"worst conservation drift {worst}"
    _report(2, f"total-stock conservation, worst drift {worst:.2e}")


def test_criterion_3_cooperative_steady_state():
    # A holds 1 + eps, B sits exactly at threshold; productions split the
    # outflow. The sigma values keep every term exactly representable, so the
    # derivatives are exactly zero and nothing moves.
    for eps in (0.1, 0.5, 1.0):
        for sigma in (1.0, 2.0):
            c_a, c_b = 1.0, 2.0
            state = NormalizedState(1.0 + eps, 1.0)
            excess = state.eta_a - 1.0
            econ = GoodEconomy(c_a + sigma * excess, c_b - sigma * excess,
                               c_a, c_b, sigma)
            assert rhs(state, econ) == (0.0, 0.0)

            traj = simulate_analytic(state, econ, 100.0)
            ts = np.linspace(0.0, 100.0, 501)
            states = traj.states_at(ts)
            assert np.abs(states[:, 0] - state.eta_a).max() <= 1e-12
            assert np.abs(states[:, 1] - state.eta_b).max() <= 1e-12

            series = integrate_with_events(
                state, econ, SolverOptions(horizon=100.0, step=1e-2)
            )
            assert np.abs(series.eta_a - state.eta_a).max() <= 1e-12
            assert np.abs(series.eta_b - state.eta_b).max() <= 1e-12
    _report(3, "cooperative steady state exactly stationary")


def test_criterion_4_one_good_money_theorem():
    # randomized search over valid A-advantaged fixed points: B's money rate
    # is non-negative only where its production has stopped
    rng = np.random.default_rng(77)
    zero_production_points = 0
    for _ in range(2000):
        sigma = rng.uniform(0.05, 4.0)
        c_a = rng.uniform(0.0, 5.0)
        x_a = rng.uniform(0.0, 2.0)
        y = x_a + rng.uniform(0.05, 2.0)
        x_b = y + rng.uniform(0.05, 2.0)
        eta = 1.0 + rng.uniform(0.0, 3.0)
        excess = eta - 1.0
        if rng.uniform() < 0.3:
            c_b = sigma * excess  # p_b exactly zero
        else:
            c_b = sigma * excess + rng.uniform(0.001, 5.0)
        econ = GoodEconomy(c_a + sigma * excess, c_b - sigma * excess,
                           c_a, c_b, sigma)
        dm_a, dm_b = one_good_money_rates(econ, PriceSet(x_a, x_b, y), eta)
        p_b = c_b - sigma * excess
        assert dm_a >= 0.0
        if dm_b >= 0.0:
            zero_production_points += 1
            assert p_b <= 1e-12, f"B gains while still producing p_b={p_b}"
    assert zero_production_points > 300  # the boundary cluster was exercised
    _report(4, f"B breaks even only at p_b = 0 ({zero_production_points} boundary hits)")


def test_criterion_5_reference_region_reproduction():
    sc = parse_scenario(SCENARIO_DIR / "fig2.scenario")
    two = sc.two_good()
    t0 = time.perf_counter()
    scan = scan_region(two, sc.grid)
    interval = feasible_k_interval(two)
    elapsed = time.perf_counter() - t0

    k_lo, k_hi = 8.0 / 3.0, 7.0  # derived via the pre-elimination oracle below
    assert abs(interval.lo - k_lo) <= 1e-12
    assert abs(interval.hi - k_hi) <= 1e-12

    y1, y2 = two.prices1.y, two.prices2.y
    alpha1, alpha2 = y1 - two.prices1.x_a, y2 - two.prices2.x_a
    beta1, beta2 = y1 - two.prices1.x_b, y2 - two.prices2.x_b
    margin_to_boundary = math.inf
    nodes = zip(np.tile(scan.sigma1, len(scan.eta_a1)).tolist(),
                np.repeat(scan.eta_a1, len(scan.sigma1)).tolist(),
                scan.k.ravel().tolist(), scan.feasible.ravel().tolist())
    for sig, eta, k, feasible in nodes:
        # independent oracle: keep sigma2 explicit and evaluate the original
        # conditions from the fixed-point productions
        sigma2 = balanced_sigma2(sig, eta, two.eta_b2, y1, y2)
        out2 = sigma2 * (two.eta_b2 - 1.0)
        p_a1 = two.good1.c_a + sig * (eta - 1.0)
        p_a2 = two.good2.c_a - out2
        p_b1 = two.good1.c_b - sig * (eta - 1.0)
        p_b2 = two.good2.c_b + out2
        oracle = (
            alpha1 * p_a1 + alpha2 * p_a2 >= 0.0
            and beta1 * p_b1 + beta2 * p_b2 >= 0.0
            and p_a2 >= 0.0
            and p_b1 >= 0.0
        )
        assert feasible == oracle
        assert feasible == (k_lo <= k <= k_hi)
        margin_to_boundary = min(margin_to_boundary, abs(k - k_lo), abs(k - k_hi))
    assert margin_to_boundary > 1e-6  # boundary comparisons are unambiguous
    assert elapsed < 5.0, f"scan took {elapsed:.2f} s"
    _report(5, f"200x200 region matches k in [8/3, 7] ({elapsed:.2f} s)")


def test_criterion_6_trade_balance_identity():
    from test_money import random_valid_scenario

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        s = random_valid_scenario(rng)
        sigma1 = rng.uniform(0.0, 4.0)
        sigma2 = balanced_sigma2(sigma1, s.eta_a1, s.eta_b2,
                                 s.prices1.y, s.prices2.y)
        b_a1, b_a2, b_b1, b_b2 = trade_balances(s, sigma1, sigma2)
        rel = abs(b_a1 + b_a2) / max(abs(b_a1), 1.0)
        worst = max(worst, rel)
        assert abs(b_a1 + b_a2) <= 1e-12 * max(abs(b_a1), 1.0)
        assert b_b1 + b_b2 == -(b_a1 + b_a2)
    _report(6, f"balanced sigma2 zeroes the balances, worst rel {worst:.2e}")


def test_criterion_7_product_collapse():
    from test_money import fig_scenario, random_valid_scenario

    rng = np.random.default_rng(101)
    scenarios = [fig_scenario()] + [random_valid_scenario(rng) for _ in range(9)]
    pairs = 0
    for _ in range(1000):
        s = scenarios[int(rng.integers(len(scenarios)))]
        c = rng.uniform(0.25, 4.0)
        m = int(rng.integers(-3, 4))
        shift = int(rng.integers(-2, 3))
        r1 = feasibility_check(s, c, eta_a1=1.0 + 2.0 ** m)
        r2 = feasibility_check(s, c * 2.0 ** (m - shift), eta_a1=1.0 + 2.0 ** shift)
        assert r1 == r2  # every field identical, booleans and rates alike
        pairs += 1
    assert pairs == 1000
    _report(7, "feasibility depends on sigma1 and eta_a1 only through k")


def test_criterion_8_integrator_order():
    # B consumes exactly the asymptotic inflow, so its stock stays bounded
    # below threshold and the whole run is one smooth exporting regime
    econ = GoodEconomy(p_a=1.4, p_b=0.0, c_a=0.5, c_b=0.9, sigma=2.0)
    s0 = NormalizedState(1.9, 0.1)

    def end_error(step):
        opts = SolverOptions(horizon=2.0, step=step,
                             depletion_policy=DepletionPolicy.CONTINUE)
        series = integrate_with_events(s0, econ, opts)
        exact = solve_a_exports(s0, econ, 2.0)
        return max(abs(series.eta_a[-1] - exact.eta_a),
                   abs(series.eta_b[-1] - exact.eta_b))

    ratios = [end_error(h) / end_error(h / 2.0) for h in (0.04, 0.02)]
    assert min(ratios) >= 12.0, f"order ratios {ratios}"
    _report(8, f"halving the step shrinks the error by {min(ratios):.1f}x")


def test_criterion_9_event_time_accuracy():
    rng = np.random.default_rng(303)
    opts = SolverOptions(horizon=10.0, step=1e-3,
                         depletion_policy=DepletionPolicy.CONTINUE)
    worst = 0.0
    for case in range(50):
        if case % 2 == 0:
            # linear rise through the threshold; crossing time by division
            eta0 = rng.uniform(0.1, 0.9)
            t_star_target = rng.uniform(0.5, 9.0)
            na = (1.0 - eta0) / t_star_target
            c_a = rng.uniform(0.0, 3.0)
            econ = GoodEconomy(c_a + na, 1.0, c_a, 1.0, rng.uniform(0.5, 3.0))
            s0 = NormalizedState(eta0, 0.5)
            t_star = (1.0 - s0.eta_a) / econ.net_a
        else:
            # exponential decay toward an attractor below threshold;
            # crossing time by logarithmic inversion
            sigma = rng.uniform(0.5, 3.0)
            k_target = rng.uniform(0.5, 0.9)
            c_a = sigma * (1.0 - k_target) + rng.uniform(0.5, 2.0)
            econ = GoodEconomy(c_a + sigma * (k_target - 1.0), 0.0, c_a, 0.0, sigma)
            s0 = NormalizedState(rng.uniform(1.05, 1.4), 0.0)
            k_eq = (econ.net_a + sigma) / sigma
            t_star = math.log((s0.eta_a - k_eq) / (1.0 - k_eq)) / sigma

        series = integrate_with_events(s0, econ, opts)
        numeric_events = [e.t for e in series.events if e.stock == "eta_a"]
        assert numeric_events, "the crossing must be detected"
        traj = simulate_analytic(s0, econ, 10.0)
        analytic_event = traj.segments[0].t_end
        worst = max(worst, abs(numeric_events[0] - t_star),
                    abs(analytic_event - t_star))
    assert worst <= 1e-8, f"worst event-time error {worst}"
    _report(9, f"event times match the closed forms to {worst:.1e}")
