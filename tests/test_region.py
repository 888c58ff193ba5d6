import math
import sys

import numpy as np
import pytest

from tradeflow import money, region
from tradeflow.core import GoodEconomy, PriceSet, TwoGoodScenario
from tradeflow.money import feasibility_check
from tradeflow.region import GridSpec, feasible_k_interval, scan_region
from tradeflow.scenario import parse_scenario_text

from test_money import fig_scenario, random_valid_scenario


def small_grid(**kw):
    base = dict(sigma1_min=0.5, sigma1_max=10.0, sigma1_steps=40,
                eta_min=1.5, eta_max=10.0, eta_steps=40)
    base.update(kw)
    return GridSpec(**base)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        small_grid(sigma1_min=10.0, sigma1_max=1.0)
    with pytest.raises(ValueError):
        small_grid(sigma1_steps=1)
    with pytest.raises(ValueError):
        small_grid(sigma1_min=-0.5)
    with pytest.raises(ValueError):
        small_grid(eta_min=0.5)


def test_axis_nodes_come_from_endpoint_interpolation():
    grid = small_grid()
    sig = grid.sigma1_values()
    assert len(sig) == 40
    assert sig[0] == 0.5 and sig[-1] == 10.0
    assert sig[13] == 0.5 + (10.0 - 0.5) * (13 / 39)


def assert_scan_equals_per_node_check(s, grid):
    scan = scan_region(s, grid)
    sig_vals, eta_vals = grid.sigma1_values(), grid.eta_values()
    assert scan.sigma1.tolist() == sig_vals and scan.eta_a1.tolist() == eta_vals
    ref = [[feasibility_check(s, sig, eta_a1=eta) for sig in sig_vals] for eta in eta_vals]
    expected = {
        "k": [[sig * (eta - 1.0) for sig in sig_vals] for eta in eta_vals],
        **{name: [[getattr(r, name) for r in row] for row in ref]
           for name in ("dm_a", "dm_b", "p_a2", "p_b1", "feasible")},
    }
    for name, values in expected.items():
        want = np.array(values)
        got = getattr(scan, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name  # bit for bit
    return scan


def test_array_scan_equals_per_node_feasibility_check():
    fig2_grid = small_grid(sigma1_steps=200, eta_steps=200)
    assert_scan_equals_per_node_check(fig_scenario(), fig2_grid)

    for seed in range(50):
        rng = np.random.default_rng(seed)
        s = random_valid_scenario(rng)
        # nodes start at sigma1 = 0 and eta_a1 = 1, where k is exactly 0
        grid = GridSpec(0.0, rng.uniform(0.5, 10.0), 7, 1.0, 1.0 + rng.uniform(0.5, 5.0), 6)
        assert_scan_equals_per_node_check(s, grid)

    # eta_a1 - 1 == 1 on the first row, so k == sigma1 there and the three
    # sigma1 nodes are an interval endpoint and its two float neighbours
    s = fig_scenario()
    interval = feasible_k_interval(s)
    for end, first_row in ((interval.lo, [False, True, True]),
                           (interval.hi, [True, True, False])):
        grid = GridSpec(np.nextafter(end, -np.inf), np.nextafter(end, np.inf), 3,
                        2.0, 3.0, 2)
        scan = assert_scan_equals_per_node_check(s, grid)
        assert scan.sigma1[1] == end
        assert scan.feasible[0].tolist() == first_row


def test_rows_are_row_major_in_eta():
    s = fig_scenario()
    scan = scan_region(s, GridSpec(1.0, 2.0, 2, 2.0, 3.0, 3))
    assert scan.k.shape == (3, 2)  # a row per eta_a1 node, a column per sigma1 node
    assert scan.eta_a1.tolist() == [2.0, 2.5, 3.0]  # one eta per row
    assert scan.sigma1.tolist() == [1.0, 2.0]
    assert scan.k[0].tolist() == [1.0 * (2.0 - 1.0), 2.0 * (2.0 - 1.0)]


def test_scanner_agrees_with_the_closed_form_interval():
    s = fig_scenario()
    scan = scan_region(s, small_grid())
    interval = feasible_k_interval(s)
    for k, feasible in zip(scan.k.ravel().tolist(), scan.feasible.ravel().tolist()):
        assert feasible == interval.contains(k)


def test_reference_interval_endpoints():
    interval = feasible_k_interval(fig_scenario())
    assert abs(interval.lo - 8.0 / 3.0) <= 1e-12
    assert abs(interval.hi - 7.0) <= 1e-12
    assert not interval.empty


def test_interval_is_empty_for_inconsistent_constraints():
    # B's consumption of good 1 is tiny, so production caps k near zero while
    # A still needs a large k to cover its good-2 losses
    good1 = GoodEconomy(p_a=1.0, p_b=0.1, c_a=1.0, c_b=0.1, sigma=1.0)
    good2 = GoodEconomy(p_a=4.0, p_b=3.0, c_a=5.0, c_b=2.0, sigma=1.0)
    s = TwoGoodScenario(good1, good2, PriceSet(1.0, 3.0, 2.0),
                        PriceSet(5.0, 2.0, 4.0), 2.0, 2.0)
    interval = feasible_k_interval(s)
    assert interval.empty
    assert not interval.contains(0.0)


def test_the_switch_search_covers_every_finite_k():
    # the bracket doubles up to the largest float, and only a predicate that
    # holds at no finite k gives (inf, inf)
    top = sys.float_info.max
    assert region._switch(lambda k: k >= 1e300) == (math.nextafter(1e300, 0.0), 1e300)
    assert region._switch(lambda k: k >= top) == (math.nextafter(top, 0.0), top)
    assert region._switch(lambda k: k > top) == (math.inf, math.inf)
    assert region._switch(lambda k: True) == (-math.inf, 0.0)


_HUGE_K = """
[model]
kind = two-good

[good1]
c_a = {one}
c_b = {big}

[prices1]
x_a = 1
x_b = 3
y = 2

[good2]
c_a = {big}
c_b = {one}

[prices2]
x_a = 3
x_b = 1
y = 2
"""


@pytest.mark.parametrize("scale", [1e-10, 1.0])
def test_an_interval_above_1e30_is_found(scale):
    # feasible k in [5e34, 1e35]*scale; at scale 1 a search capped at 1e30
    # gave [inf, inf], which the scan contradicts at 37 of 150 nodes
    s = parse_scenario_text(_HUGE_K.format(one=scale, big=1e35 * scale)).two_good()
    interval = feasible_k_interval(s)
    assert abs(interval.lo - 5e34 * scale) <= 1e-15 * 5e34 * scale
    assert abs(interval.hi - 1e35 * scale) <= 1e-15 * 1e35 * scale
    scan = scan_region(s, GridSpec(0.0, 2e35 * scale, 50, 1.0, 2.0, 3))
    assert int(scan.feasible.sum()) == 37
    for k, feasible in zip(scan.k.ravel().tolist(), scan.feasible.ravel().tolist()):
        assert feasible == interval.contains(k)


def test_lower_bound_grows_with_the_import_bill():
    def scenario(c_a2):
        good1 = GoodEconomy(2.0, 6.0, 1.0, 7.0, 1.0)
        good2 = GoodEconomy(c_a2 - 1.0, 3.0, c_a2, 2.0, 1.0)
        return TwoGoodScenario(good1, good2, PriceSet(1.0, 3.0, 2.0),
                               PriceSet(5.0, 2.0, 4.0), 2.0, 2.0)

    lows = [feasible_k_interval(scenario(c)).lo for c in (5.0, 6.0, 8.0)]
    assert lows[0] < lows[1] < lows[2]


def test_zero_importer_consumption_forces_k_to_zero():
    good1 = GoodEconomy(p_a=1.0, p_b=0.0, c_a=1.0, c_b=0.0, sigma=1.0)
    good2 = GoodEconomy(p_a=4.0, p_b=3.0, c_a=5.0, c_b=2.0, sigma=1.0)
    s = TwoGoodScenario(good1, good2, PriceSet(1.0, 3.0, 2.0),
                        PriceSet(5.0, 2.0, 4.0), 2.0, 2.0)
    scan = scan_region(s, GridSpec(0.0, 2.0, 5, 1.0, 3.0, 5))
    for k, feasible in zip(scan.k.ravel().tolist(), scan.feasible.ravel().tolist()):
        if feasible:
            assert k == 0.0


def test_feasible_set_is_contiguous_along_rows():
    scan = scan_region(fig_scenario(), small_grid())
    mask = scan.feasible_mask()
    for row in mask:
        idx = np.flatnonzero(row)
        if len(idx):
            assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))


# The public calls that validate a two-good scenario, each as a function of it.
_PUBLIC_CALLS = {
    "scan_region": lambda s: scan_region(s, small_grid()),
    "feasible_k_interval": feasible_k_interval,
    "feasibility_check": lambda s: feasibility_check(s, 1.0),
}


@pytest.mark.parametrize("name", _PUBLIC_CALLS)
def test_each_public_call_validates_the_scenario_once(monkeypatch, name):
    seen = []
    validate = money.validate_scenario
    monkeypatch.setattr(money, "validate_scenario", lambda s: seen.append(s) or validate(s))
    s = fig_scenario()
    _PUBLIC_CALLS[name](s)
    assert seen == [s]


@pytest.mark.parametrize("name", _PUBLIC_CALLS)
def test_each_public_call_rejects_an_invalid_scenario(name):
    with pytest.raises(ValueError) as err:
        _PUBLIC_CALLS[name](fig_scenario(eta_a1=1.0))
    assert str(err.value) == "invalid scenario: eta_a1 must be > 1 (above threshold), got 1.0"
