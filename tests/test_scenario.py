from pathlib import Path

import pytest

from tradeflow.core import GoodEconomy, MoneyState, NormalizedState, PriceSet
from tradeflow.integrator import DepletionPolicy
from tradeflow.scenario import (
    ScenarioError,
    parse_scenario,
    parse_scenario_text,
    serialize_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

ONE_GOOD = """
[model]
kind = one-good

[good1]
p_a = 1.25
p_b = 1
c_a = 1
c_b = 1
sigma = 1

[initial]
eta_a = 0.5
eta_b = 0.5

[solver]
horizon = 10
"""


def test_parse_minimal_one_good():
    sc = parse_scenario_text(ONE_GOOD)
    assert sc.kind == "one-good"
    assert sc.good1 == GoodEconomy(1.25, 1.0, 1.0, 1.0, 1.0)
    assert sc.initial == NormalizedState(0.5, 0.5)
    assert sc.initial_money == MoneyState(0.0, 0.0)
    assert sc.solver.horizon == 10.0
    assert sc.solver.step == 1e-3  # defaults
    assert sc.solver.depletion_policy is DepletionPolicy.HALT
    assert sc.prices1 is None and sc.grid is None


def test_parse_fig2_bundle():
    sc = parse_scenario(SCENARIO_DIR / "fig2.scenario")
    assert sc.kind == "two-good"
    two = sc.two_good()
    assert two.prices1 == PriceSet(1.0, 3.0, 2.0)
    assert two.prices2 == PriceSet(5.0, 2.0, 4.0)
    assert two.good1.c_a == 1.0 and two.good1.c_b == 7.0
    assert two.good2.c_a == 5.0 and two.good2.c_b == 2.0
    assert two.eta_a1 == 2.0 and two.eta_b2 == 2.0  # defaults
    assert sc.grid.sigma1_steps == 200 and sc.grid.eta_steps == 200


def test_parse_steady_bundle_derives_production_from_eta_star():
    sc = parse_scenario(SCENARIO_DIR / "steady_state.scenario")
    assert sc.eta_star1 == 1.5
    assert sc.good1 == GoodEconomy(p_a=2.0, p_b=1.0, c_a=1.0, c_b=2.0, sigma=2.0)


def test_two_good_eta_star_derives_the_exporting_side():
    text = ONE_GOOD.replace("one-good", "two-good") + """
[prices1]
x_a = 1
x_b = 3
y = 2

[good2]
c_a = 5
c_b = 2
sigma = 2
eta_star = 1.5

[prices2]
x_a = 5
x_b = 2
y = 4
"""
    sc = parse_scenario_text(text)
    # good 2 exports from B: B overproduces, A underproduces
    assert sc.good2 == GoodEconomy(p_a=4.0, p_b=3.0, c_a=5.0, c_b=2.0, sigma=2.0)


def test_missing_model_section():
    with pytest.raises(ScenarioError, match=r"missing \[model\]"):
        parse_scenario_text("")


def test_unknown_sections_and_keys_are_rejected():
    text = ONE_GOOD + "\n[extra]\nfoo = 1\n"
    with pytest.raises(ScenarioError, match=r"unknown section \[extra\]"):
        parse_scenario_text(text)
    with pytest.raises(ScenarioError, match="unknown key 'bogus'"):
        parse_scenario_text(ONE_GOOD.replace("sigma = 1", "sigma = 1\nbogus = 2"))


def test_all_violations_are_reported_at_once():
    text = """
[model]
kind = two-good

[good1]
c_a = 1
c_b = 7

[prices1]
x_a = 2
x_b = 3
y = 2

[good2]
c_a = 5
c_b = 2

[prices2]
x_a = 5
x_b = 2
y = 9
"""
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    joined = "\n".join(err.value.problems)
    assert "prices1" in joined and "prices2" in joined
    assert len(err.value.problems) == 2


def test_conflicting_production_specs_are_rejected():
    text = ONE_GOOD.replace("p_a = 1.25", "p_a = 1.25\neta_star = 1.5")
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario_text(text)


def test_missing_production_spec_is_rejected():
    text = ONE_GOOD.replace("p_a = 1.25\np_b = 1\n", "")
    with pytest.raises(ScenarioError, match="provide productions"):
        parse_scenario_text(text)


def test_non_numeric_values_are_located():
    with pytest.raises(ScenarioError, match=r"\[good1\].sigma: not a number"):
        parse_scenario_text(ONE_GOOD.replace("sigma = 1", "sigma = fast"))


def test_bad_productions_are_reported_alongside_a_missing_consumption():
    text = ONE_GOOD.replace("c_a = 1\n", "").replace("p_a = 1.25", "p_a = x")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.problems == [
        "[good1]: missing required key 'c_a'",
        "[good1].p_a: not a number: 'x'",
    ]


@pytest.mark.parametrize("body, problems", [
    ("sigma = 1\n", [
        "[good1]: missing required key 'c_a'",
        "[good1]: missing required key 'c_b'",
        "[good1]: provide productions (p_a, p_b) or a fixed-point eta_star",
    ]),
    ("p_a = x\np_b = 1\nc_a = 1\nc_b = 1\neta_star = 1.5\n", [
        "[good1]: give either productions (p_a, p_b) or eta_star, not both",
        "[good1].p_a: not a number: 'x'",
    ]),
    ("p_a = x\np_b = 1\nc_a = 1\nc_b = 1\neta_star = y\n", [
        "[good1].eta_star: not a number: 'y'",
        "[good1].p_a: not a number: 'x'",
    ]),
])
def test_every_problem_of_a_good_is_reported_in_key_order(body, problems):
    text = ONE_GOOD.replace("p_a = 1.25\np_b = 1\nc_a = 1\nc_b = 1\nsigma = 1\n", body)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.problems == problems


def test_a_bad_step_is_not_checked_against_the_horizon_as_its_default():
    text = ONE_GOOD.replace("horizon = 10", "horizon = 0.0001\nstep = x")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.problems == ["[solver].step: not a number: 'x'"]


def test_a_bad_sigma_does_not_derive_productions_as_its_default():
    text = ONE_GOOD.replace("p_a = 1.25\np_b = 1\n", "").replace(
        "sigma = 1", "sigma = fast\neta_star = 3")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.problems == ["[good1].sigma: not a number: 'fast'"]


@pytest.mark.parametrize("section", ["good1", "good2"])
def test_eta_star_beyond_the_importers_consumption(section):
    if section == "good1":  # A exports good 1: outflow 2 exceeds c_b = 1
        text = ONE_GOOD.replace("p_a = 1.25\np_b = 1\n", "eta_star = 3\n")
    else:  # B exports good 2: outflow 6 exceeds c_a = 5
        text = ONE_GOOD.replace("one-good", "two-good") + """
[prices1]
x_a = 1
x_b = 3
y = 2

[good2]
c_a = 5
c_b = 2
sigma = 2
eta_star = 4

[prices2]
x_a = 5
x_b = 2
y = 4
"""
    with pytest.raises(ScenarioError, match="negative production") as err:
        parse_scenario_text(text)
    assert len(err.value.problems) == 1
    problem = err.value.problems[0]
    assert problem.startswith(f"[{section}]: ") and "importer" in problem


def test_one_good_must_not_define_good2():
    text = ONE_GOOD + "\n[good2]\nc_a = 1\nc_b = 1\n"
    with pytest.raises(ScenarioError, match="must not define"):
        parse_scenario_text(text)


def test_grid_requires_two_good():
    text = ONE_GOOD + """
[grid]
sigma1_min = 0
sigma1_max = 1
sigma1_steps = 2
eta_min = 1
eta_max = 2
eta_steps = 2
"""
    with pytest.raises(ScenarioError, match="two-good"):
        parse_scenario_text(text)


def test_missing_file_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        parse_scenario(tmp_path / "nope.scenario")


@pytest.mark.parametrize(
    "name", ["fig2.scenario", "steady_state.scenario", "crossing.scenario"]
)
def test_bundled_scenarios_round_trip(name):
    sc = parse_scenario(SCENARIO_DIR / name)
    assert parse_scenario_text(serialize_scenario(sc)) == sc


def test_round_trip_preserves_awkward_floats():
    text = ONE_GOOD.replace("sigma = 1", "sigma = 0.1").replace(
        "horizon = 10", "horizon = 9.600000000000001\nstep = 1e-6"
    )
    sc = parse_scenario_text(text)
    again = parse_scenario_text(serialize_scenario(sc))
    assert again == sc
    assert again.solver.step == 1e-6
