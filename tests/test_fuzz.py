"""Fuzzing of the scenario parser and the command line.

Any text either parses or raises ScenarioError, and any scenario file, raw
bytes included, ends in a documented exit code, with `error:` lines when it
is an input error or a numerical-check failure; and any valid Scenario
serializes to text that parses back equal. Generated runs stay small
(grids of at most 20x20, at most 10^3 samples), and the examples are
derandomized so every run of the suite tries the same ones.
"""

import configparser
import contextlib
import dataclasses
import io
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tradeflow.cli import EXIT_DEPLETION, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from tradeflow.core import GoodEconomy, MoneyState, NormalizedState, PriceSet
from tradeflow.integrator import DepletionPolicy, SolverOptions
from tradeflow.money import fixed_point_production
from tradeflow.region import GridSpec
from tradeflow.scenario import Scenario, ScenarioError, parse_scenario_text, serialize_scenario

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=250)

NUMBERS = st.one_of(
    st.floats(-5.0, 5.0).map(repr),
    st.floats().map(repr),
    st.integers(-3, 5).map(str),
    st.sampled_from(["0", "-0", "1", "1.5", "1e308", "-1e308", "5e-324", "nan", "inf",
                     "", "x", "1,5"]),
)
GRID_STEPS = st.integers(1, 20).map(str)
VALUES = {
    "kind": st.sampled_from(["one-good", "two-good", "three-good", ""]),
    "depletion_policy": st.sampled_from(["halt", "clamp_to_zero", "continue", "stop"]),
    "sigma1_steps": GRID_STEPS,
    "eta_steps": GRID_STEPS,
}
SECTIONS = {
    "model": ["kind"],
    "good1": ["p_a", "p_b", "c_a", "c_b", "sigma", "eta_star"],
    "good2": ["p_a", "p_b", "c_a", "c_b", "sigma", "eta_star"],
    "prices1": ["x_a", "x_b", "y"],
    "prices2": ["x_a", "x_b", "y"],
    "initial": ["eta_a", "eta_b", "m_a", "m_b"],
    "solver": ["horizon", "step", "event_tol", "depletion_policy"],
    "grid": ["sigma1_min", "sigma1_max", "sigma1_steps", "eta_min", "eta_max", "eta_steps"],
    "bogus": ["bogus"],
}
MAX_SAMPLES = 1e3


def _sections_of(path: Path) -> dict:
    """{section: {key: value}} of a scenario file."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(path.read_text())
    return {section: dict(cp[section]) for section in cp.sections()}


BUNDLED = [_sections_of(p) for p in
           sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scenario"))]


def _bound_samples(keys: dict) -> dict:
    """Shrink a solver step so that horizon/step stays within MAX_SAMPLES."""
    try:
        horizon = float(keys["horizon"])
        step = float(keys.get("step", "1e-3"))
    except (KeyError, ValueError):
        return keys
    if step > 0.0 and horizon > MAX_SAMPLES * step:
        keys = {**keys, "step": repr(horizon / MAX_SAMPLES)}
    return keys


def _render(sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        if section == "solver":
            keys = _bound_samples(keys)
        lines.append(f"[{section}]")
        lines += [f"{name} = {value}" for name, value in keys.items()]
    return "\n".join(lines) + "\n"


@st.composite
def random_scenarios(draw) -> str:
    """Any sections, each with any subset of its keys."""
    sections = {}
    for section in draw(st.lists(st.sampled_from(sorted(SECTIONS)), max_size=8)):
        names = draw(st.lists(st.sampled_from(SECTIONS[section]), unique=True))
        sections[section] = {name: draw(VALUES.get(name, NUMBERS)) for name in names}
    return _render(sections)


@st.composite
def mutated_scenarios(draw, base: dict) -> str:
    """A bundled scenario with a few of its values replaced (its grid sizes
    always), so that many examples get past the parser."""
    return _render({
        section: {name: draw(VALUES.get(name, NUMBERS))
                  if name.endswith("_steps") or draw(st.integers(0, 9)) == 0 else value
                  for name, value in keys.items()}
        for section, keys in base.items()
    })


SIMULATE = [["simulate", "--analytic"], ["simulate", "--numeric"], ["simulate", "--both"]]
FIXED_POINT = [["fixed-point"], ["fixed-point", "--eta-star={eta!r}"],
               ["fixed-point", "--eta-star", "{eta!r}"]]
REGION = [["region"]]
#: --out names for simulate and region: a plain data file, a name that the
#: plot script also takes, one that looks like a comparison file, no suffix
OUT_NAMES = ["out.csv", "out.gnuplot", "out.compare.csv", "out"]


@st.composite
def cli_runs(draw) -> tuple[bytes, list[str]]:
    """(scenario file contents, command with its flags): mostly a mutated
    bundled scenario with a command for its kind, else any bytes or text
    with any command."""
    if draw(st.integers(0, 3)) == 0:
        contents = draw(st.one_of(
            st.binary(max_size=200),
            st.text(max_size=200).map(str.encode),
            st.tuples(random_scenarios(), st.binary(max_size=4)).map(
                lambda pair: pair[0].encode() + pair[1]),
        ))
        return contents, draw(st.sampled_from(SIMULATE + FIXED_POINT + REGION))
    base = draw(st.sampled_from(BUNDLED))
    commands = REGION if base["model"]["kind"] == "two-good" else SIMULATE + FIXED_POINT
    return draw(mutated_scenarios(base)).encode(), draw(st.sampled_from(commands))


@FUZZ
@given(st.one_of(random_scenarios(), st.sampled_from(BUNDLED).flatmap(mutated_scenarios),
                 st.text()))
def test_parse_returns_a_scenario_or_raises_scenario_error(text):
    try:
        assert isinstance(parse_scenario_text(text), Scenario)
    except ScenarioError as exc:
        assert exc.problems


#: Non-negative finite floats, subnormals and 1e308 included.
RATES = st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 1e308),
                  st.sampled_from([5e-324, 1e-310, 1e308]))
FINITE = st.one_of(st.floats(-5.0, 5.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def goods(draw, exporter: str, two: bool) -> tuple[GoodEconomy, float | None]:
    """A good with explicit productions, or with an eta_star and the
    productions the parser derives from it (when that fixed point exists)."""
    c_a, c_b, sigma = draw(RATES), draw(RATES), draw(RATES)
    if draw(st.booleans()):
        eta_star = draw(st.floats(1.0, 3.0, exclude_min=two)
                        | st.floats(1.0, 1e308, exclude_min=two))
        c_exp, c_imp = (c_a, c_b) if exporter == "a" else (c_b, c_a)
        try:
            p_exp, p_imp = fixed_point_production(eta_star, c_exp, c_imp, sigma)
            p_a, p_b = (p_exp, p_imp) if exporter == "a" else (p_imp, p_exp)
            return GoodEconomy(p_a, p_b, c_a, c_b, sigma), eta_star
        except ValueError:  # no such fixed point: give the productions instead
            pass
    return GoodEconomy(draw(RATES), draw(RATES), c_a, c_b, sigma), None


def _solver(horizon: float, fraction: float, event_tol: float, policy) -> SolverOptions:
    try:
        return SolverOptions(horizon, horizon * fraction, event_tol, policy)
    except ValueError:  # the step rounded to 0 or past the sample cap
        return SolverOptions(horizon, horizon, event_tol, policy)


@st.composite
def scenarios(draw) -> Scenario:
    """Valid one-good and two-good Scenarios, every optional section either
    given or left out, money included (or not) with the initial state."""
    two = draw(st.booleans())
    good1, eta_star1 = draw(goods("a", two))
    good2, eta_star2 = draw(goods("b", two)) if two else (None, None)
    if two:  # A exports good 1, B good 2: x_a < y < x_b, then x_b < y < x_a
        lo, mid, hi = draw(st.lists(RATES, min_size=3, max_size=3, unique=True).map(sorted))
        prices1, prices2 = PriceSet(lo, hi, mid), PriceSet(hi, lo, mid)
    else:
        prices1 = draw(st.none() | st.builds(PriceSet, RATES, RATES, RATES))
        prices2 = None
    initial = draw(st.none() | st.builds(NormalizedState, FINITE, FINITE))
    money = st.none() | st.just(MoneyState(0.0, 0.0))
    if prices1 is not None:  # non-zero money needs [prices1]
        money |= st.builds(MoneyState, FINITE, FINITE)
    solver = draw(st.none() | st.builds(
        _solver, st.floats(5e-324, 1e308), st.floats(1e-7, 1.0), st.floats(5e-324, 1e308),
        st.sampled_from(DepletionPolicy)))
    grid = None
    if two and draw(st.booleans()):
        s_lo, s_hi = draw(st.lists(st.floats(0.0, 1e308), min_size=2, max_size=2,
                                   unique=True).map(sorted))
        e_lo, e_hi = draw(st.lists(st.floats(1.0, 1e308), min_size=2, max_size=2,
                                   unique=True).map(sorted))
        grid = GridSpec(s_lo, s_hi, draw(st.integers(2, 3000)), e_lo, e_hi,
                        draw(st.integers(2, 3000)))
    return Scenario(
        kind="two-good" if two else "one-good", good1=good1, good2=good2,
        eta_star1=eta_star1, eta_star2=eta_star2, prices1=prices1, prices2=prices2,
        initial=initial, initial_money=draw(money) if initial is not None else None,
        solver=solver, grid=grid,
    )


@FUZZ
@given(scenarios())
def test_serialized_scenarios_parse_back_equal(sc):
    """parse(serialize(s)) == s, with one exception: an initial state without
    money is written as `m_a = 0`, `m_b = 0` and parses back with
    MoneyState(0.0, 0.0), not None (as perfbench's `crosscheck` draws are)."""
    expected = sc
    if sc.initial is not None and sc.initial_money is None:
        expected = dataclasses.replace(sc, initial_money=MoneyState(0.0, 0.0))
    assert parse_scenario_text(serialize_scenario(sc)) == expected


def _run_main(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and standard-error lines of one run, stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def test_main_ends_in_a_documented_exit_code(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "fuzz.scenario"

    @FUZZ
    @given(cli_runs(), st.floats(0.0, 3.0) | st.floats(), st.sampled_from(OUT_NAMES),
           st.booleans())
    def run(scenario_and_command, eta, out_name, plot):
        contents, (name, *flags) = scenario_and_command
        path.write_bytes(contents)
        argv = [name, str(path), *(flag.format(eta=eta) for flag in flags)]
        if name != "fixed-point":
            argv += ["--out", str(work / out_name)] + (["--plot"] if plot else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, lines = _run_main(argv)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_DEPLETION)
        if code in (EXIT_INPUT, EXIT_NUMERIC):
            assert lines and all(line.startswith("error: ") for line in lines), lines
        elif code == EXIT_DEPLETION:
            assert len(lines) == 1 and lines[0].startswith("depletion halt at t="), lines
        else:
            assert not lines

    run()
